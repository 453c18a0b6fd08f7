//! Virtual networks: the Active Messages II programming interface and the
//! full-cluster composition — the paper's primary contribution.
//!
//! A **virtual network** is a collection of *endpoints* that refer to one
//! another through translation tables, giving each application "the
//! illusion of having its own dedicated, high-performance network" while
//! the interface hardware multiplexes a small number of physical endpoint
//! frames (§1, §3).
//!
//! This crate supplies:
//!
//! * the user-level programming interface — endpoints with endpoint-relative
//!   naming and protection keys (§3.1), the exactly-once/return-to-sender
//!   delivery model (§3.2), thread-based communication events (§3.3), and
//!   the 32-credit user-level request flow control of §6.4.1 — in
//!   [`sys::Sys`] and [`sys::ThreadBody`];
//! * the composition of every substrate — [`vnet_net`] fabric,
//!   [`vnet_nic`] interfaces, [`vnet_os`] segment drivers and schedulers —
//!   into a single deterministic simulated cluster, [`cluster::Cluster`];
//! * calibrated [`config::CostModel`] presets for the paper's two systems:
//!   virtual-network Active Messages (`now_am`) and the first-generation
//!   single-endpoint GAM baseline (`now_gam`).
//!
//! # Quickstart
//!
//! ```
//! use vnet_core::prelude::*;
//!
//! // Two workstations on the NOW fat tree.
//! let mut cluster = Cluster::new(ClusterConfig::now(2));
//! let a = cluster.create_endpoint(HostId(0));
//! let b = cluster.create_endpoint(HostId(1));
//! cluster.build_virtual_network(&[a, b]);
//!
//! // A thread on host 1 that answers every request.
//! cluster.spawn_thread(HostId(1), Box::new(Echo { ep: b }));
//! // A thread on host 0 that sends one request and waits for the reply.
//! cluster.spawn_thread(HostId(0), Box::new(PingOnce { ep: a, done: false }));
//! cluster.run_for(SimDuration::from_millis(50));
//!
//! let pinger: &PingOnce = cluster.body::<PingOnce>(HostId(0), Tid(0)).unwrap();
//! assert!(pinger.done, "reply must arrive");
//!
//! struct Echo { ep: GlobalEp }
//! impl ThreadBody for Echo {
//!     fn run(&mut self, sys: &mut Sys<'_>) -> Step {
//!         while let Some(m) = sys.poll(self.ep.ep, QueueSel::Request) {
//!             let _ = sys.reply(self.ep.ep, &m, 0, [0; 4], 0);
//!         }
//!         Step::WaitEvent(self.ep.ep)
//!     }
//! }
//!
//! struct PingOnce { ep: GlobalEp, done: bool }
//! impl ThreadBody for PingOnce {
//!     fn run(&mut self, sys: &mut Sys<'_>) -> Step {
//!         if self.done {
//!             return Step::Exit;
//!         }
//!         if sys.outstanding(self.ep.ep) == 0 {
//!             sys.request(self.ep.ep, 1, 9, [1, 2, 3, 4], 0).unwrap();
//!         }
//!         if sys.poll(self.ep.ep, QueueSel::Reply).is_some() {
//!             self.done = true;
//!             return Step::Exit;
//!         }
//!         Step::WaitEvent(self.ep.ep)
//!     }
//! }
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cluster;
pub mod config;
pub mod control;
pub mod model;
pub mod names;
pub mod observe;
pub mod sys;
pub mod user;
pub mod world;

pub use builder::ClusterBuilder;
pub use cluster::Cluster;
pub use config::{ClusterConfig, CostModel, Mode};
pub use control::{
    ControlPlane, ControlSpec, CtlOp, EpFactory, ManagedEp, MigPhase, MigRec, MigState,
    QuotaError, TenantSpec, CTL_EP_BASE,
};
pub use model::{
    bounded_pareto, zipf_rank, AbsStats, AbstractTraffic, FabricSlot, Fidelity,
    FidelityMap, OpenLoopSpec,
};
pub use names::NameService;
pub use observe::ClusterTelemetry;
pub use sys::{SendError, Step, Sys, ThreadBody};
pub use user::{EpMode, UserEpState};
pub use world::{Event, FullHost, HostEnv, HostSlot, World};

/// Common imports for applications built on virtual networks.
pub mod prelude {
    pub use crate::builder::ClusterBuilder;
    pub use crate::cluster::Cluster;
    pub use crate::config::{ClusterConfig, CostModel, Mode};
    pub use crate::control::{ControlSpec, QuotaError, TenantSpec};
    pub use crate::model::{AbsStats, AbstractTraffic, Fidelity, FidelityMap, OpenLoopSpec};
    pub use crate::observe::ClusterTelemetry;
    pub use crate::sys::{SendError, Step, Sys, ThreadBody};
    pub use crate::user::EpMode;
    pub use vnet_nic::{DeliveredMsg, EpId, GlobalEp, QueueSel};
    pub use vnet_net::HostId;
    pub use vnet_os::Tid;
    pub use vnet_sim::telemetry::{MetricSet, MetricValue, MetricsSnapshot};
    pub use vnet_sim::{SimDuration, SimTime};
}
