//! Cluster configuration and the calibrated host cost model.
//!
//! # Knob precedence
//!
//! The one run-shape knob with an environment variable,
//! [`ClusterConfig::shards`], resolves this way, and this is the one
//! place the contract is written down:
//!
//! 1. **builder** — an explicit [`ClusterConfig::with_shards`] call (or
//!    [`crate::ClusterBuilder::shards`]) always wins;
//! 2. **environment** — otherwise `VNET_SHARDS`, read when the config
//!    preset is constructed;
//! 3. **default** — otherwise `1` shard.
//!
//! [`ClusterConfig::fidelity`] (default: full everywhere),
//! [`ClusterConfig::audit`] (default: debug builds only) and
//! [`ClusterConfig::telemetry`] (default: off) have no environment
//! variable; only the builder changes them.
//!
//! The environment is consulted once, inside the preset constructors
//! ([`ClusterConfig::now`] and friends); a `with_shards` call after that
//! replaces the resolved value wholesale. Bench binaries map their
//! `--shards` flag onto the same environment variable before building,
//! so the flag inherits this contract.

use crate::model::FidelityMap;
use vnet_net::{FaultScheduleSpec, NetConfig, TopologySpec};
use vnet_nic::NicConfig;
use vnet_os::{OsConfig, SchedConfig};
use vnet_sim::SimDuration;

/// Which communication system the cluster runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Virtual networks (the paper's system): many endpoints per host,
    /// full transport protocol, OS-managed residency.
    VirtualNetwork,
    /// First-generation Active Messages ("GAM"): one permanently resident
    /// endpoint per host, no transport protocol. The Figure 3/4 baseline.
    Gam,
}

/// Host-processor costs (§6.1): the LogP overheads and the polling costs
/// that drive the Figure 6 single-thread-vs-frames effects.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Send overhead o_s: CPU time to write a message descriptor into the
    /// NI with programmed I/O.
    pub host_send: SimDuration,
    /// Receive overhead o_r: CPU time to read a message out of the NI.
    pub host_recv: SimDuration,
    /// Poll of a **resident** endpoint: uncached programmed I/O across the
    /// SBUS ("the costs of polling resident but non-cacheable endpoints in
    /// interface memory", §6.4).
    pub poll_nic: SimDuration,
    /// Poll of a **non-resident** endpoint: cacheable host memory.
    pub poll_host: SimDuration,
    /// User-level bookkeeping per request (credit check, table lookup).
    pub credit_check: SimDuration,
    /// Mutex acquire+release around each operation on a *shared* endpoint
    /// (§3.3; exclusive endpoints skip it).
    pub shared_lock: SimDuration,
}

impl CostModel {
    /// Virtual-network Active Messages on the NOW: o_s = 2.6 µs (bigger
    /// descriptors), o_r = 3.2 µs (VIS block loads). o_s + o_r matches GAM.
    pub fn now_am() -> Self {
        CostModel {
            host_send: SimDuration::from_nanos(2_600),
            host_recv: SimDuration::from_nanos(3_200),
            poll_nic: SimDuration::from_nanos(900),
            poll_host: SimDuration::from_nanos(150),
            credit_check: SimDuration::from_nanos(100),
            shared_lock: SimDuration::from_nanos(500),
        }
    }

    /// First-generation GAM: o_s = 1.8 µs, o_r = 4.0 µs.
    pub fn now_gam() -> Self {
        CostModel {
            host_send: SimDuration::from_nanos(1_800),
            host_recv: SimDuration::from_nanos(4_000),
            poll_nic: SimDuration::from_nanos(900),
            poll_host: SimDuration::from_nanos(150),
            credit_check: SimDuration::from_nanos(100),
            shared_lock: SimDuration::from_nanos(500),
        }
    }
}

/// Everything needed to build a [`crate::cluster::Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Operating mode (selects NIC protocol + cost presets).
    pub mode: Mode,
    /// Network topology.
    pub topology: TopologySpec,
    /// Network physical parameters.
    pub net: NetConfig,
    /// NIC configuration (frames, queue depths, firmware costs).
    pub nic: NicConfig,
    /// OS configuration (fault handling, replacement policy).
    pub os: OsConfig,
    /// Thread scheduler configuration.
    pub sched: SchedConfig,
    /// Host cost model.
    pub cost: CostModel,
    /// Random drop probability per routed packet (0 for the healthy
    /// cluster; Myrinet error rates are negligible).
    pub drop_prob: f64,
    /// Random corruption probability per routed packet.
    pub corrupt_prob: f64,
    /// Scheduled fault campaign: timed link flaps, whole-switch failures,
    /// degraded-link windows, and the optional Gilbert–Elliott bursty
    /// error model. Empty (the default) adds no events and no per-packet
    /// cost beyond the existing uniform-error draws. Campaign transitions
    /// are delivered through the engine's event queue, so results are
    /// byte-identical under sequential and sharded execution.
    pub faults: FaultScheduleSpec,
    /// Master seed; every component derives its stream from this.
    pub seed: u64,
    /// User-level request credits per destination endpoint (§6.4.1: 32,
    /// matching the request receive queue depth).
    pub credits: u32,
    /// Whether the cross-layer invariant auditor's hooks are attached.
    /// Defaults to debug builds only: with hooks detached, the simulation
    /// fast path performs no auditor hash lookups at all (the auditor is
    /// a passive observer, so results are identical either way).
    pub audit: bool,
    /// Whether the span log's hooks are attached (see
    /// `Cluster::telemetry`).
    /// Defaults to off: with hooks detached the hot path pays nothing,
    /// and, like the auditor, telemetry is a passive observer — protocol
    /// results are byte-identical either way.
    pub telemetry: bool,
    /// Worker shards for the conservative parallel executor. `1` (the
    /// default) runs the classic sequential engine; higher values
    /// partition hosts across threads with link-latency lookahead.
    /// Results are byte-identical for any value — the count is clamped
    /// to what the topology supports (see `vnet_net::Partition::plan`).
    /// The `VNET_SHARDS` environment variable overrides the preset
    /// default (but not an explicit [`ClusterConfig::with_shards`]).
    pub shards: u32,
    /// Per-node (and fabric) fidelity selection — which hosts run the
    /// complete machinery and which run the abstract LogP model (see
    /// [`crate::model`]). Defaults to full everywhere; set it with
    /// [`ClusterConfig::with_fidelity`] or the builder.
    pub fidelity: FidelityMap,
}

impl ClusterConfig {
    /// The paper's cluster: `n` hosts in virtual-network mode. For
    /// `n == 100` this is the full NOW; smaller `n` uses a crossbar
    /// (microbenchmark isolation).
    pub fn now(n: u32) -> Self {
        let topology = if n == 100 {
            TopologySpec::now_cluster()
        } else {
            TopologySpec::Crossbar { hosts: n }
        };
        ClusterConfig {
            mode: Mode::VirtualNetwork,
            topology,
            net: NetConfig::default(),
            nic: NicConfig::virtual_network(),
            os: OsConfig::default(),
            sched: SchedConfig::default(),
            cost: CostModel::now_am(),
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            faults: FaultScheduleSpec::none(),
            seed: 0x5EED,
            credits: 32,
            audit: cfg!(debug_assertions),
            telemetry: false,
            shards: env_shards().unwrap_or(1),
            fidelity: FidelityMap::full(),
        }
    }

    /// The GAM baseline configuration on `n` hosts.
    pub fn gam(n: u32) -> Self {
        let mut c = Self::now(n);
        c.mode = Mode::Gam;
        c.nic = NicConfig::gam();
        c.cost = CostModel::now_gam();
        c
    }

    /// Same cluster with 96 endpoint frames (the newer interface).
    pub fn with_frames(mut self, frames: u32) -> Self {
        self.nic.frames = frames;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style auditor-hook override (force on for release-mode
    /// invariant sweeps, or off to measure debug-audit overhead).
    pub fn with_audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Builder-style telemetry-hook override (attach the span log; see
    /// `Cluster::telemetry`).
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Builder-style fault-campaign override (scheduled link/switch
    /// failures, degrade windows, bursty errors).
    pub fn with_faults(mut self, faults: FaultScheduleSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style parallel-shard override. Takes precedence over the
    /// `VNET_SHARDS` environment default, so differential tests can pin
    /// both sides of a sequential-vs-parallel comparison.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Builder-style fidelity override.
    pub fn with_fidelity(mut self, fidelity: FidelityMap) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Number of hosts.
    pub fn hosts(&self) -> u32 {
        self.topology.hosts()
    }
}

/// The `VNET_SHARDS` environment default (None when unset or unparsable).
pub(crate) fn env_shards() -> Option<u32> {
    env_lookup("VNET_SHARDS")?.trim().parse::<u32>().ok().map(|n| n.max(1))
}

/// One environment read path for every knob, with a thread-local test
/// seam: precedence tests override variables per thread instead of racing
/// on the process environment.
pub(crate) fn env_lookup(name: &str) -> Option<String> {
    #[cfg(test)]
    if let Some(v) = test_env::get(name) {
        return v;
    }
    std::env::var(name).ok()
}

/// Thread-local environment overrides for tests (`None` masks a variable
/// that is genuinely set in the process environment).
#[cfg(test)]
pub(crate) mod test_env {
    use std::cell::RefCell;
    use std::collections::HashMap;

    thread_local! {
        static OVERRIDES: RefCell<HashMap<String, Option<String>>> =
            RefCell::new(HashMap::new());
    }

    pub(crate) fn set(name: &str, value: Option<&str>) {
        OVERRIDES.with(|o| o.borrow_mut().insert(name.to_string(), value.map(String::from)));
    }

    pub(crate) fn clear(name: &str) {
        OVERRIDES.with(|o| {
            o.borrow_mut().remove(name);
        });
    }

    pub(crate) fn get(name: &str) -> Option<Option<String>> {
        OVERRIDES.with(|o| o.borrow().get(name).cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logp_overhead_sum_preserved() {
        // The paper: "the total per-packet overhead remains the same".
        let am = CostModel::now_am();
        let gam = CostModel::now_gam();
        assert_eq!(
            (am.host_send + am.host_recv).as_nanos(),
            (gam.host_send + gam.host_recv).as_nanos()
        );
        assert!(am.host_send > gam.host_send, "bigger descriptors cost more o_s");
        assert!(am.host_recv < gam.host_recv, "block loads cost less o_r");
    }

    #[test]
    fn presets() {
        let c = ClusterConfig::now(100);
        assert_eq!(c.hosts(), 100);
        assert_eq!(c.nic.frames, 8);
        assert_eq!(c.credits, 32);
        let c = ClusterConfig::now(100).with_frames(96);
        assert_eq!(c.nic.frames, 96);
        let g = ClusterConfig::gam(2);
        assert_eq!(g.mode, Mode::Gam);
        assert_eq!(g.nic.frames, 1);
        assert_eq!(ClusterConfig::now(16).hosts(), 16);
    }

    /// The module-doc precedence contract (builder > env > default),
    /// asserted through the thread-local environment seam.
    #[test]
    fn knob_precedence_builder_over_env_over_default() {
        // Defaults (masking anything leaked into the process environment).
        test_env::set("VNET_SHARDS", None);
        let c = ClusterConfig::now(4);
        assert_eq!(c.shards, 1);
        assert_eq!(c.audit, cfg!(debug_assertions));
        assert!(!c.telemetry);
        assert_eq!(c.fidelity, FidelityMap::full());
        // The environment overrides the default...
        test_env::set("VNET_SHARDS", Some("4"));
        assert_eq!(ClusterConfig::now(4).shards, 4);
        // ...and an explicit builder-style call beats the environment.
        assert_eq!(ClusterConfig::now(4).with_shards(2).shards, 2);
        test_env::clear("VNET_SHARDS");
    }
}
