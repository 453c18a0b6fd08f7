//! Fluent cluster construction: `Cluster::builder()`.
//!
//! ```
//! use vnet_core::prelude::*;
//!
//! let cluster = Cluster::builder()
//!     .hosts(4)
//!     .frames(96)
//!     .seed(7)
//!     .telemetry(true)
//!     .build();
//! assert_eq!(cluster.hosts(), 4);
//! assert!(cluster.telemetry().enabled());
//! ```
//!
//! `Cluster::new(cfg)` remains for callers that already hold a
//! [`ClusterConfig`]; the builder is sugar over the same presets
//! ([`ClusterConfig::now`] / [`ClusterConfig::gam`]) plus the common
//! overrides, with [`ClusterBuilder::tweak`] as the escape hatch for
//! everything else.

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::model::{Fidelity, FidelityMap};
use vnet_net::{FaultScheduleSpec, TopologySpec};

type ConfigTweak = Box<dyn FnOnce(&mut ClusterConfig)>;

/// Fluent builder for a [`Cluster`]; see the module docs.
pub struct ClusterBuilder {
    hosts: u32,
    gam: bool,
    topology: Option<TopologySpec>,
    frames: Option<u32>,
    seed: Option<u64>,
    credits: Option<u32>,
    drop_prob: Option<f64>,
    corrupt_prob: Option<f64>,
    audit: Option<bool>,
    telemetry: Option<bool>,
    tracing: bool,
    shards: Option<u32>,
    fidelity: Option<FidelityMap>,
    faults: Option<FaultScheduleSpec>,
    tweaks: Vec<ConfigTweak>,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// A builder for the paper's default two-host virtual-network cluster.
    pub fn new() -> Self {
        ClusterBuilder {
            hosts: 2,
            gam: false,
            topology: None,
            frames: None,
            seed: None,
            credits: None,
            drop_prob: None,
            corrupt_prob: None,
            audit: None,
            telemetry: None,
            tracing: false,
            shards: None,
            fidelity: None,
            faults: None,
            tweaks: Vec::new(),
        }
    }

    /// Number of hosts (crossbar topology unless overridden; `100` gives
    /// the full NOW fat tree).
    pub fn hosts(mut self, n: u32) -> Self {
        self.hosts = n;
        self
    }

    /// Use the first-generation GAM baseline instead of virtual networks.
    pub fn gam(mut self) -> Self {
        self.gam = true;
        self
    }

    /// Explicit network topology (overrides the host-count default).
    pub fn topology(mut self, t: TopologySpec) -> Self {
        self.topology = Some(t);
        self
    }

    /// NI endpoint frames per NIC (8 = LANai 4.3, 96 = newer interface).
    pub fn frames(mut self, frames: u32) -> Self {
        self.frames = Some(frames);
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// User-level request credits per destination endpoint.
    pub fn credits(mut self, credits: u32) -> Self {
        self.credits = Some(credits);
        self
    }

    /// Random per-packet drop probability.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = Some(p);
        self
    }

    /// Random per-packet corruption probability.
    pub fn corrupt_prob(mut self, p: f64) -> Self {
        self.corrupt_prob = Some(p);
        self
    }

    /// Attach (or detach) the cross-layer invariant auditor's hooks.
    /// Default: debug builds only.
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = Some(on);
        self
    }

    /// Attach the unified telemetry registry (metrics handles + span
    /// tracing; read back through `Cluster::telemetry`). Default: the
    /// `VNET_TELEMETRY` environment variable, else off.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = Some(on);
        self
    }

    /// Enable the causal trace ring from the start.
    pub fn tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Worker shards for the conservative parallel executor (clamped to
    /// what the topology supports; results are byte-identical for any
    /// value). Default: the `VNET_SHARDS` environment variable, else 1
    /// (sequential).
    pub fn shards(mut self, n: u32) -> Self {
        self.shards = Some(n);
        self
    }

    /// Assign a fidelity class to the listed hosts (see
    /// [`crate::model`]): `Fidelity::Abstract` hosts run the fast LogP
    /// model, everything else stays `Fidelity::Full`. The first fidelity
    /// call on a builder starts from full-everywhere and *replaces* any
    /// `VNET_FIDELITY` environment default (the builder > env > default
    /// contract in [`crate::config`]); later calls accumulate.
    pub fn fidelity(mut self, hosts: impl IntoIterator<Item = u32>, f: Fidelity) -> Self {
        self.fidelity.get_or_insert_with(FidelityMap::full).set_hosts(hosts, f);
        self
    }

    /// The fidelity class unlisted hosts take (replaces/seeds the map the
    /// same way as [`ClusterBuilder::fidelity`]).
    pub fn default_fidelity(mut self, f: Fidelity) -> Self {
        self.fidelity.get_or_insert_with(FidelityMap::full).set_default_host(f);
        self
    }

    /// The fabric's fidelity (`Fidelity::Abstract` selects the delay-only
    /// fabric; same map-seeding rule as [`ClusterBuilder::fidelity`]).
    pub fn fabric_fidelity(mut self, f: Fidelity) -> Self {
        self.fidelity.get_or_insert_with(FidelityMap::full).set_fabric(f);
        self
    }

    /// Scheduled fault campaign: timed link flaps, switch failures,
    /// degrade windows, bursty errors (see
    /// [`vnet_net::FaultScheduleSpec`]). Default: none.
    pub fn faults(mut self, spec: FaultScheduleSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Escape hatch: arbitrary configuration surgery, applied after every
    /// other builder option, in registration order.
    pub fn tweak(mut self, f: impl FnOnce(&mut ClusterConfig) + 'static) -> Self {
        self.tweaks.push(Box::new(f));
        self
    }

    /// Resolve the configuration this builder describes.
    pub fn config(&self) -> ClusterConfig {
        let mut cfg =
            if self.gam { ClusterConfig::gam(self.hosts) } else { ClusterConfig::now(self.hosts) };
        if let Some(t) = &self.topology {
            cfg.topology = t.clone();
        }
        if let Some(f) = self.frames {
            cfg.nic.frames = f;
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        if let Some(c) = self.credits {
            cfg.credits = c;
        }
        if let Some(p) = self.drop_prob {
            cfg.drop_prob = p;
        }
        if let Some(p) = self.corrupt_prob {
            cfg.corrupt_prob = p;
        }
        if let Some(a) = self.audit {
            cfg.audit = a;
        }
        if let Some(t) = self.telemetry {
            cfg.telemetry = t;
        }
        if let Some(s) = self.shards {
            cfg.shards = s.max(1);
        }
        if let Some(f) = &self.fidelity {
            cfg.fidelity = f.clone();
        }
        if let Some(f) = &self.faults {
            cfg.faults = f.clone();
        }
        cfg
    }

    /// Build the cluster.
    pub fn build(self) -> Cluster {
        let mut cfg = self.config();
        for t in self.tweaks {
            t(&mut cfg);
        }
        let c = Cluster::new(cfg);
        if self.tracing {
            c.telemetry().trace_enable();
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use vnet_net::HostId;

    #[test]
    fn builder_resolves_presets_and_overrides() {
        let b = ClusterBuilder::new()
            .hosts(4)
            .frames(96)
            .seed(42)
            .credits(16)
            .drop_prob(0.1)
            .audit(false)
            .telemetry(true);
        let cfg = b.config();
        assert_eq!(cfg.hosts(), 4);
        assert_eq!(cfg.nic.frames, 96);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.credits, 16);
        assert!((cfg.drop_prob - 0.1).abs() < 1e-12);
        assert!(!cfg.audit);
        assert!(cfg.telemetry);
        let c = b.build();
        assert_eq!(c.hosts(), 4);
        assert!(c.telemetry().enabled());
    }

    #[test]
    fn builder_gam_and_tweak() {
        let c = Cluster::builder()
            .gam()
            .hosts(2)
            .tweak(|cfg| cfg.net.link_mb_s = 320.0)
            .build();
        assert_eq!(c.world_of(HostId(0)).cfg.mode, Mode::Gam);
        assert!(!c.telemetry().enabled());
    }

    #[test]
    fn builder_tracing_enables_ring() {
        let c = Cluster::builder().tracing(true).build();
        assert!(c.world_of(HostId(0)).trace.borrow().is_enabled());
    }

    #[test]
    fn builder_fidelity_map() {
        let cfg = ClusterBuilder::new()
            .hosts(8)
            .fidelity(4..8, Fidelity::Abstract)
            .fabric_fidelity(Fidelity::Abstract)
            .config();
        assert_eq!(cfg.fidelity.of(0), Fidelity::Full);
        assert_eq!(cfg.fidelity.of(4), Fidelity::Abstract);
        assert_eq!(cfg.fidelity.fabric(), Fidelity::Abstract);
        assert!(cfg.fidelity.any_abstract(8));
    }
}
