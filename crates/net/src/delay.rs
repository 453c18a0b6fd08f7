//! Delay-only fabric: the *abstract* counterpart of [`crate::Fabric`].
//!
//! Applies the route's cut-through hop latencies and one serialization at
//! the tail — exactly the uncontended timing of the full fabric — but
//! performs **no per-link bandwidth arbitration**: links are never
//! reserved, so concurrent packets glide past each other and contention
//! effects (incast collapse, trunk queueing, the Figure 8 saturation
//! knee) vanish. In exchange every injection is O(route length) with no
//! reservation state.
//!
//! What is **kept** bit-for-bit from the full fabric:
//!
//! * deterministic source routing over the same [`Topology`];
//! * the [`FaultPlan`] judgment on the sender's own stream — drops,
//!   corruptions, scheduled link/switch failures and degrade windows all
//!   fire identically, so fault campaigns remain meaningful;
//! * per-source ingress sequence numbers (the canonical same-instant
//!   tie-break the two-phase injection protocol keys on);
//! * per-link packet/byte counters (so utilization telemetry still has a
//!   shape, though `busy_ns` now records serialization time only, not
//!   queueing).
//!
//! Because the hop latencies are identical to the full fabric's, any
//! lookahead bound derived from the topology and [`NetConfig`] (the
//! parallel executor's one lookahead) is sound for both models.

use crate::fabric::{LinkStats, NetConfig, Phase1};
use crate::fault::{DropReason, FaultPlan};
use crate::packet::Packet;
use crate::topology::{LinkId, Topology};
use vnet_sim::telemetry::{MetricSet, MetricValue, MetricVisitor};
use vnet_sim::{SimDuration, SimTime};

/// A latency-only network: topology + fault model, no reservation state.
pub struct DelayFabric {
    cfg: NetConfig,
    topo: Topology,
    faults: FaultPlan,
    /// Cut-through latency per link (precomputed, as in [`crate::Fabric`]).
    latency: Vec<SimDuration>,
    stats: Vec<LinkStats>,
    /// Per-source ingress sequence numbers (see [`Phase1::Ingress`]).
    ingress_seq: Vec<u64>,
    route_buf: Vec<LinkId>,
}

impl DelayFabric {
    /// Build a delay-only fabric over `topo` with fault plan `faults`.
    pub fn new(cfg: NetConfig, topo: Topology, faults: FaultPlan) -> Self {
        let n = topo.link_count() as usize;
        let hosts = topo.host_count() as usize;
        let latency = (0..n as u32).map(|l| cfg.latency_of(&topo, LinkId(l))).collect();
        DelayFabric {
            cfg,
            topo,
            faults,
            latency,
            stats: vec![LinkStats::default(); n],
            ingress_seq: vec![0; hosts],
            route_buf: Vec::new(),
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The configuration in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Mutable access to the fault plan (hot-swap control, error rates).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.faults
    }

    /// Immutable access to the fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Counters for one link.
    pub fn link_stats(&self, l: LinkId) -> &LinkStats {
        &self.stats[l.idx()]
    }

    /// Phase 1 of the two-phase injection (same contract as
    /// [`crate::Fabric::inject_src`]): judge the fault model on `pkt.src`'s
    /// stream and walk the ascending hops at pure latency. The returned
    /// ingress instant never depends on other traffic.
    pub fn inject_src<P>(&mut self, now: SimTime, pkt: Packet<P>) -> Phase1<P> {
        self.route_buf.clear();
        self.topo.route(pkt.src, pkt.dst, pkt.channel, &mut self.route_buf);
        let corrupt = match self.faults.judge(now, pkt.src.0, &self.route_buf) {
            Some(DropReason::Corrupted) => true, // still consumes wire time
            Some(reason) => return Phase1::Dropped { reason, pkt },
            None => false,
        };
        let k = self.topo.split_point(pkt.src, pkt.dst) as usize;
        let wire = pkt.wire_bytes(self.cfg.header_bytes);
        let at = self.glide(now, wire, 0, k);
        let seq = &mut self.ingress_seq[pkt.src.0 as usize];
        *seq += 1;
        Phase1::Ingress { at, seq: *seq, corrupt, pkt }
    }

    /// Phase 2 (same contract as [`crate::Fabric::complete_ingress`]):
    /// walk the descending hops at pure latency; the tail arrives one
    /// serialization after the head enters the last link.
    pub fn complete_ingress<P>(&mut self, at: SimTime, pkt: &Packet<P>) -> SimDuration {
        self.route_buf.clear();
        self.topo.route(pkt.src, pkt.dst, pkt.channel, &mut self.route_buf);
        let k = self.topo.split_point(pkt.src, pkt.dst) as usize;
        let wire = pkt.wire_bytes(self.cfg.header_bytes);
        let len = self.route_buf.len();
        let head = self.glide(at, wire, k, len);
        let ser = SimDuration::for_bytes(wire as u64, self.cfg.link_mb_s);
        (head + ser) - at
    }

    /// Advance the head over links `route_buf[from..to]` without reserving
    /// anything: per-hop switch latency only (nothing follows the final
    /// link). Counters still accumulate so utilization telemetry works.
    fn glide(&mut self, mut head: SimTime, wire_bytes: u32, from: usize, to: usize) -> SimTime {
        let ser = SimDuration::for_bytes(wire_bytes as u64, self.cfg.link_mb_s);
        let len = self.route_buf.len();
        for i in from..to {
            let l = self.route_buf[i].idx();
            let st = &mut self.stats[l];
            st.packets += 1;
            st.bytes += wire_bytes as u64;
            st.busy_ns += ser.as_nanos();
            head += if i + 1 < len { self.latency[l] } else { SimDuration::ZERO };
        }
        head
    }
}

/// Same aggregate metric names as the full [`crate::Fabric`], so snapshots
/// are comparable across fidelities (`busy` counts serialization only).
impl MetricSet for DelayFabric {
    fn visit_metrics(&self, v: &mut dyn MetricVisitor) {
        let (mut packets, mut bytes, mut busy) = (0u64, 0u64, 0u64);
        for st in &self.stats {
            packets += st.packets;
            bytes += st.bytes;
            busy += st.busy_ns;
        }
        v.metric("links", MetricValue::Gauge(self.stats.len() as f64));
        v.metric("packets", MetricValue::Counter(packets));
        v.metric("bytes", MetricValue::Counter(bytes));
        v.metric("link_busy_ns", MetricValue::Counter(busy));
        let c = self.faults.counts();
        v.metric("drop_link_down", MetricValue::Counter(c.link_down));
        v.metric("drop_transmission", MetricValue::Counter(c.transmission));
        v.metric("drop_degraded", MetricValue::Counter(c.degraded));
        v.metric("drop_burst", MetricValue::Counter(c.burst));
        v.metric("corruptions", MetricValue::Counter(c.corrupted));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, InjectOutcome};
    use crate::packet::HostId;
    use crate::topology::TopologySpec;

    fn pkt(src: u32, dst: u32, bytes: u32) -> Packet<u32> {
        Packet { src: HostId(src), dst: HostId(dst), channel: 0, bytes, payload: 0 }
    }

    fn full_delay(f: &mut Fabric, now: SimTime, p: Packet<u32>) -> SimDuration {
        match f.inject(now, p) {
            InjectOutcome::Delivered { delay, .. } => delay,
            other => panic!("unexpected {other:?}"),
        }
    }

    fn abs_delay(f: &mut DelayFabric, now: SimTime, p: Packet<u32>) -> SimDuration {
        match f.inject_src(now, p) {
            Phase1::Ingress { at, pkt, .. } => {
                let rest = f.complete_ingress(at, &pkt);
                (at + rest) - now
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn uncontended_timing_matches_full_fabric() {
        for spec in [
            TopologySpec::now_cluster(),
            TopologySpec::Crossbar { hosts: 4 },
            TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
        ] {
            let topo = Topology::build(spec);
            let mut full = Fabric::new(NetConfig::default(), topo.clone(), FaultPlan::none(0));
            let mut abs = DelayFabric::new(NetConfig::default(), topo.clone(), FaultPlan::none(0));
            let n = topo.host_count();
            for (s, d, b) in [(0, n - 1, 16u32), (1, 0, 8192)] {
                let fd = full_delay(&mut full, SimTime::ZERO, pkt(s, d, b));
                let ad = abs_delay(&mut abs, SimTime::ZERO, pkt(s, d, b));
                assert_eq!(fd, ad, "uncontended {s}->{d} ({b} B) must agree");
            }
        }
    }

    #[test]
    fn contention_is_dropped() {
        // Ten-way incast: the full fabric queues on the shared down link,
        // the delay fabric does not.
        let topo = Topology::build(TopologySpec::Crossbar { hosts: 11 });
        let mut full = Fabric::new(NetConfig::default(), topo.clone(), FaultPlan::none(0));
        let mut abs = DelayFabric::new(NetConfig::default(), topo, FaultPlan::none(0));
        let mut worst_full = SimDuration::ZERO;
        let mut worst_abs = SimDuration::ZERO;
        for i in 0..10 {
            worst_full = worst_full.max(full_delay(&mut full, SimTime::ZERO, pkt(i, 10, 8192)));
            worst_abs = worst_abs.max(abs_delay(&mut abs, SimTime::ZERO, pkt(i, 10, 8192)));
        }
        assert!(worst_full > worst_abs * 5, "full {worst_full} vs abstract {worst_abs}");
    }

    #[test]
    fn faults_still_judge() {
        let topo = Topology::build(TopologySpec::Crossbar { hosts: 2 });
        let mut f = DelayFabric::new(NetConfig::default(), topo, FaultPlan::none(0));
        f.faults_mut().link_down(LinkId(0));
        match f.inject_src(SimTime::ZERO, pkt(0, 1, 16)) {
            Phase1::Dropped { reason: DropReason::LinkDown, .. } => {}
            other => panic!("expected LinkDown, got {other:?}"),
        }
    }

    #[test]
    fn ingress_sequences_are_per_source() {
        let topo = Topology::build(TopologySpec::Crossbar { hosts: 3 });
        let mut f = DelayFabric::new(NetConfig::default(), topo, FaultPlan::none(0));
        for expect in 1..=3u64 {
            match f.inject_src(SimTime::ZERO, pkt(0, 1, 16)) {
                Phase1::Ingress { seq, .. } => assert_eq!(seq, expect),
                other => panic!("unexpected {other:?}"),
            }
        }
        match f.inject_src(SimTime::ZERO, pkt(2, 1, 16)) {
            Phase1::Ingress { seq, .. } => assert_eq!(seq, 1, "fresh source, fresh stream"),
            other => panic!("unexpected {other:?}"),
        }
    }
}
