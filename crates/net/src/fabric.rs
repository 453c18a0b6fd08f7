//! The network fabric: link reservation, cut-through timing, delivery.

use crate::fault::{DropReason, FaultPlan};
use crate::packet::Packet;
use crate::topology::{LinkId, Topology};
use vnet_sim::telemetry::{MetricSet, MetricValue, MetricVisitor};
use vnet_sim::{SimDuration, SimTime};

/// Physical parameters of the network.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Per-direction link bandwidth in MB/s. Myrinet's 1.28 Gb/s ports
    /// move 160 MB/s each way.
    pub link_mb_s: f64,
    /// Per-switch cut-through latency (the paper: ~300 ns) plus wire time.
    pub hop_latency: SimDuration,
    /// Cut-through latency on *trunk* links (leaf↔spine in a fat tree)
    /// when it differs from the edge links — long inter-pod cables, say.
    /// `None` (the default) means trunks run at `hop_latency`, which
    /// preserves every historical timing. The parallel executor's
    /// per-shard-pair lookahead feeds on this asymmetry: cross-shard
    /// routes all traverse a trunk, so a slow trunk widens the epoch
    /// window without touching intra-shard timing.
    pub trunk_latency: Option<SimDuration>,
    /// Link-level header bytes charged per packet (route bytes + CRC +
    /// 32-bit timestamp of §5.1).
    pub header_bytes: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link_mb_s: 160.0,
            hop_latency: SimDuration::from_nanos(300),
            trunk_latency: None,
            header_bytes: 16,
        }
    }
}

impl NetConfig {
    /// Cut-through latency of one link: `hop_latency`, or `trunk_latency`
    /// for trunk links when configured.
    pub fn latency_of(&self, topo: &Topology, l: LinkId) -> SimDuration {
        if topo.is_trunk(l) {
            self.trunk_latency.unwrap_or(self.hop_latency)
        } else {
            self.hop_latency
        }
    }
}

/// Per-link counters.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Packets that traversed the link.
    pub packets: u64,
    /// Wire bytes that traversed the link.
    pub bytes: u64,
    /// Total simulated time the link was reserved, in nanoseconds.
    pub busy_ns: u64,
}

/// Result of injecting a packet.
#[derive(Debug)]
pub enum InjectOutcome<P> {
    /// The packet's tail will arrive at `pkt.dst` after `delay`.
    Delivered {
        /// Tail-arrival delay from the injection instant.
        delay: SimDuration,
        /// Marks packets the receiver must discard on CRC check.
        corrupt: bool,
        /// The packet (returned so the caller can schedule its delivery).
        pkt: Packet<P>,
    },
    /// The packet was lost in the fabric.
    Dropped {
        /// Why it was lost.
        reason: DropReason,
        /// The lost packet.
        pkt: Packet<P>,
    },
}

/// Phase-1 result of a two-phase injection ([`Fabric::inject_src`]).
#[derive(Debug)]
pub enum Phase1<P> {
    /// The packet reserved its ascending links; its head reaches the
    /// fabric midpoint at `at`. Finish with [`Fabric::complete_ingress`].
    Ingress {
        /// Absolute time the head is ready to enter the descending
        /// segment. Always ≥ injection time + one `hop_latency` per
        /// ascending switch hop.
        at: SimTime,
        /// Per-source ingress sequence number (monotone per `pkt.src`),
        /// the canonical tie-break for same-instant ingresses.
        seq: u64,
        /// Marks packets the receiver must discard on CRC check.
        corrupt: bool,
        /// The in-flight packet.
        pkt: Packet<P>,
    },
    /// The packet was lost before reaching the midpoint.
    Dropped {
        /// Why it was lost.
        reason: DropReason,
        /// The lost packet.
        pkt: Packet<P>,
    },
}

/// The network: topology + per-link reservation state + fault model.
pub struct Fabric {
    cfg: NetConfig,
    topo: Topology,
    faults: FaultPlan,
    /// Time until which each link is already reserved.
    busy_until: Vec<SimTime>,
    /// Cut-through latency per link (precomputed from the config so the
    /// walk stays one indexed load even with heterogeneous trunks).
    latency: Vec<SimDuration>,
    stats: Vec<LinkStats>,
    /// Per-source ingress sequence numbers (see [`Phase1::Ingress`]).
    ingress_seq: Vec<u64>,
    route_buf: Vec<LinkId>,
}

impl Fabric {
    /// Build a fabric over `topo` with fault plan `faults`.
    pub fn new(cfg: NetConfig, topo: Topology, faults: FaultPlan) -> Self {
        let n = topo.link_count() as usize;
        let hosts = topo.host_count() as usize;
        let latency = (0..n as u32).map(|l| cfg.latency_of(&topo, LinkId(l))).collect();
        Fabric {
            cfg,
            topo,
            faults,
            busy_until: vec![SimTime::ZERO; n],
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

    /// Utilization of a link over `[SimTime::ZERO, now]` as a fraction.
    pub fn link_utilization(&self, l: LinkId, now: SimTime) -> f64 {
        let t = now.as_nanos();
        if t == 0 {
            0.0
        } else {
            self.stats[l.idx()].busy_ns as f64 / t as f64
        }
    }

    /// Inject `pkt` at time `now`. Computes the full passage immediately
    /// (link reservation model — see crate docs) and returns either the
    /// delivery delay or the drop reason.
    ///
    /// This is phase 1 + phase 2 back-to-back; the timing is identical to
    /// running [`Fabric::inject_src`] and then [`Fabric::complete_ingress`]
    /// at the returned ingress instant, which is what the cluster's
    /// executors do so a packet's descending links are reserved by the
    /// *destination's* side of the fabric.
    pub fn inject<P>(&mut self, now: SimTime, pkt: Packet<P>) -> InjectOutcome<P> {
        match self.inject_src(now, pkt) {
            Phase1::Dropped { reason, pkt } => InjectOutcome::Dropped { reason, pkt },
            Phase1::Ingress { at, corrupt, pkt, .. } => {
                let rest = self.complete_ingress(at, &pkt);
                InjectOutcome::Delivered { delay: (at + rest) - now, corrupt, pkt }
            }
        }
    }

    /// Phase 1 of a two-phase injection: judge the fault model (on
    /// `pkt.src`'s own stream) and reserve the route's *ascending* links
    /// ([`Topology::split_point`]). On success the packet's head is ready
    /// to enter the descending segment at the returned ingress time.
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
        let at = self.walk(now, wire, 0, k);
        let seq = &mut self.ingress_seq[pkt.src.0 as usize];
        *seq += 1;
        Phase1::Ingress { at, seq: *seq, corrupt, pkt }
    }

    /// Phase 2: reserve the route's *descending* links starting from the
    /// ingress instant `at` (as returned by [`Fabric::inject_src`]) and
    /// return the remaining delay until the packet's tail reaches
    /// `pkt.dst`.
    pub fn complete_ingress<P>(&mut self, at: SimTime, pkt: &Packet<P>) -> SimDuration {
        self.route_buf.clear();
        self.topo.route(pkt.src, pkt.dst, pkt.channel, &mut self.route_buf);
        let k = self.topo.split_point(pkt.src, pkt.dst) as usize;
        let wire = pkt.wire_bytes(self.cfg.header_bytes);
        let len = self.route_buf.len();
        let head = self.walk(at, wire, k, len);
        // Tail arrives one serialization after the head enters the last
        // link (the head value after an empty descending segment is the
        // ingress instant itself).
        let ser = SimDuration::for_bytes(wire as u64, self.cfg.link_mb_s);
        (head + ser) - at
    }

    /// Reserve links `route_buf[from..to]`, the head entering the first
    /// of them at `head`; returns when the head is past link `to` (plus
    /// the switch latency unless `to` is the route's end).
    fn walk(&mut self, mut head: SimTime, wire_bytes: u32, from: usize, to: usize) -> SimTime {
        let ser = SimDuration::for_bytes(wire_bytes as u64, self.cfg.link_mb_s);
        let len = self.route_buf.len();
        for i in from..to {
            let l = self.route_buf[i].idx();
            let enter = head.max(self.busy_until[l]);
            self.busy_until[l] = enter + ser;
            let st = &mut self.stats[l];
            st.packets += 1;
            st.bytes += wire_bytes as u64;
            st.busy_ns += ser.as_nanos();
            // Cut-through: the head moves on after the link's switch
            // latency; the body streams behind it. (Nothing follows the
            // final link.)
            head = enter + if i + 1 < len { self.latency[l] } else { SimDuration::ZERO };
        }
        head
    }
}

/// Fabric-wide aggregates over every link, enumerated generically
/// alongside `NicStats`/`OsStats` (snapshot prefix `net`). Per-link
/// depth stays available through [`Fabric::link_stats`].
impl MetricSet for Fabric {
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
        // Fault counters, broken down by `DropReason` (§3.2: the substrate
        // masks transient errors — these count what it had to mask).
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
    use crate::packet::HostId;
    use crate::topology::TopologySpec;

    fn fabric(spec: TopologySpec) -> Fabric {
        Fabric::new(NetConfig::default(), Topology::build(spec), FaultPlan::none(0))
    }

    fn pkt(src: u32, dst: u32, bytes: u32) -> Packet<u32> {
        Packet { src: HostId(src), dst: HostId(dst), channel: 0, bytes, payload: 0 }
    }

    fn delay_of(out: InjectOutcome<u32>) -> SimDuration {
        match out {
            InjectOutcome::Delivered { delay, corrupt: false, .. } => delay,
            other => panic!("expected clean delivery, got {other:?}"),
        }
    }

    #[test]
    fn uncontended_latency_is_pipeline_plus_hops() {
        let mut f = fabric(TopologySpec::now_cluster());
        // Inter-leaf: 4 links, 3 switch hops. 16B payload + 16B header = 32B.
        let d = delay_of(f.inject(SimTime::ZERO, pkt(0, 99, 16)));
        let ser = SimDuration::for_bytes(32, 160.0); // 200 ns
        let expect = ser + SimDuration::from_nanos(3 * 300);
        assert_eq!(d, expect, "cut-through: one serialization + per-hop latency");
    }

    #[test]
    fn bigger_packets_take_longer() {
        let mut f = fabric(TopologySpec::Crossbar { hosts: 2 });
        let small = delay_of(f.inject(SimTime::ZERO, pkt(0, 1, 64)));
        let mut f2 = fabric(TopologySpec::Crossbar { hosts: 2 });
        let large = delay_of(f2.inject(SimTime::ZERO, pkt(0, 1, 8192)));
        assert!(large > small * 10);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        // Two packets into the same destination host: the down link is
        // shared, so the second is delayed by one serialization.
        let mut f = fabric(TopologySpec::Crossbar { hosts: 3 });
        let d1 = delay_of(f.inject(SimTime::ZERO, pkt(0, 2, 984))); // 1000B wire
        let d2 = delay_of(f.inject(SimTime::ZERO, pkt(1, 2, 984)));
        let ser = SimDuration::for_bytes(1000, 160.0);
        assert!(d2 >= d1 + ser - SimDuration::from_nanos(2), "d1={d1} d2={d2}");
    }

    #[test]
    fn disjoint_paths_do_not_interfere() {
        let mut f = fabric(TopologySpec::Crossbar { hosts: 4 });
        let d1 = delay_of(f.inject(SimTime::ZERO, pkt(0, 1, 8192)));
        let d2 = delay_of(f.inject(SimTime::ZERO, pkt(2, 3, 8192)));
        assert_eq!(d1, d2);
    }

    #[test]
    fn reservation_respects_time_passing() {
        let mut f = fabric(TopologySpec::Crossbar { hosts: 2 });
        let d1 = delay_of(f.inject(SimTime::ZERO, pkt(0, 1, 984)));
        // Inject long after the first packet drained: no queueing.
        let later = SimTime::from_nanos(10_000_000);
        let d2 = delay_of(f.inject(later, pkt(0, 1, 984)));
        assert_eq!(d1, d2);
    }

    #[test]
    fn link_stats_accumulate() {
        let mut f = fabric(TopologySpec::Crossbar { hosts: 2 });
        f.inject(SimTime::ZERO, pkt(0, 1, 84)); // 100B wire
        f.inject(SimTime::ZERO, pkt(0, 1, 84));
        let up = f.link_stats(LinkId(0));
        assert_eq!(up.packets, 2);
        assert_eq!(up.bytes, 200);
        let util = f.link_utilization(LinkId(0), SimTime::from_nanos(up.busy_ns * 2));
        assert!((util - 0.5).abs() < 1e-9);
    }

    #[test]
    fn down_link_drops() {
        let mut f = fabric(TopologySpec::Crossbar { hosts: 2 });
        f.faults_mut().link_down(LinkId(0));
        match f.inject(SimTime::ZERO, pkt(0, 1, 16)) {
            InjectOutcome::Dropped { reason: DropReason::LinkDown, .. } => {}
            other => panic!("expected LinkDown, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_packets_still_consume_wire_time() {
        let mut f = Fabric::new(
            NetConfig::default(),
            Topology::build(TopologySpec::Crossbar { hosts: 2 }),
            FaultPlan::with_errors(3, 0.0, 1.0),
        );
        match f.inject(SimTime::ZERO, pkt(0, 1, 16)) {
            InjectOutcome::Delivered { corrupt: true, .. } => {}
            other => panic!("expected corrupt delivery, got {other:?}"),
        }
        assert_eq!(f.link_stats(LinkId(0)).packets, 1);
    }

    #[test]
    fn incast_throughput_bounded_by_down_link() {
        // 10 senders blast one receiver; aggregate rate must approach but
        // not exceed the 160 MB/s receive-link limit.
        let mut f = fabric(TopologySpec::Crossbar { hosts: 11 });
        let n_pkts = 100u32;
        let bytes = 8192u32;
        let mut last = SimDuration::ZERO;
        for i in 0..n_pkts {
            let src = i % 10;
            let d = delay_of(f.inject(SimTime::ZERO, pkt(src, 10, bytes)));
            last = last.max(d);
        }
        let wire = (bytes + 16) as u64 * n_pkts as u64;
        let mbps = wire as f64 / 1e6 / last.as_secs_f64();
        assert!(mbps <= 160.0 + 0.1, "aggregate {mbps} exceeds link rate");
        assert!(mbps > 150.0, "aggregate {mbps} should saturate the link");
    }
}
