//! Standalone layer kernels: each drives one layer's public functions in
//! a tight loop, outside any cluster, so its cost can be read apart from
//! everything the end-to-end workloads mix together. Every kernel repeats
//! its batch and reports the median.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use vnet::corelib::{bounded_pareto, zipf_rank};
use vnet::net::{
    DelayFabric, Fabric, FaultPlan, HostId, NetConfig, Packet, Partition, Phase1, Topology,
    TopologySpec,
};
use vnet::nic::msg::{PollOutcome, QueueSel};
use vnet::nic::testkit::{request, Harness};
use vnet::nic::{EpId, NicConfig, ProtectionKey};
use vnet::prelude::*;
use vnet::sim::{Due, SimRng, TimingWheel};

const BATCHES: usize = 5;

/// The 16,384-host fat tree of `fleet_16k`.
fn fleet_tree() -> Topology {
    Topology::build(TopologySpec::FatTree { leaves: 512, hosts_per_leaf: 32, spines: 8 })
}

fn median_of(mut batch: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    median(&v)
}

/// ns per timer fired: 4,096 live timers, each fire re-arms its own slot
/// and three in four also cancel and re-arm another slot (the
/// ack-cancels-retransmit pattern, as in `engine_bench`).
pub fn wheel_churn_ns_per_op(seed: u64) -> f64 {
    const LIVE: usize = 4096;
    const OPS: u64 = 400_000;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q: TimingWheel<u64> = TimingWheel::new();
    let mut ids: Vec<_> = (0..LIVE as u64)
        .map(|s| q.schedule(SimTime::from_nanos(1 + rng.below(1_000_000)), s))
        .collect();
    median_of(|| {
        let t = Instant::now();
        for _ in 0..OPS {
            let Due::Event { at, ev: slot } = q.pop_due(SimTime::MAX) else {
                unreachable!("the population never drains")
            };
            ids[slot as usize] =
                q.schedule(at + SimDuration::from_nanos(1_000 + rng.below(200_000)), slot);
            if rng.chance(0.75) {
                let v = rng.index(LIVE);
                q.cancel(ids[v]);
                ids[v] =
                    q.schedule(at + SimDuration::from_nanos(1_000 + rng.below(200_000)), v as u64);
            }
        }
        t.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// ns per pop of a same-nanosecond keyed burst of 8,192 events: one
/// shard's share of a 16k-host control tick.
pub fn wheel_burst_pop_ns() -> f64 {
    const BURST: u64 = 8192;
    let mut q: TimingWheel<u64> = TimingWheel::new();
    let mut at = 1_000u64;
    median_of(|| {
        for i in 0..BURST {
            q.schedule_keyed(SimTime::from_nanos(at), (1 << 63) | i, i);
        }
        let t = Instant::now();
        let mut n = 0;
        while let Due::Event { ev, .. } = q.pop_due(SimTime::MAX) {
            black_box(ev);
            n += 1;
        }
        let ns = t.elapsed().as_nanos() as f64 / BURST as f64;
        assert_eq!(n, BURST);
        at += 1_000_000;
        ns
    })
}

/// A rotated-Zipf destination and bounded-Pareto size, as the fleet's
/// open-loop clients draw them.
fn fleet_packet(rng: &mut SimRng, src: u32, hosts: u32) -> Packet<()> {
    let rank = zipf_rank(rng.unit(), (hosts - 1) as u64, 1.0);
    let dst = ((src as u64 + rank) % hosts as u64) as u32;
    let bytes = bounded_pareto(rng.unit(), 64.0, 65_536.0, 1.3) as u32;
    Packet { src: HostId(src), dst: HostId(dst), channel: 0, bytes, payload: () }
}

/// ns per packet through `DelayFabric::inject_src` + `complete_ingress`
/// on the 16k-host tree.
pub fn delay_inject_ns(seed: u64) -> f64 {
    const PACKETS: u32 = 200_000;
    let topo = fleet_tree();
    let hosts = topo.host_count();
    let mut f = DelayFabric::new(NetConfig::default(), topo, FaultPlan::none(seed));
    let mut rng = SimRng::seed_from_u64(seed);
    let pkts: Vec<Packet<()>> =
        (0..PACKETS).map(|i| fleet_packet(&mut rng, i % hosts, hosts)).collect();
    let mut now = SimTime::ZERO;
    median_of(|| {
        let t = Instant::now();
        for p in &pkts {
            if let Phase1::Ingress { at, pkt, .. } = f.inject_src(now, p.clone()) {
                black_box(f.complete_ingress(at, &pkt));
            }
            now += SimDuration::from_nanos(100);
        }
        t.elapsed().as_nanos() as f64 / PACKETS as f64
    })
}

/// ns per 8 KB packet through the bandwidth-arbitrating `Fabric` on the
/// `now(128)` topology, all-to-all order, one packet on the wire at a time.
pub fn fabric_inject_ns(seed: u64) -> f64 {
    let cfg = ClusterConfig::now(128);
    let hosts = cfg.hosts();
    let mut f =
        Fabric::new(cfg.net.clone(), Topology::build(cfg.topology.clone()), FaultPlan::none(seed));
    let mut now = SimTime::ZERO;
    median_of(|| {
        let t = Instant::now();
        let mut n = 0u32;
        for src in 0..hosts {
            for dst in (0..hosts).filter(|&d| d != src) {
                let p = Packet {
                    src: HostId(src),
                    dst: HostId(dst),
                    channel: 0,
                    bytes: 8192,
                    payload: (),
                };
                if let Phase1::Ingress { at, pkt, .. } = f.inject_src(now, p) {
                    now = at + f.complete_ingress(at, &pkt);
                }
                n += 1;
            }
        }
        t.elapsed().as_nanos() as f64 / n as f64
    })
}

/// ms to plan the 2-shard partition of the 16k-host tree and its
/// per-shard-pair lookahead.
pub fn partition_plan_ms() -> f64 {
    let topo = fleet_tree();
    let net = NetConfig::default();
    median_of(|| {
        let t = Instant::now();
        let part = Partition::plan(&topo, &net, 2);
        black_box(part.pair_lookahead(&topo, &net, &[]));
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// ns per 0-byte message from post on one NIC to poll on the other, on
/// the NIC test harness (2 hosts, no OS).
pub fn nic_small_msg_ns() -> f64 {
    const MSGS: u32 = 20_000;
    let mut h = Harness::crossbar(2, NicConfig::virtual_network());
    let key = ProtectionKey(9);
    h.bring_up(0, EpId(0), ProtectionKey(1));
    h.bring_up(1, EpId(0), key);
    median_of(|| {
        let t = Instant::now();
        for _ in 0..MSGS {
            h.post(0, EpId(0), request(1, 0, key, 0));
            h.settle();
            let PollOutcome::Msg(m) = h.poll(1, EpId(0), QueueSel::Request) else {
                panic!("posted message was not delivered")
            };
            black_box(m);
        }
        t.elapsed().as_nanos() as f64 / MSGS as f64
    })
}

/// µs per `Cluster::make_resident` that had to remap: 16 endpoints
/// cycled through 8 NI frames, so nearly every call evicts another.
pub fn os_remap_us(seed: u64) -> f64 {
    const EPS: usize = 16;
    const ROUNDS: usize = 8;
    let mut c = Cluster::new(
        ClusterConfig::now(2)
            .with_frames(8)
            .with_shards(1)
            .with_seed(seed)
            .with_fidelity(FidelityMap::full())
            .with_audit(false)
            .with_telemetry(false),
    );
    let eps: Vec<GlobalEp> = (0..EPS).map(|_| c.create_endpoint(HostId(0))).collect();
    median_of(|| {
        let mut walls = Vec::new();
        for _ in 0..ROUNDS {
            for &ep in &eps {
                if c.nic(HostId(0)).is_resident(ep.ep) {
                    continue;
                }
                let t = Instant::now();
                c.make_resident(ep);
                walls.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        median(&walls)
    })
}

/// The kernels' metric names, in the order [`all`] reports them.
pub const NAMES: [&str; 7] = [
    "wheel.churn_ns_per_op",
    "wheel.burst_pop_ns",
    "delay.inject_ns",
    "fabric.inject_ns",
    "partition.plan_ms",
    "nic.small_msg_ns",
    "os.remap_us",
];

/// Every kernel, by metric name.
pub fn all(seed: u64) -> Vec<(&'static str, f64)> {
    let values = [
        wheel_churn_ns_per_op(seed),
        wheel_burst_pop_ns(),
        delay_inject_ns(seed),
        fabric_inject_ns(seed),
        partition_plan_ms(),
        nic_small_msg_ns(),
        os_remap_us(seed),
    ];
    NAMES.into_iter().zip(values).collect()
}
