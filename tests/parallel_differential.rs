//! Differential suite for the conservative parallel executor: for any
//! shard count the results must be **byte-identical** to the sequential
//! engine — same event count, same final clock, same audit ledger, same
//! telemetry span log, same application results.
//!
//! Covers ≥4 seeds × {2, 4, 8} shards × two topologies (crossbar and a
//! small fat tree), including a faulty-link configuration whose drops
//! force cross-shard retransmissions.

use vnet::net::{FaultScheduleSpec, GilbertElliott, LinkId, TopologySpec};
use vnet::prelude::*;
use vnet::sim::MsgFate;

/// Echo server: replies to every request, retrying under backpressure.
struct Echo {
    ep: EpId,
    pending: Vec<DeliveredMsg>,
}

impl Echo {
    fn new(ep: EpId) -> Self {
        Echo { ep, pending: Vec::new() }
    }

    fn answer(&mut self, sys: &mut Sys<'_>, m: DeliveredMsg) {
        if sys.reply(self.ep, &m, 0, m.msg.args, 0).is_err() {
            self.pending.push(m);
        }
    }
}

impl ThreadBody for Echo {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while let Some(m) = self.pending.pop() {
            let before = self.pending.len();
            self.answer(sys, m);
            if self.pending.len() > before {
                return Step::Yield;
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Request) {
            self.answer(sys, m);
        }
        if self.pending.is_empty() {
            Step::WaitEvent(self.ep)
        } else {
            Step::Yield
        }
    }
}

/// Client: `total` requests to translation 0, counting replies.
struct Client {
    ep: EpId,
    total: u32,
    sent: u32,
    replies: u32,
    sum: u64,
}

impl ThreadBody for Client {
    fn run(&mut self, sys: &mut Sys<'_>) -> Step {
        while self.sent < self.total {
            match sys.request(self.ep, 0, 1, [self.sent as u64, 0, 0, 0], 0) {
                Ok(_) => self.sent += 1,
                Err(SendError::NoCredit) => break,
                Err(SendError::WouldBlock) => return Step::WaitResident(self.ep),
                Err(e) => panic!("send failed: {e:?}"),
            }
        }
        while let Some(m) = sys.poll(self.ep, QueueSel::Reply) {
            if !m.undeliverable {
                self.replies += 1;
                self.sum = self.sum.wrapping_add(m.msg.args[0]);
            }
        }
        if self.replies == self.total {
            Step::Exit
        } else {
            Step::WaitEvent(self.ep)
        }
    }
}

/// Everything a run can observably produce, for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    shards_used: u32,
    events: u64,
    now_ns: u64,
    ledger: Vec<(u64, MsgFate)>,
    violations: u64,
    spans: String,
    replies: Vec<(u32, u64)>,
    /// Cluster-wide `(unbinds, resyncs, failovers)` from the NIC stats —
    /// the recovery-path shape, compared exactly across shard counts.
    recovery: (u64, u64, u64),
    net: Vec<(String, u64)>,
}

/// Every `net.*` fabric counter — packets, bytes, link busy time, each
/// drop reason and corruptions — from the cluster snapshot, which sums
/// the per-shard fabrics.
fn net_counters(c: &Cluster) -> Vec<(String, u64)> {
    let snap = c.telemetry().snapshot();
    let net: Vec<(String, u64)> = snap
        .entries()
        .iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(n) if name.starts_with("net.") => Some((name.clone(), *n)),
            _ => None,
        })
        .collect();
    for want in ["packets", "bytes", "link_busy_ns", "drop_link_down", "corruptions"] {
        assert!(net.iter().any(|(n, _)| n == &format!("net.{want}")), "missing net.{want}");
    }
    net
}

struct Scenario {
    topology: TopologySpec,
    /// Leaf↔spine link latency override (`None` = same as `hop_latency`).
    /// A slow trunk widens the executor's lookahead: every cross-shard
    /// route climbs one trunk, while intra-leaf traffic, which never
    /// climbs one, stays intra-shard under leaf alignment.
    trunk_latency: Option<SimDuration>,
    seed: u64,
    drop_prob: f64,
    corrupt_prob: f64,
    faults: FaultScheduleSpec,
    requests: u32,
    run_ms: u64,
}

/// Build the all-hosts request ring (host i's client targets host
/// (i+1) % n's server), run it, and collect every observable output.
fn run(sc: &Scenario, shards: u32) -> Outcome {
    run_sliced(sc, shards, &[sc.run_ms * 1_000])
}

/// [`run`], advancing in consecutive `run_for` slices of the given
/// lengths (in µs; they must add up to the scenario's run time).
fn run_sliced(sc: &Scenario, shards: u32, slices_us: &[u64]) -> Outcome {
    assert_eq!(slices_us.iter().sum::<u64>(), sc.run_ms * 1_000, "slices must cover the run");
    let n = sc.topology.hosts();
    let mut cfg = ClusterConfig::now(n)
        .with_seed(sc.seed)
        .with_telemetry(true)
        .with_shards(shards);
    cfg.topology = sc.topology.clone();
    cfg.net.trunk_latency = sc.trunk_latency;
    cfg.drop_prob = sc.drop_prob;
    cfg.corrupt_prob = sc.corrupt_prob;
    cfg.faults = sc.faults.clone();
    let mut c = Cluster::new(cfg);

    let servers: Vec<GlobalEp> = (0..n).map(|h| c.create_endpoint(HostId(h))).collect();
    let clients_ep: Vec<GlobalEp> = (0..n).map(|h| c.create_endpoint(HostId(h))).collect();
    for h in 0..n {
        c.connect(clients_ep[h as usize], 0, servers[((h + 1) % n) as usize]);
    }
    let mut client_tids = Vec::new();
    for h in 0..n {
        c.spawn_thread(HostId(h), Box::new(Echo::new(servers[h as usize].ep)));
        let tid = c.spawn_thread(
            HostId(h),
            Box::new(Client {
                ep: clients_ep[h as usize].ep,
                total: sc.requests,
                sent: 0,
                replies: 0,
                sum: 0,
            }),
        );
        client_tids.push((HostId(h), tid));
    }
    for &us in slices_us {
        c.run_for(SimDuration::from_micros(us));
    }

    let a = c.auditor();
    let (ledger, violations) = (a.ledger_snapshot(), a.total_violations());
    let spans = c.telemetry().span_log();
    let replies = client_tids
        .iter()
        .map(|&(h, tid)| {
            let b: &Client = c.body(h, tid).expect("client body");
            (b.replies, b.sum)
        })
        .collect();
    let snap = c.telemetry().snapshot();
    let sum = |m: &str| (0..n).map(|h| snap.counter(&format!("host{h}.nic.{m}"))).sum::<u64>();
    let recovery = (sum("unbinds"), sum("resyncs"), sum("failovers"));
    Outcome {
        shards_used: c.shards(),
        events: c.events_processed(),
        now_ns: c.now().as_nanos(),
        ledger,
        violations,
        spans,
        replies,
        recovery,
        net: net_counters(&c),
    }
}

/// Field-by-field comparison (all but the shard count), so a mismatch
/// names what diverged.
fn assert_same(want: &Outcome, got: &Outcome, what: &str) {
    assert_eq!(want.replies, got.replies, "app results, {what}");
    assert_eq!(want.events, got.events, "event count, {what}");
    assert_eq!(want.now_ns, got.now_ns, "final clock, {what}");
    assert_eq!(want.ledger, got.ledger, "audit ledger, {what}");
    assert_eq!(want.violations, got.violations, "violations, {what}");
    assert_eq!(want.spans, got.spans, "span log, {what}");
    assert_eq!(want.recovery, got.recovery, "unbind/resync/failover counts, {what}");
    assert_eq!(want.net, got.net, "fabric counters, {what}");
}

fn check_scenario(sc: &Scenario, shard_counts: &[u32]) -> Outcome {
    let seq = run(sc, 1);
    assert_eq!(seq.shards_used, 1);
    assert!(
        seq.replies.iter().any(|&(r, _)| r > 0),
        "workload must make progress (seed {:#x})",
        sc.seed
    );
    for &s in shard_counts {
        let par = run(sc, s);
        assert!(par.shards_used > 1, "expected a parallel run for {s} shards");
        assert_same(&seq, &par, &format!("{s} shards, seed {:#x}", sc.seed));
    }
    seq
}

const SEEDS: [u64; 4] = [1, 7, 0xBEEF, 0xC0FFEE];

#[test]
fn crossbar_matches_sequential() {
    for &seed in &SEEDS {
        check_scenario(
            &Scenario {
                topology: TopologySpec::Crossbar { hosts: 8 },
                trunk_latency: None,
                seed,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
                faults: FaultScheduleSpec::none(),
                requests: 4,
                run_ms: 4,
            },
            &[2, 4, 8],
        );
    }
}

#[test]
fn fat_tree_matches_sequential() {
    for &seed in &SEEDS {
        check_scenario(
            &Scenario {
                topology: TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
                trunk_latency: None,
                seed,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
                faults: FaultScheduleSpec::none(),
                requests: 4,
                run_ms: 4,
            },
            &[2, 4, 8],
        );
    }
}

#[test]
fn faulty_fat_tree_matches_sequential() {
    // Drops and corruptions force the stop-and-wait channels into
    // cross-shard retransmissions; episodes must replay identically.
    for &seed in &SEEDS {
        check_scenario(
            &Scenario {
                topology: TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
                trunk_latency: None,
                seed,
                drop_prob: 0.05,
                corrupt_prob: 0.02,
                faults: FaultScheduleSpec::none(),
                requests: 4,
                run_ms: 6,
            },
            &[2, 4],
        );
    }
}

/// Satellite: a fault plan dropping/corrupting on a *cross-shard* link
/// produces identical retransmit episodes — as recorded in the telemetry
/// span log — whether the cluster runs on 1 shard or 4.
#[test]
fn cross_shard_retransmit_episodes_identical() {
    let sc = Scenario {
        topology: TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
        trunk_latency: None,
        seed: 0x5EED_FA17,
        drop_prob: 0.2,
        corrupt_prob: 0.0,
        faults: FaultScheduleSpec::none(),
        requests: 6,
        run_ms: 8,
    };
    let seq = run(&sc, 1);
    let par = run(&sc, 4);
    assert_eq!(par.shards_used, 4);
    assert!(
        seq.spans.contains("retx"),
        "20% drop on inter-leaf routes must provoke at least one retransmission:\n{}",
        seq.spans
    );
    assert_eq!(seq.spans, par.spans, "retransmit span episodes diverged");
    assert_eq!(seq.ledger, par.ledger, "message fates diverged");
}

/// A full chaos campaign on the small fat tree: a link flap on leaf 0's
/// spine-0 uplink, a whole-spine-switch failure, a degraded spine-down
/// window, and Gilbert–Elliott bursty errors — all scheduled through the
/// event queue, so every shard count replays the identical campaign.
///
/// Small-fat-tree link layout (H=8 hosts, L=4 leaves, S=2 spines):
/// host-up `[0,8)`, leaf-down `[8,16)`, leaf-up `16 + l*S + s`,
/// spine-down `24 + l*S + s`; switches: leaves `0..4`, spines `4..6`.
fn at_us(us: u64) -> SimTime {
    SimTime::from_nanos(us * 1_000)
}

fn chaos_campaign() -> FaultScheduleSpec {
    let us = at_us;
    FaultScheduleSpec::none()
        .flap(LinkId(16), us(300), us(1_500))
        .fail_switch(4, us(2_000), us(3_000))
        .degrade(LinkId(27), us(1_000), us(4_000), 0.2, 0.05)
        .with_bursty(GilbertElliott::mild())
}

#[test]
fn chaos_campaign_matches_sequential() {
    for &seed in &[1u64, 0xBEEF] {
        let seq = check_scenario(
            &Scenario {
                topology: TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
                trunk_latency: None,
                seed,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
                faults: chaos_campaign(),
                requests: 200,
                run_ms: 24,
            },
            &[2, 4],
        );
        assert_eq!(seq.violations, 0, "campaign must complete clean (seed {seed:#x})");
        assert!(
            seq.replies.iter().all(|&(r, _)| r == 200),
            "every client must finish despite the campaign (seed {seed:#x}): {:?}",
            seq.replies
        );
    }
}

/// Satellite: a link-down window longer than the full
/// retransmit→backoff→unbind cycle (8 doublings from the 120 µs base RTO
/// sum to ~23 ms). Host 0's only uplink (crossbar) is down from the
/// start, so failover has no alternate route: the NIC must ride the
/// backoff, unbind after the bound, re-bind (advancing the channel
/// epoch), and deliver after the window — the receiver resynchronizing
/// its expected sequence. The whole episode must be field-by-field
/// identical on 1 and 4 shards.
#[test]
fn long_down_window_unbind_resync_identical() {
    let sc = Scenario {
        topology: TopologySpec::Crossbar { hosts: 8 },
        trunk_latency: None,
        seed: 0xD05EED,
        drop_prob: 0.0,
        corrupt_prob: 0.0,
        faults: FaultScheduleSpec::none().flap(LinkId(0), at_us(0), at_us(30_000)),
        requests: 8,
        run_ms: 70,
    };
    let seq = check_scenario(&sc, &[4]);
    let (unbinds, resyncs, failovers) = seq.recovery;
    assert!(unbinds > 0, "an 18 ms dead uplink must exhaust the retransmission bound");
    assert!(resyncs > 0, "post-window redelivery must resynchronize the receiver");
    assert_eq!(failovers, 0, "a host's sole uplink admits no alternate route");
    assert!(
        seq.replies.iter().all(|&(r, _)| r == 8),
        "all clients must finish once the window lifts: {:?}",
        seq.replies
    );
}

/// Satellite: **all** §5.1 multipath routes down at once. On the small
/// fat tree, leaf 0's only two uplinks (`LinkId(16)` spine 0,
/// `LinkId(17)` spine 1) are both dead from the start for 30 ms, so
/// every route between leaf 0's hosts (0, 1) and the rest of the tree
/// is down — failover has no live alternative and must not fire. The
/// affected channels have to ride the full retransmit→backoff→unbind
/// cycle, re-bind after the window, and resynchronize the receiver,
/// with zero auditor violations and the whole episode byte-identical
/// at 1 vs 2/4 shards.
#[test]
fn all_routes_down_leaf_isolated_recovers_identical() {
    let sc = Scenario {
        topology: TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
        trunk_latency: None,
        seed: 0xA11_D0E5,
        drop_prob: 0.0,
        corrupt_prob: 0.0,
        faults: FaultScheduleSpec::none()
            .flap(LinkId(16), at_us(0), at_us(30_000))
            .flap(LinkId(17), at_us(0), at_us(30_000)),
        requests: 6,
        run_ms: 70,
    };
    let seq = check_scenario(&sc, &[2, 4]);
    let (unbinds, resyncs, _failovers) = seq.recovery;
    assert!(unbinds > 0, "a 30 ms window with every route down must exhaust the retry bound");
    assert!(resyncs > 0, "post-window redelivery must resynchronize the receiver");
    assert_eq!(seq.violations, 0, "isolation and recovery must stay audit-clean");
    assert!(
        seq.replies.iter().all(|&(r, _)| r == 6),
        "all clients must finish once the leaf rejoins: {:?}",
        seq.replies
    );
}

/// Everything a mixed-fidelity run observably produces: the full subset's
/// outputs (replies, ledger, violations, spans) plus every abstract
/// host's coarse counters.
#[derive(Debug, PartialEq)]
struct MixedOutcome {
    shards_used: u32,
    events: u64,
    now_ns: u64,
    ledger: Vec<(u64, MsgFate)>,
    violations: u64,
    spans: String,
    replies: Vec<(u32, u64)>,
    abs: Vec<(u64, u64, u64, u64, u64)>,
    net: Vec<(String, u64)>,
}

/// 4 full + 12 abstract hosts on a 16-host fat tree: the full hosts (leaf
/// 0) run the request ring among themselves while every abstract host
/// streams driven traffic to abstract peers on other leaves — cross-shard
/// under any partition. Gilbert–Elliott bursty errors hit both classes:
/// full channels retransmit, abstract hosts count `corrupt_drops`.
fn run_mixed(seed: u64, shards: u32) -> MixedOutcome {
    const FULL: u32 = 4;
    const HOSTS: u32 = 16;
    let mut fid = FidelityMap::full();
    fid.set_hosts(FULL..HOSTS, Fidelity::Abstract);
    let mut cfg = ClusterConfig::now(HOSTS)
        .with_seed(seed)
        .with_telemetry(true)
        .with_shards(shards)
        .with_fidelity(fid);
    cfg.topology = TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 4, spines: 2 };
    cfg.faults = FaultScheduleSpec::none().with_bursty(GilbertElliott::mild());
    let mut c = Cluster::new(cfg);

    let servers: Vec<GlobalEp> = (0..FULL).map(|h| c.create_endpoint(HostId(h))).collect();
    let clients_ep: Vec<GlobalEp> = (0..FULL).map(|h| c.create_endpoint(HostId(h))).collect();
    let mut client_tids = Vec::new();
    for h in 0..FULL {
        c.connect(clients_ep[h as usize], 0, servers[((h + 1) % FULL) as usize]);
        c.spawn_thread(HostId(h), Box::new(Echo::new(servers[h as usize].ep)));
        let tid = c.spawn_thread(
            HostId(h),
            Box::new(Client {
                ep: clients_ep[h as usize].ep,
                total: 8,
                sent: 0,
                replies: 0,
                sum: 0,
            }),
        );
        client_tids.push((HostId(h), tid));
    }
    for h in FULL..HOSTS {
        let peers: Vec<HostId> = (FULL..HOSTS).filter(|&p| p != h).map(HostId).collect();
        c.drive_abstract(
            HostId(h),
            AbstractTraffic {
                peers,
                payload_bytes: 512,
                mean_gap: SimDuration::from_micros(20),
                count: 64,
            },
        );
    }
    c.run_for(SimDuration::from_millis(8));

    let a = c.auditor();
    let (ledger, violations) = (a.ledger_snapshot(), a.total_violations());
    MixedOutcome {
        shards_used: c.shards(),
        events: c.events_processed(),
        now_ns: c.now().as_nanos(),
        ledger,
        violations,
        spans: c.telemetry().span_log(),
        replies: client_tids
            .iter()
            .map(|&(h, tid)| {
                let b: &Client = c.body(h, tid).expect("client body");
                (b.replies, b.sum)
            })
            .collect(),
        abs: (FULL..HOSTS)
            .map(|h| {
                let s = c.abs_stats(HostId(h)).expect("abstract host");
                (s.sent, s.sent_bytes, s.recvd, s.recv_bytes, s.corrupt_drops)
            })
            .collect(),
        net: net_counters(&c),
    }
}

/// Satellite: mixed-fidelity determinism. A fixed-seed 4-full +
/// 12-abstract world must be byte-identical across shard counts 1/2/4 —
/// and, through the CI matrix's `taskset` row, with those shards stepped
/// in groups on two cores (this test, like the whole suite, runs once per
/// row there).
#[test]
fn mixed_fidelity_matches_sequential() {
    for &seed in &[7u64, 0xBEEF] {
        let seq = run_mixed(seed, 1);
        assert_eq!(seq.shards_used, 1);
        assert!(
            seq.replies.iter().all(|&(r, _)| r == 8),
            "full-fidelity ring must finish (seed {seed:#x}): {:?}",
            seq.replies
        );
        assert!(
            seq.abs.iter().all(|&(sent, ..)| sent == 64),
            "every abstract host must drain its driven traffic (seed {seed:#x}): {:?}",
            seq.abs
        );
        assert!(
            seq.abs.iter().any(|&(_, _, recvd, ..)| recvd > 0),
            "abstract traffic must flow (seed {seed:#x})"
        );
        assert_eq!(seq.violations, 0, "full subset must stay clean (seed {seed:#x})");
        for shards in [2u32, 4] {
            let par = run_mixed(seed, shards);
            assert!(par.shards_used > 1, "expected a parallel run for {shards} shards");
            assert_eq!(seq.replies, par.replies, "app results, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.abs, par.abs, "abstract counters, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.events, par.events, "event count, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.now_ns, par.now_ns, "final clock, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.ledger, par.ledger, "audit ledger, {shards} shards, seed {seed:#x}");
            assert_eq!(
                seq.violations, par.violations,
                "violations, {shards} shards, seed {seed:#x}"
            );
            assert_eq!(seq.spans, par.spans, "span log, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.net, par.net, "fabric counters, {shards} shards, seed {seed:#x}");
        }
    }
}

/// A fat tree whose leaf↔spine trunks are 4x slower than the host
/// links. Every cross-shard path pays `hop + trunk`, so the lookahead
/// and the epochs are much wider than with uniform links, and results
/// must stay byte-identical to sequential at every shard count.
#[test]
fn asymmetric_trunk_fat_tree_matches_sequential() {
    for &seed in &SEEDS {
        check_scenario(
            &Scenario {
                topology: TopologySpec::FatTree { leaves: 8, hosts_per_leaf: 2, spines: 2 },
                trunk_latency: Some(SimDuration::from_nanos(1_200)),
                seed,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
                faults: FaultScheduleSpec::none(),
                requests: 4,
                run_ms: 5,
            },
            &[2, 4, 8],
        );
    }
}

/// Everything an open-loop fleet run observably produces: the cluster
/// clock and event count, every abstract host's coarse counters, and the
/// full per-request latency histogram (all 64 buckets plus count and
/// sum), compared bucket-for-bucket across shard counts.
#[derive(Debug, PartialEq)]
struct OpenLoopOutcome {
    shards_used: u32,
    events: u64,
    now_ns: u64,
    abs: Vec<(u64, u64, u64, u64, u64)>,
    lat_buckets: Vec<u64>,
    lat_count: u64,
    lat_sum: u128,
    net: Vec<(String, u64)>,
}

/// A 32-host all-abstract fat tree driven by the open-loop client
/// population of `OpenLoopSpec`: Poisson arrivals, rotated-Zipf targets,
/// bounded-Pareto sizes. The run loop advances in fixed 1 ms slices and
/// checks the drain condition only at slice boundaries, mirroring how
/// `fleet_bench` decides when to stop — the walk itself must be
/// shard-count invariant.
fn run_open_loop(seed: u64, shards: u32) -> OpenLoopOutcome {
    const HOSTS: u32 = 32;
    let mut c = Cluster::builder()
        .topology(TopologySpec::FatTree { leaves: 8, hosts_per_leaf: 4, spines: 2 })
        .seed(seed)
        .audit(false)
        .telemetry(false)
        .shards(shards)
        .default_fidelity(Fidelity::Abstract)
        .build();
    let spec = OpenLoopSpec {
        streams: 2,
        mean_gap: SimDuration::from_micros(8),
        requests: 50,
        zipf_s: 1.0,
        targets: HOSTS,
        size_min: 64,
        size_max: 65_536,
        size_alpha: 1.3,
    };
    for h in 0..HOSTS {
        c.drive_open_loop(HostId(h), spec.clone());
    }
    let slice = SimDuration::from_millis(1);
    while c.open_loop_remaining() > 0 {
        c.run_for(slice);
        assert!(c.now().as_secs_f64() < 10.0, "open-loop workload wedged (seed {seed:#x})");
    }
    c.run_for(slice);
    c.run_for(slice);

    let lat = c.open_loop_latency();
    OpenLoopOutcome {
        shards_used: c.shards(),
        events: c.events_processed(),
        now_ns: c.now().as_nanos(),
        abs: (0..HOSTS)
            .map(|h| {
                let s = c.abs_stats(HostId(h)).expect("abstract host");
                (s.sent, s.sent_bytes, s.recvd, s.recv_bytes, s.corrupt_drops)
            })
            .collect(),
        lat_buckets: lat.buckets().to_vec(),
        lat_count: lat.count(),
        lat_sum: lat.sum(),
        net: net_counters(&c),
    }
}

/// Satellite: open-loop workload determinism. A fixed-seed 32-host
/// open-loop fleet must produce byte-identical metrics — every abstract
/// counter and every latency-histogram bucket — at 1, 2, and 4 shards,
/// and (through the CI matrix's `taskset` row) with those shards stepped
/// in groups on two cores.
#[test]
fn open_loop_matches_sequential() {
    for &seed in &[7u64, 0xF1EE7] {
        let seq = run_open_loop(seed, 1);
        assert_eq!(seq.shards_used, 1);
        let total_sent: u64 = seq.abs.iter().map(|&(sent, ..)| sent).sum();
        assert_eq!(total_sent, 32 * 50, "every request must be emitted (seed {seed:#x})");
        assert_eq!(
            seq.lat_count, total_sent,
            "every request must be served within the drain window (seed {seed:#x})"
        );
        assert!(seq.lat_sum > 0, "latencies must be recorded (seed {seed:#x})");
        for shards in [2u32, 4] {
            let par = run_open_loop(seed, shards);
            assert!(par.shards_used > 1, "expected a parallel run for {shards} shards");
            assert_eq!(seq.abs, par.abs, "abstract counters, {shards} shards, seed {seed:#x}");
            assert_eq!(
                seq.lat_buckets, par.lat_buckets,
                "latency histogram, {shards} shards, seed {seed:#x}"
            );
            assert_eq!(seq.lat_sum, par.lat_sum, "latency sum, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.events, par.events, "event count, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.now_ns, par.now_ns, "final clock, {shards} shards, seed {seed:#x}");
            assert_eq!(seq.net, par.net, "fabric counters, {shards} shards, seed {seed:#x}");
        }
    }
}

/// The same slow-trunk tree under the full chaos campaign: scheduled
/// link flaps and switch failures remove and restore routes but never
/// shorten one, so the one lookahead holds through every transition,
/// and the replay must still be byte-identical for every shard count.
#[test]
fn asymmetric_trunk_campaign_matches_sequential() {
    for &seed in &[1u64, 0xBEEF] {
        let seq = check_scenario(
            &Scenario {
                topology: TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
                trunk_latency: Some(SimDuration::from_nanos(1_200)),
                seed,
                drop_prob: 0.0,
                corrupt_prob: 0.0,
                faults: chaos_campaign(),
                requests: 100,
                run_ms: 24,
            },
            &[2, 4],
        );
        assert_eq!(seq.violations, 0, "campaign must complete clean (seed {seed:#x})");
        assert!(
            seq.replies.iter().all(|&(r, _)| r == 100),
            "every client must finish despite the campaign (seed {seed:#x}): {:?}",
            seq.replies
        );
    }
}

/// Slicing a run is unobservable. The faulty fat tree under the full
/// chaos campaign runs once as a single `run_for` and once as 40
/// odd-length slices — the first 32 dense over the campaign's first 6 ms,
/// so boundaries fall inside the flap, switch-failure and degrade windows
/// and through the retransmit episodes they provoke — at 1 and 4 shards.
/// All four outcomes must be identical.
#[test]
fn chaos_campaign_slicing_is_unobservable() {
    let sc = Scenario {
        topology: TopologySpec::FatTree { leaves: 4, hosts_per_leaf: 2, spines: 2 },
        trunk_latency: None,
        seed: 1,
        drop_prob: 0.05,
        corrupt_prob: 0.02,
        faults: chaos_campaign(),
        requests: 100,
        run_ms: 24,
    };
    let mut slices: Vec<u64> = (0..32).map(|i| 97 + 6 * i).collect();
    let fine: u64 = slices.iter().sum();
    slices.extend([2_239; 7]);
    slices.push(sc.run_ms * 1_000 - fine - 7 * 2_239);
    assert!(slices.iter().all(|us| us % 2 == 1), "odd lengths: {slices:?}");
    let reference = run(&sc, 1);
    assert!(reference.spans.contains("retx"), "the campaign must provoke retransmissions");
    for shards in [1u32, 4] {
        for (what, got) in [("one slice", run(&sc, shards)), ("40 slices", run_sliced(&sc, shards, &slices))] {
            assert_eq!(got.shards_used, shards);
            assert_same(&reference, &got, &format!("{shards} shards, {what}"));
        }
    }
}
