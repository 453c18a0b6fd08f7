//! The three workloads. Each builds its cluster from the public `vnet`
//! API, times set-up apart from the run, runs a fixed amount of simulated
//! work, and hands back what it measured together with the simulated
//! outputs that its correctness checks and digest read.
//!
//! | workload | loop | what it stresses |
//! |---|---|---|
//! | `fleet_16k` | open | timing wheel under 16,384 hosts, abstract LogP host, delay fabric, 2-shard executor, idle control-plane ticks (the only same-nanosecond bursts) |
//! | `bulk_128` | closed | full-fidelity bulk path: NIC DMA staging, stop-and-wait channels, bandwidth-arbitrating fabric, BSP threads; sequential |
//! | `thrash_st8` | closed | the paper's mechanism: 12 endpoints on 8 NI frames, OS remaps, NACKs, small-message host dispatch; sequential |

use crate::spans::Spans;
use std::time::Instant;
use vnet::apps::bsp::{launch_job, BspApp, BspRunner, SuperStep};
use vnet::apps::clientserver::{CsClient, StServer};
use vnet::apps::collectives;
use vnet::net::TopologySpec;
use vnet::prelude::*;

pub const NAMES: [&str; 3] = ["fleet_16k", "bulk_128", "thrash_st8"];

/// Set-ups per repeat. Set-up is cheap next to the run, so it is repeated
/// and its median reported, which keeps `setup_s` steady even where one
/// set-up takes well under a millisecond.
pub const SETUPS: usize = 7;

/// The size and shape of one workload.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// Abstract hosts on a fat tree of 32-host leaves and 8 spines, each
    /// running an open-loop client population, run for `span_us` in
    /// `slice_us` slices.
    Fleet { hosts: u32, requests: u64, span_us: u64, slice_us: u64, shards: u32, control: bool },
    /// `rounds` all-to-all rounds of `per_pair` bytes in 8 KB fragments.
    Bulk { hosts: u32, per_pair: u64, rounds: u32 },
    /// One single-threaded server polling one endpoint per client, 8 NI
    /// frames per host, 0-byte requests.
    Thrash { clients: u32, warmup_ms: u64, measure_ms: u64 },
}

impl Shape {
    /// The full-size workload the benchmark measures.
    pub fn full(name: &str) -> Option<Shape> {
        Some(match name {
            "fleet_16k" => Shape::Fleet {
                hosts: 16_384,
                requests: 200,
                span_us: 3_000,
                slice_us: 250,
                shards: 2,
                control: true,
            },
            "bulk_128" => Shape::Bulk { hosts: 128, per_pair: 8_192, rounds: 2 },
            "thrash_st8" => Shape::Thrash { clients: 12, warmup_ms: 500, measure_ms: 10_000 },
            _ => return None,
        })
    }

    /// A tiny version of the same workload, for tests.
    #[cfg(test)]
    pub fn smoke(name: &str) -> Option<Shape> {
        Some(match name {
            "fleet_16k" => Shape::Fleet {
                hosts: 512,
                requests: 40,
                span_us: 1_000,
                slice_us: 250,
                shards: 2,
                control: true,
            },
            "bulk_128" => Shape::Bulk { hosts: 8, per_pair: 8_192, rounds: 2 },
            "thrash_st8" => Shape::Thrash { clients: 2, warmup_ms: 10, measure_ms: 50 },
            _ => return None,
        })
    }

    /// Worker shards the workload runs with.
    pub fn shards(&self) -> u32 {
        match self {
            Shape::Fleet { shards, .. } => *shards,
            _ => 1,
        }
    }
}

/// Everything one repeat of a workload measured.
pub struct Rep {
    /// Wall seconds of each set-up (build and install), in order.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the measured loop (every `run_for` and progress read).
    pub wall_s: f64,
    /// The measured loop's wall seconds slice by slice: one `run_for` with
    /// its progress read, then the final reads. A repeat with the same seed
    /// does the identical work in every slice.
    pub slices: Vec<f64>,
    /// Simulated seconds the measured loop covered.
    pub sim_s: f64,
    /// This process's peak resident set (`VmHWM`) when the measured loop
    /// ends, in MB: set-up and run, not the reporting that follows.
    pub peak_rss_mb: f64,
    /// Engine events processed in the measured loop.
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the simulated outputs that must never change.
    pub digest: u64,
    /// Correctness checks that failed (empty when the run is correct).
    pub problems: Vec<String>,
    /// Simulated outputs (exact for a given seed).
    pub sim: Vec<(&'static str, f64)>,
    /// Per-layer counts over the measured loop, from the telemetry delta.
    pub counts: Vec<(&'static str, f64)>,
    /// Median wall of `run_for(1 ns)` on the finished cluster, in ms.
    pub empty_slice_ms: f64,
    /// `Cluster::audit()` outcome (traced runs only).
    pub audit: Option<Result<(), String>>,
    /// The cluster's simulated-time span log (traced runs only).
    pub perfetto: Option<String>,
}

/// FNV-1a over 64-bit words: a stable digest of simulated outputs.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Run one repeat of `shape`, with the spans around its calls into the
/// cluster. `traced` attaches telemetry and the auditor; the simulated
/// outputs are byte-identical either way.
pub fn run(shape: &Shape, seed: u64, traced: bool) -> (Rep, Spans) {
    let mut spans = Spans::new();
    let rep = spans.open("workload");
    let out = match shape {
        Shape::Fleet { hosts, requests, span_us, slice_us, shards, control } => {
            let slices = span_us / slice_us;
            let slice = SimDuration::from_micros(*slice_us);
            fleet(&mut spans, seed, traced, *hosts, *requests, slices, slice, *shards, *control)
        }
        Shape::Bulk { hosts, per_pair, rounds } => {
            bulk(&mut spans, seed, traced, *hosts, *per_pair, *rounds)
        }
        Shape::Thrash { clients, warmup_ms, measure_ms } => {
            thrash(&mut spans, seed, traced, *clients, *warmup_ms, *measure_ms)
        }
    };
    spans.close(rep);
    (out, spans)
}

/// Set up `SETUPS` times, keeping the last cluster; each set-up is a
/// `setup` span holding `cluster.build` and `cluster.install`.
fn setups<T>(
    spans: &mut Spans,
    mut build: impl FnMut() -> Cluster,
    mut install: impl FnMut(&mut Cluster) -> T,
) -> (Cluster, T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let id = spans.open("setup");
        let mut c = spans.time("cluster.build", &mut build);
        let extra = spans.time("cluster.install", || install(&mut c));
        times.push(spans.close(id));
        last = Some((c, extra));
    }
    let (c, extra) = last.expect("SETUPS > 0");
    (c, extra, times)
}

/// Peak resident set of this process so far, in MB (`VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall of an empty slice on the finished cluster: the fixed cost
/// of one `run_for` (split/absorb, thread spawn and barrier when sharded).
fn empty_slice_ms(c: &mut Cluster) -> f64 {
    let walls: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            c.run_for(SimDuration::from_nanos(1));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&walls)
}

/// Sum a per-host counter (`host{N}.<layer>.<name>`) across hosts.
fn host_sum(s: &MetricsSnapshot, suffix: &str) -> f64 {
    s.entries()
        .iter()
        .filter(|(name, _)| {
            name.strip_prefix("host")
                .and_then(|rest| rest.split_once('.'))
                .is_some_and(|(_, metric)| metric == suffix)
        })
        .fold(0.0, |sum, (_, v)| match v {
            MetricValue::Counter(c) => sum + *c as f64,
            _ => sum,
        })
}

/// Per-layer counts each repeat reads from its telemetry delta, in the
/// order [`layer_counts`] reports them.
pub const COUNTS: [&str; 17] = [
    "control.reconciles",
    "model.abs_sent",
    "model.abs_recvd",
    "net.packets",
    "net.bytes",
    "net.link_busy_ns",
    "nic.data_sent",
    "nic.deposits",
    "nic.acks_rx",
    "nic.retransmits",
    "nic.nacks_rx",
    "nic.useful_frac",
    "os.loads",
    "os.page_ins",
    "os.write_faults",
    "os.event_wakes",
    "telemetry.dropped_spans",
];

fn layer_counts(d: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    let data_sent = host_sum(d, "nic.data_sent");
    let deposits = host_sum(d, "nic.deposits");
    let values = [
        d.counter("ctl.reconciles") as f64,
        host_sum(d, "abs.sent"),
        host_sum(d, "abs.recvd"),
        d.counter("net.packets") as f64,
        d.counter("net.bytes") as f64,
        d.counter("net.link_busy_ns") as f64,
        data_sent,
        deposits,
        host_sum(d, "nic.acks_rx"),
        host_sum(d, "nic.retransmits"),
        host_sum(d, "nic.nacks_rx"),
        if data_sent > 0.0 { deposits / data_sent } else { 0.0 },
        host_sum(d, "os.loads"),
        host_sum(d, "os.page_ins"),
        host_sum(d, "os.write_faults"),
        host_sum(d, "os.event_wakes"),
        d.counter("telemetry.dropped_spans") as f64,
    ];
    COUNTS.into_iter().zip(values).collect()
}

/// Telemetry delta over the measured loop, plus audit and span-log export
/// when traced; all outside the measured wall.
fn finish(
    spans: &mut Spans,
    c: &Cluster,
    before: &MetricsSnapshot,
    traced: bool,
) -> (MetricsSnapshot, Option<Result<(), String>>, Option<String>) {
    let delta = spans.time("cluster.snapshot", || c.telemetry().delta_since(before));
    let audit = traced.then(|| spans.time("cluster.audit", || c.audit()));
    let perfetto = traced.then(|| c.telemetry().export_perfetto());
    (delta, audit, perfetto)
}

#[allow(clippy::too_many_arguments)]
fn fleet(
    spans: &mut Spans,
    seed: u64,
    traced: bool,
    hosts: u32,
    requests: u64,
    slices: u64,
    slice: SimDuration,
    shards: u32,
    control: bool,
) -> Rep {
    const HOSTS_PER_LEAF: u32 = 32;
    // Two Poisson streams at an aggregate 8 µs mean gap against
    // o_s + o_r = 5.8 µs of host CPU per request: about 72% busy, loaded
    // enough for a queueing tail without unbounded backlog.
    let spec = OpenLoopSpec {
        streams: 2,
        mean_gap: SimDuration::from_micros(8),
        requests,
        zipf_s: 1.0,
        targets: hosts,
        size_min: 64,
        size_max: 65_536,
        size_alpha: 1.3,
    };
    let (mut c, (), setup_s) = setups(
        spans,
        || {
            Cluster::builder()
                .topology(TopologySpec::FatTree {
                    leaves: hosts / HOSTS_PER_LEAF,
                    hosts_per_leaf: HOSTS_PER_LEAF,
                    spines: 8,
                })
                .default_fidelity(Fidelity::Abstract)
                .fabric_fidelity(Fidelity::Abstract)
                .shards(shards)
                .seed(seed)
                .audit(traced)
                .telemetry(traced)
                .build()
        },
        |c| {
            for h in 0..hosts {
                c.drive_open_loop(HostId(h), spec.clone());
            }
            if control {
                c.install_control(ControlSpec::default());
            }
        },
    );
    // Every counter of a freshly built cluster is zero, so the delta is
    // taken against an empty snapshot: a full one holds ~80k entries at
    // 16k hosts and would add several MB to the peak resident set.
    let before = MetricsSnapshot::new(c.now());
    let t_sim = c.now();
    let events0 = c.events_processed();
    let run = spans.open("run");
    let mut remaining = u64::MAX;
    for _ in 0..slices {
        let s = spans.open("slice");
        spans.time("cluster.run_for", || c.run_for(slice));
        remaining = spans.time("cluster.observe", || c.open_loop_remaining());
        spans.close(s);
    }
    let s = spans.open("slice");
    let lat = spans.time("cluster.observe", || c.open_loop_latency());
    let (sent, served) = spans.time("cluster.observe", || {
        (0..hosts).fold((0, 0), |(s, r), h| {
            let a = c.abs_stats(HostId(h)).expect("every fleet host is abstract");
            (s + a.sent, r + a.recvd)
        })
    });
    spans.close(s);
    let wall_s = spans.close(run);
    let peak_rss_mb = peak_rss_mb();
    let sim_s = c.now().since(t_sim).as_secs_f64();
    let events = c.events_processed() - events0;
    let (delta, audit, perfetto) = finish(spans, &c, &before, traced);

    let offered = requests * hosts as u64;
    let mut problems = Vec::new();
    if remaining != 0 {
        problems.push(format!("{remaining} arrivals still pending at the end of the span"));
    }
    if sent != offered {
        problems.push(format!("sent {sent} of {offered} offered requests"));
    }
    if lat.count() != served {
        problems.push(format!("latency count {} != served {served}", lat.count()));
    }
    let us = |ns: u64| ns as f64 / 1e3;
    Rep {
        setup_s,
        wall_s,
        slices: spans.each("slice"),
        sim_s,
        peak_rss_mb,
        events,
        attempted: offered,
        failed: offered.saturating_sub(lat.count()),
        digest: digest(
            [served, sent, lat.count(), lat.sum() as u64, (lat.sum() >> 64) as u64]
                .into_iter()
                .chain(lat.buckets().iter().copied()),
        ),
        problems,
        sim: vec![
            ("sim.lat_mean_us", lat.sum() as f64 / lat.count().max(1) as f64 / 1e3),
            ("sim.lat_p50_bound_us", us(lat.quantile_bound(0.50))),
            ("sim.lat_p99_bound_us", us(lat.quantile_bound(0.99))),
        ],
        counts: layer_counts(&delta),
        empty_slice_ms: empty_slice_ms(&mut c),
        audit,
        perfetto,
    }
}

/// A rank replaying a precomputed superstep schedule.
struct Prebuilt {
    sched: Vec<SuperStep>,
}

impl BspApp for Prebuilt {
    fn step(&mut self, _rank: usize, _nranks: usize, step: u64) -> Option<SuperStep> {
        self.sched.get(step as usize).cloned()
    }
}

const MTU: u64 = 8192;

fn bulk(spans: &mut Spans, seed: u64, traced: bool, hosts: u32, per_pair: u64, rounds: u32) -> Rep {
    let p = hosts as usize;
    let scheds: Vec<Vec<SuperStep>> = (0..p)
        .map(|rank| {
            let mut s = Vec::new();
            for _ in 0..rounds {
                collectives::alltoall(&mut s, rank, p, per_pair, MTU);
            }
            s
        })
        .collect();
    let host_ids: Vec<HostId> = (0..hosts).map(HostId).collect();
    let (mut c, ranks, setup_s) = setups(
        spans,
        || {
            Cluster::new(
                ClusterConfig::now(hosts)
                    .with_shards(1)
                    .with_seed(seed)
                    .with_fidelity(FidelityMap::full())
                    .with_audit(traced)
                    .with_telemetry(traced),
            )
        },
        |c| launch_job(c, &host_ids, |r| Prebuilt { sched: scheds[r].clone() }),
    );
    let before = spans.time("cluster.snapshot", || c.telemetry().snapshot());
    let events0 = c.events_processed();
    let run = spans.open("run");
    let mut done = false;
    while !done && c.now().as_secs_f64() < 10.0 {
        let s = spans.open("slice");
        spans.time("cluster.run_for", || c.run_for(SimDuration::from_millis(10)));
        done = spans
            .time("cluster.observe", || ranks.iter().all(|&(h, t, _)| runner(&c, h, t).is_done()));
        spans.close(s);
    }
    let wall_s = spans.close(run);
    let peak_rss_mb = peak_rss_mb();
    // Simulated time to the last rank's finish, not to the end of the
    // slice it fell in, so the seed cannot move the idle tail into the
    // denominator.
    let finished = ranks.iter().filter_map(|&(h, t, _)| runner(&c, h, t).stats.finished).max();
    let sim_s = finished.unwrap_or(c.now()).as_secs_f64();
    let events = c.events_processed() - events0;
    let (delta, audit, perfetto) = finish(spans, &c, &before, traced);

    let (sent, bounced) = ranks.iter().fold((0, 0), |(s, b), &(h, t, _)| {
        let st = &runner(&c, h, t).stats;
        (s + st.msgs_sent, b + st.bounces)
    });
    let pairs = (p * (p - 1)) as u64 * rounds as u64;
    let expected = pairs * per_pair.div_ceil(MTU);
    let mut problems = Vec::new();
    if !done {
        problems.push("all-to-all did not finish within 10 simulated seconds".to_string());
    }
    if sent != expected {
        problems.push(format!("sent {sent} application messages, expected {expected}"));
    }
    let (packets, bytes) = (delta.counter("net.packets"), delta.counter("net.bytes"));
    Rep {
        setup_s,
        wall_s,
        slices: spans.each("slice"),
        sim_s,
        peak_rss_mb,
        events,
        attempted: sent,
        failed: bounced,
        digest: digest([bytes, packets]),
        problems,
        sim: vec![("sim.goodput_mb_s", (pairs * per_pair) as f64 / sim_s / 1e6)],
        counts: layer_counts(&delta),
        empty_slice_ms: empty_slice_ms(&mut c),
        audit,
        perfetto,
    }
}

fn runner(c: &Cluster, h: HostId, t: Tid) -> &BspRunner<Prebuilt> {
    c.body::<BspRunner<Prebuilt>>(h, t).expect("launch_job spawned a BspRunner here")
}

/// Paper values for the ST-8 point (§6.4.1): the small-message server
/// ceiling, the share of it an overcommitted 8-frame interface keeps, and
/// the sustained remap rate.
pub const PAPER_CEILING_MSGS_S: f64 = 78_100.0;
pub const PAPER_KEPT_FRAC: (f64, f64) = (0.50, 0.75);
pub const PAPER_REMAPS_S: (f64, f64) = (200.0, 300.0);

fn thrash(
    spans: &mut Spans,
    seed: u64,
    traced: bool,
    clients: u32,
    warmup_ms: u64,
    measure_ms: u64,
) -> Rep {
    const FRAMES: u32 = 8;
    let server = HostId(0);
    let (mut c, tids, setup_s) = setups(
        spans,
        || {
            Cluster::new(
                ClusterConfig::now(clients + 1)
                    .with_frames(FRAMES)
                    .with_shards(1)
                    .with_seed(seed)
                    .with_fidelity(FidelityMap::full())
                    .with_audit(traced)
                    .with_telemetry(traced),
            )
        },
        |c| {
            let server_eps: Vec<GlobalEp> =
                (0..clients).map(|_| c.create_endpoint(server)).collect();
            let client_eps: Vec<GlobalEp> =
                (0..clients).map(|i| c.create_endpoint(HostId(i + 1))).collect();
            for (&ce, &se) in client_eps.iter().zip(&server_eps) {
                c.connect(ce, 0, se);
            }
            c.spawn_thread(
                server,
                Box::new(StServer::new(server_eps.iter().map(|e| e.ep).collect())),
            );
            client_eps
                .iter()
                .map(|ce| (ce.host, c.spawn_thread(ce.host, Box::new(CsClient::new(ce.ep, 0)))))
                .collect::<Vec<_>>()
        },
    );
    c.run_for(SimDuration::from_millis(warmup_ms));
    let client = |c: &Cluster, (h, t): (HostId, Tid)| -> (u64, u64, usize) {
        let b = c.body::<CsClient>(h, t).expect("client thread");
        (b.completed, b.bounced, b.rtt.count())
    };
    let start: Vec<(u64, u64, usize)> = tids.iter().map(|&ht| client(&c, ht)).collect();
    let before = spans.time("cluster.snapshot", || c.telemetry().snapshot());
    let events0 = c.events_processed();
    let run = spans.open("run");
    let slice_ms = 100.min(measure_ms);
    let slice = SimDuration::from_millis(slice_ms);
    let slices = measure_ms / slice_ms;
    let mut progress = 0;
    for _ in 0..slices {
        let s = spans.open("slice");
        spans.time("cluster.run_for", || c.run_for(slice));
        progress =
            spans.time("cluster.observe", || tids.iter().map(|&ht| client(&c, ht).0).sum::<u64>());
        spans.close(s);
    }
    let wall_s = spans.close(run);
    let peak_rss_mb = peak_rss_mb();
    let sim_s = (slice_ms * slices) as f64 / 1e3;
    let events = c.events_processed() - events0;
    let (delta, audit, perfetto) = finish(spans, &c, &before, traced);

    let end: Vec<(u64, u64, usize)> = tids.iter().map(|&ht| client(&c, ht)).collect();
    let per_client: Vec<u64> = end.iter().zip(&start).map(|(e, s)| e.0 - s.0).collect();
    let completed: u64 = per_client.iter().sum();
    let bounced: u64 = end.iter().zip(&start).map(|(e, s)| e.1 - s.1).sum();
    let remaps = delta.counter(&format!("host{}.os.loads", server.0));
    let nacks = host_sum(&delta, "nic.nacks_rx_not_resident") as u64
        + host_sum(&delta, "nic.nacks_rx_queue_full") as u64;
    let mut rtt: Vec<f64> = tids
        .iter()
        .zip(&start)
        .flat_map(|(&(h, t), s)| {
            c.body::<CsClient>(h, t).expect("client thread").rtt.samples()[s.2..].to_vec()
        })
        .collect();
    rtt.sort_by(f64::total_cmp);
    let pct = |q: f64| rtt.get(((rtt.len() as f64 - 1.0) * q).round() as usize).copied();

    let mut problems = Vec::new();
    if progress != start.iter().map(|s| s.0).sum::<u64>() + completed {
        problems.push("progress reads disagree with the final completion count".to_string());
    }
    if let Some(i) = per_client.iter().position(|&n| n == 0) {
        problems.push(format!("client {i} completed nothing in the window"));
    }
    if clients > FRAMES && remaps == 0 {
        problems.push("more endpoints than frames but the server never remapped".to_string());
    }
    Rep {
        setup_s,
        wall_s,
        slices: spans.each("slice"),
        sim_s,
        peak_rss_mb,
        events,
        attempted: completed + bounced,
        failed: bounced,
        digest: digest(per_client.iter().copied().chain([remaps, nacks])),
        problems,
        sim: vec![
            ("sim.msgs_per_s", completed as f64 / sim_s),
            ("sim.remaps_per_s", remaps as f64 / sim_s),
            ("sim.rtt_p50_us", pct(0.50).unwrap_or(0.0)),
            ("sim.rtt_p99_us", pct(0.99).unwrap_or(0.0)),
        ],
        counts: layer_counts(&delta),
        empty_slice_ms: empty_slice_ms(&mut c),
        audit,
        perfetto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each workload, shrunk, passes its own correctness checks and gives
    /// the same digest traced (telemetry + audit) as untraced.
    #[test]
    fn smoke_workloads_pass_their_checks() {
        for name in NAMES {
            let shape = Shape::smoke(name).expect("every workload has a smoke shape");
            let (plain, _) = run(&shape, 1, false);
            assert!(plain.problems.is_empty(), "{name}: {:?}", plain.problems);
            assert!(plain.attempted > 0 && plain.failed == 0, "{name}");
            assert!(plain.sim_s > 0.0 && plain.events > 0, "{name}");
            assert_eq!(plain.setup_s.len(), SETUPS);
            let (traced, spans) = run(&shape, 1, true);
            assert_eq!(spans.each("setup").len(), SETUPS);
            assert_eq!(plain.digest, traced.digest, "{name}: tracing changed the outputs");
            assert_eq!(traced.audit, Some(Ok(())), "{name}");
            assert!(traced.perfetto.is_some());
        }
    }

    #[test]
    fn fleet_digest_is_shard_independent() {
        let Some(Shape::Fleet { hosts, requests, span_us, slice_us, control, .. }) =
            Shape::smoke("fleet_16k")
        else {
            unreachable!()
        };
        let one = Shape::Fleet { hosts, requests, span_us, slice_us, shards: 1, control };
        let two = Shape::Fleet { hosts, requests, span_us, slice_us, shards: 2, control };
        assert_eq!(run(&one, 3, false).0.digest, run(&two, 3, false).0.digest);
    }
}
