//! `engine_bench` — wall-clock benchmark of the simulation engine hot path.
//!
//! Three workloads:
//!
//! 1. **timer-churn** — the retransmit-timer pattern that motivated the
//!    timing-wheel scheduler: a fixed population of armed timers where
//!    every fire re-arms its slot and most fires also cancel-and-re-arm a
//!    random other slot (an ack landing before the timeout). Run through
//!    both the production [`TimingWheel`] and the reference
//!    BinaryHeap+tombstone scheduler ([`RefHeap`] — the pre-wheel
//!    algorithm, kept for differential testing) so the speedup is measured
//!    on the same machine in the same process.
//! 2. **all-to-all-8** — 8 hosts exchanging small messages through the full
//!    NIC/OS/fabric stack (BSP all-to-all supersteps).
//! 3. **bulk-32** — 32 hosts streaming 64 KB per pair per superstep.
//! 4. **scaling** — bulk transfers on 32 and 128 hosts under the
//!    conservative parallel executor at 1/2/4/8 worker shards (results
//!    are byte-identical at every count; only wall time changes).
//! 5. **fidelity A/B** — the 128-host bulk exchange at full fidelity
//!    everywhere vs. a mixed world (8 full hosts + 120 abstract LogP
//!    hosts carrying the same per-host byte volume). The abstract model
//!    spends a handful of trivial events per message where the full
//!    stack runs the NIC/OS/residency machinery, so the mixed row must
//!    come out strictly higher in events/s.
//!
//! The cluster workloads also measure the cross-layer auditor's overhead
//! (hooks attached vs. detached) since release builds default to detached.
//!
//! Results print as tables and are written to `BENCH_engine.json` at the
//! repo root (schema 5). Flags: `--quick` shrinks every workload for CI
//! smoke runs; `--shards <n>` pins the executor for the non-scaling
//! workloads; `--check` additionally compares the freshly measured
//! wheel-vs-heap speedup against the committed `BENCH_engine.json` and
//! exits non-zero on a >25% regression (a machine-neutral ratio, unlike
//! absolute events/s), gates the telemetry-overhead confidence interval,
//! requires the mixed-fidelity bulk-128 row to beat the all-full row in
//! events/s, and — on machines with enough cores — fails if 4-shard
//! bulk-128 is not faster than sequential.
//!
//! Scaling rows are only measured where `shards_requested ≤ cores`: with
//! more shards than cores the executor steps them in groups on shared
//! cores, so the sweep would time core sharing, not scaling, and
//! committing such rows as
//! "scaling" numbers is how this benchmark once published 0.7x
//! "speedups" from a 1-core container. Shard counts beyond the core
//! count are emitted as explicit skip records instead, and the `--check`
//! scaling gate announces loudly when it has too few cores to judge.

use std::time::Instant;
use vnet_apps::bsp::{launch_job, BspApp, BspRunner, SuperStep};
use vnet_apps::collectives;
use vnet_bench::{emit_telemetry, f1, f2, quick_mode, with_shards_arg, Table};
use vnet_core::prelude::*;
use vnet_sim::telemetry::json::Json;
use vnet_sim::{Due, RefHeap, SimRng, TimingWheel};

// ------------------------------------------------------------ timer churn

/// The two scheduler implementations behind one face, so the churn driver
/// is byte-for-byte the same workload for both.
trait TimerQueue {
    type Id: Copy;
    fn schedule(&mut self, at: SimTime, ev: u64) -> Self::Id;
    fn cancel(&mut self, id: Self::Id) -> bool;
    fn pop(&mut self) -> Option<(SimTime, u64)>;
}

impl TimerQueue for TimingWheel<u64> {
    type Id = vnet_sim::EventId;
    fn schedule(&mut self, at: SimTime, ev: u64) -> Self::Id {
        TimingWheel::schedule(self, at, ev)
    }
    fn cancel(&mut self, id: Self::Id) -> bool {
        TimingWheel::cancel(self, id)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        match self.pop_due(SimTime::MAX) {
            Due::Event { at, ev } => Some((at, ev)),
            _ => None,
        }
    }
}

impl TimerQueue for RefHeap<u64> {
    type Id = u64;
    fn schedule(&mut self, at: SimTime, ev: u64) -> Self::Id {
        RefHeap::schedule(self, at, ev)
    }
    fn cancel(&mut self, id: Self::Id) -> bool {
        RefHeap::cancel(self, id)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        match self.pop_due(SimTime::MAX) {
            Due::Event { at, ev } => Some((at, ev)),
            _ => None,
        }
    }
}

/// Armed-timer population for the churn loop. 4096 timers matches a
/// 32-host cluster with ~128 bound channels each.
const CHURN_LIVE: usize = 4096;

/// Fire `events` timers: each fire re-arms its slot at a pseudo-random
/// future delay, and a random other slot gets its timer cancelled and
/// re-armed (the ack-cancels-retransmit pattern, which on the old
/// scheduler leaked a tombstone per cancel). Returns a checksum of the
/// fired sequence (to pin both implementations to identical behavior and
/// keep the optimizer honest) and the wall time of the measured loop.
fn churn<Q: TimerQueue>(q: &mut Q, events: u64, seed: u64) -> (u64, std::time::Duration) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut ids: Vec<Q::Id> = Vec::with_capacity(CHURN_LIVE);
    for slot in 0..CHURN_LIVE as u64 {
        let at = SimTime::from_nanos(1 + rng.below(1_000_000));
        ids.push(q.schedule(at, slot));
    }
    let start = Instant::now();
    let mut sum = 0u64;
    for _ in 0..events {
        let (at, slot) = q.pop().expect("population never drains");
        sum = sum.wrapping_mul(31).wrapping_add(at.as_nanos() ^ slot);
        let rearm = at + SimDuration::from_nanos(1_000 + rng.below(200_000));
        ids[slot as usize] = q.schedule(rearm, slot);
        // Most fires are acks for someone else's pending retransmit timer.
        if rng.chance(0.75) {
            let v = rng.index(CHURN_LIVE);
            q.cancel(ids[v]);
            let at2 = at + SimDuration::from_nanos(1_000 + rng.below(200_000));
            ids[v] = q.schedule(at2, v as u64);
        }
    }
    (sum, start.elapsed())
}

/// Telemetry hooks attached may cost at most this fraction of wall time
/// on the all-to-all-8 workload (`--check` gate).
const TEL_OVERHEAD_CEILING: f64 = 0.02;

struct Rate {
    events: u64,
    events_per_sec: f64,
    ns_per_event: f64,
}

fn rate(events: u64, wall: std::time::Duration) -> Rate {
    let secs = wall.as_secs_f64().max(1e-12);
    Rate { events, events_per_sec: events as f64 / secs, ns_per_event: wall.as_nanos() as f64 / events as f64 }
}

fn bench_timer_churn(events: u64, seed: u64) -> (Rate, Rate) {
    // Warm up both (page in, size the slab/heap), then measure.
    let warm = (events / 10).max(10_000);
    let mut wheel = TimingWheel::new();
    let _ = churn(&mut wheel, warm, seed);
    let mut wheel = TimingWheel::new();
    let (ws, wt) = churn(&mut wheel, events, seed);

    let mut heap = RefHeap::new();
    let _ = churn(&mut heap, warm, seed);
    let mut heap = RefHeap::new();
    let (hs, ht) = churn(&mut heap, events, seed);

    assert_eq!(ws, hs, "wheel and reference heap must fire the identical sequence");
    (rate(events, wt), rate(events, ht))
}

// -------------------------------------------------------- cluster drives

/// A rank replaying a precomputed superstep schedule.
struct PrebuiltApp {
    sched: Vec<SuperStep>,
}

impl BspApp for PrebuiltApp {
    fn step(&mut self, _rank: usize, _nranks: usize, step: u64) -> Option<SuperStep> {
        self.sched.get(step as usize).cloned()
    }
}

/// Build `rounds` of all-to-all exchanges (`per_pair` bytes to every peer
/// per round) for every rank of a `p`-host job.
fn alltoall_schedules(p: usize, rounds: u32, per_pair: u64, mtu: u64) -> Vec<Vec<SuperStep>> {
    (0..p)
        .map(|rank| {
            let mut s = Vec::new();
            for _ in 0..rounds {
                collectives::alltoall(&mut s, rank, p, per_pair, mtu);
            }
            s
        })
        .collect()
}

/// Run the schedules on a fresh cluster; returns (engine events, wall
/// seconds, simulated seconds, the finished cluster). Walks time in 10 ms
/// slices until every rank finishes so idle ticks past completion are not
/// measured.
fn run_cluster(cfg: ClusterConfig, scheds: &[Vec<SuperStep>]) -> (u64, f64, f64, Cluster) {
    let p = scheds.len();
    let mut c = Cluster::new(cfg);
    let hosts: Vec<HostId> = (0..p as u32).map(HostId).collect();
    let ranks = launch_job(&mut c, &hosts, |r| PrebuiltApp { sched: scheds[r].clone() });
    let start = Instant::now();
    let slice = SimDuration::from_millis(10);
    loop {
        c.run_for(slice);
        let done = ranks
            .iter()
            .all(|&(h, t, _)| c.body::<BspRunner<PrebuiltApp>>(h, t).expect("runner").is_done());
        if done {
            break;
        }
        assert!(c.now().as_secs_f64() < 300.0, "cluster workload wedged");
    }
    let wall = start.elapsed().as_secs_f64();
    (c.events_processed(), wall, c.now().as_secs_f64(), c)
}

fn bench_cluster(name: &str, cfg: ClusterConfig, scheds: &[Vec<SuperStep>]) -> Rate {
    // Warm-up run (fault-in code paths), then the measured run.
    let _ = run_cluster(cfg.clone(), scheds);
    let (events, wall, sim, _) = run_cluster(cfg, scheds);
    eprintln!("  [{name}] {events} events over {sim:.3} simulated s");
    rate(events, std::time::Duration::from_secs_f64(wall))
}

/// Paired-comparison estimate: the median of per-pair wall-time ratios
/// with a nonparametric 95% confidence interval on that median.
struct AbEstimate {
    /// Median per-pair overhead, as a fraction (ratio − 1).
    median: f64,
    /// 95% CI bounds on the median overhead (binomial order statistics).
    ci: (f64, f64),
    best_a: Rate,
    best_b: Rate,
    last_b: Cluster,
}

/// Median and nonparametric 95% CI of the per-pair ratios: the order
/// statistics at ranks n/2 ± 1.96·√n/2 (normal approximation of
/// `Binomial(n, ½)`; clamped for small n). Sorts in place.
fn median_ci(ratios: &mut [f64]) -> (f64, f64, f64) {
    ratios.sort_by(|x, y| x.total_cmp(y));
    let n = ratios.len();
    let half = n as f64 / 2.0;
    let delta = 1.96 * (n as f64).sqrt() / 2.0;
    let lo = (half - delta).floor().max(0.0) as usize;
    let hi = ((half + delta).ceil() as usize).min(n - 1);
    (ratios[n / 2], ratios[lo], ratios[hi])
}

/// Compare two configurations on the same schedules with a *paired*
/// estimator: after one warm-up each, run back-to-back A/B pairs —
/// alternating which side of the pair runs first, so cache/frequency
/// drift that favors whichever run comes second cancels across pairs —
/// and take the **median of the per-pair ratios**, with a nonparametric
/// 95% confidence interval read off the sorted ratios at the
/// `Binomial(n, ½)` order-statistic ranks. Each side of a pair is a
/// best-of-two (interference only ever *inflates* wall time, so the min
/// of two back-to-back runs is a sharper reading of the same quantity).
/// Pairing makes each ratio immune to slow drift; the median makes the
/// estimate immune to the multi-second interference spikes shared boxes
/// show (a spike poisons one pair, not the estimate); and the interval
/// lets the `--check` gate state its uncertainty instead of comparing
/// two independent best-of minima whose difference mostly measures luck.
///
/// Sampling is *sequential*: after `pairs` initial pairs, batches of
/// four more are added until the interval can decide against `ceiling`
/// (upper bound ≤ ceiling → certified pass; lower bound > ceiling →
/// certified regression) or `max_pairs` is reached — small n leaves the
/// CI spanning nearly the whole sample, so on a noisy box the upper
/// bound *is* the worst interference spike unless n grows past it.
fn bench_cluster_ab(
    cfg_a: ClusterConfig,
    cfg_b: ClusterConfig,
    scheds: &[Vec<SuperStep>],
    pairs: usize,
    max_pairs: usize,
    ceiling: f64,
) -> AbEstimate {
    let _ = run_cluster(cfg_a.clone(), scheds);
    let _ = run_cluster(cfg_b.clone(), scheds);
    // Best-of-3 per side: interference only ever inflates wall time, and
    // its spikes are large (tens of percent) relative to the effects being
    // resolved, so a deeper min sharply cuts the chance a pair's ratio is
    // poisoned on either side.
    let best_of_3 = |cfg: &ClusterConfig| {
        let (ev, mut w, v, mut c) = run_cluster(cfg.clone(), scheds);
        for _ in 0..2 {
            let (_, w2, _, c2) = run_cluster(cfg.clone(), scheds);
            if w2 < w {
                w = w2;
                c = c2;
            }
        }
        (ev, w, v, c)
    };
    let mut ratios: Vec<f64> = Vec::with_capacity(max_pairs);
    let mut best_a: Option<(u64, f64)> = None;
    let mut best_b: Option<(u64, f64)> = None;
    let mut last_b;
    let (mut median, mut ci_lo, mut ci_hi);
    loop {
        let i = ratios.len();
        let ((ev_a, wall_a, _, _), (ev_b, wall_b, _, c)) = if i.is_multiple_of(2) {
            let a = best_of_3(&cfg_a);
            let b = best_of_3(&cfg_b);
            (a, b)
        } else {
            let b = best_of_3(&cfg_b);
            let a = best_of_3(&cfg_a);
            (a, b)
        };
        ratios.push(wall_b / wall_a);
        if best_a.is_none_or(|(_, w)| wall_a < w) {
            best_a = Some((ev_a, wall_a));
        }
        if best_b.is_none_or(|(_, w)| wall_b < w) {
            best_b = Some((ev_b, wall_b));
        }
        last_b = c;
        let mut sorted = ratios.clone();
        (median, ci_lo, ci_hi) = median_ci(&mut sorted);
        let n = ratios.len();
        if n >= pairs.max(1) {
            let decided = ci_hi - 1.0 <= ceiling || ci_lo - 1.0 > ceiling;
            if decided || n >= max_pairs {
                break;
            }
            if (n - pairs).is_multiple_of(4) {
                eprintln!(
                    "  [ab] n={n}: CI95 [{:+.2}%, {:+.2}%] straddles ceiling; sampling more pairs",
                    (ci_lo - 1.0) * 100.0,
                    (ci_hi - 1.0) * 100.0,
                );
            }
        }
    }
    let (ea, wa) = best_a.expect("at least one pair");
    let (eb, wb) = best_b.expect("at least one pair");
    let mut sorted = ratios.clone();
    sorted.sort_by(|x, y| x.total_cmp(y));
    eprintln!(
        "  [ab] {} pair ratios (sorted): {} | median {:+.2}% CI95 [{:+.2}%, {:+.2}%]",
        sorted.len(),
        sorted.iter().map(|r| format!("{:+.2}%", (r - 1.0) * 100.0)).collect::<Vec<_>>().join(" "),
        (median - 1.0) * 100.0,
        (ci_lo - 1.0) * 100.0,
        (ci_hi - 1.0) * 100.0,
    );
    AbEstimate {
        median: median - 1.0,
        ci: (ci_lo - 1.0, ci_hi - 1.0),
        best_a: rate(ea, std::time::Duration::from_secs_f64(wa)),
        best_b: rate(eb, std::time::Duration::from_secs_f64(wb)),
        last_b,
    }
}

// ------------------------------------------------------------- scaling

/// One point of the parallel-executor scaling sweep.
struct ScalePoint {
    requested: u32,
    used: u32,
    rate: Rate,
}

/// Measure `scheds` under the conservative parallel executor at each
/// requested shard count (one warm-up + one measured run per point).
/// Simulation results are byte-identical at every count, so the sweep
/// measures pure executor wall time.
///
/// Counts above the machine's core count are **refused**, returned in the
/// second element: with threads > cores every epoch barrier crossing
/// times the OS scheduler instead of the executor, and the resulting
/// sub-1.0 "speedups" are noise that poisons any committed baseline.
fn bench_scaling(
    name: &str,
    cfg: &ClusterConfig,
    scheds: &[Vec<SuperStep>],
    counts: &[u32],
    cores: usize,
) -> (Vec<ScalePoint>, Vec<u32>) {
    let mut points = Vec::new();
    let mut skipped = Vec::new();
    for &s in counts {
        if s as usize > cores {
            eprintln!(
                "  [{name} shards={s}] SKIPPED: {s} shards on {cores} core(s) are stepped in \
                 groups; that is not a scaling measurement"
            );
            skipped.push(s);
            continue;
        }
        let c = cfg.clone().with_shards(s);
        let _ = run_cluster(c.clone(), scheds);
        let (events, wall, sim, cl) = run_cluster(c, scheds);
        eprintln!(
            "  [{name} shards={s}] {events} events over {sim:.3} simulated s ({} shard(s) used)",
            cl.shards()
        );
        points.push(ScalePoint {
            requested: s,
            used: cl.shards(),
            rate: rate(events, std::time::Duration::from_secs_f64(wall)),
        });
    }
    (points, skipped)
}

// ----------------------------------------------------------- fidelity A/B

/// Hosts kept at full fidelity in the mixed side of the A/B.
const AB_FULL_HOSTS: u32 = 8;

/// One side of the fidelity A/B: throughput plus wall/simulated seconds.
struct FidelitySide {
    rate: Rate,
    wall_s: f64,
    sim_s: f64,
}

/// Run the mixed-fidelity bulk workload: ranks `0..scheds.len()` replay
/// the full-stack all-to-all while hosts `scheds.len()..n` stream
/// `count` abstract messages each to random abstract peers. Runs until
/// the BSP ranks finish *and* every abstract source has drained.
fn run_mixed_bulk(
    cfg: ClusterConfig,
    scheds: &[Vec<SuperStep>],
    n: u32,
    payload_bytes: u32,
    count: u64,
) -> (u64, f64, f64) {
    let full_n = scheds.len() as u32;
    let mut c = Cluster::new(cfg);
    let hosts: Vec<HostId> = (0..full_n).map(HostId).collect();
    let ranks = launch_job(&mut c, &hosts, |r| PrebuiltApp { sched: scheds[r].clone() });
    for h in full_n..n {
        let peers: Vec<HostId> = (full_n..n).filter(|&p| p != h).map(HostId).collect();
        c.drive_abstract(
            HostId(h),
            AbstractTraffic {
                peers,
                payload_bytes,
                mean_gap: SimDuration::from_micros(4),
                count,
            },
        );
    }
    let start = Instant::now();
    let slice = SimDuration::from_millis(10);
    loop {
        c.run_for(slice);
        let bsp_done = ranks
            .iter()
            .all(|&(h, t, _)| c.body::<BspRunner<PrebuiltApp>>(h, t).expect("runner").is_done());
        let abs_done =
            (full_n..n).all(|h| c.abs_stats(HostId(h)).expect("abstract host").sent >= count);
        if bsp_done && abs_done {
            break;
        }
        assert!(c.now().as_secs_f64() < 300.0, "mixed workload wedged");
    }
    let wall = start.elapsed().as_secs_f64();
    (c.events_processed(), wall, c.now().as_secs_f64())
}

/// A/B the 128-host bulk exchange: full fidelity everywhere vs. 8 full +
/// `n - 8` abstract hosts carrying the same per-host byte volume (each
/// abstract host sends `(n-1) * per_pair` bytes as MTU-sized abstract
/// messages). One warm-up + one measured run per side.
fn bench_fidelity_ab(n: u32, per_pair: u64, scheds: &[Vec<SuperStep>]) -> (FidelitySide, FidelitySide) {
    let cfg_full = with_shards_arg(ClusterConfig::now(n).with_audit(false));
    let _ = run_cluster(cfg_full.clone(), scheds);
    let (ev, wall, sim, _) = run_cluster(cfg_full, scheds);
    eprintln!("  [fidelity-full] {ev} events over {sim:.3} simulated s");
    let full = FidelitySide {
        rate: rate(ev, std::time::Duration::from_secs_f64(wall)),
        wall_s: wall,
        sim_s: sim,
    };

    let mut fid = FidelityMap::full();
    fid.set_hosts(AB_FULL_HOSTS..n, Fidelity::Abstract);
    let cfg_mixed =
        with_shards_arg(ClusterConfig::now(n).with_audit(false)).with_fidelity(fid);
    let payload: u32 = 8192;
    let count = ((n as u64 - 1) * per_pair).div_ceil(payload as u64);
    let full_scheds = alltoall_schedules(AB_FULL_HOSTS as usize, 1, per_pair, 8192);
    let _ = run_mixed_bulk(cfg_mixed.clone(), &full_scheds, n, payload, count);
    let (ev, wall, sim) = run_mixed_bulk(cfg_mixed, &full_scheds, n, payload, count);
    eprintln!(
        "  [fidelity-mixed] {ev} events over {sim:.3} simulated s \
         ({AB_FULL_HOSTS} full + {} abstract, {count} msgs/abstract host)",
        n - AB_FULL_HOSTS
    );
    let mixed = FidelitySide {
        rate: rate(ev, std::time::Duration::from_secs_f64(wall)),
        wall_s: wall,
        sim_s: sim,
    };
    (full, mixed)
}

// --------------------------------------------------------------- output

/// The workspace root. This binary is built both from `crates/bench` and
/// from the root package, so walk up from the manifest dir to the first
/// ancestor holding the workspace `ROADMAP.md`.
fn repo_root() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .find(|d| d.join("ROADMAP.md").is_file())
        .unwrap_or(manifest)
        .to_path_buf()
}

struct Report {
    quick: bool,
    cores: usize,
    churn_wheel: Rate,
    churn_heap: Rate,
    all_to_all_8: Rate,
    bulk_32: Rate,
    audit_on_events_per_sec: f64,
    audit_off_events_per_sec: f64,
    /// Median of per-pair audit-on/off wall ratios minus one, in percent,
    /// with its 95% CI (same estimator as the telemetry comparison).
    audit_overhead_pct: f64,
    audit_overhead_ci_pct: (f64, f64),
    telemetry_on_events_per_sec: f64,
    telemetry_off_events_per_sec: f64,
    /// Median of per-pair wall ratios minus one, in percent.
    telemetry_overhead_pct: f64,
    /// 95% CI on the median overhead, in percent (the `--check` gate
    /// tests the upper bound, so the verdict carries its uncertainty).
    telemetry_overhead_ci_pct: (f64, f64),
    scaling_32: Vec<ScalePoint>,
    scaling_32_skipped: Vec<u32>,
    scaling_128: Vec<ScalePoint>,
    scaling_128_skipped: Vec<u32>,
    fidelity_full: FidelitySide,
    fidelity_mixed: FidelitySide,
}

impl Report {
    fn speedup(&self) -> f64 {
        self.churn_wheel.events_per_sec / self.churn_heap.events_per_sec
    }

    fn telemetry_overhead_pct(&self) -> f64 {
        self.telemetry_overhead_pct
    }

    /// Mixed-fidelity events/s over all-full events/s on bulk-128.
    fn fidelity_gain(&self) -> f64 {
        self.fidelity_mixed.rate.events_per_sec
            / self.fidelity_full.rate.events_per_sec.max(1e-12)
    }

    fn json(&self) -> String {
        fn workload(r: &Rate) -> String {
            format!(
                "{{ \"events\": {}, \"events_per_sec\": {:.1}, \"ns_per_event\": {:.2} }}",
                r.events, r.events_per_sec, r.ns_per_event
            )
        }
        fn scaling(points: &[ScalePoint], skipped: &[u32], cores: usize) -> String {
            let seq = points.first().map(|p| p.rate.events_per_sec).unwrap_or(0.0);
            let rows = points
                .iter()
                .map(|p| {
                    format!(
                        "        {{ \"shards_requested\": {}, \"shards\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \"speedup_vs_seq\": {:.3} }}",
                        p.requested,
                        p.used,
                        p.rate.events,
                        p.rate.events_per_sec,
                        p.rate.events_per_sec / seq.max(1e-12)
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            let skips = skipped
                .iter()
                .map(|s| {
                    format!(
                        "        {{ \"shards_requested\": {s}, \"reason\": \"{s} shards > {cores} core(s): stepped in groups, not a scaling measurement\" }}"
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n");
            format!(
                "{{\n      \"points\": [\n{rows}\n      ],\n      \"skipped\": [{}\n      ]\n    }}",
                if skips.is_empty() { String::new() } else { format!("\n{skips}") }
            )
        }
        fn fidelity_side(s: &FidelitySide) -> String {
            format!(
                "{{ \"events\": {}, \"events_per_sec\": {:.1}, \"wall_s\": {:.4}, \"sim_s\": {:.4} }}",
                s.rate.events, s.rate.events_per_sec, s.wall_s, s.sim_s
            )
        }
        format!(
            "{{\n  \"schema\": 5,\n  \"quick\": {},\n  \"cores\": {},\n  \"workloads\": {{\n    \"timer_churn\": {{\n      \"wheel\": {},\n      \"ref_heap\": {},\n      \"speedup_vs_heap\": {:.3}\n    }},\n    \"all_to_all_8\": {},\n    \"bulk_32\": {}\n  }},\n  \"audit_overhead\": {{\n    \"workload\": \"all_to_all_8\",\n    \"audit_on_events_per_sec\": {:.1},\n    \"audit_off_events_per_sec\": {:.1},\n    \"overhead_pct\": {:.2},\n    \"ci95_pct\": [{:.2}, {:.2}]\n  }},\n  \"telemetry_overhead\": {{\n    \"workload\": \"all_to_all_8\",\n    \"telemetry_on_events_per_sec\": {:.1},\n    \"telemetry_off_events_per_sec\": {:.1},\n    \"overhead_pct\": {:.2},\n    \"ci95_pct\": [{:.2}, {:.2}]\n  }},\n  \"fidelity_ab\": {{\n    \"workload\": \"bulk_128\",\n    \"full\": {},\n    \"mixed_8_full_120_abstract\": {},\n    \"mixed_over_full_events_per_sec\": {:.3}\n  }},\n  \"scaling\": {{\n    \"bulk_32\": {},\n    \"bulk_128\": {}\n  }}\n}}\n",
            self.quick,
            self.cores,
            workload(&self.churn_wheel),
            workload(&self.churn_heap),
            self.speedup(),
            workload(&self.all_to_all_8),
            workload(&self.bulk_32),
            self.audit_on_events_per_sec,
            self.audit_off_events_per_sec,
            self.audit_overhead_pct,
            self.audit_overhead_ci_pct.0,
            self.audit_overhead_ci_pct.1,
            self.telemetry_on_events_per_sec,
            self.telemetry_off_events_per_sec,
            self.telemetry_overhead_pct(),
            self.telemetry_overhead_ci_pct.0,
            self.telemetry_overhead_ci_pct.1,
            fidelity_side(&self.fidelity_full),
            fidelity_side(&self.fidelity_mixed),
            self.fidelity_gain(),
            scaling(&self.scaling_32, &self.scaling_32_skipped, self.cores),
            scaling(&self.scaling_128, &self.scaling_128_skipped, self.cores),
        )
    }
}

fn main() {
    let quick = quick_mode();
    let check = std::env::args().any(|a| a == "--check");
    let json_path = repo_root().join("BENCH_engine.json");

    // In --check mode read the committed baseline *before* overwriting it.
    let baseline_speedup = if check {
        let text = std::fs::read_to_string(&json_path)
            .unwrap_or_else(|e| panic!("--check needs committed {}: {e}", json_path.display()));
        let doc = Json::parse(&text)
            .unwrap_or_else(|e| panic!("committed {} is not JSON: {e}", json_path.display()));
        doc.at("workloads.timer_churn.speedup_vs_heap")
            .and_then(Json::as_f64)
            .expect("committed BENCH_engine.json has no workloads.timer_churn.speedup_vs_heap")
    } else {
        0.0
    };

    let churn_events: u64 = if quick { 400_000 } else { 4_000_000 };
    eprintln!("timer-churn: {churn_events} events on wheel and reference heap...");
    let (churn_wheel, churn_heap) = bench_timer_churn(churn_events, 0xC0FFEE);

    let rounds = if quick { 30 } else { 480 };
    eprintln!("all-to-all-8: {rounds} rounds of 64 B per pair...");
    let a2a = alltoall_schedules(8, rounds, 64, 8192);
    let all_to_all_8 =
        bench_cluster("a2a-8", with_shards_arg(ClusterConfig::now(8).with_audit(false)), &a2a);

    // Both observer-overhead comparisons run on a fixed-size workload
    // (independent of --quick) so the numbers are comparable across runs.
    let a2a_tel = alltoall_schedules(8, 1600, 64, 8192);

    // Audit overhead: informational (no gate), so a fixed 7 pairs of the
    // paired median-of-ratios estimator suffice for a stable reading.
    eprintln!("audit overhead: all-to-all-8 with auditor hooks attached vs detached...");
    let audit = bench_cluster_ab(
        with_shards_arg(ClusterConfig::now(8).with_audit(false)),
        with_shards_arg(ClusterConfig::now(8).with_audit(true)),
        &a2a_tel,
        7,
        7,
        f64::INFINITY,
    );

    // Telemetry overhead gate: the same workload with metric/span hooks
    // attached must stay within 2% of the detached run. Paired
    // median-of-ratios estimator with sequential sampling: the pair count
    // grows (9 → up to 121) until the confidence interval can decide
    // against the ceiling, so one interference spike can neither fail the
    // gate nor pass it vacuously. The budget has to be generous: with a
    // true median near 1% the order-statistic CI needs n in the hundreds
    // before its upper bound clears a 2% ceiling on a noisy box.
    eprintln!("telemetry overhead: all-to-all-8 with telemetry hooks attached vs detached...");
    let tel = bench_cluster_ab(
        with_shards_arg(ClusterConfig::now(8).with_audit(false)),
        with_shards_arg(ClusterConfig::now(8).with_audit(false).with_telemetry(true)),
        &a2a_tel,
        9,
        121,
        TEL_OVERHEAD_CEILING,
    );
    emit_telemetry("engine_bench_a2a8", &tel.last_b);

    let bulk_rounds = if quick { 2 } else { 8 };
    eprintln!("bulk-32: {bulk_rounds} rounds of 64 KB per pair...");
    let bulk = alltoall_schedules(32, bulk_rounds, 65_536, 8192);
    let bulk_32 =
        bench_cluster("bulk-32", with_shards_arg(ClusterConfig::now(32).with_audit(false)), &bulk);

    let shard_counts = [1, 2, 4, 8];
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!("scaling: bulk-32 at {shard_counts:?} shards ({cores} core(s) available)...");
    let (scaling_32, scaling_32_skipped) = bench_scaling(
        "bulk-32",
        &ClusterConfig::now(32).with_audit(false),
        &bulk,
        &shard_counts,
        cores,
    );

    let bulk128_bytes = if quick { 4_096 } else { 16_384 };
    eprintln!("scaling: bulk-128, one round of {bulk128_bytes} B per pair...");
    let bulk128 = alltoall_schedules(128, 1, bulk128_bytes, 8192);
    let (scaling_128, scaling_128_skipped) = bench_scaling(
        "bulk-128",
        &ClusterConfig::now(128).with_audit(false),
        &bulk128,
        &shard_counts,
        cores,
    );

    eprintln!(
        "fidelity A/B: bulk-128 full everywhere vs {AB_FULL_HOSTS} full + {} abstract...",
        128 - AB_FULL_HOSTS
    );
    let (fidelity_full, fidelity_mixed) = bench_fidelity_ab(128, bulk128_bytes, &bulk128);

    let report = Report {
        quick,
        cores,
        churn_wheel,
        churn_heap,
        all_to_all_8,
        bulk_32,
        audit_on_events_per_sec: audit.best_b.events_per_sec,
        audit_off_events_per_sec: audit.best_a.events_per_sec,
        audit_overhead_pct: audit.median * 100.0,
        audit_overhead_ci_pct: (audit.ci.0 * 100.0, audit.ci.1 * 100.0),
        telemetry_on_events_per_sec: tel.best_b.events_per_sec,
        telemetry_off_events_per_sec: tel.best_a.events_per_sec,
        telemetry_overhead_pct: tel.median * 100.0,
        telemetry_overhead_ci_pct: (tel.ci.0 * 100.0, tel.ci.1 * 100.0),
        scaling_32,
        scaling_32_skipped,
        scaling_128,
        scaling_128_skipped,
        fidelity_full,
        fidelity_mixed,
    };

    let mut t = Table::new(
        "Engine hot-path benchmark (wall clock)",
        &["workload", "events", "events/s", "ns/event"],
    );
    for (name, r) in [
        ("timer-churn (wheel)", &report.churn_wheel),
        ("timer-churn (ref heap)", &report.churn_heap),
        ("all-to-all 8 hosts", &report.all_to_all_8),
        ("bulk 32 hosts", &report.bulk_32),
    ] {
        t.row(vec![name.into(), r.events.to_string(), f1(r.events_per_sec), f2(r.ns_per_event)]);
    }
    println!("{}", t.render());

    let mut st = Table::new(
        &format!("Parallel-executor scaling ({cores} core(s) available)"),
        &["workload", "shards", "events", "events/s", "speedup vs seq"],
    );
    for (name, points, skipped) in [
        ("bulk-32", &report.scaling_32, &report.scaling_32_skipped),
        ("bulk-128", &report.scaling_128, &report.scaling_128_skipped),
    ] {
        let seq = points.first().map(|p| p.rate.events_per_sec).unwrap_or(0.0);
        for p in points {
            st.row(vec![
                name.into(),
                format!("{} ({} used)", p.requested, p.used),
                p.rate.events.to_string(),
                f1(p.rate.events_per_sec),
                f2(p.rate.events_per_sec / seq.max(1e-12)),
            ]);
        }
        for s in skipped {
            st.row(vec![
                name.into(),
                s.to_string(),
                "-".into(),
                "-".into(),
                format!("skipped: {s} shards > {cores} core(s)"),
            ]);
        }
    }
    println!("{}", st.render());

    let mut ft = Table::new(
        "Fidelity A/B (bulk-128: full everywhere vs 8 full + 120 abstract)",
        &["configuration", "events", "events/s", "wall s", "sim s"],
    );
    for (name, s) in [
        ("full everywhere", &report.fidelity_full),
        ("8 full + 120 abstract", &report.fidelity_mixed),
    ] {
        ft.row(vec![
            name.into(),
            s.rate.events.to_string(),
            f1(s.rate.events_per_sec),
            format!("{:.4}", s.wall_s),
            format!("{:.4}", s.sim_s),
        ]);
    }
    println!("{}", ft.render());

    println!("wheel speedup vs heap on timer-churn: {:.2}x", report.speedup());
    println!(
        "auditor overhead on all-to-all-8: {:.1}% CI95 [{:.1}%, {:.1}%] (detached {} ev/s vs attached {} ev/s)",
        report.audit_overhead_pct,
        report.audit_overhead_ci_pct.0,
        report.audit_overhead_ci_pct.1,
        f1(report.audit_off_events_per_sec),
        f1(report.audit_on_events_per_sec),
    );
    println!(
        "telemetry overhead on all-to-all-8: {:.1}% CI95 [{:.1}%, {:.1}%] (detached {} ev/s vs attached {} ev/s)",
        report.telemetry_overhead_pct(),
        report.telemetry_overhead_ci_pct.0,
        report.telemetry_overhead_ci_pct.1,
        f1(report.telemetry_off_events_per_sec),
        f1(report.telemetry_on_events_per_sec),
    );

    std::fs::write(&json_path, report.json()).expect("write BENCH_engine.json");
    println!("wrote {}", json_path.display());

    if check {
        let current = report.speedup();
        let floor = baseline_speedup * 0.75;
        println!(
            "--check: speedup_vs_heap {current:.2}x vs committed {baseline_speedup:.2}x (floor {floor:.2}x)"
        );
        if current < floor {
            eprintln!("REGRESSION: wheel speedup dropped more than 25% below the committed baseline");
            std::process::exit(1);
        }
        let tel_hi = report.telemetry_overhead_ci_pct.1;
        println!(
            "--check: telemetry overhead median {:.2}%, CI upper bound {tel_hi:.2}% (ceiling {:.2}%)",
            report.telemetry_overhead_pct(),
            TEL_OVERHEAD_CEILING * 100.0
        );
        if tel_hi > TEL_OVERHEAD_CEILING * 100.0 {
            eprintln!(
                "REGRESSION: telemetry hooks cost more than 2% on all-to-all-8 \
                 (CI upper bound, paired median-of-ratios estimator)"
            );
            std::process::exit(1);
        }
        // Fidelity gate: abstraction must PAY. If trading the NIC/OS
        // machinery on 120 of 128 hosts for the LogP model doesn't raise
        // engine throughput, the abstract path has grown full-path costs.
        let gain = report.fidelity_gain();
        println!(
            "--check: fidelity A/B mixed/full events-per-sec ratio {gain:.2}x \
             (mixed {} ev/s vs full {} ev/s)",
            f1(report.fidelity_mixed.rate.events_per_sec),
            f1(report.fidelity_full.rate.events_per_sec),
        );
        if gain <= 1.0 {
            eprintln!(
                "REGRESSION: mixed-fidelity bulk-128 is not faster per event than full \
                 fidelity ({gain:.2}x <= 1.0x)"
            );
            std::process::exit(1);
        }
        // Scaling gate: sharding must PAY on a machine with real
        // parallelism — 4-shard bulk-128 at or below 1.0x sequential is a
        // regression, not a footnote. With fewer than 4 cores the rows
        // were never measured (see bench_scaling), so the gate announces
        // the skip loudly rather than passing vacuously.
        if cores < 4 {
            println!(
                "--check: SCALING GATE SKIPPED — only {cores} core(s); \
                 4-shard rows were refused, not measured (need >= 4 cores to judge)"
            );
        } else {
            let seq = report.scaling_128.iter().find(|p| p.used == 1);
            let par4 = report.scaling_128.iter().find(|p| p.requested == 4 && p.used > 1);
            let (Some(seq), Some(par4)) = (seq, par4) else {
                eprintln!("REGRESSION: {cores} cores but no 4-shard bulk-128 row to gate on");
                std::process::exit(1);
            };
            let speedup = par4.rate.events_per_sec / seq.rate.events_per_sec.max(1e-12);
            println!(
                "--check: bulk-128 4-shard speedup {speedup:.2}x over sequential on {cores} core(s)"
            );
            if speedup <= 1.0 {
                eprintln!(
                    "REGRESSION: 4-shard bulk-128 is not faster than sequential on {cores} cores \
                     ({speedup:.2}x <= 1.0x)"
                );
                std::process::exit(1);
            }
        }
    }
}
