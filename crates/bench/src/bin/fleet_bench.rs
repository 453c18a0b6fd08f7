//! `fleet_bench` — fleet-scale memory footprint and open-loop workload
//! benchmark.
//!
//! Sweeps fat-tree clusters of {1k, 4k, 16k} hosts ({512, 4k} under
//! `--quick`) across fidelity mixes and shard counts, driving every
//! abstract host with an open-loop client population
//! ([`vnet_core::OpenLoopSpec`]): Poisson arrival streams standing in
//! for millions of clients, rotated-Zipf target popularity, and
//! bounded-Pareto request sizes. Per-request latency (arrival at the
//! source → receive overhead cleared at the server) lands in a
//! cluster-wide log-histogram.
//!
//! Fidelity mixes:
//!
//! * `abstract` — every host abstract, delay-only fabric: the pure
//!   fleet-scale configuration the memory diet targets.
//! * `mixed` — the tail 16 hosts run the full NIC/OS machinery under a
//!   BSP all-to-all while the rest stay abstract, all over the *full*
//!   bandwidth-arbitrating fabric — full-detail islands inside a fleet.
//!
//! Each row runs in a **subprocess** so its peak RSS (`VmHWM` from
//! `/proc/self/status`) is its own high-water mark, not the sweep's
//! running maximum.
//!
//! Results print as a table and are written to `BENCH_fleet.json` at the
//! repo root (schema 1). Flags: `--quick` shrinks the sweep for CI;
//! `--check` additionally (a) compares the 4096-host abstract sequential
//! row's events/s against the committed baseline and fails on a >25%
//! regression, (b) enforces a per-size peak-RSS ceiling — 1 GB at 16k
//! hosts — and (c) requires rows differing only in shard count to agree
//! exactly on every simulation-visible output (requests served, latency
//! histogram count/sum, messages sent): the open-loop engine must be
//! byte-identical under the parallel executor.

use std::time::Instant;
use vnet_apps::bsp::{launch_job, BspApp, BspRunner, SuperStep};
use vnet_apps::collectives;
use vnet_bench::{f1, quick_mode, Table};
use vnet_core::prelude::*;
use vnet_net::TopologySpec;
use vnet_sim::telemetry::json::Json;

/// Full-fidelity hosts at the tail of a `mixed` row.
const FULL_TAIL: u32 = 16;

/// Hosts per leaf switch of every swept fat tree (leaves = hosts / 32).
const HOSTS_PER_LEAF: u32 = 32;

/// Spine switches (multipath degree) of every swept fat tree.
const SPINES: u32 = 8;

/// Per-size peak-RSS ceilings for the `--check` gate, in KB. The 16k
/// entry is the headline acceptance bound (1 GB); the smaller ones catch
/// the same class of regression earlier and cheaper.
fn rss_ceiling_kb(hosts: u32) -> u64 {
    match hosts {
        0..=1024 => 256 * 1024,
        1025..=4096 => 512 * 1024,
        _ => 1024 * 1024,
    }
}

// ------------------------------------------------------------- row child

/// A rank replaying a precomputed superstep schedule (the full-fidelity
/// tail of a `mixed` row).
struct PrebuiltApp {
    sched: Vec<SuperStep>,
}

impl BspApp for PrebuiltApp {
    fn step(&mut self, _rank: usize, _nranks: usize, step: u64) -> Option<SuperStep> {
        self.sched.get(step as usize).cloned()
    }
}

/// Peak resident set of this process so far, in KB (`VmHWM`).
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One measured sweep point (also the child → parent wire format).
struct Row {
    hosts: u32,
    fidelity: String,
    shards_requested: u32,
    shards_used: u32,
    build_ms: f64,
    run_ms: f64,
    sim_s: f64,
    events: u64,
    events_per_sec: f64,
    vm_hwm_kb: u64,
    requests: u64,
    served: u64,
    sent: u64,
    lat_count: u64,
    lat_sum_ns: u128,
    lat_p50_ns: u64,
    lat_p99_ns: u64,
    lat_p999_ns: u64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            "{{ \"hosts\": {}, \"fidelity\": \"{}\", \"shards_requested\": {}, \
             \"shards_used\": {}, \"build_ms\": {:.1}, \"run_ms\": {:.1}, \"sim_s\": {:.4}, \
             \"events\": {}, \"events_per_sec\": {:.1}, \"vm_hwm_kb\": {}, \
             \"requests\": {}, \"served\": {}, \"sent\": {}, \"lat_count\": {}, \
             \"lat_sum_ns\": {}, \"lat_p50_ns\": {}, \"lat_p99_ns\": {}, \"lat_p999_ns\": {} }}",
            self.hosts,
            self.fidelity,
            self.shards_requested,
            self.shards_used,
            self.build_ms,
            self.run_ms,
            self.sim_s,
            self.events,
            self.events_per_sec,
            self.vm_hwm_kb,
            self.requests,
            self.served,
            self.sent,
            self.lat_count,
            self.lat_sum_ns,
            self.lat_p50_ns,
            self.lat_p99_ns,
            self.lat_p999_ns,
        )
    }
}

/// Run one sweep point in this process and measure it.
fn run_row(hosts: u32, fidelity: &str, shards: u32, quick: bool) -> Row {
    let mixed = fidelity == "mixed";
    let full_tail = if mixed { FULL_TAIL } else { 0 };
    let targets = hosts - full_tail;
    let requests_per_host: u64 = if quick { 40 } else { 100 };

    let t_build = Instant::now();
    let mut b = Cluster::builder()
        .topology(TopologySpec::FatTree {
            leaves: hosts / HOSTS_PER_LEAF,
            hosts_per_leaf: HOSTS_PER_LEAF,
            spines: SPINES,
        })
        .audit(false)
        .telemetry(false)
        .shards(shards)
        .seed(0xF1EE7)
        .default_fidelity(Fidelity::Abstract);
    if mixed {
        b = b.fidelity(targets..hosts, Fidelity::Full);
    } else {
        b = b.fabric_fidelity(Fidelity::Abstract);
    }
    let mut c = b.build();

    // The client population: every abstract host serves (and sources)
    // open-loop traffic. Aggregate arrival 1/8µs per host against
    // o_s = 2.6µs + o_r = 3.2µs of CPU per request puts the serial CPU
    // near 70% utilization — loaded enough for a real latency tail
    // without collapsing into unbounded overload.
    let spec = OpenLoopSpec {
        streams: 2,
        mean_gap: SimDuration::from_micros(8),
        requests: requests_per_host,
        zipf_s: 1.0,
        targets,
        size_min: 64,
        size_max: 65_536,
        size_alpha: 1.3,
    };
    for h in 0..targets {
        c.drive_open_loop(HostId(h), spec.clone());
    }
    let ranks = if mixed {
        let tail: Vec<HostId> = (targets..hosts).map(HostId).collect();
        let rounds = if quick { 2 } else { 4 };
        let scheds: Vec<Vec<SuperStep>> = (0..tail.len())
            .map(|rank| {
                let mut s = Vec::new();
                for _ in 0..rounds {
                    collectives::alltoall(&mut s, rank, tail.len(), 64, 8192);
                }
                s
            })
            .collect();
        launch_job(&mut c, &tail, |r| PrebuiltApp { sched: scheds[r].clone() })
    } else {
        Vec::new()
    };
    let build_ms = t_build.elapsed().as_secs_f64() * 1e3;

    // Fixed 50 ms slices with state checks only at slice boundaries: the
    // stopping rule reads deterministic simulation state at deterministic
    // instants, so the walk is identical for every shard count.
    let t_run = Instant::now();
    let slice = SimDuration::from_millis(50);
    loop {
        c.run_for(slice);
        let arrived = c.open_loop_remaining() == 0;
        let bsp_done = ranks
            .iter()
            .all(|&(h, t, _)| c.body::<BspRunner<PrebuiltApp>>(h, t).expect("runner").is_done());
        if arrived && bsp_done {
            break;
        }
        assert!(c.now().as_secs_f64() < 300.0, "fleet workload wedged");
    }
    // Two more slices drain requests still on the wire or queued on
    // server CPUs when the last arrival fired.
    c.run_for(slice);
    c.run_for(slice);
    let run_ms = t_run.elapsed().as_secs_f64() * 1e3;

    let lat = c.open_loop_latency();
    let sent: u64 =
        (0..targets).map(|h| c.abs_stats(HostId(h)).expect("abstract host").sent).sum();
    let served: u64 =
        (0..targets).map(|h| c.abs_stats(HostId(h)).expect("abstract host").recvd).sum();
    let events = c.events_processed();
    Row {
        hosts,
        fidelity: fidelity.to_string(),
        shards_requested: shards,
        shards_used: c.shards(),
        build_ms,
        run_ms,
        sim_s: c.now().as_secs_f64(),
        events,
        events_per_sec: events as f64 / (run_ms / 1e3).max(1e-12),
        vm_hwm_kb: vm_hwm_kb(),
        requests: requests_per_host * targets as u64,
        served,
        sent,
        lat_count: lat.count(),
        lat_sum_ns: lat.sum(),
        lat_p50_ns: lat.quantile_bound(0.50),
        lat_p99_ns: lat.quantile_bound(0.99),
        lat_p999_ns: lat.quantile_bound(0.999),
    }
}

// ----------------------------------------------------------- parent side

/// The workspace root (walk up to the first ancestor with `ROADMAP.md`;
/// this binary is built both from `crates/bench` and the root package).
fn repo_root() -> std::path::PathBuf {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .ancestors()
        .find(|d| d.join("ROADMAP.md").is_file())
        .unwrap_or(manifest)
        .to_path_buf()
}

/// Spawn this binary in `--row` mode for one sweep point and parse the
/// row it prints (its own process ⇒ its own `VmHWM`).
fn run_row_child(exe: &std::path::Path, hosts: u32, fidelity: &str, shards: u32, quick: bool) -> Row {
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--row",
        "--hosts",
        &hosts.to_string(),
        "--fidelity",
        fidelity,
        "--shards",
        &shards.to_string(),
    ]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("spawn {}: {e}", exe.display()));
    assert!(
        out.status.success(),
        "row child (hosts={hosts} fidelity={fidelity} shards={shards}) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let json = text.lines().rev().find(|l| l.trim_start().starts_with('{')).unwrap_or_else(|| {
        panic!("row child printed no JSON:\n{text}")
    });
    let row = Json::parse(json).unwrap_or_else(|e| panic!("row JSON {e}: {json}"));
    let num = |k: &str| {
        row.get(k).and_then(Json::as_f64).unwrap_or_else(|| panic!("row JSON missing {k}: {json}"))
    };
    Row {
        hosts: num("hosts") as u32,
        fidelity: row.get("fidelity").and_then(Json::as_str).expect("fidelity").to_string(),
        shards_requested: num("shards_requested") as u32,
        shards_used: num("shards_used") as u32,
        build_ms: num("build_ms"),
        run_ms: num("run_ms"),
        sim_s: num("sim_s"),
        events: num("events") as u64,
        events_per_sec: num("events_per_sec"),
        vm_hwm_kb: num("vm_hwm_kb") as u64,
        requests: num("requests") as u64,
        served: num("served") as u64,
        sent: num("sent") as u64,
        lat_count: num("lat_count") as u64,
        lat_sum_ns: num("lat_sum_ns") as u128,
        lat_p50_ns: num("lat_p50_ns") as u64,
        lat_p99_ns: num("lat_p99_ns") as u64,
        lat_p999_ns: num("lat_p999_ns") as u64,
    }
}

/// A sweep point refused because it would oversubscribe the machine.
struct Skip {
    hosts: u32,
    fidelity: &'static str,
    shards: u32,
}

fn report_json(quick: bool, cores: usize, rows: &[Row], skips: &[Skip], gate: Option<&Row>) -> String {
    let rows_json =
        rows.iter().map(|r| format!("    {}", r.json())).collect::<Vec<_>>().join(",\n");
    let skips_json = skips
        .iter()
        .map(|s| {
            format!(
                "    {{ \"hosts\": {}, \"fidelity\": \"{}\", \"shards_requested\": {}, \
                 \"reason\": \"{} shards > {cores} core(s): row would measure \
                 oversubscription\" }}",
                s.hosts, s.fidelity, s.shards, s.shards
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let gate_json = gate
        .map(|g| {
            format!(
                "{{ \"workload\": \"hosts=4096 fidelity=abstract shards=1\", \
                 \"events_per_sec\": {:.1} }}",
                g.events_per_sec
            )
        })
        .unwrap_or_else(|| "null".to_string());
    format!(
        "{{\n  \"schema\": 1,\n  \"quick\": {quick},\n  \"cores\": {cores},\n  \"rows\": [\n{rows_json}\n  ],\n  \"skipped\": [{}\n  ],\n  \"gate\": {gate_json}\n}}\n",
        if skips_json.is_empty() { String::new() } else { format!("\n{skips_json}") }
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = quick_mode();

    // Child mode: run one sweep point, print its row, exit.
    if args.iter().any(|a| a == "--row") {
        let get = |flag: &str| -> String {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .unwrap_or_else(|| panic!("--row needs {flag} <value>"))
                .clone()
        };
        let hosts: u32 = get("--hosts").parse().expect("--hosts");
        let fidelity = get("--fidelity");
        let shards: u32 = get("--shards").parse().expect("--shards");
        let row = run_row(hosts, &fidelity, shards, quick);
        println!("{}", row.json());
        return;
    }

    let check = args.iter().any(|a| a == "--check");
    let json_path = repo_root().join("BENCH_fleet.json");

    // In --check mode read the committed baseline *before* overwriting it.
    let baseline_gate = if check {
        let text = std::fs::read_to_string(&json_path)
            .unwrap_or_else(|e| panic!("--check needs committed {}: {e}", json_path.display()));
        let doc = Json::parse(&text)
            .unwrap_or_else(|e| panic!("committed {} is not JSON: {e}", json_path.display()));
        doc.at("gate.events_per_sec")
            .and_then(Json::as_f64)
            .expect("committed BENCH_fleet.json has no gate.events_per_sec")
    } else {
        0.0
    };

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let exe = std::env::current_exe().expect("current_exe");

    // The sweep. The 4096-host abstract sequential row is always present:
    // it is the regression-gate workload.
    let points: Vec<(u32, &str, u32)> = if quick {
        vec![
            (512, "abstract", 1),
            (512, "mixed", 1),
            (512, "mixed", 4),
            (4096, "abstract", 1),
        ]
    } else {
        let mut v = Vec::new();
        for &hosts in &[1024u32, 4096, 16384] {
            for fidelity in ["abstract", "mixed"] {
                for shards in [1u32, 4] {
                    v.push((hosts, fidelity, shards));
                }
            }
        }
        v
    };

    let mut rows: Vec<Row> = Vec::new();
    let mut skips: Vec<Skip> = Vec::new();
    for (hosts, fidelity, shards) in points {
        if shards as usize > cores {
            eprintln!(
                "[fleet {hosts} {fidelity} shards={shards}] SKIPPED: {shards} shards on \
                 {cores} core(s)"
            );
            skips.push(Skip { hosts, fidelity, shards });
            continue;
        }
        eprintln!("[fleet {hosts} {fidelity} shards={shards}] running...");
        // The gate row always runs the full request count, even under
        // --quick, so its events/s is comparable to the committed
        // full-sweep baseline.
        let row_quick = quick && !(hosts == 4096 && fidelity == "abstract" && shards == 1);
        let row = run_row_child(&exe, hosts, fidelity, shards, row_quick);
        eprintln!(
            "[fleet {hosts} {fidelity} shards={shards}] {} events, {} ev/s, \
             peak RSS {:.1} MB, build {:.0} ms",
            row.events,
            f1(row.events_per_sec),
            row.vm_hwm_kb as f64 / 1024.0,
            row.build_ms
        );
        rows.push(row);
    }

    let mut t = Table::new(
        &format!("Fleet sweep ({cores} core(s) available)"),
        &[
            "hosts", "fidelity", "shards", "build ms", "run ms", "events", "events/s",
            "RSS MB", "p50 µs", "p99 µs", "p999 µs",
        ],
    );
    for r in &rows {
        t.row(vec![
            r.hosts.to_string(),
            r.fidelity.clone(),
            format!("{} ({} used)", r.shards_requested, r.shards_used),
            format!("{:.0}", r.build_ms),
            format!("{:.0}", r.run_ms),
            r.events.to_string(),
            f1(r.events_per_sec),
            format!("{:.1}", r.vm_hwm_kb as f64 / 1024.0),
            format!("{:.1}", r.lat_p50_ns as f64 / 1e3),
            format!("{:.1}", r.lat_p99_ns as f64 / 1e3),
            format!("{:.1}", r.lat_p999_ns as f64 / 1e3),
        ]);
    }
    println!("{}", t.render());

    let gate_row = rows
        .iter()
        .find(|r| r.hosts == 4096 && r.fidelity == "abstract" && r.shards_requested == 1);
    std::fs::write(&json_path, report_json(quick, cores, &rows, &skips, gate_row))
        .expect("write BENCH_fleet.json");
    println!("wrote {}", json_path.display());

    let mut failed = false;

    // Determinism gate (always on): rows differing only in shard count
    // must agree exactly on every simulation-visible output.
    for i in 0..rows.len() {
        for j in i + 1..rows.len() {
            let (a, b) = (&rows[i], &rows[j]);
            if a.hosts != b.hosts || a.fidelity != b.fidelity || a.shards_used == b.shards_used {
                continue;
            }
            let same = a.served == b.served
                && a.sent == b.sent
                && a.lat_count == b.lat_count
                && a.lat_sum_ns == b.lat_sum_ns
                && a.events == b.events;
            if !same {
                eprintln!(
                    "REGRESSION: hosts={} fidelity={} diverges across shard counts \
                     ({} vs {} shards): served {}/{}, sent {}/{}, lat_sum {}/{}, events {}/{}",
                    a.hosts, a.fidelity, a.shards_used, b.shards_used, a.served, b.served,
                    a.sent, b.sent, a.lat_sum_ns, b.lat_sum_ns, a.events, b.events
                );
                failed = true;
            } else {
                println!(
                    "determinism: hosts={} fidelity={} identical at {} and {} shards",
                    a.hosts, a.fidelity, a.shards_used, b.shards_used
                );
            }
        }
    }

    // Served-volume sanity: at this utilization virtually every emitted
    // request must be served within the drain window.
    for r in &rows {
        assert!(
            r.sent >= r.requests,
            "hosts={} {}: sent {} < requests {}",
            r.hosts,
            r.fidelity,
            r.sent,
            r.requests
        );
        let served_frac = r.lat_count as f64 / r.requests as f64;
        assert!(
            served_frac > 0.99,
            "hosts={} {}: only {:.1}% of requests served",
            r.hosts,
            r.fidelity,
            served_frac * 100.0
        );
    }

    if check {
        // Peak-RSS ceilings, per cluster size.
        for r in &rows {
            let ceiling = rss_ceiling_kb(r.hosts);
            println!(
                "--check: hosts={} {} shards={} peak RSS {:.1} MB (ceiling {} MB)",
                r.hosts,
                r.fidelity,
                r.shards_requested,
                r.vm_hwm_kb as f64 / 1024.0,
                ceiling / 1024
            );
            if r.vm_hwm_kb > ceiling {
                eprintln!(
                    "REGRESSION: hosts={} {} peak RSS {} KB breaches the {} KB ceiling",
                    r.hosts, r.fidelity, r.vm_hwm_kb, ceiling
                );
                failed = true;
            }
        }
        // Throughput gate on the 4096-host abstract sequential row.
        let gate = gate_row.expect("sweep always includes the 4096-host gate row");
        let floor = baseline_gate * 0.75;
        println!(
            "--check: gate row {} ev/s vs committed {} ev/s (floor {} ev/s)",
            f1(gate.events_per_sec),
            f1(baseline_gate),
            f1(floor)
        );
        if gate.events_per_sec < floor {
            eprintln!(
                "REGRESSION: 4096-host abstract events/s dropped more than 25% below the \
                 committed baseline"
            );
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}
