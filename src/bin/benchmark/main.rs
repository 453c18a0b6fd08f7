//! `benchmark` — the repository benchmark: host wall seconds per
//! simulated second on three workloads, set-up time and peak memory, with
//! an outside-in per-layer trace. See `README.md` next to this file.
//!
//! ```text
//! benchmark run [--runs N] [--seed S] [--out DIR]     end-to-end metrics, tracing off
//! benchmark trace [--seed S] [--out DIR]              per-layer metrics, spans, audit
//! benchmark compare <base.json> <new.json>            verdicts against the bounds
//! benchmark --workload W --seed S --seconds T --trace 0|1
//!                                                     one measurement, JSON on the last line
//! ```
//!
//! Every repeat of a workload runs in a child process of this binary, so
//! its peak resident set is its own and one repeat cannot warm another.
//! The parent only spawns children and waits for them.

mod compare;
mod kernels;
mod spans;
mod spec;
mod stats;
mod trace;
mod workloads;

use spec::Spec;
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use vnet::sim::telemetry::json::{self, Json};
use workloads::{Shape, NAMES};

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 3] = ["wall_per_sim_s", "setup_s", "peak_rss_mb"];

pub use trace::per_layer_names;

/// Environment knobs that would override a child's pinned configuration.
const SCRUBBED: [&str; 5] =
    ["VNET_SHARDS", "VNET_FIDELITY", "VNET_PAR_DRIVER", "VNET_AUDIT", "VNET_TELEMETRY"];

/// The epoch driver every child runs with.
const DRIVER: &str = "threads";

const DEFAULT_OUT: &str = "benchmark-out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("trace") => cmd_trace(rest),
        Some("compare") => cmd_compare(rest),
        Some("child") => cmd_child(rest),
        Some("kernels") => cmd_kernels(rest),
        Some(a) if a.starts_with("--") => cmd_measure(&args),
        _ => Err(format!(
            "usage: benchmark run|trace|compare ... or benchmark --workload <{}> --seed N \
             --seconds N --trace 0|1",
            NAMES.join("|")
        )),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

// ------------------------------------------------------------------ flags

/// `--key value` options and bare `--switch`es, checked against the keys
/// a command accepts.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut f = Flags { values: BTreeMap::new(), switches: Vec::new(), positional: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(k) = a.strip_prefix("--") {
                if valued.contains(&k) {
                    let v = it.next().ok_or(format!("--{k} needs a value"))?;
                    f.values.insert(k.to_string(), v.clone());
                } else if switches.contains(&k) {
                    f.switches.push(k.to_string());
                } else {
                    return Err(format!("unknown option --{k}"));
                }
            } else {
                f.positional.push(a.clone());
            }
        }
        Ok(f)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: {v:?} is not a valid number")),
        }
    }

    fn workload(&self) -> Result<&'static str, String> {
        let w = self.values.get("workload").ok_or("--workload is required")?;
        NAMES
            .iter()
            .copied()
            .find(|n| n == w)
            .ok_or(format!("unknown workload {w:?}; expected one of {}", NAMES.join(", ")))
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.values.get("out").map_or(DEFAULT_OUT, String::as_str))
    }
}

// ---------------------------------------------------------- child protocol

/// What one child reports: the wire format between child and parent.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub install_s: Vec<f64>,
    pub wall_s: f64,
    pub slices: Vec<f64>,
    pub sim_s: f64,
    pub run_s: f64,
    pub observe_s: f64,
    pub peak_rss_mb: f64,
    pub events: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub problems: Vec<String>,
    /// `Some("clean")` or the violation report, for traced children.
    pub audit: Option<String>,
    pub empty_slice_ms: f64,
    pub sim: Vec<(String, f64)>,
    pub counts: Vec<(String, f64)>,
}

fn num_list(v: &[f64]) -> String {
    format!("[{}]", v.iter().map(|x| json::num(*x)).collect::<Vec<_>>().join(", "))
}

fn num_map<K: AsRef<str>>(v: &[(K, f64)]) -> String {
    let items: Vec<String> =
        v.iter().map(|(k, x)| format!("{}: {}", json::str(k.as_ref()), json::num(*x))).collect();
    format!("{{{}}}", items.join(", "))
}

impl Report {
    fn to_json(&self) -> String {
        let problems: Vec<String> = self.problems.iter().map(|p| json::str(p)).collect();
        format!(
            "{{\"setup_s\": {}, \"build_s\": {}, \"install_s\": {}, \"wall_s\": {}, \
             \"slices\": {}, \"sim_s\": {}, \"run_s\": {}, \"observe_s\": {}, \"peak_rss_mb\": {}, \
             \"events\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": {}, \
             \"problems\": [{}], \"audit\": {}, \"empty_slice_ms\": {}, \"sim\": {}, \
             \"counts\": {}}}",
            num_list(&self.setup_s),
            num_list(&self.build_s),
            num_list(&self.install_s),
            json::num(self.wall_s),
            num_list(&self.slices),
            json::num(self.sim_s),
            json::num(self.run_s),
            json::num(self.observe_s),
            json::num(self.peak_rss_mb),
            json::num(self.events),
            self.attempted,
            self.failed,
            json::str(&self.digest),
            problems.join(", "),
            self.audit.as_deref().map_or("null".to_string(), json::str),
            json::num(self.empty_slice_ms),
            num_map(&self.sim),
            num_map(&self.counts),
        )
    }

    fn parse(line: &str) -> Result<Report, String> {
        let v = Json::parse(line)?;
        let num = |k: &str| v.get(k).and_then(Json::as_f64).ok_or(format!("child report: no {k}"));
        let list = |k: &str| -> Result<Vec<f64>, String> {
            v.get(k)
                .and_then(Json::as_arr)
                .ok_or(format!("child report: no {k}"))?
                .iter()
                .map(|x| x.as_f64().ok_or(format!("child report: {k} holds a non-number")))
                .collect()
        };
        let map = |k: &str| -> Result<Vec<(String, f64)>, String> {
            v.get(k)
                .and_then(Json::as_obj)
                .ok_or(format!("child report: no {k}"))?
                .iter()
                .map(|(n, x)| Ok((n.clone(), x.as_f64().ok_or(format!("{k}.{n}: not a number"))?)))
                .collect()
        };
        Ok(Report {
            setup_s: list("setup_s")?,
            build_s: list("build_s")?,
            install_s: list("install_s")?,
            wall_s: num("wall_s")?,
            slices: list("slices")?,
            sim_s: num("sim_s")?,
            run_s: num("run_s")?,
            observe_s: num("observe_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            events: num("events")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            digest: v.get("digest").and_then(Json::as_str).unwrap_or_default().to_string(),
            problems: v
                .get("problems")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            audit: v.get("audit").and_then(Json::as_str).map(str::to_string),
            empty_slice_ms: num("empty_slice_ms")?,
            sim: map("sim")?,
            counts: map("counts")?,
        })
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// `child --workload W --seed S [--traced] [--shards N] [--no-control]
/// [--out DIR]`: run one repeat here and print its report as the last line.
fn cmd_child(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["workload", "seed", "shards", "out"], &["traced", "no-control"])?;
    let name = f.workload()?;
    let seed = f.num("seed", 1u64)?;
    let traced = f.has("traced");
    let mut shape = Shape::full(name).expect("known workload");
    if let Shape::Fleet { shards, control, .. } = &mut shape {
        *shards = f.num("shards", *shards)?;
        *control &= !f.has("no-control");
    } else if f.values.contains_key("shards") || f.has("no-control") {
        return Err(format!("--shards and --no-control apply to fleet_16k only, not {name}"));
    }
    let (rep, spans) = workloads::run(&shape, seed, traced);
    if let (true, Some(dir)) = (traced, f.values.get("out")) {
        let dir = Path::new(dir);
        write_file(&dir.join(format!("{name}.spans.json")), &spans.chrome_trace(name))?;
        let perfetto = rep.perfetto.as_deref().unwrap_or_default();
        write_file(&dir.join(format!("{name}.perfetto.json")), perfetto)?;
    }
    let report = Report {
        build_s: spans.each("cluster.build"),
        install_s: spans.each("cluster.install"),
        run_s: spans.total("cluster.run_for"),
        observe_s: spans.total("cluster.observe"),
        wall_s: rep.wall_s,
        slices: rep.slices,
        sim_s: rep.sim_s,
        peak_rss_mb: rep.peak_rss_mb,
        events: rep.events as f64,
        attempted: rep.attempted,
        failed: rep.failed,
        digest: format!("{:016x}", rep.digest),
        audit: rep.audit.map(|a| a.err().unwrap_or_else(|| "clean".to_string())),
        empty_slice_ms: rep.empty_slice_ms,
        sim: rep.sim.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        counts: rep.counts.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
        problems: rep.problems,
        setup_s: rep.setup_s,
    };
    println!("{}", report.to_json());
    Ok(true)
}

/// `kernels --seed S`: run the layer kernels here and print them.
fn cmd_kernels(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["seed"], &[])?;
    println!("{}", num_map(&kernels::all(f.num("seed", 1u64)?)));
    Ok(true)
}

/// Run this binary as a child with a scrubbed environment and the epoch
/// driver pinned; wait for it and return its last stdout line.
fn spawn(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
    for k in SCRUBBED {
        cmd.env_remove(k);
    }
    cmd.env("VNET_PAR_DRIVER", DRIVER);
    let out = cmd.output().map_err(|e| format!("spawning {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().last().map(str::to_string).ok_or(format!("child {args:?} printed nothing"))
}

/// One repeat of `name` in its own process.
pub fn spawn_rep(name: &str, seed: u64, extra: &[&str]) -> Result<Report, String> {
    let mut args = vec!["child".to_string(), "--workload".into(), name.into()];
    args.extend(["--seed".into(), seed.to_string()]);
    args.extend(extra.iter().map(|s| s.to_string()));
    Report::parse(&spawn(&args)?)
}

pub fn spawn_kernels(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let line = spawn(&["kernels".to_string(), "--seed".into(), seed.to_string()])?;
    let v = Json::parse(&line)?;
    v.as_obj()
        .ok_or("kernel report is not an object")?
        .iter()
        .map(|(k, x)| Ok((k.clone(), x.as_f64().ok_or(format!("kernel {k}: not a number"))?)))
        .collect()
}

// ------------------------------------------------------------ environment

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuse a workload that would run more shards than there are cores: it
/// would measure oversubscription, not the executor.
pub fn check_cores(name: &str) -> Result<(), String> {
    let shards = Shape::full(name).map_or(1, |s| s.shards()) as usize;
    if shards > cores() {
        return Err(format!(
            "{name} runs {shards} worker shards but this machine has {} core(s); refusing to \
             measure oversubscription",
            cores()
        ));
    }
    Ok(())
}

/// The commit being measured (`-dirty` with uncommitted changes), when
/// run from a git checkout.
pub fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

// ------------------------------------------------------- end-to-end runs

/// Repeats per measurement, at least.
const MIN_REPS: usize = 3;

/// One measurement of one workload with tracing off: at least
/// [`MIN_REPS`] identical repeats, one child each.
pub struct Measurement {
    pub reps: Vec<Report>,
    /// End-to-end values, in [`END_TO_END`] order.
    pub values: [f64; 3],
    pub problems: Vec<String>,
}

impl Measurement {
    /// Reduce the repeats of one measurement: `wall_per_sim_s` is the
    /// per-slice minimum wall over the simulated span; `setup_s` is each
    /// repeat's median set-up, the fastest repeat's for the same reason;
    /// `peak_rss_mb` is the median repeat's.
    fn of(name: &str, reps: Vec<Report>) -> Measurement {
        let values = [
            slice_min_wall(&reps) / reps[0].sim_s,
            reps.iter().map(|r| median(&r.setup_s)).fold(f64::INFINITY, f64::min),
            median(&reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        ];
        Measurement { problems: consistency(name, &reps), reps, values }
    }

    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }
}

/// Correctness across the repeats of one workload: every repeat passed
/// its checks, and all agree on the digest and on the slices they ran.
fn consistency(name: &str, reps: &[Report]) -> Vec<String> {
    let mut problems: Vec<String> =
        reps.iter().flat_map(|r| r.problems.iter().map(|p| format!("{name}: {p}"))).collect();
    let first = &reps[0];
    if let Some(r) = reps.iter().find(|r| r.digest != first.digest) {
        problems.push(format!(
            "{name}: digest differs across repeats ({} vs {})",
            first.digest, r.digest
        ));
    }
    if reps.iter().any(|r| r.slices.len() != first.slices.len() || r.sim_s != first.sim_s) {
        problems.push(format!("{name}: repeats ran different slices"));
    }
    problems
}

/// Host seconds of the measured loop: slice by slice, the fastest of the
/// repeats, summed. Repeats with one seed do identical work in each slice,
/// and on a shared machine other tenants only ever add time (spells of up
/// to 2x, from a tenth of a second to minutes, and a slower core for a
/// whole process), so the fastest repeat is the most repeatable estimate
/// of the simulator's own cost; the median of three moved 10-15% more.
fn slice_min_wall(reps: &[Report]) -> f64 {
    let slices = reps.iter().map(|r| r.slices.len()).min().unwrap_or(0);
    (0..slices).map(|i| reps.iter().map(|r| r.slices[i]).fold(f64::INFINITY, f64::min)).sum()
}

/// Measure `name`: repeat it back to back while another repeat still fits
/// in `seconds` (at least [`MIN_REPS`] times).
fn measure(name: &str, seed: u64, seconds: u64) -> Result<Measurement, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps: Vec<Report> = Vec::new();
    let mut took: Vec<f64> = Vec::new();
    while reps.len() < MIN_REPS
        || start.elapsed() + Duration::from_secs_f64(median(&took)) <= budget
    {
        let t = Instant::now();
        reps.push(spawn_rep(name, seed, &[])?);
        took.push(t.elapsed().as_secs_f64());
    }
    eprintln!(
        "[measure] {name} seed {seed}: {} repeats in {:.1} s",
        reps.len(),
        start.elapsed().as_secs_f64()
    );
    Ok(Measurement::of(name, reps))
}

/// `runs` measurements of every workload with the same budget per
/// measurement as [`measure`], but with their repeats interleaved: each
/// cycle runs one repeat of every workload for every measurement in turn,
/// and whole cycles repeat while another fits. So every measurement's
/// repeats spread over the whole run, and a slow spell shorter than the
/// run cannot hold all the repeats of one measurement.
fn measure_interleaved(
    runs: usize,
    seed: u64,
    seconds: u64,
) -> Result<BTreeMap<&'static str, Vec<Measurement>>, String> {
    let budget = Duration::from_secs(seconds * (runs * NAMES.len()) as u64);
    let start = Instant::now();
    let mut reps: BTreeMap<&str, Vec<Vec<Report>>> =
        NAMES.iter().map(|&n| (n, vec![Vec::new(); runs])).collect();
    let mut took: Vec<f64> = Vec::new();
    while took.len() < MIN_REPS
        || start.elapsed() + Duration::from_secs_f64(median(&took)) <= budget
    {
        let t = Instant::now();
        for m in 0..runs {
            for name in NAMES {
                eprintln!("[run] cycle {}, measurement {}/{runs}: {name}", took.len() + 1, m + 1);
                let rep = spawn_rep(name, seed, &[])?;
                reps.get_mut(name).expect("every workload")[m].push(rep);
            }
        }
        took.push(t.elapsed().as_secs_f64());
    }
    eprintln!("[run] {} cycles in {:.1} s", took.len(), start.elapsed().as_secs_f64());
    Ok(reps
        .into_iter()
        .map(|(n, ms)| (n, ms.into_iter().map(|r| Measurement::of(n, r)).collect()))
        .collect())
}

/// Paper comparison for the thrash workload's simulated outputs.
pub fn paper_lines(sim: &[(String, f64)]) -> Vec<String> {
    let get = |k: &str| sim.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    let (Some(msgs), Some(remaps)) = (get("sim.msgs_per_s"), get("sim.remaps_per_s")) else {
        return Vec::new();
    };
    // Distance outside a paper range, as a share of the nearer end.
    let outside = |x: f64, (lo, hi): (f64, f64)| {
        if x < lo {
            (x - lo) / lo
        } else if x > hi {
            (x - hi) / hi
        } else {
            0.0
        }
    };
    let kept = msgs / workloads::PAPER_CEILING_MSGS_S;
    let (klo, khi) = workloads::PAPER_KEPT_FRAC;
    vec![
        format!(
            "sim.msgs_per_s {msgs:.1} = {:.1}% of the paper's {:.1} K msgs/s ceiling; paper keeps \
             {:.0}-{:.0}% with 8 frames overcommitted; error {:+.1}% of the range",
            kept * 100.0,
            workloads::PAPER_CEILING_MSGS_S / 1e3,
            klo * 100.0,
            khi * 100.0,
            outside(kept, workloads::PAPER_KEPT_FRAC) * 100.0
        ),
        format!(
            "sim.remaps_per_s {remaps:.1}; paper {:.0}-{:.0}/s; error {:+.1}% of the range",
            workloads::PAPER_REMAPS_S.0,
            workloads::PAPER_REMAPS_S.1,
            outside(remaps, workloads::PAPER_REMAPS_S) * 100.0
        ),
    ]
}

/// `run [--runs N] [--seed S] [--out DIR]`: `N` measurements of every
/// workload, their repeats interleaved so machine drift spreads across
/// them.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["runs", "seed", "out"], &[])?;
    let spec = Spec::committed();
    let runs = f.num("runs", 3usize)?.max(1);
    let seed = f.num("seed", 1u64)?;
    let seconds = spec.run_seconds;
    for name in NAMES {
        check_cores(name)?;
    }
    let all = measure_interleaved(runs, seed, seconds)?;
    let (commit, cores) = (commit(), cores());
    println!(
        "benchmark run: {runs} measurement(s) per workload, seed {seed}, {cores} core(s), \
         driver {DRIVER}, commit {commit}"
    );
    let mut all_problems = Vec::new();
    let mut blocks = Vec::new();
    for name in NAMES {
        let ms = &all[name];
        let first = &ms[0].reps[0];
        let mut problems: Vec<String> = ms.iter().flat_map(|m| m.problems.clone()).collect();
        if ms.iter().any(|m| m.reps[0].digest != first.digest) {
            problems.push(format!("{name}: digest differs across measurements"));
        }
        let shards = Shape::full(name).map_or(1, |s| s.shards());
        let reps: usize = ms.iter().map(|m| m.reps.len()).sum();
        println!("\n{name} ({shards} shard(s), {reps} repeats)");
        println!(
            "  {:<16} {:>6} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "q1", "q3", "n"
        );
        let mut metrics = Vec::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = ms.iter().map(|x| x.values[i]).collect();
            let s = Summary::of(&values).expect("at least one measurement");
            let unit = &spec.metric(m).expect("end-to-end metric in BENCHMARK.json").unit;
            println!(
                "  {m:<16} {unit:>6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                s.median, s.q1, s.q3, s.n
            );
            metrics.push(format!(
                "\"{m}\": {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \
                 \"values\": {}}}",
                json::str(unit),
                json::num(s.median),
                json::num(s.q1),
                json::num(s.q3),
                s.n,
                num_list(&values)
            ));
        }
        let attempted: u64 = ms.iter().map(Measurement::attempted).sum();
        let failed: u64 = ms.iter().map(Measurement::failed).sum();
        println!(
            "  failed_frac {} ({failed} of {attempted} operations)",
            failed as f64 / attempted.max(1) as f64
        );
        println!("  digest {}", first.digest);
        for (k, v) in &first.sim {
            println!("  {k} {v:.3}");
        }
        for l in paper_lines(&first.sim) {
            println!("  {l}");
        }
        for p in &problems {
            println!("  FAILED: {p}");
        }
        blocks.push(format!(
            "    \"{name}\": {{\"shards\": {shards}, \"correct\": {}, \"digest\": {}, \
             \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}, \"sim\": {}}}",
            problems.is_empty(),
            json::str(&first.digest),
            metrics.join(", "),
            num_map(&first.sim)
        ));
        all_problems.extend(problems);
    }
    let doc = format!(
        "{{\n  \"schema\": 1,\n  \"commit\": {},\n  \"cores\": {cores},\n  \"driver\": \"{DRIVER}\",\n  \
         \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"runs\": {runs},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::str(&commit),
        blocks.join(",\n")
    );
    let path = f.out().join("run.json");
    write_file(&path, &doc)?;
    println!("\nwrote {}", path.display());
    Ok(all_problems.is_empty())
}

/// `trace [--seed S] [--out DIR]`: the traced pass over every workload.
fn cmd_trace(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["seed", "out"], &[])?;
    let seed = f.num("seed", 1u64)?;
    let out = f.out();
    for name in NAMES {
        check_cores(name)?;
    }
    trace::all(seed, &out)
}

/// `compare <base.json> <new.json>`.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &[], &[])?;
    let [a, b] = f.positional.as_slice() else {
        return Err("usage: benchmark compare <base run.json> <new run.json>".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    println!("compare: base {a}, new {b}");
    compare::run(&Spec::committed(), &read(a)?, &read(b)?)
}

/// `--workload W --seed S --seconds T --trace 0|1`: one measurement of one
/// workload, printed as a JSON object on the last line of stdout: with
/// `--trace 0` every end-to-end metric (see [`measure`]), with `--trace 1`
/// every per-layer metric of the traced pass. Exits non-zero, after
/// printing, when a correctness check failed.
fn cmd_measure(args: &[String]) -> Result<bool, String> {
    let f = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
    let spec = Spec::committed();
    let name = f.workload()?;
    let seed = f.num("seed", 1u64)?;
    let seconds = f.num("seconds", spec.run_seconds)?;
    let traced = match f.num("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    check_cores(name)?;
    let (problems, attempted, failed, metrics): (_, _, _, Vec<(String, f64)>) = if traced {
        let t = trace::workload(name, seed, None)?;
        let metrics = spec.per_layer.iter().map(|m| (m.name.clone(), t.value(&m.name))).collect();
        (t.problems, t.attempted, t.failed, metrics)
    } else {
        let m = measure(name, seed, seconds)?;
        let metrics = END_TO_END.iter().map(|n| n.to_string()).zip(m.values).collect();
        (m.problems.clone(), m.attempted(), m.failed(), metrics)
    };
    for p in &problems {
        eprintln!("FAILED: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            let unit = spec.metric(m).map_or("", |m| m.unit.as_str());
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::str(m),
                json::num(*v),
                json::str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        attempted.max(1),
        body.join(", ")
    );
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_reports_round_trip() {
        let r = Report {
            setup_s: vec![0.5, 0.25],
            wall_s: 7.5,
            sim_s: 0.007,
            attempted: 10,
            digest: "00ff".into(),
            problems: vec!["a \"quoted\" problem".into()],
            audit: Some("clean".into()),
            sim: vec![("sim.x".into(), 1.5)],
            counts: vec![("nic.deposits".into(), 3.0)],
            ..Report::default()
        };
        let back = Report::parse(&r.to_json()).expect("parses");
        assert_eq!(back.setup_s, r.setup_s);
        assert_eq!(back.problems, r.problems);
        assert_eq!(back.audit.as_deref(), Some("clean"));
        assert_eq!(back.count("nic.deposits"), 3.0);
        assert_eq!((back.wall_s, back.sim_s), (7.5, 0.007));
    }

    #[test]
    fn paper_error_is_distance_outside_the_range() {
        let sim = |m: f64, r: f64| {
            vec![("sim.msgs_per_s".to_string(), m), ("sim.remaps_per_s".to_string(), r)]
        };
        let inside = paper_lines(&sim(0.6 * workloads::PAPER_CEILING_MSGS_S, 250.0));
        assert!(inside.iter().all(|l| l.contains("error +0.0%")), "{inside:?}");
        let above = paper_lines(&sim(0.9 * workloads::PAPER_CEILING_MSGS_S, 360.0));
        assert!(above[0].contains("error +20.0%"), "{}", above[0]);
        assert!(above[1].contains("error +20.0%"), "{}", above[1]);
    }

    #[test]
    fn flags_reject_unknown_options() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(Flags::parse(&args(&["--bogus"]), &["seed"], &[]).is_err());
        assert!(Flags::parse(&args(&["--seed"]), &["seed"], &[]).is_err());
        let f = Flags::parse(
            &args(&["--workload", "bulk_128", "--traced"]),
            &["workload"],
            &["traced"],
        )
        .unwrap();
        assert_eq!(f.workload(), Ok("bulk_128"));
        assert!(f.has("traced"));
        let f = Flags::parse(&args(&["--workload", "nope"]), &["workload"], &[]).unwrap();
        assert!(f.workload().is_err());
    }
}
