//! The traced pass: per-layer numbers for each workload.
//!
//! For one workload it runs, each in its own child:
//! * an untraced repeat — the reference for tracing overhead, ns/event,
//!   the empty-slice cost and the digest;
//! * a traced repeat (telemetry and auditor attached) — spans around
//!   every call into the cluster, the per-layer counts of the telemetry
//!   delta, the audit, and the Chrome/Perfetto span files;
//! * for `fleet_16k` only, a 1-shard oracle (digest must match; gives the
//!   2-shard speed-up) and an ablation without the control plane (gives
//!   the control plane's share of the run);
//! * the layer kernels.

use crate::spec::Spec;
use crate::stats::median;
use crate::{kernels, paper_lines, spawn_kernels, spawn_rep, workloads, write_file};
use std::path::Path;
use vnet::sim::telemetry::json;

/// Per-layer metrics derived from the repeats' spans and walls, in the
/// order [`workload`] computes them.
const DERIVED: [&str; 10] = [
    "cluster.build_s",
    "cluster.install_s",
    "cluster.run_s",
    "cluster.observe_s",
    "engine.events",
    "engine.ns_per_event",
    "parallel.empty_slice_ms",
    "parallel.speedup_vs_1shard",
    "control.cost_pct",
    "telemetry.overhead_pct",
];

/// Every per-layer metric the trace reports.
pub fn per_layer_names() -> Vec<&'static str> {
    DERIVED.iter().chain(&workloads::COUNTS).chain(&kernels::NAMES).copied().collect()
}

pub struct Traced {
    pub values: Vec<(String, f64)>,
    pub sim: Vec<(String, f64)>,
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Traced {
    pub fn value(&self, name: &str) -> f64 {
        self.values.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// Trace one workload; span files go to `out` when given.
pub fn workload(name: &str, seed: u64, out: Option<&Path>) -> Result<Traced, String> {
    let fleet = name == "fleet_16k";
    eprintln!("[trace] {name}: untraced reference");
    let plain = spawn_rep(name, seed, &[])?;
    eprintln!("[trace] {name}: traced repeat");
    let out_arg = out.map(|p| p.display().to_string());
    let mut traced_args = vec!["--traced"];
    if let Some(dir) = &out_arg {
        traced_args.extend(["--out", dir]);
    }
    let traced = spawn_rep(name, seed, &traced_args)?;
    let (oracle, ablation) = if fleet {
        eprintln!("[trace] {name}: 1-shard oracle");
        let oracle = spawn_rep(name, seed, &["--shards", "1"])?;
        eprintln!("[trace] {name}: ablation without the control plane");
        (Some(oracle), Some(spawn_rep(name, seed, &["--no-control"])?))
    } else {
        (None, None)
    };
    eprintln!("[trace] {name}: layer kernels");
    let kernels = spawn_kernels(seed)?;

    let mut problems: Vec<String> = [Some(&plain), Some(&traced), oracle.as_ref(), ablation.as_ref()]
        .into_iter()
        .flatten()
        .flat_map(|r| r.problems.iter().map(|p| format!("{name}: {p}")))
        .collect();
    if plain.digest != traced.digest {
        problems.push(format!(
            "{name}: traced digest {} differs from untraced {}",
            traced.digest, plain.digest
        ));
    }
    if let Some(o) = oracle.as_ref().filter(|o| o.digest != plain.digest) {
        problems.push(format!(
            "{name}: 1-shard oracle digest {} differs from 2-shard {}",
            o.digest, plain.digest
        ));
    }
    match traced.audit.as_deref() {
        Some("clean") => {}
        Some(report) => problems.push(format!("{name}: audit failed: {report}")),
        None => problems.push(format!("{name}: traced repeat reported no audit")),
    }

    let derived = [
        median(&traced.build_s),
        median(&traced.install_s),
        traced.run_s,
        traced.observe_s,
        traced.events,
        plain.wall_s * 1e9 / plain.events.max(1.0),
        plain.empty_slice_ms,
        oracle.as_ref().map_or(0.0, |o| o.wall_s / plain.wall_s),
        ablation.as_ref().map_or(0.0, |a| (plain.wall_s - a.wall_s) / plain.wall_s * 100.0),
        (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    ];
    let values = DERIVED
        .iter()
        .map(|n| n.to_string())
        .zip(derived)
        .chain(workloads::COUNTS.iter().map(|&n| (n.to_string(), traced.count(n))))
        .chain(kernels)
        .collect();
    Ok(Traced {
        values,
        sim: traced.sim.clone(),
        digest: plain.digest.clone(),
        attempted: traced.attempted,
        failed: traced.failed,
        problems,
    })
}

/// Trace every workload; print the per-layer table and write
/// `trace.json` (with the span files) under `out`.
pub fn all(seed: u64, out: &Path) -> Result<bool, String> {
    let spec = Spec::committed();
    let mut blocks = Vec::new();
    let mut ok = true;
    let (commit, cores) = (crate::commit(), crate::cores());
    let driver = crate::DRIVER;
    println!("benchmark trace: seed {seed}, {cores} core(s), driver {driver}, commit {commit}");
    for (name, _) in &spec.workloads {
        let t = workload(name, seed, Some(out))?;
        println!("\n{name}  digest {}", t.digest);
        for m in &spec.per_layer {
            println!("  {:<28} {:>16.6} {}", m.name, t.value(&m.name), m.unit);
        }
        for (k, v) in &t.sim {
            println!("  {k:<28} {v:>16.6}");
        }
        for l in paper_lines(&t.sim) {
            println!("  {l}");
        }
        for p in &t.problems {
            println!("  FAILED: {p}");
        }
        ok &= t.problems.is_empty();
        let layer: Vec<String> = spec
            .per_layer
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::str(&m.name),
                    json::num(t.value(&m.name)),
                    json::str(&m.unit)
                )
            })
            .collect();
        let problems: Vec<String> = t.problems.iter().map(|p| json::str(p)).collect();
        blocks.push(format!(
            "    {}: {{\"correct\": {}, \"digest\": {}, \"problems\": [{}], \"per_layer\": {{{}}}, \
             \"sim\": {}}}",
            json::str(name),
            t.problems.is_empty(),
            json::str(&t.digest),
            problems.join(", "),
            layer.join(", "),
            crate::num_map(&t.sim),
        ));
    }
    let doc = format!(
        "{{\n  \"schema\": 1,\n  \"commit\": {},\n  \"cores\": {cores},\n  \"driver\": \"{driver}\",\n  \
         \"seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::str(&commit),
        blocks.join(",\n")
    );
    let path = out.join("trace.json");
    write_file(&path, &doc)?;
    println!("\nwrote {} and the per-workload span files beside it", path.display());
    Ok(ok)
}
