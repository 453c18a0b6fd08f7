//! `benchmark compare <base.json> <new.json>`: one verdict per workload
//! and end-to-end metric, by the rules of the committed bounds.
//!
//! * `worse` — the new median is worse than the base median by more than
//!   the metric's bound.
//! * `unresolved` — otherwise, when the quartile spread of either side is
//!   wider than the bound and the runs of the two sides overlap.
//! * `better` — the median improved by more than the bound.
//! * `same` — anything else.

use crate::spec::{Metric, Spec};
use crate::stats::Summary;
use vnet::sim::telemetry::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Unresolved,
    Better,
    Same,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Same => "same",
        }
    }
}

/// Judge `new` against `base` for a metric with the given bound.
pub fn verdict(base: &[f64], new: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (Some(a), Some(b)) = (Summary::of(base), Summary::of(new)) else {
        return Verdict::Unresolved;
    };
    // Signed change in the "worse" direction, as a share of the base.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median) / a.median.abs();
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let apart = max(new) < min(base) || min(new) > max(base);
    if worse_by > bound {
        Verdict::Worse
    } else if a.spread().max(b.spread()) > bound && !apart {
        Verdict::Unresolved
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The values of one metric of one workload in a `run.json`.
fn values(run: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    run.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn failed_frac(run: &Json, workload: &str) -> Option<f64> {
    let w = run.get("workloads")?.get(workload)?;
    let attempted = w.get("attempted")?.as_f64()?;
    Some(w.get("failed")?.as_f64()? / attempted.max(1.0))
}

fn line(m: &Metric, s: &Summary) -> String {
    format!("{:.6} [{:.6}, {:.6}] n={} {}", s.median, s.q1, s.q3, s.n, m.unit)
}

/// Print every verdict; `Ok(true)` when nothing got worse.
pub fn run(spec: &Spec, base_text: &str, new_text: &str) -> Result<bool, String> {
    let base = Json::parse(base_text).map_err(|e| format!("base: {e}"))?;
    let new = Json::parse(new_text).map_err(|e| format!("new: {e}"))?;
    let mut ok = true;
    for (w, _) in &spec.workloads {
        if base.get("workloads").and_then(|v| v.get(w)).is_none()
            || new.get("workloads").and_then(|v| v.get(w)).is_none()
        {
            println!("{w}: missing from one side, skipped");
            continue;
        }
        println!("{w}");
        for m in &spec.end_to_end {
            let (Some(a), Some(b)) = (values(&base, w, &m.name), values(&new, w, &m.name)) else {
                println!("  {:<16} missing from one side", m.name);
                ok = false;
                continue;
            };
            let bound = m.bound.unwrap_or(0.0);
            let v = verdict(&a, &b, bound, m.lower_is_better);
            let (sa, sb) =
                (Summary::of(&a).expect("non-empty"), Summary::of(&b).expect("non-empty"));
            println!(
                "  {:<16} base {}  new {}  new/base = {:.4} (base {:.6})  bound {:.0}%  {}",
                m.name,
                line(m, &sa),
                line(m, &sb),
                sb.median / sa.median,
                sa.median,
                bound * 100.0,
                v.label()
            );
            ok &= v != Verdict::Worse;
        }
        if let (Some(fa), Some(fb)) = (failed_frac(&base, w), failed_frac(&new, w)) {
            let rose = fb > fa;
            println!(
                "  {:<16} base {fa:.6}  new {fb:.6}  {}",
                "failed_frac",
                if rose { "worse" } else { "same" }
            );
            ok &= !rose;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // 3% slower with a 10% bound and tight runs: same.
        assert_eq!(verdict(&base, &[1.03, 1.03, 1.04, 1.02, 1.03], 0.10, true), Verdict::Same);
        // 20% slower: worse.
        assert_eq!(verdict(&base, &[1.20, 1.21, 1.19, 1.20, 1.22], 0.10, true), Verdict::Worse);
        // 20% faster: better.
        assert_eq!(verdict(&base, &[0.80, 0.81, 0.79, 0.80, 0.82], 0.10, true), Verdict::Better);
        // Every run faster, though by less than the bound: same.
        assert_eq!(verdict(&base, &[0.95, 0.96, 0.94, 0.95, 0.97], 0.10, true), Verdict::Same);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &[0.80, 0.81, 0.79, 0.80, 0.82], 0.10, false), Verdict::Worse);
    }

    #[test]
    fn wide_overlapping_spread_is_unresolved() {
        // Medians agree but the new runs spread ±30% around them, past a
        // 10% bound, and overlap the base runs.
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let noisy = [0.70, 1.30, 1.00, 0.75, 1.25];
        assert_eq!(verdict(&base, &noisy, 0.10, true), Verdict::Unresolved);
        // A spread past the bound with every run on one side is resolved:
        // by the median when it moved past the bound, else the same.
        let noisy_but_all_faster = [0.50, 0.90, 0.70, 0.55, 0.85];
        assert_eq!(verdict(&base, &noisy_but_all_faster, 0.10, true), Verdict::Better);
        let noisy_slightly_faster = [0.85, 0.98, 0.95, 0.86, 0.97];
        assert_eq!(verdict(&base, &noisy_slightly_faster, 0.10, true), Verdict::Same);
    }

    #[test]
    fn compare_flags_worse_and_rising_failures() {
        let spec = Spec::committed();
        let run = |wall: f64, failed: u64| {
            let metrics: Vec<String> = spec
                .end_to_end
                .iter()
                .map(|m| {
                    let v = if m.name == "wall_per_sim_s" { wall } else { 1.0 };
                    format!("\"{}\": {{\"values\": [{v}, {v}, {v}]}}", m.name)
                })
                .collect();
            let workloads: Vec<String> = spec
                .workloads
                .iter()
                .map(|(w, _)| {
                    format!(
                        "\"{w}\": {{\"attempted\": 100, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                        metrics.join(", ")
                    )
                })
                .collect();
            format!("{{\"workloads\": {{{}}}}}", workloads.join(", "))
        };
        assert!(run_ok(&spec, &run(1.0, 0), &run(1.05, 0)));
        assert!(!run_ok(&spec, &run(1.0, 0), &run(1.5, 0)));
        assert!(!run_ok(&spec, &run(1.0, 0), &run(1.0, 1)));
    }

    fn run_ok(spec: &Spec, a: &str, b: &str) -> bool {
        run(spec, a, b).expect("well-formed")
    }
}
