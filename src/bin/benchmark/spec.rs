//! `BENCHMARK.json`, the contract every later performance claim is
//! measured against: the command, the workloads, and each metric with its
//! unit, direction and (for end-to-end metrics) regression bound. The
//! binary embeds the file at build time so the names it prints and the
//! bounds `compare` applies are the committed ones.

use vnet::sim::telemetry::json::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn strings(v: &Json, key: &str) -> Result<Vec<String>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or(format!("{key}: expected a list"))?
        .iter()
        .map(|s| s.as_str().map(str::to_string).ok_or(format!("{key}: expected strings")))
        .collect()
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or(format!("missing key {key:?}"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    field(v, key)?.as_str().map(str::to_string).ok_or(format!("{key}: expected a string"))
}

fn metrics(v: &Json, key: &str, bounded: bool) -> Result<Vec<Metric>, String> {
    let list = field(v, key)?.as_arr().ok_or(format!("{key}: expected a list"))?;
    list.iter()
        .map(|m| {
            let keys = m.as_obj().ok_or(format!("{key}: expected objects"))?.len();
            let better = text(m, "better")?;
            let bound = if bounded {
                Some(field(m, "bound")?.as_f64().ok_or("bound: expected a number")?)
            } else {
                None
            };
            if keys != 3 + bounded as usize {
                return Err(format!("{key}: unexpected keys in {m:?}"));
            }
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: match better.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better: {other:?} is neither lower nor higher")),
                },
                bound,
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(src: &str) -> Result<Spec, String> {
        let v = Json::parse(src)?;
        let keys = v.as_obj().ok_or("BENCHMARK.json: expected an object")?.len();
        if keys != 6 {
            return Err(format!("BENCHMARK.json: expected exactly 6 keys, found {keys}"));
        }
        let workloads = field(&v, "workloads")?
            .as_arr()
            .ok_or("workloads: expected a list")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<_, String>>()?;
        let run_seconds = field(&v, "run_seconds")?.as_f64().ok_or("run_seconds: not a number")?;
        Ok(Spec {
            command: strings(&v, "command")?,
            paths: strings(&v, "paths")?,
            run_seconds: run_seconds as u64,
            workloads,
            end_to_end: metrics(&v, "end_to_end", true)?,
            per_layer: metrics(&v, "per_layer", false)?,
        })
    }

    /// The committed spec; a malformed file is a build defect, caught by
    /// this module's tests.
    pub fn committed() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    #[cfg(test)]
    pub fn to_json(&self) -> String {
        use vnet::sim::telemetry::json;
        let list = |v: &[String]| v.iter().map(|s| json::str(s)).collect::<Vec<_>>().join(", ");
        let metric = |m: &Metric| {
            let bound =
                m.bound.map(|b| format!(", \"bound\": {}", json::num(b))).unwrap_or_default();
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"{bound}}}",
                json::str(&m.name),
                json::str(&m.unit),
                if m.lower_is_better { "lower" } else { "higher" }
            )
        };
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(n, why)| {
                format!("    {{\"name\": {}, \"why\": {}}}", json::str(n), json::str(why))
            })
            .collect();
        format!(
            "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            list(&self.command),
            list(&self.paths),
            self.run_seconds,
            workloads.join(",\n"),
            self.end_to_end.iter().map(metric).collect::<Vec<_>>().join(",\n"),
            self.per_layer.iter().map(metric).collect::<Vec<_>>().join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    #[test]
    fn benchmark_json_round_trips() {
        let spec = Spec::committed();
        let again = Spec::parse(&spec.to_json()).expect("re-parse");
        assert_eq!(spec, again);
        assert_eq!(spec.to_json(), BENCHMARK_JSON, "BENCHMARK.json is in canonical form");
    }

    #[test]
    fn benchmark_json_names_what_the_binary_measures() {
        let spec = Spec::committed();
        let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, NAMES);
        let e2e: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(e2e, crate::END_TO_END);
        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let layer: Vec<&str> = spec.per_layer.iter().map(|m| m.name.as_str()).collect();
        let mut traced: Vec<&str> = crate::per_layer_names();
        traced.sort_unstable();
        let mut listed = layer.clone();
        listed.sort_unstable();
        assert_eq!(listed, traced, "per_layer lists exactly what the trace measures");
        assert!(spec.command.iter().all(|a| !a.starts_with('/') && !a.contains("..")));
        assert_eq!(spec.paths, ["src/bin/benchmark"]);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        assert!(Spec::parse("[]").is_err());
        let bad_better =
            BENCHMARK_JSON.replacen("\"better\": \"lower\"", "\"better\": \"down\"", 1);
        assert!(Spec::parse(&bad_better).is_err());
    }
}
