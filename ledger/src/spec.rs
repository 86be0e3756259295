//! The benchmark's definition, read from the repository's `BENCHMARK.json`
//! at compile time so metric names, units and bounds live in one place, plus
//! the pinned default-seed output digests.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const DIGESTS_JSON: &str = include_str!("../digests.json");

/// The session seed whose full-size outputs are pinned in `digests.json`.
pub const PINNED_SEED: u64 = 0;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"` for end-to-end metrics, empty for layers.
    pub better: String,
    /// Share of the baseline median a metric may worsen by (end-to-end only).
    pub bound: f64,
}

fn parse(text: &str, what: &str) -> Value {
    serde_json::from_str(text).unwrap_or_else(|e| panic!("{what} is not valid JSON: {e}"))
}

fn str_field(v: &Value, key: &str) -> String {
    match v.field(key) {
        Value::Str(s) => s.clone(),
        _ => String::new(),
    }
}

fn metrics(root: &Value, key: &str) -> Vec<MetricDef> {
    let Value::Array(items) = root.field(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| MetricDef {
            name: str_field(m, "name"),
            unit: str_field(m, "unit"),
            better: str_field(m, "better"),
            bound: match m.field("bound") {
                Value::Float(f) => *f,
                Value::Int(i) => *i as f64,
                _ => 0.0,
            },
        })
        .collect()
}

/// The end-to-end metrics, in declaration order.
pub fn end_to_end() -> Vec<MetricDef> {
    metrics(&parse(BENCHMARK_JSON, "BENCHMARK.json"), "end_to_end")
}

/// The per-layer metrics, in declaration order.
pub fn per_layer() -> Vec<MetricDef> {
    metrics(&parse(BENCHMARK_JSON, "BENCHMARK.json"), "per_layer")
}

/// The workload names, in declaration order.
#[cfg(test)]
fn workload_names() -> Vec<String> {
    let root = parse(BENCHMARK_JSON, "BENCHMARK.json");
    let Value::Array(items) = root.field("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    items.iter().map(|w| str_field(w, "name")).collect()
}

/// The pinned full-size output digest of `workload` at [`PINNED_SEED`].
pub fn pinned_digest(workload: &str) -> Option<u64> {
    let root = parse(DIGESTS_JSON, "digests.json");
    match root.field(workload) {
        Value::Str(hex) => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_definition_parses() {
        let e2e = end_to_end();
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(!per_layer().is_empty());
        assert_eq!(
            workload_names(),
            ["quick_study", "population_fleet", "serve_mix", "spice_mc"]
        );
    }
}
