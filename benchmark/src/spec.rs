//! The benchmark's contract — workload names, metric names, units,
//! better-directions and regression bounds — read from the repository's
//! `BENCHMARK.json`, compiled in so the binary and the file cannot
//! disagree.

use ed_serve::json::{self, Json};
use std::sync::OnceLock;

const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed worsening of the median, as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(root: &Json, key: &str) -> Vec<MetricSpec> {
    let Some(Json::Arr(items)) = root.get(key) else {
        panic!("BENCHMARK.json: '{key}' must be an array");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without '{k}'"))
                    .to_string()
            };
            MetricSpec {
                name: field("name"),
                unit: field("unit"),
                higher_is_better: field("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// The contract, parsed once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let root = json::parse(SPEC_JSON).expect("BENCHMARK.json is valid JSON");
        let Some(Json::Arr(workloads)) = root.get("workloads") else {
            panic!("BENCHMARK.json: 'workloads' must be an array");
        };
        Spec {
            workloads: workloads
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("BENCHMARK.json: workload without a name")
                        .to_string()
                })
                .collect(),
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: 'run_seconds' must be a number"),
            end_to_end: metrics(&root, "end_to_end"),
            per_layer: metrics(&root, "per_layer"),
        }
    })
}

impl Spec {
    /// The metrics a run prints: every end-to-end metric untraced, every
    /// per-layer metric traced.
    pub fn printed(&self, trace: bool) -> &[MetricSpec] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
