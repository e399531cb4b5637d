//! What one workload run reports, and the result line it prints.

use crate::spec::spec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tallies, answer-check failures and metric values of one run.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations that failed (uncertified or floored subproblems,
    /// quarantined cells, non-200 responses, transport errors).
    pub failed: u64,
    /// Answer checks that did not hold. Any entry makes the run incorrect.
    pub errors: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records an answer check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records the errors of a check that returns them.
    pub fn check_all(&mut self, errors: Vec<String>) {
        self.errors.extend(errors);
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric the mode prints, in contract order. A per-layer
    /// metric of a layer this workload does not exercise reads 0; a missing
    /// or non-finite end-to-end value is an error, so the run is incorrect.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut metrics = String::new();
        for (i, m) in spec().printed(trace).iter().enumerate() {
            let value = match self.metrics.get(&m.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.errors
                        .push(format!("metric {} is not finite ({v})", m.name));
                    0.0
                }
                None if trace => 0.0,
                None => {
                    self.errors
                        .push(format!("metric {} was not measured", m.name));
                    0.0
                }
            };
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        if self.attempted == 0 {
            self.errors.push("no operation ran".to_string());
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed,
        )
    }
}
