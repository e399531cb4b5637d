//! Post-dispatch safety gate: the EMS-side analogue of the solver-side
//! certificate checker.
//!
//! The paper's attack works because dispatch commands are issued on the
//! optimizer's say-so; a corrupted rating (or a silently-wrong solve) flows
//! straight to the field. [`SafetyGate`] independently re-checks every
//! dispatch before it is trusted: power balance, generator limits, and
//! flow-vs-rating feasibility against a DC power flow recomputed from the
//! dispatch itself through the [`FactorCache`] path — *not* the flows the
//! optimizer reported. A dispatch that fails the gate is never stored as
//! last-known-good by the resilient ladder and is flagged on the EMS
//! pipeline reports.

use crate::dispatch::Dispatch;
use ed_powerflow::{dc, FactorCache, Network, PowerflowError};

/// Allowed |total generation − total demand| in MW.
const BALANCE_MW: f64 = 1e-4;
/// Allowed generator bound violation in MW.
const GEN_BOUND_MW: f64 = 1e-4;
/// Allowed disagreement between the optimizer's reported line flows and
/// the independently recomputed DC flows, in MW.
const FLOW_MISMATCH_MW: f64 = 1e-3;
/// Fractional rating headroom treated as still-safe (`0.001` accepts
/// loadings up to 100.1% — solver-tolerance noise, not an overload).
const RATING_MARGIN: f64 = 1e-3;

/// One violated safety check.
#[derive(Debug, Clone, PartialEq)]
pub enum SafetyViolation {
    /// A dispatch or flow entry is NaN/infinite — nothing else is checkable.
    NonFinite {
        /// What carried the non-finite value.
        what: String,
    },
    /// Total generation does not meet total demand.
    PowerImbalance {
        /// Generation minus demand, MW.
        surplus_mw: f64,
    },
    /// A generator is dispatched outside its limits.
    GeneratorLimit {
        /// Generator index.
        gen: usize,
        /// Dispatched output, MW.
        p_mw: f64,
        /// Violated bound (the nearer of `pmin`/`pmax`), MW.
        bound_mw: f64,
    },
    /// The optimizer's reported flow disagrees with the independently
    /// recomputed DC flow — the dispatch and its claimed flows are not the
    /// same operating point.
    FlowMismatch {
        /// Line index.
        line: usize,
        /// Flow the dispatch carried, MW.
        reported_mw: f64,
        /// Flow recomputed from the dispatch, MW.
        recomputed_mw: f64,
    },
    /// A line's recomputed flow exceeds its rating.
    Overload {
        /// Line index.
        line: usize,
        /// Recomputed |flow|, MW.
        flow_mw: f64,
        /// Rating the check used, MW.
        rating_mw: f64,
    },
    /// The independent power flow itself failed (singular matrix, bad
    /// dimensions) — the dispatch cannot be audited and must not be
    /// trusted.
    Unauditable {
        /// The power-flow error.
        what: String,
    },
}

/// Outcome of one safety-gate check.
#[derive(Debug, Clone, PartialEq)]
pub struct SafetyReport {
    /// Violations found, in check order (empty means the dispatch passed).
    pub violations: Vec<SafetyViolation>,
    /// Worst recomputed line loading as a percentage of the rating used
    /// (NaN when flows could not be recomputed).
    pub max_line_loading_pct: f64,
    /// Lines whose flow/rating were checked.
    pub checked_lines: usize,
}

impl SafetyReport {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when the failure includes a line overload against the checked
    /// ratings — the paper's attack signature.
    pub fn has_overload(&self) -> bool {
        self.violations.iter().any(|v| matches!(v, SafetyViolation::Overload { .. }))
    }
}

/// Independent dispatch auditor for one network topology. Factors the
/// reduced susceptance matrix once at construction; each check is then a
/// back-substitution plus `O(gens + lines)` comparisons.
pub struct SafetyGate<'a> {
    net: &'a Network,
    cache: std::sync::Arc<FactorCache>,
}

impl<'a> SafetyGate<'a> {
    /// Builds the gate around the network's shared factorization: repeat
    /// audits of the same topology (EMS case studies, replica checks) reuse
    /// the pooled factors instead of refactoring per gate. With
    /// `ED_POOL=0` this degrades to a fresh, bit-identical factorization.
    ///
    /// # Errors
    ///
    /// [`PowerflowError`] if the reduced susceptance matrix is singular —
    /// impossible for a builder-validated connected network.
    pub fn new(net: &'a Network) -> Result<SafetyGate<'a>, PowerflowError> {
        Ok(SafetyGate { net, cache: FactorCache::shared(net)? })
    }

    /// Builds the gate around an existing shared factorization of the same
    /// network, skipping the refactorization — the warm-cache path
    /// for long-running services that audit many dispatches per topology.
    /// The caller is responsible for the cache matching the network.
    pub fn with_factors(net: &'a Network, cache: std::sync::Arc<FactorCache>) -> SafetyGate<'a> {
        SafetyGate { net, cache }
    }

    /// Audits one dispatch against demand and the given line ratings
    /// (pass the *true* ratings to measure physical safety, or the
    /// operator-visible ratings to measure what the EMS believes).
    ///
    /// Never panics: a demand vector that is not bus-indexed, a ratings
    /// vector that is not line-indexed, or a non-finite demand entry makes
    /// the dispatch unauditable, and an unauditable dispatch fails closed
    /// with a typed violation. (A request-reachable assert here would let
    /// a malformed request kill the worker that was auditing it.)
    pub fn check(&self, demand_mw: &[f64], ratings_mw: &[f64], dispatch: &Dispatch) -> SafetyReport {
        let unauditable = |what: String| SafetyReport {
            violations: vec![SafetyViolation::Unauditable { what }],
            max_line_loading_pct: f64::NAN,
            checked_lines: 0,
        };
        if demand_mw.len() != self.net.num_buses() {
            return unauditable(format!(
                "demand has {} entries for {} buses",
                demand_mw.len(),
                self.net.num_buses()
            ));
        }
        if ratings_mw.len() != self.net.num_lines() {
            return unauditable(format!(
                "ratings have {} entries for {} lines",
                ratings_mw.len(),
                self.net.num_lines()
            ));
        }
        // NaN poisons every downstream comparison into silence (balance,
        // mismatch, and overload thresholds are all false for NaN), so a
        // non-finite demand must be rejected here, not waved through.
        if let Some((i, &d)) = demand_mw.iter().enumerate().find(|(_, d)| !d.is_finite()) {
            return unauditable(format!("demand[{i}] = {d} is not finite"));
        }
        let mut violations = Vec::new();

        // --- Finiteness: a NaN dispatch fails closed, immediately. ---
        if let Some((g, &p)) = dispatch.p_mw.iter().enumerate().find(|(_, p)| !p.is_finite()) {
            violations.push(SafetyViolation::NonFinite { what: format!("p_mw[{g}] = {p}") });
            return SafetyReport {
                violations,
                max_line_loading_pct: f64::NAN,
                checked_lines: 0,
            };
        }
        if dispatch.p_mw.len() != self.net.num_gens() {
            violations.push(SafetyViolation::NonFinite {
                what: format!(
                    "dispatch has {} generator entries for {} generators",
                    dispatch.p_mw.len(),
                    self.net.num_gens()
                ),
            });
            return SafetyReport {
                violations,
                max_line_loading_pct: f64::NAN,
                checked_lines: 0,
            };
        }

        // --- Power balance (Eq. 2 of the paper). ---
        let generation: f64 = dispatch.p_mw.iter().sum();
        let demand_total: f64 = demand_mw.iter().sum();
        let surplus = generation - demand_total;
        if surplus.abs() > BALANCE_MW {
            violations.push(SafetyViolation::PowerImbalance { surplus_mw: surplus });
        }

        // --- Generator limits (Eq. 1). ---
        for (g, (gen, &p)) in self.net.gens().iter().zip(&dispatch.p_mw).enumerate() {
            if p < gen.pmin_mw - GEN_BOUND_MW {
                violations.push(SafetyViolation::GeneratorLimit {
                    gen: g,
                    p_mw: p,
                    bound_mw: gen.pmin_mw,
                });
            } else if p > gen.pmax_mw + GEN_BOUND_MW {
                violations.push(SafetyViolation::GeneratorLimit {
                    gen: g,
                    p_mw: p,
                    bound_mw: gen.pmax_mw,
                });
            }
        }

        // --- Independent DC power flow from the dispatch itself. ---
        let mut injections = vec![0.0; self.net.num_buses()];
        for (gen, &p) in self.net.gens().iter().zip(&dispatch.p_mw) {
            injections[gen.bus.0] += p;
        }
        for (inj, &d) in injections.iter_mut().zip(demand_mw) {
            *inj -= d;
        }
        let flow = match dc::solve_absorbing_slack(self.net, &self.cache, &injections) {
            Ok((flow, _surplus)) => flow,
            Err(e) => {
                violations.push(SafetyViolation::Unauditable { what: e.to_string() });
                return SafetyReport {
                    violations,
                    max_line_loading_pct: f64::NAN,
                    checked_lines: 0,
                };
            }
        };

        // --- Reported flows must be the flows this dispatch implies. ---
        if dispatch.flows_mw.len() == flow.flow_mw.len() {
            for (l, (&reported, &recomputed)) in
                dispatch.flows_mw.iter().zip(&flow.flow_mw).enumerate()
            {
                if !reported.is_finite() || (reported - recomputed).abs() > FLOW_MISMATCH_MW {
                    violations.push(SafetyViolation::FlowMismatch {
                        line: l,
                        reported_mw: reported,
                        recomputed_mw: recomputed,
                    });
                }
            }
        }

        // --- Recomputed flow vs rating (the attack's physical target). ---
        let mut max_loading = f64::NEG_INFINITY;
        for (l, (&f, &u)) in flow.flow_mw.iter().zip(ratings_mw).enumerate() {
            if u.is_finite() && u > 0.0 {
                max_loading = max_loading.max(100.0 * f.abs() / u);
                if f.abs() > u * (1.0 + RATING_MARGIN) {
                    violations.push(SafetyViolation::Overload {
                        line: l,
                        flow_mw: f.abs(),
                        rating_mw: u,
                    });
                }
            } else {
                // A non-finite or non-positive rating cannot be checked
                // against — fail closed rather than waving the line through.
                violations.push(SafetyViolation::NonFinite {
                    what: format!("rating[{l}] = {u}"),
                });
            }
        }

        SafetyReport {
            violations,
            max_line_loading_pct: max_loading,
            checked_lines: flow.flow_mw.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::DcOpf;

    fn net() -> Network {
        ed_cases::three_bus()
    }

    fn true_ratings(net: &Network) -> Vec<f64> {
        net.lines().iter().map(|l| l.rating_mva).collect()
    }

    #[test]
    fn clean_dispatch_passes() {
        let net = net();
        let demand = net.demand_vector_mw();
        let ratings = true_ratings(&net);
        let d = DcOpf::new(&net).solve().unwrap();
        let gate = SafetyGate::new(&net).unwrap();
        let report = gate.check(&demand, &ratings, &d);
        assert!(report.passed(), "{report:?}");
        assert!(report.max_line_loading_pct <= 100.1);
        assert_eq!(report.checked_lines, net.num_lines());
    }

    #[test]
    fn attack_dispatch_overloads_against_true_ratings() {
        // The paper's Table I row (130, 120): dispatch under the
        // manipulated ratings (100, 200) pushes 200 MW over line {2,3},
        // whose true rating is 120 — the gate must catch it when checked
        // against the truth.
        let net = net();
        let demand = net.demand_vector_mw();
        let mut ratings = true_ratings(&net);
        let dlr = ed_cases::three_bus::dlr_lines();
        ratings[dlr[0].0] = 100.0;
        ratings[dlr[1].0] = 200.0;
        let d = DcOpf::new(&net).ratings(&ratings).solve().unwrap();
        let gate = SafetyGate::new(&net).unwrap();
        // Against the manipulated ratings the EMS believes: clean.
        assert!(gate.check(&demand, &ratings, &d).passed());
        // Against the true ratings: overload on the target line.
        let mut truth = true_ratings(&net);
        truth[dlr[0].0] = 130.0;
        truth[dlr[1].0] = 120.0;
        let report = gate.check(&demand, &truth, &d);
        assert!(report.has_overload(), "{report:?}");
        assert!(report.max_line_loading_pct > 150.0);
    }

    #[test]
    fn tampered_generator_output_is_flagged() {
        let net = net();
        let demand = net.demand_vector_mw();
        let ratings = true_ratings(&net);
        // Tamper a non-slack generator: the extra 50 MW re-routes through
        // the network (flows are stale) *and* breaks the balance. (Tampering
        // the slack generator would be absorbed right back by the audit's
        // slack bus and change no flow.)
        let mut d = DcOpf::new(&net).solve().unwrap();
        d.p_mw[1] += 50.0;
        let gate = SafetyGate::new(&net).unwrap();
        let report = gate.check(&demand, &ratings, &d);
        assert!(!report.passed());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SafetyViolation::PowerImbalance { .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, SafetyViolation::FlowMismatch { .. })));
    }

    #[test]
    fn nan_dispatch_fails_closed() {
        let net = net();
        let demand = net.demand_vector_mw();
        let ratings = true_ratings(&net);
        let mut d = DcOpf::new(&net).solve().unwrap();
        d.p_mw[0] = f64::NAN;
        let gate = SafetyGate::new(&net).unwrap();
        let report = gate.check(&demand, &ratings, &d);
        assert!(!report.passed());
        assert!(matches!(report.violations[0], SafetyViolation::NonFinite { .. }));
    }

    #[test]
    fn wrong_shape_inputs_fail_closed_without_panicking() {
        let net = net();
        let d = DcOpf::new(&net).solve().unwrap();
        let gate = SafetyGate::new(&net).unwrap();
        // Demand not bus-indexed.
        let r = gate.check(&[300.0], &true_ratings(&net), &d);
        assert!(!r.passed());
        assert!(matches!(r.violations[0], SafetyViolation::Unauditable { .. }), "{r:?}");
        // Ratings not line-indexed.
        let r = gate.check(&net.demand_vector_mw(), &[160.0], &d);
        assert!(!r.passed());
        assert!(matches!(r.violations[0], SafetyViolation::Unauditable { .. }), "{r:?}");
    }

    #[test]
    fn nan_demand_fails_closed() {
        let net = net();
        let d = DcOpf::new(&net).solve().unwrap();
        let gate = SafetyGate::new(&net).unwrap();
        let mut demand = net.demand_vector_mw();
        demand[2] = f64::NAN;
        let r = gate.check(&demand, &true_ratings(&net), &d);
        assert!(!r.passed());
        assert!(matches!(r.violations[0], SafetyViolation::Unauditable { .. }), "{r:?}");
    }

    #[test]
    fn nan_rating_fails_closed() {
        let net = net();
        let demand = net.demand_vector_mw();
        let mut ratings = true_ratings(&net);
        ratings[0] = f64::NAN;
        let d = DcOpf::new(&net).solve().unwrap();
        let gate = SafetyGate::new(&net).unwrap();
        assert!(!gate.check(&demand, &ratings, &d).passed());
    }
}
