//! The bilevel DLR-manipulation attack (Sections II–III of the paper).
//!
//! The attacker replaces the dynamic line ratings `u^d` of the DLR-equipped
//! lines `E_D` with values `u^a ∈ [u^min, u^max]` (stealthiness, Eq. 12).
//! The operator then solves economic dispatch against `u^a`; the attacker's
//! objective (Eq. 14a) is the resulting maximum percentage violation of the
//! *true* ratings:
//!
//! ```text
//! U_cap(f; u^d) = max_{l ∈ E_D} 100 · (|f_l| / u^d_l − 1)^+
//! ```
//!
//! Following Section III, the bilevel program is split into `2·|E_D|`
//! single-line/direction subproblems; each subproblem's inner dispatch is
//! replaced by its KKT conditions ([`kkt`]), and complementary slackness is
//! handled either by the paper's big-M binaries (MILP, Eq. 16–17) or by
//! direct complementarity branching (MPEC). [`optimal_attack`] is
//! Algorithm 1.

mod algorithm1;
mod bilevel;
mod evaluate;
mod heuristic;
pub mod kkt;
mod outage;

pub use algorithm1::{
    optimal_attack, optimal_attack_with, AttackResult, SeedlessCause, SubproblemFault,
    SubproblemOutcome, SweepReport,
};
pub use bilevel::{BilevelOptions, BilevelSolver};
pub use evaluate::{evaluate_attack, run_timeline, AttackOutcome, TimelinePoint};
pub use outage::{attack_upper_bound, optimal_attack_under_outage, outage_network};
pub use heuristic::{corner_heuristic, greedy_heuristic, HeuristicResult};

use crate::CoreError;
use ed_powerflow::{LineId, Network};

/// Configuration of one attack instance.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// The DLR-equipped lines `E_D` the attacker can manipulate.
    pub dlr_lines: Vec<LineId>,
    /// Lower permissible rating per DLR line (`u^min`).
    pub u_min: Vec<f64>,
    /// Upper permissible rating per DLR line (`u^max`).
    pub u_max: Vec<f64>,
    /// True dynamic ratings per DLR line (`u^d`).
    pub u_d: Vec<f64>,
    /// Demand override (per bus, MW); `None` uses the network's nominal.
    pub demand_mw: Option<Vec<f64>>,
    /// Bilevel solver selection and budgets.
    pub options: BilevelOptions,
}

impl AttackConfig {
    /// Starts a config for the given DLR line set; ratings and bounds are
    /// initialized to zero and must be set before use.
    pub fn new(dlr_lines: Vec<LineId>) -> AttackConfig {
        let n = dlr_lines.len();
        AttackConfig {
            dlr_lines,
            u_min: vec![0.0; n],
            u_max: vec![0.0; n],
            u_d: vec![0.0; n],
            demand_mw: None,
            options: BilevelOptions::default(),
        }
    }

    /// Sets uniform permissible bounds `[lo, hi]` for all DLR lines
    /// (the paper uses `[100, 200]` MW).
    pub fn bounds(mut self, lo: f64, hi: f64) -> AttackConfig {
        self.u_min = vec![lo; self.dlr_lines.len()];
        self.u_max = vec![hi; self.dlr_lines.len()];
        self
    }

    /// Sets per-line permissible bounds.
    ///
    /// # Panics
    ///
    /// Panics if the vectors' lengths differ from the DLR line count.
    pub fn bounds_per_line(mut self, lo: Vec<f64>, hi: Vec<f64>) -> AttackConfig {
        assert_eq!(lo.len(), self.dlr_lines.len());
        assert_eq!(hi.len(), self.dlr_lines.len());
        self.u_min = lo;
        self.u_max = hi;
        self
    }

    /// Sets the true dynamic ratings `u^d` (what violations are measured
    /// against).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the DLR line count.
    pub fn true_ratings(mut self, u_d: Vec<f64>) -> AttackConfig {
        assert_eq!(u_d.len(), self.dlr_lines.len());
        self.u_d = u_d;
        self
    }

    /// Overrides the demand vector the operator dispatches against.
    pub fn demand(mut self, demand_mw: Vec<f64>) -> AttackConfig {
        self.demand_mw = Some(demand_mw);
        self
    }

    /// Overrides solver options.
    pub fn solver_options(mut self, options: BilevelOptions) -> AttackConfig {
        self.options = options;
        self
    }

    /// Effective demand for a network.
    pub(crate) fn effective_demand(&self, net: &Network) -> Vec<f64> {
        self.demand_mw.clone().unwrap_or_else(|| net.demand_vector_mw())
    }

    /// The ratings vector the operator would see with manipulations `u^a`
    /// in place (static ratings elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `ua.len()` differs from the DLR line count.
    pub fn ratings_with(&self, net: &Network, ua: &[f64]) -> Vec<f64> {
        assert_eq!(ua.len(), self.dlr_lines.len());
        let mut ratings = net.static_ratings_mva();
        for (l, &v) in self.dlr_lines.iter().zip(ua) {
            ratings[l.0] = v;
        }
        ratings
    }

    /// The ratings vector with the *true* DLR values in place.
    pub fn true_ratings_vector(&self, net: &Network) -> Vec<f64> {
        let mut ratings = net.static_ratings_mva();
        for (l, &v) in self.dlr_lines.iter().zip(&self.u_d) {
            ratings[l.0] = v;
        }
        ratings
    }

    pub(crate) fn validate(&self, net: &Network) -> Result<(), CoreError> {
        if self.dlr_lines.is_empty() {
            return Err(CoreError::InvalidInput { what: "no DLR lines to attack".into() });
        }
        let mut seen = vec![false; net.num_lines()];
        for l in &self.dlr_lines {
            if l.0 >= net.num_lines() {
                return Err(CoreError::InvalidInput {
                    what: format!("DLR line {l:?} out of range"),
                });
            }
            if std::mem::replace(&mut seen[l.0], true) {
                return Err(CoreError::InvalidInput {
                    what: format!("DLR line {l:?} listed twice"),
                });
            }
        }
        let n = self.dlr_lines.len();
        if self.u_min.len() != n || self.u_max.len() != n || self.u_d.len() != n {
            return Err(CoreError::InvalidInput {
                what: format!(
                    "bounds/ratings not DLR-line-indexed: {} lines vs {}/{}/{} (u_min/u_max/u_d)",
                    n,
                    self.u_min.len(),
                    self.u_max.len(),
                    self.u_d.len()
                ),
            });
        }
        for ((&lo, &hi), &ud) in self.u_min.iter().zip(&self.u_max).zip(&self.u_d) {
            // The comparisons below are all false for NaN, so finiteness
            // must be checked explicitly — a NaN bound would otherwise
            // sail through and poison the subproblem LPs.
            if !lo.is_finite() || !hi.is_finite() || lo > hi || lo <= 0.0 {
                return Err(CoreError::InvalidInput {
                    what: format!("bad permissible bounds [{lo}, {hi}]"),
                });
            }
            if !ud.is_finite() || ud <= 0.0 {
                return Err(CoreError::InvalidInput {
                    what: format!("true rating {ud} must be positive and finite"),
                });
            }
        }
        if let Some(d) = &self.demand_mw {
            if d.len() != net.num_buses() {
                return Err(CoreError::InvalidInput {
                    what: format!("demand vector has {} entries for {} buses", d.len(), net.num_buses()),
                });
            }
            if let Some(bad) = d.iter().find(|v| !v.is_finite()) {
                return Err(CoreError::InvalidInput {
                    what: format!("bus demand {bad} must be finite"),
                });
            }
        }
        Ok(())
    }
}
