//! Resilient dispatch: a fallback ladder over the DC-OPF solvers.
//!
//! Economic dispatch runs on a real-time clock — a solver that stalls,
//! cycles, or hits a numerical singularity must not take the EMS dispatch
//! loop down with it. [`ResilientDispatcher`] wraps [`DcOpf`] in a ladder
//! of progressively cheaper rungs:
//!
//! 1. **Active-set QP** — the exact solver for strictly convex costs, by
//!    one of two methods. On the PTDF form `H` is positive definite and the
//!    Goldfarb–Idnani dual method answers from the unconstrained minimum,
//!    with no phase-1 LP. On the angle form (θ carries no cost), and
//!    whenever the dual method hands over — a budget trip, a dependent
//!    row, its iteration cap or an infeasibility verdict — the primal
//!    method runs under the same budget. Its phase-1 start is unbudgeted
//!    and its iterates stay primal feasible, so a budget trip still yields
//!    a *feasible* incumbent, which is accepted as a degraded dispatch
//!    rather than discarded.
//! 2. **LP approximation** — generation costs linearized at the midpoint
//!    of each generator's range (marginal cost `b + 2a·(pmin+pmax)/2`).
//!    A network with any linear cost starts here, and the LP is then
//!    exact.
//! 3. **Last-known-good** — the most recent successfully solved dispatch,
//!    re-issued unchanged. Physically stale but operationally safe: real
//!    EMSs hold the previous base point when the optimizer misses its
//!    market-interval deadline.
//!
//! Rungs 1–2 are one loop over `(rung, solver, linearize)`. Each builds
//! the dispatch model in the `Auto` formulation and hands it its own
//! [`Solver`], so the escalation policy lives here and the model is
//! written once. The LP rung is skipped once the deadline has passed.
//!
//! Every input is sanitized before *any* solver sees it (non-finite or
//! non-positive ratings, non-finite demand), so a NaN injected into the
//! DLR pipeline degrades to last-known-good instead of poisoning a KKT
//! factorization. The ladder records which rung produced the result and
//! why each earlier rung failed, and each dispatch it returns bumps the
//! ed-obs counter `dispatch.rung.<rung>`.

use crate::dispatch::model::{BudgetedSolve, DispatchModel};
use crate::dispatch::{DcOpf, Dispatch, Formulation, SafetyGate, SafetyReport};
use crate::CoreError;
use ed_optim::budget::{BudgetTripped, SolveBudget, SolveOutcome};
use ed_optim::model::{ActiveSetSolver, SimplexSolver, Solver};
use ed_powerflow::Network;

/// Which rung of the fallback ladder produced a dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchRung {
    /// Exact active-set QP (possibly a feasible budget-partial incumbent).
    ActiveSetQp,
    /// LP with linearized costs (exact when all costs are linear).
    LpApprox,
    /// Re-issued last successfully solved dispatch.
    LastKnownGood,
}

impl DispatchRung {
    /// The ed-obs counter of dispatches the ladder returned on this rung.
    fn counter(self) -> &'static str {
        match self {
            DispatchRung::ActiveSetQp => "dispatch.rung.active_set_qp",
            DispatchRung::LpApprox => "dispatch.rung.lp_approx",
            DispatchRung::LastKnownGood => "dispatch.rung.last_known_good",
        }
    }
}

impl std::fmt::Display for DispatchRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchRung::ActiveSetQp => write!(f, "active-set QP"),
            DispatchRung::LpApprox => write!(f, "LP approximation"),
            DispatchRung::LastKnownGood => write!(f, "last-known-good"),
        }
    }
}

/// Why a rung failed (or was degraded) before the ladder moved on.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationReason {
    /// The rung's solve budget tripped without a usable incumbent.
    Budget(BudgetTripped),
    /// The rung's budget tripped but a feasible incumbent was kept — the
    /// result is usable, just not proven optimal (and has no LMPs).
    PartialIncumbent(BudgetTripped),
    /// The rung's solver failed (iteration limit, numerical breakdown).
    Solver(String),
    /// The inputs were rejected by sanitization before any solver ran.
    BadInput(String),
    /// The rung was skipped because the shared deadline had already passed.
    DeadlineExhausted,
    /// The rung's dispatch failed the independent safety-gate audit
    /// (imbalance, limit violation, or flows inconsistent with the claimed
    /// operating point). The dispatch is still returned — the field needs
    /// *a* set-point — but it is never stored as last-known-good.
    SafetyGate(SafetyReport),
}

/// One ladder step that did not produce a clean result.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// The rung that failed or was degraded.
    pub rung: DispatchRung,
    /// What went wrong.
    pub reason: DegradationReason,
}

/// A dispatch produced by the resilient ladder, annotated with provenance.
#[derive(Debug, Clone)]
pub struct ResilientDispatch {
    /// The dispatch itself. On degraded rungs (partial incumbents and
    /// last-known-good) `lmp` entries are `NaN` — marginal prices need
    /// converged duals.
    pub dispatch: Dispatch,
    /// The rung that produced it.
    pub rung: DispatchRung,
    /// Why each earlier rung failed; empty for a clean first-rung solve.
    pub degradations: Vec<Degradation>,
    /// Independent safety-gate audit of the returned dispatch against this
    /// interval's demand and operator-visible ratings. `None` only when the
    /// inputs failed sanitization (nothing trustworthy to audit against).
    pub safety: Option<SafetyReport>,
}

impl ResilientDispatch {
    /// `true` when the dispatch came from the first applicable rung with no
    /// recorded degradation.
    pub fn is_clean(&self) -> bool {
        self.degradations.is_empty()
    }
}

/// Stateful resilient dispatcher: runs the ladder and remembers the last
/// successfully solved dispatch for the final rung.
#[derive(Debug, Clone, Default)]
pub struct ResilientDispatcher {
    last_known_good: Option<Dispatch>,
}

impl ResilientDispatcher {
    /// A dispatcher with no last-known-good yet.
    pub fn new() -> ResilientDispatcher {
        ResilientDispatcher::default()
    }

    /// Seeds the last-known-good rung (e.g. from the previous market
    /// interval before faults start arriving).
    pub fn prime(&mut self, dispatch: Dispatch) {
        self.last_known_good = Some(dispatch);
    }

    /// The stored last-known-good dispatch, if any.
    pub fn last_known_good(&self) -> Option<&Dispatch> {
        self.last_known_good.as_ref()
    }

    /// Runs the fallback ladder for one dispatch interval.
    ///
    /// # Errors
    ///
    /// - [`CoreError::DispatchInfeasible`] when the demand genuinely cannot
    ///   be served — infeasibility is an answer, not a fault, and is never
    ///   masked by a stale dispatch.
    /// - [`CoreError::InvalidInput`] when sanitization rejects the inputs
    ///   *and* no last-known-good dispatch exists to fall back on.
    /// - [`CoreError::BudgetExhausted`] when the budget ran out before any
    ///   rung answered and there is no last-known-good.
    /// - Other [`CoreError`]s only when every rung failed and there is no
    ///   last-known-good.
    pub fn dispatch(
        &mut self,
        net: &Network,
        demand_mw: &[f64],
        ratings_mw: &[f64],
        budget: &SolveBudget,
    ) -> Result<ResilientDispatch, CoreError> {
        self.dispatch_with_factors(net, demand_mw, ratings_mw, budget, None)
    }

    /// [`dispatch`](ResilientDispatcher::dispatch) with a pre-built shared
    /// factorization for the safety-gate audit, skipping the per-interval
    /// refactorization — the warm-cache path for services that
    /// dispatch the same topology across many requests.
    ///
    /// # Errors
    ///
    /// Same as [`dispatch`](ResilientDispatcher::dispatch).
    pub fn dispatch_with_factors(
        &mut self,
        net: &Network,
        demand_mw: &[f64],
        ratings_mw: &[f64],
        budget: &SolveBudget,
        factors: Option<std::sync::Arc<ed_powerflow::FactorCache>>,
    ) -> Result<ResilientDispatch, CoreError> {
        let out = self.run_ladder(net, demand_mw, ratings_mw, budget, factors);
        if let Ok(r) = &out {
            ed_obs::counter(r.rung.counter(), 1);
        }
        out
    }

    fn run_ladder(
        &mut self,
        net: &Network,
        demand_mw: &[f64],
        ratings_mw: &[f64],
        budget: &SolveBudget,
        factors: Option<std::sync::Arc<ed_powerflow::FactorCache>>,
    ) -> Result<ResilientDispatch, CoreError> {
        // Rungs 1-2 as (rung, solver, linearize). Linear costs start at the
        // LP, which is then exact.
        let rungs: [(DispatchRung, &dyn Solver, bool); 2] = [
            (DispatchRung::ActiveSetQp, &ActiveSetSolver::default(), false),
            (DispatchRung::LpApprox, &SimplexSolver::default(), true),
        ];
        let quadratic = net.gens().iter().all(|g| g.cost.is_strictly_convex());
        let rungs = if quadratic { &rungs[..] } else { &rungs[1..] };

        let problem = DcOpf::new(net).demand(demand_mw).ratings(ratings_mw);
        let mut degradations = Vec::new();

        // Input sanitization runs before any solver touches the data. When
        // it fails there is nothing trustworthy to audit against, so the
        // safety gate is skipped for this interval.
        if let Err(e) = problem.validate() {
            degradations.push(Degradation {
                rung: rungs[0].0,
                reason: DegradationReason::BadInput(e.to_string()),
            });
            return self.fall_to_last_known_good(degradations, e, None);
        }

        // Every dispatch this call returns is audited by the same gate (one
        // susceptance factorization shared across all rungs).
        let audit = Audit {
            gate: match factors {
                Some(f) => Some(SafetyGate::with_factors(net, f)),
                None => SafetyGate::new(net).ok(),
            },
            demand: demand_mw,
            ratings: ratings_mw,
        };

        let mut last_err = None;
        for &(rung, solver, linearize) in rungs {
            // The active set always runs: its phase-1 start is unbudgeted,
            // so even an expired deadline leaves a feasible incumbent.
            if rung != DispatchRung::ActiveSetQp && budget.wall_tripped().is_some() {
                degradations
                    .push(Degradation { rung, reason: DegradationReason::DeadlineExhausted });
                last_err = Some(CoreError::BudgetExhausted(BudgetTripped::WallClock));
                continue;
            }
            let solved =
                DispatchModel::build(net, demand_mw, ratings_mw, Formulation::Auto, linearize)
                    .and_then(|model| model.solve(solver, budget));
            match self.classify(&problem, solved) {
                RungOutcome::Clean(d) => return self.accept(d, rung, degradations, &audit),
                RungOutcome::Degraded(d, tripped) => {
                    degradations.push(Degradation {
                        rung,
                        reason: DegradationReason::PartialIncumbent(tripped),
                    });
                    // A feasible incumbent is already in hand; do not spend
                    // the (likely exhausted) budget on further rungs.
                    return Ok(audit.flag_only(d, rung, degradations));
                }
                RungOutcome::FailedPartial(tripped) => {
                    degradations
                        .push(Degradation { rung, reason: DegradationReason::Budget(tripped) });
                    last_err = Some(CoreError::BudgetExhausted(tripped));
                }
                RungOutcome::Infeasible => return Err(CoreError::DispatchInfeasible),
                RungOutcome::Failed(reason, e) => {
                    degradations.push(Degradation { rung, reason });
                    last_err = Some(e);
                }
            }
        }

        // Rung 3: last-known-good.
        let last_err = last_err.expect("a rung that does not answer records an error");
        self.fall_to_last_known_good(degradations, last_err, Some(&audit))
    }

    fn accept(
        &mut self,
        dispatch: Dispatch,
        rung: DispatchRung,
        mut degradations: Vec<Degradation>,
        audit: &Audit<'_>,
    ) -> Result<ResilientDispatch, CoreError> {
        let safety = audit.check(&dispatch);
        if safety.as_ref().is_none_or(SafetyReport::passed) {
            self.last_known_good = Some(dispatch.clone());
        } else if let Some(report) = &safety {
            degradations.push(Degradation {
                rung,
                reason: DegradationReason::SafetyGate(report.clone()),
            });
        }
        Ok(ResilientDispatch { dispatch, rung, degradations, safety })
    }

    fn fall_to_last_known_good(
        &self,
        mut degradations: Vec<Degradation>,
        last_err: CoreError,
        audit: Option<&Audit<'_>>,
    ) -> Result<ResilientDispatch, CoreError> {
        match &self.last_known_good {
            Some(d) => {
                let mut dispatch = d.clone();
                // Stale duals must not masquerade as current prices.
                for v in &mut dispatch.lmp {
                    *v = f64::NAN;
                }
                // The stale dispatch is audited against *today's* demand and
                // ratings (flag-only: it is the last resort either way).
                let safety = audit.and_then(|a| a.check(&dispatch));
                if let Some(report) = &safety {
                    if !report.passed() {
                        degradations.push(Degradation {
                            rung: DispatchRung::LastKnownGood,
                            reason: DegradationReason::SafetyGate(report.clone()),
                        });
                    }
                }
                Ok(ResilientDispatch {
                    dispatch,
                    rung: DispatchRung::LastKnownGood,
                    degradations,
                    safety,
                })
            }
            None => Err(last_err),
        }
    }

    fn classify(&self, problem: &DcOpf<'_>, result: BudgetedSolve) -> RungOutcome {
        let nb = problem.network().num_buses();
        match result {
            Ok(SolveOutcome::Solved(v)) => match problem.package(v) {
                Ok(d) => RungOutcome::Clean(d),
                Err(e) => RungOutcome::Failed(DegradationReason::Solver(e.to_string()), e),
            },
            Ok(SolveOutcome::Partial(p)) => match p.x {
                Some(p_mw) => {
                    // Feasible incumbent: package with NaN prices.
                    match problem.package((p_mw, vec![f64::NAN; nb])) {
                        Ok(d) => RungOutcome::Degraded(d, p.tripped),
                        Err(e) => {
                            RungOutcome::Failed(DegradationReason::Solver(e.to_string()), e)
                        }
                    }
                }
                None => RungOutcome::FailedPartial(p.tripped),
            },
            Err(CoreError::DispatchInfeasible) => RungOutcome::Infeasible,
            Err(CoreError::Optim(ed_optim::OptimError::Infeasible)) => RungOutcome::Infeasible,
            Err(e) => RungOutcome::Failed(DegradationReason::Solver(e.to_string()), e),
        }
    }
}

/// The per-interval safety audit shared by every rung of one
/// [`ResilientDispatcher::dispatch`] call.
struct Audit<'a> {
    /// `None` only if the susceptance factorization failed (degenerate
    /// network); dispatches then carry `safety: None`.
    gate: Option<SafetyGate<'a>>,
    demand: &'a [f64],
    ratings: &'a [f64],
}

impl Audit<'_> {
    fn check(&self, dispatch: &Dispatch) -> Option<SafetyReport> {
        self.gate.as_ref().map(|g| g.check(self.demand, self.ratings, dispatch))
    }

    /// Packages a degraded (already-not-stored) dispatch with its audit:
    /// a failed gate is recorded but does not change the rung choice.
    fn flag_only(
        &self,
        dispatch: Dispatch,
        rung: DispatchRung,
        mut degradations: Vec<Degradation>,
    ) -> ResilientDispatch {
        let safety = self.check(&dispatch);
        if let Some(report) = &safety {
            if !report.passed() {
                degradations.push(Degradation {
                    rung,
                    reason: DegradationReason::SafetyGate(report.clone()),
                });
            }
        }
        ResilientDispatch { dispatch, rung, degradations, safety }
    }
}

/// Internal classification of one rung attempt.
enum RungOutcome {
    /// Solved to optimality; full dispatch with LMPs.
    Clean(Dispatch),
    /// Budget tripped but a feasible incumbent was packaged (LMPs are NaN).
    Degraded(Dispatch, BudgetTripped),
    /// Budget tripped with no usable incumbent.
    FailedPartial(BudgetTripped),
    /// The dispatch problem is infeasible — a real answer, not a fault.
    Infeasible,
    /// The rung's solver failed outright.
    Failed(DegradationReason, CoreError),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quad_net() -> Network {
        ed_cases::three_bus_with(&ed_cases::ThreeBusConfig {
            quadratic: true,
            ..Default::default()
        })
    }

    #[test]
    fn clean_solve_uses_first_rung() {
        let net = quad_net();
        let mut rd = ResilientDispatcher::new();
        let r = rd
            .dispatch(
                &net,
                &net.demand_vector_mw(),
                &net.static_ratings_mva(),
                &SolveBudget::unlimited(),
            )
            .unwrap();
        assert_eq!(r.rung, DispatchRung::ActiveSetQp);
        assert!(r.is_clean());
        assert!(rd.last_known_good().is_some());
    }

    #[test]
    fn nan_rating_degrades_to_last_known_good() {
        // The bad input is labelled with the first rung that would have
        // run: the active set for quadratic costs, the LP for linear ones.
        for (net, first) in [
            (quad_net(), DispatchRung::ActiveSetQp),
            (ed_cases::three_bus(), DispatchRung::LpApprox),
        ] {
            let demand = net.demand_vector_mw();
            let good = net.static_ratings_mva();
            let mut rd = ResilientDispatcher::new();
            rd.dispatch(&net, &demand, &good, &SolveBudget::unlimited()).unwrap();

            let mut bad = good.clone();
            bad[1] = f64::NAN;
            let r = rd.dispatch(&net, &demand, &bad, &SolveBudget::unlimited()).unwrap();
            assert_eq!(r.rung, DispatchRung::LastKnownGood);
            assert_eq!(r.degradations[0].rung, first);
            assert!(matches!(r.degradations[0].reason, DegradationReason::BadInput(_)));
            assert!(r.dispatch.lmp.iter().all(|v| v.is_nan()), "stale LMPs must be NaN");
            // The generation plan itself is the last good one.
            let total: f64 = r.dispatch.p_mw.iter().sum();
            assert!((total - demand.iter().sum::<f64>()).abs() < 1e-6);
        }
    }

    #[test]
    fn nan_rating_without_history_is_typed_error() {
        let net = quad_net();
        let mut bad = net.static_ratings_mva();
        bad[0] = f64::INFINITY;
        let mut rd = ResilientDispatcher::new();
        let err = rd
            .dispatch(&net, &net.demand_vector_mw(), &bad, &SolveBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn infeasible_demand_is_never_masked() {
        let net = quad_net();
        let demand = vec![0.0, 0.0, 10_000.0];
        let mut rd = ResilientDispatcher::new();
        rd.dispatch(&net, &net.demand_vector_mw(), &net.static_ratings_mva(), &SolveBudget::unlimited())
            .unwrap();
        let err = rd
            .dispatch(&net, &demand, &net.static_ratings_mva(), &SolveBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, CoreError::DispatchInfeasible), "{err}");
    }

    #[test]
    fn expired_deadline_yields_degraded_but_feasible_dispatch() {
        let net = quad_net();
        let demand = net.demand_vector_mw();
        let ratings = net.static_ratings_mva();
        let mut rd = ResilientDispatcher::new();

        // The active-set phase-1 start is unbudgeted, so even a dead-on-
        // arrival deadline produces a *fresh feasible* incumbent rather than
        // falling all the way to stale data.
        let expired = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let r = rd.dispatch(&net, &demand, &ratings, &expired).unwrap();
        assert!(!r.is_clean(), "an expired deadline cannot yield a clean solve");
        assert!(matches!(
            r.degradations[0].reason,
            DegradationReason::PartialIncumbent(BudgetTripped::WallClock)
        ));
        let total: f64 = r.dispatch.p_mw.iter().sum();
        assert!((total - demand.iter().sum::<f64>()).abs() < 1e-6, "balance violated");
        assert!(r.dispatch.lmp.iter().all(|v| v.is_nan()), "partial LMPs must be NaN");

        // Linear costs start at the LP rung, which the deadline skips. A
        // fresh dispatcher reports the spent budget, never infeasibility;
        // one with history re-issues its last-known-good dispatch.
        let net = ed_cases::three_bus();
        let demand = net.demand_vector_mw();
        let ratings = net.static_ratings_mva();
        let mut rd = ResilientDispatcher::new();
        let expired = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let err = rd.dispatch(&net, &demand, &ratings, &expired).unwrap_err();
        assert_eq!(err, CoreError::BudgetExhausted(BudgetTripped::WallClock));
        rd.dispatch(&net, &demand, &ratings, &SolveBudget::unlimited()).unwrap();
        let r = rd.dispatch(&net, &demand, &ratings, &expired).unwrap();
        assert_eq!(r.rung, DispatchRung::LastKnownGood);
        let skipped = DegradationReason::DeadlineExhausted;
        assert_eq!(r.degradations, [Degradation { rung: DispatchRung::LpApprox, reason: skipped }]);
        let total: f64 = r.dispatch.p_mw.iter().sum();
        assert!((total - demand.iter().sum::<f64>()).abs() < 1e-6, "balance violated");
    }

    /// The 118-bus PTDF model has a positive definite `H`, so rung 1 runs
    /// the dual method first; a spent budget hands it to the primal
    /// method, whose unbudgeted phase-1 start becomes the incumbent.
    #[test]
    fn expired_deadline_hands_the_dual_method_over_to_a_feasible_start() {
        let net = ed_cases::ieee118_like();
        let demand = net.demand_vector_mw();
        let expired = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let r = ResilientDispatcher::new()
            .dispatch(&net, &demand, &net.static_ratings_mva(), &expired)
            .unwrap();
        assert_eq!(r.rung, DispatchRung::ActiveSetQp);
        assert!(matches!(
            r.degradations[0].reason,
            DegradationReason::PartialIncumbent(BudgetTripped::WallClock)
        ));
        let total: f64 = r.dispatch.p_mw.iter().sum();
        assert!((total - demand.iter().sum::<f64>()).abs() < 1e-6, "balance violated");
        assert!(r.dispatch.lmp.iter().all(|v| v.is_nan()), "partial LMPs must be NaN");
    }

    #[test]
    fn returned_dispatches_are_counted_by_rung() {
        ed_obs::set_enabled(true);
        let net = ed_cases::three_bus();
        let (demand, ratings) = (net.demand_vector_mw(), net.static_ratings_mva());
        let mark = ed_obs::mark();
        ResilientDispatcher::new()
            .dispatch(&net, &demand, &ratings, &SolveBudget::unlimited())
            .unwrap();
        // Other tests may dispatch concurrently; this one's count is in.
        assert!(ed_obs::report_since(&mark).counter("dispatch.rung.lp_approx") >= 1);
    }

    #[test]
    fn safety_audit_attached_to_fresh_dispatches() {
        let net = quad_net();
        let demand = net.demand_vector_mw();
        let ratings = net.static_ratings_mva();
        let mut rd = ResilientDispatcher::new();
        let clean = rd.dispatch(&net, &demand, &ratings, &SolveBudget::unlimited()).unwrap();
        assert!(clean.safety.as_ref().is_some_and(SafetyReport::passed), "{:?}", clean.safety);
        // A budget-partial incumbent is still a physically valid dispatch
        // and must also carry a passing audit.
        let expired = SolveBudget::with_deadline(std::time::Duration::ZERO);
        let partial = rd.dispatch(&net, &demand, &ratings, &expired).unwrap();
        assert!(partial.safety.as_ref().is_some_and(SafetyReport::passed), "{:?}", partial.safety);
        // Bad input skips the audit (nothing trustworthy to check against).
        let mut bad = ratings.clone();
        bad[0] = f64::NAN;
        let lkg = rd.dispatch(&net, &demand, &bad, &SolveBudget::unlimited()).unwrap();
        assert_eq!(lkg.rung, DispatchRung::LastKnownGood);
        assert!(lkg.safety.is_none());
    }

    #[test]
    fn zero_iteration_budget_still_yields_feasible_dispatch() {
        let net = quad_net();
        let demand = net.demand_vector_mw();
        let ratings = net.static_ratings_mva();
        let mut rd = ResilientDispatcher::new();
        // Zero active-set iterations: trips at the first check, but phase 1
        // has already produced a feasible point that becomes the incumbent.
        let budget = SolveBudget::unlimited().max_iterations(0);
        let r = rd.dispatch(&net, &demand, &ratings, &budget).unwrap();
        let total: f64 = r.dispatch.p_mw.iter().sum();
        assert!((total - demand.iter().sum::<f64>()).abs() < 1e-6, "balance violated");
        assert!(!r.is_clean(), "a 0-iteration budget cannot be a clean solve");
    }
}
