//! Resilient dispatch: a fallback ladder over the DC-OPF solvers.
//!
//! Economic dispatch runs on a real-time clock — a solver that stalls,
//! cycles, or hits a numerical singularity must not take the EMS dispatch
//! loop down with it. [`ResilientDispatcher`] wraps [`DcOpf`] in a ladder
//! of progressively cheaper rungs:
//!
//! 1. **Active-set QP** — the exact solver for strictly convex costs. A
//!    budget trip here still yields a *feasible* incumbent (active-set
//!    iterates stay primal feasible), which is accepted as a degraded
//!    dispatch rather than discarded.
//! 2. **Interior-point QP** — immune to active-set degeneracy stalls.
//! 3. **LP approximation** — generation costs linearized at the midpoint
//!    of each generator's range (marginal cost `b + 2a·(pmin+pmax)/2`);
//!    exact for all-linear-cost systems.
//! 4. **Last-known-good** — the most recent successfully solved dispatch,
//!    re-issued unchanged. Physically stale but operationally safe: real
//!    EMSs hold the previous base point when the optimizer misses its
//!    market-interval deadline.
//!
//! Each QP rung hands the shared-model builders in `qp_form` a different
//! [`Solver`] trait object, so the ladder's escalation policy lives here
//! while the model assembly is written once.
//!
//! Every input is sanitized before *any* solver sees it (non-finite or
//! non-positive ratings, non-finite demand), so a NaN injected into the
//! DLR pipeline degrades to last-known-good instead of poisoning a KKT
//! factorization. The ladder records which rung produced the result and
//! why each earlier rung failed.

use crate::dispatch::{lp_form, qp_form, DcOpf, Dispatch, Formulation, SafetyGate, SafetyReport};
use crate::CoreError;
use ed_optim::budget::{BudgetTripped, SolveBudget, SolveOutcome};
use ed_optim::model::{ActiveSetSolver, IpmSolver, Solver};
use ed_powerflow::Network;

/// Which rung of the fallback ladder produced a dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchRung {
    /// Exact active-set QP (possibly a feasible budget-partial incumbent).
    ActiveSetQp,
    /// Interior-point QP fallback.
    InteriorPoint,
    /// LP with linearized costs (exact when all costs are linear).
    LpApprox,
    /// Re-issued last successfully solved dispatch.
    LastKnownGood,
}

impl std::fmt::Display for DispatchRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchRung::ActiveSetQp => write!(f, "active-set QP"),
            DispatchRung::InteriorPoint => write!(f, "interior-point QP"),
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
        let problem = DcOpf::new(net).demand(demand_mw).ratings(ratings_mw);
        let mut degradations = Vec::new();

        // Input sanitization runs before any solver touches the data. When
        // it fails there is nothing trustworthy to audit against, so the
        // safety gate is skipped for this interval.
        if let Err(e) = problem.validate() {
            degradations.push(Degradation {
                rung: DispatchRung::ActiveSetQp,
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

        let formulation = Formulation::Auto.resolve(net);
        let all_quadratic = net.gens().iter().all(|g| g.cost.is_strictly_convex());

        let mut last_err: CoreError = CoreError::DispatchInfeasible;
        if all_quadratic {
            // Rung 1: active-set QP.
            match self.try_qp(&problem, formulation, &ActiveSetSolver::default(), budget) {
                RungOutcome::Clean(d) => {
                    return self.accept(d, DispatchRung::ActiveSetQp, degradations, &audit)
                }
                RungOutcome::Degraded(d, tripped) => {
                    degradations.push(Degradation {
                        rung: DispatchRung::ActiveSetQp,
                        reason: DegradationReason::PartialIncumbent(tripped),
                    });
                    // A feasible incumbent is already in hand; do not spend
                    // the (likely exhausted) budget on further rungs.
                    return Ok(audit.flag_only(d, DispatchRung::ActiveSetQp, degradations));
                }
                RungOutcome::FailedPartial(tripped) => {
                    degradations.push(Degradation {
                        rung: DispatchRung::ActiveSetQp,
                        reason: DegradationReason::Budget(tripped),
                    });
                }
                RungOutcome::Infeasible => return Err(CoreError::DispatchInfeasible),
                RungOutcome::Failed(reason, e) => {
                    degradations.push(Degradation { rung: DispatchRung::ActiveSetQp, reason });
                    last_err = e;
                }
            }

            // Rung 2: interior-point QP.
            if budget.wall_tripped().is_some() {
                degradations.push(Degradation {
                    rung: DispatchRung::InteriorPoint,
                    reason: DegradationReason::DeadlineExhausted,
                });
            } else {
                match self.try_qp(&problem, formulation, &IpmSolver::default(), budget) {
                    RungOutcome::Clean(d) => {
                        return self.accept(d, DispatchRung::InteriorPoint, degradations, &audit)
                    }
                    // Interior partials carry no feasible x; treat as failed.
                    RungOutcome::Degraded(_, tripped) | RungOutcome::FailedPartial(tripped) => {
                        degradations.push(Degradation {
                            rung: DispatchRung::InteriorPoint,
                            reason: DegradationReason::Budget(tripped),
                        });
                    }
                    RungOutcome::Infeasible => return Err(CoreError::DispatchInfeasible),
                    RungOutcome::Failed(reason, e) => {
                        degradations.push(Degradation { rung: DispatchRung::InteriorPoint, reason });
                        last_err = e;
                    }
                }
            }
        }

        // Rung 3: LP (exact for linear costs, linearized otherwise).
        if budget.wall_tripped().is_some() {
            degradations.push(Degradation {
                rung: DispatchRung::LpApprox,
                reason: DegradationReason::DeadlineExhausted,
            });
        } else {
            let lin_cost: Option<Vec<f64>> = all_quadratic.then(|| {
                net.gens()
                    .iter()
                    .map(|g| g.cost.b + 2.0 * g.cost.a * 0.5 * (g.pmin_mw + g.pmax_mw))
                    .collect()
            });
            match self.try_lp(&problem, formulation, lin_cost.as_deref(), budget) {
                RungOutcome::Clean(d) => {
                    return self.accept_lp(d, degradations, all_quadratic, &audit)
                }
                RungOutcome::Degraded(d, tripped) => {
                    degradations.push(Degradation {
                        rung: DispatchRung::LpApprox,
                        reason: DegradationReason::PartialIncumbent(tripped),
                    });
                    return Ok(audit.flag_only(d, DispatchRung::LpApprox, degradations));
                }
                RungOutcome::FailedPartial(tripped) => {
                    degradations.push(Degradation {
                        rung: DispatchRung::LpApprox,
                        reason: DegradationReason::Budget(tripped),
                    });
                }
                RungOutcome::Infeasible => return Err(CoreError::DispatchInfeasible),
                RungOutcome::Failed(reason, e) => {
                    degradations.push(Degradation { rung: DispatchRung::LpApprox, reason });
                    last_err = e;
                }
            }
        }

        // Rung 4: last-known-good.
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

    fn accept_lp(
        &mut self,
        dispatch: Dispatch,
        mut degradations: Vec<Degradation>,
        approximated: bool,
        audit: &Audit<'_>,
    ) -> Result<ResilientDispatch, CoreError> {
        if approximated && degradations.is_empty() {
            // Shouldn't happen (LP only runs for quadratic costs after the
            // QP rungs failed), but keep the record honest if it does.
            degradations.push(Degradation {
                rung: DispatchRung::LpApprox,
                reason: DegradationReason::Solver("cost model linearized".into()),
            });
        }
        self.accept(dispatch, DispatchRung::LpApprox, degradations, audit)
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

    fn try_qp(
        &self,
        problem: &DcOpf<'_>,
        formulation: Formulation,
        solver: &dyn Solver,
        budget: &SolveBudget,
    ) -> RungOutcome {
        let net = problem.network();
        let result = match formulation {
            Formulation::Ptdf => qp_form::solve_ptdf_budgeted(
                net,
                problem.demand_mw(),
                problem.ratings_mw(),
                solver,
                budget,
            ),
            _ => qp_form::solve_angle_budgeted(
                net,
                problem.demand_mw(),
                problem.ratings_mw(),
                solver,
                budget,
            ),
        };
        self.classify(problem, result)
    }

    fn try_lp(
        &self,
        problem: &DcOpf<'_>,
        formulation: Formulation,
        lin_cost: Option<&[f64]>,
        budget: &SolveBudget,
    ) -> RungOutcome {
        let net = problem.network();
        let result = match formulation {
            Formulation::Ptdf => lp_form::solve_ptdf_budgeted(
                net,
                problem.demand_mw(),
                problem.ratings_mw(),
                lin_cost,
                budget,
            ),
            _ => lp_form::solve_angle_budgeted(
                net,
                problem.demand_mw(),
                problem.ratings_mw(),
                lin_cost,
                budget,
            ),
        };
        self.classify(problem, result)
    }

    fn classify(&self, problem: &DcOpf<'_>, result: super::BudgetedSolve) -> RungOutcome {
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
        let net = quad_net();
        let demand = net.demand_vector_mw();
        let good = net.static_ratings_mva();
        let mut rd = ResilientDispatcher::new();
        rd.dispatch(&net, &demand, &good, &SolveBudget::unlimited()).unwrap();

        let mut bad = good.clone();
        bad[1] = f64::NAN;
        let r = rd.dispatch(&net, &demand, &bad, &SolveBudget::unlimited()).unwrap();
        assert_eq!(r.rung, DispatchRung::LastKnownGood);
        assert!(matches!(
            r.degradations[0].reason,
            DegradationReason::BadInput(_)
        ));
        assert!(r.dispatch.lmp.iter().all(|v| v.is_nan()), "stale LMPs must be NaN");
        // The generation plan itself is the last good one.
        assert!((r.dispatch.p_mw.iter().sum::<f64>() - demand.iter().sum::<f64>()).abs() < 1e-6);
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
