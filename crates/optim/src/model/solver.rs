//! The [`Solver`] trait: one solve interface over the shared [`Model`] IR.
//!
//! The continuous solver families in this crate (simplex LP, active-set QP
//! and interior-point QP) are driven through this trait, which is what the
//! dispatch fallback ladder in `ed-core` uses to treat rungs uniformly and
//! the certification repair ladder uses to re-solve. Branch and bound on
//! integrality marks or complementarity pairs has its own entry point,
//! [`branch_bound::solve`](crate::branch_bound::solve).
//!
//! `row_duals[i]` is `∂objective/∂rhs_i` **in the model's stated sense**
//! (the same convention the LP simplex reports): for a minimization, a
//! binding `>=` row has a nonnegative dual.

use crate::budget::{Partial, SolveBudget, SolveOutcome};
use crate::certify::Tolerances;
use crate::lp::SimplexOptions;
use crate::model::Model;
use crate::qp::dense::{DenseQp, IneqSrc, QpSolution};
use crate::qp::{active_set, ipm, IpmOptions, QpOptions};
use crate::OptimError;

/// A solution in the unified format shared by all solver families.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Primal values, one per model variable.
    pub x: Vec<f64>,
    /// Objective value in the model's stated sense.
    pub objective: f64,
    /// Row duals (`∂obj/∂rhs`, stated sense); empty when the solving family
    /// does not produce meaningful duals (MILP/MPEC).
    pub row_duals: Vec<f64>,
    /// Reduced costs per variable; empty when not produced.
    pub reduced_costs: Vec<f64>,
    /// Whether optimality was proven (as opposed to a feasible incumbent
    /// accepted at a limit).
    pub proved_optimal: bool,
    /// Iterations spent (simplex pivots, active-set steps, IPM steps, or
    /// summed over branch-and-bound node relaxations).
    pub iterations: usize,
    /// Branch-and-bound nodes explored (0 for continuous solvers).
    pub nodes: usize,
}

/// A solver family that consumes the shared [`Model`] IR.
pub trait Solver {
    /// Short human-readable name (used in fallback-ladder reports).
    fn name(&self) -> &'static str;

    /// Solves `model` under a cooperative budget.
    ///
    /// # Errors
    ///
    /// [`OptimError`] on infeasibility, unboundedness, numerical failure,
    /// or a model the family cannot represent (e.g. quadratic terms handed
    /// to a pure-LP solver).
    fn solve(
        &self,
        model: &Model,
        budget: &SolveBudget,
    ) -> Result<SolveOutcome<Solution>, OptimError>;

    /// A copy of this solver with its numerical tolerances retargeted to
    /// `tol` (mapping each family's option fields from the unified
    /// [`Tolerances`] vocabulary). Used by the certification repair ladder
    /// to re-solve with tightened tolerances.
    fn with_tolerances(&self, tol: &Tolerances) -> Box<dyn Solver>;
}

/// Maps the unified tolerance vocabulary onto simplex options.
fn simplex_with(mut options: SimplexOptions, tol: &Tolerances) -> SimplexOptions {
    options.opt_tol = tol.opt;
    options.feas_tol = tol.feas;
    options
}

/// Maps the unified tolerance vocabulary onto active-set QP options.
fn qp_with(mut options: QpOptions, tol: &Tolerances) -> QpOptions {
    options.feas_tol = tol.feas;
    options.step_tol = tol.opt;
    options
}

/// LP via the bounded-variable revised simplex (ignores nothing: rejects
/// models with quadratic terms; integrality marks are relaxed).
#[derive(Debug, Clone, Default)]
pub struct SimplexSolver {
    /// Simplex options for each solve.
    pub options: SimplexOptions,
}

impl Solver for SimplexSolver {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn solve(
        &self,
        model: &Model,
        budget: &SolveBudget,
    ) -> Result<SolveOutcome<Solution>, OptimError> {
        if model.is_quadratic() {
            return Err(OptimError::InvalidModel {
                what: "simplex solver cannot handle quadratic objective terms".to_string(),
            });
        }
        let out = model.solve_budgeted(&self.options, budget)?;
        Ok(out.map(|s| Solution {
            x: s.x,
            objective: s.objective,
            row_duals: s.duals,
            reduced_costs: s.reduced_costs,
            proved_optimal: true,
            iterations: s.iterations,
            nodes: 0,
        }))
    }

    fn with_tolerances(&self, tol: &Tolerances) -> Box<dyn Solver> {
        Box::new(SimplexSolver { options: simplex_with(self.options.clone(), tol) })
    }
}

/// Maps a QP kernel solution (minimization form over the dense view) back
/// to the unified format on the original model.
///
/// The kernel reports multipliers for the stationarity system
/// `Hx + c + A_eq'ν + A_in'λ = 0` of the *minimization* form, which gives
/// `∂obj_min/∂b_eq = −ν` and `∂obj_min/∂b_in = −λ`. Converting to the
/// model's stated sense multiplies by `sign`; a `Ge` row that was negated
/// into the dense `Le` block flips once more; and the bound rows fold into
/// per-variable reduced costs `rc_j = sign·(λ_lower_j − λ_upper_j)`.
fn qp_to_solution(model: &Model, dense: &DenseQp, s: QpSolution) -> Solution {
    let sign = dense.sign;
    let mut row_duals = vec![0.0; model.num_rows()];
    for (k, &row) in dense.eq_src.iter().enumerate() {
        row_duals[row] = sign * -s.eq_duals[k];
    }
    let mut reduced_costs = vec![0.0; model.num_vars()];
    for (k, src) in dense.ineq_src.iter().enumerate() {
        let lam = s.ineq_duals[k];
        match *src {
            IneqSrc::Row { row, negated: false } => row_duals[row] = sign * -lam,
            IneqSrc::Row { row, negated: true } => row_duals[row] = sign * lam,
            IneqSrc::Lower(j) => reduced_costs[j] += sign * lam,
            IneqSrc::Upper(j) => reduced_costs[j] -= sign * lam,
        }
    }
    let objective = model.objective_value(&s.x);
    Solution {
        x: s.x,
        objective,
        row_duals,
        reduced_costs,
        proved_optimal: true,
        iterations: s.iterations,
        nodes: 0,
    }
}

/// Re-expresses a QP kernel partial (minimization form) in the model's
/// stated sense.
fn qp_reprice_partial(model: &Model, sign: f64, mut p: Partial) -> Partial {
    if let Some(x) = &p.x {
        p.objective = Some(model.objective_value(x));
    } else {
        p.objective = p.objective.map(|o| sign * o);
    }
    p.bound = p.bound.map(|b| sign * b);
    p
}

/// The solve body of every QP family: validates `model`, runs `kernel` on
/// its dense minimization view, and maps the outcome back to the model's
/// stated sense.
fn solve_qp(
    model: &Model,
    kernel: impl FnOnce(&DenseQp) -> Result<SolveOutcome<QpSolution>, OptimError>,
) -> Result<SolveOutcome<Solution>, OptimError> {
    model.validate()?;
    let dense = DenseQp::from_model(model);
    Ok(match kernel(&dense)? {
        SolveOutcome::Solved(s) => SolveOutcome::Solved(qp_to_solution(model, &dense, s)),
        SolveOutcome::Partial(p) => SolveOutcome::Partial(qp_reprice_partial(model, dense.sign, p)),
    })
}

/// QP via the active-set methods (integrality marks and complementarity
/// pairs are relaxed; also solves pure LPs, though the simplex is the
/// better tool for those). A symmetric positive definite `H` runs the
/// Goldfarb–Idnani dual method, which needs no phase-1 LP; any other `H`,
/// and any problem the dual method hands over (budget trip, dependent row,
/// iteration cap, infeasibility), runs the primal method under the same
/// budget, so a budget partial still carries a feasible iterate.
#[derive(Debug, Clone, Default)]
pub struct ActiveSetSolver {
    /// Active-set options for each solve.
    pub options: QpOptions,
}

impl Solver for ActiveSetSolver {
    fn name(&self) -> &'static str {
        "active-set"
    }

    fn solve(
        &self,
        model: &Model,
        budget: &SolveBudget,
    ) -> Result<SolveOutcome<Solution>, OptimError> {
        solve_qp(model, |dense| active_set::solve_budgeted(dense, &self.options, budget))
    }

    fn with_tolerances(&self, tol: &Tolerances) -> Box<dyn Solver> {
        Box::new(ActiveSetSolver { options: qp_with(self.options.clone(), tol) })
    }
}

/// QP via the primal-dual interior-point method (integrality marks and
/// complementarity pairs are relaxed).
#[derive(Debug, Clone, Default)]
pub struct IpmSolver {
    /// Interior-point options for each solve.
    pub options: IpmOptions,
}

impl Solver for IpmSolver {
    fn name(&self) -> &'static str {
        "interior-point"
    }

    fn solve(
        &self,
        model: &Model,
        budget: &SolveBudget,
    ) -> Result<SolveOutcome<Solution>, OptimError> {
        solve_qp(model, |dense| ipm::solve_budgeted(dense, &self.options, budget))
    }

    fn with_tolerances(&self, tol: &Tolerances) -> Box<dyn Solver> {
        let mut options = self.options.clone();
        options.tol = tol.opt;
        Box::new(IpmSolver { options })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Row;

    #[test]
    fn simplex_solver_round_trip() {
        let mut m = Model::maximize();
        let x = m.add_var(0.0, f64::INFINITY, 3.0);
        let y = m.add_var(0.0, f64::INFINITY, 2.0);
        m.add_row(Row::le(4.0).coef(x, 1.0).coef(y, 1.0));
        m.add_row(Row::le(6.0).coef(x, 1.0).coef(y, 3.0));
        let s = SimplexSolver::default()
            .solve(&m, &SolveBudget::unlimited())
            .unwrap()
            .solved()
            .unwrap();
        assert!((s.objective - 12.0).abs() < 1e-9);
        assert!(s.proved_optimal);
        assert_eq!(s.nodes, 0);
    }

    #[test]
    fn simplex_solver_rejects_quadratic() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_quad(x, x, 2.0);
        let err = SimplexSolver::default().solve(&m, &SolveBudget::unlimited());
        assert!(matches!(err, Err(OptimError::InvalidModel { .. })));
    }

    /// The two-generator dispatch QP whose balance dual (LMP) is known:
    /// min 10x + 8y + 0.5(0.02x² + 0.04y²) s.t. x + y = 200, bounds [0,300]
    /// has optimum (100, 100) and ∂obj/∂demand = 12.
    fn dispatch_qp() -> (Model, super::super::RowId) {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 300.0, 10.0);
        let y = m.add_var(0.0, 300.0, 8.0);
        m.add_quad(x, x, 0.02);
        m.add_quad(y, y, 0.04);
        let balance = m.add_row(Row::eq(200.0).coef(x, 1.0).coef(y, 1.0));
        (m, balance)
    }

    #[test]
    fn active_set_solver_reports_stated_sense_duals() {
        let (m, balance) = dispatch_qp();
        let s = ActiveSetSolver::default()
            .solve(&m, &SolveBudget::unlimited())
            .unwrap()
            .solved()
            .unwrap();
        assert!((s.x[0] - 100.0).abs() < 1e-5, "{:?}", s.x);
        assert!((s.row_duals[balance.index()] - 12.0).abs() < 1e-4, "{:?}", s.row_duals);
    }

    #[test]
    fn ipm_solver_matches_active_set() {
        let (m, balance) = dispatch_qp();
        let s = IpmSolver::default()
            .solve(&m, &SolveBudget::unlimited())
            .unwrap()
            .solved()
            .unwrap();
        assert!((s.x[0] - 100.0).abs() < 1e-4, "{:?}", s.x);
        assert!((s.row_duals[balance.index()] - 12.0).abs() < 1e-3, "{:?}", s.row_duals);
    }

    #[test]
    fn qp_solver_max_sense_dual_sign() {
        // max 2x − x² with x ≤ 0.5: optimum x = 0.5, obj = 0.75, and the
        // stated-sense row dual is ∂obj/∂rhs = 2 − 2x = 1.
        let mut m = Model::maximize();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 2.0);
        m.add_quad(x, x, -2.0);
        let cap = m.add_row(Row::le(0.5).coef(x, 1.0));
        let s = ActiveSetSolver::default()
            .solve(&m, &SolveBudget::unlimited())
            .unwrap()
            .solved()
            .unwrap();
        assert!((s.x[0] - 0.5).abs() < 1e-8, "{:?}", s.x);
        assert!((s.objective - 0.75).abs() < 1e-8);
        assert!((s.row_duals[cap.index()] - 1.0).abs() < 1e-6, "{:?}", s.row_duals);
    }
}
