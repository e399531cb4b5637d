//! Active-set methods for convex QP, behind one entry point.
//!
//! [`solve_budgeted`] runs the Goldfarb–Idnani dual method
//! ([`dual_active_set`]) when `H` is symmetric positive definite, and the
//! primal method here for every other `H` and for every problem the dual
//! method hands over. The primal method starts from a phase-1 LP vertex and
//! keeps every iterate feasible; it is the one of the two that runs on a
//! singular `H`, such as the angle-form dispatch, where θ carries no cost.

use crate::budget::{Partial, SolveBudget, SolveOutcome};
use crate::lp::Row;
use crate::model::Model;
use crate::qp::dense::{DenseQp, IneqSrc, QpSolution};
use crate::qp::dual_active_set;
use crate::OptimError;
use ed_linalg::{dot, Lu, Matrix};

/// Maximum primal active-set iterations. The dual method's cap is at least
/// this and grows with the problem size.
pub(crate) const MAX_ITERATIONS: usize = 200;
/// Dual regularization added to the primal method's KKT system's
/// lower-right block to survive (near-)dependent working sets.
const KKT_REGULARIZATION: f64 = 1e-12;

/// Options for the active-set QP solver: the two tolerances
/// [`Solver::with_tolerances`](crate::Solver::with_tolerances) retargets.
#[derive(Debug, Clone)]
pub struct QpOptions {
    /// Constraint feasibility / activity tolerance. The dual method counts
    /// row `i` as violated beyond `feas_tol·(1 + |b_i|)`.
    pub feas_tol: f64,
    /// Step-size tolerance below which a primal step is considered zero.
    pub step_tol: f64,
}

impl Default for QpOptions {
    fn default() -> Self {
        let tol = crate::certify::Tolerances::default();
        QpOptions { feas_tol: tol.feas, step_tol: tol.opt }
    }
}

/// Finds a feasible starting point with a phase-1 LP.
///
/// The LP minimizes the QP's *linear* cost term instead of zero: the
/// returned vertex then sits near the region the quadratic optimum lives
/// in, which keeps the subsequent active-set path short (a zero-objective
/// start can land at an arbitrary far-away vertex and force thousands of
/// zigzag steps across a congested polytope).
///
/// Bound-derived inequality rows are folded back into *variable bounds*:
/// the bounded-variable simplex treats a box with ratio-test bound flips,
/// whereas the same box written as `2n` singleton rows costs hundreds of
/// extra pivots (and a basis of twice the size) on dispatch-shaped QPs.
fn feasible_start(qp: &DenseQp) -> Result<Vec<f64>, OptimError> {
    let mut lp = Model::minimize();
    let mut lb = vec![f64::NEG_INFINITY; qp.n];
    let mut ub = vec![f64::INFINITY; qp.n];
    for (k, src) in qp.ineq_src.iter().enumerate() {
        match *src {
            IneqSrc::Lower(j) => lb[j] = -qp.b_in[k],
            IneqSrc::Upper(j) => ub[j] = qp.b_in[k],
            IneqSrc::Row { .. } => {}
        }
    }
    let vars: Vec<_> = (0..qp.n).map(|j| lp.add_var(lb[j], ub[j], qp.c[j])).collect();
    for (a, &b) in qp.a_eq.iter().zip(&qp.b_eq) {
        lp.add_row(Row::eq(b).coefs(vars.iter().zip(a).map(|(&v, &c)| (v, c))));
    }
    for ((a, &b), src) in qp.a_in.iter().zip(&qp.b_in).zip(&qp.ineq_src) {
        if matches!(src, IneqSrc::Row { .. }) {
            lp.add_row(Row::le(b).coefs(vars.iter().zip(a).map(|(&v, &c)| (v, c))));
        }
    }
    match lp.solve() {
        Ok(sol) => Ok(sol.x),
        // The linear guide cost may be unbounded where only the quadratic
        // term caps the objective; any feasible point still serves.
        Err(OptimError::Unbounded) => {
            let mut feas = lp.clone();
            feas.clear_objective();
            Ok(feas.solve()?.x)
        }
        Err(e) => Err(e),
    }
}

/// `(step direction, equality duals, working-set duals)` from one KKT solve.
type EqpStep = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Solves the equality-constrained QP step at `x` for working set `w`.
///
/// Returns `(p, eq_duals, w_duals)` where `p` minimizes the quadratic model
/// subject to `A_eq p = 0` and `a_i' p = 0` for `i` in `w`.
fn eqp_step(qp: &DenseQp, x: &[f64], w: &[usize]) -> Result<EqpStep, OptimError> {
    let n = qp.n;
    let me = qp.a_eq.len();
    let mw = w.len();
    let dim = n + me + mw;
    let mut kkt = Matrix::zeros(dim, dim);
    for i in 0..n {
        for j in 0..n {
            kkt[(i, j)] = qp.h[(i, j)];
        }
    }
    for (r, a) in qp.a_eq.iter().enumerate() {
        for j in 0..n {
            kkt[(n + r, j)] = a[j];
            kkt[(j, n + r)] = a[j];
        }
    }
    for (r, &wi) in w.iter().enumerate() {
        let a = &qp.a_in[wi];
        for j in 0..n {
            kkt[(n + me + r, j)] = a[j];
            kkt[(j, n + me + r)] = a[j];
        }
    }
    for r in 0..(me + mw) {
        kkt[(n + r, n + r)] = -KKT_REGULARIZATION;
    }
    // Gradient g = Hx + c.
    let hx = qp.h.matvec(x)?;
    let mut rhs = vec![0.0; dim];
    for j in 0..n {
        rhs[j] = -(hx[j] + qp.c[j]);
    }
    let lu = Lu::factor(&kkt).map_err(|e| OptimError::Numerical {
        what: format!("KKT factorization failed (working set size {mw}): {e}"),
    })?;
    let sol = lu.solve(&rhs)?;
    let p = sol[..n].to_vec();
    let eq_duals = sol[n..n + me].to_vec();
    let w_duals = sol[n + me..].to_vec();
    Ok((p, eq_duals, w_duals))
}

/// Budgeted entry point. A symmetric positive definite `H` goes to the
/// dual method ([`dual_active_set`]), which starts at the unconstrained
/// minimum and needs no phase-1 LP. Every other `H`, and every problem the
/// dual method hands over (budget trip, dependent row, iteration cap,
/// infeasibility verdict), runs the primal method below under the same
/// budget. A budget trip mid-iteration returns the current primal iterate,
/// which the method keeps feasible throughout — so the partial incumbent
/// is always usable as a dispatch.
pub(crate) fn solve_budgeted(
    qp: &DenseQp,
    options: &QpOptions,
    budget: &SolveBudget,
) -> Result<SolveOutcome<QpSolution>, OptimError> {
    if let Some(sol) = dual_active_set::solve(qp, options, budget) {
        return Ok(SolveOutcome::Solved(sol));
    }
    let _t = ed_obs::timer("optim.activeset");
    let out = solve_primal(qp, options, budget);
    if ed_obs::enabled() {
        let iterations = match &out {
            Ok(SolveOutcome::Solved(s)) => s.iterations,
            Ok(SolveOutcome::Partial(p)) => p.iterations,
            Err(_) => 0,
        };
        ed_obs::counter("optim.activeset.solves", 1);
        ed_obs::counter("optim.activeset.iterations", iterations as u64);
    }
    out
}

fn solve_primal(
    qp: &DenseQp,
    options: &QpOptions,
    budget: &SolveBudget,
) -> Result<SolveOutcome<QpSolution>, OptimError> {
    let n = qp.n;
    let mut x = feasible_start(qp)?;
    debug_assert!(qp.infeasibility(&x) <= 1e-6, "phase-1 start infeasible");

    // Working set: start from the inequality constraints active at the
    // phase-1 vertex, added greedily (dependent rows are tolerated thanks to
    // KKT regularization, but we cap the working set at n - me rows).
    let me = qp.a_eq.len();
    let mut w: Vec<usize> = Vec::new();
    for i in 0..qp.a_in.len() {
        if (dot(&qp.a_in[i], &x) - qp.b_in[i]).abs() <= options.feas_tol && w.len() + me < n {
            w.push(i);
        }
    }

    let mut iterations = 0usize;
    // Anti-cycling: a constraint dropped at a degenerate point must not be
    // re-added until a nonzero step has been taken, otherwise the method
    // can oscillate between adding and dropping the same row.
    let mut blocked_readd: Option<usize> = None;
    loop {
        if !budget.is_unlimited() {
            if let Some(tripped) = budget.iter_tripped(iterations) {
                // Active-set iterates stay primal feasible: the current x is
                // a usable (suboptimal) dispatch, not garbage.
                let objective = qp.objective_value(&x);
                return Ok(SolveOutcome::Partial(Partial {
                    tripped,
                    x: Some(x),
                    objective: Some(objective),
                    bound: None,
                    iterations,
                    nodes: 0,
                    warm_starts: 0,
                    cold_restarts: 0,
                }));
            }
        }
        if iterations >= MAX_ITERATIONS {
            return Err(OptimError::IterationLimit { limit: MAX_ITERATIONS, incumbent: Some(x) });
        }
        iterations += 1;

        let (p, eq_duals, w_duals) = match eqp_step(qp, &x, &w) {
            Ok(v) => v,
            Err(OptimError::Numerical { .. }) if !w.is_empty() => {
                // Dependent working set: drop the most recently added row
                // and retry on the next loop iteration.
                w.pop();
                continue;
            }
            Err(e) => return Err(e),
        };

        let p_norm = ed_linalg::norm_inf(&p);
        if p_norm <= options.step_tol * (1.0 + ed_linalg::norm_inf(&x)) {
            // Candidate optimum: check working-set multipliers.
            let mut min_dual = f64::INFINITY;
            let mut min_idx = None;
            for (k, &lam) in w_duals.iter().enumerate() {
                if lam < min_dual {
                    min_dual = lam;
                    min_idx = Some(k);
                }
            }
            if min_dual >= -1e-7 || min_idx.is_none() {
                // Optimal.
                let mut ineq_duals = vec![0.0; qp.a_in.len()];
                for (k, &wi) in w.iter().enumerate() {
                    ineq_duals[wi] = w_duals[k].max(0.0);
                }
                return Ok(SolveOutcome::Solved(QpSolution { x, eq_duals, ineq_duals, iterations }));
            }
            // Drop the most negative multiplier and continue.
            let dropped = w.remove(min_idx.expect("checked above"));
            blocked_readd = Some(dropped);
            continue;
        }

        // Ratio test against inactive inequality constraints.
        let mut alpha = 1.0_f64;
        let mut blocking = None;
        for (i, (a, &b)) in qp.a_in.iter().zip(&qp.b_in).enumerate() {
            if w.contains(&i) || blocked_readd == Some(i) {
                continue;
            }
            let ap = dot(a, &p);
            if ap > options.feas_tol {
                let slack = b - dot(a, &x);
                let t = (slack / ap).max(0.0);
                if t < alpha {
                    alpha = t;
                    blocking = Some(i);
                }
            }
        }

        for (xi, pi) in x.iter_mut().zip(&p) {
            *xi += alpha * pi;
        }
        if alpha > options.step_tol {
            blocked_readd = None;
        }
        if let Some(bi) = blocking {
            if alpha < 1.0 {
                w.push(bi);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::QpOptions;
    use crate::model::{Model, Row, Solution};
    use crate::qp::dense::DenseQp;
    use crate::qp::dual_active_set;
    use crate::{ActiveSetSolver, SolveBudget, Solver};

    fn solve(m: &Model) -> Solution {
        let out = ActiveSetSolver::default().solve(m, &SolveBudget::unlimited());
        out.unwrap().solved().unwrap()
    }

    /// `min 0.5 x'diag(h)x + c'x` over free variables.
    fn qp(h: &[f64], c: &[f64]) -> Model {
        let mut m = Model::minimize();
        for (&hj, &cj) in h.iter().zip(c) {
            let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, cj);
            m.add_quad(x, x, hj);
        }
        m
    }

    fn le(m: &mut Model, a: &[f64], b: f64) {
        let vars = m.var_ids();
        m.add_row(Row::le(b).coefs(vars.into_iter().zip(a.iter().copied())));
    }

    #[test]
    fn unconstrained_minimum() {
        // min (x-3)^2 -> x = 3
        let s = solve(&qp(&[2.0], &[-6.0]));
        assert!((s.x[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bound_becomes_active() {
        // min (x-3)^2 with x <= 1 -> x = 1, multiplier 4: raising the rhs
        // lowers the objective at rate 4.
        let mut m = qp(&[2.0], &[-6.0]);
        le(&mut m, &[1.0], 1.0);
        let s = solve(&m);
        assert!((s.x[0] - 1.0).abs() < 1e-8);
        assert!((s.row_duals[0] + 4.0).abs() < 1e-6, "duals={:?}", s.row_duals);
    }

    /// Nocedal & Wright example 16.4: min (x1-1)^2 + (x2-2.5)^2 with five
    /// inequality constraints; optimum at (1.4, 1.7).
    #[test]
    fn nocedal_wright_16_4() {
        let mut m = qp(&[2.0, 2.0], &[-2.0, -5.0]);
        le(&mut m, &[-1.0, 2.0], 2.0);
        le(&mut m, &[1.0, 2.0], 6.0);
        le(&mut m, &[1.0, -2.0], 2.0);
        le(&mut m, &[-1.0, 0.0], 0.0);
        le(&mut m, &[0.0, -1.0], 0.0);
        let s = solve(&m);
        assert!((s.x[0] - 1.4).abs() < 1e-7, "x={:?}", s.x);
        assert!((s.x[1] - 1.7).abs() < 1e-7, "x={:?}", s.x);
    }

    /// Economic-dispatch shaped QP: two quadratic generators, one balance
    /// equality, box bounds. Equal marginal cost at optimum.
    #[test]
    fn dispatch_shaped() {
        // C1 = 0.01 p1^2 + 10 p1, C2 = 0.02 p2^2 + 8 p2, p1 + p2 = 200.
        // Unconstrained equal-lambda: 0.02 p1 + 10 = 0.04 p2 + 8
        // with p1 + p2 = 200 -> 0.02p1 - 0.04(200 - p1) + 2 = 0
        // 0.06 p1 = 6 -> p1 = 100, p2 = 100.
        let mut m = qp(&[0.02, 0.04], &[10.0, 8.0]);
        let vars = m.var_ids();
        m.set_bounds(vars[0], 0.0, 300.0);
        m.set_bounds(vars[1], 0.0, 300.0);
        let balance = m.add_row(Row::eq(200.0).coef(vars[0], 1.0).coef(vars[1], 1.0));
        let s = solve(&m);
        assert!((s.x[0] - 100.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] - 100.0).abs() < 1e-6, "{:?}", s.x);
        // The balance dual is the marginal cost ∂obj/∂demand.
        let lambda = s.row_duals[balance.index()];
        assert!((lambda - 12.0).abs() < 1e-6, "lambda={lambda}");
    }

    /// Binding generator limit forces redistribution.
    #[test]
    fn dispatch_with_binding_limit() {
        let mut m = qp(&[0.02, 0.04], &[10.0, 8.0]);
        let vars = m.var_ids();
        m.set_bounds(vars[0], 0.0, 80.0); // p1 capped below its unconstrained share
        m.set_bounds(vars[1], 0.0, 300.0);
        m.add_row(Row::eq(200.0).coef(vars[0], 1.0).coef(vars[1], 1.0));
        let s = solve(&m);
        assert!((s.x[0] - 80.0).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] - 120.0).abs() < 1e-6, "{:?}", s.x);
    }

    /// Redundant (duplicate) constraints must not break the solver.
    #[test]
    fn tolerates_redundant_rows() {
        let mut m = qp(&[2.0, 2.0], &[-2.0, -2.0]);
        le(&mut m, &[1.0, 0.0], 0.5);
        le(&mut m, &[1.0, 0.0], 0.5); // duplicate
        le(&mut m, &[2.0, 0.0], 1.0); // scaled duplicate
        let s = solve(&m);
        assert!((s.x[0] - 0.5).abs() < 1e-7 && (s.x[1] - 1.0).abs() < 1e-7, "{:?}", s.x);
    }

    /// Positive semidefinite `H`: a two-bus angle-form dispatch whose
    /// angles carry no cost, so the dual method does not apply and the
    /// primal method answers. The 60 MW line limit binds: p = (60, 40).
    #[test]
    fn semidefinite_angle_form_runs_the_primal_method() {
        let w = 100.0;
        let mut m = Model::minimize();
        let p1 = m.add_var(0.0, 200.0, 10.0);
        let p2 = m.add_var(0.0, 200.0, 30.0);
        let t1 = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let t2 = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        m.add_quad(p1, p1, 0.02);
        m.add_quad(p2, p2, 0.04);
        m.add_row(Row::eq(0.0).coef(p1, 1.0).coef(t1, -w).coef(t2, w));
        m.add_row(Row::eq(100.0).coef(p2, 1.0).coef(t1, w).coef(t2, -w));
        m.add_row(Row::eq(0.0).coef(t2, 1.0));
        let limit = m.add_row(Row::le(60.0).coef(t1, w).coef(t2, -w));
        let dense = DenseQp::from_model(&m);
        let unlimited = SolveBudget::unlimited();
        assert!(dual_active_set::solve(&dense, &QpOptions::default(), &unlimited).is_none());
        let s = solve(&m);
        assert!((s.x[0] - 60.0).abs() < 1e-7 && (s.x[1] - 40.0).abs() < 1e-7, "{:?}", s.x);
        // One more MW of line limit moves one MW from p2 to p1: the dual is
        // the marginal-cost gap (0.02·60 + 10) − (0.04·40 + 30) = −20.4.
        assert!((s.row_duals[limit.index()] + 20.4).abs() < 1e-6, "{:?}", s.row_duals);
    }

    #[test]
    fn infeasible_reported() {
        let mut m = qp(&[2.0], &[0.0]);
        le(&mut m, &[1.0], 0.0); // x <= 0
        le(&mut m, &[-1.0], -1.0); // x >= 1
        let res = ActiveSetSolver::default().solve(&m, &SolveBudget::unlimited());
        assert!(matches!(res, Err(crate::OptimError::Infeasible)), "{res:?}");
    }
}
