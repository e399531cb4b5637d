//! Primal-dual interior-point method for convex QP.
//!
//! Shares no code with the active-set methods, which answer every dispatch:
//! the reference tests check the active set against it, and
//! `ed-core`'s certified dispatch tries it last when an answer fails its
//! certificate. It is reached through [`IpmSolver`](crate::IpmSolver).
//!
//! Standard infeasible-start formulation with slacks `s ≥ 0` on the
//! inequalities, Newton steps on the perturbed KKT system reduced to the
//! `(x, y)` block, a fraction-to-boundary step rule, and a fixed centering
//! parameter.

use crate::budget::{Partial, SolveBudget, SolveOutcome};
use crate::qp::dense::{DenseQp, QpSolution};
use crate::OptimError;
use ed_linalg::{dot, Lu, Matrix};

/// Maximum Newton iterations.
const MAX_ITERATIONS: usize = 120;
/// Centering parameter `σ ∈ (0,1)`.
const SIGMA: f64 = 0.15;

/// Options for the interior-point solver: the tolerance
/// [`Solver::with_tolerances`](crate::Solver::with_tolerances) retargets.
#[derive(Debug, Clone)]
pub struct IpmOptions {
    /// Convergence tolerance on residuals and the complementarity gap
    /// (relative to problem scale).
    pub tol: f64,
}

impl Default for IpmOptions {
    fn default() -> Self {
        IpmOptions { tol: crate::certify::Tolerances::default().opt }
    }
}

/// Budgeted interior-point solve. Interior iterates are **not** primal
/// feasible, so a budget trip returns `x: None` — callers must fall back to
/// another rung rather than dispatch a half-converged interior point.
///
/// # Errors
///
/// - [`OptimError::Infeasible`] if the iteration converges to a
///   certificate-free stall with large primal residual (practical
///   infeasibility detection).
/// - [`OptimError::IterationLimit`] / [`OptimError::Numerical`] otherwise.
pub(crate) fn solve_budgeted(
    qp: &DenseQp,
    options: &IpmOptions,
    budget: &SolveBudget,
) -> Result<SolveOutcome<QpSolution>, OptimError> {
    let _t = ed_obs::timer("optim.ipm");
    let out = solve_budgeted_inner(qp, options, budget);
    if ed_obs::enabled() {
        let iterations = match &out {
            Ok(SolveOutcome::Solved(s)) => s.iterations,
            Ok(SolveOutcome::Partial(p)) => p.iterations,
            Err(_) => 0,
        };
        ed_obs::counter("optim.ipm.solves", 1);
        ed_obs::counter("optim.ipm.iterations", iterations as u64);
    }
    out
}

fn solve_budgeted_inner(
    qp: &DenseQp,
    options: &IpmOptions,
    budget: &SolveBudget,
) -> Result<SolveOutcome<QpSolution>, OptimError> {
    let n = qp.n;
    let me = qp.a_eq.len();
    let mi = qp.a_in.len();
    if mi == 0 && me == 0 {
        // Unconstrained: Newton step from zero.
        let lu = Lu::factor(&qp.h).map_err(|_| OptimError::Numerical {
            what: "unconstrained QP with singular Hessian".into(),
        })?;
        let x = lu.solve(&qp.c.iter().map(|c| -c).collect::<Vec<_>>())?;
        return Ok(SolveOutcome::Solved(QpSolution {
            x,
            eq_duals: Vec::new(),
            ineq_duals: Vec::new(),
            iterations: 1,
        }));
    }

    let scale = 1.0
        + qp.b_in.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
        + qp.b_eq.iter().fold(0.0_f64, |m, v| m.max(v.abs()));

    // Start: x = 0, y = 0, s = max(b - Ax, 1), λ = 1.
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; me];
    let mut s: Vec<f64> = qp
        .a_in
        .iter()
        .zip(&qp.b_in)
        .map(|(a, &b)| (b - dot(a, &x)).max(1.0))
        .collect();
    let mut lam = vec![1.0; mi];

    for iter in 0..MAX_ITERATIONS {
        if !budget.is_unlimited() {
            if let Some(tripped) = budget.iter_tripped(iter) {
                return Ok(SolveOutcome::Partial(Partial {
                    tripped,
                    x: None, // interior iterates are not primal feasible
                    objective: None,
                    bound: None,
                    iterations: iter,
                    nodes: 0,
                    warm_starts: 0,
                    cold_restarts: 0,
                }));
            }
        }
        // Residuals.
        let hx = qp.h.matvec(&x)?;
        let mut r_d: Vec<f64> = (0..n).map(|j| hx[j] + qp.c[j]).collect();
        for (a, &yi) in qp.a_eq.iter().zip(&y) {
            for j in 0..n {
                r_d[j] += a[j] * yi;
            }
        }
        for (a, &li) in qp.a_in.iter().zip(&lam) {
            for j in 0..n {
                r_d[j] += a[j] * li;
            }
        }
        let r_e: Vec<f64> = qp
            .a_eq
            .iter()
            .zip(&qp.b_eq)
            .map(|(a, &b)| dot(a, &x) - b)
            .collect();
        let r_i: Vec<f64> = qp
            .a_in
            .iter()
            .zip(&qp.b_in)
            .zip(&s)
            .map(|((a, &b), &si)| dot(a, &x) + si - b)
            .collect();
        let gap = if mi > 0 { dot(&s, &lam) / mi as f64 } else { 0.0 };

        let worst = ed_linalg::norm_inf(&r_d)
            .max(ed_linalg::norm_inf(&r_e))
            .max(ed_linalg::norm_inf(&r_i))
            .max(gap);
        if worst <= options.tol * scale {
            return Ok(SolveOutcome::Solved(QpSolution {
                x,
                eq_duals: y,
                ineq_duals: lam,
                iterations: iter + 1,
            }));
        }
        // Practical infeasibility: multipliers blowing up with a stubborn
        // primal residual.
        let lam_max = lam.iter().cloned().fold(0.0_f64, f64::max);
        if lam_max > 1e12 {
            return Err(OptimError::Infeasible);
        }

        // Reduced Newton system on (Δx, Δy):
        //   [H + Σ (λ_i/s_i) a_i a_i',  A_e'] [Δx]   [-r_d - Σ a_i (λ_i r_i^c)/s_i]
        //   [A_e,                        0  ] [Δy] = [-r_e]
        // where r_i^c folds the complementarity target μσ.
        let mu_target = SIGMA * gap;
        let dim = n + me;
        let mut kkt = Matrix::zeros(dim, dim);
        for i in 0..n {
            for j in 0..n {
                kkt[(i, j)] = qp.h[(i, j)];
            }
        }
        let mut rhs = vec![0.0; dim];
        for j in 0..n {
            rhs[j] = -r_d[j];
        }
        for i in 0..mi {
            let w = lam[i] / s[i];
            let a = &qp.a_in[i];
            // rank-one update w * a a'
            for p in 0..n {
                let ap = a[p];
                if ap == 0.0 {
                    continue;
                }
                for q in 0..n {
                    kkt[(p, q)] += w * ap * a[q];
                }
                // Complementarity-folded rhs with Δs = -r_i - a'Δx:
                // Δλ_i = σμ/s_i - λ_i + w_i r_i + w_i a'Δx, so the constant
                // part (σμ + λ_i r_i)/s_i - λ_i moves to the rhs.
                rhs[p] -= ap * ((mu_target + lam[i] * r_i[i]) / s[i] - lam[i]);
            }
        }
        for (r, a) in qp.a_eq.iter().enumerate() {
            for j in 0..n {
                kkt[(n + r, j)] = a[j];
                kkt[(j, n + r)] = a[j];
            }
            kkt[(n + r, n + r)] = -1e-12; // tiny regularization
            rhs[n + r] = -r_e[r];
        }
        let lu = Lu::factor(&kkt).map_err(|e| OptimError::Numerical {
            what: format!("IPM KKT factorization failed: {e}"),
        })?;
        let delta = lu.solve(&rhs)?;
        let dx = &delta[..n];
        let dy = &delta[n..];

        // Recover Δs, Δλ.
        let mut ds = vec![0.0; mi];
        let mut dl = vec![0.0; mi];
        for i in 0..mi {
            ds[i] = -r_i[i] - dot(&qp.a_in[i], dx);
            dl[i] = (mu_target - lam[i] * ds[i]) / s[i] - lam[i];
        }

        // Fraction-to-boundary step.
        let mut alpha: f64 = 1.0;
        for i in 0..mi {
            if ds[i] < 0.0 {
                alpha = alpha.min(-0.995 * s[i] / ds[i]);
            }
            if dl[i] < 0.0 {
                alpha = alpha.min(-0.995 * lam[i] / dl[i]);
            }
        }
        for j in 0..n {
            x[j] += alpha * dx[j];
        }
        for (yi, d) in y.iter_mut().zip(dy) {
            *yi += alpha * d;
        }
        for i in 0..mi {
            s[i] += alpha * ds[i];
            lam[i] += alpha * dl[i];
        }
    }
    // No feasible incumbent to attach: interior iterates violate the
    // constraints until convergence.
    Err(OptimError::IterationLimit { limit: MAX_ITERATIONS, incumbent: None })
}

#[cfg(test)]
mod tests {
    use crate::model::{Model, Row, Solution};
    use crate::{ActiveSetSolver, IpmSolver, OptimError, SolveBudget, Solver};

    fn solve_ipm(m: &Model) -> Result<Solution, OptimError> {
        Ok(IpmSolver::default().solve(m, &SolveBudget::unlimited())?.solved().unwrap())
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
    fn matches_active_set_on_nocedal_example() {
        let mut m = qp(&[2.0, 2.0], &[-2.0, -5.0]);
        le(&mut m, &[-1.0, 2.0], 2.0);
        le(&mut m, &[1.0, 2.0], 6.0);
        le(&mut m, &[1.0, -2.0], 2.0);
        le(&mut m, &[-1.0, 0.0], 0.0);
        le(&mut m, &[0.0, -1.0], 0.0);
        let s = solve_ipm(&m).unwrap();
        assert!((s.x[0] - 1.4).abs() < 1e-6, "{:?}", s.x);
        assert!((s.x[1] - 1.7).abs() < 1e-6, "{:?}", s.x);
    }

    #[test]
    fn equality_constrained() {
        // min x² + y² st x + y = 2 -> (1, 1) with ∂obj/∂rhs = 2.
        let mut m = qp(&[2.0, 2.0], &[0.0, 0.0]);
        let vars = m.var_ids();
        let row = m.add_row(Row::eq(2.0).coef(vars[0], 1.0).coef(vars[1], 1.0));
        let s = solve_ipm(&m).unwrap();
        assert!((s.x[0] - 1.0).abs() < 1e-7 && (s.x[1] - 1.0).abs() < 1e-7);
        assert!((s.row_duals[row.index()] - 2.0).abs() < 1e-5, "{:?}", s.row_duals);
    }

    #[test]
    fn dispatch_duals_match_active_set() {
        let mut m = qp(&[0.02, 0.04], &[10.0, 8.0]);
        let vars = m.var_ids();
        m.set_bounds(vars[0], 0.0, 300.0);
        m.set_bounds(vars[1], 0.0, 300.0);
        let balance = m.add_row(Row::eq(200.0).coef(vars[0], 1.0).coef(vars[1], 1.0));
        let s = solve_ipm(&m).unwrap();
        assert!((s.x[0] - 100.0).abs() < 1e-5, "{:?}", s.x);
        assert!((s.row_duals[balance.index()] - 12.0).abs() < 1e-4);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = qp(&[2.0], &[0.0]);
        le(&mut m, &[1.0], 0.0);
        le(&mut m, &[-1.0], -1.0);
        assert!(solve_ipm(&m).is_err());
    }

    #[test]
    fn active_set_agrees_with_interior_point() {
        let mut m = qp(&[2.0, 2.0], &[-2.0, -2.0]);
        le(&mut m, &[1.0, 0.0], 0.5);
        for s in [
            solve_ipm(&m).unwrap(),
            ActiveSetSolver::default().solve(&m, &SolveBudget::unlimited()).unwrap().solved().unwrap(),
        ] {
            assert!((s.x[0] - 0.5).abs() < 1e-6 && (s.x[1] - 1.0).abs() < 1e-6, "{:?}", s.x);
        }
    }
}
