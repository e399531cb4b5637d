//! Generative tests for the LP/QP/MILP/MPEC solvers.
//!
//! The central trick: generate problems around a *known feasible point* so
//! feasibility is guaranteed by construction, then check solver outputs
//! against first principles (feasibility of the optimum, weak-duality-style
//! bounds, cross-solver agreement). Formerly proptest-based; rewritten as
//! seeded loops over [`ed_rng`] so the workspace builds offline.

use ed_optim::branch_bound::{self, BranchOptions, BranchSolution};
use ed_optim::lp::Row;
use ed_optim::{ActiveSetSolver, IpmSolver, Model, OptimError, SolveBudget, Solver};
use ed_rng::{Rng, SeedableRng, StdRng};

/// An LP built around a feasible anchor point: vars in [0, 10], rows
/// `a'x <= a'x0 + slack` with `slack >= 0`, so `x0` is always feasible.
fn anchored_lp(nvars: usize, nrows: usize, rng: &mut StdRng) -> (Model, Vec<f64>) {
    let x0: Vec<f64> = (0..nvars).map(|_| rng.gen_range(0.0..10.0)).collect();
    let costs: Vec<f64> = (0..nvars).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let mut lp = Model::minimize();
    let vars: Vec<_> = costs.iter().map(|&c| lp.add_var(0.0, 10.0, c)).collect();
    for _ in 0..nrows {
        let coefs: Vec<f64> = (0..nvars).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let slack = rng.gen_range(0.0..5.0);
        let activity: f64 = coefs.iter().zip(&x0).map(|(a, x)| a * x).sum();
        lp.add_row(
            Row::le(activity + slack).coefs(vars.iter().zip(&coefs).map(|(&v, &c)| (v, c))),
        );
    }
    (lp, x0)
}

fn solve(model: &Model, options: &BranchOptions) -> Result<BranchSolution, OptimError> {
    Ok(branch_bound::solve(model, options, &SolveBudget::unlimited())?.solved().unwrap())
}

/// The LP optimum is feasible and no worse than the anchor point.
#[test]
fn lp_optimal_beats_anchor() {
    let mut rng = StdRng::seed_from_u64(0x0C01);
    for _ in 0..48 {
        let (lp, x0) = anchored_lp(6, 8, &mut rng);
        let sol = lp.solve().unwrap();
        assert!(lp.infeasibility(&sol.x) < 1e-6, "optimum infeasible");
        let anchor_obj = lp.objective_value(&x0);
        assert!(
            sol.objective <= anchor_obj + 1e-7,
            "optimum {} worse than known feasible {}",
            sol.objective,
            anchor_obj
        );
    }
}

/// Reduced costs certify optimality: at the optimum of a minimization,
/// variables at lower bound have nonnegative reduced cost and variables
/// at upper bound nonpositive.
#[test]
fn lp_reduced_cost_signs() {
    let mut rng = StdRng::seed_from_u64(0x0C02);
    for _ in 0..48 {
        let (lp, _x0) = anchored_lp(5, 6, &mut rng);
        let sol = lp.solve().unwrap();
        for (j, &x) in sol.x.iter().enumerate() {
            let d = sol.reduced_costs[j];
            if x < 1e-9 {
                assert!(d >= -1e-6, "var {j} at lb with reduced cost {d}");
            } else if x > 10.0 - 1e-9 {
                assert!(d <= 1e-6, "var {j} at ub with reduced cost {d}");
            } else {
                assert!(d.abs() < 1e-6, "basic var {j} with reduced cost {d}");
            }
        }
    }
}

/// Active-set and interior-point QP solvers agree on anchored QPs.
#[test]
fn qp_methods_agree() {
    let mut rng = StdRng::seed_from_u64(0x0C03);
    for _ in 0..48 {
        let n = 5;
        let diag: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
        let lin: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let total = rng.gen_range(5.0..40.0);
        let mut qp = Model::minimize();
        let vars: Vec<_> = (0..n)
            .map(|j| {
                let v = qp.add_var(0.0, 10.0, lin[j]);
                qp.add_quad(v, v, diag[j]);
                v
            })
            .collect();
        qp.add_row(Row::eq(total).coefs(vars.into_iter().map(|v| (v, 1.0))));
        let budget = SolveBudget::unlimited();
        let active = ActiveSetSolver::default().solve(&qp, &budget).map(|o| o.solved().unwrap());
        let ipm = IpmSolver::default().solve(&qp, &budget).map(|o| o.solved().unwrap());
        match (active, ipm) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.objective - b.objective).abs() < 1e-4 * (1.0 + a.objective.abs()),
                    "objectives differ: {} vs {}",
                    a.objective,
                    b.objective
                );
            }
            // Both should agree on infeasibility too (total > 50 impossible).
            (Err(_), Err(_)) => {}
            (a, b) => panic!("solvers disagree on feasibility: {a:?} vs {b:?}"),
        }
    }
}

/// MILP optimum is never better than its LP relaxation and never worse
/// than any feasible rounding we can construct.
#[test]
fn milp_sandwiched() {
    let mut rng = StdRng::seed_from_u64(0x0C04);
    for _ in 0..48 {
        let (lp, _x0) = anchored_lp(5, 4, &mut rng);
        let relaxed = lp.solve().unwrap();
        let mut milp = lp.clone();
        for v in lp.var_ids() {
            milp.set_integer(v);
        }
        match solve(&milp, &BranchOptions::integers()) {
            Ok(sol) => {
                // Minimization: integer optimum >= relaxation.
                assert!(sol.objective >= relaxed.objective - 1e-6);
                for &xi in &sol.x {
                    assert!((xi - xi.round()).abs() < 1e-6);
                }
                assert!(lp.infeasibility(&sol.x) < 1e-6);
            }
            Err(OptimError::Infeasible) => {} // no integer point in the polytope
            Err(e) => panic!("unexpected: {e}"),
        }
    }
}

/// MPEC solutions satisfy every complementarity pair.
#[test]
fn mpec_complementary() {
    let mut rng = StdRng::seed_from_u64(0x0C05);
    for _ in 0..48 {
        let costs: Vec<f64> = (0..6).map(|_| rng.gen_range(0.1..3.0)).collect();
        let mut lp = Model::maximize();
        let vars: Vec<_> = costs.iter().map(|&c| lp.add_var(0.0, 4.0, c)).collect();
        // Couple consecutive variables.
        let pairs: Vec<_> = vars.windows(2).map(|w| (w[0], w[1])).collect();
        for &(a, b) in &pairs {
            lp.add_pair(a, b);
        }
        let sol = solve(&lp, &BranchOptions::pairs()).unwrap();
        for (a, b) in pairs {
            let prod = sol.x[a.index()] * sol.x[b.index()];
            assert!(prod.abs() < 1e-6, "pair violated: {prod}");
        }
    }
}
