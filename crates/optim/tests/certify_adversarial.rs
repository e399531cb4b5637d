//! Adversarial certification tests: hand-built LP/QP/MILP instances with
//! *known-wrong* solutions, each of which must fail certification with the
//! right status — plus the repair-ladder contract under an injected simplex
//! basis fault.

use ed_optim::lp::SimplexOptions;
use ed_optim::model::Row;
use ed_optim::{
    certify, CertStatus, CertifiedSolver, Model, SimplexSolver, Solution, SolveBudget,
    SolveOutcome, Solver, Tolerances, Trust,
};

/// min 2x + 3y s.t. x + y ≥ 4, 0 ≤ x, y ≤ 10 — optimum (4, 0), objective 8,
/// row dual 2 (stated sense), reduced costs (0, 1).
fn lp() -> Model {
    let mut m = Model::minimize();
    let x = m.add_var(0.0, 10.0, 2.0);
    let y = m.add_var(0.0, 10.0, 3.0);
    m.add_row(Row::ge(4.0).coef(x, 1.0).coef(y, 1.0));
    m
}

fn solve(m: &Model) -> Solution {
    SimplexSolver::default()
        .solve(m, &SolveBudget::unlimited())
        .unwrap()
        .solved()
        .unwrap()
}

fn primal_only(x: Vec<f64>, objective: f64) -> Solution {
    Solution {
        x,
        objective,
        row_duals: Vec::new(),
        reduced_costs: Vec::new(),
        proved_optimal: true,
        iterations: 0,
        nodes: 0,
    }
}

#[test]
fn infeasible_point_fails_primal() {
    let m = lp();
    // (1, 1) violates x + y ≥ 4; the claimed objective is even consistent.
    let cert = certify(&m, &primal_only(vec![1.0, 1.0], 5.0), &Tolerances::default());
    assert_eq!(cert.status, CertStatus::PrimalInfeasible);
    assert!(cert.worst_residuals.primal > 0.1);
}

#[test]
fn out_of_bounds_point_fails_primal() {
    let m = lp();
    // x = 14 satisfies the row but violates its upper bound of 10.
    let cert = certify(&m, &primal_only(vec![14.0, 0.0], 28.0), &Tolerances::default());
    assert_eq!(cert.status, CertStatus::PrimalInfeasible);
}

#[test]
fn suboptimal_vertex_with_optimal_duals_fails_slackness() {
    let m = lp();
    let opt = solve(&m);
    // Feasible but suboptimal vertex (10, 0), objective honestly recomputed
    // — only the *dual-side* cross-checks can catch this one: the row dual
    // of 2 multiplies a slack of 6.
    let wrong = Solution {
        x: vec![10.0, 0.0],
        objective: m.objective_value(&[10.0, 0.0]),
        ..opt
    };
    let cert = certify(&m, &wrong, &Tolerances::default());
    assert!(!cert.passed());
    assert_eq!(cert.status, CertStatus::ComplementarityViolated, "{cert:?}");
}

#[test]
fn wrong_sign_dual_fails_dual_feasibility() {
    let m = lp();
    let mut s = solve(&m);
    // A Ge row in a minimization has a nonnegative stated-sense dual;
    // flipping it is dual-infeasible regardless of anything else.
    s.row_duals[0] = -s.row_duals[0];
    let cert = certify(&m, &s, &Tolerances::default());
    assert_eq!(cert.status, CertStatus::DualInfeasible, "{cert:?}");
}

#[test]
fn corrupted_reduced_cost_breaks_stationarity() {
    let m = lp();
    let mut s = solve(&m);
    // Zeroing the reduced costs leaves signs legal (0 is always admissible)
    // but breaks c − Aᵀy − rc = 0 in the y coordinate.
    for rc in &mut s.reduced_costs {
        *rc = 0.0;
    }
    let cert = certify(&m, &s, &Tolerances::default());
    assert_eq!(cert.status, CertStatus::StationarityViolated, "{cert:?}");
}

#[test]
fn lied_objective_is_a_mismatch() {
    let m = lp();
    // Correct optimal point, fraudulent objective report.
    let cert = certify(&m, &primal_only(vec![4.0, 0.0], 1.0), &Tolerances::default());
    assert_eq!(cert.status, CertStatus::ObjectiveMismatch);
}

#[test]
fn fractional_integer_fails_integrality() {
    // max 5x + 4y, 6x + 4y ≤ 24, x + 2y ≤ 6, x and y integer. The LP
    // relaxation's vertex (3, 1.5) is exactly the classic wrong answer a
    // broken branch-and-bound would return.
    let mut m = Model::maximize();
    let x = m.add_var(0.0, 10.0, 5.0);
    let y = m.add_var(0.0, 10.0, 4.0);
    m.add_row(Row::le(24.0).coef(x, 6.0).coef(y, 4.0));
    m.add_row(Row::le(6.0).coef(x, 1.0).coef(y, 2.0));
    m.set_integer(x);
    m.set_integer(y);
    let relaxed = primal_only(vec![3.0, 1.5], 21.0);
    let cert = certify(&m, &relaxed, &Tolerances::default());
    assert_eq!(cert.status, CertStatus::IntegralityViolated);
    assert!(!cert.dual_checked, "MILP certificates are primal-side only");
}

#[test]
fn wrong_qp_point_fails_stationarity() {
    // min x² − 4x over 0 ≤ x ≤ 10 (i.e. (x−2)² − 4): optimum x = 2. The
    // point x = 0 is feasible with an honestly-recomputed objective; only
    // the gradient condition exposes it.
    let mut m = Model::minimize();
    let x = m.add_var(0.0, 10.0, -4.0);
    m.add_quad(x, x, 2.0);
    let opt = ed_optim::ActiveSetSolver::default()
        .solve(&m, &SolveBudget::unlimited())
        .unwrap()
        .solved()
        .unwrap();
    assert!((opt.x[0] - 2.0).abs() < 1e-6);
    assert!(certify(&m, &opt, &Tolerances::default()).passed());
    let wrong = Solution { x: vec![0.0], objective: 0.0, ..opt };
    let cert = certify(&m, &wrong, &Tolerances::default());
    assert!(!cert.passed());
    assert_eq!(cert.status, CertStatus::StationarityViolated, "{cert:?}");
}

#[test]
fn mpec_pair_violation_detected() {
    let mut m = Model::maximize();
    let x = m.add_var(0.0, 2.0, 1.0);
    let y = m.add_var(0.0, 2.0, 1.0);
    m.add_row(Row::le(3.0).coef(x, 1.0).coef(y, 1.0));
    m.add_pair(x, y);
    // (1.5, 1.5) satisfies every constraint except the disjunction.
    let cert = certify(&m, &primal_only(vec![1.5, 1.5], 3.0), &Tolerances::default());
    assert_eq!(cert.status, CertStatus::ComplementarityViolated);
}

/// The fault-injection contract end to end at unit scale: a simplex whose
/// solution vector is corrupted after the bookkeeping is read produces an
/// answer whose duals/objective describe a *different* point — certify
/// must catch it, and the ladder's clean alternate must repair it.
#[test]
fn injected_basis_fault_is_detected_and_repaired() {
    let m = lp();
    let faulty = SimplexSolver {
        options: SimplexOptions { inject_basis_fault: Some(7), ..Default::default() },
    };
    // Sanity: the faulty backend really does return a wrong answer.
    let bad = faulty.solve(&m, &SolveBudget::unlimited()).unwrap().solved().unwrap();
    assert!(!certify(&m, &bad, &Tolerances::default()).passed());

    let ladder = CertifiedSolver::new(Box::new(faulty))
        .with_alternate(Box::new(SimplexSolver::default()));
    let out = ladder.solve_certified(&m, &SolveBudget::unlimited()).unwrap();
    assert!(
        matches!(&out.trust, Trust::Repaired { backend } if backend == "simplex"),
        "{:?}",
        out.trust
    );
    assert!(out.certificate.as_ref().unwrap().passed());
    // The tightened re-solve of the (still faulty) primary must have been
    // tried and rejected before the alternate was consulted.
    assert!(out.repairs.len() == 2, "{:?}", out.repairs);
    assert!(!out.repairs[0].certificate.as_ref().unwrap().passed());
    let repaired = match out.outcome {
        SolveOutcome::Solved(s) => s,
        SolveOutcome::Partial(_) => panic!("expected a solved outcome"),
    };
    assert!((repaired.objective - 8.0).abs() < 1e-9);
    assert!((repaired.x[0] - 4.0).abs() < 1e-9);
}

/// With no healthy alternate, the ladder must hand back the primary answer
/// flagged as uncertified.
#[test]
fn unrepairable_fault_is_flagged_uncertified() {
    let m = lp();
    let faulty = SimplexSolver {
        options: SimplexOptions { inject_basis_fault: Some(7), ..Default::default() },
    };
    let ladder = CertifiedSolver::new(Box::new(faulty));
    let out = ladder.solve_certified(&m, &SolveBudget::unlimited()).unwrap();
    assert_eq!(out.trust, Trust::Uncertified);
    assert!(!out.certificate.as_ref().unwrap().passed());
}
