//! End-to-end certification contracts: every exact solve in an Algorithm 1
//! sweep carries a passing [`Certificate`] at default tolerances, the
//! `BilevelOptions::certify` gate really gates, and an
//! injected simplex basis-memory fault on the 118-bus KKT LP is detected
//! and repaired by the [`CertifiedSolver`] ladder.
//!
//! (The 118-bus sweep here is node-capped like the determinism test, to
//! stay dev-profile-fast; `attack_gates` gates the same certified floors
//! on the 3-line node-capped sweep in release.)
//!
//! [`Certificate`]: ed_security::optim::Certificate
//! [`CertifiedSolver`]: ed_security::optim::CertifiedSolver

use ed_security::core::attack::kkt::KktModel;
use ed_security::core::attack::{
    optimal_attack_with, AttackConfig, AttackResult, BilevelOptions, BilevelSolver,
};
use ed_security::optim::lp::SimplexOptions;
use ed_security::optim::{
    certify, CertifiedSolver, SimplexSolver, SolveBudget, SolveOutcome, Solver, Tolerances, Trust,
};
use ed_security::powerflow::LineId;

/// Sweep-level certificate invariants shared by every case below: each
/// produced certificate passed, and the report's counters reconcile with
/// the per-subproblem records.
fn assert_all_certified(r: &AttackResult, label: &str) {
    let with_cert = r.subproblems.iter().filter(|s| s.certificate.is_some()).count();
    for s in &r.subproblems {
        if let Some(cert) = &s.certificate {
            assert!(
                cert.passed(),
                "{label}: line {} dir {} failed certification: {cert:?}",
                s.line.0,
                s.direction
            );
        }
    }
    assert_eq!(
        r.sweep.certified + r.sweep.cert_repaired,
        with_cert,
        "{label}: certificate counters must reconcile"
    );
    assert_eq!(r.sweep.uncertified, 0, "{label}: no subproblem may stay uncertified");
    assert_eq!(
        r.sweep.heuristic_floor,
        r.subproblems.iter().filter(|s| s.certificate.is_none()).count(),
        "{label}: uncertified-because-unsolved must be exactly the heuristic floors"
    );
}

fn three_bus_config() -> AttackConfig {
    AttackConfig::new(ed_security::cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0])
}

#[test]
fn three_bus_sweep_certifies_every_exact_solve() {
    let net = ed_security::cases::three_bus();
    let mut config = three_bus_config();
    config.options.certify = Some(true);
    // Unseeded: with the corner heuristic's incumbent hint the exact
    // solves prune at the root ("nothing strictly better exists") and
    // there is no solution to certify.
    config.options.use_heuristic = false;
    let r = optimal_attack_with(&net, &config, true).unwrap();
    assert_all_certified(&r, "three_bus");
    assert!(
        r.sweep.certified >= 1,
        "at least one exact solve must complete and certify: {:?}",
        r.sweep
    );
    assert!(r.sweep.certify_ms >= 0.0);
    // Certification must not change the answer: Table I row (130, 120).
    assert!((r.overload_mw - 80.0).abs() < 1e-4, "overload {}", r.overload_mw);
}

#[test]
fn six_bus_sweep_certifies_every_exact_solve() {
    let net = ed_security::cases::six_bus();
    let dlr = vec![LineId(4), LineId(8)];
    let u_d: Vec<f64> = dlr.iter().map(|l| 0.9 * net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = dlr.iter().map(|l| 0.5 * net.lines()[l.0].rating_mva).collect();
    let hi: Vec<f64> = dlr.iter().map(|l| 2.0 * net.lines()[l.0].rating_mva).collect();
    let mut config = AttackConfig::new(dlr).bounds_per_line(lo, hi).true_ratings(u_d);
    config.options.certify = Some(true);
    config.options.use_heuristic = false;
    let r = optimal_attack_with(&net, &config, true).unwrap();
    assert_all_certified(&r, "six_bus");
    assert!(r.sweep.certified >= 1, "{:?}", r.sweep);
}

#[test]
fn ieee118_sweep_certificates_all_pass() {
    // Node-capped exactly like the determinism test (each node is a full
    // ~1.3k-variable KKT LP solve): subproblems that complete at the root
    // must certify; node-capped ones fall to the heuristic floor and carry
    // no certificate. Either way nothing may be flagged uncertified.
    let net = ed_security::cases::ieee118_like();
    let cap: f64 = net.total_pmax_mw();
    let d = net.total_demand_mw();
    let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
    let flows = ed_security::powerflow::dc::solve(&net, &net.injections_mw(&prop))
        .unwrap()
        .flow_mw;
    let most_loaded = flows
        .iter()
        .enumerate()
        .max_by(|a, b| {
            (a.1.abs() / net.lines()[a.0].rating_mva)
                .total_cmp(&(b.1.abs() / net.lines()[b.0].rating_mva))
        })
        .map(|(i, _)| LineId(i))
        .unwrap();
    let u_d = net.lines()[most_loaded.0].rating_mva;
    let config = AttackConfig::new(vec![most_loaded])
        .bounds(0.8 * u_d, 1.6 * u_d)
        .true_ratings(vec![u_d])
        .solver_options(BilevelOptions {
            node_limit: 1,
            certify: Some(true),
            ..Default::default()
        });
    let r = optimal_attack_with(&net, &config, true).unwrap();
    assert_all_certified(&r, "ieee118_like");
}

#[test]
fn certify_gate_off_produces_no_certificates() {
    let net = ed_security::cases::three_bus();
    let mut config = three_bus_config();
    config.options.certify = Some(false);
    let r = optimal_attack_with(&net, &config, true).unwrap();
    assert!(r.subproblems.iter().all(|s| s.certificate.is_none()));
    assert_eq!(r.sweep.certified + r.sweep.cert_repaired + r.sweep.uncertified, 0);
    assert_eq!(r.sweep.certify_ms, 0.0);
    // The answer itself is unchanged — certification is an audit, not a
    // solver.
    assert!((r.overload_mw - 80.0).abs() < 1e-4);
}

#[test]
fn bigm_sweep_certifies_too() {
    // The big-M reformulation reaches the same certified optimum, so the
    // repair ladder's "alternate reformulation" rung audits like the
    // primary path.
    let net = ed_security::cases::three_bus();
    let mut config = three_bus_config();
    config.options.solver = BilevelSolver::BigM;
    config.options.node_limit = 50_000;
    config.options.certify = Some(true);
    config.options.use_heuristic = false;
    let r = optimal_attack_with(&net, &config, true).unwrap();
    assert_all_certified(&r, "three_bus bigM");
    assert!(r.sweep.certified >= 1, "{:?}", r.sweep);
}

/// The acceptance headline: a corrupted simplex basis on the 118-bus KKT
/// LP (the per-node relaxation of the bilevel subproblems) is *detected*
/// by the independent certificate and *repaired* by the ladder's clean
/// alternate, recovering a certified solution with the true objective.
#[test]
fn ieee118_kkt_lp_basis_fault_detected_and_repaired() {
    let net = ed_security::cases::ieee118_like();
    let u_d = net.lines()[0].rating_mva;
    let config = AttackConfig::new(vec![LineId(0)])
        .bounds(0.8 * u_d, 1.6 * u_d)
        .true_ratings(vec![u_d]);
    let mut kkt = KktModel::build(&net, &config).unwrap();
    kkt.set_flow_objective(LineId(0), 1.0, 1.0);
    // Certify against what the simplex actually solves: the continuous
    // relaxation. (Auditing a root relaxation against the paired MPEC
    // model would report the expected complementarity violations, not
    // solver faults.)
    let lp = kkt.lp.continuous_relaxation();

    let faulty = SimplexSolver {
        options: SimplexOptions { inject_basis_fault: Some(7), ..Default::default() },
    };
    let ladder = CertifiedSolver::new(Box::new(faulty))
        .with_alternate(Box::new(SimplexSolver::default()));
    let out = ladder.solve_certified(&lp, &SolveBudget::unlimited()).unwrap();

    // Detected: the primary answer failed its certificate, and so did the
    // tightened re-solve of the (still faulty) primary.
    assert_eq!(out.repairs.len(), 2, "{:?}", out.repairs);
    assert!(
        !out.repairs[0].certificate.as_ref().unwrap().passed(),
        "the injected fault must fail certification: {:?}",
        out.repairs[0]
    );
    // Repaired: the clean alternate's answer certified.
    assert!(
        matches!(&out.trust, Trust::Repaired { backend } if backend == "simplex"),
        "{:?}",
        out.trust
    );
    let cert = out.certificate.as_ref().unwrap();
    assert!(cert.passed(), "{cert:?}");
    assert!(cert.dual_checked, "the LP repair must be certified on both sides");

    // The repaired solution is the true optimum: it matches an independent
    // clean solve bit-for-bit in objective.
    let repaired = match &out.outcome {
        SolveOutcome::Solved(s) => s,
        SolveOutcome::Partial(_) => panic!("expected a solved outcome"),
    };
    let clean = SimplexSolver::default()
        .solve(&lp, &SolveBudget::unlimited())
        .unwrap()
        .solved()
        .unwrap();
    assert!(certify(&lp, &clean, &Tolerances::default()).passed());
    assert!(
        (repaired.objective - clean.objective).abs() <= 1e-9 * (1.0 + clean.objective.abs()),
        "repaired {} vs clean {}",
        repaired.objective,
        clean.objective
    );
}
