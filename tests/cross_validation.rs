//! Cross-validation tests: independent implementations in the workspace
//! must agree wherever their domains overlap. These are the checks that
//! stand in for validating against Gurobi/MATPOWER (DESIGN.md §5).

use ed_security::cases::{synthetic, SyntheticConfig};
use ed_security::core::attack::{optimal_attack_with, AttackConfig};
use ed_security::core::dispatch::{DcOpf, Formulation, SafetyGate};
use ed_security::optim::lp::Row;
use ed_security::optim::{ActiveSetSolver, IpmSolver, Model, SolveBudget, Solver};
use ed_security::powerflow::{ac, dc, ptdf::Ptdf, LineId};

/// A QP with a vanishing quadratic term converges to the LP solution.
#[test]
fn qp_degenerates_to_lp() {
    // min 2x + y st x + y >= 3, x,y in [0, 4].
    let mut lp = Model::minimize();
    let x = lp.add_var(0.0, 4.0, 2.0);
    let y = lp.add_var(0.0, 4.0, 1.0);
    lp.add_row(Row::ge(3.0).coef(x, 1.0).coef(y, 1.0));
    let lp_sol = lp.solve().unwrap();

    let mut qp = lp.clone();
    qp.add_quad(x, x, 1e-7);
    qp.add_quad(y, y, 1e-7);
    let qp_sol = ActiveSetSolver::default().solve(&qp, &SolveBudget::unlimited()).unwrap();
    let qp_sol = qp_sol.solved().unwrap();
    assert!((lp_sol.objective - qp_sol.objective).abs() < 1e-3);
    assert!((lp_sol.x[0] - qp_sol.x[0]).abs() < 1e-2);
}

/// The three dispatch routes (angle-LP, angle-QP via tiny quadratic,
/// PTDF-QP) give the same cost on the six-bus system.
#[test]
fn dispatch_routes_agree_on_six_bus() {
    let net = ed_security::cases::six_bus();
    let angle = DcOpf::new(&net).formulation(Formulation::Angle).solve().unwrap();
    let ptdf = DcOpf::new(&net).formulation(Formulation::Ptdf).solve().unwrap();
    assert!((angle.cost - ptdf.cost).abs() < 1e-3 * angle.cost);
    for (a, b) in angle.p_mw.iter().zip(&ptdf.p_mw) {
        assert!((a - b).abs() < 1e-2, "{:?} vs {:?}", angle.p_mw, ptdf.p_mw);
    }
    // LMPs agree across formulations (they are computed very differently:
    // balance-row duals vs energy+congestion decomposition).
    for (a, b) in angle.lmp.iter().zip(&ptdf.lmp) {
        assert!((a - b).abs() < 1e-2, "lmp {:?} vs {:?}", angle.lmp, ptdf.lmp);
    }
}

/// Interior-point and active-set QP agree on a mid-size dispatch.
#[test]
fn qp_methods_agree_on_dispatch() {
    let net = ed_security::cases::six_bus();
    // Build the PTDF-form QP manually through DcOpf by toggling methods is
    // not exposed; instead compare through a raw QP over the generators.
    let ptdf = Ptdf::compute(&net).unwrap();
    let d = net.demand_vector_mw();
    let mut qp = Model::minimize();
    let p: Vec<_> = net
        .gens()
        .iter()
        .map(|g| {
            let v = qp.add_var(g.pmin_mw, g.pmax_mw, g.cost.b);
            qp.add_quad(v, v, 2.0 * g.cost.a);
            v
        })
        .collect();
    qp.add_row(Row::eq(d.iter().sum()).coefs(p.iter().map(|&v| (v, 1.0))));
    for (l, line) in net.lines().iter().enumerate() {
        let base: f64 = d.iter().enumerate().map(|(b, &x)| ptdf.factor(l, b) * x).sum();
        let a: Vec<_> =
            net.gens().iter().zip(&p).map(|(g, &v)| (v, ptdf.factor(l, g.bus.0))).collect();
        qp.add_row(Row::le(line.rating_mva + base).coefs(a.iter().copied()));
        qp.add_row(Row::ge(base - line.rating_mva).coefs(a.iter().copied()));
    }
    let a = ActiveSetSolver::default().solve(&qp, &SolveBudget::unlimited()).unwrap();
    let b = IpmSolver::default().solve(&qp, &SolveBudget::unlimited()).unwrap();
    let (a, b) = (a.solved().unwrap(), b.solved().unwrap());
    assert!((a.objective - b.objective).abs() < 1e-4 * (1.0 + a.objective.abs()));
}

/// The bilevel attack machinery works end-to-end on a synthetic mid-size
/// network with quadratic costs (exact MPEC path, not just the 3-bus toy).
#[test]
fn exact_attack_on_synthetic_30_bus() {
    let net = synthetic(&SyntheticConfig {
        buses: 30,
        lines: 41,
        gens: 6,
        total_demand_mw: 900.0,
        capacity_margin: 1.6,
        seed: 0xED5E,
    })
    .unwrap();
    // Most loaded line under nominal dispatch becomes the DLR target.
    let nominal = DcOpf::new(&net).solve().unwrap();
    let (line, _) = nominal
        .flows_mw
        .iter()
        .enumerate()
        .map(|(i, f)| (i, f.abs() / net.lines()[i].rating_mva))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    let u_static = net.lines()[line].rating_mva;
    let config = AttackConfig::new(vec![LineId(line)])
        .bounds(0.8 * u_static, 1.5 * u_static)
        .true_ratings(vec![u_static]);
    let exact = optimal_attack_with(&net, &config, true).unwrap();
    let heur = optimal_attack_with(&net, &config, false).unwrap();
    assert!(exact.ucap_pct >= heur.ucap_pct - 1e-6);
    // The manipulation stays in band.
    for &ua in &exact.ua_mw {
        assert!(ua >= 0.8 * u_static - 1e-6 && ua <= 1.5 * u_static + 1e-6);
    }
}

/// Repeated evaluations of the same scenario are served by the shared
/// factor pool instead of refactoring the susceptance matrix per call.
///
/// Counters are process-global and other tests in this binary record into
/// them concurrently, so every counter assertion here is a one-sided lower
/// bound (concurrent tallies can only add); the strict "no rebuild on the
/// repeat leg" claim is pinned pollution-free through `Arc` identity of
/// the pooled factors across the leg.
#[test]
fn repeated_scenarios_reuse_pooled_factors() {
    use ed_security::obs;
    use ed_security::powerflow::{pool_env_enabled, FactorCache};
    // A fingerprint unique to this test: its first factorization cannot
    // have been pooled by a sibling test.
    let net = synthetic(&SyntheticConfig {
        buses: 24,
        lines: 34,
        gens: 5,
        total_demand_mw: 700.0,
        capacity_margin: 1.7,
        seed: 0xFAC7_0001,
    })
    .unwrap();
    let ratings: Vec<f64> = net.static_ratings_mva().iter().map(|u| 2.0 * u).collect();
    obs::set_enabled(true);
    let m1 = obs::mark();
    // First leg includes the dispatch itself — the very first solve against
    // this (unique) network, so its factorization miss lands after `m1`.
    let dispatch = DcOpf::new(&net).ratings(&ratings).solve().unwrap();
    let inj = net.injections_mw(&dispatch.p_mw);
    // Three pool-routed consumers per leg: DC solve, PTDF assembly, safety
    // gate.
    let run_ops = || {
        dc::solve(&net, &inj).unwrap();
        Ptdf::compute(&net).unwrap();
        SafetyGate::new(&net).unwrap();
    };
    run_ops();
    let d1 = obs::report_since(&m1);
    let probe_before = FactorCache::shared(&net).unwrap();
    let m2 = obs::mark();
    run_ops();
    run_ops();
    let d2 = obs::report_since(&m2);
    let probe_after = FactorCache::shared(&net).unwrap();
    obs::set_enabled(false);
    // The first leg had to factor at least once (our unique fingerprint).
    assert!(
        d1.counter("powerflow.factor.misses") >= 1,
        "first contact with a unique network must build"
    );
    if pool_env_enabled() {
        // The same Arc'd factors survived the whole repeat leg: our
        // scenario was never rebuilt, i.e. its factor-miss count dropped
        // to zero once pooled.
        assert!(
            std::sync::Arc::ptr_eq(&probe_before, &probe_after),
            "pooled factors were rebuilt during the repeat leg"
        );
        // Both repeat runs were served from the pool (≥ 3 consumers × 2).
        assert!(
            d2.counter("powerflow.factor.pool.hits") >= 6,
            "repeat leg did not hit the factor pool: {:?}",
            d2.counters
        );
    } else {
        // ED_POOL=0: every consumer refactors, by design.
        assert!(
            d2.counter("powerflow.factor.misses") >= 6,
            "pool disabled but repeat leg did not refactor per consumer"
        );
    }
}

/// AC solve of a dispatched operating point reports voltages in a sane
/// band on every bundled case (no silent divergence).
#[test]
fn ac_voltages_in_band_on_all_cases() {
    for net in [ed_security::cases::three_bus(), ed_security::cases::six_bus()] {
        let d = DcOpf::new(&net).solve().unwrap();
        let sol = ac::solve(&net, &d.p_mw).unwrap();
        for &v in &sol.v_pu {
            assert!(v > 0.85 && v < 1.15, "voltage {v} out of band");
        }
    }
}
