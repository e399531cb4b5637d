//! Round-trip guarantees of the presolve/postsolve pair.
//!
//! Presolve shrinks a linear [`Model`] (fixed-variable elimination,
//! singleton-row bound tightening, empty/duplicate-row removal) and hands
//! back a [`Postsolve`] that must map any reduced-space solution back to
//! the original variable space *exactly* — same optimum, same objective
//! (after the recorded offset). These tests pin that contract on a
//! hand-built LP with a known optimum, then cross-check the full
//! Algorithm 1 sweep with presolve forced on vs off through the
//! `AttackConfig.options.presolve` override.
//!
//! [`Model`]: ed_security::optim::Model
//! [`Postsolve`]: ed_security::optim::Postsolve

use ed_security::core::attack::{optimal_attack_with, AttackConfig, BilevelOptions};
use ed_security::optim::budget::{SolveBudget, SolveOutcome};
use ed_security::optim::lp::Row;
use ed_security::optim::model::presolve;
use ed_security::optim::{Model, SimplexSolver, Solver};
use ed_security::powerflow::LineId;

fn solved<S>(outcome: SolveOutcome<S>) -> S {
    match outcome {
        SolveOutcome::Solved(s) => s,
        SolveOutcome::Partial(_) => panic!("an unlimited budget cannot trip"),
    }
}

/// An LP exercising every reduction: a fixed variable, a duplicate row, an
/// empty row, and a singleton row acting as a bound. The reduced solution
/// must postsolve back to the exact optimum of the original.
#[test]
fn lp_postsolve_restores_exact_optimum() {
    let mut m = Model::minimize();
    let x = m.add_var(0.0, f64::INFINITY, 1.0);
    let y = m.add_var(0.0, f64::INFINITY, 2.0);
    let z = m.add_var(4.0, 4.0, 3.0); // fixed: eliminated, folds 12 into the offset
    m.add_row(Row::ge(2.0).coef(x, 1.0).coef(y, 1.0));
    m.add_row(Row::ge(2.0).coef(x, 1.0).coef(y, 1.0)); // duplicate
    m.add_row(Row::le(5.0).coef(x, 1.0)); // singleton: becomes the bound x ≤ 5
    m.add_row(Row::le(10.0)); // empty, trivially satisfied
    m.add_row(Row::eq(4.0).coef(z, 1.0)); // fixed-variable row, removable

    let direct = solved(SimplexSolver::default().solve(&m, &SolveBudget::unlimited()).unwrap());
    assert!((direct.objective - 14.0).abs() < 1e-9, "obj {}", direct.objective);

    let pre = presolve::presolve(&m).unwrap();
    // The duplicate, singleton, empty and fixed-variable rows go; z goes.
    assert_eq!(pre.stats.rows_removed(), 4, "{:?}", pre.stats);
    assert_eq!(pre.stats.cols_removed(), 1, "{:?}", pre.stats);

    let red = solved(
        SimplexSolver::default().solve(&pre.reduced, &SolveBudget::unlimited()).unwrap(),
    );
    let restored = pre.postsolve.restore_x(&red.x);
    assert_eq!(restored.len(), 3);
    let objective = red.objective + pre.postsolve.obj_offset();
    assert!((objective - direct.objective).abs() < 1e-9);
    for (r, d) in restored.iter().zip(&direct.x) {
        assert!((r - d).abs() < 1e-9, "restored {restored:?} vs direct {:?}", direct.x);
    }
    assert!((m.objective_value(&restored) - 14.0).abs() < 1e-9);
}

fn assert_sweeps_agree(
    net: &ed_security::powerflow::Network,
    config: &AttackConfig,
    label: &str,
) {
    let mut with = config.clone();
    with.options.presolve = Some(true);
    let mut without = config.clone();
    without.options.presolve = Some(false);
    let a = optimal_attack_with(net, &with, true).unwrap();
    let b = optimal_attack_with(net, &without, true).unwrap();
    assert!(
        (a.ucap_pct - b.ucap_pct).abs() <= 1e-9,
        "{label}: ucap {} (presolved) vs {} (direct)",
        a.ucap_pct,
        b.ucap_pct
    );
    assert!(
        (a.overload_mw - b.overload_mw).abs() <= 1e-9,
        "{label}: overload {} vs {}",
        a.overload_mw,
        b.overload_mw
    );
    assert_eq!(a.target, b.target, "{label}: target diverged");
    for (x, y) in a.ua_mw.iter().zip(&b.ua_mw) {
        assert!((x - y).abs() <= 1e-9, "{label}: ua {:?} vs {:?}", a.ua_mw, b.ua_mw);
    }
    // The presolved sweep must actually have shrunk the shared KKT model.
    let stats = a.sweep.presolve.expect("presolve ran");
    assert!(stats.rows_removed() > 0, "{label}: presolve removed no row");
    assert!(stats.cols_removed() > 0, "{label}: presolve removed no column");
    assert!(a.sweep.reduced_vars < a.sweep.full_vars);
    assert!(b.sweep.presolve.is_none());
    assert_eq!(b.sweep.reduced_vars, b.sweep.full_vars);
}

#[test]
fn three_bus_sweep_objective_is_presolve_invariant() {
    let net = ed_security::cases::three_bus();
    let config = AttackConfig::new(ed_security::cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0]);
    assert_sweeps_agree(&net, &config, "three_bus");
}

#[test]
fn six_bus_sweep_objective_is_presolve_invariant() {
    let net = ed_security::cases::six_bus();
    let dlr = vec![LineId(4), LineId(8)];
    let u_d: Vec<f64> = dlr.iter().map(|l| 0.9 * net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = dlr.iter().map(|l| 0.5 * net.lines()[l.0].rating_mva).collect();
    let hi: Vec<f64> = dlr.iter().map(|l| 2.0 * net.lines()[l.0].rating_mva).collect();
    let config = AttackConfig::new(dlr).bounds_per_line(lo, hi).true_ratings(u_d);
    assert_sweeps_agree(&net, &config, "six_bus");
}

#[test]
fn ieee118_sweep_objective_is_presolve_invariant() {
    // Same target selection as the determinism test; node_limit 1 keeps
    // each subproblem at its root relaxation (a full-depth 118-bus sweep
    // costs minutes per node in the dev profile). The heuristic floor and
    // the shared model dimensions are what the cross-check pins here.
    let net = ed_security::cases::ieee118_like();
    let cap: f64 = net.total_pmax_mw();
    let d = net.total_demand_mw();
    let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
    let flows = ed_security::powerflow::dc::solve(&net, &net.injections_mw(&prop))
        .unwrap()
        .flow_mw;
    let mut loading: Vec<(usize, f64)> = flows
        .iter()
        .enumerate()
        .map(|(i, &f)| (i, f.abs() / net.lines()[i].rating_mva))
        .collect();
    loading.sort_by(|a, b| b.1.total_cmp(&a.1));
    let dlr: Vec<LineId> = loading.iter().take(2).map(|&(i, _)| LineId(i)).collect();
    let u_d: Vec<f64> = dlr.iter().map(|l| net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = u_d.iter().map(|u| 0.8 * u).collect();
    let hi: Vec<f64> = u_d.iter().map(|u| 1.6 * u).collect();
    let config = AttackConfig::new(dlr)
        .bounds_per_line(lo, hi)
        .true_ratings(u_d)
        .solver_options(BilevelOptions { node_limit: 1, ..Default::default() });
    assert_sweeps_agree(&net, &config, "ieee118_like");
}
