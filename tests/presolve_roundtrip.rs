//! Round-trip guarantees of the presolve/postsolve pair.
//!
//! Presolve shrinks a [`Model`] (fixed-variable elimination, singleton-row
//! bound tightening, empty/duplicate-row removal, power-of-two scaling) and
//! hands back a [`Postsolve`] that must map any reduced-space solution back
//! to the original variable space *exactly* — same optimum, same objective
//! (after the recorded offset), for LPs, QPs and MILPs alike. These tests
//! pin that contract on hand-built problems with known optima, then
//! cross-check the full Algorithm 1 sweep with presolve forced on vs off
//! through the `AttackConfig.options.presolve` override.
//!
//! [`Model`]: ed_security::optim::Model
//! [`Postsolve`]: ed_security::optim::Postsolve

use ed_security::core::attack::{optimal_attack_with, AttackConfig, BilevelOptions};
use ed_security::optim::branch_bound::{self, BranchOptions};
use ed_security::optim::budget::{SolveBudget, SolveOutcome};
use ed_security::optim::lp::Row;
use ed_security::optim::model::presolve;
use ed_security::optim::{ActiveSetSolver, Model, SimplexSolver, Solver};
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
    assert!(pre.stats.rows_removed() > 0, "no rows removed: {:?}", pre.stats);
    assert!(pre.stats.cols_removed() > 0, "no cols removed: {:?}", pre.stats);
    assert!(pre.stats.reduction_ratio() > 0.0);

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

/// Same contract for a strictly convex QP: the fixed variable's linear term
/// folds into the offset, the quadratic terms are remapped (and rescaled)
/// into the reduced model, and the active-set solution postsolves back to
/// the known optimum x = y = 1/2.
#[test]
fn qp_postsolve_restores_exact_optimum() {
    let mut m = Model::minimize();
    let x = m.add_var(0.0, f64::INFINITY, -1.0);
    let y = m.add_var(0.0, f64::INFINITY, -1.0);
    let z = m.add_var(1.0, 1.0, 10.0); // fixed: contributes 10 to the offset
    m.add_quad(x, x, 1.0);
    m.add_quad(y, y, 1.0);
    m.add_row(Row::eq(1.0).coef(x, 1.0).coef(y, 1.0));
    m.add_row(Row::le(3.0).coef(z, 1.0)); // redundant once z is fixed

    let pre = presolve::presolve(&m).unwrap();
    assert!(pre.stats.cols_removed() > 0, "fixed column not eliminated: {:?}", pre.stats);

    let red = solved(
        ActiveSetSolver::default().solve(&pre.reduced, &SolveBudget::unlimited()).unwrap(),
    );
    let restored = pre.postsolve.restore_x(&red.x);
    let objective = red.objective + pre.postsolve.obj_offset();
    // Optimum: x = y = 1/2, objective 0.5·(1/4 + 1/4) − 1 + 10 = 9.25.
    assert!((objective - 9.25).abs() < 1e-9, "obj {objective}");
    assert!((restored[0] - 0.5).abs() < 1e-9, "x {restored:?}");
    assert!((restored[1] - 0.5).abs() < 1e-9, "x {restored:?}");
    assert!((restored[2] - 1.0).abs() < 1e-9, "x {restored:?}");
    assert!((m.objective_value(&restored) - 9.25).abs() < 1e-9);
}

/// Presolving before branch and bound must not change the integer
/// optimum: the presolved MILP, its answer mapped back, lands on the point
/// and objective of the MILP solved as stated (max 5x + 4y + 3w with w
/// fixed: 20 + 6 = 26).
#[test]
fn milp_presolve_matches_unpresolved_optimum() {
    let mut m = Model::maximize();
    let x = m.add_var(0.0, 10.0, 5.0);
    let y = m.add_var(0.0, 10.0, 4.0);
    let _w = m.add_var(2.0, 2.0, 3.0); // fixed continuous rider
    m.add_row(Row::le(24.0).coef(x, 6.0).coef(y, 4.0));
    m.add_row(Row::le(6.0).coef(x, 1.0).coef(y, 2.0));
    m.set_integer(x);
    m.set_integer(y);
    let solve = |m: &Model| {
        let opts = BranchOptions::integers();
        branch_bound::solve(m, &opts, &SolveBudget::unlimited()).unwrap().solved().unwrap()
    };
    let pre = presolve::presolve(&m).unwrap();
    let (on, off) = (solve(&pre.reduced), solve(&m));
    assert!(on.proved_optimal && off.proved_optimal);
    let on_x = pre.postsolve.restore_x(&on.x);
    let on_objective = on.objective + pre.postsolve.obj_offset();
    assert!((on_objective - 26.0).abs() < 1e-9, "obj {on_objective}");
    assert!((on_objective - off.objective).abs() < 1e-9);
    assert_eq!(on_x.len(), off.x.len());
    for (a, b) in on_x.iter().zip(&off.x) {
        assert!((a - b).abs() < 1e-9, "{on_x:?} vs {:?}", off.x);
    }
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
    assert!(a.sweep.reduction_ratio() > 0.0, "{label}: presolve removed nothing");
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
