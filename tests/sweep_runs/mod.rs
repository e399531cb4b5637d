//! The 55 Algorithm 1 sweeps that `tests/sweep_bits.rs` pins bit for bit
//! and `tests/sweep_answers.rs` pins answer by answer.
//!
//! The matrix reaches every way a subproblem ends on the shipped cases: a
//! certified tree incumbent, a tree cut by the node limit whose heuristic
//! floor is promoted, a node budget tripped with and without an incumbent,
//! a deadline that skips every solve, the warm trust fallback after an
//! injected basis fault, certification off, and heuristic-only mode. Every
//! run uses one sweep worker and no attached trace, so the pins hold at
//! any `ED_THREADS`, `ED_TRACE` and `ED_POOL`.

use ed_security::cases;
use ed_security::core::attack::{AttackConfig, BilevelOptions, BilevelSolver};
use ed_security::optim::SolveBudget;
use ed_security::powerflow::{LineId, Network};
use std::time::Duration;

/// One sweep of the matrix: label, network, configuration, and whether the
/// exact solves run (`false` is heuristic-only mode).
pub type Run = (String, Network, AttackConfig, bool);

/// One sweep worker and no attached trace, whatever the environment says.
fn pinned(options: BilevelOptions) -> BilevelOptions {
    BilevelOptions { threads: Some(1), trace: Some(false), ..options }
}

/// A copy of `base` with `edit` applied.
fn with(base: &AttackConfig, edit: impl FnOnce(&mut AttackConfig)) -> AttackConfig {
    let mut c = base.clone();
    edit(&mut c);
    c
}

/// The paper's 3-bus case at true ratings (130, 120), (160, 180) and
/// (300, 300), bounds `[100, 200]`.
pub fn three_bus_runs() -> Vec<Run> {
    [[130.0, 120.0], [160.0, 180.0], [300.0, 300.0]].into_iter().flat_map(three_bus_at).collect()
}

/// The paper's 3-bus case at true ratings `ud`, bounds `[100, 200]`.
fn three_bus_at(ud: [f64; 2]) -> Vec<Run> {
    let net = cases::three_bus();
    let base = AttackConfig::new(cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(ud.to_vec())
        .solver_options(pinned(BilevelOptions::default()));
    let quadratic = cases::three_bus_with(&cases::ThreeBusConfig {
        quadratic: true,
        ..Default::default()
    });
    let mut configs = vec![
        ("defaults".to_string(), base.clone(), true),
        ("no_hint".to_string(), with(&base, |c| c.options.use_heuristic = false), true),
        (
            "bigm".to_string(),
            with(&base, |c| c.options.solver = BilevelSolver::BigM),
            true,
        ),
        ("certify_off".to_string(), with(&base, |c| c.options.certify = Some(false)), true),
    ];
    for n in [1, 2, 3, 5] {
        configs.push((
            format!("no_hint/max_nodes{n}"),
            with(&base, |c| {
                c.options.use_heuristic = false;
                c.options.budget = SolveBudget::unlimited().max_nodes(n);
            }),
            true,
        ));
    }
    // The big-M tree finds an incumbent before this cap trips.
    configs.push((
        "bigm/no_hint/max_nodes15".to_string(),
        with(&base, |c| {
            c.options.use_heuristic = false;
            c.options.solver = BilevelSolver::BigM;
            c.options.budget = SolveBudget::unlimited().max_nodes(15);
        }),
        true,
    ));
    configs.extend([
        (
            "deadline0".to_string(),
            with(&base, |c| c.options.budget = SolveBudget::with_deadline(Duration::ZERO)),
            true,
        ),
        ("fault7".to_string(), with(&base, |c| c.options.inject_basis_fault = Some(7)), true),
        (
            "no_hint/fault7".to_string(),
            with(&base, |c| {
                c.options.use_heuristic = false;
                c.options.inject_basis_fault = Some(7);
            }),
            true,
        ),
        ("heuristic_only".to_string(), base.clone(), false),
    ]);
    let tag = format!("{}x{}", ud[0], ud[1]);
    let mut runs: Vec<Run> = configs
        .into_iter()
        .map(|(v, c, exact)| (format!("three_bus/{tag}/{v}"), net.clone(), c, exact))
        .collect();
    runs.push((format!("three_bus_quadratic/{tag}/defaults"), quadratic, base, true));
    runs
}

/// The 6-bus fixture with the `tests/paper_regression.rs` lines, bounds
/// and true ratings.
pub fn six_bus_runs() -> Vec<Run> {
    let net = cases::six_bus();
    let dlr = vec![LineId(4), LineId(8)];
    let rating = |l: &LineId, f: f64| f * net.lines()[l.0].rating_mva;
    let base = AttackConfig::new(dlr.clone())
        .bounds_per_line(
            dlr.iter().map(|l| rating(l, 0.5)).collect(),
            dlr.iter().map(|l| rating(l, 2.0)).collect(),
        )
        .true_ratings(dlr.iter().map(|l| rating(l, 0.9)).collect())
        .solver_options(pinned(BilevelOptions::default()));
    let configs = vec![
        ("defaults", base.clone(), true),
        ("presolve", with(&base, |c| c.options.presolve = Some(true)), true),
        ("cold", with(&base, |c| c.options.warm_start = Some(false)), true),
        ("no_hint", with(&base, |c| c.options.use_heuristic = false), true),
        ("fault3", with(&base, |c| c.options.inject_basis_fault = Some(3)), true),
        (
            "bigm",
            with(&base, |c| c.options.solver = BilevelSolver::BigM),
            true,
        ),
        ("heuristic_only", base.clone(), false),
        ("node_limit1", with(&base, |c| c.options.node_limit = 1), true),
        (
            "no_hint/node_limit1",
            with(&base, |c| {
                c.options.use_heuristic = false;
                c.options.node_limit = 1;
            }),
            true,
        ),
        (
            "no_hint/max_nodes2",
            with(&base, |c| {
                c.options.use_heuristic = false;
                c.options.budget = SolveBudget::unlimited().max_nodes(2);
            }),
            true,
        ),
    ];
    configs
        .into_iter()
        .map(|(v, c, exact)| (format!("six_bus/{v}"), net.clone(), c, exact))
        .collect()
}

/// The sweep118 scenario: the three most-loaded lines under a proportional
/// dispatch get DLR, bounds `[0.8, 1.6]×` rating, true rating = rating,
/// node limit 1, presolve and certification on. These runs promote the
/// heuristic floor at every subproblem.
pub fn ieee118_runs() -> Vec<Run> {
    let net = cases::ieee118_like();
    let cap = net.total_pmax_mw();
    let d = net.total_demand_mw();
    let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
    let flows = ed_security::powerflow::dc::solve(&net, &net.injections_mw(&prop))
        .expect("proportional dispatch is balanced")
        .flow_mw;
    let mut loading: Vec<(usize, f64)> = flows
        .iter()
        .enumerate()
        .map(|(i, f)| (i, f.abs() / net.lines()[i].rating_mva))
        .collect();
    loading.sort_by(|a, b| b.1.total_cmp(&a.1));
    let dlr: Vec<LineId> = loading.iter().take(3).map(|&(i, _)| LineId(i)).collect();
    let u_d: Vec<f64> = dlr.iter().map(|l| net.lines()[l.0].rating_mva).collect();
    let lo = u_d.iter().map(|u| 0.8 * u).collect();
    let hi = u_d.iter().map(|u| 1.6 * u).collect();
    let base = AttackConfig::new(dlr).bounds_per_line(lo, hi).true_ratings(u_d).solver_options(
        pinned(BilevelOptions {
            node_limit: 1,
            presolve: Some(true),
            certify: Some(true),
            warm_start: Some(true),
            ..Default::default()
        }),
    );
    let configs = vec![
        ("hint", base.clone(), true),
        ("no_hint", with(&base, |c| c.options.use_heuristic = false), true),
        ("heuristic_only", base.clone(), false),
    ];
    configs
        .into_iter()
        .map(|(v, c, exact)| (format!("ieee118_like/{v}"), net.clone(), c, exact))
        .collect()
}
