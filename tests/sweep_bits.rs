//! Algorithm 1 answer pins.
//!
//! Each run is one whole Algorithm 1 sweep, and everything it returns is
//! hashed bit for bit with `fnv1a`:
//!
//! - the `to_bits()` of `ucap_pct`, `overload_mw`, `ua_mw` and
//!   `dispatch_mw`;
//! - `target` and `total_nodes`;
//! - the `Debug` text of every `SubproblemOutcome`, certificate included;
//! - the `Debug` text of the `SweepReport`, with `certify_ms` zeroed
//!   because it is wall-clock time;
//! - the `Debug` text of `seed_basis`.
//!
//! An error hashes its `Debug` text. Each expected value carries a comment
//! saying what the run returned.
//!
//! The matrix reaches every way a subproblem ends on the shipped cases: a
//! certified tree incumbent, a tree cut by the node limit whose heuristic
//! floor is promoted, a node budget tripped with and without an incumbent,
//! a deadline that skips every solve, the warm trust fallback after an
//! injected basis fault, certification off, and heuristic-only mode. Every
//! run uses one sweep worker and no attached trace, so the pins hold at
//! any `ED_THREADS`, `ED_TRACE` and `ED_POOL`.
//!
//! These runs are deterministic. Refactors of the per-subproblem path must
//! leave every pinned value unchanged.

use ed_security::cases;
use ed_security::core::attack::{
    optimal_attack_with, AttackConfig, AttackResult, BilevelOptions, BilevelSolver,
};
use ed_security::core::CoreError;
use ed_security::optim::SolveBudget;
use ed_security::powerflow::{fnv1a, LineId, Network};
use std::time::Duration;

/// One sweep of the matrix: label, network, configuration, and whether the
/// exact solves run (`false` is heuristic-only mode).
type Run = (String, Network, AttackConfig, bool);

/// One pinned run: the hash, and a short summary of what it returned that
/// the printed table carries as a comment.
type Pin = (u64, String);

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

/// The paper's 3-bus case at true ratings `ud`, bounds `[100, 200]`.
fn three_bus_runs(ud: [f64; 2]) -> Vec<Run> {
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
            with(&base, |c| c.options.solver = BilevelSolver::BigM { big_m: 1e5 }),
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
            c.options.solver = BilevelSolver::BigM { big_m: 1e5 };
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
fn six_bus_runs() -> Vec<Run> {
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
            with(&base, |c| c.options.solver = BilevelSolver::BigM { big_m: 1e5 }),
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
fn ieee118_runs() -> Vec<Run> {
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

fn result_pin(r: &AttackResult) -> Pin {
    let mut sweep = r.sweep.clone();
    sweep.certify_ms = 0.0;
    let mut bytes = format!(
        "target {:?} total_nodes {} subproblems {:?} sweep {:?} seed_basis {:?}",
        r.target, r.total_nodes, r.subproblems, sweep, r.seed_basis
    )
    .into_bytes();
    for v in [&[r.ucap_pct, r.overload_mw][..], &r.ua_mw, &r.dispatch_mw] {
        for x in v {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    let target = r
        .target
        .map_or("none".to_string(), |(l, d)| format!("L{}{}", l.0, if d > 0 { '+' } else { '-' }));
    let text = format!(
        "{:.4}% {target}, {} nodes, {} certified, {} floors, {} degraded",
        r.ucap_pct,
        r.total_nodes,
        r.sweep.certified,
        r.sweep.heuristic_floor,
        r.degraded_subproblems()
    );
    (fnv1a(bytes), text)
}

fn run_pin(net: &Network, config: &AttackConfig, exact: bool) -> Pin {
    match optimal_attack_with(net, config, exact) {
        Ok(r) => result_pin(&r),
        Err(e) => error_pin(&e),
    }
}

fn error_pin(e: &CoreError) -> Pin {
    let text = format!("error {e:?}");
    (fnv1a(text.clone().into_bytes()), text)
}

/// Compares every computed pin with its expected hash. On any difference
/// it prints this run's whole table, marking each moved pin.
fn assert_pins(got: &[(String, Pin)], expected: &[(&str, u64)]) {
    let pinned = |l: &str, h: u64| expected.contains(&(l, h));
    let table: String = got
        .iter()
        .map(|(l, (h, text))| {
            let mark = if pinned(l, *h) { "" } else { " MOVED" };
            format!("    (\"{l}\", {h:#018x}), // {text}{mark}\n")
        })
        .collect();
    let same = got.len() == expected.len() && got.iter().all(|(l, (h, _))| pinned(l, *h));
    assert!(same, "pins moved; this run's values:\n{table}");
}

fn pins(runs: Vec<Run>) -> Vec<(String, Pin)> {
    runs.into_iter()
        .map(|(label, net, config, exact)| {
            let pin = run_pin(&net, &config, exact);
            (label, pin)
        })
        .collect()
}

#[test]
fn three_bus_sweep_bits() {
    let runs = [[130.0, 120.0], [160.0, 180.0], [300.0, 300.0]]
        .into_iter()
        .flat_map(three_bus_runs)
        .collect();
    assert_pins(&pins(runs), THREE_BUS);
}

#[test]
fn six_bus_sweep_bits() {
    assert_pins(&pins(six_bus_runs()), SIX_BUS);
}

#[test]
fn ieee118_sweep_bits() {
    assert_pins(&pins(ieee118_runs()), IEEE118);
}

const THREE_BUS: &[(&str, u64)] = &[
    ("three_bus/130x120/defaults", 0x3a1cc96f5932ff98), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/no_hint", 0xdad3426e8ef08daa), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/bigm", 0x5714f5f6579518b6), // 66.6667% L2+, 61 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/certify_off", 0x75d1c46d01572afe), // 66.6667% L2+, 12 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus/130x120/no_hint/max_nodes1", 0x3003d4a9781c9d4b), // 66.6667% L2+, 4 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/130x120/no_hint/max_nodes2", 0x2e8254f477cdb043), // 66.6667% L2+, 6 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/130x120/no_hint/max_nodes3", 0xae65fe09824ea37b), // 66.6667% L2+, 8 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/130x120/no_hint/max_nodes5", 0xdad3426e8ef08daa), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/bigm/no_hint/max_nodes15", 0x1774d53c41b69f55), // 66.6667% L2+, 60 nodes, 4 certified, 0 floors, 3 degraded
    ("three_bus/130x120/deadline0", 0x726f1cfffd0751df), // 66.6667% L2+, 0 nodes, 0 certified, 4 floors, 4 degraded
    ("three_bus/130x120/fault7", 0xc3456ad7b03cd866), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/no_hint/fault7", 0xac880da8649c60ca), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/heuristic_only", 0x49c9dbb067785af1), // 66.6667% L2+, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus_quadratic/130x120/defaults", 0x841946518c8e182c), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/defaults", 0xdaa4beb54b9997cb), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/no_hint", 0x260706c26799f2c3), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/bigm", 0x174962c420fb2102), // 25.0000% L1+, 60 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/certify_off", 0x8613ece9b2fe4c25), // 25.0000% L1+, 12 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus/160x180/no_hint/max_nodes1", 0x6538515186f55ce7), // 25.0000% L1+, 4 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/160x180/no_hint/max_nodes2", 0x19a24e24904d0857), // 25.0000% L1+, 6 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/160x180/no_hint/max_nodes3", 0xfbf1b6d673926077), // 25.0000% L1+, 8 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/160x180/no_hint/max_nodes5", 0x260706c26799f2c3), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/bigm/no_hint/max_nodes15", 0xa17c2eeb1a608eb2), // 25.0000% L1+, 60 nodes, 2 certified, 0 floors, 3 degraded
    ("three_bus/160x180/deadline0", 0xad7775ff01147c3f), // 25.0000% L1+, 0 nodes, 0 certified, 4 floors, 4 degraded
    ("three_bus/160x180/fault7", 0x63c039374683ed19), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/no_hint/fault7", 0xfbe4185d2687015f), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/heuristic_only", 0x6c87fde3eb496beb), // 25.0000% L1+, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus_quadratic/160x180/defaults", 0x4e492639b11ec16f), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/defaults", 0x85915cea2ae86414), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/no_hint", 0x0a7eefe761158eea), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/bigm", 0x337264144d264d7d), // 0.0000% none, 60 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/certify_off", 0x240bd941bc6b289a), // 0.0000% none, 12 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus/300x300/no_hint/max_nodes1", 0x126806d8a539c7a5), // 0.0000% none, 4 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/300x300/no_hint/max_nodes2", 0x33a15a19a3e84781), // 0.0000% none, 6 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/300x300/no_hint/max_nodes3", 0x4f4ec719996a45b5), // 0.0000% none, 8 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/300x300/no_hint/max_nodes5", 0x0a7eefe761158eea), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/bigm/no_hint/max_nodes15", 0x788bce61e7255bf5), // 0.0000% none, 58 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/300x300/deadline0", 0x3c26465b97455476), // 0.0000% none, 0 nodes, 0 certified, 4 floors, 4 degraded
    ("three_bus/300x300/fault7", 0x709371afe4dd6902), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/no_hint/fault7", 0xdc00c614b9dc072e), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/heuristic_only", 0x4a4b989cbd839f24), // 0.0000% none, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus_quadratic/300x300/defaults", 0xdfe7badac86bd7e0), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
];

const SIX_BUS: &[(&str, u64)] = &[
    ("six_bus/defaults", 0x2df50924f21f40b1), // 0.0000% none, 189 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/presolve", 0x28deedbd51b7dda7), // 0.0000% none, 206 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/cold", 0x9f49431a811303b8), // 0.0000% none, 209 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/no_hint", 0x44f34b4fc5565a01), // 0.0000% none, 197 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/fault3", 0x1976ee12ac31126a), // 0.0000% none, 209 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/bigm", 0x4b089a8e1a051b15), // 0.0000% none, 717 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/heuristic_only", 0xfe7c0adacfb1fa37), // 0.0000% none, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("six_bus/node_limit1", 0x82cae955a7108979), // 0.0000% none, 4 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/no_hint/node_limit1", 0xd91b2b36d998601f), // 0.0000% none, 4 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/no_hint/max_nodes2", 0x82d8069463310b50), // 0.0000% none, 8 nodes, 4 certified, 0 floors, 4 degraded
];

const IEEE118: &[(&str, u64)] = &[
    ("ieee118_like/hint", 0x96594a3678afd8af), // 6.2583% L159-, 6 nodes, 6 certified, 0 floors, 0 degraded
    ("ieee118_like/no_hint", 0xb574a244ce5b41cf), // 6.2583% L159-, 6 nodes, 6 certified, 0 floors, 0 degraded
    ("ieee118_like/heuristic_only", 0x91d56cbac1af8e07), // 6.2583% L159-, 0 nodes, 0 certified, 0 floors, 0 degraded
];
