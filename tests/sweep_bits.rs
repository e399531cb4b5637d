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
//! saying what the run returned. The runs are built in `sweep_runs`;
//! `tests/sweep_answers.rs` pins the answers of the same runs to 1e-9.
//!
//! These runs are deterministic. Refactors of the per-subproblem path must
//! leave every pinned value unchanged.

mod sweep_runs;

use ed_security::core::attack::{optimal_attack_with, AttackConfig, AttackResult};
use ed_security::core::CoreError;
use ed_security::powerflow::{fnv1a, Network};
use sweep_runs::{ieee118_runs, six_bus_runs, three_bus_runs, Run};

/// One pinned run: the hash, and a short summary of what it returned that
/// the printed table carries as a comment.
type Pin = (u64, String);

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
    assert_pins(&pins(three_bus_runs()), THREE_BUS);
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
    ("three_bus/130x120/defaults", 0xd41eda317b494eec), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/no_hint", 0x227b6fdcd4b7e020), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/bigm", 0x51cd0e8dcbf2ba38), // 66.6667% L2+, 54 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/certify_off", 0x8084d70ae8517d24), // 66.6667% L2+, 12 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus/130x120/no_hint/max_nodes1", 0x1a470debf447f4f8), // 66.6667% L2+, 4 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/130x120/no_hint/max_nodes2", 0xfbb09ed2b6511a4c), // 66.6667% L2+, 6 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/130x120/no_hint/max_nodes3", 0x39a44d996c4c34f0), // 66.6667% L2+, 8 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/130x120/no_hint/max_nodes5", 0x227b6fdcd4b7e020), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/bigm/no_hint/max_nodes15", 0x7f737a4a4d3f77d3), // 66.6667% L2+, 60 nodes, 0 certified, 0 floors, 4 degraded
    ("three_bus/130x120/deadline0", 0x5c4b124dfd0ec2e8), // 66.6667% L2+, 0 nodes, 0 certified, 4 floors, 4 degraded
    ("three_bus/130x120/fault7", 0xd2a9ab879ba73758), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/no_hint/fault7", 0xabc4f502a5fb08f2), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/130x120/heuristic_only", 0xf341507d3c5898b8), // 66.6667% L2+, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus_quadratic/130x120/defaults", 0x15149e9a2fe72ad0), // 66.6667% L2+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/defaults", 0x1ff14bb0593e8909), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/no_hint", 0x6f2b695f396f7ad7), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/bigm", 0xa3011352c6f82405), // 25.0000% L1+, 54 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/certify_off", 0x8613ece9b2fe4c25), // 25.0000% L1+, 12 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus/160x180/no_hint/max_nodes1", 0xbc26dc7c1ac7a34b), // 25.0000% L1+, 4 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/160x180/no_hint/max_nodes2", 0x4d10e92482b6ed33), // 25.0000% L1+, 6 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/160x180/no_hint/max_nodes3", 0x3a783d472b948fa3), // 25.0000% L1+, 8 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/160x180/no_hint/max_nodes5", 0x6f2b695f396f7ad7), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/bigm/no_hint/max_nodes15", 0x6a42b7acef8cdff7), // 25.0000% L1+, 60 nodes, 0 certified, 0 floors, 4 degraded
    ("three_bus/160x180/deadline0", 0x785d73ac408b8a26), // 25.0000% L1+, 0 nodes, 0 certified, 4 floors, 4 degraded
    ("three_bus/160x180/fault7", 0x1e953a8ba3d00167), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/no_hint/fault7", 0x120679551e83d81f), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/160x180/heuristic_only", 0xd67349aab8379ce8), // 25.0000% L1+, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus_quadratic/160x180/defaults", 0x6950ae8221ca2a99), // 25.0000% L1+, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/defaults", 0x1ce931188aa9bd18), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/no_hint", 0xe73d3dc9a5a4719c), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/bigm", 0xfc670320eaa08be6), // 0.0000% none, 54 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/certify_off", 0xb33e9e078c8600ce), // 0.0000% none, 12 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus/300x300/no_hint/max_nodes1", 0x2e2027687ca0327d), // 0.0000% none, 4 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/300x300/no_hint/max_nodes2", 0x5d8b6389e8d8e591), // 0.0000% none, 6 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/300x300/no_hint/max_nodes3", 0xd0113d3eef6925fd), // 0.0000% none, 8 nodes, 4 certified, 0 floors, 2 degraded
    ("three_bus/300x300/no_hint/max_nodes5", 0xe73d3dc9a5a4719c), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/bigm/no_hint/max_nodes15", 0xefdcc70704780bd3), // 0.0000% none, 60 nodes, 0 certified, 0 floors, 4 degraded
    ("three_bus/300x300/deadline0", 0x3c26465b97455476), // 0.0000% none, 0 nodes, 0 certified, 4 floors, 4 degraded
    ("three_bus/300x300/fault7", 0x959069f5102c1810), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/no_hint/fault7", 0x8b27b8af11579f6e), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
    ("three_bus/300x300/heuristic_only", 0x4a4b989cbd839f24), // 0.0000% none, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("three_bus_quadratic/300x300/defaults", 0x9ab80b19cb5104f4), // 0.0000% none, 12 nodes, 4 certified, 0 floors, 0 degraded
];

const SIX_BUS: &[(&str, u64)] = &[
    ("six_bus/defaults", 0x605bfb51cc492957), // 0.0000% none, 200 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/presolve", 0x6033777daf608da8), // 0.0000% none, 182 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/cold", 0xf09aa60de6a35bf3), // 0.0000% none, 203 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/no_hint", 0xd9711d41c76d36d1), // 0.0000% none, 208 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/fault3", 0xc7a83dd09d64c93b), // 0.0000% none, 203 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/bigm", 0x2756845cb392b8bd), // 0.0000% none, 774 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/heuristic_only", 0xdff49d6c17e8dfe4), // 0.0000% none, 0 nodes, 0 certified, 0 floors, 0 degraded
    ("six_bus/node_limit1", 0x5be88434310b58da), // 0.0000% none, 4 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/no_hint/node_limit1", 0xed98e451d316416c), // 0.0000% none, 4 nodes, 4 certified, 0 floors, 0 degraded
    ("six_bus/no_hint/max_nodes2", 0x71931fb102418755), // 0.0000% none, 8 nodes, 4 certified, 0 floors, 4 degraded
];

const IEEE118: &[(&str, u64)] = &[
    ("ieee118_like/hint", 0x239cfc1cbbedde33), // 6.2583% L159-, 6 nodes, 6 certified, 0 floors, 0 degraded
    ("ieee118_like/no_hint", 0x037743126ea0b8f5), // 6.2583% L159-, 6 nodes, 6 certified, 0 floors, 0 degraded
    ("ieee118_like/heuristic_only", 0x91d56cbac1af8e07), // 6.2583% L159-, 0 nodes, 0 certified, 0 floors, 0 degraded
];
