//! Algorithm 1 answers, pinned to 1e-9.
//!
//! The runs are the 55 sweeps of `tests/sweep_bits.rs`, built in
//! `sweep_runs`. That file hashes every bit a sweep returns, tallies
//! included; this one pins only the answers, so a change that moves
//! rounding, node counts or pivot counts but no answer passes here
//! unedited. Per run it pins:
//!
//! - the target line and direction;
//! - `ucap_pct`, `overload_mw` and every subproblem violation, each to
//!   within 1e-9;
//! - for a run with no node or deadline cap, each subproblem's
//!   `proved_optimal` flag and the sweep's certificate counts (certified,
//!   repaired, uncertified). A capped run certifies whatever its cut tree
//!   reached, which depends on the pivot path.
//!
//! `ua_mw` is left out. Where a DLR line does not bind, any rating between
//! its flow and the band edge gives the same dispatch, and which one a
//! solve returns depends on rounding. `tests/paper_reproduction.rs` pins
//! Table I's `ua_mw` exactly.

mod sweep_runs;

use ed_security::core::attack::{optimal_attack_with, AttackConfig, BilevelOptions};
use sweep_runs::{ieee118_runs, six_bus_runs, three_bus_runs, Run};

/// Absolute tolerance on every pinned percentage and MW value.
const TOL: f64 = 1e-9;

/// One pinned answer: label, target (`L<line><+|->`, `none`, or the error),
/// `ucap_pct`, `overload_mw`, the subproblem violations in sweep order,
/// and for an uncapped run the proofs: one `P` (proved) or `-` per
/// subproblem, then the certified, repaired and uncertified counts.
type Answer = (&'static str, &'static str, f64, f64, &'static [f64], Option<&'static str>);

/// What one run returned, in the shape of an [`Answer`].
struct Got {
    label: String,
    target: String,
    ucap_pct: f64,
    overload_mw: f64,
    violations: Vec<f64>,
    proofs: Option<String>,
}

/// A node limit below the default or any budget limit cuts the tree.
fn capped(config: &AttackConfig) -> bool {
    let o = &config.options;
    o.node_limit < BilevelOptions::default().node_limit || !o.budget.is_unlimited()
}

fn answer((label, net, config, exact): Run) -> Got {
    let r = match optimal_attack_with(&net, &config, exact) {
        Ok(r) => r,
        Err(e) => {
            return Got {
                label,
                target: format!("error {e}"),
                ucap_pct: 0.0,
                overload_mw: 0.0,
                violations: Vec::new(),
                proofs: None,
            }
        }
    };
    let target = r
        .target
        .map_or("none".to_string(), |(l, d)| format!("L{}{}", l.0, if d > 0 { '+' } else { '-' }));
    let proofs = (!capped(&config)).then(|| {
        let flags: String =
            r.subproblems.iter().map(|s| if s.proved_optimal { 'P' } else { '-' }).collect();
        let s = &r.sweep;
        format!("{flags} {} {} {}", s.certified, s.cert_repaired, s.uncertified)
    });
    Got {
        label,
        target,
        ucap_pct: r.ucap_pct,
        overload_mw: r.overload_mw,
        violations: r.subproblems.iter().map(|s| s.violation).collect(),
        proofs,
    }
}

fn matches(got: &Got, want: &Answer) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= TOL;
    let (label, target, ucap_pct, overload_mw, violations, proofs) = *want;
    got.label == label
        && got.target == target
        && close(got.ucap_pct, ucap_pct)
        && close(got.overload_mw, overload_mw)
        && got.violations.len() == violations.len()
        && got.violations.iter().zip(violations).all(|(&a, &b)| close(a, b))
        && got.proofs.as_deref() == proofs
}

/// Runs every sweep and compares it with its pinned answer. On any
/// difference it prints this run's whole table in source syntax, marking
/// each moved answer.
fn assert_answers(runs: Vec<Run>, expected: &[Answer]) {
    let got: Vec<Got> = runs.into_iter().map(answer).collect();
    let moved = |i: usize| expected.get(i).is_none_or(|want| !matches(&got[i], want));
    let table: String = got
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let violations: Vec<String> = g.violations.iter().map(|v| format!("{v:.9}")).collect();
            let proofs = g.proofs.as_ref().map_or("None".to_string(), |p| format!("Some(\"{p}\")"));
            let mark = if moved(i) { " // MOVED" } else { "" };
            format!(
                "    (\"{}\", \"{}\", {:.9}, {:.9}, &[{}], {proofs}),{mark}\n",
                g.label,
                g.target,
                g.ucap_pct,
                g.overload_mw,
                violations.join(", ")
            )
        })
        .collect();
    let same = got.len() == expected.len() && (0..got.len()).all(|i| !moved(i));
    assert!(same, "answers moved; this run's values:\n{table}");
}

#[test]
fn three_bus_sweep_answers() {
    assert_answers(three_bus_runs(), THREE_BUS);
}

#[test]
fn six_bus_sweep_answers() {
    assert_answers(six_bus_runs(), SIX_BUS);
}

#[test]
fn ieee118_sweep_answers() {
    assert_answers(ieee118_runs(), IEEE118);
}

const THREE_BUS: &[Answer] = &[
    ("three_bus/130x120/defaults", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("PPPP 4 0 0")),
    ("three_bus/130x120/no_hint", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("PPPP 4 0 0")),
    ("three_bus/130x120/bigm", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("PPPP 4 0 0")),
    ("three_bus/130x120/certify_off", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("PPPP 0 0 0")),
    ("three_bus/130x120/no_hint/max_nodes1", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], None),
    ("three_bus/130x120/no_hint/max_nodes2", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], None),
    ("three_bus/130x120/no_hint/max_nodes3", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], None),
    ("three_bus/130x120/no_hint/max_nodes5", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], None),
    ("three_bus/130x120/bigm/no_hint/max_nodes15", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], None),
    ("three_bus/130x120/deadline0", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], None),
    ("three_bus/130x120/fault7", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("PPPP 4 0 0")),
    ("three_bus/130x120/no_hint/fault7", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("PPPP 4 0 0")),
    ("three_bus/130x120/heuristic_only", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("---- 0 0 0")),
    ("three_bus_quadratic/130x120/defaults", "L2+", 66.666666667, 80.000000000, &[53.846153846, -176.923076923, 66.666666667, -183.333333333], Some("PPPP 4 0 0")),
    ("three_bus/160x180/defaults", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("PPPP 4 0 0")),
    ("three_bus/160x180/no_hint", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("PPPP 4 0 0")),
    ("three_bus/160x180/bigm", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("PPPP 4 0 0")),
    ("three_bus/160x180/certify_off", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("PPPP 0 0 0")),
    ("three_bus/160x180/no_hint/max_nodes1", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], None),
    ("three_bus/160x180/no_hint/max_nodes2", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], None),
    ("three_bus/160x180/no_hint/max_nodes3", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], None),
    ("three_bus/160x180/no_hint/max_nodes5", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], None),
    ("three_bus/160x180/bigm/no_hint/max_nodes15", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], None),
    ("three_bus/160x180/deadline0", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], None),
    ("three_bus/160x180/fault7", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("PPPP 4 0 0")),
    ("three_bus/160x180/no_hint/fault7", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("PPPP 4 0 0")),
    ("three_bus/160x180/heuristic_only", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("---- 0 0 0")),
    ("three_bus_quadratic/160x180/defaults", "L1+", 25.000000000, 40.000000000, &[25.000000000, -162.500000000, 11.111111111, -155.555555556], Some("PPPP 4 0 0")),
    ("three_bus/300x300/defaults", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("PPPP 4 0 0")),
    ("three_bus/300x300/no_hint", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("PPPP 4 0 0")),
    ("three_bus/300x300/bigm", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("PPPP 4 0 0")),
    ("three_bus/300x300/certify_off", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("PPPP 0 0 0")),
    ("three_bus/300x300/no_hint/max_nodes1", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], None),
    ("three_bus/300x300/no_hint/max_nodes2", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], None),
    ("three_bus/300x300/no_hint/max_nodes3", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], None),
    ("three_bus/300x300/no_hint/max_nodes5", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], None),
    ("three_bus/300x300/bigm/no_hint/max_nodes15", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], None),
    ("three_bus/300x300/deadline0", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], None),
    ("three_bus/300x300/fault7", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("PPPP 4 0 0")),
    ("three_bus/300x300/no_hint/fault7", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("PPPP 4 0 0")),
    ("three_bus/300x300/heuristic_only", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("---- 0 0 0")),
    ("three_bus_quadratic/300x300/defaults", "none", 0.000000000, -100.000000000, &[-33.333333333, -133.333333333, -33.333333333, -133.333333333], Some("PPPP 4 0 0")),
];

const SIX_BUS: &[Answer] = &[
    ("six_bus/defaults", "none", 0.000000000, -30.665188031, &[-40.823782216, -155.555555556, -37.858256829, -155.555555556], Some("PPPP 4 0 0")),
    ("six_bus/presolve", "none", 0.000000000, -30.665188031, &[-40.823782216, -155.555555556, -37.858256829, -155.555555556], Some("PPPP 4 0 0")),
    ("six_bus/cold", "none", 0.000000000, -30.665188031, &[-40.823782216, -155.555555556, -37.858256829, -155.555555556], Some("PPPP 4 0 0")),
    ("six_bus/no_hint", "none", 0.000000000, -30.665188031, &[-40.823782216, -155.555555556, -37.858256829, -155.555555556], Some("PPPP 4 0 0")),
    ("six_bus/fault3", "none", 0.000000000, -30.665188031, &[-40.823782216, -155.555555556, -37.858256829, -155.555555556], Some("PPPP 4 0 0")),
    ("six_bus/bigm", "none", 0.000000000, -30.665188031, &[-40.823782216, -155.555555556, -37.858256829, -155.555555556], Some("PPPP 4 0 0")),
    ("six_bus/heuristic_only", "none", 0.000000000, -31.327035729, &[-40.823782216, -155.555555556, -38.675352752, -155.555555556], Some("---- 0 0 0")),
    ("six_bus/node_limit1", "none", 0.000000000, -31.327035729, &[-40.823782216, -155.555555556, -38.675352752, -155.555555556], None),
    ("six_bus/no_hint/node_limit1", "none", 0.000000000, -31.327035729, &[-40.823782216, -155.555555556, -38.675352752, -155.555555556], None),
    ("six_bus/no_hint/max_nodes2", "none", 0.000000000, -31.327035729, &[-40.823782216, -155.555555556, -38.675352752, -155.555555556], None),
];

const IEEE118: &[Answer] = &[
    ("ieee118_like/hint", "L159-", 6.258321246, 4.247408450, &[-180.000000000, 6.258321246, -6.929692691, -180.000000000, -8.848797640, -180.000000000], None),
    ("ieee118_like/no_hint", "L159-", 6.258321246, 4.247408450, &[-180.000000000, 6.258321246, -6.929692691, -180.000000000, -8.848797640, -180.000000000], None),
    ("ieee118_like/heuristic_only", "L159-", 6.258321246, 4.247408450, &[-180.000000000, 6.258321246, -6.929692691, -180.000000000, -8.848797640, -180.000000000], None),
];
