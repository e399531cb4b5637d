//! The pinned attack scenarios of the sweep and chain workloads, and the
//! answer check every sweep they run goes through.

use ed_core::attack::{AttackConfig, AttackResult, BilevelOptions};
use ed_powerflow::{LineId, Network};

/// The answer a sweep must reproduce: the violation (% of the true
/// rating) per `(line, direction)` subproblem, the best violation and its
/// subproblem, and how many subproblems certify on the first try.
pub struct Pins {
    pub subproblems: &'static [(usize, i8, f64)],
    pub ucap_pct: f64,
    pub target: Option<(usize, i8)>,
    pub certified: usize,
}

/// Absolute tolerance of a pinned violation, in percentage points — the
/// tolerance of `tests/paper_regression.rs`.
const TOL_PP: f64 = 0.05;

/// A network, the case builder it came from, and its attack configuration.
pub struct Scenario {
    pub build: fn() -> Network,
    pub net: Network,
    pub config: AttackConfig,
}

fn options() -> BilevelOptions {
    BilevelOptions {
        certify: Some(true),
        presolve: Some(true),
        warm_start: Some(true),
        threads: Some(1),
        ..Default::default()
    }
}

impl Scenario {
    /// The 118-bus configuration of `tests/paper_regression.rs`: the three
    /// most-loaded lines under a proportional dispatch get DLR, bounds
    /// `[0.8, 1.6]×` rating, true rating = rating, node limit 1, certify,
    /// presolve and warm start on, one sweep worker.
    pub fn ieee118() -> Scenario {
        let net = ed_cases::ieee118_like();
        let cap = net.total_pmax_mw();
        let d = net.total_demand_mw();
        let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
        let flows = ed_powerflow::dc::solve(&net, &net.injections_mw(&prop))
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
        let config = AttackConfig::new(dlr)
            .bounds_per_line(lo, hi)
            .true_ratings(u_d)
            .solver_options(BilevelOptions {
                node_limit: 1,
                ..options()
            });
        Scenario {
            build: ed_cases::ieee118_like,
            net,
            config,
        }
    }

    /// The paper's 3-bus exact sweep (smoke size of `sweep118`).
    pub fn three_bus() -> Scenario {
        let config = AttackConfig::new(ed_cases::three_bus::dlr_lines())
            .bounds(100.0, 200.0)
            .true_ratings(vec![130.0, 120.0])
            .solver_options(BilevelOptions {
                use_heuristic: false,
                ..options()
            });
        Scenario {
            build: ed_cases::three_bus,
            net: ed_cases::three_bus(),
            config,
        }
    }

    /// The 6-bus exact sweep of `tests/paper_regression.rs` (smoke size of
    /// `chain118`).
    pub fn six_bus() -> Scenario {
        let net = ed_cases::six_bus();
        let dlr = vec![LineId(4), LineId(8)];
        let rating = |l: &LineId, f: f64| f * net.lines()[l.0].rating_mva;
        let u_d = dlr.iter().map(|l| rating(l, 0.9)).collect();
        let lo = dlr.iter().map(|l| rating(l, 0.5)).collect();
        let hi = dlr.iter().map(|l| rating(l, 2.0)).collect();
        let config = AttackConfig::new(dlr)
            .bounds_per_line(lo, hi)
            .true_ratings(u_d)
            .solver_options(BilevelOptions {
                use_heuristic: false,
                ..options()
            });
        Scenario {
            build: ed_cases::six_bus,
            net,
            config,
        }
    }
}

/// Subproblems of a sweep that did not end in a certified exact answer.
pub fn failed_subproblems(r: &AttackResult) -> u64 {
    (r.sweep.uncertified + r.sweep.heuristic_floor + r.degraded_subproblems()) as u64
}

/// Checks a sweep against its pins; returns what did not hold.
pub fn check(r: &AttackResult, pins: &Pins, what: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if r.subproblems.len() != pins.subproblems.len() {
        errors.push(format!(
            "{what}: {} subproblems, expected {}",
            r.subproblems.len(),
            pins.subproblems.len()
        ));
    }
    for &(line, dir, want) in pins.subproblems {
        let Some(s) = r
            .subproblems
            .iter()
            .find(|s| s.line.0 == line && s.direction == dir)
        else {
            errors.push(format!("{what}: no subproblem L{line}{dir:+}"));
            continue;
        };
        if (s.violation - want).abs() >= TOL_PP {
            errors.push(format!(
                "{what}: L{line}{dir:+} violation {:.9}%, pinned {want:.9}%",
                s.violation
            ));
        }
        if s.fault.is_some() || !s.certificate.as_ref().is_some_and(|c| c.passed()) {
            errors.push(format!(
                "{what}: L{line}{dir:+} is not a certified exact answer ({:?})",
                s.fault
            ));
        }
    }
    if (r.ucap_pct - pins.ucap_pct).abs() >= TOL_PP {
        errors.push(format!(
            "{what}: best violation {:.9}%, pinned {:.9}%",
            r.ucap_pct, pins.ucap_pct
        ));
    }
    let target = r.target.map(|(l, d)| (l.0, d));
    if target != pins.target {
        errors.push(format!(
            "{what}: target {target:?}, pinned {:?}",
            pins.target
        ));
    }
    if r.sweep.certified != pins.certified || r.sweep.heuristic_floor != 0 {
        errors.push(format!(
            "{what}: certified {} (pinned {}), heuristic floors {}",
            r.sweep.certified, pins.certified, r.sweep.heuristic_floor
        ));
    }
    errors
}
