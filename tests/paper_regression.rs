//! Golden regression pins for the paper's exact sweep results.
//!
//! These tests pin the exact sweeps' results on the 3-bus, 6-bus and
//! node-capped 118- and 300-bus cases — the maximum % capacity violation
//! per (line, direction) subproblem — as golden values with explicit
//! tolerances, so a solver or presolve change that silently shifts the
//! attack's reproduced results fails CI.
//!
//! The second family pins the *lower-bound invariant*: the corner
//! heuristic evaluates genuine attack candidates, so the violation it
//! achieves can never exceed what the exact bilevel solver proves optimal
//! for the same (line, direction).

use ed_security::cases;
use ed_security::core::attack::kkt::KktModel;
use ed_security::core::attack::{
    corner_heuristic, optimal_attack, AttackConfig, AttackResult, BilevelOptions,
};
use ed_security::optim::SolveBudget;
use ed_security::powerflow::LineId;

/// Exact-sweep config for the paper's 3-bus case (same bounds/ratings as
/// the quickstart: Table I, row 1).
fn three_bus_config() -> AttackConfig {
    AttackConfig::new(cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0])
        .solver_options(BilevelOptions { use_heuristic: false, ..Default::default() })
}

/// Exact-sweep config for the 6-bus fixture (mirrors `attack_gates`'
/// delta re-solve chain).
fn six_bus_config(net: &ed_security::powerflow::Network) -> AttackConfig {
    let dlr = vec![LineId(4), LineId(8)];
    let u_d: Vec<f64> = dlr.iter().map(|l| 0.9 * net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = dlr.iter().map(|l| 0.5 * net.lines()[l.0].rating_mva).collect();
    let hi: Vec<f64> = dlr.iter().map(|l| 2.0 * net.lines()[l.0].rating_mva).collect();
    AttackConfig::new(dlr)
        .bounds_per_line(lo, hi)
        .true_ratings(u_d)
        .solver_options(BilevelOptions { use_heuristic: false, ..Default::default() })
}

/// Node-capped sweep config for the 118- and 300-bus-class networks: the
/// three most-loaded lines under a proportional dispatch get DLR (mirrors
/// `ed_bench::congested_dlr_lines`), bounds `[0.8, 1.6] ×` static rating,
/// true rating = static rating. Node limit 1: each subproblem solves its
/// root relaxation, then promotes the corner-heuristic incumbent to an
/// independently *certified* KKT point — the sweep `attack_gates` gates.
fn node_capped_config(net: &ed_security::powerflow::Network) -> AttackConfig {
    let cap: f64 = net.total_pmax_mw();
    let d = net.total_demand_mw();
    let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
    let flows = ed_security::powerflow::dc::solve(net, &net.injections_mw(&prop))
        .expect("proportional dispatch is balanced")
        .flow_mw;
    let mut loading: Vec<(usize, f64)> = flows
        .iter()
        .enumerate()
        .map(|(i, &f)| (i, f.abs() / net.lines()[i].rating_mva))
        .collect();
    loading.sort_by(|a, b| b.1.total_cmp(&a.1));
    let dlr: Vec<LineId> = loading.iter().take(3).map(|&(i, _)| LineId(i)).collect();
    let u_d: Vec<f64> = dlr.iter().map(|l| net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = u_d.iter().map(|u| 0.8 * u).collect();
    let hi: Vec<f64> = u_d.iter().map(|u| 1.6 * u).collect();
    AttackConfig::new(dlr).bounds_per_line(lo, hi).true_ratings(u_d).solver_options(
        BilevelOptions { node_limit: 1, certify: Some(true), ..Default::default() },
    )
}

/// Looks up the violation the sweep proved for one (line, direction).
fn violation(r: &AttackResult, line: usize, direction: i8) -> f64 {
    let s = r
        .subproblems
        .iter()
        .find(|s| s.line.0 == line && s.direction == direction)
        .unwrap_or_else(|| panic!("no subproblem for line {line} direction {direction}"));
    assert!(
        s.proved_optimal && s.fault.is_none(),
        "L{line}{direction:+}: exact sweep must complete ({:?})",
        s.fault
    );
    s.violation
}

/// Golden values for the 3-bus exact sweep: max % capacity violation per
/// (line, direction). Absolute tolerance 0.05 percentage points — wide
/// enough for cross-platform floating-point noise, narrow enough that any
/// genuine solver regression (these moved by whole points in development)
/// trips it.
#[test]
fn three_bus_exact_sweep_matches_golden_violations() {
    let net = cases::three_bus();
    let r = optimal_attack(&net, &three_bus_config()).expect("3-bus exact sweep solves");
    const GOLDEN: [(usize, i8, f64); 4] = [
        (1, 1, 53.846153846154),
        (1, -1, -176.923076923077),
        (2, 1, 66.666666666667),
        (2, -1, -183.333333333333),
    ];
    for (line, dir, want) in GOLDEN {
        let got = violation(&r, line, dir);
        assert!(
            (got - want).abs() < 0.05,
            "3-bus L{line}{dir:+}: violation {got:.9}% drifted from golden {want:.9}%"
        );
    }
    assert!((r.ucap_pct - 66.666666666667).abs() < 0.05, "best violation: {}", r.ucap_pct);
    assert_eq!(r.target, Some((LineId(2), 1)), "target subproblem moved: {:?}", r.target);
}

/// Golden values for the 6-bus exact sweep, same tolerance rationale.
#[test]
fn six_bus_exact_sweep_matches_golden_violations() {
    let net = cases::six_bus();
    let r = optimal_attack(&net, &six_bus_config(&net)).expect("6-bus exact sweep solves");
    const GOLDEN: [(usize, i8, f64); 4] = [
        (4, 1, -40.823782215644),
        (4, -1, -155.555555555556),
        (8, 1, -37.858256828939),
        (8, -1, -155.555555555556),
    ];
    for (line, dir, want) in GOLDEN {
        let got = violation(&r, line, dir);
        assert!(
            (got - want).abs() < 0.05,
            "6-bus L{line}{dir:+}: violation {got:.9}% drifted from golden {want:.9}%"
        );
    }
    // On this fixture no manipulation produces a true-rating violation —
    // every subproblem's optimum stays below its capacity, so the sweep
    // reports no viable target. That *absence* is part of the pin.
    assert!(r.ucap_pct.abs() < 0.05, "best violation: {}", r.ucap_pct);
    assert_eq!(r.target, None, "6-bus fixture must stay unattackable: {:?}", r.target);
}

/// Golden values for the 118-bus node-capped sweep, same ±0.05 pp
/// tolerance. Unlike the small cases these are not proved optimal (node
/// limit 1); what the pin demands instead is that every reported value is
/// an independently **certified** KKT point — the basis hand-off, floor
/// promotion, and certification pipeline reproducing exactly these
/// numbers, with no bare heuristic floor anywhere.
#[test]
fn ieee118_node_capped_sweep_matches_certified_golden_violations() {
    let net = cases::ieee118_like();
    let r = optimal_attack(&net, &node_capped_config(&net)).expect("118-bus sweep solves");
    const GOLDEN: [(usize, i8, f64); 6] = [
        (159, 1, -180.0),
        (159, -1, 6.258321246073),
        (137, 1, -6.929692691053),
        (137, -1, -180.0),
        (32, 1, -8.848797640011),
        (32, -1, -180.0),
    ];
    for (line, dir, want) in GOLDEN {
        let s = r
            .subproblems
            .iter()
            .find(|s| s.line.0 == line && s.direction == dir)
            .unwrap_or_else(|| panic!("no subproblem for line {line} direction {dir}"));
        assert!(s.fault.is_none(), "L{line}{dir:+}: sweep degraded ({:?})", s.fault);
        let cert = s
            .certificate
            .as_ref()
            .unwrap_or_else(|| panic!("L{line}{dir:+}: value carries no certificate"));
        assert!(cert.passed(), "L{line}{dir:+}: certificate failed");
        assert!(!s.proved_optimal, "L{line}{dir:+}: a node-capped value claims a proof");
        assert!(
            (s.violation - want).abs() < 0.05,
            "118-bus L{line}{dir:+}: violation {:.9}% drifted from golden {want:.9}%",
            s.violation
        );
    }
    assert_eq!(r.sweep.heuristic_floor, 0, "a bare heuristic floor survived");
    assert_eq!(r.sweep.certified, 6, "not every subproblem certified first-try");
    assert!((r.ucap_pct - 6.258321246073).abs() < 0.05, "best violation: {}", r.ucap_pct);
    assert!((r.overload_mw - 4.247408450386).abs() < 0.05, "overload: {}", r.overload_mw);
    assert_eq!(r.target, Some((LineId(159), -1)), "target subproblem moved: {:?}", r.target);
}

/// The same node-capped sweep on `case300_like`. The corner heuristic's
/// dispatches there are exact dual active-set vertices, so every floor
/// certifies; the best violation is L207−'s, which equals that
/// subproblem's root bound to 1e-5 pp.
#[test]
fn case300_node_capped_sweep_certifies_every_floor() {
    let net = cases::case300_like();
    let r = optimal_attack(&net, &node_capped_config(&net)).expect("300-bus sweep solves");
    for s in &r.subproblems {
        let (line, dir) = (s.line.0, s.direction);
        assert!(s.fault.is_none(), "L{line}{dir:+}: sweep degraded ({:?})", s.fault);
        let cert = s.certificate.as_ref();
        assert!(cert.is_some_and(|c| c.passed()), "L{line}{dir:+}: value not certified");
    }
    assert_eq!(r.sweep.heuristic_floor, 0, "a bare heuristic floor survived");
    assert_eq!(r.sweep.certified, 6, "not every subproblem certified first-try");
    assert!((r.ucap_pct - 31.4934).abs() < 0.05, "best violation: {}", r.ucap_pct);
    assert_eq!(r.target, Some((LineId(207), -1)), "target subproblem moved: {:?}", r.target);
}

/// Runs the 6-bus 4-hour delta-resolve chain (the short form of
/// `attack_gates`' 24-hour chain: diurnal demand profile, certify
/// on, presolve on, single-threaded hours) and returns the final hour's
/// result. `delta` engages the hour-to-hour basis hand-off; `!delta`
/// forces each hour cold (`warm_start = false` disables the hand-off).
/// Every hour presolves its KKT model afresh either way.
fn six_bus_delta_chain(net: &ed_security::powerflow::Network, delta: bool) -> AttackResult {
    const HOURS: usize = 4;
    let mut handoff: Option<ed_security::optim::lp::Basis> = None;
    let mut last: Option<AttackResult> = None;
    for h in 0..HOURS {
        let f = 0.9 + 0.15 * (std::f64::consts::PI * h as f64 / 24.0).sin();
        let demand: Vec<f64> = net.buses().iter().map(|b| b.demand_mw * f).collect();
        let mut cfg = six_bus_config(net).demand(demand);
        cfg.options.certify = Some(true);
        cfg.options.presolve = Some(true);
        cfg.options.threads = Some(1);
        if delta {
            cfg.options.warm_basis = handoff.take();
        } else {
            cfg.options.warm_start = Some(false);
        }
        let r = optimal_attack(net, &cfg).expect("delta-chain hour solves");
        if delta {
            handoff = r.seed_basis.clone();
        }
        last = Some(r);
    }
    last.expect("chain ran at least one hour")
}

/// Golden pin for the 6-bus 4-hour delta-resolve chain: the final hour's
/// exact violations must be **byte-identical** with the delta machinery on
/// and off — the warm chain's pivot paths may only change how fast the
/// answer arrives, never which bits it
/// carries — and both must sit on the golden values (same ±0.05 pp
/// tolerance as the sibling pins).
#[test]
fn six_bus_four_hour_delta_chain_final_hour_is_pool_invariant() {
    let net = cases::six_bus();
    let cold = six_bus_delta_chain(&net, false);
    let warm = six_bus_delta_chain(&net, true);

    for (c, w) in cold.subproblems.iter().zip(&warm.subproblems) {
        assert_eq!(
            (c.line, c.direction),
            (w.line, w.direction),
            "subproblem order must not depend on the delta machinery"
        );
        assert_eq!(
            c.violation.to_bits(),
            w.violation.to_bits(),
            "L{}{:+}: final-hour violation differs with the pool on: \
             {:.17} (cold) vs {:.17} (delta)",
            c.line.0,
            c.direction,
            c.violation,
            w.violation
        );
    }
    assert_eq!(cold.ucap_pct.to_bits(), warm.ucap_pct.to_bits(), "ucap_pct drifted");
    assert_eq!(cold.target, warm.target, "target subproblem drifted");
    for (c, w) in cold.dispatch_mw.iter().zip(&warm.dispatch_mw) {
        assert_eq!(c.to_bits(), w.to_bits(), "dispatch drifted with the pool on");
    }

    // The golden values themselves (final hour h=3, demand factor
    // 0.9 + 0.15·sin(3π/24)).
    const GOLDEN: [(usize, i8, f64); 4] = [
        (4, 1, -44.761183240535),
        (4, -1, -154.837118915055),
        (8, 1, -42.867477340917),
        (8, -1, -155.555555555556),
    ];
    for (line, dir, want) in GOLDEN {
        let got = violation(&cold, line, dir);
        assert!(
            (got - want).abs() < 0.05,
            "6-bus 4h chain L{line}{dir:+}: violation {got:.9}% drifted from golden {want:.9}%"
        );
    }
    assert!(cold.ucap_pct.abs() < 0.05, "best violation: {}", cold.ucap_pct);
    assert_eq!(cold.target, None, "6-bus chain must stay unattackable: {:?}", cold.target);
}

/// The hour hand-off rests on presolve being deterministic: each hour of
/// the 6-bus demand chain presolves its own KKT model, and the previous
/// hour's seed fits the next hour only if both reduce to the same shape.
/// `set_seed` silently drops a seed of other dimensions, so this pins the
/// shapes and the acceptance hour by hour.
#[test]
fn six_bus_chain_fresh_presolves_keep_the_seed_handoff() {
    let net = cases::six_bus();
    let budget = SolveBudget::unlimited();
    let mut dims = None;
    let mut handoff: Option<ed_security::optim::lp::Basis> = None;
    for h in 0..4 {
        let f = 0.9 + 0.15 * (std::f64::consts::PI * h as f64 / 24.0).sin();
        let demand: Vec<f64> = net.buses().iter().map(|b| b.demand_mw * f).collect();
        let cfg = six_bus_config(&net).demand(demand);
        let mut prepared = KktModel::build(&net, &cfg)
            .and_then(|kkt| kkt.prepare(true))
            .expect("hour KKT model builds and presolves");
        let hour_dims = prepared.reduced_dims();
        assert_eq!(*dims.get_or_insert(hour_dims), hour_dims, "hour {h}: reduced shape moved");
        if let Some(seed) = handoff.take() {
            assert!(prepared.set_seed(seed), "hour {h}: the previous hour's seed was dropped");
        }
        prepared.compute_seed(&budget);
        handoff = prepared.seed().cloned();
        assert!(handoff.is_some(), "hour {h}: no seed to hand on");
    }
}

/// One 6-bus sweep at `factor ×` nominal demand with warm start, presolve
/// and certification forced on, single-threaded, offered `warm_basis`.
fn six_bus_sweep_at(
    net: &ed_security::powerflow::Network,
    factor: f64,
    warm_basis: Option<ed_security::optim::lp::Basis>,
) -> AttackResult {
    let demand: Vec<f64> = net.buses().iter().map(|b| b.demand_mw * factor).collect();
    let mut cfg = six_bus_config(net).demand(demand);
    cfg.options.warm_start = Some(true);
    cfg.options.presolve = Some(true);
    cfg.options.certify = Some(true);
    cfg.options.threads = Some(1);
    cfg.options.warm_basis = warm_basis;
    optimal_attack(net, &cfg).expect("6-bus sweep solves")
}

/// The answer's bits: per-subproblem violations, `ucap_pct`, `ua_mw`,
/// `dispatch_mw` and the target.
type AnswerBits = (Vec<u64>, u64, Vec<u64>, Vec<u64>, Option<(LineId, i8)>);

fn answer_bits(r: &AttackResult) -> AnswerBits {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let violations: Vec<f64> = r.subproblems.iter().map(|s| s.violation).collect();
    (bits(&violations), r.ucap_pct.to_bits(), bits(&r.ua_mw), bits(&r.dispatch_mw), r.target)
}

/// A seed handed to the next demand level is checked once per sweep, not
/// at every subproblem root: the ×0.8 seed is primal infeasible at ×1.0,
/// so the sweep re-derives the cold phase-1 seed (spending phase-1
/// iterations once) and no root is offered a basis it would reject. The
/// answer is then the fresh ×1.0 sweep's, bit for bit. An exact repeat's
/// seed is feasible and kept without running phase 1.
#[test]
fn six_bus_stale_handoff_is_rederived_once_per_sweep() {
    let net = cases::six_bus();
    let fresh = six_bus_sweep_at(&net, 1.0, None);
    let stale = six_bus_sweep_at(&net, 0.8, None).seed_basis;
    assert!(stale.is_some(), "the ×0.8 sweep produced no seed");

    let handed = six_bus_sweep_at(&net, 1.0, stale);
    assert_eq!(handed.sweep.cold_restarts, 0, "a root was offered a seed it rejected");
    assert!(handed.sweep.seed_iterations > 0, "the stale seed was kept without phase 1");
    assert_eq!(answer_bits(&handed), answer_bits(&fresh), "stale hand-off moved the answer");

    let repeat = six_bus_sweep_at(&net, 1.0, handed.seed_basis.clone());
    assert_eq!(repeat.sweep.seed_iterations, 0, "an exact repeat's seed ran phase 1");
    assert_eq!(repeat.sweep.cold_restarts, 0, "an exact repeat's seed was rejected at a root");
    assert_eq!(repeat.seed_basis, handed.seed_basis, "an accepted seed must come back unchanged");
    assert_eq!(answer_bits(&repeat), answer_bits(&fresh), "exact repeat moved the answer");
}

/// Lower-bound invariant: on every (line, direction) subproblem the corner
/// heuristic's achieved violation is ≤ the exact optimum (the heuristic
/// evaluates feasible candidates; the exact solver maximizes over all of
/// them). A heuristic "beating" the exact solver means one of the two is
/// wrong.
#[test]
fn heuristic_never_exceeds_exact_objective() {
    let cases: [(&str, ed_security::powerflow::Network, AttackConfig); 2] = {
        let three = cases::three_bus();
        let three_cfg = three_bus_config();
        let six = cases::six_bus();
        let six_cfg = six_bus_config(&six);
        [("three_bus", three, three_cfg), ("six_bus", six, six_cfg)]
    };
    for (name, net, config) in cases {
        let exact = optimal_attack(&net, &config).expect("exact sweep solves");
        let heur = corner_heuristic(&net, &config).expect("corner heuristic runs");
        for (k, line) in config.dlr_lines.iter().enumerate() {
            for (d, dir) in [(0usize, 1i8), (1, -1)] {
                let flow = heur.best_flow[k][d];
                if !flow.is_finite() {
                    continue; // no feasible candidate for this direction
                }
                // PercentOfTrue metric: 100 · (dir-aligned flow / u_d − 1).
                let heur_violation = 100.0 * (flow / config.u_d[k] - 1.0);
                let exact_violation = violation(&exact, line.0, dir);
                assert!(
                    heur_violation <= exact_violation + 1e-6,
                    "{name} L{}{dir:+}: heuristic {heur_violation:.9}% exceeds \
                     exact {exact_violation:.9}% — lower-bound invariant broken",
                    line.0
                );
            }
        }
    }
}
