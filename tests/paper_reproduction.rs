//! Cross-crate integration tests that pin the paper's quantitative claims.

use ed_security::core::attack::{
    evaluate_attack, optimal_attack, AttackConfig, BilevelOptions, BilevelSolver,
};
use ed_security::core::dispatch::DcOpf;
use ed_security::powerflow::LineId;

fn paper_config(ud13: f64, ud23: f64) -> AttackConfig {
    AttackConfig::new(vec![LineId(1), LineId(2)])
        .bounds(100.0, 200.0)
        .true_ratings(vec![ud13, ud23])
}

/// Section IV-A closed form: "the optimal generation turns out to be
/// (p1, p2) = (120, 180). The power flows at this point are f12 = −20,
/// f13 = 140, and f23 = 160."
#[test]
fn section_4a_no_attack_dispatch() {
    let net = ed_security::cases::three_bus();
    let d = DcOpf::new(&net).solve().unwrap();
    assert!((d.p_mw[0] - 120.0).abs() < 1e-6);
    assert!((d.p_mw[1] - 180.0).abs() < 1e-6);
    assert!((d.flows_mw[0] + 20.0).abs() < 1e-6);
    assert!((d.flows_mw[1] - 140.0).abs() < 1e-6);
    assert!((d.flows_mw[2] - 160.0).abs() < 1e-6);
    // "the most congested line among all the three lines is line {2,3}".
    let congested = d.congested_lines(&net.static_ratings_mva(), 0.999);
    assert_eq!(congested, vec![2]);
}

/// Table I, all four published rows, via the full bilevel machinery.
#[test]
fn table_1_all_rows() {
    let net = ed_security::cases::three_bus();
    let rows: [(f64, f64, [f64; 2], f64); 4] = [
        (130.0, 120.0, [100.0, 200.0], 80.0),
        (130.0, 150.0, [200.0, 100.0], 70.0),
        (160.0, 150.0, [100.0, 200.0], 50.0),
        (160.0, 180.0, [200.0, 100.0], 40.0),
    ];
    for (ud13, ud23, ua, over) in rows {
        let r = optimal_attack(&net, &paper_config(ud13, ud23)).unwrap();
        assert_eq!(r.ua_mw, ua.to_vec(), "ud = ({ud13}, {ud23})");
        assert!((r.overload_mw - over).abs() < 1e-4, "ud = ({ud13}, {ud23})");
    }
}

/// "If the true DLRs are such that ud23 > ud13, then the attacker chooses
/// ua23 = umax23" (strategy A) — and symmetrically strategy B.
#[test]
fn strategy_selection_rule() {
    let net = ed_security::cases::three_bus();
    for (ud13, ud23) in [(150.0, 130.0), (180.0, 120.0), (140.0, 110.0)] {
        assert!(ud13 > ud23);
        let r = optimal_attack(&net, &paper_config(ud13, ud23)).unwrap();
        // Violating the weaker line {2,3} pays more: strategy A, which
        // maxes ua23 and throttles ua13.
        assert_eq!(r.ua_mw[1], 200.0, "ud = ({ud13}, {ud23}): {:?}", r.ua_mw);
    }
}

/// The two bilevel reformulations (paper's big-M MILP vs complementarity
/// branching) find the same optimum across a grid of instances.
#[test]
fn bigm_equals_mpec_across_instances() {
    let net = ed_security::cases::three_bus();
    for (ud13, ud23) in [(130.0, 120.0), (150.0, 150.0), (110.0, 190.0)] {
        let mut config = paper_config(ud13, ud23);
        config.options = BilevelOptions {
            solver: BilevelSolver::BigM,
            node_limit: 100_000,
            use_heuristic: true,
            ..Default::default()
        };
        let bigm = optimal_attack(&net, &config).unwrap();
        config.options.solver = BilevelSolver::Mpec;
        let mpec = optimal_attack(&net, &config).unwrap();
        assert!(
            (bigm.ucap_pct - mpec.ucap_pct).abs() < 1e-4,
            "ud = ({ud13}, {ud23}): {} vs {}",
            bigm.ucap_pct,
            mpec.ucap_pct
        );
    }
}

/// Figure 4b/4c: nonlinear (AC) violations and costs exceed the linear
/// (DC) estimates, because of reactive flows and losses.
#[test]
fn ac_exceeds_dc_estimates() {
    let net = ed_security::cases::three_bus();
    let config = paper_config(130.0, 120.0);
    let r = optimal_attack(&net, &config).unwrap();
    let o = evaluate_attack(&net, &config, &r.ua_mw).unwrap();
    let ac_viol = o.ac_violation_pct.expect("AC converges");
    let ac_cost = o.ac_cost.expect("AC converges");
    assert!(ac_viol > o.dc_violation_pct);
    assert!(ac_cost > o.dc_cost);
}

/// The attack is monotone in opportunity: wider permissible bands can
/// never reduce the optimal violation.
#[test]
fn wider_bounds_never_hurt_attacker() {
    let net = ed_security::cases::three_bus();
    let narrow = AttackConfig::new(vec![LineId(1), LineId(2)])
        .bounds(140.0, 170.0)
        .true_ratings(vec![150.0, 150.0]);
    let wide = AttackConfig::new(vec![LineId(1), LineId(2)])
        .bounds(100.0, 200.0)
        .true_ratings(vec![150.0, 150.0]);
    let vn = optimal_attack(&net, &narrow).unwrap().ucap_pct;
    let vw = optimal_attack(&net, &wide).unwrap().ucap_pct;
    assert!(vw >= vn - 1e-6, "narrow {vn} vs wide {vw}");
}

/// The operator's dispatch against the manipulated ratings is feasible for
/// the *reported* ratings (stealthiness: no alarm) while violating the
/// true ones.
#[test]
fn attack_is_stealthy_but_harmful() {
    let net = ed_security::cases::three_bus();
    let config = paper_config(130.0, 120.0);
    let r = optimal_attack(&net, &config).unwrap();
    let reported = config.ratings_with(&net, &r.ua_mw);
    let d = DcOpf::new(&net).ratings(&reported).solve().unwrap();
    // No reported rating is violated (operator sees a clean solution)...
    for (f, u) in d.flows_mw.iter().zip(&reported) {
        assert!(f.abs() <= u + 1e-6);
    }
    // ...but a true rating is.
    let truth = config.true_ratings_vector(&net);
    assert!(d.flows_mw.iter().zip(&truth).any(|(f, u)| f.abs() > u + 1.0));
}
