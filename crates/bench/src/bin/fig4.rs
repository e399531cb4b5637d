//! Reproduces **Figure 4** (three-bus sweep):
//!
//! - `fig4 a` — the DLR and demand pattern over the 24-hour horizon
//!   (Fig. 4a): double-peak demand, offset sinusoidal DLRs in `[100, 200]`.
//! - `fig4 b` — "time of attack" (Fig. 4b): the (nonlinear) flows on the
//!   DLR lines when the attacker's ratings are in effect, against the true
//!   DLR curves.
//! - `fig4 c` — attacker's gain `U_cap` and the SO's cost of generation,
//!   both as predicted by the bilevel (DC) model and as measured by the AC
//!   power-flow validation (Fig. 4c).
//!
//! With no argument, all three sections print in order.

use ed_bench::{paper_scenario, three_bus_attack_config};
use ed_core::attack::run_timeline;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "abc".to_string());
    let net = ed_cases::three_bus();
    let dlr_lines = ed_cases::three_bus::dlr_lines();
    let scenario = paper_scenario(&net, &dlr_lines, 96);

    if which.contains('a') {
        println!("# Figure 4a — demand and DLR patterns over 24 h");
        println!("hour,demand_mw,ud13_mw,ud23_mw");
        for step in scenario.steps() {
            println!(
                "{:.2},{:.1},{:.1},{:.1}",
                step.hour,
                step.total_demand_mw(),
                step.ratings_mw[1],
                step.ratings_mw[2]
            );
        }
        println!();
    }

    if which.contains('b') || which.contains('c') {
        let template = three_bus_attack_config();
        let points = run_timeline(&net, &template, &scenario, true)
            .expect("three-bus timeline is solvable");

        if which.contains('b') {
            println!("# Figure 4b — time of attack: flows on DLR lines vs true ratings");
            println!("hour,ud13,ud23,ua13,ua23,f13_dc,f23_dc,ac_violation_pct");
            for p in &points {
                let ua = p.u_a.as_ref().expect("timeline keeps only successful steps");
                println!(
                    "{:.2},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{}",
                    p.hour,
                    p.u_d[0],
                    p.u_d[1],
                    ua[0],
                    ua[1],
                    p.dlr_flows_mw[0],
                    p.dlr_flows_mw[1],
                    p.ac_violation_pct.map_or("n/a".into(), |v| format!("{v:.2}")),
                );
            }
            println!();
        }

        if which.contains('c') {
            println!("# Figure 4c — attacker gain and SO cost: bilevel (DC) vs nonlinear (AC)");
            println!("hour,ucap_dc_pct,ucap_ac_pct,cost_dc,cost_ac,baseline_cost");
            let mut ac_above_dc = 0usize;
            let mut counted = 0usize;
            for p in &points {
                if let (Some(ac), dc) = (p.ac_violation_pct, p.dc_violation_pct) {
                    counted += 1;
                    if ac >= dc {
                        ac_above_dc += 1;
                    }
                }
                println!(
                    "{:.2},{:.2},{},{:.1},{},{}",
                    p.hour,
                    p.predicted_violation_pct,
                    p.ac_violation_pct.map_or("n/a".into(), |v| format!("{v:.2}")),
                    p.dc_cost,
                    p.ac_cost.map_or("n/a".into(), |v| format!("{v:.1}")),
                    p.baseline_cost.map_or("n/a".into(), |v| format!("{v:.1}")),
                );
            }
            println!();
            println!(
                "# AC violation >= DC prediction on {ac_above_dc}/{counted} converged steps \
                 (paper: nonlinear flows exceed the DC estimate due to reactive power)"
            );
        }
    }
}
