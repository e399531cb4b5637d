//! Shared helpers for the reproduction binaries and `attack_gates`.
//!
//! Each paper table/figure has a dedicated binary under `src/bin/`:
//!
//! | Binary   | Reproduces                                              |
//! |----------|---------------------------------------------------------|
//! | `table1` | Table I — 3-bus optimal attacker strategies             |
//! | `fig2`   | Figure 2 — static vs dynamic line rating over a day     |
//! | `fig4`   | Figure 4 — 3-bus DLR/demand patterns, time of attack, gains/costs |
//! | `fig5`   | Figure 5 — 118-bus-class time of attack and loss curves |
//! | `table3` | Table III — parameter value recognition accuracy        |
//! | `table4` | Table IV — memory-layout (object) forensics accuracy    |
//! | `fig8`   | Figure 8 — PowerWorld/PowerTools case study             |
//!
//! Run any of them with `cargo run -p ed-bench --release --bin <name>`;
//! `scripts/verify.sh` runs all seven and pins each one's output. The
//! `attack_gates` binary holds Algorithm 1's release gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ed_core::attack::AttackConfig;
use ed_dlr::{DemandProfile, DlrProfile, Scenario, ScenarioBuilder};
use ed_powerflow::{LineId, Network};

/// The paper's Figure 4a setup on a given network: double-peak demand and
/// offset sinusoidal DLRs in `[100, 200]` MW on the specified lines.
pub fn paper_scenario(net: &Network, dlr_lines: &[LineId], steps: usize) -> Scenario {
    let mut b = ScenarioBuilder::new(net)
        .steps(steps)
        .demand(DemandProfile::double_peak(net.total_demand_mw()));
    for (k, &l) in dlr_lines.iter().enumerate() {
        // Offset each line's pattern by ~6h per line, as in Fig. 4a.
        b = b.dlr(l, DlrProfile::sinusoidal(100.0, 200.0, 5.0 + 6.0 * k as f64));
    }
    b.build()
}

/// The standard 3-bus attack configuration of the paper's examples.
pub fn three_bus_attack_config() -> AttackConfig {
    AttackConfig::new(ed_cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(vec![160.0, 160.0])
}

/// Picks a set of DLR lines for a large network: the `k` most-loaded lines
/// under a proportional dispatch (the paper notes DLR deployments target
/// "lines that are routinely prone to congestion").
pub fn congested_dlr_lines(net: &Network, k: usize) -> Vec<LineId> {
    let cap: f64 = net.total_pmax_mw();
    let d = net.total_demand_mw();
    let dispatch: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
    let inj = net.injections_mw(&dispatch);
    let flows = ed_powerflow::dc::solve(net, &inj)
        .expect("proportional dispatch is balanced")
        .flow_mw;
    let mut loading: Vec<(usize, f64)> = flows
        .iter()
        .enumerate()
        .map(|(i, &f)| (i, f.abs() / net.lines()[i].rating_mva))
        .collect();
    loading.sort_by(|a, b| b.1.total_cmp(&a.1));
    loading.into_iter().take(k).map(|(i, _)| LineId(i)).collect()
}

/// DLR bounds for a large network's line: `[0.8, 1.6] ×` static rating.
pub fn dlr_bounds_for(net: &Network, lines: &[LineId]) -> (Vec<f64>, Vec<f64>) {
    let lo = lines.iter().map(|l| 0.8 * net.lines()[l.0].rating_mva).collect();
    let hi = lines.iter().map(|l| 1.6 * net.lines()[l.0].rating_mva).collect();
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_has_requested_shape() {
        let net = ed_cases::three_bus();
        let s = paper_scenario(&net, &ed_cases::three_bus::dlr_lines(), 96);
        assert_eq!(s.len(), 96);
        assert_eq!(s.dlr_lines().len(), 2);
    }

    #[test]
    fn congested_lines_selected() {
        let net = ed_cases::ieee118_like();
        let lines = congested_dlr_lines(&net, 5);
        assert_eq!(lines.len(), 5);
        // Distinct lines.
        let mut dedup = lines.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
    }
}
