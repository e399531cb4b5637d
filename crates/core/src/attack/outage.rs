//! Per-contingency attack entry point — the N-1 axis of the atlas.
//!
//! An atlas cell asks: with line `k` on outage, how much can the attacker
//! still overload some DLR line? This module rebuilds the post-outage
//! network, remaps the DLR line set into the reduced index space, runs
//! Algorithm 1 there, and maps the answer back to base-network line ids.
//! Islanding outages surface as a typed power-flow error (the builder's
//! connectivity check), never a panic — the atlas records them as
//! first-class "untestable" rows.

use super::{optimal_attack_with, AttackConfig, AttackResult};
use crate::CoreError;
use ed_powerflow::{LineId, Network, NetworkBuilder};

/// Rebuilds `net` with line `outage` removed.
///
/// Line indices above `outage` shift down by one in the returned network;
/// [`optimal_attack_under_outage`] handles the remapping for callers.
///
/// # Errors
///
/// - [`CoreError::InvalidInput`] when `outage` is out of range.
/// - [`CoreError::Powerflow`] when removing the line disconnects the
///   network (the outaged line was a bridge) — the typed islanding
///   outcome the atlas quarantine logic relies on.
pub fn outage_network(net: &Network, outage: usize) -> Result<Network, CoreError> {
    if outage >= net.num_lines() {
        return Err(CoreError::InvalidInput {
            what: format!("outage line {outage} out of range ({} lines)", net.num_lines()),
        });
    }
    let mut b = NetworkBuilder::new(net.base_mva());
    for bus in net.buses() {
        let id = b.add_bus(&bus.name, bus.kind, bus.demand_mw);
        b.set_bus_demand_mvar(id, bus.demand_mvar);
        b.set_voltage_setpoint(id, bus.voltage_setpoint_pu);
    }
    for (l, ln) in net.lines().iter().enumerate() {
        if l == outage {
            continue;
        }
        let id = b.add_line(ln.from, ln.to, ln.resistance_pu, ln.reactance_pu, ln.rating_mva);
        b.set_line_charging(id, ln.charging_pu);
    }
    for g in net.gens() {
        let id = b.add_gen(g.bus, g.pmin_mw, g.pmax_mw, g.cost);
        b.set_gen_q_limits(id, g.qmin_mvar, g.qmax_mvar);
    }
    b.build().map_err(CoreError::Powerflow)
}

/// A sound upper bound on the attainable violation for `config`,
/// independent of topology and contingency.
///
/// The operator's dispatch enforces `|f_l| ≤ u^a_l ≤ u^max_l` on every
/// DLR line, so no stealthy manipulation can push the violation above
/// `max_l 100·(u^max_l/u^d_l − 1)` percent (Eq. 14a). A non-positive bound
/// therefore *proves* the cell unattackable without touching a solver —
/// the atlas's cheapest degradation tier.
pub fn attack_upper_bound(config: &AttackConfig) -> f64 {
    config
        .u_max
        .iter()
        .zip(&config.u_d)
        .map(|(&hi, &ud)| 100.0 * (hi / ud - 1.0))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Runs Algorithm 1 with line `outage` removed (or on the intact network
/// when `outage` is `None`), returning a result whose line ids — the
/// attacked target and the per-subproblem labels — refer to the **base**
/// network's numbering.
///
/// `exact` selects the certified bilevel solve; `false` stops at the
/// corner/greedy heuristic (the atlas's middle degradation tier).
///
/// # Errors
///
/// - [`CoreError::InvalidInput`] when `outage` is out of range or names
///   one of the DLR lines in `config` (an outaged line has no rating to
///   manipulate — the atlas records such cells as untestable instead of
///   calling this).
/// - [`CoreError::Powerflow`] when the outage islands the network.
/// - Any error `optimal_attack` itself can produce.
pub fn optimal_attack_under_outage(
    net: &Network,
    config: &AttackConfig,
    outage: Option<usize>,
    exact: bool,
) -> Result<AttackResult, CoreError> {
    let Some(k) = outage else {
        return optimal_attack_with(net, config, exact);
    };
    if config.dlr_lines.iter().any(|l| l.0 == k) {
        return Err(CoreError::InvalidInput {
            what: format!("outage line {k} is itself a DLR line of this subset"),
        });
    }
    let reduced = outage_network(net, k)?;
    // Base index l maps to l−1 in the reduced network for l > k.
    let mut cfg = config.clone();
    cfg.dlr_lines =
        config.dlr_lines.iter().map(|l| LineId(if l.0 > k { l.0 - 1 } else { l.0 })).collect();
    let mut result = optimal_attack_with(&reduced, &cfg, exact)?;
    // Map every reported line id back into the base numbering.
    let back = |l: LineId| LineId(if l.0 >= k { l.0 + 1 } else { l.0 });
    result.target = result.target.map(|(l, d)| (back(l), d));
    for sub in &mut result.subproblems {
        sub.line = back(sub.line);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::optimal_attack;

    fn paper_config(net: &Network) -> AttackConfig {
        AttackConfig::new(ed_cases::three_bus::dlr_lines())
            .bounds(100.0, 200.0)
            .true_ratings(vec![150.0, 150.0])
            .demand(net.demand_vector_mw())
    }

    #[test]
    fn out_of_range_outage_is_typed() {
        let net = ed_cases::three_bus();
        let err = outage_network(&net, 99).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn bridge_outage_is_typed_islanding() {
        // Removing one triangle edge leaves a 2-line radial path; both
        // remaining lines are bridges, so a second outage must island.
        let net = ed_cases::three_bus();
        let radial = outage_network(&net, 0).unwrap();
        assert_eq!(radial.num_lines(), 2);
        let err = outage_network(&radial, 0).unwrap_err();
        assert!(matches!(err, CoreError::Powerflow(_)), "{err}");
        assert!(err.to_string().contains("disconnected"), "{err}");
    }

    #[test]
    fn no_outage_equals_plain_attack() {
        let net = ed_cases::three_bus();
        let cfg = paper_config(&net);
        let a = optimal_attack(&net, &cfg).unwrap();
        let b = optimal_attack_under_outage(&net, &cfg, None, true).unwrap();
        assert_eq!(a.ucap_pct, b.ucap_pct);
        assert_eq!(a.target, b.target);
    }

    #[test]
    fn outage_remaps_line_ids_back_to_base_numbering() {
        // DLR lines {1, 2}; outage line 0 shifts them to {0, 1} internally.
        let net = ed_cases::three_bus();
        let cfg = paper_config(&net);
        let r = optimal_attack_under_outage(&net, &cfg, Some(0), true).unwrap();
        assert!(r.ucap_pct.is_finite());
        for sub in &r.subproblems {
            assert!(sub.line == LineId(1) || sub.line == LineId(2), "{:?}", sub.line);
        }
        if let Some((l, _)) = r.target {
            assert!(l == LineId(1) || l == LineId(2), "{l:?}");
        }
    }

    #[test]
    fn outaging_a_dlr_line_is_invalid_input() {
        let net = ed_cases::three_bus();
        let cfg = paper_config(&net);
        let err = optimal_attack_under_outage(&net, &cfg, Some(1), true).unwrap_err();
        assert!(matches!(err, CoreError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn upper_bound_is_sound_and_detects_pinned_ratings() {
        let net = ed_cases::three_bus();
        let cfg = paper_config(&net);
        let bound = attack_upper_bound(&cfg);
        // u_max = 200, u_d = 150 → bound ≈ 33.33 %; the exact optimum must
        // not exceed it.
        assert!((bound - 100.0 * (200.0 / 150.0 - 1.0)).abs() < 1e-12);
        let r = optimal_attack(&net, &cfg).unwrap();
        assert!(r.ucap_pct <= bound + 1e-9);
        // When u_d sits at u_max, the bound proves unattackability.
        let pinned = paper_config(&net).true_ratings(vec![200.0, 200.0]);
        assert!(attack_upper_bound(&pinned) <= 0.0);
    }
}
