//! The deterministic 300-bus-class system — the atlas scale stressor.
//!
//! Dimension-matched to the IEEE 300-bus test case: 300 buses, 411
//! branches, 69 generators, and ≈23 525 MW of load. Like
//! [`crate::ieee118_like()`], this is a *synthetic stand-in* with matched
//! dimensions, not the real case file: it exercises the same code paths
//! (factorization, PTDF, the bilevel sweep) at the size where the
//! atlas engine's checkpointing and fault isolation start to pay for
//! themselves. Use [`crate::matpower::parse`] to load the real IEEE case
//! if you have one.

use crate::synthetic::{synthetic, SyntheticConfig};
use ed_powerflow::Network;

/// Seed fixed so every build of the workspace reproduces the same system.
pub const CASE300_LIKE_SEED: u64 = 0x0300_BEEF;

/// Builds the 300-bus-class system.
///
/// The generator routes every sampled parameter through
/// `NetworkBuilder::build`, whose validation rejects non-finite
/// reactances, ratings, demands, and costs — so a successful return is
/// also a certificate that the sampled system is numerically well-formed.
///
/// # Example
///
/// ```
/// let net = ed_cases::case300_like();
/// assert_eq!(net.num_buses(), 300);
/// assert_eq!(net.num_lines(), 411);
/// assert_eq!(net.num_gens(), 69);
/// ```
pub fn case300_like() -> Network {
    synthetic(&SyntheticConfig {
        buses: 300,
        lines: 411,
        gens: 69,
        total_demand_mw: 23_525.0,
        capacity_margin: 1.6,
        seed: CASE300_LIKE_SEED,
    })
    .expect("300-bus-class configuration is statically valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ed_powerflow::dc;

    #[test]
    fn matches_ieee300_dimensions() {
        let net = case300_like();
        assert_eq!(net.num_buses(), 300);
        assert_eq!(net.num_lines(), 411);
        assert_eq!(net.num_gens(), 69);
        assert!((net.total_demand_mw() - 23_525.0).abs() < 1e-6);
    }

    #[test]
    fn deterministic() {
        assert_eq!(case300_like(), case300_like());
    }

    #[test]
    fn every_parameter_is_finite_and_dc_solvable() {
        let net = case300_like();
        // NetworkBuilder already forbids non-finite parameters; assert the
        // invariant explicitly where the atlas relies on it.
        for l in net.lines() {
            assert!(l.reactance_pu.is_finite() && l.reactance_pu > 0.0);
            assert!(l.rating_mva.is_finite() && l.rating_mva > 0.0);
        }
        for b in net.buses() {
            assert!(b.demand_mw.is_finite());
        }
        let cap = net.total_pmax_mw();
        let d = net.total_demand_mw();
        assert!(cap > d, "case must have dispatch headroom");
        let dispatch: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
        let inj = net.injections_mw(&dispatch);
        let f = dc::solve(&net, &inj).unwrap();
        assert_eq!(f.flow_mw.len(), 411);
        assert!(f.flow_mw.iter().all(|v| v.is_finite()));
    }
}
