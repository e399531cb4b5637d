//! DC (linearized) power flow — Eq. (4)–(6) of the paper.
//!
//! Under the DC approximation, the active flow on line `{i,j}` is
//! `f_ij = β_ij (θ_i − θ_j)` and nodal balance ties injections to angles
//! through the bus susceptance matrix `B`. Given balanced bus injections,
//! [`solve`] recovers angles and line flows by a reduced linear solve with
//! the slack angle fixed to zero.

use crate::{FactorCache, Network, PowerflowError};
use ed_linalg::Matrix;

/// Result of a DC power-flow solve.
#[derive(Debug, Clone)]
pub struct DcFlow {
    /// Voltage phase angles in radians, indexed by bus (slack = 0).
    pub theta_rad: Vec<f64>,
    /// Active flow on each line in MW, positive from `from` to `to`.
    pub flow_mw: Vec<f64>,
}

impl DcFlow {
    /// Maximum percentage rating violation `100·(|f|/u − 1)` over all lines
    /// (can be negative when no line is overloaded) — the paper's capacity
    /// violation measure, Eq. (14a), without the clamp at zero.
    ///
    /// # Panics
    ///
    /// Panics if `ratings_mw.len() != flow_mw.len()`.
    pub fn max_violation_pct(&self, ratings_mw: &[f64]) -> f64 {
        assert_eq!(ratings_mw.len(), self.flow_mw.len(), "ratings length mismatch");
        self.flow_mw
            .iter()
            .zip(ratings_mw)
            .map(|(&f, &u)| 100.0 * (f.abs() / u - 1.0))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Builds the full `n x n` bus susceptance matrix `B` (per unit).
pub fn bus_susceptance(net: &Network) -> Matrix {
    let n = net.num_buses();
    let mut b = Matrix::zeros(n, n);
    for line in net.lines() {
        let beta = line.susceptance_pu();
        let (i, j) = (line.from.0, line.to.0);
        b[(i, i)] += beta;
        b[(j, j)] += beta;
        b[(i, j)] -= beta;
        b[(j, i)] -= beta;
    }
    b
}

/// Solves the DC power flow for the given bus injections (MW).
///
/// Injections must sum to (numerically) zero — the DC feasibility condition
/// Eq. (6) of the paper.
///
/// # Errors
///
/// - [`PowerflowError::DimensionMismatch`] if `injections_mw.len()` differs
///   from the bus count.
/// - [`PowerflowError::Unbalanced`] if total injection exceeds `1e-6` MW.
/// - [`PowerflowError::Linalg`] if the reduced susceptance matrix is
///   singular (cannot happen for a connected network).
pub fn solve(net: &Network, injections_mw: &[f64]) -> Result<DcFlow, PowerflowError> {
    let cache = FactorCache::shared(net)?;
    let n = net.num_buses();
    if injections_mw.len() != n {
        return Err(PowerflowError::DimensionMismatch {
            expected: format!("{n} bus injections"),
            found: format!("{}", injections_mw.len()),
        });
    }
    let surplus: f64 = injections_mw.iter().sum();
    if surplus.abs() > 1e-6 {
        return Err(PowerflowError::Unbalanced { surplus_mw: surplus });
    }
    let inj_pu: Vec<f64> = injections_mw.iter().map(|&p| p / net.base_mva()).collect();
    let theta = cache.angles_for_injections_pu(&inj_pu)?;
    let flow_mw = flows_from_angles(net, &theta);
    Ok(DcFlow { theta_rad: theta, flow_mw })
}

/// [`solve`] against a pre-built [`FactorCache`], for injections that may
/// not balance exactly: the surplus is absorbed at the slack bus (the
/// physical behavior of the reference generator) instead of being
/// rejected, and returned alongside the flow so the caller can judge it.
/// Used by independent post-dispatch audits, which must recompute flows
/// even for a *bad* dispatch — rejecting imbalance outright would blind
/// the audit to exactly the dispatches it exists to catch.
///
/// # Errors
///
/// - [`PowerflowError::DimensionMismatch`] if `injections_mw.len()` differs
///   from the bus count.
/// - [`PowerflowError::Linalg`] if the reduced susceptance matrix is
///   singular.
pub fn solve_absorbing_slack(
    net: &Network,
    cache: &FactorCache,
    injections_mw: &[f64],
) -> Result<(DcFlow, f64), PowerflowError> {
    let n = net.num_buses();
    if injections_mw.len() != n {
        return Err(PowerflowError::DimensionMismatch {
            expected: format!("{n} bus injections"),
            found: format!("{}", injections_mw.len()),
        });
    }
    let surplus: f64 = injections_mw.iter().sum();
    let slack = net.slack().0;
    let inj_pu: Vec<f64> = injections_mw
        .iter()
        .enumerate()
        .map(|(i, &p)| (if i == slack { p - surplus } else { p }) / net.base_mva())
        .collect();
    let theta = cache.angles_for_injections_pu(&inj_pu)?;
    let flow_mw = flows_from_angles(net, &theta);
    Ok((DcFlow { theta_rad: theta, flow_mw }, surplus))
}

/// Line flows (MW) implied by a vector of bus angles (radians).
///
/// # Panics
///
/// Panics if `theta_rad.len() != num_buses()`.
pub fn flows_from_angles(net: &Network, theta_rad: &[f64]) -> Vec<f64> {
    assert_eq!(theta_rad.len(), net.num_buses(), "theta length mismatch");
    net.lines()
        .iter()
        .map(|l| l.susceptance_pu() * (theta_rad[l.from.0] - theta_rad[l.to.0]) * net.base_mva())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BusKind, CostCurve, NetworkBuilder};

    fn paper_three_bus() -> Network {
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
        let b3 = b.add_bus("B3", BusKind::Pq, 300.0);
        b.add_line(b1, b2, 0.002, 0.05, 160.0);
        b.add_line(b1, b3, 0.002, 0.05, 160.0);
        b.add_line(b2, b3, 0.002, 0.05, 160.0);
        b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
        b.add_gen(b2, 0.0, 300.0, CostCurve::linear(1.0));
        b.build().unwrap()
    }

    /// Section IV-A of the paper: dispatch (120, 180) against demand 300
    /// yields flows f12 = -20, f13 = 140, f23 = 160.
    #[test]
    fn paper_closed_form_flows() {
        let net = paper_three_bus();
        let f = solve(&net, &[120.0, 180.0, -300.0]).unwrap();
        assert!((f.flow_mw[0] + 20.0).abs() < 1e-9, "f12={}", f.flow_mw[0]);
        assert!((f.flow_mw[1] - 140.0).abs() < 1e-9, "f13={}", f.flow_mw[1]);
        assert!((f.flow_mw[2] - 160.0).abs() < 1e-9, "f23={}", f.flow_mw[2]);
    }

    #[test]
    fn conservation_at_each_bus() {
        let net = paper_three_bus();
        let inj = [50.0, 250.0, -300.0];
        let f = solve(&net, &inj).unwrap();
        // Bus 1: f12 + f13 = inj1; bus 2: -f12 + f23 = inj2.
        assert!((f.flow_mw[0] + f.flow_mw[1] - inj[0]).abs() < 1e-9);
        assert!((-f.flow_mw[0] + f.flow_mw[2] - inj[1]).abs() < 1e-9);
    }

    #[test]
    fn unbalanced_rejected() {
        let net = paper_three_bus();
        assert!(matches!(
            solve(&net, &[120.0, 180.0, -200.0]),
            Err(PowerflowError::Unbalanced { .. })
        ));
    }

    #[test]
    fn wrong_length_rejected() {
        let net = paper_three_bus();
        assert!(matches!(
            solve(&net, &[0.0, 0.0]),
            Err(PowerflowError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn violation_pct() {
        let net = paper_three_bus();
        let f = solve(&net, &[120.0, 180.0, -300.0]).unwrap();
        let ratings = vec![160.0, 130.0, 120.0];
        let pct = f.max_violation_pct(&ratings);
        assert!((pct - 100.0 * (160.0 / 120.0 - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn angles_zero_at_slack() {
        let net = paper_three_bus();
        let f = solve(&net, &[120.0, 180.0, -300.0]).unwrap();
        assert_eq!(f.theta_rad[net.slack().0], 0.0);
    }

    #[test]
    fn absorbing_slack_matches_balanced_solve() {
        let net = paper_three_bus();
        let cache = FactorCache::build(&net).unwrap();
        let inj = [120.0, 180.0, -300.0];
        let (f, surplus) = solve_absorbing_slack(&net, &cache, &inj).unwrap();
        assert!(surplus.abs() < 1e-9);
        let exact = solve(&net, &inj).unwrap();
        for (a, b) in f.flow_mw.iter().zip(&exact.flow_mw) {
            assert!((a - b).abs() < 1e-9);
        }
        // A 30 MW surplus is absorbed at the slack: same as the balanced
        // case where the slack injection is 30 MW lower.
        let (g, s) = solve_absorbing_slack(&net, &cache, &[150.0, 180.0, -300.0]).unwrap();
        assert!((s - 30.0).abs() < 1e-9);
        for (a, b) in g.flow_mw.iter().zip(&exact.flow_mw) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn flows_scale_linearly() {
        let net = paper_three_bus();
        let f1 = solve(&net, &[100.0, 100.0, -200.0]).unwrap();
        let f2 = solve(&net, &[200.0, 200.0, -400.0]).unwrap();
        for (a, b) in f1.flow_mw.iter().zip(&f2.flow_mw) {
            assert!((2.0 * a - b).abs() < 1e-8);
        }
    }
}
