//! AC operating-point containers and line-flow computation.

use crate::Network;
use ed_linalg::Complex;

/// Complex power flow on one line, both ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFlow {
    /// Complex power injected into the line at the `from` end (MVA).
    pub s_from: Complex,
    /// Complex power injected into the line at the `to` end (MVA).
    pub s_to: Complex,
}

impl LineFlow {
    /// Apparent power at the more loaded end (MVA) — the quantity checked
    /// against the line rating by AC-aware dispatch.
    pub fn apparent_mva(&self) -> f64 {
        self.s_from.abs().max(self.s_to.abs())
    }

    /// Active power entering at the `from` end (MW, signed).
    pub fn active_from_mw(&self) -> f64 {
        self.s_from.re
    }

    /// Active losses dissipated in the line (MW).
    pub fn loss_mw(&self) -> f64 {
        self.s_from.re + self.s_to.re
    }
}

/// A converged AC operating point.
#[derive(Debug, Clone)]
pub struct AcFlow {
    /// Voltage magnitudes in per unit, indexed by bus.
    pub v_pu: Vec<f64>,
    /// Voltage angles in radians, indexed by bus.
    pub theta_rad: Vec<f64>,
    /// Net active injection at each bus (MW) at the solution.
    pub p_injection_mw: Vec<f64>,
    /// Net reactive injection at each bus (MVAr) at the solution.
    pub q_injection_mvar: Vec<f64>,
    /// Per-line complex flows.
    pub line_flows: Vec<LineFlow>,
    /// Newton iterations used.
    pub iterations: usize,
}

impl AcFlow {
    /// Total transmission losses (MW).
    pub fn total_losses_mw(&self) -> f64 {
        self.line_flows.iter().map(LineFlow::loss_mw).sum()
    }

    /// Apparent flows (MVA) per line, larger end.
    pub fn apparent_flows_mva(&self) -> Vec<f64> {
        self.line_flows.iter().map(LineFlow::apparent_mva).collect()
    }

    /// Maximum percentage rating violation over all lines using apparent
    /// flows (AC counterpart of [`crate::dc::DcFlow::max_violation_pct`]).
    ///
    /// # Panics
    ///
    /// Panics if `ratings_mva.len()` differs from the line count.
    pub fn max_violation_pct(&self, ratings_mva: &[f64]) -> f64 {
        assert_eq!(ratings_mva.len(), self.line_flows.len(), "ratings length mismatch");
        self.line_flows
            .iter()
            .zip(ratings_mva)
            .map(|(lf, &u)| 100.0 * (lf.apparent_mva() / u - 1.0))
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Computes per-line complex flows from a voltage solution.
pub(crate) fn line_flows(net: &Network, v_pu: &[f64], theta_rad: &[f64]) -> Vec<LineFlow> {
    let base = net.base_mva();
    net.lines()
        .iter()
        .map(|line| {
            let vf = Complex::from_polar(v_pu[line.from.0], theta_rad[line.from.0]);
            let vt = Complex::from_polar(v_pu[line.to.0], theta_rad[line.to.0]);
            let ys = Complex::new(line.resistance_pu, line.reactance_pu).inv();
            let ysh = Complex::new(0.0, line.charging_pu / 2.0);
            let i_from = ys * (vf - vt) + ysh * vf;
            let i_to = ys * (vt - vf) + ysh * vt;
            LineFlow {
                s_from: vf * i_from.conj() * base,
                s_to: vt * i_to.conj() * base,
            }
        })
        .collect()
}
