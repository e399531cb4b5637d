//! Power Transfer Distribution Factors (PTDF).
//!
//! `PTDF[l][b]` is the sensitivity of the DC flow on line `l` to one MW of
//! extra injection at bus `b` (withdrawn at the slack). PTDFs give an
//! angle-free "flows = PTDF · injections" view of the network, used by the
//! p-only formulation of the bilevel attack problem and by the LODF-based
//! N−1 screening.

use crate::{FactorCache, Network, PowerflowError};
use ed_linalg::Matrix;

/// PTDF table with slack-referenced injections.
#[derive(Debug, Clone)]
pub struct Ptdf {
    /// `num_lines x num_buses` sensitivity matrix (MW per MW).
    matrix: Matrix,
    slack: usize,
}

impl Ptdf {
    /// Computes the PTDF matrix of a network.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::Linalg`] if the reduced susceptance matrix
    /// is singular (cannot happen for a connected, validated network).
    pub fn compute(net: &Network) -> Result<Ptdf, PowerflowError> {
        let cache = FactorCache::shared(net)?;
        Self::compute_with(net, &cache)
    }

    /// Computes the PTDF matrix against a pre-built [`FactorCache`].
    ///
    /// One sparse forward/back substitution per non-slack bus replaces the
    /// seed's explicit `B_red⁻¹`; columns are independent, so they are
    /// computed on the `ed-par` worker pool (`ED_THREADS`). Each column
    /// solve is exactly the solve the old inverse performed internally, so
    /// the resulting factors are bit-identical to the sequential seed path.
    ///
    /// # Errors
    ///
    /// - [`PowerflowError::Linalg`] on a solve failure.
    /// - [`PowerflowError::Parallel`] if a worker panicked.
    pub fn compute_with(net: &Network, cache: &FactorCache) -> Result<Ptdf, PowerflowError> {
        let n = net.num_buses();
        let m = net.num_lines();
        let slack = cache.slack();
        let cols = ed_par::par_map_env(cache.kept_buses(), |_, &bus| {
            cache.unit_injection_angles(bus)
        })
        .map_err(|e| PowerflowError::Parallel { what: e.to_string() })?;
        let mut matrix = Matrix::zeros(m, n);
        for (&bus, theta) in cache.kept_buses().iter().zip(cols) {
            let theta = theta?;
            for (lidx, line) in net.lines().iter().enumerate() {
                matrix[(lidx, bus)] =
                    line.susceptance_pu() * (theta[line.from.0] - theta[line.to.0]);
            }
        }
        Ok(Ptdf { matrix, slack })
    }

    /// The slack bus index that injections are referenced to.
    pub fn slack(&self) -> usize {
        self.slack
    }

    /// Sensitivity of line `l` to injection at bus `b`.
    pub fn factor(&self, line: usize, bus: usize) -> f64 {
        self.matrix[(line, bus)]
    }

    /// The full `num_lines x num_buses` matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Line flows (MW) for a vector of bus injections (MW).
    ///
    /// Injections need not be balanced — any surplus is implicitly absorbed
    /// by the slack (which is the PTDF reference).
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::DimensionMismatch`] on length mismatch.
    pub fn flows(&self, injections_mw: &[f64]) -> Result<Vec<f64>, PowerflowError> {
        if injections_mw.len() != self.matrix.cols() {
            return Err(PowerflowError::DimensionMismatch {
                expected: format!("{} injections", self.matrix.cols()),
                found: format!("{}", injections_mw.len()),
            });
        }
        Ok(self.matrix.matvec(injections_mw).expect("length checked"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dc, BusKind, CostCurve, NetworkBuilder};

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

    #[test]
    fn matches_dc_solve() {
        let net = paper_three_bus();
        let ptdf = Ptdf::compute(&net).unwrap();
        let inj = [120.0, 180.0, -300.0];
        let via_ptdf = ptdf.flows(&inj).unwrap();
        let via_dc = dc::solve(&net, &inj).unwrap().flow_mw;
        for (a, b) in via_ptdf.iter().zip(&via_dc) {
            assert!((a - b).abs() < 1e-8, "{via_ptdf:?} vs {via_dc:?}");
        }
    }

    #[test]
    fn slack_column_is_zero() {
        let net = paper_three_bus();
        let ptdf = Ptdf::compute(&net).unwrap();
        for l in 0..net.num_lines() {
            assert_eq!(ptdf.factor(l, ptdf.slack()), 0.0);
        }
    }

    #[test]
    fn symmetric_triangle_splits_two_to_one() {
        // In an equilateral triangle, injecting at bus 1 (withdrawing at
        // slack bus 0) sends 2/3 over the direct line and 1/3 the long way.
        let net = paper_three_bus();
        let ptdf = Ptdf::compute(&net).unwrap();
        // Line 0 is {0,1}: flow per MW injected at bus 1 = -2/3.
        assert!((ptdf.factor(0, 1) + 2.0 / 3.0).abs() < 1e-9);
        // Line 2 is {1,2}: injection at bus 1 pushes 1/3 through 1->2.
        assert!((ptdf.factor(2, 1) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn shared_cache_matches_fresh_compute_bitwise() {
        let net = paper_three_bus();
        let cache = crate::FactorCache::build(&net).unwrap();
        let fresh = Ptdf::compute(&net).unwrap();
        let cached = Ptdf::compute_with(&net, &cache).unwrap();
        for l in 0..net.num_lines() {
            for b in 0..net.num_buses() {
                assert_eq!(
                    fresh.factor(l, b).to_bits(),
                    cached.factor(l, b).to_bits(),
                    "({l},{b})"
                );
            }
        }
    }

    #[test]
    fn dimension_checked() {
        let net = paper_three_bus();
        let ptdf = Ptdf::compute(&net).unwrap();
        assert!(ptdf.flows(&[1.0]).is_err());
    }
}
