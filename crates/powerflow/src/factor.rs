//! Shared LU factorization of the reduced bus susceptance matrix.
//!
//! Every DC-side computation in this crate — DC power flow and PTDF
//! columns — reduces to solves against the same matrix: the bus
//! susceptance matrix with the slack row/column removed. The seed code
//! re-derived it per call site, and the PTDF path even materialized a full
//! inverse on top of the factorization. A [`FactorCache`] factors the
//! matrix **once** (`P·B_red = L·U`, sparse: only the nonzeros of the
//! factors are stored) and serves per-column forward/back substitutions,
//! each proportional to the factors' nonzeros, to every consumer.
//!
//! The cache is immutable after construction and [`Sync`], so parallel
//! sweeps (see `ed-par`) borrow one cache from any number of worker
//! threads. Solves through the cache are bit-identical to the seed's
//! factor-then-solve path: the factored matrix and the substitution
//! recurrences are unchanged.

use crate::{dc, Network, PowerflowError};
use ed_linalg::Lu;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// An immutable, shareable LU factorization of `B_red` plus the bus
/// index bookkeeping needed to map between full and reduced vectors.
#[derive(Debug, Clone)]
pub struct FactorCache {
    factors: Lu,
    /// Kept (non-slack) bus indices, in ascending order; `keep[k]` is the
    /// full bus index of reduced row/column `k`.
    keep: Vec<usize>,
    /// Full bus index → reduced index (`None` for the slack).
    red: Vec<Option<usize>>,
    slack: usize,
}

impl FactorCache {
    /// Factors the reduced susceptance matrix of a network.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::Linalg`] if the reduced matrix is singular
    /// (cannot happen for a connected, validated network).
    pub fn build(net: &Network) -> Result<FactorCache, PowerflowError> {
        // A build is a factorization miss: downstream solves served from
        // the cached LU count as hits.
        let _t = ed_obs::timer("powerflow.factor.build");
        ed_obs::counter("powerflow.factor.misses", 1);
        let n = net.num_buses();
        let slack = net.slack().0;
        let keep: Vec<usize> = (0..n).filter(|&i| i != slack).collect();
        let b_red = dc::bus_susceptance(net).submatrix(&keep, &keep);
        let factors = Lu::factor(&b_red)?;
        let mut red = vec![None; n];
        for (k, &bus) in keep.iter().enumerate() {
            red[bus] = Some(k);
        }
        Ok(FactorCache { factors, keep, red, slack })
    }

    /// Fetches (or builds and caches) the shared factorization for a
    /// network, keyed by its [`Network::fingerprint`].
    ///
    /// Repeated scenarios over the same network — atlas hour chains, serve
    /// requests, safety audits — hit the same `Arc`'d factors instead of
    /// refactoring. Disabled (always a fresh build) when `ED_POOL=0`, which
    /// also keeps results bit-identical either way: the cached factors are
    /// exactly what `build` would produce.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::Linalg`] if the reduced matrix is
    /// singular.
    pub fn shared(net: &Network) -> Result<Arc<FactorCache>, PowerflowError> {
        if !pool_env_enabled() {
            return Ok(Arc::new(FactorCache::build(net)?));
        }
        static POOL: OnceLock<Mutex<FactorPool>> = OnceLock::new();
        let pool = POOL.get_or_init(|| Mutex::new(FactorPool::default()));
        let key = net.fingerprint();
        if let Some(hit) = pool.lock().expect("factor pool lock").get(key) {
            ed_obs::counter("powerflow.factor.pool.hits", 1);
            return Ok(hit);
        }
        ed_obs::counter("powerflow.factor.pool.misses", 1);
        let built = Arc::new(FactorCache::build(net)?);
        pool.lock().expect("factor pool lock").insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// The slack bus index the reduction is referenced to.
    pub fn slack(&self) -> usize {
        self.slack
    }

    /// Dimension of the reduced system (`num_buses − 1`).
    pub fn dim(&self) -> usize {
        self.factors.dim()
    }

    /// Kept (non-slack) bus indices, ascending; entry `k` is the full bus
    /// index of reduced coordinate `k`.
    pub fn kept_buses(&self) -> &[usize] {
        &self.keep
    }

    /// Solves `B_red · x = rhs` in reduced coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::Linalg`] on a length mismatch.
    pub fn solve_reduced(&self, rhs: &[f64]) -> Result<Vec<f64>, PowerflowError> {
        ed_obs::counter("powerflow.factor.hits", 1);
        Ok(self.factors.solve(rhs)?)
    }

    /// Bus angles (full-length, slack pinned to zero) for a full-length
    /// per-unit injection vector. The slack entry of `injections_pu` is
    /// ignored — the slack absorbs any imbalance, as in the PTDF reference
    /// convention.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::DimensionMismatch`] on a length mismatch.
    pub fn angles_for_injections_pu(
        &self,
        injections_pu: &[f64],
    ) -> Result<Vec<f64>, PowerflowError> {
        let n = self.keep.len() + 1;
        if injections_pu.len() != n {
            return Err(PowerflowError::DimensionMismatch {
                expected: format!("{n} per-unit injections"),
                found: format!("{}", injections_pu.len()),
            });
        }
        let rhs: Vec<f64> = self.keep.iter().map(|&i| injections_pu[i]).collect();
        let theta_red = self.solve_reduced(&rhs)?;
        Ok(self.scatter(&theta_red))
    }

    /// Bus angles (full-length, slack pinned to zero) for one per-unit
    /// injection at `bus`, withdrawn at the slack — one column of
    /// `B_red⁻¹` scattered to full coordinates. This is the per-column
    /// kernel of PTDF assembly.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::DimensionMismatch`] if `bus` is out of
    /// range.
    pub fn unit_injection_angles(&self, bus: usize) -> Result<Vec<f64>, PowerflowError> {
        let n = self.keep.len() + 1;
        if bus >= n {
            return Err(PowerflowError::DimensionMismatch {
                expected: format!("bus index < {n}"),
                found: format!("{bus}"),
            });
        }
        if bus == self.slack {
            return Ok(vec![0.0; n]);
        }
        let mut rhs = vec![0.0; self.keep.len()];
        rhs[self.red[bus].expect("non-slack bus has a reduced index")] = 1.0;
        let theta_red = self.solve_reduced(&rhs)?;
        Ok(self.scatter(&theta_red))
    }

    /// Scatters a reduced angle vector to full bus coordinates with the
    /// slack at zero.
    fn scatter(&self, theta_red: &[f64]) -> Vec<f64> {
        let mut theta = vec![0.0; self.keep.len() + 1];
        for (k, &i) in self.keep.iter().enumerate() {
            theta[i] = theta_red[k];
        }
        theta
    }
}

/// Whether the cross-scenario store, the shared factor pool behind
/// [`FactorCache::shared`], is enabled. On by default; `ED_POOL=0` (or
/// `false`/`off`) disables it so CI can prove pooled and unpooled answers
/// identical.
pub fn pool_env_enabled() -> bool {
    match std::env::var("ED_POOL") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off"),
        Err(_) => true,
    }
}

/// FNV-1a over a byte stream; the workspace-standard cheap fingerprint.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Capacity-capped FIFO pool of shared factorizations.
#[derive(Default)]
struct FactorPool {
    entries: HashMap<u64, Arc<FactorCache>>,
    order: Vec<u64>,
}

/// Upper bound on pooled factorizations; enough for every case family ×
/// contingency the atlas sweeps while bounding memory on long-running
/// servers.
const FACTOR_POOL_CAP: usize = 64;

impl FactorPool {
    fn get(&self, key: u64) -> Option<Arc<FactorCache>> {
        self.entries.get(&key).map(Arc::clone)
    }

    fn insert(&mut self, key: u64, cache: Arc<FactorCache>) {
        if self.entries.insert(key, cache).is_none() {
            self.order.push(key);
            if self.order.len() > FACTOR_POOL_CAP {
                let evicted = self.order.remove(0);
                self.entries.remove(&evicted);
                ed_obs::counter("powerflow.factor.pool.evictions", 1);
            }
        }
    }
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

    #[test]
    fn bookkeeping_is_consistent() {
        let net = paper_three_bus();
        let cache = FactorCache::build(&net).unwrap();
        assert_eq!(cache.dim(), 2);
        assert_eq!(cache.red[cache.slack()], None);
        for (k, &bus) in cache.kept_buses().iter().enumerate() {
            assert_eq!(cache.red[bus], Some(k));
        }
    }

    #[test]
    fn unit_columns_match_full_injection_solve() {
        let net = paper_three_bus();
        let cache = FactorCache::build(&net).unwrap();
        // Superposition: angles for a composite injection equal the
        // weighted sum of unit-injection columns.
        let inj_pu = [0.0, 1.8, -1.8];
        let direct = cache.angles_for_injections_pu(&inj_pu).unwrap();
        let c1 = cache.unit_injection_angles(1).unwrap();
        let c2 = cache.unit_injection_angles(2).unwrap();
        for i in 0..3 {
            let composed = 1.8 * c1[i] - 1.8 * c2[i];
            assert!((direct[i] - composed).abs() < 1e-12);
        }
    }

    #[test]
    fn slack_column_is_zero() {
        let net = paper_three_bus();
        let cache = FactorCache::build(&net).unwrap();
        let col = cache.unit_injection_angles(cache.slack()).unwrap();
        assert!(col.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shared_pool_returns_same_factors() {
        let net = paper_three_bus();
        let a = FactorCache::shared(&net).unwrap();
        let b = FactorCache::shared(&net).unwrap();
        // Identical fingerprint → the very same Arc (unless ED_POOL=0, in
        // which case both are fresh builds with identical solves).
        let rhs = [0.5, -0.5];
        assert_eq!(a.solve_reduced(&rhs).unwrap(), b.solve_reduced(&rhs).unwrap());
        if pool_env_enabled() {
            assert!(Arc::ptr_eq(&a, &b));
        }
    }

    #[test]
    fn fingerprint_separates_distinct_networks() {
        let net = paper_three_bus();
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
        let b3 = b.add_bus("B3", BusKind::Pq, 301.0); // demand differs
        b.add_line(b1, b2, 0.002, 0.05, 160.0);
        b.add_line(b1, b3, 0.002, 0.05, 160.0);
        b.add_line(b2, b3, 0.002, 0.05, 160.0);
        b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
        b.add_gen(b2, 0.0, 300.0, CostCurve::linear(1.0));
        let other = b.build().unwrap();
        assert_ne!(net.fingerprint(), other.fingerprint());
        assert_eq!(net.fingerprint(), paper_three_bus().fingerprint());
    }

    #[test]
    fn out_of_range_bus_rejected() {
        let net = paper_three_bus();
        let cache = FactorCache::build(&net).unwrap();
        assert!(cache.unit_injection_angles(99).is_err());
        assert!(cache.angles_for_injections_pu(&[0.0; 7]).is_err());
    }
}
