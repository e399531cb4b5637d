//! Shared LU factorization of the reduced bus susceptance matrix.
//!
//! Every DC-side sensitivity in this crate — DC power flow, PTDF columns,
//! and (through PTDF) LODFs — reduces to solves against the same matrix:
//! the bus susceptance matrix with the slack row/column removed. The seed
//! code re-derived it per call site, and the PTDF path even materialized a
//! full inverse on top of the factorization. A [`FactorCache`] factors the
//! matrix **once** (`P·B_red = L·U`, sparse: only the nonzeros of the
//! factors are stored) and serves per-column forward/back substitutions,
//! each proportional to the factors' nonzeros, to every consumer.
//!
//! The cache is immutable after construction and [`Sync`], so parallel
//! sweeps (see `ed-par`) borrow one cache from any number of worker
//! threads. Solves through the cache are bit-identical to the seed's
//! factor-then-solve path: the factored matrix and the substitution
//! recurrences are unchanged.

use crate::{dc, LineId, Network, PowerflowError};
use ed_linalg::{LinalgError, Lu, UpdatableLu};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// An immutable, shareable LU factorization of `B_red` plus the bus
/// index bookkeeping needed to map between full and reduced vectors.
#[derive(Debug, Clone)]
pub struct FactorCache {
    factors: UpdatableLu,
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
        let lu = Lu::factor(&b_red)?;
        let mut red = vec![None; n];
        for (k, &bus) in keep.iter().enumerate() {
            red[bus] = Some(k);
        }
        Ok(FactorCache { factors: UpdatableLu::from_lu(lu), keep, red, slack })
    }

    /// Fetches (or builds and caches) the shared factorization for a
    /// network, keyed by its topology fingerprint.
    ///
    /// Repeated scenarios over the same network — atlas hour chains, serve
    /// requests, per-outage LODF cross-checks — hit the same `Arc`'d
    /// factors instead of refactoring. Disabled (always a fresh build) when
    /// `ED_POOL=0`, which also keeps results bit-identical either way: the
    /// cached factors are exactly what `build` would produce.
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
        let key = network_fingerprint(net);
        if let Some(hit) = pool.lock().expect("factor pool lock").get(key) {
            ed_obs::counter("powerflow.factor.pool.hits", 1);
            return Ok(hit);
        }
        ed_obs::counter("powerflow.factor.pool.misses", 1);
        let built = Arc::new(FactorCache::build(net)?);
        pool.lock().expect("factor pool lock").insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// A variant of this factorization with one line removed, computed as
    /// a Sherman–Morrison rank-1 update (`B_red − β·a·aᵀ` with `a` the
    /// line's reduced incidence vector) instead of a fresh factorization.
    ///
    /// **Stability fallback:** when the update denominator is numerically
    /// zero — removing the line islands the network, so the reduced matrix
    /// is genuinely singular — the rank-1 form is rejected and this falls
    /// back to factoring the explicitly modified matrix, which then
    /// reports [`PowerflowError::Linalg`] on true singularity rather than
    /// returning garbage solves.
    ///
    /// # Errors
    ///
    /// Returns [`PowerflowError::DimensionMismatch`] when `net` does not
    /// match the cache, and [`PowerflowError::Linalg`] when the outage
    /// matrix is singular (bridge removal).
    pub fn outage_variant(
        &self,
        net: &Network,
        line: LineId,
    ) -> Result<FactorCache, PowerflowError> {
        if net.num_buses() != self.keep.len() + 1 || line.0 >= net.num_lines() {
            return Err(PowerflowError::DimensionMismatch {
                expected: format!("network with {} buses and line < {}", self.keep.len() + 1, net.num_lines()),
                found: format!("{} buses, line {}", net.num_buses(), line.0),
            });
        }
        let l = net.line(line);
        let beta = l.susceptance_pu();
        let m = self.keep.len();
        // Reduced incidence vector of the line (slack endpoint drops out).
        let mut a = vec![0.0; m];
        if let Some(k) = self.red[l.from.0] {
            a[k] = 1.0;
        }
        if let Some(k) = self.red[l.to.0] {
            a[k] = -1.0;
        }
        // Removal contribution: B' = B − β a aᵀ, i.e. u = −β a, v = a.
        let u: Vec<f64> = a.iter().map(|&x| -beta * x).collect();
        let mut variant = self.clone();
        match variant.factors.rank_one_update(&u, &a) {
            Ok(()) => {
                ed_obs::counter("powerflow.factor.rank1.updates", 1);
                Ok(variant)
            }
            Err(LinalgError::UpdateRejected { .. }) => {
                // Near-singular update: rebuild the outage matrix
                // explicitly so genuine islanding surfaces as Singular.
                ed_obs::counter("powerflow.factor.rank1.fallbacks", 1);
                let mut b_red = dc::bus_susceptance(net).submatrix(&self.keep, &self.keep);
                for i in 0..m {
                    if a[i] == 0.0 {
                        continue;
                    }
                    for j in 0..m {
                        b_red[(i, j)] -= beta * a[i] * a[j];
                    }
                }
                let lu = Lu::factor(&b_red)?;
                let mut fresh = self.clone();
                fresh.factors = UpdatableLu::from_lu(lu);
                Ok(fresh)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Number of rank-1 updates stacked on the base factorization.
    pub fn num_updates(&self) -> usize {
        self.factors.num_updates()
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

    /// Reduced coordinate of a full bus index (`None` for the slack).
    pub fn reduced_index(&self, bus: usize) -> Option<usize> {
        self.red.get(bus).copied().flatten()
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

/// Whether the cross-scenario pools (shared factors, solution pool) are
/// enabled. On by default; `ED_POOL=0` (or `false`/`off`) disables them so
/// CI can prove pooled and unpooled answers identical.
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

/// A structural fingerprint of a network: topology, impedances, ratings,
/// demands, and generator data. Two networks with the same fingerprint
/// build bit-identical susceptance matrices and dispatch models, so the
/// fingerprint is a sound pool key for factorizations and warm starts.
pub fn network_fingerprint(net: &Network) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(64 + 32 * (net.num_buses() + net.num_lines()));
    let push_f64 = |bytes: &mut Vec<u8>, v: f64| bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    bytes.extend_from_slice(&net.base_mva().to_bits().to_le_bytes());
    bytes.extend_from_slice(&(net.slack().0 as u64).to_le_bytes());
    for bus in net.buses() {
        push_f64(&mut bytes, bus.demand_mw);
        push_f64(&mut bytes, bus.demand_mvar);
        push_f64(&mut bytes, bus.voltage_setpoint_pu);
    }
    for line in net.lines() {
        bytes.extend_from_slice(&(line.from.0 as u64).to_le_bytes());
        bytes.extend_from_slice(&(line.to.0 as u64).to_le_bytes());
        push_f64(&mut bytes, line.resistance_pu);
        push_f64(&mut bytes, line.reactance_pu);
        push_f64(&mut bytes, line.charging_pu);
        push_f64(&mut bytes, line.rating_mva);
    }
    for g in net.gens() {
        bytes.extend_from_slice(&(g.bus.0 as u64).to_le_bytes());
        push_f64(&mut bytes, g.pmin_mw);
        push_f64(&mut bytes, g.pmax_mw);
        push_f64(&mut bytes, g.cost.a);
        push_f64(&mut bytes, g.cost.b);
        push_f64(&mut bytes, g.cost.c);
    }
    fnv1a(bytes)
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
        assert_eq!(cache.reduced_index(cache.slack()), None);
        for (k, &bus) in cache.kept_buses().iter().enumerate() {
            assert_eq!(cache.reduced_index(bus), Some(k));
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
    fn outage_variant_matches_rebuilt_network() {
        let net = paper_three_bus();
        let cache = FactorCache::build(&net).unwrap();
        // Rank-1 variant vs. a from-scratch cache of the physically
        // modified network (line 2 removed from the triangle).
        let variant = cache.outage_variant(&net, LineId(2)).unwrap();
        assert_eq!(variant.num_updates(), 1);

        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
        let b3 = b.add_bus("B3", BusKind::Pq, 300.0);
        b.add_line(b1, b2, 0.002, 0.05, 160.0);
        b.add_line(b1, b3, 0.002, 0.05, 160.0);
        b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
        b.add_gen(b2, 0.0, 300.0, CostCurve::linear(1.0));
        let reduced_net = b.build().unwrap();
        let rebuilt = FactorCache::build(&reduced_net).unwrap();

        let rhs = [1.25, -0.75];
        let x1 = variant.solve_reduced(&rhs).unwrap();
        let x2 = rebuilt.solve_reduced(&rhs).unwrap();
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-10, "outage variant diverges: {a} vs {b}");
        }
    }

    #[test]
    fn islanding_outage_is_rejected_not_garbage() {
        // A 3-bus chain: removing the middle of either line islands a bus,
        // so the rank-1 update must fall back and report singularity.
        let mut b = NetworkBuilder::new(100.0);
        let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
        let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
        let b3 = b.add_bus("B3", BusKind::Pq, 100.0);
        b.add_line(b1, b2, 0.002, 0.05, 160.0);
        b.add_line(b2, b3, 0.002, 0.05, 160.0);
        b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
        let net = b.build().unwrap();
        let cache = FactorCache::build(&net).unwrap();
        let err = cache.outage_variant(&net, LineId(1)).expect_err("bridge removal must fail");
        assert!(matches!(err, PowerflowError::Linalg(_)), "got {err:?}");
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
        assert_ne!(network_fingerprint(&net), network_fingerprint(&other));
        assert_eq!(network_fingerprint(&net), network_fingerprint(&paper_three_bus()));
    }

    #[test]
    fn out_of_range_bus_rejected() {
        let net = paper_three_bus();
        let cache = FactorCache::build(&net).unwrap();
        assert!(cache.unit_injection_angles(99).is_err());
        assert!(cache.angles_for_injections_pu(&[0.0; 7]).is_err());
    }
}
