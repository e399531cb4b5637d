//! Scenario-fingerprinted seed pool with certified invalidation.
//!
//! `ed-serve` answers repeat `/sweep` requests for the same scenario: the
//! same network, DLR lines, rating bounds, true ratings and demand. A
//! certified sweep leaves behind its shared phase-1 seed [`Basis`], which
//! is exactly what the next sweep of that scenario wants, so this module
//! keeps a process-wide pool of seeds keyed by [`scenario_fingerprint`].
//! Serve's `/sweep` is the one depositor and the one reader; it hands a
//! pooled seed to Algorithm 1 as `BilevelOptions::warm_basis`, which is
//! the only way a seed enters a sweep.
//!
//! **Trust semantics (certified invalidation):** only a fully certified
//! sweep deposits its seed, and [`SolutionPool::invalidate_network`]
//! evicts every seed of a network whose warm state a failed certificate
//! or an atlas quarantine has tainted — the pool never serves state
//! downstream of a known-bad answer. A pooled seed is still only an offer:
//! Algorithm 1 checks it once per sweep and re-derives the cold seed when
//! it does not fit, so the pool is a pure accelerator and can never
//! change an answer.
//!
//! `ED_POOL` gates exactly two stores: this pool and the shared factor pool
//! in `ed-powerflow`. Both are on by default; `ED_POOL=0` disables them so
//! CI can prove pooled and unpooled answers identical.

use crate::attack::AttackConfig;
use ed_optim::lp::Basis;
use ed_powerflow::{fnv1a, network_fingerprint, pool_env_enabled, Network};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// One pooled seed: the shared phase-1 basis of a fully certified sweep.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// Shared phase-1 seed basis of the sweep (reduced-model dimensions).
    pub basis: Basis,
    /// [`network_fingerprint`] of the sweep's network, so
    /// [`SolutionPool::invalidate_network`] can find every seed of it.
    pub network: u64,
}

/// Process-wide pool of [`PoolEntry`]s keyed by scenario fingerprint,
/// FIFO-capped. All methods are cheap and lock only briefly; the pool is
/// shared freely across threads.
#[derive(Debug, Default)]
pub struct SolutionPool {
    inner: Mutex<PoolInner>,
}

#[derive(Debug, Default)]
struct PoolInner {
    entries: HashMap<u64, PoolEntry>,
    order: Vec<u64>,
}

/// Entry cap: bounds a long-running server's memory.
const POOL_CAP: usize = 256;

impl SolutionPool {
    /// Creates an empty pool (tests; production code uses [`global`]).
    ///
    /// [`global`]: SolutionPool::global
    pub fn new() -> SolutionPool {
        SolutionPool::default()
    }

    /// The process-wide pool instance.
    pub fn global() -> &'static SolutionPool {
        static GLOBAL: OnceLock<SolutionPool> = OnceLock::new();
        GLOBAL.get_or_init(SolutionPool::new)
    }

    /// Whether pooling is enabled (`ED_POOL`, default on). Checked by
    /// every producer/consumer; when off, [`lookup`] always misses and
    /// [`store`] is a no-op, so disabling the pool cannot change answers.
    ///
    /// [`lookup`]: SolutionPool::lookup
    /// [`store`]: SolutionPool::store
    pub fn enabled() -> bool {
        pool_env_enabled()
    }

    /// Fetches the entry for a scenario, if pooling is on and one exists.
    pub fn lookup(&self, key: u64) -> Option<PoolEntry> {
        if !Self::enabled() {
            return None;
        }
        let inner = self.inner.lock().expect("solution pool lock");
        let hit = inner.entries.get(&key).cloned();
        match hit {
            Some(e) => {
                ed_obs::counter("core.pool.hits", 1);
                Some(e)
            }
            None => {
                ed_obs::counter("core.pool.misses", 1);
                None
            }
        }
    }

    /// Stores (or replaces) the entry for a scenario. Callers deposit only
    /// the seeds of fully certified sweeps. No-op when pooling is off.
    pub fn store(&self, key: u64, entry: PoolEntry) {
        if !Self::enabled() {
            return;
        }
        let mut inner = self.inner.lock().expect("solution pool lock");
        if inner.entries.insert(key, entry).is_none() {
            inner.order.push(key);
            if inner.order.len() > POOL_CAP {
                let evicted = inner.order.remove(0);
                inner.entries.remove(&evicted);
                ed_obs::counter("core.pool.evictions", 1);
            }
        }
        ed_obs::counter("core.pool.stores", 1);
    }

    /// Certified invalidation: evicts every entry recorded against the
    /// network with fingerprint `network`, leaving other networks' entries
    /// alone. Returns the number of entries evicted.
    pub fn invalidate_network(&self, network: u64) -> usize {
        let mut inner = self.inner.lock().expect("solution pool lock");
        let PoolInner { entries, order } = &mut *inner;
        entries.retain(|_, e| e.network != network);
        let before = order.len();
        order.retain(|k| entries.contains_key(k));
        let evicted = before - order.len();
        if evicted > 0 {
            ed_obs::counter("core.pool.invalidations", evicted as u64);
        }
        evicted
    }

    /// Number of pooled entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("solution pool lock").entries.len()
    }

    /// `true` when the pool holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (tests and bench calibration).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("solution pool lock");
        inner.entries.clear();
        inner.order.clear();
    }
}

/// Fingerprint of an attack scenario: the network plus every
/// [`AttackConfig`] field that shapes the KKT model or its data. Two
/// scenarios with equal fingerprints build bit-identical models, so pooled
/// state transfers soundly between them.
pub fn scenario_fingerprint(net: &Network, config: &AttackConfig) -> u64 {
    let mut bytes: Vec<u8> = Vec::with_capacity(64 + 16 * config.dlr_lines.len());
    bytes.extend_from_slice(&network_fingerprint(net).to_le_bytes());
    for &l in &config.dlr_lines {
        bytes.extend_from_slice(&(l.0 as u64).to_le_bytes());
    }
    for v in [&config.u_min, &config.u_max, &config.u_d] {
        bytes.extend_from_slice(&(v.len() as u64).to_le_bytes());
        for &x in v {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    match &config.demand_mw {
        Some(d) => {
            bytes.push(1);
            for &x in d {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        None => bytes.push(0),
    }
    fnv1a(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(network: u64) -> PoolEntry {
        PoolEntry { basis: Basis::default(), network }
    }

    #[test]
    fn invalidate_network_evicts_only_that_network() {
        let pool = SolutionPool::new();
        pool.store(1, entry(10));
        pool.store(2, entry(10));
        pool.store(3, entry(20));
        if SolutionPool::enabled() {
            assert_eq!(pool.invalidate_network(10), 2);
            assert!(pool.lookup(1).is_none() && pool.lookup(2).is_none());
            assert_eq!(pool.lookup(3).map(|e| e.network), Some(20));
            assert_eq!(pool.invalidate_network(10), 0, "nothing left to evict");
            assert_eq!(pool.len(), 1);
        } else {
            assert!(pool.is_empty());
            assert_eq!(pool.invalidate_network(10), 0);
        }
    }

    #[test]
    fn fifo_cap_bounds_entries() {
        let pool = SolutionPool::new();
        for k in 0..(POOL_CAP as u64 + 10) {
            pool.store(k, entry(k));
        }
        if SolutionPool::enabled() {
            assert_eq!(pool.len(), POOL_CAP);
            assert!(pool.lookup(0).is_none(), "oldest entry evicted first");
            assert!(pool.lookup(POOL_CAP as u64 + 9).is_some());
        }
    }
}
