//! Keyed warm cache: case fingerprint → network + shared factorization +
//! resilient-dispatcher state (which holds the last-known-good dispatch).
//!
//! Entries sit behind `Arc`s so request handlers share them copy-on-write
//! style: an invalidation swaps the map slot, while in-flight requests
//! keep their (still-consistent) snapshot until they finish. Invalidation
//! is *certified*: a `/certify` answer that fails its certificate, or a
//! sweep with uncertified subproblems, evicts the entry — the next
//! request rebuilds the factorization from the case definition instead of
//! trusting possibly-poisoned warm state.

use crate::metrics::{bump, metrics};
use ed_core::dispatch::ResilientDispatcher;
use ed_optim::lp::Basis;
use ed_powerflow::{fnv1a, FactorCache, Network};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One warm case entry.
pub struct CaseEntry {
    /// Stable fingerprint of the case definition.
    pub fingerprint: u64,
    /// The network topology.
    pub net: Arc<Network>,
    /// Shared susceptance factorization (safety-gate audits, DC solves).
    pub factors: Arc<FactorCache>,
    /// Ladder state: remembers last-known-good across requests. The mutex
    /// serializes dispatches *per case*, which is also what keeps the LKG
    /// hand-off race-free.
    pub dispatcher: Mutex<ResilientDispatcher>,
    /// Last fully-certified sweep's shared seed basis, keyed by a
    /// fingerprint of the sweep parameters (DLR lines, bounds, true
    /// ratings, demand): a repeat `/sweep` of the same case skips the
    /// shared phase-1 solve entirely. One slot per case bounds memory;
    /// the attack layer re-validates dimensions before trusting it, and
    /// certified invalidation drops it with the rest of the entry.
    ///
    /// This slot is the per-case fast path; behind it, the attack layer's
    /// scenario-keyed [`ed_core::pool::SolutionPool`] serves the same
    /// basis to any caller of the sweep (atlas chains, repeat requests
    /// after an entry rebuild), so a displaced or evicted slot is a
    /// performance miss, not a cold start.
    pub sweep_basis: Mutex<Option<(u64, Basis)>>,
}

impl CaseEntry {
    /// The stored sweep seed basis, if one was recorded under `key`.
    pub fn sweep_basis_for(&self, key: u64) -> Option<Basis> {
        let slot = self
            .sweep_basis
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.as_ref().filter(|(k, _)| *k == key).map(|(_, b)| b.clone())
    }

    /// Records `basis` as the warm seed for sweeps keyed by `key`. Callers
    /// must only store bases from **fully certified** sweeps.
    pub fn store_sweep_basis(&self, key: u64, basis: Basis) {
        let mut slot = self
            .sweep_basis
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some((key, basis));
    }

    /// Drops the stored sweep basis (any key) while keeping the rest of
    /// the entry warm. Returns whether a basis was present. This is the
    /// narrow eviction for atlas quarantine events: a quarantined cell
    /// says "solves on this case faulted repeatedly", which taints the
    /// warm seed basis specifically — the factorization and last-known-
    /// good dispatch were independently audited and stay.
    pub fn clear_sweep_basis(&self) -> bool {
        let mut slot = self
            .sweep_basis
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        slot.take().is_some()
    }
}

/// The set of named cases the service will build.
pub const KNOWN_CASES: &[&str] = &["three_bus", "six_bus", "ieee118", "case300"];

fn build_network(case: &str) -> Option<Network> {
    match case {
        "three_bus" => Some(ed_cases::three_bus()),
        "six_bus" => Some(ed_cases::six_bus()),
        "ieee118" => Some(ed_cases::ieee118_like()),
        "case300" => Some(ed_cases::case300_like()),
        _ => None,
    }
}

/// Keyed warm cache over the known cases.
#[derive(Default)]
pub struct WarmCache {
    entries: Mutex<HashMap<u64, Arc<CaseEntry>>>,
}

impl WarmCache {
    /// An empty cache.
    pub fn new() -> WarmCache {
        WarmCache::default()
    }

    /// Looks up (or builds) the entry for a named case.
    ///
    /// # Errors
    ///
    /// A typed reason string when the case is unknown or its
    /// factorization fails — the caller turns this into a refusal.
    pub fn entry(&self, case: &str) -> Result<Arc<CaseEntry>, String> {
        let key = fnv1a(case.bytes());
        if let Some(e) = self.lock().get(&key) {
            bump(&metrics().cache_hits);
            return Ok(Arc::clone(e));
        }
        bump(&metrics().cache_misses);
        let net = build_network(case)
            .ok_or_else(|| format!("unknown case '{case}' (known: {KNOWN_CASES:?})"))?;
        // Joins the process-wide factor pool (`ED_POOL`): a case already
        // factored by the attack layer — or by a previous incarnation of
        // this entry — is shared instead of refactored.
        let factors = FactorCache::shared(&net)
            .map_err(|e| format!("case '{case}' cannot be factored: {e}"))?;
        let entry = Arc::new(CaseEntry {
            fingerprint: key,
            net: Arc::new(net),
            factors,
            dispatcher: Mutex::new(ResilientDispatcher::new()),
            sweep_basis: Mutex::new(None),
        });
        // Double-build race on a cold miss is harmless: last writer wins
        // and the loser's Arc drops when its requests finish.
        self.lock().insert(key, Arc::clone(&entry));
        Ok(entry)
    }

    /// Certified invalidation: drops the entry so the next request
    /// rebuilds from the case definition (losing warm factors *and* the
    /// last-known-good, which is the point — both derived from state that
    /// just failed an independent audit).
    pub fn invalidate(&self, case: &str) -> bool {
        let key = fnv1a(case.bytes());
        let removed = self.lock().remove(&key).is_some();
        if removed {
            bump(&metrics().cache_invalidations);
        }
        removed
    }

    /// Quarantine-driven eviction: drops only the sweep seed basis for
    /// `case`, keeping the warm entry (factors, last-known-good) intact.
    /// Returns whether a basis was actually dropped; a cold case is a
    /// no-op — there is nothing warm to taint.
    pub fn clear_sweep_basis(&self, case: &str) -> bool {
        let key = fnv1a(case.bytes());
        let entry = self.lock().get(&key).cloned();
        entry.is_some_and(|e| e.clear_sweep_basis())
    }

    /// Number of warm entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no entry is warm.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<CaseEntry>>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_reuses_entries() {
        let cache = WarmCache::new();
        let a = cache.entry("three_bus").unwrap();
        let b = cache.entry("three_bus").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn unknown_case_is_typed_not_panicking() {
        let cache = WarmCache::new();
        let err = match cache.entry("fourteen_bus") {
            Err(e) => e,
            Ok(_) => panic!("unknown case must not build"),
        };
        assert!(err.contains("unknown case"), "{err}");
    }

    #[test]
    fn sweep_basis_is_keyed_and_dropped_on_invalidation() {
        use ed_optim::lp::BasisStatus;
        let cache = WarmCache::new();
        let entry = cache.entry("three_bus").unwrap();
        let basis = Basis {
            statuses: vec![BasisStatus::Basic, BasisStatus::AtLower],
            art_rows: Vec::new(),
        };
        assert!(entry.sweep_basis_for(7).is_none(), "cold slot must miss");
        entry.store_sweep_basis(7, basis.clone());
        assert_eq!(entry.sweep_basis_for(7), Some(basis.clone()));
        assert!(entry.sweep_basis_for(8).is_none(), "wrong key must miss");
        // A newer sweep under different parameters displaces the slot.
        entry.store_sweep_basis(9, basis);
        assert!(entry.sweep_basis_for(7).is_none());
        // Certified invalidation rebuilds a cold entry — no basis survives.
        assert!(cache.invalidate("three_bus"));
        let fresh = cache.entry("three_bus").unwrap();
        assert!(fresh.sweep_basis_for(9).is_none());
    }

    #[test]
    fn invalidation_rebuilds_fresh_state() {
        let cache = WarmCache::new();
        let a = cache.entry("three_bus").unwrap();
        // Prime a last-known-good, then invalidate: the rebuilt entry
        // must not remember it.
        let d = ed_core::dispatch::DcOpf::new(&a.net).solve().unwrap();
        a.dispatcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .prime(d);
        assert!(cache.invalidate("three_bus"));
        assert!(!cache.invalidate("three_bus"), "second eviction is a no-op");
        let b = cache.entry("three_bus").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(b
            .dispatcher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .last_known_good()
            .is_none());
    }
}
