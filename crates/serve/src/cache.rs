//! Keyed warm cache: case name → network + resilient-dispatcher state
//! (which holds the last-known-good dispatch).
//!
//! Entries sit behind `Arc`s so request handlers share them copy-on-write
//! style: an invalidation swaps the map slot, while in-flight requests
//! keep their (still-consistent) snapshot until they finish. Invalidation
//! is *certified*: a `/certify` answer that fails its certificate, or a
//! sweep with uncertified subproblems, evicts the entry, so the next
//! request starts without a last-known-good dispatch derived from the
//! failed state. An entry holds no factorization: every solve and safety
//! audit gets the network's from the process-wide factor pool
//! ([`FactorCache::shared`](ed_powerflow::FactorCache::shared)), which an
//! invalidation leaves alone, because it is a pure function of the
//! network and a failed LP certificate does not implicate it.

use crate::metrics::{bump, metrics};
use ed_cases::KNOWN_CASES;
use ed_core::dispatch::ResilientDispatcher;
use ed_powerflow::Network;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// One warm case entry.
pub struct CaseEntry {
    /// The network topology.
    pub net: Arc<Network>,
    /// Ladder state: remembers last-known-good across requests. The mutex
    /// serializes dispatches *per case*, which is also what keeps the LKG
    /// hand-off race-free.
    pub dispatcher: Mutex<ResilientDispatcher>,
}

/// Warm cache over the known cases, keyed by case name.
#[derive(Default)]
pub struct WarmCache {
    entries: Mutex<HashMap<String, Arc<CaseEntry>>>,
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
    /// A typed reason string when the case is unknown — the caller turns
    /// this into a refusal.
    pub fn entry(&self, case: &str) -> Result<Arc<CaseEntry>, String> {
        if let Some(e) = self.lock().get(case).cloned() {
            bump(&metrics().cache_hits);
            return Ok(e);
        }
        bump(&metrics().cache_misses);
        let net = ed_cases::by_name(case)
            .ok_or_else(|| format!("unknown case '{case}' (known: {KNOWN_CASES:?})"))?;
        let entry = Arc::new(CaseEntry {
            net: Arc::new(net),
            dispatcher: Mutex::new(ResilientDispatcher::new()),
        });
        // Double-build race on a cold miss is harmless: last writer wins
        // and the loser's Arc drops when its requests finish.
        self.lock().insert(case.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Certified invalidation: drops the entry, whose last-known-good
    /// dispatch derives from state that just failed an independent audit.
    /// The next request rebuilds the entry with a fresh dispatcher; the
    /// network's factors stay in the factor pool, since they depend only on
    /// the network and a failed certificate does not implicate them.
    pub fn invalidate(&self, case: &str) -> bool {
        let removed = self.lock().remove(case).is_some();
        if removed {
            bump(&metrics().cache_invalidations);
        }
        removed
    }

    /// Number of warm entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no entry is warm.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Arc<CaseEntry>>> {
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
