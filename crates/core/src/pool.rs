//! An empty solution pool, kept for one caller.
//!
//! No store keeps sweep seeds across requests: every `ed-serve` `/sweep`
//! computes its own. [`SolutionPool`] stays only because the benchmark's
//! atlas workload (`benchmark/src/atlas_grid.rs`) calls
//! `SolutionPool::global().clear()`; the benchmark change that drops that
//! call deletes this module. `ED_POOL` gates one store, the factor pool
//! behind [`FactorCache::shared`](ed_powerflow::FactorCache::shared).

/// The empty process-wide solution pool.
#[derive(Debug)]
pub struct SolutionPool;

impl SolutionPool {
    /// The process-wide instance.
    pub fn global() -> &'static SolutionPool {
        &SolutionPool
    }

    /// Does nothing: the pool holds nothing.
    pub fn clear(&self) {}
}
