//! Fill of the LU factors on the 118-bus sweep.
//!
//! The sweep118 scenario of `tests/sweep_bits.rs` (node limit 1, presolve
//! and certification on) runs once with the ed-obs recorder on, and the
//! factors it makes must store fewer than [`BOUND`] nonzeros of `L` and
//! `U` each on average (`linalg.lu.nnz / linalg.lu.factors`, every factor
//! of the sweep). With the simplex basis factored by ascending column
//! count, the sweep stores 4,286 per factor (3,992 with `ED_POOL=0`, which
//! adds factors of the network matrices). With the basis in index order
//! and a refactorization every 128 pivots it stored 63,657 (36,997). The
//! bound sits between the two, so the test fails if the order is lost. It
//! is the only test in its binary because the ed-obs counters are global
//! to the process.

// Only the 118-bus builder is used here.
#[allow(dead_code)]
mod sweep_runs;

use ed_security::core::attack::optimal_attack_with;
use ed_security::obs;
use sweep_runs::ieee118_runs;

/// Stored `L` and `U` nonzeros per factor that the sweep must stay under.
const BOUND: f64 = 10_000.0;

#[test]
fn ieee118_sweep_factors_stay_sparse() {
    obs::set_enabled(true);
    let (label, net, config, exact) = ieee118_runs().swap_remove(0);
    let mark = obs::mark();
    optimal_attack_with(&net, &config, exact).expect("the 118-bus sweep runs");
    let report = obs::report_since(&mark);
    let (factors, nnz) = (report.counter("linalg.lu.factors"), report.counter("linalg.lu.nnz"));
    assert!(factors > 0, "{label}: no LU factor was recorded");
    let per_factor = nnz as f64 / factors as f64;
    eprintln!("{label}: {nnz} nonzeros over {factors} factors, {per_factor:.0} per factor");
    assert!(per_factor < BOUND, "{label}: {per_factor:.0} nonzeros per factor, bound {BOUND}");
}
