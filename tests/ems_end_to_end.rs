//! Cross-crate integration tests for the EMS memory-corruption pipeline
//! (Sections V–VI) and its interaction with the mitigations (Section VII).

use ed_security::core::attack::AttackConfig;
use ed_security::core::mitigation::{replica_check, ReplicaVerdict, TrendCheck};
use ed_security::ems::exploit::Exploit;
use ed_security::ems::pipeline::run_case_study;
use ed_security::ems::EmsPackage;
use ed_security::powerflow::LineId;

fn config() -> AttackConfig {
    AttackConfig::new(vec![LineId(1), LineId(2)])
        .bounds(100.0, 200.0)
        .true_ratings(vec![150.0, 150.0])
}

/// Every package: the end-to-end pipeline takes the system from a safe
/// state to a violated true rating, with the exploit locating parameters
/// purely by structural signature.
#[test]
fn full_pipeline_all_packages() {
    let net = ed_security::cases::three_bus();
    for pkg in EmsPackage::all() {
        for seed in [1u64, 99, 4242] {
            let report = run_case_study(pkg, &net, &config(), seed)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", pkg.name()));
            assert!(
                report.pre_utilization_pct.iter().all(|&u| u <= 100.0 + 1e-6),
                "{} seed {seed}: pre-attack unsafe",
                pkg.name()
            );
            assert!(
                !report.violated_lines().is_empty(),
                "{} seed {seed}: attack had no physical effect",
                pkg.name()
            );
            for c in &report.corruptions {
                assert!(c.hits >= c.survivors);
                assert!(c.survivors >= 1);
            }
        }
    }
}

/// Signatures extracted from one process instance keep working on
/// instances with completely different heap layouts — the paper's central
/// implementation claim.
#[test]
fn signatures_transfer_across_runs() {
    let net = ed_security::cases::six_bus();
    let ratings = net.static_ratings_mva();
    for pkg in EmsPackage::all() {
        let reference = pkg.build(&net, &ratings, 7).unwrap();
        let exploit = Exploit::new(pkg.rating_signature(&reference));
        for seed in 100..105u64 {
            let victim = pkg.build(&net, &ratings, seed).unwrap();
            assert_ne!(
                reference.rating_addrs, victim.rating_addrs,
                "{}: heap must differ across runs",
                pkg.name()
            );
            for (line, &mw) in ratings.iter().enumerate() {
                let (addr, _, _) = exploit
                    .locate(&victim, line, mw)
                    .unwrap_or_else(|e| panic!("{} line {line}: {e}", pkg.name()));
                assert_eq!(addr, victim.rating_addrs[line], "{}", pkg.name());
            }
        }
    }
}

/// A corrupted EMS is caught by the replica mitigation: the honest replica
/// dispatch diverges from the corrupted controller's.
#[test]
fn corruption_detected_by_replica() {
    let net = ed_security::cases::three_bus();
    let cfg = config();
    let report = run_case_study(EmsPackage::PowerFactory, &net, &cfg, 5).unwrap();
    // Ratings the corrupted controller used vs the true ones.
    let mut corrupted = cfg.true_ratings_vector(&net);
    for c in &report.corruptions {
        corrupted[c.line] = c.new_mw;
    }
    let honest = cfg.true_ratings_vector(&net);
    let verdict =
        replica_check(&net, &net.demand_vector_mw(), &corrupted, &honest, 0.5).unwrap();
    assert_ne!(verdict, ReplicaVerdict::Consistent);
}

/// The trend check sees the corruption as a step change.
#[test]
fn corruption_detected_by_trend_check() {
    let net = ed_security::cases::three_bus();
    let cfg = config();
    let report = run_case_study(EmsPackage::SmartGridToolbox, &net, &cfg, 9).unwrap();
    let mut trend = TrendCheck::new(10.0);
    trend.observe(&cfg.u_d);
    let mut reported = cfg.u_d.clone();
    for c in &report.corruptions {
        // Map line index back to the DLR slot.
        let k = cfg.dlr_lines.iter().position(|l| l.0 == c.line).unwrap();
        reported[k] = c.new_mw;
    }
    assert!(!trend.observe(&reported).is_empty());
}

/// Repeated case studies over one topology reuse the pooled susceptance
/// factorization: the `SafetyGate` inside `run_case_study` routes through
/// `FactorCache::shared`, so only the first study pays for the sparse
/// susceptance factorization.
///
/// Counter assertions are one-sided lower bounds (the tallies are
/// process-global and sibling tests record concurrently); the strict
/// no-rebuild claim rides on `Arc` identity across the repeat leg.
#[test]
fn repeated_case_studies_reuse_pooled_factors() {
    use ed_security::obs;
    use ed_security::powerflow::{pool_env_enabled, FactorCache};
    let net = ed_security::cases::three_bus();
    obs::set_enabled(true);
    let m1 = obs::mark();
    run_case_study(EmsPackage::PowerFactory, &net, &config(), 11).unwrap();
    let d1 = obs::report_since(&m1);
    let probe_before = pool_env_enabled().then(|| FactorCache::shared(&net).unwrap());
    let m2 = obs::mark();
    for seed in [12u64, 13] {
        run_case_study(EmsPackage::PowerFactory, &net, &config(), seed).unwrap();
    }
    let d2 = obs::report_since(&m2);
    let probe_after = pool_env_enabled().then(|| FactorCache::shared(&net).unwrap());
    obs::set_enabled(false);
    if pool_env_enabled() {
        // The pooled factors were never rebuilt across the repeat leg —
        // the per-scenario factor-miss count dropped to zero once pooled.
        assert!(
            std::sync::Arc::ptr_eq(&probe_before.unwrap(), &probe_after.unwrap()),
            "pooled factors were rebuilt during the repeat leg"
        );
        // Each repeat study's safety gate was served from the pool.
        assert!(
            d2.counter("powerflow.factor.pool.hits") >= 2,
            "repeat studies did not hit the factor pool: {:?}",
            d2.counters
        );
    } else {
        // ED_POOL=0: every study refactors its gate, by design.
        assert!(
            d2.counter("powerflow.factor.misses") >= d1.counter("powerflow.factor.misses").min(2),
            "pool disabled but repeat studies did not refactor"
        );
    }
}

/// W^X holds: the exploit cannot write into text or vftable segments.
#[test]
fn text_segments_resist_writes() {
    let net = ed_security::cases::three_bus();
    let inst = EmsPackage::PowerWorld
        .build(&net, &net.static_ratings_mva(), 3)
        .unwrap();
    let mut mem = inst.memory.clone();
    let vft = inst.vftables[0].1;
    assert!(mem.write_u32(vft, 0xDEAD_BEEF).is_err());
}
