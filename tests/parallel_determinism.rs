//! The parallel Algorithm 1 sweep promises *bit-identical* results at any
//! thread count: subproblems (and corner-heuristic candidates) are
//! evaluated on the worker pool but reduced in index order with the same
//! strict comparisons a sequential loop uses. These tests pin that promise
//! on the paper's 3-bus case, the 6-bus fixture, and the 118-bus-class
//! network, and pin the budget semantics of a cancelled sweep.
//!
//! Budgets here are node caps (deterministic, locally counted) — a
//! wall-clock deadline trips at a scheduler-dependent instant and is
//! exercised separately below.

use ed_security::core::attack::{
    optimal_attack_with, AttackConfig, AttackResult, BilevelOptions, SubproblemFault,
};
use ed_security::optim::budget::{BudgetTripped, SolveBudget};
use ed_security::powerflow::LineId;
use std::time::Duration;

/// Per-subproblem record fields: `(line, direction, violation bits,
/// proved_optimal, nodes, heuristic_missing, certificate pass status)`.
type SubFp = (usize, i8, u64, bool, usize, bool, Option<bool>);
/// Whole-result fingerprint: ucap/overload/ua/dispatch bits, target,
/// total nodes, per-subproblem records.
type Fp = (u64, u64, Vec<u64>, Vec<u64>, Option<(usize, i8)>, usize, Vec<SubFp>);

/// Every field of an [`AttackResult`] that must match across thread counts
/// — and across warm-start on/off — with floats compared by bit pattern.
fn fingerprint(r: &AttackResult) -> Fp {
    (
        r.ucap_pct.to_bits(),
        r.overload_mw.to_bits(),
        r.ua_mw.iter().map(|v| v.to_bits()).collect(),
        r.dispatch_mw.iter().map(|v| v.to_bits()).collect(),
        r.target.map(|(l, d)| (l.0, d)),
        r.total_nodes,
        r.subproblems
            .iter()
            .map(|s| {
                (
                    s.line.0,
                    s.direction,
                    s.violation.to_bits(),
                    s.proved_optimal,
                    s.nodes,
                    s.heuristic_missing.is_some(),
                    s.certificate.as_ref().map(|c| c.passed()),
                )
            })
            .collect(),
    )
}

fn with_threads(config: &AttackConfig, threads: usize) -> AttackConfig {
    let mut c = config.clone();
    c.options.threads = Some(threads);
    c
}

fn with_warm(config: &AttackConfig, on: bool) -> AttackConfig {
    let mut c = config.clone();
    c.options.warm_start = Some(on);
    c
}

/// The 6-bus cases also run on the presolved KKT model: the sweep then
/// patches every objective onto the reduced model and hands reduced-space
/// bases around, and the same invariants must hold there.
fn with_presolve(config: &AttackConfig, presolve: Option<bool>) -> AttackConfig {
    let mut c = config.clone();
    c.options.presolve = presolve;
    c
}

/// The basis hand-off must change pivot *paths*, never answers: the sweep
/// with warm starts forced on and forced off must agree **bit-for-bit** on
/// every attack-answer field (`ucap`, overload, `u^a`, dispatch, target)
/// and semantically per subproblem (optimality proof, certificate status,
/// and the violation to within ulps). What warm starts MAY change is the
/// trajectory — branch-and-bound node counts, simplex iteration tallies,
/// and which of several ulp-equal vertices of a degenerate optimum the
/// solver stops at — so those are deliberately not compared bitwise here
/// (thread-count invariance above still pins them, warm path included).
fn assert_warm_cold_invariant(
    net: &ed_security::powerflow::Network,
    config: &AttackConfig,
    label: &str,
) {
    let warm = optimal_attack_with(net, &with_warm(config, true), true).unwrap();
    let cold = optimal_attack_with(net, &with_warm(config, false), true).unwrap();
    assert_eq!(warm.ucap_pct.to_bits(), cold.ucap_pct.to_bits(), "{label}: ucap diverged");
    assert_eq!(
        warm.overload_mw.to_bits(),
        cold.overload_mw.to_bits(),
        "{label}: overload diverged"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&warm.ua_mw), bits(&cold.ua_mw), "{label}: u^a diverged");
    assert_eq!(bits(&warm.dispatch_mw), bits(&cold.dispatch_mw), "{label}: dispatch diverged");
    assert_eq!(warm.target, cold.target, "{label}: target diverged");
    assert_eq!(warm.subproblems.len(), cold.subproblems.len());
    for (w, c) in warm.subproblems.iter().zip(&cold.subproblems) {
        let tag = format!("{label} line {} dir {}", w.line.0, w.direction);
        assert_eq!((w.line, w.direction), (c.line, c.direction), "{tag}: order diverged");
        assert_eq!(w.proved_optimal, c.proved_optimal, "{tag}: proof status diverged");
        assert_eq!(
            w.certificate.as_ref().map(|cert| cert.passed()),
            c.certificate.as_ref().map(|cert| cert.passed()),
            "{tag}: certificate status diverged"
        );
        assert_eq!(
            w.heuristic_missing.is_some(),
            c.heuristic_missing.is_some(),
            "{tag}: seed provenance diverged"
        );
        assert!(
            (w.violation - c.violation).abs() <= 1e-9 * (1.0 + c.violation.abs()),
            "{tag}: violation diverged beyond ulps: {:.17} vs {:.17}",
            w.violation,
            c.violation
        );
    }
    // The warm run really did hand bases off, and never had to walk a
    // warm answer back: the agreement above is load-bearing, not vacuous.
    assert!(warm.sweep.warm_starts > 0, "{label}: warm sweep accepted no warm basis");
    assert_eq!(warm.sweep.warm_fallbacks, 0, "{label}: clean warm sweep fell back");
    assert_eq!(cold.sweep.warm_starts, 0, "{label}: cold sweep accepted a warm basis");
}

fn assert_thread_invariant(
    net: &ed_security::powerflow::Network,
    config: &AttackConfig,
    label: &str,
    parallel_counts: &[usize],
) {
    let seq = optimal_attack_with(net, &with_threads(config, 1), true).unwrap();
    for &threads in parallel_counts {
        let par = optimal_attack_with(net, &with_threads(config, threads), true).unwrap();
        assert_eq!(
            fingerprint(&seq),
            fingerprint(&par),
            "{label}: {threads}-thread sweep diverged from sequential"
        );
    }
}

fn three_bus_config() -> AttackConfig {
    AttackConfig::new(ed_security::cases::three_bus::dlr_lines())
        .bounds(100.0, 200.0)
        .true_ratings(vec![130.0, 120.0])
}

fn six_bus_config(net: &ed_security::powerflow::Network) -> AttackConfig {
    // Two well-loaded lines: {2,4} and {3,6} (both rated 90 MVA).
    let dlr = vec![LineId(4), LineId(8)];
    let u_d: Vec<f64> = dlr.iter().map(|l| 0.9 * net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = dlr.iter().map(|l| 0.5 * net.lines()[l.0].rating_mva).collect();
    let hi: Vec<f64> = dlr.iter().map(|l| 2.0 * net.lines()[l.0].rating_mva).collect();
    AttackConfig::new(dlr).bounds_per_line(lo, hi).true_ratings(u_d)
}

/// The `lines` most-loaded lines under a proportional dispatch (same
/// selection the scalability example uses). Every branch-and-bound node
/// pays a full simplex solve of the 118-bus KKT LP, so the node limit is
/// 1 — the root relaxation only. A node-capped subproblem is counted
/// locally by the solver and is exactly as deterministic as a completed
/// one, which is precisely what the capped-sweep tests must prove. (A
/// `SolveBudget` iteration cap would NOT work here — the MPEC node loop
/// deliberately strips it via `wall_only()` before each LP solve.)
fn ieee118_config(net: &ed_security::powerflow::Network, lines: usize) -> AttackConfig {
    let cap: f64 = net.total_pmax_mw();
    let d = net.total_demand_mw();
    let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
    let flows = ed_security::powerflow::dc::solve(net, &net.injections_mw(&prop))
        .unwrap()
        .flow_mw;
    let mut loading: Vec<(usize, f64)> = flows
        .iter()
        .enumerate()
        .map(|(i, &f)| (i, f.abs() / net.lines()[i].rating_mva))
        .collect();
    loading.sort_by(|a, b| b.1.total_cmp(&a.1));
    let dlr: Vec<LineId> = loading.iter().take(lines).map(|&(i, _)| LineId(i)).collect();
    let u_d: Vec<f64> = dlr.iter().map(|l| net.lines()[l.0].rating_mva).collect();
    let lo: Vec<f64> = u_d.iter().map(|u| 0.8 * u).collect();
    let hi: Vec<f64> = u_d.iter().map(|u| 1.6 * u).collect();
    AttackConfig::new(dlr)
        .bounds_per_line(lo, hi)
        .true_ratings(u_d)
        .solver_options(BilevelOptions { node_limit: 1, ..Default::default() })
}

#[test]
fn three_bus_sweep_bit_identical_across_thread_counts() {
    let net = ed_security::cases::three_bus();
    assert_thread_invariant(&net, &three_bus_config(), "three_bus", &[2, 4]);
}

#[test]
fn six_bus_sweep_bit_identical_across_thread_counts() {
    let net = ed_security::cases::six_bus();
    for presolve in [None, Some(true)] {
        let config = with_presolve(&six_bus_config(&net), presolve);
        assert_thread_invariant(&net, &config, &format!("six_bus presolve {presolve:?}"), &[2, 4]);
    }
}

#[test]
fn ieee118_sweep_bit_identical_across_thread_counts() {
    let net = ed_security::cases::ieee118_like();
    // Compared at 4 threads only — each 118-bus LP solve is expensive in
    // the dev profile (see [`ieee118_config`]).
    assert_thread_invariant(&net, &ieee118_config(&net, 2), "ieee118_like", &[4]);

    // The sweep `attack_gates` gates: 3 lines, presolve on. Its attached
    // trace must repeat byte for byte at 1 thread and match at 4.
    let mut config = ieee118_config(&net, 3);
    config.options.presolve = Some(true);
    config.options.trace = Some(true);
    let run = |threads| optimal_attack_with(&net, &with_threads(&config, threads), true).unwrap();
    let (seq, again, par) = (run(1), run(1), run(4));
    let trace = |r: &AttackResult| r.trace.as_ref().expect("trace forced on").deterministic_json();
    assert_eq!(fingerprint(&seq), fingerprint(&par), "3-line sweep diverged at 4 threads");
    assert_eq!(trace(&seq), trace(&again), "repeat run at 1 thread changed the trace");
    assert_eq!(trace(&seq), trace(&par), "trace counters diverged at 4 threads");
}

#[test]
fn three_bus_warm_and_cold_sweeps_bit_identical() {
    let net = ed_security::cases::three_bus();
    assert_warm_cold_invariant(&net, &three_bus_config(), "three_bus");
}

#[test]
fn six_bus_warm_and_cold_sweeps_bit_identical() {
    let net = ed_security::cases::six_bus();
    for presolve in [None, Some(true)] {
        let config = with_presolve(&six_bus_config(&net), presolve);
        assert_warm_cold_invariant(&net, &config, &format!("six_bus presolve {presolve:?}"));
    }
}

#[test]
fn ieee118_warm_and_cold_sweeps_bit_identical() {
    let net = ed_security::cases::ieee118_like();
    // 4 workers, node limit 1 (see [`ieee118_config`]): the warm sweep
    // reuses the shared phase-1 seed at every subproblem root, the cold
    // sweep re-derives each basis from scratch — same answers required.
    let config = with_threads(&ieee118_config(&net, 2), 4);
    assert_warm_cold_invariant(&net, &config, "ieee118_like");
}

/// A corrupted warm-started answer must be walked back, not trusted: with
/// an injected basis-memory fault on every simplex solve, each
/// subproblem's warm answer fails its certificate, the sweep re-solves it
/// cold (fault cleared — the injection models corrupted *hand-off* state),
/// and the final result is bit-identical to a clean cold sweep with every
/// accepted answer certified.
#[test]
fn faulted_warm_basis_falls_back_to_certified_cold_answer() {
    let net = ed_security::cases::three_bus();
    let mut faulted_cfg = with_warm(&three_bus_config(), true);
    faulted_cfg.options.certify = Some(true);
    faulted_cfg.options.inject_basis_fault = Some(0xBA515);
    let faulted = optimal_attack_with(&net, &faulted_cfg, true).unwrap();

    assert!(
        faulted.sweep.warm_fallbacks > 0,
        "no subproblem took the certified cold-fallback path"
    );
    for s in &faulted.subproblems {
        assert!(s.warm_fallback, "line {} dir {} skipped the fallback", s.line.0, s.direction);
        let cert = s.certificate.as_ref().expect("fallback answer must carry a certificate");
        assert!(cert.passed(), "line {} dir {}: fallback answer left uncertified", s.line.0, s.direction);
    }

    let mut clean_cfg = with_warm(&three_bus_config(), false);
    clean_cfg.options.certify = Some(true);
    let clean = optimal_attack_with(&net, &clean_cfg, true).unwrap();
    assert_eq!(
        fingerprint(&faulted),
        fingerprint(&clean),
        "certified cold fallback diverged from a clean cold sweep"
    );
}

/// The attached [`TraceReport`]'s deterministic projection (counters only,
/// no wall clock) must be **byte-identical** across repeated runs at the
/// same thread count *and* across thread counts: every tally feeding it is
/// an exact `u64` merged in the index-ordered reduction, never a
/// cross-thread race. This is the regression test for the tally-merge
/// ordering bug class (`certify_ms` and friends summed in completion order
/// rather than index order).
///
/// [`TraceReport`]: ed_security::obs::TraceReport
#[test]
fn attached_trace_counters_byte_identical_across_runs_and_threads() {
    let net = ed_security::cases::three_bus();
    let mut config = three_bus_config();
    // Forced on (not ED_TRACE-deferred) so the test is self-contained.
    config.options.trace = Some(true);

    let trace_json = |threads: usize| {
        let r = optimal_attack_with(&net, &with_threads(&config, threads), true).unwrap();
        r.trace.expect("trace forced on").deterministic_json()
    };
    let reference = trace_json(1);
    assert!(!reference.is_empty() && reference.contains("sweep.subproblems"));
    // Repeat at the same thread count: byte-identical.
    assert_eq!(reference, trace_json(1), "repeat run at 1 thread changed the trace");
    // Across thread counts: byte-identical.
    for threads in [2usize, 4] {
        let repeat = trace_json(threads);
        assert_eq!(
            reference, repeat,
            "trace counters diverged at {threads} threads — a tally escaped \
             the index-ordered reduction"
        );
        assert_eq!(reference, trace_json(threads), "repeat at {threads} threads diverged");
    }
}

#[test]
fn expired_shared_deadline_flags_every_subproblem_as_wall_clock() {
    // A deadline that is already gone when the sweep starts: whichever
    // worker looks first observes WallClock and cancels the siblings, who
    // must report the same WallClock trip (not a bare cancellation) so
    // downstream fault accounting is unchanged from the sequential sweep.
    let net = ed_security::cases::three_bus();
    let mut config = three_bus_config();
    config.options.budget = SolveBudget::with_deadline(Duration::ZERO);
    config.options.threads = Some(4);
    let r = optimal_attack_with(&net, &config, true).unwrap();
    assert_eq!(r.subproblems.len(), 4);
    for s in &r.subproblems {
        assert_eq!(
            s.fault,
            Some(SubproblemFault::Budget(BudgetTripped::WallClock)),
            "subproblem on line {} dir {} not flagged",
            s.line.0,
            s.direction
        );
    }
    // The heuristic floor still stands: the paper's (130, 120) row admits
    // a positive violation without any exact solve.
    assert!(r.ucap_pct > 0.0);
    assert_eq!(r.total_nodes, 0);
}

#[test]
fn heuristic_only_mode_reports_flagged_subproblem_records() {
    let net = ed_security::cases::three_bus();
    let heur = optimal_attack_with(&net, &three_bus_config(), false).unwrap();
    // 2·|E_D| records even without exact solves, so unseeded subproblems
    // are visible instead of silently skipped.
    assert_eq!(heur.subproblems.len(), 4);
    for s in &heur.subproblems {
        assert!(s.fault.is_none());
        assert!(!s.proved_optimal);
        // The corner sweep seeds every (line, direction) on this case.
        assert!(s.heuristic_missing.is_none(), "line {} dir {}", s.line.0, s.direction);
        assert!(s.violation.is_finite());
    }
}
