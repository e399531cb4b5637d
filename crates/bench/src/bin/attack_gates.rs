//! Release gates on Algorithm 1, measured afresh on every run.
//!
//! Prints one line per gate and exits 1 if any gate fails:
//!
//! - **certified floors**: three node-capped sweeps of `ieee118_like`
//!   (the 3 most-loaded lines, `[0.8, 1.6]×` bounds, node limit 1,
//!   presolve and certify on, every hardware thread) explore nodes and
//!   leave no bare heuristic floor: each node-limited subproblem promotes
//!   its incumbent to a certified KKT point.
//! - **disabled-trace overhead**: what the instrumentation costs those
//!   sweeps with the recorder off, bounded by the instrumentation calls of
//!   one traced sweep times the cost of one disabled call, over the median
//!   untraced wall. Must stay under 2 %.
//! - **delta re-solve**: a 24-hour six-bus chain solved warm (factor pool
//!   and seed-basis hand-off) reproduces every hour's cold answer bit for
//!   bit, and every subproblem violation to 1e-9, at a median per-hour
//!   wall of at most 0.35× the cold one.
//!
//! The binary takes no arguments. It sets `ED_POOL` and the recorder for
//! its own process, so the caller's environment moves no gate. Run with
//! `cargo run --release --offline -p ed-bench --bin attack_gates`;
//! `scripts/verify.sh` runs it after the release build.

use ed_bench::{congested_dlr_lines, dlr_bounds_for};
use ed_core::attack::{optimal_attack, AttackConfig, AttackResult, BilevelOptions};
use ed_powerflow::{LineId, Network};
use std::process::ExitCode;
use std::time::Instant;

/// Timed repetitions; every wall compared below is a median over them.
const REPS: usize = 3;
/// Hours in the delta re-solve chain.
const CHAIN_HOURS: usize = 24;
/// Disabled `ed_obs::counter` calls timed to price one call.
const CALIBRATION_CALLS: u32 = 1_000_000;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    0.5 * (samples[(n - 1) / 2] + samples[n / 2])
}

/// Prints the gate's line and returns whether it held.
fn gate(name: &str, held: bool, detail: String) -> bool {
    let status = if held { "ok  " } else { "FAIL" };
    println!("attack_gates: {status} {name}: {detail}");
    held
}

/// The node-capped 118-bus sweep.
fn sweep118_config(net: &Network, threads: usize) -> AttackConfig {
    let dlr = congested_dlr_lines(net, 3);
    let (lo, hi) = dlr_bounds_for(net, &dlr);
    let u_d: Vec<f64> = dlr.iter().map(|l| net.lines()[l.0].rating_mva).collect();
    AttackConfig::new(dlr)
        .bounds_per_line(lo, hi)
        .true_ratings(u_d)
        .solver_options(BilevelOptions {
            node_limit: 1,
            threads: Some(threads),
            presolve: Some(true),
            certify: Some(true),
            ..Default::default()
        })
}

/// Hour `h` of the six-bus chain: demand on a diurnal profile within
/// ±15 % of nominal, one thread per hour (parallelism belongs to chains),
/// and no corner heuristic, which is not incremental and would bury the
/// quantity under test.
fn chain_hour(six: &Network, h: usize, warm: bool) -> AttackConfig {
    let dlr = vec![LineId(4), LineId(8)];
    let ratings: Vec<f64> = dlr.iter().map(|l| six.lines()[l.0].rating_mva).collect();
    let rating = |k: f64| ratings.iter().map(|u| k * u).collect();
    let f = 0.9 + 0.15 * (std::f64::consts::PI * h as f64 / CHAIN_HOURS as f64).sin();
    let mut c = AttackConfig::new(dlr.clone())
        .bounds_per_line(rating(0.5), rating(2.0))
        .true_ratings(rating(0.9))
        .demand(six.buses().iter().map(|b| b.demand_mw * f).collect());
    c.options.certify = Some(true);
    c.options.presolve = Some(true);
    c.options.threads = Some(1);
    c.options.use_heuristic = false;
    c.options.warm_start = Some(warm);
    c
}

/// The answer fields that warm and cold must give bit for bit: ucap,
/// overload, `u^a`, dispatch and target.
type Answer = (u64, u64, Vec<u64>, Vec<u64>, Option<(usize, i8)>);

fn answer(r: &AttackResult) -> (Answer, Vec<f64>) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (
        (
            r.ucap_pct.to_bits(),
            r.overload_mw.to_bits(),
            bits(&r.ua_mw),
            bits(&r.dispatch_mw),
            r.target.map(|(l, d)| (l.0, d)),
        ),
        r.subproblems.iter().map(|s| s.violation).collect(),
    )
}

fn main() -> ExitCode {
    // Every repetition must do the same work, so the pools stay off
    // except for the warm chain, and the recorder is off except for the
    // one traced sweep.
    std::env::set_var("ED_POOL", "0");
    ed_obs::set_enabled(false);
    let net = ed_cases::ieee118_like();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = sweep118_config(&net, threads);

    let mut walls = Vec::with_capacity(REPS);
    let (mut floors, mut nodes) = (0, usize::MAX);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = optimal_attack(&net, &config).expect("118-bus sweep solves");
        walls.push(t0.elapsed().as_secs_f64() * 1e3);
        floors = floors.max(r.sweep.heuristic_floor);
        nodes = nodes.min(r.total_nodes);
    }
    let untraced_ms = median(walls);
    let floors_held = gate(
        "certified floors",
        floors == 0 && nodes > 0,
        format!("heuristic_floor {floors} (== 0), total_nodes {nodes} (> 0)"),
    );

    let mut traced = config.clone();
    traced.options.trace = Some(true);
    ed_obs::reset();
    ed_obs::set_enabled(true);
    optimal_attack(&net, &traced).expect("traced 118-bus sweep solves");
    let stages = ed_obs::snapshot();
    ed_obs::set_enabled(false);
    // Each span and timer sample comes with counter calls; three calls
    // per event bounds them.
    let samples: u64 = stages.timings.iter().map(|(_, t)| t.count).sum();
    let calls = 3 * (stages.spans.len() as u64 + samples);
    let t0 = Instant::now();
    for _ in 0..CALIBRATION_CALLS {
        ed_obs::counter("bench.calibration", std::hint::black_box(1));
    }
    let call_ns = t0.elapsed().as_secs_f64() * 1e9 / f64::from(CALIBRATION_CALLS);
    let overhead_pct = 100.0 * calls as f64 * call_ns / (untraced_ms * 1e6);
    let overhead_held = gate(
        "disabled-trace overhead",
        overhead_pct < 2.0,
        format!(
            "{call_ns:.2} ns x {calls} calls over {untraced_ms:.0} ms = {overhead_pct:.6} % (< 2 %)"
        ),
    );

    // Cold: no pool, no warm start, every hour from scratch.
    let six = ed_cases::six_bus();
    let mut cold_walls = Vec::with_capacity(REPS * CHAIN_HOURS);
    let mut cold_answers = Vec::with_capacity(CHAIN_HOURS);
    for rep in 0..REPS {
        for h in 0..CHAIN_HOURS {
            let t0 = Instant::now();
            let r = optimal_attack(&six, &chain_hour(&six, h, false)).expect("cold hour solves");
            cold_walls.push(t0.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                cold_answers.push(answer(&r));
            }
        }
    }
    // Warm: the production path, with the factor pool and each hour's
    // seed basis handed to the next.
    std::env::set_var("ED_POOL", "1");
    let mut warm_walls = Vec::with_capacity(REPS * CHAIN_HOURS);
    let mut warm_equals_cold = true;
    let close = |w: &f64, c: &f64| (w - c).abs() <= 1e-9 * (1.0 + c.abs());
    for _ in 0..REPS {
        let mut handoff = None;
        for (h, (cold_bits, cold_viols)) in cold_answers.iter().enumerate() {
            let mut cfg = chain_hour(&six, h, true);
            cfg.options.warm_basis = handoff.take();
            let t0 = Instant::now();
            let r = optimal_attack(&six, &cfg).expect("warm hour solves");
            warm_walls.push(t0.elapsed().as_secs_f64() * 1e3);
            let (bits, viols) = answer(&r);
            let same = bits == *cold_bits
                && viols.len() == cold_viols.len()
                && viols.iter().zip(cold_viols).all(|(w, c)| close(w, c));
            if !same {
                eprintln!("attack_gates: hour {h}: warm answer differs from cold");
            }
            warm_equals_cold &= same;
            handoff = r.seed_basis;
        }
    }
    let (warm_ms, cold_ms) = (median(warm_walls), median(cold_walls));
    let ratio = warm_ms / cold_ms;
    let delta_held = gate(
        "delta re-solve",
        warm_equals_cold && ratio <= 0.35,
        format!(
            "warm_equals_cold {warm_equals_cold}, warm {warm_ms:.2} ms / cold {cold_ms:.2} ms \
             per hour = {ratio:.3} (<= 0.35)"
        ),
    );

    if floors_held && overhead_held && delta_held {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
