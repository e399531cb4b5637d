//! `sweep118`: Algorithm 1 on the 118-bus-class case, the paper's
//! headline configuration, run in a child process with `ED_POOL=0` so
//! every repetition is a first-time scenario.
//!
//! Untraced, it runs one discarded warm-up sweep, then times one sweep per
//! 2.5 s of the run's seconds (at least 3). Traced, it runs the staged pass:
//! each layer's public entry point called once in sequence under a
//! benchmark span, ending with a traced `optimal_attack`.

use crate::common::{self, ms, span_ms, span_sum_ms, Ctx};
use crate::outcome::Outcome;
use crate::probe::Probe;
use crate::scenario::{check, failed_subproblems, Pins, Scenario};
use ed_core::attack::kkt::KktModel;
use ed_core::attack::{corner_heuristic, optimal_attack, AttackResult};
use ed_core::dispatch::DcOpf;
use ed_core::SolveBudget;
use ed_serve::chaos::percentile;
use std::time::Instant;

/// `tests/paper_regression.rs` pins of the 118-bus node-capped sweep.
const IEEE118: Pins = Pins {
    subproblems: &[
        (159, 1, -180.0),
        (159, -1, 6.258321246073),
        (137, 1, -6.929692691053),
        (137, -1, -180.0),
        (32, 1, -8.848797640011),
        (32, -1, -180.0),
    ],
    ucap_pct: 6.258321246073,
    target: Some((159, -1)),
    certified: 6,
};

/// `tests/paper_regression.rs` pins of the 3-bus exact sweep.
const THREE_BUS: Pins = Pins {
    subproblems: &[
        (1, 1, 53.846153846154),
        (1, -1, -176.923076923077),
        (2, 1, 66.666666666667),
        (2, -1, -183.333333333333),
    ],
    ucap_pct: 66.666666666667,
    target: Some((2, 1)),
    certified: 4,
};

/// One checked sweep; returns its wall time (ms) and result.
fn sweep(s: &Scenario, pins: &Pins, out: &mut Outcome) -> (f64, Option<AttackResult>) {
    let t = Instant::now();
    let r = optimal_attack(&s.net, &s.config);
    let wall = ms(t.elapsed());
    out.attempted += pins.subproblems.len() as u64;
    match r {
        Ok(r) => {
            out.failed += failed_subproblems(&r);
            out.check_all(check(&r, pins, "sweep"));
            (wall, Some(r))
        }
        Err(e) => {
            out.failed += pins.subproblems.len() as u64;
            out.errors.push(format!("sweep: {e}"));
            (wall, None)
        }
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let build = if ctx.smoke {
        Scenario::three_bus
    } else {
        Scenario::ieee118
    };
    let pins = if ctx.smoke { &THREE_BUS } else { &IEEE118 };
    let mut probe = Probe::new(ctx);
    let s = common::setup(ctx, &mut probe, &mut out, |_| build(), drop);
    sweep(&s, pins, &mut out); // warm-up, discarded

    if ctx.trace {
        staged_pass(&s, pins, &mut out);
        return out;
    }
    let walls: Vec<f64> = (0..ctx.reps(2.5, 3))
        .map(|_| {
            let f = probe.factor();
            sweep(&s, pins, &mut out).0 * f
        })
        .collect();
    let subproblems = (pins.subproblems.len() * walls.len()) as f64;
    out.set("latency_p50_ms", percentile(&walls, 50.0));
    out.set(
        "throughput_per_s",
        subproblems / (walls.iter().sum::<f64>() / 1e3),
    );
    out
}

/// The traced staged pass: an untraced reference sweep, then each layer's
/// public call in sequence under a `bench.*` span on this one thread, then
/// a traced sweep. The spans' self times must add up to the pass's wall.
fn staged_pass(s: &Scenario, pins: &Pins, out: &mut Outcome) {
    let (untraced_ms, _) = sweep(s, pins, out);
    ed_obs::set_enabled(true);
    let mark = ed_obs::mark();
    let t0 = Instant::now();
    let net = {
        let _span = ed_obs::span("bench.cases.build");
        (s.build)()
    };
    for _ in 0..3 {
        // Static ratings: the operator's view without DLR. In the 118-bus
        // scenario they are also the true ratings.
        let _span = ed_obs::span("bench.dispatch.dcopf");
        let d = DcOpf::new(&net).solve();
        out.check(d.is_ok(), || format!("DcOpf::solve: {d:?}"));
    }
    let heuristic = {
        let _span = ed_obs::span("bench.heuristic");
        corner_heuristic(&net, &s.config)
    };
    let evaluations = heuristic.map_or_else(
        |e| {
            out.errors.push(format!("corner_heuristic: {e}"));
            0
        },
        |h| h.evaluated,
    );
    let kkt = {
        let _span = ed_obs::span("bench.kkt.build");
        KktModel::build(&net, &s.config)
    };
    let prepared = kkt.and_then(|k| {
        let _span = ed_obs::span("bench.presolve");
        k.prepare(true)
    });
    let (presolve, seed_iterations) = match prepared {
        Ok(mut p) => {
            let _span = ed_obs::span("bench.seed");
            let iterations = p.compute_seed(&SolveBudget::unlimited());
            (p.stats().copied(), iterations)
        }
        Err(e) => {
            out.errors.push(format!("KKT build/prepare: {e}"));
            (None, 0)
        }
    };
    let sweep_mark = ed_obs::mark();
    let r = {
        let _span = ed_obs::span("bench.sweep");
        optimal_attack(&net, &s.config)
    };
    let staged_ms = ms(t0.elapsed());
    let report = ed_obs::report_since(&mark);
    let in_sweep = ed_obs::report_since(&sweep_mark);
    ed_obs::set_enabled(false);

    out.attempted += pins.subproblems.len() as u64;
    match &r {
        Ok(r) => {
            out.failed += failed_subproblems(r);
            out.check_all(check(r, pins, "traced sweep"));
            out.set(
                "subproblems.lp_iterations",
                r.subproblems.iter().map(|p| p.lp_iterations).sum::<usize>() as f64,
            );
            out.set("subproblems.nodes", r.total_nodes as f64);
            out.set("subproblems.warm_starts", r.sweep.warm_starts as f64);
            out.set("subproblems.cold_restarts", r.sweep.cold_restarts as f64);
            out.set("certify.ms", r.sweep.certify_ms);
            out.set("certify.certified", r.sweep.certified as f64);
            out.set("certify.uncertified", r.sweep.uncertified as f64);
            out.set("certify.heuristic_floor", r.sweep.heuristic_floor as f64);
        }
        Err(e) => {
            out.failed += pins.subproblems.len() as u64;
            out.errors.push(format!("traced sweep: {e}"));
        }
    }

    let layer = |name: &str| span_sum_ms(&report, name);
    let sweep_ms = layer("bench.sweep");
    let subproblems_ms = span_sum_ms(&in_sweep, "attack.subproblem");
    out.set("cases.build_ms", layer("bench.cases.build"));
    out.set(
        "dispatch.dcopf_ms",
        percentile(&span_ms(&report, "bench.dispatch.dcopf"), 50.0),
    );
    out.set("heuristic.ms", layer("bench.heuristic"));
    out.set("heuristic.evaluations", evaluations as f64);
    out.set("kkt.build_ms", layer("bench.kkt.build"));
    out.set("presolve.ms", layer("bench.presolve"));
    out.set(
        "presolve.rows_removed",
        presolve.map_or(0, |p| p.rows_removed()) as f64,
    );
    out.set(
        "presolve.cols_removed",
        presolve.map_or(0, |p| p.cols_removed()) as f64,
    );
    out.set("seed.ms", layer("bench.seed"));
    out.set("seed.iterations", seed_iterations as f64);
    out.set("subproblems.ms", subproblems_ms);
    common::solver_layers(out, &in_sweep);
    out.set("sweep.staged_ms", staged_ms);
    // Inside the sweep the heuristic overlaps KKT build, presolve and the
    // seed on a helper thread; laid end to end above, the same layers take
    // longer than the sweep by about the overlapped time.
    let sequential = layer("bench.heuristic")
        + layer("bench.kkt.build")
        + layer("bench.presolve")
        + layer("bench.seed")
        + subproblems_ms;
    out.set("sweep.overlap_ms", sequential - sweep_ms);
    out.set(
        "sweep.trace_overhead_pct",
        100.0 * (sweep_ms / untraced_ms - 1.0),
    );

    // Layer coverage: every span of the pass ran on this thread, so their
    // self times partition the time the spans cover. Anything the spans
    // miss is benchmark time no layer accounts for.
    let self_sum: f64 = report.spans.iter().map(|s| s.self_ms).sum();
    out.check((self_sum / staged_ms - 1.0).abs() <= 0.05, || {
        format!("staged layers sum to {self_sum:.1} ms against a {staged_ms:.1} ms staged wall (over 5% apart)")
    });
    common::write_trace(out, "sweep118", &report);
}
