//! Pieces every workload shares: run sizing, the timed set-up with its
//! Table I check, peak memory, and reading layer times out of an `ed-obs`
//! trace.

use crate::outcome::Outcome;
use crate::probe::Probe;
use ed_core::attack::{optimal_attack, AttackConfig};
use ed_obs::TraceReport;
use ed_serve::chaos::percentile;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How one workload run is sized and whether it is traced.
pub struct Ctx {
    /// Seed of the generated inputs (the serve_mix request stream).
    pub seed: u64,
    /// Measuring time the timed loops are sized for.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs for the smoke test.
    pub smoke: bool,
}

impl Ctx {
    /// Set-up repetitions; the reported set-up time is their median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            9
        }
    }

    /// Operations a timed loop runs: enough to fill the run's seconds at
    /// `nominal_s` per operation (its typical time on a 2-vCPU Xeon VM),
    /// and at least `min`. The count depends on the arguments alone, never
    /// on measured speed, so a run's inputs — and with them its memory
    /// high-water mark — do not change on a slow machine.
    pub fn reps(&self, nominal_s: f64, min: usize) -> usize {
        if self.smoke {
            min
        } else {
            ((self.seconds / nominal_s).round() as usize).max(min)
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Table I of the paper on the 3-bus case: for each pair of true ratings,
/// the optimal manipulated ratings and the MW overload they cause. Every
/// workload runs it during set-up, so a run on a broken solver stack stops
/// being "fast" and starts being wrong.
pub fn table1_check() -> Vec<String> {
    let net = ed_cases::three_bus();
    let rows: [(f64, f64, [f64; 2], f64); 4] = [
        (130.0, 120.0, [100.0, 200.0], 80.0),
        (130.0, 150.0, [200.0, 100.0], 70.0),
        (160.0, 150.0, [100.0, 200.0], 50.0),
        (160.0, 180.0, [200.0, 100.0], 40.0),
    ];
    let mut errors = Vec::new();
    for (ud13, ud23, ua, overload) in rows {
        let mut config = AttackConfig::new(ed_cases::three_bus::dlr_lines())
            .bounds(100.0, 200.0)
            .true_ratings(vec![ud13, ud23]);
        config.options.threads = Some(1);
        match optimal_attack(&net, &config) {
            Ok(r) if (r.overload_mw - overload).abs() < 1e-4 && r.ua_mw == ua => {}
            Ok(r) => errors.push(format!(
                "Table I u_d=({ud13},{ud23}): overload {} with u_a {:?}, expected {overload} with {ua:?}",
                r.overload_mw, r.ua_mw
            )),
            Err(e) => errors.push(format!("Table I u_d=({ud13},{ud23}): {e}")),
        }
    }
    errors
}

/// The workload's set-up, `ctx.setup_reps()` times: each repetition runs
/// `build` and the Table I check, timed at the reference speed, after
/// `discard` has disposed of the previous repetition's result (untimed).
/// Records the median as `setup_s` and returns the last result.
pub fn setup<T>(
    ctx: &Ctx,
    probe: &mut Probe,
    out: &mut Outcome,
    mut build: impl FnMut(&mut Outcome) -> T,
    mut discard: impl FnMut(T),
) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..ctx.setup_reps() {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let f = probe.factor();
        let t = Instant::now();
        let built = build(out);
        let errors = table1_check();
        times.push(t.elapsed().as_secs_f64() * f);
        out.check_all(errors);
        last = Some(built);
    }
    out.set("setup_s", percentile(&times, 50.0));
    last.expect("at least one set-up repetition")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where traced runs write `trace_<workload>.json` and the atlas keeps its
/// journal: `.bench_out/` under the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Writes a traced run's spans, counters and timers in the schema
/// `scripts/trace_report.sh` reads.
pub fn write_trace(out: &mut Outcome, workload: &str, report: &TraceReport) {
    let path = out_dir().join(format!("trace_{workload}.json"));
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, report.to_json()));
    out.check(written.is_ok(), || {
        format!("writing {}: {written:?}", path.display())
    });
}

/// Durations (ms) of the recorded spans called `name`.
pub fn span_ms(report: &TraceReport, name: &str) -> Vec<f64> {
    report
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ms)
        .collect()
}

/// Sum of the recorded spans called `name`, in ms.
pub fn span_sum_ms(report: &TraceReport, name: &str) -> f64 {
    span_ms(report, name).iter().sum()
}

fn timing_ms(report: &TraceReport, name: &str) -> f64 {
    report.timing(name).map_or(0.0, |t| t.total_ms)
}

/// The solver and reuse layers every traced run reports, from the
/// program's own timers and counters. The `optim.*` timers nest (a B&B
/// node's simplex solve runs inside the B&B timer), so these times are
/// inclusive and must not be added up.
pub fn solver_layers(out: &mut Outcome, report: &TraceReport) {
    out.set("simplex.incl_ms", timing_ms(report, "optim.simplex"));
    out.set(
        "lu.factor_incl_ms",
        timing_ms(report, "optim.simplex.factor"),
    );
    out.set(
        "lu.factor_count",
        report.counter("linalg.lu.factors") as f64,
    );
    out.set("bb.incl_ms", timing_ms(report, "optim.bb"));
    out.set(
        "pool.solution_hits",
        report.counter("core.pool.hits") as f64,
    );
    out.set(
        "pool.factor_hits",
        report.counter("powerflow.factor.pool.hits") as f64,
    );
    out.set(
        "presolve.patches",
        report.counter("optim.presolve.patches") as f64,
    );
    out.set(
        "presolve.patch_rejects",
        report.counter("optim.presolve.patch_rejects") as f64,
    );
}
