//! `atlas_grid`: `ed_atlas::run_atlas` over three_bus and six_bus, 96
//! steps, E_D k = 3, 4 contingencies, exact tier, 2 threads — 3456 small
//! cells. One fresh run per 5 s of the run's seconds (at least 2), each
//! with an empty solution pool and a new journal; then the last journal is
//! resumed. All reports must be byte-identical.

use crate::common::{self, ms, span_sum_ms, Ctx};
use crate::outcome::Outcome;
use crate::probe::Probe;
use ed_atlas::{run_atlas, AtlasOptions, AtlasReport, AtlasSpec, CaseGrid, RowKind, Tier};
use ed_core::pool::SolutionPool;
use ed_serve::chaos::percentile;
use std::path::Path;
use std::time::Instant;

const THREADS: usize = 2;

fn spec(smoke: bool) -> AtlasSpec {
    AtlasSpec {
        cases: vec!["three_bus".into(), "six_bus".into()],
        hours: if smoke { 1 } else { 96 },
        ed_k: 3,
        contingencies: 4,
        tier: Tier::Exact,
        ..AtlasSpec::default()
    }
}

/// One atlas run (fresh, or resuming `journal`); returns its wall time
/// (ms) and report.
fn atlas(
    spec: &AtlasSpec,
    journal: &Path,
    resume: bool,
    out: &mut Outcome,
) -> (f64, Option<AtlasReport>) {
    let mut opts = AtlasOptions::new(spec.clone(), journal.to_path_buf());
    opts.threads = THREADS;
    opts.resume = resume;
    if !resume {
        SolutionPool::global().clear();
        let _ = std::fs::remove_file(journal);
    }
    let t = Instant::now();
    let r = run_atlas(&opts);
    let wall = ms(t.elapsed());
    match r {
        Ok(r) => (wall, Some(r)),
        Err(e) => {
            out.errors.push(format!("run_atlas (resume {resume}): {e}"));
            (wall, None)
        }
    }
}

/// Counts the run's cells and checks it against the first run's bytes.
fn tally(report: &AtlasReport, cells: usize, reference: &str, what: &str, out: &mut Outcome) {
    out.attempted += report.rows.len() as u64;
    out.failed += report.quarantined() as u64;
    let holes = report
        .rows
        .iter()
        .enumerate()
        .filter(|(i, r)| r.cell != *i)
        .count();
    out.check(report.rows.len() == cells && holes == 0, || {
        format!(
            "{what}: {} rows for {cells} cells, {holes} out of place",
            report.rows.len()
        )
    });
    out.check(report.to_json() == reference, || {
        format!("{what}: report differs from the first run's bytes")
    });
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spec = spec(ctx.smoke);
    let journal = common::out_dir().join(format!("atlas-{}.journal", std::process::id()));
    let mut probe = Probe::new(ctx);
    // Set-up: the case grids (for the cell count) and the journal directory.
    let build = |out: &mut Outcome| {
        let dir = std::fs::create_dir_all(common::out_dir());
        out.check(dir.is_ok(), || {
            format!("creating {}: {dir:?}", common::out_dir().display())
        });
        let grids: Result<Vec<CaseGrid>, _> = spec
            .cases
            .iter()
            .map(|c| CaseGrid::build(c, &spec))
            .collect();
        grids.map_or_else(
            |e| {
                out.errors.push(format!("CaseGrid::build: {e}"));
                0
            },
            |g| g.iter().map(|g| g.cell_count(spec.hours)).sum(),
        )
    };
    let cells = common::setup(ctx, &mut probe, &mut out, build, drop);

    ed_obs::set_enabled(ctx.trace);
    let mark = ed_obs::mark();
    let mut walls = Vec::new();
    let mut reference: Option<String> = None;
    let mut journal_bytes = 0;
    let runs = if ctx.trace { 1 } else { ctx.reps(5.0, 2) };
    for _ in 0..runs {
        let f = probe.factor();
        let (wall, report) = atlas(&spec, &journal, false, &mut out);
        walls.push(wall * f);
        let Some(report) = report else { break };
        let reference = reference.get_or_insert_with(|| report.to_json());
        tally(
            &report,
            cells,
            reference,
            &format!("fresh run {}", walls.len()),
            &mut out,
        );
        journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
        if ctx.trace {
            let kind = |k: RowKind| report.rows.iter().filter(|r| r.kind == k).count() as f64;
            let tier = |t: Tier| report.rows.iter().filter(|r| r.tier == Some(t)).count() as f64;
            out.set("atlas.exact_cells", tier(Tier::Exact));
            out.set("atlas.screen_cells", tier(Tier::Screen));
            out.set("atlas.heuristic_cells", tier(Tier::Heuristic));
            out.set("atlas.untestable_cells", kind(RowKind::Untestable));
            out.set("atlas.infeasible_cells", kind(RowKind::Infeasible));
            out.set("atlas.quarantined_cells", kind(RowKind::Quarantined));
        }
    }
    let run_report = ed_obs::report_since(&mark);
    let (resume_ms, resumed) = atlas(&spec, &journal, true, &mut out);
    if let (Some(r), Some(reference)) = (resumed, &reference) {
        out.check(r.recovered_cells == cells, || {
            format!("resume recovered {} of {cells} cells", r.recovered_cells)
        });
        tally(&r, cells, reference, "resumed run", &mut out);
    }
    let _ = std::fs::remove_file(&journal);
    ed_obs::set_enabled(false);

    if !ctx.trace {
        let fresh_cells = (cells * walls.len()) as f64;
        out.set("latency_p50_ms", percentile(&walls, 50.0));
        out.set(
            "throughput_per_s",
            fresh_cells / (walls.iter().sum::<f64>() / 1e3),
        );
        return out;
    }
    out.set("atlas.journal_bytes", journal_bytes as f64);
    out.set("atlas.resume_ms", resume_ms);
    // Cell spans run on the chain workers; the run span on this thread.
    // Worker time outside cells is journal writes, chain scheduling and
    // idle workers at the tail of the run.
    let cell_ms = span_sum_ms(&run_report, "atlas.cell");
    let cell_self: f64 = run_report
        .spans
        .iter()
        .filter(|s| s.name == "atlas.cell")
        .map(|s| s.self_ms)
        .sum();
    out.set("atlas.cell_self_ms", cell_self);
    out.set(
        "atlas.run_self_ms",
        THREADS as f64 * span_sum_ms(&run_report, "atlas.run") - cell_ms,
    );
    common::solver_layers(&mut out, &run_report);
    common::write_trace(&mut out, "atlas_grid", &run_report);
    out
}
