//! The sweep engine: chain scheduling, fault isolation, resume.
//!
//! A **chain** is the `hours` cells of one fixed (case, E_D subset,
//! outage) coordinate, run sequentially so the exact sweep's seed basis
//! hands off hour-to-hour through `BilevelOptions::warm_basis` (warm
//! starts never change answers, so the hand-off is pure speed). That
//! hand-off is the only seed a cell's sweep gets. Chains are independent
//! and go onto the `ed-par` pool.
//!
//! Per cell, the life cycle is: journal `claim` → attempt loop (panic
//! shield + typed faults, retries with the jittered `ed-ems` backoff
//! salted by the cell index) → journal `result` (the serialized row,
//! fsync'd) → optional `quarantine` event. A resumed run replays
//! journaled results verbatim and recomputes only claims that never
//! resolved, which is why a SIGKILLed-then-resumed sweep reports
//! byte-identically to an uninterrupted one.

use crate::cell::{execute_cell, CellFault, CellInput, CellOutcome, Tier};
use crate::grid::{AtlasSpec, CaseGrid};
use crate::journal::Journal;
use crate::report::{self, AtlasReport, CellRecord, Coords};
use ed_ems::fault::RetryPolicy;
use ed_optim::lp::Basis;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Typed atlas failures. Everything else — panics, budget trips,
/// numerical faults in cells — is *not* an error: it becomes a typed
/// report row.
#[derive(Debug)]
pub enum AtlasError {
    /// Journal or report I/O failed; the sweep cannot checkpoint.
    Io(std::io::Error),
    /// A resume was attempted against a journal from a different grid.
    SpecMismatch {
        /// What differed.
        what: String,
    },
    /// The spec cannot enumerate a grid (unknown case, zero hours, ...).
    Grid {
        /// The offending field.
        what: String,
    },
    /// Engine-internal invariant failure (a silent hole, a worker dying
    /// outside the per-cell shield).
    Worker {
        /// Description.
        what: String,
    },
}

impl std::fmt::Display for AtlasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtlasError::Io(e) => write!(f, "journal i/o failure: {e}"),
            AtlasError::SpecMismatch { what } => write!(f, "resume refused: {what}"),
            AtlasError::Grid { what } => write!(f, "grid enumeration failed: {what}"),
            AtlasError::Worker { what } => write!(f, "engine invariant violated: {what}"),
        }
    }
}

impl std::error::Error for AtlasError {}

impl From<std::io::Error> for AtlasError {
    fn from(e: std::io::Error) -> AtlasError {
        AtlasError::Io(e)
    }
}

/// How to run one atlas sweep.
pub struct AtlasOptions {
    /// The grid.
    pub spec: AtlasSpec,
    /// Journal path (created fresh, or appended to under `resume`).
    pub journal: PathBuf,
    /// Resume from an existing journal instead of starting over.
    pub resume: bool,
    /// Worker threads for the chain pool (`0` = `ed_par::thread_count`).
    pub threads: usize,
    /// Wall-clock deadline: when set, late cells degrade to cheaper
    /// tiers instead of being dropped. **Makes tier selection
    /// wall-clock-dependent** — the byte-identical resume guarantee is
    /// stated for runs without a deadline (every cell still gets an
    /// honestly-labeled row either way).
    pub deadline_ms: Option<u64>,
    /// Test hook: cells whose first `fault_attempts` attempts panic.
    pub fault_cells: Vec<usize>,
    /// Test hook: how many leading attempts of each fault cell panic.
    pub fault_attempts: u32,
    /// Test hook: sleep this long after claiming each fresh cell, so a
    /// crash-resume test can reliably SIGKILL mid-grid.
    pub stall_ms: u64,
}

impl AtlasOptions {
    /// Options for `spec` journaling to `journal`, defaults elsewhere.
    pub fn new(spec: AtlasSpec, journal: PathBuf) -> AtlasOptions {
        AtlasOptions {
            spec,
            journal,
            resume: false,
            threads: 0,
            deadline_ms: None,
            fault_cells: Vec::new(),
            fault_attempts: 0,
            stall_ms: 0,
        }
    }
}

struct Chain {
    grid: usize,
    ed: usize,
    outage: usize,
    first_cell: usize,
}

struct Ctx<'a> {
    opts: &'a AtlasOptions,
    grids: &'a [CaseGrid],
    recovered: &'a BTreeMap<usize, String>,
    journal: &'a Journal,
    deadline: Option<Instant>,
    policy: RetryPolicy,
}

/// Runs (or resumes) the sweep described by `opts`.
///
/// # Errors
///
/// [`AtlasError`] on journal I/O failure, a spec-mismatched resume, grid
/// enumeration failure, or an engine invariant violation. Cell-level
/// trouble is never an error — it is typed rows.
pub fn run_atlas(opts: &AtlasOptions) -> Result<AtlasReport, AtlasError> {
    let _span = ed_obs::span("atlas.run");
    opts.spec.validate()?;
    let grids: Vec<CaseGrid> = opts
        .spec
        .cases
        .iter()
        .map(|c| CaseGrid::build(c, &opts.spec))
        .collect::<Result<_, _>>()?;

    let mut chains = Vec::new();
    let mut cell = 0usize;
    for (gi, g) in grids.iter().enumerate() {
        for ei in 0..g.ed_subsets.len() {
            for oi in 0..g.outages.len() {
                chains.push(Chain { grid: gi, ed: ei, outage: oi, first_cell: cell });
                cell += opts.spec.hours;
            }
        }
    }
    let total = cell;
    let fingerprint = opts.spec.fingerprint();

    let (journal, recovered) = if opts.resume {
        let scan = crate::journal::scan(&opts.journal)?;
        if scan.fingerprint.as_deref() != Some(fingerprint.as_str()) {
            return Err(AtlasError::SpecMismatch {
                what: format!(
                    "journal was written for spec {:?}, this run is {fingerprint}",
                    scan.fingerprint
                ),
            });
        }
        if scan.cells != Some(total) {
            return Err(AtlasError::SpecMismatch {
                what: format!("journal holds {:?} cells, this grid has {total}", scan.cells),
            });
        }
        (Journal::open_append(&opts.journal)?, scan.results)
    } else {
        (Journal::create(&opts.journal, &fingerprint, total)?, BTreeMap::new())
    };

    let ctx = Ctx {
        opts,
        grids: &grids,
        recovered: &recovered,
        journal: &journal,
        deadline: opts.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        policy: RetryPolicy {
            max_attempts: opts.spec.retries + 1,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(50),
            jitter_pct: 25,
        },
    };

    let threads = if opts.threads == 0 { ed_par::thread_count() } else { opts.threads };
    let per_chain = ed_par::par_map(threads, &chains, |_i, ch| run_chain(&ctx, ch))
        .map_err(|e| AtlasError::Worker { what: format!("chain worker died: {e:?}") })?;

    let mut rows: Vec<CellRecord> = Vec::with_capacity(total);
    for chain_rows in per_chain {
        rows.extend(chain_rows.map_err(|what| AtlasError::Worker { what })?);
    }
    let report = AtlasReport::assemble(&opts.spec, &fingerprint, rows)?;
    ed_obs::counter("atlas.cells_recovered", report.recovered_cells as u64);
    Ok(report)
}

fn run_chain(ctx: &Ctx<'_>, ch: &Chain) -> Result<Vec<CellRecord>, String> {
    let g = &ctx.grids[ch.grid];
    let subset = &g.ed_subsets[ch.ed];
    let scenario = &g.scenarios[ch.ed];
    let outage = g.outages[ch.outage];
    let mut basis: Option<Basis> = None;
    let mut out = Vec::with_capacity(ctx.opts.spec.hours);
    for h in 0..ctx.opts.spec.hours {
        let cell = ch.first_cell + h;
        if let Some(json) = ctx.recovered.get(&cell) {
            out.push(report::recovered_record(cell, json.clone())?);
            // The chain's warm continuity is broken at a recovery point;
            // the next fresh cell restarts cold (warm never changes
            // answers, so this only costs iterations).
            basis = None;
            continue;
        }
        ctx.journal.claim(cell).map_err(|e| format!("journal claim: {e}"))?;
        if ctx.opts.stall_ms > 0 {
            std::thread::sleep(Duration::from_millis(ctx.opts.stall_ms));
        }
        let step = &scenario.steps()[h];
        let coords =
            Coords { case: &g.case, ed: subset, outage, hour: step.hour };
        let (rec, next_basis) = run_cell_with_retries(ctx, g, subset, outage, step, cell, &coords, basis.take());
        ctx.journal.result(cell, &rec.json).map_err(|e| format!("journal result: {e}"))?;
        if matches!(rec.kind, crate::report::RowKind::Quarantined) {
            ctx.journal
                .quarantine(cell, &g.case)
                .map_err(|e| format!("journal quarantine: {e}"))?;
            ed_obs::counter("atlas.quarantined", 1);
        }
        ed_obs::counter("atlas.cells", 1);
        basis = next_basis;
        out.push(rec);
    }
    Ok(out)
}

/// Degrades the planned tier when the deadline is nearly spent: a starved
/// run still emits a complete, honestly-labeled atlas.
fn tier_for(planned: Tier, deadline: Option<Instant>) -> Tier {
    let Some(d) = deadline else { return planned };
    let remaining = d.saturating_duration_since(Instant::now());
    if remaining < Duration::from_millis(10) {
        Tier::Screen
    } else if remaining < Duration::from_millis(250) {
        planned.min(Tier::Heuristic)
    } else {
        planned
    }
}

#[allow(clippy::too_many_arguments)]
fn run_cell_with_retries(
    ctx: &Ctx<'_>,
    g: &CaseGrid,
    subset: &[usize],
    outage: Option<usize>,
    step: &ed_dlr::TimeStep,
    cell: usize,
    coords: &Coords<'_>,
    warm: Option<Basis>,
) -> (CellRecord, Option<Basis>) {
    let _span = ed_obs::span_labeled("atlas.cell", || format!("c{cell}"));
    let mut attempt: u32 = 0;
    loop {
        if attempt > 0 {
            ed_obs::counter("atlas.retries", 1);
            std::thread::sleep(ctx.policy.jittered_delay_before(attempt, cell as u64));
        }
        let tier = tier_for(ctx.opts.spec.tier, ctx.deadline);
        let inject =
            ctx.opts.fault_cells.contains(&cell) && attempt < ctx.opts.fault_attempts;
        let input = CellInput {
            net: &g.net,
            subset,
            outage,
            step,
            static_ratings: &g.static_ratings,
            band: ctx.opts.spec.band,
            node_limit: ctx.opts.spec.node_limit,
            // A retried attempt runs cold: the warm basis is one of the
            // things that might have been poisoned.
            warm: if attempt == 0 { warm.clone() } else { None },
        };
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("atlas: injected fault (cell {cell}, attempt {attempt})");
            }
            execute_cell(&input, tier)
        }));
        let fault = match caught {
            Ok(Ok(outcome)) => {
                ed_obs::counter(
                    match tier {
                        Tier::Screen => "atlas.tier_screen",
                        Tier::Heuristic => "atlas.tier_heuristic",
                        Tier::Exact => "atlas.tier_exact",
                    },
                    1,
                );
                return match outcome {
                    CellOutcome::Completed(mut s) => {
                        let seed = s.seed_basis.take();
                        (report::completed_record(cell, coords, &s, attempt), seed)
                    }
                    CellOutcome::Infeasible => {
                        (report::infeasible_record(cell, coords, attempt), None)
                    }
                    CellOutcome::Untestable(reason) => {
                        (report::untestable_record(cell, coords, reason), None)
                    }
                };
            }
            Ok(Err(fault)) => fault,
            Err(payload) => CellFault::Panic(panic_message(payload.as_ref())),
        };
        if attempt >= ctx.opts.spec.retries {
            return (report::quarantined_record(cell, coords, &fault, attempt + 1), None);
        }
        attempt += 1;
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_journal(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("ed-atlas-engine-{}-{tag}-{n}.jsonl", std::process::id()))
    }

    fn small_spec() -> AtlasSpec {
        AtlasSpec {
            cases: vec!["three_bus".into()],
            hours: 2,
            ed_k: 2,
            contingencies: 1,
            tier: Tier::Exact,
            retries: 1,
            ..AtlasSpec::default()
        }
    }

    #[test]
    fn fresh_runs_are_byte_identical() {
        let spec = small_spec();
        let ja = temp_journal("det-a");
        let jb = temp_journal("det-b");
        let a = run_atlas(&AtlasOptions::new(spec.clone(), ja.clone())).unwrap();
        let b = run_atlas(&AtlasOptions::new(spec, jb.clone())).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.recovered_cells, 0);
        // 3 subsets × 2 outage columns × 2 hours.
        assert_eq!(a.rows.len(), 12);
        std::fs::remove_file(ja).ok();
        std::fs::remove_file(jb).ok();
    }

    #[test]
    fn resume_replays_journaled_rows_verbatim() {
        let spec = small_spec();
        let j = temp_journal("resume");
        let full = run_atlas(&AtlasOptions::new(spec.clone(), j.clone())).unwrap();
        // Resuming a *finished* journal recomputes nothing and reproduces
        // the bytes.
        let mut opts = AtlasOptions::new(spec, j.clone());
        opts.resume = true;
        let resumed = run_atlas(&opts).unwrap();
        assert_eq!(resumed.recovered_cells, full.rows.len());
        assert_eq!(resumed.to_json(), full.to_json());
        std::fs::remove_file(j).ok();
    }

    #[test]
    fn resume_with_mismatched_spec_is_refused() {
        let spec = small_spec();
        let j = temp_journal("mismatch");
        run_atlas(&AtlasOptions::new(spec.clone(), j.clone())).unwrap();
        let mut opts =
            AtlasOptions::new(AtlasSpec { hours: 3, ..spec }, j.clone());
        opts.resume = true;
        let err = run_atlas(&opts).unwrap_err();
        assert!(matches!(err, AtlasError::SpecMismatch { .. }), "{err}");
        std::fs::remove_file(j).ok();
    }

    #[test]
    fn injected_faults_quarantine_as_typed_rows_not_holes() {
        let spec = AtlasSpec { retries: 1, ..small_spec() };
        let j = temp_journal("faults");
        let mut opts = AtlasOptions::new(spec, j.clone());
        opts.fault_cells = vec![0, 5];
        opts.fault_attempts = u32::MAX;
        let report = run_atlas(&opts).unwrap();
        assert_eq!(report.rows.len(), 12, "every cell present — no silent holes");
        assert_eq!(report.quarantined(), 2);
        for cell in [0usize, 5] {
            let r = &report.rows[cell];
            assert!(matches!(r.kind, crate::report::RowKind::Quarantined));
            assert!(r.json.contains("\"fault\":\"panic\""), "{}", r.json);
            assert!(r.json.contains("injected fault"), "{}", r.json);
        }
        // The quarantine events are in the journal for the serve layer.
        let scan = crate::journal::scan(&j).unwrap();
        assert_eq!(scan.quarantines.len(), 2);
        assert_eq!(scan.quarantined_cases(), vec!["three_bus".to_string()]);
        std::fs::remove_file(j).ok();
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let spec = AtlasSpec { retries: 2, ..small_spec() };
        let j = temp_journal("transient");
        let mut opts = AtlasOptions::new(spec, j.clone());
        opts.fault_cells = vec![3];
        opts.fault_attempts = 2; // two panics, then the real solve runs
        let report = run_atlas(&opts).unwrap();
        assert_eq!(report.quarantined(), 0);
        let r = &report.rows[3];
        assert_eq!(r.retries, 2, "retries are recorded in the row");
        std::fs::remove_file(j).ok();
    }

    #[test]
    fn deadline_starved_run_still_emits_complete_labeled_atlas() {
        let spec = small_spec();
        let j = temp_journal("deadline");
        let mut opts = AtlasOptions::new(spec, j.clone());
        opts.deadline_ms = Some(0); // dead on arrival: everything screens
        let report = run_atlas(&opts).unwrap();
        assert_eq!(report.rows.len(), 12);
        for r in &report.rows {
            // Every row is either a screen-tier completion (possibly
            // bound_only) or a typed non-completion — never missing.
            if matches!(r.kind, crate::report::RowKind::Completed) {
                assert_eq!(r.tier, Some(Tier::Screen), "{}", r.json);
            }
        }
        std::fs::remove_file(j).ok();
    }
}
