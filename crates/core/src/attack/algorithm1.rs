//! Algorithm 1 of the paper: optimal attack via `2·|E_D|` subproblems.
//!
//! For every DLR line and both flow directions, set the objective to the
//! (scaled) flow on that line, solve the KKT single-level program, and keep
//! the best violation. The corner/greedy heuristic seeds each subproblem
//! with a valid incumbent so the branch-and-bound can prune from the start.
//!
//! The `2·|E_D|` subproblems are independent, so the sweep runs on the
//! `ed-par` worker pool: the invariant KKT blocks are assembled once, each
//! worker clones the base model and patches only the objective row, and
//! the per-subproblem records are reduced *in subproblem index order* with
//! the same strict comparisons a sequential loop would use — the result is
//! bit-identical at any thread count. The sweep-wide [`SolveBudget`] is
//! made cancellable before the fan-out, so the first worker to observe the
//! wall-clock deadline cancels every in-flight sibling cooperatively.
//!
//! Each subproblem's [`SubproblemOutcome`] starts as its heuristic floor,
//! the same record heuristic-only mode reports, and the exact search
//! overwrites only what it changed: a budget or numerical fault, the
//! tallies, and the value of a tree incumbent, a partial incumbent or a
//! promoted floor.
//!
//! [`SolveBudget`]: ed_optim::budget::SolveBudget

use crate::attack::bilevel::{solve_subproblem, BilevelOptions, BilevelSolver, SubproblemSolution};
use crate::attack::heuristic::{corner_heuristic, greedy_heuristic, HeuristicResult};
use crate::attack::kkt::{KktModel, PreparedKkt};
use crate::attack::AttackConfig;
use crate::CoreError;
use ed_optim::budget::BudgetTripped;
use ed_optim::{Certificate, PresolveStats, Solution, Tolerances};
use ed_powerflow::{LineId, Network};

/// Why a subproblem's exact solve did not complete. The sweep is isolated:
/// a degraded subproblem keeps its heuristic (or partial) incumbent and the
/// remaining `2·|E_D| − 1` subproblems still run.
#[derive(Debug, Clone, PartialEq)]
pub enum SubproblemFault {
    /// The sweep-wide [`ed_optim::budget::SolveBudget`] tripped during (or
    /// before) this subproblem.
    Budget(BudgetTripped),
    /// The solver failed numerically (singular basis, cycling, …).
    Numerical(String),
}

/// Why a subproblem ran without a usable heuristic incumbent — the reason
/// code behind what used to be a bare `heuristic_missing` flag, so
/// degradation records and certificate stats compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedlessCause {
    /// Every heuristic candidate that could have seeded this
    /// (line, direction) was rejected: the defender's dispatch under it was
    /// infeasible (alarm-tripping), so no valid floor exists.
    CandidatesInfeasible {
        /// Candidates whose dispatch was evaluated successfully (none of
        /// which produced a finite flow for this slot).
        evaluated: usize,
        /// Candidates rejected as dispatch-infeasible.
        infeasible: usize,
    },
    /// Heuristic seeding was switched off
    /// ([`BilevelOptions::use_heuristic`] `= false`), so the exact solve
    /// ran unseeded by choice.
    Disabled,
}

/// Result of one (line, direction) subproblem in Algorithm 1's loop.
#[derive(Debug, Clone)]
pub struct SubproblemOutcome {
    /// Target DLR line.
    pub line: LineId,
    /// Flow direction (+1 forward, −1 reverse).
    pub direction: i8,
    /// Violation achieved, in percent of the true rating (Eq. 14a).
    pub violation: f64,
    /// Whether this value was proved optimal: the exact solve finished, or
    /// its tree was exhausted. A certificate is not a proof: a heuristic
    /// floor promoted to a certified KKT point (counted in
    /// [`SweepReport::certified`]) keeps `false` under a node or budget
    /// limit, as the six 118-bus values at `node_limit: 1` do.
    pub proved_optimal: bool,
    /// Branch-and-bound nodes spent.
    pub nodes: usize,
    /// Simplex iterations the exact solve spent on this subproblem
    /// (exact integer tally; `0` when no exact solve ran).
    pub lp_iterations: usize,
    /// Why the exact solve degraded, if it did. `None` means the subproblem
    /// completed normally.
    pub fault: Option<SubproblemFault>,
    /// `Some(cause)` when the heuristic produced no usable incumbent for
    /// this (line, direction) — the subproblem ran unseeded and any
    /// degraded fallback has no floor. The cause says why (the seed used to
    /// silently skip such candidates; this surfaces them with provenance).
    pub heuristic_missing: Option<SeedlessCause>,
    /// Independent certificate of the exact solution against the
    /// full-space KKT model (`None` when no exact solution was produced or
    /// certification is disabled).
    pub certificate: Option<Certificate>,
    /// `true` when the primary solve's certificate failed and the
    /// alternate-reformulation repair produced the accepted (certified)
    /// solution.
    pub cert_repaired: bool,
    /// `true` when a warm-started answer failed its certificate and the
    /// subproblem was re-solved cold (the basis hand-off trust fallback;
    /// the warm basis is treated as invalidated for this answer).
    pub warm_fallback: bool,
}

/// Model-size and solver accounting for one Algorithm 1 sweep: how big the
/// shared KKT model was, how much presolve shrank it, and how many exact
/// solves of each family actually ran. The benchmark reports its presolve
/// counts, and `attack_gates` reads its `heuristic_floor`.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// `(vars, rows, nonzeros)` of the full KKT model.
    pub full_vars: usize,
    /// Rows of the full KKT model.
    pub full_rows: usize,
    /// Structural nonzeros of the full KKT model.
    pub full_nnz: usize,
    /// Variables of the model the subproblems actually solved (equals the
    /// full counts when presolve was disabled).
    pub reduced_vars: usize,
    /// Rows of the solved model.
    pub reduced_rows: usize,
    /// Structural nonzeros of the solved model.
    pub reduced_nnz: usize,
    /// Presolve size accounting, when presolve ran.
    pub presolve: Option<PresolveStats>,
    /// Exact subproblems dispatched to the MPEC solver.
    pub mpec_solves: usize,
    /// Exact subproblems dispatched to the big-M MILP solver.
    pub milp_solves: usize,
    /// Candidate dispatches evaluated by the corner/greedy heuristic.
    pub heuristic_evaluations: usize,
    /// Subproblems whose reported value passed its certificate without
    /// repair: an exact solution, or a heuristic floor promoted to a
    /// full-space KKT point when the tree was pruned or node-limited
    /// without an incumbent. A count of certificates, not of proofs:
    /// [`SubproblemOutcome::proved_optimal`] says which values are proved.
    pub certified: usize,
    /// Subproblems certified only after the alternate-reformulation
    /// repair replaced the primary solution.
    pub cert_repaired: usize,
    /// Subproblems whose exact solution failed certification even after
    /// repair — their values are flagged untrusted.
    pub uncertified: usize,
    /// Subproblems whose reported value is the heuristic incumbent rather
    /// than an exact solution (pruned at the seed, budget-tripped without
    /// an incumbent, or numerically faulted).
    pub heuristic_floor: usize,
    /// Wall-clock milliseconds spent in certification (and any repair
    /// re-solves it triggered) across the sweep. Timing only — never part
    /// of determinism fingerprints.
    pub certify_ms: f64,
    /// Node relaxations across the sweep that accepted an offered warm
    /// basis (the shared phase-1 seed at subproblem roots, parent bases at
    /// branch-and-bound children).
    pub warm_starts: usize,
    /// Node relaxations offered a warm basis that restarted cold instead.
    pub cold_restarts: usize,
    /// Warm-started answers whose certificate failed and were re-solved
    /// cold (trust fallback; see [`SubproblemOutcome::warm_fallback`]).
    pub warm_fallbacks: usize,
    /// Simplex iterations spent once, before the fan-out, computing the
    /// shared phase-1 seed basis (already included in the sweep's total
    /// `lp_iterations` tally). Reads 0 when the offered seed
    /// ([`BilevelOptions::warm_basis`]) was primal feasible for this
    /// scenario and kept without running phase 1.
    pub seed_iterations: usize,
}

/// The optimal attack found by Algorithm 1.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Best capacity violation `U*_cap` in percent of the true rating
    /// (Eq. 14a), clamped at zero.
    pub ucap_pct: f64,
    /// The same violation in MW (`|f| − u^d` on the target line).
    pub overload_mw: f64,
    /// The optimal manipulated ratings `u^a*` (ordered like the config's
    /// DLR lines).
    pub ua_mw: Vec<f64>,
    /// The line and direction achieving `U*_cap`, if any violation is
    /// positive.
    pub target: Option<(LineId, i8)>,
    /// The defender's dispatch under `u^a*` as seen by the bilevel model.
    pub dispatch_mw: Vec<f64>,
    /// Per-subproblem detail (2·|E_D| entries).
    pub subproblems: Vec<SubproblemOutcome>,
    /// Total branch-and-bound nodes across all subproblems.
    pub total_nodes: usize,
    /// Model-size and solve accounting for the sweep.
    pub sweep: SweepReport,
    /// Deterministic observability trace for the sweep, attached when
    /// tracing is on ([`BilevelOptions::trace`] / `ED_TRACE=1`): one span
    /// per subproblem labeled `L<line><+|->`, sweep counters, and timing
    /// histograms. Assembled in the index-ordered reduction — span IDs are
    /// subproblem indices and every counter is an exact integer tally, so
    /// [`ed_obs::TraceReport::deterministic_json`] is byte-identical
    /// across thread counts and repeated runs. Wall-clock content lives
    /// only in `timings`/`dur_ms`, never in the deterministic projection.
    pub trace: Option<ed_obs::TraceReport>,
    /// The shared phase-1 seed basis the exact sweep's roots started from:
    /// computed once, or the offered seed ([`BilevelOptions::warm_basis`])
    /// kept because it was primal feasible for this scenario. `None` in
    /// heuristic-only mode, with warm starts disabled, or when phase 1
    /// tripped the budget. The serve layer pools this per scenario
    /// fingerprint so repeat sweeps of the same scenario skip phase 1
    /// entirely; an hour chain hands it to the next hour.
    pub seed_basis: Option<ed_optim::lp::Basis>,
}

impl AttackResult {
    /// Subproblems whose exact solve degraded (budget trip or numerical
    /// fault); their reported values are heuristic/partial incumbents.
    pub fn degraded_subproblems(&self) -> usize {
        self.subproblems.iter().filter(|s| s.fault.is_some()).count()
    }
}

/// Runs Algorithm 1 with the options embedded in the config.
///
/// # Errors
///
/// - [`CoreError::InvalidInput`] for inconsistent configs.
/// - [`CoreError::DispatchInfeasible`] if *no* permissible manipulation
///   admits a feasible dispatch (the attacker has no stealthy move at all).
/// - Propagates unexpected solver failures.
pub fn optimal_attack(net: &Network, config: &AttackConfig) -> Result<AttackResult, CoreError> {
    optimal_attack_with(net, config, true)
}

/// Runs Algorithm 1, optionally without the exact bilevel solves
/// (`exact = false` returns the heuristic's answer in the same shape —
/// used by the large-network sweeps).
///
/// # Errors
///
/// Same as [`optimal_attack`].
pub fn optimal_attack_with(
    net: &Network,
    config: &AttackConfig,
    exact: bool,
) -> Result<AttackResult, CoreError> {
    config.validate(net)?;
    let trace_on = config.options.trace.unwrap_or_else(ed_obs::enabled);
    let _sweep_span = ed_obs::span("attack.sweep");
    // One cancellable budget shared by every stage and worker: the first
    // observer of the wall-clock deadline cancels all in-flight siblings
    // (budget clones share the cancellation flag).
    let mut options = config.options.clone();
    options.budget = options.budget.clone().cancellable();
    let warm_on = options.warm_start.unwrap_or(true);
    let warm_basis = options.warm_basis.take();
    let use_presolve = config.options.presolve.unwrap_or(false);
    let heuristic = {
        let _span = ed_obs::span("attack.heuristic");
        let _t = ed_obs::timer("attack.heuristic");
        if config.dlr_lines.len() <= 12 {
            corner_heuristic(net, config)
        } else {
            greedy_heuristic(net, config)
        }
    }?;
    let mut prepared = {
        let _span = ed_obs::span("attack.kkt");
        KktModel::build(net, config)?.prepare(use_presolve)?
    };
    if heuristic.evaluated == 0 {
        return Err(CoreError::DispatchInfeasible);
    }
    // The seed is computed once, before the fan-out: siblings differ only
    // in the objective row, so one phase-1 trajectory serves them all. The
    // offered `warm_basis` (serve's pooled seed, the previous hour's) is
    // checked here once: it skips even that phase 1 when primal feasible
    // at this scenario's rhs and bounds, and is replaced by the cold seed
    // otherwise (a dimension mismatch is dropped by `set_seed`), so every
    // root starts from a seed it accepts.
    let mut seed_iterations = 0;
    if exact && warm_on && options.budget.wall_tripped().is_none() {
        let _span = ed_obs::span("attack.seed");
        if let Some(b) = warm_basis {
            prepared.set_seed(b);
        }
        seed_iterations = prepared.compute_seed(&options.budget);
    }

    let mut best: Option<Candidate> = None;
    // Seed with the heuristic's best candidate.
    for (k, &line) in config.dlr_lines.iter().enumerate() {
        for (d, dir) in [(0usize, 1i8), (1usize, -1i8)] {
            let (violation, seedless) = heuristic_floor(config, &heuristic, k, d);
            if seedless.is_none() && best.as_ref().is_none_or(|(v, ..)| violation > *v) {
                best = Some((
                    violation,
                    heuristic.best_flow[k][d] - config.u_d[k],
                    heuristic.best_ua[k][d].clone(),
                    Vec::new(),
                    (line, dir),
                ));
            }
        }
    }

    let mut subproblems = Vec::new();
    let mut total_nodes = 0usize;
    let mut lp_iterations = 0usize;
    // Per-subproblem wall clocks in index order (timing only — excluded
    // from the deterministic trace projection).
    let mut walls: Vec<f64> = Vec::new();

    // The invariant KKT blocks (primal/dual feasibility, stationarity,
    // complementarity pairs) were assembled exactly once and — when
    // `options.presolve` enables it — presolved once;
    // each subproblem is an objective patch on the shared reduced model.
    // Heuristic-only runs build it too, so their records carry the same
    // (presolved) model dimensions.
    let (full_vars, full_rows, full_nnz) = prepared.full_dims();
    let (reduced_vars, reduced_rows, reduced_nnz) = prepared.reduced_dims();
    let mut sweep = SweepReport {
        full_vars,
        full_rows,
        full_nnz,
        reduced_vars,
        reduced_rows,
        reduced_nnz,
        presolve: prepared.stats().copied(),
        heuristic_evaluations: heuristic.evaluated,
        ..Default::default()
    };

    if exact {
        sweep.seed_iterations = seed_iterations;
        lp_iterations += seed_iterations;
        let tasks: Vec<(usize, LineId, f64)> = config
            .dlr_lines
            .iter()
            .enumerate()
            .flat_map(|(k, &line)| [(k, line, 1.0f64), (k, line, -1.0f64)])
            .collect();
        let threads = config.options.threads.unwrap_or_else(ed_par::thread_count);
        let records = ed_par::par_map(threads, &tasks, |_, &(k, line, dir)| {
            run_subproblem(config, &heuristic, &prepared, &options, k, line, dir)
        })
        .map_err(|e| CoreError::Parallel { what: e.to_string() })?;
        // Reduce in subproblem index order with the same strict `>` the
        // sequential loop used: bit-identical at any thread count. EVERY
        // cross-thread tally — nodes, simplex iterations, certificate
        // counts, certify_ms, and the trace counters derived from them —
        // merges here and only here, so repeated runs at any `ED_THREADS`
        // report identical accounting (wall-clock values aside, which are
        // kept out of the deterministic projection by construction).
        for rec in records {
            total_nodes += rec.outcome.nodes;
            lp_iterations += rec.outcome.lp_iterations;
            sweep.warm_starts += rec.warm_starts;
            sweep.cold_restarts += rec.cold_restarts;
            if rec.outcome.warm_fallback {
                sweep.warm_fallbacks += 1;
            }
            if trace_on {
                walls.push(rec.wall_ms);
            }
            if rec.attempted {
                match options.solver {
                    BilevelSolver::Mpec => sweep.mpec_solves += 1,
                    BilevelSolver::BigM { .. } => sweep.milp_solves += 1,
                }
            }
            sweep.certify_ms += rec.certify_ms;
            match &rec.outcome.certificate {
                Some(c) if c.passed() && rec.outcome.cert_repaired => sweep.cert_repaired += 1,
                Some(c) if c.passed() => sweep.certified += 1,
                Some(_) => sweep.uncertified += 1,
                None => {}
            }
            if rec.candidate.is_none() {
                sweep.heuristic_floor += 1;
            }
            if let Some((violation, overload, ua, dispatch, target)) = rec.candidate {
                if best.as_ref().is_none_or(|(v, ..)| violation > *v) {
                    best = Some((violation, overload, ua, dispatch, target));
                }
            }
            subproblems.push(rec.outcome);
        }
    } else {
        // Heuristic-only mode reports the same per-(line, direction)
        // record shape so callers can see unseeded subproblems.
        for (k, &line) in config.dlr_lines.iter().enumerate() {
            for (d, dir) in [(0usize, 1i8), (1usize, -1i8)] {
                let (violation, seedless) = heuristic_floor(config, &heuristic, k, d);
                subproblems.push(SubproblemOutcome::floor(line, dir, violation, seedless));
            }
        }
    }

    let (violation, overload, ua, dispatch, target) =
        best.ok_or(CoreError::DispatchInfeasible)?;
    let ucap_pct = violation.max(0.0);
    // Snap solver-noise-level positives to a clean zero.
    let ucap_pct = if ucap_pct < 1e-9 { 0.0 } else { ucap_pct };
    let trace =
        trace_on.then(|| build_trace(&sweep, &subproblems, total_nodes, lp_iterations, &walls));
    let seed_basis = if exact { prepared.seed().cloned() } else { None };
    Ok(AttackResult {
        ucap_pct,
        overload_mw: overload,
        ua_mw: ua,
        target: (overload > 1e-6).then_some(target),
        dispatch_mw: dispatch,
        subproblems,
        total_nodes,
        sweep,
        trace,
        seed_basis,
    })
}

/// Assembles the sweep's deterministic [`ed_obs::TraceReport`] from the
/// index-ordered reduction's tallies. Span IDs are subproblem indices
/// (+1), not recorder IDs, so the attached trace is identical at any
/// thread count; wall-clock content is confined to `timings` and span
/// `dur_ms`/`self_ms`, which the deterministic projection excludes.
fn build_trace(
    sweep: &SweepReport,
    subproblems: &[SubproblemOutcome],
    total_nodes: usize,
    lp_iterations: usize,
    walls: &[f64],
) -> ed_obs::TraceReport {
    let mut t = ed_obs::TraceReport::new();
    t.add_counter("sweep.subproblems", subproblems.len() as u64);
    t.add_counter("sweep.nodes", total_nodes as u64);
    t.add_counter("sweep.lp_iterations", lp_iterations as u64);
    t.add_counter("sweep.mpec_solves", sweep.mpec_solves as u64);
    t.add_counter("sweep.milp_solves", sweep.milp_solves as u64);
    t.add_counter("sweep.heuristic_evaluations", sweep.heuristic_evaluations as u64);
    t.add_counter("sweep.certified", sweep.certified as u64);
    t.add_counter("sweep.cert_repaired", sweep.cert_repaired as u64);
    t.add_counter("sweep.uncertified", sweep.uncertified as u64);
    t.add_counter("sweep.heuristic_floor", sweep.heuristic_floor as u64);
    t.add_counter("sweep.basis_reuse", sweep.warm_starts as u64);
    t.add_counter("sweep.cold_restarts", sweep.cold_restarts as u64);
    t.add_counter("sweep.warm_fallbacks", sweep.warm_fallbacks as u64);
    t.add_counter("sweep.seed_iterations", sweep.seed_iterations as u64);
    t.add_counter("sweep.full_vars", sweep.full_vars as u64);
    t.add_counter("sweep.full_rows", sweep.full_rows as u64);
    t.add_counter("sweep.full_nnz", sweep.full_nnz as u64);
    t.add_counter("sweep.reduced_vars", sweep.reduced_vars as u64);
    t.add_counter("sweep.reduced_rows", sweep.reduced_rows as u64);
    t.add_counter("sweep.reduced_nnz", sweep.reduced_nnz as u64);
    if let Some(p) = &sweep.presolve {
        t.add_counter("sweep.presolve.rows_removed", p.rows_removed() as u64);
        t.add_counter("sweep.presolve.cols_removed", p.cols_removed() as u64);
        t.add_counter("sweep.presolve.nnz_removed", p.nnz_removed() as u64);
    }
    for (i, s) in subproblems.iter().enumerate() {
        let wall = walls.get(i).copied().unwrap_or(0.0);
        if !walls.is_empty() {
            t.add_timing("attack.subproblem", wall);
        }
        t.spans.push(ed_obs::SpanRecord {
            id: (i + 1) as u64,
            parent: None,
            name: "attack.subproblem".to_string(),
            label: Some(format!("L{}{}", s.line.0, if s.direction > 0 { '+' } else { '-' })),
            start_ms: 0.0,
            dur_ms: wall,
            self_ms: wall,
        });
    }
    if sweep.certify_ms > 0.0 {
        t.add_timing("attack.certify", sweep.certify_ms);
    }
    t
}

/// The heuristic's violation for one (line `k`, direction `d`) — the floor
/// every degraded path falls back to — and, when it has no usable
/// incumbent there, why.
fn heuristic_floor(
    config: &AttackConfig,
    heuristic: &HeuristicResult,
    k: usize,
    d: usize,
) -> (f64, Option<SeedlessCause>) {
    let (flow, ud) = (heuristic.best_flow[k][d], config.u_d[k]);
    let violation = if flow.is_finite() {
        100.0 * (flow / ud - 1.0)
    } else {
        f64::NEG_INFINITY
    };
    let usable = flow.is_finite() && !heuristic.best_ua[k][d].is_empty();
    let seedless = (!usable).then_some(SeedlessCause::CandidatesInfeasible {
        evaluated: heuristic.evaluated,
        infeasible: heuristic.infeasible,
    });
    (violation, seedless)
}

impl SubproblemOutcome {
    /// The record of a subproblem that stands at its heuristic floor: no
    /// exact solve changed it (yet).
    fn floor(
        line: LineId,
        direction: i8,
        violation: f64,
        heuristic_missing: Option<SeedlessCause>,
    ) -> SubproblemOutcome {
        SubproblemOutcome {
            line,
            direction,
            violation,
            proved_optimal: false,
            nodes: 0,
            lp_iterations: 0,
            fault: None,
            heuristic_missing,
            certificate: None,
            cert_repaired: false,
            warm_fallback: false,
        }
    }
}

/// A candidate for the global incumbent:
/// `(violation, overload MW, u^a, dispatch, (line, direction))`.
type Candidate = (f64, f64, Vec<f64>, Vec<f64>, (LineId, i8));

/// What one worker hands back to the deterministic reduction: the outcome
/// record plus (when the subproblem produced one) a [`Candidate`] for the
/// global incumbent.
struct SubproblemRecord {
    outcome: SubproblemOutcome,
    candidate: Option<Candidate>,
    /// Whether an exact solve was actually dispatched (pre-build deadline
    /// skips are not attempts); feeds the per-family solve counts.
    attempted: bool,
    /// Wall-clock milliseconds spent certifying (and repairing) this
    /// subproblem's solution. Timing only.
    certify_ms: f64,
    /// Node relaxations of the first solve that accepted an offered warm
    /// basis.
    warm_starts: usize,
    /// Node relaxations of the first solve offered a warm basis that
    /// restarted cold.
    cold_restarts: usize,
    /// Wall clock of the whole subproblem, milliseconds. Timing only —
    /// measured only when tracing is on, `0.0` otherwise.
    wall_ms: f64,
}

/// Certifies one subproblem solution against the **full-space** KKT model:
/// the audit model is a fresh clone of the shared base with the same flow
/// objective installed, so it shares nothing with the presolve/postsolve
/// path the solution came through. MPEC/MILP report no duals, so this is a
/// primal + complementarity + objective-consistency certificate
/// (`dual_checked = false`).
fn certify_solution(
    prepared: &PreparedKkt,
    line: LineId,
    dir: f64,
    scale: f64,
    sol: &SubproblemSolution,
) -> Certificate {
    let mut audit = prepared.base().clone();
    audit.set_flow_objective(line, dir, scale);
    let probe = Solution {
        x: sol.x.clone(),
        objective: sol.objective,
        row_duals: Vec::new(),
        reduced_costs: Vec::new(),
        proved_optimal: false,
        iterations: 0,
        nodes: 0,
    };
    ed_optim::certify(&audit.lp, &probe, &Tolerances::default())
}

/// Promotes the heuristic incumbent of a subproblem whose search ended
/// without one into a **certified** exact answer without re-solving
/// anything: the heuristic's winning defender dispatch (captured during
/// candidate evaluation) is lifted to a full-space KKT point by
/// [`KktModel::point_from_dispatch`], and the independent certifier judges
/// the result exactly as it judges solver answers. `None` when no dispatch
/// was captured, the reconstruction fails, or the certificate fails — an
/// unverifiable reconstruction never replaces the honest heuristic floor.
fn certify_heuristic_floor(
    heuristic: &HeuristicResult,
    prepared: &PreparedKkt,
    k: usize,
    line: LineId,
    dir: f64,
    scale: f64,
) -> Option<(Certificate, SubproblemSolution)> {
    let d = if dir > 0.0 { 0 } else { 1 };
    let dsp = heuristic.best_dispatch[k][d].as_deref()?;
    let ua = &heuristic.best_ua[k][d];
    let x = prepared.base().point_from_dispatch(ua, dsp)?;
    let flow = prepared.base().flow_at(&x, line);
    let sol = SubproblemSolution {
        objective: dir * scale * flow,
        ua_mw: ua.clone(),
        flow_mw: flow,
        dispatch_mw: dsp.p_mw.clone(),
        x,
    };
    let cert = certify_solution(prepared, line, dir, scale, &sol);
    cert.passed().then_some((cert, sol))
}

/// One (line, direction) subproblem of Algorithm 1, runnable from any
/// worker thread. Clones the shared (presolved) base model and patches only
/// its objective row; never errors — faults and budget trips become flagged
/// outcomes exactly as in the sequential sweep. Opens a recorder span
/// labeled with the E_D line + direction, and stamps the record with its
/// wall clock when tracing is on.
fn run_subproblem(
    config: &AttackConfig,
    heuristic: &HeuristicResult,
    prepared: &PreparedKkt,
    options: &BilevelOptions,
    k: usize,
    line: LineId,
    dir: f64,
) -> SubproblemRecord {
    let _span = ed_obs::span_labeled("attack.subproblem", || {
        format!("L{}{}", line.0, if dir > 0.0 { '+' } else { '-' })
    });
    let trace_on = options.trace.unwrap_or_else(ed_obs::enabled);
    let t0 = trace_on.then(std::time::Instant::now);
    let mut rec = run_subproblem_inner(config, heuristic, prepared, options, k, line, dir);
    if let Some(t0) = t0 {
        rec.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    }
    rec
}

/// Starts from the heuristic floor's record and overwrites only what the
/// search changed. A re-solve that the warm trust fallback or the
/// alternate-reformulation repair accepts replaces the whole attempt, so
/// nodes, iterations and the proof come from the accepted solve; the
/// warm-start tallies stay the first solve's.
fn run_subproblem_inner(
    config: &AttackConfig,
    heuristic: &HeuristicResult,
    prepared: &PreparedKkt,
    options: &BilevelOptions,
    k: usize,
    line: LineId,
    dir: f64,
) -> SubproblemRecord {
    // Eq. 14a: the objective `scale·dir·f` plus `offset` is the percent
    // violation `100·(dir·f/u^d − 1)`.
    let (scale, offset) = (100.0 / config.u_d[k], -100.0);
    let d = if dir > 0.0 { 0 } else { 1 };
    let (floor, seedless) = heuristic_floor(config, heuristic, k, d);
    let heuristic_missing =
        seedless.or((!options.use_heuristic).then_some(SeedlessCause::Disabled));
    let mut rec = SubproblemRecord {
        outcome: SubproblemOutcome::floor(line, dir as i8, floor, heuristic_missing),
        candidate: None,
        attempted: false,
        certify_ms: 0.0,
        warm_starts: 0,
        cold_restarts: 0,
        wall_ms: 0.0,
    };

    // Deadline already gone (or a sibling cancelled the sweep): don't even
    // build the subproblem. The outcome list still gets its entry, flagged.
    if let Some(tripped) = options.budget.wall_tripped() {
        rec.outcome.fault = Some(SubproblemFault::Budget(tripped));
        return rec;
    }
    rec.attempted = true;

    let hint = if options.use_heuristic {
        // best_flow[k][d] already stores max(dir·f) over the heuristic
        // candidates, i.e. the solver objective value (before scaling)
        // that candidate achieves. Back the hint off by a relative epsilon
        // so an optimum exactly *equal* to the heuristic value still counts
        // as a strict improvement: the search then returns it as a real,
        // certifiable incumbent instead of pruning the whole tree down to
        // an uncertified heuristic floor.
        let heuristic_flow = heuristic.best_flow[k][d];
        heuristic_flow.is_finite().then(|| {
            let h = scale * heuristic_flow;
            h - 2e-7 * (1.0 + h.abs())
        })
    } else {
        None
    };
    let mut attempt = match solve_subproblem(prepared, line, dir, scale, options, hint) {
        Ok(attempt) => attempt,
        Err(e) => {
            // Numerical failure is isolated to this subproblem; the
            // heuristic incumbent stands and the sweep continues.
            rec.outcome.fault = Some(SubproblemFault::Numerical(e.to_string()));
            return rec;
        }
    };
    rec.warm_starts = attempt.warm_starts;
    rec.cold_restarts = attempt.cold_restarts;
    rec.outcome.fault = attempt.tripped.map(SubproblemFault::Budget);
    let use_certify = options.certify.unwrap_or(true);
    let candidate = |sol: SubproblemSolution| -> Candidate {
        (
            sol.objective + offset,
            dir * sol.flow_mw - config.u_d[k],
            sol.ua_mw,
            sol.dispatch_mw,
            (line, dir as i8),
        )
    };
    match attempt.incumbent.take() {
        None => {
            // Nothing better than the heuristic incumbent (proved optimal
            // only when the tree was exhausted), or a budget trip before
            // any incumbent. Instead of settling for an uncertified
            // heuristic floor, promote it: rebuild its full-space KKT point
            // from the captured dispatch and let the independent certifier
            // decide whether it stands.
            if use_certify && seedless.is_none() {
                let t0 = std::time::Instant::now();
                if let Some((cert, sol)) =
                    certify_heuristic_floor(heuristic, prepared, k, line, dir, scale)
                {
                    rec.outcome.violation = sol.objective + offset;
                    rec.outcome.certificate = Some(cert);
                    rec.candidate = Some(candidate(sol));
                }
                rec.certify_ms = t0.elapsed().as_secs_f64() * 1e3;
            }
        }
        Some(sol) if attempt.tripped.is_some() => {
            // Budget trip: report the better of the solver's partial
            // incumbent and the heuristic floor.
            rec.outcome.violation = (sol.objective + offset).max(floor);
            rec.candidate = Some(candidate(sol));
        }
        Some(mut sol) => {
            if use_certify {
                let t0 = std::time::Instant::now();
                // A re-solve that finished with an incumbent, with that
                // incumbent's certificate.
                let resolve = |opts: &BilevelOptions| {
                    let mut a = solve_subproblem(prepared, line, dir, scale, opts, hint).ok()?;
                    let sol = a.incumbent.take().filter(|_| a.tripped.is_none())?;
                    let cert = certify_solution(prepared, line, dir, scale, &sol);
                    Some((a, sol, cert))
                };
                let mut cert = certify_solution(prepared, line, dir, scale, &sol);
                if !cert.passed() && options.warm_start.unwrap_or(true) {
                    // Trust fallback: a warm-started answer never gets the
                    // benefit of the doubt. Invalidate the basis hand-off
                    // for this subproblem and re-solve cold with the SAME
                    // reformulation before trying the alternate one.
                    let mut cold = options.clone();
                    cold.warm_start = Some(false);
                    cold.inject_basis_fault = None;
                    if let Some(resolved) = resolve(&cold) {
                        rec.outcome.warm_fallback = true;
                        if resolved.2.passed() {
                            (attempt, sol, cert) = resolved;
                        }
                    }
                }
                if !cert.passed() {
                    // Repair: one re-solve with the alternate
                    // complementarity reformulation (big-M ↔ pair
                    // branching) — an independent code path unlikely to
                    // share whatever fault corrupted the primary answer.
                    let mut alt = options.clone();
                    alt.solver = match options.solver {
                        BilevelSolver::Mpec => BilevelSolver::BigM { big_m: 1e5 },
                        BilevelSolver::BigM { .. } => BilevelSolver::Mpec,
                    };
                    if let Some(resolved) = resolve(&alt).filter(|r| r.2.passed()) {
                        (attempt, sol, cert) = resolved;
                        rec.outcome.cert_repaired = true;
                    }
                }
                // A certificate that still fails means neither answer
                // certified: the primary one stays, flagged by it.
                rec.outcome.certificate = Some(cert);
                rec.certify_ms = t0.elapsed().as_secs_f64() * 1e3;
            }
            rec.outcome.violation = sol.objective + offset;
            rec.candidate = Some(candidate(sol));
        }
    }
    // An uncertified answer must not claim proof.
    let untrusted = rec.outcome.certificate.as_ref().is_some_and(|c| !c.passed());
    rec.outcome.proved_optimal = attempt.proven && !untrusted;
    rec.outcome.nodes = attempt.nodes;
    rec.outcome.lp_iterations = attempt.lp_iterations;
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackConfig, BilevelOptions, BilevelSolver};

    fn paper_config(ud13: f64, ud23: f64) -> AttackConfig {
        AttackConfig::new(ed_cases::three_bus::dlr_lines())
            .bounds(100.0, 200.0)
            .true_ratings(vec![ud13, ud23])
    }

    /// Table I of the paper, all four rows: the optimal strategy (A or B),
    /// the manipulated ratings, the resulting flows, and the MW overload.
    #[test]
    fn table1_rows_exact() {
        let net = ed_cases::three_bus();
        let rows: [(f64, f64, [f64; 2], f64); 4] = [
            (130.0, 120.0, [100.0, 200.0], 80.0),
            (130.0, 150.0, [200.0, 100.0], 70.0),
            (160.0, 150.0, [100.0, 200.0], 50.0),
            (160.0, 180.0, [200.0, 100.0], 40.0),
        ];
        for (ud13, ud23, expected_ua, expected_overload) in rows {
            let config = paper_config(ud13, ud23);
            let r = optimal_attack(&net, &config).unwrap();
            assert!(
                (r.overload_mw - expected_overload).abs() < 1e-4,
                "ud=({ud13},{ud23}): overload {} != {expected_overload}",
                r.overload_mw
            );
            assert_eq!(r.ua_mw, expected_ua.to_vec(), "ud=({ud13},{ud23})");
        }
    }

    /// Big-M MILP and MPEC agree on the optimum.
    #[test]
    fn bigm_and_mpec_agree() {
        let net = ed_cases::three_bus();
        let mut config = paper_config(130.0, 120.0);
        config.options = BilevelOptions {
            solver: BilevelSolver::BigM { big_m: 1e5 },
            node_limit: 50_000,
            ..Default::default()
        };
        let bigm = optimal_attack(&net, &config).unwrap();
        config.options.solver = BilevelSolver::Mpec;
        let mpec = optimal_attack(&net, &config).unwrap();
        assert!(
            (bigm.ucap_pct - mpec.ucap_pct).abs() < 1e-4,
            "bigM {} vs MPEC {}",
            bigm.ucap_pct,
            mpec.ucap_pct
        );
    }

    /// The exact solver can never do worse than the heuristic.
    #[test]
    fn exact_at_least_heuristic() {
        let net = ed_cases::three_bus();
        let config = paper_config(140.0, 135.0);
        let exact = optimal_attack_with(&net, &config, true).unwrap();
        let heur = optimal_attack_with(&net, &config, false).unwrap();
        assert!(exact.ucap_pct >= heur.ucap_pct - 1e-6);
    }

    /// Generous true ratings leave nothing to violate.
    #[test]
    fn no_violation_when_ud_generous() {
        let net = ed_cases::three_bus();
        let config = paper_config(200.0, 200.0);
        let r = optimal_attack(&net, &config).unwrap();
        assert_eq!(r.ucap_pct, 0.0);
        assert!(r.target.is_none());
    }

    /// Quadratic costs follow the same machinery (118-node setting).
    #[test]
    fn quadratic_costs_supported() {
        let net = ed_cases::three_bus_with(&ed_cases::ThreeBusConfig {
            quadratic: true,
            ..Default::default()
        });
        let config = paper_config(130.0, 120.0);
        let r = optimal_attack(&net, &config).unwrap();
        assert!(r.ucap_pct > 0.0);
    }
}
