//! Subproblem solves: one branch-and-bound run over the KKT model, with
//! complementary slackness enforced either by big-M binaries (paper,
//! Eq. 16–17) or by branching on the complementarity pairs (MPEC).
//!
//! Every way a run can end maps, in one expression, to one
//! `SubproblemAttempt`: the incumbent if the search found one, whether the
//! tree was exhausted, the budget that tripped, and the node, iteration
//! and warm-start tallies. Only a solver failure (a numerical fault, an
//! unbounded relaxation) is an error.

use crate::attack::kkt::PreparedKkt;
use ed_optim::branch_bound::{self, BranchOptions};
use ed_optim::budget::{BudgetTripped, SolveBudget, SolveOutcome};
use ed_optim::lp::{Basis, Row};
use ed_optim::OptimError;
use ed_powerflow::LineId;

/// The big-M constant of [`BilevelSolver::BigM`], in model units (MW /
/// $-per-MW scale).
const BIG_M: f64 = 1e5;

/// Which reformulation of complementary slackness to use.
#[derive(Debug, Clone, Copy, PartialEq)]
#[derive(Default)]
pub enum BilevelSolver {
    /// The paper's approach: binary `μ_i` with `λ_i ≤ M μ_i` and
    /// `s_i ≤ M (1 − μ_i)` (Eq. 16d), solved as a MILP, with `M` = 1e5
    /// ("M is infinity, chosen as a significantly large number").
    BigM,
    /// Branch directly on violated pairs `λ_i · s_i > 0`; no big-M enters
    /// the model. Scales better and is the default for large networks.
    #[default]
    Mpec,
}


/// Budgets and solver selection for the bilevel subproblems.
#[derive(Debug, Clone)]
pub struct BilevelOptions {
    /// Complementarity handling.
    pub solver: BilevelSolver,
    /// Branch-and-bound node budget per subproblem.
    pub node_limit: usize,
    /// Seed the search with the corner/greedy heuristic's value as an
    /// incumbent bound (prunes aggressively; never cuts the optimum).
    pub use_heuristic: bool,
    /// Cooperative solve budget *shared across the whole Algorithm 1 sweep*
    /// (the deadline is an absolute instant, so every subproblem sees the
    /// same one). A tripped subproblem degrades to its incumbent instead of
    /// aborting the sweep. Algorithm 1 attaches shared cancellation state
    /// to its clone of this budget, so the first worker to observe the
    /// deadline cancels every in-flight sibling cooperatively.
    pub budget: SolveBudget,
    /// Worker threads for the Algorithm 1 sweep and the corner-heuristic
    /// candidate evaluation. `None` defers to the `ED_THREADS` environment
    /// variable (falling back to the machine's available parallelism);
    /// `Some(1)` forces a sequential in-place sweep. Results are
    /// bit-identical across thread counts.
    pub threads: Option<usize>,
    /// Presolve the shared KKT base model once before the sweep, so each
    /// subproblem is an objective patch on the reduced model. `None` means
    /// the default, **off**.
    pub presolve: Option<bool>,
    /// Independently certify every exact subproblem solution against the
    /// full-space KKT model (primal feasibility, complementarity,
    /// objective consistency); a failed certificate triggers one repair
    /// re-solve with the alternate reformulation. `None` means the
    /// default, **on**.
    pub certify: Option<bool>,
    /// Attach a deterministic [`ed_obs::TraceReport`] to the
    /// [`AttackResult`](crate::attack::AttackResult): per-subproblem spans
    /// labeled with the E_D line + direction, sweep counters, and timing
    /// histograms, all assembled in the index-ordered reduction so the
    /// counters are byte-identical across thread counts and repeated
    /// runs. `Some(flag)` forces it, `None` defers to the `ED_TRACE`
    /// environment variable (default **off**).
    pub trace: Option<bool>,
    /// Warm-start the solver stack: compute one shared phase-1 seed basis
    /// for the sibling subproblems (they differ only in the objective row,
    /// which phase 1 never reads) and hand each branch-and-bound parent's
    /// optimal basis to its children for a dual-simplex restart. `None`
    /// means the default, **on**. Warm starts never change answers: a warm
    /// basis that fails to install falls back to a cold solve, and a
    /// warm-started answer that fails its certificate is re-solved cold.
    pub warm_start: Option<bool>,
    /// Seed basis offered from outside the sweep, and the only way a seed
    /// enters Algorithm 1: e.g. the previous hour's `seed_basis` in an
    /// hour chain. Checked once per sweep, before any subproblem root
    /// sees it: dropped on a dimension mismatch with the prepared reduced
    /// model, kept (phase 1 skipped) when primal feasible at this
    /// scenario's rhs and bounds, and otherwise replaced by the cold
    /// phase-1 seed — so a stale entry costs one phase 1 and is never
    /// handed to a root.
    pub warm_basis: Option<Basis>,
    /// Test hook: forwards to `SimplexOptions::inject_basis_fault` on
    /// **warm-enabled** primary solves only — cold fallback re-solves stay
    /// clean — so tests can prove that a corrupted warm-started answer is
    /// caught by certification and recovered by the cold re-solve.
    pub inject_basis_fault: Option<u64>,
}

impl Default for BilevelOptions {
    fn default() -> Self {
        BilevelOptions {
            solver: BilevelSolver::Mpec,
            node_limit: 20_000,
            use_heuristic: true,
            budget: SolveBudget::unlimited(),
            threads: None,
            presolve: None,
            certify: None,
            trace: None,
            warm_start: None,
            warm_basis: None,
            inject_basis_fault: None,
        }
    }
}

/// An incumbent of one (line, direction) subproblem: the attack and the
/// defender's answer to it.
#[derive(Debug, Clone)]
pub(crate) struct SubproblemSolution {
    /// Objective (in the scaled units passed to
    /// [`PreparedKkt::subproblem`]).
    pub objective: f64,
    /// Manipulated ratings `u^a` (ordered like the config's DLR lines).
    pub ua_mw: Vec<f64>,
    /// The defender's flow on the target line (MW, signed).
    pub flow_mw: f64,
    /// The defender's dispatch (MW).
    pub dispatch_mw: Vec<f64>,
    /// The full-space KKT solution vector (restored from the reduced
    /// model), kept so the sweep can certify the answer against the
    /// original model.
    pub x: Vec<f64>,
}

/// What one subproblem search produced. Budget trips and trees that end
/// without an incumbent are data, not errors — Algorithm 1 isolates them
/// per (line, direction) and keeps sweeping.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubproblemAttempt {
    /// Best incumbent strictly better than the hint, if the search found
    /// one before it finished or its budget tripped.
    pub incumbent: Option<SubproblemSolution>,
    /// `true` when the tree was exhausted: the incumbent, or with none the
    /// hint, is proved optimal.
    pub proven: bool,
    /// The shared budget that tripped, if one did.
    pub tripped: Option<BudgetTripped>,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Simplex iterations across the node relaxations.
    pub lp_iterations: usize,
    /// Node relaxations that accepted an offered warm basis (the shared
    /// phase-1 seed at the root, the parent's optimal basis at children).
    pub warm_starts: usize,
    /// Node relaxations offered a warm basis that restarted cold.
    pub cold_restarts: usize,
}

/// Solves one `(target, dir)` subproblem on the sweep's shared
/// [`PreparedKkt`]: the base model (presolved once per sweep when the
/// options ask for it) is cloned, its objective patched to the scaled flow
/// on `target`, and the chosen complementarity reformulation branched on
/// as it stands; the answer maps back through the sweep's restore.
///
/// `incumbent_hint`, when given, must be a *valid achievable* objective
/// value (e.g. from the corner heuristic); the attempt then carries no
/// incumbent if nothing strictly better exists.
///
/// # Errors
///
/// A solver failure other than infeasibility or the node limit (a
/// numerical fault, an unbounded relaxation); the caller isolates it to
/// this subproblem.
pub(crate) fn solve_subproblem(
    prepared: &PreparedKkt,
    target: LineId,
    dir: f64,
    scale: f64,
    options: &BilevelOptions,
    incumbent_hint: Option<f64>,
) -> Result<SubproblemAttempt, OptimError> {
    // The reduced model carries its (remapped) complementarity pairs.
    let (mut lp, offset) = prepared.subproblem(target, dir, scale);
    let mut opts = match options.solver {
        BilevelSolver::Mpec => BranchOptions::pairs(),
        BilevelSolver::BigM => {
            for (lambda, slack) in lp.pairs().to_vec() {
                let mu = lp.add_var(0.0, 1.0, 0.0);
                // λ ≤ M μ  and  s ≤ M (1 − μ)   (Eq. 16d).
                lp.add_row(Row::le(0.0).coef(lambda, 1.0).coef(mu, -BIG_M));
                lp.add_row(Row::le(BIG_M).coef(slack, 1.0).coef(mu, BIG_M));
                lp.set_integer(mu);
            }
            BranchOptions::integers()
        }
    };
    opts.max_nodes = options.node_limit;
    // The reduced model's objective differs from the original by `offset`;
    // hints and reported objectives convert at this boundary.
    opts.incumbent_hint = incumbent_hint.map(|h| h - offset);
    opts.warm = options.warm_start.unwrap_or(true);
    if opts.warm {
        // Root restart from the sweep's shared phase-1 seed; the install
        // path re-verifies feasibility, so a rejected seed just costs a cold
        // start. The big-M columns and indicator rows change the model's
        // dimensions, so that reformulation skips the seed; parent→child
        // hand-off inside the tree still applies.
        opts.simplex.warm =
            prepared.seed().filter(|b| b.dims_match(lp.num_vars(), lp.num_rows())).cloned();
        opts.simplex.inject_basis_fault = options.inject_basis_fault;
    }
    let package = |x_red: &[f64], objective: f64| {
        let x = prepared.restore(x_red);
        SubproblemSolution {
            objective: objective + offset,
            ua_mw: prepared.base().ua_at(&x),
            flow_mw: prepared.base().flow_at(&x, target),
            dispatch_mw: prepared.base().dispatch_at(&x),
            x,
        }
    };
    match branch_bound::solve(&lp, &opts, &options.budget) {
        Ok(SolveOutcome::Solved(s)) => Ok(SubproblemAttempt {
            incumbent: Some(package(&s.x, s.objective)),
            proven: s.proved_optimal,
            tripped: None,
            nodes: s.nodes,
            lp_iterations: s.lp_iterations,
            warm_starts: s.warm_starts,
            cold_restarts: s.cold_restarts,
        }),
        Ok(SolveOutcome::Partial(p)) => Ok(SubproblemAttempt {
            incumbent: p.x.as_deref().zip(p.objective).map(|(x, obj)| package(x, obj)),
            proven: false,
            tripped: Some(p.tripped),
            nodes: p.nodes,
            lp_iterations: p.iterations,
            warm_starts: p.warm_starts,
            cold_restarts: p.cold_restarts,
        }),
        // Nothing strictly better than the hint exists.
        Err(OptimError::Infeasible) => Ok(SubproblemAttempt { proven: true, ..Default::default() }),
        // The limit only fires after spending its full node budget.
        Err(OptimError::NodeLimit { limit, lp_iterations, warm_starts, cold_restarts, .. }) => {
            Ok(SubproblemAttempt {
                nodes: limit,
                lp_iterations,
                warm_starts,
                cold_restarts,
                ..Default::default()
            })
        }
        Err(e) => Err(e),
    }
}
