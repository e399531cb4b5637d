//! Depth-first branch and bound over simplex relaxations — the one engine
//! behind both reformulations of the bilevel attack problem (Eq. 16–17 of
//! the DSN'17 paper):
//!
//! - [`Branching::Integers`] enforces the model's integrality marks
//!   ([`Model::set_integer`]) by splitting the most fractional variable
//!   into floor/ceil children. This solves the paper-faithful big-M MILP,
//!   where each KKT complementary-slackness condition becomes a binary.
//! - [`Branching::Pairs`] enforces the model's complementarity pairs
//!   `x_a · x_b = 0` ([`Model::add_pair`]) by fixing one side of the most
//!   violated pair to zero in each child. No big-M enters the model, so
//!   relaxations stay tight; this is the scalable default.
//!
//! Everything else is shared. The search branches on the model it is
//! given: a caller that reduces the model first (Algorithm 1 does, once
//! per sweep) hands in the reduced one and maps the answer back itself.
//! Every node bound-patches one shared copy of that model, so every node's
//! tableau has the same columns: they are built once per search and
//! shared. Each child warm-starts from its parent's optimal
//! basis (dual-feasible after a bound-only change, repaired by the dual
//! simplex) and installs the LU factor the parent's solve finished with,
//! which is the factor of that basis over those columns. A node costs a
//! few bound writes, its own pivots (and the refactorizations they
//! need), its finish refactorization, and the restores; only the root
//! factors its starting basis.
//!
//! # Example
//!
//! ```
//! use ed_optim::branch_bound::{self, BranchOptions};
//! use ed_optim::lp::Row;
//! use ed_optim::{Model, SolveBudget};
//!
//! # fn main() -> Result<(), ed_optim::OptimError> {
//! // Knapsack: max 5a + 4b + 3c, 2a + 3b + c <= 4, binary.
//! let mut m = Model::maximize();
//! let a = m.add_var(0.0, 1.0, 5.0);
//! let b = m.add_var(0.0, 1.0, 4.0);
//! let c = m.add_var(0.0, 1.0, 3.0);
//! m.add_row(Row::le(4.0).coef(a, 2.0).coef(b, 3.0).coef(c, 1.0));
//! for v in [a, b, c] {
//!     m.set_integer(v);
//! }
//! let opts = BranchOptions::integers();
//! let sol = branch_bound::solve(&m, &opts, &SolveBudget::unlimited())?.solved().unwrap();
//! assert_eq!(sol.objective.round() as i64, 8); // take a and c
//!
//! // Complementarity: max x + y, x + y <= 3, 0 <= x,y <= 2, x ⟂ y.
//! let mut m = Model::maximize();
//! let x = m.add_var(0.0, 2.0, 1.0);
//! let y = m.add_var(0.0, 2.0, 1.0);
//! m.add_row(Row::le(3.0).coef(x, 1.0).coef(y, 1.0));
//! m.add_pair(x, y);
//! let opts = BranchOptions::pairs();
//! let sol = branch_bound::solve(&m, &opts, &SolveBudget::unlimited())?.solved().unwrap();
//! assert!((sol.objective - 2.0).abs() < 1e-7); // one of them pinned to 0
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use crate::budget::{BudgetTripped, Partial, SolveBudget, SolveOutcome};
use crate::certify::Tolerances;
use crate::lp::simplex;
use crate::lp::{Basis, Sense, SimplexOptions, VarId};
use crate::model::Model;
use crate::OptimError;
use ed_linalg::Lu;

/// What the search branches on. The rule decides when a relaxation point is
/// feasible and how a node splits; everything else is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branching {
    /// The model's integrality marks: split the most fractional variable
    /// into `x <= floor` and `x >= ceil`.
    Integers,
    /// The model's complementarity pairs: fix one side of the most violated
    /// pair to zero in each child.
    Pairs,
}

impl Branching {
    /// `(tol, gap_abs)`: the rule's feasibility tolerance (the largest
    /// accepted fractionality of an integer variable, or the largest
    /// accepted scaled product `x_a · x_b / max(x_a, x_b, 1)` of a pair) and
    /// the absolute objective gap at which the search stops.
    fn tolerances(self) -> (f64, f64) {
        let t = Tolerances::default();
        match self {
            Branching::Integers => (t.int, t.gap),
            // Complementarity incumbents land on LP vertices, so the gap
            // closes to simplex precision: two orders above `opt`.
            Branching::Pairs => (t.feas, 100.0 * t.opt),
        }
    }
}

/// Options for the branch-and-bound solver.
#[derive(Debug, Clone)]
pub struct BranchOptions {
    /// What the search branches on.
    pub branching: Branching,
    /// Maximum branch-and-bound nodes.
    pub max_nodes: usize,
    /// Simplex options for node relaxations. The root warm-starts from
    /// `simplex.warm` when set.
    pub simplex: SimplexOptions,
    /// Optional known feasible objective (in the problem's own sense) used
    /// to prune from the start — e.g. from a problem-specific heuristic.
    pub incumbent_hint: Option<f64>,
    /// Hand each child node its parent's optimal basis as a warm start.
    /// Disabling this never changes answers — only iteration counts.
    pub warm: bool,
}

impl BranchOptions {
    /// Defaults for branching on integrality marks.
    pub fn integers() -> BranchOptions {
        BranchOptions::new(Branching::Integers, 100_000)
    }

    /// Defaults for branching on complementarity pairs.
    pub fn pairs() -> BranchOptions {
        BranchOptions::new(Branching::Pairs, 20_000)
    }

    fn new(branching: Branching, max_nodes: usize) -> BranchOptions {
        BranchOptions {
            branching,
            max_nodes,
            simplex: SimplexOptions::default(),
            incumbent_hint: None,
            warm: true,
        }
    }
}

impl Default for BranchOptions {
    fn default() -> Self {
        BranchOptions::integers()
    }
}

/// Result of a finished branch-and-bound search.
#[derive(Debug, Clone)]
pub struct BranchSolution {
    /// Best feasible point found (integral, or complementary on every pair).
    pub x: Vec<f64>,
    /// Objective at `x` (in the problem's own sense).
    pub objective: f64,
    /// `true` if optimality was proved (tree exhausted within limits).
    pub proved_optimal: bool,
    /// Best relaxation bound at termination (equals `objective` when
    /// `proved_optimal`).
    pub best_bound: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations across all node relaxations.
    pub lp_iterations: usize,
    /// Node relaxations that accepted an offered warm basis.
    pub warm_starts: usize,
    /// Node relaxations that were offered a warm basis but fell back to a
    /// cold two-phase solve.
    pub cold_restarts: usize,
}

/// A bound override `(var, lb, ub)` along the path from the root.
type Override = (VarId, f64, f64);

struct Node {
    overrides: Vec<Override>,
    /// Parent relaxation bound in *internal* (minimization) units.
    bound: f64,
    /// Parent relaxation's optimal basis: dual-feasible for this node (only
    /// bounds changed), so the child relaxation starts from the dual simplex
    /// instead of a cold two-phase solve. Shared between siblings.
    basis: Option<Arc<Basis>>,
    /// The factor of `basis`'s matrix, as the parent's solve finished it:
    /// the child installs it instead of factoring the same matrix again.
    /// Shared between siblings.
    factor: Option<Arc<Lu>>,
}

/// Converts an objective in the problem sense to internal min units (and
/// back: the map is its own inverse).
fn to_internal(sense: Sense, obj: f64) -> f64 {
    match sense {
        Sense::Min => obj,
        Sense::Max => -obj,
    }
}

/// Branch and bound on `model` under a cooperative budget.
///
/// The budget is checked before each node pop *and* threaded into every
/// node relaxation, so a single pathological LP cannot blow through the
/// deadline. A trip returns [`SolveOutcome::Partial`] with the incumbent
/// (if any), the frontier bound, and the node, iteration and warm-start
/// tallies so far.
///
/// # Errors
///
/// - [`OptimError::Infeasible`] if no feasible point exists.
/// - [`OptimError::Unbounded`] if a relaxation is unbounded.
/// - [`OptimError::NodeLimit`] if `max_nodes` runs out before any feasible
///   point was found (with an incumbent, the search returns it unproved).
pub fn solve(
    model: &Model,
    options: &BranchOptions,
    budget: &SolveBudget,
) -> Result<SolveOutcome<BranchSolution>, OptimError> {
    let _t = ed_obs::timer("optim.bb");
    let mut pruned = 0usize;
    let out = search(model, options, budget, &mut pruned);
    if ed_obs::enabled() {
        let nodes = match &out {
            Ok(SolveOutcome::Solved(s)) => s.nodes,
            Ok(SolveOutcome::Partial(p)) => p.nodes,
            // The node budget was spent in full before the limit fired.
            Err(OptimError::NodeLimit { limit, .. }) => *limit,
            Err(_) => 0,
        };
        ed_obs::counter("optim.bb.solves", 1);
        ed_obs::counter("optim.bb.nodes", nodes as u64);
        ed_obs::counter("optim.bb.pruned", pruned as u64);
    }
    out
}

/// The children of a node whose relaxation point `x` breaks the branching
/// rule by more than `tol`, in exploration order; `None` when `x` satisfies
/// it (a new incumbent). A child whose bounds would cross is not created.
fn children(
    branching: Branching,
    tol: f64,
    lp: &Model,
    overrides: &[Override],
    x: &[f64],
) -> Option<Vec<Vec<Override>>> {
    let child = |o: Override| {
        let mut path = overrides.to_vec();
        path.push(o);
        path
    };
    match branching {
        Branching::Integers => {
            // Most-fractional variable.
            let mut branch: Option<(VarId, f64, f64)> = None; // (var, value, fractionality)
            for &v in lp.integers() {
                let val = x[v.index()];
                if (val - val.round()).abs() > tol {
                    let dist = (val - val.floor()).min(val.ceil() - val);
                    if branch.is_none_or(|(_, _, best)| dist > best) {
                        branch = Some((v, val, dist));
                    }
                }
            }
            let (v, val, _) = branch?;
            // The variable's bounds at this node: the last override wins.
            let (l, u) = overrides
                .iter()
                .rev()
                .find(|o| o.0 == v)
                .map_or_else(|| lp.bounds(v), |&(_, l, u)| (l, u));
            let (floor, ceil) = (val.floor(), val.ceil());
            let down = (floor >= l).then(|| child((v, l, floor)));
            let up = (ceil <= u).then(|| child((v, ceil, u)));
            // Explore the branch nearest the fractional value first.
            let (first, second) = if val - floor <= ceil - val { (down, up) } else { (up, down) };
            Some(first.into_iter().chain(second).collect())
        }
        Branching::Pairs => {
            // Most-violated pair, by the product scaled by its larger side.
            let mut worst: Option<((VarId, VarId), f64)> = None;
            for &(a, b) in lp.pairs() {
                let (va, vb) = (x[a.index()].max(0.0), x[b.index()].max(0.0));
                let prod = va * vb / va.max(vb).max(1.0);
                if prod > worst.map_or(0.0, |(_, w)| w) {
                    worst = Some(((a, b), prod));
                }
            }
            let ((a, b), _) = worst.filter(|&(_, w)| w > tol)?;
            // Fix the smaller-valued side to zero first.
            let (first, second) = if x[a.index()] <= x[b.index()] { (a, b) } else { (b, a) };
            Some(vec![child((first, 0.0, 0.0)), child((second, 0.0, 0.0))])
        }
    }
}

fn search(
    model: &Model,
    options: &BranchOptions,
    budget: &SolveBudget,
    pruned: &mut usize,
) -> Result<SolveOutcome<BranchSolution>, OptimError> {
    if model.is_quadratic() {
        return Err(OptimError::InvalidModel {
            what: "branch and bound cannot handle quadratic objective terms".to_string(),
        });
    }
    // Model-level validation covers the complementarity-variable bound
    // requirement (each pair variable must admit 0).
    model.validate()?;
    let sense = model.sense();
    let (tol, gap_abs) = options.branching.tolerances();

    // Nodes patch bounds of this copy and restore them after their solve.
    let mut lp = model.clone();
    let mut incumbent: Option<(Vec<f64>, f64)> = None; // (x, internal obj)
    let mut incumbent_cut =
        options.incumbent_hint.map(|h| to_internal(sense, h)).unwrap_or(f64::INFINITY);
    let mut nodes = 0usize;
    let mut lp_iterations = 0usize;
    let mut warm_starts = 0usize;
    let mut cold_restarts = 0usize;
    let mut tripped: Option<BudgetTripped> = None;
    // Per-node simplex options: the warm slot is rewritten for every node,
    // everything else is shared. The root inherits any caller-supplied seed.
    let mut node_simplex = options.simplex.clone();
    let root_basis = node_simplex.warm.take().map(Arc::new);
    let mut stack = vec![Node {
        overrides: Vec::new(),
        bound: f64::NEG_INFINITY,
        basis: root_basis,
        factor: None,
    }];
    // Every node patches only bounds of `lp`: one set of tableau columns
    // serves the whole search.
    let cols = {
        let _t = ed_obs::timer("optim.simplex.build");
        simplex::Columns::build(&lp)
    };

    while let Some(mut node) = stack.pop() {
        // Bound-based pruning against the incumbent (or hint).
        if node.bound >= incumbent_cut - gap_abs {
            *pruned += 1;
            continue;
        }
        if !budget.is_unlimited() {
            if let Some(t) = budget.node_tripped(nodes) {
                stack.push(node);
                tripped = Some(t);
                break;
            }
        }
        if nodes >= options.max_nodes {
            // Push the node back so the remaining frontier is reflected in
            // the reported bound.
            stack.push(node);
            break;
        }
        nodes += 1;

        // Apply the node's bound overrides.
        let saved: Vec<Override> = node
            .overrides
            .iter()
            .map(|&(v, _, _)| {
                let (l, u) = lp.bounds(v);
                (v, l, u)
            })
            .collect();
        for &(v, l, u) in &node.overrides {
            lp.set_bounds(v, l, u);
        }
        node_simplex.warm = if options.warm { node.basis.as_deref().cloned() } else { None };
        let warm_offered = node_simplex.warm.is_some();
        let result = simplex::solve_node(
            &lp,
            Some(&cols),
            &node_simplex,
            node.factor.take(),
            &budget.wall_only(),
        );
        for &(v, l, u) in &saved {
            lp.set_bounds(v, l, u);
        }

        let (sol, factor) = match result {
            Ok((SolveOutcome::Solved(s), factor)) => (s, factor),
            Ok((SolveOutcome::Partial(p), _)) => {
                // The node relaxation hit the shared deadline mid-solve: put
                // the node back as unexplored frontier and stop the search.
                lp_iterations += p.iterations;
                stack.push(node);
                tripped = Some(p.tripped);
                break;
            }
            Err(OptimError::Infeasible) => {
                *pruned += 1;
                continue;
            }
            // An unbounded relaxation at any node means the problem cannot
            // be certified; surface it (and any other failure).
            Err(e) => return Err(e),
        };
        lp_iterations += sol.iterations;
        if warm_offered {
            if sol.warm_used {
                warm_starts += 1;
            } else {
                cold_restarts += 1;
            }
        }
        let node_obj = to_internal(sense, sol.objective);
        if node_obj >= incumbent_cut - gap_abs {
            *pruned += 1;
            continue;
        }

        match children(options.branching, tol, &lp, &node.overrides, &sol.x) {
            None => {
                // Feasible for the rule: new incumbent.
                incumbent_cut = node_obj;
                incumbent = Some((sol.x, node_obj));
            }
            Some(kids) => {
                let basis = sol.basis.map(Arc::new);
                let factor = factor.filter(|_| options.warm);
                // Pushed in reverse so the first child pops first.
                for overrides in kids.into_iter().rev() {
                    stack.push(Node {
                        overrides,
                        bound: node_obj,
                        basis: basis.clone(),
                        factor: factor.clone(),
                    });
                }
            }
        }
    }

    // Frontier bound: the best (lowest) bound among unexplored subtrees.
    let frontier_bound = stack
        .iter()
        .map(|n| n.bound)
        .fold(f64::INFINITY, f64::min)
        .min(incumbent_cut);

    if let Some(t) = tripped {
        let (x, objective) = incumbent.map(|(x, o)| (x, to_internal(sense, o))).unzip();
        return Ok(SolveOutcome::Partial(Partial {
            tripped: t,
            x,
            objective,
            bound: Some(to_internal(sense, frontier_bound)),
            iterations: lp_iterations,
            nodes,
            warm_starts,
            cold_restarts,
        }));
    }

    match incumbent {
        Some((x, internal_obj)) => {
            let proved = stack.is_empty() || frontier_bound >= incumbent_cut - gap_abs;
            Ok(SolveOutcome::Solved(BranchSolution {
                objective: to_internal(sense, internal_obj),
                best_bound: to_internal(sense, if proved { internal_obj } else { frontier_bound }),
                x,
                proved_optimal: proved,
                nodes,
                lp_iterations,
                warm_starts,
                cold_restarts,
            }))
        }
        None if stack.is_empty() => Err(OptimError::Infeasible),
        None => Err(OptimError::NodeLimit {
            limit: options.max_nodes,
            incumbent: None,
            bound: to_internal(sense, frontier_bound),
            lp_iterations,
            warm_starts,
            cold_restarts,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Row;

    fn run(model: &Model, options: &BranchOptions) -> Result<BranchSolution, OptimError> {
        Ok(solve(model, options, &SolveBudget::unlimited())?.solved().expect("unlimited budget"))
    }

    fn knapsack() -> Model {
        // max 5a + 4b + 3c st 2a + 3b + c <= 4, binary -> a + c = 8.
        let mut m = Model::maximize();
        let a = m.add_var(0.0, 1.0, 5.0);
        let b = m.add_var(0.0, 1.0, 4.0);
        let c = m.add_var(0.0, 1.0, 3.0);
        m.add_row(Row::le(4.0).coef(a, 2.0).coef(b, 3.0).coef(c, 1.0));
        for v in [a, b, c] {
            m.set_integer(v);
        }
        m
    }

    /// max x + y with x + y <= 3, x,y in [0,2], x ⟂ y.
    fn exclusive_pair() -> Model {
        let mut m = Model::maximize();
        let x = m.add_var(0.0, 2.0, 1.0);
        let y = m.add_var(0.0, 2.0, 1.0);
        m.add_row(Row::le(3.0).coef(x, 1.0).coef(y, 1.0));
        m.add_pair(x, y);
        m
    }

    #[test]
    fn knapsack_binary() {
        let sol = run(&knapsack(), &BranchOptions::integers()).unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-6, "obj={}", sol.objective);
        assert!(sol.proved_optimal);
        assert!((sol.x[0] - 1.0).abs() < 1e-6);
        assert!(sol.x[1].abs() < 1e-6);
        assert!((sol.x[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn general_integer_rounding_matters() {
        // max x + y st 2x + y <= 5.5, x + 2y <= 5.5, integer.
        // LP optimum ~ (1.833, 1.833); best integer point: (2,1) or (1,2) -> 3.
        let mut m = Model::maximize();
        let x = m.add_var(0.0, 10.0, 1.0);
        let y = m.add_var(0.0, 10.0, 1.0);
        m.add_row(Row::le(5.5).coef(x, 2.0).coef(y, 1.0));
        m.add_row(Row::le(5.5).coef(x, 1.0).coef(y, 2.0));
        m.set_integer(x);
        m.set_integer(y);
        let sol = run(&m, &BranchOptions::integers()).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6, "obj={}", sol.objective);
    }

    #[test]
    fn integer_infeasible() {
        // 0.4 <= x <= 0.6, x integer -> infeasible.
        let mut m = Model::minimize();
        let x = m.add_var(0.4, 0.6, 1.0);
        m.set_integer(x);
        assert!(matches!(run(&m, &BranchOptions::integers()), Err(OptimError::Infeasible)));
    }

    #[test]
    fn mixed_integer_continuous() {
        // min 3x + 2y st x + y >= 2.5, x integer, y continuous in [0,1].
        // x = 1 needs y = 1.5 > ub, so x = 2, y = 0.5 -> 7.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, 3.0);
        let y = m.add_var(0.0, 1.0, 2.0);
        m.add_row(Row::ge(2.5).coef(x, 1.0).coef(y, 1.0));
        m.set_integer(x);
        let sol = run(&m, &BranchOptions::integers()).unwrap();
        assert!((sol.objective - 7.0).abs() < 1e-6, "obj={}", sol.objective);
    }

    #[test]
    fn incumbent_hint_prunes_but_preserves_optimum() {
        // The hints are valid lower bounds on the max.
        let opts = BranchOptions { incumbent_hint: Some(7.0), ..BranchOptions::integers() };
        assert!((run(&knapsack(), &opts).unwrap().objective - 8.0).abs() < 1e-6);
        let opts = BranchOptions { incumbent_hint: Some(1.5), ..BranchOptions::pairs() };
        assert!((run(&exclusive_pair(), &opts).unwrap().objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn node_limit_without_incumbent_errors() {
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12).map(|_| m.add_var(0.0, 1.0, 1.0)).collect();
        m.add_row(vars.iter().fold(Row::le(5.5), |r, &v| r.coef(v, 1.0)));
        for v in vars {
            m.set_integer(v);
        }
        // Root only; the root relaxation is fractional.
        let opts = BranchOptions { max_nodes: 1, ..BranchOptions::integers() };
        let res = solve(&m, &opts, &SolveBudget::unlimited());
        assert!(matches!(res, Err(OptimError::NodeLimit { .. })), "{res:?}");
    }

    #[test]
    fn simple_complementarity() {
        let sol = run(&exclusive_pair(), &BranchOptions::pairs()).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-7);
        assert!(sol.proved_optimal);
        let prod = sol.x[0] * sol.x[1];
        assert!(prod.abs() < 1e-6, "complementarity violated: {prod}");
    }

    #[test]
    fn already_complementary_at_relaxation() {
        // max x with x <= 1, pair (x, y) where y is cost-free and settles at 0.
        let mut m = Model::maximize();
        let x = m.add_var(0.0, 1.0, 1.0);
        let y = m.add_var(0.0, 1.0, 0.0);
        m.add_pair(x, y);
        let sol = run(&m, &BranchOptions::pairs()).unwrap();
        assert_eq!(sol.nodes, 1);
        assert!((sol.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pairs_infeasible_when_both_forced_positive() {
        // x >= 1 and y >= 1 but x ⟂ y -> infeasible: each branch fixes one
        // side to zero against its row.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 2.0, 0.0);
        let y = m.add_var(0.0, 2.0, 0.0);
        m.add_row(Row::ge(1.0).coef(x, 1.0));
        m.add_row(Row::ge(1.0).coef(y, 1.0));
        m.add_pair(x, y);
        let res = run(&m, &BranchOptions::pairs());
        assert!(matches!(res, Err(OptimError::Infeasible)), "{res:?}");

        // One side forced positive -> the other side of the pair settles
        // at zero; the problem stays feasible and optimal.
        let mut m = Model::maximize();
        let x = m.add_var(0.0, 2.0, 1.0);
        let y = m.add_var(0.0, 2.0, 1.0);
        m.add_row(Row::ge(1.0).coef(x, 1.0));
        m.add_pair(x, y);
        let sol = run(&m, &BranchOptions::pairs()).unwrap();
        assert!(sol.proved_optimal);
        assert!((sol.objective - 2.0).abs() < 1e-9, "obj {}", sol.objective);
        assert!(sol.x[1].abs() < 1e-9, "y must be zero: {:?}", sol.x);
    }

    #[test]
    fn chain_of_pairs() {
        // max x1 + x2 + x3, x1 ⟂ x2, x2 ⟂ x3, all in [0,1]:
        // optimum picks x1 = x3 = 1, x2 = 0 -> 2.
        let mut m = Model::maximize();
        let x1 = m.add_var(0.0, 1.0, 1.0);
        let x2 = m.add_var(0.0, 1.0, 1.0);
        let x3 = m.add_var(0.0, 1.0, 1.0);
        m.add_pair(x1, x2);
        m.add_pair(x2, x3);
        let sol = run(&m, &BranchOptions::pairs()).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-7, "obj={}", sol.objective);
        assert!(sol.x[1].abs() < 1e-7);
    }
}
