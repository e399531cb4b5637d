//! Bounded-variable two-phase revised simplex with an LU-factored basis.
//!
//! Implementation notes:
//!
//! - Every row `a'x (<=|>=|==) rhs` is rewritten `a'x + s = rhs` with slack
//!   bounds encoding the sense (`[0,inf)`, `(-inf,0]`, `[0,0]`).
//! - Phase 1 introduces one artificial column per row and minimizes their
//!   sum; phase 2 re-prices with the true objective after artificials are
//!   driven out (or pinned at zero on redundant rows). One routine,
//!   `Tableau::cold_phase1`, runs it for both a full solve and
//!   [`phase1_basis`].
//! - The basis is represented as an [`Lu`] factorization of the last
//!   refactorized basis matrix plus a list of product-form eta updates, one
//!   per pivot: ftran solves through the factors then applies the etas in
//!   order, btran applies the transposed etas in reverse then solves the
//!   transposed factors. The basis is factored by [`Lu::factor_by_count`],
//!   its columns taken by ascending nonzero count: the slack and singleton
//!   columns pivot first, and a factor of the 118-bus KKT basis (770 rows and
//!   about 2,460 nonzeros after presolve) stores a median 4,700 nonzeros in
//!   `L` and `U`, against 54,000 in index order. The factor solves in
//!   basis-position order, so the etas, the pricing weights and the ratio
//!   test never see the column order. The basis is refactorized from scratch
//!   every `REFACTOR_INTERVAL` (32) pivots (clearing the eta list and
//!   recomputing the basic solution) to bound drift and the eta file's cost —
//!   no dense explicit inverse is ever formed. A sparse factor costs a
//!   fraction of a millisecond, while each eta adds a pass to every ftran and
//!   btran, so 32 beat 16, 64 and 128 in interleaved 118-bus sweeps on a
//!   2-vCPU VM.
//! - Every basis change of the primal loop, the dual loop and the
//!   artificial drive-out goes through one swap, `Tableau::swap_in`: an
//!   eta when its stability guard accepts it, else a refactorization of the
//!   new basis, else (that basis is singular) an undo of the swap.
//! - Dantzig pricing by default, with an automatic switch to Bland's rule
//!   after a run of degenerate pivots to guarantee termination.
//! - The structural and slack columns live in a shared [`Columns`]; only
//!   the artificial columns are per tableau. Branch and bound builds the
//!   columns once per search and hands each child node the factor its
//!   parent finished with ([`solve_node`]).

// The eta-application kernels below accumulate with classic indexed
// recurrences; iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

use crate::budget::{BudgetTripped, Partial, SolveBudget, SolveOutcome};
use crate::lp::basis::{Basis, BasisStatus};
use crate::lp::pricing::DevexWeights;
use crate::model::{LpSolution, Model, RowSense, Sense};
use crate::OptimError;
use ed_linalg::{CscMatrix, LinalgError, Lu, UpdatableLu};
use std::sync::Arc;

/// Pricing rule for selecting the entering variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Most negative reduced cost (fast in practice).
    #[default]
    Dantzig,
    /// Smallest eligible index (anti-cycling; slower).
    Bland,
}

/// Options controlling the simplex method.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
    /// Primal feasibility tolerance (also phase-1 acceptance).
    pub feas_tol: f64,
    /// Pricing rule to start with (may switch to Bland on degeneracy).
    pub pricing: Pricing,
    /// Fault-injection hook: when `Some(seed)`, one entry of the solution
    /// vector is corrupted *after* the solve completes, leaving the
    /// reported objective and duals stale — simulating a basis-memory
    /// fault that escapes the solver's own checks. Exists so the
    /// certification tests can prove such faults are caught; never set in
    /// production paths.
    pub inject_basis_fault: Option<u64>,
    /// Warm-start basis to install before solving. A primal-feasible warm
    /// basis skips phase 1 entirely; a dual-feasible one (parent basis
    /// after a bound-only change) is repaired by the dual simplex; anything
    /// inconsistent — wrong dimensions, singular, neither primal nor dual
    /// feasible — falls back to a cold two-phase solve, so a stale or
    /// corrupt basis can cost time but never change the answer. The one
    /// verdict the repair is allowed to issue itself is infeasibility: a
    /// dual ray found on freshly factored bases is a Farkas proof about
    /// the problem, independent of which basis the walk started from, and
    /// is returned without a cold re-derivation. [`phase1_basis`] reads it
    /// as an offered seed, kept only when primal feasible.
    pub warm: Option<Basis>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        let tol = crate::certify::Tolerances::default();
        SimplexOptions {
            opt_tol: tol.opt,
            feas_tol: tol.feas,
            pricing: Pricing::Dantzig,
            inject_basis_fault: None,
            warm: None,
        }
    }
}

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free nonbasic variable resting at zero.
    FreeZero,
}

/// Maximum total pivots across both phases (primal and dual).
const MAX_ITERATIONS: usize = 50_000;
/// Number of consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_SWITCH: usize = 60;
/// Pivot magnitude floor for the ratio test and basis updates.
const PIVOT_TOL: f64 = 1e-10;
/// Pivots between basis refactorizations in each loop (the module docs
/// say why 32).
const REFACTOR_INTERVAL: usize = 32;

/// How [`Tableau::swap_in`] brought its column into the basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Swap {
    /// An eta was recorded on the current factors.
    Eta,
    /// The eta failed its stability guard; the new basis was refactorized.
    Refactored,
    /// The new basis was singular: the swap was undone and the old basis
    /// refactorized.
    Undone,
}

/// Maps a factor or solve failure to a numerical error naming the step.
fn numerical(what: &'static str) -> impl FnOnce(LinalgError) -> OptimError {
    move |e| OptimError::Numerical { what: format!("{what} failed: {e}") }
}

/// A model's structural and slack tableau columns: each structural column
/// sorted by row with duplicate entries coalesced and zeros dropped, then
/// one `e_i` slack column per row. They depend on the constraint matrix
/// alone, so every branch-and-bound node of one search, which patches only
/// bounds, shares one copy.
pub(crate) struct Columns(Vec<Vec<(usize, f64)>>);

impl Columns {
    pub(crate) fn build(lp: &Model) -> Arc<Columns> {
        let n = lp.num_vars();
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n + lp.num_rows());
        // Coalesce duplicate row entries per column (Row::coef may repeat
        // vars; model columns keep entries in increasing row order, so a
        // stable sort preserves insertion order within a row).
        for j in 0..n {
            let mut col = lp.col(j).to_vec();
            col.sort_by_key(|&(i, _)| i);
            let mut merged: Vec<(usize, f64)> = Vec::with_capacity(col.len());
            for &(i, c) in col.iter() {
                match merged.last_mut() {
                    Some((li, lc)) if *li == i => *lc += c,
                    _ => merged.push((i, c)),
                }
            }
            merged.retain(|&(_, c)| c != 0.0);
            cols.push(merged);
        }
        cols.extend((0..lp.num_rows()).map(|i| vec![(i, 1.0)]));
        Arc::new(Columns(cols))
    }
}

struct Tableau {
    m: usize,
    /// Total columns: structural + slacks + artificials.
    ncols: usize,
    n_structural: usize,
    /// Structural and slack columns, shared with every tableau over the
    /// same constraint matrix.
    cols: Arc<Columns>,
    /// Row `i`'s artificial column: `(i, ±1.0)`, or `None` when it is
    /// pinned out of the problem.
    art: Vec<Option<(usize, f64)>>,
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Phase-2 cost (minimization form).
    cost: Vec<f64>,
    b: Vec<f64>,
    x: Vec<f64>,
    state: Vec<VarState>,
    basis: Vec<usize>,
    /// LU factors of the basis matrix at the last refactorization plus the
    /// product-form eta file of pivots since then (`None` until the first
    /// factorization, or when `m == 0`), as an [`UpdatableLu`].
    factors: Option<UpdatableLu>,
    iterations: usize,
}

impl Tableau {
    fn new(lp: &Model, cols: &Arc<Columns>) -> Tableau {
        let m = lp.num_rows();
        let n = lp.num_vars();
        let ncols = n + 2 * m;
        let mut lb = vec![0.0; ncols];
        let mut ub = vec![0.0; ncols];
        let mut cost = vec![0.0; ncols];

        let sign = match lp.sense {
            Sense::Min => 1.0,
            Sense::Max => -1.0,
        };
        for j in 0..n {
            lb[j] = lp.lb[j];
            ub[j] = lp.ub[j];
            cost[j] = sign * lp.obj[j];
        }
        let b = lp.rhs.clone();
        for (i, &sense) in lp.row_sense.iter().enumerate() {
            // Slack bounds encode the row sense.
            let s = n + i;
            match sense {
                RowSense::Le => {
                    lb[s] = 0.0;
                    ub[s] = f64::INFINITY;
                }
                RowSense::Ge => {
                    lb[s] = f64::NEG_INFINITY;
                    ub[s] = 0.0;
                }
                RowSense::Eq => {
                    lb[s] = 0.0;
                    ub[s] = 0.0;
                }
            }
            // Artificial column entries are filled in `install_artificials`.
        }

        Tableau {
            m,
            ncols,
            n_structural: n,
            cols: Arc::clone(cols),
            art: vec![None; m],
            lb,
            ub,
            cost,
            b,
            x: vec![0.0; ncols],
            state: vec![VarState::AtLower; ncols],
            basis: Vec::new(),
            factors: None,
            iterations: 0,
        }
    }

    /// Column `j` of the tableau: structural, slack or artificial.
    fn col(&self, j: usize) -> &[(usize, f64)] {
        match self.cols.0.get(j) {
            Some(c) => c,
            None => self.art[j - self.cols.0.len()].as_slice(),
        }
    }

    fn initial_nonbasic(&self, j: usize) -> (VarState, f64) {
        let (l, u) = (self.lb[j], self.ub[j]);
        if l.is_finite() {
            (VarState::AtLower, l)
        } else if u.is_finite() {
            (VarState::AtUpper, u)
        } else {
            (VarState::FreeZero, 0.0)
        }
    }

    /// Sets all structural+slack columns nonbasic at their preferred bound
    /// and installs artificial columns as the starting basis.
    fn install_artificials(&mut self) -> Result<(), OptimError> {
        let n = self.n_structural;
        let m = self.m;
        for j in 0..(n + m) {
            let (st, v) = self.initial_nonbasic(j);
            self.state[j] = st;
            self.x[j] = v;
        }
        // Residual r = b - A x_N over structural + slack columns.
        let mut r = self.b.clone();
        for j in 0..(n + m) {
            let xj = self.x[j];
            if xj != 0.0 {
                for &(i, c) in self.col(j) {
                    r[i] -= c * xj;
                }
            }
        }
        self.basis = Vec::with_capacity(m);
        for i in 0..m {
            let a = n + m + i;
            let sign = if r[i] >= 0.0 { 1.0 } else { -1.0 };
            self.art[i] = Some((i, sign));
            self.lb[a] = 0.0;
            self.ub[a] = f64::INFINITY;
            self.x[a] = r[i].abs();
            self.state[a] = VarState::Basic(i);
            self.basis.push(a);
        }
        // Factor the (diagonal ±1) starting basis.
        self.factor_basis()
    }

    fn is_artificial(&self, j: usize) -> bool {
        j >= self.n_structural + self.m
    }

    /// Factors the current basis matrix and clears the eta file.
    fn factor_basis(&mut self) -> Result<(), OptimError> {
        let _t = ed_obs::timer("optim.simplex.factor");
        if self.m == 0 {
            self.factors = None;
            return Ok(());
        }
        let bmat = CscMatrix::from_sorted_columns(self.m, self.basis.iter().map(|&j| self.col(j)));
        let lu = Lu::factor_by_count(&bmat).map_err(numerical("basis refactorization"))?;
        match &mut self.factors {
            Some(f) => f.reset(lu),
            None => self.factors = Some(UpdatableLu::from_lu(lu)),
        }
        Ok(())
    }

    /// `B^{-1} A_j`: solve through the LU factors, then apply the product-
    /// form etas in pivot order.
    fn ftran(&self, j: usize) -> Result<Vec<f64>, OptimError> {
        if self.m == 0 {
            return Ok(Vec::new());
        }
        let mut a = vec![0.0; self.m];
        for &(i, c) in self.col(j) {
            a[i] += c;
        }
        let factors = self.factors.as_ref().expect("basis factored before ftran");
        factors.solve(&a).map_err(numerical("ftran"))
    }

    /// `B^{-T} c`: apply the transposed etas in reverse pivot order, then
    /// solve the transposed LU factors.
    fn btran(&self, c: &[f64]) -> Result<Vec<f64>, OptimError> {
        if self.m == 0 {
            return Ok(Vec::new());
        }
        let factors = self.factors.as_ref().expect("basis factored before btran");
        factors.solve_transpose(c).map_err(numerical("btran"))
    }

    /// Simplex multipliers `y = B^{-T} c_B` for the given cost vector.
    fn duals(&self, cost: &[f64]) -> Result<Vec<f64>, OptimError> {
        let c: Vec<f64> = self.basis.iter().map(|&bk| cost[bk]).collect();
        self.btran(&c)
    }

    fn reduced_cost(&self, j: usize, cost: &[f64], y: &[f64]) -> f64 {
        let mut d = cost[j];
        for &(i, c) in self.col(j) {
            d -= y[i] * c;
        }
        d
    }

    /// Refactorizes the basis and recomputes the basic values from scratch.
    fn refactor(&mut self) -> Result<(), OptimError> {
        if self.m == 0 {
            return Ok(());
        }
        self.factor_basis()?;
        self.recompute_basic()
    }

    /// Recomputes `x_B = B^{-1}(b - N x_N)` through the current factors.
    fn recompute_basic(&mut self) -> Result<(), OptimError> {
        let mut rhs = self.b.clone();
        for j in 0..self.ncols {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.x[j];
            if xj != 0.0 {
                for &(i, c) in self.col(j) {
                    rhs[i] -= c * xj;
                }
            }
        }
        let factors = self.factors.as_ref().expect("basis factored before x_B recompute");
        let xb = factors.solve(&rhs).map_err(numerical("basic-solution recompute"))?;
        for (k, v) in xb.into_iter().enumerate() {
            self.x[self.basis[k]] = v;
        }
        Ok(())
    }

    /// The value a nonbasic variable rests at in state `st`: its lower or
    /// upper bound, or zero when free.
    fn rest(&self, j: usize, st: VarState) -> f64 {
        match st {
            VarState::AtLower => self.lb[j],
            VarState::AtUpper => self.ub[j],
            _ => 0.0,
        }
    }

    /// Swaps column `q` into the basis at position `r`, given
    /// `w = B^{-1} A_q`; the variable it replaces rests at `leave`. The
    /// product-form eta is recorded when it passes its stability guard.
    /// Otherwise the factors are rebuilt from the updated basis. If *that*
    /// basis is singular the pivot was spurious (stale etas exaggerated a
    /// pivot element that is really ~zero): the swap is undone and the
    /// previous basis, which factored before, is refactorized, with `x_q`
    /// back at its rest value and `x_B` recomputed from fresh factors.
    #[inline]
    fn swap_in(
        &mut self,
        r: usize,
        q: usize,
        w: &[f64],
        leave: VarState,
    ) -> Result<Swap, OptimError> {
        let out = self.basis[r];
        let q_prev = self.state[q];
        self.state[out] = leave;
        self.x[out] = self.rest(out, leave);
        let factors = self.factors.as_mut().expect("basis factored before a swap");
        let eta_ok = factors.replace_column(r, w, PIVOT_TOL).is_ok();
        self.basis[r] = q;
        self.state[q] = VarState::Basic(r);
        if eta_ok {
            return Ok(Swap::Eta);
        }
        if self.refactor().is_ok() {
            return Ok(Swap::Refactored);
        }
        self.basis[r] = out;
        self.state[out] = VarState::Basic(r);
        self.state[q] = q_prev;
        self.x[q] = self.rest(q, q_prev);
        self.refactor()?;
        Ok(Swap::Undone)
    }

    /// Moves nonbasic `j` across to its opposite bound, snapping `x_j` to
    /// it; a free variable stays where it is.
    fn flip(&mut self, j: usize) {
        match self.state[j] {
            VarState::AtLower => {
                self.state[j] = VarState::AtUpper;
                self.x[j] = self.ub[j];
            }
            VarState::AtUpper => {
                self.state[j] = VarState::AtLower;
                self.x[j] = self.lb[j];
            }
            _ => {}
        }
    }

    /// The checks that open every pivot of both loops: the budget (a trip
    /// is returned), the pivot cap (an error, carrying the iterate as an
    /// incumbent when it is `feasible`), and the periodic refactorization.
    #[inline]
    fn begin_pivot(
        &mut self,
        budget: &SolveBudget,
        since_refactor: &mut usize,
        feasible: bool,
    ) -> Result<Option<BudgetTripped>, OptimError> {
        if !budget.is_unlimited() {
            if let Some(tripped) = budget.iter_tripped(self.iterations) {
                return Ok(Some(tripped));
            }
        }
        if self.iterations >= MAX_ITERATIONS {
            let incumbent = feasible.then(|| self.x[..self.n_structural].to_vec());
            return Err(OptimError::IterationLimit { limit: MAX_ITERATIONS, incumbent });
        }
        if *since_refactor >= REFACTOR_INTERVAL {
            self.refactor()?;
            *since_refactor = 0;
        }
        Ok(None)
    }

    /// Reorders the basis columns ascending. Two solves that end at the
    /// same basis *set* then factor the identical matrix and report
    /// bit-identical solutions, regardless of the pivot path that reached
    /// the basis — the property the warm-vs-cold determinism tests pin.
    /// Invalidates the eta list; callers must `refactor` before the next
    /// ftran/btran.
    fn canonicalize_basis(&mut self) {
        self.basis.sort_unstable();
        for k in 0..self.basis.len() {
            let j = self.basis[k];
            self.state[j] = VarState::Basic(k);
        }
    }

    /// Snapshots the current basis as a typed, model-independent [`Basis`].
    fn snapshot_basis(&self) -> Basis {
        let nm = self.n_structural + self.m;
        let statuses = (0..nm)
            .map(|j| match self.state[j] {
                VarState::Basic(_) => BasisStatus::Basic,
                VarState::AtLower => BasisStatus::AtLower,
                VarState::AtUpper => BasisStatus::AtUpper,
                VarState::FreeZero => BasisStatus::FreeZero,
            })
            .collect();
        let mut art_rows = Vec::new();
        for i in 0..self.m {
            let a = nm + i;
            if matches!(self.state[a], VarState::Basic(_)) {
                let sign = match self.art[i] {
                    Some((_, c)) if c < 0.0 => -1,
                    _ => 1,
                };
                art_rows.push((i as u32, sign));
            }
        }
        Basis { statuses, art_rows }
    }

    /// Installs a recorded basis into a freshly built tableau: statuses are
    /// replayed, basic artificials recreated for redundant rows, the basis
    /// factored in canonical (ascending) order, and the basic values
    /// recomputed from the *current* model data. Any inconsistency is an
    /// error and the caller falls back to a cold start.
    ///
    /// `factor`, when given, is the factor of this canonical basis matrix
    /// over these columns, as the solve that recorded `warm` left it: it
    /// is installed instead of factoring the same matrix again. The kernel
    /// is deterministic, so the installed factor has the bits a fresh one
    /// would.
    fn install_warm(&mut self, warm: &Basis, factor: Option<Arc<Lu>>) -> Result<(), OptimError> {
        let n = self.n_structural;
        let m = self.m;
        let reject = |what: &str| OptimError::Numerical {
            what: format!("warm basis rejected: {what}"),
        };
        if warm.statuses.len() != n + m || warm.num_basic() != m {
            return Err(reject("dimension mismatch"));
        }
        // All artificials pinned at [0,0]; redundant-row artificials are
        // recreated from the snapshot below.
        for i in 0..m {
            let a = n + m + i;
            self.art[i] = None;
            self.lb[a] = 0.0;
            self.ub[a] = 0.0;
            self.x[a] = 0.0;
            self.state[a] = VarState::AtLower;
        }
        let mut basics: Vec<usize> = Vec::with_capacity(m);
        for (j, st) in warm.statuses.iter().enumerate() {
            match st {
                BasisStatus::Basic => basics.push(j),
                BasisStatus::AtLower => {
                    if !self.lb[j].is_finite() {
                        return Err(reject("AtLower status on an infinite bound"));
                    }
                    self.state[j] = VarState::AtLower;
                    self.x[j] = self.lb[j];
                }
                BasisStatus::AtUpper => {
                    if !self.ub[j].is_finite() {
                        return Err(reject("AtUpper status on an infinite bound"));
                    }
                    self.state[j] = VarState::AtUpper;
                    self.x[j] = self.ub[j];
                }
                BasisStatus::FreeZero => {
                    self.state[j] = VarState::FreeZero;
                    self.x[j] = 0.0;
                }
            }
        }
        for &(row, sign) in &warm.art_rows {
            let i = row as usize;
            if i >= m {
                return Err(reject("artificial row out of range"));
            }
            let a = n + m + i;
            if self.art[i].is_some() {
                return Err(reject("duplicate artificial row"));
            }
            self.art[i] = Some((i, f64::from(sign)));
            basics.push(a);
        }
        self.basis = basics;
        self.canonicalize_basis();
        match factor {
            Some(lu) => {
                debug_assert_eq!(lu.dim(), m, "a handed-over factor of another basis size");
                self.factors = Some(UpdatableLu::from_shared(lu));
                ed_obs::counter("optim.bb.factor_handoffs", 1);
                // x_B from this model's bounds, not the recorder's.
                self.recompute_basic()
            }
            // Factor the installed basis and recompute x_B from current
            // data; a singular basis matrix rejects the warm start here.
            None => self.refactor(),
        }
    }

    /// Primal bound infeasibility of the current basic solution.
    fn primal_infeasibility(&self) -> f64 {
        let mut infeas = 0.0_f64;
        for &bi in &self.basis {
            infeas = infeas
                .max(self.lb[bi] - self.x[bi])
                .max(self.x[bi] - self.ub[bi]);
        }
        infeas
    }

    /// `true` when every nonbasic reduced cost has the sign optimality
    /// requires (the dual-feasibility precondition of the dual simplex).
    fn is_dual_feasible(&self, cost: &[f64], opt_tol: f64) -> Result<bool, OptimError> {
        let y = self.duals(cost)?;
        for j in 0..self.ncols {
            match self.state[j] {
                VarState::Basic(_) => continue,
                _ if self.ub[j] <= self.lb[j] => continue, // fixed
                _ => {}
            }
            let d = self.reduced_cost(j, cost, &y);
            let ok = match self.state[j] {
                VarState::AtLower => d >= -opt_tol,
                VarState::AtUpper => d <= opt_tol,
                VarState::FreeZero => d.abs() <= opt_tol,
                VarState::Basic(_) => true,
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Dual simplex loop: restores primal feasibility from a dual-feasible
    /// basis (the warm-start case after bound-only changes: branch-and-bound
    /// and MPEC children inherit their parent's optimal basis).
    ///
    /// Row selection uses the shared devex reference weights; the ratio
    /// test is the long-step variant with **bound flips**: boxed candidate
    /// columns whose full flip cannot absorb the remaining violation are
    /// flipped to their opposite bound instead of entering, which the dual
    /// step (≥ their ratio) makes dual-consistent.
    ///
    /// Returns `Ok(None)` at primal feasibility (hand off to phase 2) and
    /// `Ok(Some(tripped))` on a budget trip. `Err(Infeasible)` means no
    /// sign-compatible entering column exists for a violated row — a dual
    /// ray, i.e. a Farkas proof of primal infeasibility. The proof is only
    /// issued from *fresh* factors: the first time a ray appears the basis
    /// is refactorized and the ratio test re-run, so stale etas can delay
    /// the proof but never fabricate one.
    fn optimize_dual(
        &mut self,
        cost: &[f64],
        options: &SimplexOptions,
        budget: &SolveBudget,
    ) -> Result<Option<BudgetTripped>, OptimError> {
        let mut since_refactor = 0usize;
        let mut weights = DevexWeights::new(self.m);
        let mut stalled = 0usize;
        // Set once a dual ray has been re-verified on freshly factored
        // bases; a ray seen with pending etas triggers a refactor + retry
        // instead of an immediate infeasibility verdict.
        let mut ray_verified = false;
        loop {
            if let Some(tripped) = self.begin_pivot(budget, &mut since_refactor, false)? {
                return Ok(Some(tripped));
            }

            // Leaving row: devex-weighted worst bound violation.
            let mut leave: Option<(usize, f64)> = None; // (position, score)
            let mut viol = 0.0_f64;
            for k in 0..self.m {
                let bi = self.basis[k];
                let v = if self.x[bi] < self.lb[bi] - options.feas_tol {
                    self.x[bi] - self.lb[bi]
                } else if self.x[bi] > self.ub[bi] + options.feas_tol {
                    self.x[bi] - self.ub[bi]
                } else {
                    continue;
                };
                let score = weights.score(k, v);
                if leave.is_none_or(|(_, best)| score > best) {
                    leave = Some((k, score));
                    viol = v;
                }
            }
            let Some((r, _)) = leave else {
                return Ok(None); // primal feasible
            };
            let bi = self.basis[r];
            let s = if viol > 0.0 { 1.0 } else { -1.0 };

            // Pivot row via one btran, then the dual ratio test.
            let mut e_r = vec![0.0; self.m];
            e_r[r] = 1.0;
            let rho = self.btran(&e_r)?;
            let y = self.duals(cost)?;
            let mut cands: Vec<(usize, f64, f64)> = Vec::new(); // (col, ratio, alpha)
            for j in 0..self.ncols {
                if matches!(self.state[j], VarState::Basic(_)) || self.ub[j] <= self.lb[j] {
                    continue;
                }
                let mut alpha = 0.0;
                for &(i, c) in self.col(j) {
                    alpha += rho[i] * c;
                }
                let eligible = match self.state[j] {
                    VarState::AtLower => s * alpha > PIVOT_TOL,
                    VarState::AtUpper => s * alpha < -PIVOT_TOL,
                    VarState::FreeZero => alpha.abs() > PIVOT_TOL,
                    VarState::Basic(_) => false,
                };
                if !eligible {
                    continue;
                }
                let d = self.reduced_cost(j, cost, &y);
                cands.push((j, d.abs() / alpha.abs(), alpha));
            }
            // Long-step walk in ratio order: flip boxed columns the dual
            // step passes, stop at the first column that must enter.
            cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let mut remaining = viol.abs();
            let mut entering = None;
            let mut flips: Vec<(usize, f64)> = Vec::new(); // (col, signed width)
            for &(j, _, alpha) in &cands {
                let width = self.ub[j] - self.lb[j];
                if width.is_finite() && width * alpha.abs() < remaining - options.feas_tol {
                    let dir = match self.state[j] {
                        VarState::AtLower => 1.0,
                        VarState::AtUpper => -1.0,
                        _ => 0.0,
                    };
                    if dir != 0.0 {
                        flips.push((j, dir * width));
                        remaining -= width * alpha.abs();
                        continue;
                    }
                }
                entering = Some(j);
                break;
            }
            let Some(q) = entering else {
                // Dual ray: no compatible column for the violated row, or
                // every one flips away and violation remains. The row is
                // unsatisfiable; the verdict waits for fresh factors.
                if since_refactor > 0 && !ray_verified {
                    ray_verified = true;
                    self.refactor()?;
                    since_refactor = 0;
                    continue;
                }
                return Err(OptimError::Infeasible);
            };

            let w = self.ftran(q)?;
            let pivot = w[r];
            if pivot.abs() <= PIVOT_TOL {
                // Pivot-row / ftran disagreement (stale etas): refactor and
                // retry once; a repeat is a genuine numerical failure.
                stalled += 1;
                if stalled > 2 {
                    return Err(OptimError::Numerical {
                        what: "dual simplex pivot vanished after refactorization".to_string(),
                    });
                }
                self.refactor()?;
                since_refactor = 0;
                continue;
            }
            stalled = 0;

            // Apply the bound flips (each one moves x_B by its column).
            for &(j, delta) in &flips {
                let wj = self.ftran(j)?;
                for k in 0..self.m {
                    let bk = self.basis[k];
                    self.x[bk] -= delta * wj[k];
                }
                self.flip(j);
                self.iterations += 1;
            }

            // Pivot: drive the leaving variable exactly to its violated bound.
            let (target, leave) = if viol > 0.0 {
                (self.ub[bi], VarState::AtUpper)
            } else {
                (self.lb[bi], VarState::AtLower)
            };
            let t_step = (self.x[bi] - target) / pivot;
            self.x[q] += t_step;
            for k in 0..self.m {
                let bk = self.basis[k];
                self.x[bk] -= t_step * w[k];
            }
            match self.swap_in(r, q, &w, leave)? {
                Swap::Eta => since_refactor += 1,
                Swap::Refactored => since_refactor = 0,
                // A spurious pivot: retry against exact factors. Applied
                // bound flips stay; the primal phase that follows dual
                // repair re-establishes optimality.
                Swap::Undone => {
                    since_refactor = 0;
                    self.iterations += 1;
                    continue;
                }
            }
            weights.pivot_update(
                r,
                pivot,
                w.iter().enumerate().filter(|&(_, &wk)| wk != 0.0).map(|(k, &wk)| (k, wk)),
            );
            self.iterations += 1;
            ray_verified = false;
        }
    }

    /// Runs the simplex loop on cost vector `cost` (minimization).
    ///
    /// `allow_unbounded == false` (phase 1) treats an unbounded ray as a
    /// numerical error since the phase-1 objective is bounded below by 0.
    ///
    /// Returns `Ok(None)` at optimality and `Ok(Some(tripped))` when the
    /// cooperative [`SolveBudget`] runs out mid-loop.
    fn optimize(
        &mut self,
        cost: &[f64],
        options: &SimplexOptions,
        allow_unbounded: bool,
        budget: &SolveBudget,
    ) -> Result<Option<BudgetTripped>, OptimError> {
        let mut pricing = options.pricing;
        let mut degenerate_run = 0usize;
        let mut since_refactor = 0usize;

        loop {
            // Phase-2 iterates are primal feasible, so the current point is
            // a usable incumbent at the pivot cap; phase-1 iterates are not.
            if let Some(tripped) = self.begin_pivot(budget, &mut since_refactor, allow_unbounded)? {
                return Ok(Some(tripped));
            }

            let y = self.duals(cost)?;

            // Entering variable selection: a nonbasic, non-fixed column
            // whose reduced cost improves in a direction it may move.
            let mut entering: Option<(usize, f64, f64)> = None; // (col, |d|, sigma)
            for j in 0..self.ncols {
                let d = match self.state[j] {
                    VarState::Basic(_) => continue,
                    VarState::AtLower | VarState::AtUpper if self.ub[j] <= self.lb[j] => continue,
                    _ => self.reduced_cost(j, cost, &y),
                };
                let (sig, mag) = match self.state[j] {
                    VarState::AtLower | VarState::FreeZero if d < -options.opt_tol => (1.0, -d),
                    VarState::AtUpper | VarState::FreeZero if d > options.opt_tol => (-1.0, d),
                    _ => continue,
                };
                match pricing {
                    Pricing::Bland => {
                        entering = Some((j, mag, sig));
                        break;
                    }
                    Pricing::Dantzig => {
                        if entering.is_none_or(|(_, best, _)| mag > best) {
                            entering = Some((j, mag, sig));
                        }
                    }
                }
            }

            let Some((q, _, sigma)) = entering else {
                return Ok(None); // optimal
            };

            let w = self.ftran(q)?;

            // Ratio test.
            let flip_dist = if self.lb[q].is_finite() && self.ub[q].is_finite() {
                self.ub[q] - self.lb[q]
            } else {
                f64::INFINITY
            };
            let mut t_best = flip_dist;
            let mut leave: Option<(usize, VarState)> = None; // (basic position, bound hit)
            let mut best_pivot = 0.0_f64;
            for k in 0..self.m {
                let delta = sigma * w[k];
                let bi = self.basis[k];
                // The basic value falls toward its lower bound or rises
                // toward its upper bound.
                let (bound, hit) = if delta > PIVOT_TOL {
                    (self.lb[bi], VarState::AtLower)
                } else if delta < -PIVOT_TOL {
                    (self.ub[bi], VarState::AtUpper)
                } else {
                    continue;
                };
                if !bound.is_finite() {
                    continue;
                }
                let t = (self.x[bi] - bound) / delta;
                if t < t_best - 1e-12 || (t < t_best + 1e-12 && delta.abs() > best_pivot) {
                    t_best = t.max(0.0);
                    leave = Some((k, hit));
                    best_pivot = delta.abs();
                }
            }

            if t_best.is_infinite() {
                return if allow_unbounded {
                    Err(OptimError::Unbounded)
                } else {
                    Err(OptimError::Numerical {
                        what: "phase-1 objective reported unbounded".to_string(),
                    })
                };
            }

            // Apply the step.
            self.x[q] += sigma * t_best;
            for k in 0..self.m {
                let bi = self.basis[k];
                self.x[bi] -= sigma * t_best * w[k];
            }

            match leave {
                // Bound flip: q moves across to its opposite bound.
                None => self.flip(q),
                Some((r, hit)) => match self.swap_in(r, q, &w, hit)? {
                    Swap::Eta => since_refactor += 1,
                    // After an undone swap the next pricing runs against
                    // exact factors.
                    Swap::Refactored | Swap::Undone => since_refactor = 0,
                },
            }

            self.iterations += 1;
            if t_best < 1e-10 {
                degenerate_run += 1;
                if degenerate_run >= DEGENERATE_SWITCH {
                    pricing = Pricing::Bland;
                }
            } else {
                degenerate_run = 0;
                pricing = options.pricing;
            }
        }
    }

    /// After phase 1: pivot basic artificials out where possible, pin all
    /// artificials to `[0,0]`.
    fn drive_out_artificials(&mut self) -> Result<(), OptimError> {
        for r in 0..self.m {
            let bv = self.basis[r];
            if !self.is_artificial(bv) {
                continue;
            }
            // Find a non-artificial nonbasic column with a usable pivot in row r.
            let limit = self.n_structural + self.m;
            let mut replacement: Option<(usize, Vec<f64>)> = None;
            for j in 0..limit {
                if matches!(self.state[j], VarState::Basic(_)) {
                    continue;
                }
                let w = self.ftran(j)?;
                if w[r].abs() > 1e-8 {
                    replacement = Some((j, w));
                    break;
                }
            }
            if let Some((j, w)) = replacement {
                // Degenerate pivot: the artificial sits at zero, so the swap
                // does not move the solution. An undone swap leaves the
                // artificial basic at zero, which the pinning below
                // tolerates.
                self.swap_in(r, j, &w, VarState::AtLower)?;
            }
        }
        for a in (self.n_structural + self.m)..self.ncols {
            self.lb[a] = 0.0;
            self.ub[a] = 0.0;
            if !matches!(self.state[a], VarState::Basic(_)) {
                self.x[a] = 0.0;
                self.state[a] = VarState::AtLower;
            }
        }
        Ok(())
    }

    /// The cold phase 1: installs the artificial basis and, when the
    /// artificials' sum is positive (it is zero, for one, on a model with
    /// no rows), minimizes it. A positive minimum is the infeasibility
    /// verdict. The artificials are then driven out.
    ///
    /// Returns `Ok(Some(tripped))` when the budget trips mid-phase.
    fn cold_phase1(
        &mut self,
        options: &SimplexOptions,
        budget: &SolveBudget,
    ) -> Result<Option<BudgetTripped>, OptimError> {
        self.install_artificials()?;
        let artificials = (self.n_structural + self.m)..self.ncols;
        if artificials.clone().map(|a| self.x[a]).sum::<f64>() > 0.0 {
            let mut phase1_cost = vec![0.0; self.ncols];
            phase1_cost[artificials.clone()].fill(1.0);
            if let Some(tripped) = self.optimize(&phase1_cost, options, false, budget)? {
                return Ok(Some(tripped));
            }
            let infeas: f64 = artificials.map(|a| self.x[a].max(0.0)).sum();
            if infeas > options.feas_tol {
                return Err(OptimError::Infeasible);
            }
        }
        self.drive_out_artificials()?;
        Ok(None)
    }
}

/// Solves a [`Model`]'s continuous relaxation (called via
/// [`Model::solve_with`]).
pub(crate) fn solve(lp: &Model, options: &SimplexOptions) -> Result<LpSolution, OptimError> {
    match solve_budgeted(lp, options, &SolveBudget::unlimited())? {
        SolveOutcome::Solved(s) => Ok(s),
        SolveOutcome::Partial(_) => unreachable!("an unlimited budget cannot trip"),
    }
}

/// Budgeted solve (called via [`Model::solve_budgeted`]). A budget trip
/// during phase 2 yields a *feasible* partial incumbent; a trip during
/// phase 1 yields `x: None` since no feasible point has been reached yet.
pub(crate) fn solve_budgeted(
    lp: &Model,
    options: &SimplexOptions,
    budget: &SolveBudget,
) -> Result<SolveOutcome<LpSolution>, OptimError> {
    solve_node(lp, None, options, None, budget).map(|(out, _)| out)
}

/// What a solve returns to branch and bound: the outcome, and for a
/// solved relaxation the factor of its canonical final basis.
pub(crate) type NodeSolve = (SolveOutcome<LpSolution>, Option<Arc<Lu>>);

/// [`solve_budgeted`] for one branch-and-bound node: `cols` are the
/// search's shared columns of `lp` (built here when `None`), and
/// `parent_factor` is the factor the solve that recorded
/// `options.warm` returned. Every node of a search patches only bounds
/// of one model, so the parent's final basis matrix and the one the
/// child installs are the same matrix and the child skips factoring it.
/// A solved node returns its own final factor for its children.
pub(crate) fn solve_node(
    lp: &Model,
    cols: Option<&Arc<Columns>>,
    options: &SimplexOptions,
    parent_factor: Option<Arc<Lu>>,
    budget: &SolveBudget,
) -> Result<NodeSolve, OptimError> {
    let _t = ed_obs::timer("optim.simplex");
    let built;
    let cols = match cols {
        Some(cols) => cols,
        None => {
            let _tb = ed_obs::timer("optim.simplex.build");
            built = Columns::build(lp);
            &built
        }
    };
    let out = solve_budgeted_inner(lp, cols, options, parent_factor, budget);
    if ed_obs::enabled() {
        let iterations = match &out {
            Ok((SolveOutcome::Solved(s), _)) => s.iterations,
            Ok((SolveOutcome::Partial(p), _)) => p.iterations,
            Err(_) => 0,
        };
        ed_obs::counter("optim.simplex.solves", 1);
        ed_obs::counter("optim.simplex.iterations", iterations as u64);
        if let Ok((SolveOutcome::Solved(s), _)) = &out {
            if s.warm_used {
                ed_obs::counter("optim.simplex.warm_starts", 1);
            } else if options.warm.is_some() {
                ed_obs::counter("optim.simplex.cold_restarts", 1);
            }
            if s.dual_iterations > 0 {
                ed_obs::counter("optim.simplex.dual_iterations", s.dual_iterations as u64);
            }
        }
    }
    out
}

/// Runs phase 1 only (the objective row is irrelevant to it) and returns
/// the canonical basis at its end plus the pivots spent — the shared warm
/// seed for sibling solves over the same constraint system that differ only
/// in their objective. A sibling installing this seed starts from exactly
/// the state a cold solve reaches after phase 1, so its warm answer is
/// bit-identical to its cold answer by construction.
///
/// A seed offered in [`SimplexOptions::warm`] (e.g. one recorded against
/// the same constraint matrix before an rhs change) is checked first: when
/// it installs and is primal feasible at this model's rhs and bounds, it
/// comes back unchanged with 0 pivots. Any other offer — wrong dimensions,
/// a singular basis matrix, a violated bound — is discarded and the cold
/// phase 1 runs as if none had been made, returning the same basis and
/// pivot count.
///
/// Returns `Ok(None)` when the budget trips mid-phase-1.
///
/// # Errors
///
/// [`OptimError::Infeasible`] when the constraint system has no feasible
/// point; numerical errors propagate.
pub fn phase1_basis(
    lp: &Model,
    options: &SimplexOptions,
    budget: &SolveBudget,
) -> Result<Option<(Basis, usize)>, OptimError> {
    let cols = Columns::build(lp);
    if let Some(offer) = &options.warm {
        let mut t = Tableau::new(lp, &cols);
        if t.install_warm(offer, None).is_ok() && t.primal_infeasibility() <= options.feas_tol {
            return Ok(Some((offer.clone(), 0)));
        }
    }
    let mut t = Tableau::new(lp, &cols);
    if t.cold_phase1(options, budget)?.is_some() {
        return Ok(None);
    }
    Ok(Some((t.snapshot_basis(), t.iterations)))
}

/// How a warm-start attempt resolved.
enum WarmStart {
    /// Basis installed and primal feasible (possibly after dual pivots):
    /// ready for phase 2.
    Ready { dual_iterations: usize },
    /// Budget tripped during the dual repair.
    Tripped(BudgetTripped),
    /// Unusable (dimension/factorization mismatch, neither primal nor dual
    /// feasible, or a numerical breakdown in the dual repair): restart cold.
    Reject,
}

/// Attempts to install and repair a warm basis on a fresh tableau,
/// installing `factor` as its basis factor when given (see
/// [`Tableau::install_warm`]).
///
/// # Errors
///
/// [`OptimError::Infeasible`] when the dual repair produces a dual ray on
/// freshly factored bases — a Farkas proof that the *problem* (not the
/// basis) is infeasible, accepted without a cold re-derivation. This is
/// the hot path for branch-and-bound children whose bound fix closes the
/// branch: the parent basis walks to the proof in a handful of dual
/// pivots instead of a full cold phase 1.
fn try_warm_start(
    t: &mut Tableau,
    warm: &Basis,
    factor: Option<Arc<Lu>>,
    cost: &[f64],
    options: &SimplexOptions,
    budget: &SolveBudget,
) -> Result<WarmStart, OptimError> {
    if t.install_warm(warm, factor).is_err() {
        return Ok(WarmStart::Reject);
    }
    if t.primal_infeasibility() <= options.feas_tol {
        return Ok(WarmStart::Ready { dual_iterations: 0 });
    }
    // Primal infeasible: only a dual-feasible basis is repairable.
    match t.is_dual_feasible(cost, options.opt_tol) {
        Ok(true) => {}
        Ok(false) | Err(_) => return Ok(WarmStart::Reject),
    }
    let before = t.iterations;
    match t.optimize_dual(cost, options, budget) {
        Ok(None) => Ok(WarmStart::Ready { dual_iterations: t.iterations - before }),
        Ok(Some(tripped)) => Ok(WarmStart::Tripped(tripped)),
        // A fresh-factor dual ray is a trusted infeasibility proof.
        Err(OptimError::Infeasible) => Err(OptimError::Infeasible),
        // Any other numerical breakdown: fall back to a cold solve.
        Err(_) => Ok(WarmStart::Reject),
    }
}

fn solve_budgeted_inner(
    lp: &Model,
    cols: &Arc<Columns>,
    options: &SimplexOptions,
    parent_factor: Option<Arc<Lu>>,
    budget: &SolveBudget,
) -> Result<NodeSolve, OptimError> {
    let out = solve_attempt(lp, cols, options, parent_factor, budget);
    // Fail-safe: a warm start must never make a solve fail that a cold
    // solve would finish. An accepted-then-repaired basis can still steer
    // phase 2 into numerical trouble (e.g. a singular refactorization on
    // a near-degenerate vertex the cold pivot path never visits); retry
    // once from scratch before reporting the failure. Infeasible /
    // unbounded verdicts are answers, not trouble, and stand as-is.
    if options.warm.is_some() && matches!(out, Err(OptimError::Numerical { .. })) {
        if ed_obs::enabled() {
            ed_obs::counter("optim.simplex.warm_numerical_fallbacks", 1);
        }
        let cold = SimplexOptions { warm: None, ..options.clone() };
        return solve_attempt(lp, cols, &cold, None, budget);
    }
    out
}

/// A solve stopped by its budget after `iterations` pivots, with the
/// incumbent point and objective when the iterate is primal feasible. It
/// hands no factor on.
fn tripped_solve(
    tripped: BudgetTripped,
    incumbent: Option<(Vec<f64>, f64)>,
    iterations: usize,
) -> NodeSolve {
    let (x, objective) = incumbent.unzip();
    let partial = Partial {
        tripped,
        x,
        objective,
        bound: None,
        iterations,
        nodes: 0,
        warm_starts: 0,
        cold_restarts: 0,
    };
    (SolveOutcome::Partial(partial), None)
}

fn solve_attempt(
    lp: &Model,
    cols: &Arc<Columns>,
    options: &SimplexOptions,
    parent_factor: Option<Arc<Lu>>,
    budget: &SolveBudget,
) -> Result<NodeSolve, OptimError> {
    let mut t = {
        let _t = ed_obs::timer("optim.simplex.build");
        Tableau::new(lp, cols)
    };
    let cost = t.cost.clone();
    let mut warm_used = false;
    let mut dual_iterations = 0usize;
    // The pivot count at which the basis was last canonicalized and
    // factored with `x_B` recomputed; every pivot and bound flip counts.
    let mut canonical_at = None;

    if let Some(warm) = &options.warm {
        let _tw = ed_obs::timer("optim.simplex.warm_install");
        match try_warm_start(&mut t, warm, parent_factor, &cost, options, budget)? {
            WarmStart::Ready { dual_iterations: d } => {
                warm_used = true;
                dual_iterations = d;
                if d == 0 {
                    canonical_at = Some(t.iterations);
                }
            }
            WarmStart::Tripped(tripped) => {
                // Mid-repair iterates are not primal feasible — same
                // semantics as a phase-1 trip.
                return Ok(tripped_solve(tripped, None, t.iterations));
            }
            WarmStart::Reject => {
                // Cold restart, keeping the pivots already spent in the
                // iteration accounting.
                let carried = t.iterations;
                t = Tableau::new(lp, cols);
                t.iterations = carried;
            }
        }
    }

    if !warm_used {
        let _tp = ed_obs::timer("optim.simplex.phase1");
        if let Some(tripped) = t.cold_phase1(options, budget)? {
            return Ok(tripped_solve(tripped, None, t.iterations));
        }
        // Canonical phase-2 start: the same state a warm sibling reaches by
        // installing this solve's phase-1 seed basis (see `phase1_basis`).
        t.canonicalize_basis();
        t.refactor()?;
        canonical_at = Some(t.iterations);
    }

    // Phase 2.
    let tripped = {
        let _t2 = ed_obs::timer("optim.simplex.phase2");
        t.optimize(&cost, options, true, budget)?
    };
    if let Some(tripped) = tripped {
        // Clean up the factorization if possible so the incumbent read below
        // is as accurate as the basis allows; a stale-but-feasible iterate is
        // still worth returning if refactorization fails here.
        let _ = t.refactor();
        let x: Vec<f64> = t.x[..t.n_structural].to_vec();
        let objective = lp.objective_value(&x);
        return Ok(tripped_solve(tripped, Some((x, objective)), t.iterations));
    }
    // Canonical final basis: any pivot path that ends at this basis set
    // reports bit-identical numbers (warm-vs-cold determinism). With no
    // pivot since the basis was last made canonical, its factor and `x_B`
    // already hold the bits this refactor would produce.
    let _tf = ed_obs::timer("optim.simplex.finish");
    if canonical_at != Some(t.iterations) {
        t.canonicalize_basis();
        t.refactor()?;
    }

    // Assemble the solution.
    let n = t.n_structural;
    let mut x: Vec<f64> = t.x[..n].to_vec();
    let y_min = t.duals(&cost)?;
    let sign = match lp.sense {
        Sense::Min => 1.0,
        Sense::Max => -1.0,
    };
    let duals: Vec<f64> = y_min.iter().map(|v| sign * v).collect();
    let reduced: Vec<f64> = (0..n)
        .map(|j| sign * t.reduced_cost(j, &cost, &y_min))
        .collect();
    let objective = lp.objective_value(&x);
    if let Some(seed) = options.inject_basis_fault {
        if n > 0 {
            // Corrupt one primal entry after the objective and duals were
            // read — the stale bookkeeping is exactly what an undetected
            // basis-memory fault looks like from the outside.
            let j = (seed as usize) % n;
            x[j] += 1.0 + 0.25 * x[j].abs();
        }
    }
    let solution = LpSolution {
        objective,
        x,
        duals,
        reduced_costs: reduced,
        iterations: t.iterations,
        basis: Some(t.snapshot_basis()),
        warm_used,
        dual_iterations,
    };
    // The canonical factor holds no eta, so this is the factor of the
    // basis `solution.basis` records, moved out for the children.
    let factor = t.factors.take().and_then(UpdatableLu::into_shared);
    Ok((SolveOutcome::Solved(solution), factor))
}

#[cfg(test)]
mod tests {
    use super::{phase1_basis, solve_node, try_warm_start, Columns, Swap, Tableau, VarState};
    use crate::budget::SolveBudget;
    use crate::lp::{Basis, BasisStatus, LpSolution, Pricing, Row, SimplexOptions};
    use crate::model::Model;
    use crate::OptimError;
    use ed_linalg::Lu;
    use std::sync::Arc;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    #[test]
    fn simple_max() {
        // max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0 -> x=4,y=0, obj 12
        let mut lp = Model::maximize();
        let x = lp.add_var(0.0, f64::INFINITY, 3.0);
        let y = lp.add_var(0.0, f64::INFINITY, 2.0);
        lp.add_row(Row::le(4.0).coef(x, 1.0).coef(y, 1.0));
        lp.add_row(Row::le(6.0).coef(x, 1.0).coef(y, 3.0));
        let s = lp.solve().unwrap();
        assert!(close(s.objective, 12.0), "obj={}", s.objective);
        assert!(close(s.x[0], 4.0) && close(s.x[1], 0.0));
    }

    #[test]
    fn equality_and_bounds() {
        // min 2p1 + p2 st p1 + p2 = 300, 0<=p1<=300, 0<=p2<=200
        let mut lp = Model::minimize();
        let p1 = lp.add_var(0.0, 300.0, 2.0);
        let p2 = lp.add_var(0.0, 200.0, 1.0);
        lp.add_row(Row::eq(300.0).coef(p1, 1.0).coef(p2, 1.0));
        let s = lp.solve().unwrap();
        assert!(close(s.x[0], 100.0) && close(s.x[1], 200.0));
        assert!(close(s.objective, 400.0));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = Model::minimize();
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(Row::ge(2.0).coef(x, 1.0));
        assert!(matches!(lp.solve(), Err(OptimError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = Model::maximize();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 0.0);
        lp.add_row(Row::ge(0.0).coef(x, 1.0).coef(y, -1.0));
        assert!(matches!(lp.solve(), Err(OptimError::Unbounded)));
    }

    #[test]
    fn free_variables() {
        // min |style| problem with free variable: min x st x >= -5 handled via row
        let mut lp = Model::minimize();
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_row(Row::ge(-5.0).coef(x, 1.0));
        let s = lp.solve().unwrap();
        assert!(close(s.x[0], -5.0));
    }

    #[test]
    fn negative_rhs() {
        // min x st -x <= -3  (i.e. x >= 3)
        let mut lp = Model::minimize();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(Row::le(-3.0).coef(x, -1.0));
        let s = lp.solve().unwrap();
        assert!(close(s.x[0], 3.0));
    }

    #[test]
    fn bound_flip_path() {
        // max x + y with x,y in [0, 1] and x + y <= 10: both flip to upper bound.
        let mut lp = Model::maximize();
        let x = lp.add_var(0.0, 1.0, 1.0);
        let y = lp.add_var(0.0, 1.0, 1.0);
        lp.add_row(Row::le(10.0).coef(x, 1.0).coef(y, 1.0));
        let s = lp.solve().unwrap();
        assert!(close(s.objective, 2.0));
    }

    #[test]
    fn fixed_variables_respected() {
        let mut lp = Model::minimize();
        let x = lp.add_var(2.0, 2.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(Row::ge(5.0).coef(x, 1.0).coef(y, 1.0));
        let s = lp.solve().unwrap();
        assert!(close(s.x[0], 2.0));
        assert!(close(s.x[1], 3.0));
    }

    #[test]
    fn duals_equality_shadow_price() {
        // min 2p1 + p2 st p1 + p2 = 300, p2 <= 200: marginal unit comes from
        // p1 at cost 2 -> dual of balance = 2.
        let mut lp = Model::minimize();
        let p1 = lp.add_var(0.0, 300.0, 2.0);
        let p2 = lp.add_var(0.0, 200.0, 1.0);
        lp.add_row(Row::eq(300.0).coef(p1, 1.0).coef(p2, 1.0));
        let s = lp.solve().unwrap();
        assert!(close(s.duals[0], 2.0), "dual={}", s.duals[0]);
    }

    #[test]
    fn zero_rows_puts_vars_at_best_bound() {
        let mut lp = Model::minimize();
        let _x = lp.add_var(-1.0, 5.0, 1.0);
        let _y = lp.add_var(-2.0, 3.0, -1.0);
        let s = lp.solve().unwrap();
        assert!(close(s.x[0], -1.0) && close(s.x[1], 3.0));
    }

    #[test]
    fn bland_pricing_agrees_with_dantzig() {
        // Beale's classic cycling example (min form); optimum -0.05 at
        // x = (1/25, 0, 1, 0).
        let build = || {
            let mut lp = Model::minimize();
            let x1 = lp.add_var(0.0, f64::INFINITY, -0.75);
            let x2 = lp.add_var(0.0, f64::INFINITY, 150.0);
            let x3 = lp.add_var(0.0, f64::INFINITY, -0.02);
            let x4 = lp.add_var(0.0, f64::INFINITY, 6.0);
            lp.add_row(Row::le(0.0).coef(x1, 0.25).coef(x2, -60.0).coef(x3, -0.04).coef(x4, 9.0));
            lp.add_row(Row::le(0.0).coef(x1, 0.5).coef(x2, -90.0).coef(x3, -0.02).coef(x4, 3.0));
            lp.add_row(Row::le(1.0).coef(x3, 1.0));
            lp
        };
        let a = build().solve().unwrap().objective;
        let opts = SimplexOptions { pricing: Pricing::Bland, ..Default::default() };
        let b = build().solve_with(&opts).unwrap().objective;
        assert!(close(a, b), "{a} vs {b}");
        assert!(close(a, -0.05), "expected Beale optimum -0.05, got {a}");
    }

    #[test]
    fn redundant_rows_ok() {
        let mut lp = Model::minimize();
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(Row::eq(4.0).coef(x, 1.0).coef(y, 1.0));
        lp.add_row(Row::eq(8.0).coef(x, 2.0).coef(y, 2.0)); // redundant duplicate
        let s = lp.solve().unwrap();
        assert!(close(s.x[0] + s.x[1], 4.0));
    }

    #[test]
    fn larger_transportation_problem() {
        // 3 plants x 4 markets transportation LP with known optimum.
        let supply = [35.0, 50.0, 40.0];
        let demand = [45.0, 20.0, 30.0, 30.0];
        let cost = [
            [8.0, 6.0, 10.0, 9.0],
            [9.0, 12.0, 13.0, 7.0],
            [14.0, 9.0, 16.0, 5.0],
        ];
        let mut lp = Model::minimize();
        let mut v = vec![];
        for i in 0..3 {
            for j in 0..4 {
                v.push(lp.add_var(0.0, f64::INFINITY, cost[i][j]));
            }
        }
        for i in 0..3 {
            let mut row = Row::le(supply[i]);
            for j in 0..4 {
                row = row.coef(v[i * 4 + j], 1.0);
            }
            lp.add_row(row);
        }
        for j in 0..4 {
            let mut row = Row::ge(demand[j]);
            for i in 0..3 {
                row = row.coef(v[i * 4 + j], 1.0);
            }
            lp.add_row(row);
        }
        let s = lp.solve().unwrap();
        assert!(close(s.objective, 1020.0), "obj={}", s.objective);
    }

    /// A 3 × 4 transportation LP with the supplies and demands of
    /// `larger_transportation_problem`, every market demand scaled by
    /// `scale` (an rhs-only change).
    fn transportation(scale: f64) -> Model {
        let supply = [35.0, 50.0, 40.0];
        let demand = [45.0, 20.0, 30.0, 30.0];
        let mut lp = Model::minimize();
        let v: Vec<_> = (0..12).map(|k| lp.add_var(0.0, f64::INFINITY, 5.0 + k as f64)).collect();
        for (i, &s) in supply.iter().enumerate() {
            lp.add_row(Row::le(s).coefs((0..4).map(|j| (v[i * 4 + j], 1.0))));
        }
        for (j, &d) in demand.iter().enumerate() {
            lp.add_row(Row::ge(scale * d).coefs((0..3).map(|i| (v[i * 4 + j], 1.0))));
        }
        lp
    }

    fn seed(lp: &Model, offer: Option<Basis>) -> (Basis, usize) {
        let options = SimplexOptions { warm: offer, ..Default::default() };
        phase1_basis(lp, &options, &SolveBudget::unlimited()).unwrap().unwrap()
    }

    /// An offered seed comes back unchanged with 0 pivots when it is primal
    /// feasible; every other offer yields exactly the cold result.
    #[test]
    fn phase1_basis_keeps_only_a_feasible_offer() {
        let lp = transportation(1.0);
        let cold = seed(&lp, None);
        assert!(cold.1 > 0, "the cold phase 1 must pivot for this check to mean anything");
        assert_eq!(seed(&lp, Some(cold.0.clone())), (cold.0.clone(), 0));

        // Recorded before an rhs shift that makes it primal infeasible.
        let stale = seed(&transportation(0.5), None).0;
        let mut t = Tableau::new(&lp, &Columns::build(&lp));
        t.install_warm(&stale, None).unwrap();
        assert!(t.primal_infeasibility() > 1e-6, "the rhs shift must make the offer infeasible");
        assert_eq!(seed(&lp, Some(stale)), cold);

        let mut small = Model::minimize();
        let x = small.add_var(0.0, 10.0, 1.0);
        small.add_row(Row::ge(1.0).coef(x, 1.0));
        assert_eq!(seed(&lp, Some(seed(&small, None).0)), cold, "wrong dimensions");

        // x00, x01, x10 and x11 close a cycle of the transportation graph
        // (x00 − x01 − x10 + x11 = 0), so with the slacks of rows 2, 5 and
        // 6 they make a correctly sized but singular basis matrix.
        let mut statuses = vec![BasisStatus::AtLower; 12];
        for j in [0, 1, 4, 5] {
            statuses[j] = BasisStatus::Basic;
        }
        statuses.extend([
            BasisStatus::AtLower,
            BasisStatus::AtLower,
            BasisStatus::Basic,
            BasisStatus::AtUpper,
            BasisStatus::AtUpper,
            BasisStatus::Basic,
            BasisStatus::Basic,
        ]);
        let singular = Basis { statuses, art_rows: Vec::new() };
        assert!(singular.dims_match(lp.num_vars(), lp.num_rows()));
        assert!(Tableau::new(&lp, &Columns::build(&lp)).install_warm(&singular, None).is_err());
        assert_eq!(seed(&lp, Some(singular)), cold, "singular basis matrix");
    }

    /// The 8-dimensional Klee–Minty cube: max Σ 2^(n−j) x_j subject to
    /// Σ_{j<i} 2^(i−j+1) x_j + x_i <= 5^i, x >= 0. Dantzig pricing visits
    /// all 2^8 vertices, so the solve crosses a periodic refactorization;
    /// the LU+eta basis must still land on the optimum x_8 = 5^8.
    #[test]
    fn klee_minty_cube_crosses_a_refactorization() {
        let n = 8;
        let mut lp = Model::maximize();
        let x: Vec<_> =
            (1..=n).map(|j| lp.add_var(0.0, f64::INFINITY, 2f64.powi(n - j))).collect();
        for i in 1..=n {
            let row = (1..i).fold(Row::le(5f64.powi(i)), |row, j| {
                row.coef(x[j as usize - 1], 2f64.powi(i - j + 1))
            });
            lp.add_row(row.coef(x[i as usize - 1], 1.0));
        }
        let s = lp.solve().unwrap();
        assert!(s.iterations > super::REFACTOR_INTERVAL, "{} pivots", s.iterations);
        assert!(close(s.objective, 5f64.powi(n)), "{s:?}");
    }

    /// `swap_in`'s three outcomes on a two-row tableau whose starting basis
    /// is the two artificials: an ordinary column takes an eta; a column
    /// whose pivot entry is below the eta guard forces a refactorization
    /// of a basis that still factors; a column in the span of the basic
    /// column that stays makes a singular basis, and the swap is undone.
    #[test]
    fn swap_in_records_refactors_or_undoes() {
        let mut lp = Model::minimize();
        let ordinary = lp.add_var(0.0, 1.0, 0.0);
        let tiny = lp.add_var(0.0, 1.0, 0.0);
        let spanned = lp.add_var(0.0, 1.0, 0.0);
        lp.add_row(Row::eq(3.0).coef(ordinary, 1.0).coef(tiny, 1e-11));
        lp.add_row(Row::eq(-2.0).coef(ordinary, 0.5).coef(tiny, 1.0).coef(spanned, 2.0));
        let cols = Columns::build(&lp);
        let fresh = || {
            let mut t = Tableau::new(&lp, &cols);
            t.install_artificials().unwrap();
            t
        };
        let swap = |t: &mut Tableau, q: usize| {
            let w = t.ftran(q).unwrap();
            t.swap_in(0, q, &w, VarState::AtLower).unwrap()
        };

        let mut t = fresh();
        assert_eq!(swap(&mut t, ordinary.index()), Swap::Eta);
        assert_eq!(t.factors.as_ref().unwrap().num_updates(), 1);

        let mut t = fresh();
        assert!(t.ftran(tiny.index()).unwrap()[0].abs() <= super::PIVOT_TOL);
        assert_eq!(swap(&mut t, tiny.index()), Swap::Refactored);
        assert_eq!(t.basis[0], tiny.index());
        assert_eq!(t.factors.as_ref().unwrap().num_updates(), 0);

        let mut t = fresh();
        let (basis, state, x) = (t.basis.clone(), t.state.clone(), t.x.clone());
        // The caller's step has already moved x_q off its bound.
        t.x[spanned.index()] += 0.5;
        assert_eq!(swap(&mut t, spanned.index()), Swap::Undone);
        assert_eq!((&t.basis, &t.state), (&basis, &state));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t.x), bits(&x));
        // x_B solves B x_B = b − N x_N through fresh factors.
        assert_eq!(t.factors.as_ref().unwrap().num_updates(), 0);
        t.recompute_basic().unwrap();
        assert_eq!(bits(&t.x), bits(&x));
    }

    /// max 2x + 3y + z over x ∈ [0, 3], y, z ∈ [0, 2] with x + y + z <= 4,
    /// x + y >= 2.5 and the pair x ⟂ y. The relaxation sets x = y = 2, so
    /// the pair is violated. Fixing y = 0 leaves a feasible child (x = 3,
    /// z = 1); fixing x = 0 an infeasible one (x + y <= 2 < 2.5).
    fn violated_pair() -> Model {
        let mut m = Model::maximize();
        let x = m.add_var(0.0, 3.0, 2.0);
        let y = m.add_var(0.0, 2.0, 3.0);
        let z = m.add_var(0.0, 2.0, 1.0);
        m.add_row(Row::le(4.0).coef(x, 1.0).coef(y, 1.0).coef(z, 1.0));
        m.add_row(Row::ge(2.5).coef(x, 1.0).coef(y, 1.0));
        m.add_pair(x, y);
        m
    }

    /// Solves `parent`'s relaxation as a branch-and-bound node: its
    /// columns, final basis and the factor it hands its children.
    fn solve_parent(parent: &Model) -> (Arc<Columns>, Basis, Arc<Lu>) {
        let cols = Columns::build(parent);
        let budget = SolveBudget::unlimited();
        let (out, factor) =
            solve_node(parent, Some(&cols), &SimplexOptions::default(), None, &budget).unwrap();
        let basis = out.solved().unwrap().basis.unwrap();
        (cols, basis, factor.expect("a solved relaxation hands its final factor on"))
    }

    /// Solves `child` warm from `parent`'s final basis twice: installing
    /// the factor the parent's solve handed over, and factoring afresh.
    fn handed_and_fresh(parent: &Model, child: &Model) -> [Result<LpSolution, OptimError>; 2] {
        let (cols, basis, factor) = solve_parent(parent);
        let options = SimplexOptions { warm: Some(basis), ..Default::default() };
        [Some(factor), None].map(|f| {
            solve_node(child, Some(&cols), &options, f, &SolveBudget::unlimited())
                .map(|(out, _)| out.solved().unwrap())
        })
    }

    fn assert_same_bits(handed: &LpSolution, fresh: &LpSolution) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&handed.x), bits(&fresh.x), "x");
        assert_eq!(bits(&handed.duals), bits(&fresh.duals), "duals");
        assert_eq!(bits(&handed.reduced_costs), bits(&fresh.reduced_costs), "reduced costs");
        assert_eq!(handed.objective.to_bits(), fresh.objective.to_bits(), "objective");
        assert_eq!(handed.iterations, fresh.iterations, "iterations");
        assert_eq!(handed.dual_iterations, fresh.dual_iterations, "dual iterations");
        assert_eq!(handed.basis, fresh.basis, "basis");
    }

    /// A child that installs its parent's handed-over factor solves to the
    /// bits of one that factors the same basis afresh, on every path.
    #[test]
    fn handed_over_factor_matches_a_fresh_factorization() {
        let parent = violated_pair();
        let [x, y, z] = [0, 1, 2].map(|j| parent.var_ids()[j]);

        // (a) y = 0: the parent basis puts x at 4 > 3, and the dual
        // simplex repairs it. A bound-only change keeps the basis dual
        // feasible through the repair, so phase 2 prices out at once.
        let mut child = parent.clone();
        child.set_bounds(y, 0.0, 0.0);
        let [handed, fresh] = handed_and_fresh(&parent, &child).map(Result::unwrap);
        assert!(handed.warm_used && handed.dual_iterations > 0, "{handed:?}");
        assert_same_bits(&handed, &fresh);

        // Phase 2 from the handed-over factor: the same columns and
        // bounds under another objective keep the parent basis primal
        // feasible, and the primal simplex pivots away from it.
        let mut sibling = parent.clone();
        sibling.set_objective_coef(z, 5.0);
        let [handed, fresh] = handed_and_fresh(&parent, &sibling).map(Result::unwrap);
        assert!(handed.warm_used && handed.dual_iterations == 0, "{handed:?}");
        assert!(handed.iterations > 0, "phase 2 must pivot: {handed:?}");
        assert_same_bits(&handed, &fresh);

        // (b) x = 0: infeasible, from either factor ...
        let mut child = parent.clone();
        child.set_bounds(x, 0.0, 0.0);
        for out in handed_and_fresh(&parent, &child) {
            assert!(matches!(out, Err(OptimError::Infeasible)), "{out:?}");
        }
        // ... and the verdict is the warm start's dual ray, not a cold
        // phase 1.
        let (cols, basis, factor) = solve_parent(&parent);
        for f in [Some(factor), None] {
            let mut t = Tableau::new(&child, &cols);
            let cost = t.cost.clone();
            let options = SimplexOptions::default();
            let out = try_warm_start(&mut t, &basis, f, &cost, &options, &SolveBudget::unlimited());
            assert!(matches!(out, Err(OptimError::Infeasible)));
            assert!(t.iterations > 0, "the ray is found after dual pivots");
        }
    }
}
