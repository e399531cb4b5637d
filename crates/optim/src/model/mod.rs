//! The unified sparse optimization model IR.
//!
//! [`Model`] is the one constraint-storage type behind every solver family
//! in this crate. It stores:
//!
//! - **Sparse constraint columns.** The constraint matrix lives
//!   column-major as jagged `(row, coef)` lists, shared
//!   copy-on-write across clones so branch-and-bound nodes and per-subproblem
//!   objective patches never copy row storage.
//! - **Variable bounds and row senses/rhs.**
//! - **Capability flags** that turn the same data structure into each
//!   problem class: a quadratic-term list ([`Model::add_quad`]) makes it a
//!   QP, integrality marks ([`Model::set_integer`]) make it a MILP, and
//!   complementarity pairs ([`Model::add_pair`]) make it an MPEC.
//!
//! The [`presolve`] submodule reduces a linear model with complementarity
//! pairs (Algorithm 1's KKT model) before solving and maps points and
//! objectives back exactly; the [`solver`] submodule defines the
//! [`Solver`] trait implemented by the continuous solver families.
//!
//! [`Solver`]: solver::Solver

pub mod presolve;
pub mod solver;

pub use presolve::{Postsolve, PresolveStats, Presolved};
pub use solver::{ActiveSetSolver, IpmSolver, SimplexSolver, Solution, Solver};

use crate::budget::{SolveBudget, SolveOutcome};
use crate::lp::simplex::{self, SimplexOptions};
use crate::OptimError;
use std::sync::Arc;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Min,
    /// Maximize the objective.
    Max,
}

/// Relational sense of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSense {
    /// `a'x <= rhs`
    Le,
    /// `a'x >= rhs`
    Ge,
    /// `a'x == rhs`
    Eq,
}

/// Opaque handle to a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Zero-based column index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Opaque handle to a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub(crate) usize);

impl RowId {
    /// Zero-based row index of the constraint.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A constraint row under construction, used with [`Model::add_row`].
///
/// # Example
///
/// ```
/// use ed_optim::lp::Row;
/// use ed_optim::Model;
///
/// let mut lp = Model::minimize();
/// let x = lp.add_var(0.0, 1.0, 1.0);
/// let y = lp.add_var(0.0, 1.0, 1.0);
/// lp.add_row(Row::ge(1.0).coef(x, 1.0).coef(y, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Row {
    pub(crate) sense: RowSense,
    pub(crate) rhs: f64,
    pub(crate) coeffs: Vec<(VarId, f64)>,
}

impl Row {
    /// Starts a `<= rhs` row.
    pub fn le(rhs: f64) -> Row {
        Row { sense: RowSense::Le, rhs, coeffs: Vec::new() }
    }

    /// Starts a `>= rhs` row.
    pub fn ge(rhs: f64) -> Row {
        Row { sense: RowSense::Ge, rhs, coeffs: Vec::new() }
    }

    /// Starts an `== rhs` row.
    pub fn eq(rhs: f64) -> Row {
        Row { sense: RowSense::Eq, rhs, coeffs: Vec::new() }
    }

    /// Adds (accumulates) a coefficient for `var`.
    pub fn coef(mut self, var: VarId, value: f64) -> Row {
        if value != 0.0 {
            self.coeffs.push((var, value));
        }
        self
    }

    /// Adds many coefficients at once.
    pub fn coefs<I: IntoIterator<Item = (VarId, f64)>>(mut self, iter: I) -> Row {
        for (v, c) in iter {
            if c != 0.0 {
                self.coeffs.push((v, c));
            }
        }
        self
    }
}

/// Optimal solution of an LP (infeasible and unbounded outcomes are
/// reported through [`OptimError`]).
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective value in the problem's own sense.
    pub objective: f64,
    /// Primal values for the structural variables, indexed by [`VarId`].
    pub x: Vec<f64>,
    /// Row duals `y` indexed by [`RowId`].
    ///
    /// Convention: internally every row is written `a'x + s = rhs`, and
    /// `duals[i]` is the simplex multiplier of that equality **for the
    /// minimization form** of the problem. For a maximization problem the
    /// sign is flipped so that duals refer to the stated objective. For an
    /// `Eq` row this is the ordinary Lagrange multiplier.
    pub duals: Vec<f64>,
    /// Reduced costs of the structural variables (minimization form,
    /// sign-flipped for maximization problems like `duals`).
    pub reduced_costs: Vec<f64>,
    /// Total simplex iterations across both phases.
    pub iterations: usize,
    /// The optimal basis, reusable as a warm start for a sibling model
    /// (same constraints, patched objective) or a child model (same
    /// objective, patched bounds). `None` when the solution was mapped
    /// through postsolve — a reduced-space basis does not transfer to the
    /// full space.
    pub basis: Option<crate::lp::basis::Basis>,
    /// Whether a warm-start basis was actually installed for this solve
    /// (`false` also when one was supplied but rejected — a cold restart).
    pub warm_used: bool,
    /// Dual simplex pivots spent restoring primal feasibility after a
    /// warm start (0 on cold or primal-feasible-warm solves).
    pub dual_iterations: usize,
}

/// The unified sparse optimization model: bounded variables, sparse
/// constraint columns, and optional quadratic / integrality /
/// complementarity annotations. See the [module docs](self).
///
/// Build with [`Model::minimize`]/[`Model::maximize`], add variables and
/// rows, then call [`Model::solve`] (continuous linear relaxation) or hand
/// the model to a capability-aware [`solver::Solver`] (QP solvers, or
/// branch and bound for integrality marks and complementarity pairs).
///
/// # Example
///
/// ```
/// use ed_optim::lp::Row;
/// use ed_optim::Model;
///
/// # fn main() -> Result<(), ed_optim::OptimError> {
/// // Economic-dispatch-flavored toy: two generators serve 300 MW,
/// // generator 1 twice as expensive as generator 2.
/// let mut lp = Model::minimize();
/// let p1 = lp.add_var(0.0, 300.0, 2.0);
/// let p2 = lp.add_var(0.0, 200.0, 1.0);
/// lp.add_row(Row::eq(300.0).coef(p1, 1.0).coef(p2, 1.0));
/// let sol = lp.solve()?;
/// assert_eq!(sol.x, vec![100.0, 200.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) lb: Vec<f64>,
    pub(crate) ub: Vec<f64>,
    pub(crate) obj: Vec<f64>,
    /// Constraint columns: `cols[j]` lists `(row, coef)` entries of column
    /// `j` in increasing row order (rows are appended in order and each row
    /// contributes at most a few entries per column; duplicates within a
    /// `(row, col)` cell are kept in insertion order and coalesced by the
    /// consumers). Shared copy-on-write: clones that only patch bounds or
    /// the objective never copy the matrix.
    pub(crate) cols: Arc<Vec<Vec<(usize, f64)>>>,
    pub(crate) row_sense: Vec<RowSense>,
    pub(crate) rhs: Vec<f64>,
    /// Quadratic objective terms as entries of a symmetric matrix `H`
    /// (both `(i, j)` and `(j, i)` stored for off-diagonal terms); the
    /// objective is `0.5·x'Hx + c'x`.
    pub(crate) quad: Vec<(usize, usize, f64)>,
    /// Variables constrained to integer values (branch-and-bound honors
    /// these; continuous solves ignore them).
    pub(crate) integers: Vec<VarId>,
    /// Complementarity pairs `x_a · x_b = 0` (MPEC branching honors these;
    /// other solvers ignore them). Presolve never eliminates pair columns.
    pub(crate) pairs: Vec<(VarId, VarId)>,
}

impl Model {
    fn empty(sense: Sense) -> Model {
        Model {
            sense,
            lb: Vec::new(),
            ub: Vec::new(),
            obj: Vec::new(),
            cols: Arc::new(Vec::new()),
            row_sense: Vec::new(),
            rhs: Vec::new(),
            quad: Vec::new(),
            integers: Vec::new(),
            pairs: Vec::new(),
        }
    }

    /// Creates an empty minimization problem.
    pub fn minimize() -> Model {
        Model::empty(Sense::Min)
    }

    /// Creates an empty maximization problem.
    pub fn maximize() -> Model {
        Model::empty(Sense::Max)
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a variable with bounds `[lb, ub]` and objective coefficient `obj`.
    ///
    /// Use `f64::NEG_INFINITY` / `f64::INFINITY` for free bounds.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        self.lb.push(lb);
        self.ub.push(ub);
        self.obj.push(obj);
        Arc::make_mut(&mut self.cols).push(Vec::new());
        VarId(self.lb.len() - 1)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.lb.len()
    }

    /// Handles of all variables, in creation order.
    pub fn var_ids(&self) -> Vec<VarId> {
        (0..self.num_vars()).map(VarId).collect()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rhs.len()
    }

    /// Number of stored constraint-matrix nonzeros.
    pub fn num_nonzeros(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Adds a constraint row.
    ///
    /// # Panics
    ///
    /// Panics if the row references a variable that was not created by this
    /// problem (index out of range).
    pub fn add_row(&mut self, row: Row) -> RowId {
        for &(v, _) in &row.coeffs {
            assert!(v.0 < self.num_vars(), "row references unknown variable {v:?}");
        }
        let i = self.rhs.len();
        let cols = Arc::make_mut(&mut self.cols);
        for &(v, c) in &row.coeffs {
            cols[v.0].push((i, c));
        }
        self.row_sense.push(row.sense);
        self.rhs.push(row.rhs);
        RowId(i)
    }

    /// Overwrites the bounds of `var`.
    pub fn set_bounds(&mut self, var: VarId, lb: f64, ub: f64) {
        self.lb[var.0] = lb;
        self.ub[var.0] = ub;
    }

    /// Current bounds of `var`.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.lb[var.0], self.ub[var.0])
    }

    /// Overwrites the objective coefficient of `var`.
    pub fn set_objective_coef(&mut self, var: VarId, obj: f64) {
        self.obj[var.0] = obj;
    }

    /// Clears the linear objective (all coefficients to zero). Quadratic
    /// terms, if any, are untouched.
    pub fn clear_objective(&mut self) {
        self.obj.iter_mut().for_each(|c| *c = 0.0);
    }

    /// Changes the optimization sense.
    pub fn set_sense(&mut self, sense: Sense) {
        self.sense = sense;
    }

    /// Accumulates a quadratic objective entry `H[i][j] += value`. The
    /// objective is `0.5·x'Hx + c'x`; callers are responsible for storing
    /// `H` symmetrically (add both `(i, j)` and `(j, i)` for off-diagonal
    /// terms).
    ///
    /// # Panics
    ///
    /// Panics if either variable is unknown.
    pub fn add_quad(&mut self, i: VarId, j: VarId, value: f64) {
        assert!(i.0 < self.num_vars() && j.0 < self.num_vars(), "quad term on unknown variable");
        if value != 0.0 {
            self.quad.push((i.0, j.0, value));
        }
    }

    /// The stored quadratic terms as `(row, col, value)` entries of `H`.
    pub fn quad_terms(&self) -> &[(usize, usize, f64)] {
        &self.quad
    }

    /// `true` when the model carries quadratic objective terms.
    pub fn is_quadratic(&self) -> bool {
        !self.quad.is_empty()
    }

    /// Marks a variable as integer-constrained.
    ///
    /// # Panics
    ///
    /// Panics if the variable is unknown.
    pub fn set_integer(&mut self, var: VarId) {
        assert!(var.0 < self.num_vars(), "integer mark on unknown variable");
        if !self.integers.contains(&var) {
            self.integers.push(var);
        }
    }

    /// The integer-constrained variables, in marking order.
    pub fn integers(&self) -> &[VarId] {
        &self.integers
    }

    /// Adds a complementarity pair `a·b = 0`.
    ///
    /// # Panics
    ///
    /// Panics if either variable is unknown.
    pub fn add_pair(&mut self, a: VarId, b: VarId) {
        assert!(a.0 < self.num_vars() && b.0 < self.num_vars(), "pair on unknown variable");
        self.pairs.push((a, b));
    }

    /// The complementarity pairs.
    pub fn pairs(&self) -> &[(VarId, VarId)] {
        &self.pairs
    }

    /// A clone with the combinatorial side conditions — integer marks and
    /// complementarity pairs — dropped. This is the model each LP/QP node
    /// relaxation actually solves, and the model a relaxation solution
    /// should be *certified* against: auditing a root relaxation against
    /// the paired model would report the (expected) pair violations
    /// instead of solver faults. Bounds, rows, and quadratic terms are
    /// untouched; the matrix is shared copy-on-write, so this is cheap.
    #[must_use]
    pub fn continuous_relaxation(&self) -> Model {
        let mut relaxed = self.clone();
        relaxed.integers.clear();
        relaxed.pairs.clear();
        relaxed
    }

    /// The stored entries of constraint column `j` as `(row, coef)` pairs in
    /// increasing row order (duplicates possible; consumers coalesce).
    pub(crate) fn col(&self, j: usize) -> &[(usize, f64)] {
        &self.cols[j]
    }

    /// Row-major view of the constraint matrix: `rows[i]` lists
    /// `(col, coef)` entries in increasing column order. `O(nnz)` — built on
    /// demand for presolve and the dense QP view, not stored.
    pub(crate) fn rows_view(&self) -> Vec<Vec<(usize, f64)>> {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_rows()];
        for (j, col) in self.cols.iter().enumerate() {
            for &(i, c) in col {
                rows[i].push((j, c));
            }
        }
        rows
    }

    /// Validates model consistency: bounds ordered and non-NaN, finite rhs
    /// and coefficients, finite bounds on integer variables, and
    /// complementarity pairs whose variables admit zero. This is the one
    /// validation path shared by every solver family.
    ///
    /// # Errors
    ///
    /// Returns [`OptimError::InvalidModel`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), OptimError> {
        for (i, (&l, &u)) in self.lb.iter().zip(&self.ub).enumerate() {
            if l > u {
                return Err(OptimError::InvalidModel {
                    what: format!("variable {i} has lb {l} > ub {u}"),
                });
            }
            if l.is_nan() || u.is_nan() {
                return Err(OptimError::InvalidModel { what: format!("variable {i} has NaN bound") });
            }
        }
        for (i, &r) in self.rhs.iter().enumerate() {
            if !r.is_finite() {
                return Err(OptimError::InvalidModel { what: format!("row {i} has non-finite rhs") });
            }
        }
        for col in self.cols.iter() {
            for &(i, c) in col {
                if !c.is_finite() {
                    return Err(OptimError::InvalidModel {
                        what: format!("row {i} has non-finite coefficient"),
                    });
                }
            }
        }
        for &(_, _, q) in &self.quad {
            if !q.is_finite() {
                return Err(OptimError::InvalidModel {
                    what: "non-finite quadratic term".to_string(),
                });
            }
        }
        for &v in &self.integers {
            let (l, u) = (self.lb[v.0], self.ub[v.0]);
            if !l.is_finite() || !u.is_finite() {
                return Err(OptimError::InvalidModel {
                    what: format!("integer variable {} must have finite bounds [{l}, {u}]", v.0),
                });
            }
        }
        for &(a, b) in &self.pairs {
            for v in [a, b] {
                if self.lb[v.0] > 0.0 || self.ub[v.0] < 0.0 {
                    return Err(OptimError::InvalidModel {
                        what: format!(
                            "complementarity variable {} cannot be zero within its bounds",
                            v.0
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Solves the continuous linear relaxation with default options
    /// (quadratic terms, integer marks, and pairs are ignored — use the
    /// capability-aware wrappers for those).
    ///
    /// # Errors
    ///
    /// - [`OptimError::Infeasible`] if no feasible point exists.
    /// - [`OptimError::Unbounded`] if the objective is unbounded.
    /// - [`OptimError::IterationLimit`] / [`OptimError::Numerical`] on solver
    ///   trouble.
    pub fn solve(&self) -> Result<LpSolution, OptimError> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Solves with explicit simplex options.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_with(&self, options: &SimplexOptions) -> Result<LpSolution, OptimError> {
        self.validate()?;
        simplex::solve(self, options)
    }

    /// Solves under a cooperative [`SolveBudget`]. Exhausting the budget is
    /// not an error: the solver returns [`SolveOutcome::Partial`] carrying
    /// the best feasible iterate reached (phase 2) or `x: None` if the trip
    /// happened before feasibility (phase 1), plus which budget tripped.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`], except the iteration budget in
    /// `budget` trips to a partial outcome instead of
    /// [`OptimError::IterationLimit`].
    pub fn solve_budgeted(
        &self,
        options: &SimplexOptions,
        budget: &SolveBudget,
    ) -> Result<SolveOutcome<LpSolution>, OptimError> {
        self.validate()?;
        simplex::solve_budgeted(self, options, budget)
    }

    /// Evaluates the objective at a point (in the problem's own sense),
    /// including quadratic terms when present.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        let linear: f64 = self.obj.iter().zip(x).map(|(c, v)| c * v).sum();
        if self.quad.is_empty() {
            return linear;
        }
        let quad: f64 = self.quad.iter().map(|&(i, j, q)| q * x[i] * x[j]).sum();
        linear + 0.5 * quad
    }

    /// Row activity `a_i'x` for each row at a point.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn row_activities(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.num_vars());
        let rows = self.rows_view();
        rows.iter().map(|r| r.iter().map(|&(j, c)| c * x[j]).sum()).collect()
    }

    /// Maximum constraint/bound violation of a point (0 means feasible).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn infeasibility(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0_f64;
        for (i, &xi) in x.iter().enumerate() {
            worst = worst.max(self.lb[i] - xi).max(xi - self.ub[i]);
        }
        for ((&sense, &rhs), act) in
            self.row_sense.iter().zip(&self.rhs).zip(self.row_activities(x))
        {
            let v = match sense {
                RowSense::Le => act - rhs,
                RowSense::Ge => rhs - act,
                RowSense::Eq => (act - rhs).abs(),
            };
            worst = worst.max(v);
        }
        worst.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let mut lp = Model::minimize();
        let x = lp.add_var(0.0, 1.0, 2.0);
        let y = lp.add_var(-1.0, 1.0, -1.0);
        let r = lp.add_row(Row::le(3.0).coef(x, 1.0).coef(y, 2.0));
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_rows(), 1);
        assert_eq!(lp.num_nonzeros(), 2);
        assert_eq!(r.index(), 0);
        assert_eq!(lp.bounds(y), (-1.0, 1.0));
    }

    #[test]
    fn validate_catches_bad_bounds() {
        let mut lp = Model::minimize();
        let x = lp.add_var(1.0, 0.0, 0.0);
        let _ = x;
        assert!(matches!(lp.validate(), Err(OptimError::InvalidModel { .. })));
    }

    #[test]
    fn validate_catches_unbounded_integer_and_bad_pair() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        m.set_integer(x);
        assert!(matches!(m.validate(), Err(OptimError::InvalidModel { .. })));

        let mut m = Model::minimize();
        let a = m.add_var(1.0, 2.0, 0.0); // cannot be zero
        let b = m.add_var(0.0, 1.0, 0.0);
        m.add_pair(a, b);
        assert!(matches!(m.validate(), Err(OptimError::InvalidModel { .. })));
    }

    #[test]
    fn infeasibility_measures_violation() {
        let mut lp = Model::minimize();
        let x = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(Row::ge(5.0).coef(x, 1.0));
        assert_eq!(lp.infeasibility(&[7.0]), 0.0);
        assert_eq!(lp.infeasibility(&[3.0]), 2.0);
        assert_eq!(lp.infeasibility(&[-1.0]), 6.0);
    }

    #[test]
    fn zero_coefficients_dropped() {
        let mut lp = Model::minimize();
        let x = lp.add_var(0.0, 1.0, 1.0);
        let row = Row::eq(0.0).coef(x, 0.0);
        assert!(row.coeffs.is_empty());
        lp.add_row(row);
    }

    #[test]
    fn clones_share_constraint_storage() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_row(Row::le(1.0).coef(x, 1.0));
        let mut c = m.clone();
        assert!(Arc::ptr_eq(&m.cols, &c.cols), "clone must share columns");
        // Bound and objective patches keep sharing; row edits copy once.
        c.set_bounds(x, 0.0, 0.5);
        c.set_objective_coef(x, 3.0);
        assert!(Arc::ptr_eq(&m.cols, &c.cols));
        c.add_row(Row::ge(0.0).coef(x, 1.0));
        assert!(!Arc::ptr_eq(&m.cols, &c.cols));
        assert_eq!(m.num_rows(), 1);
        assert_eq!(c.num_rows(), 2);
    }

    #[test]
    fn quadratic_objective_value() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, 1.0);
        let y = m.add_var(0.0, 10.0, 0.0);
        m.add_quad(x, x, 2.0);
        m.add_quad(x, y, 1.0);
        m.add_quad(y, x, 1.0);
        // 0.5·(2x² + 2xy) + x  at (2, 3) = 4 + 6 + 2 = 12.
        assert!((m.objective_value(&[2.0, 3.0]) - 12.0).abs() < 1e-12);
    }
}
