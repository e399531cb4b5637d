//! Mathematical-programming substrate for the `ed-security` workspace.
//!
//! The DSN'17 economic-dispatch attack pipeline needs three solver
//! families, all implemented here from scratch on top of [`ed_linalg`]:
//!
//! - [`lp`] — linear programming via a bounded-variable two-phase revised
//!   simplex method with an LU-factored basis, product-form eta updates,
//!   and periodic refactorization. Used for economic dispatch with linear
//!   generation costs and as the relaxation engine inside branch and bound.
//! - [`qp`] — convex quadratic programming by active-set methods: the
//!   Goldfarb–Idnani dual method for positive definite `H`, the primal
//!   method for the rest. Used for economic dispatch with the paper's
//!   convex quadratic costs (Eq. 3). An interior-point method serves as an
//!   independent reference and as a certification repair backend.
//! - [`branch_bound`] — depth-first branch and bound over simplex
//!   relaxations, branching either on integrality marks (the paper-faithful
//!   big-M KKT reformulation of the bilevel attack problem, Eq. 16–17) or
//!   directly on complementarity pairs (the scalable alternative used for
//!   the 118-bus experiments).
//!
//! All of them consume one problem representation: the sparse
//! [`model::Model`] IR (column-wise constraint storage, variable and row
//! bounds, optional quadratic terms, integrality marks, complementarity
//! pairs), with an optional presolve pass ([`model::presolve`]) that
//! shrinks a model and maps reduced solutions back exactly. The
//! [`Solver`] trait drives every family uniformly.
//!
//! # Example: a tiny LP
//!
//! ```
//! use ed_optim::lp::Row;
//! use ed_optim::Model;
//!
//! # fn main() -> Result<(), ed_optim::OptimError> {
//! // max x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x,y >= 0
//! let mut lp = Model::maximize();
//! let x = lp.add_var(0.0, f64::INFINITY, 1.0);
//! let y = lp.add_var(0.0, f64::INFINITY, 1.0);
//! lp.add_row(Row::le(4.0).coef(x, 1.0).coef(y, 2.0));
//! lp.add_row(Row::le(6.0).coef(x, 3.0).coef(y, 1.0));
//! let sol = lp.solve()?;
//! assert!((sol.objective - 2.8).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch_bound;
pub mod budget;
pub mod certify;
mod error;
pub mod lp;
pub mod model;
pub mod qp;

pub use budget::{BudgetTripped, Partial, SolveBudget, SolveOutcome};
pub use certify::{
    certify, CertStatus, Certificate, CertifiedOutcome, CertifiedSolver, RepairStep, Residuals,
    Tolerances, Trust, Witness,
};
pub use error::OptimError;
pub use model::{
    ActiveSetSolver, IpmSolver, Model, Postsolve, PresolveOptions, PresolveStats,
    Presolved, SimplexSolver, Solution, Solver,
};

