//! Linear programming: a bounded-variable two-phase revised simplex solver
//! over the shared sparse model IR.
//!
//! The solver handles general bounds `l <= x <= u` (including infinite and
//! fixed bounds), `<=`/`>=`/`==` rows, minimization and maximization, and
//! reports primal values, row duals, and reduced costs. The basis is kept as
//! an LU factorization plus product-form eta updates
//! ([`ed_linalg::UpdatableLu`]).
//!
//! The problem type is the workspace-wide [`crate::model::Model`]; solve
//! it with [`Model::solve`](crate::model::Model::solve). Quadratic terms,
//! integrality marks, and complementarity pairs on a model are *ignored*
//! by the simplex solver — the QP solvers and branch and bound honor them.

pub mod basis;
pub(crate) mod pricing;
pub(crate) mod simplex;

pub use crate::model::{LpSolution, Row, RowId, RowSense, Sense, VarId};
pub use basis::{Basis, BasisStatus};
pub use simplex::{phase1_basis, Pricing, SimplexOptions};
