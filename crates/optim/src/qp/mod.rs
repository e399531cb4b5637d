//! Convex quadratic programming via a primal active-set method.
//!
//! Solves
//!
//! ```text
//! min  0.5 x' H x + c' x
//! s.t. A_eq x  = b_eq
//!      A_in x <= b_in
//! ```
//!
//! with `H` symmetric positive semidefinite (positive definite on the null
//! space of the active constraints — true for economic dispatch with strictly
//! convex generator costs and a fixed reference angle).
//!
//! A feasible starting point is obtained from a phase-1 LP solved with the
//! crate's simplex method; the active-set loop then alternates
//! equality-constrained QP steps (dense KKT solves) with blocking-constraint
//! additions and multiplier-driven deletions. A primal-dual interior-point
//! method is the robust fallback on degenerate instances.
//!
//! Build the problem as a [`Model`](crate::model::Model) with quadratic
//! terms and solve it through [`ActiveSetSolver`](crate::ActiveSetSolver),
//! [`IpmSolver`](crate::IpmSolver), or [`QpAutoSolver`](crate::QpAutoSolver)
//! (active set first, interior point on a stall).

pub(crate) mod active_set;
pub(crate) mod dense;
pub(crate) mod ipm;

pub use active_set::QpOptions;
pub use ipm::IpmOptions;
