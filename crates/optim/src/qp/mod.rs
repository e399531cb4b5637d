//! Convex quadratic programming by active-set methods.
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
//! One entry point picks the method by a property of the input:
//!
//! - **`H` positive definite** (the PTDF-form dispatch with strictly convex
//!   costs): the Goldfarb–Idnani dual active-set method starts from the
//!   unconstrained minimum `−H⁻¹c`, adds violated rows one at a time and
//!   drops rows whose multipliers would turn negative, keeping a Cholesky
//!   factor of `H` and Givens-updated factors of the active rows. No
//!   phase-1 LP runs, and it ends on an exact active set with exact
//!   multipliers.
//! - **Any other `H`** (the angle form, where θ carries no cost), and every
//!   problem the dual method hands over: the primal active-set method. A
//!   phase-1 LP solved with the crate's simplex finds a feasible start; the
//!   loop then alternates equality-constrained QP steps (dense KKT solves)
//!   with blocking-constraint additions and multiplier-driven deletions,
//!   and every iterate stays feasible.
//!
//! A primal-dual interior-point method shares no code with either: the
//! reference tests check the active set against it, and the certified
//! dispatch tries it last when an answer fails its certificate.
//!
//! Build the problem as a [`Model`](crate::model::Model) with quadratic
//! terms and solve it through [`ActiveSetSolver`](crate::ActiveSetSolver)
//! or [`IpmSolver`](crate::IpmSolver).

pub(crate) mod active_set;
pub(crate) mod dense;
pub(crate) mod dual_active_set;
pub(crate) mod ipm;

pub use active_set::QpOptions;
pub use ipm::IpmOptions;
