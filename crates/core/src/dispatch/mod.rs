//! DC economic dispatch (the operator's problem, Eq. 8/11 of the paper).
//!
//! The entry point is [`DcOpf`]: configure demand and line ratings, pick a
//! [`Formulation`], and solve. One builder, `model.rs`, assembles every
//! dispatch model: the angle (`θ`) form the paper writes down or an
//! equivalent PTDF (injection-shift) form, with the quadratic costs of
//! Eq. 3 when every cost is strictly convex and linear costs otherwise.
//! [`DcOpf::solve`] hands it the QP solver or the simplex; the certified
//! path ([`DcOpf::solve_certified`]) and each rung of
//! [`ResilientDispatcher`] hand it their own solvers. The two forms agree
//! to solver tolerance (`tests/cross_validation.rs`); [`Formulation::Auto`]
//! picks the PTDF form on large networks.

mod certified;
mod dcopf;
mod model;
mod resilient;
mod safety;

pub use certified::CertifiedDispatch;
pub use dcopf::{DcOpf, Dispatch, Formulation};
pub use resilient::{
    Degradation, DegradationReason, DispatchRung, ResilientDispatch, ResilientDispatcher,
};
pub use safety::{SafetyGate, SafetyReport, SafetyViolation};
