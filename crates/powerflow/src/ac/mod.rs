//! Nonlinear AC power flow (Newton–Raphson).
//!
//! The paper validates its DC-model attacks by running the resulting
//! dispatches through MATPOWER's nonlinear solver and observing that the
//! *actual* apparent flows — with reactive components and losses — exceed
//! the manipulated ratings even further than the DC model predicts
//! (Figs. 4b/4c/5b). This module is the in-workspace replacement for those
//! MATPOWER runs: [`solve`] takes a generator dispatch (as produced by the
//! `ed-core` economic dispatch against possibly-manipulated ratings) and
//! computes the full AC operating point, with the slack bus absorbing the
//! transmission losses the DC model ignores.

mod flows;
mod newton;
mod ybus;

pub use flows::{AcFlow, LineFlow};
pub use newton::solve;
pub use ybus::ybus;
