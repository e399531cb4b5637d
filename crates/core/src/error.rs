//! Error type for dispatch, attack, and mitigation operations.

use std::error::Error;
use std::fmt;

/// Errors produced by the `ed-core` crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The dispatch problem is infeasible (demand cannot be served within
    /// generation and line limits) — the situation in which the paper's
    /// operator "sets off an alarm".
    DispatchInfeasible,
    /// Inconsistent inputs (wrong vector lengths, bad line ids, inverted
    /// bounds, ...).
    InvalidInput {
        /// Description of the inconsistency.
        what: String,
    },
    /// The dispatch ladder's budget ran out before any rung answered: the
    /// last rung tripped its budget or was skipped for the deadline, and
    /// there was no last-known-good dispatch. Says nothing about
    /// feasibility.
    BudgetExhausted(ed_optim::BudgetTripped),
    /// An optimization-layer failure.
    Optim(ed_optim::OptimError),
    /// A power-flow-layer failure.
    Powerflow(ed_powerflow::PowerflowError),
    /// A parallel sweep worker panicked (the panic is caught and isolated
    /// by the `ed-par` pool rather than unwinding through the sweep).
    Parallel {
        /// Description of the worker failure.
        what: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::DispatchInfeasible => {
                write!(f, "economic dispatch is infeasible for the given demand and ratings")
            }
            CoreError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            CoreError::BudgetExhausted(t) => {
                write!(f, "dispatch budget exhausted ({t}) before any rung answered")
            }
            CoreError::Optim(e) => write!(f, "optimization failure: {e}"),
            CoreError::Powerflow(e) => write!(f, "power flow failure: {e}"),
            CoreError::Parallel { what } => write!(f, "parallel sweep failure: {what}"),
        }
    }
}

impl Error for CoreError {}

impl From<ed_optim::OptimError> for CoreError {
    fn from(e: ed_optim::OptimError) -> Self {
        match e {
            ed_optim::OptimError::Infeasible => CoreError::DispatchInfeasible,
            other => CoreError::Optim(other),
        }
    }
}

impl From<ed_powerflow::PowerflowError> for CoreError {
    fn from(e: ed_powerflow::PowerflowError) -> Self {
        CoreError::Powerflow(e)
    }
}
