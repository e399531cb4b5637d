//! The primary contribution of the DSN'17 paper, reproduced as a library:
//! economic dispatch, the bilevel DLR-manipulation attack, and mitigations.
//!
//! # Overview
//!
//! - [`dispatch`] — the operator's (defender's) DC economic dispatch /
//!   DC-OPF (Eq. 8/11 of the paper): minimum-cost generation subject to
//!   generation bounds, nodal balance under DC power flow, and line
//!   ratings. Two interchangeable formulations (angle-based and PTDF-based)
//!   and both LP (linear costs) and QP (convex quadratic costs) paths.
//! - [`attack`] — the attacker's bilevel program (Eq. 14): choose
//!   manipulated dynamic line ratings `u^a` within `[u^min, u^max]` so that
//!   the dispatch the operator computes against them violates the *true*
//!   ratings `u^d` as much as possible. Includes the KKT single-level
//!   reformulation, the paper-faithful big-M MILP (Eq. 16–17), a
//!   complementarity-branching alternative, Algorithm 1, corner/greedy
//!   heuristics, and AC-validated attack evaluation.
//! - [`mitigation`] — the defenses sketched in Section VII: in-bound and
//!   trend plausibility checks, attack-aware robust dispatch, and N-version
//!   replica cross-checking.
//! - [`pool`] — scenario-fingerprinted seed pool with certified
//!   invalidation, used by `ed-serve` to start repeat `/sweep`s of a
//!   scenario from the last certified seed (`ED_POOL` gated).
//!
//! # Example: the paper's 3-bus attack
//!
//! ```
//! use ed_core::attack::{AttackConfig, optimal_attack};
//! use ed_core::dispatch::DcOpf;
//! use ed_powerflow::LineId;
//!
//! # fn main() -> Result<(), ed_core::CoreError> {
//! let net = ed_cases::three_bus();
//! // True dynamic ratings on the two DLR lines {1,3} and {2,3}:
//! let config = AttackConfig::new(vec![LineId(1), LineId(2)])
//!     .bounds(100.0, 200.0)
//!     .true_ratings(vec![130.0, 120.0]);
//! let result = optimal_attack(&net, &config)?;
//! // Strategy A of Table I: u^a = (100, 200), 80 MW overload on line {2,3}.
//! assert!((result.overload_mw - 80.0).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod dispatch;
mod error;
pub mod mitigation;
pub mod pool;

pub use error::CoreError;

// The budget vocabulary travels with every resilient API in this crate, so
// downstream users (ed-ems, examples, benches) don't need a direct
// ed-optim dependency for it.
pub use ed_optim::budget::{BudgetTripped, SolveBudget, SolveOutcome};
