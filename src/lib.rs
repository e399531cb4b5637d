//! `ed-security` — a reproduction of *"Compromising Security of Economic
//! Dispatch in Power System Operations"* (DSN 2017) as a Rust workspace.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`linalg`] / [`optim`] — dense and sparse linear algebra (sparse LU
//!   with rank-1 updates) and the LP/QP/MILP/MPEC solvers everything else
//!   is built on.
//! - [`obs`] — zero-dependency observability: hierarchical spans,
//!   counters, timing histograms, and the machine-readable
//!   [`TraceReport`](obs::TraceReport) export (`ED_TRACE=1` to enable).
//! - [`powerflow`] — network model, DC and AC power flow, PTDF
//!   sensitivities.
//! - [`cases`] — benchmark systems (the paper's 3-bus case, a 6-bus case,
//!   seeded synthetic networks, a 118-bus-class system, and a MATPOWER
//!   parser).
//! - [`dlr`] — dynamic line rating substrate (thermal model, demand/DLR
//!   profiles, 24-hour scenarios).
//! - [`core`] — economic dispatch, the bilevel DLR attack (KKT/big-M MILP
//!   and MPEC solvers, Algorithm 1), attack evaluation, and mitigations.
//! - [`ems`] — the simulated EMS packages, memory forensics, and the
//!   end-to-end memory-corruption exploit pipeline.
//!
//! # Quickstart
//!
//! ```
//! use ed_security::core::attack::{optimal_attack, AttackConfig};
//! use ed_security::powerflow::LineId;
//!
//! # fn main() -> Result<(), ed_security::core::CoreError> {
//! let net = ed_security::cases::three_bus();
//! let config = AttackConfig::new(vec![LineId(1), LineId(2)])
//!     .bounds(100.0, 200.0)
//!     .true_ratings(vec![130.0, 120.0]);
//! let attack = optimal_attack(&net, &config)?;
//! println!(
//!     "optimal manipulation u^a = {:?}, violation {:.1}% ({:.0} MW over)",
//!     attack.ua_mw, attack.ucap_pct, attack.overload_mw
//! );
//! assert!(attack.ucap_pct > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ed_cases as cases;
pub use ed_core as core;
pub use ed_dlr as dlr;
pub use ed_ems as ems;
pub use ed_linalg as linalg;
pub use ed_obs as obs;
pub use ed_optim as optim;
pub use ed_powerflow as powerflow;
