//! Power-network modeling and power-flow analysis for the `ed-security`
//! workspace.
//!
//! This crate provides the physical substrate that the DSN'17 economic
//! dispatch attack is computed against:
//!
//! - [`Network`] — buses, transmission lines, and generators with quadratic
//!   cost curves, in a validated per-unit model (base MVA configurable,
//!   public APIs in MW).
//! - [`dc`] — the DC (linearized) power flow of Eq. (4)–(6) of the paper:
//!   `f_ij = β_ij (θ_i − θ_j)` with nodal balance.
//! - [`ptdf`] — power-transfer distribution factors, the sensitivities
//!   behind the PTDF form of the dispatch.
//! - [`ac`] — the full nonlinear AC power flow solved by Newton–Raphson,
//!   used (in place of the paper's MATPOWER runs) to validate what actually
//!   happens on the system when dispatches computed against manipulated
//!   line ratings are implemented.
//!
//! # Example
//!
//! ```
//! use ed_powerflow::{NetworkBuilder, BusKind, CostCurve, dc};
//!
//! # fn main() -> Result<(), ed_powerflow::PowerflowError> {
//! // The paper's 3-bus system: two generator buses, one 300 MW load.
//! let mut b = NetworkBuilder::new(100.0);
//! let b1 = b.add_bus("B1", BusKind::Slack, 0.0);
//! let b2 = b.add_bus("B2", BusKind::Pv, 0.0);
//! let b3 = b.add_bus("B3", BusKind::Pq, 300.0);
//! b.add_line(b1, b2, 0.002, 0.05, 160.0);
//! b.add_line(b1, b3, 0.002, 0.05, 160.0);
//! b.add_line(b2, b3, 0.002, 0.05, 160.0);
//! b.add_gen(b1, 0.0, 300.0, CostCurve::linear(2.0));
//! b.add_gen(b2, 0.0, 300.0, CostCurve::linear(1.0));
//! let net = b.build()?;
//! // Inject the paper's no-attack dispatch and recover its flows.
//! let flows = dc::solve(&net, &[120.0, 180.0, -300.0])?;
//! assert!((flows.flow_mw[1] - 140.0).abs() < 1e-6);
//! assert!((flows.flow_mw[2] - 160.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
mod builder;
pub mod dc;
mod error;
pub mod factor;
mod network;
pub mod ptdf;

pub use builder::NetworkBuilder;
pub use error::PowerflowError;
pub use factor::{fnv1a, network_fingerprint, pool_env_enabled, FactorCache};
pub use network::{Bus, BusId, BusKind, CostCurve, GenId, Generator, Line, LineId, Network};
