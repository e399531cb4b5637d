//! Benchmark power-system cases for the `ed-security` workspace.
//!
//! - [`three_bus()`] — the exact 3-bus system of Section IV-A of the DSN'17
//!   paper (two generators, one 300 MW load, identical 0.002+j0.05 pu lines).
//! - [`six_bus()`] — a small meshed 6-bus system in the style of Wood &
//!   Wollenberg, useful as a mid-size test fixture.
//! - [`synthetic()`] — a seeded generator for arbitrary-size meshed networks
//!   with realistic parameter ranges.
//! - [`ieee118_like()`] — a deterministic 118-bus-class system (118 buses,
//!   186 branches, 54 generators, ≈4242 MW load) used for the paper's
//!   scalability experiments. This is a *synthetic stand-in* for the IEEE
//!   118-bus test case (see DESIGN.md §5); the [`matpower`] parser lets you
//!   run the real case file instead if you have one.
//! - [`case300_like()`] — a deterministic 300-bus-class system (300 buses,
//!   411 branches, 69 generators, ≈23 525 MW load): the atlas engine's
//!   scale stressor, same synthetic-stand-in caveat as above.
//! - [`matpower`] — parser and writer for (a practical subset of) the
//!   MATPOWER case format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case300_like;
pub mod ieee118_like;
pub mod matpower;
pub mod six_bus;
pub mod synthetic;
pub mod three_bus;

pub use case300_like::case300_like;
pub use ieee118_like::ieee118_like;
pub use six_bus::six_bus;
pub use synthetic::{synthetic, SyntheticConfig};
pub use three_bus::{three_bus, three_bus_with, ThreeBusConfig};

use ed_powerflow::Network;

/// The names [`by_name`] builds: the cases ed-atlas sweeps and ed-serve
/// answers for.
pub const KNOWN_CASES: &[&str] = &["three_bus", "six_bus", "ieee118", "case300"];

/// Builds the named case (one of [`KNOWN_CASES`]); `None` for any other
/// name.
pub fn by_name(name: &str) -> Option<Network> {
    match name {
        "three_bus" => Some(three_bus()),
        "six_bus" => Some(six_bus()),
        "ieee118" => Some(ieee118_like()),
        "case300" => Some(case300_like()),
        _ => None,
    }
}
