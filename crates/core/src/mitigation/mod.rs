//! Mitigations against DLR memory-corruption attacks (Section VII).
//!
//! The paper sketches four directions; the two that live at the dispatch
//! layer are implemented here, plus the plausibility checks the attacker is
//! explicitly designed to slip past:
//!
//! - [`checks`] — out-of-bound and trend (rate-of-change) validation of
//!   reported DLR values. The optimal attack stays inside `[u^min, u^max]`
//!   by construction, so the bound check alone provably never fires on it —
//!   reproducing the paper's stealthiness claim — while the trend check
//!   catches step changes.
//! - [`robust_dispatch()`] — "algorithmic redundancy": an attack-aware
//!   dispatch that only trusts reported ratings up to a configurable
//!   margin above the worst-case floor, bounding the violation any
//!   in-bound manipulation can cause (the paper's future-work item iv).
//! - [`replica`] — "intrusion-tolerant replication": run two independent
//!   dispatch implementations on independently-read inputs and flag any
//!   disagreement (N-version programming, item iii).
//! - [`dlr_monitor`] — physics-anchored plausibility monitor: fractional
//!   rate-of-change plus a thermal-model envelope and weather-consistency
//!   cross-check, feeding the EMS pipeline's safety gate.

pub mod checks;
pub mod dlr_monitor;
pub mod replica;
pub mod robust_dispatch;

pub use checks::{BoundsCheck, TrendCheck};
pub use dlr_monitor::{DlrFlag, DlrMonitor};
pub use replica::{replica_check, ReplicaVerdict};
pub use robust_dispatch::{robust_dispatch, RobustConfig, RobustDispatch};
