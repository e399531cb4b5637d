//! Crash-tolerant attack-surface atlas.
//!
//! ROADMAP item 2 asks for the full picture the paper only samples: how
//! attackable is each case *across operating conditions* — every hour of
//! the Figure 4a profiles, every E_D sensor subset, every N-1 line
//! outage. That grid is thousands of bilevel solves over hours of wall
//! clock, which is exactly where single-process, lose-everything-on-crash
//! execution stops being acceptable. This crate is the sweep engine that
//! survives:
//!
//! - [`grid`] enumerates the (case × E_D subset × contingency × hour)
//!   cells from the `ed-dlr` scenario generators and `ed-cases` families,
//!   ranking DLR candidates and outages by base-case line loading so the
//!   grid is a pure function of the spec.
//! - [`journal`] is an append-only JSONL write-ahead log (claim → result;
//!   each result is fsync'd, a claim is not, since resume recomputes
//!   every cell without a result): `kill -9` mid-sweep loses at most the
//!   in-flight cells, and a resumed run replays completed cells
//!   **byte-identically** from the journal.
//! - [`cell`] runs one cell behind a panic shield with graceful
//!   degradation tiers (rating-band screening → corner heuristic → exact
//!   certified bilevel) and typed outcomes; faults retry with the
//!   jittered `ed-ems` backoff and end in quarantine — a first-class
//!   report row, never a silent hole.
//! - [`engine`] schedules chains (one chain = the hours of a fixed
//!   (case, E_D, outage) slice, solved sequentially so warm bases hand
//!   off hour-to-hour) onto the `ed-par` pool and enforces the
//!   zero-silent-holes invariant structurally.
//! - [`report`] assembles the deterministic machine-readable
//!   [`AtlasReport`]: per-cell violation, tier reached, certificate
//!   status, and retries — no wall-clock content, so resumed and
//!   uninterrupted runs serialize to the same bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod engine;
pub mod grid;
pub mod journal;
pub mod report;

pub use cell::{CellFault, CellOutcome, Solved, Tier, UntestableReason};
pub use engine::{run_atlas, AtlasError, AtlasOptions};
pub use grid::{AtlasSpec, CaseGrid};
pub use journal::{scan, Journal, JournalScan};
pub use report::{AtlasReport, CellRecord, RowKind};
