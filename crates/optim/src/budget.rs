//! Cooperative solve budgets and typed partial results.
//!
//! A [`SolveBudget`] carries a wall-clock deadline and iteration/node caps.
//! Every solver in this crate checks it cooperatively inside its main loop;
//! hitting a budget is **not an error** — the solver returns
//! [`SolveOutcome::Partial`] with its best incumbent, the tightest bound it
//! proved, and which budget tripped, so callers can degrade gracefully
//! instead of restarting from nothing.
//!
//! Deadlines are stored as an absolute [`Instant`], so cloning a budget
//! *shares* the deadline: Algorithm 1 hands one budget to all `2·|E_D|`
//! subproblems and the sweep as a whole respects the wall-clock bound.
//!
//! # Sharing across worker threads
//!
//! A budget upgraded with [`SolveBudget::cancellable`] additionally carries
//! an atomic flag that its clones share: the first worker that observes
//! the deadline pass raises it, and every other in-flight solve sees it at
//! its next budget check (one atomic load — no extra clock reads) and
//! degrades to its incumbent with the usual [`BudgetTripped::WallClock`].
//!
//! `SolveBudget` is `Send + Sync`; clones are the sharing mechanism.
//!
//! ```
//! use std::time::Duration;
//! use ed_optim::budget::{SolveBudget, SolveOutcome};
//! use ed_optim::lp::Row;
//! use ed_optim::Model;
//!
//! # fn main() -> Result<(), ed_optim::OptimError> {
//! let mut lp = Model::maximize();
//! let x = lp.add_var(0.0, 1.0, 1.0);
//! lp.add_row(Row::le(1.0).coef(x, 1.0));
//! let budget = SolveBudget::with_deadline(Duration::from_secs(5));
//! match lp.solve_budgeted(&Default::default(), &budget)? {
//!     SolveOutcome::Solved(sol) => assert!((sol.objective - 1.0).abs() < 1e-9),
//!     SolveOutcome::Partial(p) => println!("budget tripped: {:?}", p.tripped),
//! }
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which cooperative budget was exhausted first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetTripped {
    /// The wall-clock deadline passed.
    WallClock,
    /// The iteration cap was reached (simplex pivots, active-set or IPM
    /// iterations).
    Iterations,
    /// The branch-and-bound node cap was reached.
    Nodes,
}

impl std::fmt::Display for BudgetTripped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetTripped::WallClock => write!(f, "wall-clock deadline"),
            BudgetTripped::Iterations => write!(f, "iteration cap"),
            BudgetTripped::Nodes => write!(f, "node cap"),
        }
    }
}

/// A cooperative solve budget: wall-clock deadline plus iteration and node
/// caps, all optional. See the [module docs](self) for semantics, including
/// the cross-thread sharing enabled by [`SolveBudget::cancellable`].
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    max_iterations: Option<usize>,
    max_nodes: Option<usize>,
    /// Shared by the clones of a cancellable budget: raised by the first
    /// holder that observes the deadline pass, so all clones trip on their
    /// next budget check.
    expired: Option<Arc<AtomicBool>>,
}

impl SolveBudget {
    /// A budget that never trips (all limits absent).
    pub fn unlimited() -> SolveBudget {
        SolveBudget::default()
    }

    /// A budget whose deadline is `timeout` from now. The deadline is fixed
    /// at this call — clones share it.
    pub fn with_deadline(timeout: Duration) -> SolveBudget {
        SolveBudget {
            deadline: Some(Instant::now() + timeout),
            ..SolveBudget::default()
        }
    }

    /// A budget with an explicit absolute deadline.
    pub fn with_deadline_at(deadline: Instant) -> SolveBudget {
        SolveBudget { deadline: Some(deadline), ..SolveBudget::default() }
    }

    /// Caps total iterations (builder style).
    pub fn max_iterations(mut self, n: usize) -> SolveBudget {
        self.max_iterations = Some(n);
        self
    }

    /// Caps branch-and-bound nodes (builder style).
    pub fn max_nodes(mut self, n: usize) -> SolveBudget {
        self.max_nodes = Some(n);
        self
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// `true` when no limit is set — solvers skip the per-iteration clock
    /// read entirely in that case. Only a deadline observation raises a
    /// cancellable budget's shared flag, so without a deadline it never
    /// rises and needs no checking either.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_iterations.is_none() && self.max_nodes.is_none()
    }

    /// A view of this budget keeping only the wall-clock deadline (and the
    /// shared expiry flag, when present). Used by branch and bound
    /// to thread the shared deadline into node relaxations without letting
    /// the *node*-level iteration counter trip the *tree*-level iteration
    /// cap.
    pub fn wall_only(&self) -> SolveBudget {
        SolveBudget {
            deadline: self.deadline,
            max_iterations: None,
            max_nodes: None,
            expired: self.expired.clone(),
        }
    }

    /// Upgrades this budget with a shared expiry flag: once any clone of
    /// the returned budget observes the deadline pass, every clone reports
    /// [`BudgetTripped::WallClock`] at its next check without reading the
    /// clock.
    pub fn cancellable(mut self) -> SolveBudget {
        if self.expired.is_none() {
            self.expired = Some(Arc::new(AtomicBool::new(false)));
        }
        self
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// `Some(ZERO)` once passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Checks the shared expiry flag (one load), then the wall clock. The
    /// first holder to observe the deadline pass raises the shared flag so
    /// sibling workers trip without reading the clock.
    pub fn wall_tripped(&self) -> Option<BudgetTripped> {
        if self.expired.as_ref().is_some_and(|e| e.load(Ordering::Acquire)) {
            return Some(BudgetTripped::WallClock);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                if let Some(e) = &self.expired {
                    e.store(true, Ordering::Release);
                }
                Some(BudgetTripped::WallClock)
            }
            _ => None,
        }
    }

    /// Checks the iteration cap against `used`, then the wall clock.
    pub fn iter_tripped(&self, used: usize) -> Option<BudgetTripped> {
        if let Some(cap) = self.max_iterations {
            if used >= cap {
                return Some(BudgetTripped::Iterations);
            }
        }
        self.wall_tripped()
    }

    /// Checks the node cap against `used`, then the wall clock.
    pub fn node_tripped(&self, used: usize) -> Option<BudgetTripped> {
        if let Some(cap) = self.max_nodes {
            if used >= cap {
                return Some(BudgetTripped::Nodes);
            }
        }
        self.wall_tripped()
    }
}

/// What a budgeted solve managed before its budget tripped.
#[derive(Debug, Clone, PartialEq)]
pub struct Partial {
    /// Which budget tripped.
    pub tripped: BudgetTripped,
    /// Best *feasible* incumbent found, if any. `None` means no feasible
    /// point was reached (e.g. the trip hit during simplex phase 1 or an
    /// interior-point run, whose iterates are not primal feasible).
    pub x: Option<Vec<f64>>,
    /// Objective at the incumbent.
    pub objective: Option<f64>,
    /// Best proven bound on the optimum at the trip (branch-and-bound
    /// frontier bound; `None` for single-point methods).
    pub bound: Option<f64>,
    /// Iterations performed before the trip.
    pub iterations: usize,
    /// Branch-and-bound nodes explored before the trip (0 for LP/QP).
    pub nodes: usize,
    /// Branch-and-bound node relaxations that accepted an offered warm
    /// basis before the trip (0 for LP/QP).
    pub warm_starts: usize,
    /// Branch-and-bound node relaxations offered a warm basis that
    /// restarted cold before the trip (0 for LP/QP).
    pub cold_restarts: usize,
}

/// Outcome of a budgeted solve: either a full solution or a typed partial
/// result.
#[derive(Debug, Clone)]
pub enum SolveOutcome<S> {
    /// The solver finished inside its budget.
    Solved(S),
    /// A budget tripped; here is the best information gathered.
    Partial(Partial),
}

impl<S> SolveOutcome<S> {
    /// The full solution, if the solve completed.
    pub fn solved(self) -> Option<S> {
        match self {
            SolveOutcome::Solved(s) => Some(s),
            SolveOutcome::Partial(_) => None,
        }
    }

    /// The partial result, if a budget tripped.
    pub fn partial(self) -> Option<Partial> {
        match self {
            SolveOutcome::Solved(_) => None,
            SolveOutcome::Partial(p) => Some(p),
        }
    }

    /// Maps the solved variant.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> SolveOutcome<T> {
        match self {
            SolveOutcome::Solved(s) => SolveOutcome::Solved(f(s)),
            SolveOutcome::Partial(p) => SolveOutcome::Partial(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        // Without a deadline nothing raises a cancellable budget's flag.
        for b in [SolveBudget::unlimited(), SolveBudget::unlimited().cancellable()] {
            assert!(b.is_unlimited());
            assert_eq!(b.wall_tripped(), None);
            assert_eq!(b.iter_tripped(usize::MAX - 1), None);
            assert_eq!(b.node_tripped(usize::MAX - 1), None);
        }
    }

    #[test]
    fn expired_deadline_trips_wall_clock() {
        let b = SolveBudget::with_deadline_at(Instant::now() - Duration::from_millis(1));
        assert_eq!(b.wall_tripped(), Some(BudgetTripped::WallClock));
        assert_eq!(b.iter_tripped(0), Some(BudgetTripped::WallClock));
    }

    #[test]
    fn iteration_cap_trips_before_wall() {
        let b = SolveBudget::with_deadline(Duration::from_secs(3600)).max_iterations(10);
        assert_eq!(b.iter_tripped(9), None);
        assert_eq!(b.iter_tripped(10), Some(BudgetTripped::Iterations));
    }

    #[test]
    fn clones_share_the_deadline() {
        let b = SolveBudget::with_deadline(Duration::from_secs(60));
        let c = b.clone();
        assert_eq!(b.deadline(), c.deadline());
    }

    fn flag_raised(b: &SolveBudget) -> bool {
        b.expired.as_ref().is_some_and(|e| e.load(Ordering::Acquire))
    }

    #[test]
    fn observed_deadline_raises_the_shared_flag() {
        let b = SolveBudget::with_deadline_at(Instant::now() - Duration::from_millis(1))
            .cancellable();
        let c = b.clone();
        assert!(!flag_raised(&c));
        // One holder observes the deadline; the sibling then trips via the
        // shared flag and reports the wall clock as the reason.
        assert_eq!(b.wall_tripped(), Some(BudgetTripped::WallClock));
        assert!(flag_raised(&c) && flag_raised(&c.wall_only()));
        assert_eq!(c.wall_tripped(), Some(BudgetTripped::WallClock));
        assert_eq!(c.node_tripped(0), Some(BudgetTripped::WallClock));
    }

    /// The contract the sweep relies on: once the shared deadline passes,
    /// every worker spinning on cooperative checks stops with the wall
    /// clock as the reason.
    #[test]
    fn passed_deadline_stops_all_workers() {
        let budget = SolveBudget::with_deadline(Duration::from_millis(20)).cancellable();
        let trips: Vec<BudgetTripped> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let b = budget.clone();
                    s.spawn(move || {
                        let mut used = 0usize;
                        loop {
                            if let Some(t) = b.iter_tripped(used) {
                                return t;
                            }
                            used += 1;
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(trips, vec![BudgetTripped::WallClock; 4]);
        assert!(flag_raised(&budget));
    }

    #[test]
    fn node_cap_trips() {
        let b = SolveBudget::unlimited().max_nodes(5);
        assert_eq!(b.node_tripped(4), None);
        assert_eq!(b.node_tripped(5), Some(BudgetTripped::Nodes));
        assert_eq!(b.iter_tripped(1_000_000), None, "node cap must not cap iterations");
    }
}
