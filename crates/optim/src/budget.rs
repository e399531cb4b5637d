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
//! an atomics-based cancel flag that its clones share: the first worker
//! that observes the deadline pass raises it, and every other in-flight
//! solve sees it at its next budget check (one relaxed atomic load — no
//! extra clock reads) and degrades to its incumbent with the usual
//! [`BudgetTripped::WallClock`]. [`SolveBudget::cancel`] raises the same
//! flag explicitly, reported as [`BudgetTripped::Cancelled`].
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
    /// The shared budget was cancelled explicitly via
    /// [`SolveBudget::cancel`] (cooperative cancellation across workers).
    Cancelled,
}

impl std::fmt::Display for BudgetTripped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetTripped::WallClock => write!(f, "wall-clock deadline"),
            BudgetTripped::Iterations => write!(f, "iteration cap"),
            BudgetTripped::Nodes => write!(f, "node cap"),
            BudgetTripped::Cancelled => write!(f, "cooperative cancellation"),
        }
    }
}

/// Atomics shared by every clone of a cancellable budget.
#[derive(Debug, Default)]
struct BudgetShared {
    /// Raised when any holder cancels or observes the deadline pass; all
    /// clones trip on their next budget check.
    cancelled: AtomicBool,
    /// `true` when the cancellation came from a deadline observation, so
    /// siblings report [`BudgetTripped::WallClock`] rather than
    /// [`BudgetTripped::Cancelled`].
    wall_observed: AtomicBool,
}

/// A cooperative solve budget: wall-clock deadline plus iteration and node
/// caps, all optional. See the [module docs](self) for semantics, including
/// the cross-thread sharing enabled by [`SolveBudget::cancellable`].
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    deadline: Option<Instant>,
    max_iterations: Option<usize>,
    max_nodes: Option<usize>,
    shared: Option<Arc<BudgetShared>>,
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
    /// read entirely in that case. A cancellable budget is never unlimited:
    /// its cancel flag must stay observable inside solver loops.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_iterations.is_none()
            && self.max_nodes.is_none()
            && self.shared.is_none()
    }

    /// A view of this budget keeping only the wall-clock deadline (and the
    /// shared cancellation state, when present). Used by branch and bound
    /// to thread the shared deadline into node relaxations without letting
    /// the *node*-level iteration counter trip the *tree*-level iteration
    /// cap.
    pub fn wall_only(&self) -> SolveBudget {
        SolveBudget {
            deadline: self.deadline,
            max_iterations: None,
            max_nodes: None,
            shared: self.shared.clone(),
        }
    }

    /// Upgrades this budget with shared, atomics-based cancellation state.
    /// Clones of the returned budget observe each other's [`cancel`]
    /// (reported as [`BudgetTripped::Cancelled`]) and deadline trips
    /// (reported as [`BudgetTripped::WallClock`]).
    ///
    /// [`cancel`]: SolveBudget::cancel
    pub fn cancellable(mut self) -> SolveBudget {
        if self.shared.is_none() {
            self.shared = Some(Arc::new(BudgetShared::default()));
        }
        self
    }

    /// Raises the shared cancel flag: every clone of this budget trips with
    /// [`BudgetTripped::Cancelled`] at its next cooperative check. A no-op
    /// on budgets without shared state (see [`SolveBudget::cancellable`]).
    pub fn cancel(&self) {
        if let Some(s) = &self.shared {
            s.cancelled.store(true, Ordering::Release);
        }
    }

    /// `true` when the shared cancel flag is raised (for any reason —
    /// explicit [`cancel`] or an observed deadline trip).
    ///
    /// [`cancel`]: SolveBudget::cancel
    pub fn is_cancelled(&self) -> bool {
        self.shared.as_ref().is_some_and(|s| s.cancelled.load(Ordering::Acquire))
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// `Some(ZERO)` once passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Checks the shared cancel flag (one relaxed load), then the wall
    /// clock. The first holder to observe the deadline pass raises the
    /// shared flag so sibling workers trip without reading the clock.
    pub fn wall_tripped(&self) -> Option<BudgetTripped> {
        if let Some(s) = &self.shared {
            if s.cancelled.load(Ordering::Acquire) {
                return Some(if s.wall_observed.load(Ordering::Acquire) {
                    BudgetTripped::WallClock
                } else {
                    BudgetTripped::Cancelled
                });
            }
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                if let Some(s) = &self.shared {
                    // wall_observed first: a sibling that sees `cancelled`
                    // must already see the reason.
                    s.wall_observed.store(true, Ordering::Release);
                    s.cancelled.store(true, Ordering::Release);
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
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        assert_eq!(b.wall_tripped(), None);
        assert_eq!(b.iter_tripped(usize::MAX - 1), None);
        assert_eq!(b.node_tripped(usize::MAX - 1), None);
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

    #[test]
    fn explicit_cancel_trips_all_clones() {
        let b = SolveBudget::unlimited().cancellable();
        let c = b.clone();
        assert!(!b.is_unlimited(), "cancellable budgets must stay observable");
        assert_eq!(c.wall_tripped(), None);
        b.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.wall_tripped(), Some(BudgetTripped::Cancelled));
        assert_eq!(c.iter_tripped(0), Some(BudgetTripped::Cancelled));
        assert_eq!(c.node_tripped(0), Some(BudgetTripped::Cancelled));
    }

    #[test]
    fn observed_deadline_cancels_siblings_as_wall_clock() {
        let b = SolveBudget::with_deadline_at(Instant::now() - Duration::from_millis(1))
            .cancellable();
        let c = b.clone();
        // One holder observes the deadline; the sibling then trips via the
        // shared flag and still reports the wall clock as the reason.
        assert_eq!(b.wall_tripped(), Some(BudgetTripped::WallClock));
        assert!(c.is_cancelled());
        assert_eq!(c.wall_tripped(), Some(BudgetTripped::WallClock));
    }

    #[test]
    fn cancel_without_shared_state_is_noop() {
        let b = SolveBudget::unlimited();
        b.cancel();
        assert!(!b.is_cancelled());
        assert_eq!(b.wall_tripped(), None);
    }

    /// The budget-cancellation contract the parallel sweep relies on: a
    /// cancel (here explicit; deadline observations take the same path)
    /// stops every worker spinning on cooperative checks.
    #[test]
    fn cancellation_stops_all_workers() {
        let budget = SolveBudget::unlimited().cancellable();
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
            budget.cancel();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(trips, vec![BudgetTripped::Cancelled; 4]);
    }

    #[test]
    fn node_cap_trips() {
        let b = SolveBudget::unlimited().max_nodes(5);
        assert_eq!(b.node_tripped(4), None);
        assert_eq!(b.node_tripped(5), Some(BudgetTripped::Nodes));
        assert_eq!(b.iter_tripped(1_000_000), None, "node cap must not cap iterations");
    }
}
