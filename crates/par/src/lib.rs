//! Zero-dependency scoped worker pool for the `ed-security` workspace.
//!
//! The hot sweeps of this repository — the `2·|E_D|` subproblems of
//! Algorithm 1, the corner-heuristic candidate evaluation, the atlas's
//! chains and per-column PTDF assembly — are embarrassingly parallel:
//! every work item is independent and the reduction is a deterministic
//! fold over item index.
//! [`par_map`] provides exactly that shape on top of
//! [`std::thread::scope`], with three guarantees the callers rely on:
//!
//! 1. **Deterministic output order.** Results are returned in *item index
//!    order* no matter which worker computed them or when it finished, so a
//!    sequential fold over the output is bit-identical to a sequential run.
//! 2. **Panic isolation.** A panicking closure never tears down the whole
//!    process: the panic is caught per item and surfaced as a typed
//!    [`ParError::WorkerPanicked`] (the lowest panicking index wins, again
//!    for determinism). Remaining items still run to completion.
//! 3. **No work queue locks.** Items are claimed with a single
//!    `fetch_add` on an atomic cursor; workers never block each other.
//!
//! Thread count comes from the `ED_THREADS` environment variable when set
//! (clamped to `[1, 1024]`; unparsable values are ignored), otherwise from
//! [`std::thread::available_parallelism`]. With one thread — or one item —
//! the map runs inline on the caller's stack with identical semantics,
//! including panic capture.
//!
//! ```
//! let squares = ed_par::par_map(4, &[1, 2, 3, 4, 5], |_, &x| x * x).unwrap();
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper clamp on `ED_THREADS` so a typo cannot spawn absurd thread counts.
const MAX_THREADS: usize = 1024;

/// Typed failure of a parallel map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// The closure panicked while processing an item. When several items
    /// panic, the lowest index is reported (deterministic across runs and
    /// thread counts).
    WorkerPanicked {
        /// Index of the item whose closure panicked.
        index: usize,
        /// The panic payload, if it was a string (the common case for
        /// `panic!`/`assert!`); a placeholder otherwise.
        payload: String,
    },
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerPanicked { index, payload } => {
                write!(f, "worker panicked on item {index}: {payload}")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// Parses an `ED_THREADS`-style value: a positive integer, clamped to
/// `MAX_THREADS` (1024). Returns `None` for absent, empty, zero, or unparsable
/// input (the caller then falls back to the hardware default).
pub fn parse_threads(raw: Option<&str>) -> Option<usize> {
    let n: usize = raw?.trim().parse().ok()?;
    (n >= 1).then(|| n.min(MAX_THREADS))
}

/// The configured worker count: `ED_THREADS` when set and valid, otherwise
/// the machine's available parallelism (at least 1).
pub fn thread_count() -> usize {
    parse_threads(std::env::var("ED_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning the
/// results in item index order.
///
/// `f` receives `(index, &item)`. The output at position `i` is
/// `f(i, &items[i])` regardless of scheduling, so any order-sensitive fold
/// over the result is identical to the sequential fold. `threads` is
/// clamped to `[1, items.len()]`; `threads <= 1` (or a single item) runs
/// inline without spawning.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if `f` panicked on any item; the lowest
/// panicking index is reported. Items other than the panicking ones are
/// still processed (their results are discarded on error).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    ed_obs::counter("par.maps", 1);
    ed_obs::counter("par.items", n as u64);
    let threads = threads.clamp(1, n);
    if threads == 1 {
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => out.push(r),
                Err(p) => {
                    return Err(ParError::WorkerPanicked {
                        index: i,
                        payload: payload_string(p.as_ref()),
                    })
                }
            }
        }
        return Ok(out);
    }

    let cursor = AtomicUsize::new(0);
    // Each worker drains the shared cursor and collects (index, result)
    // pairs locally; the merge below restores index order. Per-item
    // catch_unwind keeps one poisoned item from killing its worker's
    // remaining share of the queue.
    let per_worker: Vec<Vec<(usize, Result<R, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
                        local.push((i, r.map_err(|p| payload_string(p.as_ref()))));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker body catches panics per item"))
            .collect()
    });

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<(usize, String)> = None;
    for (i, r) in per_worker.into_iter().flatten() {
        match r {
            Ok(v) => out[i] = Some(v),
            Err(payload) => {
                if first_panic.as_ref().is_none_or(|(j, _)| i < *j) {
                    first_panic = Some((i, payload));
                }
            }
        }
    }
    if let Some((index, payload)) = first_panic {
        return Err(ParError::WorkerPanicked { index, payload });
    }
    Ok(out
        .into_iter()
        .map(|o| o.expect("cursor visits every index exactly once"))
        .collect())
}

/// [`par_map`] with the worker count from [`thread_count`] (`ED_THREADS`
/// or the hardware default).
///
/// # Errors
///
/// Same as [`par_map`].
pub fn par_map_env<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map(thread_count(), items, f)
}

fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = par_map(8, &[] as &[i32], |_, &x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_index_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 16] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i, x, "index matches item");
                x * 3 + 1
            })
            .unwrap();
            let expected: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(64, &[10, 20], |_, &x| x + 1).unwrap();
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn panic_becomes_typed_error_with_lowest_index() {
        let items: Vec<usize> = (0..20).collect();
        for threads in [1, 4] {
            let err = par_map(threads, &items, |_, &x| {
                if x == 5 || x == 11 {
                    panic!("boom at {x}");
                }
                x
            })
            .unwrap_err();
            assert_eq!(
                err,
                ParError::WorkerPanicked { index: 5, payload: "boom at 5".into() },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(7, &items, |_, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        })
        .unwrap();
        assert_eq!(out.len(), 257);
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn parse_threads_rules() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("abc")), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("999999")), Some(MAX_THREADS));
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn borrowed_context_is_usable() {
        // The closure may borrow arbitrary caller state (scoped threads).
        let table = [2.0_f64, 4.0, 8.0];
        let idx: Vec<usize> = vec![2, 0, 1];
        let out = par_map(2, &idx, |_, &i| table[i]).unwrap();
        assert_eq!(out, vec![8.0, 2.0, 4.0]);
    }
}
