//! `ed-obs` — zero-dependency observability for the `ed-security` stack.
//!
//! Every prior layer (resilience, the parallel sweep, the model IR,
//! certification) grew its own ad-hoc counters; this crate unifies them
//! behind one process-wide recorder with three primitives:
//!
//! - **Spans** ([`span`] / [`span_labeled`]): hierarchical start/stop
//!   timers with parent links. Parents are tracked per thread (the same
//!   scoped-thread discipline as `ed-par`: a worker's spans nest under
//!   whatever that worker opened, never under another thread's). Span IDs
//!   come from an atomic counter — *never* from wall clock — so span
//!   *structure* stays deterministic and the parallel-determinism
//!   fingerprint tests keep passing.
//! - **Counters** ([`counter`]): monotone `u64` tallies (simplex
//!   iterations, B&B nodes explored/pruned, presolve reductions,
//!   certificate repairs, FactorCache hits/misses). Integer addition
//!   commutes exactly, so totals are identical at any thread count.
//! - **Timing histograms** ([`timer`] / [`observe_ms`]): per-name
//!   count/total/min/max plus power-of-two millisecond buckets, for the
//!   hot paths where per-call span events would be too chatty (one LP
//!   solve per branch-and-bound node).
//!
//! # Cost model
//!
//! Recording is gated by the `ED_TRACE` environment variable (default
//! **off**). When disabled, every primitive is a single relaxed atomic
//! load and an early return — no allocation, no lock, no `Instant::now()`.
//! When enabled, counters and timings take one short mutex-protected map
//! update; spans additionally push one record into a bounded ring.
//!
//! # Graceful degradation
//!
//! The recorder can never OOM and never panics across the worker pool's
//! panic isolation: the span ring is capped at [`EVENT_CAP`] records
//! (overflow increments a `dropped_events` counter instead of growing),
//! and a mutex poisoned by a panicking worker is re-entered rather than
//! propagated — observability must not turn a contained fault into a
//! crash.
//!
//! # Export
//!
//! [`TraceReport`] is the machine-readable snapshot: [`mark`] +
//! [`report_since`] give a delta over any region, [`TraceReport::to_json`]
//! writes the schema consumed by `scripts/trace_report.sh` (the benchmark's
//! `--trace 1` files), and [`TraceReport::deterministic_json`] is the
//! counters-only projection that must be byte-identical across repeated
//! runs (wall-clock fields are excluded by construction).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Maximum span/event records held by the recorder. Past the cap, new
/// records are counted in `dropped_events` and discarded — the ring never
/// grows, so an instrumented runaway loop cannot OOM the process.
pub const EVENT_CAP: usize = 65_536;

/// Number of power-of-two millisecond buckets in a timing histogram.
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` ms, bucket 0 is
/// `< 1 ms`, and the last bucket is open-ended.
pub const BUCKETS: usize = 8;

// 0 = not yet read from the environment, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// `true` when the `ED_TRACE` environment variable requests tracing
/// (`1`/`true`/`on`). Read fresh on every call; the recorder itself uses
/// the cached [`enabled`].
pub fn env_enabled() -> bool {
    matches!(
        std::env::var("ED_TRACE").ok().as_deref(),
        Some("1" | "true" | "TRUE" | "on" | "ON")
    )
}

/// Whether recording is active. The first call caches the `ED_TRACE`
/// environment variable; [`set_enabled`] overrides it in-process.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = env_enabled();
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Turns recording on or off in-process, overriding `ED_TRACE`. Benches
/// use this to measure the same binary with tracing disabled and enabled.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Summary histogram for one timed name: count, total, extremes, and
/// power-of-two millisecond buckets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStat {
    /// Samples observed.
    pub count: u64,
    /// Sum of all samples, in milliseconds.
    pub total_ms: f64,
    /// Smallest sample (ms); `0.0` when `count == 0`.
    pub min_ms: f64,
    /// Largest sample (ms).
    pub max_ms: f64,
    /// Power-of-two buckets: `buckets[0]` counts samples `< 1` ms,
    /// `buckets[i]` samples in `[2^(i-1), 2^i)` ms, last bucket open.
    pub buckets: [u64; BUCKETS],
}

impl Default for TimingStat {
    fn default() -> TimingStat {
        TimingStat { count: 0, total_ms: 0.0, min_ms: 0.0, max_ms: 0.0, buckets: [0; BUCKETS] }
    }
}

impl TimingStat {
    /// Folds one sample (in milliseconds) into the histogram.
    pub fn record(&mut self, ms: f64) {
        if self.count == 0 || ms < self.min_ms {
            self.min_ms = ms;
        }
        if ms > self.max_ms {
            self.max_ms = ms;
        }
        self.count += 1;
        self.total_ms += ms;
        let mut b = 0usize;
        let mut edge = 1.0f64;
        while b + 1 < BUCKETS && ms >= edge {
            b += 1;
            edge *= 2.0;
        }
        self.buckets[b] += 1;
    }
}

/// One finished span (or zero-duration event) as exported in a
/// [`TraceReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Identifier from the global atomic counter (unique per process run).
    pub id: u64,
    /// Enclosing span on the *same thread*, if any.
    pub parent: Option<u64>,
    /// Static call-site name, e.g. `"attack.subproblem"`.
    pub name: String,
    /// Optional dynamic label, e.g. `"L104+"`.
    pub label: Option<String>,
    /// Start offset from the recorder epoch, milliseconds.
    pub start_ms: f64,
    /// Wall-clock duration, milliseconds.
    pub dur_ms: f64,
    /// Duration minus the duration of direct children (filled in at
    /// report time; equals `dur_ms` for leaves).
    pub self_ms: f64,
}

struct State {
    epoch: Instant,
    events: Vec<SpanRecord>,
    dropped: u64,
    /// Monotone count of *all* span records ever offered (kept + dropped);
    /// marks cut the event list by this sequence number.
    seq: u64,
    counters: BTreeMap<&'static str, u64>,
    timings: BTreeMap<&'static str, TimingStat>,
}

static STATE: OnceLock<Mutex<State>> = OnceLock::new();

fn lock_state() -> MutexGuard<'static, State> {
    let m = STATE.get_or_init(|| {
        Mutex::new(State {
            epoch: Instant::now(),
            events: Vec::new(),
            dropped: 0,
            seq: 0,
            counters: BTreeMap::new(),
            timings: BTreeMap::new(),
        })
    });
    // A worker that panicked mid-record (the pool isolates the panic)
    // leaves the state usable: every mutation below is a single push or
    // map update, so re-entering a poisoned lock is safe.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Adds `n` to the named counter. No-op when disabled.
#[inline]
pub fn counter(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    let mut s = lock_state();
    *s.counters.entry(name).or_insert(0) += n;
}

/// Folds one millisecond sample into the named timing histogram. No-op
/// when disabled.
#[inline]
pub fn observe_ms(name: &'static str, ms: f64) {
    if !enabled() {
        return;
    }
    let mut s = lock_state();
    s.timings.entry(name).or_default().record(ms);
}

/// RAII guard that feeds the elapsed wall clock into the named timing
/// histogram on drop. Inert (no clock read) when tracing is disabled.
#[must_use = "a timer records on drop; binding it to _ discards it immediately"]
pub struct Timer {
    live: Option<(&'static str, Instant)>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some((name, start)) = self.live.take() {
            observe_ms(name, start.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Starts a [`Timer`] for `name`.
#[inline]
pub fn timer(name: &'static str) -> Timer {
    Timer { live: enabled().then(|| (name, Instant::now())) }
}

/// RAII guard for a hierarchical span: records a [`SpanRecord`] on drop,
/// parented to the span the *same thread* most recently opened. Inert
/// when tracing is disabled.
#[must_use = "a span records on drop; binding it to _ discards it immediately"]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: Option<String>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&live.id) {
                stack.pop();
            }
        });
        let dur_ms = live.start.elapsed().as_secs_f64() * 1e3;
        let mut s = lock_state();
        let start_ms = live.start.duration_since(s.epoch).as_secs_f64() * 1e3;
        s.seq += 1;
        if s.events.len() >= EVENT_CAP {
            s.dropped += 1;
            return;
        }
        s.events.push(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name.to_string(),
            label: live.label,
            start_ms,
            dur_ms,
            self_ms: dur_ms,
        });
    }
}

fn open_span(name: &'static str, label: Option<String>) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    Span { live: Some(LiveSpan { id, parent, name, label, start: Instant::now() }) }
}

/// Opens a hierarchical span named `name`.
#[inline]
pub fn span(name: &'static str) -> Span {
    open_span(name, None)
}

/// Opens a span with a dynamic label (e.g. the E_D line + direction of a
/// sweep subproblem). The label closure runs only when tracing is
/// enabled, so disabled call sites never allocate.
#[inline]
pub fn span_labeled<F: FnOnce() -> String>(name: &'static str, label: F) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    open_span(name, Some(label()))
}

/// Records a zero-duration point event (e.g. one injected fault in the
/// EMS harness). The label closure runs only when tracing is enabled.
pub fn event<F: FnOnce() -> String>(name: &'static str, label: F) {
    if !enabled() {
        return;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    let label = Some(label());
    let mut s = lock_state();
    let start_ms = s.epoch.elapsed().as_secs_f64() * 1e3;
    s.seq += 1;
    if s.events.len() >= EVENT_CAP {
        s.dropped += 1;
        return;
    }
    s.events.push(SpanRecord {
        id,
        parent,
        name: name.to_string(),
        label,
        start_ms,
        dur_ms: 0.0,
        self_ms: 0.0,
    });
}

/// A cut point for delta reports: everything recorded before the mark is
/// excluded from [`report_since`].
#[derive(Debug, Clone)]
pub struct Mark {
    seq: u64,
    counters: BTreeMap<&'static str, u64>,
    timing_counts: BTreeMap<&'static str, (u64, f64)>,
}

/// Takes a [`Mark`] at the recorder's current position.
pub fn mark() -> Mark {
    let s = lock_state();
    Mark {
        seq: s.seq,
        counters: s.counters.clone(),
        timing_counts: s.timings.iter().map(|(k, v)| (*k, (v.count, v.total_ms))).collect(),
    }
}

/// Clears every recorded event, counter, and timing (the span-ID counter
/// keeps running — IDs are unique per process, not per report).
pub fn reset() {
    let mut s = lock_state();
    s.events.clear();
    s.dropped = 0;
    s.seq = 0;
    s.counters.clear();
    s.timings.clear();
}

/// Machine-readable snapshot of recorded observability data. Produced by
/// [`report_since`]/[`snapshot`], or assembled field-by-field by layers
/// (the Algorithm 1 sweep builds one in its index-ordered reduction so
/// the attached trace is deterministic by construction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Monotone tallies, sorted by name. Deterministic across thread
    /// counts and repeated runs.
    pub counters: Vec<(String, u64)>,
    /// Timing histograms, sorted by name. Wall-clock content — *not*
    /// part of the deterministic projection.
    pub timings: Vec<(String, TimingStat)>,
    /// Finished spans/events in recording order.
    pub spans: Vec<SpanRecord>,
    /// Span records discarded because the ring was full.
    pub dropped_events: u64,
}

impl TraceReport {
    /// An empty report.
    pub fn new() -> TraceReport {
        TraceReport::default()
    }

    /// Adds `n` to a named counter (creating it at zero), keeping the
    /// list sorted by name.
    pub fn add_counter(&mut self, name: &str, n: u64) {
        match self.counters.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.counters[i].1 += n,
            Err(i) => self.counters.insert(i, (name.to_string(), n)),
        }
    }

    /// Folds one millisecond sample into a named timing histogram,
    /// keeping the list sorted by name.
    pub fn add_timing(&mut self, name: &str, ms: f64) {
        match self.timings.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.timings[i].1.record(ms),
            Err(i) => {
                let mut t = TimingStat::default();
                t.record(ms);
                self.timings.insert(i, (name.to_string(), t));
            }
        }
    }

    /// The value of a counter, `0` if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map_or(0, |i| self.counters[i].1)
    }

    /// The timing histogram for `name`, if any samples were recorded.
    pub fn timing(&self, name: &str) -> Option<&TimingStat> {
        self.timings
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.timings[i].1)
    }

    /// Full JSON export. Spans are written one object per line so shell
    /// tooling (`scripts/trace_report.sh`) can stream them without a JSON
    /// parser. Wall-clock fields are included — use
    /// [`TraceReport::deterministic_json`] for byte-stable comparisons.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"dropped_events\": {},", self.dropped_events);
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape(k), v);
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"timings\": [");
        for (i, (k, t)) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ms\": {:.6}, \"min_ms\": {:.6}, \"max_ms\": {:.6}, \"buckets\": [{}]}}",
                escape(k),
                t.count,
                t.total_ms,
                t.min_ms,
                t.max_ms,
                t.buckets.iter().map(|b| b.to_string()).collect::<Vec<_>>().join(", ")
            );
        }
        out.push_str(if self.timings.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent =
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let label = s
                .label
                .as_ref()
                .map_or_else(|| "null".to_string(), |l| format!("\"{}\"", escape(l)));
            let _ = write!(
                out,
                "\n    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"label\": {}, \"start_ms\": {:.6}, \"dur_ms\": {:.6}, \"self_ms\": {:.6}}}",
                s.id,
                parent,
                escape(&s.name),
                label,
                s.start_ms,
                s.dur_ms,
                s.self_ms
            );
        }
        out.push_str(if self.spans.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push('}');
        out
    }

    /// The counters-only projection: one line of JSON with sorted keys
    /// and no wall-clock content. Two runs of the same deterministic
    /// computation must produce byte-identical output at any thread
    /// count — this is the string the repeat-run regression compares.
    pub fn deterministic_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON document (without the
/// surrounding quotes): `"` and `\` are backslash-escaped, `\n`, `\r` and
/// `\t` get their short escapes, other control characters become
/// `\u00XX`, and everything else is copied as is. The one JSON string
/// escaper of the workspace: the trace export, ed-serve's responses and
/// the atlas report all write strings through it.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a number for a JSON document: a finite value as Rust's
/// shortest round-trip `{v}`, a non-finite one as `null` (JSON has no NaN
/// or infinity, and a NaN must never read as data). The one JSON number
/// writer of the workspace: ed-serve's responses and the atlas report
/// write numbers through it.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn fill_self_time(spans: &mut [SpanRecord]) {
    // self = dur − Σ(direct children dur); two passes over the flat list.
    let mut child_sum: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter() {
        if let Some(p) = s.parent {
            *child_sum.entry(p).or_insert(0.0) += s.dur_ms;
        }
    }
    for s in spans.iter_mut() {
        if let Some(&c) = child_sum.get(&s.id) {
            s.self_ms = (s.dur_ms - c).max(0.0);
        }
    }
}

/// Everything recorded since `mark`: counter and timing deltas plus the
/// span records whose completion fell after the mark.
pub fn report_since(mark: &Mark) -> TraceReport {
    let s = lock_state();
    let counters = s
        .counters
        .iter()
        .map(|(k, v)| {
            let before = mark.counters.get(k).copied().unwrap_or(0);
            ((*k).to_string(), v - before)
        })
        .filter(|(_, v)| *v > 0)
        .collect();
    let timings = s
        .timings
        .iter()
        .filter_map(|(k, t)| {
            let (c0, t0) = mark.timing_counts.get(k).copied().unwrap_or((0, 0.0));
            if t.count == c0 {
                return None;
            }
            // Min/max/buckets are process-lifetime; count and total are
            // exact deltas, which is what the stage breakdowns consume.
            let mut d = *t;
            d.count -= c0;
            d.total_ms -= t0;
            Some(((*k).to_string(), d))
        })
        .collect();
    // `seq` counts completions; the tail of the event list after the cut
    // is exactly the records finished since the mark (dropped records
    // advance `seq` but not the list, so clamp from the short side).
    let kept_since = (s.seq.saturating_sub(mark.seq) as usize).min(s.events.len());
    let mut spans: Vec<SpanRecord> =
        s.events[s.events.len() - kept_since..].to_vec();
    let dropped = s.dropped;
    drop(s);
    fill_self_time(&mut spans);
    TraceReport { counters, timings, spans, dropped_events: dropped }
}

/// A report over everything recorded since process start (or the last
/// [`reset`]).
pub fn snapshot() -> TraceReport {
    let s = lock_state();
    let counters = s.counters.iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
    let timings = s.timings.iter().map(|(k, v)| ((*k).to_string(), *v)).collect();
    let mut spans = s.events.clone();
    let dropped = s.dropped;
    drop(s);
    fill_self_time(&mut spans);
    TraceReport { counters, timings, spans, dropped_events: dropped }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so the unit tests below run under a
    // single lock to keep their counter arithmetic isolated from each
    // other (integration crates exercise the concurrent path).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_primitives_record_nothing() {
        let _g = serial();
        set_enabled(false);
        let m = mark();
        counter("test.disabled", 5);
        observe_ms("test.disabled", 1.0);
        let _s = span("test.disabled");
        drop(_s);
        let r = report_since(&m);
        assert_eq!(r.counter("test.disabled"), 0);
        assert!(r.timing("test.disabled").is_none());
        assert!(r.spans.iter().all(|s| s.name != "test.disabled"));
    }

    #[test]
    fn counters_and_timings_accumulate() {
        let _g = serial();
        set_enabled(true);
        let m = mark();
        counter("test.cnt", 2);
        counter("test.cnt", 3);
        observe_ms("test.t", 0.5);
        observe_ms("test.t", 3.0);
        let r = report_since(&m);
        set_enabled(false);
        assert_eq!(r.counter("test.cnt"), 5);
        let t = r.timing("test.t").unwrap();
        assert_eq!(t.count, 2);
        assert!((t.total_ms - 3.5).abs() < 1e-9);
        assert_eq!(t.buckets[0], 1); // 0.5 ms → < 1 ms bucket
        assert_eq!(t.buckets[2], 1); // 3.0 ms → [2, 4) bucket
    }

    #[test]
    fn spans_nest_per_thread_and_compute_self_time() {
        let _g = serial();
        set_enabled(true);
        let m = mark();
        {
            let _outer = span("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span_labeled("test.inner", || "L1+".to_string());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let r = report_since(&m);
        set_enabled(false);
        let outer = r.spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = r.spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.label.as_deref(), Some("L1+"));
        assert!(outer.dur_ms >= inner.dur_ms);
        assert!(outer.self_ms <= outer.dur_ms - inner.dur_ms + 1e-6);
    }

    #[test]
    fn deterministic_json_is_counters_only() {
        let mut r = TraceReport::new();
        r.add_counter("b", 2);
        r.add_counter("a", 1);
        r.add_counter("b", 1);
        r.add_timing("t", 1.25);
        r.dropped_events = 7;
        assert_eq!(r.deterministic_json(), "{\"counters\":{\"a\":1,\"b\":3}}");
        assert_eq!(r.counter("b"), 3);
    }

    #[test]
    fn json_escapes_and_parses_shape() {
        let mut r = TraceReport::new();
        r.add_counter("weird\"name", 1);
        r.spans.push(SpanRecord {
            id: 1,
            parent: None,
            name: "s".into(),
            label: Some("l\\l".into()),
            start_ms: 0.0,
            dur_ms: 1.0,
            self_ms: 1.0,
        });
        let j = r.to_json();
        assert!(j.contains("weird\\\"name"));
        assert!(j.contains("l\\\\l"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn ring_cap_drops_and_counts_instead_of_growing() {
        // Exercise the cap logic directly on a tiny state rather than
        // pushing 65k events: the branch under test is the same.
        let mut st = State {
            epoch: Instant::now(),
            events: Vec::new(),
            dropped: 0,
            seq: 0,
            counters: BTreeMap::new(),
            timings: BTreeMap::new(),
        };
        for i in 0..5u64 {
            st.seq += 1;
            if st.events.len() >= 3 {
                st.dropped += 1;
                continue;
            }
            st.events.push(SpanRecord {
                id: i,
                parent: None,
                name: "e".into(),
                label: None,
                start_ms: 0.0,
                dur_ms: 0.0,
                self_ms: 0.0,
            });
        }
        assert_eq!(st.events.len(), 3);
        assert_eq!(st.dropped, 2);
        assert_eq!(st.seq, 5);
    }
}
