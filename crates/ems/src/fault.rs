//! Deterministic fault injection for the EMS pipeline.
//!
//! The paper's threat model is an EMS whose *inputs* are being corrupted
//! while it must keep issuing a dispatch every cycle. This module is the
//! test double for that reality: a seeded [`FaultPlan`] injects the fault
//! classes the resilience layer claims to survive — NaN/Inf DLR values,
//! raw memory corruption of the rating storage, transient scan failures,
//! solver stalls (exhausted budgets), and near-singular susceptance
//! skews — into one EMS control cycle, and [`run_faulted_cycle`] proves the
//! cycle still ends in a typed outcome.
//!
//! Everything is deterministic: the same seed and plan replay the same
//! byte-level corruptions and the same retry schedule, so failures found
//! in CI reproduce locally.

use crate::packages::EmsPackage;
use crate::EmsError;
use ed_core::dispatch::{ResilientDispatch, ResilientDispatcher};
use ed_core::mitigation::{DlrFlag, DlrMonitor};
use ed_core::SolveBudget;
use ed_powerflow::{Network, NetworkBuilder};
use ed_rng::{Rng, SeedableRng, StdRng};
use std::time::Duration;

/// One injectable fault class.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// The in-memory DLR value of `line` is replaced by NaN.
    NanRating {
        /// Line index.
        line: usize,
    },
    /// The in-memory DLR value of `line` is replaced by +Inf.
    InfRating {
        /// Line index.
        line: usize,
    },
    /// The rating storage of `line` is overwritten with seeded random
    /// bytes — a corrupted memory read: whatever garbage decodes is what
    /// the control loop sees.
    CorruptedRead {
        /// Line index.
        line: usize,
    },
    /// The first `failures` memory scans abort transiently (the paper's
    /// exploits re-scan until the signature resolves; so does a defender's
    /// integrity checker). Exercises retry-with-backoff.
    ScanFlake {
        /// Number of leading scan attempts that fail.
        failures: u32,
    },
    /// The dispatch solver is allowed only `deadline_us` microseconds of
    /// wall clock — at 0 the deadline is dead on arrival and every rung of
    /// the fallback ladder sees a tripped budget.
    SolverStall {
        /// Wall-clock budget in microseconds.
        deadline_us: u64,
    },
    /// One line's susceptance is scaled by `factor`, skewing the
    /// conditioning of the dispatch matrices (tiny factors drive the
    /// B-matrix toward singular).
    NearSingular {
        /// Line index.
        line: usize,
        /// Susceptance scale factor (must keep the reactance positive and
        /// finite, or the network builder rejects the result).
        factor: f64,
    },
}

/// A seeded, explicit set of faults to inject into one EMS control cycle.
///
/// The plan is data, not configuration magic: tests construct exactly the
/// faults they assert about, and the seed pins every random byte.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<FaultKind>,
    /// Retry schedule for injected scan failures.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, faults: Vec::new(), retry: RetryPolicy::default() }
    }

    /// Adds a fault to the plan.
    pub fn inject(mut self, fault: FaultKind) -> FaultPlan {
        self.faults.push(fault);
        self
    }

    /// Overrides the retry policy.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> FaultPlan {
        self.retry = retry;
        self
    }

    /// The faults in injection order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Applies this plan's memory-level rating faults (NaN, Inf,
    /// corrupted read) to a ratings vector in place — the request-level
    /// corruption model the serving chaos harness shares with the EMS
    /// cycle tests. `CorruptedRead` decodes seeded random bits as the
    /// `f64` a corrupted in-memory read would yield. Out-of-range line
    /// indices are ignored. Returns the indices that were overwritten.
    pub fn corrupt_ratings(&self, ratings_mw: &mut [f64]) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut hit = Vec::new();
        for f in &self.faults {
            let value = match f {
                FaultKind::NanRating { .. } => f64::NAN,
                FaultKind::InfRating { .. } => f64::INFINITY,
                FaultKind::CorruptedRead { .. } => f64::from_bits(rng.gen::<u64>()),
                _ => continue,
            };
            let line = match f {
                FaultKind::NanRating { line }
                | FaultKind::InfRating { line }
                | FaultKind::CorruptedRead { line } => *line,
                _ => unreachable!("filtered above"),
            };
            if let Some(slot) = ratings_mw.get_mut(line) {
                *slot = value;
                hit.push(line);
            }
        }
        hit
    }

    fn scan_failures(&self) -> u32 {
        self.faults
            .iter()
            .map(|f| match f {
                FaultKind::ScanFlake { failures } => *failures,
                _ => 0,
            })
            .sum()
    }

    fn budget(&self) -> SolveBudget {
        for f in &self.faults {
            if let FaultKind::SolverStall { deadline_us } = f {
                return SolveBudget::with_deadline(Duration::from_micros(*deadline_us));
            }
        }
        SolveBudget::unlimited()
    }
}

/// Deterministic exponential backoff for retrying transient failures.
///
/// The schedule doubles from `base_delay` up to `max_delay`, then spreads
/// each sleep by a seeded multiplicative jitter of ±`jitter_pct`%. The
/// jitter is a pure function of `(salt, attempt)`, so a given worker
/// replays the same schedule run after run, while workers with different
/// salts (e.g. different atlas cells) decorrelate instead of hammering a
/// shared resource in lock-step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before giving up (including the first).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Ceiling on any single delay (before jitter).
    pub max_delay: Duration,
    /// Half-width of the multiplicative jitter band, in percent: a delay
    /// `d` becomes a deterministic value in `[d·(1−j), d·(1+j)]` with
    /// `j = jitter_pct/100`. `0` reproduces the old fixed schedule.
    pub jitter_pct: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_millis(5),
            jitter_pct: 25,
        }
    }
}

/// SplitMix64 finalizer — a cheap, dependency-free bit mixer used to turn
/// `(salt, attempt)` into a uniform jitter fraction.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The un-jittered delay before attempt `attempt` (0-based; attempt 0
    /// has none).
    pub fn delay_before(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(16);
        (self.base_delay * factor).min(self.max_delay)
    }

    /// The jittered delay before attempt `attempt` for a worker identified
    /// by `salt`. Deterministic: the same `(policy, salt, attempt)` always
    /// yields the same duration.
    pub fn jittered_delay_before(&self, attempt: u32, salt: u64) -> Duration {
        let base = self.delay_before(attempt);
        if base.is_zero() || self.jitter_pct == 0 {
            return base;
        }
        let j = f64::from(self.jitter_pct.min(100)) / 100.0;
        let mixed = splitmix64(salt ^ u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f));
        let frac = (mixed >> 11) as f64 / (1u64 << 53) as f64; // uniform in [0, 1)
        let scale = 1.0 - j + 2.0 * j * frac;
        Duration::from_nanos((base.as_nanos() as f64 * scale) as u64)
    }
}

/// Runs `op` under the policy, sleeping the backoff delay between
/// attempts. Returns the result plus the number of retries spent.
/// Equivalent to [`with_retry_salted`] with salt `0`.
///
/// # Errors
///
/// The last error, once `max_attempts` attempts all failed.
pub fn with_retry<T>(
    policy: &RetryPolicy,
    op: impl FnMut() -> Result<T, EmsError>,
) -> Result<(T, u32), EmsError> {
    with_retry_salted(policy, 0, op)
}

/// Runs `op` under the policy with per-worker jitter: `salt` (e.g. a cell
/// index in an atlas sweep) decorrelates the backoff schedule from other
/// workers retrying the same policy concurrently. Returns the result plus
/// the number of retries spent.
///
/// # Errors
///
/// The last error, once `max_attempts` attempts all failed.
pub fn with_retry_salted<T>(
    policy: &RetryPolicy,
    salt: u64,
    mut op: impl FnMut() -> Result<T, EmsError>,
) -> Result<(T, u32), EmsError> {
    let mut last = None;
    for attempt in 0..policy.max_attempts.max(1) {
        let delay = policy.jittered_delay_before(attempt, salt);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        match op() {
            Ok(v) => return Ok((v, attempt)),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// What one faulted control cycle produced.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The faults that were injected (the plan, echoed back).
    pub injected: Vec<FaultKind>,
    /// Scan retries spent before the ratings read succeeded.
    pub scan_retries: u32,
    /// Lines whose in-memory rating was rejected by sanitization and
    /// replaced with the static rating.
    pub sanitized_lines: Vec<usize>,
    /// The ratings vector the dispatcher actually used.
    pub ratings_used_mw: Vec<f64>,
    /// Flags the DLR plausibility monitor raised on the *raw* (pre-
    /// sanitization) rating reading, with the healthy static ratings as the
    /// previous observation.
    pub dlr_flags: Vec<DlrFlag>,
    /// The dispatch outcome: rung used, degradations recorded, and the
    /// safety-gate audit of the final dispatch.
    pub dispatch: ResilientDispatch,
}

/// Applies a [`FaultKind::NearSingular`] skew to a copy of the network.
///
/// # Errors
///
/// [`EmsError::CorruptState`] if the skewed network no longer validates
/// (e.g. the factor drove a reactance non-finite) — which is itself a
/// typed outcome, not a panic.
fn skewed_network(net: &Network, line: usize, factor: f64) -> Result<Network, EmsError> {
    let mut b = NetworkBuilder::new(net.base_mva());
    for bus in net.buses() {
        let id = b.add_bus(&bus.name, bus.kind, bus.demand_mw);
        b.set_bus_demand_mvar(id, bus.demand_mvar);
        b.set_voltage_setpoint(id, bus.voltage_setpoint_pu);
    }
    for (l, ln) in net.lines().iter().enumerate() {
        // Scaling susceptance down = scaling reactance up.
        let x = if l == line { ln.reactance_pu / factor } else { ln.reactance_pu };
        let id = b.add_line(ln.from, ln.to, ln.resistance_pu, x, ln.rating_mva);
        b.set_line_charging(id, ln.charging_pu);
    }
    for g in net.gens() {
        let id = b.add_gen(g.bus, g.pmin_mw, g.pmax_mw, g.cost);
        b.set_gen_q_limits(id, g.qmin_mvar, g.qmax_mvar);
    }
    b.build().map_err(|e| EmsError::CorruptState { what: format!("skewed network invalid: {e}") })
}

/// Boots the EMS, injects every fault in the plan, and runs one control
/// cycle (scan → read ratings → sanitize → resilient dispatch).
///
/// The contract under test: **every fault class ends in a typed outcome**
/// — a [`FaultReport`] carrying the degradations, or a typed [`EmsError`]
/// — never a panic, never an abort.
///
/// # Errors
///
/// - [`EmsError::CorruptState`] when scan retries are exhausted or a
///   skewed network no longer validates.
/// - Dispatch-layer errors only when even the fallback ladder has no
///   answer (no last-known-good and every rung failed).
pub fn run_faulted_cycle(
    package: EmsPackage,
    net: &Network,
    plan: &FaultPlan,
) -> Result<FaultReport, EmsError> {
    let _span = ed_obs::span_labeled("ems.faulted_cycle", || package.name().to_string());
    let _t = ed_obs::timer("ems.faulted_cycle");
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let static_ratings = net.static_ratings_mva();

    // Apply any topology-level fault before the EMS boots: the skewed
    // susceptance is what the operator's model would contain.
    let mut skewed: Option<Network> = None;
    for f in &plan.faults {
        if let FaultKind::NearSingular { line, factor } = f {
            skewed = Some(skewed_network(skewed.as_ref().unwrap_or(net), *line, *factor)?);
        }
    }
    let net = skewed.as_ref().unwrap_or(net);

    let mut victim = package.build(net, &static_ratings, plan.seed)?;

    // A healthy cycle has run before the faults arrive: prime the
    // last-known-good rung the way a real EMS holds its previous base
    // point.
    let mut dispatcher = ResilientDispatcher::new();
    let demand = net.demand_vector_mw();
    if let Ok(r) =
        dispatcher.dispatch(net, &demand, &static_ratings, &SolveBudget::unlimited())
    {
        debug_assert!(r.is_clean() || dispatcher.last_known_good().is_some());
    }

    // Memory-level faults. Each injection lands in the event log, so a
    // trace of a faulted run shows exactly what was corrupted and when.
    for f in &plan.faults {
        ed_obs::event("ems.fault", || format!("{f:?}"));
        ed_obs::counter("ems.faults_injected", 1);
        let (line, value) = match f {
            FaultKind::NanRating { line } => (*line, Some(f64::NAN)),
            FaultKind::InfRating { line } => (*line, Some(f64::INFINITY)),
            FaultKind::CorruptedRead { line } => (*line, None),
            _ => continue,
        };
        let addr = *victim.rating_addrs.get(line).ok_or(EmsError::CorruptState {
            what: format!("fault targets line {line} beyond rating table"),
        })?;
        let bytes = match value {
            Some(v) => victim.rating_repr.encode(v),
            None => (0..victim.rating_repr.size()).map(|_| rng.gen::<u8>()).collect(),
        };
        // `poke` bypasses W^X like a debugger write — the attacker model.
        victim.memory.poke(addr, &bytes)?;
    }

    // Scan phase with injected transient failures and backoff.
    let mut scans_left_to_fail = plan.scan_failures();
    let (raw_ratings, scan_retries) = with_retry(&plan.retry, || {
        if scans_left_to_fail > 0 {
            scans_left_to_fail -= 1;
            return Err(EmsError::CorruptState { what: "injected scan failure".into() });
        }
        victim.read_ratings_mw()
    })?;

    // The plausibility monitor sees what the EMS read, before anything is
    // cleaned up: the point is to flag the corruption itself.
    let mut monitor = DlrMonitor::default();
    monitor.prime(&static_ratings);
    monitor.observe(&static_ratings);
    let dlr_flags = monitor.observe(&raw_ratings);

    // Sanitization: non-finite / non-positive ratings never reach a
    // solver; each is replaced by the line's static rating and flagged.
    let mut sanitized_lines = Vec::new();
    let mut ratings_used = raw_ratings;
    for (l, r) in ratings_used.iter_mut().enumerate() {
        if !r.is_finite() || *r <= 0.0 {
            *r = static_ratings[l];
            sanitized_lines.push(l);
        }
    }

    ed_obs::counter("ems.scan_retries", u64::from(scan_retries));
    ed_obs::counter("ems.sanitized_ratings", sanitized_lines.len() as u64);

    let dispatch = dispatcher.dispatch(net, &demand, &ratings_used, &plan.budget())?;

    Ok(FaultReport {
        injected: plan.faults.clone(),
        scan_retries,
        sanitized_lines,
        ratings_used_mw: ratings_used,
        dlr_flags,
        dispatch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ed_core::dispatch::DispatchRung;

    fn net() -> Network {
        ed_cases::three_bus()
    }

    #[test]
    fn empty_plan_is_unscathed() {
        let plan = FaultPlan::new(1);
        let r = run_faulted_cycle(EmsPackage::PowerWorld, &net(), &plan).unwrap();
        // No degradation anywhere, and the final dispatch passes its audit.
        assert_eq!(r.scan_retries, 0, "{r:?}");
        assert!(r.sanitized_lines.is_empty() && r.dispatch.is_clean(), "{r:?}");
        assert!(r.dispatch.safety.as_ref().is_some_and(|s| s.passed()), "{r:?}");
        // Linear costs → the LP rung is the exact solver, not a fallback.
        assert_eq!(r.dispatch.rung, DispatchRung::LpApprox);
    }

    #[test]
    fn nan_rating_is_sanitized_before_any_solver() {
        let plan = FaultPlan::new(2).inject(FaultKind::NanRating { line: 1 });
        let r = run_faulted_cycle(EmsPackage::PowerWorld, &net(), &plan).unwrap();
        assert_eq!(r.sanitized_lines, vec![1]);
        assert!(r.ratings_used_mw.iter().all(|v| v.is_finite()));
        // The monitor flagged the raw reading independently of sanitization.
        assert!(
            r.dlr_flags.iter().any(|f| matches!(f, DlrFlag::NonFinite { line: 1 })),
            "{:?}",
            r.dlr_flags
        );
        // And the dispatch that finally went out is physically audited.
        assert!(r.dispatch.safety.as_ref().is_some_and(|s| s.passed()), "{:?}", r.dispatch.safety);
    }

    #[test]
    fn corrupted_read_is_deterministic_per_seed() {
        let plan = FaultPlan::new(3).inject(FaultKind::CorruptedRead { line: 0 });
        let a = run_faulted_cycle(EmsPackage::PowerTools, &net(), &plan).unwrap();
        let b = run_faulted_cycle(EmsPackage::PowerTools, &net(), &plan).unwrap();
        assert_eq!(a.ratings_used_mw, b.ratings_used_mw, "same seed, same garbage");
        assert_eq!(a.sanitized_lines, b.sanitized_lines);
    }

    #[test]
    fn scan_flake_is_retried_with_backoff() {
        let plan = FaultPlan::new(4).inject(FaultKind::ScanFlake { failures: 2 });
        let r = run_faulted_cycle(EmsPackage::Neplan, &net(), &plan).unwrap();
        assert_eq!(r.scan_retries, 2);
    }

    #[test]
    fn scan_flake_beyond_retries_is_typed_error() {
        let plan = FaultPlan::new(5)
            .inject(FaultKind::ScanFlake { failures: 100 })
            .retry_policy(RetryPolicy {
                max_attempts: 3,
                base_delay: Duration::ZERO,
                max_delay: Duration::ZERO,
                jitter_pct: 0,
            });
        let err = run_faulted_cycle(EmsPackage::Neplan, &net(), &plan).unwrap_err();
        assert!(matches!(err, EmsError::CorruptState { .. }), "{err}");
    }

    #[test]
    fn solver_stall_degrades_not_panics() {
        let plan = FaultPlan::new(6).inject(FaultKind::SolverStall { deadline_us: 0 });
        let r = run_faulted_cycle(EmsPackage::PowerWorld, &net(), &plan).unwrap();
        assert!(!r.dispatch.is_clean(), "a dead deadline cannot be clean");
    }

    #[test]
    fn near_singular_skew_ends_typed() {
        // 1e-9 susceptance scale: the line is electrically almost gone.
        let plan = FaultPlan::new(7).inject(FaultKind::NearSingular { line: 1, factor: 1e-9 });
        // Either a dispatch (possibly degraded) or a typed error — the
        // assertion is simply that we get here without a panic.
        match run_faulted_cycle(EmsPackage::PowerWorld, &net(), &plan) {
            Ok(r) => assert!(r.ratings_used_mw.iter().all(|v| v.is_finite())),
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }

    #[test]
    fn retry_policy_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_micros(100),
            max_delay: Duration::from_micros(350),
            jitter_pct: 0,
        };
        assert_eq!(p.delay_before(0), Duration::ZERO);
        assert_eq!(p.delay_before(1), Duration::from_micros(100));
        assert_eq!(p.delay_before(2), Duration::from_micros(200));
        assert_eq!(p.delay_before(3), Duration::from_micros(350));
        assert_eq!(p.delay_before(4), Duration::from_micros(350));
    }

    #[test]
    fn jitter_is_deterministic_bounded_and_decorrelated() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_micros(1000),
            max_delay: Duration::from_millis(10),
            jitter_pct: 25,
        };
        // Attempt 0 never sleeps, jitter or not.
        assert_eq!(p.jittered_delay_before(0, 42), Duration::ZERO);
        for attempt in 1..5 {
            let base = p.delay_before(attempt).as_nanos() as f64;
            for salt in [0u64, 1, 7, 0xdead_beef] {
                let d = p.jittered_delay_before(attempt, salt);
                // Same (salt, attempt) → same delay.
                assert_eq!(d, p.jittered_delay_before(attempt, salt));
                let n = d.as_nanos() as f64;
                assert!(n >= base * 0.75 - 1.0 && n <= base * 1.25 + 1.0, "{n} vs {base}");
            }
        }
        // Different salts must not share a schedule (that is the point).
        assert_ne!(p.jittered_delay_before(1, 1), p.jittered_delay_before(1, 2));
        // jitter_pct = 0 reproduces the fixed schedule exactly.
        let fixed = RetryPolicy { jitter_pct: 0, ..p };
        assert_eq!(fixed.jittered_delay_before(3, 99), fixed.delay_before(3));
    }
}
