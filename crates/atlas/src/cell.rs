//! One atlas cell: typed outcomes, degradation tiers, fault taxonomy.
//!
//! A cell is the attack problem at one (case, E_D subset, contingency,
//! hour). Execution degrades gracefully through three tiers:
//!
//! 1. **Screen** — the sound rating-band bound of
//!    [`ed_core::attack::attack_upper_bound`]: dispatch enforces
//!    `|f_l| ≤ u^a_l ≤ u^max_l`, so a non-positive bound *proves* the
//!    cell unattackable without touching a solver. A deadline-starved
//!    cell stops here and reports the bound itself, honestly labeled
//!    `bound_only`.
//! 2. **Heuristic** — the corner/greedy heuristic (no optimality proof).
//! 3. **Exact** — certified bilevel Algorithm 1, with the sweep's
//!    independent KKT certificates forced on.
//!
//! Anything that is not a result is a typed [`CellFault`] — panic, node
//! budget, numerical, uncertified — which the engine retries with
//! jittered backoff and finally quarantines as a first-class report row.

use ed_core::attack::{
    attack_upper_bound, optimal_attack_under_outage, AttackConfig, BilevelOptions,
};
use ed_core::CoreError;
use ed_dlr::TimeStep;
use ed_optim::lp::Basis;
use ed_powerflow::{LineId, Network};

/// Degradation tier a cell ran (or was allowed to run) at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Rating-band screening only.
    Screen,
    /// Corner/greedy heuristic.
    Heuristic,
    /// Exact certified bilevel solve.
    Exact,
}

impl Tier {
    /// Lower-case label used in reports and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Screen => "screen",
            Tier::Heuristic => "heuristic",
            Tier::Exact => "exact",
        }
    }

    /// Parses a CLI/report label.
    pub fn parse(s: &str) -> Option<Tier> {
        match s {
            "screen" => Some(Tier::Screen),
            "heuristic" => Some(Tier::Heuristic),
            "exact" => Some(Tier::Exact),
            _ => None,
        }
    }
}

/// A completed cell's deterministic payload.
#[derive(Debug, Clone)]
pub struct Solved {
    /// Tier that produced the value.
    pub tier: Tier,
    /// Violation in percent of the true rating (Eq. 14a), clamped at 0.
    pub violation_pct: f64,
    /// The same violation in MW on the target line.
    pub overload_mw: f64,
    /// Attacked line and direction, when the violation is positive.
    pub target: Option<(usize, i8)>,
    /// `true` only when every subproblem carried an optimality proof
    /// (exact tier) — screening proofs of unattackability also count.
    pub proved: bool,
    /// `true` when the value is the screening *upper bound*, not a solved
    /// violation (deadline-starved cells).
    pub bound_only: bool,
    /// Subproblems whose exact solution certified (first try).
    pub certified: usize,
    /// Subproblems certified only after the alternate-reformulation
    /// repair.
    pub cert_repaired: usize,
    /// Subproblems that degraded on a tripped node/wall budget.
    pub budget_faults: usize,
    /// Subproblems that degraded on a numerical fault.
    pub numerical_faults: usize,
    /// The screening bound for this cell (sound upper bound on
    /// `violation_pct`).
    pub screen_bound_pct: f64,
    /// Seed basis for warm-starting the next hour of the same chain
    /// (never serialized — run-local hand-off only).
    pub seed_basis: Option<Basis>,
}

/// Why a cell cannot be posed at all (still a first-class report row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UntestableReason {
    /// The outage disconnects the network (bridge line).
    Islanded,
    /// The outaged line is itself in the cell's E_D subset.
    OutageIsDlrLine,
}

impl UntestableReason {
    /// Report label.
    pub fn as_str(self) -> &'static str {
        match self {
            UntestableReason::Islanded => "islanded",
            UntestableReason::OutageIsDlrLine => "outage_is_dlr_line",
        }
    }
}

/// The typed outcome of one successful cell attempt.
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell produced a violation value (possibly a proven zero, or a
    /// `bound_only` screening bound under deadline starvation).
    Completed(Box<Solved>),
    /// No stealthy manipulation admits a feasible dispatch at this
    /// operating point — the paper's alarm condition.
    Infeasible,
    /// The cell cannot be posed (see [`UntestableReason`]).
    Untestable(UntestableReason),
}

/// A typed cell fault: retried with jittered backoff, then quarantined.
#[derive(Debug, Clone)]
pub enum CellFault {
    /// The solve panicked (caught at the cell boundary).
    Panic(String),
    /// A numerical or optimization-layer failure.
    Numerical(String),
    /// The exact sweep finished but some subproblem solutions failed
    /// their independent certificate even after repair.
    Uncertified(usize),
}

impl CellFault {
    /// `(kind, detail)` labels for report rows.
    pub fn describe(&self) -> (&'static str, String) {
        match self {
            CellFault::Panic(m) => ("panic", m.clone()),
            CellFault::Numerical(m) => ("numerical", m.clone()),
            CellFault::Uncertified(n) => ("uncertified", format!("{n} uncertified subproblems")),
        }
    }
}

/// Everything needed to pose one cell.
pub struct CellInput<'a> {
    /// Intact network of the case.
    pub net: &'a Network,
    /// E_D subset (base-network line indices, ascending).
    pub subset: &'a [usize],
    /// Outage column (base-network line index), `None` = intact.
    pub outage: Option<usize>,
    /// Scenario step: demand vector and true DLR ratings for this hour.
    pub step: &'a TimeStep,
    /// Static ratings (permissible-band anchors).
    pub static_ratings: &'a [f64],
    /// Permissible band as fractions of the static rating.
    pub band: (f64, f64),
    /// Node budget per subproblem.
    pub node_limit: usize,
    /// Warm seed basis handed over from the previous hour of this chain.
    pub warm: Option<Basis>,
}

impl CellInput<'_> {
    fn config(&self) -> AttackConfig {
        let lines: Vec<LineId> = self.subset.iter().map(|&l| LineId(l)).collect();
        let lo: Vec<f64> =
            self.subset.iter().map(|&l| self.band.0 * self.static_ratings[l]).collect();
        let hi: Vec<f64> =
            self.subset.iter().map(|&l| self.band.1 * self.static_ratings[l]).collect();
        let u_d: Vec<f64> = self.subset.iter().map(|&l| self.step.ratings_mw[l]).collect();
        let options = BilevelOptions {
            node_limit: self.node_limit,
            // Cell-level parallelism belongs to the chain scheduler; a
            // nested fan-out per subproblem would oversubscribe the pool.
            // Answers are bit-identical across thread counts, so this is
            // free.
            threads: Some(1),
            // The atlas's contract includes per-cell certificate status:
            // certification stays on explicitly, whatever the default.
            certify: Some(true),
            trace: Some(false),
            warm_basis: self.warm.clone(),
            ..BilevelOptions::default()
        };
        AttackConfig::new(lines)
            .bounds_per_line(lo, hi)
            .true_ratings(u_d)
            .demand(self.step.demand_mw.clone())
            .solver_options(options)
    }
}

/// Runs one cell at (up to) `tier`, returning a typed outcome or fault.
///
/// # Errors
///
/// A [`CellFault`] the engine will retry and eventually quarantine.
pub fn execute_cell(input: &CellInput<'_>, tier: Tier) -> Result<CellOutcome, CellFault> {
    if let Some(k) = input.outage {
        if input.subset.contains(&k) {
            return Ok(CellOutcome::Untestable(UntestableReason::OutageIsDlrLine));
        }
    }
    let cfg = input.config();
    let bound = attack_upper_bound(&cfg);

    // Tier 1: the bound is sound under any contingency, so a non-positive
    // bound proves unattackability outright...
    if bound <= 1e-9 {
        return Ok(CellOutcome::Completed(Box::new(Solved {
            tier: Tier::Screen,
            violation_pct: 0.0,
            overload_mw: 0.0,
            target: None,
            proved: true,
            bound_only: false,
            certified: 0,
            cert_repaired: 0,
            budget_faults: 0,
            numerical_faults: 0,
            screen_bound_pct: bound,
            seed_basis: None,
        })));
    }
    // ...while a deadline-starved cell stops here and reports the bound
    // itself, labeled as such: complete and honest, just loose.
    if tier == Tier::Screen {
        return Ok(CellOutcome::Completed(Box::new(Solved {
            tier: Tier::Screen,
            violation_pct: bound,
            overload_mw: 0.0,
            target: None,
            proved: false,
            bound_only: true,
            certified: 0,
            cert_repaired: 0,
            budget_faults: 0,
            numerical_faults: 0,
            screen_bound_pct: bound,
            seed_basis: None,
        })));
    }

    let exact = tier == Tier::Exact;
    match optimal_attack_under_outage(input.net, &cfg, input.outage, exact) {
        Ok(r) => {
            if exact && r.sweep.uncertified > 0 {
                return Err(CellFault::Uncertified(r.sweep.uncertified));
            }
            let budget_faults = r
                .subproblems
                .iter()
                .filter(|s| {
                    matches!(s.fault, Some(ed_core::attack::SubproblemFault::Budget(_)))
                })
                .count();
            let numerical_faults = r
                .subproblems
                .iter()
                .filter(|s| {
                    matches!(s.fault, Some(ed_core::attack::SubproblemFault::Numerical(_)))
                })
                .count();
            let proved = exact && r.subproblems.iter().all(|s| s.proved_optimal);
            Ok(CellOutcome::Completed(Box::new(Solved {
                tier,
                violation_pct: r.ucap_pct,
                overload_mw: r.overload_mw,
                target: r.target.map(|(l, d)| (l.0, d)),
                proved,
                bound_only: false,
                certified: r.sweep.certified,
                cert_repaired: r.sweep.cert_repaired,
                budget_faults,
                numerical_faults,
                screen_bound_pct: bound,
                seed_basis: r.seed_basis,
            })))
        }
        Err(CoreError::DispatchInfeasible) => Ok(CellOutcome::Infeasible),
        Err(CoreError::Powerflow(e)) if input.outage.is_some() => {
            // The builder's connectivity check firing under an outage is
            // the islanding signal; any other power-flow failure on an
            // intact network is a genuine numerical fault.
            if e.to_string().contains("disconnected") {
                Ok(CellOutcome::Untestable(UntestableReason::Islanded))
            } else {
                Err(CellFault::Numerical(e.to_string()))
            }
        }
        Err(CoreError::Parallel { what }) => Err(CellFault::Panic(what)),
        Err(e) => Err(CellFault::Numerical(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ed_dlr::{DemandProfile, DlrProfile, ScenarioBuilder};

    fn input_for<'a>(
        net: &'a Network,
        statics: &'a [f64],
        step: &'a TimeStep,
        subset: &'a [usize],
        outage: Option<usize>,
    ) -> CellInput<'a> {
        CellInput {
            net,
            subset,
            outage,
            step,
            static_ratings: statics,
            band: (0.75, 1.25),
            node_limit: 20_000,
            warm: None,
        }
    }

    fn three_bus_fixture() -> (Network, Vec<f64>, Vec<TimeStep>) {
        let net = ed_cases::three_bus();
        let statics = net.static_ratings_mva();
        let s = ScenarioBuilder::new(&net)
            .steps(4)
            .demand(DemandProfile::double_peak(net.total_demand_mw()))
            .dlr(LineId(1), DlrProfile::sinusoidal(0.75 * 160.0, 1.25 * 160.0, 0.0))
            .dlr(LineId(2), DlrProfile::sinusoidal(0.75 * 160.0, 1.25 * 160.0, 12.0))
            .build();
        let steps = s.steps().to_vec();
        (net, statics, steps)
    }

    #[test]
    fn exact_tier_solves_and_certifies() {
        let (net, statics, steps) = three_bus_fixture();
        let subset = [1usize, 2];
        let input = input_for(&net, &statics, &steps[0], &subset, None);
        let out = execute_cell(&input, Tier::Exact).unwrap();
        match out {
            CellOutcome::Completed(s) => {
                assert_eq!(s.tier, Tier::Exact);
                assert!(s.violation_pct >= 0.0 && s.violation_pct <= s.screen_bound_pct + 1e-9);
                assert!(s.proved, "paper-scale cell must prove optimality");
                assert!(s.certified > 0, "certification is forced on");
                assert!(!s.bound_only);
            }
            other => panic!("expected completed, got {other:?}"),
        }
    }

    #[test]
    fn screen_tier_is_bound_only_and_labeled() {
        let (net, statics, steps) = three_bus_fixture();
        let subset = [1usize];
        let input = input_for(&net, &statics, &steps[0], &subset, None);
        match execute_cell(&input, Tier::Screen).unwrap() {
            CellOutcome::Completed(s) => {
                assert_eq!(s.tier, Tier::Screen);
                assert!(s.bound_only, "unresolved screen cells must be labeled");
                assert!(!s.proved);
                assert!(s.violation_pct > 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn outage_of_subset_line_is_untestable() {
        let (net, statics, steps) = three_bus_fixture();
        let subset = [1usize, 2];
        let input = input_for(&net, &statics, &steps[0], &subset, Some(2));
        assert!(matches!(
            execute_cell(&input, Tier::Exact).unwrap(),
            CellOutcome::Untestable(UntestableReason::OutageIsDlrLine)
        ));
    }

    #[test]
    fn heuristic_tier_never_exceeds_exact() {
        let (net, statics, steps) = three_bus_fixture();
        let subset = [1usize, 2];
        let input = input_for(&net, &statics, &steps[1], &subset, None);
        let h = match execute_cell(&input, Tier::Heuristic).unwrap() {
            CellOutcome::Completed(s) => s,
            other => panic!("{other:?}"),
        };
        let e = match execute_cell(&input, Tier::Exact).unwrap() {
            CellOutcome::Completed(s) => s,
            other => panic!("{other:?}"),
        };
        assert!(!h.proved, "heuristic carries no proof");
        assert!(h.violation_pct <= e.violation_pct + 1e-9, "{} vs {}", h.violation_pct, e.violation_pct);
    }
}
