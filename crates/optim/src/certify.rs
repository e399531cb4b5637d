//! Independent solution certification: audit any [`Solver`] result against
//! the **original, un-presolved** [`Model`].
//!
//! A silently-wrong solver answer — a corrupted simplex basis, a bad
//! postsolve mapping, a stale active set — propagates straight into
//! dispatch commands and benchmark numbers unless something *independent*
//! re-checks it. [`certify`] is that check: a single pass over the model
//! data (never the solver's internal state) that evaluates
//!
//! - **primal feasibility** — bounds and row activities;
//! - **integrality** — integer-marked variables sit on integers;
//! - **complementarity** — MPEC pairs `x_a·x_b = 0`;
//! - **objective consistency** — the reported objective matches the
//!   objective recomputed at `x`;
//! - **dual feasibility** — row duals and reduced costs have the signs the
//!   model's senses demand (skipped when the family reports no duals);
//! - **stationarity** — `c + Hx − Aᵀy − rc = 0` in minimization form;
//! - **complementary slackness** — `y_i·s_i` and `rc_j·(bound gap)`;
//! - **duality gap** — primal vs the explicit dual objective.
//!
//! Every check is scale-relative, each has a typed tolerance in
//! [`Tolerances`] (the *same* struct the solvers' own options default
//! from, so certify and solve cannot disagree by construction), and the
//! result is a machine-readable [`Certificate`] carrying the worst
//! residual per category plus a [`Witness`] pinpointing the first failure.
//!
//! [`CertifiedSolver`] wraps any [`Solver`] with an automatic repair
//! ladder: certify → re-solve with tightened tolerances → alternate
//! backends → flag the result as uncertified. Callers decide whether to
//! certify; Algorithm 1 does by default (`BilevelOptions::certify`).

use crate::budget::{SolveBudget, SolveOutcome};
use crate::model::{Model, RowSense, Sense, Solution, Solver};
use crate::OptimError;

/// Headroom factor between a solver's own tolerance and the residual the
/// certifier accepts. A solver that legitimately stops at `feas_tol` can
/// hand back residuals right *at* that tolerance (plus postsolve roundoff),
/// so certification at exactly the solve tolerance would flake on honest
/// answers. One order of magnitude of headroom keeps the check sharp —
/// injected faults perturb solutions by many orders more — without
/// rejecting legitimate boundary cases.
pub const CERT_MARGIN: f64 = 10.0;

/// The unified numerical-tolerance vocabulary for the whole crate.
///
/// Solver option defaults ([`crate::lp::SimplexOptions`],
/// [`crate::qp::QpOptions`], [`crate::qp::IpmOptions`],
/// [`crate::model::presolve::PresolveOptions`],
/// [`crate::branch_bound::BranchOptions`]) pull
/// their tolerance fields from [`Tolerances::default`], and [`certify`]
/// consumes the same struct — one source of truth instead of scattered
/// `1e-6`/`1e-8` literals that can drift apart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Primal feasibility: bound and row-activity violation (relative).
    pub feas: f64,
    /// Optimality / reduced-cost / step tolerance for the solvers.
    pub opt: f64,
    /// Dual feasibility: wrong-signed row duals and reduced costs.
    pub dual: f64,
    /// Stationarity residual `c + Hx − Aᵀy − rc` (relative).
    pub stationarity: f64,
    /// Complementary slackness and MPEC pair products (scaled).
    pub comp: f64,
    /// Integrality: distance of an integer-marked variable from the grid.
    pub int: f64,
    /// Duality-gap and objective-consistency tolerance (relative).
    pub gap: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            feas: 1e-7,
            opt: 1e-9,
            dual: 1e-6,
            stationarity: 1e-6,
            comp: 1e-6,
            int: 1e-6,
            gap: 1e-6,
        }
    }
}

impl Tolerances {
    /// The tightened variant used by the repair ladder's first rung: one
    /// order of magnitude tighter on the solver-facing tolerances. The
    /// certification thresholds themselves are unchanged — a repair must
    /// pass the *original* bar, not a moved one.
    pub fn tightened(&self) -> Tolerances {
        Tolerances { feas: self.feas / 10.0, opt: self.opt / 10.0, ..*self }
    }
}

/// Certification outcome, ordered by severity (a solution failing several
/// checks reports the most fundamental failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertStatus {
    /// Every applicable check passed within tolerance.
    Certified,
    /// The solution vector is the wrong shape or contains non-finite
    /// entries — nothing else can even be evaluated.
    Malformed,
    /// A bound or constraint row is violated at `x`.
    PrimalInfeasible,
    /// An integer-marked variable is fractional.
    IntegralityViolated,
    /// An MPEC pair product, a row dual × slack product, or a reduced
    /// cost × bound-gap product is too large.
    ComplementarityViolated,
    /// The reported objective disagrees with the objective recomputed at
    /// `x` (a corrupted incumbent or bookkeeping fault).
    ObjectiveMismatch,
    /// A row dual or reduced cost has a sign the model's senses forbid.
    DualInfeasible,
    /// The stationarity identity `c + Hx − Aᵀy − rc = 0` fails.
    StationarityViolated,
    /// Primal and dual objectives disagree beyond the gap tolerance.
    DualityGap,
}

impl std::fmt::Display for CertStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CertStatus::Certified => "certified",
            CertStatus::Malformed => "malformed solution",
            CertStatus::PrimalInfeasible => "primal infeasible",
            CertStatus::IntegralityViolated => "integrality violated",
            CertStatus::ComplementarityViolated => "complementarity violated",
            CertStatus::ObjectiveMismatch => "objective mismatch",
            CertStatus::DualInfeasible => "dual infeasible",
            CertStatus::StationarityViolated => "stationarity violated",
            CertStatus::DualityGap => "duality gap",
        };
        write!(f, "{s}")
    }
}

/// Worst scale-relative residual observed per check category. All entries
/// are `0.0` when the category is trivially satisfied; dual-side entries
/// are `0.0` when the solving family reported no duals (see
/// [`Certificate::dual_checked`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Residuals {
    /// Bound / row-activity violation.
    pub primal: f64,
    /// Distance from the integer grid.
    pub integrality: f64,
    /// Pair products and complementary-slackness products.
    pub complementarity: f64,
    /// Reported-vs-recomputed objective disagreement.
    pub objective: f64,
    /// Wrong-signed dual magnitude.
    pub dual: f64,
    /// Stationarity identity residual.
    pub stationarity: f64,
    /// Primal-dual objective gap.
    pub gap: f64,
}

/// Pinpoints the first (worst-category) failure for diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum Witness {
    /// The solution vector itself is unusable.
    Shape {
        /// What was malformed.
        what: String,
    },
    /// Variable `var` violates its bounds.
    Bound {
        /// Variable index.
        var: usize,
        /// Its value at the solution.
        value: f64,
        /// Lower bound.
        lb: f64,
        /// Upper bound.
        ub: f64,
    },
    /// Row `row`'s activity violates its sense/rhs.
    Row {
        /// Row index.
        row: usize,
        /// Activity `aᵀx`.
        activity: f64,
        /// Right-hand side.
        rhs: f64,
    },
    /// Integer-marked variable `var` is fractional.
    Integrality {
        /// Variable index.
        var: usize,
        /// Its fractional value.
        value: f64,
    },
    /// Pair `(a, b)` has a non-zero product.
    Pair {
        /// First variable of the pair.
        a: usize,
        /// Second variable of the pair.
        b: usize,
        /// The product `x_a·x_b`.
        product: f64,
    },
    /// The reported objective is not the objective at `x`.
    Objective {
        /// What the solver claimed.
        reported: f64,
        /// What the model evaluates to at `x`.
        recomputed: f64,
    },
    /// Row `row`'s dual has a forbidden sign.
    DualSign {
        /// Row index.
        row: usize,
        /// The offending dual (minimization convention).
        dual: f64,
    },
    /// Variable `var`'s reduced cost has a forbidden sign.
    ReducedCostSign {
        /// Variable index.
        var: usize,
        /// The offending reduced cost (minimization convention).
        reduced_cost: f64,
    },
    /// The stationarity identity fails at variable `var`.
    Stationarity {
        /// Variable index.
        var: usize,
        /// Residual of `c + Hx − Aᵀy − rc` at that coordinate.
        residual: f64,
    },
    /// A multiplier and its slack are both materially non-zero.
    Slackness {
        /// Row index (or variable index for bound slackness).
        row: usize,
        /// The multiplier.
        dual: f64,
        /// The slack it should complement.
        slack: f64,
    },
    /// Primal and dual objectives disagree.
    Gap {
        /// Primal objective (minimization form).
        primal: f64,
        /// Dual objective (minimization form).
        dual: f64,
    },
}

/// Machine-readable certification verdict for one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// Overall verdict (most fundamental failure wins).
    pub status: CertStatus,
    /// Worst residual observed per category.
    pub worst_residuals: Residuals,
    /// Pinpointed first failure, when `status != Certified`.
    pub witness: Option<Witness>,
    /// Whether the dual-side checks (dual feasibility, stationarity,
    /// slackness, gap) actually ran. `false` for families that report no
    /// duals (MILP/MPEC) — their certificates cover the primal side only.
    pub dual_checked: bool,
}

impl Certificate {
    /// `true` when every applicable check passed.
    pub fn passed(&self) -> bool {
        self.status == CertStatus::Certified
    }
}

/// Tracks the worst residual in one category plus its witness.
struct Worst {
    value: f64,
    witness: Option<Witness>,
}

impl Worst {
    fn new() -> Worst {
        Worst { value: 0.0, witness: None }
    }

    fn observe(&mut self, value: f64, witness: impl FnOnce() -> Witness) {
        if value > self.value {
            self.value = value;
            self.witness = Some(witness());
        }
    }
}

/// Independently certifies `sol` against `model` at the given tolerances.
///
/// Works entirely in minimization form internally: the model's stated-sense
/// duals are converted by `sign = +1` (Min) / `−1` (Max), under the same
/// conventions the [`Solver`] trait documents. Families that report empty
/// dual vectors get a primal-side certificate with
/// [`Certificate::dual_checked`] `= false`.
pub fn certify(model: &Model, sol: &Solution, tol: &Tolerances) -> Certificate {
    let _t = ed_obs::timer("optim.certify");
    let cert = certify_inner(model, sol, tol);
    if ed_obs::enabled() {
        ed_obs::counter("optim.certify.audits", 1);
        if !cert.passed() {
            ed_obs::counter("optim.certify.failed", 1);
        }
    }
    cert
}

fn certify_inner(model: &Model, sol: &Solution, tol: &Tolerances) -> Certificate {
    let n = model.num_vars();
    let m = model.num_rows();

    // --- Shape: nothing else is evaluable on a malformed vector. ---
    if sol.x.len() != n {
        return malformed(format!("solution has {} entries for {n} variables", sol.x.len()));
    }
    if let Some((j, &v)) = sol.x.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        return malformed(format!("x[{j}] = {v} is not finite"));
    }
    if !sol.objective.is_finite() {
        return malformed(format!("reported objective {} is not finite", sol.objective));
    }

    let mut res = Residuals::default();

    // --- Primal feasibility: bounds. ---
    let mut primal = Worst::new();
    for (j, &xj) in sol.x.iter().enumerate() {
        let (lb, ub) = (model.lb[j], model.ub[j]);
        let below = if lb.is_finite() { (lb - xj) / (1.0 + lb.abs()) } else { 0.0 };
        let above = if ub.is_finite() { (xj - ub) / (1.0 + ub.abs()) } else { 0.0 };
        primal.observe(below.max(above), || Witness::Bound { var: j, value: xj, lb, ub });
    }
    // --- Primal feasibility: rows. ---
    let activities = model.row_activities(&sol.x);
    for (i, &act) in activities.iter().enumerate() {
        let rhs = model.rhs[i];
        let scale = 1.0 + rhs.abs() + act.abs();
        let viol = match model.row_sense[i] {
            RowSense::Le => act - rhs,
            RowSense::Ge => rhs - act,
            RowSense::Eq => (act - rhs).abs(),
        };
        primal.observe(viol / scale, || Witness::Row { row: i, activity: act, rhs });
    }
    res.primal = primal.value;

    // --- Integrality. ---
    let mut integrality = Worst::new();
    for &v in model.integers() {
        let xv = sol.x[v.index()];
        let frac = (xv - xv.round()).abs();
        integrality.observe(frac, || Witness::Integrality { var: v.index(), value: xv });
    }
    res.integrality = integrality.value;

    // --- Complementarity pairs (MPEC). Scaled like the MPEC solver's own
    //     acceptance test: product relative to the larger factor and 1.
    let mut comp = Worst::new();
    for &(a, b) in model.pairs() {
        let (xa, xb) = (sol.x[a.index()], sol.x[b.index()]);
        let scaled = (xa * xb).abs() / 1.0_f64.max(xa.abs()).max(xb.abs());
        comp.observe(scaled, || Witness::Pair { a: a.index(), b: b.index(), product: xa * xb });
    }

    // --- Objective consistency. ---
    let recomputed = model.objective_value(&sol.x);
    let obj_resid = (sol.objective - recomputed).abs() / (1.0 + recomputed.abs());
    res.objective = obj_resid;
    let obj_witness =
        Witness::Objective { reported: sol.objective, recomputed };

    // --- Dual side, when the family produced duals. ---
    let dual_checked = sol.row_duals.len() == m
        && sol.reduced_costs.len() == n
        && (!sol.row_duals.is_empty() || !sol.reduced_costs.is_empty());
    let mut dual = Worst::new();
    let mut stationarity = Worst::new();
    let mut gap = Worst::new();
    if dual_checked {
        let sign = match model.sense() {
            Sense::Min => 1.0,
            Sense::Max => -1.0,
        };
        let y_min: Vec<f64> = sol.row_duals.iter().map(|&d| sign * d).collect();
        let rc_min: Vec<f64> = sol.reduced_costs.iter().map(|&d| sign * d).collect();

        // Dual feasibility on row duals: for a minimization, a `Le` row's
        // dual (∂obj/∂rhs) is ≤ 0 and a `Ge` row's is ≥ 0.
        for (i, &y) in y_min.iter().enumerate() {
            let viol = match model.row_sense[i] {
                RowSense::Le => y,
                RowSense::Ge => -y,
                RowSense::Eq => 0.0,
            };
            dual.observe(viol / (1.0 + y.abs()), || Witness::DualSign {
                row: i,
                dual: y,
            });
        }
        // Dual feasibility on reduced costs: a positive rc is a lower-bound
        // multiplier (forbidden when lb = −∞), a negative rc an upper-bound
        // multiplier (forbidden when ub = +∞).
        for (j, &rc) in rc_min.iter().enumerate() {
            let (lb, ub) = (model.lb[j], model.ub[j]);
            let scale = 1.0 + rc.abs();
            if !lb.is_finite() {
                dual.observe(rc / scale, || Witness::ReducedCostSign { var: j, reduced_cost: rc });
            }
            if !ub.is_finite() {
                dual.observe(-rc / scale, || Witness::ReducedCostSign {
                    var: j,
                    reduced_cost: rc,
                });
            }
        }

        // Stationarity: c + Hx − Aᵀy − rc = 0 (minimization form), checked
        // coordinate-wise relative to the objective/dual scale.
        let mut grad = vec![0.0; n];
        for (j, g) in grad.iter_mut().enumerate() {
            *g = sign * model.obj[j];
        }
        for &(i, j, q) in model.quad_terms() {
            // H is stored symmetrically; 0.5·xᵀHx differentiates to Hx.
            grad[i] += sign * q * sol.x[j];
        }
        for j in 0..n {
            let aty: f64 = model.col(j).iter().map(|&(i, c)| c * y_min[i]).sum();
            let r = grad[j] - aty - rc_min[j];
            let scale = 1.0 + grad[j].abs() + aty.abs();
            stationarity.observe(r.abs() / scale, || Witness::Stationarity {
                var: j,
                residual: r,
            });
        }

        // Complementary slackness: y_i · slack_i and rc_j · bound-gap_j.
        for (i, &y) in y_min.iter().enumerate() {
            let slack = match model.row_sense[i] {
                RowSense::Le => model.rhs[i] - activities[i],
                RowSense::Ge => activities[i] - model.rhs[i],
                RowSense::Eq => 0.0,
            };
            let scaled = (y * slack).abs() / (1.0 + activities[i].abs() + y.abs());
            comp.observe(scaled, || Witness::Slackness { row: i, dual: y, slack });
        }
        for (j, &rc) in rc_min.iter().enumerate() {
            let (lb, ub) = (model.lb[j], model.ub[j]);
            if (ub - lb).abs() < f64::EPSILON {
                continue; // fixed variables: rc is a free multiplier
            }
            let xj = sol.x[j];
            let lower_gap = if lb.is_finite() { xj - lb } else { f64::INFINITY };
            let upper_gap = if ub.is_finite() { ub - xj } else { f64::INFINITY };
            // λ_lower = max(rc, 0) complements the lower gap; λ_upper =
            // max(−rc, 0) the upper gap. Infinite gaps paired with a
            // non-zero multiplier are dual infeasibilities (flagged above),
            // not slackness violations.
            let lo = if lower_gap.is_finite() { rc.max(0.0) * lower_gap } else { 0.0 };
            let hi = if upper_gap.is_finite() { (-rc).max(0.0) * upper_gap } else { 0.0 };
            let scaled = lo.max(hi) / (1.0 + xj.abs() + rc.abs());
            comp.observe(scaled, || Witness::Slackness { row: j, dual: rc, slack: xj });
        }

        // Duality gap: primal (recomputed, minimization form) vs the
        // explicit dual objective  bᵀy + Σ finite-bound multiplier terms
        // − ½xᵀHx  (the Wolfe dual for QPs; H = 0 reduces it to the LP
        // dual). Multipliers against infinite bounds contribute nothing
        // here — they were already flagged as dual infeasibilities.
        let primal_min = sign * recomputed;
        let mut dual_min: f64 = model.rhs.iter().zip(&y_min).map(|(&b, &y)| b * y).sum();
        for (j, &rc) in rc_min.iter().enumerate() {
            let (lb, ub) = (model.lb[j], model.ub[j]);
            if rc > 0.0 && lb.is_finite() {
                dual_min += rc * lb;
            } else if rc < 0.0 && ub.is_finite() {
                dual_min += rc * ub;
            }
        }
        if model.is_quadratic() {
            let xhx: f64 =
                model.quad_terms().iter().map(|&(i, j, q)| sign * q * sol.x[i] * sol.x[j]).sum();
            dual_min -= 0.5 * xhx;
        }
        let g = (primal_min - dual_min).abs() / (1.0 + primal_min.abs());
        gap.observe(g, || Witness::Gap { primal: primal_min, dual: dual_min });
    }
    res.complementarity = comp.value;
    res.dual = dual.value;
    res.stationarity = stationarity.value;
    res.gap = gap.value;

    // --- Verdict: most fundamental failure wins. ---
    let margin = CERT_MARGIN;
    let (status, witness) = if res.primal > margin * tol.feas {
        (CertStatus::PrimalInfeasible, primal.witness)
    } else if res.integrality > margin * tol.int {
        (CertStatus::IntegralityViolated, integrality.witness)
    } else if res.complementarity > margin * tol.comp {
        (CertStatus::ComplementarityViolated, comp.witness)
    } else if res.objective > margin * tol.gap {
        (CertStatus::ObjectiveMismatch, Some(obj_witness))
    } else if res.dual > margin * tol.dual {
        (CertStatus::DualInfeasible, dual.witness)
    } else if res.stationarity > margin * tol.stationarity {
        (CertStatus::StationarityViolated, stationarity.witness)
    } else if res.gap > margin * tol.gap {
        (CertStatus::DualityGap, gap.witness)
    } else {
        (CertStatus::Certified, None)
    };
    Certificate { status, worst_residuals: res, witness, dual_checked }
}

fn malformed(what: String) -> Certificate {
    Certificate {
        status: CertStatus::Malformed,
        worst_residuals: Residuals::default(),
        witness: Some(Witness::Shape { what }),
        dual_checked: false,
    }
}

/// How much trust a [`CertifiedOutcome`] earned.
#[derive(Debug, Clone, PartialEq)]
pub enum Trust {
    /// The primary solver's answer certified on the first try.
    Certified,
    /// The answer failed certification but a repair rung produced a
    /// certified replacement.
    Repaired {
        /// The repair rung that produced the accepted answer.
        backend: String,
    },
    /// No rung produced a certified answer; the best available (primary)
    /// answer is returned, flagged.
    Uncertified,
    /// The solve ended in a budget partial; partials are never certified
    /// (their feasible iterates are checked primally when present).
    Partial,
}

/// One step of the repair ladder, for diagnostics.
#[derive(Debug, Clone)]
pub struct RepairStep {
    /// Which backend the rung ran (`"simplex (tightened)"`, an alternate's
    /// name, …).
    pub backend: String,
    /// Certificate of that rung's answer, when it produced one.
    pub certificate: Option<Certificate>,
    /// The rung's error, when it failed outright.
    pub error: Option<String>,
}

/// A solve outcome with its certification provenance.
#[derive(Debug, Clone)]
pub struct CertifiedOutcome {
    /// The accepted outcome (possibly from a repair rung).
    pub outcome: SolveOutcome<Solution>,
    /// Certificate of the accepted answer (`None` for partials without a
    /// feasible iterate).
    pub certificate: Option<Certificate>,
    /// Repair rungs attempted, in order; empty for first-try success.
    pub repairs: Vec<RepairStep>,
    /// Overall trust classification.
    pub trust: Trust,
}

/// Wraps a [`Solver`] with certification and an automatic repair ladder:
///
/// 1. solve with the primary backend and [`certify`] the answer;
/// 2. on failure, re-solve with tolerances tightened one order of
///    magnitude (same backend — shakes out accumulated-roundoff answers);
/// 3. on repeated failure, try each alternate backend in order;
/// 4. if nothing certifies, return the primary answer flagged
///    [`Trust::Uncertified`].
///
/// [`solve_certified`](CertifiedSolver::solve_certified) runs the ladder.
pub struct CertifiedSolver {
    /// The backend whose answers are audited.
    pub primary: Box<dyn Solver>,
    /// Fallback backends for the repair ladder, tried in order.
    pub alternates: Vec<Box<dyn Solver>>,
    /// Tolerances for both the re-solves and the certification thresholds.
    pub tolerances: Tolerances,
}

impl CertifiedSolver {
    /// A certified wrapper with no alternates and default tolerances.
    pub fn new(primary: Box<dyn Solver>) -> CertifiedSolver {
        CertifiedSolver { primary, alternates: Vec::new(), tolerances: Tolerances::default() }
    }

    /// Adds an alternate backend to the repair ladder.
    #[must_use]
    pub fn with_alternate(mut self, alt: Box<dyn Solver>) -> CertifiedSolver {
        self.alternates.push(alt);
        self
    }

    /// Runs the certify-and-repair ladder.
    ///
    /// # Errors
    ///
    /// Only the primary solver's errors propagate; repair-rung errors are
    /// recorded in [`CertifiedOutcome::repairs`] and skipped.
    pub fn solve_certified(
        &self,
        model: &Model,
        budget: &SolveBudget,
    ) -> Result<CertifiedOutcome, OptimError> {
        let outcome = self.primary.solve(model, budget)?;
        let solved = match outcome {
            SolveOutcome::Solved(s) => s,
            SolveOutcome::Partial(p) => {
                // Budget partials are honest about their status already;
                // certify the feasible iterate primally when there is one.
                let certificate = p.x.as_ref().map(|x| {
                    let probe = Solution {
                        x: x.clone(),
                        objective: p.objective.unwrap_or(0.0),
                        row_duals: Vec::new(),
                        reduced_costs: Vec::new(),
                        proved_optimal: false,
                        iterations: p.iterations,
                        nodes: p.nodes,
                    };
                    certify(model, &probe, &self.tolerances)
                });
                return Ok(CertifiedOutcome {
                    outcome: SolveOutcome::Partial(p),
                    certificate,
                    repairs: Vec::new(),
                    trust: Trust::Partial,
                });
            }
        };
        let cert = certify(model, &solved, &self.tolerances);
        if cert.passed() {
            return Ok(CertifiedOutcome {
                outcome: SolveOutcome::Solved(solved),
                certificate: Some(cert),
                repairs: Vec::new(),
                trust: Trust::Certified,
            });
        }

        // --- Repair ladder. ---
        let mut repairs = Vec::new();
        let tightened = self.primary.with_tolerances(&self.tolerances.tightened());
        let rungs = std::iter::once((format!("{} (tightened)", self.primary.name()), tightened))
            .chain(
                self.alternates
                    .iter()
                    .map(|alt| (alt.name().to_string(), alt.with_tolerances(&self.tolerances))),
            );
        for (backend, solver) in rungs {
            match solver.solve(model, budget) {
                Ok(SolveOutcome::Solved(candidate)) => {
                    let c = certify(model, &candidate, &self.tolerances);
                    let ok = c.passed();
                    repairs.push(RepairStep {
                        backend: backend.clone(),
                        certificate: Some(c.clone()),
                        error: None,
                    });
                    if ok {
                        return Ok(CertifiedOutcome {
                            outcome: SolveOutcome::Solved(candidate),
                            certificate: Some(c),
                            repairs,
                            trust: Trust::Repaired { backend },
                        });
                    }
                }
                Ok(SolveOutcome::Partial(_)) => {
                    repairs.push(RepairStep {
                        backend,
                        certificate: None,
                        error: Some("budget tripped during repair".to_string()),
                    });
                }
                Err(e) => {
                    repairs.push(RepairStep {
                        backend,
                        certificate: None,
                        error: Some(e.to_string()),
                    });
                }
            }
        }
        Ok(CertifiedOutcome {
            outcome: SolveOutcome::Solved(solved),
            certificate: Some(cert),
            repairs,
            trust: Trust::Uncertified,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Row, SimplexSolver};

    /// min 2x + 3y s.t. x + y ≥ 4, 0 ≤ x,y ≤ 10 — optimum (4, 0), obj 8.
    fn small_lp() -> Model {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, 2.0);
        let y = m.add_var(0.0, 10.0, 3.0);
        m.add_row(Row::ge(4.0).coef(x, 1.0).coef(y, 1.0));
        m
    }

    #[test]
    fn correct_lp_solution_certifies() {
        let m = small_lp();
        let s = SimplexSolver::default()
            .solve(&m, &SolveBudget::unlimited())
            .unwrap()
            .solved()
            .unwrap();
        let cert = certify(&m, &s, &Tolerances::default());
        assert!(cert.passed(), "{cert:?}");
        assert!(cert.dual_checked);
        assert!(cert.worst_residuals.gap < 1e-9);
    }

    #[test]
    fn shifted_point_fails_primal() {
        let m = small_lp();
        let s = Solution {
            x: vec![1.0, 1.0], // violates x + y >= 4
            objective: 5.0,
            row_duals: vec![],
            reduced_costs: vec![],
            proved_optimal: true,
            iterations: 0,
            nodes: 0,
        };
        let cert = certify(&m, &s, &Tolerances::default());
        assert_eq!(cert.status, CertStatus::PrimalInfeasible);
        assert!(matches!(cert.witness, Some(Witness::Row { row: 0, .. })), "{cert:?}");
    }

    #[test]
    fn nan_solution_is_malformed() {
        let m = small_lp();
        let s = Solution {
            x: vec![f64::NAN, 0.0],
            objective: 0.0,
            row_duals: vec![],
            reduced_costs: vec![],
            proved_optimal: true,
            iterations: 0,
            nodes: 0,
        };
        assert_eq!(certify(&m, &s, &Tolerances::default()).status, CertStatus::Malformed);
    }

    #[test]
    fn tightened_tightens_solver_facing_only() {
        let t = Tolerances::default();
        let tt = t.tightened();
        assert!(tt.feas < t.feas && tt.opt < t.opt);
        assert_eq!(tt.gap, t.gap);
    }
}
