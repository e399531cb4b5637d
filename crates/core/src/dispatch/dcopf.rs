//! The [`DcOpf`] problem type and its solution container.

use crate::dispatch::model::DispatchModel;
use crate::CoreError;
use ed_optim::budget::{SolveBudget, SolveOutcome};
use ed_optim::model::{ActiveSetSolver, SimplexSolver, Solver};
use ed_powerflow::{dc, Network};

/// Which mathematical formulation of DC-OPF to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Formulation {
    /// Pick automatically: [`Formulation::Angle`] for small networks,
    /// [`Formulation::Ptdf`] once the bus count dwarfs the generator count
    /// (the PTDF form then has far fewer variables).
    #[default]
    Auto,
    /// Decision variables `(p, θ)` with per-bus balance constraints —
    /// the formulation written in the paper (Eq. 4–8).
    Angle,
    /// Decision variables `p` only, with flows expressed through PTDFs.
    /// Smaller but denser; the fast path for large networks.
    Ptdf,
}

impl Formulation {
    pub(crate) fn resolve(self, net: &Network) -> Formulation {
        match self {
            Formulation::Auto => {
                if net.num_buses() >= 20 && net.num_buses() > net.num_gens() {
                    Formulation::Ptdf
                } else {
                    Formulation::Angle
                }
            }
            other => other,
        }
    }
}

/// A solved economic dispatch.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Generator outputs in MW, indexed by generator.
    pub p_mw: Vec<f64>,
    /// Line flows in MW implied by the dispatch (positive `from → to`).
    pub flows_mw: Vec<f64>,
    /// Voltage angles in radians (present for both formulations; for the
    /// PTDF form they are recovered by a DC solve).
    pub theta_rad: Vec<f64>,
    /// Total generation cost in $/h (Eq. 2, including constant terms).
    pub cost: f64,
    /// Locational marginal prices in $/MWh, indexed by bus.
    pub lmp: Vec<f64>,
}

impl Dispatch {
    /// Lines loaded beyond `fraction` of the given ratings.
    ///
    /// # Panics
    ///
    /// Panics if `ratings_mw.len() != flows_mw.len()`.
    pub fn congested_lines(&self, ratings_mw: &[f64], fraction: f64) -> Vec<usize> {
        assert_eq!(ratings_mw.len(), self.flows_mw.len());
        self.flows_mw
            .iter()
            .zip(ratings_mw)
            .enumerate()
            .filter_map(|(i, (&f, &u))| (f.abs() >= fraction * u).then_some(i))
            .collect()
    }
}

/// Builder/solver for the DC economic dispatch.
///
/// # Example
///
/// ```
/// use ed_core::dispatch::DcOpf;
///
/// # fn main() -> Result<(), ed_core::CoreError> {
/// let net = ed_cases::three_bus();
/// let dispatch = DcOpf::new(&net).solve()?;
/// // Section IV-A of the paper: (p1, p2) = (120, 180) at 160 MW ratings.
/// assert!((dispatch.p_mw[0] - 120.0).abs() < 1e-6);
/// assert!((dispatch.p_mw[1] - 180.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DcOpf<'a> {
    net: &'a Network,
    demand_mw: Vec<f64>,
    ratings_mw: Vec<f64>,
    formulation: Formulation,
}

impl<'a> DcOpf<'a> {
    /// Starts a dispatch problem at the network's nominal demand and static
    /// ratings.
    pub fn new(net: &'a Network) -> DcOpf<'a> {
        DcOpf {
            net,
            demand_mw: net.demand_vector_mw(),
            ratings_mw: net.static_ratings_mva(),
            formulation: Formulation::default(),
        }
    }

    /// Overrides the per-bus demand vector (MW).
    pub fn demand(mut self, demand_mw: &[f64]) -> DcOpf<'a> {
        self.demand_mw = demand_mw.to_vec();
        self
    }

    /// Overrides the per-line rating vector (MW) — this is where the
    /// attacker's manipulated `u^a` values enter the operator's problem.
    pub fn ratings(mut self, ratings_mw: &[f64]) -> DcOpf<'a> {
        self.ratings_mw = ratings_mw.to_vec();
        self
    }

    /// Selects the formulation (default: [`Formulation::Auto`]).
    pub fn formulation(mut self, f: Formulation) -> DcOpf<'a> {
        self.formulation = f;
        self
    }

    /// The network the problem is posed on.
    pub fn network(&self) -> &'a Network {
        self.net
    }

    /// The effective demand vector.
    pub fn demand_mw(&self) -> &[f64] {
        &self.demand_mw
    }

    /// The effective ratings vector.
    pub fn ratings_mw(&self) -> &[f64] {
        &self.ratings_mw
    }

    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if self.demand_mw.len() != self.net.num_buses() {
            return Err(CoreError::InvalidInput {
                what: format!(
                    "demand vector has {} entries for {} buses",
                    self.demand_mw.len(),
                    self.net.num_buses()
                ),
            });
        }
        if self.ratings_mw.len() != self.net.num_lines() {
            return Err(CoreError::InvalidInput {
                what: format!(
                    "ratings vector has {} entries for {} lines",
                    self.ratings_mw.len(),
                    self.net.num_lines()
                ),
            });
        }
        if let Some(u) = self.ratings_mw.iter().find(|u| **u <= 0.0 || !u.is_finite()) {
            return Err(CoreError::InvalidInput {
                what: format!("line rating {u} must be positive and finite"),
            });
        }
        if let Some(d) = self.demand_mw.iter().find(|d| !d.is_finite()) {
            return Err(CoreError::InvalidInput {
                what: format!("bus demand {d} must be finite"),
            });
        }
        Ok(())
    }

    /// Solves the dispatch: the QP with [`ActiveSetSolver`] when every
    /// generator's cost is strictly convex, the LP with [`SimplexSolver`]
    /// otherwise.
    ///
    /// # Errors
    ///
    /// - [`CoreError::InvalidInput`] on malformed demand/ratings vectors.
    /// - [`CoreError::DispatchInfeasible`] when the demand cannot be served
    ///   within the limits.
    /// - [`CoreError::Optim`] on solver failures.
    pub fn solve(&self) -> Result<Dispatch, CoreError> {
        self.validate()?;
        let (demand, ratings) = (&self.demand_mw, &self.ratings_mw);
        let model = DispatchModel::build(self.net, demand, ratings, self.formulation, false)?;
        let solver: &dyn Solver = if model.lp.is_quadratic() {
            &ActiveSetSolver::default()
        } else {
            &SimplexSolver::default()
        };
        match model.solve(solver, &SolveBudget::unlimited())? {
            SolveOutcome::Solved(v) => self.package(v),
            SolveOutcome::Partial(_) => unreachable!("an unlimited budget cannot trip"),
        }
    }

    /// Builds the full [`Dispatch`] (flows, angles, cost) from generator
    /// outputs and LMPs. Also used by the resilient ladder to package
    /// degraded incumbents.
    pub(crate) fn package(&self, (p_mw, lmp): (Vec<f64>, Vec<f64>)) -> Result<Dispatch, CoreError> {
        // Injections against the *overridden* demand.
        let mut inj: Vec<f64> = self.demand_mw.iter().map(|d| -d).collect();
        for (g, &p) in self.net.gens().iter().zip(&p_mw) {
            inj[g.bus.0] += p;
        }
        let flow = dc::solve(self.net, &inj)?;
        let cost = self.net.dispatch_cost(&p_mw);
        Ok(Dispatch {
            p_mw,
            flows_mw: flow.flow_mw,
            theta_rad: flow.theta_rad,
            cost,
            lmp,
        })
    }
}
