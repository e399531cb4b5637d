//! The DC economic dispatch as one [`Model`], each formulation written
//! once.
//!
//! [`DispatchModel::build`] assembles Eq. 4–8 with the flow limits of
//! Eq. 13, in the angle or the PTDF form. Every dispatch path solves the
//! model it builds: `DcOpf::solve`, the certified path, and each rung of
//! the resilient ladder, which hand it different [`Solver`]s. LMPs come
//! from the unified dual convention: `Solution::row_duals[i]` is
//! `∂cost/∂rhs_i` in the stated (minimization) sense, so a balance row's
//! dual *is* the nodal price.

use crate::dispatch::Formulation;
use crate::CoreError;
use ed_optim::budget::{SolveBudget, SolveOutcome};
use ed_optim::lp::Row;
use ed_optim::model::{RowId, Solution, Solver, VarId};
use ed_optim::Model;
use ed_powerflow::{ptdf::Ptdf, Network};

/// A budgeted dispatch solve: `(p_mw, lmp)`, or a typed partial or error.
pub(crate) type BudgetedSolve = Result<SolveOutcome<(Vec<f64>, Vec<f64>)>, CoreError>;

/// Where a solution's nodal prices are read from.
enum Prices {
    /// Angle form: the per-bus balance rows, in bus order.
    Balance(Vec<RowId>),
    /// PTDF form: the energy-balance row, and per line its forward and
    /// backward flow rows (`None` where the row was screened out).
    Ptdf { ptdf: Ptdf, buses: usize, energy: RowId, flows: Vec<[Option<RowId>; 2]> },
}

/// An assembled DC-OPF plus the handles that read a dispatch back out of
/// its solution. The generator block is `x[..ng]`.
pub(crate) struct DispatchModel {
    /// The assembled LP, or QP when it carries the Hessian of Eq. 3.
    pub lp: Model,
    ng: usize,
    prices: Prices,
}

impl DispatchModel {
    /// Builds the dispatch in `formulation` (`Auto` is resolved here).
    ///
    /// When every cost is strictly convex the objective is Eq. 3's
    /// quadratic, or with `linearize` the marginal cost at the midpoint of
    /// each generator's range, `b + 2a·(pmin+pmax)/2`. Otherwise each
    /// generator is priced at its linear coefficient `b`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Powerflow`] when the PTDF matrix cannot be computed.
    pub(crate) fn build(
        net: &Network,
        demand_mw: &[f64],
        ratings_mw: &[f64],
        formulation: Formulation,
        linearize: bool,
    ) -> Result<DispatchModel, CoreError> {
        let quadratic = net.gens().iter().all(|g| g.cost.is_strictly_convex());
        let mut lp = Model::minimize();
        let p_vars: Vec<VarId> = net
            .gens()
            .iter()
            .map(|g| {
                let c = &g.cost;
                let cost = if quadratic && linearize {
                    c.b + 2.0 * c.a * 0.5 * (g.pmin_mw + g.pmax_mw)
                } else {
                    c.b
                };
                lp.add_var(g.pmin_mw, g.pmax_mw, cost)
            })
            .collect();
        if quadratic && !linearize {
            for (&p, g) in p_vars.iter().zip(net.gens()) {
                lp.add_quad(p, p, 2.0 * g.cost.a);
            }
        }
        let prices = match formulation.resolve(net) {
            Formulation::Ptdf => ptdf_rows(&mut lp, &p_vars, net, demand_mw, ratings_mw)?,
            _ => angle_rows(&mut lp, &p_vars, net, demand_mw, ratings_mw),
        };
        Ok(DispatchModel { lp, ng: p_vars.len(), prices })
    }

    /// Solves the model with `solver` under `budget`. A budget partial
    /// keeps the generator block of its iterate, when it has one (a usable
    /// `p_mw`); prices need duals, so a partial has none.
    pub(crate) fn solve(&self, solver: &dyn Solver, budget: &SolveBudget) -> BudgetedSolve {
        Ok(match solver.solve(&self.lp, budget)? {
            SolveOutcome::Solved(sol) => SolveOutcome::Solved(self.read(&sol)),
            SolveOutcome::Partial(mut p) => {
                p.x = p.x.map(|x| x[..self.ng].to_vec());
                SolveOutcome::Partial(p)
            }
        })
    }

    /// Reads `(p_mw, lmp)` out of a solution of this model.
    pub(crate) fn read(&self, sol: &Solution) -> (Vec<f64>, Vec<f64>) {
        let p_mw = sol.x[..self.ng].to_vec();
        let dual = |r: &RowId| sol.row_duals[r.index()];
        let lmp = match &self.prices {
            Prices::Balance(rows) => rows.iter().map(dual).collect(),
            // LMP_i = ∂cost/∂d_i. Each row's rhs depends on d_i through the
            // PTDFs: ∂rhs_energy/∂d_i = 1, ∂rhs_fwd_l/∂d_i = +PTDF[l][i],
            // ∂rhs_bwd_l/∂d_i = −PTDF[l][i]; chain through the row duals.
            Prices::Ptdf { ptdf, buses, energy, flows } => (0..*buses)
                .map(|i| {
                    let mut v = dual(energy);
                    for (l, [fwd, bwd]) in flows.iter().enumerate() {
                        let h = ptdf.factor(l, i);
                        if let Some(r) = fwd {
                            v += dual(r) * h;
                        }
                        if let Some(r) = bwd {
                            v -= dual(r) * h;
                        }
                    }
                    v
                })
                .collect(),
        };
        (p_mw, lmp)
    }
}

/// Angle form: variables `(p, θ)`, per-bus balance equalities (Eq. 5), the
/// reference angle, and both directions of each flow limit (Eq. 13).
fn angle_rows(
    lp: &mut Model,
    p_vars: &[VarId],
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
) -> Prices {
    let base = net.base_mva();
    let t_vars: Vec<VarId> = (0..net.num_buses())
        .map(|_| lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0))
        .collect();

    // Per-bus balance: Σ_{g@i} p_g − Σ outflow(θ) = d_i  (Eq. 5).
    let mut balance: Vec<Row> = demand_mw.iter().map(|&d| Row::eq(d)).collect();
    for line in net.lines() {
        let w = base * line.susceptance_pu();
        let (f, t) = (line.from.0, line.to.0);
        balance[f] = std::mem::replace(&mut balance[f], Row::eq(0.0))
            .coef(t_vars[f], -w)
            .coef(t_vars[t], w);
        balance[t] = std::mem::replace(&mut balance[t], Row::eq(0.0))
            .coef(t_vars[t], -w)
            .coef(t_vars[f], w);
    }
    for (gi, g) in net.gens().iter().enumerate() {
        let b = g.bus.0;
        balance[b] = std::mem::replace(&mut balance[b], Row::eq(0.0)).coef(p_vars[gi], 1.0);
    }
    let balance_rows = balance.into_iter().map(|r| lp.add_row(r)).collect();

    // Reference angle.
    lp.add_row(Row::eq(0.0).coef(t_vars[net.slack().0], 1.0));

    // Flow limits |f_l| <= u_l (Eq. 13).
    for (l, line) in net.lines().iter().enumerate() {
        let w = base * line.susceptance_pu();
        let (f, t) = (line.from.0, line.to.0);
        lp.add_row(Row::le(ratings_mw[l]).coef(t_vars[f], w).coef(t_vars[t], -w));
        lp.add_row(Row::le(ratings_mw[l]).coef(t_vars[f], -w).coef(t_vars[t], w));
    }
    Prices::Balance(balance_rows)
}

/// PTDF form: variables `p` only, one energy-balance row, and the flow
/// limits `f_l = Σ_g PTDF[l][bus(g)]·p_g − PTDF[l]·d`. A flow row whose
/// worst-case activity over the generation box cannot reach its rhs can
/// never bind and is dropped (typically most lines of a large system).
fn ptdf_rows(
    lp: &mut Model,
    p_vars: &[VarId],
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
) -> Result<Prices, CoreError> {
    let ptdf = Ptdf::compute(net)?;
    let total_demand: f64 = demand_mw.iter().sum();
    let energy = lp.add_row(
        p_vars
            .iter()
            .fold(Row::eq(total_demand), |r, &v| r.coef(v, 1.0)),
    );

    let mut flows = vec![[None, None]; net.num_lines()];
    for (l, rows) in flows.iter_mut().enumerate() {
        let base_flow: f64 = demand_mw
            .iter()
            .enumerate()
            .map(|(b, &d)| ptdf.factor(l, b) * d)
            .sum();
        let coefs: Vec<f64> = net.gens().iter().map(|g| ptdf.factor(l, g.bus.0)).collect();
        let max_pos: f64 = coefs
            .iter()
            .zip(net.gens())
            .map(|(&h, g)| (h * g.pmin_mw).max(h * g.pmax_mw))
            .sum();
        let max_neg: f64 = coefs
            .iter()
            .zip(net.gens())
            .map(|(&h, g)| (-h * g.pmin_mw).max(-h * g.pmax_mw))
            .sum();
        if max_pos > ratings_mw[l] + base_flow {
            let mut fwd = Row::le(ratings_mw[l] + base_flow);
            for (gi, &h) in coefs.iter().enumerate() {
                fwd = fwd.coef(p_vars[gi], h);
            }
            rows[0] = Some(lp.add_row(fwd));
        }
        if max_neg > ratings_mw[l] - base_flow {
            let mut bwd = Row::le(ratings_mw[l] - base_flow);
            for (gi, &h) in coefs.iter().enumerate() {
                bwd = bwd.coef(p_vars[gi], -h);
            }
            rows[1] = Some(lp.add_row(bwd));
        }
    }
    Ok(Prices::Ptdf { ptdf, buses: net.num_buses(), energy, flows })
}

#[cfg(test)]
mod tests {
    use super::DispatchModel;
    use crate::dispatch::{DcOpf, Formulation};
    use ed_optim::budget::{SolveBudget, SolveOutcome};
    use ed_optim::model::{ActiveSetSolver, IpmSolver, Solver};
    use ed_optim::{certify, OptimError, Tolerances};
    use ed_powerflow::Network;

    /// The `k` most-loaded lines under a dispatch proportional to
    /// capacity: the DLR lines of the 118-bus sweeps.
    fn most_loaded(net: &Network, k: usize) -> Vec<usize> {
        let (cap, d) = (net.total_pmax_mw(), net.total_demand_mw());
        let prop: Vec<f64> = net.gens().iter().map(|g| g.pmax_mw / cap * d).collect();
        let flows = ed_powerflow::dc::solve(net, &net.injections_mw(&prop)).unwrap().flow_mw;
        let load = |(i, f): (usize, &f64)| (i, f.abs() / net.lines()[i].rating_mva);
        let mut loading: Vec<(usize, f64)> = flows.iter().enumerate().map(load).collect();
        loading.sort_by(|a, b| b.1.total_cmp(&a.1));
        loading.iter().take(k).map(|&(i, _)| i).collect()
    }

    /// Static ratings with each of `lines` at 0.8× or 1.6×, by `mask` bit.
    fn corner(net: &Network, lines: &[usize], mask: usize) -> Vec<f64> {
        let mut u = net.static_ratings_mva();
        for (k, &l) in lines.iter().enumerate() {
            u[l] *= if mask >> k & 1 == 1 { 1.6 } else { 0.8 };
        }
        u
    }

    fn scaled(net: &Network, f: f64) -> Vec<f64> {
        net.demand_vector_mw().iter().map(|d| d * f).collect()
    }

    /// `ActiveSetSolver`'s answer to the PTDF-form dispatch certifies at the
    /// default tolerances; with `vs_ipm` its objective also matches
    /// `IpmSolver`'s to 1e-7 relative, and the two agree on infeasibility
    /// (the interior point, which has no infeasibility certificate, then
    /// returns no solution).
    fn check(net: &Network, demand: &[f64], ratings: &[f64], vs_ipm: bool, what: &str) {
        let model = DispatchModel::build(net, demand, ratings, Formulation::Ptdf, false).unwrap();
        assert!(model.lp.is_quadratic(), "{what}: costs are not strictly convex");
        let unlimited = SolveBudget::unlimited();
        let ipm = vs_ipm.then(|| IpmSolver::default().solve(&model.lp, &unlimited));
        match ActiveSetSolver::default().solve(&model.lp, &unlimited) {
            Ok(SolveOutcome::Solved(sol)) => {
                let cert = certify(&model.lp, &sol, &Tolerances::default());
                assert!(cert.passed(), "{what}: {:?} {:?}", cert.status, cert.witness);
                if let Some(ipm) = ipm {
                    let reference = ipm.ok().and_then(SolveOutcome::solved).unwrap().objective;
                    let gap = (sol.objective - reference).abs() / reference.abs().max(1.0);
                    assert!(gap <= 1e-7, "{what}: objective {} vs IPM {reference}", sol.objective);
                }
            }
            Err(OptimError::Infeasible) => {
                if let Some(ipm) = ipm {
                    assert!(!matches!(ipm, Ok(SolveOutcome::Solved(_))), "{what}: IPM {ipm:?}");
                }
            }
            other => panic!("{what}: {other:?}"),
        }
    }

    /// Every strictly convex DC-OPF the workloads solve: the small
    /// quadratic cases and `ieee118_like` at static and 0.8× ratings; the
    /// 8 corners of the 118-bus sweep's DLR box at base demand and at the
    /// hour chain's hours 3–5; a stress matrix of the 4 most-loaded lines'
    /// 16 corners at 75–110 % demand; and `case300_like`.
    #[test]
    fn strictly_convex_dispatches_certify() {
        let quadratic = ed_cases::three_bus_with(&ed_cases::ThreeBusConfig {
            quadratic: true,
            ..Default::default()
        });
        for (name, net) in
            [("three_bus_quadratic", quadratic), ("six_bus", ed_cases::six_bus())]
                .into_iter()
                .chain([("ieee118_like", ed_cases::ieee118_like())])
        {
            let demand = net.demand_vector_mw();
            let base = net.static_ratings_mva();
            let tight: Vec<f64> = base.iter().map(|u| 0.8 * u).collect();
            check(&net, &demand, &base, true, &format!("{name} static"));
            check(&net, &demand, &tight, true, &format!("{name} 0.8x"));
        }

        let net = ed_cases::ieee118_like();
        let box3 = most_loaded(&net, 3);
        let hours = [3, 4, 5].map(|h| 0.9 + 0.15 * (std::f64::consts::PI * h as f64 / 24.0).sin());
        for f in [1.0].into_iter().chain(hours) {
            for mask in 0..8 {
                let what = format!("ieee118_like demand {f:.4} corner {mask:03b}");
                check(&net, &scaled(&net, f), &corner(&net, &box3, mask), true, &what);
            }
        }
        let box4 = most_loaded(&net, 4);
        for pct in [75, 85, 95, 100, 105, 110] {
            for mask in 0..16 {
                let what = format!("ieee118_like stress {pct}% corner {mask:04b}");
                let demand = scaled(&net, pct as f64 / 100.0);
                check(&net, &demand, &corner(&net, &box4, mask), false, &what);
            }
        }

        let net = ed_cases::case300_like();
        check(&net, &net.demand_vector_mw(), &net.static_ratings_mva(), true, "case300_like");
    }

    #[test]
    fn quadratic_three_bus_agrees_across_formulations() {
        let net = ed_cases::three_bus_with(&ed_cases::ThreeBusConfig {
            quadratic: true,
            ..Default::default()
        });
        let a = DcOpf::new(&net).formulation(Formulation::Angle).solve().unwrap();
        let b = DcOpf::new(&net).formulation(Formulation::Ptdf).solve().unwrap();
        for (x, y) in a.p_mw.iter().zip(&b.p_mw) {
            assert!((x - y).abs() < 1e-4, "{:?} vs {:?}", a.p_mw, b.p_mw);
        }
        assert!((a.cost - b.cost).abs() < 1e-3);
        for (x, y) in a.lmp.iter().zip(&b.lmp) {
            assert!((x - y).abs() < 1e-3, "lmp {:?} vs {:?}", a.lmp, b.lmp);
        }
    }
}
