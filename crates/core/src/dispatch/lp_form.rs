//! LP formulations of DC-OPF (used when any generator has a linear cost,
//! and as the cost-linearized fallback rung of the resilient dispatcher).
//! Models are assembled in the shared [`ed_optim::Model`] IR and solved
//! through the [`Solver`] trait, like the QP forms.

use crate::CoreError;
use ed_optim::budget::{SolveBudget, SolveOutcome};
use ed_optim::lp::Row;
use ed_optim::model::{Model, SimplexSolver, Solver};
use ed_powerflow::{ptdf::Ptdf, Network};

/// Per-generator objective coefficient: the generator's own linear cost, or
/// an explicit override (the resilient ladder passes marginal costs
/// linearized at the midpoint of each generator's range).
fn lin_cost_of(net: &Network, lin_cost: Option<&[f64]>, gi: usize) -> f64 {
    match lin_cost {
        Some(c) => c[gi],
        None => net.gens()[gi].cost.b,
    }
}

/// Angle formulation: variables `(p, θ)`, per-bus balance equalities, flow
/// inequalities. Returns `(p_mw, lmp)`.
pub(crate) fn solve_angle(
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), CoreError> {
    match solve_angle_budgeted(net, demand_mw, ratings_mw, None, &SolveBudget::unlimited())? {
        SolveOutcome::Solved(v) => Ok(v),
        SolveOutcome::Partial(_) => unreachable!("an unlimited budget cannot trip"),
    }
}

/// An assembled angle-formulation LP plus the handles needed to read a
/// dispatch back out of its solution: the generator block is `x[..ng]` and
/// the nodal prices are the duals of `balance_rows` (bus order). The
/// assembled [`Model`] can be passed straight to the certification layer.
pub(crate) struct AngleModel {
    /// The assembled LP.
    pub lp: Model,
    /// Number of generator variables at the front of the variable block.
    pub ng: usize,
    /// Per-bus balance rows, in bus order.
    pub balance_rows: Vec<ed_optim::model::RowId>,
}

/// Assembles the angle-formulation LP: variables `(p, θ)`, per-bus balance
/// equalities (Eq. 5), reference angle, and flow limits (Eq. 13).
pub(crate) fn build_angle_model(
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
    lin_cost: Option<&[f64]>,
) -> AngleModel {
    let nb = net.num_buses();
    let ng = net.num_gens();
    let base = net.base_mva();
    let mut lp = Model::minimize();

    let p_vars: Vec<_> = net
        .gens()
        .iter()
        .enumerate()
        .map(|(gi, g)| lp.add_var(g.pmin_mw, g.pmax_mw, lin_cost_of(net, lin_cost, gi)))
        .collect();
    let t_vars: Vec<_> = (0..nb)
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
    let balance_rows: Vec<_> = balance.into_iter().map(|r| lp.add_row(r)).collect();

    // Reference angle.
    lp.add_row(Row::eq(0.0).coef(t_vars[net.slack().0], 1.0));

    // Flow limits |f_l| <= u_l (Eq. 13).
    for (l, line) in net.lines().iter().enumerate() {
        let w = base * line.susceptance_pu();
        let (f, t) = (line.from.0, line.to.0);
        lp.add_row(Row::le(ratings_mw[l]).coef(t_vars[f], w).coef(t_vars[t], -w));
        lp.add_row(Row::le(ratings_mw[l]).coef(t_vars[f], -w).coef(t_vars[t], w));
    }

    AngleModel { lp, ng, balance_rows }
}

/// Angle formulation with optional linear-cost override and a cooperative
/// budget. Partial results carry `x` truncated to the generator block.
pub(crate) fn solve_angle_budgeted(
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
    lin_cost: Option<&[f64]>,
    budget: &SolveBudget,
) -> super::BudgetedSolve {
    let model = build_angle_model(net, demand_mw, ratings_mw, lin_cost);
    match SimplexSolver::default().solve(&model.lp, budget)? {
        SolveOutcome::Solved(sol) => {
            let p_mw = sol.x[..model.ng].to_vec();
            let lmp = model.balance_rows.iter().map(|r| sol.row_duals[r.index()]).collect();
            Ok(SolveOutcome::Solved((p_mw, lmp)))
        }
        SolveOutcome::Partial(mut p) => {
            p.x = p.x.map(|x| x[..model.ng].to_vec());
            Ok(SolveOutcome::Partial(p))
        }
    }
}

/// PTDF formulation: variables `p` only. Returns `(p_mw, lmp)`.
pub(crate) fn solve_ptdf(
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), CoreError> {
    match solve_ptdf_budgeted(net, demand_mw, ratings_mw, None, &SolveBudget::unlimited())? {
        SolveOutcome::Solved(v) => Ok(v),
        SolveOutcome::Partial(_) => unreachable!("an unlimited budget cannot trip"),
    }
}

/// PTDF formulation with optional linear-cost override and a cooperative
/// budget (see [`solve_angle_budgeted`]).
pub(crate) fn solve_ptdf_budgeted(
    net: &Network,
    demand_mw: &[f64],
    ratings_mw: &[f64],
    lin_cost: Option<&[f64]>,
    budget: &SolveBudget,
) -> super::BudgetedSolve {
    let ng = net.num_gens();
    let ptdf = Ptdf::compute(net)?;
    let mut lp = Model::minimize();
    let p_vars: Vec<_> = net
        .gens()
        .iter()
        .enumerate()
        .map(|(gi, g)| lp.add_var(g.pmin_mw, g.pmax_mw, lin_cost_of(net, lin_cost, gi)))
        .collect();

    let total_demand: f64 = demand_mw.iter().sum();
    let energy = lp.add_row(
        p_vars
            .iter()
            .fold(Row::eq(total_demand), |r, &v| r.coef(v, 1.0)),
    );

    // Flow rows: f_l = Σ_g PTDF[l][bus(g)] p_g − PTDF[l]·d. Rows whose
    // worst-case activity over the generation box cannot reach the rhs are
    // redundant and skipped.
    let mut fwd_rows = vec![None; net.num_lines()];
    let mut bwd_rows = vec![None; net.num_lines()];
    for l in 0..net.num_lines() {
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
            fwd_rows[l] = Some(lp.add_row(fwd));
        }
        if max_neg > ratings_mw[l] - base_flow {
            let mut bwd = Row::le(ratings_mw[l] - base_flow);
            for (gi, &h) in coefs.iter().enumerate() {
                bwd = bwd.coef(p_vars[gi], -h);
            }
            bwd_rows[l] = Some(lp.add_row(bwd));
        }
    }

    match SimplexSolver::default().solve(&lp, budget)? {
        SolveOutcome::Solved(sol) => {
            let p_mw = sol.x[..ng].to_vec();

            // LMP_i = λ_energy + Σ_l (y_fwd_l − y_bwd_l) · PTDF[l][i], from the
            // dependence of each row's rhs on d_i.
            let y0 = sol.row_duals[energy.index()];
            let lmp = (0..net.num_buses())
                .map(|i| {
                    let mut v = y0;
                    for l in 0..net.num_lines() {
                        let h = ptdf.factor(l, i);
                        if let Some(r) = fwd_rows[l] {
                            v += sol.row_duals[r.index()] * h;
                        }
                        if let Some(r) = bwd_rows[l] {
                            v -= sol.row_duals[r.index()] * h;
                        }
                    }
                    v
                })
                .collect();
            Ok(SolveOutcome::Solved((p_mw, lmp)))
        }
        SolveOutcome::Partial(mut p) => {
            p.x = p.x.map(|x| x[..ng].to_vec());
            Ok(SolveOutcome::Partial(p))
        }
    }
}
