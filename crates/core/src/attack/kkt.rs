//! KKT single-level reformulation of the bilevel subproblem (Eq. 15–16).
//!
//! The inner (defender) problem is the DC economic dispatch
//!
//! ```text
//! min_y 0.5 y'H y + h1'y   s.t.  A_eq y = b_eq,   A_in y ≤ k2 + C·u^a
//! ```
//!
//! with `y = (p, θ)`. Because the inner problem is convex with linear
//! constraints, strong duality lets us replace it by its KKT system:
//! primal feasibility, dual feasibility (`λ ≥ 0`), stationarity
//! (`H y + A_eq'ν + A_in'λ + h1 = 0`), and complementary slackness
//! (`λ_i · s_i = 0`, where `s` is the explicit slack of each inequality).
//!
//! [`KktModel::build`] assembles everything *except* complementarity into a
//! single [`Model`]; complementarity is layered on by the caller either
//! as big-M indicator binaries (the paper's MILP, Eq. 16) or as
//! complementarity pairs for branching (MPEC). The manipulated ratings
//! `u^a` are first-class variables bounded by `[u^min, u^max]`, so the same
//! model serves every subproblem objective of Algorithm 1.

use crate::attack::AttackConfig;
use crate::dispatch::Dispatch;
use crate::CoreError;
use ed_optim::budget::SolveBudget;
use ed_optim::lp::{phase1_basis, Basis, Row, Sense, SimplexOptions, VarId};
use ed_optim::model::presolve;
use ed_optim::{Model, Postsolve, PresolveStats};
use ed_powerflow::{LineId, Network};

/// The assembled KKT model.
#[derive(Debug, Clone)]
pub struct KktModel {
    /// LP with primal feasibility, dual feasibility and stationarity rows;
    /// the objective is unset (zero) until a subproblem target is chosen.
    pub lp: Model,
    /// Manipulated-rating variables, one per DLR line (order follows the
    /// config's `dlr_lines`).
    pub ua_vars: Vec<VarId>,
    /// Generator output variables (MW).
    pub p_vars: Vec<VarId>,
    /// Bus angle variables (radians).
    pub theta_vars: Vec<VarId>,
    /// Complementarity pairs `(λ_i, s_i)` for every inner inequality.
    pub pairs: Vec<(VarId, VarId)>,
    /// Per-line `(from, to, base·β)` for expressing flows in the objective.
    flow_coef: Vec<(usize, usize, f64)>,
    /// Balance-row multipliers ν (entry `nb` is the reference-row
    /// multiplier), kept so [`Self::point_from_dispatch`] can place them.
    nu_vars: Vec<VarId>,
    /// Network data captured at build time for KKT-point reconstruction.
    recon: ReconData,
}

/// The slice of network data [`KktModel::point_from_dispatch`] needs to
/// turn a solved defender dispatch into a full-space KKT point without
/// re-borrowing the [`Network`].
#[derive(Debug, Clone)]
struct ReconData {
    /// Per generator: `(pmin, pmax, 2a, b, bus)` — bounds, the Hessian
    /// diagonal `2a`, the linear cost `b`, and the connection bus.
    gens: Vec<(f64, f64, f64, f64, usize)>,
    /// Per line: index into the config's DLR lines, when manipulated.
    line_dlr: Vec<Option<usize>>,
    /// Per line: static rating (ignored for DLR lines).
    static_rating: Vec<f64>,
    /// Reference (slack) bus index.
    slack: usize,
}

impl KktModel {
    /// Builds the KKT model for a network and attack configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] via the config validation.
    pub fn build(net: &Network, config: &AttackConfig) -> Result<KktModel, CoreError> {
        config.validate(net)?;
        let demand = config.effective_demand(net);
        if demand.len() != net.num_buses() {
            return Err(CoreError::InvalidInput {
                what: "demand vector length mismatch".into(),
            });
        }
        let nb = net.num_buses();
        let ng = net.num_gens();
        let base = net.base_mva();
        // Index of each DLR line in the config, by line id.
        let dlr_index = |line: usize| config.dlr_lines.iter().position(|l| l.0 == line);

        let mut lp = Model::maximize(); // sense set per subproblem; Max by default

        // --- Variables ---
        let ua_vars: Vec<VarId> = config
            .dlr_lines
            .iter()
            .enumerate()
            .map(|(k, _)| lp.add_var(config.u_min[k], config.u_max[k], 0.0))
            .collect();
        let p_vars: Vec<VarId> = (0..ng)
            .map(|_| lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0))
            .collect();
        let theta_vars: Vec<VarId> = (0..nb)
            .map(|_| lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0))
            .collect();
        let nu_vars: Vec<VarId> = (0..nb + 1) // balance rows + reference row
            .map(|_| lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0))
            .collect();

        // Inner inequality bookkeeping: coefficient lists over y variables,
        // plus the rhs and optional ua term, so stationarity can be
        // accumulated after all rows exist.
        struct Ineq {
            coeffs: Vec<(VarId, f64)>,
            rhs_const: f64,
            rhs_ua: Option<VarId>,
            lambda: VarId,
            slack: VarId,
        }
        let mut ineqs: Vec<Ineq> = Vec::new();
        let mut add_ineq =
            |lp: &mut Model, coeffs: Vec<(VarId, f64)>, rhs_const: f64, rhs_ua: Option<VarId>| {
                let lambda = lp.add_var(0.0, f64::INFINITY, 0.0);
                let slack = lp.add_var(0.0, f64::INFINITY, 0.0);
                ineqs.push(Ineq { coeffs, rhs_const, rhs_ua, lambda, slack });
            };

        // Generator bounds (Eq. 1).
        for (g, gen) in net.gens().iter().enumerate() {
            add_ineq(&mut lp, vec![(p_vars[g], 1.0)], gen.pmax_mw, None);
            add_ineq(&mut lp, vec![(p_vars[g], -1.0)], -gen.pmin_mw, None);
        }
        // Flow limits (Eq. 7/13) and flow coefficients for objectives.
        let mut flow_coef = Vec::with_capacity(net.num_lines());
        for (l, line) in net.lines().iter().enumerate() {
            let w = base * line.susceptance_pu();
            let (f, t) = (line.from.0, line.to.0);
            flow_coef.push((f, t, w));
            let fwd = vec![(theta_vars[f], w), (theta_vars[t], -w)];
            let bwd = vec![(theta_vars[f], -w), (theta_vars[t], w)];
            match dlr_index(l) {
                Some(k) => {
                    add_ineq(&mut lp, fwd, 0.0, Some(ua_vars[k]));
                    add_ineq(&mut lp, bwd, 0.0, Some(ua_vars[k]));
                }
                None => {
                    let us = net.lines()[l].rating_mva;
                    add_ineq(&mut lp, fwd, us, None);
                    add_ineq(&mut lp, bwd, us, None);
                }
            }
        }

        // --- Primal feasibility ---
        // Balance equalities (Eq. 5): Σ_{g@i} p_g − Σ outflow = d_i.
        let mut balance: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); nb];
        for line in net.lines() {
            let w = base * line.susceptance_pu();
            let (f, t) = (line.from.0, line.to.0);
            balance[f].push((theta_vars[f], -w));
            balance[f].push((theta_vars[t], w));
            balance[t].push((theta_vars[t], -w));
            balance[t].push((theta_vars[f], w));
        }
        for (g, gen) in net.gens().iter().enumerate() {
            balance[gen.bus.0].push((p_vars[g], 1.0));
        }
        for (i, coeffs) in balance.iter().enumerate() {
            lp.add_row(Row::eq(demand[i]).coefs(coeffs.iter().copied()));
        }
        // Reference angle row (its multiplier is nu_vars[nb]).
        lp.add_row(Row::eq(0.0).coef(theta_vars[net.slack().0], 1.0));

        // Inequalities with explicit slack: a'y + s − ua = rhs_const.
        for ineq in &ineqs {
            let mut row = Row::eq(ineq.rhs_const).coefs(ineq.coeffs.iter().copied());
            row = row.coef(ineq.slack, 1.0);
            if let Some(ua) = ineq.rhs_ua {
                row = row.coef(ua, -1.0);
            }
            lp.add_row(row);
        }

        // --- Stationarity ---
        // For each y variable v: H_vv·y_v + Σ_eq a_ev·ν_e + Σ_in a_iv·λ_i = −h1_v.
        // Accumulate coefficient lists per y variable.
        let ny = ng + nb;
        let y_index = |v: VarId| -> Option<usize> {
            if let Some(pos) = p_vars.iter().position(|&p| p == v) {
                Some(pos)
            } else {
                theta_vars.iter().position(|&t| t == v).map(|pos| ng + pos)
            }
        };
        let mut stationarity: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); ny];
        // Equality contributions: balance rows then reference row.
        for (i, coeffs) in balance.iter().enumerate() {
            for &(v, c) in coeffs {
                let yi = y_index(v).expect("balance rows touch only y variables");
                stationarity[yi].push((nu_vars[i], c));
            }
        }
        stationarity[ng + net.slack().0].push((nu_vars[nb], 1.0));
        // Inequality contributions.
        for ineq in &ineqs {
            for &(v, c) in &ineq.coeffs {
                let yi = y_index(v).expect("inequalities touch only y variables");
                stationarity[yi].push((ineq.lambda, c));
            }
        }
        // Hessian and linear terms: p_g has H = 2a_g, h1 = b_g; θ has none.
        for (g, gen) in net.gens().iter().enumerate() {
            let mut row = Row::eq(-gen.cost.b).coefs(stationarity[g].iter().copied());
            if gen.cost.a != 0.0 {
                row = row.coef(p_vars[g], 2.0 * gen.cost.a);
            }
            lp.add_row(row);
        }
        for i in 0..nb {
            lp.add_row(Row::eq(0.0).coefs(stationarity[ng + i].iter().copied()));
        }

        // The pairs live on the model itself (so presolve can remap them and
        // the MPEC solver can pick them up from any clone) *and* in the
        // `pairs` field for callers that want original-space ids.
        let pairs: Vec<(VarId, VarId)> = ineqs.iter().map(|q| (q.lambda, q.slack)).collect();
        for &(lambda, slack) in &pairs {
            lp.add_pair(lambda, slack);
        }
        let recon = ReconData {
            gens: net
                .gens()
                .iter()
                .map(|g| (g.pmin_mw, g.pmax_mw, 2.0 * g.cost.a, g.cost.b, g.bus.0))
                .collect(),
            line_dlr: (0..net.num_lines()).map(dlr_index).collect(),
            static_rating: net.lines().iter().map(|l| l.rating_mva).collect(),
            slack: net.slack().0,
        };
        Ok(KktModel { lp, ua_vars, p_vars, theta_vars, pairs, flow_coef, nu_vars, recon })
    }

    /// Freezes the model into the sweep-ready form: presolves the invariant
    /// KKT blocks once (when `use_presolve` is set) so every subproblem of
    /// Algorithm 1 becomes an objective patch on the shared reduced model.
    ///
    /// # Errors
    ///
    /// Propagates presolve failures (e.g. a bound conflict proving the KKT
    /// system infeasible for every manipulation).
    pub fn prepare(self, use_presolve: bool) -> Result<PreparedKkt, CoreError> {
        if use_presolve {
            let pre = presolve::presolve(&self.lp)?;
            Ok(PreparedKkt {
                reduced: pre.reduced,
                postsolve: Some(pre.postsolve),
                stats: Some(pre.stats),
                base: self,
                seed: None,
            })
        } else {
            Ok(PreparedKkt {
                reduced: self.lp.clone(),
                postsolve: None,
                stats: None,
                base: self,
                seed: None,
            })
        }
    }

    /// Sets the objective to maximize `dir · f_l` scaled by `scale` (plus an
    /// implicit constant the caller accounts for), where `f_l` is the DC
    /// flow on `line` and `dir ∈ {+1, −1}` picks the flow direction — the
    /// per-subproblem objective of Algorithm 1.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn set_flow_objective(&mut self, line: LineId, dir: f64, scale: f64) {
        let (f, t, w) = self.flow_coef[line.0];
        self.lp.clear_objective();
        self.lp.set_sense(Sense::Max);
        self.lp.set_objective_coef(self.theta_vars[f], dir * scale * w);
        self.lp.set_objective_coef(self.theta_vars[t], -dir * scale * w);
    }

    /// DC flow on `line` at an LP solution vector.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or `x` is shorter than the model.
    pub fn flow_at(&self, x: &[f64], line: LineId) -> f64 {
        let (f, t, w) = self.flow_coef[line.0];
        w * (x[self.theta_vars[f].index()] - x[self.theta_vars[t].index()])
    }

    /// Manipulated ratings at an LP solution vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the model.
    pub fn ua_at(&self, x: &[f64]) -> Vec<f64> {
        self.ua_vars.iter().map(|v| x[v.index()]).collect()
    }

    /// Generator dispatch at an LP solution vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the model.
    pub fn dispatch_at(&self, x: &[f64]) -> Vec<f64> {
        self.p_vars.iter().map(|v| x[v.index()]).collect()
    }

    /// Reconstructs a full-space KKT point for a **fixed** manipulation
    /// `ua` from the defender's solved dispatch under it — the bridge that
    /// lets a node-limited subproblem promote its heuristic incumbent into
    /// an independently certifiable solution without re-solving anything.
    ///
    /// The primal block comes straight from the dispatch; the dual block is
    /// recovered from the LMPs: `ν_i = −LMP_i` on the balance rows,
    /// generator-bound multipliers from the marginal-cost/LMP gap
    /// (`λ_min = max(mc − LMP, 0)`, `λ_max = max(LMP − mc, 0)` at active
    /// bounds), and the active flow-limit multipliers plus the
    /// reference-row multiplier from a least-squares solve of the
    /// θ-stationarity rows (a handful of unknowns — only congested lines
    /// carry a multiplier). Slacks are computed exactly and clamped at
    /// zero.
    ///
    /// Returns `None` on dimension mismatch or a singular active-set
    /// system. The result is a *candidate*: callers must still run it
    /// through the independent certifier, which is the sole arbiter of
    /// whether the reconstruction is a genuine KKT point.
    pub fn point_from_dispatch(&self, ua: &[f64], dispatch: &Dispatch) -> Option<Vec<f64>> {
        let nb = self.theta_vars.len();
        let ng = self.p_vars.len();
        if ua.len() != self.ua_vars.len()
            || dispatch.p_mw.len() != ng
            || dispatch.theta_rad.len() != nb
            || dispatch.lmp.len() != nb
        {
            return None;
        }
        let mut x = vec![0.0; self.lp.num_vars()];
        for (k, &v) in self.ua_vars.iter().enumerate() {
            x[v.index()] = ua[k];
        }
        for (g, &v) in self.p_vars.iter().enumerate() {
            x[v.index()] = dispatch.p_mw[g];
        }
        for (i, &v) in self.theta_vars.iter().enumerate() {
            x[v.index()] = dispatch.theta_rad[i];
        }
        for (i, &v) in self.nu_vars.iter().take(nb).enumerate() {
            x[v.index()] = -dispatch.lmp[i];
        }

        // Generator-bound multipliers. With ν = −LMP the p-stationarity row
        // `2a·p + ν_bus + λ_max − λ_min = −b` is satisfied exactly by
        // splitting the reduced cost rc = mc − LMP into its sign parts; a
        // multiplier on a *slack* bound is zeroed instead so
        // complementarity holds (rc ≈ 0 there at any true optimum).
        for (g, &(pmin, pmax, two_a, b, bus)) in self.recon.gens.iter().enumerate() {
            let p = dispatch.p_mw[g];
            let rc = two_a * p + b - dispatch.lmp[bus];
            let (l_max, s_max) = self.pairs[2 * g];
            let (l_min, s_min) = self.pairs[2 * g + 1];
            let smax = (pmax - p).max(0.0);
            let smin = (p - pmin).max(0.0);
            x[s_max.index()] = smax;
            x[s_min.index()] = smin;
            let tol = 1e-6 * (1.0 + pmax.abs().max(pmin.abs()));
            x[l_min.index()] = if smin <= tol { rc.max(0.0) } else { 0.0 };
            x[l_max.index()] = if smax <= tol { (-rc).max(0.0) } else { 0.0 };
        }

        // Flow slacks, and the active set that may carry a multiplier.
        // `cols` indexes the least-squares unknowns: one per active
        // (line, direction), plus the reference-row multiplier at the end.
        let mut cols: Vec<(usize, bool)> = Vec::new();
        for (l, &(f, t, w)) in self.flow_coef.iter().enumerate() {
            let flow = w * (dispatch.theta_rad[f] - dispatch.theta_rad[t]);
            let rating = match self.recon.line_dlr[l] {
                Some(k) => ua[k],
                None => self.recon.static_rating[l],
            };
            let (_, s_fwd) = self.pairs[2 * ng + 2 * l];
            let (_, s_bwd) = self.pairs[2 * ng + 2 * l + 1];
            let sf = (rating - flow).max(0.0);
            let sb = (rating + flow).max(0.0);
            x[s_fwd.index()] = sf;
            x[s_bwd.index()] = sb;
            let tol = 1e-6 * (1.0 + rating.abs());
            if sf <= tol {
                cols.push((l, true));
            }
            if sb <= tol {
                cols.push((l, false));
            }
        }

        // θ-stationarity for bus i:
        //   Σ_{l: from=i} w_l·δ_l − Σ_{l: to=i} w_l·δ_l + [i = slack]·ν_ref = 0
        // with δ_l = ν_t − ν_f + λ_fwd − λ_bwd. The ν part is known from the
        // LMPs; solve the small least squares for the active λ and ν_ref.
        let ncols = cols.len() + 1;
        let mut c = vec![vec![0.0; ncols]; nb];
        let mut r = vec![0.0; nb];
        for &(f, t, w) in &self.flow_coef {
            let known = w * (dispatch.lmp[f] - dispatch.lmp[t]);
            r[f] += known;
            r[t] -= known;
        }
        for (col, &(l, fwd)) in cols.iter().enumerate() {
            let (f, t, w) = self.flow_coef[l];
            let s = if fwd { w } else { -w };
            c[f][col] += s;
            c[t][col] -= s;
        }
        c[self.recon.slack][ncols - 1] += 1.0;
        // Normal equations N z = g for min ‖C z + r‖².
        let mut normal = vec![vec![0.0; ncols]; ncols];
        let mut g = vec![0.0; ncols];
        for i in 0..nb {
            for a in 0..ncols {
                let ca = c[i][a];
                if ca == 0.0 {
                    continue;
                }
                g[a] -= ca * r[i];
                for (nab, &cb) in normal[a].iter_mut().zip(&c[i]) {
                    *nab += ca * cb;
                }
            }
        }
        let z = solve_small_spd(&mut normal, &mut g)?;
        for (col, &(l, fwd)) in cols.iter().enumerate() {
            let lam = self.pairs[2 * ng + 2 * l + usize::from(!fwd)].0;
            x[lam.index()] = z[col].max(0.0);
        }
        x[self.nu_vars[nb].index()] = z[ncols - 1];
        Some(x)
    }
}

/// Solves the (symmetric positive semi-definite, tiny) normal-equation
/// system in place via Gaussian elimination with partial pivoting.
/// `None` on a (numerically) singular pivot — a linearly dependent active
/// set, which the caller treats as "no reconstruction".
fn solve_small_spd(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for k in 0..n {
        let piv = (k..n).max_by(|&i, &j| {
            a[i][k].abs().partial_cmp(&a[j][k].abs()).expect("finite pivots")
        })?;
        if a[piv][k].abs() < 1e-10 {
            return None;
        }
        a.swap(k, piv);
        b.swap(k, piv);
        let bk = b[k];
        let (pivot_rows, rest) = a.split_at_mut(k + 1);
        let row_k = &pivot_rows[k];
        for (row_i, bi) in rest.iter_mut().zip(b[k + 1..].iter_mut()) {
            let f = row_i[k] / row_k[k];
            if f == 0.0 {
                continue;
            }
            for (aij, akj) in row_i[k..n].iter_mut().zip(row_k[k..n].iter()) {
                *aij -= f * akj;
            }
            *bi -= f * bk;
        }
    }
    let mut z = vec![0.0; n];
    for k in (0..n).rev() {
        let mut s = b[k];
        for j in k + 1..n {
            s -= a[k][j] * z[j];
        }
        z[k] = s / a[k][k];
    }
    Some(z)
}

/// A KKT model frozen for the Algorithm 1 sweep: the invariant blocks are
/// presolved **once**, and each of the `2·|E_D|` subproblems is produced by
/// patching only the objective row of the shared reduced model (via
/// [`Postsolve::reduce_objective`], which maps the original-space flow
/// objective into reduced coordinates and accounts for eliminated
/// variables' contributions exactly).
#[derive(Debug, Clone)]
pub struct PreparedKkt {
    base: KktModel,
    /// Reduced (or, without presolve, cloned) base model, zero objective.
    reduced: Model,
    postsolve: Option<Postsolve>,
    stats: Option<PresolveStats>,
    /// Shared warm-start seed: a primal-feasible basis of the reduced model.
    /// The subproblems differ only in the objective row, so phase 1 — which
    /// never looks at the objective — traces the same pivot path in every
    /// sibling; computing it once and handing the resulting basis to each
    /// subproblem skips that shared prefix without changing any answer.
    /// Between [`Self::set_seed`] and [`Self::compute_seed`] it holds an
    /// unchecked offer instead.
    seed: Option<Basis>,
}

impl PreparedKkt {
    /// The original-space model and its accessors.
    pub fn base(&self) -> &KktModel {
        &self.base
    }

    /// Presolve statistics, when presolve ran.
    pub fn stats(&self) -> Option<&PresolveStats> {
        self.stats.as_ref()
    }

    /// `(vars, rows, nonzeros)` of the full KKT model.
    pub fn full_dims(&self) -> (usize, usize, usize) {
        let m = &self.base.lp;
        (m.num_vars(), m.num_rows(), m.num_nonzeros())
    }

    /// `(vars, rows, nonzeros)` of the model the subproblems actually solve.
    pub fn reduced_dims(&self) -> (usize, usize, usize) {
        (self.reduced.num_vars(), self.reduced.num_rows(), self.reduced.num_nonzeros())
    }

    /// A subproblem model maximizing `dir · scale · f_line`, plus the
    /// objective constant contributed by presolve-eliminated variables:
    /// `objective_original(x) = objective_reduced(x_red) + offset`.
    ///
    /// Cloning the reduced model is cheap — constraint columns are shared
    /// copy-on-write, and patching the objective never touches them.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn subproblem(&self, line: LineId, dir: f64, scale: f64) -> (Model, f64) {
        let (f, t, w) = self.base.flow_coef[line.0];
        let mut m = self.reduced.clone();
        m.clear_objective();
        m.set_sense(Sense::Max);
        match &self.postsolve {
            Some(post) => {
                let mut obj = vec![0.0; self.base.lp.num_vars()];
                obj[self.base.theta_vars[f].index()] = dir * scale * w;
                obj[self.base.theta_vars[t].index()] = -dir * scale * w;
                let (red, offset) = post.reduce_objective(&obj);
                for (v, &c) in m.var_ids().iter().zip(&red) {
                    if c != 0.0 {
                        m.set_objective_coef(*v, c);
                    }
                }
                (m, offset)
            }
            None => {
                m.set_objective_coef(self.base.theta_vars[f], dir * scale * w);
                m.set_objective_coef(self.base.theta_vars[t], -dir * scale * w);
                (m, 0.0)
            }
        }
    }

    /// Computes the shared phase-1 seed basis for the sibling subproblems,
    /// returning the simplex iterations it cost. A seed installed by
    /// [`Self::set_seed`] is offered to [`phase1_basis`]: kept at `0`
    /// iterations when it is primal feasible at this model's rhs and
    /// bounds, replaced by the cold phase-1 seed otherwise, so no root is
    /// handed a seed it would reject. Returns `0` and leaves no seed when
    /// phase 1 trips the budget or fails (e.g. an infeasible system) —
    /// every subproblem then starts cold.
    pub fn compute_seed(&mut self, budget: &SolveBudget) -> usize {
        let options = SimplexOptions { warm: self.seed.take(), ..SimplexOptions::default() };
        match phase1_basis(&self.reduced, &options, budget) {
            Ok(Some((basis, iterations))) => {
                self.seed = Some(basis);
                iterations
            }
            _ => 0,
        }
    }

    /// Installs an externally offered seed basis (e.g. the previous
    /// hour's seed) as the offer the next [`Self::compute_seed`] checks
    /// for feasibility. Returns `false` —
    /// leaving the prepared model unchanged — unless the basis dimensions
    /// match the reduced model, so an entry recorded against a different
    /// case or presolve outcome is dropped here.
    pub fn set_seed(&mut self, basis: Basis) -> bool {
        if basis.dims_match(self.reduced.num_vars(), self.reduced.num_rows()) {
            self.seed = Some(basis);
            true
        } else {
            false
        }
    }

    /// The current seed basis, if one was computed or installed.
    pub fn seed(&self) -> Option<&Basis> {
        self.seed.as_ref()
    }

    /// Maps a reduced solution vector back to the original variable space
    /// (tolerates extra appended entries, e.g. big-M indicator binaries —
    /// they are dropped, so the result always has exactly the base model's
    /// variable count and can be certified against it).
    pub fn restore(&self, x_red: &[f64]) -> Vec<f64> {
        match &self.postsolve {
            Some(post) => post.restore_x(x_red),
            None => x_red[..self.base.lp.num_vars().min(x_red.len())].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackConfig;
    use crate::dispatch::DcOpf;
    use ed_optim::branch_bound::{self, BranchOptions};

    /// With complementarity enforced and a zero objective, any feasible
    /// point of the KKT system must be an *optimal* inner dispatch. Verify
    /// against the dispatch module for fixed ua.
    #[test]
    fn kkt_feasible_point_is_inner_optimal() {
        let net = ed_cases::three_bus();
        let config = AttackConfig::new(ed_cases::three_bus::dlr_lines())
            .bounds(100.0, 200.0)
            .true_ratings(vec![160.0, 160.0]);
        let mut model = KktModel::build(&net, &config).unwrap();
        // Pin ua to (160, 160) = the static scenario.
        for (k, &v) in model.ua_vars.clone().iter().enumerate() {
            let _ = k;
            model.lp.set_bounds(v, 160.0, 160.0);
        }
        // `build` already recorded the complementarity pairs on the model.
        let sol = branch_bound::solve(&model.lp, &BranchOptions::pairs(), &SolveBudget::unlimited())
            .unwrap()
            .solved()
            .unwrap();
        let p = model.dispatch_at(&sol.x);
        // Inner-optimal dispatch for these ratings is (120, 180).
        let reference = DcOpf::new(&net).solve().unwrap();
        assert!((p[0] - reference.p_mw[0]).abs() < 1e-4, "p={p:?}");
        assert!((p[1] - reference.p_mw[1]).abs() < 1e-4, "p={p:?}");
    }

    #[test]
    fn model_dimensions() {
        let net = ed_cases::three_bus();
        let config = AttackConfig::new(ed_cases::three_bus::dlr_lines())
            .bounds(100.0, 200.0)
            .true_ratings(vec![130.0, 120.0]);
        let model = KktModel::build(&net, &config).unwrap();
        // Pairs: 2 per generator + 2 per line.
        assert_eq!(model.pairs.len(), 2 * net.num_gens() + 2 * net.num_lines());
        assert_eq!(model.ua_vars.len(), 2);
        assert_eq!(model.p_vars.len(), 2);
        assert_eq!(model.theta_vars.len(), 3);
    }

    #[test]
    fn invalid_config_rejected() {
        let net = ed_cases::three_bus();
        let config = AttackConfig::new(vec![ed_powerflow::LineId(9)])
            .bounds(100.0, 200.0)
            .true_ratings(vec![100.0]);
        assert!(KktModel::build(&net, &config).is_err());
    }
}
