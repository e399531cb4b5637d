//! Presolve: shrink a [`Model`] before solving, and map solutions back.
//!
//! [`presolve`] applies the classic reductions —
//!
//! - **empty-row removal** (with consistency check),
//! - **singleton-row handling**: a one-entry equality row fixes its
//!   variable, a one-entry inequality row tightens a bound, and the row is
//!   removed either way,
//! - **fixed-variable elimination**: columns with `lb == ub` are substituted
//!   into the rows and the objective (including quadratic cross terms),
//! - **dominated duplicate-row removal**: rows with identical coefficient
//!   vectors keep only the tightest representative,
//! - **row/column equilibration scaling** by powers of two, which is exact
//!   in floating point and therefore losslessly invertible —
//!
//! to fixpoint, and returns [`Presolved`] carrying the reduced model, a
//! [`Postsolve`] that maps reduced solutions back to the original variable
//! space *exactly* (fixed values are reinserted verbatim; scaling undoes by
//! exact power-of-two multiplication), and a [`PresolveStats`] block for
//! benchmark reporting.
//!
//! Complementarity-pair columns are never eliminated (MPEC branching must
//! keep both sides of a pair addressable) and integer columns are never
//! scaled (scaling would break integrality); bound tightening applies to
//! both, with inward rounding for integers.
//!
//! Dual recovery: duals of removed rows are reconstructed from stationarity
//! (`rc_j = c_j − Σ_i y_i·a_ij`) by replaying removals in reverse, so
//! downstream LMP extraction keeps working with presolve enabled.
//!
//! Presolve is always explicit: neither [`Model::solve`] nor branch and
//! bound presolves on its own. Callers run [`presolve`] themselves, solve
//! the reduced model and map the answer back (Algorithm 1 does, once per
//! sweep, when its options ask for it).

use super::{LpSolution, Model, RowSense, Sense, VarId};
use crate::OptimError;
use std::sync::Arc;

/// Tuning knobs for [`presolve_with`].
#[derive(Debug, Clone)]
pub struct PresolveOptions {
    /// Apply power-of-two row/column equilibration scaling (exactly
    /// invertible; integer and pair columns are exempt).
    pub scale: bool,
    /// Feasibility tolerance for consistency checks and bound crossings.
    pub feas_tol: f64,
    /// Integrality tolerance for rounding tightened integer bounds inward.
    pub int_tol: f64,
}

impl Default for PresolveOptions {
    fn default() -> PresolveOptions {
        let tol = crate::certify::Tolerances::default();
        PresolveOptions { scale: true, feas_tol: tol.feas, int_tol: tol.int }
    }
}

/// Size accounting for one presolve run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PresolveStats {
    /// Rows before reduction.
    pub rows_before: usize,
    /// Columns before reduction.
    pub cols_before: usize,
    /// Constraint nonzeros before reduction.
    pub nnz_before: usize,
    /// Rows after reduction.
    pub rows_after: usize,
    /// Columns after reduction.
    pub cols_after: usize,
    /// Constraint nonzeros after reduction.
    pub nnz_after: usize,
}

impl PresolveStats {
    /// Rows removed.
    pub fn rows_removed(&self) -> usize {
        self.rows_before - self.rows_after
    }

    /// Columns removed.
    pub fn cols_removed(&self) -> usize {
        self.cols_before - self.cols_after
    }

    /// Nonzeros removed.
    pub fn nnz_removed(&self) -> usize {
        self.nnz_before - self.nnz_after
    }

    /// Fraction of the model (rows + cols + nonzeros) removed, in `[0, 1]`.
    pub fn reduction_ratio(&self) -> f64 {
        let before = (self.rows_before + self.cols_before + self.nnz_before) as f64;
        if before == 0.0 {
            return 0.0;
        }
        let after = (self.rows_after + self.cols_after + self.nnz_after) as f64;
        (1.0 - after / before).max(0.0)
    }
}

/// Why a row was removed — drives dual recovery in [`Postsolve`].
#[derive(Debug, Clone, Copy)]
enum RemovedKind {
    /// No live entries; dual is 0.
    Empty,
    /// Dominated by a duplicate row; dual is 0 (the kept row carries it).
    Dominated,
    /// Single live entry `coef·x_col`; the row became a bound on `col`.
    Singleton {
        col: usize,
        coef: f64,
        /// The bound the row implied on `col` (in original variable units).
        implied: f64,
    },
}

#[derive(Debug, Clone, Copy)]
struct RemovedRow {
    row: usize,
    sense: RowSense,
    kind: RemovedKind,
}

/// Inverse map from reduced solutions back to the original model space.
///
/// Cheap to clone (the original columns are `Arc`-shared) and `Send + Sync`,
/// so one `Postsolve` can serve a parallel sweep.
#[derive(Debug, Clone)]
pub struct Postsolve {
    sense: Sense,
    n: usize,
    m: usize,
    col_map: Vec<Option<usize>>,
    row_map: Vec<Option<usize>>,
    /// Value of each eliminated column (original units); 0 for live columns.
    fixed_val: Vec<f64>,
    /// `x_orig = col_scale · x_reduced` (1 for eliminated columns).
    col_scale: Vec<f64>,
    /// `reduced row = row_scale · original row`, so
    /// `dual_orig = row_scale · dual_reduced`.
    row_scale: Vec<f64>,
    /// Constant folded out of the objective by eliminations.
    obj_offset: f64,
    /// Final tightened bounds (original units) — used to decide whether a
    /// removed singleton inequality row is the binding one.
    tight_lb: Vec<f64>,
    tight_ub: Vec<f64>,
    removed: Vec<RemovedRow>,
    orig_cols: Arc<Vec<Vec<(usize, f64)>>>,
    orig_obj: Vec<f64>,
    feas_tol: f64,
}

/// A presolved model plus its inverse map and size accounting.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced model (same sense and capability flags, remapped ids).
    pub reduced: Model,
    /// Maps reduced solutions back to original variable space.
    pub postsolve: Postsolve,
    /// Size deltas for reporting.
    pub stats: PresolveStats,
}

/// Runs presolve with default options. See the [module docs](self).
///
/// # Errors
///
/// [`OptimError::Infeasible`] when a reduction proves the model infeasible
/// (inconsistent empty row, crossed bounds, fractional fixed integer).
pub fn presolve(model: &Model) -> Result<Presolved, OptimError> {
    presolve_with(model, &PresolveOptions::default())
}

/// Runs presolve with explicit options.
///
/// # Errors
///
/// Same as [`presolve`].
pub fn presolve_with(model: &Model, opts: &PresolveOptions) -> Result<Presolved, OptimError> {
    let _t = ed_obs::timer("optim.presolve");
    let out = presolve_with_inner(model, opts);
    if ed_obs::enabled() {
        ed_obs::counter("optim.presolve.runs", 1);
        if let Ok(pre) = &out {
            ed_obs::counter("optim.presolve.rows_removed", pre.stats.rows_removed() as u64);
            ed_obs::counter("optim.presolve.cols_removed", pre.stats.cols_removed() as u64);
            ed_obs::counter("optim.presolve.nnz_removed", pre.stats.nnz_removed() as u64);
        }
    }
    out
}

fn presolve_with_inner(model: &Model, opts: &PresolveOptions) -> Result<Presolved, OptimError> {
    let n = model.num_vars();
    let m = model.num_rows();

    // Coalesced working copies (duplicate (row, col) entries summed).
    let wcols: Vec<Vec<(usize, f64)>> = model
        .cols
        .iter()
        .map(|col| {
            let mut c = col.clone();
            c.sort_by_key(|&(i, _)| i);
            coalesce(&mut c);
            c
        })
        .collect();
    let mut wrows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for (j, col) in wcols.iter().enumerate() {
        for &(i, a) in col {
            wrows[i].push((j, a));
        }
    }

    let mut wlb = model.lb.clone();
    let mut wub = model.ub.clone();
    let mut wrhs = model.rhs.clone();
    // Accumulated |a·v| adjustments per row, for scale-aware tolerance.
    let mut adj_abs = vec![0.0_f64; m];

    let mut alive_row = vec![true; m];
    let mut alive_col = vec![true; n];
    let mut fixed_val = vec![0.0_f64; n];
    let mut removed: Vec<RemovedRow> = Vec::new();

    let mut is_pair = vec![false; n];
    for &(a, b) in &model.pairs {
        is_pair[a.0] = true;
        is_pair[b.0] = true;
    }
    let mut is_int = vec![false; n];
    for &v in &model.integers {
        is_int[v.0] = true;
    }

    let row_tol = |i: usize, wrhs: &[f64], adj: &[f64]| {
        opts.feas_tol * (1.0 + wrhs[i].abs() + adj[i])
    };

    let mut changed = true;
    while changed {
        changed = false;

        // Empty and singleton rows.
        for i in 0..m {
            if !alive_row[i] {
                continue;
            }
            let mut live: Option<(usize, f64)> = None;
            let mut count = 0usize;
            for &(j, a) in &wrows[i] {
                if alive_col[j] {
                    count += 1;
                    if count > 1 {
                        break;
                    }
                    live = Some((j, a));
                }
            }
            match count {
                0 => {
                    let tol = row_tol(i, &wrhs, &adj_abs);
                    let ok = match model.row_sense[i] {
                        RowSense::Le => wrhs[i] >= -tol,
                        RowSense::Ge => wrhs[i] <= tol,
                        RowSense::Eq => wrhs[i].abs() <= tol,
                    };
                    if !ok {
                        return Err(OptimError::Infeasible);
                    }
                    alive_row[i] = false;
                    removed.push(RemovedRow {
                        row: i,
                        sense: model.row_sense[i],
                        kind: RemovedKind::Empty,
                    });
                    changed = true;
                }
                1 => {
                    let (j, a) = live.expect("count == 1 implies a live entry");
                    let v = wrhs[i] / a;
                    let sense = model.row_sense[i];
                    // Which bound the row implies on x_j.
                    let upper = match sense {
                        RowSense::Eq => None, // fixes
                        RowSense::Le => Some(a > 0.0),
                        RowSense::Ge => Some(a < 0.0),
                    };
                    let btol = opts.feas_tol * (1.0 + v.abs());
                    match upper {
                        None => {
                            if v < wlb[j] - btol || v > wub[j] + btol {
                                return Err(OptimError::Infeasible);
                            }
                            if is_int[j] && (v - v.round()).abs() > opts.int_tol {
                                return Err(OptimError::Infeasible);
                            }
                            let v = v.clamp(wlb[j], wub[j]);
                            wlb[j] = v;
                            wub[j] = v;
                        }
                        Some(true) => {
                            let mut cand = v;
                            if is_int[j] {
                                cand = (cand + opts.int_tol).floor();
                            }
                            if cand < wub[j] {
                                if cand < wlb[j] - btol {
                                    return Err(OptimError::Infeasible);
                                }
                                wub[j] = cand.max(wlb[j]);
                            }
                        }
                        Some(false) => {
                            let mut cand = v;
                            if is_int[j] {
                                cand = (cand - opts.int_tol).ceil();
                            }
                            if cand > wlb[j] {
                                if cand > wub[j] + btol {
                                    return Err(OptimError::Infeasible);
                                }
                                wlb[j] = cand.min(wub[j]);
                            }
                        }
                    }
                    alive_row[i] = false;
                    removed.push(RemovedRow {
                        row: i,
                        sense,
                        kind: RemovedKind::Singleton { col: j, coef: a, implied: v },
                    });
                    changed = true;
                }
                _ => {}
            }
        }

        // Fixed-column elimination (pair columns stay addressable).
        for j in 0..n {
            if !alive_col[j] || is_pair[j] {
                continue;
            }
            if wlb[j] == wub[j] && wlb[j].is_finite() {
                let v = wlb[j];
                for &(i, a) in &wcols[j] {
                    if alive_row[i] {
                        wrhs[i] -= a * v;
                        adj_abs[i] += (a * v).abs();
                    }
                }
                alive_col[j] = false;
                fixed_val[j] = v;
                changed = true;
            }
        }
    }

    // Dominated duplicate rows: group live rows by their live coefficient
    // signature, keep the tightest per (signature, effective sense).
    {
        use std::collections::HashMap;
        let mut groups: HashMap<Vec<(usize, u64)>, Vec<usize>> = HashMap::new();
        for i in 0..m {
            if !alive_row[i] {
                continue;
            }
            let sig: Vec<(usize, u64)> = wrows[i]
                .iter()
                .filter(|&&(j, _)| alive_col[j])
                .map(|&(j, a)| (j, a.to_bits()))
                .collect();
            groups.entry(sig).or_default().push(i);
        }
        for (_, rows) in groups {
            if rows.len() < 2 {
                continue;
            }
            // Tightest bounds in the group (tolerant comparisons are not
            // needed: identical coefficient vectors make rhs directly
            // comparable).
            let eq_row = rows.iter().copied().find(|&i| model.row_sense[i] == RowSense::Eq);
            let best_le = rows
                .iter()
                .copied()
                .filter(|&i| model.row_sense[i] == RowSense::Le)
                .min_by(|&a, &b| wrhs[a].total_cmp(&wrhs[b]));
            let best_ge = rows
                .iter()
                .copied()
                .filter(|&i| model.row_sense[i] == RowSense::Ge)
                .max_by(|&a, &b| wrhs[a].total_cmp(&wrhs[b]));
            for &i in &rows {
                let drop = match model.row_sense[i] {
                    RowSense::Eq => eq_row.is_some_and(|k| k != i && wrhs[k] == wrhs[i]),
                    RowSense::Le => {
                        // Redundant against the kept Le twin or an equality.
                        best_le.is_some_and(|k| k != i && wrhs[k] <= wrhs[i])
                            || eq_row.is_some_and(|k| wrhs[k] <= wrhs[i])
                    }
                    RowSense::Ge => {
                        best_ge.is_some_and(|k| k != i && wrhs[k] >= wrhs[i])
                            || eq_row.is_some_and(|k| wrhs[k] >= wrhs[i])
                    }
                };
                if drop {
                    alive_row[i] = false;
                    removed.push(RemovedRow {
                        row: i,
                        sense: model.row_sense[i],
                        kind: RemovedKind::Dominated,
                    });
                }
            }
        }
    }

    // Power-of-two equilibration on the surviving submatrix.
    let mut row_scale = vec![1.0_f64; m];
    let mut col_scale = vec![1.0_f64; n];
    if opts.scale {
        for i in 0..m {
            if !alive_row[i] {
                continue;
            }
            let amax = wrows[i]
                .iter()
                .filter(|&&(j, _)| alive_col[j])
                .map(|&(_, a)| a.abs())
                .fold(0.0_f64, f64::max);
            if amax > 0.0 && amax.is_finite() {
                row_scale[i] = pow2_inverse(amax);
            }
        }
        for j in 0..n {
            if !alive_col[j] || is_int[j] || is_pair[j] {
                continue;
            }
            let amax = wcols[j]
                .iter()
                .filter(|&&(i, _)| alive_row[i])
                .map(|&(i, a)| (a * row_scale[i]).abs())
                .fold(0.0_f64, f64::max);
            if amax > 0.0 && amax.is_finite() {
                col_scale[j] = pow2_inverse(amax);
            }
        }
    }

    // Compaction: build the reduced model and the index maps.
    let mut col_map = vec![None; n];
    let mut next = 0usize;
    for j in 0..n {
        if alive_col[j] {
            col_map[j] = Some(next);
            next += 1;
        }
    }
    let cols_after = next;
    let mut row_map = vec![None; m];
    next = 0;
    for i in 0..m {
        if alive_row[i] {
            row_map[i] = Some(next);
            next += 1;
        }
    }
    let rows_after = next;

    // Objective: eliminated linear terms and quadratic cross terms fold
    // into the offset / linear coefficients.
    let mut obj_offset = 0.0_f64;
    let mut obj_adj = model.obj.clone();
    for (j, &v) in fixed_val.iter().enumerate() {
        if !alive_col[j] {
            obj_offset += model.obj[j] * v;
        }
    }
    let mut quad_red: Vec<(usize, usize, f64)> = Vec::new();
    for &(i, j, q) in &model.quad {
        match (col_map[i], col_map[j]) {
            (Some(_), Some(_)) => quad_red.push((i, j, q)), // remapped below
            (Some(_), None) => obj_adj[i] += 0.5 * q * fixed_val[j],
            (None, Some(_)) => obj_adj[j] += 0.5 * q * fixed_val[i],
            (None, None) => obj_offset += 0.5 * q * fixed_val[i] * fixed_val[j],
        }
    }

    let mut reduced = match model.sense {
        Sense::Min => Model::minimize(),
        Sense::Max => Model::maximize(),
    };
    for j in 0..n {
        if alive_col[j] {
            let s = col_scale[j];
            reduced.add_var(scale_div(wlb[j], s), scale_div(wub[j], s), obj_adj[j] * s);
        }
    }
    {
        let rcols = Arc::make_mut(&mut reduced.cols);
        for j in 0..n {
            let Some(rj) = col_map[j] else { continue };
            let s = col_scale[j];
            for &(i, a) in &wcols[j] {
                if let Some(ri) = row_map[i] {
                    rcols[rj].push((ri, a * row_scale[i] * s));
                }
            }
        }
        // add_row is bypassed, so install row metadata directly.
        for i in 0..m {
            if alive_row[i] {
                reduced.row_sense.push(model.row_sense[i]);
                reduced.rhs.push(wrhs[i] * row_scale[i]);
            }
        }
        // Column entries arrived row-major per column already sorted by
        // original row order; compaction preserves that order.
    }
    for &(i, j, q) in &quad_red {
        let (ri, rj) = (col_map[i].unwrap(), col_map[j].unwrap());
        reduced.quad.push((ri, rj, q * col_scale[i] * col_scale[j]));
    }
    for &v in &model.integers {
        if let Some(rj) = col_map[v.0] {
            reduced.integers.push(VarId(rj));
        }
    }
    for &(a, b) in &model.pairs {
        let (ra, rb) = (
            col_map[a.0].expect("pair columns are never eliminated"),
            col_map[b.0].expect("pair columns are never eliminated"),
        );
        reduced.pairs.push((VarId(ra), VarId(rb)));
    }

    let stats = PresolveStats {
        rows_before: m,
        cols_before: n,
        nnz_before: model.num_nonzeros(),
        rows_after,
        cols_after,
        nnz_after: reduced.num_nonzeros(),
    };
    let postsolve = Postsolve {
        sense: model.sense,
        n,
        m,
        col_map,
        row_map,
        fixed_val,
        col_scale,
        row_scale,
        obj_offset,
        tight_lb: wlb,
        tight_ub: wub,
        removed,
        orig_cols: Arc::clone(&model.cols),
        orig_obj: model.obj.clone(),
        feas_tol: opts.feas_tol,
    };
    Ok(Presolved { reduced, postsolve, stats })
}

/// `2^(−round(log2(x)))`, clamped to avoid overflow — the exact power-of-two
/// factor that brings `x` nearest to 1.
fn pow2_inverse(x: f64) -> f64 {
    let e = x.log2().round().clamp(-60.0, 60.0) as i32;
    (2.0_f64).powi(-e)
}

/// `x / s` where `s` is a power of two — exact, and preserves infinities.
fn scale_div(x: f64, s: f64) -> f64 {
    if x.is_finite() {
        x / s
    } else {
        x
    }
}

fn coalesce(entries: &mut Vec<(usize, f64)>) {
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
    for &(i, a) in entries.iter() {
        match out.last_mut() {
            Some(&mut (last, ref mut v)) if last == i => *v += a,
            _ => out.push((i, a)),
        }
    }
    out.retain(|&(_, v)| v != 0.0);
    *entries = out;
}

impl Postsolve {
    /// Constant folded out of the objective by eliminations (original
    /// objective = reduced objective + offset).
    pub fn obj_offset(&self) -> f64 {
        self.obj_offset
    }

    /// Where an original variable went: `Some(reduced id)` if it survived,
    /// `None` if it was eliminated at a fixed value.
    pub fn map_var(&self, v: VarId) -> Option<VarId> {
        self.col_map[v.0].map(VarId)
    }

    /// Expands a reduced primal point to the original variable space:
    /// eliminated variables take their fixed values verbatim, survivors
    /// unscale by an exact power of two. `x_red` may be longer than the
    /// reduced model (e.g. when auxiliary variables were appended after
    /// presolve); the extras are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `x_red` is shorter than the reduced model.
    pub fn restore_x(&self, x_red: &[f64]) -> Vec<f64> {
        (0..self.n)
            .map(|j| match self.col_map[j] {
                Some(rj) => self.col_scale[j] * x_red[rj],
                None => self.fixed_val[j],
            })
            .collect()
    }

    /// Maps a reduced linear objective vector into reduced space, returning
    /// the reduced coefficients and the constant contributed by eliminated
    /// variables. This is what lets Algorithm 1 patch objectives on one
    /// presolved base model: `obj_orig'x_orig = obj_red'x_red + constant`.
    ///
    /// # Panics
    ///
    /// Panics if `obj.len()` differs from the original variable count.
    pub fn reduce_objective(&self, obj: &[f64]) -> (Vec<f64>, f64) {
        assert_eq!(obj.len(), self.n, "objective vector length mismatch");
        let reduced_n = self.col_map.iter().flatten().count();
        let mut red = vec![0.0; reduced_n];
        let mut offset = 0.0;
        for (j, &c) in obj.iter().enumerate() {
            match self.col_map[j] {
                Some(rj) => red[rj] = c * self.col_scale[j],
                None => offset += c * self.fixed_val[j],
            }
        }
        (red, offset)
    }

    /// Expands a reduced [`LpSolution`]: primal restored exactly, objective
    /// shifted by the eliminated constant, and duals/reduced costs of
    /// removed rows/columns recovered from stationarity by replaying the
    /// removals in reverse.
    pub fn restore_lp_solution(&self, sol: LpSolution) -> LpSolution {
        let x = self.restore_x(&sol.x);

        let mut duals = vec![0.0; self.m];
        for (i, d) in duals.iter_mut().enumerate() {
            if let Some(ri) = self.row_map[i] {
                *d = self.row_scale[i] * sol.duals[ri];
            }
        }
        // Reduced costs: survivors unscale; eliminated columns are
        // recomputed from stationarity once all duals are known.
        let mut rc = vec![f64::NAN; self.n];
        for (j, c) in rc.iter_mut().enumerate() {
            if let Some(rj) = self.col_map[j] {
                *c = sol.reduced_costs[rj] / self.col_scale[j];
            }
        }

        // Stationarity in the stated sense: rc_j = c_j − Σ_i y_i·a_ij
        // (holds for both Min and Max because this crate flips duals and
        // reduced costs together).
        let rc_from_duals = |j: usize, duals: &[f64]| -> f64 {
            let mut v = self.orig_obj[j];
            for &(i, a) in &self.orig_cols[j] {
                v -= duals[i] * a;
            }
            v
        };

        for r in self.removed.iter().rev() {
            let RemovedKind::Singleton { col: j, coef: a, implied } = r.kind else {
                continue; // empty/dominated rows keep dual 0
            };
            if rc[j].is_nan() {
                rc[j] = rc_from_duals(j, &duals);
            }
            match r.sense {
                RowSense::Eq => {
                    duals[r.row] = rc[j] / a;
                    rc[j] = 0.0;
                }
                RowSense::Le | RowSense::Ge => {
                    // Assign the dual only when this row's implied bound is
                    // the one actually binding at the restored point.
                    let tol = self.feas_tol * (1.0 + implied.abs());
                    let is_upper = match r.sense {
                        RowSense::Le => a > 0.0,
                        RowSense::Ge => a < 0.0,
                        RowSense::Eq => unreachable!(),
                    };
                    let final_bound = if is_upper { self.tight_ub[j] } else { self.tight_lb[j] };
                    let binding =
                        (implied - final_bound).abs() <= tol && (x[j] - implied).abs() <= tol;
                    if binding {
                        let y = rc[j] / a;
                        // Min form: Le duals ≤ 0, Ge duals ≥ 0; flipped for Max.
                        let sign_ok = match (self.sense, r.sense) {
                            (Sense::Min, RowSense::Le) | (Sense::Max, RowSense::Ge) => {
                                y <= self.feas_tol
                            }
                            (Sense::Min, RowSense::Ge) | (Sense::Max, RowSense::Le) => {
                                y >= -self.feas_tol
                            }
                            (_, RowSense::Eq) => unreachable!(),
                        };
                        if sign_ok {
                            duals[r.row] = y;
                            rc[j] = 0.0;
                        }
                    }
                }
            }
        }
        for (j, c) in rc.iter_mut().enumerate() {
            if c.is_nan() {
                *c = rc_from_duals(j, &duals);
            }
        }

        LpSolution {
            status: sol.status,
            objective: sol.objective + self.obj_offset,
            x,
            duals,
            reduced_costs: rc,
            iterations: sol.iterations,
            // A basis recorded in the reduced space does not transfer to the
            // full space, so postsolved solutions carry none.
            basis: None,
            warm_used: sol.warm_used,
            dual_iterations: sol.dual_iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::{self, BranchOptions};
    use crate::lp::Row;
    use crate::SolveBudget;

    #[test]
    fn reference_row_is_eliminated() {
        // θ-style model: singleton equality fixes t, eliminating its column
        // from the balance row.
        let mut m = Model::minimize();
        let p = m.add_var(0.0, 10.0, 1.0);
        let t = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        m.add_row(Row::eq(0.0).coef(t, 1.0));
        m.add_row(Row::eq(5.0).coef(p, 1.0).coef(t, 2.0));
        let pre = presolve(&m).unwrap();
        // The fixing cascades: t = 0 eliminates its column, which makes the
        // balance row a singleton that fixes p too — everything reduces away.
        assert_eq!(pre.stats.rows_removed(), 2);
        assert_eq!(pre.stats.cols_removed(), 2);
        assert!(pre.stats.reduction_ratio() > 0.0);
        assert_eq!(pre.postsolve.map_var(t), None);
        let sol = pre.reduced.solve().unwrap();
        let full = pre.postsolve.restore_lp_solution(sol);
        assert_eq!(full.x.len(), 2);
        assert!((full.x[0] - 5.0).abs() < 1e-9);
        assert_eq!(full.x[1], 0.0);
        assert!((full.objective - 5.0).abs() < 1e-9);
        // Balance-row dual survives; reference-row dual recovered.
        assert!((full.duals[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn singleton_inequality_tightens_and_recovers_dual() {
        // min -x  s.t.  2x <= 8, x in [0, 10]  →  x = 4 with the row binding.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, -1.0);
        m.add_row(Row::le(8.0).coef(x, 2.0));
        let pre = presolve(&m).unwrap();
        assert_eq!(pre.reduced.num_rows(), 0);
        let sol = pre.reduced.solve().unwrap();
        let full = pre.postsolve.restore_lp_solution(sol);
        assert!((full.x[0] - 4.0).abs() < 1e-9);
        assert!((full.objective + 4.0).abs() < 1e-9);
        // Min-form Le dual: y = rc/a = (−1 − 0)/2 = −0.5, and the variable's
        // reduced cost moves onto the recovered row.
        assert!((full.duals[0] + 0.5).abs() < 1e-9);
        assert!(full.reduced_costs[0].abs() < 1e-9);
    }

    #[test]
    fn infeasible_fixings_detected() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_row(Row::eq(5.0).coef(x, 1.0));
        assert!(matches!(presolve(&m), Err(OptimError::Infeasible)));

        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, 1.0);
        m.add_row(Row::le(2.0).coef(x, 1.0));
        m.add_row(Row::ge(3.0).coef(x, 1.0));
        assert!(matches!(presolve(&m), Err(OptimError::Infeasible)));
    }

    #[test]
    fn dominated_duplicates_drop() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, 1.0);
        let y = m.add_var(0.0, 10.0, 1.0);
        m.add_row(Row::le(5.0).coef(x, 1.0).coef(y, 1.0));
        m.add_row(Row::le(7.0).coef(x, 1.0).coef(y, 1.0)); // dominated
        m.add_row(Row::ge(1.0).coef(x, 1.0).coef(y, 1.0));
        let pre = presolve(&m).unwrap();
        assert_eq!(pre.stats.rows_removed(), 1);
        let sol = pre.reduced.solve().unwrap();
        let full = pre.postsolve.restore_lp_solution(sol);
        assert!((full.objective - 1.0).abs() < 1e-9);
        assert_eq!(full.duals.len(), 3);
        assert_eq!(full.duals[1], 0.0, "dominated row keeps zero dual");
    }

    #[test]
    fn scaling_round_trips_exactly() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1024.0, 3.0);
        let y = m.add_var(0.0, 1024.0, 1.0);
        m.add_row(Row::ge(512.0).coef(x, 256.0).coef(y, 256.0));
        m.add_row(Row::le(0.125).coef(x, 0.0625).coef(y, -0.0625));
        let pre = presolve_with(&m, &PresolveOptions::default()).unwrap();
        let sol = pre.reduced.solve().unwrap();
        let full = pre.postsolve.restore_lp_solution(sol);
        // Optimum: y as large as possible... solve the original directly and
        // compare exactly (power-of-two scaling must not perturb the vertex).
        let direct = m.solve().unwrap();
        assert_eq!(full.x, direct.x);
        assert!((full.objective - direct.objective).abs() < 1e-12);
    }

    #[test]
    fn pair_columns_survive() {
        let mut m = Model::minimize();
        let l = m.add_var(0.0, 10.0, 1.0);
        let s = m.add_var(0.0, 10.0, 1.0);
        m.add_pair(l, s);
        // Singleton equality would normally eliminate l.
        m.add_row(Row::eq(0.0).coef(l, 1.0));
        m.add_row(Row::ge(1.0).coef(s, 1.0).coef(l, 1.0));
        let pre = presolve(&m).unwrap();
        assert!(pre.postsolve.map_var(l).is_some(), "pair column must survive");
        assert!(pre.postsolve.map_var(s).is_some());
        assert_eq!(pre.reduced.pairs().len(), 1);
    }

    #[test]
    fn reduce_objective_maps_and_offsets() {
        let mut m = Model::maximize();
        let a = m.add_var(0.0, 10.0, 0.0);
        let t = m.add_var(3.0, 3.0, 0.0); // fixed → eliminated
        m.add_row(Row::le(8.0).coef(a, 1.0).coef(t, 1.0));
        let pre = presolve(&m).unwrap();
        let (red, off) = pre.postsolve.reduce_objective(&[2.0, 5.0]);
        assert_eq!(red.len(), pre.reduced.num_vars());
        assert!((off - 15.0).abs() < 1e-12);
        let ra = pre.postsolve.map_var(a).unwrap();
        assert_eq!(red[ra.index()], 2.0);
    }

    /// Branch and bound on `m` and on its presolved form, whose answer is
    /// mapped back: `[direct, presolved]` as (objective, x). The two must
    /// agree, as Algorithm 1's presolved sweep relies on.
    fn branch_direct_and_presolved(m: &Model, opts: &BranchOptions) -> [(f64, Vec<f64>); 2] {
        let solve = |m: &Model| {
            let out = branch_bound::solve(m, opts, &SolveBudget::unlimited()).unwrap();
            out.solved().unwrap()
        };
        let direct = solve(m);
        let pre = presolve(m).unwrap();
        let red = solve(&pre.reduced);
        let restored = pre.postsolve.restore_x(&red.x);
        [(direct.objective, direct.x), (red.objective + pre.postsolve.obj_offset(), restored)]
    }

    fn assert_agree([(plain, px), (pre, qx)]: [(f64, Vec<f64>); 2], want: f64) {
        assert!((plain - want).abs() < 1e-7, "obj={plain}");
        assert!((pre - plain).abs() < 1e-9);
        assert_eq!(px.len(), qx.len());
        for (p, q) in px.iter().zip(&qx) {
            assert!((p - q).abs() < 1e-7, "{px:?} vs {qx:?}");
        }
    }

    #[test]
    fn presolved_knapsack_branches_to_the_same_optimum() {
        // Presolvable structure on top of a knapsack (max 5a + 4b + 3c,
        // 2a + 3b + c <= 4, binary: a and c, 8): a fixed variable, a
        // singleton row, and a redundant duplicate row.
        let mut m = Model::maximize();
        let vars = [5.0, 4.0, 3.0].map(|c| m.add_var(0.0, 1.0, c));
        m.add_row(Row::le(4.0).coef(vars[0], 2.0).coef(vars[1], 3.0).coef(vars[2], 1.0));
        for v in vars {
            m.set_integer(v);
        }
        let fixed = m.add_var(2.0, 2.0, 1.0); // contributes 2 to the objective
        m.add_row(Row::le(4.0).coef(vars[0], 2.0).coef(vars[1], 3.0).coef(vars[2], 1.0));
        m.add_row(Row::le(3.0).coef(fixed, 1.0));
        assert_agree(branch_direct_and_presolved(&m, &BranchOptions::integers()), 10.0);
    }

    #[test]
    fn presolved_pairs_branch_to_the_same_optimum() {
        // max x + y, x + y <= 3, x, y in [0, 2], x ⟂ y, plus a fixed
        // variable and a redundant row so presolve has work to do; the
        // pair itself survives.
        let mut m = Model::maximize();
        let x = m.add_var(0.0, 2.0, 1.0);
        let y = m.add_var(0.0, 2.0, 1.0);
        m.add_row(Row::le(3.0).coef(x, 1.0).coef(y, 1.0));
        m.add_pair(x, y);
        let fixed = m.add_var(1.0, 1.0, 3.0);
        m.add_row(Row::le(6.0).coef(x, 2.0).coef(y, 2.0)); // dominated duplicate
        m.add_row(Row::le(5.0).coef(fixed, 1.0)); // singleton on the fixed var
        assert_agree(branch_direct_and_presolved(&m, &BranchOptions::pairs()), 5.0);
    }
}
