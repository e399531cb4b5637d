//! Presolve: shrink a linear [`Model`] with complementarity pairs before
//! solving, and map solutions back.
//!
//! [`presolve`] applies the classic reductions —
//!
//! - **empty-row removal** (with consistency check),
//! - **singleton-row handling**: a one-entry equality row fixes its
//!   variable, a one-entry inequality row tightens a bound, and the row is
//!   removed either way,
//! - **fixed-variable elimination**: columns with `lb == ub` are substituted
//!   into the rows and the objective,
//! - **dominated duplicate-row removal**: rows with identical coefficient
//!   vectors keep only the tightest representative —
//!
//! to fixpoint, and returns [`Presolved`] carrying the reduced model, a
//! [`Postsolve`] that maps reduced points and objectives back to the
//! original variable space *exactly* (fixed values are reinserted
//! verbatim, survivors keep their values), and a [`PresolveStats`] block
//! for benchmark reporting.
//!
//! The model it accepts is the one Algorithm 1 builds: its KKT
//! reformulation is linear with complementarity pairs, and the sweep
//! presolves it once before the fan-out. A model with integer marks or
//! quadratic terms is refused with [`OptimError::InvalidModel`].
//! Complementarity-pair columns are never eliminated (MPEC branching must
//! keep both sides of a pair addressable); bound tightening applies to
//! them.
//!
//! Presolve does not scale. The KKT LP is heavily degenerate, and
//! power-of-two row/column equilibration perturbed the simplex pivot path
//! badly there (about 4x the iterations on the 118-bus case) without
//! improving conditioning: the coefficients are already O(1) susceptances
//! and unit complementarity rows.
//!
//! Presolve is always explicit: neither [`Model::solve`] nor branch and
//! bound presolves on its own. Callers run [`presolve`] themselves, solve
//! the reduced model and map the answer back (Algorithm 1 does, once per
//! sweep, when its options ask for it).

use super::{Model, RowSense, Sense, VarId};
use crate::OptimError;
use std::sync::Arc;

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
}

/// Inverse map from reduced solutions back to the original model space.
///
/// `Send + Sync`, so one `Postsolve` can serve a parallel sweep.
#[derive(Debug, Clone)]
pub struct Postsolve {
    col_map: Vec<Option<usize>>,
    /// Value of each eliminated column; 0 for live columns.
    fixed_val: Vec<f64>,
    /// Constant folded out of the objective by eliminations.
    obj_offset: f64,
}

/// A presolved model plus its inverse map and size accounting.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced model (same sense, remapped ids and pairs).
    pub reduced: Model,
    /// Maps reduced solutions back to original variable space.
    pub postsolve: Postsolve,
    /// Size deltas for reporting.
    pub stats: PresolveStats,
}

/// Runs presolve. See the [module docs](self).
///
/// # Errors
///
/// - [`OptimError::InvalidModel`] when the model has integer marks or
///   quadratic terms.
/// - [`OptimError::Infeasible`] when a reduction proves the model
///   infeasible (inconsistent empty row, crossed bounds).
pub fn presolve(model: &Model) -> Result<Presolved, OptimError> {
    let _t = ed_obs::timer("optim.presolve");
    let out = presolve_inner(model);
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

fn presolve_inner(model: &Model) -> Result<Presolved, OptimError> {
    if !model.integers.is_empty() || model.is_quadratic() {
        let what = "presolve takes linear models without integer marks or quadratic terms";
        return Err(OptimError::InvalidModel { what: what.to_string() });
    }
    let n = model.num_vars();
    let m = model.num_rows();
    let feas_tol = crate::certify::Tolerances::default().feas;

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

    let mut is_pair = vec![false; n];
    for &(a, b) in &model.pairs {
        is_pair[a.0] = true;
        is_pair[b.0] = true;
    }

    let row_tol = |i: usize, wrhs: &[f64], adj: &[f64]| feas_tol * (1.0 + wrhs[i].abs() + adj[i]);

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
                    changed = true;
                }
                1 => {
                    let (j, a) = live.expect("count == 1 implies a live entry");
                    let v = wrhs[i] / a;
                    // Which bound the row implies on x_j.
                    let upper = match model.row_sense[i] {
                        RowSense::Eq => None, // fixes
                        RowSense::Le => Some(a > 0.0),
                        RowSense::Ge => Some(a < 0.0),
                    };
                    let btol = feas_tol * (1.0 + v.abs());
                    match upper {
                        None => {
                            if v < wlb[j] - btol || v > wub[j] + btol {
                                return Err(OptimError::Infeasible);
                            }
                            let v = v.clamp(wlb[j], wub[j]);
                            wlb[j] = v;
                            wub[j] = v;
                        }
                        Some(true) => {
                            if v < wub[j] {
                                if v < wlb[j] - btol {
                                    return Err(OptimError::Infeasible);
                                }
                                wub[j] = v.max(wlb[j]);
                            }
                        }
                        Some(false) => {
                            if v > wlb[j] {
                                if v > wub[j] + btol {
                                    return Err(OptimError::Infeasible);
                                }
                                wlb[j] = v.min(wub[j]);
                            }
                        }
                    }
                    alive_row[i] = false;
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
                }
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

    // Eliminated linear terms fold into the offset.
    let mut obj_offset = 0.0_f64;
    for (j, &v) in fixed_val.iter().enumerate() {
        if !alive_col[j] {
            obj_offset += model.obj[j] * v;
        }
    }

    let mut reduced = match model.sense {
        Sense::Min => Model::minimize(),
        Sense::Max => Model::maximize(),
    };
    for j in 0..n {
        if alive_col[j] {
            reduced.add_var(wlb[j], wub[j], model.obj[j]);
        }
    }
    {
        let rcols = Arc::make_mut(&mut reduced.cols);
        for j in 0..n {
            let Some(rj) = col_map[j] else { continue };
            for &(i, a) in &wcols[j] {
                if let Some(ri) = row_map[i] {
                    rcols[rj].push((ri, a));
                }
            }
        }
        // add_row is bypassed, so install row metadata directly.
        for i in 0..m {
            if alive_row[i] {
                reduced.row_sense.push(model.row_sense[i]);
                reduced.rhs.push(wrhs[i]);
            }
        }
        // Column entries arrived row-major per column already sorted by
        // original row order; compaction preserves that order.
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
    let postsolve = Postsolve { col_map, fixed_val, obj_offset };
    Ok(Presolved { reduced, postsolve, stats })
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

    /// Expands a reduced primal point to the original variable space:
    /// eliminated variables take their fixed values verbatim, survivors
    /// keep theirs. `x_red` may be longer than the reduced model (e.g. when
    /// auxiliary variables were appended after presolve); the extras are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `x_red` is shorter than the reduced model.
    pub fn restore_x(&self, x_red: &[f64]) -> Vec<f64> {
        self.col_map
            .iter()
            .zip(&self.fixed_val)
            .map(|(c, &v)| c.map_or(v, |rj| x_red[rj]))
            .collect()
    }

    /// Maps a linear objective vector over the original variables into
    /// reduced space, returning the reduced coefficients and the constant
    /// contributed by eliminated variables. This is what lets Algorithm 1
    /// patch objectives on one presolved base model:
    /// `obj_orig'x_orig = obj_red'x_red + constant`.
    ///
    /// # Panics
    ///
    /// Panics if `obj.len()` differs from the original variable count.
    pub fn reduce_objective(&self, obj: &[f64]) -> (Vec<f64>, f64) {
        assert_eq!(obj.len(), self.col_map.len(), "objective vector length mismatch");
        let reduced_n = self.col_map.iter().flatten().count();
        let mut red = vec![0.0; reduced_n];
        let mut offset = 0.0;
        for (j, &c) in obj.iter().enumerate() {
            match self.col_map[j] {
                Some(rj) => red[rj] = c,
                None => offset += c * self.fixed_val[j],
            }
        }
        (red, offset)
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
        assert_eq!(pre.stats.nnz_removed(), 3);
        let sol = pre.reduced.solve().unwrap();
        let x = pre.postsolve.restore_x(&sol.x);
        assert_eq!(x, vec![5.0, 0.0]);
        assert_eq!(sol.objective + pre.postsolve.obj_offset(), 5.0);
    }

    #[test]
    fn singleton_inequality_becomes_a_bound() {
        // min -x  s.t.  2x <= 8, x in [0, 10]  →  the row becomes x <= 4.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, -1.0);
        m.add_row(Row::le(8.0).coef(x, 2.0));
        let pre = presolve(&m).unwrap();
        assert_eq!(pre.reduced.num_rows(), 0);
        assert_eq!(pre.stats.cols_removed(), 0);
        assert_eq!(pre.reduced.bounds(VarId(0)), (0.0, 4.0));
        let sol = pre.reduced.solve().unwrap();
        let full = pre.postsolve.restore_x(&sol.x);
        assert!((full[0] - 4.0).abs() < 1e-9);
        assert!((sol.objective + pre.postsolve.obj_offset() + 4.0).abs() < 1e-9);
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
    fn integer_and_quadratic_models_are_refused() {
        let linear = || {
            let mut m = Model::minimize();
            let x = m.add_var(0.0, 10.0, 1.0);
            let y = m.add_var(0.0, 10.0, 1.0);
            m.add_row(Row::ge(1.0).coef(x, 1.0).coef(y, 1.0));
            (m, x)
        };
        let (m, _) = linear();
        assert!(presolve(&m).is_ok());
        let (mut m, x) = linear();
        m.set_integer(x);
        assert!(matches!(presolve(&m), Err(OptimError::InvalidModel { .. })));
        let (mut m, x) = linear();
        m.add_quad(x, x, 1.0);
        assert!(matches!(presolve(&m), Err(OptimError::InvalidModel { .. })));
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
        assert_eq!(pre.stats.cols_removed(), 0);
        // The tighter Le row and the Ge row survive, in their order.
        assert_eq!(pre.reduced.rhs, vec![5.0, 1.0]);
        let sol = pre.reduced.solve().unwrap();
        let full = pre.postsolve.restore_x(&sol.x);
        assert_eq!(full.len(), 2);
        assert!((m.objective_value(&full) - 1.0).abs() < 1e-9);
        assert!((sol.objective + pre.postsolve.obj_offset() - 1.0).abs() < 1e-9);
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
        assert_eq!(pre.stats.cols_removed(), 0, "pair columns must survive");
        assert_eq!(pre.stats.rows_removed(), 1);
        assert_eq!(pre.reduced.bounds(VarId(0)), (0.0, 0.0));
        assert_eq!(pre.reduced.pairs(), &[(VarId(0), VarId(1))][..]);
        assert_eq!(pre.postsolve.restore_x(&[0.0, 1.0]), vec![0.0, 1.0]);
    }

    #[test]
    fn reduce_objective_maps_and_offsets() {
        let mut m = Model::maximize();
        let a = m.add_var(0.0, 10.0, 0.0);
        let t = m.add_var(3.0, 3.0, 0.0); // fixed → eliminated
        m.add_row(Row::le(8.0).coef(a, 1.0).coef(t, 1.0));
        let pre = presolve(&m).unwrap();
        assert_eq!(pre.stats.cols_removed(), 1);
        let (red, off) = pre.postsolve.reduce_objective(&[2.0, 5.0]);
        assert_eq!(red, vec![2.0]);
        assert_eq!(off, 15.0);
        assert_eq!(pre.postsolve.restore_x(&[4.0]), vec![4.0, 3.0]);
    }

    #[test]
    fn presolved_pairs_branch_to_the_same_optimum() {
        // max x + y, x + y <= 3, x, y in [0, 2], x ⟂ y, plus a fixed
        // variable and a redundant row so presolve has work to do; the
        // pair itself survives. Branching on the presolved model and
        // mapping the answer back must agree with branching on `m`, as
        // Algorithm 1's presolved sweep relies on.
        let mut m = Model::maximize();
        let x = m.add_var(0.0, 2.0, 1.0);
        let y = m.add_var(0.0, 2.0, 1.0);
        m.add_row(Row::le(3.0).coef(x, 1.0).coef(y, 1.0));
        m.add_pair(x, y);
        let fixed = m.add_var(1.0, 1.0, 3.0);
        m.add_row(Row::le(6.0).coef(x, 2.0).coef(y, 2.0)); // dominated duplicate
        m.add_row(Row::le(5.0).coef(fixed, 1.0)); // singleton on the fixed var
        let solve = |m: &Model| {
            let out = branch_bound::solve(m, &BranchOptions::pairs(), &SolveBudget::unlimited());
            out.unwrap().solved().unwrap()
        };
        let direct = solve(&m);
        let pre = presolve(&m).unwrap();
        let red = solve(&pre.reduced);
        let restored = pre.postsolve.restore_x(&red.x);
        assert!((direct.objective - 5.0).abs() < 1e-7, "obj={}", direct.objective);
        assert!((red.objective + pre.postsolve.obj_offset() - direct.objective).abs() < 1e-9);
        assert_eq!(direct.x.len(), restored.len());
        for (p, q) in direct.x.iter().zip(&restored) {
            assert!((p - q).abs() < 1e-7, "{:?} vs {restored:?}", direct.x);
        }
    }
}
