//! Rank-1 updatable LU factorization: a product-form eta file layered on
//! top of [`Lu`].
//!
//! Two update kinds are supported, both expressed as a multiplicative
//! correction applied after the base factorization:
//!
//! - **Column replacement** ([`UpdatableLu::replace_column`]): the
//!   Forrest–Tomlin-style eta used by the revised simplex. Replacing basis
//!   column `r` with a column whose ftran image is `w` turns the basis into
//!   `B' = B·E` where `E` is the identity with column `r` overwritten by
//!   `w`; solving against `B'` applies `E⁻¹` after the base solve.
//! - **Rank-1 additive update** ([`UpdatableLu::rank_one_update`]): the
//!   Sherman–Morrison form for `B' = B + u·vᵀ`, used for single-line
//!   outage / rating deltas on the reduced susceptance matrix where the
//!   delta is an outer product of incidence vectors.
//!
//! Both updates are **stability guarded**: an eta whose pivot entry is too
//! small, or a Sherman–Morrison denominator too close to zero (the
//! near-singular update — e.g. removing a bridge line and islanding the
//! network), is rejected with [`LinalgError::UpdateRejected`] and leaves
//! the factorization unchanged. Callers fall back to a fresh
//! factorization; they never receive a silently garbage solve.
//!
//! A column-replacement eta is stored sparse: its pivot plus the nonzeros
//! off the pivot row, in ascending row order. Applying it skips only the
//! products with a zero eta entry, which leave every finite value but
//! `-0.0` unchanged, so solves keep the bits of a dense eta file that loops
//! over every row, up to the sign of an exact-zero entry
//! (`crates/linalg/tests/lu.rs` checks this against such a file).

use crate::error::LinalgError;
use crate::lu::Lu;
use crate::matrix::Matrix;
use crate::vector::dot;

/// Relative stability floor for eta pivots: an eta pivot smaller than this
/// fraction of the eta column's magnitude would amplify rounding error by
/// more than ~12 digits, so the update is rejected in favor of
/// refactorization.
const ETA_REL_TOL: f64 = 1e-12;

/// Stability floor for the Sherman–Morrison denominator `1 + vᵀB⁻¹u`,
/// relative to the magnitude of the correction term. A denominator this
/// small means the update drives the matrix (numerically) singular.
const SM_DENOM_TOL: f64 = 1e-8;

/// One recorded multiplicative update.
#[derive(Debug, Clone)]
enum Update {
    /// Column `r` of the current matrix replaced by the column whose ftran
    /// image under the factorization *at push time* is `w`: `pivot = w[r]`,
    /// and `off` holds the nonzero `(k, w[k])`, `k ≠ r`, by ascending `k`.
    Eta { r: usize, pivot: f64, off: Vec<(usize, f64)> },
    /// Additive rank-1 update `+ u·vᵀ`; `z` is the solve of `u` under the
    /// factorization at push time and `denom = 1 + vᵀz`.
    RankOne { z: Vec<f64>, v: Vec<f64>, denom: f64 },
}

/// LU factorization plus a product-form file of rank-1 updates.
///
/// Wraps a base [`Lu`] and a sequence of [`Update`]s; `solve` /
/// `solve_transpose` run the base triangular solves and then apply the
/// update corrections in the proper order. With an empty update file the
/// solves are exactly the base [`Lu`] solves.
#[derive(Debug, Clone)]
pub struct UpdatableLu {
    lu: Lu,
    updates: Vec<Update>,
}

impl UpdatableLu {
    /// Factors `a` with no updates applied.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        Ok(Self { lu: Lu::factor(a)?, updates: Vec::new() })
    }

    /// Wraps an existing base factorization with an empty update file.
    pub fn from_lu(lu: Lu) -> Self {
        Self { lu, updates: Vec::new() }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// Borrow of the base factorization (ignores pending updates).
    pub fn base(&self) -> &Lu {
        &self.lu
    }

    /// Number of updates currently stacked on the base factorization.
    pub fn num_updates(&self) -> usize {
        self.updates.len()
    }

    /// Drops every stacked update, reverting to the base factorization.
    pub fn clear_updates(&mut self) {
        self.updates.clear();
    }

    /// Replaces the base factorization and clears the update file.
    pub fn reset(&mut self, lu: Lu) {
        self.lu = lu;
        self.updates.clear();
    }

    /// Solves `B x = b` where `B` is the base matrix with all updates
    /// applied (ftran).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut z = self.lu.solve(b)?;
        self.apply_updates(&mut z);
        Ok(z)
    }

    /// Applies the update corrections to a vector that has already been
    /// solved against the base factorization.
    fn apply_updates(&self, z: &mut [f64]) {
        let m = z.len();
        for up in &self.updates {
            match up {
                Update::Eta { r, pivot, off } => {
                    let zr = z[*r] / pivot;
                    for &(k, wk) in off {
                        z[k] -= wk * zr;
                    }
                    z[*r] = zr;
                }
                Update::RankOne { z: zu, v, denom } => {
                    let s = dot(v, z) / denom;
                    for k in 0..m {
                        z[k] -= zu[k] * s;
                    }
                }
            }
        }
    }

    /// Solves `Bᵀ x = b` with all updates applied (btran).
    ///
    /// Updates are un-done in reverse order (each transposed), then the
    /// base transpose solve runs.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let m = self.dim();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {m}"),
                found: format!("length {}", b.len()),
            });
        }
        let mut c = b.to_vec();
        for up in self.updates.iter().rev() {
            match up {
                Update::Eta { r, pivot, off } => {
                    let mut s = 0.0;
                    for &(k, wk) in off {
                        s += wk * c[k];
                    }
                    c[*r] = (c[*r] - s) / pivot;
                }
                Update::RankOne { z, v, denom } => {
                    let s = dot(z, &c) / denom;
                    for k in 0..m {
                        c[k] -= v[k] * s;
                    }
                }
            }
        }
        self.lu.solve_transpose(&c)
    }

    /// Records a column-replacement eta: column `r` of the current matrix
    /// is replaced by the column whose ftran image (a prior
    /// [`UpdatableLu::solve`] of the raw column) is `w`.
    ///
    /// `min_pivot` is the caller's absolute pivot floor (the simplex passes
    /// its ratio-test tolerance so accepted pivots are exactly those the
    /// pre-refactor eta file accepted). On top of that an update whose
    /// pivot is smaller than `ETA_REL_TOL` times the eta column magnitude
    /// is rejected as numerically unstable.
    pub fn replace_column(
        &mut self,
        r: usize,
        w: &[f64],
        min_pivot: f64,
    ) -> Result<(), LinalgError> {
        let m = self.dim();
        if w.len() != m || r >= m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("eta of length {m} with row < {m}"),
                found: format!("length {} row {r}", w.len()),
            });
        }
        let pivot = w[r];
        let wmax = w.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()));
        if !pivot.is_finite() || pivot.abs() <= min_pivot || pivot.abs() < ETA_REL_TOL * wmax {
            return Err(LinalgError::UpdateRejected {
                what: format!(
                    "eta pivot {pivot:.3e} at row {r} below stability floor \
                     (column magnitude {wmax:.3e})"
                ),
            });
        }
        let mut off = Vec::with_capacity(w.iter().filter(|&&wk| wk != 0.0).count());
        for (k, &wk) in w.iter().enumerate() {
            if k != r && wk != 0.0 {
                off.push((k, wk));
            }
        }
        self.updates.push(Update::Eta { r, pivot, off });
        Ok(())
    }

    /// Records the additive rank-1 update `B ← B + u·vᵀ` via
    /// Sherman–Morrison.
    ///
    /// Rejects the update (leaving the factorization untouched) when the
    /// denominator `1 + vᵀB⁻¹u` is too close to zero — the updated matrix
    /// would be numerically singular, e.g. a line removal that islands the
    /// network.
    pub fn rank_one_update(&mut self, u: &[f64], v: &[f64]) -> Result<(), LinalgError> {
        let m = self.dim();
        if u.len() != m || v.len() != m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("update vectors of length {m}"),
                found: format!("lengths {} and {}", u.len(), v.len()),
            });
        }
        let z = self.solve(u)?;
        let vz = dot(v, &z);
        let denom = 1.0 + vz;
        if !denom.is_finite() || denom.abs() <= SM_DENOM_TOL * (1.0 + vz.abs()) {
            return Err(LinalgError::UpdateRejected {
                what: format!("Sherman-Morrison denominator {denom:.3e} too close to zero"),
            });
        }
        self.updates.push(Update::RankOne { z, v: v.to_vec(), denom });
        Ok(())
    }
}
