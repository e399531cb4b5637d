//! Updatable LU factorization: a product-form eta file of column
//! replacements layered on top of [`Lu`].
//!
//! The base [`Lu`] is held behind an [`Arc`], so a factorization can be
//! handed over and shared instead of copied: [`UpdatableLu::from_shared`]
//! starts an eta file on a factor that other holders keep reading, and
//! [`UpdatableLu::into_shared`] gives the factor back once no eta is
//! pending. The etas are always the holder's own.
//!
//! [`UpdatableLu::replace_column`] records the Forrest–Tomlin-style eta
//! used by the revised simplex. Replacing basis column `r` with a column
//! whose ftran image is `w` turns the basis into `B' = B·E` where `E` is
//! the identity with column `r` overwritten by `w`; solving against `B'`
//! applies `E⁻¹` after the base solve.
//!
//! Every eta is **stability guarded**: one whose pivot entry is too small
//! is rejected with [`LinalgError::UpdateRejected`] and leaves the
//! factorization unchanged. The simplex then refactorizes; it never
//! receives a silently garbage solve.
//!
//! An eta is stored sparse: its pivot plus the nonzeros off the pivot
//! row, in ascending row order. Applying it skips only the products with
//! a zero eta entry, which leave every finite value but `-0.0` unchanged,
//! so solves keep the bits of a dense eta file that loops over every row,
//! up to the sign of an exact-zero entry (`crates/linalg/tests/lu.rs`
//! checks this against such a file).

use crate::error::LinalgError;
use crate::lu::Lu;
use crate::matrix::Matrix;
use std::sync::Arc;

/// Relative stability floor for eta pivots: an eta pivot smaller than this
/// fraction of the eta column's magnitude would amplify rounding error by
/// more than ~12 digits, so the update is rejected in favor of
/// refactorization.
const ETA_REL_TOL: f64 = 1e-12;

/// One column-replacement eta: column `r` of the current matrix replaced
/// by the column whose ftran image under the factorization *at push time*
/// is `w`: `pivot = w[r]`, and `off` holds the nonzero `(k, w[k])`,
/// `k ≠ r`, by ascending `k`.
#[derive(Debug, Clone)]
struct Eta {
    r: usize,
    pivot: f64,
    off: Vec<(usize, f64)>,
}

/// LU factorization plus a product-form file of column-replacement etas.
///
/// Wraps a base [`Lu`] and a sequence of etas; `solve` / `solve_transpose`
/// run the base triangular solves and then apply the etas in the proper
/// order. With an empty eta file the solves are exactly the base [`Lu`]
/// solves.
#[derive(Debug, Clone)]
pub struct UpdatableLu {
    lu: Arc<Lu>,
    updates: Vec<Eta>,
}

impl UpdatableLu {
    /// Factors `a` with no updates applied.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        Ok(Self::from_lu(Lu::factor(a)?))
    }

    /// Wraps an existing base factorization with an empty update file.
    pub fn from_lu(lu: Lu) -> Self {
        Self::from_shared(Arc::new(lu))
    }

    /// Wraps a base factorization that other holders share, with an empty
    /// update file of this holder's own. Solves read the shared factor and
    /// never write it.
    pub fn from_shared(lu: Arc<Lu>) -> Self {
        Self { lu, updates: Vec::new() }
    }

    /// The factorization of the current matrix, handed over without a
    /// copy; `None` while an eta is pending, because the base factor then
    /// describes an earlier matrix.
    pub fn into_shared(self) -> Option<Arc<Lu>> {
        self.updates.is_empty().then_some(self.lu)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// Number of etas currently stacked on the base factorization.
    pub fn num_updates(&self) -> usize {
        self.updates.len()
    }

    /// Replaces the base factorization and clears the update file.
    pub fn reset(&mut self, lu: Lu) {
        self.lu = Arc::new(lu);
        self.updates.clear();
    }

    /// Solves `B x = b` where `B` is the base matrix with all updates
    /// applied (ftran).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut z = self.lu.solve(b)?;
        self.apply_updates(&mut z);
        Ok(z)
    }

    /// Applies the etas to a vector that has already been solved against
    /// the base factorization.
    fn apply_updates(&self, z: &mut [f64]) {
        for Eta { r, pivot, off } in &self.updates {
            let zr = z[*r] / pivot;
            for &(k, wk) in off {
                z[k] -= wk * zr;
            }
            z[*r] = zr;
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
        for Eta { r, pivot, off } in self.updates.iter().rev() {
            let mut s = 0.0;
            for &(k, wk) in off {
                s += wk * c[k];
            }
            c[*r] = (c[*r] - s) / pivot;
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
        self.updates.push(Eta { r, pivot, off });
        Ok(())
    }
}
