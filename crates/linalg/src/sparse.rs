//! Compressed sparse column (CSC) matrices.
//!
//! [`CscMatrix`] is the packed interchange format between the optimization
//! model IR (`ed_optim::model::Model`) and anything that wants to scan a
//! matrix column-by-column without touching its zeros: presolve, the
//! sparse [`Lu`](crate::Lu) factorization (which reads its input as a
//! `CscMatrix`), and benchmarks that report nonzero counts.
//!
//! Entries inside each column are stored sorted by row index with no
//! duplicates; [`CscMatrix::from_columns`] sorts and coalesces on the way
//! in, so assembly order does not matter.
//!
//! # Example
//!
//! ```
//! use ed_linalg::CscMatrix;
//!
//! // [ 2 0 ]
//! // [ 1 3 ]
//! let a = CscMatrix::from_columns(2, &[vec![(1, 1.0), (0, 2.0)], vec![(1, 3.0)]]);
//! assert_eq!(a.nnz(), 3);
//! assert_eq!(a.matvec(&[1.0, 1.0]), vec![2.0, 4.0]);
//! ```

use crate::matrix::Matrix;

/// A sparse matrix in compressed sparse column form.
///
/// Column `j` occupies the half-open slice `col_ptr[j]..col_ptr[j + 1]` of
/// the parallel `row_idx` / `values` arrays. Within a column, entries are
/// sorted by row index and rows are unique. Explicit zeros are dropped at
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// An all-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> CscMatrix {
        CscMatrix {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from jagged per-column entry lists (the layout the model IR
    /// stores). Entries within a column may be unsorted or duplicated;
    /// duplicates are summed and zeros dropped. Row indices are *not*
    /// validated here — callers pass columns they already maintain.
    pub fn from_columns(nrows: usize, cols: &[Vec<(usize, f64)>]) -> CscMatrix {
        let ncols = cols.len();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for col in cols {
            scratch.clear();
            scratch.extend_from_slice(col);
            scratch.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let r = scratch[i].0;
                let mut v = scratch[i].1;
                i += 1;
                while i < scratch.len() && scratch[i].0 == r {
                    v += scratch[i].1;
                    i += 1;
                }
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix { nrows, ncols, col_ptr, row_idx, values }
    }

    /// Builds from columns whose entries are already sorted by row with no
    /// duplicate rows, copying each column once; explicit zeros are
    /// dropped. Unlike [`CscMatrix::from_columns`] it neither sorts nor
    /// sums, so it needs no scratch copy of a column.
    pub fn from_sorted_columns<'a>(
        nrows: usize,
        cols: impl ExactSizeIterator<Item = &'a [(usize, f64)]> + Clone,
    ) -> CscMatrix {
        let ncols = cols.len();
        let nnz = cols.clone().map(<[_]>::len).sum();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        col_ptr.push(0);
        for col in cols {
            debug_assert!(col.windows(2).all(|p| p[0].0 < p[1].0), "unsorted column");
            for &(r, v) in col {
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix { nrows, ncols, col_ptr, row_idx, values }
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(a: &Matrix) -> CscMatrix {
        let (nrows, ncols) = (a.rows(), a.cols());
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for j in 0..ncols {
            for i in 0..nrows {
                let v = a[(i, j)];
                if v != 0.0 {
                    row_idx.push(i);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix { nrows, ncols, col_ptr, row_idx, values }
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut a = Matrix::zeros(self.nrows, self.ncols);
        for j in 0..self.ncols {
            for (i, v) in self.col(j) {
                a[(i, j)] = v;
            }
        }
        a
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates column `j` as `(row, value)` pairs in increasing row order.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        self.row_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Largest |entry| (`0` when empty), as [`Matrix::norm_inf`].
    pub fn norm_inf(&self) -> f64 {
        crate::norm_inf(&self.values)
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.nrows];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                for (i, v) in self.col(j) {
                    y[i] += v * xj;
                }
            }
        }
        y
    }

    /// `x = Aᵀ·y` — one dot product per column, cache-friendly in CSC.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != nrows`.
    pub fn matvec_transpose(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.nrows, "matvec_transpose dimension mismatch");
        (0..self.ncols).map(|j| self.col(j).map(|(i, v)| v * y[i]).sum()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 3.0, 0.0]]);
        let s = CscMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = Matrix::from_rows(&[&[1.0, -2.0, 0.0], &[0.0, 4.0, 5.0]]);
        let s = CscMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(s.matvec(&x), vec![-3.0, 23.0]);
        let y = [2.0, -1.0];
        assert_eq!(s.matvec_transpose(&y), vec![2.0, -8.0, -5.0]);
    }

    #[test]
    fn empty_shapes() {
        let a = CscMatrix::zeros(0, 0);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.matvec(&[]), Vec::<f64>::new());
        let b = CscMatrix::zeros(3, 0);
        assert_eq!(b.matvec(&[]), vec![0.0; 3]);
    }

    #[test]
    fn from_columns_sorts_coalesces_and_drops_zeros() {
        // (1,3) arrives as 2.0 + 1.0; (2,2) arrives as -4.0 + 4.0 → dropped.
        let cols = vec![
            vec![(1, 2.0), (0, 1.0)],
            vec![],
            vec![(2, -4.0), (2, 4.0)],
            vec![(1, 2.0), (1, 1.0)],
        ];
        let a = CscMatrix::from_columns(3, &cols);
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(a.col(2).count(), 0);
        assert_eq!(a.col(3).collect::<Vec<_>>(), vec![(1, 3.0)]);
    }
}
