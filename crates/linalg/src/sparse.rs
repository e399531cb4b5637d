//! Compressed sparse column (CSC) matrices.
//!
//! [`CscMatrix`] is the input format of the sparse [`Lu`](crate::Lu)
//! factorization: the simplex assembles its basis matrix from its sorted,
//! coalesced tableau columns with [`CscMatrix::from_sorted_columns`], and
//! [`Lu::factor`](crate::Lu::factor) converts a dense matrix with
//! [`CscMatrix::from_dense`].
//!
//! Entries inside each column are stored sorted by row index with no
//! duplicates, and explicit zeros are dropped.
//!
//! # Example
//!
//! ```
//! use ed_linalg::CscMatrix;
//!
//! // [ 2 0 ]
//! // [ 1 3 ]
//! let cols = [vec![(0, 2.0), (1, 1.0)], vec![(0, 0.0), (1, 3.0)]];
//! let a = CscMatrix::from_sorted_columns(2, cols.iter().map(Vec::as_slice));
//! assert_eq!(a.nnz(), 3);
//! assert_eq!(a.col(1).collect::<Vec<_>>(), vec![(1, 3.0)]);
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
    /// Builds from columns whose entries are already sorted by row with no
    /// duplicate rows, copying each column once; explicit zeros are
    /// dropped. It neither sorts nor sums.
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
    fn from_sorted_columns_drops_explicit_zeros() {
        let cols = [vec![(0, 1.0), (1, 2.0)], vec![], vec![(0, 0.0), (2, -4.0)]];
        let a = CscMatrix::from_sorted_columns(3, cols.iter().map(Vec::as_slice));
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (3, 3, 3));
        assert_eq!(a.col(0).collect::<Vec<_>>(), vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(a.col(1).count(), 0);
        assert_eq!(a.col(2).collect::<Vec<_>>(), vec![(2, -4.0)]);
    }
}
