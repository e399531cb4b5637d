//! Sparse LU factorization with partial pivoting.
//!
//! [`Lu`] stores only the nonzeros of its factors: the strict lower part
//! of `L` by columns, the strict upper part of `U` by rows, and the pivots
//! apart. It is factored left-looking, one column of a [`CscMatrix`] at a
//! time, and makes exactly the pivot choices of textbook right-looking
//! dense elimination with row swaps: at step `k` the pivot is the largest
//! |value| among the unpivoted rows, ties going to the smallest *current*
//! row position (the position earlier swaps left the row in, not its
//! index in `A`), and the step fails as singular under the same
//! `1e-12 · max|a_ij|` floor.
//!
//! # Why the bits match dense elimination
//!
//! Dense elimination updates entry `(i, k)` once per earlier pivot `j`
//! with `l_ij ≠ 0`, in ascending `j`: `a_ik -= l_ij · u_jk`. The
//! left-looking loop visits the pivots that reach column `k` in ascending
//! position order (a bitset over positions), so every entry receives the
//! same nonzero updates in the same order, and the pivot search sees the
//! same values. The updates it skips are the ones with `u_jk = 0`. The
//! same holds for the solves: `L` by columns gives the forward
//! substitution's and `U` by rows the back substitution's ascending-`j`
//! sums, and the transposed solves read the same arrays the other way
//! round; they skip only the products of stored zeros.
//!
//! Subtracting a zero product leaves every finite value unchanged except
//! `-0.0`, which it can turn into `+0.0`. So for finite inputs the pivot
//! sequence, the determinant and every nonzero entry of a factor or a
//! solution are bit-identical to the dense kernel, and an exact-zero
//! solution entry can differ only in its sign (no caller branches on the
//! sign of a zero). `crates/linalg/tests/lu.rs` keeps the dense kernel as
//! the reference and checks `to_bits` equality.
//!
//! # Column order
//!
//! Elimination takes the columns in the order it is given them, and that
//! order decides the fill. [`Lu::factor`] and [`Lu::factor_csc`] take them
//! in index order. [`Lu::factor_by_count`] factors `A·Q` instead, where
//! `Q` takes the columns of `A` by ascending nonzero count, ties by index:
//! on a simplex basis the slack and singleton columns then pivot before
//! the columns that would fill in below them. On the 118-bus KKT basis of
//! the simplex it stores about 11× fewer nonzeros in `L` and `U` than
//! index order. `Q` depends on the matrix alone, so one matrix always
//! factors in one order. The kernel is the same, so the factor is the
//! dense elimination of `A·Q` bit for bit. Its solves, transposed solves
//! and determinant are those of `A`: the solves run the arithmetic of the
//! solves of `A·Q` with the value of position `p` kept at column `q[p]`
//! of `A`, so a solve's result comes out scattered through `Q` and a
//! transposed solve reads its right-hand side gathered through `Q`, with
//! no extra buffer; the determinant carries the sign of `Q`.

use crate::{CscMatrix, LinalgError, Matrix};
use std::cell::RefCell;

/// An LU factorization `P A = L U` of a square matrix with partial pivoting.
///
/// The factorization is computed once and can then solve many right-hand
/// sides, each in time proportional to the stored nonzeros. This is the
/// backbone of the simplex basis, the AC power-flow Newton iterations,
/// PTDF assembly, and the active-set QP solver's KKT solves.
///
/// # Example
///
/// ```
/// use ed_linalg::{Lu, Matrix};
///
/// # fn main() -> Result<(), ed_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// // verify A x = b
/// let b = a.matvec(&x)?;
/// assert!((b[0] - 3.0).abs() < 1e-12 && (b[1] - 5.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Row permutation: row `i` of the factorization is row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Sign of the permutation (for determinants).
    perm_sign: f64,
    /// Column order: column `k` of the factored matrix is column `q[k]` of
    /// `A`; `None` is the index order. With an order, `l_idx` and `u_idx`
    /// store each position `p` as `q[p]`.
    q: Option<Vec<usize>>,
    /// Strict lower part of `L` (unit diagonal implied), by columns: column
    /// `j` is `l_idx/l_val[l_ptr[j]..l_ptr[j + 1]]`, row positions ascending.
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    /// Strict upper part of `U`, by rows, column positions ascending.
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    /// Diagonal of `U`: the pivots.
    diag: Vec<f64>,
}

/// Pivot threshold below which the matrix is declared singular.
const PIVOT_TOL: f64 = 1e-12;

impl Lu {
    /// Factors a square dense matrix (its exact zeros are not stored).
    ///
    /// # Errors
    ///
    /// - [`LinalgError::NotSquare`] if `a` is rectangular.
    /// - [`LinalgError::Singular`] if a pivot smaller than `1e-12` relative
    ///   to the matrix scale is encountered.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        Lu::factor_csc(&CscMatrix::from_dense(a))
    }

    /// Factors a square sparse matrix.
    ///
    /// # Errors
    ///
    /// As [`Lu::factor`].
    pub fn factor_csc(a: &CscMatrix) -> Result<Self, LinalgError> {
        Lu::factor_in_order(a, None)
    }

    /// Factors `A·Q`, where `Q` takes the columns of the square sparse
    /// matrix `a` by ascending nonzero count, ties by index, which keeps
    /// the fill of a simplex basis low. Solves and the determinant are
    /// those of `a`: the solves map through `Q` and the determinant
    /// carries its sign.
    ///
    /// # Errors
    ///
    /// As [`Lu::factor`]; [`LinalgError::Singular`] names the column of
    /// `a` at which elimination broke down.
    pub fn factor_by_count(a: &CscMatrix) -> Result<Self, LinalgError> {
        let mut q: Vec<usize> = (0..a.ncols()).collect();
        q.sort_by_key(|&j| a.col(j).len());
        Lu::factor_in_order(a, Some(q))
    }

    /// Factors `a`'s columns in the order `q` (index order when `None`).
    fn factor_in_order(a: &CscMatrix, q: Option<Vec<usize>>) -> Result<Self, LinalgError> {
        ed_obs::counter("linalg.lu.factors", 1);
        if a.nrows() != a.ncols() {
            return Err(LinalgError::NotSquare { rows: a.nrows(), cols: a.ncols() });
        }
        let lu = SCRATCH.with(|cell| {
            let mut scratch = cell.take();
            let lu = Lu::factor_with(a, q, &mut scratch);
            cell.replace(scratch);
            lu
        })?;
        ed_obs::counter("linalg.lu.nnz", lu.nnz() as u64);
        Ok(lu)
    }

    fn factor_with(
        a: &CscMatrix,
        q: Option<Vec<usize>>,
        s: &mut Scratch,
    ) -> Result<Self, LinalgError> {
        let n = a.nrows();
        let col_of = |k: usize| q.as_ref().map_or(k, |q| q[k]);
        let floor = PIVOT_TOL * a.norm_inf().max(1.0);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let mut diag = Vec::with_capacity(n);
        s.reset(n);
        let Scratch { pinv, w, seen, open, todo, .. } = s;
        let (l_ptr, l_row, l_val) = &mut s.l;
        let (uc_ptr, uc_pos, uc_val) = &mut s.u_cols;

        for k in 0..n {
            let stamp = k + 1;
            open.clear();
            for (r, v) in a.col(col_of(k)) {
                seen[r] = stamp;
                w[r] = v;
                if pinv[r] < k {
                    todo[pinv[r] / 64] |= 1u64 << (pinv[r] % 64);
                } else {
                    open.push(r);
                }
            }
            // Apply the earlier pivots in ascending position. L column j only
            // holds rows pivoted after j, so eliminating j sets bits above j
            // only and the scan never has to look back.
            let mut word = 0;
            while word < k.div_ceil(64) {
                let bits = todo[word];
                if bits == 0 {
                    word += 1;
                    continue;
                }
                todo[word] = bits & (bits - 1);
                let j = word * 64 + bits.trailing_zeros() as usize;
                let ujk = w[perm[j]];
                if ujk == 0.0 {
                    continue;
                }
                uc_pos.push(j);
                uc_val.push(ujk);
                for t in l_ptr[j]..l_ptr[j + 1] {
                    let r = l_row[t];
                    if seen[r] != stamp {
                        seen[r] = stamp;
                        w[r] = 0.0;
                        if pinv[r] < k {
                            todo[pinv[r] / 64] |= 1u64 << (pinv[r] % 64);
                        } else {
                            open.push(r);
                        }
                    }
                    w[r] -= l_val[t] * ujk;
                }
            }
            uc_ptr.push(uc_pos.len());

            // Dense partial pivoting scans positions k.. with a strict `>`,
            // starting from position k: the first largest |value| wins.
            let mut prow = perm[k];
            let mut ppos = k;
            let mut pval = if seen[prow] == stamp { w[prow].abs() } else { 0.0 };
            for &r in open.iter() {
                let (v, pos) = (w[r].abs(), pinv[r]);
                if v > pval || (v == pval && pos < ppos) {
                    (prow, ppos, pval) = (r, pos, v);
                }
            }
            if pval < floor {
                return Err(LinalgError::Singular { column: col_of(k) });
            }
            if ppos != k {
                let rk = perm[k];
                perm.swap(ppos, k);
                pinv[rk] = ppos;
                pinv[prow] = k;
                sign = -sign;
            }
            let pivot = w[prow];
            diag.push(pivot);
            for &r in open.iter() {
                if r != prow {
                    let factor = w[r] / pivot;
                    if factor != 0.0 {
                        l_row.push(r);
                        l_val.push(factor);
                    }
                }
            }
            l_ptr.push(l_row.len());
        }

        // Rows of A → final positions; two transposes leave each L column
        // sorted by position, one turns U's columns into sorted rows.
        for r in l_row.iter_mut() {
            *r = pinv[*r];
        }
        transpose(n, &s.l, &mut s.l_rows);
        let (mut l, mut u) = <(Compressed, Compressed)>::default();
        transpose(n, &s.l_rows, &mut l);
        transpose(n, &s.u_cols, &mut u);
        let ((l_ptr, mut l_idx, l_val), (u_ptr, mut u_idx, u_val)) = (l, u);
        // The solves keep position p's value at column q[p] of A.
        if let Some(q) = &q {
            for i in l_idx.iter_mut().chain(u_idx.iter_mut()) {
                *i = q[*i];
            }
        }
        Ok(Lu { perm, perm_sign: sign, q, l_ptr, l_idx, l_val, u_ptr, u_idx, u_val, diag })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.perm.len()
    }

    /// Stored nonzeros of `L` and `U`, the pivots included.
    pub fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.diag.len()
    }

    fn check_rhs(&self, b: &[f64]) -> Result<(), LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        Ok(())
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_rhs(b)?;
        Ok(match &self.q {
            Some(q) => self.solve_at(b, |p| q[p]),
            None => self.solve_at(b, |p| p),
        })
    }

    /// Solves `A^T x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.check_rhs(b)?;
        Ok(match &self.q {
            Some(q) => self.solve_transpose_at(b, |p| q[p]),
            None => self.solve_transpose_at(b, |p| p),
        })
    }

    /// The solve of `A x = b` with the value of position `p` held at
    /// `x[at(p)]` throughout: `L` by columns gives `L y = P b`, then `U` by
    /// rows gives `U z = y`. With `at(p) = q[p]` (the indices of `L` and `U`
    /// are stored mapped the same way) `x` ends as `Q z`, the solution of
    /// `A`; the arithmetic is that of the solve of `A·Q`.
    #[inline(always)]
    fn solve_at(&self, b: &[f64], at: impl Fn(usize) -> usize) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        for (p, &pi) in self.perm.iter().enumerate() {
            x[at(p)] = b[pi];
        }
        for j in 0..self.dim() {
            let xj = x[at(j)];
            if xj != 0.0 {
                for t in self.l_ptr[j]..self.l_ptr[j + 1] {
                    x[self.l_idx[t]] -= self.l_val[t] * xj;
                }
            }
        }
        for i in (0..self.dim()).rev() {
            let mut s = x[at(i)];
            for t in self.u_ptr[i]..self.u_ptr[i + 1] {
                s -= self.u_val[t] * x[self.u_idx[t]];
            }
            x[at(i)] = s / self.diag[i];
        }
        x
    }

    /// The solve of `A^T x = b`, values held as in [`Lu::solve_at`]:
    /// `A^T = Q U^T L^T P` for the ordered factor, so `U^T` by rows and then
    /// `L^T` by columns run on `Q^T b`, which is `b` itself read at `q[p]`,
    /// and `x = P^T z`.
    #[inline(always)]
    fn solve_transpose_at(&self, b: &[f64], at: impl Fn(usize) -> usize) -> Vec<f64> {
        let mut y = b.to_vec();
        for j in 0..self.dim() {
            let yj = y[at(j)] / self.diag[j];
            y[at(j)] = yj;
            if yj != 0.0 {
                for t in self.u_ptr[j]..self.u_ptr[j + 1] {
                    y[self.u_idx[t]] -= self.u_val[t] * yj;
                }
            }
        }
        for i in (0..self.dim()).rev() {
            let mut s = y[at(i)];
            for t in self.l_ptr[i]..self.l_ptr[i + 1] {
                s -= self.l_val[t] * y[self.l_idx[t]];
            }
            y[at(i)] = s;
        }
        let mut x = vec![0.0; self.dim()];
        for (p, &pi) in self.perm.iter().enumerate() {
            x[pi] = y[at(p)];
        }
        x
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `B.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs with {n} rows"),
                found: format!("{}x{}", b.rows(), b.cols()),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Explicit inverse `A^{-1}` (prefer [`Lu::solve`] when possible).
    ///
    /// # Errors
    ///
    /// Propagates solve errors (shape errors cannot occur here).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant of the factored matrix (of `A`, not `A·Q`).
    pub fn det(&self) -> f64 {
        let q_sign = self.q.as_deref().map_or(1.0, permutation_sign);
        self.diag.iter().fold(self.perm_sign * q_sign, |d, &p| d * p)
    }
}

/// `det` of the permutation matrix that takes column `q[k]` to position
/// `k`: −1 for each cycle of even length.
fn permutation_sign(q: &[usize]) -> f64 {
    let mut seen = vec![false; q.len()];
    let mut sign = 1.0;
    for start in 0..q.len() {
        if seen[start] {
            continue;
        }
        let (mut j, mut len) = (start, 0);
        while !seen[j] {
            seen[j] = true;
            j = q[j];
            len += 1;
        }
        if len % 2 == 0 {
            sign = -sign;
        }
    }
    sign
}

/// Compressed lists: pointers, indices and values.
type Compressed = (Vec<usize>, Vec<usize>, Vec<f64>);

/// Counting-sort transpose of a compressed `n × n` pattern into `out`
/// (overwritten): the entries of each output list come out in ascending
/// order of their input list.
fn transpose(n: usize, (ptr, idx, val): &Compressed, out: &mut Compressed) {
    let (out_ptr, out_idx, out_val) = out;
    // out_ptr[i + 1] first counts list i, then serves as its fill cursor,
    // ending at the start of list i + 1.
    out_ptr.clear();
    out_ptr.resize(n + 1, 0);
    for &i in idx {
        out_ptr[i + 1] += 1;
    }
    let mut start = 0;
    for slot in &mut out_ptr[1..] {
        (start, *slot) = (start + *slot, start);
    }
    out_idx.clear();
    out_idx.resize(idx.len(), 0);
    out_val.clear();
    out_val.resize(val.len(), 0.0);
    for j in 0..n {
        for t in ptr[j]..ptr[j + 1] {
            let slot = &mut out_ptr[idx[t] + 1];
            out_idx[*slot] = j;
            out_val[*slot] = val[t];
            *slot += 1;
        }
    }
}

/// Working buffers of a factorization that do not survive it. Each thread
/// keeps its last set, so the many small factors of a branch-and-bound
/// tree do not pay one allocation per buffer.
#[derive(Default)]
struct Scratch {
    /// `pinv[r]`: current position of row `r` of `A`; `r` is pivoted at
    /// step `k` iff `pinv[r] < k`.
    pinv: Vec<usize>,
    /// Column `k` being eliminated, by row of `A`; valid where
    /// `seen[r] == k + 1`.
    w: Vec<f64>,
    seen: Vec<usize>,
    /// Unpivoted rows in column `k`'s pattern.
    open: Vec<usize>,
    /// Bitset of the pivot positions still to apply to column `k`.
    todo: Vec<u64>,
    /// L by columns, indexed by row of `A` until renumbered at the end.
    l: Compressed,
    /// U by columns, indexed by position.
    u_cols: Compressed,
    /// L by rows, between the two transposes.
    l_rows: Compressed,
}

impl Scratch {
    fn reset(&mut self, n: usize) {
        self.pinv.clear();
        self.pinv.extend(0..n);
        self.w.clear();
        self.w.resize(n, 0.0);
        self.seen.clear();
        self.seen.resize(n, 0);
        self.todo.clear();
        self.todo.resize(n.div_ceil(64), 0);
        for (ptr, idx, val) in [&mut self.l, &mut self.u_cols] {
            ptr.clear();
            ptr.push(0);
            idx.clear();
            val.clear();
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        assert_vec_close(&a.matvec(&x).unwrap(), &[3.0, 5.0], 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[7.0, 9.0]).unwrap();
        assert_vec_close(&x, &[9.0, 7.0], 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn not_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::factor(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn determinant_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_solve_matches() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[2.0, -3.0, 1.0], &[0.0, 1.0, 5.0]]);
        let lu = Lu::factor(&a).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = lu.solve_transpose(&b).unwrap();
        let check = a.transpose().matvec(&x).unwrap();
        assert_vec_close(&check, &b, 1e-10);
    }

    #[test]
    fn inverse_matches_identity() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let inv = Lu::factor(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let diff = &prod - &Matrix::identity(2);
        assert!(diff.norm_inf() < 1e-12);
    }

    #[test]
    fn larger_random_system() {
        // Deterministic "random" matrix via a simple LCG; diagonally dominated
        // so it is well-conditioned.
        let n = 40;
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        assert_vec_close(&x, &x_true, 1e-9);
    }
}
