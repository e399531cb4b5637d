//! The dense minimization view the QP kernels work on, and their solution
//! type.

use crate::model::{Model, RowSense, Sense};
use ed_linalg::Matrix;

/// Solution of a QP kernel, in the dense view's minimization form.
#[derive(Debug, Clone)]
pub(crate) struct QpSolution {
    /// Optimal point.
    pub x: Vec<f64>,
    /// Multipliers of the equality rows (sign-free).
    pub eq_duals: Vec<f64>,
    /// Multipliers of the inequality rows (`>= 0`, zero when inactive).
    pub ineq_duals: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
}

/// Dense minimization view of a QP-capable [`Model`], the working format of
/// the active-set and interior-point kernels (both are dense `O(n^3)`
/// methods, so expanding the sparse columns once up front costs nothing).
///
/// Rows split by sense: `Eq` rows land in `a_eq`, `Le` rows in `a_in`,
/// `Ge` rows are negated into `a_in`, and finite variable bounds become
/// singleton `a_in` rows. `sign` records the original optimization sense
/// (+1 Min, −1 Max); `h`/`c` are pre-negated for Max so the kernels always
/// minimize.
#[derive(Debug, Clone)]
pub(crate) struct DenseQp {
    pub(crate) n: usize,
    pub(crate) h: Matrix,
    pub(crate) c: Vec<f64>,
    pub(crate) a_eq: Vec<Vec<f64>>,
    pub(crate) b_eq: Vec<f64>,
    pub(crate) a_in: Vec<Vec<f64>>,
    pub(crate) b_in: Vec<f64>,
    /// Model row index behind each `a_eq` row.
    pub(crate) eq_src: Vec<usize>,
    /// Provenance of each `a_in` row.
    pub(crate) ineq_src: Vec<IneqSrc>,
    /// +1 for a Min model, −1 for Max.
    pub(crate) sign: f64,
}

/// Where a dense inequality row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IneqSrc {
    /// A model row (`negated` when it was a `Ge` row).
    Row {
        /// Model row index.
        row: usize,
        /// `true` when the row arrived as `>=` and was negated into `<=`.
        negated: bool,
    },
    /// Finite lower bound of a variable (`-x_j <= -lb`).
    Lower(usize),
    /// Finite upper bound of a variable (`x_j <= ub`).
    Upper(usize),
}

impl DenseQp {
    /// Expands a model into the dense minimization form.
    pub(crate) fn from_model(model: &Model) -> DenseQp {
        let n = model.num_vars();
        let sign = match model.sense {
            Sense::Min => 1.0,
            Sense::Max => -1.0,
        };
        let mut h = Matrix::zeros(n, n);
        for &(i, j, q) in model.quad_terms() {
            h[(i, j)] += sign * q;
        }
        let c: Vec<f64> = model.obj.iter().map(|&v| sign * v).collect();

        let mut a_eq = Vec::new();
        let mut b_eq = Vec::new();
        let mut eq_src = Vec::new();
        let mut a_in = Vec::new();
        let mut b_in = Vec::new();
        let mut ineq_src = Vec::new();
        for (i, row) in model.rows_view().into_iter().enumerate() {
            let mut dense = vec![0.0; n];
            for (j, v) in row {
                dense[j] += v;
            }
            match model.row_sense[i] {
                RowSense::Eq => {
                    a_eq.push(dense);
                    b_eq.push(model.rhs[i]);
                    eq_src.push(i);
                }
                RowSense::Le => {
                    a_in.push(dense);
                    b_in.push(model.rhs[i]);
                    ineq_src.push(IneqSrc::Row { row: i, negated: false });
                }
                RowSense::Ge => {
                    a_in.push(dense.iter().map(|v| -v).collect());
                    b_in.push(-model.rhs[i]);
                    ineq_src.push(IneqSrc::Row { row: i, negated: true });
                }
            }
        }
        for j in 0..n {
            if model.lb[j].is_finite() {
                let mut a = vec![0.0; n];
                a[j] = -1.0;
                a_in.push(a);
                b_in.push(-model.lb[j]);
                ineq_src.push(IneqSrc::Lower(j));
            }
            if model.ub[j].is_finite() {
                let mut a = vec![0.0; n];
                a[j] = 1.0;
                a_in.push(a);
                b_in.push(model.ub[j]);
                ineq_src.push(IneqSrc::Upper(j));
            }
        }
        DenseQp { n, h, c, a_eq, b_eq, a_in, b_in, eq_src, ineq_src, sign }
    }

    /// Objective value (of the minimization form) at a point.
    pub(crate) fn objective_value(&self, x: &[f64]) -> f64 {
        let hx = self.h.matvec(x).expect("shape checked");
        0.5 * ed_linalg::dot(x, &hx) + ed_linalg::dot(&self.c, x)
    }

    /// Maximum constraint violation at a point (0 means feasible).
    pub(crate) fn infeasibility(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0_f64;
        for (a, &b) in self.a_eq.iter().zip(&self.b_eq) {
            worst = worst.max((ed_linalg::dot(a, x) - b).abs());
        }
        for (a, &b) in self.a_in.iter().zip(&self.b_in) {
            worst = worst.max(ed_linalg::dot(a, x) - b);
        }
        worst.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Row;

    #[test]
    fn dense_view_negates_ge_rows_and_expands_bounds() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 2.0, 1.0);
        m.add_quad(x, x, 2.0);
        m.add_row(Row::ge(0.5).coef(x, 1.0));
        let d = DenseQp::from_model(&m);
        assert_eq!(d.a_eq.len(), 0);
        // Ge row negated + two bound rows.
        assert_eq!(d.a_in.len(), 3);
        assert_eq!(d.a_in[0], vec![-1.0]);
        assert_eq!(d.b_in[0], -0.5);
        assert_eq!(d.ineq_src[1], IneqSrc::Lower(0));
        assert_eq!(d.ineq_src[2], IneqSrc::Upper(0));
    }
}
