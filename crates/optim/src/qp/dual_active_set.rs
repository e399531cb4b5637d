//! Goldfarb–Idnani dual active-set method for strictly convex QP.
//!
//! Runs when `H` is symmetric positive definite (the PTDF-form dispatch
//! with strictly convex costs). It starts from the unconstrained minimum
//! `x = −H⁻¹c`, which is dual feasible, adds the equality rows, and then
//! repeatedly adds the most violated inequality: a *full* step makes it
//! active, a *partial* step drops the active row whose multiplier reaches
//! zero first. No phase-1 LP runs, and the method ends on an exact active
//! set with exact multipliers.
//!
//! With `H = LLᵀ` the method keeps `J = L⁻ᵀQ` and the upper-triangular
//! `R` of `JᵀN = [R; 0]` (`N` the active normals), and updates both with
//! Givens rotations on every add and drop, at `O(n²)` each (Goldfarb and
//! Idnani, *Math. Programming* 27, 1983).
//!
//! Inequalities `a'x ≤ b` enter as `−a'x ≥ −b`, so the multiplier `u_i ≥ 0`
//! of an inequality is the dense view's `λ_i` and an equality's `u_e` is
//! `−ν_e` (stationarity `Hx + c + A_eq'ν + A_in'λ = 0`).
//!
//! [`solve`] returns `None` when the method does not apply (`H` is not
//! symmetric positive definite) or hands the problem over to the primal
//! path: on a budget trip, a linearly dependent equality or active row,
//! the iteration cap, or an infeasibility verdict (which phase 1 then
//! confirms).

use crate::budget::SolveBudget;
use crate::qp::dense::{DenseQp, QpSolution};
use crate::qp::{active_set, QpOptions};
use ed_linalg::dot;

/// Solves `qp` by the dual method, or returns `None` for the primal path.
pub(crate) fn solve(qp: &DenseQp, options: &QpOptions, budget: &SolveBudget) -> Option<QpSolution> {
    let l = cholesky(qp)?;
    let _t = ed_obs::timer("optim.dualactiveset");
    let mut iterations = 0;
    let out = run(qp, &l, options, budget, &mut iterations);
    if ed_obs::enabled() {
        ed_obs::counter("optim.dualactiveset.solves", 1);
        ed_obs::counter("optim.dualactiveset.iterations", iterations as u64);
        ed_obs::counter("optim.dualactiveset.handoffs", u64::from(out.is_none()));
    }
    out
}

/// The lower Cholesky factor of `H` (row-major), or `None` when `H` is not
/// symmetric or a pivot is not positive.
fn cholesky(qp: &DenseQp) -> Option<Vec<f64>> {
    let n = qp.n;
    let h = &qp.h;
    let scale = (0..n).map(|i| h[(i, i)].abs()).fold(0.0, f64::max);
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            if h[(i, j)] != h[(j, i)] {
                return None;
            }
            let s = h[(i, j)] - dot(&l[i * n..i * n + j], &l[j * n..j * n + j]);
            if i == j {
                if s <= f64::EPSILON * scale || !s.is_finite() {
                    return None;
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// `J` and `R` for the current active set.
struct Factors {
    n: usize,
    /// `J = L⁻ᵀQ`, column-major: column `j` is `j[j*n..(j+1)*n]`.
    j: Vec<f64>,
    /// `R`, row-major `n × n`; its leading `q × q` block is upper
    /// triangular.
    r: Vec<f64>,
    /// Active rows.
    q: usize,
    /// Largest `|R_ii|` so far, the scale of the dependence test.
    r_norm: f64,
}

impl Factors {
    /// `J = L⁻ᵀ` for the empty active set, column `j` by back substitution
    /// on `Lᵀy = e_j`.
    fn new(l: &[f64], n: usize) -> Factors {
        let mut j = vec![0.0; n * n];
        for col in 0..n {
            let y = &mut j[col * n..(col + 1) * n];
            for i in (0..n).rev() {
                let mut s = if i == col { 1.0 } else { 0.0 };
                for k in i + 1..n {
                    s -= l[k * n + i] * y[k];
                }
                y[i] = s / l[i * n + i];
            }
        }
        Factors { n, j, r: vec![0.0; n * n], q: 0, r_norm: 1.0 }
    }

    fn col(&self, c: usize) -> &[f64] {
        &self.j[c * self.n..(c + 1) * self.n]
    }

    /// `d = Jᵀ n_p`.
    fn d(&self, np: &[f64]) -> Vec<f64> {
        (0..self.n).map(|c| dot(self.col(c), np)).collect()
    }

    /// The primal step `z = J₂d₂` and the dual step `r = R⁻¹d₁`.
    fn steps(&self, d: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (n, q) = (self.n, self.q);
        let mut z = vec![0.0; n];
        for (c, &dc) in d.iter().enumerate().skip(q) {
            for (zi, ji) in z.iter_mut().zip(self.col(c)) {
                *zi += dc * ji;
            }
        }
        let mut r = vec![0.0; q];
        for i in (0..q).rev() {
            let s: f64 = (i + 1..q).map(|k| self.r[i * n + k] * r[k]).sum();
            r[i] = (d[i] - s) / self.r[i * n + i];
        }
        (z, r)
    }

    /// Rotates columns `a` and `a + 1` of `J` by `(c, s)`.
    fn rotate_j(&mut self, a: usize, c: f64, s: f64) {
        let n = self.n;
        let (left, right) = self.j.split_at_mut((a + 1) * n);
        for (x, y) in left[a * n..].iter_mut().zip(&mut right[..n]) {
            let (xa, ya) = (*x, *y);
            *x = c * xa + s * ya;
            *y = c * ya - s * xa;
        }
    }

    /// Makes the row with `d = Jᵀ n_p` active. Returns `false` when it is
    /// linearly dependent on the active rows.
    fn add_row(&mut self, d: &mut [f64]) -> bool {
        let (n, q) = (self.n, self.q);
        for c in (q + 1..n).rev() {
            let h = d[c - 1].hypot(d[c]);
            if h == 0.0 {
                continue;
            }
            let (cs, sn) = (d[c - 1] / h, d[c] / h);
            d[c - 1] = h;
            d[c] = 0.0;
            self.rotate_j(c - 1, cs, sn);
        }
        for (i, &di) in d.iter().enumerate().take(q + 1) {
            self.r[i * n + q] = di;
        }
        self.q += 1;
        let pivot = d[q].abs();
        if pivot <= f64::EPSILON * self.r_norm {
            return false;
        }
        self.r_norm = self.r_norm.max(pivot);
        true
    }

    /// Drops the active row at position `k`, restoring `R`'s triangle.
    fn drop_row(&mut self, k: usize) {
        let (n, q) = (self.n, self.q);
        for i in 0..q {
            for c in k..q - 1 {
                self.r[i * n + c] = self.r[i * n + c + 1];
            }
            self.r[i * n + q - 1] = 0.0;
        }
        self.q -= 1;
        for c in k..self.q {
            let (a, b) = (self.r[c * n + c], self.r[(c + 1) * n + c]);
            let h = a.hypot(b);
            if h == 0.0 {
                continue;
            }
            let (cs, sn) = (a / h, b / h);
            self.r[c * n + c] = h;
            self.r[(c + 1) * n + c] = 0.0;
            for m in c + 1..self.q {
                let (x, y) = (self.r[c * n + m], self.r[(c + 1) * n + m]);
                self.r[c * n + m] = cs * x + sn * y;
                self.r[(c + 1) * n + m] = cs * y - sn * x;
            }
            self.rotate_j(c, cs, sn);
        }
    }
}

/// An active row: equality `e` or inequality `i` of the dense view.
#[derive(Clone, Copy)]
enum Active {
    Eq(usize),
    In(usize),
}

/// The dual iterations; `None` hands the problem to the primal path.
fn run(
    qp: &DenseQp,
    l: &[f64],
    options: &QpOptions,
    budget: &SolveBudget,
    iterations: &mut usize,
) -> Option<QpSolution> {
    let n = qp.n;
    let (me, mi) = (qp.a_eq.len(), qp.a_in.len());
    // `active_set::MAX_ITERATIONS` is sized for the primal method; the dual
    // one adds and drops rows one at a time, so its cap grows with them.
    let cap = active_set::MAX_ITERATIONS.max(3 * (n + me + mi));
    let mut f = Factors::new(l, n);

    // Unconstrained minimum x = −H⁻¹c = −JJᵀc.
    let jtc = f.d(&qp.c);
    let mut x = vec![0.0; n];
    for (c, &v) in jtc.iter().enumerate() {
        for (xi, ji) in x.iter_mut().zip(f.col(c)) {
            *xi -= v * ji;
        }
    }

    let mut active: Vec<Active> = Vec::new();
    // Multipliers by active position; `u[q]` is the candidate's.
    let mut u: Vec<f64> = Vec::new();
    let mut is_active = vec![false; mi];
    // Counts one iteration, or says `false`: hand over at a budget trip or
    // the cap.
    let tick = |iterations: &mut usize| {
        let tripped = !budget.is_unlimited() && budget.iter_tripped(*iterations).is_some();
        if tripped || *iterations >= cap {
            return false;
        }
        *iterations += 1;
        true
    };

    // `a'x − b` of an inequality; beyond `tol` it is violated.
    let violation = |i: usize, x: &[f64]| dot(&qp.a_in[i], x) - qp.b_in[i];
    let tol = |i: usize| options.feas_tol * (1.0 + qp.b_in[i].abs());
    let mut equalities = 0..me;
    loop {
        // The next row to add, as `n'x ≥ rhs` (`= rhs` for an equality):
        // each equality in turn, then the most violated inequality.
        let (row, np, rhs) = if let Some(e) = equalities.next() {
            (Active::Eq(e), qp.a_eq[e].clone(), qp.b_eq[e])
        } else {
            let mut worst: Option<(usize, f64)> = None;
            for i in (0..mi).filter(|&i| !is_active[i]) {
                let v = violation(i, &x);
                if v > tol(i) && worst.is_none_or(|(_, w)| v > w) {
                    worst = Some((i, v));
                }
            }
            let Some((p, _)) = worst else {
                let mut eq_duals = vec![0.0; me];
                let mut ineq_duals = vec![0.0; mi];
                for (row, &uk) in active.iter().zip(&u) {
                    match *row {
                        Active::Eq(e) => eq_duals[e] = -uk,
                        Active::In(i) => ineq_duals[i] = uk.max(0.0),
                    }
                }
                return Some(QpSolution { x, eq_duals, ineq_duals, iterations: *iterations });
            };
            (Active::In(p), qp.a_in[p].iter().map(|v| -v).collect(), -qp.b_in[p])
        };
        u.push(0.0);
        loop {
            if !tick(iterations) {
                return None;
            }
            let mut d = f.d(&np);
            let (z, r) = f.steps(&d);
            // Partial step: the first active inequality whose multiplier
            // reaches zero along −r.
            let mut t1 = f64::INFINITY;
            let mut leave = None;
            for (k, (a, &rk)) in active.iter().zip(&r).enumerate() {
                if matches!(a, Active::In(_)) && rk > 0.0 && u[k].max(0.0) / rk < t1 {
                    t1 = u[k].max(0.0) / rk;
                    leave = Some(k);
                }
            }
            // Full step: the primal step that makes the candidate hold, of
            // either sign for an equality. A zero `z` means the candidate
            // depends on the active rows.
            let zn = dot(&z, &np);
            let step = (rhs - dot(&np, &x)) / zn;
            let signed = matches!(row, Active::Eq(_));
            let full = zn > f64::EPSILON * dot(&d, &d) && (step >= 0.0 || signed);
            let t2 = if full { step } else { f64::INFINITY };
            let t = t1.min(t2);
            if t == f64::INFINITY {
                return None; // infeasible or dependent: the primal path decides
            }
            if t2 < f64::INFINITY {
                for (xi, zi) in x.iter_mut().zip(&z) {
                    *xi += t * zi;
                }
            }
            let q = active.len();
            for (uk, rk) in u[..q].iter_mut().zip(&r) {
                *uk -= t * rk;
            }
            u[q] += t;
            if t2 <= t1 {
                if let Active::In(p) = row {
                    is_active[p] = true;
                }
                active.push(row);
                if !f.add_row(&mut d) {
                    return None;
                }
                break;
            }
            let k = leave.expect("a finite partial step has a leaving row");
            if let Active::In(i) = active.remove(k) {
                is_active[i] = false;
            }
            u.remove(k);
            f.drop_row(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Row};

    /// The dual method on `m` with default options.
    fn dual(m: &Model, budget: &SolveBudget) -> Option<QpSolution> {
        solve(&DenseQp::from_model(m), &QpOptions::default(), budget)
    }

    #[test]
    fn singular_hessian_is_not_for_the_dual_method() {
        // θ-like variable without curvature.
        let mut m = Model::minimize();
        let p = m.add_var(0.0, 10.0, 1.0);
        let t = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        m.add_quad(p, p, 2.0);
        m.add_row(Row::eq(1.0).coef(p, 1.0).coef(t, 1.0));
        assert!(dual(&m, &SolveBudget::unlimited()).is_none());
    }

    #[test]
    fn asymmetric_hessian_is_not_for_the_dual_method() {
        let mut m = Model::minimize();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        m.add_quad(x, x, 2.0);
        m.add_quad(y, y, 2.0);
        m.add_quad(x, y, 0.5);
        assert!(dual(&m, &SolveBudget::unlimited()).is_none());
    }

    /// A drop: min x² + (y−10)² s.t. y ≤ 2 and −0.05x + 0.5y ≤ 0.5 adds
    /// `y ≤ 2` first (the larger violation), then the second row, whose
    /// partial step drives the first row's multiplier to zero and drops
    /// it. The optimum is the projection onto the second row alone.
    #[test]
    fn partial_step_drops_a_row() {
        let mut m = Model::minimize();
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = m.add_var(f64::NEG_INFINITY, f64::INFINITY, -20.0);
        m.add_quad(x, x, 2.0);
        m.add_quad(y, y, 2.0);
        m.add_row(Row::le(2.0).coef(y, 1.0));
        m.add_row(Row::le(0.5).coef(x, -0.05).coef(y, 0.5));
        let qp = DenseQp::from_model(&m);
        let s = solve(&qp, &QpOptions::default(), &SolveBudget::unlimited()).unwrap();
        let t = 4.5 / 0.2525;
        assert!((s.x[0] - 0.05 * t).abs() < 1e-12, "{:?}", s.x);
        assert!((s.x[1] - (10.0 - 0.5 * t)).abs() < 1e-12, "{:?}", s.x);
        assert_eq!(s.ineq_duals[0], 0.0);
        // Hx + c + A_in'λ = 0.
        let g = qp.h.matvec(&s.x).unwrap();
        for j in 0..2 {
            let mut v = g[j] + qp.c[j];
            for (a, lam) in qp.a_in.iter().zip(&s.ineq_duals) {
                v += a[j] * lam;
            }
            assert!(v.abs() < 1e-12, "stationarity {j}: {v}");
        }
    }

    #[test]
    fn expired_budget_hands_over() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, -6.0);
        m.add_quad(x, x, 2.0);
        let budget = SolveBudget::unlimited().max_iterations(0);
        assert!(dual(&m, &budget).is_none());
    }
}
