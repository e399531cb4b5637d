//! Differential tests for [`Lu`] and [`UpdatableLu`]: the eta file must
//! agree with a from-scratch refactorization of the explicitly updated
//! matrix, unstable etas must be rejected rather than returning garbage,
//! and the sparse factors, solves and eta file must reproduce a dense
//! right-looking kernel bit for bit; the count-ordered factor must
//! reproduce it on the column-permuted matrix.

use ed_linalg::{CscMatrix, LinalgError, Lu, Matrix, UpdatableLu};
use ed_rng::{Rng, SeedableRng, StdRng};

/// A diagonally-dominated sparse-ish matrix: off-diagonals are zero with
/// probability ~0.6, so update columns exercise sparse structure.
fn sparse_dominated(n: usize, rng: &mut StdRng) -> Matrix {
    let data: Vec<f64> = (0..n * n)
        .map(|_| if rng.next_f64() < 0.6 { 0.0 } else { rng.gen_range(-1.0..1.0) })
        .collect();
    let mut m = Matrix::from_vec(n, n, data).expect("sized correctly");
    for i in 0..n {
        let d = m[(i, i)];
        m[(i, i)] = d + (n as f64 + 1.0) * d.signum().max(0.5);
    }
    m
}

fn vector(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect()
}

fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}: component {i} differs: {x} vs {y}"
        );
    }
}

/// Column-replacement etas agree with refactorizing the replaced matrix,
/// through a chain of several updates, for both ftran and btran.
#[test]
fn eta_chain_matches_refactorization() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0001);
    for _ in 0..40 {
        let n = 8;
        let mut a = sparse_dominated(n, &mut rng);
        let mut ulu = UpdatableLu::factor(&a).expect("dominated matrix factors");
        for step in 0..4 {
            // Replace column r with a fresh dominated column (strong
            // diagonal keeps the chain nonsingular).
            let r = (rng.next_u64() % n as u64) as usize;
            let mut col = vector(n, &mut rng);
            col[r] += (n as f64 + 1.0) * col[r].signum().max(0.5);
            let w = ulu.solve(&col).expect("ftran of replacement column");
            ulu.replace_column(r, &w, 1e-10).expect("well-pivoted eta accepted");
            for i in 0..n {
                a[(i, r)] = col[i];
            }

            let cold = Lu::factor(&a).expect("updated matrix factors");
            let b = vector(n, &mut rng);
            assert_close(
                &ulu.solve(&b).unwrap(),
                &cold.solve(&b).unwrap(),
                1e-9,
                &format!("ftran after {} etas", step + 1),
            );
            assert_close(
                &ulu.solve_transpose(&b).unwrap(),
                &cold.solve_transpose(&b).unwrap(),
                1e-9,
                &format!("btran after {} etas", step + 1),
            );
        }
        assert_eq!(ulu.num_updates(), 4);
    }
}

/// An eta whose pivot entry is (numerically) zero must be rejected: the
/// replacement column is linearly dependent on the other basis columns.
#[test]
fn tiny_pivot_eta_rejected() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0005);
    let n = 5;
    let a = sparse_dominated(n, &mut rng);
    let mut ulu = UpdatableLu::factor(&a).unwrap();

    // Replacing column r with column s (s != r) of A gives an ftran image
    // of e_s, whose entry at row r is exactly zero.
    let (r, s) = (1, 3);
    let col: Vec<f64> = (0..n).map(|i| a[(i, s)]).collect();
    let w = ulu.solve(&col).unwrap();
    let err = ulu.replace_column(r, &w, 1e-10).expect_err("zero pivot must be rejected");
    assert!(matches!(err, LinalgError::UpdateRejected { .. }));
    assert_eq!(ulu.num_updates(), 0);
}

/// With an empty update file the wrapper is bit-identical to the base
/// [`Lu`] solves.
#[test]
fn empty_update_file_is_bit_identical_to_base_lu() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0006);
    for _ in 0..20 {
        let n = 9;
        let a = sparse_dominated(n, &mut rng);
        let lu = Lu::factor(&a).unwrap();
        let ulu = UpdatableLu::factor(&a).unwrap();
        let b = vector(n, &mut rng);
        assert_eq!(lu.solve(&b).unwrap(), ulu.solve(&b).unwrap());
        assert_eq!(lu.solve_transpose(&b).unwrap(), ulu.solve_transpose(&b).unwrap());
    }
}

/// A factor handed over by `into_shared` and taken up by `from_shared`
/// solves with the bits of the holder it came from; each holder's etas
/// stay its own, and a holder with an eta pending hands nothing over.
#[test]
fn shared_factor_hands_over_only_without_pending_etas() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0008);
    let n = 7;
    let a = sparse_dominated(n, &mut rng);
    let ulu = UpdatableLu::factor(&a).unwrap();
    let b = vector(n, &mut rng);
    let (x, y) = (ulu.solve(&b).unwrap(), ulu.solve_transpose(&b).unwrap());
    let shared = ulu.into_shared().expect("no eta pending");
    let mut first = UpdatableLu::from_shared(shared.clone());
    let second = UpdatableLu::from_shared(shared);
    assert_eq!(first.solve(&b).unwrap(), x);
    assert_eq!(first.solve_transpose(&b).unwrap(), y);

    let mut col = vector(n, &mut rng);
    col[4] += (n as f64 + 1.0) * col[4].signum().max(0.5);
    let w = first.solve(&col).unwrap();
    first.replace_column(4, &w, 1e-10).unwrap();
    assert_ne!(first.solve(&b).unwrap(), x, "the eta changes the first holder's matrix");
    assert_eq!(second.solve(&b).unwrap(), x, "and not the second's");
    assert!(first.into_shared().is_none());
}

/// With an update pending, a wrong-length rhs is a typed shape error for
/// both solve directions, as it is on the update-free path.
#[test]
fn wrong_length_rhs_with_pending_update_is_shape_mismatch() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0007);
    let n = 6;
    let a = sparse_dominated(n, &mut rng);
    let mut ulu = UpdatableLu::factor(&a).unwrap();
    let mut col = vector(n, &mut rng);
    col[2] += (n as f64 + 1.0) * col[2].signum().max(0.5);
    let w = ulu.solve(&col).unwrap();
    ulu.replace_column(2, &w, 1e-10).unwrap();
    for len in [n - 1, n + 1] {
        let b = vec![1.0; len];
        assert!(matches!(ulu.solve(&b), Err(LinalgError::ShapeMismatch { .. })));
        assert!(matches!(ulu.solve_transpose(&b), Err(LinalgError::ShapeMismatch { .. })));
    }
}

/// The dense right-looking kernel the sparse [`Lu`] replaced, kept as the
/// bit-identity reference: partial pivoting by whole-row swaps (first
/// largest |value| in current row order), row-oriented substitutions, and
/// an eta file that loops over every row.
// Kept in the parent's indexed form: the recurrences are the reference.
#[allow(clippy::needless_range_loop)]
mod dense {
    use ed_linalg::{LinalgError, Matrix};

    const PIVOT_TOL: f64 = 1e-12;

    pub struct DenseLu {
        lu: Matrix,
        perm: Vec<usize>,
        perm_sign: f64,
    }

    impl DenseLu {
        pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
            let n = a.rows();
            let mut lu = a.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            let mut sign = 1.0;
            let scale = a.norm_inf().max(1.0);
            for k in 0..n {
                let mut pivot_row = k;
                let mut pivot_val = lu[(k, k)].abs();
                for i in (k + 1)..n {
                    let v = lu[(i, k)].abs();
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = i;
                    }
                }
                if pivot_val < PIVOT_TOL * scale {
                    return Err(LinalgError::Singular { column: k });
                }
                if pivot_row != k {
                    lu.swap_rows(pivot_row, k);
                    perm.swap(pivot_row, k);
                    sign = -sign;
                }
                let pivot = lu[(k, k)];
                for i in (k + 1)..n {
                    let factor = lu[(i, k)] / pivot;
                    lu[(i, k)] = factor;
                    if factor != 0.0 {
                        for j in (k + 1)..n {
                            let ukj = lu[(k, j)];
                            lu[(i, j)] -= factor * ukj;
                        }
                    }
                }
            }
            Ok(DenseLu { lu, perm, perm_sign: sign })
        }

        pub fn solve(&self, b: &[f64]) -> Vec<f64> {
            let n = self.perm.len();
            let mut x: Vec<f64> = self.perm.iter().map(|&pi| b[pi]).collect();
            for i in 1..n {
                let mut s = x[i];
                for j in 0..i {
                    s -= self.lu[(i, j)] * x[j];
                }
                x[i] = s;
            }
            for i in (0..n).rev() {
                let mut s = x[i];
                for j in (i + 1)..n {
                    s -= self.lu[(i, j)] * x[j];
                }
                x[i] = s / self.lu[(i, i)];
            }
            x
        }

        pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
            let n = self.perm.len();
            let mut y = b.to_vec();
            for i in 0..n {
                let mut s = y[i];
                for j in 0..i {
                    s -= self.lu[(j, i)] * y[j];
                }
                y[i] = s / self.lu[(i, i)];
            }
            for i in (0..n).rev() {
                let mut s = y[i];
                for j in (i + 1)..n {
                    s -= self.lu[(j, i)] * y[j];
                }
                y[i] = s;
            }
            let mut x = vec![0.0; n];
            for (i, &pi) in self.perm.iter().enumerate() {
                x[pi] = y[i];
            }
            x
        }

        pub fn det(&self) -> f64 {
            let mut d = self.perm_sign;
            for i in 0..self.perm.len() {
                d *= self.lu[(i, i)];
            }
            d
        }
    }

    /// A dense product-form eta file over a [`DenseLu`].
    pub struct DenseEtas {
        pub base: DenseLu,
        pub etas: Vec<(usize, Vec<f64>)>,
    }

    impl DenseEtas {
        pub fn solve(&self, b: &[f64]) -> Vec<f64> {
            let mut z = self.base.solve(b);
            let m = z.len();
            for (r, w) in &self.etas {
                let zr = z[*r] / w[*r];
                for k in 0..m {
                    if k != *r {
                        z[k] -= w[k] * zr;
                    }
                }
                z[*r] = zr;
            }
            z
        }

        pub fn solve_transpose(&self, b: &[f64]) -> Vec<f64> {
            let m = b.len();
            let mut c = b.to_vec();
            for (r, w) in self.etas.iter().rev() {
                let mut s = 0.0;
                for k in 0..m {
                    if k != *r {
                        s += w[k] * c[k];
                    }
                }
                c[*r] = (c[*r] - s) / w[*r];
            }
            self.base.solve_transpose(&c)
        }
    }
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// Bits with both zeros mapped to `+0.0`. Dense substitution also
/// subtracts the products of explicit zeros, which can turn a `-0.0`
/// partial sum into `+0.0`; the sparse kernel skips them, so an exact-zero
/// result may differ in sign. Every nonzero result must match bit for bit.
fn bits_up_to_zero_sign(x: &[f64]) -> Vec<u64> {
    x.iter().map(|&v| if v == 0.0 { 0 } else { v.to_bits() }).collect()
}

/// A ±1 entry, the source of exact pivot-magnitude ties.
fn unit(rng: &mut StdRng) -> f64 {
    if rng.gen_bool(0.5) {
        1.0
    } else {
        -1.0
    }
}

/// Sparse ±1 matrix with a few small-integer entries over a signed
/// permutation; sometimes singular at small `n`.
fn signed_ones(n: usize, rng: &mut StdRng) -> Matrix {
    let density = (3.0 / n as f64).clamp(0.05, 0.6);
    let mut a = Matrix::zeros(n, n);
    for (i, j) in shuffled(n, rng).into_iter().enumerate() {
        a[(i, j)] = unit(rng);
    }
    for i in 0..n {
        for j in 0..n {
            if rng.next_f64() < density {
                a[(i, j)] =
                    if rng.gen_bool(0.8) { unit(rng) } else { rng.gen_range(-3i64..4) as f64 };
            }
        }
    }
    a
}

/// A random permutation of `0..n`.
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..i + 1));
    }
    p
}

/// A simplex-style basis: slack identity columns mixed with ±1 structural
/// columns of two or three entries, one of them on a random transversal so
/// most draws are nonsingular.
fn basis_like(n: usize, rng: &mut StdRng) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for (j, i) in shuffled(n, rng).into_iter().enumerate() {
        if rng.gen_bool(0.4) {
            a[(i, j)] = 1.0;
        } else {
            a[(i, j)] = [1.0, 2.0][rng.gen_range(0..2usize)] * unit(rng);
            for _ in 0..rng.gen_range(1..3usize) {
                a[(rng.gen_range(0..n), j)] = unit(rng);
            }
        }
    }
    a
}

/// A KKT-shaped matrix `[[H, Aᵀ], [A, 0]]` with a diagonal `H` of a few
/// repeated values and an incidence-like `A` of ±1 entries.
fn kkt_like(n: usize, rng: &mut StdRng) -> Matrix {
    let nx = (2 * n).div_ceil(3);
    let mut k = Matrix::zeros(n, n);
    for i in 0..nx {
        k[(i, i)] = [1.0, 2.0, 0.5][rng.gen_range(0..3usize)];
    }
    for r in nx..n {
        for _ in 0..2 {
            let c = rng.gen_range(0..nx);
            let v = unit(rng);
            k[(r, c)] = v;
            k[(c, r)] = v;
        }
    }
    k
}

/// The columns of `a` by ascending nonzero count, ties by index: the `Q`
/// of [`Lu::factor_by_count`].
fn count_order(a: &Matrix) -> Vec<usize> {
    let n = a.cols();
    let count = |j: usize| (0..a.rows()).filter(|&i| a[(i, j)] != 0.0).count();
    let mut q: Vec<usize> = (0..n).collect();
    q.sort_by_key(|&j| count(j));
    q
}

/// `det` of the column permutation `q`, by counting inversions.
fn inversion_sign(q: &[usize]) -> f64 {
    let mut sign = 1.0;
    for i in 0..q.len() {
        for j in i + 1..q.len() {
            if q[i] > q[j] {
                sign = -sign;
            }
        }
    }
    sign
}

/// Asserts [`Lu::factor_by_count`] is the dense elimination of `A·Q`:
/// the same `Singular { column }`, named as the column of `A`, or a
/// bit-identical determinant (times the sign of `Q`) and solves mapped
/// through `Q` for each right-hand side in `rhs`. The first must match bit
/// for bit, the others (with exact zeros) up to the sign of a zero result.
fn assert_ordered_bit_identical(a: &Matrix, rhs: &[Vec<f64>], what: &str) {
    let n = a.rows();
    let q = count_order(a);
    let mut aq = Matrix::zeros(n, n);
    for (k, &j) in q.iter().enumerate() {
        for i in 0..n {
            aq[(i, k)] = a[(i, j)];
        }
    }
    let (reference, ordered) =
        match (dense::DenseLu::factor(&aq), Lu::factor_by_count(&CscMatrix::from_dense(a))) {
            (Ok(r), Ok(o)) => (r, o),
            (Err(LinalgError::Singular { column }), Err(e)) => {
                let want = LinalgError::Singular { column: q[column] };
                assert_eq!(e, want, "{what}: ordered singular column");
                return;
            }
            (r, o) => panic!("{what}: dense A·Q {:?} vs ordered {:?}", r.err(), o.err()),
        };
    let det = reference.det() * inversion_sign(&q);
    assert_eq!(det.to_bits(), ordered.det().to_bits(), "{what}: ordered det");
    for (t, b) in rhs.iter().enumerate() {
        let bits_of = if t == 0 { bits } else { bits_up_to_zero_sign };
        // A x = b is (A·Q) z = b with x = Q z.
        let z = reference.solve(b);
        let mut x = vec![0.0; n];
        for (k, &j) in q.iter().enumerate() {
            x[j] = z[k];
        }
        assert_eq!(bits_of(&x), bits_of(&ordered.solve(b).unwrap()), "{what}: ordered solve");
        // Aᵀ y = b is (A·Q)ᵀ y = Qᵀ b.
        let qb: Vec<f64> = q.iter().map(|&j| b[j]).collect();
        let y = bits_of(&reference.solve_transpose(&qb));
        let got = bits_of(&ordered.solve_transpose(b).unwrap());
        assert_eq!(y, got, "{what}: ordered solve_transpose");
    }
}

/// Asserts the sparse factorization reproduces the dense kernel: the same
/// `Singular { column }`, or bit-identical determinant and solves in both
/// directions for integer, fractional and unit right-hand sides. The
/// count-ordered factor must reproduce the dense kernel on `A·Q`
/// ([`assert_ordered_bit_identical`]) with the same right-hand sides.
fn assert_bit_identical(a: &Matrix, rng: &mut StdRng, what: &str) -> bool {
    let n = a.rows();
    let reference = dense::DenseLu::factor(a);
    let sparse = Lu::factor(a);
    let via_csc = Lu::factor_csc(&CscMatrix::from_dense(a));
    let (reference, sparse, via_csc) = match (reference, sparse, via_csc) {
        (Ok(r), Ok(s), Ok(c)) => (r, s, c),
        (Err(r), Err(s), Err(c)) => {
            assert_eq!(r, s, "{what}: singular column");
            assert_eq!(r, c, "{what}: singular column via CSC");
            assert_ordered_bit_identical(a, &[], what);
            return false;
        }
        (r, s, c) => panic!(
            "{what}: dense {:?} vs sparse {:?} vs CSC {:?}",
            r.err(),
            s.err(),
            c.err()
        ),
    };
    assert_eq!(reference.det().to_bits(), sparse.det().to_bits(), "{what}: det");
    assert_eq!(reference.det().to_bits(), via_csc.det().to_bits(), "{what}: det via CSC");
    // A dense real rhs leaves no exact zeros to sign: every bit must match.
    let b = vector(n, rng);
    let x = bits(&reference.solve(&b));
    assert_eq!(x, bits(&sparse.solve(&b).unwrap()), "{what}: solve");
    assert_eq!(x, bits(&via_csc.solve(&b).unwrap()), "{what}: solve via CSC");
    let y = bits(&reference.solve_transpose(&b));
    assert_eq!(y, bits(&sparse.solve_transpose(&b).unwrap()), "{what}: solve_transpose");
    assert_eq!(y, bits(&via_csc.solve_transpose(&b).unwrap()), "{what}: solve_transpose via CSC");
    // Unit and small-integer right-hand sides (the simplex's btran rows and
    // ftran columns) produce exact zeros.
    let mut e = vec![0.0; n];
    e[rng.gen_range(0..n)] = 1.0;
    let ints: Vec<f64> = (0..n).map(|_| rng.gen_range(-4i64..5) as f64).collect();
    for b in [&e, &ints] {
        let x = bits_up_to_zero_sign(&reference.solve(b));
        assert_eq!(x, bits_up_to_zero_sign(&sparse.solve(b).unwrap()), "{what}: sparse solve");
        let y = bits_up_to_zero_sign(&reference.solve_transpose(b));
        let got = bits_up_to_zero_sign(&sparse.solve_transpose(b).unwrap());
        assert_eq!(y, got, "{what}: sparse solve_transpose");
    }
    assert_ordered_bit_identical(a, &[b, e, ints], what);
    true
}

/// Seeded sparse matrices full of exact magnitude ties factor, solve and
/// report singularity bit-identically to the dense kernel (up to the sign
/// of exact-zero results where the rhs has zeros), in index order and, on
/// the column-permuted matrix, in count order. Ties go to the
/// smallest *current* row position: comparing original row indices instead
/// picks different pivots on these matrices and fails this test.
#[test]
fn sparse_lu_is_bit_identical_to_dense_elimination() {
    let mut rng = StdRng::seed_from_u64(0xB17_1DE7);
    type Gen = fn(usize, &mut StdRng) -> Matrix;
    let gens: [(&str, Gen); 4] = [
        ("signed_ones", signed_ones),
        ("basis_like", basis_like),
        ("kkt_like", kkt_like),
        ("dominated", sparse_dominated),
    ];
    for (n, trials) in [(5, 60), (40, 12), (200, 3)] {
        for (name, gen) in gens {
            let (mut factored, mut singular) = (0, 0);
            for t in 0..trials {
                let mut a = gen(n, &mut rng);
                let what = format!("{name} n={n} #{t}");
                factored += usize::from(assert_bit_identical(&a, &mut rng, &what));
                // A duplicated column makes the matrix singular: both kernels
                // must stop at the same column.
                let (c, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if c != d {
                    for i in 0..n {
                        a[(i, d)] = a[(i, c)];
                    }
                    let what = format!("{what} duplicated");
                    singular += usize::from(!assert_bit_identical(&a, &mut rng, &what));
                }
            }
            assert!(factored > 0, "{name} n={n}: every draw was singular");
            assert!(singular > 0, "{name} n={n}: no draw was singular");
        }
    }
}

/// A chain of column replacements on a tie-heavy basis: the sparse eta
/// file's ftran and btran match a dense eta file bit for bit (up to the
/// sign of exact-zero results where the rhs has zeros).
#[test]
fn sparse_eta_chain_is_bit_identical_to_dense_eta_file() {
    let mut rng = StdRng::seed_from_u64(0xE7A0_0008);
    for n in [5, 40, 200] {
        let mut chains = 0;
        while chains < 3 {
            let mut a = basis_like(n, &mut rng);
            for i in 0..n {
                a[(i, i)] += 2.0;
            }
            let (Ok(base), Ok(lu)) = (dense::DenseLu::factor(&a), Lu::factor(&a)) else {
                continue;
            };
            chains += 1;
            let mut reference = dense::DenseEtas { base, etas: Vec::new() };
            let mut ulu = UpdatableLu::from_lu(lu);
            for step in 0..12 {
                let r = rng.gen_range(0..n);
                let mut col = vec![0.0; n];
                col[r] = 2.0 * unit(&mut rng);
                for _ in 0..3 {
                    col[rng.gen_range(0..n)] += unit(&mut rng);
                }
                let w = ulu.solve(&col).unwrap();
                let w_dense = reference.solve(&col);
                let what = format!("n={n} step {step}");
                let (got, want) = (bits_up_to_zero_sign(&w), bits_up_to_zero_sign(&w_dense));
                assert_eq!(got, want, "{what}: ftran");
                if ulu.replace_column(r, &w, 1e-10).is_ok() {
                    reference.etas.push((r, w_dense));
                }
                let b = vector(n, &mut rng);
                let (got, want) = (bits(&ulu.solve(&b).unwrap()), bits(&reference.solve(&b)));
                assert_eq!(got, want, "{what}: solve");
                assert_eq!(
                    bits(&ulu.solve_transpose(&b).unwrap()),
                    bits(&reference.solve_transpose(&b)),
                    "{what}: solve_transpose"
                );
                let mut e = vec![0.0; n];
                e[rng.gen_range(0..n)] = 1.0;
                assert_eq!(
                    bits_up_to_zero_sign(&ulu.solve_transpose(&e).unwrap()),
                    bits_up_to_zero_sign(&reference.solve_transpose(&e)),
                    "{what}: btran of a unit row"
                );
            }
            assert!(ulu.num_updates() > 0, "n={n}: no eta was accepted");
        }
    }
}

/// The factors keep only nonzeros: a tridiagonal matrix factors without
/// fill.
#[test]
fn tridiagonal_factor_stores_no_fill() {
    let n = 200;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = 4.0;
        if i + 1 < n {
            a[(i, i + 1)] = -1.0;
            a[(i + 1, i)] = -1.0;
        }
    }
    assert_eq!(Lu::factor(&a).unwrap().nnz(), 3 * n - 2);
}
