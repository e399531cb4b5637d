//! Linear-algebra substrate for the `ed-security` workspace.
//!
//! The power-flow and optimization crates in this workspace need a small but
//! reliable set of numerical kernels:
//!
//! - [`Matrix`] — a row-major dense `f64` matrix with the usual arithmetic,
//!   slicing and assembly helpers.
//! - [`Lu`] — sparse LU factorization with partial pivoting (only the
//!   factors' nonzeros are stored, bit-identical to dense elimination),
//!   used for the simplex basis and for linear solves in the
//!   Newton–Raphson AC power flow, PTDF computation, and the active-set QP
//!   solver.
//! - [`UpdatableLu`] — an [`Lu`] plus a product-form eta file of column
//!   replacements, each stability guarded so the caller refactorizes
//!   instead; backs the simplex basis.
//! - [`Complex`] — complex arithmetic for AC admittance matrices.
//! - [`CscMatrix`] — compressed sparse column storage, with dense↔sparse
//!   conversion and column iteration; the input format of [`Lu`], in which
//!   the simplex assembles its basis matrices.
//!
//! Everything here is implemented from scratch (no external linear-algebra
//! crates) and sized for the problems in this workspace: networks with up to
//! a few hundred buses, and optimization bases with up to a few thousand
//! rows. Dense [`Matrix`] arithmetic is plain `O(n^3)`/`O(n^2)` loops; the
//! LU factorization and its solves touch only nonzeros, because the KKT
//! bases and susceptance matrices they factor are well under 1% dense.
//!
//! # Example
//!
//! ```
//! use ed_linalg::{Matrix, Lu};
//!
//! # fn main() -> Result<(), ed_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = Lu::factor(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod error;
mod lu;
mod lu_update;
mod matrix;
mod sparse;
mod vector;

pub use complex::Complex;
pub use error::LinalgError;
pub use lu::Lu;
pub use lu_update::UpdatableLu;
pub use matrix::Matrix;
pub use sparse::CscMatrix;
pub use vector::{axpy, dot, norm_inf, norm_two, scale, sub};
