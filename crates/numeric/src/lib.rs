// The `!(a > b)` validation idiom below deliberately treats NaN as a
// failure; the negated form is kept on purpose.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

//! Numeric kernels backing the SSN suite.
//!
//! Everything the circuit simulator and the model-fitting code need is
//! implemented here from scratch:
//!
//! * [`matrix`] — dense row-major matrices,
//! * [`lu`] — LU factorization with partial pivoting (the MNA solver),
//! * [`sparse`] — CSR sparse matrices and ILU(0) for large MNA systems,
//! * [`gmres`] — restarted, preconditioned GMRES and the
//!   `ilu0 → jacobi → dense-lu` linear-solve ladder,
//! * [`roots`] — bracketing and derivative-based 1-D root finders,
//! * [`solve`] — a fallback ladder over the root finders
//!   (`newton` → `brent` → `bisect` with bracket expansion) that reports
//!   which rung succeeded,
//! * [`optimize`] — linear least squares and Levenberg–Marquardt,
//! * [`ode`] — reference ODE integrators (RK4, adaptive RKF45) used to
//!   cross-check both the closed-form SSN solutions and the simulator,
//! * [`stats`] — error metrics, grid helpers, and pinned-order reductions,
//! * [`slab`] — fixed-width lane helpers for structure-of-arrays kernels
//!   (the batched Monte Carlo hot path),
//! * [`rng`] — deterministic, stream-splittable pseudo-random numbers
//!   (xoshiro256++) for Monte Carlo work,
//! * [`cancel`] — thread-scoped cooperative deadline checks polled by the
//!   long-running kernels (RKF45, and the MNA transient loop downstream),
//! * [`check`] — a minimal deterministic property-testing harness,
//! * [`shrink`] — deterministic counterexample shrinking toward a
//!   reference anchor (the companion the `check` harness deliberately
//!   omits).
//!
//! # Examples
//!
//! ```
//! use ssn_numeric::{matrix::DenseMatrix, lu::LuFactor};
//!
//! # fn main() -> Result<(), ssn_numeric::NumericError> {
//! let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[3.0, 5.0])?;
//! assert!((x[0] - 0.8).abs() < 1e-12);
//! assert!((x[1] - 1.4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod cancel;
pub mod check;
pub mod clu;
pub mod complex;
pub mod gmres;
pub mod lu;
pub mod matrix;
pub mod ode;
pub mod optimize;
pub mod rng;
pub mod roots;
pub mod shrink;
pub mod slab;
pub mod solve;
pub mod sparse;
pub mod stats;

mod error;

pub use error::NumericError;
