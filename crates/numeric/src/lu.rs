//! LU factorization with partial pivoting.
//!
//! This is the linear solver behind every Newton iteration of the circuit
//! simulator, so it favours an allocation-free API: factor once with
//! [`LuFactor::new`], re-factor into the same storage with
//! [`LuFactor::refactor`], and solve repeatedly with
//! [`LuFactor::solve_in_place`].

use crate::matrix::DenseMatrix;
use crate::NumericError;

/// Relative pivot threshold: a column is declared singular when its best
/// pivot is smaller than `PIVOT_REL` times the original magnitude of the
/// pivot row (implicit row equilibration). An absolute threshold would
/// flag badly *scaled* but perfectly well-conditioned systems — e.g. a
/// diagonal of subnormals — as singular, which matters for MNA matrices
/// whose entries span conductances from gmin (1e-12 S) to companion terms
/// (1e3 S and beyond).
const PIVOT_REL: f64 = 1e-14;

/// An LU factorization `P A = L U` of a square matrix.
///
/// # Examples
///
/// ```
/// use ssn_numeric::{matrix::DenseMatrix, lu::LuFactor};
///
/// # fn main() -> Result<(), ssn_numeric::NumericError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[10.0, 12.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    lu: DenseMatrix,
    /// `P` as the row interchanges of the elimination: step `k` swapped
    /// rows `k` and `swaps[k]`.
    swaps: Vec<usize>,
    /// Row scales of the matrix being factored, kept between calls only so
    /// that [`LuFactor::refactor`] does not allocate.
    scale: Vec<f64>,
    /// Sign of the permutation; used by [`LuFactor::determinant`].
    sign: f64,
}

impl LuFactor {
    /// Factors `a` with partial pivoting.
    ///
    /// # Errors
    ///
    /// * [`NumericError::ShapeMismatch`] when `a` is not square.
    /// * [`NumericError::SingularMatrix`] when a pivot collapses relative
    ///   to its row's original magnitude (row-scaled test, so badly scaled
    ///   but well-conditioned systems still factor).
    pub fn new(a: &DenseMatrix) -> Result<Self, NumericError> {
        let mut factor = Self {
            lu: DenseMatrix::zeros(0, 0),
            swaps: Vec::new(),
            scale: Vec::new(),
            sign: 1.0,
        };
        factor.refactor(a)?;
        Ok(factor)
    }

    /// Factors `a` into this factor's storage, replacing the factorization
    /// it held; `a` may have any dimension. The result is bit-identical to
    /// [`LuFactor::new`]`(a)`, and no allocation happens unless `a` is
    /// larger than every matrix this factor held before.
    ///
    /// # Errors
    ///
    /// As [`LuFactor::new`]. After an error the factor holds no
    /// factorization: [`LuFactor::dim`] reads 0, so every solve fails with
    /// [`NumericError::ShapeMismatch`] until a later `refactor` succeeds.
    pub fn refactor(&mut self, a: &DenseMatrix) -> Result<(), NumericError> {
        let factored = self.factor(a);
        if factored.is_err() {
            self.lu.copy_from(&DenseMatrix::zeros(0, 0));
            self.swaps.clear();
        }
        factored
    }

    fn factor(&mut self, a: &DenseMatrix) -> Result<(), NumericError> {
        if !a.is_square() {
            return Err(NumericError::shape(format!(
                "LU requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        let lu = &mut self.lu;
        lu.copy_from(a);
        self.swaps.clear();
        self.sign = 1.0;
        // Row scales of the *original* matrix, permuted alongside the rows:
        // the singularity test below is relative to these, so row scaling
        // never changes the verdict (only genuine rank deficiency does).
        let scale = &mut self.scale;
        scale.clear();
        scale.resize(n, 0.0);
        for i in 0..n {
            for j in 0..n {
                scale[i] = scale[i].max(lu[(i, j)].abs());
            }
        }

        for k in 0..n {
            // Find pivot.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            // Row-scaled singularity test: an exactly zero column remainder
            // (or an all-zero row, scale 0) is singular, as is a pivot that
            // has collapsed far below its row's original magnitude.
            if pmax <= 0.0 || pmax < PIVOT_REL * scale[p] {
                return Err(NumericError::SingularMatrix { column: k });
            }
            self.swaps.push(p);
            if p != k {
                scale.swap(p, k);
                self.sign = -self.sign;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            // Eliminate below the pivot.
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let delta = m * lu[(k, j)];
                        lu[(i, j)] -= delta;
                    }
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`, returning a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `x` holds `b`, on exit the
    /// solution.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when `x.len() != self.dim()`.
    // Triangular substitution is clearest with explicit index loops.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<(), NumericError> {
        let n = self.dim();
        if x.len() != n {
            return Err(NumericError::shape(format!(
                "solve: rhs has length {}, expected {n}",
                x.len()
            )));
        }
        // Apply the permutation, y = P b, one interchange at a time.
        for (k, &p) in self.swaps.iter().enumerate() {
            x.swap(k, p);
        }
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(())
    }

    /// The determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// A cheap lower bound on the condition number: ratio of the largest to
    /// the smallest pivot magnitude. Useful for detecting near-singular MNA
    /// systems without the full 1-norm estimator.
    pub fn pivot_condition(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..self.dim() {
            let p = self.lu[(i, i)].abs();
            lo = lo.min(p);
            hi = hi.max(p);
        }
        if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }
}

/// One-shot convenience: factor `a` and solve `A x = b`.
///
/// # Errors
///
/// Propagates the errors of [`LuFactor::new`] and [`LuFactor::solve`].
pub fn solve(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, NumericError> {
    LuFactor::new(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{forall, Gen};

    /// A random `n x n` matrix whose diagonal is 1000x smaller than the
    /// rest, so partial pivoting interchanges rows.
    fn swapping_matrix(g: &mut Gen, n: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = g.f64_in(-1.0, 1.0);
            }
            a[(i, i)] *= 1e-3;
        }
        a
    }

    /// A dimension in `1..=12` other than `n`.
    fn other_dim(g: &mut Gen, n: usize) -> usize {
        1 + (n + g.usize_in(0, 10)) % 12
    }

    /// `Ok` when `reused` solves `b` and reads the determinant with the
    /// very bits `LuFactor::new(a)` gives.
    fn same_bits_as_fresh(reused: &LuFactor, a: &DenseMatrix, b: &[f64]) -> Result<(), String> {
        let fresh = LuFactor::new(a).map_err(|e| format!("fresh factor: {e}"))?;
        let x_fresh = fresh.solve(b).map_err(|e| e.to_string())?;
        let x_reused = reused.solve(b).map_err(|e| e.to_string())?;
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if bits(&x_fresh) != bits(&x_reused) {
            return Err(format!("solutions differ: {x_fresh:?} vs {x_reused:?}"));
        }
        if fresh.determinant().to_bits() != reused.determinant().to_bits() {
            return Err(format!(
                "determinants differ: {} vs {}",
                fresh.determinant(),
                reused.determinant()
            ));
        }
        Ok(())
    }

    #[test]
    fn refactor_into_used_storage_is_bit_identical_to_a_fresh_factor() {
        forall("refactor == new, bit for bit", 300, |g| {
            let n = g.usize_in(1, 12);
            let a = swapping_matrix(g, n);
            let b = g.vec_f64(n, -1.0, 1.0);
            let fresh = LuFactor::new(&a).map_err(|e| format!("n {n}: {e}"))?;
            if n > 1 && fresh.swaps.iter().enumerate().all(|(k, &p)| k == p) {
                return Err(format!("n {n}: pivoting swapped no rows"));
            }
            // The factor last held another matrix of the same dimension,
            // then of a different one.
            for m in [n, other_dim(g, n)] {
                let mut reused = LuFactor::new(&swapping_matrix(g, m))
                    .map_err(|e| format!("n {m} warm-up: {e}"))?;
                reused
                    .refactor(&a)
                    .map_err(|e| format!("n {n} from {m}: {e}"))?;
                same_bits_as_fresh(&reused, &a, &b).map_err(|e| format!("n {n} from {m}: {e}"))?;
            }
            Ok(())
        });
    }

    #[test]
    fn refactor_reports_the_singular_column_a_fresh_factor_reports() {
        forall("singular refactor == singular new", 300, |g| {
            let n = g.usize_in(1, 12);
            let mut a = swapping_matrix(g, n);
            let c = g.usize_in(0, n - 1);
            for i in 0..n {
                a[(i, c)] = 0.0;
            }
            let fresh = LuFactor::new(&a).err();
            let m = other_dim(g, n);
            let mut reused =
                LuFactor::new(&swapping_matrix(g, m)).map_err(|e| format!("n {m}: {e}"))?;
            let again = reused.refactor(&a).err();
            let expected = Some(NumericError::SingularMatrix { column: c });
            if fresh != expected || again != expected {
                return Err(format!(
                    "n {n}, zero column {c}: new gave {fresh:?}, refactor gave {again:?}"
                ));
            }
            // A failed refactor leaves nothing to solve with, and the next
            // refactor recovers in full.
            if reused.dim() != 0 || reused.solve(&vec![1.0; n]).is_ok() {
                return Err(format!("n {n}: a failed refactor still solves"));
            }
            let ok = swapping_matrix(g, n);
            reused
                .refactor(&ok)
                .map_err(|e| format!("n {n} recovery: {e}"))?;
            same_bits_as_fresh(&reused, &ok, &g.vec_f64(n, -1.0, 1.0))
        });
    }

    fn residual_inf(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .unwrap()
            .iter()
            .zip(b)
            .map(|(ax, b)| (ax - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_3x3_exactly() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]])
            .unwrap();
        let b = [8.0, -11.0, -3.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        match LuFactor::new(&a) {
            Err(NumericError::SingularMatrix { column }) => assert_eq!(column, 1),
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(LuFactor::new(&a).is_err());
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let a = DenseMatrix::identity(3);
        let lu = LuFactor::new(&a).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn determinant_matches_known_values() {
        let a = DenseMatrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.determinant() + 6.0).abs() < 1e-12);
        let eye = LuFactor::new(&DenseMatrix::identity(4)).unwrap();
        assert!((eye.determinant() - 1.0).abs() < 1e-12);
        // Permutation flips the sign.
        let p = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactor::new(&p).unwrap();
        assert!((lu.determinant() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn reusable_factorization() {
        let a = DenseMatrix::from_rows(&[&[5.0, 2.0], &[1.0, 3.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [3.5, -2.0]] {
            let x = lu.solve(&b).unwrap();
            assert!(residual_inf(&a, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn pivot_condition_sane() {
        let eye = LuFactor::new(&DenseMatrix::identity(3)).unwrap();
        assert!((eye.pivot_condition() - 1.0).abs() < 1e-12);
        let a = DenseMatrix::from_rows(&[&[1e6, 0.0], &[0.0, 1e-6]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!(lu.pivot_condition() > 1e11);
    }

    #[test]
    fn subnormal_scale_is_not_spuriously_singular() {
        // Regression for the absolute pivot threshold (was 1e-300): a
        // diagonal of subnormals is perfectly conditioned (cond = 1) but
        // every pivot sits below any absolute cutoff. The row-scaled test
        // must factor it and recover the exact solution.
        let tiny = 1e-310;
        let a = DenseMatrix::from_rows(&[&[tiny, 0.0], &[0.0, tiny]]).unwrap();
        let lu = LuFactor::new(&a).expect("well-conditioned subnormal diagonal must factor");
        let x = lu.solve(&[2.0 * tiny, 3.0 * tiny]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn mixed_row_scales_are_not_spuriously_singular() {
        // One row lives at 1e-310, the other at O(1); the system is
        // well-conditioned after row scaling ([[1, 2], [3, 4]]).
        let s = 1e-310;
        let a = DenseMatrix::from_rows(&[&[s, 2.0 * s], &[3.0, 4.0]]).unwrap();
        let lu = LuFactor::new(&a).expect("row-scalable system must factor");
        // b chosen so x = [1, 1].
        let x = lu.solve(&[3.0 * s, 7.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10, "x0 = {}", x[0]);
        assert!((x[1] - 1.0).abs() < 1e-10, "x1 = {}", x[1]);
    }

    #[test]
    fn all_zero_row_is_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn rank_deficiency_is_still_singular_at_tiny_scale() {
        // Genuinely rank-1 at subnormal scale: the relative test must keep
        // flagging it even though an absolute test would too.
        let s = 1e-310;
        let a = DenseMatrix::from_rows(&[&[s, 2.0 * s], &[2.0 * s, 4.0 * s]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::SingularMatrix { column: 1 })
        ));
    }

    #[test]
    fn random_diagonally_dominant_systems() {
        // Deterministic pseudo-random fill; diagonally dominant so the
        // system is guaranteed well-conditioned.
        let n = 12;
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v = next();
                    a[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            a[(i, i)] = row_sum + 1.0;
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = solve(&a, &b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }
}
