//! Dense row-major matrices.

use crate::NumericError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// Sized for MNA systems (tens to a few hundred unknowns), where dense
/// factorization is both simple and fast enough.
///
/// # Examples
///
/// ```
/// use ssn_numeric::matrix::DenseMatrix;
///
/// # fn main() -> Result<(), ssn_numeric::NumericError> {
/// let mut a = DenseMatrix::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 3.0;
/// let y = a.matvec(&[1.0, 1.0])?;
/// assert_eq!(y, vec![2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when rows have unequal
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumericError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(NumericError::shape("matrix must have at least one row"));
        }
        let ncols = rows[0].len();
        if ncols == 0 {
            return Err(NumericError::shape("matrix must have at least one column"));
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(NumericError::shape(format!(
                    "row {i} has {} columns, expected {ncols}",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Sets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Makes `self` an entry-for-entry copy of `src`, of any shape, reusing
    /// `self`'s allocation when it is large enough. (`Clone::clone_from`
    /// is the derived default here, which always allocates.)
    pub fn copy_from(&mut self, src: &Self) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Returns a view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Adds `value` to entry `(i, j)` — the fundamental MNA "stamp".
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        self[(i, j)] += value;
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.cols {
            return Err(NumericError::shape(format!(
                "matvec: vector has length {}, expected {}",
                x.len(),
                self.cols
            )));
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Self) -> Result<Self, NumericError> {
        if self.cols != other.rows {
            return Err(NumericError::shape(format!(
                "matmul: {}x{} * {}x{}",
                self.rows, self.cols, other.rows, other.cols
            )));
        }
        let mut out = Self::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// The transpose `Aᵀ`.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Maximum absolute entry (the max-norm of the matrix seen as a vector).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Induced infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds ({} x {})",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds ({} x {})",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            let row: Vec<String> = self.row(i).iter().map(|v| format!("{v:>12.5e}")).collect();
            writeln!(f, "[ {} ]", row.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert!(m.is_square());
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(DenseMatrix::from_rows(&[]).is_err());
        assert!(DenseMatrix::from_rows(&[&[], &[]]).is_err());
        assert!(DenseMatrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_matvec() {
        let eye = DenseMatrix::identity(3);
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(eye.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_shape_check() {
        let m = DenseMatrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matmul_small() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            DenseMatrix::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]).unwrap()
        );
        assert!(a.matmul(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn stamp_and_norms() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.add(0, 0, 1.0);
        m.add(0, 0, 2.0);
        m.add(1, 0, -5.0);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m.max_abs(), 5.0);
        assert_eq!(m.norm_inf(), 5.0);
        m.fill_zero();
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn copy_from_takes_the_source_shape_and_entries() {
        let src = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let mut big = DenseMatrix::identity(4);
        big.copy_from(&src);
        assert_eq!(big, src);
        let mut small = DenseMatrix::zeros(1, 1);
        small.copy_from(&src);
        assert_eq!(small, src);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = DenseMatrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn display_shows_entries() {
        let m = DenseMatrix::identity(2);
        let s = m.to_string();
        assert!(s.contains("1.00000e0"));
        assert_eq!(s.lines().count(), 2);
    }
}
