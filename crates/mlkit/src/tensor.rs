//! A minimal row-major matrix type with the operations the MLP needs.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows x cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use mlkit::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
/// let c = a.matmul(&b);
/// assert_eq!(c[(0, 0)], 17.0);
/// assert_eq!(c[(1, 0)], 39.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            row_times(self.row(i), rhs, out.row_mut(i));
        }
        out
    }

    /// Computes `self^T * rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "t_matmul dimension mismatch");
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let lrow = self.row(r);
            let rrow = rhs.row(r);
            for (i, &a) in lrow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Computes `self * rhs^T`.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_t dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let lrow = self.row(i);
            for j in 0..rhs.rows {
                let rrow = rhs.row(j);
                out.data[i * rhs.rows + j] = lrow.iter().zip(rrow).map(|(a, b)| a * b).sum();
            }
        }
        out
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise product in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a *= b;
        }
    }

    /// Adds `rhs` scaled by `alpha` in place (`self += alpha * rhs`).
    pub fn axpy_inplace(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Adds a row vector to every row (broadcast bias add).
    pub fn add_row_inplace(&mut self, bias: &[f64]) {
        assert_eq!(self.cols, bias.len(), "bias length mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *x += b;
            }
        }
    }

    /// Sums each column into a vector (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Writes the row vector `x` times `rhs` into `out`: the one kernel behind
/// [`Matrix::matmul`] and single-row inference.
///
/// Each output element accumulates `x[k] * rhs[(k, j)]` in increasing `k`
/// from `0.0`, skipping the terms where `x[k] == 0.0` (ReLU zeros make the
/// skip pay in training).
///
/// # Panics
///
/// Panics unless `x.len() == rhs.rows()` and `out.len() == rhs.cols()`.
pub(crate) fn row_times(x: &[f64], rhs: &Matrix, out: &mut [f64]) {
    assert_eq!(
        (x.len(), out.len()),
        (rhs.rows, rhs.cols),
        "row_times dimension mismatch: 1x{} * {}x{} into 1x{}",
        x.len(),
        rhs.rows,
        rhs.cols,
        out.len()
    );
    out.fill(0.0);
    for (k, &a) in x.iter().enumerate() {
        if a == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(rhs.row(k)) {
            *o += a * b;
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let eye = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0]]);
        // a^T (3x2) * b (2x2) = 3x2.
        let c = a.t_matmul(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 1.0 * 7.0 + 4.0 * 9.0);
        assert_eq!(c[(2, 1)], 3.0 * 8.0 + 6.0 * 10.0);
    }

    #[test]
    fn matmul_t_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        // a (1x2) * b^T (2x2) = 1x2.
        let c = a.matmul_t(&b);
        assert_eq!(c[(0, 0)], 11.0);
        assert_eq!(c[(0, 1)], 17.0);
    }

    #[test]
    fn elementwise_helpers() {
        let mut a = Matrix::from_rows(&[&[1.0, -2.0]]);
        a.map_inplace(f64::abs);
        assert_eq!(a.row(0), &[1.0, 2.0]);
        let b = Matrix::from_rows(&[&[3.0, 0.5]]);
        a.hadamard_inplace(&b);
        assert_eq!(a.row(0), &[3.0, 1.0]);
        a.axpy_inplace(2.0, &b);
        assert_eq!(a.row(0), &[9.0, 2.0]);
        a.add_row_inplace(&[1.0, 1.0]);
        assert_eq!(a.row(0), &[10.0, 3.0]);
    }

    #[test]
    fn col_sums_and_norm() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
        assert_eq!(a.col_sums(), vec![7.0, 1.0]);
        assert!((a.norm() - 26.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_shape_checked() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
