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
/// assert_eq!((a.rows(), a.cols()), (2, 2));
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.row(1), &[3.0, 4.0]);
/// ```
#[derive(Clone, Default, PartialEq)]
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

    /// Writes `self * rhs` into `out`, reshaping it.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub(crate) fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape(self.rows, rhs.cols);
        Product::<false> {
            lhs: &self.data,
            rhs: &rhs.data,
            n: self.rows,
            depth: self.cols,
            m: rhs.cols,
            skip: true,
        }
        .run(&mut out.data);
    }

    /// Writes `self^T * rhs`, row-major, into `out` (a gradient's place in
    /// a flat buffer), without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the row counts match and `out` holds
    /// `self.cols() * rhs.cols()` elements.
    pub(crate) fn t_matmul_into(&self, rhs: &Matrix, out: &mut [f64]) {
        assert_eq!(self.rows, rhs.rows, "t_matmul dimension mismatch");
        assert_eq!(out.len(), self.cols * rhs.cols, "t_matmul output size");
        Product::<true> {
            lhs: &self.data,
            rhs: &rhs.data,
            n: self.cols,
            depth: self.rows,
            m: rhs.cols,
            skip: true,
        }
        .run(out);
    }

    /// Writes `self * rhs^T` into `out`, reshaping it, given `rhs_t`, the
    /// transpose of `rhs`, which the caller keeps.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub(crate) fn matmul_t_into(&self, rhs_t: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs_t.rows, "matmul_t dimension mismatch");
        out.reshape(self.rows, rhs_t.cols);
        Product::<false> {
            lhs: &self.data,
            rhs: &rhs_t.data,
            n: self.rows,
            depth: self.cols,
            m: rhs_t.cols,
            skip: false,
        }
        .run(&mut out.data);
    }

    /// Writes the transpose of `self` into `out`, reshaping it.
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.reshape(self.cols, self.rows);
        if self.cols == 0 {
            return;
        }
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
    }

    /// Makes `self` a `rows x cols` matrix, reusing its storage. The
    /// elements' values are unspecified until written.
    pub(crate) fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Applies `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Writes each column's sum, from `0.0` in row order, into `out`,
    /// summing a tile of columns per pass down the rows (a bias gradient).
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == self.cols()`.
    pub(crate) fn col_sums_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.cols, "col_sums output size");
        let mut j0 = 0;
        for tile in out.chunks_mut(2 * LANES) {
            let mut acc = [0.0; 2 * LANES];
            let acc = &mut acc[..tile.len()];
            for row in self.data.chunks_exact(self.cols) {
                for (acc, &x) in acc.iter_mut().zip(&row[j0..]) {
                    *acc += x;
                }
            }
            tile.copy_from_slice(acc);
            j0 += tile.len();
        }
    }
}

/// The row vector `x` times the `x.len() x M` matrix `rhs`, given as its
/// rows, the same bits as a row of `matmul_into`: single-row
/// inference's product, its `M` accumulators one array. `MASK` masks the
/// skipped terms, which only an `rhs` holding an infinity or NaN needs (a
/// network keeps a flag for that per training step); masking a finite
/// `rhs` is correct too.
///
/// `rhs.len() == x.len()` is the caller's to check: the sum stops at the
/// shorter of the two.
#[inline(always)]
pub(crate) fn row_product<const MASK: bool, const M: usize>(
    x: &[f64],
    rhs: &[[f64; M]],
) -> [f64; M] {
    debug_assert!(
        MASK || all_finite(rhs.as_flattened()),
        "unmasked rhs is not finite"
    );
    let mut acc = [0.0; M];
    for (&a, rhs_row) in x.iter().zip(rhs) {
        for (acc, &b) in acc.iter_mut().zip(rhs_row) {
            *acc += term::<MASK>(a, b);
        }
    }
    acc
}

// The kernels. Every product here computes each output element as one sum
// in increasing `k` (the inner index), exactly as a naive loop would:
//
// - skipping (`matmul_into`, `t_matmul_into`, `row_product`): from `0.0`, leaving out
//   the terms whose left factor `== 0.0` (ReLU zeros);
// - not skipping (`matmul_t_into`): from `-0.0` over every term, because that
//   is where `Iterator::sum` for `f64` starts;
// - as `acc + a * b`, rounding the product and then the sum (no FMA).
//
// Only the order in which *independent* output elements are computed
// differs from the naive loops, so the bits are the same. Speed comes from
// keeping 8 or 16 accumulators in registers (a tile of one row's columns,
// or for outputs narrower than a tile, one column of a block of rows) and
// from not testing factors for zero where that changes nothing:
//
// a skipping sum needs no skip at all while the right operand is finite.
// It starts at `+0.0`, so it is never `-0.0` (in round-to-nearest, `x + y`
// is `-0.0` only when both are), and a zero factor times a finite one is
// `±0.0`, which leaves any other sum's bits as they were. Only an infinite
// or NaN right factor makes a skipped term matter (`0 * inf` is NaN); for
// such an operand the terms are masked (`term`).

/// Output columns one accumulator tile covers.
const LANES: usize = 8;
/// Rows one narrow-column block covers (lanes are rows there).
const ROWS: usize = 2 * LANES;

/// One term of a sum: `a * b`, or with `MASK` and a zero `a`, `+0.0`, which
/// leaves a skipping sum as it was (it is never `-0.0`).
#[inline(always)]
fn term<const MASK: bool>(a: f64, b: f64) -> f64 {
    if MASK && a == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// Whether every element is finite, checked without a branch per element.
pub(crate) fn all_finite(values: &[f64]) -> bool {
    values.iter().fold(true, |ok, v| ok & v.is_finite())
}

/// The product `lhs * rhs` of an `n x depth` and a row-major `depth x m`
/// operand, as skipping sums (`skip`) or not. `lhs` is read in place: it
/// is row-major (`T = false`, element `(i, k)` at `lhs[i * depth + k]`) or
/// the transpose of a row-major `depth x n` matrix (`T = true`, at
/// `lhs[k * n + i]`).
struct Product<'a, const T: bool> {
    lhs: &'a [f64],
    rhs: &'a [f64],
    n: usize,
    depth: usize,
    m: usize,
    skip: bool,
}

impl<const T: bool> Product<'_, T> {
    /// Left elements `(i0 + l, k)` for `l < ROWS`: one load for a
    /// transpose.
    #[inline(always)]
    fn lanes(&self, i0: usize, k: usize) -> [f64; ROWS] {
        if T {
            let mut out = [0.0; ROWS];
            out.copy_from_slice(&self.lhs[k * self.n + i0..][..ROWS]);
            out
        } else {
            let rows = &self.lhs[i0 * self.depth..][..ROWS * self.depth];
            std::array::from_fn(|l| rows[l * self.depth + k])
        }
    }

    /// Where every sum starts.
    fn start(&self) -> f64 {
        if self.skip {
            0.0
        } else {
            -0.0
        }
    }

    /// Writes the product into `out`, row-major `n x m`.
    fn run(&self, out: &mut [f64]) {
        if self.skip && !all_finite(self.rhs) {
            self.run_masked::<true>(out);
        } else {
            self.run_masked::<false>(out);
        }
    }

    /// [`Product::run`], with the skipped terms masked (`MASK`) or not.
    fn run_masked<const MASK: bool>(&self, out: &mut [f64]) {
        let (n, m) = (self.n, self.m);
        if self.depth == 0 {
            out[..n * m].fill(self.start());
            return;
        }
        if m == 0 {
            return;
        }
        let wide = m - m % LANES;
        // Columns narrower than a tile are computed down blocks of rows; the
        // rows after the last block take them one row at a time.
        let blocked = if wide < m { n - n % ROWS } else { 0 };
        for (i, row) in out[..n * m].chunks_exact_mut(m).enumerate() {
            self.row::<MASK>(i, row, i >= blocked);
        }
        for j in wide..m {
            for i0 in (0..blocked).step_by(ROWS) {
                self.column_block::<MASK>(i0, j, out);
            }
        }
    }

    /// Computes output row `i`'s whole tiles and, if `narrow`, the columns
    /// after them, one serial sum each.
    #[inline(always)]
    fn row<const MASK: bool>(&self, i: usize, row: &mut [f64], narrow: bool) {
        if T {
            let line = self.lhs[i..].iter().step_by(self.n);
            self.row_from::<MASK>(line, row, narrow);
        } else {
            let line = self.lhs[i * self.depth..][..self.depth].iter();
            self.row_from::<MASK>(line, row, narrow);
        }
    }

    /// [`Product::row`] given the row of `lhs`, `line`.
    #[inline(always)]
    fn row_from<'l, const MASK: bool>(
        &self,
        line: impl Iterator<Item = &'l f64> + Clone,
        row: &mut [f64],
        narrow: bool,
    ) {
        let wide = self.m - self.m % LANES;
        let mut j0 = 0;
        while j0 + 2 * LANES <= wide {
            self.tile::<{ 2 * LANES }, MASK>(line.clone(), j0, row);
            j0 += 2 * LANES;
        }
        if j0 < wide {
            self.tile::<LANES, MASK>(line.clone(), j0, row);
        }
        if narrow {
            for j in wide..self.m {
                self.tile::<1, MASK>(line.clone(), j, row);
            }
        }
    }

    /// Computes the `W` columns of a row from `j0`, one accumulator per
    /// column, every term in order.
    #[inline(always)]
    fn tile<'l, const W: usize, const MASK: bool>(
        &self,
        line: impl Iterator<Item = &'l f64>,
        j0: usize,
        row: &mut [f64],
    ) {
        let mut acc = [self.start(); W];
        for (&a, rhs_row) in line.zip(self.rhs.chunks_exact(self.m)) {
            for (acc, &b) in acc.iter_mut().zip(&rhs_row[j0..j0 + W]) {
                *acc += term::<MASK>(a, b);
            }
        }
        row[j0..j0 + W].copy_from_slice(&acc);
    }

    /// Computes column `j` of output rows `i0..i0 + ROWS`, the rows as
    /// lanes.
    fn column_block<const MASK: bool>(&self, i0: usize, j: usize, out: &mut [f64]) {
        let mut acc = [self.start(); ROWS];
        for k in 0..self.depth {
            let b = self.rhs[k * self.m + j];
            let a = self.lanes(i0, k);
            for (acc, &a) in acc.iter_mut().zip(&a) {
                *acc += term::<MASK>(a, b);
            }
        }
        for (l, v) in acc.into_iter().enumerate() {
            out[(i0 + l) * self.m + j] = v;
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

/// The kernels as plain loops, one sum per output element: the references
/// the blocked kernels must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::Matrix;

    pub(crate) fn row_times(x: &[f64], rhs: &Matrix, out: &mut [f64]) {
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

    pub(crate) fn matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows(), rhs.cols());
        for i in 0..lhs.rows() {
            row_times(lhs.row(i), rhs, out.row_mut(i));
        }
        out
    }

    pub(crate) fn t_matmul(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.cols(), rhs.cols());
        for r in 0..lhs.rows() {
            let lrow = lhs.row(r);
            let rrow = rhs.row(r);
            for (i, &a) in lrow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out.row_mut(i).iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    pub(crate) fn matmul_t(lhs: &Matrix, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(lhs.rows(), rhs.rows());
        for i in 0..lhs.rows() {
            let lrow = lhs.row(i);
            for j in 0..rhs.rows() {
                let rrow = rhs.row(j);
                out[(i, j)] = lrow.iter().zip(rrow).map(|(a, b)| a * b).sum();
            }
        }
        out
    }

    pub(crate) fn col_sums(m: &Matrix) -> Vec<f64> {
        let mut out = vec![0.0; m.cols()];
        for r in 0..m.rows() {
            for (o, &x) in out.iter_mut().zip(m.row(r)) {
                *o += x;
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let eye = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut product = Matrix::default();
        a.matmul_into(&eye, &mut product);
        assert_eq!(product, a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0]]);
        // a^T (3x2) * b (2x2) = 3x2, row-major.
        let mut c = [f64::NAN; 6];
        a.t_matmul_into(&b, &mut c);
        assert_eq!(c[0], 1.0 * 7.0 + 4.0 * 9.0);
        assert_eq!(c[5], 3.0 * 8.0 + 6.0 * 10.0);
    }

    #[test]
    fn matmul_t_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        // a (1x2) * b^T (2x2) = 1x2.
        let (mut b_t, mut c) = (Matrix::default(), Matrix::default());
        b.transpose_into(&mut b_t);
        a.matmul_t_into(&b_t, &mut c);
        assert_eq!(c[(0, 0)], 11.0);
        assert_eq!(c[(0, 1)], 17.0);
    }

    #[test]
    fn elementwise_helpers() {
        let mut a = Matrix::from_rows(&[&[1.0, -2.0]]);
        a.map_inplace(f64::abs);
        assert_eq!(a.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn col_sums_sum_each_column() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
        let mut sums = [f64::NAN; 2];
        a.col_sums_into(&mut sums);
        assert_eq!(sums, [7.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul_into(&b, &mut Matrix::default());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_shape_checked() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }

    /// A draw as a matrix element: mostly ordinary values, often an exact
    /// `0.0` or `-0.0` (the skipped terms), sometimes NaN, an infinity or a
    /// subnormal.
    pub(crate) fn element((tag, v): (u8, f64)) -> f64 {
        match tag {
            0..=7 => 0.0,
            8..=11 => -0.0,
            12 => f64::NAN,
            13 => f64::INFINITY,
            14 => f64::NEG_INFINITY,
            15 | 16 => v * f64::MIN_POSITIVE / 4.0,
            _ => v,
        }
    }

    /// A `rows x cols` matrix from the front of `draws`.
    fn matrix(rows: usize, cols: usize, draws: &[(u8, f64)]) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            draws[..rows * cols].iter().map(|&d| element(d)).collect(),
        )
    }

    /// The bits of each element, every NaN as one pattern: Rust leaves the
    /// sign and payload of a NaN result unspecified (the compiler may
    /// commute an addition), so a NaN compares as NaN; every other value,
    /// signed zeros included, by its bits.
    pub(crate) fn bits(m: &[f64]) -> Vec<u64> {
        m.iter()
            .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
            .collect()
    }

    /// An output buffer that already holds NaNs in some other shape: the
    /// `_into` kernels must reshape it and overwrite every element.
    fn stale(shape: (usize, usize)) -> Matrix {
        Matrix::from_vec(shape.0, shape.1, vec![f64::NAN; shape.0 * shape.1])
    }

    #[test]
    fn an_empty_inner_dimension_leaves_the_start_values() {
        let (a, b) = (Matrix::zeros(3, 0), Matrix::zeros(0, 2));
        let mut product = stale((2, 2));
        a.matmul_into(&b, &mut product);
        assert_eq!(
            bits(product.as_slice()),
            bits(reference::matmul(&a, &b).as_slice())
        );
        let (a, c) = (Matrix::zeros(0, 3), Matrix::zeros(0, 2));
        let mut out = [f64::NAN; 6];
        a.t_matmul_into(&c, &mut out);
        assert_eq!(bits(&out), bits(reference::t_matmul(&a, &c).as_slice()));
        let (a, d) = (Matrix::zeros(3, 0), Matrix::zeros(2, 0));
        let (mut d_t, mut product) = (Matrix::default(), Matrix::default());
        d.transpose_into(&mut d_t);
        a.matmul_t_into(&d_t, &mut product);
        assert_eq!(
            bits(product.as_slice()),
            bits(reference::matmul_t(&a, &d).as_slice())
        );
        assert_eq!(product[(0, 0)].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn iterator_sum_starts_at_negative_zero() {
        // `matmul_t_into`'s sums start at -0.0 because `Iterator::sum` does:
        // an all-(-0.0) sum stays -0.0 only from that start.
        let sum: f64 = [-0.0f64, -0.0].iter().sum();
        assert_eq!(sum.to_bits(), (-0.0f64).to_bits());
    }

    /// `row_product` of `x` and an `x.len() x M` matrix from `draws` ≡ the
    /// reference row, masked, and unmasked where the matrix is finite; and
    /// the same for the matrix with its infinities and NaNs made finite.
    fn row_product_matches_reference<const M: usize>(x: &[f64], draws: &[(u8, f64)]) {
        let b = matrix(x.len(), M, draws);
        let finite: Vec<f64> = b
            .as_slice()
            .iter()
            .map(|v| if v.is_finite() { *v } else { 1.5 })
            .collect();
        let b_finite = Matrix::from_vec(x.len(), M, finite);
        for (rhs, finite) in [(&b, all_finite(b.as_slice())), (&b_finite, true)] {
            let mut expected = vec![0.0; M];
            reference::row_times(x, rhs, &mut expected);
            let rows = rhs.as_slice().as_chunks::<M>().0;
            let masked = row_product::<true, M>(x, rows);
            assert_eq!(bits(&masked), bits(&expected), "masked, width {M}");
            if finite {
                let unmasked = row_product::<false, M>(x, rows);
                assert_eq!(bits(&unmasked), bits(&expected), "unmasked, width {M}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each blocked kernel ≡ its one-loop reference, bit for bit, on
        /// every shape up to 20 in each dimension (tile and block edges
        /// included), with signed zeros, NaN, infinities and subnormals in
        /// both operands, writing into reused buffers of a stale shape.
        #[test]
        fn kernels_match_references_bitwise(
            n in 1usize..21,
            k in 1usize..21,
            m in 1usize..21,
            stale_shape in (0usize..21, 0usize..21),
            lhs_draws in vec((0u8..64, -3.0..3.0f64), 400),
            rhs_draws in vec((0u8..64, -3.0..3.0f64), 400),
        ) {
            let a = matrix(n, k, &lhs_draws);
            let b = matrix(k, m, &rhs_draws);
            let mut out = stale(stale_shape);
            a.matmul_into(&b, &mut out);
            prop_assert_eq!(bits(out.as_slice()), bits(reference::matmul(&a, &b).as_slice()));
            // A finite right operand takes the unmasked path.
            let b_finite = Matrix::from_vec(k, m, b.as_slice().iter().map(|v| if v.is_finite() { *v } else { 1.5 }).collect());
            a.matmul_into(&b_finite, &mut out);
            prop_assert_eq!(bits(out.as_slice()), bits(reference::matmul(&a, &b_finite).as_slice()));

            // a^T (k x n) * c (n x m), into a flat buffer of stale values.
            let c = matrix(n, m, &rhs_draws);
            let mut flat = vec![f64::NAN; k * m];
            a.t_matmul_into(&c, &mut flat);
            prop_assert_eq!(bits(&flat), bits(reference::t_matmul(&a, &c).as_slice()));
            let c_finite = Matrix::from_vec(n, m, c.as_slice().iter().map(|v| if v.is_finite() { *v } else { -0.5 }).collect());
            a.t_matmul_into(&c_finite, &mut flat);
            prop_assert_eq!(bits(&flat), bits(reference::t_matmul(&a, &c_finite).as_slice()));

            // a (n x k) * d^T, d (m x k), through a kept transpose.
            let d = matrix(m, k, &rhs_draws);
            let mut d_t = stale(stale_shape);
            d.transpose_into(&mut d_t);
            let mut out = stale(stale_shape);
            a.matmul_t_into(&d_t, &mut out);
            prop_assert_eq!(bits(out.as_slice()), bits(reference::matmul_t(&a, &d).as_slice()));

            // One row of a times a matrix of each width single-row
            // inference uses (16, 1) and one off the vector width (5).
            row_product_matches_reference::<16>(a.row(0), &rhs_draws);
            row_product_matches_reference::<5>(a.row(0), &rhs_draws);
            row_product_matches_reference::<1>(a.row(0), &rhs_draws);

            let mut sums = vec![f64::NAN; m];
            c.col_sums_into(&mut sums);
            prop_assert_eq!(bits(&sums), bits(&reference::col_sums(&c)));
        }
    }
}
