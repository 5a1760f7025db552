//! Row-major dense matrix of `f64` values.
//!
//! [`Matrix`] is the workhorse container of the workspace: transition
//! matrices, DPP kernel matrices, emission tables and confusion matrices are
//! all `Matrix` values. It deliberately stays small and predictable — a
//! `Vec<f64>` plus a shape — so that the numerical code in the other crates
//! reads close to the equations in the paper.

use crate::error::LinalgError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Output rows per register tile of the GEMM and Gram kernels.
const TILE_ROWS: usize = 4;
/// Output columns per register tile of [`Matrix::matmul_into`]: a 4 × 8
/// tile advances 32 independent sums.
const GEMM_TILE_COLS: usize = 8;
/// Output columns per register tile of [`Matrix::gram_into`]. Its
/// operands are rows of the same matrix, so a wider tile only adds strided
/// loads.
const GRAM_TILE_COLS: usize = 4;

/// A dense, row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with zeros.
    ///
    /// # Panics
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from nested row slices.
    ///
    /// Returns an error if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty {
                op: "Matrix::from_rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::ShapeMismatch {
                    op: "Matrix::from_rows",
                    left: (rows.len(), cols),
                    right: (1, row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Self::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Builds a matrix by calling `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns entry `(i, j)` with bounds checking.
    pub fn get(&self, i: usize, j: usize) -> Result<f64, LinalgError> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Sets entry `(i, j)` with bounds checking.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<(), LinalgError> {
        if i >= self.rows || j >= self.cols {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, j),
                shape: self.shape(),
            });
        }
        self.data[i * self.cols + j] = value;
        Ok(())
    }

    /// Immutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Replaces row `i` with the values in `values`.
    ///
    /// Returns an error if the length does not match the number of columns.
    pub fn set_row(&mut self, i: usize, values: &[f64]) -> Result<(), LinalgError> {
        if values.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::set_row",
                left: (1, self.cols),
                right: (1, values.len()),
            });
        }
        if i >= self.rows {
            return Err(LinalgError::IndexOutOfBounds {
                index: (i, 0),
                shape: self.shape(),
            });
        }
        self.row_mut(i).copy_from_slice(values);
        Ok(())
    }

    /// Iterator over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t)
            .expect("shape matches by construction");
        t
    }

    /// Writes the transpose of the matrix into `out` without allocating.
    ///
    /// `out` must already have shape `(self.cols, self.rows)`. This is the
    /// pre-transposed-layout entry point for kernels that want a row-major
    /// traversal of `self`'s columns (e.g. a batched Viterbi step reading
    /// transition *predecessors* contiguously); each entry is copied
    /// exactly, so downstream products are bit-identical to indexing the
    /// original.
    pub fn transpose_into(&self, out: &mut Matrix) -> Result<(), LinalgError> {
        if out.shape() != (self.cols, self.rows) {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_into",
                left: (self.cols, self.rows),
                right: out.shape(),
            });
        }
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        Ok(())
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a_ik = self[(i, k)];
                if a_ik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a_ik * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `self * other` written into `out` without allocating.
    ///
    /// `out` must already have shape `(self.rows, other.cols)`; its previous
    /// contents are overwritten. The kernel advances 4 × 8 tiles of output
    /// entries together in registers, and each entry accumulates its
    /// products from `+0.0` in ascending inner index, as the naive i–k–j
    /// loop of [`Matrix::matmul`] does. `matmul` skips a zero `self` entry
    /// and this kernel does not, but with finite operands the skipped
    /// product is an exact ±0, which never changes a sum that starts at
    /// `+0.0`. So for finite operands the two are bit-identical.
    ///
    /// Always inlined, so a caller compiled for wider vector registers
    /// (the M-step's AVX2 ascent) runs the tiles in them.
    #[inline(always)]
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) -> Result<(), LinalgError> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into",
                left: self.shape(),
                right: other.shape(),
            });
        }
        if out.shape() != (self.rows, other.cols) {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_into (output)",
                left: (self.rows, other.cols),
                right: out.shape(),
            });
        }
        let n = other.cols;
        if n == 0 {
            return Ok(());
        }
        let mut blocks = out.data.chunks_exact_mut(TILE_ROWS * n);
        let mut i0 = 0;
        for block in &mut blocks {
            matmul_rows::<TILE_ROWS>(self, other, i0, block);
            i0 += TILE_ROWS;
        }
        for row in blocks.into_remainder().chunks_exact_mut(n) {
            matmul_rows::<1>(self, other, i0, row);
            i0 += 1;
        }
        Ok(())
    }

    /// Gram matrix `self · selfᵀ` written into `out` without allocating.
    ///
    /// Entry `(i, j)` is the dot product of rows `i` and `j`, summed in
    /// ascending column order from `-0.0` exactly as
    /// `row_i.iter().zip(row_j).map(|(x, y)| x * y).sum::<f64>()` sums it,
    /// so the result is bit-identical to that loop. The kernel advances
    /// 4 × 4 tiles of these dot products together in registers and computes
    /// only the tiles on or below the diagonal. It then mirrors the lower
    /// triangle into the upper one, which is exact because `x·y == y·x` in
    /// IEEE arithmetic. `out` must already have shape
    /// `(self.rows, self.rows)`. The DPP kernel `S = P·Pᵀ` is the caller;
    /// like [`Matrix::matmul_into`], this is always inlined.
    #[inline(always)]
    pub fn gram_into(&self, out: &mut Matrix) -> Result<(), LinalgError> {
        let n = self.rows;
        if out.shape() != (n, n) {
            return Err(LinalgError::ShapeMismatch {
                op: "gram_into (output)",
                left: (n, n),
                right: out.shape(),
            });
        }
        if n == 0 {
            return Ok(());
        }
        let mut blocks = out.data.chunks_exact_mut(TILE_ROWS * n);
        let mut i0 = 0;
        for block in &mut blocks {
            gram_rows::<TILE_ROWS>(self, i0, block);
            i0 += TILE_ROWS;
        }
        for row in blocks.into_remainder().chunks_exact_mut(n) {
            gram_rows::<1>(self, i0, row);
            i0 += 1;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                out.data[i * n + j] = out.data[j * n + i];
            }
        }
        Ok(())
    }

    /// Copies every entry of `other` into `self` without reallocating.
    ///
    /// Returns an error if the shapes differ.
    #[inline]
    pub fn copy_from(&mut self, other: &Matrix) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "copy_from",
                left: self.shape(),
                right: other.shape(),
            });
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Vector–matrix product `v^T * self` returned as a vector.
    pub fn vecmat(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != v.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "vecmat",
                left: (1, v.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Element-wise map, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise map in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Scales every entry by `s`, returning a new matrix.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "hadamard",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a * b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Sum of each row.
    pub fn row_sums(&self) -> Vec<f64> {
        self.iter_rows().map(|r| r.iter().sum()).collect()
    }

    /// Sum of each column.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.iter_rows() {
            for (j, &v) in row.iter().enumerate() {
                out[j] += v;
            }
        }
        out
    }

    /// Trace (sum of diagonal entries) of a square matrix.
    pub fn trace(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry. Returns 0 for an empty matrix.
    #[inline]
    pub fn max_abs(&self) -> f64 {
        // A plain loop rather than a fold: the M-step's AVX2 ascent inlines
        // this, and an iterator adapter's closure may stay out of line.
        let mut max = 0.0_f64;
        for x in &self.data {
            max = max.max(x.abs());
        }
        max
    }

    /// Squared Frobenius distance `‖self − other‖²_F`, as used by the
    /// supervised dHMM objective term `α_A ‖A − A0‖²`.
    #[inline]
    pub fn squared_distance(&self, other: &Matrix) -> Result<f64, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "squared_distance",
                left: self.shape(),
                right: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Normalizes every row to sum to one (rows that sum to zero become the
    /// uniform distribution). Used to keep transition/emission tables row
    /// stochastic after count-based updates.
    pub fn normalize_rows(&mut self) {
        let cols = self.cols;
        for row in self.data.chunks_exact_mut(cols.max(1)) {
            let s: f64 = row.iter().sum();
            if s > 0.0 {
                for v in row.iter_mut() {
                    *v /= s;
                }
            } else if cols > 0 {
                let u = 1.0 / cols as f64;
                for v in row.iter_mut() {
                    *v = u;
                }
            }
        }
    }

    /// `true` if every row sums to one within `tol` and all entries are
    /// non-negative; i.e. the matrix is row stochastic.
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        self.iter_rows().all(|row| {
            row.iter().all(|&v| v >= -tol) && (row.iter().sum::<f64>() - 1.0).abs() <= tol
        })
    }

    /// `true` if all entries are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        // A plain loop for the same reason as in `max_abs`.
        for v in &self.data {
            if !v.is_finite() {
                return false;
            }
        }
        true
    }

    /// `true` if the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Returns a sub-matrix restricted to the given row and column indices
    /// (in the order given). This is the `K_Y` restriction operation used by
    /// DPP marginals.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Result<Matrix, LinalgError> {
        for &i in row_idx {
            if i >= self.rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (i, 0),
                    shape: self.shape(),
                });
            }
        }
        for &j in col_idx {
            if j >= self.cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: (0, j),
                    shape: self.shape(),
                });
            }
        }
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            for (oj, &j) in col_idx.iter().enumerate() {
                out[(oi, oj)] = self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Returns the principal sub-matrix indexed by `idx` on both axes.
    pub fn principal_submatrix(&self, idx: &[usize]) -> Result<Matrix, LinalgError> {
        self.submatrix(idx, idx)
    }

    /// Checks that two matrices are element-wise equal within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

/// Output rows `i0..i0 + R` of `a · b`, written into `out` (`R × b.cols`).
#[inline(always)]
fn matmul_rows<const R: usize>(a: &Matrix, b: &Matrix, i0: usize, out: &mut [f64]) {
    let n = b.cols;
    let mut j0 = 0;
    while j0 + GEMM_TILE_COLS <= n {
        store_tile(out, n, j0, &matmul_tile::<R, GEMM_TILE_COLS>(a, b, i0, j0));
        j0 += GEMM_TILE_COLS;
    }
    for j in j0..n {
        store_tile(out, n, j, &matmul_tile::<R, 1>(a, b, i0, j));
    }
}

/// One `R × C` tile of `a · b` at `(i0, j0)`: every entry sums its
/// products from `+0.0` in ascending inner index, the op order of the
/// naive i–k–j loop, while the tile's `R·C` chains advance together.
#[inline(always)]
fn matmul_tile<const R: usize, const C: usize>(
    a: &Matrix,
    b: &Matrix,
    i0: usize,
    j0: usize,
) -> [[f64; C]; R] {
    let a_rows = tile_rows::<R>(a, i0);
    let mut acc = [[0.0; C]; R];
    for (t, b_row) in b.data.chunks_exact(b.cols).enumerate() {
        let y = &b_row[j0..j0 + C];
        for r in 0..R {
            let x = a_rows[r][t];
            for c in 0..C {
                acc[r][c] += x * y[c];
            }
        }
    }
    acc
}

/// Gram rows `i0..i0 + R`, columns `0..i0 + R` (every entry on or below
/// the diagonal, plus the upper part of the diagonal tiles), written into
/// `out` (`R × a.rows`).
#[inline(always)]
fn gram_rows<const R: usize>(a: &Matrix, i0: usize, out: &mut [f64]) {
    let n = a.rows;
    let end = i0 + R;
    let mut j0 = 0;
    while j0 + GRAM_TILE_COLS <= end {
        store_tile(out, n, j0, &gram_tile::<R, GRAM_TILE_COLS>(a, i0, j0));
        j0 += GRAM_TILE_COLS;
    }
    for j in j0..end {
        store_tile(out, n, j, &gram_tile::<R, 1>(a, i0, j));
    }
}

/// One `R × C` tile of `a · aᵀ` at `(i0, j0)`: every entry is a dot
/// product of two rows summed from `-0.0` in ascending column order (the
/// fold `Iterator::sum` performs), while the tile's `R·C` chains advance
/// together.
#[inline(always)]
fn gram_tile<const R: usize, const C: usize>(a: &Matrix, i0: usize, j0: usize) -> [[f64; C]; R] {
    let (x_rows, y_rows) = (tile_rows::<R>(a, i0), tile_rows::<C>(a, j0));
    let mut acc = [[-0.0; C]; R];
    for t in 0..a.cols {
        let mut y = [0.0; C];
        for (y, row) in y.iter_mut().zip(&y_rows) {
            *y = row[t];
        }
        for r in 0..R {
            let x = x_rows[r][t];
            for c in 0..C {
                acc[r][c] += x * y[c];
            }
        }
    }
    acc
}

/// Rows `i0..i0 + R` of `a`. A plain loop rather than
/// `std::array::from_fn`, whose closure LLVM may leave out of line, and
/// then compiled without the caller's target features.
#[inline(always)]
fn tile_rows<const R: usize>(a: &Matrix, i0: usize) -> [&[f64]; R] {
    let mut rows: [&[f64]; R] = [&[]; R];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = &a.data[(i0 + r) * a.cols..(i0 + r + 1) * a.cols];
    }
    rows
}

/// Writes an `R × C` tile into columns `j0..j0 + C` of the first `R` rows
/// of the row-major block `out` (row stride `n`).
#[inline(always)]
fn store_tile<const R: usize, const C: usize>(
    out: &mut [f64],
    n: usize,
    j0: usize,
    tile: &[[f64; C]; R],
) {
    for (r, row) in tile.iter().enumerate() {
        out[r * n + j0..r * n + j0 + C].copy_from_slice(row);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "matrix subtraction shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for row in self.iter_rows() {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.6}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.trace().unwrap(), 6.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn from_fn_builds_expected_entries() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn indexing_and_get_set() {
        let mut m = sample();
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.get(1, 2).unwrap(), 6.0);
        assert!(m.get(2, 0).is_err());
        m.set(0, 0, 9.0).unwrap();
        assert_eq!(m[(0, 0)], 9.0);
        assert!(m.set(0, 5, 1.0).is_err());
    }

    #[test]
    fn rows_and_cols_views() {
        let m = sample();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        let rows: Vec<&[f64]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn set_row_validates_length() {
        let mut m = sample();
        assert!(m.set_row(0, &[7.0, 8.0, 9.0]).is_ok());
        assert_eq!(m.row(0), &[7.0, 8.0, 9.0]);
        assert!(m.set_row(0, &[1.0]).is_err());
        assert!(m.set_row(5, &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn transpose_into_reuses_the_output_and_checks_shape() {
        let m = sample(); // 2x3
        let mut out = Matrix::zeros(3, 2);
        m.transpose_into(&mut out).unwrap();
        assert!(out.approx_eq(&m.transpose(), 0.0));
        let mut wrong = Matrix::zeros(2, 3);
        assert!(m.transpose_into(&mut wrong).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap(); // 3x2
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 4.0);
        assert_eq!(c[(0, 1)], 5.0);
        assert_eq!(c[(1, 0)], 10.0);
        assert_eq!(c[(1, 1)], 11.0);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let expected = a.matmul(&b).unwrap();
        let mut out = Matrix::filled(2, 2, f64::NAN);
        a.matmul_into(&b, &mut out).unwrap();
        assert!(out.approx_eq(&expected, 0.0));
        // Shape errors: inner mismatch and wrong output shape.
        assert!(a.matmul_into(&a, &mut out).is_err());
        assert!(a.matmul_into(&b, &mut Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn gram_into_matches_matmul_with_transpose() {
        let a = sample(); // 2x3
        let mut gram = Matrix::filled(2, 2, f64::NAN);
        a.gram_into(&mut gram).unwrap();
        assert!(gram.approx_eq(&a.matmul(&a.transpose()).unwrap(), 1e-12));
        assert!(gram.is_symmetric(0.0));
        assert_eq!(gram[(0, 1)], 32.0);
        // Shape errors.
        assert!(a.gram_into(&mut Matrix::zeros(3, 3)).is_err());
        assert!(a.gram_into(&mut Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn blocked_gemm_and_gram_are_bit_identical_to_naive() {
        // Shapes with ragged tile tails on every axis, including an
        // exact-zero entry the naive product skips: both kernels must agree
        // with the naive product bit for bit.
        let mut a = Matrix::from_fn(37, 73, |i, j| ((i * 31 + j * 7) % 23) as f64 / 11.0 - 1.0);
        a[(5, 5)] = 0.0;
        let b = Matrix::from_fn(73, 269, |i, j| ((i * 13 + j * 3) % 17) as f64 / 7.0 - 1.2);
        let mut out = Matrix::filled(37, 269, f64::NAN);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(bits(&out), bits(&a.matmul(&b).unwrap()));
        let mut gram = Matrix::filled(37, 37, f64::NAN);
        a.gram_into(&mut gram).unwrap();
        assert_eq!(bits(&gram), bits(&a.matmul(&a.transpose()).unwrap()));
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Entries in `[-1, 1)` with exact zeros of both signs mixed in.
    fn signed_input(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..1.0),
        })
    }

    /// The plain i–j–k product loop, each entry summed from `+0.0`.
    fn scalar_product(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut s = 0.0;
            for t in 0..a.cols() {
                s += a[(i, t)] * b[(t, j)];
            }
            s
        })
    }

    /// The plain row-dot Gram loop, each entry folded by `Iterator::sum`.
    fn scalar_gram(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), a.rows(), |i, j| {
            a.row(i).iter().zip(a.row(j)).map(|(x, y)| x * y).sum()
        })
    }

    /// The tiled GEMM and Gram kernels reproduce plain scalar loops bit for
    /// bit, on every tile and tail split up to k = 70 and at k = 128, with
    /// negative entries and exact zeros of both signs.
    #[test]
    fn tiled_gemm_and_gram_match_scalar_loops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6e44);
        for k in (1..=70).chain([128]) {
            let d = if k % 3 == 0 { k / 3 + 1 } else { k + 3 };
            let v = signed_input(k, k, &mut rng);
            let p = signed_input(k, d, &mut rng);
            let mut out = Matrix::filled(k, d, f64::NAN);
            v.matmul_into(&p, &mut out).unwrap();
            assert_eq!(bits(&out), bits(&scalar_product(&v, &p)), "gemm k={k}");
            let mut s = Matrix::filled(k, k, f64::NAN);
            p.gram_into(&mut s).unwrap();
            assert_eq!(bits(&s), bits(&scalar_gram(&p)), "gram k={k}");
        }
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let a = sample();
        let mut b = Matrix::zeros(2, 3);
        b.copy_from(&a).unwrap();
        assert!(b.approx_eq(&a, 0.0));
        assert!(b.copy_from(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = sample();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![6.0, 15.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0]).is_err());
    }

    #[test]
    fn elementwise_operations() {
        let a = sample();
        let doubled = a.scale(2.0);
        assert_eq!(doubled[(1, 2)], 12.0);
        let squared = a.map(|x| x * x);
        assert_eq!(squared[(1, 2)], 36.0);
        let h = a.hadamard(&a).unwrap();
        assert!(h.approx_eq(&squared, 1e-12));
        let sum = &a + &a;
        assert!(sum.approx_eq(&doubled, 1e-12));
        let diff = &sum - &a;
        assert!(diff.approx_eq(&a, 1e-12));
        let scaled = &a * 3.0;
        assert_eq!(scaled[(0, 0)], 3.0);
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.row_sums(), vec![6.0, 15.0]);
        assert_eq!(a.col_sums(), vec![5.0, 7.0, 9.0]);
        assert!((a.frobenius_norm() - (91.0_f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.max_abs(), 6.0);
        assert!(a.trace().is_err());
        assert_eq!(Matrix::identity(3).trace().unwrap(), 3.0);
    }

    #[test]
    fn squared_distance_matches_frobenius() {
        let a = sample();
        let b = a.scale(2.0);
        let d = a.squared_distance(&b).unwrap();
        assert!((d - a.map(|x| x * x).sum()).abs() < 1e-12);
        assert!(a.squared_distance(&Matrix::zeros(1, 1)).is_err());
    }

    #[test]
    fn normalize_rows_makes_stochastic() {
        let mut m = Matrix::from_rows(&[vec![2.0, 2.0], vec![0.0, 0.0], vec![1.0, 3.0]]).unwrap();
        m.normalize_rows();
        assert!(m.is_row_stochastic(1e-12));
        assert_eq!(m.row(0), &[0.5, 0.5]);
        assert_eq!(m.row(1), &[0.5, 0.5]);
        assert_eq!(m.row(2), &[0.25, 0.75]);
    }

    #[test]
    fn stochastic_check_rejects_negative_entries() {
        let m = Matrix::from_rows(&[vec![1.5, -0.5]]).unwrap();
        assert!(!m.is_row_stochastic(1e-9));
    }

    #[test]
    fn symmetry_and_finiteness() {
        let sym = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 3.0]]).unwrap();
        assert!(sym.is_symmetric(1e-12));
        assert!(!sample().is_symmetric(1e-12));
        assert!(sym.is_finite());
        let mut bad = sym.clone();
        bad[(0, 0)] = f64::NAN;
        assert!(!bad.is_finite());
    }

    #[test]
    fn submatrix_extracts_requested_entries() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(&[0, 2], &[1, 3]).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 1.0);
        assert_eq!(s[(1, 1)], 11.0);
        let p = m.principal_submatrix(&[1, 3]).unwrap();
        assert_eq!(p[(0, 0)], 5.0);
        assert_eq!(p[(1, 1)], 15.0);
        assert!(m.submatrix(&[9], &[0]).is_err());
        assert!(m.submatrix(&[0], &[9]).is_err());
    }

    #[test]
    fn display_contains_entries() {
        let m = sample();
        let s = format!("{m}");
        assert!(s.contains("Matrix 2x3"));
        assert!(s.contains("1.000000"));
    }
}
