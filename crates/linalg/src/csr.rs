//! Compressed sparse row (CSR) storage and the kernels the sparse inference
//! engine runs on.
//!
//! A [`CsrMatrix`] stores a row-major sparse matrix as the classic triplet of
//! arrays (`row_ptr`, `col_idx`, `vals`). Column indices are `u32` — half the
//! footprint of `usize` on 64-bit targets, and transition matrices far beyond
//! `2^32` states are out of scope — and are kept in ascending order within
//! each row, which is what lets the sparse engine in `dhmm-hmm` reproduce the
//! dense engine's floating-point accumulation order bit for bit when nothing
//! is pruned.
//!
//! All buffers grow monotonically: [`CsrMatrix::begin`] resets the logical
//! contents but keeps the allocations, so recompiling a smaller matrix into a
//! workspace sized by a larger one performs no allocator traffic.

use crate::matrix::Matrix;

/// A row-major compressed-sparse-row matrix of `f64` values.
///
/// Built incrementally with [`begin`](CsrMatrix::begin) /
/// [`push`](CsrMatrix::push) / [`finish_row`](CsrMatrix::finish_row);
/// entries must be pushed in row order and, within a row, in ascending
/// column order (debug-asserted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx` / `vals`.
    row_ptr: Vec<usize>,
    /// Column index of each stored entry, ascending within a row.
    col_idx: Vec<u32>,
    /// Value of each stored entry.
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Creates an empty 0×0 matrix; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the matrix to an empty `rows × cols` shape, retaining buffer
    /// capacity from previous builds.
    pub fn begin(&mut self, rows: usize, cols: usize) {
        assert!(cols <= u32::MAX as usize, "CSR column index overflow");
        self.rows = rows;
        self.cols = cols;
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.col_idx.clear();
        self.vals.clear();
    }

    /// Appends one entry to the row currently being built.
    #[inline]
    pub fn push(&mut self, col: usize, val: f64) {
        debug_assert!(col < self.cols);
        debug_assert!(
            self.col_idx.len() == *self.row_ptr.last().unwrap()
                || *self.col_idx.last().unwrap() < col as u32,
            "CSR columns must be pushed in ascending order within a row"
        );
        self.col_idx.push(col as u32);
        self.vals.push(val);
    }

    /// Closes the row currently being built.
    #[inline]
    pub fn finish_row(&mut self) {
        debug_assert!(self.row_ptr.len() <= self.rows, "too many CSR rows");
        self.row_ptr.push(self.col_idx.len());
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Capacity currently reserved for entries (diagnostic; shows buffer
    /// reuse across rebuilds).
    pub fn capacity(&self) -> usize {
        self.vals.capacity()
    }

    /// The column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Scales the stored entries of row `i` by `factor` in place.
    pub fn scale_row(&mut self, i: usize, factor: f64) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        for v in &mut self.vals[lo..hi] {
            *v *= factor;
        }
    }

    /// `out[col] += scale * val` over the entries of row `i` — the scatter
    /// step of a sparse vector-matrix product `xᵀ·M` taken one source row at
    /// a time. Visiting source rows in ascending order reproduces the dense
    /// accumulation order per output column exactly.
    #[inline]
    pub fn axpy_row(&self, i: usize, scale: f64, out: &mut [f64]) {
        let (cols, vals) = self.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            out[c as usize] += scale * v;
        }
    }

    /// `Σ val * x[col]` over the entries of row `i` — one element of the
    /// matrix-vector product `M·x`, accumulated in ascending column order
    /// (the dense engine's order).
    #[inline]
    pub fn dot_row(&self, i: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row(i);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * x[c as usize];
        }
        acc
    }

    /// First-occurrence argmax of `x[col] * val` over the entries of row `i`,
    /// starting from `(0.0, 0)` — the max-product (Viterbi) kernel.
    ///
    /// The `(0.0, 0)` start is deliberate: the dense recursion initializes
    /// its running best to `-∞` and therefore always takes predecessor 0
    /// first even when every candidate is zero, which collapses to exactly
    /// this pair. Entries whose product is zero (beam-pruned predecessors)
    /// can never win under the strict `>`, so they are skipped for free.
    #[inline]
    pub fn argmax_product_row(&self, i: usize, x: &[f64]) -> (f64, usize) {
        let (cols, vals) = self.row(i);
        let mut best = 0.0_f64;
        let mut best_idx = 0usize;
        for (&c, &v) in cols.iter().zip(vals) {
            let s = x[c as usize] * v;
            if s > best {
                best = s;
                best_idx = c as usize;
            }
        }
        (best, best_idx)
    }

    /// Rebuilds `self` as the transpose of `src`, reusing buffers: once they
    /// have grown to `src`'s size it allocates nothing. Entries within each
    /// output row come out in ascending column order because `src` is
    /// scanned in row order.
    pub fn transpose_from(&mut self, src: &CsrMatrix) {
        assert!(src.rows <= u32::MAX as usize, "CSR column index overflow");
        self.rows = src.cols;
        self.cols = src.rows;
        // Count entries per output row (= per source column).
        self.row_ptr.clear();
        self.row_ptr.resize(self.rows + 1, 0);
        for &c in &src.col_idx {
            self.row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.rows {
            self.row_ptr[i + 1] += self.row_ptr[i];
        }
        let nnz = src.nnz();
        self.col_idx.clear();
        self.col_idx.resize(nnz, 0);
        self.vals.clear();
        self.vals.resize(nnz, 0.0);
        // Scatter pass: `row_ptr[c]` serves as output row `c`'s next free
        // slot, which leaves it at the start of row `c + 1`; shifting the
        // offsets up by one row restores them.
        for r in 0..src.rows {
            let (cols, vals) = src.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = self.row_ptr[c as usize];
                self.col_idx[slot] = r as u32;
                self.vals[slot] = v;
                self.row_ptr[c as usize] += 1;
            }
        }
        self.row_ptr.copy_within(..self.rows, 1);
        self.row_ptr[0] = 0;
    }

    /// Materializes the matrix densely (tests and oracles).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let row = m.row_mut(i);
            for (&c, &v) in cols.iter().zip(vals) {
                row[c as usize] = v;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut m = CsrMatrix::new();
        m.begin(3, 3);
        m.push(0, 1.0);
        m.push(2, 2.0);
        m.finish_row();
        m.finish_row();
        m.push(0, 3.0);
        m.push(1, 4.0);
        m.finish_row();
        m
    }

    #[test]
    fn builds_and_reads_rows() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
        assert_eq!(m.row(2), (&[0u32, 1][..], &[3.0, 4.0][..]));
    }

    #[test]
    fn kernels_match_dense() {
        let m = sample();
        let x = [2.0, 5.0, 7.0];
        // dot_row: M·x
        assert_eq!(m.dot_row(0, &x), 1.0 * 2.0 + 2.0 * 7.0);
        assert_eq!(m.dot_row(1, &x), 0.0);
        // axpy_row: out[col] += s * val
        let mut out = [0.0; 3];
        m.axpy_row(2, 2.0, &mut out);
        assert_eq!(out, [6.0, 8.0, 0.0]);
        // argmax_product_row with first-occurrence ties and (0, 0) start.
        assert_eq!(m.argmax_product_row(0, &x), (14.0, 2));
        assert_eq!(m.argmax_product_row(1, &x), (0.0, 0));
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let mut t = CsrMatrix::new();
        t.transpose_from(&m);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), (&[0u32, 2][..], &[1.0, 3.0][..]));
        assert_eq!(t.row(1), (&[2u32][..], &[4.0][..]));
        assert_eq!(t.row(2), (&[0u32][..], &[2.0][..]));
        let mut back = CsrMatrix::new();
        back.transpose_from(&t);
        assert_eq!(back, m);
    }

    #[test]
    fn begin_reuses_buffers() {
        let mut m = sample();
        let cap = m.capacity();
        m.begin(2, 2);
        m.push(1, 9.0);
        m.finish_row();
        m.finish_row();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.rows(), 2);
        assert!(m.capacity() >= 1);
        assert_eq!(m.capacity(), cap, "begin() must retain allocations");
        assert_eq!(m.row(0), (&[1u32][..], &[9.0][..]));
    }
}
