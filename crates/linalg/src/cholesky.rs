//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! The normalized probability-product kernel matrix `K̃_A` of the dHMM prior
//! is symmetric positive semi-definite. When the rows of the transition
//! matrix are nearly identical (the degenerate regime the prior is designed
//! to escape), the kernel matrix becomes nearly singular; the jittered
//! variant [`Cholesky::new_with_jitter`] adds a small diagonal ridge so that
//! `log|K̃_A|` and its gradient stay finite.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// Lower-triangular Cholesky factor `L` such that `A = L·Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// The diagonal jitter that had to be added (0.0 if none).
    jitter: f64,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if a non-positive pivot
    /// is encountered.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::factor(a, 0.0)
    }

    /// Factorizes a symmetric positive semi-definite matrix, adding an
    /// increasing diagonal jitter (starting at `initial_jitter`, multiplied
    /// by 10 up to `max_attempts` times) until the factorization succeeds.
    pub fn new_with_jitter(
        a: &Matrix,
        initial_jitter: f64,
        max_attempts: usize,
    ) -> Result<Self, LinalgError> {
        match Self::factor(a, 0.0) {
            Ok(c) => return Ok(c),
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e),
        }
        let mut jitter = initial_jitter.max(f64::MIN_POSITIVE);
        let mut last_err = LinalgError::NotPositiveDefinite { index: 0 };
        for _ in 0..max_attempts {
            match Self::factor(a, jitter) {
                Ok(c) => return Ok(c),
                Err(e @ LinalgError::NotPositiveDefinite { .. }) => {
                    last_err = e;
                    jitter *= 10.0;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    fn factor(a: &Matrix, jitter: f64) -> Result<Self, LinalgError> {
        let mut l = Matrix::zeros(a.rows(), a.cols());
        factor_into(a, jitter, &mut l)?;
        Ok(Self { l, jitter })
    }

    /// The lower-triangular factor `L`.
    pub fn factor_l(&self) -> &Matrix {
        &self.l
    }

    /// The diagonal jitter that was added to make the factorization succeed.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Size of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Log-determinant of the original matrix: `2·Σ log L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        self.log_determinant().exp()
    }

    /// Solves `A·x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "Cholesky::solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward: L·y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = b[i];
            for (j, &yj) in y[..i].iter().enumerate() {
                v -= self.l[(i, j)] * yj;
            }
            y[i] = v / self.l[(i, i)];
        }
        // Backward: Lᵀ·x = y.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut v = y[i];
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                v -= self.l[(j, i)] * xj;
            }
            x[i] = v / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Inverse of the original matrix.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for col in 0..n {
            e[col] = 1.0;
            let x = self.solve(&e)?;
            for row in 0..n {
                inv[(row, col)] = x[row];
            }
            e[col] = 0.0;
        }
        Ok(inv)
    }
}

/// Factors `a + jitter·I = L·Lᵀ` into the caller-owned buffer `l` without
/// allocating.
///
/// `l` must already have the same (square) shape as `a`; only its lower
/// triangle is written (the strict upper triangle is left untouched, so
/// callers must not read it). [`Cholesky::new`] and
/// [`Cholesky::new_with_jitter`] run this same kernel.
///
/// Entry `(i, j)` starts at `a[(i, j)]` (plus `jitter` on the diagonal),
/// subtracts `l[(i, t)]·l[(j, t)]` for ascending `t < j`, and is then
/// square-rooted (diagonal) or divided by `l[(j, j)]`. The kernel works
/// column by column: the diagonal entry first, then four rows of the
/// column below it in lockstep, so four independent subtraction chains
/// advance together while each keeps that op order. A pivot that is not
/// positive and finite stops the factorization with
/// [`LinalgError::NotPositiveDefinite`] naming the first such row.
///
/// Always inlined, so a caller compiled for wider vector registers (the
/// M-step's AVX2 ascent) runs the kernel in them.
#[inline(always)]
pub fn factor_into(a: &Matrix, jitter: f64, l: &mut Matrix) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if l.shape() != a.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky::factor_into",
            left: a.shape(),
            right: l.shape(),
        });
    }
    let n = a.rows();
    let data = l.as_mut_slice();
    for j in 0..n {
        // Row `j` holds columns `< j` of the factor; the rows below it are
        // written one column at a time.
        let (above, below) = data.split_at_mut((j + 1) * n);
        let lj = &mut above[j * n..(j + 1) * n];
        let mut s = a[(j, j)] + jitter;
        for &x in &lj[..j] {
            s -= x * x;
        }
        if s <= 0.0 || !s.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { index: j });
        }
        lj[j] = s.sqrt();
        let (lj, pivot) = (&lj[..j], lj[j]);
        let mut blocks = below.chunks_exact_mut(LOCKSTEP * n);
        let mut i = j + 1;
        for block in &mut blocks {
            factor_column_rows::<LOCKSTEP>(a, lj, pivot, i, block);
            i += LOCKSTEP;
        }
        for row in blocks.into_remainder().chunks_exact_mut(n) {
            factor_column_rows::<1>(a, lj, pivot, i, row);
            i += 1;
        }
    }
    Ok(())
}

/// Rows of a column advanced together by the factorization. Four scalar
/// chains already keep both floating-point ports busy, and wider registers
/// do not help: the rows' operands sit a row apart, so nothing vectorizes.
/// The inverse lays its right-hand sides out side by side instead (see
/// [`INVERSE_LANES`]).
const LOCKSTEP: usize = 4;

/// Right-hand sides [`spd_inverse_rows_from_factor`] solves together, as the
/// contiguous lanes of each row of an `n × INVERSE_LANES` buffer: two AVX2
/// vectors, or four SSE2 ones.
pub const INVERSE_LANES: usize = 8;

/// Column `j = lj.len()` of factor rows `i0..i0 + R`, held in `rows`
/// (`R × n`, columns `< j` already final).
#[inline(always)]
fn factor_column_rows<const R: usize>(
    a: &Matrix,
    lj: &[f64],
    pivot: f64,
    i0: usize,
    rows: &mut [f64],
) {
    let (j, n) = (lj.len(), a.cols());
    let mut s = [0.0; R];
    for (r, s) in s.iter_mut().enumerate() {
        *s = a[(i0 + r, j)];
    }
    {
        // Plain loops rather than `std::array::from_fn`, whose closure LLVM
        // may leave out of line, and then compiled without the caller's
        // target features.
        let mut li: [&[f64]; R] = [&[]; R];
        for (r, li) in li.iter_mut().enumerate() {
            *li = &rows[r * n..r * n + j];
        }
        for (t, &y) in lj.iter().enumerate() {
            for r in 0..R {
                s[r] -= li[r][t] * y;
            }
        }
    }
    for (r, &v) in s.iter().enumerate() {
        rows[r * n + j] = v / pivot;
    }
}

/// Log-determinant `2·Σ log L_ii` read off a factor produced by
/// [`factor_into`] (or [`Cholesky::factor_l`]).
#[inline(always)]
pub fn log_det_from_factor(l: &Matrix) -> f64 {
    // The fold `Iterator::sum` performs, from `-0.0`, as a plain loop.
    let mut sum = -0.0;
    for i in 0..l.rows() {
        sum += l[(i, i)].ln();
    }
    sum * 2.0
}

/// Inverse of the factored SPD matrix, written into `inv` row by row.
///
/// Row `r` of the output is the solution of `A·x = e_r`: a column of the
/// inverse stored as a row, which is the same matrix because the inverse
/// of an SPD matrix is symmetric.
///
/// The right-hand sides are solved [`INVERSE_LANES`] at a time in `lanes`,
/// an `n × INVERSE_LANES` buffer in which solution `q` of a block is column
/// `q`, so each step of either triangular solve reads one factor entry and
/// updates one contiguous row of lanes. Every entry keeps the subtractions
/// of its own column-wise solve, in the same order. A block's forward
/// solves start at its first right-hand side, so a later one also
/// subtracts products with its own leading exact zeros first. Those
/// products are exact ±0 (the factor is finite), which leave a sum that
/// starts at `+0.0` or `1.0` unchanged, so every row keeps the bits of its
/// own solve. The last block's unused lanes solve for zero and are not
/// written out. Nothing `lanes` held before the call is read.
///
/// `l` is a factor produced by [`factor_into`]; only its lower triangle is
/// read. This is the "one factorization, two uses" read-out of the fused
/// DPP M-step engine: the same factor yields both the log-determinant and
/// the inverse without a second `O(k³)` decomposition. Always inlined, like
/// [`factor_into`].
#[inline(always)]
pub fn spd_inverse_rows_from_factor(
    l: &Matrix,
    inv: &mut Matrix,
    lanes: &mut [f64],
) -> Result<(), LinalgError> {
    let n = l.rows();
    if inv.shape() != l.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky::spd_inverse_rows_from_factor",
            left: l.shape(),
            right: inv.shape(),
        });
    }
    if lanes.len() != n * INVERSE_LANES {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky::spd_inverse_rows_from_factor (lanes)",
            left: (n, INVERSE_LANES),
            right: (lanes.len(), 1),
        });
    }
    let (ld, out) = (l.as_slice(), inv.as_mut_slice());
    let mut r0 = 0;
    while r0 < n {
        solve_unit_lanes(ld, n, r0, lanes);
        for (q, row) in out[r0 * n..]
            .chunks_exact_mut(n)
            .take(INVERSE_LANES)
            .enumerate()
        {
            for (o, x) in row.iter_mut().zip(lanes.chunks_exact(INVERSE_LANES)) {
                *o = x[q];
            }
        }
        r0 += INVERSE_LANES;
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = e_{r0 + q}` for every lane `q < INVERSE_LANES`, each
/// solution in column `q` of `x` (`n × INVERSE_LANES`, row-major, `ld` the
/// factor's row-major data). A lane with `r0 + q ≥ n` solves for zero.
#[inline(always)]
fn solve_unit_lanes(ld: &[f64], n: usize, r0: usize, x: &mut [f64]) {
    const W: usize = INVERSE_LANES;
    // Forward: L·y = e_r. Rows above `r0` solve to exactly zero.
    x[..r0 * W].fill(0.0);
    for i in r0..n {
        let (solved, rest) = x.split_at_mut(i * W);
        let mut v = [0.0; W];
        if i - r0 < W {
            v[i - r0] = 1.0;
        }
        for (&lij, xj) in ld[i * n + r0..i * n + i]
            .iter()
            .zip(solved[r0 * W..].chunks_exact(W))
        {
            for (v, &xj) in v.iter_mut().zip(xj) {
                *v -= lij * xj;
            }
        }
        let lii = ld[i * n + i];
        for (xi, v) in rest[..W].iter_mut().zip(v) {
            *xi = v / lii;
        }
    }
    // Backward: Lᵀ·x = y, in place — rows below `i` already hold the final
    // solution while row `i` still holds the forward value.
    for i in (0..n).rev() {
        let (head, below) = x.split_at_mut((i + 1) * W);
        let xi = &mut head[i * W..];
        let mut v = [0.0; W];
        v.copy_from_slice(xi);
        for (t, xj) in below.chunks_exact(W).enumerate() {
            // Column `i` of the factor below the diagonal.
            let lji = ld[(i + 1 + t) * n + i];
            for (v, &xj) in v.iter_mut().zip(xj) {
                *v -= lji * xj;
            }
        }
        let lii = ld[i * n + i];
        for (xi, v) in xi.iter_mut().zip(v) {
            *xi = v / lii;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spd() -> Matrix {
        // A = M·Mᵀ + I is symmetric positive definite.
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![0.0, 1.0, 1.0],
            vec![2.0, 0.0, 1.0],
        ])
        .unwrap();
        let mut a = m.matmul(&m.transpose()).unwrap();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn reconstruction() {
        let a = spd();
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.factor_l();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.approx_eq(&a, 1e-10));
        assert_eq!(ch.jitter(), 0.0);
    }

    #[test]
    fn log_determinant_matches_lu() {
        let a = spd();
        let ch = Cholesky::new(&a).unwrap();
        let (sign, logdet) = crate::lu::sign_log_determinant(&a).unwrap();
        assert_eq!(sign, 1.0);
        assert!((ch.log_determinant() - logdet).abs() < 1e-9);
        assert!((ch.determinant() - crate::lu::determinant(&a).unwrap()).abs() < 1e-6);
    }

    #[test]
    fn solve_and_inverse() {
        let a = spd();
        let ch = Cholesky::new(&a).unwrap();
        let x_true = vec![0.5, -1.0, 2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = ch.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
        let inv = ch.inverse().unwrap();
        assert!(a
            .matmul(&inv)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-9));
        assert!(ch.solve(&[1.0]).is_err());
    }

    #[test]
    fn rejects_non_positive_definite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn jitter_rescues_singular_psd_matrix() {
        // Rank-1 PSD matrix: ones(3,3).
        let a = Matrix::filled(3, 3, 1.0);
        assert!(Cholesky::new(&a).is_err());
        let ch = Cholesky::new_with_jitter(&a, 1e-10, 20).unwrap();
        assert!(ch.jitter() > 0.0);
        assert!(ch.log_determinant().is_finite());
    }

    #[test]
    fn jitter_gives_up_on_indefinite_matrix_with_few_attempts() {
        let a = Matrix::from_rows(&[vec![0.0, 1e9], vec![1e9, 0.0]]).unwrap();
        assert!(Cholesky::new_with_jitter(&a, 1e-12, 1).is_err());
    }

    #[test]
    fn identity_has_zero_log_determinant() {
        let ch = Cholesky::new(&Matrix::identity(4)).unwrap();
        assert!(ch.log_determinant().abs() < 1e-12);
    }

    #[test]
    fn factor_into_matches_allocating_factorization() {
        let a = spd();
        let ch = Cholesky::new(&a).unwrap();
        let mut l = Matrix::filled(3, 3, f64::NAN); // stale garbage must not leak
        factor_into(&a, 0.0, &mut l).unwrap();
        for i in 0..3 {
            for j in 0..=i {
                assert_eq!(l[(i, j)], ch.factor_l()[(i, j)], "entry ({i},{j})");
            }
        }
        assert_eq!(log_det_from_factor(&l), ch.log_determinant());
    }

    #[test]
    fn factor_into_validates_shapes_and_definiteness() {
        let a = spd();
        let mut wrong = Matrix::zeros(2, 2);
        assert!(factor_into(&a, 0.0, &mut wrong).is_err());
        assert!(factor_into(&Matrix::zeros(2, 3), 0.0, &mut wrong).is_err());
        let indefinite = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        let mut l = Matrix::zeros(2, 2);
        assert!(matches!(
            factor_into(&indefinite, 0.0, &mut l),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // The same jitter that rescues Cholesky::new_with_jitter works here.
        assert!(factor_into(&Matrix::filled(3, 3, 1.0), 1e-6, &mut Matrix::zeros(3, 3)).is_ok());
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The row-by-row Cholesky loop the column kernel reproduces.
    fn rowwise_factor(a: &Matrix, jitter: f64, l: &mut Matrix) -> Result<(), LinalgError> {
        let n = a.rows();
        for i in 0..n {
            for j in 0..=i {
                let mut s = a[(i, j)];
                if i == j {
                    s += jitter;
                }
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return Err(LinalgError::NotPositiveDefinite { index: i });
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(())
    }

    /// The inverse by one pair of triangular solves per column: the loop
    /// the lockstep row solves reproduce, up to the transposed storage.
    fn spd_inverse_from_factor(l: &Matrix) -> Matrix {
        let n = l.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut y = vec![0.0; n];
        for col in 0..n {
            // Forward: L·y = e_col. Rows above `col` solve to exactly zero.
            y[..col].fill(0.0);
            for i in col..n {
                let mut v = if i == col { 1.0 } else { 0.0 };
                for (j, &yj) in y[..i].iter().enumerate().skip(col) {
                    v -= l[(i, j)] * yj;
                }
                y[i] = v / l[(i, i)];
            }
            // Backward: Lᵀ·x = y, written straight into column `col`.
            for i in (0..n).rev() {
                let mut v = y[i];
                for j in (i + 1)..n {
                    v -= l[(j, i)] * inv[(j, col)];
                }
                inv[(i, col)] = v / l[(i, i)];
            }
        }
        inv
    }

    /// A diagonally dominant (so positive-definite) symmetric matrix whose
    /// off-diagonal entries are negative, positive and exact zeros of both
    /// signs.
    fn dominant_spd(k: usize, rng: &mut StdRng) -> Matrix {
        let mut a = Matrix::zeros(k, k);
        for i in 0..k {
            for j in 0..i {
                let v = match rng.gen_range(0..6) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-1.0..1.0),
                };
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
            a[(i, i)] = k as f64 + rng.gen_range(0.0..1.0);
        }
        a
    }

    #[test]
    fn spd_inverse_from_factor_matches_cholesky_inverse() {
        let a = spd();
        let ch = Cholesky::new(&a).unwrap();
        let expected = ch.inverse().unwrap();
        let mut l = Matrix::zeros(3, 3);
        factor_into(&a, 0.0, &mut l).unwrap();
        let mut inv = Matrix::filled(3, 3, f64::NAN);
        let mut lanes = vec![0.0; 3 * INVERSE_LANES];
        spd_inverse_rows_from_factor(&l, &mut inv, &mut lanes).unwrap();
        assert!(inv.approx_eq(&expected, 1e-12));
        assert_eq!(bits(&inv), bits(&spd_inverse_from_factor(&l).transpose()));
        assert!(a
            .matmul(&inv)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-9));
        // Shape validation, of the output and of the lanes.
        assert!(spd_inverse_rows_from_factor(&l, &mut Matrix::zeros(2, 2), &mut lanes).is_err());
        assert!(spd_inverse_rows_from_factor(&l, &mut inv, &mut lanes[1..]).is_err());
    }

    #[test]
    fn row_wise_inverse_is_the_exact_transpose_of_the_columnwise_one() {
        let a = spd();
        let mut l = Matrix::zeros(3, 3);
        factor_into(&a, 0.0, &mut l).unwrap();
        let mut by_rows = Matrix::filled(3, 3, f64::NAN);
        spd_inverse_rows_from_factor(&l, &mut by_rows, &mut [f64::NAN; 3 * INVERSE_LANES]).unwrap();
        // Same arithmetic per solve, transposed storage: exact equality.
        assert_eq!(
            bits(&by_rows),
            bits(&spd_inverse_from_factor(&l).transpose())
        );
        assert!(a
            .matmul(&by_rows)
            .unwrap()
            .approx_eq(&Matrix::identity(3), 1e-9));
    }

    /// The column-lockstep factorization reproduces the row-by-row loop bit
    /// for bit on every lockstep split up to k = 70 and at k = 128, with and
    /// without jitter. The strict upper triangle is left as it was.
    #[test]
    fn factor_into_matches_the_rowwise_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0xc401);
        for k in (1..=70).chain([128]) {
            let a = dominant_spd(k, &mut rng);
            let jitter = if k % 2 == 0 { 0.0 } else { 1e-3 };
            let mut want = Matrix::filled(k, k, f64::NAN);
            rowwise_factor(&a, jitter, &mut want).unwrap();
            let mut got = Matrix::filled(k, k, f64::NAN);
            factor_into(&a, jitter, &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "k={k}");
        }
    }

    /// On indefinite input the column kernel stops at the same pivot as the
    /// row-by-row loop: a negative diagonal entry, and a positive diagonal
    /// entry whose pivot only turns negative after its subtractions.
    #[test]
    fn factor_into_reports_the_rowwise_loops_failing_pivot() {
        let mut rng = StdRng::seed_from_u64(0xbad);
        for k in (2..=70).chain([128]) {
            let m = k / 2;
            let mut negative = dominant_spd(k, &mut rng);
            negative[(m, m)] = -1.0;
            // A = L0·L0ᵀ has pivots L0_ii² = 0.25; taking 0.5 off A_mm
            // leaves it positive but makes pivot m negative.
            let l0 = Matrix::from_fn(k, k, |i, j| match i.cmp(&j) {
                std::cmp::Ordering::Less => 0.0,
                std::cmp::Ordering::Equal => 0.5,
                std::cmp::Ordering::Greater => rng.gen_range(-1.0..1.0),
            });
            let mut worn = l0.matmul(&l0.transpose()).unwrap();
            worn[(m, m)] -= 0.5;
            for a in [negative, worn] {
                let want = rowwise_factor(&a, 0.0, &mut Matrix::zeros(k, k)).unwrap_err();
                assert!(matches!(want, LinalgError::NotPositiveDefinite { .. }));
                let got = factor_into(&a, 0.0, &mut Matrix::zeros(k, k)).unwrap_err();
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "k={k}");
            }
        }
    }

    /// The lockstep row solves, `INVERSE_LANES` right-hand sides at a time,
    /// reproduce the column-wise solves bit for bit on every split into
    /// blocks up to k = 70 and at k = 128. The factor's strict upper
    /// triangle holds NaN and the lanes start as NaN, then as the previous
    /// solve's leftovers, so reading either would show.
    #[test]
    fn lockstep_inverse_matches_the_columnwise_solves_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        for k in (1..=70).chain([128]) {
            let a = dominant_spd(k, &mut rng);
            let mut l = Matrix::filled(k, k, f64::NAN);
            factor_into(&a, 0.0, &mut l).unwrap();
            let want = bits(&spd_inverse_from_factor(&l).transpose());
            let mut lanes = vec![f64::NAN; k * INVERSE_LANES];
            for pass in 0..2 {
                let mut inv = Matrix::filled(k, k, f64::NAN);
                spd_inverse_rows_from_factor(&l, &mut inv, &mut lanes).unwrap();
                assert_eq!(bits(&inv), want, "k={k} pass={pass}");
            }
        }
    }
}
