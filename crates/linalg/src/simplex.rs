//! Euclidean projection onto the probability simplex.
//!
//! The M-step of the diversified HMM (Algorithm 1 of the paper) takes an
//! unconstrained gradient step on the rows of the transition matrix and then
//! projects each row back onto the probability simplex
//! `{a : aᵀ1 = 1, a ≥ 0}`. The projection used here is the `O(k log k)`
//! sort-based algorithm of Wang & Carreira-Perpiñán
//! ("Projection onto the probability simplex: An efficient algorithm with a
//! simple proof", arXiv:1309.1541, Algorithm 1), which the paper cites
//! directly.
//!
//! Two things make the ascent's projections cheap without changing a bit of
//! their results:
//!
//! * **Warm start.** The ascent projects the same rows again and again: a
//!   trial candidate is `current + γ·∇`, and the previous trial already
//!   sorted nearly the same rows. [`project_row_stochastic_with`] keeps each
//!   row's last descending order in a [`SimplexScratch`] and re-sorts the
//!   row by insertion from it. Once the insertions pass a fixed budget of
//!   four moves per entry the row is too far from its last order, and the
//!   full sort takes over.
//! * **Backward scan.** The threshold is the candidate of the *last* index
//!   that passes Algorithm 1's test. The scan takes the prefix sums forward
//!   and then tests indices from the end, so it stops at that index after
//!   one division when nearly every entry survives, instead of dividing at
//!   every index.
//!
//! Any descending sort of a row holds the same values in the same positions,
//! except that `+0.0` and `-0.0` compare equal and may swap. The running sum
//! starts at `+0.0`, so such a swap changes no prefix sum, and no test
//! against `0.0` either: every threshold, and so every projected row, is the
//! same bit for bit whichever way the row was sorted.

use crate::matrix::Matrix;

/// Insertion moves per entry a warm re-sort may make before it gives up and
/// sorts the row from scratch. Most ascent candidates keep their rows'
/// order outright, so the budget only stops rows whose order really
/// changed: about one row in 400 of a `train-wide` fit at k = 64.
const WARM_MOVES_PER_ENTRY: usize = 4;

/// Projects a vector onto the probability simplex, returning the closest
/// point in Euclidean distance.
///
/// Implements Algorithm 1 of Wang & Carreira-Perpiñán (2013): sort the
/// entries in descending order, find the largest `ρ` such that
/// `u_ρ + (1 − Σ_{i≤ρ} u_i)/ρ > 0`, and shift-and-clip.
///
/// An empty input returns an empty vector. Non-finite entries are treated as
/// very large negative values (they end up clipped to zero) so that a bad
/// gradient step cannot poison the projection.
pub fn project_to_simplex(v: &[f64]) -> Vec<f64> {
    let mut out = v.to_vec();
    let mut scratch = Vec::with_capacity(2 * v.len());
    project_to_simplex_into(&mut out, &mut scratch);
    out
}

/// Projects `row` onto the probability simplex in place, using `scratch` for
/// the sorted working copy and its prefix sums, so repeated projections
/// perform no allocation once `scratch` has grown to twice the row length.
/// Each call sorts the row from scratch; [`project_row_stochastic_with`]
/// re-sorts the rows of a matrix from their last order instead.
///
/// Arithmetic, ordering and edge-case handling are identical to
/// [`project_to_simplex`] (which is implemented on top of this function).
pub fn project_to_simplex_into(row: &mut [f64], scratch: &mut Vec<f64>) {
    let n = row.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        row[0] = 1.0;
        return;
    }
    sanitize(row);
    scratch.clear();
    scratch.extend_from_slice(row);
    scratch.resize(2 * n, 0.0);
    let (sorted, prefix) = scratch.split_at_mut(n);
    sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("non-finite value after sanitize"));
    prefix_sums(sorted, prefix, 0.0);
    shift_and_clip(row, threshold(sorted, prefix));
}

/// Replaces non-finite values so sorting and the running sum stay sane.
#[inline(always)]
fn sanitize(row: &mut [f64]) {
    for x in row.iter_mut() {
        if !x.is_finite() {
            *x = f64::MIN / 2.0;
        }
    }
}

/// Running sums of `sorted` into `prefix`, continuing from `cumulative`
/// (`0.0` at the start of a row). Always added front to back: the order of
/// the additions fixes the bits.
#[inline(always)]
fn prefix_sums(sorted: &[f64], prefix: &mut [f64], mut cumulative: f64) {
    for (p, &u) in prefix.iter_mut().zip(sorted) {
        cumulative += u;
        *p = cumulative;
    }
}

/// Algorithm 1's threshold `λ` for the descending `sorted` row and its
/// `prefix` sums: the candidate `(1 − Σ_{i≤ρ} u_i)/ρ` of the largest `ρ`
/// whose entry passes `u_ρ + candidate > 0`, or `None` when no entry does.
/// The test runs backward from the end, so it stops at `ρ` without
/// dividing at the indices before it. A plain loop rather than `find_map`,
/// whose closure LLVM may leave out of the M-step's AVX2 ascent.
#[inline(always)]
fn threshold(sorted: &[f64], prefix: &[f64]) -> Option<f64> {
    for i in (0..sorted.len()).rev() {
        let candidate = (1.0 - prefix[i]) / (i + 1) as f64;
        if sorted[i] + candidate > 0.0 {
            return Some(candidate);
        }
    }
    None
}

/// Shifts `row` by `λ` and clips it at zero; without a threshold (all
/// entries were so negative that nothing survived) falls back to the
/// uniform distribution, the centre of the simplex.
#[inline(always)]
fn shift_and_clip(row: &mut [f64], lambda: Option<f64>) {
    match lambda {
        Some(lambda) => {
            for x in row.iter_mut() {
                *x = (*x + lambda).max(0.0);
            }
        }
        None => row.fill(1.0 / row.len() as f64),
    }
}

/// Reusable state of [`project_row_stochastic_with`]: each row's descending
/// order from its last projection, plus the working row and its prefix sums.
///
/// The order is sized on the first projection at a shape (sorted from
/// scratch then) and kept while the shape is unchanged, so re-projecting
/// rows that moved a little since their last projection (every trial step
/// of the ascent) re-sorts them by a few insertions, without allocating.
#[derive(Debug, Clone, Default)]
pub struct SimplexScratch {
    /// Row-major `rows × cols`: row `i`'s column indices in descending
    /// order of the row's last projected input.
    order: Vec<u32>,
    /// The row being projected, in the order being built.
    sorted: Vec<f64>,
    /// Prefix sums of `sorted`.
    prefix: Vec<f64>,
    /// Shape `order` was built for.
    shape: (usize, usize),
}

impl SimplexScratch {
    /// Creates an empty scratch; it is sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Row `i`'s column indices in descending order of the values it held
    /// when it was last projected (non-finite entries counting as very
    /// large negative values).
    ///
    /// # Panics
    /// Panics if no matrix with more than `i` rows was projected since the
    /// shape last changed.
    pub fn order(&self, i: usize) -> &[u32] {
        let cols = self.shape.1;
        &self.order[i * cols..(i + 1) * cols]
    }

    /// Sizes the scratch for a `rows × cols` matrix. Returns `true` when
    /// the shape changed, so no row has an order to start from.
    #[inline]
    fn ensure(&mut self, rows: usize, cols: usize) -> bool {
        if self.shape == (rows, cols) {
            return false;
        }
        let width = u32::try_from(cols).expect("simplex rows wider than u32::MAX");
        self.order.clear();
        for _ in 0..rows {
            self.order.extend(0..width);
        }
        self.sorted.resize(cols, 0.0);
        self.prefix.resize(cols, 0.0);
        self.shape = (rows, cols);
        true
    }
}

/// Projects every row of a matrix onto the probability simplex in place,
/// producing a row-stochastic matrix. This is the projection step
/// `A ← ProjSimplex(A)` of the paper's Algorithm 1.
pub fn project_row_stochastic(a: &mut Matrix) {
    project_row_stochastic_with(a, &mut SimplexScratch::new());
}

/// [`project_row_stochastic`] with caller-owned state, so the
/// projected-gradient ascent re-projects candidates across backtracks and
/// EM iterations without touching the allocator, each row warm-started from
/// its order in the previous call (see the module doc). Every row comes out
/// bit-identical to [`project_to_simplex`] of it, whatever order `scratch`
/// held.
///
/// Always inlined, so the M-step's AVX2 ascent runs it in 256-bit
/// registers; the full sort it falls back on stays a call.
#[inline(always)]
pub fn project_row_stochastic_with(a: &mut Matrix, scratch: &mut SimplexScratch) {
    let (rows, cols) = a.shape();
    if cols == 0 {
        return;
    }
    let cold = scratch.ensure(rows, cols);
    if cols == 1 {
        a.as_mut_slice().fill(1.0);
        return;
    }
    let SimplexScratch {
        order,
        sorted,
        prefix,
        ..
    } = scratch;
    for (row, order) in a
        .as_mut_slice()
        .chunks_exact_mut(cols)
        .zip(order.chunks_exact_mut(cols))
    {
        sanitize(row);
        if cold || !resort(row, order, sorted, prefix) {
            sort_order(row, order, sorted);
            prefix_sums(sorted, prefix, 0.0);
        }
        shift_and_clip(row, threshold(sorted, prefix));
    }
}

/// Re-sorts `row` into `sorted`, with its `prefix` sums, starting from its
/// previous descending `order`. One pass gathers the row in that order and
/// sums it; when an entry is out of place, insertion moves it (and its
/// index) up, and the sums are redone from the first position that moved.
/// Gives up (returning `false`, with `order` still a permutation) once the
/// moves pass the budget of `WARM_MOVES_PER_ENTRY` per entry.
#[inline(always)]
fn resort(row: &[f64], order: &mut [u32], sorted: &mut [f64], prefix: &mut [f64]) -> bool {
    let (mut cumulative, mut previous, mut in_order) = (0.0, f64::INFINITY, true);
    for ((s, p), &j) in sorted.iter_mut().zip(prefix.iter_mut()).zip(order.iter()) {
        let x = row[j as usize];
        in_order &= previous >= x;
        previous = x;
        cumulative += x;
        *s = x;
        *p = cumulative;
    }
    if in_order {
        return true;
    }
    let (mut budget, mut first_moved) = (WARM_MOVES_PER_ENTRY * row.len(), row.len());
    for i in 1..row.len() {
        let (x, index) = (sorted[i], order[i]);
        let mut j = i;
        while j > 0 && sorted[j - 1] < x {
            sorted[j] = sorted[j - 1];
            order[j] = order[j - 1];
            j -= 1;
        }
        sorted[j] = x;
        order[j] = index;
        first_moved = first_moved.min(j);
        match budget.checked_sub(i - j) {
            Some(left) => budget = left,
            None => return false,
        }
    }
    // The sums before the first moved position cover unmoved entries.
    let start = if first_moved == 0 {
        0.0
    } else {
        prefix[first_moved - 1]
    };
    prefix_sums(&sorted[first_moved..], &mut prefix[first_moved..], start);
    true
}

/// Sorts `row`'s indices into `order` from scratch, descending by value,
/// and gathers the sorted values into `sorted`.
fn sort_order(row: &[f64], order: &mut [u32], sorted: &mut [f64]) {
    order.sort_unstable_by(|&i, &j| {
        row[j as usize]
            .partial_cmp(&row[i as usize])
            .expect("non-finite value after sanitize")
    });
    for (s, &j) in sorted.iter_mut().zip(order.iter()) {
        *s = row[j as usize];
    }
}

/// Returns the Euclidean distance between `v` and its simplex projection.
/// Useful as a diagnostic of how far a gradient step strays from the
/// feasible set.
pub fn distance_to_simplex(v: &[f64]) -> f64 {
    let p = project_to_simplex(v);
    v.iter()
        .zip(&p)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::is_distribution;

    #[test]
    fn already_on_simplex_is_unchanged() {
        let v = vec![0.2, 0.3, 0.5];
        let p = project_to_simplex(&v);
        for (a, b) in v.iter().zip(&p) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!(distance_to_simplex(&v) < 1e-12);
    }

    #[test]
    fn uniform_shift_is_removed() {
        // Adding a constant to a simplex point projects back to the same point.
        let v = vec![0.2 + 5.0, 0.3 + 5.0, 0.5 + 5.0];
        let p = project_to_simplex(&v);
        assert!((p[0] - 0.2).abs() < 1e-12);
        assert!((p[1] - 0.3).abs() < 1e-12);
        assert!((p[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn negative_entries_are_clipped() {
        let p = project_to_simplex(&[1.0, -1.0]);
        assert!(is_distribution(&p, 1e-12));
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_is_always_a_distribution() {
        let cases: Vec<Vec<f64>> = vec![
            vec![10.0, -3.0, 0.5, 0.2],
            vec![0.0, 0.0, 0.0],
            vec![-5.0, -4.0, -3.0],
            vec![1e9, 1e-9, 0.0],
            vec![0.25; 8],
        ];
        for v in cases {
            let p = project_to_simplex(&v);
            assert!(is_distribution(&p, 1e-9), "projection of {v:?} gave {p:?}");
        }
    }

    #[test]
    fn single_element_and_empty() {
        assert_eq!(project_to_simplex(&[42.0]), vec![1.0]);
        assert!(project_to_simplex(&[]).is_empty());
    }

    #[test]
    fn non_finite_entries_are_neutralized() {
        let p = project_to_simplex(&[f64::NAN, 0.7, f64::NEG_INFINITY, 0.5]);
        assert!(is_distribution(&p, 1e-9));
        assert_eq!(p[0], 0.0);
        assert_eq!(p[2], 0.0);
    }

    #[test]
    fn projection_is_closest_point() {
        // Compare against a brute-force grid search on the 2-simplex.
        let v = [0.9, 0.4, -0.1];
        let p = project_to_simplex(&v);
        let d_proj: f64 = v.iter().zip(&p).map(|(a, b)| (a - b) * (a - b)).sum();
        let steps = 100;
        for i in 0..=steps {
            for j in 0..=(steps - i) {
                let x = i as f64 / steps as f64;
                let y = j as f64 / steps as f64;
                let z = 1.0 - x - y;
                let d: f64 = (v[0] - x).powi(2) + (v[1] - y).powi(2) + (v[2] - z).powi(2);
                assert!(d_proj <= d + 1e-9, "found closer point ({x},{y},{z})");
            }
        }
    }

    #[test]
    fn in_place_projection_matches_allocating_projection() {
        let cases: Vec<Vec<f64>> = vec![
            vec![0.2, 0.3, 0.5],
            vec![10.0, -3.0, 0.5, 0.2],
            vec![-5.0, -4.0, -3.0],
            vec![f64::NAN, 0.7, f64::NEG_INFINITY, 0.5],
            vec![42.0],
            vec![],
        ];
        let mut scratch = Vec::new();
        for v in cases {
            let expected = project_to_simplex(&v);
            let mut row = v.clone();
            project_to_simplex_into(&mut row, &mut scratch);
            assert_eq!(row, expected, "in-place projection diverged on {v:?}");
        }
    }

    #[test]
    fn row_stochastic_projection_with_scratch_matches() {
        let rows = vec![
            vec![2.0, -1.0, 0.5],
            vec![0.1, 0.2, 0.3],
            vec![-1.0, -1.0, -1.0],
        ];
        let mut a = Matrix::from_rows(&rows).unwrap();
        let mut b = a.clone();
        project_row_stochastic(&mut a);
        let mut scratch = SimplexScratch::new();
        project_row_stochastic_with(&mut b, &mut scratch);
        assert!(a.approx_eq(&b, 0.0));
        assert!(b.is_row_stochastic(1e-9));
    }

    /// Bits of every entry, so `-0.0` and `+0.0` count as different.
    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn warm_projection_matches_the_full_sort_bit_for_bit() {
        // A small move keeps each row within the budget of its last order;
        // a reversed row exceeds it and falls back to the full sort; a new
        // shape starts over. Every result equals the one-row projection.
        let base = [0.31, -0.2, 0.05, 0.9, 0.05, -0.0, 0.0, 0.4];
        let reversed: Vec<f64> = base.iter().rev().map(|x| -x).collect();
        let mut scratch = SimplexScratch::new();
        let inputs = [
            Matrix::from_rows(&[base.to_vec(), reversed.clone()]).unwrap(),
            Matrix::from_rows(&[base.map(|x| x * 1.01 + 0.002).to_vec(), base.to_vec()]).unwrap(),
            Matrix::from_rows(&[reversed.clone(), base.to_vec()]).unwrap(),
            Matrix::from_rows(&[base.to_vec()]).unwrap(),
            Matrix::from_rows(&[base[..3].to_vec(), reversed[..3].to_vec()]).unwrap(),
        ];
        for m in inputs {
            let mut warm = m.clone();
            project_row_stochastic_with(&mut warm, &mut scratch);
            let expected =
                Matrix::from_fn(m.rows(), m.cols(), |i, j| project_to_simplex(m.row(i))[j]);
            assert_eq!(bits(&warm), bits(&expected), "warm projection of {m:?}");
            for i in 0..m.rows() {
                let order = scratch.order(i);
                assert!(order
                    .windows(2)
                    .all(|w| m[(i, w[0] as usize)] >= m[(i, w[1] as usize)]));
            }
        }
    }

    #[test]
    fn a_reversed_row_exceeds_the_warm_budget() {
        let n = 16;
        let ascending: Vec<f64> = (0..n).map(|j| j as f64).collect();
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let (mut sorted, mut prefix) = (vec![0.0; n], vec![0.0; n]);
        // Already in order: no moves at all.
        assert!(resort(&descending, &mut order, &mut sorted, &mut prefix));
        // Reversed: n(n−1)/2 = 120 moves against a budget of 64.
        assert!(!resort(&ascending, &mut order, &mut sorted, &mut prefix));
        let mut seen = order.clone();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..n as u32).collect::<Vec<_>>(),
            "order stays a permutation"
        );
    }

    #[test]
    fn row_stochastic_projection() {
        let mut m = Matrix::from_rows(&[
            vec![2.0, -1.0, 0.5],
            vec![0.1, 0.2, 0.3],
            vec![-1.0, -1.0, -1.0],
        ])
        .unwrap();
        project_row_stochastic(&mut m);
        assert!(m.is_row_stochastic(1e-9));
    }
}
