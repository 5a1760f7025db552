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

use crate::matrix::Matrix;

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
    let mut scratch = Vec::with_capacity(v.len());
    project_to_simplex_into(&mut out, &mut scratch);
    out
}

/// Projects `row` onto the probability simplex in place, using `scratch` for
/// the sorted working copy so repeated projections (every row, every
/// backtrack, every ascent iteration of Algorithm 1) perform no allocation
/// once `scratch` has grown to the row length.
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
    // Replace non-finite values so sorting and the running sum stay sane.
    for x in row.iter_mut() {
        if !x.is_finite() {
            *x = f64::MIN / 2.0;
        }
    }

    scratch.clear();
    scratch.extend_from_slice(row);
    // Unstable is exact here: only `+0.0` and `-0.0` compare equal without
    // being the same value, and the order in which they are added leaves
    // the running sum below unchanged (it starts at `+0.0`, so it is never
    // `-0.0`).
    scratch.sort_unstable_by(|a, b| b.partial_cmp(a).expect("non-finite value after sanitize"));

    let mut cumulative = 0.0;
    let mut rho = 0;
    let mut lambda = 0.0;
    for (i, &ui) in scratch.iter().enumerate() {
        cumulative += ui;
        let candidate = (1.0 - cumulative) / (i + 1) as f64;
        if ui + candidate > 0.0 {
            rho = i + 1;
            lambda = candidate;
        }
    }
    if rho == 0 {
        // All entries were so negative that nothing survived; fall back to
        // the uniform distribution (the centre of the simplex).
        row.fill(1.0 / n as f64);
        return;
    }
    for x in row.iter_mut() {
        *x = (*x + lambda).max(0.0);
    }
}

/// Projects every row of a matrix onto the probability simplex in place,
/// producing a row-stochastic matrix. This is the projection step
/// `A ← ProjSimplex(A)` of the paper's Algorithm 1.
pub fn project_row_stochastic(a: &mut Matrix) {
    let mut scratch = Vec::new();
    project_row_stochastic_with(a, &mut scratch);
}

/// [`project_row_stochastic`] with a caller-owned scratch buffer, so the
/// projected-gradient ascent can re-project candidates across backtracks and
/// EM iterations without touching the allocator.
pub fn project_row_stochastic_with(a: &mut Matrix, scratch: &mut Vec<f64>) {
    let cols = a.cols();
    if cols == 0 {
        return;
    }
    for row in a.as_mut_slice().chunks_exact_mut(cols) {
        project_to_simplex_into(row, scratch);
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
        let mut scratch = Vec::new();
        project_row_stochastic_with(&mut b, &mut scratch);
        assert!(a.approx_eq(&b, 0.0));
        assert!(b.is_row_stochastic(1e-9));
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
