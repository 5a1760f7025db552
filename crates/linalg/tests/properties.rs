//! Property-based tests for the linear-algebra substrate.

use dhmm_linalg::lu;
use dhmm_linalg::simplex::{
    distance_to_simplex, project_row_stochastic_with, project_to_simplex, SimplexScratch,
};
use dhmm_linalg::stats::log_sum_exp;
use dhmm_linalg::vector;
use dhmm_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy producing small square matrices with entries in [-5, 5].
fn square_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-5.0..5.0f64, n * n)
            .prop_map(move |data| Matrix::from_vec(n, n, data).unwrap())
    })
}

/// Strategy producing vectors of length 1..=max_len with entries in [-10, 10].
fn vector_strategy(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    (1..=max_len).prop_flat_map(|n| proptest::collection::vec(-10.0..10.0f64, n))
}

/// An entry from the cases a projection must survive: exact ties, both
/// signed zeros, NaN and both infinities, among ordinary values.
fn projection_entry() -> impl Strategy<Value = f64> {
    (0usize..12, -3.0..3.0f64).prop_map(|(pick, x)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => 0.5,
        6 => -0.25,
        _ => x,
    })
}

/// A `rows × n` matrix of [`projection_entry`] values (`n` from 1, so rows
/// of one and two entries come up), every entry made non-positive in about
/// one case in three, and a second matrix of the same shape whose
/// projection leaves an arbitrary descending order behind to start from.
/// Rows up to 24 entries long are often too far from that order for the
/// warm re-sort's budget, so the full-sort fallback runs too.
fn warm_projection_case() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=3, 1usize..=24).prop_flat_map(|(rows, n)| {
        (
            proptest::collection::vec(projection_entry(), rows * n),
            proptest::collection::vec(-1.0..1.0f64, rows * n),
            0usize..3,
        )
            .prop_map(move |(data, keys, negate)| {
                let data = data
                    .into_iter()
                    .map(|x| if negate == 0 { -x.abs() } else { x })
                    .collect();
                (
                    Matrix::from_vec(rows, n, data).unwrap(),
                    Matrix::from_vec(rows, n, keys).unwrap(),
                )
            })
    })
}

/// The value a projection sorts a non-finite entry as.
fn sort_key(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        f64::MIN / 2.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn warm_projection_is_bit_identical_to_the_full_sort(case in warm_projection_case()) {
        let (m, keys) = case;
        let (rows, n) = m.shape();
        let mut scratch = SimplexScratch::new();
        // Projecting the keys leaves their descending order behind.
        let mut start = keys.clone();
        project_row_stochastic_with(&mut start, &mut scratch);
        let mut warm = m.clone();
        project_row_stochastic_with(&mut warm, &mut scratch);
        for i in 0..rows {
            let expected: Vec<u64> =
                project_to_simplex(m.row(i)).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u64> = warm.row(i).iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(got, expected, "row {} of {:?}", i, m.row(i));

            let order = scratch.order(i);
            let mut seen = order.to_vec();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n as u32).collect::<Vec<_>>());
            for pair in order.windows(2) {
                let (a, b) = (m[(i, pair[0] as usize)], m[(i, pair[1] as usize)]);
                prop_assert!(sort_key(a) >= sort_key(b), "row {}: {} before {}", i, a, b);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in square_matrix(6)) {
        let t = m.transpose().transpose();
        prop_assert!(t.approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_with_identity_is_identity_map(m in square_matrix(6)) {
        let id = Matrix::identity(m.rows());
        let left = id.matmul(&m).unwrap();
        let right = m.matmul(&id).unwrap();
        prop_assert!(left.approx_eq(&m, 1e-12));
        prop_assert!(right.approx_eq(&m, 1e-12));
    }

    #[test]
    fn determinant_of_transpose_is_same(m in square_matrix(5)) {
        let d1 = lu::determinant(&m).unwrap();
        let d2 = lu::determinant(&m.transpose()).unwrap();
        let scale = d1.abs().max(d2.abs()).max(1.0);
        prop_assert!((d1 - d2).abs() / scale < 1e-8);
    }

    #[test]
    fn determinant_scales_with_row_scaling(m in square_matrix(4), s in 0.5..2.0f64) {
        // Scaling one row by s scales the determinant by s.
        let d0 = lu::determinant(&m).unwrap();
        let mut scaled = m.clone();
        let row0: Vec<f64> = scaled.row(0).iter().map(|&x| x * s).collect();
        scaled.set_row(0, &row0).unwrap();
        let d1 = lu::determinant(&scaled).unwrap();
        let scale = d0.abs().max(1.0);
        prop_assert!((d1 - s * d0).abs() / scale < 1e-6);
    }

    #[test]
    fn inverse_roundtrip_when_well_conditioned(m in square_matrix(5)) {
        // Make the matrix diagonally dominant so it is comfortably invertible.
        let n = m.rows();
        let mut a = m.clone();
        for i in 0..n {
            a[(i, i)] += 10.0;
        }
        let inv = lu::inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(prod.approx_eq(&Matrix::identity(n), 1e-6));
    }

    #[test]
    fn solve_matches_matvec(m in square_matrix(5), seed in 0u64..1000) {
        let n = m.rows();
        let mut a = m.clone();
        for i in 0..n {
            a[(i, i)] += 10.0;
        }
        let x_true: Vec<f64> = (0..n).map(|i| ((seed as f64) * 0.1 + i as f64).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = lu::solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-6);
        }
    }

    #[test]
    fn cholesky_matches_lu_logdet_on_spd(m in square_matrix(5)) {
        // m·mᵀ + n·I is symmetric positive definite.
        let n = m.rows();
        let mut a = m.matmul(&m.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let ch = Cholesky::new(&a).unwrap();
        let (sign, logdet) = lu::sign_log_determinant(&a).unwrap();
        prop_assert_eq!(sign, 1.0);
        prop_assert!((ch.log_determinant() - logdet).abs() < 1e-6);
    }

    #[test]
    fn simplex_projection_is_distribution(v in vector_strategy(12)) {
        let p = project_to_simplex(&v);
        prop_assert_eq!(p.len(), v.len());
        prop_assert!(vector::is_distribution(&p, 1e-8));
    }

    #[test]
    fn simplex_projection_is_idempotent(v in vector_strategy(12)) {
        let p = project_to_simplex(&v);
        let pp = project_to_simplex(&p);
        prop_assert!(vector::approx_eq(&p, &pp, 1e-9));
        prop_assert!(distance_to_simplex(&p) < 1e-8);
    }

    #[test]
    fn simplex_projection_never_increases_distance_to_simplex_points(v in vector_strategy(8)) {
        // For any point q on the simplex, ||p - q|| <= ||v - q|| where p is the projection.
        let p = project_to_simplex(&v);
        let q = vector::uniform(v.len());
        let dp = vector::squared_distance(&p, &q).unwrap();
        let dv = vector::squared_distance(&v, &q).unwrap();
        prop_assert!(dp <= dv + 1e-9);
    }

    #[test]
    fn log_sum_exp_bounds(v in vector_strategy(16)) {
        let lse = log_sum_exp(&v);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(lse >= max - 1e-12);
        prop_assert!(lse <= max + (v.len() as f64).ln() + 1e-12);
    }

    #[test]
    fn normalize_rows_always_stochastic(m in square_matrix(6)) {
        let mut a = m.map(f64::abs);
        a.normalize_rows();
        prop_assert!(a.is_row_stochastic(1e-9));
    }

    #[test]
    fn vector_norm_triangle_inequality(a in vector_strategy(10), b in vector_strategy(10)) {
        if a.len() == b.len() {
            let sum = vector::add(&a, &b).unwrap();
            prop_assert!(vector::norm2(&sum) <= vector::norm2(&a) + vector::norm2(&b) + 1e-9);
        }
    }
}
