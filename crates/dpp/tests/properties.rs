//! Property-based tests for the DPP crate.

use dhmm_dpp::gradient::{grad_log_det_kernel, numerical_grad_log_det};
use dhmm_dpp::logdet::{log_det_kernel, log_det_psd};
use dhmm_dpp::ProductKernel;
use dhmm_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy producing a small row-stochastic matrix with strictly positive entries.
fn stochastic_matrix(max_k: usize, max_d: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_k, 2..=max_d).prop_flat_map(|(k, d)| {
        proptest::collection::vec(0.05..1.0f64, k * d).prop_map(move |data| {
            let mut m = Matrix::from_vec(k, d, data).unwrap();
            m.normalize_rows();
            m
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernel_matrix_is_symmetric_psd_with_unit_diagonal(a in stochastic_matrix(6, 6)) {
        let kernel = ProductKernel::bhattacharyya();
        let km = kernel.kernel_matrix(&a).unwrap();
        prop_assert!(km.is_symmetric(1e-10));
        for i in 0..km.rows() {
            prop_assert!((km[(i, i)] - 1.0).abs() < 1e-10);
        }
        // A normalized correlation kernel is PSD: every eigenvalue is above
        // -1e-8 exactly when K + 1e-8·I has a Cholesky factorization.
        prop_assert!(Cholesky::new_with_jitter(&km, 1e-8, 1).is_ok());
        // And the log-determinant of a correlation matrix is <= 0.
        prop_assert!(log_det_psd(&km).unwrap() <= 1e-9);
    }

    #[test]
    fn log_det_is_maximized_by_orthogonal_rows(a in stochastic_matrix(4, 4)) {
        let kernel = ProductKernel::bhattacharyya();
        let ld = log_det_kernel(&a, &kernel).unwrap();
        // The identity-like (orthogonal-row) matrix achieves log det 0, an
        // upper bound for any correlation kernel.
        prop_assert!(ld <= 1e-9);
    }

    #[test]
    fn analytic_gradient_matches_numeric(a in stochastic_matrix(4, 4)) {
        let kernel = ProductKernel::bhattacharyya();
        // Only compare in the well-conditioned regime: when the kernel matrix
        // is nearly singular (rows nearly identical), the true gradient blows
        // up and the jittered finite-difference evaluation is dominated by
        // the jitter, so pointwise comparison is meaningless there. The
        // fixed-matrix unit tests in the crate cover exactness.
        let before = log_det_kernel(&a, &kernel).unwrap();
        if before > -4.0 {
            let analytic = grad_log_det_kernel(&a, &kernel).unwrap();
            let numeric = numerical_grad_log_det(&a, &kernel, 1e-6).unwrap();
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    let diff = (analytic[(i, j)] - numeric[(i, j)]).abs();
                    let scale = numeric[(i, j)].abs().max(analytic[(i, j)].abs()).max(1.0);
                    prop_assert!(diff / scale < 1e-2,
                        "mismatch at ({},{}): {} vs {}", i, j, analytic[(i,j)], numeric[(i,j)]);
                }
            }
        }
    }

    #[test]
    fn gradient_ascent_step_increases_log_det(a in stochastic_matrix(4, 4)) {
        let kernel = ProductKernel::bhattacharyya();
        let before = log_det_kernel(&a, &kernel).unwrap();
        // Skip the degenerate extremes: already at the maximum (orthogonal
        // rows) or so collapsed that the jittered log-det is dominated by
        // numerical noise.
        if (-4.0..-1e-6).contains(&before) {
            let grad = grad_log_det_kernel(&a, &kernel).unwrap();
            let norm = grad.frobenius_norm().max(1e-12);
            let stepped = &a + &grad.scale(1e-5 / norm);
            let after = log_det_kernel(&stepped, &kernel).unwrap();
            prop_assert!(after >= before - 1e-9, "ascent step decreased log det: {before} -> {after}");
        }
    }
}
