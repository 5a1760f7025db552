//! Log-determinants of DPP kernel matrices.
//!
//! `log det K̃_A` is the (unnormalized) log prior of the diversified HMM.
//! When the rows of `A` are nearly identical the kernel matrix approaches
//! the all-ones matrix and becomes singular; the log-determinant then tends
//! to `-∞`, which is exactly the penalty the prior is meant to apply. The
//! helpers here evaluate the log-determinant robustly in that regime:
//! a Cholesky factorization with increasing diagonal jitter, falling back to
//! LU with a floor when even the jittered factorization fails.

use crate::error::DppError;
use crate::kernel::ProductKernel;
use dhmm_linalg::{lu, Cholesky, Matrix};

/// Initial jitter used when the kernel matrix is not positive definite.
const INITIAL_JITTER: f64 = 1e-10;
/// Number of ×10 jitter escalations to attempt.
const JITTER_ATTEMPTS: usize = 12;
/// Value returned when the kernel matrix is numerically singular even after
/// jittering; acts as a large-but-finite diversity penalty.
const LOG_DET_FLOOR: f64 = -1e12;

/// Log-determinant of a symmetric positive semi-definite matrix.
///
/// Uses a plain Cholesky factorization when possible; otherwise adds an
/// escalating diagonal jitter; otherwise falls back to the LU
/// log-determinant; and finally clamps to a large negative floor so callers
/// never see `-inf`/NaN.
pub fn log_det_psd(m: &Matrix) -> Result<f64, DppError> {
    if !m.is_square() {
        return Err(DppError::InvalidInput {
            reason: format!("matrix is {:?}, expected square", m.shape()),
        });
    }
    if m.is_empty() {
        return Ok(0.0);
    }
    if !m.is_finite() {
        return Err(DppError::InvalidInput {
            reason: "matrix contains non-finite entries".into(),
        });
    }
    if let Ok(ch) = Cholesky::new_with_jitter(m, INITIAL_JITTER, JITTER_ATTEMPTS) {
        let ld = ch.log_determinant();
        if ld.is_finite() {
            return Ok(ld.max(LOG_DET_FLOOR));
        }
    }
    let (sign, logdet) = lu::sign_log_determinant(m)?;
    if sign > 0.0 && logdet.is_finite() {
        Ok(logdet.max(LOG_DET_FLOOR))
    } else {
        Ok(LOG_DET_FLOOR)
    }
}

/// Workspace continuation of [`log_det_psd`]: identical semantics (plain
/// Cholesky, escalating jitter, LU fallback, large-negative floor) but the
/// factorization is written into the caller-owned buffer `l` instead of
/// allocating per attempt (only the rare LU fallback allocates), and the
/// Cholesky attempts use [`dhmm_linalg::factor_into`], the kernel
/// [`Cholesky::new`] itself runs — so the ladder returns exactly the value
/// [`log_det_psd`] returns for the same input.
///
/// "Continuation" because it serves a caller that has
/// **already attempted** the plain (jitter-0) `factor_into(m, 0.0, l)` rung
/// itself — the fused engine does so to cache a successful factor — and
/// passes the outcome as `plain_factored`. Resumes at the jitter ladder on
/// failure, so the `O(k³)` rung-0 attempt is never repeated, and ends at
/// the same LU fallback and large-negative floor.
///
/// `l` must hold the caller's successful plain factor when `plain_factored`
/// is true. `m` is the engine's internally-built normalized kernel — square,
/// non-empty and finite by construction, so the public-input validation of
/// [`log_det_psd`] is not repeated here.
pub(crate) fn log_det_psd_prefactored_after_plain(
    m: &Matrix,
    l: &mut Matrix,
    plain_factored: bool,
) -> Result<f64, DppError> {
    let mut factored = plain_factored;
    if !factored {
        let mut jitter = INITIAL_JITTER.max(f64::MIN_POSITIVE);
        for _ in 0..JITTER_ATTEMPTS {
            if try_factor(m, jitter, l)? {
                factored = true;
                break;
            }
            jitter *= 10.0;
        }
    }
    if factored {
        let ld = dhmm_linalg::log_det_from_factor(l);
        if ld.is_finite() {
            return Ok(ld.max(LOG_DET_FLOOR));
        }
    }
    let (sign, logdet) = lu::sign_log_determinant(m)?;
    if sign > 0.0 && logdet.is_finite() {
        Ok(logdet.max(LOG_DET_FLOOR))
    } else {
        Ok(LOG_DET_FLOOR)
    }
}

/// One rung of the jitter ladder: true on success (factor left in `l`),
/// false on a not-positive-definite rejection, error on anything else.
fn try_factor(m: &Matrix, jitter: f64, l: &mut Matrix) -> Result<bool, DppError> {
    match dhmm_linalg::factor_into(m, jitter, l) {
        Ok(()) => Ok(true),
        Err(dhmm_linalg::LinalgError::NotPositiveDefinite { .. }) => Ok(false),
        Err(e) => Err(DppError::from(e)),
    }
}

/// `log det K̃_A` for a transition matrix `a` under the given kernel — the
/// diversity log prior of the dHMM (up to the DPP normalization constant,
/// which the paper drops because it does not depend on `A`).
pub fn log_det_kernel(a: &Matrix, kernel: &ProductKernel) -> Result<f64, DppError> {
    let km = kernel.kernel_matrix(a)?;
    log_det_psd(&km)
}

/// The largest finite penalty used for singular kernels; exposed so callers
/// can detect the clamped regime.
pub fn log_det_floor() -> f64 {
    LOG_DET_FLOOR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_zero_log_det() {
        assert!(log_det_psd(&Matrix::identity(5)).unwrap().abs() < 1e-9);
        assert_eq!(log_det_psd(&Matrix::zeros(0, 0)).unwrap(), 0.0);
    }

    #[test]
    fn known_diagonal_log_det() {
        let d = Matrix::from_diag(&[2.0, 3.0, 4.0]);
        assert!((log_det_psd(&d).unwrap() - 24.0_f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(log_det_psd(&Matrix::zeros(2, 3)).is_err());
        let mut bad = Matrix::identity(2);
        bad[(0, 1)] = f64::NAN;
        assert!(log_det_psd(&bad).is_err());
    }

    #[test]
    fn near_singular_matrix_gets_large_negative_value() {
        // The all-ones matrix is singular; the jittered value is very negative
        // but finite.
        let ones = Matrix::filled(4, 4, 1.0);
        let ld = log_det_psd(&ones).unwrap();
        assert!(ld.is_finite());
        assert!(ld < -10.0);
        assert!(ld >= log_det_floor());
    }

    #[test]
    fn diverse_transition_matrix_has_higher_log_prior() {
        let kernel = ProductKernel::bhattacharyya();
        let collapsed = Matrix::from_rows(&[
            vec![0.5, 0.3, 0.2],
            vec![0.5, 0.3, 0.2],
            vec![0.5, 0.3, 0.2],
        ])
        .unwrap();
        let diverse = Matrix::from_rows(&[
            vec![0.8, 0.1, 0.1],
            vec![0.1, 0.8, 0.1],
            vec![0.1, 0.1, 0.8],
        ])
        .unwrap();
        let ld_collapsed = log_det_kernel(&collapsed, &kernel).unwrap();
        let ld_diverse = log_det_kernel(&diverse, &kernel).unwrap();
        assert!(
            ld_diverse > ld_collapsed + 1.0,
            "diverse {ld_diverse} vs collapsed {ld_collapsed}"
        );
        // The maximally diverse (orthogonal rows) matrix has log det = 0.
        let orthogonal = Matrix::identity(3);
        assert!(log_det_kernel(&orthogonal, &kernel).unwrap().abs() < 1e-9);
    }

    #[test]
    fn log_det_kernel_matches_direct_computation() {
        let kernel = ProductKernel::bhattacharyya();
        let a = Matrix::from_rows(&[vec![0.6, 0.4], vec![0.2, 0.8]]).unwrap();
        let km = kernel.kernel_matrix(&a).unwrap();
        let direct = dhmm_linalg::lu::determinant(&km).unwrap().ln();
        assert!((log_det_kernel(&a, &kernel).unwrap() - direct).abs() < 1e-6);
    }
}
