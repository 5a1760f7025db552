//! Degenerate-input regression tests for the scaled-space engine.
//!
//! The scaled engine works in the linear domain, so the dangerous inputs are
//! the ones that push probabilities to exact zeros or deep underflow:
//! length-1 sequences, near-zero emission probabilities, symbols unseen at
//! train time (and even out-of-vocabulary symbols), and ultra-peaked
//! Gaussian densities. None of these may produce NaN scales or panics. The
//! forward–backward statistics never diverge from the log-domain reference;
//! Viterbi matches it too, except at a step impossible under every state,
//! where the engines apply their own floor rule.

use dhmm_hmm::emission::{DiscreteEmission, GaussianEmission};
use dhmm_hmm::{
    forward_backward_scaled, log_likelihood_scaled, reference, viterbi_scaled_with_score,
    BaumWelch, BaumWelchConfig, Hmm, InferenceBackend, InferenceWorkspace, SparseParams,
};
use dhmm_linalg::Matrix;

fn weather_model() -> Hmm<DiscreteEmission> {
    let emission =
        DiscreteEmission::new(Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap())
            .unwrap();
    let transition = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.3, 0.7]]).unwrap();
    Hmm::new(vec![0.5, 0.5], transition, emission).unwrap()
}

/// Asserts scaled == reference on one sequence and returns the scaled stats.
fn assert_parity(
    model: &Hmm<DiscreteEmission>,
    seq: &[usize],
    ws: &mut InferenceWorkspace,
) -> dhmm_hmm::SequenceStats {
    let scaled = forward_backward_scaled(model, seq, ws).unwrap();
    let oracle = reference::forward_backward(model, seq).unwrap();
    assert!(
        (scaled.log_likelihood - oracle.log_likelihood).abs() < 1e-9,
        "ll {} vs {}",
        scaled.log_likelihood,
        oracle.log_likelihood
    );
    assert!(scaled.gamma.approx_eq(&oracle.gamma, 1e-9));
    assert!(scaled.xi_sum.approx_eq(&oracle.xi_sum, 1e-9));
    assert!(scaled.gamma.is_finite());
    assert!(scaled.xi_sum.is_finite());
    scaled
}

#[test]
fn length_one_sequences_are_handled() {
    let m = weather_model();
    let mut ws = InferenceWorkspace::new();
    for obs in [0usize, 1] {
        let stats = assert_parity(&m, &[obs], &mut ws);
        assert_eq!(stats.gamma.shape(), (1, 2));
        assert_eq!(stats.xi_sum.sum(), 0.0);
        let (path, score) = viterbi_scaled_with_score(&m, &[obs], &mut ws).unwrap();
        assert_eq!(path.len(), 1);
        assert!(score.is_finite());
        assert!(ws.log_scales().iter().all(|s| s.is_finite()));
    }
    // P(Y=1) = 0.5*0.1 + 0.5*0.8 = 0.45, recovered from the scale product.
    let ll = log_likelihood_scaled(&m, &[1usize], &mut ws).unwrap();
    assert!((ll - 0.45_f64.ln()).abs() < 1e-9);
}

#[test]
fn near_zero_emission_probabilities_do_not_produce_nan() {
    // Symbol 2 has probability exactly zero under both states; the engines
    // floor it and must stay finite and in agreement.
    let emission = DiscreteEmission::new(
        Matrix::from_rows(&[vec![0.5, 0.5, 0.0], vec![0.9, 0.1, 0.0]]).unwrap(),
    )
    .unwrap();
    let transition = Matrix::from_rows(&[vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap();
    let m = Hmm::new(vec![0.5, 0.5], transition, emission).unwrap();
    let mut ws = InferenceWorkspace::new();
    let seq = vec![0usize, 2, 1, 2, 2, 0];
    let stats = assert_parity(&m, &seq, &mut ws);
    assert!(stats.log_likelihood.is_finite());
    assert!(ws.log_scales().iter().all(|s| s.is_finite()));
    let (path, score) = viterbi_scaled_with_score(&m, &seq, &mut ws).unwrap();
    assert_eq!(path.len(), seq.len());
    assert!(score.is_finite());
}

#[test]
fn symbol_unseen_at_training_time_is_decodable() {
    // Train on sequences that never contain symbol 2, then run inference on
    // a sequence that does. The M-step's count floor leaves a ~1e-12
    // probability on the unseen column, which must not become a NaN scale.
    let data: Vec<Vec<usize>> = (0..20)
        .map(|i| (0..10).map(|t| ((t + i) % 2) as usize).collect())
        .collect();
    let mut m = Hmm::new(
        vec![0.5, 0.5],
        Matrix::from_rows(&[vec![0.6, 0.4], vec![0.3, 0.7]]).unwrap(),
        DiscreteEmission::new(
            Matrix::from_rows(&[vec![0.7, 0.2, 0.1], vec![0.2, 0.7, 0.1]]).unwrap(),
        )
        .unwrap(),
    )
    .unwrap();
    BaumWelch::new(BaumWelchConfig {
        max_iterations: 20,
        tolerance: 1e-8,
        ..BaumWelchConfig::default()
    })
    .fit(&mut m, &data)
    .unwrap();
    // The trained emission puts ~0 mass on symbol 2.
    assert!(m.emission().probs()[(0, 2)] < 1e-6);

    let mut ws = InferenceWorkspace::new();
    let unseen = vec![0usize, 2, 1, 2, 0];
    let stats = assert_parity(&m, &unseen, &mut ws);
    assert!(stats.log_likelihood.is_finite());
    assert!(ws.log_scales().iter().all(|s| s.is_finite()));
    let path = m.decode(&unseen).unwrap();
    assert_eq!(path.len(), unseen.len());
}

#[test]
fn out_of_vocabulary_symbol_does_not_panic() {
    // Symbol 7 is outside the vocabulary entirely: impossible under every
    // state. Both engines floor the step's scale; nothing may panic or go
    // NaN, and the two must still agree.
    let m = weather_model();
    let mut ws = InferenceWorkspace::new();
    let seq = vec![0usize, 7, 1];
    let stats = assert_parity(&m, &seq, &mut ws);
    assert!(stats.log_likelihood.is_finite());
    assert!(
        stats.log_likelihood < -500.0,
        "floored step should be heavily penalized"
    );
    assert!(ws.log_scales().iter().all(|s| s.is_finite()));
    // Every path's joint probability is exactly zero, so Viterbi floors the
    // impossible step to a uniform row worth ln(f64::MIN_POSITIVE) and keeps
    // ranking: δ₀ = (0.45, 0.1) puts state 0 first, the floored step leaves
    // both states tied, and symbol 1 then picks state 1, whose best
    // predecessor is state 1 (0.7 > 0.3).
    let (path, score) = viterbi_scaled_with_score(&m, &seq, &mut ws).unwrap();
    assert_eq!(path, vec![0, 1, 1]);
    let expected = 0.45_f64.ln() + f64::MIN_POSITIVE.ln() + 0.28_f64.ln();
    assert!((score - expected).abs() < 1e-9, "{score} vs {expected}");
    // The sparse engine applies the same rule bit for bit.
    let (sparse_path, sparse_score) = InferenceBackend::Sparse(SparseParams::exact())
        .viterbi_with_score(&m, &seq, &mut ws)
        .unwrap();
    assert_eq!(sparse_path, path);
    assert_eq!(sparse_score.to_bits(), score.to_bits());
}

#[test]
fn ultra_peaked_gaussians_exercise_the_underflow_rescue() {
    // Densities underflow to linear-domain zero for off-mean observations;
    // the scaled engine must transparently rescue through shifted log-space
    // and still match the reference.
    let emission = GaussianEmission::new(vec![0.0, 1000.0], vec![1e-3, 1e-3]).unwrap();
    let transition = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
    let m = Hmm::new(vec![0.5, 0.5], transition, emission).unwrap();
    let seq = vec![0.0, 1000.0, 500.0, 0.0, 1000.0];
    let mut ws = InferenceWorkspace::new();
    let scaled = forward_backward_scaled(&m, &seq, &mut ws).unwrap();
    let oracle = reference::forward_backward(&m, &seq).unwrap();
    assert!((scaled.log_likelihood - oracle.log_likelihood).abs() < 1e-9);
    assert!(scaled.gamma.approx_eq(&oracle.gamma, 1e-9));
    assert!(scaled.gamma.is_finite());
    assert!(ws.log_scales().iter().all(|s| s.is_finite()));
    let (path, score) = viterbi_scaled_with_score(&m, &seq, &mut ws).unwrap();
    let (oracle_path, oracle_score) = reference::viterbi_with_score(&m, &seq).unwrap();
    assert_eq!(path, oracle_path);
    assert!((score - oracle_score).abs() < 1e-9);
}

#[test]
fn empty_sequences_are_rejected_not_panicked() {
    let m = weather_model();
    let mut ws = InferenceWorkspace::new();
    assert!(forward_backward_scaled(&m, &[], &mut ws).is_err());
    assert!(log_likelihood_scaled(&m, &[], &mut ws).is_err());
    assert!(viterbi_scaled_with_score(&m, &[], &mut ws).is_err());
}
