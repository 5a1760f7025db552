//! Oracle-pin tests for the sparse backend (`InferenceBackend::Sparse`, the
//! scaled recursions over `dhmm_hmm::sparse`'s compiled transitions).
//!
//! The contract under test, in increasing strength:
//!
//! 1. `SparseParams::exact()` (threshold 0) is **bit-identical** to the
//!    scaled engine: the CSR scatter visits the same predecessors in the
//!    same order, so every float matches `to_bits`-for-`to_bits`.
//! 2. Static pruning (threshold / top-p) is *exact inference on the pruned,
//!    renormalized matrix Ã*: running the sparse engine on the original
//!    model equals running the dense scaled engine on a model built from
//!    `CsrTransition::to_dense()`, Viterbi optimum included.
//! 3. The Viterbi score is exact *for the returned path*: the path's joint
//!    likelihood under Ã equals the score.
//!
//! Plus the degenerate inputs pruning adds on top of the dense suite:
//! fully-pruned rows (dense fallback), zero-probability and
//! out-of-vocabulary symbols under pruning, and CSR buffer reuse across
//! model shapes.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::{
    forward_backward_scaled, log_likelihood_scaled, viterbi_scaled_with_score, CsrTransition, Hmm,
    InferenceBackend, InferenceWorkspace, SparseParams,
};
use dhmm_linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a random discrete HMM with `k` states and `v` symbols from a seed.
fn random_hmm(k: usize, v: usize, seed: u64) -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        k,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(k, v, 1.0, &mut rng).unwrap();
    Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap()
}

fn random_seq(v: usize, len: usize, seed: u64) -> Vec<usize> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..v)).collect()
}

/// The dense model the sparse engine is *exact* against: same π and B, but
/// the transition matrix replaced by the pruned, renormalized Ã the CSR
/// compile produced.
fn pruned_model(model: &Hmm<DiscreteEmission>, params: SparseParams) -> Hmm<DiscreteEmission> {
    let csr = CsrTransition::compile(model.transition(), params).unwrap();
    Hmm::new(
        model.initial().to_vec(),
        csr.to_dense(),
        model.emission().clone(),
    )
    .unwrap()
}

/// The sparse Viterbi finds Ã's optimum: its score equals the dense
/// engine's on Ã bit for bit, and its path is the dense one or co-optimal
/// with it under Ã.
fn assert_viterbi_optimal_on_tilde(
    model: &Hmm<DiscreteEmission>,
    tilde: &Hmm<DiscreteEmission>,
    seq: &[usize],
    params: SparseParams,
) -> Result<(), TestCaseError> {
    let (path_s, score_s) = InferenceBackend::Sparse(params)
        .viterbi_with_score(model, seq, &mut InferenceWorkspace::new())
        .unwrap();
    let (path_d, score_d) =
        viterbi_scaled_with_score(tilde, seq, &mut InferenceWorkspace::new()).unwrap();
    prop_assert_eq!(
        score_s.to_bits(),
        score_d.to_bits(),
        "viterbi score {} vs {} on Ã",
        score_s,
        score_d
    );
    if path_s != path_d {
        let js = tilde.joint_log_likelihood(&path_s, seq).unwrap();
        let jd = tilde.joint_log_likelihood(&path_d, seq).unwrap();
        prop_assert!(
            (js - jd).abs() < 1e-9,
            "paths differ and are not co-optimal under Ã: {js} vs {jd}"
        );
    }
    Ok(())
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shapes differ");
    for r in 0..a.rows() {
        for (x, y) in a.row(r).iter().zip(b.row(r)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} row {r}: {x} vs {y}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- Contract 1: exact params are bit-identical to the scaled engine. ----

    #[test]
    fn exact_params_are_bit_identical_to_scaled(
        k in 2usize..8, v in 2usize..8, seed in 0u64..1000, len in 1usize..40
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(13));
        let mut ws_s = InferenceWorkspace::new();
        let mut ws_d = InferenceWorkspace::new();

        let sparse = InferenceBackend::Sparse(SparseParams::exact()).forward_backward(&model, &seq, &mut ws_s).unwrap();
        let dense = forward_backward_scaled(&model, &seq, &mut ws_d).unwrap();
        prop_assert_eq!(sparse.log_likelihood.to_bits(), dense.log_likelihood.to_bits(),
            "ll {} vs {}", sparse.log_likelihood, dense.log_likelihood);
        assert_bits_eq(&sparse.gamma, &dense.gamma, "gamma");
        assert_bits_eq(&sparse.xi_sum, &dense.xi_sum, "xi_sum");

        let ll_s = InferenceBackend::Sparse(SparseParams::exact()).log_likelihood(&model, &seq, &mut ws_s).unwrap();
        let ll_d = log_likelihood_scaled(&model, &seq, &mut ws_d).unwrap();
        prop_assert_eq!(ll_s.to_bits(), ll_d.to_bits());

        let (path_s, score_s) =
            InferenceBackend::Sparse(SparseParams::exact()).viterbi_with_score(&model, &seq, &mut ws_s).unwrap();
        let (path_d, score_d) = viterbi_scaled_with_score(&model, &seq, &mut ws_d).unwrap();
        prop_assert_eq!(&path_s, &path_d);
        prop_assert_eq!(score_s.to_bits(), score_d.to_bits());

        // Exact compilation keeps every entry and prunes no mass.
        let report = ws_s.sparse_report().expect("sparse run leaves a report");
        prop_assert_eq!(report.nnz, k * k);
        prop_assert_eq!(report.static_pruned_max, 0.0);
    }

    // ---- Contract 2: static pruning is exact inference on Ã. ----

    #[test]
    fn static_pruning_is_exact_on_the_pruned_matrix(
        k in 2usize..8, v in 2usize..8, seed in 0u64..1000, len in 1usize..40,
        tau in 0.02f64..0.4
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(29));
        let params = SparseParams::threshold(tau);
        let tilde = pruned_model(&model, params);
        let mut ws_s = InferenceWorkspace::new();
        let mut ws_d = InferenceWorkspace::new();

        let sparse = InferenceBackend::Sparse(params).forward_backward(&model, &seq, &mut ws_s).unwrap();
        let dense = forward_backward_scaled(&tilde, &seq, &mut ws_d).unwrap();
        prop_assert!((sparse.log_likelihood - dense.log_likelihood).abs() < 1e-12,
            "ll {} vs {} on Ã", sparse.log_likelihood, dense.log_likelihood);
        prop_assert!(sparse.gamma.approx_eq(&dense.gamma, 1e-12));
        prop_assert!(sparse.xi_sum.approx_eq(&dense.xi_sum, 1e-12));
        assert_viterbi_optimal_on_tilde(&model, &tilde, &seq, params)?;
    }

    #[test]
    fn top_p_pruning_is_exact_on_the_pruned_matrix(
        k in 2usize..8, v in 2usize..8, seed in 0u64..1000, len in 1usize..30,
        p in 0.5f64..1.0
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(31));
        let params = SparseParams::top_p(p);
        let tilde = pruned_model(&model, params);
        let mut ws_s = InferenceWorkspace::new();
        let mut ws_d = InferenceWorkspace::new();

        let ll_s = InferenceBackend::Sparse(params).log_likelihood(&model, &seq, &mut ws_s).unwrap();
        let ll_d = log_likelihood_scaled(&tilde, &seq, &mut ws_d).unwrap();
        prop_assert!((ll_s - ll_d).abs() < 1e-12, "{ll_s} vs {ll_d}");
        assert_viterbi_optimal_on_tilde(&model, &tilde, &seq, params)?;
    }

    // ---- Contract 3: the Viterbi score is exact for the returned path. ----

    #[test]
    fn viterbi_score_is_exact_for_the_returned_path(
        k in 2usize..8, v in 2usize..8, seed in 0u64..1000, len in 1usize..30,
        tau in 0.0f64..0.25
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(41));
        let params = SparseParams::threshold(tau);
        let tilde = pruned_model(&model, params);
        let mut ws = InferenceWorkspace::new();

        let (path, score) = InferenceBackend::Sparse(params).viterbi_with_score(&model, &seq, &mut ws).unwrap();
        prop_assert_eq!(path.len(), seq.len());
        // The score the engine reports is the true joint likelihood of the
        // path it returns, under Ã.
        let joint = tilde.joint_log_likelihood(&path, &seq).unwrap();
        prop_assert!((joint - score).abs() < 1e-9,
            "path joint {joint} does not achieve reported score {score}");
    }
}

// ---- Degenerate inputs specific to pruning. ----

#[test]
fn fully_pruned_rows_fall_back_to_dense_verbatim() {
    // A uniform 4-state transition with threshold 0.5 empties every row:
    // each row must be kept dense verbatim (Ã = A), making the sparse run
    // bit-identical to the dense engine despite the aggressive rule.
    let k = 4;
    let a = Matrix::from_rows(&vec![vec![0.25; k]; k]).unwrap();
    let b =
        dhmm_hmm::init::random_stochastic_matrix(k, 6, 1.0, &mut StdRng::seed_from_u64(3)).unwrap();
    let model = Hmm::new(
        vec![1.0 / k as f64; k],
        a,
        DiscreteEmission::new(b).unwrap(),
    )
    .unwrap();
    let params = SparseParams::threshold(0.5);

    let csr = CsrTransition::compile(model.transition(), params).unwrap();
    assert_eq!(csr.fallback_rows(), k, "every row should fall back");
    assert_eq!(csr.nnz(), k * k);
    assert!(model.transition().approx_eq(&csr.to_dense(), 0.0));

    let seq = random_seq(6, 25, 17);
    let mut ws_s = InferenceWorkspace::new();
    let mut ws_d = InferenceWorkspace::new();
    let sparse = InferenceBackend::Sparse(params)
        .forward_backward(&model, &seq, &mut ws_s)
        .unwrap();
    let dense = forward_backward_scaled(&model, &seq, &mut ws_d).unwrap();
    assert_eq!(
        sparse.log_likelihood.to_bits(),
        dense.log_likelihood.to_bits()
    );
    assert_bits_eq(&sparse.gamma, &dense.gamma, "gamma");
    let report = ws_s.sparse_report().unwrap();
    assert_eq!(report.fallback_rows, k);
}

#[test]
fn partially_pruned_matrix_keeps_only_emptied_rows_dense() {
    // One concentrated row (survives pruning) and one uniform row (empties
    // and falls back): the mixed matrix must still be exact w.r.t. Ã.
    let a = Matrix::from_rows(&[
        vec![0.90, 0.05, 0.05],
        vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
        vec![0.05, 0.05, 0.90],
    ])
    .unwrap();
    let b = Matrix::from_rows(&[
        vec![0.8, 0.1, 0.1],
        vec![0.1, 0.8, 0.1],
        vec![0.1, 0.1, 0.8],
    ])
    .unwrap();
    let model = Hmm::new(vec![1.0 / 3.0; 3], a, DiscreteEmission::new(b).unwrap()).unwrap();
    let params = SparseParams::threshold(0.4);
    let csr = CsrTransition::compile(model.transition(), params).unwrap();
    assert_eq!(csr.fallback_rows(), 1);
    assert_eq!(csr.nnz(), 1 + 3 + 1);

    let tilde = pruned_model(&model, params);
    let seq = vec![0usize, 1, 2, 2, 0, 1, 0];
    let mut ws_s = InferenceWorkspace::new();
    let mut ws_d = InferenceWorkspace::new();
    let sparse = InferenceBackend::Sparse(params)
        .forward_backward(&model, &seq, &mut ws_s)
        .unwrap();
    let dense = forward_backward_scaled(&tilde, &seq, &mut ws_d).unwrap();
    assert!((sparse.log_likelihood - dense.log_likelihood).abs() < 1e-12);
    assert!(sparse.gamma.approx_eq(&dense.gamma, 1e-12));
}

#[test]
fn zero_probability_and_oov_symbols_survive_pruning() {
    // Symbol 2 has exactly zero probability under both states (the shifted
    // log-space rescue path), and symbol 7 is outside the vocabulary
    // entirely. Neither may panic or go NaN under pruning, and the
    // zero-probability run must agree with the dense engine on Ã.
    let emission = DiscreteEmission::new(
        Matrix::from_rows(&[vec![0.5, 0.5, 0.0], vec![0.9, 0.1, 0.0]]).unwrap(),
    )
    .unwrap();
    let transition = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.3, 0.7]]).unwrap();
    let model = Hmm::new(vec![0.5, 0.5], transition, emission).unwrap();
    let params = SparseParams::threshold(0.4);
    let tilde = pruned_model(&model, params);
    let mut ws = InferenceWorkspace::new();

    let zero_sym = vec![0usize, 2, 1, 2, 2, 0];
    let stats = InferenceBackend::Sparse(params)
        .forward_backward(&model, &zero_sym, &mut ws)
        .unwrap();
    assert!(stats.log_likelihood.is_finite());
    assert!(stats.gamma.is_finite());
    let mut ws_d = InferenceWorkspace::new();
    let exact = forward_backward_scaled(&tilde, &zero_sym, &mut ws_d).unwrap();
    assert!(
        (stats.log_likelihood - exact.log_likelihood).abs() < 1e-12,
        "zero-probability symbol: sparse {} vs dense on Ã {}",
        stats.log_likelihood,
        exact.log_likelihood
    );

    let oov = vec![0usize, 7, 1];
    let ll = InferenceBackend::Sparse(params)
        .log_likelihood(&model, &oov, &mut ws)
        .unwrap();
    assert!(ll.is_finite());
    assert!(ll < -500.0, "floored OOV step should be heavily penalized");
    let (path, score) = InferenceBackend::Sparse(params)
        .viterbi_with_score(&model, &oov, &mut ws)
        .unwrap();
    assert_eq!(path.len(), 3);
    assert!(!score.is_nan());
}

#[test]
fn workspace_reuse_across_shapes_and_params_is_safe() {
    // One workspace serves models of different sizes and changing prune
    // rules in arbitrary order: the cached CSR must recompile (never reuse
    // stale structure) and grow/shrink without leaking old entries.
    let mut ws = InferenceWorkspace::new();
    let plans = [
        (6usize, 8usize, 24usize, SparseParams::threshold(0.1)),
        (2, 3, 5, SparseParams::exact()),
        (6, 8, 24, SparseParams::top_p(0.8)),
        (4, 5, 17, SparseParams::threshold(0.2)),
        (4, 5, 17, SparseParams::threshold(0.05)),
    ];
    for (i, &(k, v, len, params)) in plans.iter().enumerate() {
        let model = random_hmm(k, v, 90 + i as u64);
        let seq = random_seq(v, len, 190 + i as u64);
        let reused = InferenceBackend::Sparse(params)
            .forward_backward(&model, &seq, &mut ws)
            .unwrap();
        let mut fresh_ws = InferenceWorkspace::new();
        let fresh = InferenceBackend::Sparse(params)
            .forward_backward(&model, &seq, &mut fresh_ws)
            .unwrap();
        assert_eq!(
            reused.log_likelihood.to_bits(),
            fresh.log_likelihood.to_bits(),
            "reused workspace diverged at step {i}"
        );
        assert_bits_eq(&reused.gamma, &fresh.gamma, "gamma");
        assert_eq!(ws.sparse_report(), fresh_ws.sparse_report());
    }
}

#[test]
fn em_training_runs_under_the_sparse_backend() {
    // The backend threads through BaumWelchConfig: with exact params the
    // whole EM trace matches the scaled engine's bit-for-bit.
    use dhmm_hmm::{BaumWelch, BaumWelchConfig};
    let truth = random_hmm(3, 4, 7);
    let mut rng = StdRng::seed_from_u64(8);
    let data: Vec<Vec<usize>> = dhmm_hmm::generate::generate_sequences(&truth, 12, 10, &mut rng)
        .unwrap()
        .into_iter()
        .map(|s| s.observations)
        .collect();

    let mut sparse_model = random_hmm(3, 4, 21);
    let mut scaled_model = sparse_model.clone();
    let base = BaumWelchConfig {
        max_iterations: 6,
        tolerance: 0.0,
        ..BaumWelchConfig::default()
    };
    let sparse_fit = BaumWelch::new(BaumWelchConfig {
        backend: InferenceBackend::Sparse(SparseParams::exact()),
        ..base.clone()
    })
    .fit(&mut sparse_model, &data)
    .unwrap();
    let scaled_fit = BaumWelch::new(BaumWelchConfig {
        backend: InferenceBackend::Scaled,
        ..base.clone()
    })
    .fit(&mut scaled_model, &data)
    .unwrap();
    for (s, d) in sparse_fit
        .log_likelihood_history
        .iter()
        .zip(&scaled_fit.log_likelihood_history)
    {
        assert_eq!(s.to_bits(), d.to_bits(), "EM traces diverged: {s} vs {d}");
    }
    assert!(sparse_model
        .transition()
        .approx_eq(scaled_model.transition(), 0.0));

    // A pruned backend still trains (monotone up to the declared bound).
    let mut pruned = random_hmm(3, 4, 22);
    let fit = BaumWelch::new(BaumWelchConfig {
        backend: InferenceBackend::Sparse(SparseParams::threshold(0.05)),
        ..base.clone()
    })
    .fit(&mut pruned, &data)
    .unwrap();
    assert!(fit.log_likelihood_history.iter().all(|l| l.is_finite()));
    assert!(pruned.transition().is_row_stochastic(1e-6));
}
