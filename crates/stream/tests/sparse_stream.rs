//! Streaming parity for the sparse backend.
//!
//! Mirrors `tests/parity.rs` with `InferenceBackend::Sparse`: exact params
//! must be bit-identical to the scaled streaming path, pruned params must
//! match the *offline sparse engine* (the oracle for Ã) bit for bit, and the
//! pool must match the scalar decoder.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::{Hmm, InferenceWorkspace};
use dhmm_stream::{
    InferenceBackend, Parallelism, SessionPool, SparseParams, StreamConfig, StreamError,
    StreamingDecoder,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..v)).collect()
}

/// Runs one decoder to completion, returning (labels, final ll).
fn run_decoder(
    model: &Hmm<DiscreteEmission>,
    config: StreamConfig,
    seq: &[usize],
) -> (Vec<usize>, f64) {
    let mut dec = StreamingDecoder::with_config(model, config).unwrap();
    let mut labels = Vec::new();
    for obs in seq {
        labels.extend_from_slice(dec.push(obs).committed);
    }
    let flush = dec.flush();
    labels.extend_from_slice(flush.committed);
    let ll = flush.log_likelihood;
    (labels, ll)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact sparse params stream bit-identically to the scaled backend.
    #[test]
    fn exact_sparse_stream_is_bit_identical_to_scaled(
        k in 2usize..5, v in 2usize..6, seed in 0u64..300, len in 1usize..36, lag in 0usize..6
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(1));
        let base = StreamConfig::default().with_lag(lag);

        let mut scaled = StreamingDecoder::with_config(&model, base.clone()).unwrap();
        let mut sparse = StreamingDecoder::with_config(
            &model,
            base.with_backend(InferenceBackend::Sparse(SparseParams::exact())),
        )
        .unwrap();

        for obs in &seq {
            let a = scaled.push(obs);
            let b = sparse.push(obs);
            prop_assert_eq!(a.committed, b.committed);
            prop_assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
            for (x, y) in a.filtered.iter().zip(b.filtered) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        let fa = scaled.flush();
        let fb = sparse.flush();
        prop_assert_eq!(fa.committed, fb.committed);
        prop_assert_eq!(fa.viterbi_log_score.to_bits(), fb.viterbi_log_score.to_bits());
        prop_assert_eq!(fa.log_likelihood.to_bits(), fb.log_likelihood.to_bits());
        for (x, y) in fa.smoothed.iter().zip(fb.smoothed) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// With lag ≥ T, pruned sparse streaming is the offline sparse engine
    /// bit for bit: the same path, score, log-likelihood and smoothed rows.
    #[test]
    fn full_lag_pruned_stream_equals_offline_sparse(
        k in 2usize..5, v in 2usize..6, seed in 0u64..300, len in 1usize..30,
        tau in 0.0f64..0.3
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(2));
        let backend = InferenceBackend::Sparse(SparseParams::threshold(tau));

        let mut ws = InferenceWorkspace::new();
        let (offline_path, offline_score) =
            backend.viterbi_with_score(&model, &seq, &mut ws).unwrap();
        let offline_stats = backend.forward_backward(&model, &seq, &mut ws).unwrap();

        let mut dec = StreamingDecoder::with_config(
            &model,
            StreamConfig::default().with_lag(len).with_backend(backend),
        )
        .unwrap();
        let mut streamed = Vec::new();
        for obs in &seq {
            streamed.extend_from_slice(dec.push(obs).committed);
        }
        let flush = dec.flush();
        streamed.extend_from_slice(flush.committed);

        prop_assert_eq!(&streamed, &offline_path);
        prop_assert_eq!(flush.viterbi_log_score.to_bits(), offline_score.to_bits());
        prop_assert_eq!(
            flush.log_likelihood.to_bits(),
            offline_stats.log_likelihood.to_bits()
        );
        prop_assert_eq!(flush.smoothed.len(), len * k);
        for t in 0..len {
            let row = &flush.smoothed[t * k..(t + 1) * k];
            for (x, y) in row.iter().zip(offline_stats.gamma.row(t)) {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "smoothed row {}", t);
            }
        }
    }

    /// A sparse pool matches the standalone sparse decoder label-for-label
    /// and in its log-likelihood, bit for bit.
    #[test]
    fn sparse_pool_matches_the_scalar_decoder(
        k in 2usize..5, v in 2usize..6, seed in 0u64..200, lag in 0usize..5,
        chunk in 1usize..8
    ) {
        let m = Arc::new(random_hmm(k, v, seed));
        let params = SparseParams::threshold(0.05);
        let config = StreamConfig::default()
            .with_lag(lag)
            .with_backend(InferenceBackend::Sparse(params))
            .with_parallelism(Parallelism::Serial);

        let mut pool = SessionPool::with_config(Arc::clone(&m), config.clone()).unwrap();

        let lens = [24usize, 17, 9];
        let seqs: Vec<Vec<usize>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| random_seq(v, len, seed.wrapping_add(20 + i as u64)))
            .collect();
        let ids: Vec<_> = seqs.iter().map(|_| pool.create()).collect();
        let mut offset = 0;
        while offset < 24 {
            for (id, seq) in ids.iter().zip(&seqs) {
                for &obs in seq.iter().skip(offset).take(chunk) {
                    pool.push(*id, obs).unwrap();
                }
            }
            pool.tick();
            offset += chunk;
        }
        for (id, seq) in ids.iter().zip(&seqs) {
            pool.flush(*id).unwrap();
            let mut got = Vec::new();
            pool.take_committed(*id, &mut got).unwrap();

            let (want, ll) = run_decoder(&m, config.clone(), seq);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(pool.log_likelihood(*id).unwrap().to_bits(), ll.to_bits());
        }
    }
}

#[test]
fn invalid_sparse_params_are_rejected_at_construction() {
    let model = random_hmm(3, 4, 1);
    for bad in [SparseParams::threshold(f64::NAN), SparseParams::top_p(0.0)] {
        let config = StreamConfig::default().with_backend(InferenceBackend::Sparse(bad));
        match StreamingDecoder::with_config(&model, config.clone()) {
            Err(StreamError::InvalidConfig { .. }) => {}
            other => panic!("expected InvalidConfig for {bad:?}, got {other:?}"),
        }
        assert!(matches!(
            SessionPool::with_config(Arc::new(random_hmm(3, 4, 1)), config),
            Err(StreamError::InvalidConfig { .. })
        ));
    }
}
