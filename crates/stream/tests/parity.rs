//! Streaming ↔ offline equivalence.
//!
//! The acceptance contract of the streaming subsystem: with `lag ≥ T` the
//! online decode is *exactly* the offline decode (the same Viterbi path and
//! score bits, posteriors within 1e-9), and at any smaller lag every
//! filtered/smoothed row matches the offline forward–backward marginal of
//! the prefix it conditions on.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::{forward_backward_scaled, viterbi_scaled_with_score, Hmm, InferenceWorkspace};
use dhmm_stream::{Parallelism, SessionPool, StreamConfig, StreamingDecoder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Builds a random discrete HMM with `k` states and `v` symbols from a seed.
fn random_hmm(k: usize, v: usize, seed: u64) -> Hmm<DiscreteEmission> {
    dirichlet_hmm(k, v, 2.0, seed)
}

/// A discrete HMM whose initial distribution and transition rows are drawn
/// from a symmetric Dirichlet(`concentration`): 3 gives smooth rows, 0.05
/// gives rows with a few heavy entries and many (near-)zeros.
fn dirichlet_hmm(k: usize, v: usize, concentration: f64, seed: u64) -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        k,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration },
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

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The documented contract at real sizes: with `lag ≥ T` the stream returns
/// `viterbi_scaled_with_score`'s path and score, and `forward_backward_scaled`'s
/// log-likelihood and γ rows, bit for bit. The sizes are the paper's PoS
/// model (k = 15), either side of the dense steps' 8- and 16-state tiles
/// (16, 17) and the `train-wide` benchmark model (64); the transitions are
/// smooth Dirichlet(3) rows and sparse Dirichlet(0.05) rows, whose
/// near-zeros and exact zeros exercise the first-occurrence tie rule and
/// the forward step's zero-predecessor skip. The stream stores every
/// state's backpointer as it goes, while the offline decode recomputes them
/// along its path only, so this also compares the two backtracks at these
/// sizes; exact ties on a decoded path are rare here, and
/// `crates/hmm/tests/viterbi_bits.rs` pins the offline tie rule on models
/// built to tie.
#[test]
fn full_lag_stream_reproduces_offline_bits_at_real_sizes() {
    const VOCAB: usize = 24;
    let mut ws = InferenceWorkspace::new();
    for k in [15usize, 16, 17, 64] {
        for concentration in [3.0, 0.05] {
            for seed in 0..4u64 {
                let model = dirichlet_hmm(k, VOCAB, concentration, seed);
                let len = 1 + 61 * seed as usize;
                let seq = random_seq(VOCAB, len, seed.wrapping_add(500));
                let (want, want_score) = viterbi_scaled_with_score(&model, &seq, &mut ws).unwrap();
                let stats = forward_backward_scaled(&model, &seq, &mut ws).unwrap();

                let mut dec = StreamingDecoder::new(&model, len);
                let mut got = Vec::new();
                for obs in &seq {
                    got.extend_from_slice(dec.push(obs).committed);
                }
                let flush = dec.flush();
                got.extend_from_slice(flush.committed);
                let case = format!("k={k} concentration={concentration} seed={seed} T={len}");
                assert_eq!(got, want, "path, {case}");
                assert_eq!(
                    flush.viterbi_log_score.to_bits(),
                    want_score.to_bits(),
                    "score {} vs {}, {case}",
                    flush.viterbi_log_score,
                    want_score
                );
                assert_eq!(
                    flush.log_likelihood.to_bits(),
                    stats.log_likelihood.to_bits(),
                    "log-likelihood {} vs {}, {case}",
                    flush.log_likelihood,
                    stats.log_likelihood
                );
                assert_eq!(flush.smoothed_start, 0, "{case}");
                assert_eq!(flush.smoothed.len(), len * k, "{case}");
                for (t, row) in flush.smoothed.chunks(k).enumerate() {
                    let got: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = stats.gamma.row(t).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "gamma row {t}, {case}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With lag ≥ T, streaming is offline decoding: identical path (ties
    /// compared via joint likelihood), posteriors and likelihood to 1e-9.
    #[test]
    fn full_lag_stream_equals_offline(
        k in 2usize..5, v in 2usize..6, seed in 0u64..400, len in 1usize..40
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(1));

        let mut ws = InferenceWorkspace::new();
        let (offline_path, offline_score) =
            viterbi_scaled_with_score(&model, &seq, &mut ws).unwrap();
        let offline_stats = forward_backward_scaled(&model, &seq, &mut ws).unwrap();

        let mut dec = StreamingDecoder::new(&model, len);
        let mut streamed_path = Vec::new();
        let mut prefix_ws = InferenceWorkspace::new();
        for (t, obs) in seq.iter().enumerate() {
            let step = dec.push(obs);
            prop_assert_eq!(step.t, t);

            // Filtered posterior == last γ row of the offline prefix run.
            let prefix = forward_backward_scaled(&model, &seq[..=t], &mut prefix_ws).unwrap();
            let gamma_t = prefix.gamma.row(t);
            prop_assert!(
                max_abs_diff(step.filtered, gamma_t) < 1e-9,
                "filtered diverged at t={} ({:?} vs {:?})", t, step.filtered, gamma_t
            );
            // Running log-likelihood == offline prefix log-likelihood.
            prop_assert!(
                (step.log_likelihood - prefix.log_likelihood).abs() < 1e-9,
                "ll diverged at t={}: {} vs {}", t, step.log_likelihood, prefix.log_likelihood
            );

            // Commits arrive in order with contiguous time stamps.
            if !step.committed.is_empty() {
                prop_assert_eq!(step.committed_start, streamed_path.len());
                streamed_path.extend_from_slice(step.committed);
            }
            // Mid-stream smoothing blocks never fire at full lag (2L ≥ 2T),
            // except in the degenerate lag-0 case excluded here (len ≥ 1 ⇒
            // lag ≥ 1).
            prop_assert!(step.smoothed.is_empty());
        }

        let tail_start = streamed_path.len();
        let flush = dec.flush();
        prop_assert_eq!(flush.committed_start, tail_start);
        streamed_path.extend_from_slice(flush.committed);
        prop_assert_eq!(streamed_path.len(), len);

        // Same path, or a co-optimal one (identical joint likelihood).
        if streamed_path != offline_path {
            let js = model.joint_log_likelihood(&streamed_path, &seq).unwrap();
            let jo = model.joint_log_likelihood(&offline_path, &seq).unwrap();
            prop_assert!(
                (js - jo).abs() < 1e-7,
                "paths differ and are not co-optimal: {js} vs {jo}"
            );
        }
        prop_assert!(
            (flush.viterbi_log_score - offline_score).abs() < 1e-9,
            "scores diverged: {} vs {}", flush.viterbi_log_score, offline_score
        );
        prop_assert!((flush.log_likelihood - offline_stats.log_likelihood).abs() < 1e-9);

        // All smoothed rows arrive at flush and equal the full-run γ.
        prop_assert_eq!(flush.smoothed_start, 0);
        prop_assert_eq!(flush.smoothed.len(), len * k);
        for t in 0..len {
            let row = &flush.smoothed[t * k..(t + 1) * k];
            prop_assert!(
                max_abs_diff(row, offline_stats.gamma.row(t)) < 1e-9,
                "smoothed row {} diverged", t
            );
        }
    }

    /// At any lag, each smoothed row for time s emitted while the stream is
    /// at time t equals row s of the offline forward–backward over the
    /// prefix y_0..=t, and conditions on at least `lag` tokens of lookahead.
    #[test]
    fn fixed_lag_smoothing_matches_prefix_marginals(
        k in 2usize..4, v in 2usize..5, seed in 0u64..300, len in 2usize..36, lag in 1usize..6
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(3));

        let mut dec = StreamingDecoder::new(&model, lag);
        let mut prefix_ws = InferenceWorkspace::new();
        // (time s, conditioning time t, row)
        let mut emitted: Vec<(usize, usize, Vec<f64>)> = Vec::new();
        for (t, obs) in seq.iter().enumerate() {
            let step = dec.push(obs);
            for (i, row) in step.smoothed.chunks(k).enumerate() {
                let s = step.smoothed_start + i;
                prop_assert!(t >= s + lag, "row {s} emitted at {t} with lookahead < lag");
                emitted.push((s, t, row.to_vec()));
            }
        }
        let flush = dec.flush();
        for (i, row) in flush.smoothed.chunks(k).enumerate() {
            emitted.push((flush.smoothed_start + i, len - 1, row.to_vec()));
        }

        // Exactly one row per time step, in ascending order.
        prop_assert_eq!(emitted.len(), len);
        for (expect, (s, _, _)) in emitted.iter().enumerate() {
            prop_assert_eq!(*s, expect);
        }
        for (s, t, row) in &emitted {
            let prefix = forward_backward_scaled(&model, &seq[..=*t], &mut prefix_ws).unwrap();
            prop_assert!(
                max_abs_diff(row, prefix.gamma.row(*s)) < 1e-9,
                "smoothed({s} | ..={t}) diverged"
            );
        }
    }

    /// Forced commits at small lags still emit a complete, valid, connected
    /// state path whose joint likelihood is consistent.
    #[test]
    fn small_lag_paths_are_complete_and_consistent(
        k in 2usize..5, v in 2usize..5, seed in 0u64..300, len in 1usize..50, lag in 0usize..4
    ) {
        let model = random_hmm(k, v, seed);
        let seq = random_seq(v, len, seed.wrapping_add(7));
        let mut dec = StreamingDecoder::new(&model, lag);
        let mut path = Vec::new();
        for (t, obs) in seq.iter().enumerate() {
            let step = dec.push(obs);
            path.extend_from_slice(step.committed);
            // The lag bound: everything up to t − lag must be committed.
            prop_assert!(path.len() + lag > t, "lag bound violated at t={t}");
        }
        path.extend_from_slice(dec.flush().committed);
        prop_assert_eq!(path.len(), len);
        prop_assert!(path.iter().all(|&s| s < k));
        // The emitted sequence is a real path: its joint likelihood is
        // finite and cannot beat the offline optimum.
        let joint = model.joint_log_likelihood(&path, &seq).unwrap();
        let mut ws = InferenceWorkspace::new();
        let (_, best) = viterbi_scaled_with_score(&model, &seq, &mut ws).unwrap();
        prop_assert!(joint.is_finite());
        prop_assert!(joint <= best + 1e-7, "streamed path beats the optimum: {joint} > {best}");
    }

    /// Pool ticks are an execution strategy, not a semantic: a pool of
    /// co-resident sessions produces, per session, exactly the standalone
    /// [`StreamingDecoder`]'s labels, likelihood bits and sparse
    /// error-bound bits — which the tests above pin against offline
    /// decoding. The sweep crosses lag ∈ {0, 1, 8} (the lag-0 copy path,
    /// the every-push block boundary, and multi-step windows spanning
    /// ticks) with both streaming backends and staggered session starts:
    /// two sessions join mid-stream, so one tick advances sessions at
    /// different absolute `t` whose smoothing windows are offset from each
    /// other. Staggered lengths give ticks of mixed pending depths and
    /// tails where only some sessions still stream.
    #[test]
    fn pool_equals_the_standalone_decoder(
        k in 2usize..5, v in 2usize..6, seed in 0u64..300, lag_pick in 0usize..3,
        chunk in 1usize..8, sparse_bit in 0usize..2
    ) {
        let lag = [0usize, 1, 8][lag_pick];
        let m = Arc::new(random_hmm(k, v, seed));
        let backend = if sparse_bit == 1 {
            dhmm_hmm::InferenceBackend::Sparse(
                dhmm_hmm::sparse::SparseParams::threshold(0.05),
            )
        } else {
            dhmm_hmm::InferenceBackend::Scaled
        };
        let config = StreamConfig::default()
            .with_lag(lag)
            .with_backend(backend)
            .with_parallelism(Parallelism::Serial);
        // Sessions 6 and 7 join once 8 rounds have streamed: their windows
        // are offset from the original cohort's by a data-dependent amount.
        let lens = [24usize, 24, 24, 17, 17, 9, 16, 16];
        let starts = [0usize, 0, 0, 0, 0, 0, 8, 8];
        let seqs: Vec<Vec<usize>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| random_seq(v, len, seed.wrapping_add(10 + i as u64)))
            .collect();

        let mut pool = SessionPool::with_config(Arc::clone(&m), config.clone()).unwrap();
        let mut ids: Vec<Option<dhmm_stream::SessionId>> = vec![None; lens.len()];
        let mut pushed = vec![0usize; lens.len()];
        let mut offset = 0;
        while pushed.iter().zip(&lens).any(|(p, l)| p < l) {
            for (i, seq) in seqs.iter().enumerate() {
                if ids[i].is_none() && offset >= starts[i] {
                    ids[i] = Some(pool.create());
                }
                if let Some(id) = ids[i] {
                    let take = chunk.min(seq.len() - pushed[i]);
                    for &obs in seq.iter().skip(pushed[i]).take(take) {
                        pool.push(id, obs).unwrap();
                    }
                    pushed[i] += take;
                }
            }
            pool.tick();
            offset += chunk;
        }
        for (id, seq) in ids.iter().zip(&seqs) {
            let id = id.unwrap();
            pool.flush(id).unwrap();
            let mut got = Vec::new();
            pool.take_committed(id, &mut got).unwrap();

            let mut dec = StreamingDecoder::with_config(&m, config.clone()).unwrap();
            let mut want = Vec::new();
            for obs in seq {
                want.extend_from_slice(dec.push(obs).committed);
            }
            want.extend_from_slice(dec.flush().committed);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(
                pool.log_likelihood(id).unwrap().to_bits(),
                dec.log_likelihood().to_bits()
            );
        }
    }
}
