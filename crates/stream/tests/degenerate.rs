//! Degenerate-input and lifecycle tests for the streaming subsystem:
//! length-1 streams, lags larger than the stream, exact-zero emissions
//! mid-stream, close/reopen workspace reuse, and stale-handle hygiene.

use dhmm_hmm::emission::{DiscreteEmission, GaussianEmission};
use dhmm_hmm::{
    viterbi_scaled_with_score, Hmm, InferenceBackend, InferenceWorkspace, SparseParams,
};
use dhmm_linalg::Matrix;
use dhmm_stream::{Parallelism, SessionPool, StreamError, StreamingDecoder};
use std::sync::Arc;

fn weather_model() -> Hmm<DiscreteEmission> {
    let emission =
        DiscreteEmission::new(Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap())
            .unwrap();
    let transition = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.3, 0.7]]).unwrap();
    Hmm::new(vec![0.5, 0.5], transition, emission).unwrap()
}

fn gaussian_model() -> Hmm<GaussianEmission> {
    let emission = GaussianEmission::new(vec![0.0, 5.0], vec![0.4, 0.6]).unwrap();
    let transition = Matrix::from_rows(&[vec![0.8, 0.2], vec![0.25, 0.75]]).unwrap();
    Hmm::new(vec![0.5, 0.5], transition, emission).unwrap()
}

/// Streams a sequence end to end and returns (path, final log-likelihood).
fn stream_all<E: dhmm_hmm::emission::Emission>(
    model: &Hmm<E>,
    lag: usize,
    seq: &[E::Obs],
) -> (Vec<usize>, f64) {
    let mut dec = StreamingDecoder::new(model, lag);
    let mut path = Vec::new();
    for obs in seq {
        path.extend_from_slice(dec.push(obs).committed);
    }
    let flush = dec.flush();
    path.extend_from_slice(flush.committed);
    (path, flush.log_likelihood)
}

#[test]
fn length_one_streams_decode_like_offline() {
    let m = weather_model();
    let mut ws = InferenceWorkspace::new();
    for lag in [0usize, 1, 5] {
        for obs in [0usize, 1] {
            let (path, ll) = stream_all(&m, lag, &[obs]);
            let (offline, _) = viterbi_scaled_with_score(&m, &[obs], &mut ws).unwrap();
            assert_eq!(path, offline, "lag={lag} obs={obs}");
            let offline_ll = m.log_likelihood(&[obs]).unwrap();
            assert!((ll - offline_ll).abs() < 1e-12, "lag={lag} obs={obs}");
        }
    }
}

#[test]
fn lag_larger_than_the_stream_is_exact() {
    let m = weather_model();
    let seq = vec![0usize, 1, 1, 0, 1];
    let mut ws = InferenceWorkspace::new();
    let (offline, score) = viterbi_scaled_with_score(&m, &seq, &mut ws).unwrap();
    for lag in [seq.len(), 50, 1000] {
        let mut dec = StreamingDecoder::new(&m, lag);
        for obs in &seq {
            dec.push(obs);
        }
        let flush = dec.flush();
        // Everything commits at flush (or earlier via convergence, which is
        // exact); the concatenation is checked in the parity suite — here we
        // check the big-lag memory shape stays proportional to T, not lag.
        assert!((flush.viterbi_log_score - score).abs() < 1e-9, "lag={lag}");
    }
    let (path, _) = stream_all(&m, 50, &seq);
    assert_eq!(path, offline);
}

#[test]
fn exact_zero_emission_mid_stream_stays_finite() {
    // Out-of-vocabulary symbol: every state assigns it probability zero.
    let m = weather_model();
    let seq = vec![0usize, 1, 7, 0, 1, 1];
    for lag in [0usize, 1, 2, 10] {
        let (path, ll) = stream_all(&m, lag, &seq);
        assert_eq!(path.len(), seq.len(), "lag={lag}");
        assert!(path.iter().all(|&s| s < 2), "lag={lag}");
        assert!(ll.is_finite(), "lag={lag}");
    }
    // Offline decoding floors the impossible step by the same rule, so the
    // full-lag stream matches it here too.
    let mut ws = InferenceWorkspace::new();
    let (offline, _) = viterbi_scaled_with_score(&m, &seq, &mut ws).unwrap();
    let (path, ll) = stream_all(&m, seq.len(), &seq);
    assert_eq!(path, offline);
    assert_eq!(ll.to_bits(), m.log_likelihood(&seq).unwrap().to_bits());

    // Gaussian outlier so extreme the density underflows to exact zero in
    // the linear domain — the shifted-log rescue path must absorb it.
    let g = gaussian_model();
    let gseq = vec![0.1, 5.2, 1.0e8, 4.9, 0.0];
    for lag in [1usize, 3, 20] {
        let (path, ll) = stream_all(&g, lag, &gseq);
        assert_eq!(path.len(), gseq.len(), "lag={lag}");
        assert!(ll.is_finite(), "lag={lag}");
    }
    // And the full-lag stream still matches offline on the rescued input.
    let mut ws = InferenceWorkspace::new();
    let (offline, _) = viterbi_scaled_with_score(&g, &gseq, &mut ws).unwrap();
    let (path, ll) = stream_all(&g, gseq.len(), &gseq);
    assert_eq!(path, offline);
    let offline_ll = g.log_likelihood(&gseq).unwrap();
    assert!((ll - offline_ll).abs() < 1e-9);
}

#[test]
fn out_of_vocabulary_steps_decode_alike_offline_and_streaming() {
    // Symbol 7 is impossible under every state. The dense and sparse offline
    // engines and the full-lag stream all floor that step to a uniform row,
    // so they return the same labels and the same score, bit for bit.
    let m = weather_model();
    let mut ws = InferenceWorkspace::new();
    for (seq, want) in [
        (vec![1usize, 1, 7, 1, 1], vec![1usize, 1, 1, 1, 1]),
        (vec![0, 1, 7, 0, 1, 1], vec![0, 1, 0, 0, 1, 1]),
    ] {
        let (dense, dense_score) = viterbi_scaled_with_score(&m, &seq, &mut ws).unwrap();
        let (sparse, sparse_score) = InferenceBackend::Sparse(SparseParams::exact())
            .viterbi_with_score(&m, &seq, &mut ws)
            .unwrap();
        let mut dec = StreamingDecoder::new(&m, seq.len());
        let mut streamed = Vec::new();
        for obs in &seq {
            streamed.extend_from_slice(dec.push(obs).committed);
        }
        let flush = dec.flush();
        streamed.extend_from_slice(flush.committed);

        assert_eq!(dense, want, "{seq:?}");
        assert_eq!(sparse, want, "{seq:?}");
        assert_eq!(streamed, want, "{seq:?}");
        assert!(dense_score.is_finite(), "{seq:?}: {dense_score}");
        assert_eq!(sparse_score.to_bits(), dense_score.to_bits(), "{seq:?}");
        assert_eq!(
            flush.viterbi_log_score.to_bits(),
            dense_score.to_bits(),
            "{seq:?}"
        );
    }
}

#[test]
#[should_panic(expected = "push after flush")]
fn decoder_push_after_flush_panics() {
    let m = weather_model();
    let mut dec = StreamingDecoder::new(&m, 2);
    dec.push(&0usize);
    dec.flush();
    dec.push(&1usize);
}

#[test]
fn decoder_reset_restarts_identically() {
    let m = weather_model();
    let seq = vec![0usize, 1, 0, 0, 1, 1, 0];
    let mut dec = StreamingDecoder::new(&m, 2);
    let mut first = Vec::new();
    for obs in &seq {
        first.extend_from_slice(dec.push(obs).committed);
    }
    first.extend_from_slice(dec.flush().committed);
    let ll_first = dec.log_likelihood();

    dec.reset();
    let mut second = Vec::new();
    for obs in &seq {
        second.extend_from_slice(dec.push(obs).committed);
    }
    second.extend_from_slice(dec.flush().committed);
    assert_eq!(first, second);
    assert_eq!(ll_first.to_bits(), dec.log_likelihood().to_bits());
}

#[test]
fn session_close_reopen_reuses_a_shrunk_then_grown_workspace() {
    let m = Arc::new(weather_model());
    let long: Vec<usize> = (0..120).map(|i| (i / 3) % 2).collect();
    let short = &long[..10];

    // Reference: a fresh pool per stream.
    let reference = |seq: &[usize]| -> (Vec<usize>, f64) {
        let mut pool = SessionPool::new(Arc::clone(&m), 3, Parallelism::Serial);
        let id = pool.create();
        for &obs in seq {
            pool.push(id, obs).unwrap();
        }
        pool.tick();
        pool.flush(id).unwrap();
        let mut out = Vec::new();
        pool.take_committed(id, &mut out).unwrap();
        (out, pool.log_likelihood(id).unwrap())
    };
    let (long_path, long_ll) = reference(&long);
    let (short_path, short_ll) = reference(short);

    // One pool, one slot: long stream, close, reopen (shrunk), close,
    // reopen with the long stream again (grown) — all on warm buffers.
    let mut pool = SessionPool::new(Arc::clone(&m), 3, Parallelism::Serial);
    let run = |pool: &mut SessionPool<DiscreteEmission>, seq: &[usize]| {
        let id = pool.create();
        assert_eq!(id.slot(), 0, "slot must be reused");
        for &obs in seq {
            pool.push(id, obs).unwrap();
        }
        pool.tick();
        pool.flush(id).unwrap();
        let mut out = Vec::new();
        pool.take_committed(id, &mut out).unwrap();
        let ll = pool.log_likelihood(id).unwrap();
        pool.close(id).unwrap();
        (out, ll)
    };
    let (p1, l1) = run(&mut pool, &long);
    let (p2, l2) = run(&mut pool, short);
    let (p3, l3) = run(&mut pool, &long);
    assert_eq!(p1, long_path);
    assert_eq!(l1.to_bits(), long_ll.to_bits());
    assert_eq!(p2, short_path);
    assert_eq!(l2.to_bits(), short_ll.to_bits());
    assert_eq!(p3, long_path);
    assert_eq!(l3.to_bits(), long_ll.to_bits());
}

#[test]
fn stale_and_invalid_session_ids_are_rejected() {
    let m = Arc::new(weather_model());
    let mut pool = SessionPool::new(m, 2, Parallelism::Serial);
    let id = pool.create();
    pool.push(id, 0).unwrap();
    pool.close(id).unwrap();
    // The old handle is stale after close (even once the slot is reused).
    assert!(matches!(
        pool.push(id, 0),
        Err(StreamError::SessionClosed { .. })
    ));
    let id2 = pool.create();
    assert_eq!(id2.slot(), id.slot());
    assert!(matches!(
        pool.committed(id),
        Err(StreamError::SessionClosed { .. })
    ));
    assert!(pool.committed(id2).is_ok());
    // Pushing after a flush is a session error, not a panic.
    pool.flush(id2).unwrap();
    assert!(matches!(
        pool.push(id2, 1),
        Err(StreamError::SessionFinished { .. })
    ));
    assert!(matches!(
        pool.flush(id2),
        Err(StreamError::SessionFinished { .. })
    ));
}
