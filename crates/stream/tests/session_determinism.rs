//! Batch ticks of the session pool must be bit-identical across worker
//! policies — the streaming extension of the runtime's determinism
//! contract pinned end-to-end by `crates/core/tests/parallel_determinism.rs`
//! for training. Sessions are independent and each is advanced sequentially
//! in queue order, so `Serial`, `Threads(2)` and `Threads(8)` may only
//! change wall-clock time.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::generate::generate_sequences;
use dhmm_hmm::sparse::SparseParams;
use dhmm_hmm::{Hmm, InferenceBackend};
use dhmm_linalg::Matrix;
use dhmm_stream::{Parallelism, SessionPool, StreamConfig, StreamingDecoder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const POLICIES: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

/// Both streaming backends: the dense scaled engine and the CSR sparse
/// engine, which must hold the same determinism contract.
fn backends() -> [InferenceBackend; 2] {
    [
        InferenceBackend::Scaled,
        InferenceBackend::Sparse(SparseParams::threshold(0.02)),
    ]
}

fn model() -> Hmm<DiscreteEmission> {
    let emission = DiscreteEmission::new(
        Matrix::from_rows(&[
            vec![0.6, 0.25, 0.1, 0.05],
            vec![0.1, 0.55, 0.25, 0.1],
            vec![0.05, 0.15, 0.55, 0.25],
        ])
        .unwrap(),
    )
    .unwrap();
    let transition = Matrix::from_rows(&[
        vec![0.75, 0.15, 0.1],
        vec![0.1, 0.75, 0.15],
        vec![0.2, 0.1, 0.7],
    ])
    .unwrap();
    Hmm::new(vec![0.4, 0.3, 0.3], transition, emission).unwrap()
}

fn corpus(n: usize, len: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(41);
    generate_sequences(&model(), n, len, &mut rng)
        .unwrap()
        .into_iter()
        .map(|s| s.observations)
        .collect()
}

/// One run's evidence per session: committed labels + final ll bits.
type PoolTrace = Vec<(Vec<usize>, u64)>;

/// Streams `seqs` through a pool in interleaved chunks under `policy` and
/// the given backend.
fn run_pool_with(
    m: &Arc<Hmm<DiscreteEmission>>,
    seqs: &[Vec<usize>],
    policy: Parallelism,
    backend: InferenceBackend,
) -> PoolTrace {
    let mut pool = SessionPool::with_config(
        Arc::clone(m),
        StreamConfig::default()
            .with_lag(4)
            .with_backend(backend)
            .with_parallelism(policy),
    )
    .unwrap();
    let ids: Vec<_> = seqs.iter().map(|_| pool.create()).collect();
    let chunk = 7;
    let mut offset = 0;
    let max_len = seqs.iter().map(|s| s.len()).max().unwrap_or(0);
    while offset < max_len {
        for (id, seq) in ids.iter().zip(seqs) {
            for &obs in seq.iter().skip(offset).take(chunk) {
                pool.push(*id, obs).unwrap();
            }
        }
        pool.tick();
        offset += chunk;
    }
    ids.iter()
        .zip(seqs)
        .map(|(id, _)| {
            pool.flush(*id).unwrap();
            let mut out = Vec::new();
            pool.take_committed(*id, &mut out).unwrap();
            (out, pool.log_likelihood(*id).unwrap().to_bits())
        })
        .collect()
}

fn run_pool(m: &Arc<Hmm<DiscreteEmission>>, seqs: &[Vec<usize>], policy: Parallelism) -> PoolTrace {
    run_pool_with(m, seqs, policy, InferenceBackend::Scaled)
}

/// Truncates the corpus to staggered lengths so ticks see a mix of pending
/// depths, and sessions that stop streaming while others go on.
fn staggered(mut seqs: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for (i, seq) in seqs.iter_mut().enumerate() {
        let cut = seq.len() - (i * 5) % 31;
        seq.truncate(cut);
    }
    seqs
}

#[test]
fn pool_ticks_are_bit_identical_across_worker_policies_and_lockstep_modes() {
    let m = Arc::new(model());
    let seqs = staggered(corpus(12, 90));
    for backend in backends() {
        let runs: Vec<PoolTrace> = POLICIES
            .iter()
            .map(|&p| run_pool_with(&m, &seqs, p, backend))
            .collect();
        for (i, run) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                run, &runs[0],
                "run {i} diverged from Serial under {backend:?}"
            );
        }
    }
}

#[test]
fn pool_sessions_match_standalone_decoders() {
    // Multiplexing must be invisible: a pooled session's labels and
    // likelihood equal a standalone decoder's on the same stream, bit for
    // bit, regardless of tick chunking.
    let m = Arc::new(model());
    let seqs = staggered(corpus(6, 73));
    for backend in backends() {
        let pooled = run_pool_with(&m, &seqs, Parallelism::Threads(4), backend);
        for (seq, (labels, ll_bits)) in seqs.iter().zip(&pooled) {
            let config = StreamConfig::default().with_lag(4).with_backend(backend);
            let mut dec = StreamingDecoder::with_config(&m, config).unwrap();
            let mut path = Vec::new();
            for obs in seq {
                path.extend_from_slice(dec.push(obs).committed);
            }
            path.extend_from_slice(dec.flush().committed);
            assert_eq!(&path, labels, "backend={backend:?}");
            assert_eq!(dec.log_likelihood().to_bits(), *ll_bits);
        }
    }
}

#[test]
fn auto_policy_matches_the_serial_oracle() {
    let m = Arc::new(model());
    let seqs = corpus(9, 64);
    let auto = run_pool(&m, &seqs, Parallelism::Auto);
    let serial = run_pool(&m, &seqs, Parallelism::Serial);
    assert_eq!(auto, serial);
}
