//! Epoch-versioned model hot-swap semantics.
//!
//! The contract of [`SessionPool::publish`]: swapping the model at a commit
//! boundary is *exactly* close+reopen — a session that decodes segment 1
//! under model A and segment 2 under model B produces the concatenation of
//! (A-session over segment 1, flushed) and (B-session over segment 2,
//! flushed), labels bit-for-bit and log-likelihoods summed to the bit. And
//! a swap never rewrites history: labels committed before `publish` are
//! untouched afterwards. Both hold under every worker policy.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::sparse::SparseParams;
use dhmm_hmm::{Hmm, InferenceBackend};
use dhmm_stream::{Parallelism, SessionPool, StreamConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn random_hmm(k: usize, v: usize, seed: u64) -> Arc<Hmm<DiscreteEmission>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        k,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(k, v, 1.0, &mut rng).unwrap();
    Arc::new(Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap())
}

fn random_seq(v: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..v)).collect()
}

/// Decodes `seq` end-to-end in a fresh single-session pool: (labels, ll).
fn oracle(model: &Arc<Hmm<DiscreteEmission>>, lag: usize, seq: &[usize]) -> (Vec<usize>, f64) {
    let mut pool = SessionPool::new(Arc::clone(model), lag, Parallelism::Serial);
    let id = pool.create();
    for &obs in seq {
        pool.push(id, obs).unwrap();
    }
    pool.tick();
    pool.flush(id).unwrap();
    let mut out = Vec::new();
    pool.take_committed(id, &mut out).unwrap();
    (out, pool.log_likelihood(id).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `publish` at an arbitrary commit boundary ≡ close+reopen against the
    /// new model: same labels (bit-for-bit), summed log-likelihood, total
    /// token count.
    #[test]
    fn swap_at_commit_boundary_equals_close_reopen(
        k in 2usize..5, v in 2usize..6, seed in 0u64..400,
        lag in 0usize..6, len1 in 1usize..30, len2 in 1usize..30
    ) {
        let a = random_hmm(k, v, seed);
        let b = random_hmm(k, v, seed.wrapping_add(1_000));
        let seg1 = random_seq(v, len1, seed.wrapping_add(1));
        let seg2 = random_seq(v, len2, seed.wrapping_add(2));

        // Reference: two independent sessions, one per model.
        let (labels_a, ll_a) = oracle(&a, lag, &seg1);
        let (labels_b, ll_b) = oracle(&b, lag, &seg2);

        // Swapped: one session, `publish` between the segments. Segment 1
        // is fully ticked first so the publish lands on a commit boundary.
        let mut pool = SessionPool::new(Arc::clone(&a), lag, Parallelism::Serial);
        let id = pool.create();
        prop_assert_eq!(pool.session_epoch(id).unwrap(), 0);
        for &obs in &seg1 {
            pool.push(id, obs).unwrap();
        }
        pool.tick();
        let epoch = pool.publish(Arc::clone(&b));
        prop_assert_eq!(epoch, 1);
        for &obs in &seg2 {
            pool.push(id, obs).unwrap();
        }
        pool.tick();
        prop_assert_eq!(pool.session_epoch(id).unwrap(), 1);
        pool.flush(id).unwrap();
        let mut swapped = Vec::new();
        pool.take_committed(id, &mut swapped).unwrap();

        let mut expected = labels_a.clone();
        expected.extend_from_slice(&labels_b);
        prop_assert_eq!(&swapped, &expected);
        prop_assert_eq!(
            pool.log_likelihood(id).unwrap().to_bits(),
            (ll_a + ll_b).to_bits()
        );
        prop_assert_eq!(pool.tokens(id).unwrap(), len1 + len2);
    }

    /// A swap only ever *appends*: every label committed before `publish`
    /// is still there, unchanged, after the swap and further traffic — the
    /// in-flight-prefix pin of the serving design.
    #[test]
    fn committed_prefix_is_untouched_by_a_swap(
        k in 2usize..5, v in 2usize..6, seed in 0u64..400, lag in 0usize..4
    ) {
        let a = random_hmm(k, v, seed);
        let b = random_hmm(k, v, seed.wrapping_add(500));
        let seg1 = random_seq(v, 24, seed.wrapping_add(1));
        let seg2 = random_seq(v, 24, seed.wrapping_add(2));

        let mut pool = SessionPool::new(Arc::clone(&a), lag, Parallelism::Serial);
        let id = pool.create();
        for &obs in &seg1 {
            pool.push(id, obs).unwrap();
        }
        pool.tick();
        let before: Vec<usize> = pool.committed(id).unwrap().to_vec();
        let start_before = pool.committed_start(id).unwrap();

        pool.publish(Arc::clone(&b));
        for &obs in &seg2 {
            pool.push(id, obs).unwrap();
        }
        pool.tick();
        pool.flush(id).unwrap();

        let after = pool.committed(id).unwrap();
        prop_assert_eq!(pool.committed_start(id).unwrap(), start_before);
        prop_assert!(after.len() >= before.len());
        prop_assert_eq!(&after[..before.len()], &before[..]);
    }
}

const POLICIES: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
    Parallelism::Auto,
];

/// Drives many sessions through interleaved chunked ticks with two
/// publishes at fixed tick indices; returns per-session (labels, ll bits).
fn run_swapped_pool(policy: Parallelism, backend: InferenceBackend) -> Vec<(Vec<usize>, u64)> {
    let v = 5;
    let models = [
        random_hmm(3, v, 7),
        random_hmm(3, v, 8),
        random_hmm(3, v, 9),
    ];
    let seqs: Vec<Vec<usize>> = (0..10).map(|i| random_seq(v, 60, 100 + i)).collect();

    let mut pool = SessionPool::with_config(
        Arc::clone(&models[0]),
        StreamConfig::default()
            .with_lag(3)
            .with_backend(backend)
            .with_parallelism(policy),
    )
    .unwrap();
    let ids: Vec<_> = seqs.iter().map(|_| pool.create()).collect();
    let chunk = 6;
    let mut offset = 0;
    let mut ticks = 0;
    while offset < 60 {
        for (id, seq) in ids.iter().zip(&seqs) {
            for &obs in seq.iter().skip(offset).take(chunk) {
                pool.push(*id, obs).unwrap();
            }
        }
        pool.tick();
        ticks += 1;
        // Swap twice mid-run, at fixed commit boundaries.
        if ticks == 3 {
            pool.publish(Arc::clone(&models[1]));
        } else if ticks == 7 {
            pool.publish(Arc::clone(&models[2]));
        }
        offset += chunk;
    }
    ids.iter()
        .map(|id| {
            pool.flush(*id).unwrap();
            let mut out = Vec::new();
            pool.take_committed(*id, &mut out).unwrap();
            (out, pool.log_likelihood(*id).unwrap().to_bits())
        })
        .collect()
}

#[test]
fn determinism_across_policies_holds_with_swaps_interleaved() {
    // Every (policy, backend) combination must agree bit-for-bit even with
    // two mid-run publishes: sessions rebind at the same commit boundaries
    // whichever worker band advances them, and the epoch-keyed transition
    // caches recompile at the same points.
    for backend in [
        InferenceBackend::Scaled,
        InferenceBackend::Sparse(SparseParams::threshold(0.02)),
    ] {
        let runs: Vec<_> = POLICIES
            .iter()
            .map(|&p| run_swapped_pool(p, backend))
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
fn sessions_created_after_publish_bind_the_new_epoch() {
    let a = random_hmm(2, 4, 1);
    let b = random_hmm(2, 4, 2);
    let mut pool = SessionPool::new(a, 2, Parallelism::Serial);
    assert_eq!(pool.current_epoch(), 0);
    let old = pool.create();
    assert_eq!(pool.publish(b), 1);
    let new = pool.create();
    assert_eq!(pool.session_epoch(old).unwrap(), 0, "not yet at a boundary");
    assert_eq!(pool.session_epoch(new).unwrap(), 1);
    // An idle-but-stale session is rebound by the next tick even with no
    // pending tokens (eager rebind keeps epochs from lingering).
    pool.tick();
    assert_eq!(pool.session_epoch(old).unwrap(), 1);
}
