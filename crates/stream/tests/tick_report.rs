//! Pins the accounting in [`TickReport`]: which sessions count, how many
//! tokens and smoothed rows a tick reports, and how the pool-lifetime
//! counters accumulate. Label correctness is pinned elsewhere
//! (`session_determinism.rs`, `parity.rs`); this file is only about the
//! numbers operators read off `stats`.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_linalg::Matrix;
use dhmm_stream::{Parallelism, SessionPool, StreamConfig, TickReport};
use std::sync::Arc;

fn model() -> Arc<Hmm<DiscreteEmission>> {
    let emission =
        DiscreteEmission::new(Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap())
            .unwrap();
    let transition = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.3, 0.7]]).unwrap();
    Arc::new(Hmm::new(vec![0.5, 0.5], transition, emission).unwrap())
}

fn pool() -> SessionPool<DiscreteEmission> {
    SessionPool::with_config(
        model(),
        StreamConfig::default()
            .with_lag(2)
            .with_parallelism(Parallelism::Serial),
    )
    .unwrap()
}

#[test]
fn report_counts_active_flushed_idle_and_stale_epoch_sessions() {
    let mut pool = pool();
    let busy_a = pool.create();
    let busy_b = pool.create();
    let flushed = pool.create();
    let _idle = pool.create();

    pool.push_many(busy_a, [0usize, 1, 0]).unwrap();
    pool.push_many(busy_b, [1usize, 1, 0, 1]).unwrap();
    pool.push(flushed, 0).unwrap();
    pool.flush(flushed).unwrap();

    // Publish a new epoch so the tick also has rebind work: every live
    // unflushed session is stale — including the idle one, which gets
    // rebound without contributing tokens or counting as a session.
    pool.publish(model());
    let report = pool.tick();
    assert_eq!(
        report,
        TickReport {
            sessions: 2,
            tokens: 7,
            rebound: 3,
            // At lag 2 a smoothing block fires on the 4th token: only
            // busy_b gets that far, emitting its oldest 2 rows.
            smoothing_scalar_tokens: 2,
        }
    );

    // Everyone is current now; an empty tick reports all zeros.
    assert_eq!(pool.tick(), TickReport::default());
}

#[test]
fn token_split_tracks_group_membership_and_accumulates_on_the_pool() {
    let mut pool = pool();
    let a = pool.create();
    let b = pool.create();
    let c = pool.create();
    let _idle = pool.create();

    // a and b share depth 5; c sits alone at depth 3. Depth groups no
    // longer split the tokens: every one lands on the per-session path.
    pool.push_many(a, [0usize, 1, 0, 1, 1]).unwrap();
    pool.push_many(b, [1usize, 0, 0, 1, 0]).unwrap();
    pool.push_many(c, [0usize, 0, 1]).unwrap();
    let report = pool.tick();
    assert_eq!(report.sessions, 3);
    assert_eq!(report.tokens, 13);
    assert_eq!(pool.scalar_tokens_total(), 13);
    assert_eq!(pool.lockstep_tokens_total(), 0);
    // a and b hit their lag-2 window boundary on their 4th token (2 rows
    // each); c never accumulates the 4 tokens a block needs.
    assert_eq!(report.smoothing_scalar_tokens, 4);

    // All three at the same depth: still nothing off the per-session path.
    for id in [a, b, c] {
        pool.push_many(id, [1usize, 0]).unwrap();
    }
    let report = pool.tick();
    assert_eq!(report.tokens, 6);
    // Each window is relative to the session's own stream: a and b (at
    // t = 5) and c (at t = 3) all emit one 2-row block.
    assert_eq!(report.smoothing_scalar_tokens, 6);

    // The pool-lifetime counters are the running sums of the reports; the
    // lockstep and batched-smoothing readers stay at 0.
    assert_eq!(pool.scalar_tokens_total(), 19);
    assert_eq!(pool.smoothing_scalar_total(), 10);
    assert_eq!(pool.lockstep_tokens_total(), 0);
    assert_eq!(pool.smoothing_batched_total(), 0);
}

#[test]
fn lockstep_disabled_routes_every_token_through_the_scalar_path() {
    // The pool has no lockstep path to enable: two sessions at equal depth,
    // which the lockstep engine would have grouped, both count as scalar.
    let mut pool = pool();
    let a = pool.create();
    let b = pool.create();
    pool.push_many(a, [0usize, 1, 0]).unwrap();
    pool.push_many(b, [1usize, 0, 1]).unwrap();

    let report = pool.tick();
    assert_eq!(report.sessions, 2);
    assert_eq!(report.tokens, 6);
    assert_eq!(report.smoothing_scalar_tokens, 0);
    assert_eq!(pool.lockstep_tokens_total(), 0);
    assert_eq!(pool.scalar_tokens_total(), 6);
    assert_eq!(pool.smoothing_batched_total(), 0);
}
