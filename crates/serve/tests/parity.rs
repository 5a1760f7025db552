//! The serving contract's first pin: labels produced over the wire are
//! bit-identical to driving the [`SessionPool`] in-process — including
//! across a mid-stream `swap-model` — because the engine is nothing but a
//! request-ordered batcher in front of the same pool.

use dhmm_data::io::{load_model, save_model, LoadedModel};
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_runtime::Parallelism;
use dhmm_serve::{Client, Request, Response, ServeConfig, Server};
use dhmm_stream::{SessionId, SessionPool, StreamConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;

mod common;
use common::TempFile;

fn checkpoint(name: &str, k: usize, v: usize, seed: u64) -> TempFile {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        k,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(k, v, 1.0, &mut rng).unwrap();
    let model = Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap();
    let path = TempFile::new("dhmm-parity", &format!("{name}.model"));
    save_model(&path, &model).unwrap();
    path
}

fn mirror_model(path: &Path) -> Arc<Hmm<DiscreteEmission>> {
    match load_model(path).unwrap() {
        LoadedModel::Discrete(h) => Arc::new(h),
        LoadedModel::Gaussian(_) => panic!("test checkpoints are discrete"),
    }
}

fn random_seq(v: usize, len: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..v)).collect()
}

/// Everything a session produced, wire-side or mirror-side.
#[derive(Debug, PartialEq)]
struct Transcript {
    labels: Vec<usize>,
    starts: Vec<usize>,
    ll_bits: u64,
    tokens: usize,
}

/// The protocol-driven labeling of interleaved sessions with a mid-stream
/// swap is bit-identical to the same operation sequence on an in-process
/// pool with the same configuration.
#[test]
fn wire_labels_are_bit_identical_to_in_process_use_across_a_swap() {
    let (k, v, lag) = (5, 12, 4);
    let path_a = checkpoint("parity-a", k, v, 11);
    let path_b = checkpoint("parity-b", k, v, 12);

    let config = ServeConfig::default()
        .with_lag(lag)
        .with_parallelism(Parallelism::Threads(3));
    let handle = Server::start_from_path(&path_a, config.clone(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // The mirror: same checkpoint, same stream configuration, and one
    // tick per push request — exactly what the engine does for a
    // sequential client.
    let mut pool = SessionPool::with_config(
        mirror_model(&path_a),
        StreamConfig::default()
            .with_lag(lag)
            .with_parallelism(Parallelism::Threads(3))
            .with_pending_cap(config.pending_cap)
            .with_committed_cap(config.committed_cap),
    )
    .unwrap();

    let sessions = 3;
    let per_session: Vec<Vec<usize>> = (0..sessions)
        .map(|s| random_seq(v, 57 + 5 * s, 100 + s as u64))
        .collect();

    let mut wire_ids: Vec<SessionId> = Vec::new();
    let mut mirror_ids: Vec<SessionId> = Vec::new();
    let mut wire: Vec<Transcript> = Vec::new();
    let mut mirror: Vec<Transcript> = Vec::new();
    for _ in 0..sessions {
        match client.call(&Request::Create).unwrap() {
            Response::Created { id } => wire_ids.push(id),
            other => panic!("create failed: {other:?}"),
        }
        mirror_ids.push(pool.create());
        let t = Transcript {
            labels: Vec::new(),
            starts: Vec::new(),
            ll_bits: 0,
            tokens: 0,
        };
        wire.push(t);
        mirror.push(Transcript {
            labels: Vec::new(),
            starts: Vec::new(),
            ll_bits: 0,
            tokens: 0,
        });
    }

    // Interleave chunked pushes across sessions; swap the model for
    // everyone halfway through.
    let chunk = 6;
    let rounds = per_session
        .iter()
        .map(|s| s.len().div_ceil(chunk))
        .max()
        .unwrap();
    for round in 0..rounds {
        if round == rounds / 2 {
            match client
                .call(&Request::SwapModel {
                    path: path_b.to_str().unwrap().to_string(),
                })
                .unwrap()
            {
                Response::Swapped { epoch } => assert_eq!(epoch, 1),
                other => panic!("swap failed: {other:?}"),
            }
            assert_eq!(pool.publish(mirror_model(&path_b)), 1);
        }
        for s in 0..sessions {
            let seq = &per_session[s];
            let lo = round * chunk;
            if lo >= seq.len() {
                continue;
            }
            let hi = (lo + chunk).min(seq.len());
            let tokens: Vec<String> = seq[lo..hi].iter().map(|o| o.to_string()).collect();
            match client
                .call(&Request::Push {
                    id: wire_ids[s],
                    tokens,
                })
                .unwrap()
            {
                Response::Committed { start, labels } => {
                    wire[s].starts.push(start);
                    wire[s].labels.extend(labels);
                }
                other => panic!("push failed: {other:?}"),
            }

            pool.push_many(mirror_ids[s], seq[lo..hi].iter().copied())
                .unwrap();
            pool.tick();
            let mut got = Vec::new();
            let start = pool.take_committed(mirror_ids[s], &mut got).unwrap();
            mirror[s].starts.push(start);
            mirror[s].labels.extend(got);
        }
    }

    for s in 0..sessions {
        match client.call(&Request::Flush { id: wire_ids[s] }).unwrap() {
            Response::Flushed {
                start,
                labels,
                log_likelihood,
                tokens,
            } => {
                wire[s].starts.push(start);
                wire[s].labels.extend(labels);
                wire[s].ll_bits = log_likelihood.to_bits();
                wire[s].tokens = tokens;
            }
            other => panic!("flush failed: {other:?}"),
        }

        pool.flush(mirror_ids[s]).unwrap();
        let mut got = Vec::new();
        let start = pool.take_committed(mirror_ids[s], &mut got).unwrap();
        mirror[s].starts.push(start);
        mirror[s].labels.extend(got);
        mirror[s].ll_bits = pool.log_likelihood(mirror_ids[s]).unwrap().to_bits();
        mirror[s].tokens = pool.tokens(mirror_ids[s]).unwrap();
    }

    for s in 0..sessions {
        assert_eq!(wire[s], mirror[s], "session {s} diverged over the wire");
        assert_eq!(wire[s].tokens, per_session[s].len());
        assert_eq!(wire[s].labels.len(), per_session[s].len());
    }

    handle.shutdown().expect("engine drains cleanly");
}

/// A swap never rewrites history over the wire: labels committed before
/// `swap-model` are returned before the swap and never re-sent or altered —
/// every reply's `start` continues exactly where the previous one ended.
#[test]
fn committed_prefix_is_contiguous_and_immutable_across_swaps() {
    let (k, v, lag) = (4, 9, 3);
    let path_a = checkpoint("prefix-a", k, v, 21);
    let path_b = checkpoint("prefix-b", k, v, 22);

    let config = ServeConfig::default().with_lag(lag);
    let handle = Server::start_from_path(&path_a, config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let id = match client.call(&Request::Create).unwrap() {
        Response::Created { id } => id,
        other => panic!("create failed: {other:?}"),
    };
    let seq = random_seq(v, 40, 7);
    let mut next_start = 0;
    for (i, half) in seq.chunks(10).enumerate() {
        if i == 2 {
            let r = client
                .call(&Request::SwapModel {
                    path: path_b.to_str().unwrap().to_string(),
                })
                .unwrap();
            assert!(matches!(r, Response::Swapped { .. }), "swap failed: {r:?}");
        }
        let tokens: Vec<String> = half.iter().map(|o| o.to_string()).collect();
        match client.call(&Request::Push { id, tokens }).unwrap() {
            Response::Committed { start, labels } => {
                assert_eq!(start, next_start, "prefix was rewritten or re-sent");
                next_start += labels.len();
            }
            other => panic!("push failed: {other:?}"),
        }
    }
    match client.call(&Request::Flush { id }).unwrap() {
        Response::Flushed {
            start,
            labels,
            tokens,
            ..
        } => {
            assert_eq!(start, next_start);
            assert_eq!(start + labels.len(), seq.len());
            assert_eq!(tokens, seq.len());
        }
        other => panic!("flush failed: {other:?}"),
    }

    handle.shutdown().expect("engine drains cleanly");
}
