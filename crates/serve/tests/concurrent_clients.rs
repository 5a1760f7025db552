//! Concurrent clients land on both request paths: a request that finds the
//! engine lock free is applied by its own connection thread, one that finds
//! it busy is batched by the engine thread. Whichever path and batch a push
//! took, each session's wire transcript must equal an in-process
//! [`SessionPool`] run of that session's chunks alone, bit for bit.

use dhmm_data::io::LoadedModel;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use dhmm_runtime::Parallelism;
use dhmm_serve::{Client, Request, Response, ServeConfig, Server, SessionId};
use dhmm_stream::{SessionPool, StreamConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;

const CLIENTS: usize = 4;
const SESSIONS_PER_CLIENT: usize = 3;
const CHUNK: usize = 7;
const STATES: usize = 5;
const VOCAB: usize = 12;
const LAG: usize = 4;

fn model() -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(31);
    let (pi, a) = random_parameters(
        STATES,
        InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .expect("valid parameters");
    let b = random_stochastic_matrix(STATES, VOCAB, 1.0, &mut rng).expect("valid rows");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

/// The tokens of one session.
fn tokens(client: usize, session: usize) -> Vec<usize> {
    let seed = (100 * client + session) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let len = 60 + 11 * session + 3 * client;
    (0..len).map(|_| rng.gen_range(0..VOCAB)).collect()
}

/// Everything one session produced: each push's committed offset and
/// labels, then the flush's offset, labels, log-likelihood bits and token
/// count.
#[derive(Debug, Default, PartialEq)]
struct Transcript {
    pushes: Vec<(usize, Vec<usize>)>,
    flush: (usize, Vec<usize>),
    ll_bits: u64,
    tokens: usize,
}

/// One client: creates its sessions on one connection, interleaves their
/// chunked pushes round-robin, then flushes and closes each.
fn wire_client(addr: SocketAddr, client: usize) -> Vec<Transcript> {
    let mut conn = Client::connect(addr).expect("connect");
    let streams: Vec<Vec<usize>> = (0..SESSIONS_PER_CLIENT)
        .map(|s| tokens(client, s))
        .collect();
    let ids: Vec<SessionId> = streams
        .iter()
        .map(|_| match conn.call(&Request::Create).expect("round trip") {
            Response::Created { id } => id,
            other => panic!("create answered {other:?}"),
        })
        .collect();
    let mut out: Vec<Transcript> = streams.iter().map(|_| Transcript::default()).collect();
    let rounds = streams.iter().map(|s| s.len().div_ceil(CHUNK)).max();
    for round in 0..rounds.unwrap_or(0) {
        for (s, stream) in streams.iter().enumerate() {
            let Some(chunk) = stream.chunks(CHUNK).nth(round) else {
                continue;
            };
            let request = Request::Push {
                id: ids[s],
                tokens: chunk.iter().map(usize::to_string).collect(),
            };
            match conn.call(&request).expect("round trip") {
                Response::Committed { start, labels } => out[s].pushes.push((start, labels)),
                other => panic!("push answered {other:?}"),
            }
        }
    }
    for (s, &id) in ids.iter().enumerate() {
        match conn.call(&Request::Flush { id }).expect("round trip") {
            Response::Flushed {
                start,
                labels,
                log_likelihood,
                tokens,
            } => {
                out[s].flush = (start, labels);
                out[s].ll_bits = log_likelihood.to_bits();
                out[s].tokens = tokens;
            }
            other => panic!("flush answered {other:?}"),
        }
        match conn.call(&Request::Close { id }).expect("round trip") {
            Response::Closed => {}
            other => panic!("close answered {other:?}"),
        }
    }
    out
}

/// The same session alone in an in-process pool: one tick per push.
fn in_process(model: &Arc<Hmm<DiscreteEmission>>, stream: &[usize]) -> Transcript {
    let mut pool = SessionPool::with_config(
        Arc::clone(model),
        StreamConfig::default()
            .with_lag(LAG)
            .with_parallelism(Parallelism::Threads(2)),
    )
    .expect("scaled backend streams");
    let id = pool.create();
    let mut out = Transcript::default();
    for chunk in stream.chunks(CHUNK) {
        pool.push_many(id, chunk.iter().copied())
            .expect("live session");
        pool.tick();
        let mut labels = Vec::new();
        let start = pool.take_committed(id, &mut labels).expect("live session");
        out.pushes.push((start, labels));
    }
    pool.flush(id).expect("live session");
    let mut labels = Vec::new();
    let start = pool
        .take_committed(id, &mut labels)
        .expect("flushed session");
    out.flush = (start, labels);
    out.ll_bits = pool.log_likelihood(id).expect("flushed session").to_bits();
    out.tokens = pool.tokens(id).expect("flushed session");
    out
}

#[test]
fn concurrent_sessions_match_their_in_process_runs_on_either_path() {
    let model = model();
    let config = ServeConfig::default()
        .with_lag(LAG)
        .with_parallelism(Parallelism::Threads(2));
    let handle = Server::start(LoadedModel::Discrete(model.clone()), config, "127.0.0.1:0")
        .expect("server starts");
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| thread::spawn(move || wire_client(addr, c)))
        .collect();
    let wire: Vec<Vec<Transcript>> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let report = handle.shutdown().expect("engine drains cleanly");
    assert_eq!(report.flushed, 0, "every session was flushed and closed");

    let model = Arc::new(model);
    for (c, sessions) in wire.iter().enumerate() {
        assert_eq!(sessions.len(), SESSIONS_PER_CLIENT);
        for (s, transcript) in sessions.iter().enumerate() {
            let stream = tokens(c, s);
            assert_eq!(transcript.tokens, stream.len());
            assert_eq!(
                *transcript,
                in_process(&model, &stream),
                "client {c} session {s}"
            );
        }
    }
}
