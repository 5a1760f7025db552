//! Backpressure and staleness over the wire: caps and lifecycle failures
//! surface as the stable error codes of [`dhmm_serve::ServeError`], never
//! as dropped connections or silent truncation.

use dhmm_data::io::save_model;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle};
use dhmm_stream::SessionId;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::TempFile;

fn checkpoint(name: &str) -> TempFile {
    let mut rng = StdRng::seed_from_u64(5);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        3,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(3, 8, 1.0, &mut rng).unwrap();
    let model = Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap();
    let path = TempFile::new("dhmm-bp", &format!("{name}.model"));
    save_model(&path, &model).unwrap();
    path
}

fn serve(config: ServeConfig, name: &str) -> (ServerHandle, Client) {
    let path = checkpoint(name);
    let handle = Server::start_from_path(&path, config, "127.0.0.1:0").unwrap();
    let client = Client::connect(handle.local_addr()).unwrap();
    (handle, client)
}

fn create(client: &mut Client) -> SessionId {
    match client.call(&Request::Create).unwrap() {
        Response::Created { id } => id,
        other => panic!("create failed: {other:?}"),
    }
}

fn expect_err(client: &mut Client, request: &Request, code: &str) {
    match client.call(request).unwrap() {
        Response::Error { code: got, message } => {
            assert_eq!(got, code, "wrong code for {request:?}: {message}")
        }
        other => panic!("expected err {code}, got {other:?}"),
    }
}

#[test]
fn overlong_push_answers_queue_full_and_the_session_survives() {
    let (handle, mut client) = serve(
        ServeConfig::default().with_lag(2).with_pending_cap(Some(4)),
        "qf",
    );
    let id = create(&mut client);

    let too_many: Vec<String> = (0..5).map(|i| (i % 8).to_string()).collect();
    expect_err(
        &mut client,
        &Request::Push {
            id,
            tokens: too_many,
        },
        "queue-full",
    );

    // The rejection was atomic: the session is untouched and a within-cap
    // push on the same id still works.
    let ok: Vec<String> = (0..4).map(|i| (i % 8).to_string()).collect();
    match client.call(&Request::Push { id, tokens: ok }).unwrap() {
        Response::Committed { start, labels } => {
            assert_eq!(start, 0);
            // Fixed lag 2: at least 4 - 2 labels (more if survivor paths
            // coalesce early), never all 4.
            assert!((2..4).contains(&labels.len()), "got {}", labels.len());
        }
        other => panic!("recovery push failed: {other:?}"),
    }
    handle.shutdown().expect("engine drains cleanly");
}

#[test]
fn a_zero_committed_cap_surfaces_lagging() {
    // Degenerate on purpose: with no room for committed labels the
    // consumer is definitionally lagging, which pins the wire code.
    let (handle, mut client) = serve(
        ServeConfig::default()
            .with_lag(0)
            .with_committed_cap(Some(0)),
        "lag",
    );
    let id = create(&mut client);
    expect_err(
        &mut client,
        &Request::Push {
            id,
            tokens: vec!["1".into()],
        },
        "lagging",
    );
    handle.shutdown().expect("engine drains cleanly");
}

#[test]
fn closed_and_forged_sessions_answer_stale_session() {
    let (handle, mut client) = serve(ServeConfig::default().with_lag(2), "stale");
    let id = create(&mut client);
    assert!(matches!(
        client.call(&Request::Close { id }).unwrap(),
        Response::Closed
    ));
    expect_err(
        &mut client,
        &Request::Push {
            id,
            tokens: vec!["0".into()],
        },
        "stale-session",
    );

    // A forged generation on a live slot is stale too: ids are
    // unforgeable without the generation the server handed out.
    let live = create(&mut client);
    let forged = SessionId::from_parts(live.slot() as u32, live.generation() + 7);
    expect_err(&mut client, &Request::Flush { id: forged }, "stale-session");
    handle.shutdown().expect("engine drains cleanly");
}

#[test]
fn pushing_after_flush_answers_finished() {
    let (handle, mut client) = serve(ServeConfig::default().with_lag(1), "fin");
    let id = create(&mut client);
    client
        .call(&Request::Push {
            id,
            tokens: vec!["1".into(), "2".into()],
        })
        .unwrap();
    assert!(matches!(
        client.call(&Request::Flush { id }).unwrap(),
        Response::Flushed { .. }
    ));
    expect_err(
        &mut client,
        &Request::Push {
            id,
            tokens: vec!["3".into()],
        },
        "finished",
    );
    handle.shutdown().expect("engine drains cleanly");
}

#[test]
fn malformed_requests_answer_bad_request_without_dropping_the_connection() {
    let (handle, mut client) = serve(ServeConfig::default().with_lag(1), "bad");

    for raw in ["frobnicate", "push", "push 0", "push 0.0", "create extra"] {
        let resp = client.call_raw(raw).unwrap();
        assert!(resp.starts_with("err bad-request "), "{raw:?} -> {resp:?}");
    }
    // An unparseable observation for the serving family is also the
    // client's fault, not a transport error.
    let id = create(&mut client);
    expect_err(
        &mut client,
        &Request::Push {
            id,
            tokens: vec!["not-a-symbol".into()],
        },
        "bad-request",
    );
    // The connection survived all of the above.
    assert!(matches!(
        client.call(&Request::Stats).unwrap(),
        Response::Stats { .. }
    ));
    handle.shutdown().expect("engine drains cleanly");
}

#[test]
fn swapping_a_mismatched_checkpoint_answers_model() {
    let (handle, mut client) = serve(ServeConfig::default().with_lag(1), "swapbad");
    expect_err(
        &mut client,
        &Request::SwapModel {
            path: "/nonexistent/checkpoint.model".into(),
        },
        "model",
    );

    // A checkpoint with a different state count is rejected before publish.
    let mut rng = StdRng::seed_from_u64(9);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        5,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(5, 8, 1.0, &mut rng).unwrap();
    let other = Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap();
    let path = TempFile::new("dhmm-bp", "k5.model");
    save_model(&path, &other).unwrap();
    expect_err(
        &mut client,
        &Request::SwapModel {
            path: path.to_str().unwrap().into(),
        },
        "model",
    );

    // So is one with the right state count but a different vocabulary:
    // live sessions hold raw symbols, and shrinking the vocab mid-stream
    // would turn them into out-of-range reads.
    let mut rng = StdRng::seed_from_u64(11);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        3,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(3, 12, 1.0, &mut rng).unwrap();
    let wide = Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap();
    let path = TempFile::new("dhmm-bp", "v12.model");
    save_model(&path, &wide).unwrap();
    expect_err(
        &mut client,
        &Request::SwapModel {
            path: path.to_str().unwrap().into(),
        },
        "model",
    );
    handle.shutdown().expect("engine drains cleanly");
}

#[test]
fn sparse_backend_serves_and_exact_params_match_scaled_labels() {
    use dhmm_stream::{InferenceBackend, SparseParams};

    let tokens: Vec<String> = (0..40).map(|i| ((i * 5) % 8).to_string()).collect();
    let decode = |config: ServeConfig, name: &str| {
        let (handle, mut client) = serve(config, name);
        let id = create(&mut client);
        let mut labels = Vec::new();
        match client
            .call(&Request::Push {
                id,
                tokens: tokens.clone(),
            })
            .unwrap()
        {
            Response::Committed {
                labels: committed, ..
            } => labels.extend(committed),
            other => panic!("push failed: {other:?}"),
        }
        match client.call(&Request::Flush { id }).unwrap() {
            Response::Flushed { labels: tail, .. } => labels.extend(tail),
            other => panic!("flush failed: {other:?}"),
        }
        handle.shutdown().expect("engine drains cleanly");
        labels
    };

    let scaled = decode(ServeConfig::default().with_lag(2), "sp-ref");
    let sparse = decode(
        ServeConfig::default()
            .with_lag(2)
            .with_backend(InferenceBackend::Sparse(SparseParams::exact())),
        "sp-exact",
    );
    assert_eq!(scaled, sparse, "exact sparse serving must match scaled");

    // Invalid sparse parameters fail at startup, not at first push.
    let path = checkpoint("sp-bad");
    let bad =
        ServeConfig::default().with_backend(InferenceBackend::Sparse(SparseParams::top_p(1.5)));
    let err = Server::start_from_path(&path, bad, "127.0.0.1:0").unwrap_err();
    assert_eq!(err.code(), "backend", "got {err:?}");
}

#[test]
fn idle_sessions_age_out_and_answer_stale_session() {
    let (handle, mut client) = serve(
        ServeConfig::default()
            .with_lag(1)
            .with_max_idle_ticks(Some(2))
            .with_idle_tick(std::time::Duration::from_millis(5)),
        "evict",
    );
    let id = create(&mut client);
    client
        .call(&Request::Push {
            id,
            tokens: vec!["1".into()],
        })
        .unwrap();

    // Let the idle heartbeat tick the pool well past the horizon.
    std::thread::sleep(std::time::Duration::from_millis(200));
    expect_err(
        &mut client,
        &Request::Push {
            id,
            tokens: vec!["2".into()],
        },
        "stale-session",
    );
    match client.call(&Request::Stats).unwrap() {
        Response::Stats {
            active, evicted, ..
        } => {
            assert_eq!(active, 0);
            assert_eq!(evicted, 1);
        }
        other => panic!("stats failed: {other:?}"),
    }
    handle.shutdown().expect("engine drains cleanly");
}
