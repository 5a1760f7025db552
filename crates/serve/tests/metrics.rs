//! The `metrics` verb end to end: a live server's exposition is parseable
//! Prometheus text, covers every layer the registry is wired through
//! (engine verbs, pool tick, runtime executor, sparse bounds), advances as
//! requests flow, and agrees with the `stats` reply — both read the same
//! counter storage.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_serve::{Client, Registry, Request, Response, ServeConfig, Server, TelemetrySink};
use std::path::PathBuf;

fn checkpoint(name: &str, k: usize, v: usize, seed: u64) -> PathBuf {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        k,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .unwrap();
    let b = dhmm_hmm::init::random_stochastic_matrix(k, v, 1.0, &mut rng).unwrap();
    let model = Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap();
    let path =
        std::env::temp_dir().join(format!("dhmm-metrics-{}-{name}.model", std::process::id()));
    dhmm_data::io::save_model(&path, &model).unwrap();
    path
}

/// Scrapes the exposition over the wire.
fn scrape(client: &mut Client) -> String {
    match client.call(&Request::Metrics).unwrap() {
        Response::Metrics { text } => text,
        other => panic!("metrics verb failed: {other:?}"),
    }
}

/// Reads a plain (unlabeled) sample value from an exposition.
fn sample(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}

/// Reads a labeled sample, e.g. `sample_labeled(t, "x_total", "verb=\"push\"")`.
fn sample_labeled(text: &str, name: &str, label: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix('{')?;
        let (labels, value) = rest.split_once("} ")?;
        if labels.split(',').any(|kv| kv == label) {
            value.parse().ok()
        } else {
            None
        }
    })
}

#[test]
fn metrics_verb_exposes_every_layer_and_advances_with_traffic() {
    let path_a = checkpoint("a", 4, 8, 41);
    let path_b = checkpoint("b", 4, 8, 43);
    let sink = TelemetrySink::Registry(Registry::new());
    let config = ServeConfig::default()
        .with_lag(2)
        .with_max_idle_ticks(Some(2))
        .with_telemetry(sink.clone());
    let handle = Server::start_from_path(&path_a, config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // Before any session traffic the families already render (with zeros):
    // registration happens at engine/pool construction, not first use.
    let before = scrape(&mut client);
    for family in [
        "dhmm_serve_requests_total",
        "dhmm_serve_request_ns",
        "dhmm_serve_errors_total",
        "dhmm_stream_ticks_total",
        "dhmm_stream_tick_duration_ns",
        "dhmm_stream_scalar_tokens_total",
        "dhmm_stream_smoothing_scalar_rows_total",
        "dhmm_stream_evicted_sessions_total",
        "dhmm_runtime_dispatch_total",
        "dhmm_runtime_tasks_total",
        "dhmm_serve_epoch",
    ] {
        assert!(
            before.contains(&format!("# TYPE {family}")),
            "family {family} missing from exposition:\n{before}"
        );
    }
    assert_eq!(
        sample_labeled(&before, "dhmm_serve_errors_total", "code=\"queue-full\""),
        Some(0.0),
        "error families must render an explicit 0 before the first failure"
    );
    // Every token runs the per-session step: no lockstep or
    // batched-smoothing families.
    for gone in ["dhmm_stream_lockstep", "dhmm_stream_smoothing_batched"] {
        assert!(!before.contains(gone), "retired family {gone}* rendered");
    }

    // Drive traffic: two sessions, interleaved pushes, a swap, an error,
    // and an idle eviction.
    let ids: Vec<_> = (0..2)
        .map(|_| match client.call(&Request::Create).unwrap() {
            Response::Created { id } => id,
            other => panic!("create failed: {other:?}"),
        })
        .collect();
    for round in 0..6 {
        for &id in &ids[..if round < 3 { 2 } else { 1 }] {
            let tokens = (0..4).map(|t| format!("{}", (round + t) % 8)).collect();
            match client.call(&Request::Push { id, tokens }).unwrap() {
                Response::Committed { .. } => {}
                other => panic!("push failed: {other:?}"),
            }
        }
    }
    match client
        .call(&Request::SwapModel {
            path: path_b.to_str().unwrap().to_string(),
        })
        .unwrap()
    {
        Response::Swapped { epoch } => assert_eq!(epoch, 1),
        other => panic!("swap failed: {other:?}"),
    }
    // A stale-session error: push to a closed id.
    match client.call(&Request::Close { id: ids[1] }).unwrap() {
        Response::Closed => {}
        other => panic!("close failed: {other:?}"),
    }
    let err = client
        .call(&Request::Push {
            id: ids[1],
            tokens: vec!["0".into()],
        })
        .unwrap();
    assert!(matches!(err, Response::Error { .. }), "expected an error");

    let after = scrape(&mut client);

    // Per-verb request counters advanced; per-verb latency histograms saw
    // the same requests.
    let pushes = sample_labeled(&after, "dhmm_serve_requests_total", "verb=\"push\"").unwrap();
    assert!(pushes >= 10.0, "push counter too low: {pushes}");
    assert_eq!(
        sample_labeled(&after, "dhmm_serve_requests_total", "verb=\"create\""),
        Some(2.0)
    );
    assert_eq!(
        sample_labeled(&after, "dhmm_serve_requests_total", "verb=\"swap-model\""),
        Some(1.0)
    );
    let push_latency_count =
        sample_labeled(&after, "dhmm_serve_request_ns_count", "verb=\"push\"").unwrap();
    assert_eq!(push_latency_count, pushes);

    // The pool layer ticked, decoded tokens, and recorded tick latency.
    // One tick per engine batch: a sequential client sees one batch per
    // request that touches the pool, but the engine is free to coalesce.
    let ticks = sample(&after, "dhmm_stream_ticks_total").unwrap();
    assert!(ticks >= 5.0, "tick counter too low: {ticks}");
    assert_eq!(
        sample(&after, "dhmm_stream_tick_duration_ns_count"),
        Some(ticks)
    );
    let scalar = sample(&after, "dhmm_stream_scalar_tokens_total").unwrap();
    assert!(scalar > 0.0, "no decoded tokens counted");

    // Engine-level gauges and error counters.
    assert_eq!(sample(&after, "dhmm_serve_epoch"), Some(1.0));
    assert_eq!(
        sample_labeled(&after, "dhmm_serve_errors_total", "code=\"stale-session\""),
        Some(1.0)
    );

    // The runtime's dispatch counters are live in the exposition (their
    // values depend on the worker policy; the family must be present and
    // parseable, which `sample` checks).
    assert!(sample(&after, "dhmm_runtime_dispatch_total").is_some());
    assert!(sample(&after, "dhmm_runtime_tasks_total").is_some());

    // Idle eviction: session 0 stops being touched; the engine's idle
    // heartbeat (every `idle_tick`) advances the pool clock past the
    // 2-tick idle cap and evicts it. Poll the counter — heartbeat timing
    // is the server's, not ours.
    let mut evicted = 0.0;
    for _ in 0..100 {
        std::thread::sleep(std::time::Duration::from_millis(20));
        evicted = sample(&scrape(&mut client), "dhmm_stream_evicted_sessions_total").unwrap();
        if evicted >= 1.0 {
            break;
        }
    }
    assert!(evicted >= 1.0, "idle session was not evicted: {evicted}");

    // Stats parity: the wire `stats` reply reads the same storage the
    // exposition renders, so the shared fields must agree exactly. The
    // `lockstep` and `smoothing-batched` fields stay on the wire at 0.
    let stats = match client.call(&Request::Stats).unwrap() {
        Response::Stats {
            active,
            epoch,
            clock,
            evicted,
            lockstep_tokens,
            scalar_tokens,
            smoothing_batched,
            smoothing_scalar,
        } => (
            active,
            epoch,
            clock,
            evicted,
            lockstep_tokens,
            scalar_tokens,
            smoothing_batched,
            smoothing_scalar,
        ),
        other => panic!("stats failed: {other:?}"),
    };
    let text = scrape(&mut client);
    assert_eq!(sample(&text, "dhmm_serve_epoch"), Some(stats.1 as f64));
    assert_eq!(sample(&text, "dhmm_stream_clock"), Some(stats.2 as f64));
    assert_eq!(
        sample(&text, "dhmm_stream_evicted_sessions_total"),
        Some(stats.3 as f64)
    );
    assert_eq!(stats.4, 0);
    assert_eq!(
        sample(&text, "dhmm_stream_scalar_tokens_total"),
        Some(stats.5 as f64)
    );
    assert_eq!(stats.6, 0);
    assert_eq!(
        sample(&text, "dhmm_stream_smoothing_scalar_rows_total"),
        Some(stats.7 as f64)
    );

    handle.shutdown().unwrap();
    let _ = std::fs::remove_file(path_a);
    let _ = std::fs::remove_file(path_b);
}

/// With the sink disabled the verb still answers — with the sentinel
/// comment — instead of erroring, so scrapes are safe against any server.
#[test]
fn metrics_verb_answers_on_a_telemetry_disabled_server() {
    let path = checkpoint("disabled", 3, 6, 47);
    let config = ServeConfig::default().with_lag(1);
    let handle = Server::start_from_path(&path, config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let text = scrape(&mut client);
    assert!(text.contains("telemetry disabled"), "{text:?}");
    handle.shutdown().unwrap();
    let _ = std::fs::remove_file(path);
}
