//! Re-export audit of the facade crate: everything the README and docs
//! promise is reachable through `dhmm::…` actually is, with the consistent
//! builder surface across the three config types and the serve/stream error
//! conversions into the one facade error enum.
//!
//! This test is intentionally mostly type-checking: if a re-export or
//! builder disappears, it fails to compile.

use dhmm::core::{DhmmError, DiversifiedConfig, SupervisedConfig};
use dhmm::hmm::{BaumWelchConfig, DiscreteEmission, Hmm, InferenceBackend};
use dhmm::runtime::Parallelism;
use dhmm::serve::{format_sid, Request, Response, ServeConfig, ServeError};
use dhmm::stream::{SessionId, SessionPool, StreamConfig, StreamError, StreamingDecoder};
use dhmm::telemetry::{Registry, TelemetrySink, REL_ERROR};
use std::sync::Arc;

/// The three training configs and the two serving-layer configs share the
/// same consuming-builder idiom for the knobs they have in common.
#[test]
fn config_builders_are_consistent_across_the_workspace() {
    let d = DiversifiedConfig::default()
        .with_backend(InferenceBackend::Scaled)
        .with_parallelism(Parallelism::Threads(2));
    assert_eq!(d.parallelism, Parallelism::Threads(2));

    let s = SupervisedConfig::default()
        .with_backend(InferenceBackend::Scaled)
        .with_parallelism(Parallelism::Serial);
    assert_eq!(s.parallelism, Parallelism::Serial);

    let b = BaumWelchConfig::default()
        .with_backend(InferenceBackend::Scaled)
        .with_parallelism(Parallelism::Auto)
        .with_max_iterations(7)
        .with_tolerance(1e-3);
    assert_eq!(b.max_iterations, 7);

    let st = StreamConfig::default()
        .with_lag(4)
        .with_backend(InferenceBackend::Scaled)
        .with_parallelism(Parallelism::Auto)
        .with_pending_cap(Some(128))
        .with_committed_cap(Some(1024));
    assert_eq!(st.lag, 4);

    let sv = ServeConfig::default()
        .with_lag(4)
        .with_parallelism(Parallelism::Auto)
        .with_pending_cap(Some(128))
        .with_committed_cap(Some(1024))
        .with_max_idle_ticks(Some(100));
    assert_eq!(sv.lag, 4);
}

/// The streaming and serving types named by the docs resolve through the
/// facade, and a pool round-trip works end to end on facade paths alone.
#[test]
fn streaming_and_serving_surfaces_resolve_through_the_facade() {
    let emission = DiscreteEmission::uniform(2, 3).unwrap();
    let model = Arc::new(
        Hmm::new(
            vec![0.5, 0.5],
            dhmm::linalg::Matrix::filled(2, 2, 0.5),
            emission,
        )
        .unwrap(),
    );

    let mut pool: SessionPool<DiscreteEmission> =
        SessionPool::new(Arc::clone(&model), 1, Parallelism::Serial);
    let id: SessionId = pool.create();
    pool.push(id, 0).unwrap();
    pool.tick();
    pool.flush(id).unwrap();
    let mut out = Vec::new();
    pool.take_committed(id, &mut out).unwrap();
    assert_eq!(out.len(), 1);

    let mut dec = StreamingDecoder::new(&model, 1);
    dec.push(&0);
    assert_eq!(dec.flush().committed.len(), 1);

    // Protocol types round-trip through their wire forms.
    let req = Request::parse(&format!("flush {}", format_sid(id))).unwrap();
    assert_eq!(req, Request::Flush { id });
    let resp = Response::parse("ok closed").unwrap();
    assert_eq!(resp, Response::Closed);
}

/// The telemetry layer resolves through the facade: a sink threads into
/// every config that documents `with_telemetry`, handles record, and the
/// registry renders exposition text.
#[test]
fn telemetry_surface_resolves_through_the_facade() {
    let sink = TelemetrySink::Registry(Registry::new());
    assert!(sink.enabled());
    assert!(!TelemetrySink::Disabled.enabled());
    const _: () = assert!(REL_ERROR > 0.0 && REL_ERROR < 1.0);

    // Configs accept the sink through the shared builder idiom.
    let st = StreamConfig::default().with_telemetry(sink.clone());
    assert_eq!(st.telemetry, sink);
    let sv = ServeConfig::default().with_telemetry(sink.clone());
    assert_eq!(sv.telemetry, sink);
    let b = BaumWelchConfig::default().with_telemetry(sink.clone());
    assert_eq!(b.telemetry, sink);

    // Handles record and the registry renders Prometheus-style text.
    let c = sink.counter("facade_test_total", &[], "facade audit counter");
    c.add(2);
    let h = sink.histogram("facade_test_ns", &[], "facade audit histogram");
    h.record(5);
    let text = sink.registry().expect("registry sink").render();
    assert!(text.contains("facade_test_total 2"));
    assert!(text.contains("facade_test_ns_count 1"));

    // The serving protocol's metrics verb is reachable too.
    assert_eq!(Request::parse("metrics").unwrap(), Request::Metrics);
}

/// Every layer's error funnels into the facade's `DhmmError`.
#[test]
fn serve_and_stream_errors_convert_into_the_facade_error() {
    let stream_err = StreamError::SessionNotFound { slot: 3 };
    let as_dhmm: DhmmError = stream_err.into();
    assert!(as_dhmm.to_string().contains('3'));

    let serve_err = ServeError::BadRequest {
        reason: "nope".into(),
    };
    assert_eq!(serve_err.code(), "bad-request");
    let as_dhmm: DhmmError = serve_err.into();
    match as_dhmm {
        DhmmError::Serve { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("expected DhmmError::Serve, got {other:?}"),
    }
}
