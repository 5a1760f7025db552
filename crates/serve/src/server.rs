//! The serving engine: one thread owning the [`SessionPool`], fed by
//! per-connection reader threads over an mpsc channel.
//!
//! # Architecture
//!
//! ```text
//!   client ──TCP──▶ reader thread ──┐
//!   client ──TCP──▶ reader thread ──┼─▶ mpsc ─▶ engine thread (owns SessionPool)
//!   client ──TCP──▶ reader thread ──┘             │ batch drain → pushes →
//!                                                 │ ONE tick() → replies
//! ```
//!
//! The engine drains whatever requests have queued, applies them in arrival
//! order, runs **one** [`SessionPool::tick`] for the batch's pushes, then
//! answers each push with its session's newly committed labels. Sessions
//! share no state and each session's tokens are processed in queue order,
//! so per-session results are independent of how requests happen to batch —
//! protocol-driven labeling is bit-identical to driving the pool in-process
//! (pinned by `tests/parity.rs`, including across a mid-stream
//! `swap-model`).
//!
//! When the channel is idle the engine still ticks on a timeout, so the
//! pool's eviction clock advances without traffic and idle sessions age
//! out.
//!
//! The acceptor blocks in `accept` and hands each connection to a reader
//! thread at once; it backs off briefly only when `accept` fails (out of
//! descriptors, say), so a failing listener cannot spin. On shutdown
//! (SIGTERM/SIGINT or [`ServerHandle::shutdown`]) the engine stops within
//! one idle tick and flushes all remaining active sessions before exiting —
//! no stream's tail is lost mid-process. The handle then sets the stop
//! latch and wakes the acceptor with one connection to the bound port (on
//! loopback when the server is bound to an unspecified address); the
//! acceptor sees the latch, shuts every live connection down, and exits.

use crate::error::ServeError;
use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::signals;
use dhmm_data::io::{load_model, LoadedModel};
use dhmm_hmm::emission::{DiscreteEmission, Emission, GaussianEmission};
use dhmm_hmm::model::Hmm;
use dhmm_runtime::Parallelism;
use dhmm_stream::{InferenceBackend, SessionPool, StreamConfig};
use dhmm_telemetry::{Counter, Gauge, Histogram, TelemetrySink};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Configuration of a serving process.
///
/// Not `Copy`: the [`TelemetrySink`] carries a shared registry handle.
/// Cloning is cheap (an `Arc` bump at most).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Fixed lag `L` of every session (see [`StreamConfig::lag`]).
    pub lag: usize,
    /// Inference backend of every session (see [`StreamConfig::backend`]):
    /// scaled (default) or sparse; out-of-range sparse parameters fail
    /// startup with wire code `backend`.
    pub backend: InferenceBackend,
    /// Worker policy for batch ticks (results are bit-identical under
    /// every policy).
    pub parallelism: Parallelism,
    /// Per-session pending-token cap (`None` = unbounded) — exceeding it
    /// answers `err queue-full`.
    pub pending_cap: Option<usize>,
    /// Per-session committed-label cap (`None` = unbounded) — exceeding it
    /// answers `err lagging`.
    pub committed_cap: Option<usize>,
    /// Sessions idle for more than this many pool ticks are evicted
    /// (`None` = never). A stale client's next request answers
    /// `err stale-session`.
    pub max_idle_ticks: Option<u64>,
    /// Engine heartbeat: how long the engine waits for traffic before
    /// running an idle tick (advancing the eviction clock).
    pub idle_tick: Duration,
    /// Metrics sink, forwarded to the session pool and used for the
    /// engine's own per-verb counters/latency histograms. With a registry
    /// attached the `metrics` verb serves its text exposition; under
    /// [`TelemetrySink::Disabled`] (the default) every record is a no-op
    /// and `metrics` answers a `# telemetry disabled` placeholder.
    pub telemetry: TelemetrySink,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            lag: 8,
            backend: InferenceBackend::Scaled,
            parallelism: Parallelism::default(),
            pending_cap: Some(4096),
            committed_cap: Some(65536),
            max_idle_ticks: None,
            idle_tick: Duration::from_millis(20),
            telemetry: TelemetrySink::default(),
        }
    }
}

impl ServeConfig {
    /// Returns a copy with the given fixed lag.
    pub fn with_lag(mut self, lag: usize) -> Self {
        self.lag = lag;
        self
    }

    /// Returns a copy with the given inference backend (validated at
    /// startup; only the scaled and sparse engines can stream).
    pub fn with_backend(mut self, backend: InferenceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy with the given worker policy.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy with the given pending-token cap.
    pub fn with_pending_cap(mut self, cap: Option<usize>) -> Self {
        self.pending_cap = cap;
        self
    }

    /// Returns a copy with the given committed-label cap.
    pub fn with_committed_cap(mut self, cap: Option<usize>) -> Self {
        self.committed_cap = cap;
        self
    }

    /// Returns a copy with the given idle-eviction horizon.
    pub fn with_max_idle_ticks(mut self, ticks: Option<u64>) -> Self {
        self.max_idle_ticks = ticks;
        self
    }

    /// Returns a copy with the given engine heartbeat.
    pub fn with_idle_tick(mut self, idle_tick: Duration) -> Self {
        self.idle_tick = idle_tick;
        self
    }

    /// Returns a copy recording metrics into the given sink
    /// ([`TelemetrySink::Disabled`] by default; `dhmm-serve` the binary
    /// defaults to the process-global registry).
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    fn stream_config(&self) -> StreamConfig {
        StreamConfig::default()
            .with_lag(self.lag)
            .with_backend(self.backend)
            .with_parallelism(self.parallelism)
            .with_pending_cap(self.pending_cap)
            .with_committed_cap(self.committed_cap)
            .with_telemetry(self.telemetry.clone())
    }
}

/// An emission family the server can speak: knows how to parse/format its
/// observation type as protocol tokens and how to pull its model out of a
/// [`LoadedModel`] checkpoint.
pub trait ServableEmission: Emission + Send + Sync + 'static
where
    Self::Obs: Send + Sync,
{
    /// The checkpoint family tag (`discrete` / `gaussian`).
    const FAMILY: &'static str;

    /// Parses one observation token.
    fn parse_obs(tok: &str) -> Result<Self::Obs, ServeError>;

    /// Formats one observation as a protocol token. Gaussian observations
    /// use `{:.17e}` so the wire round-trip is `f64`-bit-exact.
    fn format_obs(obs: &Self::Obs) -> String;

    /// Extracts this family's model from a loaded checkpoint, rejecting a
    /// family mismatch.
    fn from_loaded(model: LoadedModel) -> Result<Hmm<Self>, ServeError>
    where
        Self: Sized;

    /// A short emission signature (`discrete vocab=V` / `gaussian`) used by
    /// `swap-model` to validate checkpoints beyond the state count: a swap
    /// whose signature differs from the serving model's is rejected with
    /// the stable wire code `model`. Live sessions carry raw observations,
    /// so e.g. shrinking the vocabulary mid-stream would turn previously
    /// valid symbols into out-of-range reads.
    fn signature(model: &Hmm<Self>) -> String
    where
        Self: Sized;
}

impl ServableEmission for DiscreteEmission {
    const FAMILY: &'static str = "discrete";

    fn parse_obs(tok: &str) -> Result<usize, ServeError> {
        tok.parse().map_err(|_| ServeError::BadRequest {
            reason: format!("discrete observation must be a symbol index, got {tok:?}"),
        })
    }

    fn format_obs(obs: &usize) -> String {
        obs.to_string()
    }

    fn from_loaded(model: LoadedModel) -> Result<Hmm<Self>, ServeError> {
        match model {
            LoadedModel::Discrete(h) => Ok(h),
            LoadedModel::Gaussian(_) => Err(ServeError::Model {
                reason: "expected a discrete checkpoint, got gaussian".into(),
            }),
        }
    }

    fn signature(model: &Hmm<Self>) -> String {
        format!("discrete vocab={}", model.emission().vocab_size())
    }
}

impl ServableEmission for GaussianEmission {
    const FAMILY: &'static str = "gaussian";

    fn parse_obs(tok: &str) -> Result<f64, ServeError> {
        tok.parse().map_err(|_| ServeError::BadRequest {
            reason: format!("gaussian observation must be a float, got {tok:?}"),
        })
    }

    fn format_obs(obs: &f64) -> String {
        format!("{obs:.17e}")
    }

    fn from_loaded(model: LoadedModel) -> Result<Hmm<Self>, ServeError> {
        match model {
            LoadedModel::Gaussian(h) => Ok(h),
            LoadedModel::Discrete(_) => Err(ServeError::Model {
                reason: "expected a gaussian checkpoint, got discrete".into(),
            }),
        }
    }

    fn signature(_model: &Hmm<Self>) -> String {
        "gaussian".into()
    }
}

/// One request in flight from a reader thread to the engine.
struct EngineMsg {
    request: Request,
    reply: mpsc::Sender<Response>,
}

/// The protocol verbs, in [`verb_index`] order (the per-verb metric label
/// values).
const VERBS: [&str; 7] = [
    "create",
    "push",
    "flush",
    "close",
    "swap-model",
    "stats",
    "metrics",
];

fn verb_index(request: &Request) -> usize {
    match request {
        Request::Create => 0,
        Request::Push { .. } => 1,
        Request::Flush { .. } => 2,
        Request::Close { .. } => 3,
        Request::SwapModel { .. } => 4,
        Request::Stats => 5,
        Request::Metrics => 6,
    }
}

/// Every stable wire error code ([`ServeError::code`]), registered upfront
/// so the error-counter families render with an explicit 0 before the first
/// failure — a scrape can distinguish "never happened" from "not exported".
const ERROR_CODES: [&str; 9] = [
    "queue-full",
    "lagging",
    "stale-session",
    "finished",
    "bad-request",
    "model",
    "backend",
    "startup",
    "engine-crashed",
];

/// Metric handles of the serving engine, registered once at startup.
struct EngineMetrics {
    sink: TelemetrySink,
    /// `dhmm_serve_requests_total{verb=…}`, indexed by [`verb_index`].
    requests: [Counter; VERBS.len()],
    /// `dhmm_serve_request_ns{verb=…}`: engine-side handling latency. For
    /// `push` this covers parse + enqueue only — the batch tick that
    /// produces the labels is shared work, reported by
    /// `dhmm_stream_tick_duration_ns`.
    request_ns: [Histogram; VERBS.len()],
    /// `dhmm_serve_errors_total{code=…}`, indexed like [`ERROR_CODES`].
    errors: [Counter; ERROR_CODES.len()],
    /// `dhmm_serve_batch_size`: requests drained per engine batch (the
    /// engine-side queue-depth distribution).
    batch_size: Histogram,
    /// `dhmm_serve_epoch`: the currently published model epoch.
    epoch: Gauge,
    /// `dhmm_serve_drain_flushed_sessions`: shutdown-drain progress.
    drain_flushed: Gauge,
}

impl EngineMetrics {
    fn new(sink: &TelemetrySink) -> Self {
        Self {
            sink: sink.clone(),
            requests: VERBS.map(|v| {
                sink.counter(
                    "dhmm_serve_requests_total",
                    &[("verb", v)],
                    "Requests handled by the serving engine, by verb.",
                )
            }),
            request_ns: VERBS.map(|v| {
                sink.histogram(
                    "dhmm_serve_request_ns",
                    &[("verb", v)],
                    "Engine-side request handling latency in nanoseconds, by \
                     verb (push covers parse + enqueue; tick latency is \
                     dhmm_stream_tick_duration_ns).",
                )
            }),
            errors: ERROR_CODES.map(|c| {
                sink.counter(
                    "dhmm_serve_errors_total",
                    &[("code", c)],
                    "Error responses sent, by stable wire code.",
                )
            }),
            batch_size: sink.histogram(
                "dhmm_serve_batch_size",
                &[],
                "Requests drained per engine batch (queue-depth distribution).",
            ),
            epoch: sink.gauge("dhmm_serve_epoch", &[], "Currently published model epoch."),
            drain_flushed: sink.gauge(
                "dhmm_serve_drain_flushed_sessions",
                &[],
                "Sessions flushed by the shutdown drain so far.",
            ),
        }
    }

    fn count_error(&self, code: &str) {
        if let Some(i) = ERROR_CODES.iter().position(|c| *c == code) {
            self.errors[i].inc();
        }
    }

    /// The `metrics` verb's payload: the registry's exposition, or a
    /// placeholder comment when telemetry is disabled (still a parseable
    /// exposition — comments only).
    fn render(&self) -> String {
        match self.sink.registry() {
            Some(reg) => reg.render(),
            None => "# telemetry disabled\n".to_string(),
        }
    }
}

/// Applies one batch of requests: arrival order, one tick, then push
/// replies. Returns the replies deferred until after the tick.
fn apply_batch<E: ServableEmission>(
    pool: &mut SessionPool<E>,
    batch: Vec<EngineMsg>,
    metrics: &EngineMetrics,
) where
    E::Obs: Send + Sync,
{
    metrics.batch_size.record(batch.len() as u64);
    let mut pushed: Vec<EngineMsg> = Vec::new();
    for msg in batch {
        let vi = verb_index(&msg.request);
        metrics.requests[vi].inc();
        let span = metrics.request_ns[vi].span();
        let response = match &msg.request {
            Request::Create => Some(Response::Created { id: pool.create() }),
            Request::Push { id, tokens } => {
                let parsed: Result<Vec<E::Obs>, ServeError> =
                    tokens.iter().map(|t| E::parse_obs(t)).collect();
                match parsed.and_then(|obs| pool.push_many(*id, obs).map_err(ServeError::from)) {
                    Ok(()) => {
                        drop(span);
                        pushed.push(msg);
                        continue;
                    }
                    Err(e) => Some(error_response(e)),
                }
            }
            Request::Flush { id } => Some(match pool.flush(*id) {
                Ok(()) => {
                    let mut labels = Vec::new();
                    let start = pool.take_committed(*id, &mut labels).expect("just flushed");
                    Response::Flushed {
                        start,
                        labels,
                        log_likelihood: pool.log_likelihood(*id).expect("just flushed"),
                        tokens: pool.tokens(*id).expect("just flushed"),
                    }
                }
                Err(e) => error_response(ServeError::from(e)),
            }),
            Request::Close { id } => Some(match pool.close(*id) {
                Ok(()) => Response::Closed,
                Err(e) => error_response(ServeError::from(e)),
            }),
            Request::SwapModel { path } => Some(match swap_model(pool, path) {
                Ok(epoch) => {
                    metrics.epoch.set(epoch as f64);
                    Response::Swapped { epoch }
                }
                Err(e) => error_response(e),
            }),
            Request::Stats => Some(Response::Stats {
                active: pool.active_sessions(),
                epoch: pool.current_epoch(),
                clock: pool.clock(),
                evicted: pool.evicted_total(),
                lockstep_tokens: pool.lockstep_tokens_total(),
                scalar_tokens: pool.scalar_tokens_total(),
                smoothing_batched: pool.smoothing_batched_total(),
                smoothing_scalar: pool.smoothing_scalar_total(),
            }),
            Request::Metrics => Some(Response::Metrics {
                text: metrics.render(),
            }),
        };
        drop(span);
        if let Some(r) = response {
            if let Response::Error { code, .. } = &r {
                metrics.count_error(code);
            }
            let _ = msg.reply.send(r);
        }
    }

    if !pushed.is_empty() {
        pool.tick();
        for msg in pushed {
            let id = match &msg.request {
                Request::Push { id, .. } => *id,
                _ => unreachable!("only pushes are deferred"),
            };
            let mut labels = Vec::new();
            let r = match pool.take_committed(id, &mut labels) {
                Ok(start) => Response::Committed { start, labels },
                Err(e) => error_response(ServeError::from(e)),
            };
            if let Response::Error { code, .. } = &r {
                metrics.count_error(code);
            }
            let _ = msg.reply.send(r);
        }
    }
}

fn error_response(e: ServeError) -> Response {
    Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    }
}

fn swap_model<E: ServableEmission>(pool: &mut SessionPool<E>, path: &str) -> Result<u64, ServeError>
where
    E::Obs: Send + Sync,
{
    let loaded = load_model(Path::new(path)).map_err(|e| ServeError::Model {
        reason: format!("load {path}: {e}"),
    })?;
    let model = E::from_loaded(loaded)?;
    if model.num_states() != pool.current_model().num_states() {
        return Err(ServeError::Model {
            reason: format!(
                "checkpoint has {} states, the serving pool has {}",
                model.num_states(),
                pool.current_model().num_states()
            ),
        });
    }
    let new_sig = E::signature(&model);
    let cur_sig = E::signature(pool.current_model());
    if new_sig != cur_sig {
        return Err(ServeError::Model {
            reason: format!("checkpoint emission ({new_sig}) does not match serving ({cur_sig})"),
        });
    }
    Ok(pool.publish(Arc::new(model)))
}

/// What the engine's shutdown drain committed on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Sessions whose in-flight stream tails the drain flushed.
    pub flushed: usize,
    /// Total tokens labeled on those sessions over their lifetime (a
    /// cross-check that pushes racing shutdown were not dropped).
    pub tokens: usize,
}

/// The engine loop: batch, apply, tick, repeat — until shutdown, then
/// flush every remaining session. Returns what the shutdown drain flushed.
fn engine_loop<E: ServableEmission>(
    mut pool: SessionPool<E>,
    rx: mpsc::Receiver<EngineMsg>,
    config: ServeConfig,
    stop: Arc<AtomicBool>,
) -> DrainReport
where
    E::Obs: Send + Sync,
{
    let metrics = EngineMetrics::new(&config.telemetry);
    metrics.epoch.set(pool.current_epoch() as f64);
    loop {
        if stop.load(Ordering::SeqCst) || signals::shutdown_requested() {
            break;
        }
        let first = match rx.recv_timeout(config.idle_tick) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => {
                // Idle heartbeat: advance the eviction clock with an empty
                // tick (label-neutral — there are no pending tokens).
                pool.tick();
                if let Some(horizon) = config.max_idle_ticks {
                    pool.evict_idle(horizon);
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut batch = vec![first];
        while let Ok(msg) = rx.try_recv() {
            batch.push(msg);
        }
        apply_batch(&mut pool, batch, &metrics);
    }

    // The stop latch can flip while requests the TCP layer already accepted
    // are still queued in the channel; dropping them would silently violate
    // the drain guarantee below. Apply them as one final batch first.
    let tail: Vec<EngineMsg> = rx.try_iter().collect();
    if !tail.is_empty() {
        apply_batch(&mut pool, tail, &metrics);
    }

    // Shutdown drain: commit every in-flight stream's tail so no accepted
    // token goes unlabeled (the labels are readable until the process
    // exits; a front-end with durable output would sink them here).
    let mut report = DrainReport::default();
    for id in pool.active_ids() {
        if !pool.is_flushed(id).unwrap_or(true) {
            pool.flush(id).expect("active session flushes");
            report.flushed += 1;
            report.tokens += pool.tokens(id).unwrap_or(0);
            metrics.drain_flushed.set(report.flushed as f64);
        }
    }
    report
}

fn client_loop(mut stream: TcpStream, tx: mpsc::Sender<EngineMsg>) {
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let response = match Request::parse(&payload) {
            Err(e) => error_response(e),
            Ok(request) => {
                let (reply_tx, reply_rx) = mpsc::channel();
                if tx
                    .send(EngineMsg {
                        request,
                        reply: reply_tx,
                    })
                    .is_err()
                {
                    return; // engine gone: shutting down
                }
                match reply_rx.recv() {
                    Ok(r) => r,
                    Err(_) => return,
                }
            }
        };
        if write_frame(&mut stream, &response.encode()).is_err() {
            return;
        }
    }
}

/// A running server: join handles plus the shared shutdown latch.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    engine_thread: Option<JoinHandle<DrainReport>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown and waits for the drain; returns what the engine
    /// flushed on the way out, or [`ServeError::EngineCrashed`] if the
    /// engine thread panicked — a crash must never masquerade as a clean
    /// zero-session drain.
    pub fn shutdown(mut self) -> Result<DrainReport, ServeError> {
        self.stop.store(true, Ordering::SeqCst);
        self.join()
    }

    /// Waits for the server to stop on its own (SIGTERM/SIGINT or an
    /// external [`crate::signals::request_shutdown`]); returns what the
    /// engine flushed on the way out, or [`ServeError::EngineCrashed`] if
    /// the engine thread panicked.
    pub fn wait(mut self) -> Result<DrainReport, ServeError> {
        self.join()
    }

    /// Joins the engine, which stops on the latch or on a signal within one
    /// idle tick, then sets the latch and wakes the acceptor, blocked in
    /// `accept`, with one connection of its own.
    fn join(&mut self) -> Result<DrainReport, ServeError> {
        let report = match self.engine_thread.take() {
            None => Ok(DrainReport::default()),
            Some(t) => t.join().map_err(|_| ServeError::EngineCrashed),
        };
        if let Some(t) = self.accept_thread.take() {
            self.stop.store(true, Ordering::SeqCst);
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // When the wake cannot connect (out of descriptors, say), the
            // acceptor stays blocked in `accept`; joining it would hang the
            // shutdown, so it is left detached.
            if TcpStream::connect(wake).is_ok() {
                let _ = t.join();
            }
        }
        report
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.join();
    }
}

/// The serving front-end entry points.
pub struct Server;

impl Server {
    /// Loads a checkpoint and serves it on `addr` (e.g. `127.0.0.1:0` for
    /// an ephemeral port). The emission family is read from the checkpoint
    /// header.
    pub fn start_from_path(
        path: &Path,
        config: ServeConfig,
        addr: &str,
    ) -> Result<ServerHandle, ServeError> {
        let loaded = load_model(path).map_err(|e| ServeError::Startup {
            reason: format!("load {}: {e}", path.display()),
        })?;
        Self::start(loaded, config, addr)
    }

    /// Serves an already-loaded model on `addr`.
    pub fn start(
        model: LoadedModel,
        config: ServeConfig,
        addr: &str,
    ) -> Result<ServerHandle, ServeError> {
        match model {
            LoadedModel::Discrete(h) => start_typed(h, config, addr),
            LoadedModel::Gaussian(h) => start_typed(h, config, addr),
        }
    }
}

fn start_typed<E: ServableEmission>(
    model: Hmm<E>,
    config: ServeConfig,
    addr: &str,
) -> Result<ServerHandle, ServeError>
where
    E::Obs: Send + Sync,
{
    if let Some(reg) = config.telemetry.registry() {
        // The runtime's dispatch counters are dependency-free process
        // statics; wrap them as fn-pointer metrics so they render in the
        // same exposition, and opt the pool into per-band busy-time clock
        // reads (off for every un-instrumented process).
        dhmm_runtime::telemetry::set_timing_enabled(true);
        reg.counter_fn(
            "dhmm_runtime_dispatch_total",
            &[],
            "Pooled dispatches through the parked worker pool.",
            dhmm_runtime::telemetry::dispatch_total,
        );
        reg.counter_fn(
            "dhmm_runtime_inline_fallback_total",
            &[],
            "Dispatches that ran inline (re-entrant/concurrent dispatch or \
             no helpers).",
            dhmm_runtime::telemetry::inline_fallback_total,
        );
        reg.counter_fn(
            "dhmm_runtime_tasks_total",
            &[],
            "Tasks (bands/row-ranges) executed across all dispatches.",
            dhmm_runtime::telemetry::tasks_total,
        );
        reg.counter_fn(
            "dhmm_runtime_busy_ns_total",
            &[],
            "Per-participant busy nanoseconds summed over dispatches.",
            dhmm_runtime::telemetry::busy_ns_total,
        );
    }
    let pool = SessionPool::with_config(Arc::new(model), config.stream_config()).map_err(|e| {
        ServeError::Backend {
            reason: e.to_string(),
        }
    })?;
    let listener = TcpListener::bind(addr).map_err(|e| ServeError::Startup {
        reason: format!("bind {addr}: {e}"),
    })?;
    let local_addr = listener.local_addr().map_err(|e| ServeError::Startup {
        reason: format!("local_addr: {e}"),
    })?;

    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<EngineMsg>();

    let engine_stop = Arc::clone(&stop);
    let engine_config = config;
    let engine_thread = thread::Builder::new()
        .name("dhmm-serve-engine".into())
        .spawn(move || engine_loop(pool, rx, engine_config, engine_stop))
        .map_err(|e| ServeError::Startup {
            reason: format!("spawn engine: {e}"),
        })?;

    let accept_stop = Arc::clone(&stop);
    // Live connections by number: a clone of each accepted stream, so
    // shutdown can unblock its reader. The client thread removes its own
    // entry when its loop ends, closing the last descriptor it held.
    let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::new(Mutex::new(HashMap::new()));
    let accept_thread = thread::Builder::new()
        .name("dhmm-serve-accept".into())
        .spawn(move || {
            let mut next_conn = 0u64;
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else {
                    // Out of descriptors or a like failure: back off rather
                    // than spin on an accept that keeps failing.
                    thread::sleep(Duration::from_millis(5));
                    continue;
                };
                let _ = stream.set_nodelay(true);
                let conn = next_conn;
                next_conn += 1;
                if let Ok(clone) = stream.try_clone() {
                    conns.lock().expect("conn registry").insert(conn, clone);
                }
                let tx = tx.clone();
                let registry = Arc::clone(&conns);
                let spawned = thread::Builder::new()
                    .name("dhmm-serve-client".into())
                    .spawn(move || {
                        client_loop(stream, tx);
                        registry.lock().expect("conn registry").remove(&conn);
                    });
                if spawned.is_err() {
                    conns.lock().expect("conn registry").remove(&conn);
                }
            }
            // Unblock every reader so client threads exit and drop their
            // channel senders; the engine then drains and stops.
            for (_, conn) in conns.lock().expect("conn registry").drain() {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
            drop(tx);
        })
        .map_err(|e| ServeError::Startup {
            reason: format!("spawn acceptor: {e}"),
        })?;

    Ok(ServerHandle {
        local_addr,
        stop,
        accept_thread: Some(accept_thread),
        engine_thread: Some(engine_thread),
    })
}

/// A minimal blocking client for tests, tooling and the replay bench: one
/// request/response round-trip per call over one connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a serving process.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServeError> {
        write_frame(&mut self.stream, &request.encode()).map_err(|e| ServeError::BadRequest {
            reason: format!("write: {e}"),
        })?;
        let payload = read_frame(&mut self.stream)
            .map_err(|e| ServeError::BadRequest {
                reason: format!("read: {e}"),
            })?
            .ok_or_else(|| ServeError::BadRequest {
                reason: "server closed the connection".into(),
            })?;
        Response::parse(&payload)
    }

    /// Sends a raw payload (for protocol-error testing) and returns the raw
    /// response payload.
    pub fn call_raw(&mut self, payload: &str) -> std::io::Result<String> {
        write_frame(&mut self.stream, payload)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(k: usize, vocab: usize) -> Hmm<DiscreteEmission> {
        let mut rng = StdRng::seed_from_u64(11);
        let (pi, a) =
            random_parameters(k, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
                .expect("valid parameters");
        let b = random_stochastic_matrix(k, vocab, 1.0, &mut rng).expect("valid rows");
        Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
    }

    /// Lag-0 pool: every ticked token's label commits immediately, so
    /// batch-ordering semantics are visible without lag bookkeeping.
    fn lag0_pool() -> SessionPool<DiscreteEmission> {
        SessionPool::with_config(
            Arc::new(model(3, 4)),
            ServeConfig::default().with_lag(0).stream_config(),
        )
        .expect("scaled backend streams")
    }

    fn msg(request: Request) -> (EngineMsg, mpsc::Receiver<Response>) {
        let (reply, rx) = mpsc::channel();
        (EngineMsg { request, reply }, rx)
    }

    fn push_msg(
        id: dhmm_stream::SessionId,
        tokens: &[&str],
    ) -> (EngineMsg, mpsc::Receiver<Response>) {
        msg(Request::Push {
            id,
            tokens: tokens.iter().map(|t| t.to_string()).collect(),
        })
    }

    fn committed(rx: &mpsc::Receiver<Response>) -> (usize, Vec<usize>) {
        match rx.try_recv().expect("reply was sent") {
            Response::Committed { start, labels } => (start, labels),
            other => panic!("expected ok committed, got {other:?}"),
        }
    }

    #[test]
    fn same_batch_pushes_for_one_session_reply_on_the_first_with_contiguous_offsets() {
        let mut pool = lag0_pool();
        let id = pool.create();
        let (m1, r1) = push_msg(id, &["0", "1"]);
        let (m2, r2) = push_msg(id, &["2"]);
        apply_batch(
            &mut pool,
            vec![m1, m2],
            &EngineMetrics::new(&TelemetrySink::Disabled),
        );

        // One tick ran for the whole batch, so everything both pushes
        // committed is attributed to the first reply; the second sees an
        // empty window starting exactly where the first ended.
        let (s1, l1) = committed(&r1);
        let (s2, l2) = committed(&r2);
        assert_eq!(s1, 0);
        assert_eq!(l1.len(), 3, "lag 0 commits every ticked token");
        assert_eq!(s2, 3, "offsets stay contiguous across same-batch pushes");
        assert!(l2.is_empty());
    }

    #[test]
    fn push_then_flush_in_one_batch_runs_in_arrival_order() {
        let mut pool = lag0_pool();
        let id = pool.create();
        let (m1, r1) = push_msg(id, &["0", "1"]);
        let (m2, r2) = msg(Request::Flush { id });
        apply_batch(
            &mut pool,
            vec![m1, m2],
            &EngineMetrics::new(&TelemetrySink::Disabled),
        );

        // The flush runs inline (arrival order) and drains the same-batch
        // push itself, so the flush reply carries both labels…
        match r2.try_recv().expect("flush reply was sent") {
            Response::Flushed {
                start,
                labels,
                tokens,
                ..
            } => {
                assert_eq!(start, 0);
                assert_eq!(labels.len(), 2);
                assert_eq!(tokens, 2);
            }
            other => panic!("expected ok flushed, got {other:?}"),
        }
        // …and the push's deferred reply finds nothing left, at the offset
        // where the flush stopped.
        let (s1, l1) = committed(&r1);
        assert_eq!(s1, 2);
        assert!(l1.is_empty());
    }

    #[test]
    fn engine_loop_applies_requests_queued_behind_the_stop_latch() {
        let mut pool = lag0_pool();
        let id = pool.create();
        let (tx, rx) = mpsc::channel();
        let (m, reply_rx) = push_msg(id, &["0", "1", "2", "3"]);
        tx.send(m).expect("receiver alive");
        drop(tx);

        // The latch is already set when the loop starts: the request above
        // was accepted but never batch-applied. The shutdown path must
        // apply it before draining, or its tokens are silently dropped.
        let stop = Arc::new(AtomicBool::new(true));
        let report = engine_loop(pool, rx, ServeConfig::default().with_lag(0), stop);
        assert_eq!(
            report,
            DrainReport {
                flushed: 1,
                tokens: 4
            }
        );
        let (start, labels) = committed(&reply_rx);
        assert_eq!(start, 0);
        assert_eq!(labels.len(), 4, "the raced push's labels were flushed");
    }

    #[test]
    fn an_engine_panic_surfaces_as_engine_crashed() {
        let handle = ServerHandle {
            local_addr: "127.0.0.1:0".parse().expect("literal addr"),
            stop: Arc::new(AtomicBool::new(false)),
            accept_thread: None,
            engine_thread: Some(
                thread::Builder::new()
                    .name("dhmm-serve-engine-crash-test".into())
                    .spawn(|| -> DrainReport { panic!("injected engine crash") })
                    .expect("spawn test thread"),
            ),
        };
        match handle.shutdown() {
            Err(ServeError::EngineCrashed) => {}
            other => panic!("expected Err(EngineCrashed), got {other:?}"),
        }
    }
}
