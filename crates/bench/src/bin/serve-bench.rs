//! Machine-readable serving benchmark: a loopback client-replay harness.
//!
//! Starts a real `dhmm_serve` server on an ephemeral loopback port, then
//! replays concurrent client sessions against it — create, chunked pushes,
//! flush, close — timing every request round-trip. Records into one
//! diffable artifact, `BENCH_serve.json`:
//!
//! * **request latency** — p50 / p99 / p99.9 / mean microseconds per
//!   request over all clients (a round-trip includes framing, the engine
//!   queue, one batch tick, and the reply). Quantiles come from the same
//!   `dhmm_telemetry` log-bucketed histogram the serving registry uses —
//!   every client thread records into one shared lock-free histogram, and
//!   each reported percentile underestimates the exact nearest-rank value
//!   by at most [`REL_ERROR`] (recorded in the JSON metadata);
//! * **throughput** — sessions/sec and tokens/sec of the whole replay.
//!
//! Run with:
//! ```text
//! cargo run --release -p dhmm_bench --bin serve-bench -- \
//!     [--output BENCH_serve.json] [--clients 1,4,8] [--k 16,64] \
//!     [--lag 8] [--tokens 256] [--threads 2] [--sessions-per-client 2]
//! ```
//! Flags mirror `stream-bench`'s comma-separated-list style.

use dhmm_bench::{random_discrete_hmm, uniform_tokens, Flags, Json};
use dhmm_data::io::LoadedModel;
use dhmm_runtime::Parallelism;
use dhmm_serve::{Client, Request, Response, ServeConfig, Server};
use dhmm_telemetry::{Histogram, REL_ERROR};
use std::time::Instant;

/// Vocabulary of the synthetic token stream.
const VOCAB: usize = 64;
/// Seed of the benchmark model at every k.
const MODEL_SEED: u64 = 271;
/// Tokens per push request.
const CHUNK: usize = 32;

struct Args {
    output: String,
    clients: Vec<usize>,
    sizes: Vec<usize>,
    lags: Vec<usize>,
    tokens: usize,
    threads: usize,
    sessions_per_client: usize,
}

impl Args {
    /// The flags on the command line, with their defaults.
    fn from_env() -> Args {
        let mut flags = Flags::from_env(&[]);
        let args = Args {
            output: flags.value("--output", "BENCH_serve.json".to_string()),
            clients: flags.list("--clients", &[1, 4, 8]),
            sizes: flags.list("--k", &[16, 64]),
            lags: flags.list("--lag", &[8]),
            tokens: flags.value("--tokens", 256),
            threads: flags.value("--threads", 2),
            sessions_per_client: flags.value("--sessions-per-client", 2),
        };
        flags.finish();
        assert!(args.tokens > 0, "--tokens must be positive");
        assert!(args.threads > 0, "--threads must be positive");
        assert!(
            args.sessions_per_client > 0,
            "--sessions-per-client must be positive"
        );
        args
    }
}

/// One client's replay: `sessions` sequential sessions of `tokens` tokens
/// in `CHUNK`-sized push requests. Every request round-trip records into
/// `hist` — a shared lock-free telemetry histogram, so concurrent clients
/// aggregate without any post-hoc sample merging.
fn replay_client(
    addr: std::net::SocketAddr,
    sessions: usize,
    tokens: usize,
    seed: u64,
    hist: &Histogram,
) {
    let mut client = Client::connect(addr).expect("connect");
    let call = |client: &mut Client, req: &Request| -> Response {
        let span = hist.span();
        let resp = client.call(req).expect("round-trip");
        drop(span);
        resp
    };
    for s in 0..sessions {
        let seq = uniform_tokens(tokens, VOCAB, seed * 1000 + s as u64);
        let id = match call(&mut client, &Request::Create) {
            Response::Created { id } => id,
            other => panic!("create failed: {other:?}"),
        };
        for chunk in seq.chunks(CHUNK) {
            let tokens: Vec<String> = chunk.iter().map(|o| o.to_string()).collect();
            match call(&mut client, &Request::Push { id, tokens }) {
                Response::Committed { .. } => {}
                other => panic!("push failed: {other:?}"),
            }
        }
        match call(&mut client, &Request::Flush { id }) {
            Response::Flushed { .. } => {}
            other => panic!("flush failed: {other:?}"),
        }
        match call(&mut client, &Request::Close { id }) {
            Response::Closed => {}
            other => panic!("close failed: {other:?}"),
        }
    }
}

/// One full configuration: a fresh server, `clients` concurrent replay
/// threads, aggregate percentiles over every request they made.
fn run_config(k: usize, lag: usize, clients: usize, args: &Args) -> Json {
    let config = ServeConfig::default()
        .with_lag(lag)
        .with_parallelism(Parallelism::Threads(args.threads));
    let model = random_discrete_hmm(k, VOCAB, MODEL_SEED);
    let handle =
        Server::start(LoadedModel::Discrete(model), config, "127.0.0.1:0").expect("server starts");
    let addr = handle.local_addr();

    // Warm-up: one client, one session, sizes the pool scratch and warms
    // the engine before anything is timed (a no-op histogram skips even
    // the clock reads).
    replay_client(addr, 1, args.tokens, 7, &Histogram::noop());

    let sessions = args.sessions_per_client;
    let tokens = args.tokens;
    let hist = Histogram::detached();
    let start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let hist = hist.clone();
            std::thread::spawn(move || replay_client(addr, sessions, tokens, 100 + c as u64, &hist))
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }
    let wall = start.elapsed().as_secs_f64();
    handle.shutdown().expect("engine drains cleanly");

    let snap = hist.snapshot();
    let total_sessions = clients * sessions;
    let total_tokens = total_sessions * tokens;
    Json::row()
        .field("k", k)
        .field("lag", lag)
        .field("clients", clients)
        .field("sessions", total_sessions)
        .field("tokens", total_tokens)
        .fixed("p50_us", snap.quantile(0.5) as f64 / 1e3, 1)
        .fixed("p99_us", snap.quantile(0.99) as f64 / 1e3, 1)
        .fixed("p999_us", snap.quantile(0.999) as f64 / 1e3, 1)
        .fixed("mean_us", snap.mean() / 1e3, 1)
        .fixed("sessions_per_sec", total_sessions as f64 / wall, 1)
        .fixed("tokens_per_sec", total_tokens as f64 / wall, 0)
}

fn main() {
    let args = Args::from_env();

    let mut rows = Vec::new();
    for &k in &args.sizes {
        for &lag in &args.lags {
            for &clients in &args.clients {
                rows.push(run_config(k, lag, clients, &args));
            }
        }
    }

    Json::artifact(
        "serve",
        "TCP serving front-end: loopback client replay (create + chunked pushes + flush + \
         close) measuring request-latency percentiles (us) and sessions/sec + tokens/sec over \
         a k x lag x clients sweep",
    )
    .field("vocab", VOCAB)
    .field("tokens_per_session", args.tokens)
    .field("push_chunk", CHUNK)
    .field("engine_threads", args.threads)
    .text("latency_quantile_source", "dhmm_telemetry_histogram")
    .field("quantile_rel_error_bound", REL_ERROR)
    .rows("replay", rows)
    .write(&args.output);
}
