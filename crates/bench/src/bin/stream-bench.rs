//! Machine-readable streaming benchmark.
//!
//! Records the streaming subsystem's two service-level numbers into one
//! diffable artifact, `BENCH_stream.json`:
//!
//! * **per-token latency** of a single [`StreamingDecoder`] session — p50 /
//!   p99 / mean nanoseconds per `push` (filter + online Viterbi + commit
//!   rules + amortized fixed-lag smoothing) over `LATENCY_BATCHES`
//!   instrumented passes, plus the single-session tokens/sec of
//!   uninstrumented passes (median and range over `LATENCY_BATCHES`
//!   batches, each run right after one of the instrumented passes);
//! * **multiplexed throughput** of a [`SessionPool`] — tokens/sec of batch
//!   ticks over a sessions × threads sweep, plus the rows whose fixed-lag
//!   smoothing window closed in each run's ticks (a pool computes no
//!   posterior for them). Each thread count alternates with the 1-thread
//!   pool over `THROUGHPUT_ROUNDS` rounds; a row records both sides'
//!   medians and ranges and `speedup_vs_serial`, the ratio of the medians
//!   (at 1 thread that ratio reads the run-to-run noise).
//!
//! A third section compares the same pool run with telemetry disabled and
//! registry-backed, alternating the two sides over `OVERHEAD_ROUNDS`
//! rounds and recording each side's median and range.
//!
//! Run with:
//! ```text
//! cargo run --release -p dhmm_bench --bin stream-bench -- \
//!     [--output BENCH_stream.json] [--threads 1,2,4] [--k 16,64] \
//!     [--sessions 32] [--lag 8,64] [--tokens 512]
//! ```
//! All flags mirror `mstep-bench`'s comma-separated-list style so the
//! multi-core rerun workflow covers streaming with the same invocation
//! shape.

use dhmm_bench::{
    random_discrete_hmm, time_alternating, time_batches, uniform_tokens, Flags, Json, Timing,
};
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_stream::{Parallelism, SessionPool, StreamConfig, StreamingDecoder};
use dhmm_telemetry::{Histogram, Registry, TelemetrySink, REL_ERROR};
use std::hint::black_box;
use std::sync::Arc;

/// Vocabulary of the synthetic token stream.
const VOCAB: usize = 64;
/// Seed of the benchmark model at every k.
const MODEL_SEED: u64 = 271;
/// Tokens fed per tick batch in the throughput sweep.
const TICK_CHUNK: usize = 32;
/// Sessions of a telemetry-overhead run.
const OVERHEAD_SESSIONS: usize = 8;
/// Alternating rounds per side of a telemetry-overhead row.
const OVERHEAD_ROUNDS: usize = 15;
/// Alternating rounds per side of a throughput row (thread count against
/// the serial pool).
const THROUGHPUT_ROUNDS: usize = 5;
/// Instrumented decoder passes per latency row, each followed by one timed
/// batch of clean passes.
const LATENCY_BATCHES: usize = 5;
/// Wall clock each batch of clean passes aims to cover.
const LATENCY_BATCH_SECONDS: f64 = 0.02;

struct Args {
    output: String,
    threads: Vec<usize>,
    sizes: Vec<usize>,
    sessions: Vec<usize>,
    lags: Vec<usize>,
    tokens: usize,
}

impl Args {
    /// The flags on the command line, with their defaults.
    fn from_env() -> Args {
        let mut flags = Flags::from_env();
        let args = Args {
            output: flags.value("--output", "BENCH_stream.json".to_string()),
            threads: flags.list("--threads", &[1, 2, 4]),
            sizes: flags.list("--k", &[16, 64]),
            sessions: flags.list("--sessions", &[32]),
            lags: flags.list("--lag", &[8, 64]),
            tokens: flags.value("--tokens", 512),
        };
        flags.finish();
        assert!(args.tokens > 0, "--tokens must be positive");
        args
    }
}

/// Single-session per-token latency: push `tokens` tokens through a warm
/// decoder. The instrumented passes time each push individually into one
/// detached telemetry [`Histogram`] — the same log-bucketed structure the
/// serving registry exports, so bench and production quantiles share one
/// definition. Reported quantiles are bucket lower bounds, an
/// underestimate by at most one bucket width (relative error ≤ `REL_ERROR`
/// = 0.125, recorded in the JSON metadata). Tokens/sec comes from
/// separate *uninstrumented* passes, so the committed throughput figure
/// carries no `Instant::now` / sample-recording overhead (at sub-µs
/// pushes, two timer reads per token would skew it by ~10%). Those passes
/// run in `LATENCY_BATCHES` batches through the shared harness, and the row
/// records the median batch with the range. Each batch runs right after
/// one of the `LATENCY_BATCHES` instrumented passes, so the histogram and
/// the batches sample the same spells of the host: a stall inside one pass
/// widens the tail and the range instead of moving the mean alone.
fn latency(k: usize, lag: usize, tokens: usize) -> Json {
    let m = random_discrete_hmm(k, VOCAB, MODEL_SEED);
    let seq = uniform_tokens(tokens, VOCAB, 99);
    let mut dec = StreamingDecoder::new(&m, lag);
    // A clean pass: nothing inside the loop but the push.
    let pass = |dec: &mut StreamingDecoder<'_, DiscreteEmission>| {
        dec.reset();
        for obs in &seq {
            black_box(dec.push(obs).log_likelihood);
        }
    };
    // Warm-up pass sizes every buffer and the branch predictors.
    pass(&mut dec);

    let hist = Histogram::detached();
    let mut batches = Vec::with_capacity(LATENCY_BATCHES);
    for _ in 0..LATENCY_BATCHES {
        // Instrumented pass: per-push samples into the shared histogram.
        dec.reset();
        for obs in &seq {
            let span = hist.span();
            black_box(dec.push(obs).log_likelihood);
            drop(span);
        }
        // One batch of clean passes: wall-clock throughput.
        batches.push(time_batches(1, LATENCY_BATCH_SECONDS, || pass(&mut dec)).median);
    }
    let clean = Timing::of(batches);

    let snap = hist.snapshot();
    Json::row()
        .field("k", k)
        .field("lag", lag)
        .field("p50_ns", snap.quantile(0.5))
        .field("p99_ns", snap.quantile(0.99))
        // p99.9 brackets the fixed-lag smoothing-block spike (one O(L·k²)
        // push every L tokens — see StreamingDecoder::push's latency
        // profile): the tail is flat beyond the block cost, so p99.9 ≈ p99
        // whenever the block lands inside the top percentile.
        .field("p999_ns", snap.quantile(0.999))
        .fixed("mean_ns", snap.mean(), 0)
        .timing("", "tokens_per_sec", clean.rate(tokens as f64), 0)
}

/// One full multiplexed run: `sessions` sessions × `tokens` tokens, fed in
/// `TICK_CHUNK`-token rounds, under an explicit thread policy. Returns the
/// rows whose smoothing window closed in the run's ticks.
fn pool_run(
    m: &Arc<Hmm<DiscreteEmission>>,
    streams: &[Vec<usize>],
    lag: usize,
    threads: usize,
    telemetry: TelemetrySink,
) -> u64 {
    let mut pool = SessionPool::with_config(
        Arc::clone(m),
        StreamConfig::default()
            .with_lag(lag)
            .with_parallelism(Parallelism::Threads(threads))
            .with_telemetry(telemetry),
    )
    .expect("discrete models stream");
    let ids: Vec<_> = streams.iter().map(|_| pool.create()).collect();
    let max_len = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut sink = Vec::new();

    let mut offset = 0;
    while offset < max_len {
        for (id, seq) in ids.iter().zip(streams) {
            for &obs in seq.iter().skip(offset).take(TICK_CHUNK) {
                pool.push(*id, obs).expect("live session");
            }
        }
        pool.tick();
        offset += TICK_CHUNK;
    }
    for id in &ids {
        pool.flush(*id).expect("live session");
        sink.clear();
        pool.take_committed(*id, &mut sink).expect("live session");
        black_box(sink.len());
    }
    pool.smoothing_scalar_total()
}

fn main() {
    let args = Args::from_env();

    let mut latency_rows = Vec::new();
    for &k in &args.sizes {
        for &lag in &args.lags {
            latency_rows.push(latency(k, lag, args.tokens));
        }
    }

    let mut throughput_rows = Vec::new();
    for &k in &args.sizes {
        let m = Arc::new(random_discrete_hmm(k, VOCAB, MODEL_SEED));
        for &lag in &args.lags {
            for &sessions in &args.sessions {
                let streams: Vec<Vec<usize>> = (0..sessions)
                    .map(|i| uniform_tokens(args.tokens, VOCAB, 1000 + i as u64))
                    .collect();
                let tokens = (sessions * args.tokens) as f64;
                for &threads in &args.threads {
                    // Each timed call is a whole run, pool construction
                    // included; `time_alternating` warms both sides first.
                    let mut smoothing_rows = 0;
                    let (serial, run) = time_alternating(
                        THROUGHPUT_ROUNDS,
                        || {
                            black_box(pool_run(&m, &streams, lag, 1, TelemetrySink::Disabled));
                        },
                        || {
                            let sink = TelemetrySink::Disabled;
                            smoothing_rows = pool_run(&m, &streams, lag, threads, sink);
                        },
                    );
                    let (serial, run) = (serial.rate(tokens), run.rate(tokens));
                    throughput_rows.push(
                        Json::row()
                            .field("k", k)
                            .field("lag", lag)
                            .field("sessions", sessions)
                            .field("threads", threads)
                            .timing("", "tokens_per_sec", run, 0)
                            .timing("serial_", "tokens_per_sec", serial, 0)
                            .fixed("speedup_vs_serial", run.median / serial.median, 2)
                            .field("smoothing_scalar_rows", smoothing_rows),
                    );
                }
            }
        }
    }

    // Telemetry overhead: the same lag-0, single-thread run with the record
    // path compiled out (`TelemetrySink::Disabled`) vs registry-backed. The
    // two sides alternate, so a host that slows down mid-row slows both
    // alike; the instrumentation delta (a handful of relaxed atomics plus
    // two clock reads per tick) is far below run-to-run noise. Each timed
    // call is a whole run: pool construction, feeding, ticks and the final
    // flush.
    let mut overhead_rows = Vec::new();
    for &k in &args.sizes {
        let m = Arc::new(random_discrete_hmm(k, VOCAB, MODEL_SEED));
        let streams: Vec<Vec<usize>> = (0..OVERHEAD_SESSIONS)
            .map(|i| uniform_tokens(args.tokens, VOCAB, 3000 + i as u64))
            .collect();
        let registry = Registry::new();
        let (disabled, enabled) = time_alternating(
            OVERHEAD_ROUNDS,
            || {
                black_box(pool_run(&m, &streams, 0, 1, TelemetrySink::Disabled));
            },
            || {
                let sink = TelemetrySink::Registry(registry.clone());
                black_box(pool_run(&m, &streams, 0, 1, sink));
            },
        );
        let tokens = (OVERHEAD_SESSIONS * args.tokens) as f64;
        let (disabled, enabled) = (disabled.rate(tokens), enabled.rate(tokens));
        // Throughput lost to telemetry, in percent of the medians (negative
        // = noise favored the instrumented run).
        let overhead_pct = 100.0 * (1.0 - enabled.median / disabled.median);
        overhead_rows.push(
            Json::row()
                .field("k", k)
                .field("lag", 0)
                .field("sessions", OVERHEAD_SESSIONS)
                .field("threads", 1)
                .timing("disabled_", "tokens_per_sec", disabled, 0)
                .timing("enabled_", "tokens_per_sec", enabled, 0)
                .fixed("overhead_pct", overhead_pct, 2),
        );
    }

    Json::artifact(
        "stream",
        &format!(
            "Streaming inference: single-session per-token push latency (p50/p99/p99.9/mean ns) \
             over {LATENCY_BATCHES} instrumented passes, with the tokens/sec of uninstrumented \
             passes (median and range over {LATENCY_BATCHES} batches, each after one \
             instrumented pass), and multiplexed SessionPool throughput (tokens/sec) \
             over a k x lag x sessions x threads sweep, each thread count alternated with the \
             serial pool over \
             {THROUGHPUT_ROUNDS} rounds (median and range per side, speedup of the medians), \
             plus telemetry overhead: disabled vs registry-backed pool runs alternated over \
             {OVERHEAD_ROUNDS} rounds, median and range per side"
        ),
    )
    .field("vocab", VOCAB)
    .field("tokens_per_session", args.tokens)
    // Latency quantiles come from the telemetry layer's log-bucketed
    // histogram (the same structure the serving registry exports): bucket
    // lower bounds, an underestimate by at most one bucket width.
    .text("latency_quantile_source", "dhmm_telemetry_histogram")
    .field("quantile_rel_error_bound", REL_ERROR)
    .rows("latency", latency_rows)
    .rows("throughput", throughput_rows)
    .rows("telemetry_overhead", overhead_rows)
    .write(&args.output);
}
