//! Machine-readable streaming benchmark.
//!
//! Records the streaming subsystem's two service-level numbers into one
//! diffable artifact, `BENCH_stream.json`:
//!
//! * **per-token latency** of a single [`StreamingDecoder`] session — p50 /
//!   p99 / mean nanoseconds per `push` (filter + online Viterbi + commit
//!   rules + amortized fixed-lag smoothing), plus the implied single-session
//!   tokens/sec;
//! * **multiplexed throughput** of a [`SessionPool`] — tokens/sec of batch
//!   ticks over a sessions × threads sweep, with the 1-thread pool as the
//!   speedup baseline, plus the smoothed rows each run's ticks emitted.
//!
//! A third section compares one pool run with telemetry disabled and
//! registry-backed.
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

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::random_stochastic_matrix;
use dhmm_hmm::Hmm;
use dhmm_stream::{Parallelism, SessionPool, StreamConfig, StreamingDecoder};
use dhmm_telemetry::{Histogram, Registry, TelemetrySink, REL_ERROR};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Vocabulary of the synthetic token stream.
const VOCAB: usize = 64;
/// Tokens fed per tick batch in the throughput sweep.
const TICK_CHUNK: usize = 32;

struct Args {
    output: String,
    threads: Vec<usize>,
    sizes: Vec<usize>,
    sessions: Vec<usize>,
    lags: Vec<usize>,
    tokens: usize,
}

fn parse_list(raw: &str, flag: &str) -> Vec<usize> {
    raw.split(',')
        .map(|part| {
            part.trim().parse::<usize>().unwrap_or_else(|_| {
                panic!("{flag} expects a comma-separated integer list, got {raw:?}")
            })
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        output: "BENCH_stream.json".to_string(),
        threads: vec![1, 2, 4],
        sizes: vec![16, 64],
        sessions: vec![32],
        lags: vec![8, 64],
        tokens: 512,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--output" => args.output = value_of("--output"),
            "--threads" => args.threads = parse_list(&value_of("--threads"), "--threads"),
            "--k" => args.sizes = parse_list(&value_of("--k"), "--k"),
            "--sessions" => args.sessions = parse_list(&value_of("--sessions"), "--sessions"),
            "--lag" => args.lags = parse_list(&value_of("--lag"), "--lag"),
            "--tokens" => {
                args.tokens = value_of("--tokens")
                    .parse()
                    .expect("--tokens expects an integer")
            }
            other if !other.starts_with('-') => args.output = other.to_string(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    for (name, list) in [
        ("--threads", &args.threads),
        ("--k", &args.sizes),
        ("--sessions", &args.sessions),
        ("--lag", &args.lags),
    ] {
        assert!(!list.is_empty(), "{name} list must be non-empty");
    }
    assert!(args.tokens > 0, "--tokens must be positive");
    args
}

fn model(k: usize) -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(271);
    let (pi, a) = dhmm_hmm::init::random_parameters(
        k,
        dhmm_hmm::init::InitStrategy::Dirichlet { concentration: 2.0 },
        &mut rng,
    )
    .expect("valid parameters");
    let b = random_stochastic_matrix(k, VOCAB, 1.0, &mut rng).expect("valid matrix");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

fn stream(tokens: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..tokens).map(|_| rng.gen_range(0..VOCAB)).collect()
}

struct LatencyRow {
    k: usize,
    lag: usize,
    p50_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
    mean_ns: f64,
    tokens_per_sec: f64,
}

/// Single-session per-token latency: push `tokens` tokens through a warm
/// decoder. The percentile pass times each push individually into a
/// detached telemetry [`Histogram`] — the same log-bucketed structure the
/// serving registry exports, so bench and production quantiles share one
/// definition. Reported quantiles are bucket lower bounds, an
/// underestimate by at most one bucket width (relative error ≤ `REL_ERROR`
/// = 0.125, recorded in the JSON metadata). Tokens/sec comes from a
/// separate *uninstrumented* pass, so the committed throughput figure
/// carries no `Instant::now` / sample-recording overhead (at sub-µs
/// pushes, two timer reads per token would skew it by ~10%).
fn latency(k: usize, lag: usize, tokens: usize) -> LatencyRow {
    let m = model(k);
    let seq = stream(tokens, 99);
    let mut dec = StreamingDecoder::new(&m, lag);
    // Warm-up pass sizes every buffer and the branch predictors.
    for obs in &seq {
        black_box(dec.push(obs).log_likelihood);
    }
    dec.flush();
    dec.reset();

    // Instrumented pass: per-push percentiles.
    let hist = Histogram::detached();
    for obs in &seq {
        let span = hist.span();
        black_box(dec.push(obs).log_likelihood);
        drop(span);
    }
    dec.flush();
    dec.reset();

    // Clean pass: wall-clock throughput with nothing inside the loop.
    let total = Instant::now();
    for obs in &seq {
        black_box(dec.push(obs).log_likelihood);
    }
    let wall = total.elapsed().as_secs_f64();
    dec.flush();

    let snap = hist.snapshot();
    LatencyRow {
        k,
        lag,
        p50_ns: snap.quantile(0.5) as f64,
        p99_ns: snap.quantile(0.99) as f64,
        // p99.9 brackets the fixed-lag smoothing-block spike (one O(L·k²)
        // push every L tokens — see StreamingDecoder::push's latency
        // profile): the tail is flat beyond the block cost, so p99.9 ≈ p99
        // whenever the block lands inside the top percentile.
        p999_ns: snap.quantile(0.999) as f64,
        mean_ns: snap.mean(),
        tokens_per_sec: tokens as f64 / wall,
    }
}

struct ThroughputRow {
    k: usize,
    lag: usize,
    sessions: usize,
    threads: usize,
    tokens_per_sec: f64,
    serial_tokens_per_sec: f64,
    /// Smoothed rows the ticks of the measured run emitted.
    smoothing_scalar_rows: u64,
}

impl ThroughputRow {
    fn speedup(&self) -> f64 {
        self.tokens_per_sec / self.serial_tokens_per_sec
    }
}

/// One telemetry-overhead comparison: the identical pool run with the
/// record path compiled out (`TelemetrySink::Disabled`) vs registry-backed.
struct OverheadRow {
    k: usize,
    disabled_tokens_per_sec: f64,
    enabled_tokens_per_sec: f64,
}

impl OverheadRow {
    /// Throughput lost to telemetry, in percent (negative = noise favored
    /// the instrumented run).
    fn overhead_pct(&self) -> f64 {
        100.0 * (1.0 - self.enabled_tokens_per_sec / self.disabled_tokens_per_sec)
    }
}

/// What one multiplexed run measured: wall-clock throughput plus the
/// smoothed rows the run's ticks emitted.
#[derive(Clone, Copy)]
struct PoolRunStats {
    tokens_per_sec: f64,
    smoothing_scalar: u64,
}

/// One full multiplexed run: `sessions` sessions × `tokens` tokens, fed in
/// `TICK_CHUNK`-token rounds, under an explicit thread policy.
fn pool_run(
    m: &Arc<Hmm<DiscreteEmission>>,
    streams: &[Vec<usize>],
    lag: usize,
    threads: usize,
    telemetry: TelemetrySink,
) -> PoolRunStats {
    let mut pool = SessionPool::with_config(
        Arc::clone(m),
        StreamConfig::default()
            .with_lag(lag)
            .with_parallelism(Parallelism::Threads(threads))
            .with_telemetry(telemetry),
    )
    .expect("discrete models stream");
    let ids: Vec<_> = streams.iter().map(|_| pool.create()).collect();
    let tokens: usize = streams.iter().map(|s| s.len()).sum();
    let max_len = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut sink = Vec::new();

    let start = Instant::now();
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
    PoolRunStats {
        tokens_per_sec: tokens as f64 / start.elapsed().as_secs_f64(),
        smoothing_scalar: pool.smoothing_scalar_total(),
    }
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut latency_rows = Vec::new();
    for &k in &args.sizes {
        for &lag in &args.lags {
            latency_rows.push(latency(k, lag, args.tokens));
        }
    }

    println!(
        "stream: single-session per-token latency ({} tokens/session)\n",
        args.tokens
    );
    println!(
        "{:>4} {:>5} {:>10} {:>10} {:>10} {:>10} {:>14}",
        "k", "lag", "p50", "p99", "p99.9", "mean", "tokens/sec"
    );
    for r in &latency_rows {
        println!(
            "{:>4} {:>5} {:>8.0}ns {:>8.0}ns {:>8.0}ns {:>8.0}ns {:>14.0}",
            r.k, r.lag, r.p50_ns, r.p99_ns, r.p999_ns, r.mean_ns, r.tokens_per_sec
        );
    }

    let mut throughput_rows = Vec::new();
    for &k in &args.sizes {
        let m = Arc::new(model(k));
        for &lag in &args.lags {
            for &sessions in &args.sessions {
                let streams: Vec<Vec<usize>> = (0..sessions)
                    .map(|i| stream(args.tokens, 1000 + i as u64))
                    .collect();
                // Warm-up run sizes every session workspace and the pool
                // scratch, so measured runs see steady-state allocation.
                black_box(pool_run(&m, &streams, lag, 1, TelemetrySink::Disabled).tokens_per_sec);
                let serial = pool_run(&m, &streams, lag, 1, TelemetrySink::Disabled);
                for &threads in &args.threads {
                    let run = if threads == 1 {
                        serial
                    } else {
                        pool_run(&m, &streams, lag, threads, TelemetrySink::Disabled)
                    };
                    throughput_rows.push(ThroughputRow {
                        k,
                        lag,
                        sessions,
                        threads,
                        tokens_per_sec: run.tokens_per_sec,
                        serial_tokens_per_sec: serial.tokens_per_sec,
                        smoothing_scalar_rows: run.smoothing_scalar,
                    });
                }
            }
        }
    }

    println!("\nstream: multiplexed session-pool throughput ({cores} cores available)\n");
    println!(
        "{:>4} {:>5} {:>9} {:>8} {:>14} {:>9}",
        "k", "lag", "sessions", "threads", "tokens/sec", "speedup"
    );
    for r in &throughput_rows {
        println!(
            "{:>4} {:>5} {:>9} {:>8} {:>14.0} {:>8.2}x",
            r.k,
            r.lag,
            r.sessions,
            r.threads,
            r.tokens_per_sec,
            r.speedup()
        );
    }

    // Telemetry overhead: the same warmed lag-0, 8-session, single-thread
    // run with the record path disabled vs registry-backed. Best-of-3 per
    // sink so container timing noise doesn't masquerade as overhead — the
    // instrumentation delta (a handful of relaxed atomics plus two clock
    // reads per tick) is far below run-to-run noise.
    let mut overhead_rows: Vec<OverheadRow> = Vec::new();
    for &k in &args.sizes {
        let m = Arc::new(model(k));
        let streams: Vec<Vec<usize>> = (0..8)
            .map(|i| stream(args.tokens, 3000 + i as u64))
            .collect();
        let best = |sink_of: &dyn Fn() -> TelemetrySink| -> f64 {
            black_box(pool_run(&m, &streams, 0, 1, sink_of()).tokens_per_sec);
            (0..3)
                .map(|_| pool_run(&m, &streams, 0, 1, sink_of()).tokens_per_sec)
                .fold(0.0, f64::max)
        };
        let disabled = best(&|| TelemetrySink::Disabled);
        let enabled = best(&|| TelemetrySink::Registry(Registry::new()));
        overhead_rows.push(OverheadRow {
            k,
            disabled_tokens_per_sec: disabled,
            enabled_tokens_per_sec: enabled,
        });
    }

    println!("\nstream: telemetry overhead (lag 0, 8 sessions, 1 thread, best of 3)\n");
    println!(
        "{:>4} {:>16} {:>16} {:>12}",
        "k", "disabled tok/s", "enabled tok/s", "overhead"
    );
    for r in &overhead_rows {
        println!(
            "{:>4} {:>16.0} {:>16.0} {:>11.2}%",
            r.k,
            r.disabled_tokens_per_sec,
            r.enabled_tokens_per_sec,
            r.overhead_pct()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"stream\",\n");
    json.push_str("  \"description\": \"Streaming inference: single-session per-token push latency (p50/p99/p99.9/mean ns) and multiplexed SessionPool throughput (tokens/sec) over a k x lag x sessions x threads sweep\",\n");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"vocab\": {VOCAB},");
    let _ = writeln!(json, "  \"tokens_per_session\": {},", args.tokens);
    // Latency quantiles come from the telemetry layer's log-bucketed
    // histogram (the same structure the serving registry exports): bucket
    // lower bounds, an underestimate by at most one bucket width.
    json.push_str("  \"latency_quantile_source\": \"dhmm_telemetry_histogram\",\n");
    let _ = writeln!(json, "  \"quantile_rel_error_bound\": {REL_ERROR},");
    json.push_str("  \"latency\": [\n");
    for (i, r) in latency_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"lag\": {}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}, \"p999_ns\": {:.0}, \"mean_ns\": {:.0}, \"tokens_per_sec\": {:.0}}}",
            r.k, r.lag, r.p50_ns, r.p99_ns, r.p999_ns, r.mean_ns, r.tokens_per_sec
        );
        json.push_str(if i + 1 < latency_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"throughput\": [\n");
    for (i, r) in throughput_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"lag\": {}, \"sessions\": {}, \"threads\": {}, \"tokens_per_sec\": {:.0}, \"speedup_vs_serial\": {:.2}, \"smoothing_scalar_rows\": {}}}",
            r.k, r.lag, r.sessions, r.threads, r.tokens_per_sec, r.speedup(), r.smoothing_scalar_rows
        );
        json.push_str(if i + 1 < throughput_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    json.push_str("  \"telemetry_overhead\": [\n");
    for (i, r) in overhead_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"lag\": 0, \"sessions\": 8, \"threads\": 1, \"disabled_tokens_per_sec\": {:.0}, \"enabled_tokens_per_sec\": {:.0}, \"overhead_pct\": {:.2}}}",
            r.k, r.disabled_tokens_per_sec, r.enabled_tokens_per_sec, r.overhead_pct()
        );
        json.push_str(if i + 1 < overhead_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.output, &json).expect("write benchmark JSON");
    println!("\nwrote {}", args.output);
}
