//! The dhmm benchmark: four workloads driven through the public API, with
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one. `BENCHMARK.json` lists `train-wide` and `serve-replay`; the
//! other two are kept for per-layer attribution.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-pos|train-wide|stream-pool|serve-replay> \
//!     --seed <n> --seconds <s> --trace <0|1> [--scale smoke]
//! ```
//!
//! Every workload repeats one fixed, seeded *round* of work until
//! `--seconds` have passed; the first round is a warm-up and is discarded.
//! Inputs (corpora, documents, token streams, models) are generated once per
//! run from `--seed` and are excluded from every metric. The last line of
//! standard output is the result object; the line before it carries the run
//! metadata. With `--trace 1` rounds alternate between untraced and traced
//! (telemetry registry on the trainer, pool and server, runtime busy timing
//! on), and the per-layer metrics come from the traced rounds.

mod report;
mod serve;
mod stream;
mod train;

use report::{Round, Summary};
use std::process::ExitCode;
use std::time::Instant;

/// Workload sizes: the benchmark's own, or the tiny self-test ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err("--scale expects full or smoke".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

/// A prepared workload: inputs generated, ready to run rounds.
pub trait Workload {
    /// Size parameters recorded in the run metadata.
    fn params(&self) -> Vec<(&'static str, String)>;
    /// Runs one round of the fixed work. `traced` attaches the telemetry
    /// registry and runtime busy timing and fills [`Round::layers`].
    fn round(&mut self, traced: bool) -> Round;
    /// The end-to-end metric `telemetry.overhead_pct` compares: `job_s`
    /// (lower is better) or `tokens_per_s` (higher is better).
    fn primary(&self) -> &'static str;
}

fn prepare(name: &str, seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "train-pos" => Box::new(train::Train::pos(seed, scale)),
        "train-wide" => Box::new(train::Train::wide(seed, scale)),
        "stream-pool" => Box::new(stream::StreamPool::new(seed, scale)),
        "serve-replay" => Box::new(serve::ServeReplay::new(seed, scale)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs the warm-up round and then measured rounds until `seconds` have
/// passed since the warm-up ended (at least two measured rounds, and two of
/// each kind when tracing). Traced runs alternate untraced and traced rounds.
fn run_rounds(w: &mut dyn Workload, seconds: f64, trace: bool) -> Vec<Round> {
    let _ = w.round(false);
    let start = Instant::now();
    let min_rounds = if trace { 4 } else { 2 };
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && rounds.len() % 2 == 1;
        dhmm_runtime::telemetry::set_timing_enabled(traced);
        rounds.push(w.round(traced));
    }
    rounds
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut workload = match prepare(&args.workload, args.seed, args.scale) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rounds = run_rounds(workload.as_mut(), args.seconds, args.trace);
    let summary = Summary::of(&rounds);
    let (traced, plain): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| r.traced);
    let metrics = if args.trace {
        let primary = workload.primary();
        let untraced = report::end_to_end(&plain, true).value(primary);
        let with_tracing = report::end_to_end(&traced, true).value(primary);
        let slowdown = if primary == "job_s" {
            with_tracing / untraced
        } else {
            untraced / with_tracing
        };
        report::per_layer(&traced, (slowdown - 1.0) * 100.0)
    } else {
        report::end_to_end(&plain, true)
    };
    let mut params = workload.params();
    if plain.iter().any(|r| r.slowdown.is_some()) {
        // The timings as the clock read them, before scaling to a nominal
        // host, and the median slowdown the scaling divided out.
        let raw = report::end_to_end(&plain, false);
        for (name, key) in [
            ("setup_s", "unscaled_setup_s"),
            ("job_s", "unscaled_job_s"),
            ("tokens_per_s", "unscaled_tokens_per_s"),
        ] {
            params.push((key, report::number(raw.value(name))));
        }
        let slowdowns: Vec<f64> = plain
            .iter()
            .filter_map(|r| r.slowdown.as_ref().map(|s| s.work))
            .collect();
        params.push(("host_slowdown", report::number(report::median(&slowdowns))));
    }
    let meta = report::metadata(&args, &params, &rounds, &summary);
    for failure in &summary.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{meta}");
    println!("{}", summary.result_line(&metrics));
    if summary.correct() && metrics.all_finite() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
