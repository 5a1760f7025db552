//! `dhmm-serve` — serve a trained diversified-HMM checkpoint over TCP.
//!
//! Subcommands:
//!
//! - `serve --model <path> --addr <host:port>` — run the labeling server
//!   until SIGTERM/SIGINT, then drain (flush every in-flight session) and
//!   report how many sessions were flushed.
//! - `make-model --out <path> --k <n>` — write a random checkpoint (for
//!   smoke tests and benches; real deployments serve trained checkpoints).
//! - `client --addr <host:port> --script <path>` — replay a protocol
//!   script over one connection, printing every response. `$sid` in the
//!   script is substituted with the most recently created session id.

use dhmm_data::io::save_model;
use dhmm_hmm::emission::{DiscreteEmission, GaussianEmission};
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use dhmm_runtime::Parallelism;
use dhmm_serve::{signals, Client, ServeConfig, Server, TelemetrySink};
use dhmm_stream::{InferenceBackend, SparseParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("make-model") => cmd_make_model(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dhmm-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dhmm-serve — serve a diversified-HMM checkpoint over TCP

USAGE:
  dhmm-serve serve --model <path> [--addr <host:port>] [--lag <n>]
                   [--threads <n>] [--pending-cap <n>] [--committed-cap <n>]
                   [--max-idle-ticks <n>] [--backend scaled|sparse]
                   [--sparse-threshold <p>] [--sparse-top-p <p>]
                   [--telemetry true|false]

  Telemetry is on by default: the engine records counters, gauges and
  latency histograms into the process-global registry, scrapeable over
  the wire with the `metrics` verb (Prometheus text exposition).
  --telemetry false compiles the record path to no-ops.

  Under --backend sparse the transition matrix is pruned into CSR form:
  --sparse-threshold drops entries below p (default 0, identical to
  scaled), or --sparse-top-p keeps the smallest prefix covering mass p;
  each pruned row is renormalized, and decoding is exact under the
  pruned matrix.

  dhmm-serve make-model --out <path> --k <n> [--vocab <n>]
                        [--family discrete|gaussian] [--seed <n>]
  dhmm-serve client --addr <host:port> --script <path>
";

/// Pulls `--name value` pairs out of `args`, where every name is one of
/// `known` (the subcommand's flags); errors on anything else.
fn parse_flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
        if !known.contains(&name) {
            return Err(format!("unknown flag --{name}\n{USAGE}"));
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        flags.push((name.to_string(), value.clone()));
    }
    Ok(flags)
}

fn take<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

/// The parsed value of `--name`, or `None` when the flag is absent.
fn take_opt<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, String> {
    take(flags, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name} got an unparseable value {v:?}"))
        })
        .transpose()
}

fn take_parsed<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(take_opt(flags, name)?.unwrap_or(default))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "model",
            "addr",
            "lag",
            "threads",
            "pending-cap",
            "committed-cap",
            "max-idle-ticks",
            "telemetry",
            "backend",
            "sparse-threshold",
            "sparse-top-p",
        ],
    )?;
    let model = take(&flags, "model").ok_or("serve requires --model <path>")?;
    let addr = take(&flags, "addr").unwrap_or("127.0.0.1:7711").to_string();
    let lag: usize = take_parsed(&flags, "lag", 8)?;
    let threads: usize = take_parsed(&flags, "threads", 0)?;
    let pending_cap: usize = take_parsed(&flags, "pending-cap", 4096)?;
    let committed_cap: usize = take_parsed(&flags, "committed-cap", 65536)?;
    let max_idle_ticks: u64 = take_parsed(&flags, "max-idle-ticks", 0)?;
    let telemetry: bool = take_parsed(&flags, "telemetry", true)?;
    let backend = parse_backend(&flags)?;

    let parallelism = if threads == 0 {
        Parallelism::Auto
    } else {
        Parallelism::Threads(threads)
    };
    let config = ServeConfig::default()
        .with_lag(lag)
        .with_backend(backend)
        .with_parallelism(parallelism)
        .with_pending_cap(Some(pending_cap))
        .with_committed_cap(Some(committed_cap))
        .with_max_idle_ticks(if max_idle_ticks == 0 {
            None
        } else {
            Some(max_idle_ticks)
        })
        .with_telemetry(if telemetry {
            TelemetrySink::process_global()
        } else {
            TelemetrySink::Disabled
        });

    signals::install_handler();
    let handle =
        Server::start_from_path(Path::new(model), config, &addr).map_err(|e| e.to_string())?;
    println!("dhmm-serve listening on {}", handle.local_addr());
    let report = handle.wait().map_err(|e| e.to_string())?;
    println!(
        "dhmm-serve shut down cleanly, flushed {} sessions ({} tokens labeled)",
        report.flushed, report.tokens
    );
    Ok(())
}

/// Builds the inference backend from `--backend` and the `--sparse-*`
/// knobs. Parameter *values* are validated by the server at startup
/// (`StreamConfig::validate`), so out-of-range values surface as the same
/// `backend` error a library caller would see.
fn parse_backend(flags: &[(String, String)]) -> Result<InferenceBackend, String> {
    let threshold: Option<f64> = take_opt(flags, "sparse-threshold")?;
    let top_p: Option<f64> = take_opt(flags, "sparse-top-p")?;

    match take(flags, "backend").unwrap_or("scaled") {
        "scaled" => {
            if threshold.is_some() || top_p.is_some() {
                return Err("--sparse-* flags require --backend sparse".into());
            }
            Ok(InferenceBackend::Scaled)
        }
        "sparse" => {
            let params = match (threshold, top_p) {
                (Some(_), Some(_)) => {
                    return Err(
                        "--sparse-threshold and --sparse-top-p are mutually exclusive".into(),
                    )
                }
                (Some(t), None) => SparseParams::threshold(t),
                (None, Some(p)) => SparseParams::top_p(p),
                (None, None) => SparseParams::exact(),
            };
            Ok(InferenceBackend::Sparse(params))
        }
        other => Err(format!("--backend must be scaled or sparse, got {other:?}")),
    }
}

fn cmd_make_model(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["out", "k", "vocab", "family", "seed"])?;
    let out = take(&flags, "out").ok_or("make-model requires --out <path>")?;
    let k: usize = take_parsed(&flags, "k", 0)?;
    if k == 0 {
        return Err("make-model requires --k <n> with n > 0".into());
    }
    let vocab: usize = take_parsed(&flags, "vocab", 16)?;
    let family = take(&flags, "family").unwrap_or("discrete");
    let seed: u64 = take_parsed(&flags, "seed", 42)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = random_parameters(k, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
        .map_err(|e| e.to_string())?;
    match family {
        "discrete" => {
            let b = random_stochastic_matrix(k, vocab, 1.0, &mut rng).map_err(|e| e.to_string())?;
            let emission = DiscreteEmission::new(b).map_err(|e| e.to_string())?;
            let model = Hmm::new(pi, a, emission).map_err(|e| e.to_string())?;
            save_model(Path::new(out), &model).map_err(|e| e.to_string())?;
        }
        "gaussian" => {
            let means: Vec<f64> = (0..k).map(|i| i as f64 * 2.0 + rng.gen::<f64>()).collect();
            let std_devs: Vec<f64> = (0..k).map(|_| 0.5 + rng.gen::<f64>()).collect();
            let emission = GaussianEmission::new(means, std_devs).map_err(|e| e.to_string())?;
            let model = Hmm::new(pi, a, emission).map_err(|e| e.to_string())?;
            save_model(Path::new(out), &model).map_err(|e| e.to_string())?;
        }
        other => {
            return Err(format!(
                "--family must be discrete or gaussian, got {other:?}"
            ))
        }
    }
    println!("wrote {family} checkpoint with k={k} to {out}");
    Ok(())
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &["addr", "script"])?;
    let addr = take(&flags, "addr").ok_or("client requires --addr <host:port>")?;
    let script = take(&flags, "script").ok_or("client requires --script <path>")?;

    let text = std::fs::read_to_string(script).map_err(|e| format!("read {script}: {e}"))?;
    let addr = addr
        .parse()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;

    // `$sid` is replaced with the session id from the most recent
    // `ok sid ...` response, so scripts don't hard-code slot numbers.
    let mut last_sid = String::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let request = line.replace("$sid", &last_sid);
        let response = client
            .call_raw(&request)
            .map_err(|e| format!("round-trip for {request:?}: {e}"))?;
        if let Some(rest) = response.strip_prefix("ok sid ") {
            last_sid = rest.trim().to_string();
        }
        println!("> {request}");
        println!("< {response}");
    }
    Ok(())
}
