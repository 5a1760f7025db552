//! Round records, the metric tables, statistics and the JSON output.

use crate::Args;
use dhmm_telemetry::{Registry, TelemetrySink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

/// End-to-end metrics, reported by every workload from untraced rounds. The
/// meaning per workload is in `perfbench/README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("tokens_per_s", "1/s"),
    ("accuracy", "share"),
];

/// Per-layer metrics, reported by every workload from traced rounds. A layer
/// a workload does not run reads 0. The operation latencies (`*_p50_us`,
/// `*_p90_us`) are here rather than end to end: on a shared 2-vCPU machine
/// the median sentence latency of `train-wide` spread by a fifth over five
/// seeds of the same code, more than `tokens_per_s` over the same decode.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("hmm.decode_p50_us", "us"),
    ("hmm.decode_p90_us", "us"),
    ("hmm.estep_ms", "ms"),
    ("hmm.estep_share", "share"),
    ("core.mstep_ms", "ms"),
    ("core.mstep_share", "share"),
    ("core.fit_ms", "ms"),
    ("core.em_iterations", "count"),
    ("dpp.ascent_accepted", "count"),
    ("dpp.ascent_rejected", "count"),
    ("dpp.ascent_accept_share", "share"),
    ("runtime.dispatches", "count"),
    ("runtime.inline_fallbacks", "count"),
    ("runtime.tasks", "count"),
    ("runtime.busy_ms", "ms"),
    ("runtime.busy_share", "share"),
    ("stream.lockstep_tokens", "count"),
    ("stream.scalar_tokens", "count"),
    ("stream.lockstep_share", "share"),
    ("stream.smoothing_batched_rows", "count"),
    ("stream.smoothing_scalar_rows", "count"),
    ("stream.group_size_mean", "sessions"),
    ("stream.push_us", "us"),
    ("stream.tick_p50_us", "us"),
    ("stream.tick_p90_us", "us"),
    ("serve.request_p50_us", "us"),
    ("serve.request_p90_us", "us"),
    ("serve.connect_p50_us", "us"),
    ("serve.connect_p99_us", "us"),
    ("serve.create_us", "us"),
    ("serve.push_us", "us"),
    ("serve.flush_us", "us"),
    ("serve.close_us", "us"),
    ("serve.engine_push_us", "us"),
    ("serve.batch_size_mean", "requests"),
    ("serve.tick_us", "us"),
    ("serve.errors", "count"),
    ("telemetry.overhead_pct", "%"),
];

/// What one round measured. Untraced rounds fill the end-to-end fields;
/// traced rounds fill them too (for the overhead comparison) plus `layers`.
#[derive(Debug, Default)]
pub struct Round {
    pub traced: bool,
    /// Seconds to build the component under test up to its first result.
    pub setup_s: f64,
    /// Wall time of each job the round completed (a fit, a document, a
    /// session).
    pub jobs_s: Vec<f64>,
    /// Tokens labeled in the measured part of the round.
    pub tokens: u64,
    /// Seconds those tokens took.
    pub work_s: f64,
    /// Latency of each unit operation (a sentence decode, a pool tick, a
    /// request round trip).
    pub latencies_us: Vec<f64>,
    /// Label accuracy of the round; deterministic for a seed.
    pub accuracy: f64,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations and output checks that failed.
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-layer values (traced rounds only), keyed by [`PER_LAYER`] names.
    pub layers: BTreeMap<&'static str, f64>,
    /// How much slower than nominal the host ran floating-point code at each
    /// timing, for workloads whose end-to-end timings are scaled to a
    /// nominal host (see [`host_timed`]).
    pub slowdown: Option<Slowdown>,
}

/// The host slowdown at each end-to-end timing of a round: 1 is nominal,
/// 1.5 means the reference pass took half as long again.
#[derive(Debug, Default)]
pub struct Slowdown {
    pub setup: f64,
    /// One per entry of [`Round::jobs_s`].
    pub jobs: Vec<f64>,
    pub work: f64,
}

impl Round {
    pub fn new(traced: bool) -> Self {
        Self {
            traced,
            ..Self::default()
        }
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records a failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layers.insert(name, value);
    }
}

/// Milliseconds a [`reference_pass`] takes on the unloaded 2.1 GHz Xeon
/// 2-vCPU VM the benchmark was built on.
const NOMINAL_REFERENCE_MS: f64 = 5.0;

/// Runs `work` between two [`reference_pass`]es and returns its result, its
/// wall time in seconds and the host slowdown: the mean reference time over
/// [`NOMINAL_REFERENCE_MS`].
///
/// A shared host slows floating-point code that streams through cache by up
/// to 1.8x for tens of seconds at a time (a 32 KB dot-product loop ran at
/// 1.2 ms and at 2.2 ms per pass within one minute, while integer and scalar
/// `exp`/`ln` loops held within 4%). Ten runs of `train-wide` therefore
/// spread by a third in decode throughput (quartile distance over median).
/// Dividing a timing by the slowdown measured just before it cancels most of
/// that: in a trial over six seeds the spread fell from 0.24 to 0.03 for
/// decode throughput, 0.19 to 0.09 for the fit and 0.24 to 0.07 for set-up.
/// The host also changes speed within a second, so the slowdown is the mean
/// of a pass before and a pass after the work.
pub fn host_timed<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = reference_pass();
    let t = Instant::now();
    let out = work();
    let elapsed = t.elapsed().as_secs_f64();
    let after = reference_pass();
    let slowdown = (before + after) / 2.0 / NOMINAL_REFERENCE_MS;
    (out, elapsed, slowdown)
}

/// A fixed floating-point loop owned by the benchmark, never by the program
/// under test, so that no change to the program can move it: 1000 steps of
/// a dense 64-state max-product and sum-product sweep (a 32 KB matrix), each
/// scaled by a row of a 512 KB emission-like table — the inner loops and
/// working set of Viterbi and the forward pass at k = 64. Returns
/// milliseconds.
pub fn reference_pass() -> f64 {
    const K: usize = 64;
    const ROWS: usize = 1000;
    let a: Vec<f64> = (0..K * K)
        .map(|i| ((i * 7919) % 1000) as f64 / 1000.0 + 0.01)
        .collect();
    let e: Vec<f64> = (0..K * ROWS)
        .map(|i| ((i * 104_729) % 997) as f64 / 997.0 + 0.01)
        .collect();
    let mut x = [1.0f64; K];
    let mut y = [0.0f64; K];
    let t = Instant::now();
    for step in 0..1000 {
        let row = &e[(step * 7919) % ROWS * K..][..K];
        for j in 0..K {
            let (mut best, mut arg, mut sum) = (0.0f64, 0usize, 0.0f64);
            for i in 0..K {
                let v = x[i] * a[i * K + j];
                sum += v;
                if v > best {
                    best = v;
                    arg = i;
                }
            }
            y[j] = (best + sum * 1e-3 + arg as f64 * 1e-300) * row[j];
        }
        let max = y.iter().copied().fold(0.0, f64::max);
        for j in 0..K {
            x[j] = y[j] / max;
        }
        std::hint::black_box(&mut x);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// Totals over every round of a run.
pub struct Summary {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Summary {
    pub fn of(rounds: &[Round]) -> Self {
        let mut s = Summary {
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            failures: rounds
                .iter()
                .flat_map(|r| r.failures.iter().cloned())
                .take(16)
                .collect(),
        };
        // Labels are deterministic for a seed, whatever the timing or
        // telemetry: every round must score the same accuracy to the bit.
        s.attempted += 1;
        if rounds
            .iter()
            .any(|r| r.accuracy.to_bits() != rounds[0].accuracy.to_bits())
        {
            s.failed += 1;
            s.failures.push("accuracy differs between rounds".into());
        }
        s
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn result_line(&self, metrics: &Metrics) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.json()
        )
    }
}

/// Named values with units, in table order.
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn value(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    }

    pub fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit of the measurement (`null` if the
/// measurement is not finite, which also fails the run).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile (NaN for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The end-to-end metrics of a set of rounds. With `nominal`, the timings
/// of rounds that carry a [`Slowdown`] are divided by it.
pub fn end_to_end(rounds: &[&Round], nominal: bool) -> Metrics {
    let scale = |r: &Round, of: &dyn Fn(&Slowdown) -> f64| match &r.slowdown {
        Some(s) if nominal => of(s),
        _ => 1.0,
    };
    let setups: Vec<f64> = rounds
        .iter()
        .map(|r| r.setup_s / scale(r, &|s| s.setup))
        .collect();
    let jobs: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.jobs_s
                .iter()
                .enumerate()
                .map(move |(i, j)| j / scale(r, &|s| s.jobs[i]))
        })
        .collect();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.tokens as f64 / (r.work_s / scale(r, &|s| s.work)))
        .collect();
    let values = [
        median(&setups),
        median(&jobs),
        median(&rates),
        rounds[0].accuracy,
    ];
    Metrics(
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect(),
    )
}

/// The per-layer metrics: medians over the traced rounds.
pub fn per_layer(traced: &[&Round], overhead_pct: f64) -> Metrics {
    Metrics(
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = if name == "telemetry.overhead_pct" {
                    overhead_pct
                } else {
                    let vals: Vec<f64> = traced
                        .iter()
                        .map(|r| r.layers.get(name).copied().unwrap_or(0.0))
                        .collect();
                    median(&vals)
                };
                (name, v, unit)
            })
            .collect(),
    )
}

/// The run-metadata line: machine, toolchain, revision, seed and sizes.
pub fn metadata(
    args: &Args,
    params: &[(&'static str, String)],
    rounds: &[Round],
    summary: &Summary,
) -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let samples: Vec<usize> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.latencies_us.len())
        .collect();
    let mut out = String::from("{\"meta\": {");
    let mut field = |k: &str, v: String| {
        if !out.ends_with('{') {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{k}\": {v}");
    };
    field("workload", quoted(&args.workload));
    field("seed", args.seed.to_string());
    field("seconds", number(args.seconds));
    field("trace", args.trace.to_string());
    field("scale", quoted(&format!("{:?}", args.scale).to_lowercase()));
    field("cores", cores.to_string());
    field(
        "auto_workers",
        dhmm_runtime::Parallelism::Auto.resolve().to_string(),
    );
    field("avx2", avx2().to_string());
    field("rustc", quoted(&command_line("rustc", &["--version"])));
    field(
        "git_sha",
        quoted(&command_line("git", &["rev-parse", "HEAD"])),
    );
    field("rounds", rounds.len().to_string());
    field(
        "traced_rounds",
        rounds.iter().filter(|r| r.traced).count().to_string(),
    );
    field("latency_samples", samples.iter().sum::<usize>().to_string());
    field(
        "latency_samples_per_round",
        samples.iter().min().unwrap_or(&0).to_string(),
    );
    field("failed_share", number(summary.failed_share()));
    for (k, v) in params {
        field(k, v.clone());
    }
    out.push_str("}}");
    out
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// First output line of a command, or `unknown`. Git is kept from searching
/// above the working directory.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

pub fn quoted(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A fresh registry, and the sink a round hands to the code under test:
/// recording into the registry when traced, disabled otherwise.
pub fn sink(traced: bool) -> (Registry, TelemetrySink) {
    let registry = Registry::new();
    let sink = if traced {
        TelemetrySink::Registry(registry.clone())
    } else {
        TelemetrySink::Disabled
    };
    (registry, sink)
}

/// Parses a Prometheus-style text exposition into `series → value`, where a
/// series is the metric name with its label block as rendered.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Mean of an exposition histogram (`_sum / _count`), 0 when empty.
pub fn hist_mean(expo: &BTreeMap<String, f64>, name: &str, labels: &str) -> f64 {
    let sum = expo
        .get(&format!("{name}_sum{labels}"))
        .copied()
        .unwrap_or(0.0);
    let count = expo
        .get(&format!("{name}_count{labels}"))
        .copied()
        .unwrap_or(0.0);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// Runtime worker-pool counters, read before and after the measured work.
pub struct RuntimeCounters {
    dispatches: u64,
    inline: u64,
    tasks: u64,
    busy_ns: u64,
}

impl RuntimeCounters {
    pub fn read() -> Self {
        use dhmm_runtime::telemetry as t;
        Self {
            dispatches: t::dispatch_total(),
            inline: t::inline_fallback_total(),
            tasks: t::tasks_total(),
            busy_ns: t::busy_ns_total(),
        }
    }

    /// Records the deltas since `self` into a traced round; `wall_ns` is the
    /// wall time of the work the pool served, for `runtime.busy_share`.
    pub fn record_since(&self, round: &mut Round, wall_ns: f64) {
        let now = Self::read();
        let workers = dhmm_runtime::Parallelism::Auto.resolve() as f64;
        let busy = (now.busy_ns - self.busy_ns) as f64;
        round.layer(
            "runtime.dispatches",
            (now.dispatches - self.dispatches) as f64,
        );
        round.layer(
            "runtime.inline_fallbacks",
            (now.inline - self.inline) as f64,
        );
        round.layer("runtime.tasks", (now.tasks - self.tasks) as f64);
        round.layer("runtime.busy_ms", busy / 1e6);
        round.layer("runtime.busy_share", busy / (workers * wall_ns));
    }
}
