//! # dhmm-bench
//!
//! Criterion benchmarks for the dHMM reproduction, plus the JSON bench
//! binaries under `src/bin/` that record the repository's machine-readable
//! perf trajectory (`mstep-bench` writes `BENCH_mstep.json` and
//! `BENCH_parallel.json`, `sparse-bench` writes `BENCH_sparse.json`,
//! `stream-bench` writes `BENCH_stream.json` and `serve-bench` writes
//! `BENCH_serve.json`). The library is the one harness those binaries
//! share:
//!
//! * [`Flags`] reads every binary's command line: `--name value` pairs,
//!   comma-separated integer lists, typed values and bare switches;
//! * [`Timing`], [`time_batches`] and [`time_alternating`] time a row and
//!   keep its spread;
//! * [`Json`] writes an artifact: the `bench`/`description` header, the
//!   machine lines (`cores`, `avx2`, `rustc`), scalar fields and arrays of
//!   one-line row objects;
//! * [`random_discrete_hmm`] and [`uniform_tokens`] build the seeded
//!   random model and token streams that `stream-bench`, `serve-bench` and
//!   the `substrate` criterion bench feed their engines.
//!
//! The criterion benches live in the `benches/` directory:
//!
//! * `substrate` — microbenchmarks of forward–backward, Viterbi, the DPP
//!   log-determinant/gradient, the simplex projection and the Hungarian
//!   algorithm,
//! * `toy_experiments` — Table 1, Fig. 2 and the Figs. 3–5 σ sweep,
//! * `pos_experiments` — Table 2 and Figs. 7–9,
//! * `ocr_experiments` — Table 3 and Figs. 10–12,
//! * `ablations` — kernel exponent ρ, step-size strategy and prior family.
//!
//! Each experiment bench prints the reproduced table/series once before
//! timing it, so `cargo bench` output doubles as a reproduction log
//! (quick-scale; run the `exp-*` binaries with `--paper` for the full-size
//! numbers recorded in EXPERIMENTS.md).

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::{Debug, Display};
use std::str::FromStr;
use std::time::Instant;

/// A value type a flag can take, with the phrase its parse error uses.
pub trait FlagValue: FromStr {
    /// What the flag expects, as in `--tokens expects an integer`.
    const EXPECTS: &'static str;
}

impl FlagValue for usize {
    const EXPECTS: &'static str = "an integer";
}

impl FlagValue for f64 {
    const EXPECTS: &'static str = "a float";
}

impl FlagValue for String {
    const EXPECTS: &'static str = "a string";
}

/// The command line of a bench binary: `--name value` pairs and bare
/// switches. Each getter takes its flag out of the line (the last of
/// repeated occurrences wins), so [`Flags::finish`] can reject whatever no
/// getter asked for.
pub struct Flags {
    /// Arguments in command-line order. A flag that takes a value holds the
    /// next argument, or `None` at the end of the line; a switch or a bare
    /// word holds `None`.
    args: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Reads the process's arguments. `switches` names the flags that take
    /// no value; every other `--name` takes the argument after it.
    pub fn from_env(switches: &[&str]) -> Flags {
        Flags::new(std::env::args().skip(1), switches)
    }

    /// Reads `args` (without the program name) as [`Flags::from_env`] does.
    fn new(args: impl IntoIterator<Item = String>, switches: &[&str]) -> Flags {
        let mut it = args.into_iter();
        let mut parsed = Vec::new();
        while let Some(arg) = it.next() {
            let value = if arg.starts_with("--") && !switches.contains(&arg.as_str()) {
                it.next()
            } else {
                None
            };
            parsed.push((arg, value));
        }
        Flags { args: parsed }
    }

    /// Removes every occurrence of `name`; the value slot of the last one.
    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let mut last = None;
        self.args.retain(|(arg, value)| {
            let hit = arg == name;
            if hit {
                last = Some(value.clone());
            }
            !hit
        });
        last
    }

    /// The raw value of `name`, or `None` when the flag is absent.
    ///
    /// # Panics
    /// Panics if the flag ends the line without a value.
    fn raw(&mut self, name: &str) -> Option<String> {
        self.take(name)
            .map(|value| value.unwrap_or_else(|| panic!("{name} expects a value")))
    }

    /// Whether the switch `name` is on the line.
    pub fn switch(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// The value of `name`, or `default` when the flag is absent.
    ///
    /// # Panics
    /// Panics if the value is missing or does not parse as `T`.
    pub fn value<T: FlagValue>(&mut self, name: &str, default: T) -> T
    where
        T::Err: Debug,
    {
        match self.raw(name) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|e| panic!("{name} expects {}: {e:?}", T::EXPECTS)),
        }
    }

    /// The comma-separated integer list of `name`, or `None` when the flag
    /// is absent.
    ///
    /// # Panics
    /// Panics if the value is missing, empty, or has a part that is not an
    /// integer.
    pub fn list_if_given(&mut self, name: &str) -> Option<Vec<usize>> {
        let raw = self.raw(name)?;
        assert!(!raw.trim().is_empty(), "{name} list must be non-empty");
        let parts = raw.split(',').map(|part| {
            part.trim().parse().unwrap_or_else(|_| {
                panic!("{name} expects a comma-separated integer list, got {raw:?}")
            })
        });
        Some(parts.collect())
    }

    /// The comma-separated integer list of `name`, or `default` when the
    /// flag is absent. Panics as [`Flags::list_if_given`] does.
    pub fn list(&mut self, name: &str, default: &[usize]) -> Vec<usize> {
        self.list_if_given(name).unwrap_or_else(|| default.to_vec())
    }

    /// Ends the reading.
    ///
    /// # Panics
    /// Panics on the first argument that no getter took.
    pub fn finish(self) {
        if let Some((arg, _)) = self.args.first() {
            panic!("unknown argument {arg:?}");
        }
    }
}

/// The timing of one benchmark row: the median sample, with the fastest
/// and the slowest next to it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median sample (the upper one for an even count).
    pub median: f64,
    /// Fastest sample.
    pub min: f64,
    /// Slowest sample.
    pub max: f64,
}

impl Timing {
    /// The median (the upper one for an even count), fastest and slowest
    /// of `samples`.
    ///
    /// # Panics
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(mut samples: Vec<f64>) -> Timing {
        assert!(!samples.is_empty(), "at least one sample");
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = samples.len();
        Timing {
            median: samples[n / 2],
            min: samples[0],
            max: samples[n - 1],
        }
    }

    /// The same timing in another unit: every sample times `factor`.
    pub fn scaled(self, factor: f64) -> Timing {
        Timing {
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
        }
    }

    /// A timing in nanoseconds per call as a rate: `work` units per call,
    /// per second. The slowest call gives the lowest rate.
    pub fn rate(self, work: f64) -> Timing {
        Timing {
            median: work * 1e9 / self.median,
            min: work * 1e9 / self.max,
            max: work * 1e9 / self.min,
        }
    }
}

/// Times `f` as `batches` batches of enough calls to cover about
/// `batch_seconds` each (at least one call), after one unrecorded warm-up
/// call that sizes workspaces and warms caches and one unrecorded probe
/// call that sizes the batches. Each sample is the mean wall time per call
/// of one batch, in nanoseconds.
///
/// # Panics
/// Panics if `batches` is zero.
pub fn time_batches(batches: usize, batch_seconds: f64, mut f: impl FnMut()) -> Timing {
    assert!(batches > 0, "at least one batch");
    f();
    let probe = Instant::now();
    f();
    let per_call = probe.elapsed().as_secs_f64().max(1e-9);
    let calls = ((batch_seconds / per_call) as usize).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    Timing::of(samples)
}

/// Times `f` and `g` in alternation, one call per sample, after one
/// unrecorded warm-up call of each: even rounds time `f` then `g`, odd
/// rounds `g` then `f`. A host whose speed drifts during the run then
/// slows both sides alike, not just the side that ran in the slow spell,
/// so the drift stays out of the ratio of the two medians. Samples are
/// wall nanoseconds per call.
///
/// # Panics
/// Panics if `rounds` is zero.
pub fn time_alternating(
    rounds: usize,
    mut f: impl FnMut(),
    mut g: impl FnMut(),
) -> (Timing, Timing) {
    assert!(rounds > 0, "at least one round");
    fn call_ns(h: &mut impl FnMut()) -> f64 {
        let start = Instant::now();
        h();
        start.elapsed().as_secs_f64() * 1e9
    }
    f();
    g();
    let mut f_samples = Vec::with_capacity(rounds);
    let mut g_samples = Vec::with_capacity(rounds);
    for round in 0..rounds {
        if round % 2 == 0 {
            f_samples.push(call_ns(&mut f));
            g_samples.push(call_ns(&mut g));
        } else {
            g_samples.push(call_ns(&mut g));
            f_samples.push(call_ns(&mut f));
        }
    }
    (Timing::of(f_samples), Timing::of(g_samples))
}

/// A JSON object under construction, as `"key": value` entries in the order
/// they were added. A row object renders on one line inside its array; an
/// artifact renders one entry per line and is written by [`Json::write`],
/// which also prints it: scalar fields as `key: value` lines, and each
/// array of rows as a table.
#[derive(Debug, Default)]
pub struct Json(Vec<(String, Value)>);

#[derive(Debug)]
enum Value {
    /// The JSON text of a number, a bool, a string or a short list.
    Text(String),
    /// An array of row objects.
    Rows(Vec<Json>),
}

impl Value {
    /// The JSON text; an array holds one row object per line.
    fn json(&self) -> String {
        match self {
            Value::Text(text) => text.clone(),
            Value::Rows(rows) => {
                let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.line())).collect();
                format!("[\n{}\n  ]", lines.join(",\n"))
            }
        }
    }
}

impl Json {
    /// An empty row object.
    pub fn row() -> Json {
        Json::default()
    }

    /// An artifact that starts with `bench`, `description` and the machine
    /// lines: the `cores` the process may use, whether the host has AVX2
    /// (`avx2`), and the `rustc` version.
    pub fn artifact(bench: &str, description: &str) -> Json {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Json::row()
            .text("bench", bench)
            .text("description", description)
            .field("cores", cores)
            .field("avx2", avx2)
            .text("rustc", &rustc)
    }

    /// `"key": value`, where the value's `Display` form is its JSON text
    /// (an integer, a bool, a float, or a list printed with `{:?}`).
    pub fn field(mut self, key: &str, value: impl Display) -> Json {
        self.0.push((key.into(), Value::Text(value.to_string())));
        self
    }

    /// `"key": value` with `decimals` digits after the point.
    pub fn fixed(self, key: &str, value: f64, decimals: usize) -> Json {
        self.field(key, format_args!("{value:.decimals$}"))
    }

    /// `"key": "value"`.
    pub fn text(self, key: &str, value: &str) -> Json {
        self.field(key, format_args!("{value:?}"))
    }

    /// `"<prefix><unit>": median, "<prefix>range_<unit>": [min, max]`, each
    /// number printed with `decimals` digits after the point.
    pub fn timing(self, prefix: &str, unit: &str, t: Timing, decimals: usize) -> Json {
        let d = decimals;
        self.fixed(&format!("{prefix}{unit}"), t.median, d).field(
            &format!("{prefix}range_{unit}"),
            format_args!("[{:.d$}, {:.d$}]", t.min, t.max),
        )
    }

    /// `"key": [...]`, one row object per line.
    pub fn rows(mut self, key: &str, rows: Vec<Json>) -> Json {
        self.0.push((key.into(), Value::Rows(rows)));
        self
    }

    /// The `"key": value` entries.
    fn entries(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", v.json()))
            .collect()
    }

    /// The object on one line.
    fn line(&self) -> String {
        format!("{{{}}}", self.entries().join(", "))
    }

    /// The artifact's text: one entry per line, newline-terminated.
    fn render(&self) -> String {
        format!("{{\n  {}\n}}\n", self.entries().join(",\n  "))
    }

    /// Prints the artifact, writes it to `path` and prints `wrote <path>`.
    ///
    /// # Panics
    /// Panics if the file cannot be written.
    pub fn write(&self, path: &str) {
        for (key, value) in &self.0 {
            match value {
                Value::Text(text) => println!("{key}: {text}"),
                Value::Rows(rows) => print_table(key, rows),
            }
        }
        std::fs::write(path, self.render()).expect("write benchmark JSON");
        println!("\nwrote {path}");
    }
}

/// Prints `rows` under `title`, one right-aligned column per key in the
/// order keys first appear.
fn print_table(title: &str, rows: &[Json]) {
    let mut keys: Vec<&str> = Vec::new();
    for (key, _) in rows.iter().flat_map(|r| &r.0) {
        if !keys.contains(&key.as_str()) {
            keys.push(key);
        }
    }
    // A row without a key shows `-` in that column.
    let cell = |row: &Json, key: &str| {
        let entry = row.0.iter().find(|(k, _)| k == key);
        entry.map_or_else(|| "-".to_string(), |(_, v)| v.json())
    };
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| keys.iter().map(|k| cell(r, k)).collect())
        .collect();
    let widths: Vec<usize> = (0..keys.len())
        .map(|c| {
            cells
                .iter()
                .map(|r| r[c].len())
                .fold(keys[c].len(), usize::max)
        })
        .collect();
    let print_line = |cells: &[&str]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", padded.join("  "));
    };
    println!("\n{title}:");
    print_line(&keys);
    for row in &cells {
        print_line(&row.iter().map(String::as_str).collect::<Vec<_>>());
    }
}

/// A random discrete HMM with `k` states over `vocab` symbols: Dirichlet(2)
/// start and transition rows, then uniform-Dirichlet emission rows, all
/// drawn from one generator seeded with `seed`.
pub fn random_discrete_hmm(k: usize, vocab: usize, seed: u64) -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = random_parameters(k, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
        .expect("valid parameters");
    let b = random_stochastic_matrix(k, vocab, 1.0, &mut rng).expect("valid emission rows");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

/// `len` symbols drawn uniformly from `0..vocab` by a generator seeded with
/// `seed`.
pub fn uniform_tokens(len: usize, vocab: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(0..vocab)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_json_names_the_unit_and_the_range() {
        let t = Timing {
            median: 2.25,
            min: 1.5,
            max: 3.0,
        };
        assert_eq!(
            Json::row().timing("fused_", "ns", t, 0).line(),
            "{\"fused_ns\": 2, \"fused_range_ns\": [2, 3]}"
        );
        assert_eq!(
            Json::row()
                .timing("forward_dense_", "us", t.scaled(2.0), 1)
                .line(),
            "{\"forward_dense_us\": 4.5, \"forward_dense_range_us\": [3.0, 6.0]}"
        );
    }

    #[test]
    fn time_batches_orders_median_between_min_and_max() {
        let mut calls = 0;
        let t = time_batches(5, 0.0, || calls += 1);
        // Warm-up, probe, then five one-call batches.
        assert_eq!(calls, 7);
        assert!(t.min <= t.median && t.median <= t.max);
    }

    #[test]
    fn rate_inverts_the_timing_and_swaps_its_ends() {
        let t = Timing {
            median: 2e9,
            min: 1e9,
            max: 4e9,
        };
        let r = t.rate(8.0);
        assert_eq!((r.median, r.min, r.max), (4.0, 2.0, 8.0));
    }

    #[test]
    fn timing_of_takes_the_upper_median() {
        let t = Timing::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!((t.median, t.min, t.max), (3.0, 1.0, 4.0));
    }

    #[test]
    fn time_alternating_swaps_the_lead_every_round() {
        let order = std::cell::RefCell::new(Vec::new());
        let (f, g) = time_alternating(
            3,
            || order.borrow_mut().push('f'),
            || order.borrow_mut().push('g'),
        );
        // Warm-up f and g, then f g | g f | f g.
        assert_eq!(order.into_inner(), ['f', 'g', 'f', 'g', 'g', 'f', 'f', 'g']);
        assert!(f.min <= f.median && f.median <= f.max);
        assert!(g.min <= g.median && g.median <= g.max);
    }

    #[test]
    fn machine_header_has_the_three_lines() {
        let json = Json::artifact("b", "d").render();
        assert!(json.starts_with("{\n  \"bench\": \"b\",\n  \"description\": \"d\",\n"));
        assert!(json.contains("\n  \"cores\": "), "{json}");
        assert!(json.contains("\n  \"avx2\": "), "{json}");
        assert!(json.contains("\n  \"rustc\": \""), "{json}");
    }

    #[test]
    fn artifact_renders_fields_and_one_line_rows() {
        let t = Timing {
            median: 2.0,
            min: 1.0,
            max: 3.0,
        };
        let json = Json::row()
            .field("vocab", 64)
            .field("threads", format_args!("{:?}", [1, 2]))
            .rows(
                "rows",
                vec![
                    Json::row().text("op", "value").fixed("x", 1.234, 2),
                    Json::row().field("ok", true).timing("t_", "us", t, 1),
                ],
            )
            .render();
        assert_eq!(
            json,
            "{\n  \"vocab\": 64,\n  \"threads\": [1, 2],\n  \"rows\": [\n    \
             {\"op\": \"value\", \"x\": 1.23},\n    \
             {\"ok\": true, \"t_us\": 2.0, \"t_range_us\": [1.0, 3.0]}\n  ]\n}\n"
        );
    }

    fn flags(line: &str) -> Flags {
        Flags::new(line.split_whitespace().map(String::from), &["--quiet"])
    }

    #[test]
    fn flags_read_lists_values_and_switches() {
        let mut f = flags("--k 4,16 --tokens 64 --beam 0.5 --quiet --k 8");
        assert_eq!(f.list("--k", &[1]), [8], "the last occurrence wins");
        assert_eq!(f.list("--lag", &[2, 3]), [2, 3]);
        assert_eq!(f.list_if_given("--threads"), None);
        assert_eq!(f.value("--tokens", 512usize), 64);
        assert_eq!(f.value("--beam", 0.01), 0.5);
        assert_eq!(f.value("--output", "out.json".to_string()), "out.json");
        assert!(f.switch("--quiet"));
        assert!(!f.switch("--quiet"));
        f.finish();
    }

    #[test]
    #[should_panic(expected = "--tokens expects a value")]
    fn a_flag_without_its_value_panics() {
        flags("--k 4 --tokens").value("--tokens", 1usize);
    }

    #[test]
    #[should_panic(expected = "--tokens expects an integer: ParseIntError")]
    fn an_unparseable_value_panics() {
        flags("--tokens many").value("--tokens", 1usize);
    }

    #[test]
    #[should_panic(expected = "--k expects a comma-separated integer list, got \"4,x\"")]
    fn an_unparseable_list_panics() {
        flags("--k 4,x").list("--k", &[1]);
    }

    #[test]
    #[should_panic(expected = "--k list must be non-empty")]
    fn an_empty_list_panics() {
        Flags::new(["--k".to_string(), String::new()], &[]).list("--k", &[1]);
    }

    #[test]
    #[should_panic(expected = "unknown argument \"--bogus\"")]
    fn an_unknown_flag_panics() {
        let mut f = flags("--bogus --k 4");
        f.list("--k", &[1]);
        f.finish();
    }

    #[test]
    #[should_panic(expected = "unknown argument \"out.json\"")]
    fn a_bare_word_is_not_an_output_path() {
        flags("out.json").finish();
    }

    #[test]
    fn builders_reproduce_the_committed_inputs() {
        // Bits the stream and serve benches drew before the builders moved
        // here: the committed artifacts were recorded on these inputs.
        assert_eq!(uniform_tokens(8, 64, 99), [4, 6, 4, 5, 28, 6, 34, 2]);
        let m = random_discrete_hmm(4, 64, 271);
        assert_eq!(m.initial()[2].to_bits(), 0x3fc7efa61c143720);
        assert_eq!(m.transition()[(0, 1)].to_bits(), 0x3f8ad7ff146169d6);
        assert_eq!(m.transition()[(3, 3)].to_bits(), 0x3fb45c541de5ad26);
        assert_eq!(m.emission().probs()[(3, 63)].to_bits(), 0x3f9f81af077e4ca5);
        let m = random_discrete_hmm(16, 64, 271);
        assert_eq!(m.transition()[(15, 7)].to_bits(), 0x3f742570c9d9f030);
        assert_eq!(m.emission().probs()[(9, 40)].to_bits(), 0x3f44fd6c3f87ce70);
    }
}
