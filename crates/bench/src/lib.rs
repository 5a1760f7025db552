//! # dhmm-bench
//!
//! Criterion benchmarks for the dHMM reproduction, plus the JSON bench
//! binaries under `src/bin/` that record the repository's machine-readable
//! perf trajectory (`mstep-bench` writes `BENCH_mstep.json` and
//! `BENCH_parallel.json`, `sparse-bench` writes `BENCH_sparse.json`, and so
//! on). The library holds only what those binaries share: the [`Timing`]
//! of one row, the median-of-batches timer [`time_batches`], the
//! alternating two-sided timer [`time_alternating`] and the
//! [`machine_header`] of an artifact. The criterion benches live in the
//! `benches/` directory:
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

use std::fmt::Write as _;
use std::time::Instant;

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

    /// `"<prefix><unit>": median, "<prefix>range_<unit>": [min, max]`, each
    /// number printed with `decimals` digits after the point.
    pub fn json(&self, prefix: &str, unit: &str, decimals: usize) -> String {
        format!(
            "\"{prefix}{unit}\": {:.*}, \"{prefix}range_{unit}\": [{:.*}, {:.*}]",
            decimals, self.median, decimals, self.min, decimals, self.max
        )
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

/// Appends the `"cores"`, `"avx2"` and `"rustc"` lines of a JSON artifact
/// header to `json`, each indented by two spaces and ending in a comma.
pub fn machine_header(json: &mut String) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
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
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"avx2\": {avx2},");
    let _ = writeln!(json, "  \"rustc\": \"{rustc}\",");
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
            t.json("fused_", "ns", 0),
            "\"fused_ns\": 2, \"fused_range_ns\": [2, 3]"
        );
        assert_eq!(
            t.scaled(2.0).json("forward_dense_", "us", 1),
            "\"forward_dense_us\": 4.5, \"forward_dense_range_us\": [3.0, 6.0]"
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
        let mut json = String::new();
        machine_header(&mut json);
        assert!(json.contains("\"cores\": "), "{json}");
        assert!(json.contains("\"avx2\": "), "{json}");
        assert!(json.contains("\"rustc\": \""), "{json}");
    }
}
