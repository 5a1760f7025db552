//! Machine-readable M-step benchmark.
//!
//! Two artifacts, so the repository's perf trajectory is recorded in
//! diffable files rather than scattered bench logs:
//!
//! * `BENCH_mstep.json` — the fused DPP prior engine (`DppObjective`)
//!   against the scalar oracle functions `dhmm_dpp::{log_det_kernel,
//!   grad_log_det_kernel}` for the value and the gradient, plus the fused
//!   `DppTransitionUpdater::update` (a whole M-step) on its own;
//! * `BENCH_parallel.json` — the worker-pool thread sweep: the same fused
//!   `DppTransitionUpdater::update` (and the gradient alone) at each
//!   requested thread count, with the serial fused engine as the baseline,
//!   plus the machine's core count so speedups can be read in context.
//!
//! Run with:
//! ```text
//! cargo run --release -p dhmm_bench --bin mstep-bench -- \
//!     [--output BENCH_mstep.json] [--parallel-output BENCH_parallel.json] \
//!     [--threads 1,2,4,8] [--k 16,64] [--skip-serial-table]
//! ```
//! (A bare positional argument is accepted as the legacy `--output` form.
//! `--k` applies to both artifacts; without it the serial table keeps the
//! historical k = 4..64 ladder and the sweep uses k = {16, 64}.)
//!
//! Every timing is the median over five batches (`BATCHES`) of the mean
//! ns per call within a batch, with the fastest and slowest batch next to
//! it (`*_range_ns`). Both headers record the core count, whether the host
//! has AVX2, and the rustc version.

use dhmm_bench::{machine_header, time_batches, Timing};
use dhmm_core::transition_update::{DppTransitionUpdater, TransitionObjective};
use dhmm_core::{AscentConfig, Parallelism};
use dhmm_dpp::{grad_log_det_kernel, log_det_kernel, DppObjective, MStepWorkspace, ProductKernel};
use dhmm_hmm::baum_welch::TransitionUpdater;
use dhmm_hmm::init::random_stochastic_matrix;
use dhmm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;

const SIZES: [usize; 5] = [4, 8, 16, 32, 64];
const ALPHA: f64 = 10.0;

/// Timed batches per row.
const BATCHES: usize = 5;
/// Wall clock each batch aims to cover.
const BATCH_SECONDS: f64 = 0.04;

/// Nanoseconds per call of `f`: the median of `BATCHES` batches.
fn time_ns(f: impl FnMut()) -> Timing {
    time_batches(BATCHES, BATCH_SECONDS, f)
}

struct Row {
    op: &'static str,
    k: usize,
    fused: Timing,
    /// The scalar oracle's time; `None` for the `update` row, which has no
    /// scalar counterpart.
    reference: Option<Timing>,
}

impl Row {
    /// `(reference, speedup)` of the medians when the row has a scalar
    /// counterpart.
    fn reference(&self) -> Option<(Timing, f64)> {
        self.reference.map(|r| (r, r.median / self.fused.median))
    }
}

struct ParallelRow {
    op: &'static str,
    k: usize,
    threads: usize,
    time: Timing,
    serial: Timing,
}

impl ParallelRow {
    fn speedup(&self) -> f64 {
        self.serial.median / self.time.median
    }
}

struct Args {
    output: String,
    parallel_output: String,
    threads: Vec<usize>,
    /// `--k`: explicit size list, applied to BOTH the serial table and the
    /// parallel sweep. Defaults differ per artifact (the serial table keeps
    /// the historical 4..64 ladder, the sweep uses {16, 64}), hence the
    /// Option.
    sizes: Option<Vec<usize>>,
    skip_serial_table: bool,
}

impl Args {
    fn serial_sizes(&self) -> Vec<usize> {
        self.sizes.clone().unwrap_or_else(|| SIZES.to_vec())
    }

    fn sweep_sizes(&self) -> Vec<usize> {
        self.sizes.clone().unwrap_or_else(|| vec![16, 64])
    }
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
        output: "BENCH_mstep.json".to_string(),
        parallel_output: "BENCH_parallel.json".to_string(),
        threads: vec![1, 2, 4, 8],
        sizes: None,
        skip_serial_table: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--output" => args.output = value_of("--output"),
            "--parallel-output" => args.parallel_output = value_of("--parallel-output"),
            "--threads" => args.threads = parse_list(&value_of("--threads"), "--threads"),
            "--k" => args.sizes = Some(parse_list(&value_of("--k"), "--k")),
            "--skip-serial-table" => args.skip_serial_table = true,
            other if !other.starts_with('-') => args.output = other.to_string(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(!args.threads.is_empty(), "--threads list must be non-empty");
    if let Some(sizes) = &args.sizes {
        assert!(!sizes.is_empty(), "--k list must be non-empty");
    }
    args
}

fn problem(k: usize) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(97);
    let a = random_stochastic_matrix(k, k, 1.0, &mut rng).expect("valid matrix");
    let counts = Matrix::from_fn(k, k, |_, _| rng.gen_range(5.0..50.0));
    (a, counts)
}

/// A second iterate of the same shape. The value/gradient timing loops
/// alternate between the two iterates so the engine's accept→gradient
/// factorization cache (keyed by exact iterate) cannot turn every measured
/// call after the first into a cache hit — the real ascent evaluates a new
/// candidate per call, and that miss path is what these rows must measure.
fn problem_alt(k: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(193);
    random_stochastic_matrix(k, k, 1.0, &mut rng).expect("valid matrix")
}

/// Serial table: the fused prior engine vs the scalar oracle functions, and
/// the fused whole M-step.
fn serial_table(kernel: ProductKernel, ascent: AscentConfig, sizes: &[usize], output: &str) {
    let engine = DppObjective::new(kernel);
    let mut rows = Vec::new();
    for &k in sizes {
        let (a, counts) = problem(k);
        let a_alt = problem_alt(k);
        let mut ws = MStepWorkspace::new();
        let mut grad = Matrix::zeros(k, k);

        let mut flip = false;
        let value_fused = time_ns(|| {
            flip = !flip;
            let m = if flip { &a } else { &a_alt };
            black_box(engine.log_det_with(black_box(m), &mut ws).expect("value"));
        });
        let mut flip = false;
        let value_reference = time_ns(|| {
            flip = !flip;
            let m = if flip { &a } else { &a_alt };
            black_box(log_det_kernel(black_box(m), &kernel).expect("value"));
        });
        rows.push(Row {
            op: "value",
            k,
            fused: value_fused,
            reference: Some(value_reference),
        });

        let mut flip = false;
        let gradient_fused = time_ns(|| {
            flip = !flip;
            let m = if flip { &a } else { &a_alt };
            engine
                .grad_with(black_box(m), &mut ws, &mut grad)
                .expect("gradient");
            black_box(&grad);
        });
        let mut flip = false;
        let gradient_reference = time_ns(|| {
            flip = !flip;
            let m = if flip { &a } else { &a_alt };
            black_box(grad_log_det_kernel(black_box(m), &kernel).expect("gradient"));
        });
        rows.push(Row {
            op: "gradient",
            k,
            fused: gradient_fused,
            reference: Some(gradient_reference),
        });

        let fused_updater =
            DppTransitionUpdater::new(ALPHA, kernel, ascent).with_parallelism(Parallelism::Serial);
        let uniform = Matrix::filled(k, k, 1.0 / k as f64);
        let update_fused = time_ns(|| {
            black_box(
                fused_updater
                    .update(black_box(&counts), black_box(&uniform))
                    .expect("update"),
            );
        });
        rows.push(Row {
            op: "update",
            k,
            fused: update_fused,
            reference: None,
        });
    }

    println!(
        "dpp_mstep: fused engine vs scalar oracle (alpha = {ALPHA}, rho = {})\n",
        kernel.rho()
    );
    println!(
        "{:<10} {:>4} {:>14} {:>14} {:>9}",
        "op", "k", "fused", "reference", "speedup"
    );
    for r in &rows {
        let (reference, speedup) = match r.reference() {
            Some((t, x)) => (format!("{:.1}us", t.median / 1e3), format!("{x:.1}x")),
            None => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:<10} {:>4} {:>12.1}us {:>14} {:>9}",
            r.op,
            r.k,
            r.fused.median / 1e3,
            reference,
            speedup
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"dpp_mstep\",\n");
    let _ = writeln!(
        json,
        "  \"description\": \"Fused DPP prior engine vs the scalar oracle functions (log-det value, gradient), and the fused whole M-step (update); ns per call, the median over {BATCHES} batches with the fastest and slowest batch\","
    );
    machine_header(&mut json);
    let _ = writeln!(json, "  \"alpha\": {ALPHA},");
    let _ = writeln!(json, "  \"rho\": {},", kernel.rho());
    let _ = writeln!(
        json,
        "  \"ascent_max_iterations\": {},",
        ascent.max_iterations
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"op\": \"{}\", \"k\": {}, {}",
            r.op,
            r.k,
            r.fused.json("fused_", "ns", 0)
        );
        if let Some((t, x)) = r.reference() {
            let _ = write!(
                json,
                ", {}, \"speedup\": {x:.2}",
                t.json("reference_", "ns", 0)
            );
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(output, &json).expect("write benchmark JSON");
    println!("\nwrote {output}");
}

/// The worker-pool thread sweep: fused engine under `Threads(n)` against
/// the serial fused engine, for the gradient alone and the full update.
fn parallel_sweep(kernel: ProductKernel, ascent: AscentConfig, args: &Args) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for &k in &args.sweep_sizes() {
        let (a, counts) = problem(k);
        let uniform = Matrix::filled(k, k, 1.0 / k as f64);

        let serial_obj = TransitionObjective::unsupervised(&counts, ALPHA, kernel)
            .with_parallelism(Parallelism::Serial);
        let mut ws = MStepWorkspace::new();
        let mut grad = Matrix::zeros(k, k);
        let gradient_serial = time_ns(|| {
            serial_obj
                .gradient_with(black_box(&a), &mut ws, &mut grad)
                .expect("gradient");
            black_box(&grad);
        });
        let serial_updater =
            DppTransitionUpdater::new(ALPHA, kernel, ascent).with_parallelism(Parallelism::Serial);
        let update_serial = time_ns(|| {
            black_box(
                serial_updater
                    .update(black_box(&counts), black_box(&uniform))
                    .expect("update"),
            );
        });

        for &threads in &args.threads {
            let policy = Parallelism::Threads(threads);
            let obj =
                TransitionObjective::unsupervised(&counts, ALPHA, kernel).with_parallelism(policy);
            let mut ws_t = MStepWorkspace::new();
            let gradient_ns = time_ns(|| {
                obj.gradient_with(black_box(&a), &mut ws_t, &mut grad)
                    .expect("gradient");
                black_box(&grad);
            });
            rows.push(ParallelRow {
                op: "gradient",
                k,
                threads,
                time: gradient_ns,
                serial: gradient_serial,
            });
            let updater = DppTransitionUpdater::new(ALPHA, kernel, ascent).with_parallelism(policy);
            let update_ns = time_ns(|| {
                black_box(
                    updater
                        .update(black_box(&counts), black_box(&uniform))
                        .expect("update"),
                );
            });
            rows.push(ParallelRow {
                op: "update",
                k,
                threads,
                time: update_ns,
                serial: update_serial,
            });
        }
    }

    println!("\ndpp_mstep_parallel: fused engine thread sweep ({cores} cores available)\n");
    println!(
        "{:<10} {:>4} {:>8} {:>14} {:>14} {:>9}",
        "op", "k", "threads", "parallel", "serial", "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:>4} {:>8} {:>12.1}us {:>12.1}us {:>8.2}x",
            r.op,
            r.k,
            r.threads,
            r.time.median / 1e3,
            r.serial.median / 1e3,
            r.speedup()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"dpp_mstep_parallel\",\n");
    let _ = writeln!(
        json,
        "  \"description\": \"Fused DPP M-step engine under the shared worker-pool runtime; Threads(n) vs the serial fused engine, ns per call, the median over {BATCHES} batches with the fastest and slowest batch\","
    );
    machine_header(&mut json);
    let _ = writeln!(json, "  \"alpha\": {ALPHA},");
    let _ = writeln!(json, "  \"rho\": {},", kernel.rho());
    let _ = writeln!(
        json,
        "  \"ascent_max_iterations\": {},",
        ascent.max_iterations
    );
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        args.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"op\": \"{}\", \"k\": {}, \"threads\": {}, {}, {}, \"speedup_vs_serial\": {:.2}}}",
            r.op,
            r.k,
            r.threads,
            r.time.json("", "ns", 0),
            r.serial.json("serial_", "ns", 0),
            r.speedup()
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.parallel_output, &json).expect("write parallel benchmark JSON");
    println!("\nwrote {}", args.parallel_output);
}

fn main() {
    let args = parse_args();
    let kernel = ProductKernel::bhattacharyya();
    let ascent = AscentConfig {
        max_iterations: 15,
        ..AscentConfig::default()
    };
    if !args.skip_serial_table {
        serial_table(kernel, ascent, &args.serial_sizes(), &args.output);
    }
    parallel_sweep(kernel, ascent, &args);
}
