//! Machine-readable M-step benchmark.
//!
//! Two artifacts, so the repository's perf trajectory is recorded in
//! diffable files rather than scattered bench logs:
//!
//! * `BENCH_mstep.json` — the fused DPP prior engine (`DppObjective`)
//!   against the scalar oracle functions `dhmm_dpp::{log_det_kernel,
//!   grad_log_det_kernel}` for the value and the gradient, the simplex
//!   projection of an ascent candidate sorted from scratch against one
//!   warm-started from the previous candidate's order, plus the fused
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
//! (`--k` applies to both artifacts; without it the serial table keeps the
//! historical k = 4..64 ladder and the sweep uses k = {16, 64}.)
//!
//! Every timing is the median over five batches (`BATCHES`) of the mean
//! ns per call within a batch, with the fastest and slowest batch next to
//! it (`*_range_ns`). Both headers record the core count, whether the host
//! has AVX2, and the rustc version.

use dhmm_bench::{time_batches, Flags, Json, Timing};
use dhmm_core::transition_update::{DppTransitionUpdater, TransitionObjective};
use dhmm_core::{AscentConfig, Parallelism};
use dhmm_dpp::{grad_log_det_kernel, log_det_kernel, DppObjective, MStepWorkspace, ProductKernel};
use dhmm_hmm::baum_welch::TransitionUpdater;
use dhmm_hmm::init::random_stochastic_matrix;
use dhmm_linalg::{project_row_stochastic_with, project_to_simplex_into, Matrix, SimplexScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const SIZES: [usize; 5] = [4, 8, 16, 32, 64];
const ALPHA: f64 = 10.0;

/// Timed batches per row.
const BATCHES: usize = 5;
/// Wall clock each batch aims to cover.
const BATCH_SECONDS: f64 = 0.04;
/// Step sizes of the backtracking ladder the `project` row cycles through.
const LADDER_STEPS: usize = 4;

/// Nanoseconds per call of `f`: the median of `BATCHES` batches.
fn time_ns(f: impl FnMut()) -> Timing {
    time_batches(BATCHES, BATCH_SECONDS, f)
}

/// A serial-table row: the fused engine's time, and the scalar oracle's
/// with the speedup of the medians when the op has one (the `update` row
/// has no scalar counterpart).
fn serial_row(op: &str, k: usize, fused: Timing, reference: Option<Timing>) -> Json {
    let row = Json::row()
        .text("op", op)
        .field("k", k)
        .timing("fused_", "ns", fused, 0);
    match reference {
        Some(r) => {
            row.timing("reference_", "ns", r, 0)
                .fixed("speedup", r.median / fused.median, 2)
        }
        None => row,
    }
}

/// A sweep row: the engine under `Threads(threads)` against the serial one.
fn parallel_row(op: &str, k: usize, threads: usize, time: Timing, serial: Timing) -> Json {
    Json::row()
        .text("op", op)
        .field("k", k)
        .field("threads", threads)
        .timing("", "ns", time, 0)
        .timing("serial_", "ns", serial, 0)
        .fixed("speedup_vs_serial", serial.median / time.median, 2)
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
    /// The flags on the command line, with their defaults.
    fn from_env() -> Args {
        let mut flags = Flags::from_env(&["--skip-serial-table"]);
        let args = Args {
            output: flags.value("--output", "BENCH_mstep.json".to_string()),
            parallel_output: flags.value("--parallel-output", "BENCH_parallel.json".to_string()),
            threads: flags.list("--threads", &[1, 2, 4, 8]),
            sizes: flags.list_if_given("--k"),
            skip_serial_table: flags.switch("--skip-serial-table"),
        };
        flags.finish();
        args
    }

    fn serial_sizes(&self) -> Vec<usize> {
        self.sizes.clone().unwrap_or_else(|| SIZES.to_vec())
    }

    fn sweep_sizes(&self) -> Vec<usize> {
        self.sizes.clone().unwrap_or_else(|| vec![16, 64])
    }
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

/// Trial candidates `a + γ·∇/max|∇|` of one ascent iteration at `a`, with
/// `γ` walking down the backtracking ladder from the initial step, as the
/// ascent forms them.
fn ladder(objective: &TransitionObjective<'_>, a: &Matrix, ascent: &AscentConfig) -> Vec<Matrix> {
    let grad = objective.gradient(a).expect("gradient");
    let scale = grad.max_abs().max(1e-12);
    (0..LADDER_STEPS)
        .map(|t| {
            let step = ascent.initial_step * ascent.backtrack_factor.powi(t as i32) / scale;
            Matrix::from_fn(a.rows(), a.cols(), |i, j| a[(i, j)] + grad[(i, j)] * step)
        })
        .collect()
}

/// The `project` row: ns per simplex projection of a `k × k` ascent
/// candidate, cycling through the ladder so each candidate follows its
/// neighbour. `cold` sorts every row from scratch (`project_to_simplex_into`
/// row by row); `warm` is the ascent's own `project_row_stochastic_with`,
/// each row re-sorted from the previous candidate's order. Both time the
/// copy of the candidate into place too.
fn project_row(k: usize, candidates: &[Matrix]) -> Json {
    let mut work = Matrix::zeros(k, k);
    let mut next = 0;
    let mut row_scratch = Vec::new();
    let cold = time_ns(|| {
        next = (next + 1) % candidates.len();
        work.copy_from(&candidates[next]).expect("same shape");
        for row in work.as_mut_slice().chunks_exact_mut(k) {
            project_to_simplex_into(row, &mut row_scratch);
        }
        black_box(&work);
    });
    let mut simplex = SimplexScratch::new();
    let warm = time_ns(|| {
        next = (next + 1) % candidates.len();
        work.copy_from(&candidates[next]).expect("same shape");
        project_row_stochastic_with(&mut work, &mut simplex);
        black_box(&work);
    });
    Json::row()
        .text("op", "project")
        .field("k", k)
        .timing("cold_", "ns", cold, 0)
        .timing("warm_", "ns", warm, 0)
        .fixed("speedup", cold.median / warm.median, 2)
}

/// Serial table: the fused prior engine vs the scalar oracle functions, the
/// cold and warm simplex projection, and the fused whole M-step.
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
        rows.push(serial_row("value", k, value_fused, Some(value_reference)));

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
        rows.push(serial_row(
            "gradient",
            k,
            gradient_fused,
            Some(gradient_reference),
        ));

        let fused_updater =
            DppTransitionUpdater::new(ALPHA, kernel, ascent).with_parallelism(Parallelism::Serial);
        let uniform = Matrix::filled(k, k, 1.0 / k as f64);
        // The candidates of the `project` row are taken where a real ascent
        // runs: at the iterate the timed update returns.
        let fitted = fused_updater.update(&counts, &uniform).expect("update");
        let objective = TransitionObjective::unsupervised(&counts, ALPHA, kernel);
        rows.push(project_row(k, &ladder(&objective, &fitted, &ascent)));
        let update_fused = time_ns(|| {
            black_box(
                fused_updater
                    .update(black_box(&counts), black_box(&uniform))
                    .expect("update"),
            );
        });
        rows.push(serial_row("update", k, update_fused, None));
    }

    Json::artifact(
        "dpp_mstep",
        &format!(
            "Fused DPP prior engine vs the scalar oracle functions (log-det value, gradient), \
             the simplex projection of a k x k ascent candidate (at the iterate the update \
             returns, cycling through {LADDER_STEPS} backtracking steps) sorted from scratch \
             (cold) vs re-sorted from the previous candidate's order (warm), and the fused \
             whole M-step (update); ns per call, the median over {BATCHES} batches with the \
             fastest and slowest batch"
        ),
    )
    .field("alpha", ALPHA)
    .field("rho", kernel.rho())
    .field("ascent_max_iterations", ascent.max_iterations)
    .rows("results", rows)
    .write(output);
}

/// The worker-pool thread sweep: fused engine under `Threads(n)` against
/// the serial fused engine, for the gradient alone and the full update.
fn parallel_sweep(kernel: ProductKernel, ascent: AscentConfig, args: &Args) {
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
            rows.push(parallel_row(
                "gradient",
                k,
                threads,
                gradient_ns,
                gradient_serial,
            ));
            let updater = DppTransitionUpdater::new(ALPHA, kernel, ascent).with_parallelism(policy);
            let update_ns = time_ns(|| {
                black_box(
                    updater
                        .update(black_box(&counts), black_box(&uniform))
                        .expect("update"),
                );
            });
            rows.push(parallel_row("update", k, threads, update_ns, update_serial));
        }
    }

    Json::artifact(
        "dpp_mstep_parallel",
        &format!(
            "Fused DPP M-step engine under the shared worker-pool runtime; Threads(n) vs the \
             serial fused engine, ns per call, the median over {BATCHES} batches with the \
             fastest and slowest batch"
        ),
    )
    .field("alpha", ALPHA)
    .field("rho", kernel.rho())
    .field("ascent_max_iterations", ascent.max_iterations)
    .field("threads", format_args!("{:?}", args.threads))
    .rows("results", rows)
    .write(&args.parallel_output);
}

fn main() {
    let args = Args::from_env();
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
