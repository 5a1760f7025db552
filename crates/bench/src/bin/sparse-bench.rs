//! Machine-readable sparse-backend benchmark.
//!
//! Measures what the CSR engine actually buys over dense scaled inference
//! on the matrices it was built for — concentrated transition
//! rows (most successor mass on a few states, exactly what the diversified
//! M-step produces) — and records one diffable artifact,
//! `BENCH_sparse.json`:
//!
//! * **forward** — `log_likelihood` (the scaled forward filter) per
//!   sequence, dense vs sparse, with the speedup;
//! * **viterbi** — full decode per sequence, dense vs sparse, with the
//!   speedup and a cross-check that the sparse path is achievable: its
//!   joint log-likelihood under the *unpruned* model must be finite and no
//!   better than the dense Viterbi score (+1e-9). A row that fails the
//!   check makes the binary exit non-zero after writing the artifact;
//! * **accuracy** — the effective post-prune density and the
//!   log-likelihood gap against the dense run on the unpruned matrix
//!   (`ll_gap_vs_dense`): the sparse engine is exact under the pruned
//!   matrix, so the gap is the static pruning's alone, and a speedup is
//!   never quoted without it.
//!
//! Every timing is the median of `--repeats` runs with its min and max
//! next to it (`*_range_us`). The dense and sparse calls of a row
//! alternate, one of each per round, so a host that slows down during the
//! run moves both sides of a speedup alike. The header records the core
//! count, whether the host has AVX2, and the rustc version.
//!
//! Run with:
//! ```text
//! cargo run --release -p dhmm_bench --bin sparse-bench -- \
//!     [--output BENCH_sparse.json] [--k 64,128,256] [--density 5,10,25] \
//!     [--tokens 512] [--repeats 15]
//! ```
//! `--density` is the *target* percentage of heavy successors per row; the
//! artifact records the effective density the prune rule actually reached.

use dhmm_bench::{time_alternating, uniform_tokens, Flags, Json, Timing};
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::random_stochastic_matrix;
use dhmm_hmm::{
    log_likelihood_scaled, viterbi_scaled_with_score, Hmm, InferenceBackend, InferenceWorkspace,
    SparseParams,
};
use dhmm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Vocabulary of the synthetic token stream.
const VOCAB: usize = 64;
/// Mass shared by the heavy successors of each concentrated row; the light
/// remainder is what threshold pruning removes.
const HEAVY_MASS: f64 = 0.999;
/// Threshold separating heavy from light entries for every k in the sweep.
const THRESHOLD: f64 = 1e-3;

struct Args {
    output: String,
    sizes: Vec<usize>,
    densities: Vec<usize>,
    tokens: usize,
    repeats: usize,
}

impl Args {
    /// The flags on the command line, with their defaults.
    fn from_env() -> Args {
        let mut flags = Flags::from_env();
        let args = Args {
            output: flags.value("--output", "BENCH_sparse.json".to_string()),
            sizes: flags.list("--k", &[64, 128, 256]),
            densities: flags.list("--density", &[5, 10, 25]),
            tokens: flags.value("--tokens", 512),
            repeats: flags.value("--repeats", 15),
        };
        flags.finish();
        assert!(args.tokens > 0, "--tokens must be positive");
        assert!(args.repeats > 0, "--repeats must be positive");
        args
    }
}

/// Builds a model whose transition rows concentrate `HEAVY_MASS` on
/// ~`density_pct`% of successors (the rest share the light remainder), the
/// regime the diversified M-step drives transition rows toward.
fn concentrated_model(k: usize, density_pct: usize, seed: u64) -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let heavy_per_row = (k * density_pct).div_ceil(100).clamp(1, k);
    let mut a = Matrix::zeros(k, k);
    let light = (1.0 - HEAVY_MASS) / (k - heavy_per_row).max(1) as f64;
    for i in 0..k {
        // Heavy successors: a contiguous band plus random spread, so rows
        // differ but every row has exactly `heavy_per_row` survivors.
        let mut cols: Vec<usize> = (0..k).collect();
        for j in (1..k).rev() {
            cols.swap(j, rng.gen_range(0..=j));
        }
        let heavy = &mut cols[..heavy_per_row];
        heavy.sort_unstable();
        let mut weights: Vec<f64> = (0..heavy_per_row)
            .map(|_| rng.gen_range(0.2..1.0))
            .collect();
        let wsum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w *= HEAVY_MASS / wsum;
        }
        for j in 0..k {
            a[(i, j)] = light;
        }
        for (c, w) in heavy.iter().zip(&weights) {
            a[(i, *c)] = *w + light;
        }
        let row_sum: f64 = a.row(i).iter().sum();
        for j in 0..k {
            a[(i, j)] /= row_sum;
        }
    }
    let pi = vec![1.0 / k as f64; k];
    let b = random_stochastic_matrix(k, VOCAB, 1.0, &mut rng).expect("valid matrix");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

/// Microseconds per run of `dense` and of `sparse` over `repeats`
/// alternating rounds of one run each.
fn time_pair_us(
    repeats: usize,
    mut dense: impl FnMut() -> f64,
    mut sparse: impl FnMut() -> f64,
) -> (Timing, Timing) {
    let (d, s) = time_alternating(
        repeats,
        || {
            black_box(dense());
        },
        || {
            black_box(sparse());
        },
    );
    (d.scaled(1e-3), s.scaled(1e-3))
}

/// One k × density cell: its artifact row, and the message of a failed
/// Viterbi cross-check.
fn bench_cell(k: usize, density_pct: usize, args: &Args) -> (Json, Option<String>) {
    let model = concentrated_model(k, density_pct, 7_000 + (k * 31 + density_pct) as u64);
    let seq = uniform_tokens(args.tokens, VOCAB, 9_000 + k as u64);
    let sparse = InferenceBackend::Sparse(SparseParams::threshold(THRESHOLD));
    let mut ws_d = InferenceWorkspace::new();
    let mut ws_s = InferenceWorkspace::new();

    let (fwd_dense, fwd_sparse) = time_pair_us(
        args.repeats,
        || log_likelihood_scaled(&model, &seq, &mut ws_d).expect("dense forward"),
        || {
            sparse
                .log_likelihood(&model, &seq, &mut ws_s)
                .expect("sparse forward")
        },
    );
    let ll_dense = log_likelihood_scaled(&model, &seq, &mut ws_d).expect("dense forward");
    let ll_sparse = sparse
        .log_likelihood(&model, &seq, &mut ws_s)
        .expect("sparse forward");
    let report = *ws_s.sparse_report().expect("sparse run leaves a report");

    let (vit_dense, vit_sparse) = time_pair_us(
        args.repeats,
        || {
            viterbi_scaled_with_score(&model, &seq, &mut ws_d)
                .expect("dense viterbi")
                .1
        },
        || {
            sparse
                .viterbi_with_score(&model, &seq, &mut ws_s)
                .expect("sparse viterbi")
                .1
        },
    );
    // The sparse path must be a real path of the unpruned model, and it
    // cannot beat the dense optimum.
    let (_, dense_score) =
        viterbi_scaled_with_score(&model, &seq, &mut ws_d).expect("dense viterbi");
    let (sparse_path, _) = sparse
        .viterbi_with_score(&model, &seq, &mut ws_s)
        .expect("sparse viterbi");
    let sparse_path_ll = model
        .joint_log_likelihood(&sparse_path, &seq)
        .expect("path and sequence lengths match");

    // Dense Viterbi score minus the sparse path's joint log-likelihood
    // under the unpruned model: ≥ 0 up to rounding when both are right.
    let vit_path_gap = dense_score - sparse_path_ll;
    let vit_path_ok = sparse_path_ll.is_finite() && sparse_path_ll <= dense_score + 1e-9;
    let failure = (!vit_path_ok).then(|| {
        format!(
            "viterbi cross-check failed at k={k} density={density_pct}%: the sparse path \
             scores {:.3e} nats above the dense optimum (or is impossible)",
            -vit_path_gap
        )
    });
    let row = Json::row()
        .field("k", k)
        .field("target_density_pct", density_pct)
        .fixed("effective_density", report.density, 4)
        .field("nnz", report.nnz)
        .field("fallback_rows", report.fallback_rows)
        .timing("forward_dense_", "us", fwd_dense, 1)
        .timing("forward_sparse_", "us", fwd_sparse, 1)
        .fixed("forward_speedup", fwd_dense.median / fwd_sparse.median, 2)
        .timing("viterbi_dense_", "us", vit_dense, 1)
        .timing("viterbi_sparse_", "us", vit_sparse, 1)
        .fixed("viterbi_speedup", vit_dense.median / vit_sparse.median, 2)
        .field("viterbi_sparse_path_gap", format_args!("{vit_path_gap:.3e}"))
        .field("viterbi_sparse_path_ok", vit_path_ok)
        // Gap vs *dense on the original A*: the static pruning's error, the
        // end-to-end number a user cares about.
        .fixed("ll_gap_vs_dense", ll_dense - ll_sparse, 6);
    (row, failure)
}

fn main() {
    let args = Args::from_env();

    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for &k in &args.sizes {
        for &d in &args.densities {
            let (row, failure) = bench_cell(k, d, &args);
            rows.push(row);
            failures.extend(failure);
        }
    }

    Json::artifact(
        "sparse",
        "Sparse (CSR, exact under the pruned matrix) vs dense scaled inference on \
         concentrated transition matrices: forward and Viterbi wall-clock per sequence with \
         the log-likelihood gap static pruning leaves against dense",
    )
    .field("vocab", VOCAB)
    .field("tokens", args.tokens)
    .field("repeats", args.repeats)
    .field("threshold", THRESHOLD)
    .rows("rows", rows)
    .write(&args.output);

    for failure in &failures {
        eprintln!("{failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
