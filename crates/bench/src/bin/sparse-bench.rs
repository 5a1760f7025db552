//! Machine-readable sparse-backend benchmark.
//!
//! Measures what the CSR + beam engine actually buys over dense scaled
//! inference on the matrices it was built for — concentrated transition
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
//! * **accuracy** — the effective post-prune density, the per-sequence
//!   accumulated pruned-mass estimate (`ll_error_bound`), and the realized
//!   log-likelihood gap against the dense run, so a speedup can never be
//!   quoted without its error.
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
//!     [--tokens 512] [--repeats 15] [--beam 0.01] [--tolerance 0.01]
//! ```
//! `--density` is the *target* percentage of heavy successors per row; the
//! artifact records the effective density the prune rule actually reached.
//! `--tolerance` is in nats *per token*: the accumulated pruned-mass bound
//! grows linearly in the sequence length, so a fixed total would silently
//! tighten as `--tokens` grows.

use dhmm_bench::{machine_header, time_alternating, Timing};
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::random_stochastic_matrix;
use dhmm_hmm::{
    log_likelihood_scaled, log_likelihood_sparse, viterbi_scaled_with_score,
    viterbi_sparse_with_score, Hmm, InferenceWorkspace, SparseParams,
};
use dhmm_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
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
    beam: f64,
    tolerance: f64,
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
        output: "BENCH_sparse.json".to_string(),
        sizes: vec![64, 128, 256],
        densities: vec![5, 10, 25],
        tokens: 512,
        repeats: 15,
        beam: 0.01,
        tolerance: 0.01,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} expects a value"))
        };
        match arg.as_str() {
            "--output" => args.output = value_of("--output"),
            "--k" => args.sizes = parse_list(&value_of("--k"), "--k"),
            "--density" => args.densities = parse_list(&value_of("--density"), "--density"),
            "--tokens" => {
                args.tokens = value_of("--tokens")
                    .parse()
                    .expect("--tokens expects an integer")
            }
            "--repeats" => {
                args.repeats = value_of("--repeats")
                    .parse()
                    .expect("--repeats expects an integer")
            }
            "--beam" => args.beam = value_of("--beam").parse().expect("--beam expects a float"),
            "--tolerance" => {
                args.tolerance = value_of("--tolerance")
                    .parse()
                    .expect("--tolerance expects a float")
            }
            other if !other.starts_with('-') => args.output = other.to_string(),
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(!args.sizes.is_empty(), "--k list must be non-empty");
    assert!(
        !args.densities.is_empty(),
        "--density list must be non-empty"
    );
    assert!(args.tokens > 0, "--tokens must be positive");
    assert!(args.repeats > 0, "--repeats must be positive");
    args
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

fn stream(tokens: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..tokens).map(|_| rng.gen_range(0..VOCAB)).collect()
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

struct Row {
    k: usize,
    target_density_pct: usize,
    effective_density: f64,
    nnz: usize,
    fallback_rows: usize,
    fwd_dense: Timing,
    fwd_sparse: Timing,
    vit_dense: Timing,
    vit_sparse: Timing,
    ll_error_bound: f64,
    ll_gap: f64,
    within_tolerance: bool,
    /// Dense Viterbi score minus the sparse path's joint log-likelihood
    /// under the unpruned model (≥ 0 up to rounding when both are right).
    vit_path_gap: f64,
    /// The sparse path is achievable and no better than the dense optimum.
    vit_path_ok: bool,
}

impl Row {
    fn fwd_speedup(&self) -> f64 {
        self.fwd_dense.median / self.fwd_sparse.median
    }
    fn vit_speedup(&self) -> f64 {
        self.vit_dense.median / self.vit_sparse.median
    }
}

fn bench_cell(k: usize, density_pct: usize, args: &Args) -> Row {
    let model = concentrated_model(k, density_pct, 7_000 + (k * 31 + density_pct) as u64);
    let seq = stream(args.tokens, 9_000 + k as u64);
    let params = SparseParams::threshold(THRESHOLD).with_beam(args.beam);
    let mut ws_d = InferenceWorkspace::new();
    let mut ws_s = InferenceWorkspace::new();

    let (fwd_dense, fwd_sparse) = time_pair_us(
        args.repeats,
        || log_likelihood_scaled(&model, &seq, &mut ws_d).expect("dense forward"),
        || log_likelihood_sparse(&model, &seq, &mut ws_s, params).expect("sparse forward"),
    );
    let ll_dense = log_likelihood_scaled(&model, &seq, &mut ws_d).expect("dense forward");
    let ll_sparse = log_likelihood_sparse(&model, &seq, &mut ws_s, params).expect("sparse forward");
    let report = *ws_s.sparse_report().expect("sparse run leaves a report");

    let (vit_dense, vit_sparse) = time_pair_us(
        args.repeats,
        || {
            viterbi_scaled_with_score(&model, &seq, &mut ws_d)
                .expect("dense viterbi")
                .1
        },
        || {
            viterbi_sparse_with_score(&model, &seq, &mut ws_s, params)
                .expect("sparse viterbi")
                .1
        },
    );
    // The sparse path must be a real path of the unpruned model, and it
    // cannot beat the dense optimum.
    let (_, dense_score) =
        viterbi_scaled_with_score(&model, &seq, &mut ws_d).expect("dense viterbi");
    let (sparse_path, _) =
        viterbi_sparse_with_score(&model, &seq, &mut ws_s, params).expect("sparse viterbi");
    let sparse_path_ll = model
        .joint_log_likelihood(&sparse_path, &seq)
        .expect("path and sequence lengths match");

    Row {
        k,
        target_density_pct: density_pct,
        effective_density: report.density,
        nnz: report.nnz,
        fallback_rows: report.fallback_rows,
        fwd_dense,
        fwd_sparse,
        vit_dense,
        vit_sparse,
        ll_error_bound: report.ll_error_bound,
        // Realized gap vs *dense on the original A*: static pruning error +
        // beam error together, the end-to-end number a user cares about.
        ll_gap: ll_dense - ll_sparse,
        within_tolerance: report.within(args.tolerance * args.tokens as f64),
        vit_path_gap: dense_score - sparse_path_ll,
        vit_path_ok: sparse_path_ll.is_finite() && sparse_path_ll <= dense_score + 1e-9,
    }
}

fn main() {
    let args = parse_args();

    let mut rows = Vec::new();
    for &k in &args.sizes {
        for &d in &args.densities {
            rows.push(bench_cell(k, d, &args));
        }
    }

    println!(
        "sparse: CSR + beam vs dense scaled, concentrated transitions \
         ({} tokens, threshold {THRESHOLD}, beam {})\n",
        args.tokens, args.beam
    );
    println!(
        "{:>4} {:>7} {:>8} {:>8} {:>11} {:>11} {:>8} {:>11} {:>11} {:>8} {:>10} {:>9}",
        "k",
        "dens%",
        "eff",
        "nnz",
        "fwd dense",
        "fwd sparse",
        "speedup",
        "vit dense",
        "vit sparse",
        "speedup",
        "bound",
        "ll gap"
    );
    for r in &rows {
        println!(
            "{:>4} {:>7} {:>8.3} {:>8} {:>9.0}us {:>9.0}us {:>7.2}x {:>9.0}us {:>9.0}us {:>7.2}x {:>10.2e} {:>9.2e}",
            r.k,
            r.target_density_pct,
            r.effective_density,
            r.nnz,
            r.fwd_dense.median,
            r.fwd_sparse.median,
            r.fwd_speedup(),
            r.vit_dense.median,
            r.vit_sparse.median,
            r.vit_speedup(),
            r.ll_error_bound,
            r.ll_gap
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sparse\",\n");
    json.push_str("  \"description\": \"Sparse (CSR + beam) vs dense scaled inference on concentrated transition matrices: forward and Viterbi wall-clock per sequence with the tracked pruning-error report\",\n");
    machine_header(&mut json);
    let _ = writeln!(json, "  \"vocab\": {VOCAB},");
    let _ = writeln!(json, "  \"tokens\": {},", args.tokens);
    let _ = writeln!(json, "  \"repeats\": {},", args.repeats);
    let _ = writeln!(json, "  \"threshold\": {THRESHOLD},");
    let _ = writeln!(json, "  \"beam\": {},", args.beam);
    let _ = writeln!(json, "  \"tolerance_nats_per_token\": {},", args.tolerance);
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"k\": {}, \"target_density_pct\": {}, \"effective_density\": {:.4}, \"nnz\": {}, \"fallback_rows\": {}, {}, {}, \"forward_speedup\": {:.2}, {}, {}, \"viterbi_speedup\": {:.2}, \"viterbi_sparse_path_gap\": {:.3e}, \"viterbi_sparse_path_ok\": {}, \"ll_error_bound\": {:.6}, \"ll_gap_vs_dense\": {:.6}, \"within_tolerance\": {}}}",
            r.k,
            r.target_density_pct,
            r.effective_density,
            r.nnz,
            r.fallback_rows,
            r.fwd_dense.json("forward_dense_", "us", 1),
            r.fwd_sparse.json("forward_sparse_", "us", 1),
            r.fwd_speedup(),
            r.vit_dense.json("viterbi_dense_", "us", 1),
            r.vit_sparse.json("viterbi_sparse_", "us", 1),
            r.vit_speedup(),
            r.vit_path_gap,
            r.vit_path_ok,
            r.ll_error_bound,
            r.ll_gap,
            r.within_tolerance
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.output, &json).expect("write benchmark JSON");
    println!("\nwrote {}", args.output);

    let failed: Vec<&Row> = rows.iter().filter(|r| !r.vit_path_ok).collect();
    for r in &failed {
        eprintln!(
            "viterbi cross-check failed at k={} density={}%: the sparse path scores {:.3e} nats above the dense optimum (or is impossible)",
            r.k, r.target_density_pct, -r.vit_path_gap
        );
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
