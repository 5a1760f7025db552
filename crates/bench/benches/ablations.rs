//! Ablation benches for three design choices of the reproduction: the
//! kernel exponent ρ, the step-size strategy of Algorithm 1 (the paper says
//! only "adaptive step"), and the prior family (sparse ↔ none ↔ diverse).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhmm_baselines::SparseTransitionUpdater;
use dhmm_core::transition_update::maximize_transition_objective;
use dhmm_core::{AscentConfig, DppTransitionUpdater, TransitionObjective};
use dhmm_dpp::ProductKernel;
use dhmm_hmm::baum_welch::{MleTransitionUpdater, TransitionUpdater};
use dhmm_hmm::init::random_stochastic_matrix;
use dhmm_linalg::Matrix;
use dhmm_prob::mean_pairwise_bhattacharyya;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Expected transition counts with nearly identical rows — the collapsed
/// regime where the choice of prior matters most.
fn collapsed_counts(k: usize) -> Matrix {
    Matrix::from_fn(k, k, |i, j| if i == j { 40.0 } else { 38.0 })
}

fn start_matrix(k: usize) -> Matrix {
    let mut rng = StdRng::seed_from_u64(0);
    random_stochastic_matrix(k, k, 3.0, &mut rng).expect("valid matrix")
}

fn bench_ablation_rho(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rho");
    let counts = collapsed_counts(5);
    let start = start_matrix(5);
    println!("\n[ablation_rho] final diversity of the diversified M-step for different kernel exponents:");
    for &rho in &[0.25, 0.5, 1.0] {
        let kernel = ProductKernel::new(rho).expect("valid rho");
        let objective = TransitionObjective::unsupervised(&counts, 20.0, kernel);
        let result = maximize_transition_objective(&objective, &start, &AscentConfig::default())
            .expect("ascent");
        println!(
            "  rho = {rho:<5} diversity = {:.4}",
            mean_pairwise_bhattacharyya(&result)
        );
        group.bench_with_input(BenchmarkId::from_parameter(rho), &rho, |b, _| {
            b.iter(|| {
                maximize_transition_objective(
                    black_box(&objective),
                    black_box(&start),
                    &AscentConfig::default(),
                )
                .expect("ascent")
            })
        });
    }
    group.finish();
}

fn bench_ablation_step_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_step_size");
    let counts = collapsed_counts(5);
    let start = start_matrix(5);
    let kernel = ProductKernel::bhattacharyya();
    let objective = TransitionObjective::unsupervised(&counts, 20.0, kernel);
    let configs = [
        (
            "backtracking",
            AscentConfig {
                max_backtracks: 20,
                ..AscentConfig::default()
            },
        ),
        (
            "fixed_small_step",
            AscentConfig {
                initial_step: 0.01,
                max_backtracks: 0,
                ..AscentConfig::default()
            },
        ),
    ];
    println!("\n[ablation_step_size] objective reached by the two step-size strategies:");
    for (name, config) in &configs {
        let result = maximize_transition_objective(&objective, &start, config).expect("ascent");
        println!(
            "  {name:<17} objective = {:.4}",
            objective.value(&result).expect("objective")
        );
        group.bench_with_input(BenchmarkId::from_parameter(name), config, |b, config| {
            b.iter(|| {
                maximize_transition_objective(black_box(&objective), black_box(&start), config)
                    .expect("ascent")
            })
        });
    }
    group.finish();
}

fn bench_ablation_prior_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_prior_family");
    let counts = collapsed_counts(5);
    let start = start_matrix(5);
    let kernel = ProductKernel::bhattacharyya();
    println!("\n[ablation_prior_family] transition diversity under the three prior families:");
    let diverse = DppTransitionUpdater::new(20.0, kernel, AscentConfig::default());
    let none = MleTransitionUpdater::default();
    let sparse = SparseTransitionUpdater::new(5.0);
    let d = diverse.update(&counts, &start).expect("update");
    let n = none.update(&counts, &start).expect("update");
    let s = sparse.update(&counts, &start).expect("update");
    println!(
        "  diverse (DPP)  diversity = {:.4}",
        mean_pairwise_bhattacharyya(&d)
    );
    println!(
        "  none (MLE)     diversity = {:.4}",
        mean_pairwise_bhattacharyya(&n)
    );
    println!(
        "  sparse         diversity = {:.4}",
        mean_pairwise_bhattacharyya(&s)
    );

    group.bench_function("diverse_dpp", |b| {
        b.iter(|| {
            diverse
                .update(black_box(&counts), black_box(&start))
                .expect("update")
        })
    });
    group.bench_function("mle", |b| {
        b.iter(|| {
            none.update(black_box(&counts), black_box(&start))
                .expect("update")
        })
    });
    group.bench_function("sparse", |b| {
        b.iter(|| {
            sparse
                .update(black_box(&counts), black_box(&start))
                .expect("update")
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablation_rho, bench_ablation_step_size, bench_ablation_prior_family
}
criterion_main!(benches);
