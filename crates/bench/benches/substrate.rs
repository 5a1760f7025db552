//! Microbenchmarks of the substrates the dHMM is built on: forward–backward,
//! Viterbi, the DPP log-determinant and its gradient, the simplex
//! projection and the Hungarian alignment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dhmm_core::transition_update::DppTransitionUpdater;
use dhmm_core::AscentConfig;
use dhmm_dpp::{grad_log_det_kernel, log_det_kernel, DppObjective, MStepWorkspace, ProductKernel};
use dhmm_eval::hungarian_max;
use dhmm_hmm::baum_welch::TransitionUpdater;
use dhmm_hmm::emission::{DiscreteEmission, GaussianEmission};
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::model::Hmm;
use dhmm_hmm::reference::{forward_backward, viterbi};
use dhmm_hmm::{forward_backward_scaled, viterbi_scaled, InferenceWorkspace};
use dhmm_linalg::{project_to_simplex, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_hmm(k: usize, v: usize, seed: u64) -> Hmm<DiscreteEmission> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (pi, a) = random_parameters(k, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
        .expect("valid parameters");
    let b = random_stochastic_matrix(k, v, 1.0, &mut rng).expect("valid emission");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid")).expect("valid model")
}

fn random_stochastic(k: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    random_stochastic_matrix(k, k, 1.0, &mut rng).expect("valid matrix")
}

fn bench_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_backward");
    for &(k, t) in &[(5usize, 50usize), (15, 100), (26, 200)] {
        let model = random_hmm(k, 40, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let seq: Vec<usize> = (0..t).map(|_| rng.gen_range(0..40)).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_T{t}")),
            &seq,
            |b, seq| b.iter(|| forward_backward(black_box(&model), black_box(seq)).expect("fb")),
        );
    }
    group.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let mut group = c.benchmark_group("viterbi");
    for &(k, t) in &[(15usize, 100usize), (26, 200)] {
        let model = random_hmm(k, 40, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let seq: Vec<usize> = (0..t).map(|_| rng.gen_range(0..40)).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_T{t}")),
            &seq,
            |b, seq| b.iter(|| viterbi(black_box(&model), black_box(seq)).expect("viterbi")),
        );
    }
    group.finish();
}

/// Head-to-head: the scaled-space workspace engine vs the log-domain
/// reference, across state counts and sequence lengths, on the discrete
/// substrate both engines share with the PoS workload, up to the
/// `train-wide` benchmark model (k = 64).
fn bench_scaled_vs_log_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaled_vs_log/forward_backward");
    for &(k, t) in &[
        (4usize, 128usize),
        (16, 128),
        (16, 512),
        (32, 512),
        (64, 512),
    ] {
        let model = random_hmm(k, 40, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let seq: Vec<usize> = (0..t).map(|_| rng.gen_range(0..40)).collect();
        let mut ws = InferenceWorkspace::new();
        // Size the workspace outside the timed region so the measurement is
        // pure steady-state (the one-time resize is the cost being deleted).
        forward_backward_scaled(&model, &seq, &mut ws).expect("warm-up");
        group.bench_with_input(
            BenchmarkId::new("scaled", format!("k{k}_T{t}")),
            &seq,
            |b, seq| {
                b.iter(|| {
                    forward_backward_scaled(black_box(&model), black_box(seq), &mut ws)
                        .expect("scaled fb")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("log", format!("k{k}_T{t}")),
            &seq,
            |b, seq| b.iter(|| forward_backward(black_box(&model), black_box(seq)).expect("fb")),
        );
    }
    group.finish();
}

/// The same head-to-head on the toy workload's Gaussian emissions at the
/// acceptance point (N = 16 states, T = 512).
fn bench_scaled_vs_log_toy_gaussian(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaled_vs_log/toy_gaussian");
    for &(k, t) in &[(5usize, 128usize), (16, 512)] {
        let mut rng = StdRng::seed_from_u64(13);
        let (pi, a) =
            random_parameters(k, InitStrategy::Dirichlet { concentration: 2.0 }, &mut rng)
                .expect("valid parameters");
        let means: Vec<f64> = (0..k).map(|i| 1.0 + i as f64).collect();
        let stds = vec![0.5; k];
        let model = Hmm::new(pi, a, GaussianEmission::new(means, stds).expect("valid"))
            .expect("valid model");
        let seq: Vec<f64> = (0..t)
            .map(|_| rng.gen_range(0.0..(k as f64 + 1.0)))
            .collect();
        let mut ws = InferenceWorkspace::new();
        forward_backward_scaled(&model, &seq, &mut ws).expect("warm-up");
        group.bench_with_input(
            BenchmarkId::new("scaled", format!("k{k}_T{t}")),
            &seq,
            |b, seq| {
                b.iter(|| {
                    forward_backward_scaled(black_box(&model), black_box(seq), &mut ws)
                        .expect("scaled fb")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("log", format!("k{k}_T{t}")),
            &seq,
            |b, seq| b.iter(|| forward_backward(black_box(&model), black_box(seq)).expect("fb")),
        );
    }
    group.finish();
}

/// Scaled vs log Viterbi decoding at the same operating points, plus the
/// paper's PoS size (k = 15) and the `train-wide` benchmark model (k = 64).
fn bench_scaled_vs_log_viterbi(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaled_vs_log/viterbi");
    for &(k, t) in &[(15usize, 512usize), (16, 512), (32, 512), (64, 512)] {
        let model = random_hmm(k, 40, 14);
        let mut rng = StdRng::seed_from_u64(15);
        let seq: Vec<usize> = (0..t).map(|_| rng.gen_range(0..40)).collect();
        let mut ws = InferenceWorkspace::new();
        viterbi_scaled(&model, &seq, &mut ws).expect("warm-up");
        group.bench_with_input(
            BenchmarkId::new("scaled", format!("k{k}_T{t}")),
            &seq,
            |b, seq| {
                b.iter(|| {
                    viterbi_scaled(black_box(&model), black_box(seq), &mut ws)
                        .expect("scaled viterbi")
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("log", format!("k{k}_T{t}")),
            &seq,
            |b, seq| b.iter(|| viterbi(black_box(&model), black_box(seq)).expect("viterbi")),
        );
    }
    group.finish();
}

fn bench_dpp_prior(c: &mut Criterion) {
    let kernel = ProductKernel::bhattacharyya();
    let mut group = c.benchmark_group("dpp_prior");
    for &k in &[5usize, 15, 26] {
        let a = random_stochastic(k, 5);
        group.bench_with_input(BenchmarkId::new("log_det", k), &a, |b, a| {
            b.iter(|| log_det_kernel(black_box(a), &kernel).expect("log det"))
        });
        group.bench_with_input(BenchmarkId::new("gradient", k), &a, |b, a| {
            b.iter(|| grad_log_det_kernel(black_box(a), &kernel).expect("gradient"))
        });
    }
    group.finish();
}

/// Head-to-head on the diversified M-step's prior: the fused zero-allocation
/// engine vs the scalar oracle functions it is pinned against, for the
/// log-determinant value and its gradient, plus a whole fused `update`.
fn bench_dpp_mstep(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpp_mstep");
    group.sample_size(10);
    let kernel = ProductKernel::bhattacharyya();
    let engine = DppObjective::new(kernel);
    for &k in &[4usize, 8, 16, 32, 64] {
        let a = random_stochastic(k, 21);
        let counts = {
            let mut rng = StdRng::seed_from_u64(22);
            Matrix::from_fn(k, k, |_, _| rng.gen_range(5.0..50.0))
        };
        let mut ws = MStepWorkspace::new();
        let mut grad = Matrix::zeros(k, k);
        engine.log_det_with(&a, &mut ws).expect("warm-up");

        group.bench_with_input(BenchmarkId::new("value_fused", k), &a, |b, a| {
            b.iter(|| engine.log_det_with(black_box(a), &mut ws).expect("value"))
        });
        group.bench_with_input(BenchmarkId::new("value_reference", k), &a, |b, a| {
            b.iter(|| log_det_kernel(black_box(a), &kernel).expect("value"))
        });
        group.bench_with_input(BenchmarkId::new("gradient_fused", k), &a, |b, a| {
            b.iter(|| {
                engine
                    .grad_with(black_box(a), &mut ws, &mut grad)
                    .expect("gradient")
            })
        });
        group.bench_with_input(BenchmarkId::new("gradient_reference", k), &a, |b, a| {
            b.iter(|| grad_log_det_kernel(black_box(a), &kernel).expect("gradient"))
        });

        // Full update: a complete Algorithm-1 M-step (warm-start evaluation,
        // projected-gradient ascent with backtracking).
        let ascent = AscentConfig {
            max_iterations: 15,
            ..AscentConfig::default()
        };
        let updater = DppTransitionUpdater::new(10.0, kernel, ascent);
        let uniform = Matrix::filled(k, k, 1.0 / k as f64);
        group.bench_with_input(BenchmarkId::new("update_fused", k), &counts, |b, xi| {
            b.iter(|| {
                updater
                    .update(black_box(xi), black_box(&uniform))
                    .expect("update")
            })
        });
    }
    group.finish();
}

fn bench_simplex_projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_projection");
    for &n in &[5usize, 26, 128] {
        let mut rng = StdRng::seed_from_u64(6);
        let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &v, |b, v| {
            b.iter(|| project_to_simplex(black_box(v)))
        });
    }
    group.finish();
}

fn bench_hungarian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hungarian");
    for &n in &[15usize, 26, 46] {
        let mut rng = StdRng::seed_from_u64(7);
        let profit = Matrix::from_fn(n, n, |_, _| rng.gen_range(0.0..100.0));
        group.bench_with_input(BenchmarkId::from_parameter(n), &profit, |b, p| {
            b.iter(|| hungarian_max(black_box(p)).expect("assignment"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_forward_backward, bench_viterbi, bench_scaled_vs_log_forward_backward,
        bench_scaled_vs_log_toy_gaussian, bench_scaled_vs_log_viterbi, bench_dpp_prior,
        bench_dpp_mstep, bench_simplex_projection, bench_hungarian
}
criterion_main!(benches);
