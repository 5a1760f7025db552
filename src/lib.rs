//! # dhmm
//!
//! A reproduction of **"Diversified Hidden Markov Models for Sequential
//! Labeling"** (Qiao, Bian, Xu, Tao) as a Rust workspace. This facade crate
//! re-exports the public API of every workspace member so downstream users
//! can depend on a single crate:
//!
//! * [`core`] — the diversified HMM itself (unsupervised MAP-EM and
//!   supervised training with the DPP diversity prior),
//! * [`hmm`] — the classical first-order HMM substrate (forward–backward,
//!   Baum–Welch, Viterbi, supervised counting),
//! * [`dpp`] — determinantal point process kernels, log-determinants and
//!   gradients,
//! * [`stream`] — bounded-memory online decoding (filtering, fixed-lag
//!   smoothing, online Viterbi) and multiplexed streaming sessions,
//! * [`serve`] — a TCP serving front-end over the streaming sessions:
//!   length-delimited protocol, epoch-versioned model hot-swap,
//!   backpressure-aware session API,
//! * [`telemetry`] — lock-free counters/gauges/histograms with a
//!   Prometheus-style text exposition, threaded through runtime, stream,
//!   serve and training (no-op when disabled),
//! * [`prob`] / [`linalg`] — the probability and dense linear-algebra
//!   substrates everything is built on,
//! * [`data`] — the toy, synthetic-WSJ and synthetic-OCR dataset generators,
//! * [`eval`] — Hungarian alignment, 1-to-1 accuracy, cross-validation,
//! * [`baselines`] — Naive Bayes, Optimized HMM and sparse-prior HMM
//!   comparators,
//! * [`experiments`] — one runner per table/figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use dhmm::core::{DiversifiedConfig, DiversifiedHmm};
//! use dhmm::data::toy::{generate, ToyConfig};
//! use dhmm::eval::accuracy::one_to_one_accuracy;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = generate(&ToyConfig { num_sequences: 60, ..ToyConfig::default() }, &mut rng);
//!
//! let trainer = DiversifiedHmm::new(DiversifiedConfig {
//!     alpha: 1.0,
//!     max_em_iterations: 10,
//!     ..DiversifiedConfig::default()
//! });
//! let (model, _report) = trainer
//!     .fit_gaussian(&data.corpus.observations(), 5, &mut rng)
//!     .expect("training succeeds");
//!
//! let predicted = model.decode_all(&data.corpus.observations()).expect("decoding succeeds");
//! let (accuracy, _) = one_to_one_accuracy(&predicted, &data.corpus.labels()).expect("aligned");
//! assert!(accuracy > 0.2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

/// The paper's primary contribution: diversified HMM training.
pub use dhmm_core as core;

/// Classical first-order HMM substrate.
pub use dhmm_hmm as hmm;

/// Determinantal point process machinery.
pub use dhmm_dpp as dpp;

/// Streaming inference: bounded-memory online decoding and multiplexed
/// sessions.
pub use dhmm_stream as stream;

/// TCP serving front-end: protocol, server, backpressure, hot-swap.
pub use dhmm_serve as serve;

/// Zero-overhead metrics: counters, gauges, log-bucketed histograms,
/// span timers, and Prometheus-style text exposition.
pub use dhmm_telemetry as telemetry;

/// Probability distributions and divergences.
pub use dhmm_prob as prob;

/// Dense linear algebra.
pub use dhmm_linalg as linalg;

/// Deterministic worker-pool runtime (executor, row partitioning, leases).
pub use dhmm_runtime as runtime;

/// Dataset generators (toy, synthetic WSJ PoS, synthetic OCR).
pub use dhmm_data as data;

/// Evaluation: Hungarian alignment, accuracies, cross-validation.
pub use dhmm_eval as eval;

/// Baseline sequential labelers.
pub use dhmm_baselines as baselines;

/// Table/figure reproduction runners.
pub use dhmm_experiments as experiments;
