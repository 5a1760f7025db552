//! # dhmm-core
//!
//! Diversified Hidden Markov Models (dHMM) — the primary contribution of
//! Qiao, Bian, Xu & Tao, *"Diversified Hidden Markov Models for Sequential
//! Labeling"*.
//!
//! A dHMM is an HMM whose transition matrix `A` carries a
//! diversity-encouraging prior `P(A) ∝ det(K̃_A)`, where `K̃_A` is the
//! normalized probability-product-kernel matrix between the rows of `A`
//! (crate `dhmm-dpp`). Learning maximizes the penalized objective
//!
//! * **unsupervised** (Eq. 7): `log P(Y | λ) + α·log det K̃_A`, solved by EM
//!   with a modified M-step ([`unsupervised::DiversifiedHmm`]),
//! * **supervised** (Eq. 8): `log P(Y, X | λ) + α·log det K̃_A −
//!   α_A·‖A − A0‖²`, solved by projected gradient ascent from the
//!   count-based estimate `A0` ([`supervised::SupervisedDiversifiedHmm`]).
//!
//! The shared machinery — the penalized transition objective and its
//! projected-gradient maximizer (the paper's Algorithm 1) — lives in
//! [`transition_update`].
//!
//! # Quick example
//!
//! ```
//! use dhmm_core::{DiversifiedConfig, DiversifiedHmm};
//! use dhmm_data::toy::{generate, ToyConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let data = generate(&ToyConfig { num_sequences: 50, ..ToyConfig::default() }, &mut rng);
//! let config = DiversifiedConfig { alpha: 1.0, max_em_iterations: 5, ..DiversifiedConfig::default() };
//! let trainer = DiversifiedHmm::new(config);
//! let (model, report) = trainer
//!     .fit_gaussian(&data.corpus.observations(), 5, &mut rng)
//!     .expect("training succeeds");
//! assert_eq!(model.num_states(), 5);
//! assert!(report.fit.final_objective().is_finite());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod error;
pub mod supervised;
pub mod transition_update;
pub mod unsupervised;

pub use config::{
    AscentConfig, DiversifiedConfig, InferenceBackend, Parallelism, SupervisedConfig,
};
pub use error::DhmmError;
pub use supervised::{SupervisedDiversifiedHmm, SupervisedFitReport};
pub use transition_update::{
    AscentStats, AscentWorkspace, DppTransitionUpdater, TransitionObjective,
};
pub use unsupervised::{DiversifiedFitReport, DiversifiedHmm};
