//! # dhmm-hmm
//!
//! Classical first-order Hidden Markov Models — the substrate the diversified
//! HMM of Qiao et al. builds on, and the main baseline it is compared
//! against.
//!
//! The crate provides:
//!
//! * [`model::Hmm`] — a first-order HMM parameterized by `λ = (π, A, B)`,
//!   generic over the emission model `B`,
//! * [`emission`] — discrete (multinomial), Gaussian and Bernoulli-vector
//!   (Naive-Bayes pixel) emission models, the three used in the paper,
//! * [`scaled`] — the scaled-space (Rabiner scaling-coefficient) inference
//!   engine: one linear-domain forward–backward body and one Viterbi body,
//!   writing into a reusable [`workspace::InferenceWorkspace`], over a
//!   [`scaled::Transitions`] operator with a dense and a CSR layout,
//! * [`sparse`] — the CSR layout's pruning: compiled pruned transitions,
//!   exact under the pruned matrix, with a queryable pruning report,
//! * [`workspace`] — preallocated inference buffers, reused across sequences
//!   and EM iterations (one per thread in the parallel E-step),
//! * [`mod@reference`] — the original log-domain engine, kept as the numerical
//!   oracle the tests pin the scaled engine against (no backend selects it),
//! * [`forward_backward`] / [`viterbi`] — the reference implementations
//!   themselves (E-step recursions and log-space decoding),
//! * [`baum_welch`] — the EM (Baum–Welch) trainer with a pluggable
//!   transition-matrix updater so that the diversified M-step of the dHMM
//!   can be slotted in without re-implementing the rest of EM,
//! * [`supervised`] — count-based supervised estimation with smoothing,
//! * [`generate`] — sampling of labeled sequences from a model (used by the
//!   synthetic datasets and the toy experiment of §4.1).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baum_welch;
pub mod emission;
pub mod error;
pub mod forward_backward;
pub mod generate;
pub mod init;
pub mod model;
pub mod reference;
pub mod scaled;
pub mod sparse;
pub mod supervised;
pub mod util;
pub mod viterbi;
pub mod workspace;

pub use baum_welch::{
    e_step_on, BaumWelch, BaumWelchConfig, FitResult, MleTransitionUpdater, TransitionUpdater,
};
pub use dhmm_runtime::Parallelism;
pub use emission::{BernoulliEmission, DiscreteEmission, Emission, GaussianEmission};
pub use error::HmmError;
pub use forward_backward::SequenceStats;
pub use generate::generate_sequences;
pub use init::{random_parameters, InitStrategy};
pub use model::Hmm;
pub use scaled::{
    emission_likelihood_row, forward_backward_scaled, log_likelihood_scaled, scale_row,
    viterbi_scale_row, viterbi_scaled, viterbi_scaled_with_score, InferenceBackend, Transitions,
};
pub use sparse::{CsrTransition, PruneRule, SparseParams, SparseReport};
pub use supervised::{supervised_estimate, SupervisedCounts};
pub use workspace::{InferenceWorkspace, WorkspacePool};
