//! # dhmm-dpp
//!
//! Determinantal point process (DPP) machinery for the diversified HMM.
//!
//! The dHMM paper places a continuous DPP prior over the rows of the HMM
//! transition matrix. The prior probability of a transition matrix `A` is
//! proportional to `det(K̃_A)`, where `K̃_A` is the matrix of **normalized
//! probability product kernels** between the rows of `A` (Eq. 5 of the
//! paper, with `ρ = 0.5` giving the Bhattacharyya kernel). This crate
//! implements:
//!
//! * [`kernel::ProductKernel`] — the (normalized) probability product kernel
//!   and the construction of `K̃_A` from a row-stochastic matrix,
//! * [`logdet`] — numerically robust evaluation of `log det K̃_A`
//!   (jittered Cholesky with an LU fallback), i.e. the log prior up to a
//!   constant,
//! * [`gradient`] — the analytic gradient `∇_A log det K̃_A` used by the
//!   projected-gradient M-step (Eq. 15), verified against finite
//!   differences in the test-suite,
//! * [`objective`] — the fused, zero-allocation M-step engine
//!   ([`objective::DppObjective`] + [`objective::MStepWorkspace`]) that
//!   evaluates the prior and its gradient through one power matrix, GEMMs
//!   and a single shared Cholesky factorization, oracle-pinned against the
//!   scalar [`kernel`]/[`gradient`] paths.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod gradient;
pub mod kernel;
pub mod logdet;
pub mod objective;

pub use error::DppError;
pub use gradient::grad_log_det_kernel;
pub use kernel::ProductKernel;
pub use logdet::{log_det_kernel, log_det_psd};
pub use objective::{DppObjective, MStepWorkspace};
