//! # dhmm-linalg
//!
//! Dense linear-algebra substrate for the diversified-HMM (dHMM) reproduction.
//!
//! The dHMM paper (Qiao et al.) manipulates small dense matrices: `k × k`
//! transition matrices and DPP kernel matrices (`k ≤ 26` in the paper's
//! experiments, `k = 64` in the repository benchmark, up to a few hundred in
//! the sparse-backend sweeps), plus `k × V` emission tables. This crate
//! provides a compact, dependency-free implementation of exactly the
//! primitives the rest of the workspace needs:
//!
//! * [`Matrix`] / [`vector`] — row-major dense matrices and vector helpers,
//! * [`csr`] — compressed-sparse-row storage and the scatter/gather/argmax
//!   kernels behind the pruned-transition inference backend in `dhmm-hmm`,
//! * [`lu`] — LU decomposition with partial pivoting (determinant, inverse,
//!   linear solves, log-determinant with sign),
//! * [`cholesky`] — Cholesky factorization (and a jittered variant used for
//!   nearly-singular DPP kernels),
//! * [`simplex`] — Euclidean projection onto the probability simplex
//!   (Wang & Carreira-Perpiñán, Algorithm 1), the projection step of the
//!   paper's Algorithm 1, re-sorting each row of a matrix from its last
//!   order,
//! * [`stats`] — small numeric helpers (log-sum-exp, normalization, argmax).
//!
//! The kernels of the diversified M-step (the Gram matrix
//! [`Matrix::gram_into_on`], the GEMM [`Matrix::matmul_into_on`], the
//! Cholesky factorization [`factor_into`] and the inverse
//! [`spd_inverse_rows_from_factor`]) advance several independent output
//! entries together in registers. Every entry keeps the op order of the
//! plain scalar loop, and multiply and add are never fused, so each kernel
//! is bit-identical to that loop on every host; the unit tests pin it.
//! There is no cache blocking: at these sizes every operand fits in L1 or
//! L2.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cholesky;
pub mod csr;
pub mod error;
pub mod lu;
pub mod matrix;
pub mod simplex;
pub mod stats;
pub mod vector;

pub use cholesky::{factor_into, log_det_from_factor, spd_inverse_rows_from_factor, Cholesky};
pub use csr::CsrMatrix;
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use simplex::{
    project_row_stochastic, project_row_stochastic_with, project_to_simplex,
    project_to_simplex_into, SimplexScratch,
};
pub use stats::{argmax, log_sum_exp, normalize_in_place};
