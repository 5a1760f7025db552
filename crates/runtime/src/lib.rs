//! # dhmm-runtime
//!
//! The shared execution substrate of the dHMM workspace: one worker-pool
//! runtime serving the pooled E-step (`dhmm-hmm`), the per-row M-step
//! gradient (`dhmm-dpp`) and the row-banded GEMM, Gram and inverse kernels
//! (`dhmm-linalg`), so every layer parallelizes through the same three
//! primitives instead of growing its own threading idiom:
//!
//! * [`Parallelism`] — the one policy knob (`Serial`, `Threads(n)`, `Auto`)
//!   that higher layers thread through their configs; `Auto` honors the
//!   `DHMM_THREADS` environment override (the CI matrix forces it to 1 and 4),
//! * [`split_rows`] — deterministic balanced row-range partitioning; every
//!   parallel loop in the workspace splits its iteration space with it
//!   ([`split_range`] computes one of its ranges without building the rest),
//! * [`Executor`] — a scoped dispatcher over a lazily-grown pool of parked
//!   worker threads (the private `pool` module); jobs are row-range
//!   closures, results are collected in fixed range order,
//! * [`LeasePool`] / [`with_thread_scratch`] — generic per-worker scratch
//!   leases (the generalization of the old `hmm::WorkspacePool`), plus a
//!   thread-local lease so one-shot callers reuse warm buffers across calls.
//!
//! # Determinism
//!
//! Every primitive here is *bit-deterministic across thread counts* by
//! construction: [`split_rows`] assigns each row to exactly one range, each
//! range's computation touches only its own rows (callers uphold this), and
//! reductions happen on the calling thread in fixed range order. A result
//! computed under `Parallelism::Serial` is therefore bit-identical to the
//! same computation under `Threads(8)` — the serial path is the oracle, not
//! an approximation. The cross-thread-count determinism suite in
//! `dhmm-core` pins this end to end for full EM runs.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod executor;
pub mod lease;
pub mod parallelism;
pub(crate) mod pool;
pub mod split;
pub mod telemetry;

pub use executor::Executor;
pub use lease::{with_thread_scratch, LeasePool};
pub use parallelism::{Parallelism, THREADS_ENV};
pub use split::{split_range, split_rows};
