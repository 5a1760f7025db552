//! # dhmm-runtime
//!
//! The shared execution substrate of the dHMM workspace: one worker-pool
//! runtime serving the pooled E-step and the concurrent M-step halves
//! (`dhmm-hmm`) and the session pool's ticks (`dhmm-stream`), so every
//! layer parallelizes through the same three primitives instead of growing
//! its own threading idiom:
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
//! * [`LeasePool`] — generic per-worker scratch leases (the generalization
//!   of the old `hmm::WorkspacePool`).
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
pub use lease::LeasePool;
pub use parallelism::{Parallelism, THREADS_ENV};
pub use split::{split_range, split_rows};
