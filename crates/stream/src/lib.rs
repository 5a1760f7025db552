//! # dhmm-stream
//!
//! Streaming inference for the dHMM reproduction: labeling data *as it
//! arrives*, with hard per-session memory bounds, on top of the scaled
//! inference kernels (`dhmm_hmm::scaled`) and the deterministic worker-pool
//! runtime (`dhmm_runtime`).
//!
//! Every inference path elsewhere in the workspace is offline — it needs the
//! whole sequence up front. This crate provides the online counterpart:
//!
//! * [`StreamingDecoder`] — a single session. `push(obs)` advances an
//!   O(k²)-per-token scaled forward filter (filtered posterior + running
//!   `log P(y_0..t)` recovered from the accumulated `log c_t`), fixed-lag
//!   smoothing with configurable lag `L` (amortized-O(k²) backward passes
//!   over 2L-token windows), and a bounded-memory online Viterbi (ring ψ
//!   buffer, path-convergence commits, forced commit at lag `L`). All
//!   buffers live in a grow-only [`StreamWorkspace`]/[`StreamScratch`] pair
//!   sized at construction, so `push` performs **zero heap allocation**.
//! * [`SessionPool`] — many concurrent sessions multiplexed over one model:
//!   create/push/flush/close by [`SessionId`], with batch [`SessionPool::tick`]s
//!   that advance each session's pending tokens through the same per-token
//!   step as the standalone decoder, in deterministic per-session bands on
//!   the shared `runtime::Executor`, so labels and log-likelihoods stay
//!   **bit-identical across worker policies** and equal to a standalone
//!   decoder's fed the same tokens. A pool runs no fixed-lag smoother and
//!   exposes no posteriors.
//!
//! With `lag ≥ T` the streamed output is exactly the offline decode: the
//! Viterbi path equals `viterbi_scaled`'s and the decoder's filtered/smoothed
//! posteriors match `forward_backward_scaled` prefix marginals (pinned to
//! 1e-9 — in practice bit-identical — by `tests/parity.rs`). Smaller lags
//! trade a bounded, explicit amount of lookahead for O(lag · k) memory and
//! constant per-token latency.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod decoder;
pub mod error;
pub mod session;
pub mod workspace;

pub use decoder::{FlushOutput, StepOutput, StreamConfig, StreamingDecoder};
pub use error::StreamError;
pub use session::{SessionId, SessionPool, TickReport};
pub use workspace::{StreamScratch, StreamWorkspace};

// Re-exported so `dhmm_stream` is self-sufficient for callers configuring a
// stream (the knobs are defined by `dhmm_hmm` / `dhmm_runtime` /
// `dhmm_telemetry`).
pub use dhmm_hmm::{InferenceBackend, PruneRule, SparseParams};
pub use dhmm_runtime::Parallelism;
pub use dhmm_telemetry::{Registry, TelemetrySink};
