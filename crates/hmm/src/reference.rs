//! The log-domain reference engine — the numerical oracle for
//! [`crate::scaled`].
//!
//! These are the original implementations this crate shipped with: the
//! per-call-allocating forward–backward of [`crate::forward_backward`] and
//! the log-space Viterbi of [`crate::viterbi`]. No
//! [`InferenceBackend`](crate::scaled::InferenceBackend) selects them; tests
//! call them directly, so the equivalence property suite can pin the scaled
//! engine to them at 1e-9.
//!
//! At an observation impossible under every state, the oracle's
//! forward–backward floors the step at `ln(f64::MIN_POSITIVE)` exactly like
//! [`crate::scaled::scale_row`], but its Viterbi has no such rule: it only
//! floors zero `π`/`A` entries at 1e-300 before taking logs, so every path
//! scores `−∞` and ties go to state 0. The production Viterbi engines floor
//! such a step to uniform through [`crate::scaled::viterbi_scale_row`]
//! instead, keeping a finite score and ranking the states around the step.
//! Oracle and engines agree whenever the model's optimum has positive
//! probability.

pub use crate::forward_backward::{
    forward_backward, forward_backward_detailed, ForwardBackward, SequenceStats,
};
pub use crate::viterbi::{viterbi, viterbi_with_score};
