//! Ring-buffered streaming state and per-push scratch.
//!
//! The streaming decoder's memory footprint is its hard selling point: a
//! session holds O(W·k) floats where `W = max(2·lag, 1)` is the ring window,
//! independent of how many tokens have streamed through it. The state splits
//! in two:
//!
//! * [`StreamWorkspace`] — the *persistent* per-session state: the α / ψ /
//!   emission rings, the rolling Viterbi scores and the running scalars. One
//!   per session; survives across pushes, ticks and (in a session pool)
//!   close/reopen cycles, in the grow-only style of the offline
//!   `InferenceWorkspace`.
//! * [`StreamScratch`] — the *transient* per-push scratch: level-set walks,
//!   backward-smoothing rows and the per-push output staging (newly
//!   committed labels, and a standalone decoder's newly smoothed
//!   posteriors). One per worker; in a session pool it is leased from a
//!   runtime `LeasePool`, so `S` sessions on `w` workers cost `S`
//!   workspaces but only `w` scratches.
//!
//! Both grow monotonically: after the first push at a given `(k, lag)` shape
//! (or after [`StreamWorkspace::ensure`] at construction), no call path in
//! this crate allocates — pinned by the counting-allocator test in
//! `tests/zero_alloc.rs`.

use dhmm_hmm::{CsrTransition, SparseParams};
use dhmm_linalg::Matrix;

/// Persistent per-session streaming state (rings + running scalars).
///
/// All buffers are sized by [`StreamWorkspace::ensure`] and never shrink; a
/// workspace sized for the largest `(k, window)` it has seen serves every
/// smaller session for free — which is what makes close/reopen reuse in the
/// session pool allocation-free.
#[derive(Debug, Clone, Default)]
pub struct StreamWorkspace {
    /// Number of states `k` of the last `ensure`.
    pub(crate) num_states: usize,
    /// Ring capacity `W = max(2·lag, 1)` of the last `ensure`.
    pub(crate) window: usize,
    /// Tokens pushed so far; the next push is time index `t`.
    pub(crate) t: usize,
    /// First time index whose Viterbi label is *not* yet committed.
    pub(crate) base: usize,
    /// First time index whose fixed-lag smoothed posterior is not yet
    /// emitted.
    pub(crate) smoothed_upto: usize,
    /// Next time index at which the path-convergence walk runs. The walk
    /// costs O(window · k); re-arming it only after the uncommitted window
    /// has grown by ~half its length keeps its amortized per-token cost at
    /// O(k) however large the window gets (convergence commits are a
    /// latency optimization — the lag bound is enforced by forced commits,
    /// which run every push).
    pub(crate) next_converge: usize,
    /// Running `log P(y_0..t-1)` — the accumulated log scaling constants.
    pub(crate) log_likelihood: f64,
    /// Accumulated Viterbi log-normalizers `Σ log m_t` (plus shifts).
    pub(crate) viterbi_log: f64,
    /// Set by `flush`; pushes must not follow until `reset`.
    pub(crate) finished: bool,
    /// `Σ_t ε_t` — total relative filter mass removed by the sparse beam so
    /// far (stays 0 under the scaled backend).
    pub(crate) sparse_pruned_total: f64,
    /// `Σ_t −ln(1−ε_t)` over the filter steps so far: the running bound on
    /// the log-likelihood deficit introduced by beam pruning.
    pub(crate) sparse_bound: f64,
    /// `W × k` ring of scaled filtered rows `α̂(t, ·)`; slot `t % W`.
    pub(crate) alpha: Vec<f64>,
    /// `W × k` ring of (shift-rescued) linear-domain emission rows.
    pub(crate) emis: Vec<f64>,
    /// `W × k` ring of Viterbi backpointers.
    pub(crate) psi: Vec<usize>,
    /// `2 × k` rolling Viterbi score rows (same parity scheme as the
    /// offline engine: time `t`'s row is `delta[(t % 2) * k ..]`).
    pub(crate) delta: Vec<f64>,
}

impl StreamWorkspace {
    /// Creates an empty workspace; buffers are sized by `ensure`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every ring to hold a `k`-state, `window`-slot problem and
    /// records the active shape. Never shrinks. Also resets the stream
    /// counters (a shape change invalidates ring contents).
    pub fn ensure(&mut self, k: usize, window: usize) {
        let wk = window.checked_mul(k).expect("stream workspace overflow");
        if self.alpha.len() < wk {
            self.alpha.resize(wk, 0.0);
            self.emis.resize(wk, 0.0);
            self.psi.resize(wk, 0);
        }
        if self.delta.len() < 2 * k {
            self.delta.resize(2 * k, 0.0);
        }
        self.num_states = k;
        self.window = window;
        self.reset();
    }

    /// Rewinds the stream to empty while keeping every buffer warm — the
    /// close/reopen path of the session pool and the restart path of a
    /// standalone decoder.
    pub fn reset(&mut self) {
        self.t = 0;
        self.base = 0;
        self.smoothed_upto = 0;
        self.next_converge = 0;
        self.log_likelihood = 0.0;
        self.viterbi_log = 0.0;
        self.finished = false;
        self.sparse_pruned_total = 0.0;
        self.sparse_bound = 0.0;
    }

    /// Active `(num_states, window)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.num_states, self.window)
    }

    /// Tokens pushed since construction/reset.
    pub fn tokens(&self) -> usize {
        self.t
    }

    /// Number of Viterbi labels committed so far (times `0..committed()`).
    pub fn committed(&self) -> usize {
        self.base
    }

    /// Running `log P(y_0..=t-1)` of everything pushed so far.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// Whether `flush` has been called since the last reset.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total relative filter mass removed by the sparse beam so far
    /// (0 under the scaled backend, or with `beam = 0`).
    pub fn sparse_pruned_total(&self) -> f64 {
        self.sparse_pruned_total
    }

    /// Running bound on the log-likelihood deficit introduced by sparse
    /// beam pruning: under the sparse backend, [`Self::log_likelihood`] is
    /// a certified lower bound on the exact value under the pruned matrix
    /// `Ã`, and the gap is estimated by `Σ_t −ln(1−ε_t)`, this value.
    pub fn sparse_error_bound(&self) -> f64 {
        self.sparse_bound
    }

    /// The ring slot of time index `t`.
    #[inline]
    pub(crate) fn slot(&self, t: usize) -> usize {
        t % self.window
    }

    /// The α̂ ring row of time index `t` (must still be inside the window).
    #[inline]
    pub(crate) fn alpha_row(&self, t: usize) -> &[f64] {
        let k = self.num_states;
        let s = self.slot(t);
        &self.alpha[s * k..(s + 1) * k]
    }
}

/// Per-scratch cache of the CSR-compiled pruned transition matrix the
/// streaming step runs on under the sparse backend. The dense backend needs
/// no cache: its steps read the model's `A` and `Aᵀ` directly.
///
/// The entry is keyed by the *publishing epoch* (plus shape and compile
/// parameters): a [`crate::SessionPool`] hot-swap bumps the epoch, so a
/// stale compile is rebuilt on the next push without any bitwise comparison
/// of the matrix itself. A standalone [`crate::StreamingDecoder`] always
/// uses epoch 0 — its borrowed model cannot change underneath it.
#[derive(Debug, Clone, Default)]
pub(crate) struct TransCache {
    /// CSR-compiled pruned transitions; valid while `csr_key` matches.
    pub(crate) csr: CsrTransition,
    /// `(epoch, k, params)` the CSR form was compiled for.
    csr_key: Option<(u64, usize, SparseParams)>,
}

impl TransCache {
    /// Ensures `csr` holds `a` compiled under `params` for this epoch.
    /// Parameters were validated at stream construction, and the model's
    /// transition matrix is square by construction, so compilation cannot
    /// fail here.
    pub(crate) fn prepare_sparse(&mut self, a: &Matrix, epoch: u64, params: SparseParams) {
        let key = Some((epoch, a.rows(), params));
        if self.csr_key != key {
            self.csr
                .compile_into(a, params)
                .expect("sparse params validated at stream construction");
            self.csr_key = key;
        }
    }
}

/// Transient per-push scratch plus per-push output staging.
///
/// `Default`-constructible so it can be leased from the runtime's generic
/// `LeasePool` / thread-local scratch. Buffers grow on first use at a given
/// shape and are then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct StreamScratch {
    /// The sparse backend's CSR-compiled transitions, epoch-keyed.
    pub(crate) trans: TransCache,
    /// Length-`k` work row (new α row before it enters the ring; backward
    /// weights during smoothing).
    pub(crate) row: Vec<f64>,
    /// `2 × k` rolling backward rows for fixed-lag smoothing (sized by
    /// [`Self::ensure_smoother`] only; empty in a pool's leased scratch).
    pub(crate) beta: Vec<f64>,
    /// Labels committed by the last push/flush, ascending in time.
    pub(crate) committed: Vec<usize>,
    /// Time index of `committed[0]` (meaningful when non-empty).
    pub(crate) committed_start: usize,
    /// Smoothed posterior rows emitted by the last standalone-decoder
    /// push/flush, row-major (`smoothed_len × k`), ascending in time. A
    /// session pool never smooths, so its leased scratch keeps
    /// `smoothed_len == 0` and this buffer empty (see
    /// [`Self::ensure_smoother`]).
    pub(crate) smoothed: Vec<f64>,
    /// Number of valid rows in `smoothed`.
    pub(crate) smoothed_len: usize,
    /// Time index of the first smoothed row.
    pub(crate) smoothed_start: usize,
    /// Survivor-chain reconstruction buffer (window + 1 entries).
    pub(crate) chain: Vec<usize>,
    /// Per-state chain roots during force-commit pruning.
    pub(crate) roots: Vec<usize>,
    /// Level-set membership flags for the path-convergence walk.
    pub(crate) set_cur: Vec<bool>,
    /// Second membership buffer (swapped with `set_cur` per level).
    pub(crate) set_next: Vec<bool>,
    /// Rows whose fixed-lag smoothing window closed in pushes through this
    /// scratch during the *current* pool tick — accumulated per worker
    /// inside the banded pass (each band owns its scratch, so no
    /// synchronization) and drained into the tick report afterwards. Always
    /// 0 outside a tick.
    pub(crate) tick_smoothing_rows: u64,
}

impl StreamScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-push buffers for a `k`-state, `window`-slot stream.
    /// The smoother's buffers are not among them: only a standalone decoder
    /// runs the smoother, and it sizes them once with
    /// [`Self::ensure_smoother`].
    pub(crate) fn ensure(&mut self, k: usize, window: usize) {
        if self.row.len() < k {
            self.row.resize(k, 0.0);
            self.roots.resize(k, 0);
            self.set_cur.resize(k, false);
            self.set_next.resize(k, false);
        }
        // A single push can commit at most the whole uncommitted window plus
        // the pushed token itself.
        if self.chain.len() < window + 1 {
            self.chain.resize(window + 1, 0);
        }
        if self.committed.capacity() < window + 1 {
            self.committed.reserve(window + 1);
        }
    }

    /// Grows the fixed-lag smoother's buffers for a `k`-state,
    /// `window`-slot stream: the `2 × k` backward rows and the `window × k`
    /// posterior rows one push or flush can emit.
    pub(crate) fn ensure_smoother(&mut self, k: usize, window: usize) {
        if self.beta.len() < 2 * k {
            self.beta.resize(2 * k, 0.0);
        }
        let wk = window.checked_mul(k).expect("stream scratch overflow");
        if self.smoothed.len() < wk {
            self.smoothed.resize(wk, 0.0);
        }
    }

    /// Clears the per-push output staging (start of every push/flush).
    pub(crate) fn clear_outputs(&mut self) {
        self.committed.clear();
        self.committed_start = 0;
        self.smoothed_len = 0;
        self.smoothed_start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_grows_but_never_shrinks() {
        let mut ws = StreamWorkspace::new();
        ws.ensure(4, 10);
        assert_eq!(ws.shape(), (4, 10));
        assert_eq!(ws.alpha.len(), 40);
        ws.ensure(2, 3);
        assert_eq!(ws.shape(), (2, 3));
        assert_eq!(ws.alpha.len(), 40);
        ws.ensure(8, 20);
        assert_eq!(ws.alpha.len(), 160);
        assert_eq!(ws.delta.len(), 16);
    }

    #[test]
    fn reset_keeps_buffers_warm() {
        let mut ws = StreamWorkspace::new();
        ws.ensure(3, 6);
        ws.t = 17;
        ws.base = 12;
        ws.log_likelihood = -42.0;
        ws.finished = true;
        let cap = ws.alpha.capacity();
        ws.reset();
        assert_eq!(ws.tokens(), 0);
        assert_eq!(ws.committed(), 0);
        assert_eq!(ws.log_likelihood(), 0.0);
        assert!(!ws.is_finished());
        assert_eq!(ws.alpha.capacity(), cap);
    }

    #[test]
    fn scratch_sizes_for_shape() {
        let mut s = StreamScratch::new();
        s.ensure(5, 8);
        assert_eq!(s.row.len(), 5);
        assert!(s.chain.len() >= 9);
        assert!(s.committed.capacity() >= 9);
        // The smoother's buffers are sized apart.
        assert_eq!(s.beta.capacity(), 0);
        assert_eq!(s.smoothed.capacity(), 0);
        s.ensure_smoother(5, 8);
        assert_eq!(s.beta.len(), 10);
        assert!(s.smoothed.len() >= 40);
    }
}
