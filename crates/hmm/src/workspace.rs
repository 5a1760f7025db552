//! Reusable, preallocated buffers for the scaled-space inference engine.
//!
//! The reference engine in [`crate::forward_backward`] and [`crate::viterbi`]
//! allocates fresh `Matrix`/`Vec` storage on every call, which dominates the
//! cost of repeated E-steps on short sequences. An [`InferenceWorkspace`] owns
//! all of that scratch storage instead: it is sized on first use and then
//! reused across sequences and EM iterations, so the hot loops in
//! [`crate::scaled`] run without touching the allocator.

/// Preallocated scratch buffers for the scaled-space engine.
///
/// All buffers grow monotonically (`ensure` never shrinks them), so a
/// workspace sized by the longest sequence it has seen serves every shorter
/// sequence for free. One workspace serves one thread; the parallel E-step
/// hands each worker its own via [`WorkspacePool`].
#[derive(Debug, Clone, Default)]
pub struct InferenceWorkspace {
    /// Active number of states `k` of the last `ensure` call.
    num_states: usize,
    /// Active sequence length `T` of the last `ensure` call.
    seq_len: usize,
    /// `T × k` scaled forward variables, row-major.
    pub(crate) alpha: Vec<f64>,
    /// `T × k` scaled backward variables, row-major.
    pub(crate) beta: Vec<f64>,
    /// `T × k` linear-domain emission likelihoods `b_i(y_t)`, row-major,
    /// possibly rescaled per step by `exp(-shifts[t])`.
    pub(crate) emis: Vec<f64>,
    /// Per-step log-domain shift applied to the emission row (0.0 unless the
    /// linear-domain likelihoods underflowed and were recomputed shifted).
    pub(crate) shifts: Vec<f64>,
    /// Per-step raw forward normalizers `c̃_t` in the shifted domain
    /// (0.0 marks a step whose normalizer was floored).
    pub(crate) scales: Vec<f64>,
    /// Per-step log scaling constants `log c_t = log c̃_t + shifts[t]`;
    /// their sum is `log P(Y | λ)`.
    pub(crate) log_scales: Vec<f64>,
    /// Length-`k` scratch row (backward weights).
    pub(crate) row: Vec<f64>,
    /// Per-step ξ weights `b_j(y_t) · β(t, j) / total_t`, one row per entry
    /// of `xi_steps`, each `k` rounded up to the ξ tile width (pad lanes
    /// zero). Grown by the forward–backward pass only.
    pub(crate) xi_weights: Vec<f64>,
    /// The time step `t` of each row of `xi_weights`: the steps that
    /// contribute to the ξ sums, ascending.
    pub(crate) xi_steps: Vec<usize>,
    /// `2 × k` rolling Viterbi score rows.
    pub(crate) delta: Vec<f64>,
    /// `T × k` Viterbi backpointers.
    pub(crate) psi: Vec<usize>,
    /// Compiled-transition cache of the sparse engine (boxed: dense-engine
    /// users pay one pointer). Keyed by a bitwise copy of the dense matrix
    /// plus the compile parameters, so model updates invalidate it.
    pub(crate) sparse: Option<Box<crate::sparse::SparseCache>>,
    /// Pruning diagnostics of the most recent sparse run.
    pub(crate) sparse_report: Option<crate::sparse::SparseReport>,
}

impl InferenceWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every buffer to hold a `k`-state, length-`t_len` problem and
    /// records the active shape. Never shrinks.
    pub(crate) fn ensure(&mut self, k: usize, t_len: usize) {
        let tk = t_len.checked_mul(k).expect("workspace size overflow");
        if self.alpha.len() < tk {
            self.alpha.resize(tk, 0.0);
            self.beta.resize(tk, 0.0);
            self.emis.resize(tk, 0.0);
            self.psi.resize(tk, 0);
        }
        if self.shifts.len() < t_len {
            self.shifts.resize(t_len, 0.0);
            self.scales.resize(t_len, 0.0);
            self.log_scales.resize(t_len, 0.0);
        }
        if self.row.len() < k {
            self.row.resize(k, 0.0);
            self.delta.resize(2 * k, 0.0);
        }
        self.num_states = k;
        self.seq_len = t_len;
    }

    /// Active `(num_states, seq_len)` shape of the last inference run.
    pub fn shape(&self) -> (usize, usize) {
        (self.num_states, self.seq_len)
    }

    /// Per-step log scaling constants of the last forward pass; their sum is
    /// the sequence log-likelihood. Exposed for tests and diagnostics.
    pub fn log_scales(&self) -> &[f64] {
        &self.log_scales[..self.seq_len]
    }

    /// Scaled forward row `α̂(t, ·)` of the last run (each sums to 1 unless
    /// the step was floored).
    pub fn alpha_row(&self, t: usize) -> &[f64] {
        &self.alpha[t * self.num_states..(t + 1) * self.num_states]
    }

    /// Scaled backward row `β̂(t, ·)` of the last run.
    pub fn beta_row(&self, t: usize) -> &[f64] {
        &self.beta[t * self.num_states..(t + 1) * self.num_states]
    }

    /// Pruning diagnostics of the most recent run through the sparse engine
    /// (`None` until a sparse-backend call has gone through this workspace;
    /// dense runs leave the last sparse report in place).
    pub fn sparse_report(&self) -> Option<&crate::sparse::SparseReport> {
        self.sparse_report.as_ref()
    }
}

/// A pool of per-worker inference workspaces, reused across EM iterations.
///
/// An instance of the runtime's generic [`dhmm_runtime::LeasePool`]:
/// [`crate::baum_welch::e_step_on`] leases one workspace per executor
/// range, and keeping the pool alive across iterations means the whole EM
/// run performs its inference allocations exactly once.
pub type WorkspacePool = dhmm_runtime::LeasePool<InferenceWorkspace>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_grows_but_never_shrinks() {
        let mut ws = InferenceWorkspace::new();
        ws.ensure(4, 10);
        assert_eq!(ws.shape(), (4, 10));
        assert_eq!(ws.alpha.len(), 40);
        ws.ensure(2, 3);
        assert_eq!(ws.shape(), (2, 3));
        // Capacity is retained from the larger call.
        assert_eq!(ws.alpha.len(), 40);
        ws.ensure(8, 20);
        assert_eq!(ws.alpha.len(), 160);
        assert_eq!(ws.delta.len(), 16);
    }

    #[test]
    fn pool_reuses_workspaces() {
        let mut pool = WorkspacePool::new();
        assert!(pool.is_empty());
        {
            let w = pool.ensure(3);
            assert_eq!(w.len(), 3);
            w[0].ensure(5, 7);
        }
        assert_eq!(pool.len(), 3);
        // A smaller request hands back the already-sized workspaces.
        let w = pool.ensure(2);
        assert_eq!(w[0].shape(), (5, 7));
    }
}
