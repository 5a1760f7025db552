//! Sparse transitions: the dense transition matrix compiled to CSR after
//! pruning, exact under the pruned matrix, with a per-run pruning report.
//!
//! Dense inference pays O(k²) per time step regardless of how concentrated
//! the transition rows are — and the diversified M-step produces exactly the
//! kind of concentrated rows (most successor mass on a few states) where that
//! is wasted work. This module compiles the dense transition matrix into a
//! [`CsrTransition`] — the matrix after [`PruneRule`] pruning and row
//! renormalization, stored in both orientations (row-major for the forward
//! and backward steps and the ξ sums, transposed for Viterbi). The scaled
//! recursions of [`crate::scaled`] then run over it as they run over the
//! dense matrix: [`crate::InferenceBackend::Sparse`] hands the one
//! forward–backward body and the one Viterbi body the CSR layout of
//! [`crate::scaled::Transitions`], whose steps visit the stored entries
//! only. What this module alone knows is the pruning: the rules, the
//! compilation, and the workspace's compile cache and report.
//!
//! # Contract: exact under `Ã`
//!
//! Static pruning replaces the model's transition matrix `A` with the
//! pruned, renormalized `Ã`; nothing else is approximated. The
//! log-likelihood, the posteriors and the Viterbi optimum (path and score)
//! are those of the dense engine run on a model whose transition matrix is
//! `Ã` (`CsrTransition::to_dense`), up to rounding and co-optimal ties
//! between paths. The [`SparseReport`] queryable from the workspace after
//! every run says how far `Ã` is from `A`: the per-row mass removed before
//! renormalization ([`SparseReport::static_pruned_max`]), the stored
//! entries, and the rows the rule would have emptied, which fall back to
//! their original dense form ([`SparseReport::fallback_rows`]).
//!
//! With `threshold 0` nothing is pruned, no row is renormalized, and every
//! recursion visits the same values in the same floating-point order as the
//! dense layout — the results are **bit-equal** to
//! [`crate::InferenceBackend::Scaled`], which is how the backend is
//! oracle-pinned.

use crate::error::HmmError;
use crate::workspace::InferenceWorkspace;
use dhmm_linalg::{CsrMatrix, Matrix};

/// How the dense transition matrix is statically pruned before compilation
/// to CSR. Pruned rows are renormalized to sum to one; a row left empty by
/// the rule falls back to its original dense form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PruneRule {
    /// Keep entries `a_ij >= τ`. `Threshold(0.0)` keeps every entry
    /// (including explicit zeros) and skips renormalization, which makes the
    /// sparse engine bit-equal to the dense one.
    Threshold(f64),
    /// Keep the largest entries of each row until their cumulative mass
    /// reaches `p × row sum` (at least one entry is always kept; ties are
    /// broken toward lower column indices).
    TopP(f64),
}

impl Default for PruneRule {
    fn default() -> Self {
        PruneRule::Threshold(1e-4)
    }
}

/// Parameters of the sparse inference backend: the static prune rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparseParams {
    /// Static transition pruning applied at compile time.
    pub prune: PruneRule,
}

impl SparseParams {
    /// The identity configuration: nothing is pruned and results are
    /// bit-equal to the dense scaled engine.
    pub fn exact() -> Self {
        Self::threshold(0.0)
    }

    /// Threshold pruning at `tau`.
    pub fn threshold(tau: f64) -> Self {
        Self {
            prune: PruneRule::Threshold(tau),
        }
    }

    /// Top-p (nucleus) pruning at `p`.
    pub fn top_p(p: f64) -> Self {
        Self {
            prune: PruneRule::TopP(p),
        }
    }

    /// Checks the parameter ranges: threshold `>= 0`, top-p in `(0, 1]`.
    pub fn validate(&self) -> Result<(), HmmError> {
        match self.prune {
            PruneRule::Threshold(t) if t.is_finite() && t >= 0.0 => Ok(()),
            PruneRule::TopP(p) if p.is_finite() && p > 0.0 && p <= 1.0 => Ok(()),
            _ => Err(HmmError::InvalidParameters {
                reason: format!(
                    "invalid prune rule {:?}: threshold must be >= 0, top-p in (0, 1]",
                    self.prune
                ),
            }),
        }
    }
}

/// Pruning diagnostics of the last sparse inference run, queryable through
/// [`InferenceWorkspace::sparse_report`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparseReport {
    /// Number of time steps of the run.
    pub steps: usize,
    /// Stored entries of the compiled transition matrix.
    pub nnz: usize,
    /// `nnz / k²` — effective density after static pruning.
    pub density: f64,
    /// Rows the prune rule would have emptied, kept dense verbatim instead.
    pub fallback_rows: usize,
    /// Largest per-row transition mass removed by static pruning (before
    /// renormalization).
    pub static_pruned_max: f64,
}

/// A dense transition matrix compiled for sparse inference: the pruned,
/// renormalized matrix `Ã` in CSR form, stored row-major (forward and
/// backward passes) and transposed (Viterbi), plus static-pruning
/// diagnostics.
///
/// All buffers are reused across [`CsrTransition::compile_into`] calls, so
/// recompiling after a model update (or for a smaller model) performs no
/// allocator traffic once the buffers have grown to their high-water mark.
#[derive(Debug, Clone, Default)]
pub struct CsrTransition {
    k: usize,
    params: SparseParams,
    /// `Ã`, row-major: row `i` holds the kept successors of state `i`.
    fwd: CsrMatrix,
    /// `Ãᵀ`: row `j` holds the kept predecessors of state `j`.
    tr: CsrMatrix,
    fallback_rows: usize,
    static_pruned_max: f64,
    /// Scratch: per-row column order for top-p selection.
    order: Vec<u32>,
    /// Scratch: per-row keep flags.
    keep: Vec<bool>,
}

impl CsrTransition {
    /// Compiles `a` (a `k × k` row-stochastic matrix) under `params`.
    pub fn compile(a: &Matrix, params: SparseParams) -> Result<Self, HmmError> {
        let mut out = Self::default();
        out.compile_into(a, params)?;
        Ok(out)
    }

    /// Recompiles into the existing buffers (grow-only; never shrinks
    /// capacity).
    pub fn compile_into(&mut self, a: &Matrix, params: SparseParams) -> Result<(), HmmError> {
        params.validate()?;
        let k = a.rows();
        if k == 0 || a.cols() != k {
            return Err(HmmError::InvalidParameters {
                reason: format!(
                    "transition matrix must be square and non-empty, got {}x{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        self.k = k;
        self.params = params;
        self.fallback_rows = 0;
        self.static_pruned_max = 0.0;
        self.fwd.begin(k, k);
        self.keep.clear();
        self.keep.resize(k, false);
        for i in 0..k {
            let row = a.row(i);
            let (kept_count, kept_sum, pruned) = self.mark_kept(row, params.prune);
            if kept_count == 0 {
                // The rule emptied the row: keep the original dense row
                // verbatim so inference still has somewhere to go.
                for (j, &v) in row.iter().enumerate() {
                    self.fwd.push(j, v);
                }
                self.fwd.finish_row();
                self.fallback_rows += 1;
                continue;
            }
            if pruned > self.static_pruned_max {
                self.static_pruned_max = pruned;
            }
            if pruned > 0.0 {
                for (j, &v) in row.iter().enumerate() {
                    if self.keep[j] {
                        self.fwd.push(j, v / kept_sum);
                    }
                }
            } else {
                // Nothing with mass was dropped: keep the kept entries
                // bit-for-bit (renormalizing by a sum of ~1.0 would still
                // perturb the last bits).
                for (j, &v) in row.iter().enumerate() {
                    if self.keep[j] {
                        self.fwd.push(j, v);
                    }
                }
            }
            self.fwd.finish_row();
        }
        self.tr.transpose_from(&self.fwd);
        Ok(())
    }

    /// Applies `rule` to one row via the `keep` scratch; returns
    /// `(kept_count, kept_sum, pruned_mass)`.
    fn mark_kept(&mut self, row: &[f64], rule: PruneRule) -> (usize, f64, f64) {
        let k = row.len();
        match rule {
            PruneRule::Threshold(tau) => {
                let mut kept_count = 0;
                let mut kept_sum = 0.0;
                let mut pruned = 0.0;
                for (j, &v) in row.iter().enumerate() {
                    let keep = v >= tau;
                    self.keep[j] = keep;
                    if keep {
                        kept_count += 1;
                        kept_sum += v;
                    } else {
                        pruned += v;
                    }
                }
                (kept_count, kept_sum, pruned)
            }
            PruneRule::TopP(p) => {
                self.order.clear();
                self.order.extend(0..k as u32);
                self.order.sort_unstable_by(|&x, &y| {
                    let (vx, vy) = (row[x as usize], row[y as usize]);
                    vy.partial_cmp(&vx).unwrap().then(x.cmp(&y))
                });
                let total: f64 = row.iter().sum();
                let target = p * total;
                self.keep[..k].fill(false);
                let mut kept_count = 0;
                let mut kept_sum = 0.0;
                for &j in &self.order {
                    if kept_count > 0 && kept_sum >= target {
                        break;
                    }
                    self.keep[j as usize] = true;
                    kept_count += 1;
                    kept_sum += row[j as usize];
                }
                if kept_count == k {
                    // Nothing dropped: report zero pruned mass exactly so the
                    // verbatim (no-renormalization) path is taken.
                    (kept_count, kept_sum, 0.0)
                } else {
                    let mut pruned = 0.0;
                    for (j, &v) in row.iter().enumerate() {
                        if !self.keep[j] {
                            pruned += v;
                        }
                    }
                    (kept_count, kept_sum, pruned)
                }
            }
        }
    }

    /// Number of states `k`.
    pub fn num_states(&self) -> usize {
        self.k
    }

    /// The parameters the matrix was compiled with.
    pub fn params(&self) -> SparseParams {
        self.params
    }

    /// Stored entries of `Ã`.
    pub fn nnz(&self) -> usize {
        self.fwd.nnz()
    }

    /// `nnz / k²`.
    pub fn density(&self) -> f64 {
        self.fwd.nnz() as f64 / (self.k * self.k) as f64
    }

    /// Rows kept dense verbatim because the rule emptied them.
    pub fn fallback_rows(&self) -> usize {
        self.fallback_rows
    }

    /// Largest per-row mass removed by static pruning.
    pub fn static_pruned_max(&self) -> f64 {
        self.static_pruned_max
    }

    /// `Ã` row-major (successors of each state).
    pub fn forward(&self) -> &CsrMatrix {
        &self.fwd
    }

    /// `Ãᵀ` (predecessors of each state) — the layout the Viterbi gather
    /// runs on.
    pub fn transposed(&self) -> &CsrMatrix {
        &self.tr
    }

    /// Materializes `Ã` densely (tests and oracles).
    pub fn to_dense(&self) -> Matrix {
        self.fwd.to_dense()
    }
}

/// The compiled-transition cache stored inside an [`InferenceWorkspace`]:
/// the CSR form plus the exact dense matrix and parameters it was compiled
/// from, so a bitwise comparison detects staleness (e.g. EM updating the
/// transition matrix between calls).
#[derive(Debug, Clone)]
pub(crate) struct SparseCache {
    pub(crate) params: SparseParams,
    pub(crate) dense: Matrix,
    pub(crate) csr: CsrTransition,
}

/// Takes the workspace's compiled-transition cache, recompiling it if the
/// dense matrix or the parameters changed since the last sparse call.
fn take_cache(
    ws: &mut InferenceWorkspace,
    a: &Matrix,
    params: SparseParams,
) -> Result<Box<SparseCache>, HmmError> {
    match ws.sparse.take() {
        Some(mut cache) => {
            if cache.params != params || cache.dense != *a {
                cache.csr.compile_into(a, params)?;
                cache.params = params;
                cache.dense = a.clone();
            }
            Ok(cache)
        }
        None => Ok(Box::new(SparseCache {
            params,
            dense: a.clone(),
            csr: CsrTransition::compile(a, params)?,
        })),
    }
}

/// Runs `f` on the workspace's compile of `a` under `params` (recompiled
/// when `a` or `params` changed since the last sparse call), then leaves the
/// report of the `steps`-step run on the workspace.
pub(crate) fn with_compiled<R>(
    ws: &mut InferenceWorkspace,
    a: &Matrix,
    params: SparseParams,
    steps: usize,
    f: impl FnOnce(&CsrTransition, &mut InferenceWorkspace) -> R,
) -> Result<R, HmmError> {
    let cache = take_cache(ws, a, params)?;
    let out = f(&cache.csr, ws);
    let csr = &cache.csr;
    ws.sparse_report = Some(SparseReport {
        steps,
        nnz: csr.nnz(),
        density: csr.density(),
        fallback_rows: csr.fallback_rows(),
        static_pruned_max: csr.static_pruned_max(),
    });
    ws.sparse = Some(cache);
    Ok(out)
}
