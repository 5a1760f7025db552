//! Scaled-space (Rabiner scaling-coefficient) inference engine.
//!
//! The reference engine in [`crate::forward_backward`] and [`crate::viterbi`]
//! works through per-state log-probabilities: every time step pays for `k`
//! `ln`/`exp` calls in each of the forward, backward and ξ passes, plus fresh
//! `Matrix`/`Vec` allocations per call. This module implements the same
//! recursions in the *linear* domain with per-step scaling coefficients
//! (Rabiner, 1989): each forward row is renormalized to sum to one, the
//! normalizers `c_t` are remembered, and the sequence log-likelihood is
//! recovered exactly as `log P(Y | λ) = Σ_t log c_t` (equivalently
//! `−Σ_t log ĉ_t` for Rabiner's reciprocal coefficients `ĉ_t = 1/c_t`).
//! All scratch storage lives in a caller-provided [`InferenceWorkspace`], so
//! repeated calls perform no allocation beyond the returned statistics.
//!
//! Numerical safety: emission likelihoods are first evaluated in the linear
//! domain ([`Emission::prob_all`]); if an entire row underflows to zero (or
//! overflows), that step is recomputed through shifted log-probabilities
//! using the shared [`crate::util::finite_shift`] guard, exactly like the
//! reference engine. The log-domain reference is kept as the test oracle
//! behind [`crate::reference`], and the two engines are equivalence-tested
//! to 1e-9.
//!
//! Zero probability: a step at which every candidate has probability zero
//! (an observation impossible under every reachable state) is floored to a
//! uniform row that contributes `ln(f64::MIN_POSITIVE)` to the log scale —
//! [`scale_row`] for the forward pass, [`viterbi_scale_row`] for Viterbi.
//! Every recursion here and the streaming decoder in `dhmm_stream` apply
//! this one rule, so they decode such a sequence to the same path with the
//! same finite score.
//!
//! # One set of recursions, two transition layouts
//!
//! The recursions run on a [`Transitions`] operator, which supplies the four
//! steps they take: forward, backward, Viterbi and the ξ sums. Its dense
//! layout is the model's `A` with its cached `Aᵀ` ([`Hmm::transition_t`]);
//! its CSR layout is the pruned, renormalized `Ã` of a [`CsrTransition`]
//! (see [`crate::sparse`]), which stores only the kept entries. One
//! forward–backward body and one Viterbi body are generic over the layout.
//! Each runs in one AVX2 instantiation per layout, chosen at run time once
//! per sequence, so the dense instantiation holds no CSR code. The layouts
//! keep their own kernels, and each kernel keeps its op order, so a layout's
//! results do not depend on which instantiation ran them. Under
//! [`crate::sparse::SparseParams::exact`] the CSR layout stores every entry
//! of `A` in ascending order and its results are the dense layout's bits.
//!
//! Dense max-product: the Viterbi step walks the row-major transition
//! matrix one predecessor `i` at a time and folds row `i` into a register
//! tile of successor columns. A state's running max is one lane of the
//! tile, and the lanes never mix: state `j` still sees its candidates
//! `δ_i · a[(i, j)]` in ascending `i` under the strict-`>` first-occurrence
//! rule, exactly as a column-wise loop over `a[(i, j)]` would. Only the
//! order *across* states changes, so every score and backpointer is
//! bit-identical to the column-wise recursion, while every load of `A` is
//! contiguous and the compare-select runs on whole vectors.
//!
//! Dense sum-product: the forward step walks row-major `A` into 16-state
//! tiles of running sums (ascending predecessor `i`, zero predecessors
//! skipped), and the backward step walks `Aᵀ` the same way, so each
//! `β(t, i)` keeps its one accumulator over ascending `j` without a
//! dependent dot-product chain per state. The ξ sums first store each
//! step's weights `b(y_t) ∘ β(t) / total_t`, then accumulate every 4 × 8
//! block of ξ in registers over all steps before storing it once. Every sum
//! keeps the op order of the row-at-a-time loops these replace, and
//! multiply and add stay separate roundings, so the results are the same
//! bits.
//!
//! CSR steps: the forward step scatters the stored row of each live
//! predecessor into the output row ([`CsrMatrix::axpy_row`]), the backward
//! step takes each state's dot product over its stored successors
//! ([`CsrMatrix::dot_row`]), the Viterbi step gathers each state's stored
//! predecessors from `Ãᵀ` ([`CsrMatrix::argmax_product_row`]), and the ξ
//! sums visit the stored entries with the same `(α · a) · w` products in
//! ascending step order.
//!
//! The streaming filter, Viterbi step and smoother in `dhmm_stream` call the
//! same operator one token at a time ([`Transitions::forward_step`],
//! [`Transitions::viterbi_step`], [`Transitions::backward_step`]), which
//! keeps a stream at `lag ≥ T` bit-identical to the offline recursions.

use crate::emission::Emission;
use crate::error::HmmError;
use crate::forward_backward::SequenceStats;
use crate::model::Hmm;
use crate::sparse::CsrTransition;
use crate::util::finite_shift;
use crate::workspace::InferenceWorkspace;
use dhmm_linalg::{CsrMatrix, Matrix};

/// Which inference engine to run.
///
/// The scaled engine is the default everywhere. Training configs
/// (`BaumWelchConfig`, and the diversified configs in `dhmm-core`) carry one
/// of these so the engine choice is explicit end to end.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum InferenceBackend {
    /// Linear-domain recursions with per-step scaling coefficients over the
    /// model's dense transition matrix, writing into a reusable workspace.
    #[default]
    Scaled,
    /// The same recursions over a CSR-compiled pruned matrix `Ã` (see
    /// [`crate::sparse`]): exact under `Ã`, with how far `Ã` is from `A` in
    /// a queryable [`crate::sparse::SparseReport`]. Bit-equal to `Scaled`
    /// under [`crate::sparse::SparseParams::exact`].
    Sparse(crate::sparse::SparseParams),
}

impl InferenceBackend {
    /// Runs one forward–backward pass with the selected engine.
    pub fn forward_backward<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<SequenceStats, HmmError> {
        let k = model.num_states();
        let t_len = prepare(model, observations, ws, "run forward-backward on")?;
        let mut xi_sum = Matrix::zeros(k, k);
        self.with_transitions(model, t_len, ws, |op, ws| {
            op.passes(model.initial(), t_len, ws, Some(&mut xi_sum));
        })?;

        // Unary posteriors: gamma(t, i) ∝ alpha(t, i) * beta(t, i).
        let mut gamma = Matrix::zeros(t_len, k);
        for t in 0..t_len {
            let row = gamma.row_mut(t);
            let a_row = &ws.alpha[t * k..(t + 1) * k];
            let b_row = &ws.beta[t * k..(t + 1) * k];
            for ((g, &av), &bv) in row.iter_mut().zip(a_row).zip(b_row) {
                *g = av * bv;
            }
            dhmm_linalg::normalize_in_place(row);
        }

        let log_likelihood = ws.log_scales[..t_len].iter().sum();
        Ok(SequenceStats {
            gamma,
            xi_sum,
            log_likelihood,
        })
    }

    /// Computes `log P(Y | λ)` with the selected engine: the forward pass
    /// only, no backward pass and no posteriors.
    pub fn log_likelihood<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<f64, HmmError> {
        let t_len = prepare(model, observations, ws, "run forward-backward on")?;
        self.with_transitions(model, t_len, ws, |op, ws| {
            op.passes(model.initial(), t_len, ws, None);
        })?;
        Ok(ws.log_scales[..t_len].iter().sum())
    }

    /// Decodes the most likely state sequence with the selected engine.
    pub fn viterbi<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<Vec<usize>, HmmError> {
        Ok(self.viterbi_with_score(model, observations, ws)?.0)
    }

    /// Decodes with the selected engine, returning the path and its joint
    /// log-probability.
    ///
    /// The score recursion runs on linear-domain probabilities with
    /// per-step max-normalization by [`viterbi_scale_row`] (which preserves
    /// the argmax and keeps every value in `[0, 1]`); the joint
    /// log-probability is recovered from the accumulated log-normalizers. If
    /// every candidate path hits probability exactly zero at some step, that
    /// row is floored to uniform and the decode goes on, so the score stays
    /// finite.
    pub fn viterbi_with_score<E: Emission>(
        self,
        model: &Hmm<E>,
        observations: &[E::Obs],
        ws: &mut InferenceWorkspace,
    ) -> Result<(Vec<usize>, f64), HmmError> {
        let k = model.num_states();
        let t_len = prepare(model, observations, ws, "decode")?;
        let log_score = self.with_transitions(model, t_len, ws, |op, ws| {
            op.viterbi_passes(model.initial(), t_len, ws)
        })?;

        // Backtrack from the best final state (first occurrence on ties, like
        // the reference).
        let last = if (t_len - 1) % 2 == 0 {
            &ws.delta[..k]
        } else {
            &ws.delta[k..2 * k]
        };
        let (mut best_state, mut best_val) = (0usize, f64::NEG_INFINITY);
        for (j, &v) in last.iter().enumerate() {
            if v > best_val {
                best_val = v;
                best_state = j;
            }
        }
        let mut path = vec![0usize; t_len];
        path[t_len - 1] = best_state;
        for t in (0..t_len - 1).rev() {
            path[t] = ws.psi[(t + 1) * k + path[t + 1]];
        }
        // After normalization the winning entry is exactly 1, but keep the exact
        // identity `score = Σ log m_t + log δ_final(best)` for robustness.
        Ok((path, log_score + best_val.ln()))
    }

    /// Runs `f` on this engine's transition operator for `model`: the dense
    /// `A` under `Scaled`; under `Sparse`, the workspace's cached compile of
    /// `Ã`, recompiled when `A` or the parameters changed, after which the
    /// run's [`crate::sparse::SparseReport`] is left on the workspace.
    fn with_transitions<E: Emission, R>(
        self,
        model: &Hmm<E>,
        t_len: usize,
        ws: &mut InferenceWorkspace,
        f: impl FnOnce(Transitions<'_>, &mut InferenceWorkspace) -> R,
    ) -> Result<R, HmmError> {
        match self {
            Self::Scaled => Ok(f(Transitions::dense(model), ws)),
            Self::Sparse(params) => {
                crate::sparse::with_compiled(ws, model.transition(), params, t_len, |csr, ws| {
                    f(Transitions::Csr(csr), ws)
                })
            }
        }
    }
}

/// Checks that the sequence is not empty, sizes the workspace and fills its
/// emission rows; returns the sequence length. `what` completes the error
/// message "cannot … an empty sequence".
fn prepare<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
    what: &str,
) -> Result<usize, HmmError> {
    let t_len = observations.len();
    if t_len == 0 {
        return Err(HmmError::InvalidData {
            reason: format!("cannot {what} an empty sequence"),
        });
    }
    ws.ensure(model.num_states(), t_len);
    fill_emissions(model, observations, ws);
    Ok(t_len)
}

/// Fills `row` with the linear-domain emission likelihoods `b_i(y_t)` of one
/// observation, rescuing a degenerate row (all-zero underflow or a non-finite
/// density) through shifted log-space, and returns the per-step log shift
/// applied (0.0 on the fast path).
///
/// This is the single source of the engine's per-step emission numerics:
/// the offline engine calls it per time step via `fill_emissions`, and the
/// streaming decoder in `dhmm_stream` calls it per pushed token, so the two
/// see bit-identical emission rows.
pub fn emission_likelihood_row<E: Emission>(emission: &E, obs: &E::Obs, row: &mut [f64]) -> f64 {
    emission.prob_all(obs, row);
    let degenerate = row.iter().any(|v| !v.is_finite()) || row.iter().all(|&v| v == 0.0);
    if degenerate {
        // Underflow (or a non-finite density): redo the step through
        // shifted log-space so the scaled recursions see the same
        // per-step-normalized values as the reference engine.
        emission.log_prob_all(obs, row);
        let shift = finite_shift(row);
        for v in row.iter_mut() {
            let e = (*v - shift).exp();
            *v = if e.is_finite() { e } else { 0.0 };
        }
        shift
    } else {
        0.0
    }
}

/// Fills the workspace emission buffer with linear-domain likelihoods and
/// records per-step shifts for the rows that had to be rescued through
/// shifted log-space.
fn fill_emissions<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) {
    let k = model.num_states();
    for (t, obs) in observations.iter().enumerate() {
        let row = &mut ws.emis[t * k..(t + 1) * k];
        ws.shifts[t] = emission_likelihood_row(model.emission(), obs, row);
    }
}

/// Normalizes one scaled forward row in place; mirrors the reference
/// engine's `normalize_in_place` + floored-log semantics exactly. Returns
/// the raw normalizer `c̃_t` (0.0 when the row had to be floored to uniform)
/// and the log scaling constant `log c_t = log c̃_t + shift`.
///
/// Public for the same reason as [`emission_likelihood_row`]: the streaming
/// filter must renormalize with bit-identical semantics.
pub fn scale_row(row: &mut [f64], shift: f64) -> (f64, f64) {
    let c: f64 = row.iter().sum();
    if c > 0.0 && c.is_finite() {
        for v in row.iter_mut() {
            *v /= c;
        }
        (c, c.ln() + shift)
    } else {
        let u = 1.0 / row.len() as f64;
        for v in row.iter_mut() {
            *v = u;
        }
        (0.0, f64::MIN_POSITIVE.ln() + shift)
    }
}

/// Max-normalizes one Viterbi score row in place and returns the step's log
/// scaling term: the one zero-probability rule of every Viterbi recursion.
/// The offline recursion over either transition layout and the streaming
/// decoder's per-token step all call it.
///
/// * When the row's maximum `m` is positive and finite, the row is divided
///   by `m` and the term is `ln m + shift`.
/// * Otherwise every candidate path has probability zero at this step (or
///   the row is not finite): the row is set to uniform and the term is
///   `ln(f64::MIN_POSITIVE) + shift`, the same floor [`scale_row`] applies
///   to the forward row. The recursion goes on from the uniform row, so the
///   score stays finite and the states on either side of the step are still
///   ranked.
pub fn viterbi_scale_row(row: &mut [f64], shift: f64) -> f64 {
    let m = row.iter().cloned().fold(0.0_f64, f64::max);
    if m.is_finite() && m > 0.0 {
        for v in row.iter_mut() {
            *v /= m;
        }
        m.ln() + shift
    } else {
        row.fill(1.0 / row.len() as f64);
        f64::MIN_POSITIVE.ln() + shift
    }
}

/// The transition operator the scaled recursions run on, in one of two
/// layouts. Both supply the same four steps, each in its own kernel and op
/// order (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub enum Transitions<'a> {
    /// The dense `k × k` matrix `A` and its transpose `Aᵀ`, as a model
    /// keeps them ([`Transitions::dense`]).
    Dense {
        /// `A`, row-major: row `i` holds the successors of state `i`.
        a: &'a Matrix,
        /// `Aᵀ`: row `j` holds the predecessors of state `j`.
        at: &'a Matrix,
    },
    /// The pruned, renormalized `Ã` of a compiled [`CsrTransition`], stored
    /// row-major and transposed.
    Csr(&'a CsrTransition),
}

impl<'a> Transitions<'a> {
    /// The dense operator of `model`: its `A` and cached `Aᵀ`.
    pub fn dense<E: Emission>(model: &'a Hmm<E>) -> Self {
        Self::Dense {
            a: model.transition(),
            at: model.transition_t(),
        }
    }

    /// One forward step: for every state `j`,
    /// `out[j] = (Σ_i prev[i] · a[(i, j)]) · e_row[j]`, skipping the
    /// predecessors with `prev[i] == 0`. The caller rescales the row
    /// ([`scale_row`]). This is the offline forward pass's step, so a
    /// stream's filtered rows equal the offline ones bit for bit. It
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// If the operator is not `k × k` for `k = prev.len()`, or `e_row` or
    /// `out` is not `k` long.
    pub fn forward_step(self, prev: &[f64], e_row: &[f64], out: &mut [f64]) {
        let k = prev.len();
        self.assert_states(k);
        assert!(
            e_row.len() == k && out.len() == k,
            "forward_step rows must all have k entries"
        );
        match self {
            Self::Dense { a, .. } => forward_step_impl(a, prev, e_row, out),
            Self::Csr(csr) => csr.forward_step(prev, e_row, out),
        }
    }

    /// One backward step: for every state `i`, `out[i] = Σ_j a[(i, j)] ·
    /// w[j]` in ascending `j`, where `w[j]` is the caller's
    /// `b_j(y_{t+1}) · β(t+1, j)`. The caller rescales the row. It
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// If the operator is not `k × k` for `k = w.len()`, or `out` is not
    /// `k` long.
    pub fn backward_step(self, w: &[f64], out: &mut [f64]) {
        self.assert_states(w.len());
        assert_eq!(
            out.len(),
            w.len(),
            "backward_step rows must all have k entries"
        );
        match self {
            Self::Dense { at, .. } => backward_step_impl(at, w, out),
            Self::Csr(csr) => csr.backward_step(w, out),
        }
    }

    /// One max-product step: for every state `j`,
    /// `cur[j] = (max_i prev[i] · a[(i, j)]) · e_row[j]`, with the
    /// maximizing predecessor in `psi[j]` (the first one on ties). The
    /// caller rescales the row ([`viterbi_scale_row`]). This is the offline
    /// Viterbi recursion's step, which keeps a stream at `lag ≥ T`
    /// bit-identical to the offline decode. It allocates nothing; the dense
    /// layout runs its AVX2 instantiation where the CPU has AVX2.
    ///
    /// # Panics
    ///
    /// If the operator is not `k × k` for `k = prev.len()`, or `e_row`,
    /// `cur` or `psi` is not `k` long.
    pub fn viterbi_step(self, prev: &[f64], e_row: &[f64], cur: &mut [f64], psi: &mut [usize]) {
        let k = prev.len();
        self.assert_states(k);
        assert!(
            e_row.len() == k && cur.len() == k && psi.len() == k,
            "viterbi_step rows must all have k entries"
        );
        match self {
            Self::Dense { a, .. } => {
                #[cfg(target_arch = "x86_64")]
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: guarded by runtime detection; the function
                    // only requires the AVX2 feature it declares.
                    return unsafe { viterbi_step_avx2(a, prev, e_row, cur, psi) };
                }
                viterbi_step_impl(a, prev, e_row, cur, psi);
            }
            Self::Csr(csr) => csr.viterbi_step(prev, e_row, cur, psi),
        }
    }

    /// Panics unless the operator is `k × k`.
    fn assert_states(self, k: usize) {
        let square = match self {
            Self::Dense { a, at } => a.shape() == (k, k) && at.shape() == (k, k),
            Self::Csr(csr) => csr.num_states() == k,
        };
        assert!(square, "transition must be k x k");
    }

    /// Runs the forward pass of one sequence into `ws` and, when `xi` is
    /// given, the backward pass and the pairwise-posterior sums into `xi`
    /// (`k × k`, zero on entry). Assumes `ws` is sized and its emission rows
    /// filled. The layout's instantiation of the one body is chosen here.
    fn passes(
        self,
        initial: &[f64],
        t_len: usize,
        ws: &mut InferenceWorkspace,
        xi: Option<&mut Matrix>,
    ) {
        match self {
            Self::Dense { a, at } => passes(DenseSteps { a, at }, initial, t_len, ws, xi),
            Self::Csr(csr) => passes(csr, initial, t_len, ws, xi),
        }
    }

    /// Runs the Viterbi score recursion of one sequence into `ws.delta` and
    /// `ws.psi` and returns its accumulated log-normalizers. Assumes `ws` is
    /// sized and its emission rows filled.
    fn viterbi_passes(self, initial: &[f64], t_len: usize, ws: &mut InferenceWorkspace) -> f64 {
        match self {
            Self::Dense { a, at } => viterbi_passes(DenseSteps { a, at }, initial, t_len, ws),
            Self::Csr(csr) => viterbi_passes(csr, initial, t_len, ws),
        }
    }
}

/// The four steps of the scaled recursions, one implementation per layout
/// of [`Transitions`]. Every method is `#[inline(always)]`, so each runs
/// inside whichever instantiation of the recursion bodies calls it.
trait Steps: Copy {
    /// `out[j] = (Σ_i prev[i] · a[(i, j)]) · e_row[j]`, ascending `i`, zero
    /// predecessors skipped.
    fn forward_step(self, prev: &[f64], e_row: &[f64], out: &mut [f64]);
    /// `out[i] = Σ_j a[(i, j)] · w[j]`, ascending `j`.
    fn backward_step(self, w: &[f64], out: &mut [f64]);
    /// `cur[j] = (max_i prev[i] · a[(i, j)]) · e_row[j]`, first maximizer
    /// in `psi[j]`.
    fn viterbi_step(self, prev: &[f64], e_row: &[f64], cur: &mut [f64], psi: &mut [usize]);
    /// Sets `out[(i, j)] = Σ_n (α_{t_n − 1, i} · a[(i, j)]) · w[n][j]` over
    /// the steps `t_n = steps[n]` in ascending order, skipping the terms
    /// whose `α_{t_n − 1, i}` is zero. `out` is zero on entry; `w` holds
    /// one weight row per step, each `k.next_multiple_of(XI_COLS)` long.
    fn xi_sums(self, alpha: &[f64], w: &[f64], steps: &[usize], out: &mut [f64]);
}

/// The dense layout's steps: the register-tiled kernels below.
#[derive(Clone, Copy)]
struct DenseSteps<'a> {
    a: &'a Matrix,
    at: &'a Matrix,
}

impl Steps for DenseSteps<'_> {
    #[inline(always)]
    fn forward_step(self, prev: &[f64], e_row: &[f64], out: &mut [f64]) {
        forward_step_impl(self.a, prev, e_row, out);
    }

    #[inline(always)]
    fn backward_step(self, w: &[f64], out: &mut [f64]) {
        backward_step_impl(self.at, w, out);
    }

    #[inline(always)]
    fn viterbi_step(self, prev: &[f64], e_row: &[f64], cur: &mut [f64], psi: &mut [usize]) {
        viterbi_step_impl(self.a, prev, e_row, cur, psi);
    }

    #[inline(always)]
    fn xi_sums(self, alpha: &[f64], w: &[f64], steps: &[usize], out: &mut [f64]) {
        xi_tiles_impl(self.a, alpha, w, steps, out);
    }
}

/// The CSR layout's steps, over the stored entries only. Column indices
/// ascend within each stored row, so every sum keeps the dense layout's op
/// order over the entries it visits.
impl Steps for &CsrTransition {
    #[inline(always)]
    fn forward_step(self, prev: &[f64], e_row: &[f64], out: &mut [f64]) {
        // Scatter one source row per live predecessor: zero predecessors
        // skip their whole row, and ascending `i` keeps each column's
        // accumulation order.
        out.fill(0.0);
        let fwd: &CsrMatrix = self.forward();
        for (i, &p) in prev.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            fwd.axpy_row(i, p, out);
        }
        for (r, &e) in out.iter_mut().zip(e_row) {
            *r *= e;
        }
    }

    #[inline(always)]
    fn backward_step(self, w: &[f64], out: &mut [f64]) {
        let fwd: &CsrMatrix = self.forward();
        for (i, r) in out.iter_mut().enumerate() {
            *r = fwd.dot_row(i, w);
        }
    }

    #[inline(always)]
    fn viterbi_step(self, prev: &[f64], e_row: &[f64], cur: &mut [f64], psi: &mut [usize]) {
        // Gather over each state's stored predecessors (its row of `Ãᵀ`).
        let tr = self.transposed();
        for (j, (c, s)) in cur.iter_mut().zip(psi.iter_mut()).enumerate() {
            let (best, best_i) = tr.argmax_product_row(j, prev);
            *c = best * e_row[j];
            *s = best_i;
        }
    }

    #[inline(always)]
    fn xi_sums(self, alpha: &[f64], w: &[f64], steps: &[usize], out: &mut [f64]) {
        let k = self.num_states();
        let stride = k.next_multiple_of(XI_COLS);
        let fwd: &CsrMatrix = self.forward();
        for (n, &t) in steps.iter().enumerate() {
            let wt = &w[n * stride..n * stride + k];
            for (i, &ap) in alpha[(t - 1) * k..t * k].iter().enumerate() {
                if ap == 0.0 {
                    continue;
                }
                let (cols, vals) = fwd.row(i);
                let xi_row = &mut out[i * k..(i + 1) * k];
                for (&j, &aij) in cols.iter().zip(vals) {
                    xi_row[j as usize] += ap * aij * wt[j as usize];
                }
            }
        }
    }
}

/// Covers the states `0..k` of one recursion step with register tiles.
///
/// Each dense step kernel below is written as a [`StateTile`] body. A lane
/// of a tile belongs to one output state and never mixes with its
/// neighbours, so a state's result does not depend on which tile computes
/// it. That is what lets the cover overlap tiles.
trait StateTile {
    /// Computes output states `j0..j0 + W`.
    fn tile<const W: usize>(&mut self, j0: usize);
}

/// Runs `body` over `0..k`: `W`-wide tiles first. When `k ≥ W` and more
/// than `W / 2` states are left, one overlapping tile reruns the last `W`
/// states and rewrites the overlap with the same bits. Below that, two
/// overlapping 8-wide tiles cover `9 ≤ k < 16`, and 8-, 4-, 2- and 1-wide
/// instances of the same body cover the rest (so `W` is 8 or 16). Leftover
/// states never run a separate scalar loop. Each choice was the faster one
/// when measured at that size.
#[inline(always)]
fn cover_states<const W: usize, B: StateTile>(k: usize, body: &mut B) {
    let full = k - k % W;
    for j0 in (0..full).step_by(W) {
        body.tile::<W>(j0);
    }
    let rest = k - full;
    if k >= W && rest > W / 2 {
        body.tile::<W>(k - W);
        return;
    }
    let mut j0 = full;
    if rest > 8 {
        // 9 ≤ k < 16 = W: two overlapping 8-wide tiles.
        body.tile::<8>(0);
        body.tile::<8>(k - 8);
        return;
    }
    if rest & 8 != 0 {
        body.tile::<8>(j0);
        j0 += 8;
    }
    if rest & 4 != 0 {
        body.tile::<4>(j0);
        j0 += 4;
    }
    if rest & 2 != 0 {
        body.tile::<2>(j0);
        j0 += 2;
    }
    if rest & 1 != 0 {
        body.tile::<1>(j0);
    }
}

/// Columns per register tile of the dense Viterbi step: two 256-bit vectors
/// each of running max and argmax. On a 2-vCPU AVX2 Xeon an 8-wide tile ran
/// the k = 64 step about 4x faster than the column-wise loop; a 16-wide
/// tile was slower than 8, because the compiler no longer kept its argmax
/// select in vectors.
const VITERBI_TILE: usize = 8;

/// AVX2 instantiation of [`viterbi_step_impl`] — identical body, wider
/// autovectorized lanes (the compare-select needs `vblendvpd`), bit-identical
/// results.
///
/// # Safety
///
/// The CPU running it must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn viterbi_step_avx2(
    a: &Matrix,
    prev: &[f64],
    e_row: &[f64],
    cur: &mut [f64],
    psi: &mut [usize],
) {
    viterbi_step_impl(a, prev, e_row, cur, psi);
}

/// The dense layout's max-product step.
///
/// The recursion is computed row-major. The columns are cut into tiles of
/// 8 states; for each tile the step walks `A` one predecessor `i` at a
/// time and folds the tile's slice of row `i` into fixed-size max and
/// argmax accumulators that the compiler keeps in vector registers. Each
/// accumulator lane belongs to one state, so state `j` sees its candidates
/// in ascending `i` and a candidate replaces the running max only when
/// strictly greater: the column-wise loop's op order, bit for bit. The
/// argmax is carried as an `f64` lane (every index below 2⁵³ is exact), so
/// the compare-select stays in one vector domain.
#[inline(always)]
fn viterbi_step_impl(a: &Matrix, prev: &[f64], e_row: &[f64], cur: &mut [f64], psi: &mut [usize]) {
    let mut body = ViterbiTile {
        a: a.as_slice(),
        prev,
        e_row,
        cur,
        psi,
    };
    cover_states::<VITERBI_TILE, _>(prev.len(), &mut body);
}

/// The tile body of the dense Viterbi step.
struct ViterbiTile<'a> {
    a: &'a [f64],
    prev: &'a [f64],
    e_row: &'a [f64],
    cur: &'a mut [f64],
    psi: &'a mut [usize],
}

impl StateTile for ViterbiTile<'_> {
    #[inline(always)]
    fn tile<const W: usize>(&mut self, j0: usize) {
        let k = self.prev.len();
        let mut best = [f64::NEG_INFINITY; W];
        let mut besti = [0.0f64; W];
        let mut fi = 0.0f64;
        // Row offsets by index rather than `chunks_exact(k)`, whose length
        // is a 64-bit division per tile: at small k that division cost more
        // than the tile's arithmetic.
        for (i, &p) in self.prev.iter().enumerate() {
            let o = i * k + j0;
            let r: &[f64; W] = self.a[o..o + W].try_into().expect("W-long slice");
            for l in 0..W {
                let cand = p * r[l];
                // `select(cand > best, cand, best)` keeps the old value on
                // ties (the strict-`>` first-occurrence rule) and lowers to
                // a vector max; the argmax blend reuses its mask.
                let better = cand > best[l];
                best[l] = if better { cand } else { best[l] };
                besti[l] = if better { fi } else { besti[l] };
            }
            fi += 1.0;
        }
        let e: &[f64; W] = self.e_row[j0..j0 + W].try_into().expect("W-long slice");
        let c: &mut [f64; W] = (&mut self.cur[j0..j0 + W])
            .try_into()
            .expect("W-long slice");
        let s: &mut [usize; W] = (&mut self.psi[j0..j0 + W])
            .try_into()
            .expect("W-long slice");
        for l in 0..W {
            c[l] = best[l] * e[l];
            s[l] = besti[l] as usize;
        }
    }
}

/// Output states per register tile of the dense forward and backward
/// steps: four 256-bit accumulators, enough independent add chains to cover
/// the add latency.
const SUM_TILE: usize = 16;

/// The dense layout's forward step.
///
/// Like the Viterbi step, it walks row-major `A` one predecessor `i` at a
/// time into register tiles of output states. Each lane sums
/// `prev[i] · a[(i, j)]` from `+0.0` in ascending `i` and skips a
/// predecessor with `prev[i] == 0`, then multiplies by `e_row[j]`: the op
/// order of a row-at-a-time accumulation into `out`, so the result is the
/// same bits.
#[inline(always)]
fn forward_step_impl(a: &Matrix, prev: &[f64], e_row: &[f64], out: &mut [f64]) {
    let mut body = ForwardTile {
        a: a.as_slice(),
        prev,
        e_row,
        out,
    };
    cover_states::<SUM_TILE, _>(prev.len(), &mut body);
}

/// The tile body of the dense forward step.
struct ForwardTile<'a> {
    a: &'a [f64],
    prev: &'a [f64],
    e_row: &'a [f64],
    out: &'a mut [f64],
}

impl StateTile for ForwardTile<'_> {
    #[inline(always)]
    fn tile<const W: usize>(&mut self, j0: usize) {
        let k = self.prev.len();
        let mut acc = [0.0f64; W];
        for (i, &p) in self.prev.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let o = i * k + j0;
            let r: &[f64; W] = self.a[o..o + W].try_into().expect("W-long slice");
            for l in 0..W {
                acc[l] += p * r[l];
            }
        }
        let e: &[f64; W] = self.e_row[j0..j0 + W].try_into().expect("W-long slice");
        let out: &mut [f64; W] = (&mut self.out[j0..j0 + W])
            .try_into()
            .expect("W-long slice");
        for l in 0..W {
            out[l] = acc[l] * e[l];
        }
    }
}

/// The dense layout's backward step, over `at = Aᵀ`.
///
/// It walks row-major `Aᵀ` one successor `j` at a time into register tiles
/// of output states, so each `β[i]` keeps its single accumulator over
/// ascending `j` — the op order of a dot product of row `i` of `A` with
/// `w` — while every load is contiguous and the tile's independent lanes
/// hide the add latency that a lone dot-product chain pays.
#[inline(always)]
fn backward_step_impl(at: &Matrix, w: &[f64], out: &mut [f64]) {
    let mut body = BackwardTile {
        at: at.as_slice(),
        w,
        out,
    };
    cover_states::<SUM_TILE, _>(w.len(), &mut body);
}

/// The tile body of the dense backward step.
struct BackwardTile<'a> {
    at: &'a [f64],
    w: &'a [f64],
    out: &'a mut [f64],
}

impl StateTile for BackwardTile<'_> {
    #[inline(always)]
    fn tile<const W: usize>(&mut self, i0: usize) {
        let k = self.w.len();
        let mut acc = [0.0f64; W];
        for (j, &wj) in self.w.iter().enumerate() {
            let o = j * k + i0;
            let r: &[f64; W] = self.at[o..o + W].try_into().expect("W-long slice");
            for l in 0..W {
                acc[l] += r[l] * wj;
            }
        }
        self.out[i0..i0 + W].copy_from_slice(&acc);
    }
}

/// Rows and columns of one ξ register tile: eight 256-bit accumulators.
const XI_ROWS: usize = 4;
const XI_COLS: usize = 8;

/// The dense layout's ξ sums (see [`Steps::xi_sums`]).
///
/// Each `XI_ROWS × XI_COLS` block of `out` accumulates in registers over
/// every step before it is stored once, where a row-at-a-time pass would
/// load and store the row of `out` once per predecessor and step. Every
/// entry keeps its own accumulator from `+0.0` in ascending step order, so
/// the sums are bit-identical to that pass. A tile past the last row reuses
/// row `k − 1` and one past the last column reads zero weights; those lanes
/// are never stored.
#[inline(always)]
fn xi_tiles_impl(a: &Matrix, alpha: &[f64], w: &[f64], steps: &[usize], out: &mut [f64]) {
    let k = a.rows();
    let stride = k.next_multiple_of(XI_COLS);
    let data = a.as_slice();
    for i0 in (0..k).step_by(XI_ROWS) {
        let rows: [usize; XI_ROWS] = std::array::from_fn(|r| (i0 + r).min(k - 1));
        for j0 in (0..k).step_by(XI_COLS) {
            let cols = (k - j0).min(XI_COLS);
            let mut a_tile = [[0.0f64; XI_COLS]; XI_ROWS];
            for (tile_row, &i) in a_tile.iter_mut().zip(&rows) {
                tile_row[..cols].copy_from_slice(&data[i * k + j0..i * k + j0 + cols]);
            }
            let mut acc = [[0.0f64; XI_COLS]; XI_ROWS];
            for (n, &t) in steps.iter().enumerate() {
                let alpha_prev = &alpha[(t - 1) * k..t * k];
                let o = n * stride + j0;
                let wt: &[f64; XI_COLS] = w[o..o + XI_COLS].try_into().expect("tile-wide slice");
                for r in 0..XI_ROWS {
                    let ap = alpha_prev[rows[r]];
                    if ap == 0.0 {
                        continue;
                    }
                    for c in 0..XI_COLS {
                        acc[r][c] += ap * a_tile[r][c] * wt[c];
                    }
                }
            }
            for (r, acc_row) in acc.iter().enumerate().take(k - i0) {
                let o = (i0 + r) * k + j0;
                out[o..o + cols].copy_from_slice(&acc_row[..cols]);
            }
        }
    }
}

/// Runs [`passes_impl`] in its AVX2 instantiation for the layout `S` when
/// the CPU has AVX2, else on the baseline target: chosen once per sequence.
fn passes<S: Steps>(
    op: S,
    initial: &[f64],
    t_len: usize,
    ws: &mut InferenceWorkspace,
    xi: Option<&mut Matrix>,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by runtime detection; the function only requires
        // the AVX2 feature it declares.
        return unsafe { passes_avx2(op, initial, t_len, ws, xi) };
    }
    passes_impl(op, initial, t_len, ws, xi);
}

/// AVX2 instantiation of [`passes_impl`] — identical body, bit-identical
/// results.
///
/// # Safety
///
/// The CPU running it must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn passes_avx2<S: Steps>(
    op: S,
    initial: &[f64],
    t_len: usize,
    ws: &mut InferenceWorkspace,
    xi: Option<&mut Matrix>,
) {
    passes_impl(op, initial, t_len, ws, xi);
}

/// The one forward–backward body: the scaled forward pass (alpha rows, raw
/// and log scaling constants) and, when `xi` is given, the backward pass and
/// the pairwise-posterior sums into `xi` (`k × k`, zero on entry).
#[inline(always)]
fn passes_impl<S: Steps>(
    op: S,
    initial: &[f64],
    t_len: usize,
    ws: &mut InferenceWorkspace,
    xi: Option<&mut Matrix>,
) {
    let k = initial.len();

    // --- Forward pass.
    {
        let row = &mut ws.alpha[..k];
        for ((r, &p), &e) in row.iter_mut().zip(initial).zip(&ws.emis[..k]) {
            *r = p * e;
        }
        let (c, log_c) = scale_row(row, ws.shifts[0]);
        ws.scales[0] = c;
        ws.log_scales[0] = log_c;
    }
    for t in 1..t_len {
        let (prev, rest) = ws.alpha.split_at_mut(t * k);
        let row = &mut rest[..k];
        op.forward_step(&prev[(t - 1) * k..], &ws.emis[t * k..(t + 1) * k], row);
        let (c, log_c) = scale_row(row, ws.shifts[t]);
        ws.scales[t] = c;
        ws.log_scales[t] = log_c;
    }
    let Some(xi) = xi else {
        return;
    };

    // --- Backward pass, scaled with per-row sums (the exact constant is
    // irrelevant because gamma and xi are re-normalized).
    ws.beta[(t_len - 1) * k..t_len * k].fill(1.0);
    for t in (0..t_len - 1).rev() {
        let (cur_beta, next_beta) = ws.beta.split_at_mut((t + 1) * k);
        // w[j] = b_j(y_{t+1}) * beta(t+1, j), precomputed once per step.
        let w = &mut ws.row[..k];
        for ((wv, &e), &b) in w
            .iter_mut()
            .zip(&ws.emis[(t + 1) * k..])
            .zip(&next_beta[..k])
        {
            *wv = e * b;
        }
        let row = &mut cur_beta[t * k..];
        op.backward_step(w, row);
        let norm: f64 = row.iter().sum();
        if norm > 0.0 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }

    // --- Pairwise posteriors summed over time. The per-step normalizer
    // Σ_ij α(t−1,i)·A_ij·b_j(y_t)·β(t,j) equals c̃_t · Σ_j α(t,j)·β(t,j),
    // so it comes from quantities already in the workspace. A step with a
    // floored forward row or a degenerate normalizer contributes nothing.
    let stride = k.next_multiple_of(XI_COLS);
    if ws.xi_weights.len() < t_len * stride {
        ws.xi_weights.resize(t_len * stride, 0.0);
    }
    ws.xi_steps.clear();
    for t in 1..t_len {
        if ws.scales[t] == 0.0 {
            continue;
        }
        let alpha_t = &ws.alpha[t * k..(t + 1) * k];
        let beta_t = &ws.beta[t * k..(t + 1) * k];
        let mut ab = 0.0;
        for (&av, &bv) in alpha_t.iter().zip(beta_t) {
            ab += av * bv;
        }
        let total = ws.scales[t] * ab;
        if !total.is_finite() || total <= 0.0 {
            continue;
        }
        // w[j] = b_j(y_t) * beta(t, j) / total.
        let o = ws.xi_steps.len() * stride;
        let (w, pad) = ws.xi_weights[o..o + stride].split_at_mut(k);
        for ((wv, &e), &b) in w.iter_mut().zip(&ws.emis[t * k..]).zip(beta_t) {
            *wv = e * b / total;
        }
        pad.fill(0.0);
        ws.xi_steps.push(t);
    }
    op.xi_sums(&ws.alpha, &ws.xi_weights, &ws.xi_steps, xi.as_mut_slice());
}

/// Runs [`viterbi_passes_impl`] in its AVX2 instantiation for the layout
/// `S` when the CPU has AVX2, else on the baseline target: chosen once per
/// sequence.
fn viterbi_passes<S: Steps>(
    op: S,
    initial: &[f64],
    t_len: usize,
    ws: &mut InferenceWorkspace,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by runtime detection; the function only requires
        // the AVX2 feature it declares.
        return unsafe { viterbi_passes_avx2(op, initial, t_len, ws) };
    }
    viterbi_passes_impl(op, initial, t_len, ws)
}

/// AVX2 instantiation of [`viterbi_passes_impl`] — identical body,
/// bit-identical results.
///
/// # Safety
///
/// The CPU running it must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn viterbi_passes_avx2<S: Steps>(
    op: S,
    initial: &[f64],
    t_len: usize,
    ws: &mut InferenceWorkspace,
) -> f64 {
    viterbi_passes_impl(op, initial, t_len, ws)
}

/// The one Viterbi body: the max-product score recursion, each row
/// normalized by [`viterbi_scale_row`], with the rolling score rows in
/// `ws.delta` (time `t`'s row at `delta[(t % 2) * k ..]`) and the
/// backpointers in `ws.psi`. Returns the summed log-normalizers.
#[inline(always)]
fn viterbi_passes_impl<S: Steps>(
    op: S,
    initial: &[f64],
    t_len: usize,
    ws: &mut InferenceWorkspace,
) -> f64 {
    let k = initial.len();
    let mut log_score = 0.0;
    {
        let (prev, _) = ws.delta.split_at_mut(k);
        for (j, p) in prev.iter_mut().enumerate() {
            *p = initial[j] * ws.emis[j];
        }
        log_score += viterbi_scale_row(prev, ws.shifts[0]);
    }
    for t in 1..t_len {
        let (first, rest) = ws.delta.split_at_mut(k);
        let second = &mut rest[..k];
        // Alternate the two rolling rows each step.
        let (prev, cur): (&[f64], &mut [f64]) = if t % 2 == 1 {
            (first, second)
        } else {
            (second, first)
        };
        let e_row = &ws.emis[t * k..(t + 1) * k];
        let psi_row = &mut ws.psi[t * k..(t + 1) * k];
        op.viterbi_step(prev, e_row, cur, psi_row);
        log_score += viterbi_scale_row(cur, ws.shifts[t]);
    }
    log_score
}

/// Runs the scaled forward–backward algorithm for one sequence over the
/// model's dense transitions ([`InferenceBackend::Scaled`]), writing all
/// intermediates into `ws`, and returns the EM sufficient statistics.
///
/// Equivalent to [`crate::reference::forward_backward`] to within 1e-9 (see
/// the property suite in `tests/properties.rs`), but allocation-free apart
/// from the returned `gamma`/`xi_sum` matrices.
pub fn forward_backward_scaled<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<SequenceStats, HmmError> {
    InferenceBackend::Scaled.forward_backward(model, observations, ws)
}

/// Computes `log P(Y | λ)` with the scaled forward pass only — no backward
/// pass, no posteriors — which is the cheapest exact likelihood available.
pub fn log_likelihood_scaled<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<f64, HmmError> {
    InferenceBackend::Scaled.log_likelihood(model, observations, ws)
}

/// Scaled-space Viterbi decoding over the model's dense transitions (see
/// [`InferenceBackend::viterbi_with_score`]).
pub fn viterbi_scaled<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<Vec<usize>, HmmError> {
    Ok(viterbi_scaled_with_score(model, observations, ws)?.0)
}

/// Scaled-space Viterbi returning the path and `max_X log P(X, Y | λ)`
/// ([`InferenceBackend::viterbi_with_score`] over the model's dense
/// transitions).
///
/// The path and score equal the streaming decoder's at `lag ≥ T` bit for
/// bit. The log-domain oracle agrees whenever the model's optimum has
/// positive probability, which the equivalence suite pins on random models.
pub fn viterbi_scaled_with_score<E: Emission>(
    model: &Hmm<E>,
    observations: &[E::Obs],
    ws: &mut InferenceWorkspace,
) -> Result<(Vec<usize>, f64), HmmError> {
    InferenceBackend::Scaled.viterbi_with_score(model, observations, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The column-wise max-product loop `viterbi_step` replaces: state `j`
    /// reads `a[(i, j)]` down column `j`, ascending `i`, strict `>`.
    fn columnwise_step(
        a: &Matrix,
        prev: &[f64],
        e_row: &[f64],
        cur: &mut [f64],
        psi: &mut [usize],
    ) {
        for j in 0..prev.len() {
            let mut best = f64::NEG_INFINITY;
            let mut best_i = 0;
            for (i, &dp) in prev.iter().enumerate() {
                let s = dp * a[(i, j)];
                if s > best {
                    best = s;
                    best_i = i;
                }
            }
            cur[j] = best * e_row[j];
            psi[j] = best_i;
        }
    }

    /// One step input of size `k`, shaped by `case` to force ties: 0 is
    /// generic, 1 quantizes every value to a handful of levels (ties
    /// everywhere, exact zeros), 2 duplicates rows and columns of `A` and
    /// repeats `prev` values, 3 zeroes a third of `A`, 4 zeroes `prev`.
    fn step_input(k: usize, case: usize, rng: &mut StdRng) -> (Matrix, Vec<f64>, Vec<f64>) {
        let level = |rng: &mut StdRng| f64::from(rng.gen_range(0..4u8)) * 0.25;
        let mut a = Matrix::from_fn(k, k, |_, _| rng.gen_range(0.0..1.0));
        let mut prev: Vec<f64> = (0..k).map(|_| rng.gen_range(0.0..1.0)).collect();
        let e_row: Vec<f64> = (0..k)
            .map(|j| {
                if j % 7 == 3 {
                    0.0
                } else {
                    rng.gen_range(0.0..1.0)
                }
            })
            .collect();
        match case {
            1 => {
                a = Matrix::from_fn(k, k, |_, _| level(rng));
                prev = (0..k).map(|_| level(rng)).collect();
            }
            2 => {
                for i in 0..k {
                    let (si, sj) = (rng.gen_range(0..k), rng.gen_range(0..k));
                    for c in 0..k {
                        a[(i, c)] = a[(si, c)];
                    }
                    for r in 0..k {
                        a[(r, i)] = a[(r, sj)];
                    }
                    prev[i] = prev[si];
                }
            }
            3 => {
                for i in 0..k {
                    for j in 0..k {
                        if rng.gen_range(0..3) == 0 {
                            a[(i, j)] = 0.0;
                        }
                    }
                }
            }
            4 => prev.fill(0.0),
            _ => {}
        }
        (a, prev, e_row)
    }

    /// The dense layout's `Transitions::viterbi_step` and its generic body
    /// (which AVX2 hosts never reach through the dispatch) both reproduce
    /// the column-wise loop's score
    /// bits and backpointers, on every tile/remainder split up to k = 70
    /// and at k = 128.
    #[test]
    fn viterbi_step_matches_the_columnwise_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for k in (1..=70).chain([128]) {
            for case in 0..5 {
                let (a, prev, e_row) = step_input(k, case, &mut rng);
                let at = a.transpose();
                let dense = Transitions::Dense { a: &a, at: &at };
                let (mut want, mut want_psi) = (vec![0.0; k], vec![0; k]);
                columnwise_step(&a, &prev, &e_row, &mut want, &mut want_psi);
                let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();

                let (mut got, mut got_psi) = (vec![f64::NAN; k], vec![usize::MAX; k]);
                dense.viterbi_step(&prev, &e_row, &mut got, &mut got_psi);
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "dispatched cur, k={k} case={case}");
                assert_eq!(got_psi, want_psi, "dispatched psi, k={k} case={case}");

                let (mut gen, mut gen_psi) = (vec![f64::NAN; k], vec![usize::MAX; k]);
                viterbi_step_impl(&a, &prev, &e_row, &mut gen, &mut gen_psi);
                let gen_bits: Vec<u64> = gen.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gen_bits, want_bits, "generic cur, k={k} case={case}");
                assert_eq!(gen_psi, want_psi, "generic psi, k={k} case={case}");
            }
        }
    }

    /// The row-at-a-time forward loop the dense forward step replaces: each live
    /// predecessor's row of `A` is added into the whole output row.
    fn rowwise_forward(a: &Matrix, prev: &[f64], e_row: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (i, &ap) in prev.iter().enumerate() {
            if ap == 0.0 {
                continue;
            }
            for (r, &aij) in out.iter_mut().zip(a.row(i)) {
                *r += ap * aij;
            }
        }
        for (r, &e) in out.iter_mut().zip(e_row) {
            *r *= e;
        }
    }

    /// The dot-product loop the dense backward step replaces: one dependent chain
    /// per state over row `i` of `A`.
    fn dot_backward(a: &Matrix, w: &[f64], out: &mut [f64]) {
        for (i, r) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (&aij, &wv) in a.row(i).iter().zip(w) {
                acc += aij * wv;
            }
            *r = acc;
        }
    }

    /// The row-at-a-time ξ loop the tiles replace: `w` holds one `k`-long
    /// weight row per step.
    fn rowwise_xi(a: &Matrix, alpha: &[f64], w: &[f64], steps: &[usize], out: &mut [f64]) {
        let k = a.rows();
        for (n, &t) in steps.iter().enumerate() {
            let w = &w[n * k..(n + 1) * k];
            for (i, &ap) in alpha[(t - 1) * k..t * k].iter().enumerate() {
                if ap == 0.0 {
                    continue;
                }
                let xi_row = &mut out[i * k..(i + 1) * k];
                for ((x, &aij), &wv) in xi_row.iter_mut().zip(a.row(i)).zip(w) {
                    *x += ap * aij * wv;
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The dense layout's `Transitions::forward_step` and `backward_step`
    /// (the generic bodies; the offline passes' AVX2 instantiation is pinned by
    /// `forward_backward_matches_the_rowwise_passes_bit_for_bit`) reproduce
    /// the loops they replace bit for bit, on every tile/remainder split up
    /// to k = 70 and at k = 128. The inputs carry exact zeros in `prev` (all
    /// of it in case 4), in `A` (cases 1 and 3) and in the weights.
    #[test]
    fn sum_product_steps_match_the_rowwise_loops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed5);
        for k in (1..=70).chain([128]) {
            for case in 0..5 {
                let (a, prev, e_row) = step_input(k, case, &mut rng);
                let at = a.transpose();
                let dense = Transitions::Dense { a: &a, at: &at };
                let mut want = vec![0.0; k];
                rowwise_forward(&a, &prev, &e_row, &mut want);
                let mut got = vec![f64::NAN; k];
                dense.forward_step(&prev, &e_row, &mut got);
                assert_eq!(bits(&got), bits(&want), "forward, k={k} case={case}");

                // The weights: `prev` with the emission row's zeros folded in.
                let w: Vec<f64> = prev.iter().zip(&e_row).map(|(p, e)| p * e).collect();
                dot_backward(&a, &w, &mut want);
                got.fill(f64::NAN);
                dense.backward_step(&w, &mut got);
                assert_eq!(bits(&got), bits(&want), "backward, k={k} case={case}");
            }
        }
    }

    /// The ξ register tiles reproduce the row-at-a-time loop bit for bit on
    /// every row/column tail up to k = 70 and at k = 128, with exact zeros
    /// in `α`, in `A` and in the weights, and with skipped steps.
    #[test]
    fn xi_tiles_match_the_rowwise_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x0c51);
        let t_len = 9;
        for k in (1..=70usize).chain([128]) {
            let stride = k.next_multiple_of(XI_COLS);
            let level = |rng: &mut StdRng| f64::from(rng.gen_range(0..4u8)) * 0.25;
            let a = Matrix::from_fn(k, k, |_, _| level(&mut rng));
            let mut alpha: Vec<f64> = (0..t_len * k).map(|_| rng.gen_range(0.0..1.0)).collect();
            for v in alpha.iter_mut().step_by(3) {
                *v = 0.0;
            }
            // Steps 1, 2, 4, 5, 7, 8: the ones a degenerate normalizer drops
            // are missing.
            let steps: Vec<usize> = (1..t_len).filter(|t| t % 3 != 0).collect();
            let w: Vec<f64> = (0..steps.len() * k)
                .map(|n| {
                    if n % 5 == 2 {
                        0.0
                    } else {
                        level(&mut rng) + 0.125
                    }
                })
                .collect();
            let mut want = vec![0.0; k * k];
            rowwise_xi(&a, &alpha, &w, &steps, &mut want);

            let mut padded = vec![f64::NAN; steps.len() * stride];
            for n in 0..steps.len() {
                padded[n * stride..n * stride + k].copy_from_slice(&w[n * k..(n + 1) * k]);
                padded[n * stride + k..(n + 1) * stride].fill(0.0);
            }
            let mut got = vec![f64::NAN; k * k];
            xi_tiles_impl(&a, &alpha, &padded, &steps, &mut got);
            assert_eq!(bits(&got), bits(&want), "k={k}");
        }
    }

    /// The forward–backward passes as they were before the tiled steps:
    /// row-at-a-time forward, dot-product backward, row-at-a-time ξ. Fills
    /// the workspace and returns `(log-likelihood, ξ)`.
    fn rowwise_passes(
        model: &Hmm<crate::emission::DiscreteEmission>,
        obs: &[usize],
        ws: &mut InferenceWorkspace,
    ) -> (f64, Matrix) {
        let (k, t_len) = (model.num_states(), obs.len());
        let a = model.transition();
        ws.ensure(k, t_len);
        fill_emissions(model, obs, ws);
        for j in 0..k {
            ws.alpha[j] = model.initial()[j] * ws.emis[j];
        }
        let (c, log_c) = scale_row(&mut ws.alpha[..k], ws.shifts[0]);
        (ws.scales[0], ws.log_scales[0]) = (c, log_c);
        for t in 1..t_len {
            let (prev, rest) = ws.alpha.split_at_mut(t * k);
            let row = &mut rest[..k];
            rowwise_forward(a, &prev[(t - 1) * k..], &ws.emis[t * k..(t + 1) * k], row);
            let (c, log_c) = scale_row(row, ws.shifts[t]);
            (ws.scales[t], ws.log_scales[t]) = (c, log_c);
        }
        ws.beta[(t_len - 1) * k..t_len * k].fill(1.0);
        for t in (0..t_len - 1).rev() {
            let w: Vec<f64> = (0..k)
                .map(|j| ws.emis[(t + 1) * k + j] * ws.beta[(t + 1) * k + j])
                .collect();
            let row = &mut ws.beta[t * k..(t + 1) * k];
            dot_backward(a, &w, row);
            let norm: f64 = row.iter().sum();
            if norm > 0.0 {
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
        }
        let mut xi = Matrix::zeros(k, k);
        for t in 1..t_len {
            if ws.scales[t] == 0.0 {
                continue;
            }
            let (alpha_t, beta_t) = (ws.alpha_row(t), ws.beta_row(t));
            let mut ab = 0.0;
            for (&av, &bv) in alpha_t.iter().zip(beta_t) {
                ab += av * bv;
            }
            let total = ws.scales[t] * ab;
            if !total.is_finite() || total <= 0.0 {
                continue;
            }
            let w: Vec<f64> = (0..k)
                .map(|j| ws.emis[t * k + j] * beta_t[j] / total)
                .collect();
            rowwise_xi(a, &ws.alpha, &w, &[t], xi.as_mut_slice());
        }
        (ws.log_scales[..t_len].iter().sum(), xi)
    }

    /// Runs the generic forward–backward body (which AVX2 hosts never reach
    /// through the dispatch) on the layout `op` in a fresh workspace, and
    /// returns its α and β bits, ξ and log-likelihood.
    fn generic_passes<S: Steps>(
        op: S,
        model: &Hmm<crate::emission::DiscreteEmission>,
        obs: &[usize],
    ) -> (Vec<u64>, Vec<u64>, Matrix, f64) {
        let (k, t_len) = (model.num_states(), obs.len());
        let mut ws = InferenceWorkspace::new();
        ws.ensure(k, t_len);
        fill_emissions(model, obs, &mut ws);
        let mut xi = Matrix::zeros(k, k);
        passes_impl(op, model.initial(), t_len, &mut ws, Some(&mut xi));
        let ll = ws.log_scales[..t_len].iter().sum();
        (
            bits(&ws.alpha[..t_len * k]),
            bits(&ws.beta[..t_len * k]),
            xi,
            ll,
        )
    }

    /// A whole forward–backward run, through the per-sequence AVX2 dispatch
    /// and through the generic body, gives the log-likelihood, γ and ξ of
    /// the row-at-a-time passes bit for bit. The models have exact zeros in
    /// `A` and in `B` (so whole α rows and weight entries vanish, and
    /// impossible observations floor whole steps).
    ///
    /// The CSR layout runs the same body: under `SparseParams::exact()` and
    /// under a pruning threshold, the generic body called directly equals
    /// the dispatched `InferenceBackend::Sparse` run bit for bit, and under
    /// `exact()` both equal the row-at-a-time passes.
    #[test]
    fn forward_backward_matches_the_rowwise_passes_bit_for_bit() {
        use crate::emission::DiscreteEmission;
        use crate::sparse::SparseParams;
        let mut rng = StdRng::seed_from_u64(0xfb);
        let vocab = 6;
        for k in [1usize, 2, 3, 5, 8, 9, 15, 16, 17, 31, 37, 64, 70] {
            let mut a = Matrix::from_fn(k, k, |_, _| rng.gen_range(0.0..1.0));
            let mut b = Matrix::from_fn(k, vocab, |_, _| rng.gen_range(0.0..1.0));
            for i in 0..k {
                for j in 0..k {
                    if (i + 2 * j) % 3 == 0 && i != j {
                        a[(i, j)] = 0.0;
                    }
                }
                for v in 0..vocab - 1 {
                    if (i + v) % 4 == 0 {
                        b[(i, v)] = 0.0;
                    }
                }
                // The last symbol is impossible in every state.
                b[(i, vocab - 1)] = 0.0;
                b[(i, 0)] += 0.1;
            }
            a.normalize_rows();
            b.normalize_rows();
            let pi = vec![1.0 / k as f64; k];
            let model = Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap();
            let obs: Vec<usize> = (0..40).map(|_| rng.gen_range(0..vocab)).collect();

            let mut ws = InferenceWorkspace::new();
            let (want_ll, want_xi) = rowwise_passes(&model, &obs, &mut ws);
            let want_alpha = bits(&ws.alpha[..obs.len() * k]);
            let want_beta = bits(&ws.beta[..obs.len() * k]);
            let stats =
                forward_backward_scaled(&model, &obs, &mut InferenceWorkspace::new()).unwrap();
            assert_eq!(
                stats.log_likelihood.to_bits(),
                want_ll.to_bits(),
                "ll, k={k}"
            );
            assert_eq!(
                bits(stats.xi_sum.as_slice()),
                bits(want_xi.as_slice()),
                "xi, k={k}"
            );

            let (a, at) = (model.transition(), model.transition_t());
            let (gen_alpha, gen_beta, gen_xi, _) =
                generic_passes(DenseSteps { a, at }, &model, &obs);
            assert_eq!(gen_alpha, want_alpha, "alpha, k={k}");
            assert_eq!(gen_beta, want_beta, "beta, k={k}");
            assert_eq!(
                bits(gen_xi.as_slice()),
                bits(want_xi.as_slice()),
                "generic xi, k={k}"
            );

            for params in [SparseParams::exact(), SparseParams::threshold(0.05)] {
                let mut csr_ws = InferenceWorkspace::new();
                let csr_stats = InferenceBackend::Sparse(params)
                    .forward_backward(&model, &obs, &mut csr_ws)
                    .unwrap();
                let csr_alpha = bits(&csr_ws.alpha[..obs.len() * k]);
                let csr_beta = bits(&csr_ws.beta[..obs.len() * k]);
                let csr = CsrTransition::compile(a, params).unwrap();
                let (gen_alpha, gen_beta, gen_xi, gen_ll) = generic_passes(&csr, &model, &obs);
                let what = format!("k={k} {params:?}");
                assert_eq!(gen_alpha, csr_alpha, "CSR alpha, {what}");
                assert_eq!(gen_beta, csr_beta, "CSR beta, {what}");
                assert_eq!(
                    bits(gen_xi.as_slice()),
                    bits(csr_stats.xi_sum.as_slice()),
                    "CSR xi, {what}"
                );
                assert_eq!(
                    gen_ll.to_bits(),
                    csr_stats.log_likelihood.to_bits(),
                    "CSR ll, {what}"
                );
                if params == SparseParams::exact() {
                    assert_eq!(csr_alpha, want_alpha, "CSR alpha, {what}");
                    assert_eq!(csr_beta, want_beta, "CSR beta, {what}");
                    assert_eq!(
                        bits(csr_stats.xi_sum.as_slice()),
                        bits(want_xi.as_slice()),
                        "CSR xi, {what}"
                    );
                    assert_eq!(
                        csr_stats.log_likelihood.to_bits(),
                        want_ll.to_bits(),
                        "CSR ll, {what}"
                    );
                }
            }
        }
    }
}
