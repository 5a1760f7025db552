//! The diversified transition M-step (the paper's Algorithm 1).
//!
//! Given the expected transition counts `ξ_ij = Σ_n Σ_t q(X_{t-1}=i, X_t=j)`
//! from the E-step, the dHMM M-step for `A` maximizes the penalized
//! objective
//!
//! ```text
//! L_A(A) = Σ_ij ξ_ij · log A_ij + α · log det K̃_A  [ − α_A · ‖A − A0‖² ]
//! ```
//!
//! subject to every row of `A` lying on the probability simplex. The bracket
//! term appears only in the supervised setting (Eq. 8). The maximizer is a
//! projected gradient ascent: gradient step (Eq. 15 / 18), row-wise
//! projection onto the simplex (Wang & Carreira-Perpiñán), repeated until
//! the objective improvement drops below `δ`. The step size is adapted by a
//! backtracking line search: the paper only says "adaptive step", so this
//! is the reproduction's choice, and the `ablations` bench compares it
//! against a fixed step.
//!
//! The prior term is evaluated by the fused engine (`dhmm_dpp`'s
//! [`DppObjective`]), which restructures `log det K̃_A` and its gradient
//! around one power matrix, GEMMs, and a single shared Cholesky
//! factorization, evaluating into a reusable [`AscentWorkspace`] so the
//! whole ascent — candidates, gradients, projections, across backtracks and
//! EM iterations — performs no allocation in steady state. The scalar
//! `dhmm_dpp::{log_det_kernel, grad_log_det_kernel}` paths are the oracle
//! the tests pin the fused engine against.
//!
//! The ascent runs on the calling thread, as one body with the objective,
//! the engine and every `dhmm_linalg` kernel inlined into it.
//! [`maximize_transition_objective_counted`] runs an AVX2 instantiation of
//! that body where the CPU has AVX2 (the idiom of `dhmm_hmm`'s dense
//! passes), and the baseline one elsewhere. Neither fuses a multiply and
//! an add or reorders a sum, so both return the same bits.

use crate::config::AscentConfig;
use crate::error::DhmmError;
use dhmm_dpp::{DppObjective, MStepWorkspace, ProductKernel};
use dhmm_hmm::baum_welch::TransitionUpdater;
use dhmm_hmm::HmmError;
use dhmm_linalg::{project_row_stochastic_with, Matrix, SimplexScratch};
use dhmm_telemetry::{Counter, TelemetrySink};
use std::sync::Mutex;

/// Floor applied to transition probabilities inside logs and divisions.
const PROB_FLOOR: f64 = 1e-12;

/// The penalized transition objective `L_A` and its gradient.
///
/// Borrows the expected counts (and the optional anchor) instead of owning
/// them, so building the objective each EM iteration copies nothing.
#[derive(Debug, Clone)]
pub struct TransitionObjective<'a> {
    /// Expected transition counts `ξ` (or hard counts in the supervised case).
    pub counts: &'a Matrix,
    /// Diversity weight `α`.
    pub alpha: f64,
    /// Product kernel defining `K̃_A`.
    pub kernel: ProductKernel,
    /// Optional anchor `(A0, α_A)` for the supervised objective.
    pub anchor: Option<(&'a Matrix, f64)>,
}

impl<'a> TransitionObjective<'a> {
    /// Creates the unsupervised objective (no anchor term).
    pub fn unsupervised(counts: &'a Matrix, alpha: f64, kernel: ProductKernel) -> Self {
        Self {
            counts,
            alpha,
            kernel,
            anchor: None,
        }
    }

    /// Creates the supervised objective with an anchor matrix `A0` and
    /// weight `α_A`.
    pub fn supervised(
        counts: &'a Matrix,
        alpha: f64,
        kernel: ProductKernel,
        anchor: &'a Matrix,
        alpha_anchor: f64,
    ) -> Self {
        Self {
            counts,
            alpha,
            kernel,
            anchor: Some((anchor, alpha_anchor)),
        }
    }

    /// The fused engine for this objective's kernel.
    #[inline(always)]
    fn engine(&self) -> DppObjective {
        DppObjective::new(self.kernel)
    }

    /// The data term `Σ_ij ξ_ij · log A_ij` (floored).
    #[inline(always)]
    fn data_value(&self, a: &Matrix) -> f64 {
        let mut obj = 0.0;
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let c = self.counts[(i, j)];
                if c > 0.0 {
                    obj += c * a[(i, j)].max(PROB_FLOOR).ln();
                }
            }
        }
        obj
    }

    /// Evaluates `L_A(a)` with a transient workspace. Prefer
    /// [`Self::value_with`] inside loops.
    pub fn value(&self, a: &Matrix) -> Result<f64, DhmmError> {
        self.value_with(a, &mut MStepWorkspace::new())
    }

    /// Evaluates `L_A(a)`, reusing `ws` for the prior's intermediates.
    #[inline(always)]
    pub fn value_with(&self, a: &Matrix, ws: &mut MStepWorkspace) -> Result<f64, DhmmError> {
        let mut obj = self.data_value(a);
        if self.alpha > 0.0 {
            obj += self.alpha * self.engine().log_det_with(a, ws)?;
        }
        if let Some((a0, w)) = self.anchor {
            obj -= w * a.squared_distance(a0)?;
        }
        Ok(obj)
    }

    /// Evaluates `∇_A L_A(a)` (Eq. 15, plus the anchor term of Eq. 18 when
    /// present) with a transient workspace.
    pub fn gradient(&self, a: &Matrix) -> Result<Matrix, DhmmError> {
        let mut out = Matrix::zeros(a.rows(), a.cols());
        self.gradient_with(a, &mut MStepWorkspace::new(), &mut out)?;
        Ok(out)
    }

    /// Evaluates `∇_A L_A(a)` into `out`, reusing `ws`.
    #[inline(always)]
    pub fn gradient_with(
        &self,
        a: &Matrix,
        ws: &mut MStepWorkspace,
        out: &mut Matrix,
    ) -> Result<(), DhmmError> {
        if self.alpha > 0.0 {
            self.engine().grad_with(a, ws, out)?;
        }
        self.finish_gradient(a, out);
        Ok(())
    }

    /// Value + gradient at the same iterate: the prior's log-determinant and
    /// gradient come from one power matrix and one Cholesky factorization.
    /// Returns `L_A(a)` and writes `∇L_A` into `out`.
    #[inline(always)]
    pub fn value_and_gradient_with(
        &self,
        a: &Matrix,
        ws: &mut MStepWorkspace,
        out: &mut Matrix,
    ) -> Result<f64, DhmmError> {
        let mut obj = self.data_value(a);
        if self.alpha > 0.0 {
            let log_det = self.engine().log_det_and_grad_with(a, ws, out)?;
            obj += self.alpha * log_det;
        }
        if let Some((a0, w)) = self.anchor {
            obj -= w * a.squared_distance(a0)?;
        }
        self.finish_gradient(a, out);
        Ok(obj)
    }

    /// Turns the prior gradient already in `out` (or garbage when
    /// `alpha == 0`) into the full objective gradient:
    /// `α·∇prior + ξ/A + anchor term`.
    #[inline(always)]
    fn finish_gradient(&self, a: &Matrix, out: &mut Matrix) {
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let data = self.counts[(i, j)] / a[(i, j)].max(PROB_FLOOR);
                let mut g = if self.alpha > 0.0 {
                    self.alpha * out[(i, j)]
                } else {
                    0.0
                };
                g += data;
                if let Some((a0, w)) = self.anchor {
                    g -= 2.0 * w * (a[(i, j)] - a0[(i, j)]);
                }
                out[(i, j)] = g;
            }
        }
    }
}

/// Reusable buffers for [`maximize_transition_objective_with`]: the fused
/// engine's [`MStepWorkspace`] plus the ascent's own candidate/gradient
/// matrices and the simplex projection's [`SimplexScratch`]. Sized on first
/// use and reused allocation-free while the problem shape is unchanged —
/// i.e. for every backtrack, ascent iteration and EM iteration of a
/// training run.
///
/// The projection scratch keeps every row's descending order from the last
/// projection, whichever matrix it was: each trial candidate
/// `current + γ·∇` is re-sorted from the previous trial's order, and the
/// first projection of an M-step from the last one of the M-step before.
/// That order only decides how much sorting a projection does, never its
/// result, so the workspace carries no state into the fitted model.
#[derive(Debug, Clone)]
pub struct AscentWorkspace {
    dpp: MStepWorkspace,
    grad: Matrix,
    current: Matrix,
    candidate: Matrix,
    simplex: SimplexScratch,
}

impl Default for AscentWorkspace {
    fn default() -> Self {
        Self {
            dpp: MStepWorkspace::new(),
            grad: Matrix::zeros(0, 0),
            current: Matrix::zeros(0, 0),
            candidate: Matrix::zeros(0, 0),
            simplex: SimplexScratch::new(),
        }
    }
}

impl AscentWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn ensure(&mut self, k: usize, d: usize) {
        if self.grad.shape() != (k, d) {
            self.grad = Matrix::zeros(k, d);
            self.current = Matrix::zeros(k, d);
            self.candidate = Matrix::zeros(k, d);
        }
    }
}

/// Line-search outcome counts from one projected-gradient ascent run.
///
/// `accepted` counts gradient steps whose candidate improved the objective
/// (one per outer iteration that moved); `rejected` counts trial steps the
/// backtracking line search discarded. A high rejected:accepted ratio means
/// the initial step is badly scaled for the problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AscentStats {
    /// Accepted gradient steps.
    pub accepted: u64,
    /// Backtracked (non-improving) trial steps.
    pub rejected: u64,
}

/// Runs the projected-gradient ascent of Algorithm 1 with a transient
/// workspace. Prefer [`maximize_transition_objective_with`] when calling
/// repeatedly (e.g. once per EM iteration).
pub fn maximize_transition_objective(
    objective: &TransitionObjective<'_>,
    initial: &Matrix,
    config: &AscentConfig,
) -> Result<Matrix, DhmmError> {
    maximize_transition_objective_with(objective, initial, config, &mut AscentWorkspace::new())
}

/// Like [`maximize_transition_objective_counted`] but discarding the
/// line-search statistics.
pub fn maximize_transition_objective_with(
    objective: &TransitionObjective<'_>,
    initial: &Matrix,
    config: &AscentConfig,
    ws: &mut AscentWorkspace,
) -> Result<Matrix, DhmmError> {
    maximize_transition_objective_counted(objective, initial, config, ws).map(|(a, _)| a)
}

/// Runs the projected-gradient ascent of Algorithm 1, starting from
/// `initial` (which is projected onto the simplex first) and returning the
/// improved row-stochastic matrix together with the line-search
/// [`AscentStats`]. All intermediates — candidate, gradient,
/// kernel/factorization buffers, projection scratch — live in `ws`, so the
/// loop allocates nothing beyond the returned matrix once the workspace is
/// warm.
///
/// The AVX2 instantiation of the ascent is chosen here, once per call.
pub fn maximize_transition_objective_counted(
    objective: &TransitionObjective<'_>,
    initial: &Matrix,
    config: &AscentConfig,
    ws: &mut AscentWorkspace,
) -> Result<(Matrix, AscentStats), DhmmError> {
    config.validate()?;
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: guarded by runtime detection; the function only requires
        // the AVX2 feature it declares.
        return unsafe { ascent_avx2(objective, initial, config, ws) };
    }
    ascent_impl(objective, initial, config, ws)
}

/// AVX2 instantiation of [`ascent_impl`] — identical body, with the
/// projection, the data term and every kernel of the prior inlined into it,
/// bit-identical results.
///
/// # Safety
///
/// The CPU running it must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ascent_avx2(
    objective: &TransitionObjective<'_>,
    initial: &Matrix,
    config: &AscentConfig,
    ws: &mut AscentWorkspace,
) -> Result<(Matrix, AscentStats), DhmmError> {
    ascent_impl(objective, initial, config, ws)
}

/// The ascent of [`maximize_transition_objective_counted`], for a config
/// that has been validated.
#[inline(always)]
fn ascent_impl(
    objective: &TransitionObjective<'_>,
    initial: &Matrix,
    config: &AscentConfig,
    ws: &mut AscentWorkspace,
) -> Result<(Matrix, AscentStats), DhmmError> {
    let mut stats = AscentStats::default();
    let (k, d) = initial.shape();
    ws.ensure(k, d);
    let AscentWorkspace {
        dpp,
        grad,
        current,
        candidate,
        simplex,
    } = ws;

    current.copy_from(initial)?;
    project_row_stochastic_with(current, simplex);
    // The starting iterate needs both the value and the gradient; the fused
    // engine reads both off one factorization.
    let mut current_value = objective.value_and_gradient_with(current, dpp, grad)?;
    let mut step = config.initial_step;

    for iter in 0..config.max_iterations {
        if iter > 0 {
            // The value at `current` is already known from the accepting
            // line-search step; only the gradient is new.
            objective.gradient_with(current, dpp, grad)?;
        }
        // Normalize the step by the gradient scale so the same initial step
        // size works across very different count magnitudes.
        let grad_scale = grad.max_abs().max(1e-12);

        let mut improved = false;
        let mut trial_step = step;
        for _ in 0..=config.max_backtracks {
            let scale = trial_step / grad_scale;
            for (c, (&x, &g)) in candidate
                .as_mut_slice()
                .iter_mut()
                .zip(current.as_slice().iter().zip(grad.as_slice()))
            {
                *c = x + g * scale;
            }
            project_row_stochastic_with(candidate, simplex);
            let candidate_value = objective.value_with(candidate, dpp)?;
            if candidate_value > current_value {
                let gain = candidate_value - current_value;
                std::mem::swap(current, candidate);
                current_value = candidate_value;
                improved = true;
                stats.accepted += 1;
                // Be mildly greedy: grow the step after a successful move.
                step = (trial_step / config.backtrack_factor).min(config.initial_step * 10.0);
                if gain < config.tolerance {
                    return Ok((current.clone(), stats));
                }
                break;
            }
            stats.rejected += 1;
            trial_step *= config.backtrack_factor;
        }
        if !improved {
            break;
        }
    }
    Ok((current.clone(), stats))
}

/// A [`TransitionUpdater`] implementing the diversified M-step, pluggable
/// into [`dhmm_hmm::BaumWelch::fit_with_updater`]. Owns an
/// [`AscentWorkspace`] that persists across EM iterations, so each M-step
/// after the first runs allocation-free inside the ascent.
///
/// The workspace sits behind a `Mutex` (not a `RefCell`) so the updater is
/// `Sync`: the EM loop runs the transition update concurrently with the
/// emission re-estimation on the shared runtime pool, which requires calling
/// `update` from a pool worker thread. The lock is uncontended — one
/// transition update runs at a time — so it costs one lock per M-step.
#[derive(Debug)]
pub struct DppTransitionUpdater {
    /// Diversity weight `α`.
    pub alpha: f64,
    /// Product kernel defining the prior.
    pub kernel: ProductKernel,
    /// Ascent configuration.
    pub ascent: AscentConfig,
    workspace: Mutex<AscentWorkspace>,
    /// `dhmm_train_ascent_accepted_total` — accepted line-search steps
    /// across all M-steps (no-op unless [`Self::with_telemetry`]).
    accepted: Counter,
    /// `dhmm_train_ascent_rejected_total` — backtracked trial steps.
    rejected: Counter,
}

impl Clone for DppTransitionUpdater {
    fn clone(&self) -> Self {
        Self {
            alpha: self.alpha,
            kernel: self.kernel,
            ascent: self.ascent,
            workspace: Mutex::new(
                self.workspace
                    .lock()
                    .expect("ascent workspace poisoned")
                    .clone(),
            ),
            accepted: self.accepted.clone(),
            rejected: self.rejected.clone(),
        }
    }
}

impl DppTransitionUpdater {
    /// Creates an updater with the given prior weight, kernel and ascent
    /// settings.
    pub fn new(alpha: f64, kernel: ProductKernel, ascent: AscentConfig) -> Self {
        Self {
            alpha,
            kernel,
            ascent,
            workspace: Mutex::new(AscentWorkspace::new()),
            accepted: Counter::noop(),
            rejected: Counter::noop(),
        }
    }

    /// Returns the updater recording line-search accept/backtrack counts
    /// into `sink` (`dhmm_train_ascent_accepted_total` /
    /// `dhmm_train_ascent_rejected_total`). Telemetry observes the ascent
    /// from outside the arithmetic: the returned matrices are bit-identical
    /// with or without it.
    pub fn with_telemetry(mut self, sink: &TelemetrySink) -> Self {
        self.accepted = sink.counter(
            "dhmm_train_ascent_accepted_total",
            &[],
            "Accepted projected-gradient line-search steps",
        );
        self.rejected = sink.counter(
            "dhmm_train_ascent_rejected_total",
            &[],
            "Backtracked (non-improving) line-search trial steps",
        );
        self
    }
}

impl TransitionUpdater for DppTransitionUpdater {
    fn update(&self, xi_sum: &Matrix, current: &Matrix) -> Result<Matrix, HmmError> {
        // α = 0 has the closed-form MLE solution (the paper's Eq. for A with
        // α = 0); short-circuit to it for exactness and speed — no objective,
        // no warm-start evaluations.
        if self.alpha == 0.0 {
            let mut a = xi_sum.map(|v| v + PROB_FLOOR);
            a.normalize_rows();
            return Ok(a);
        }
        let objective = TransitionObjective::unsupervised(xi_sum, self.alpha, self.kernel);
        let mut ws = self.workspace.lock().expect("ascent workspace poisoned");

        // Candidate starting points for the ascent: the MLE solution, the
        // previous iterate, and a symmetry-broken perturbation of the MLE.
        // The perturbation matters when the expected counts make all rows
        // identical (the collapsed regime the prior exists to escape): that
        // configuration is a stationary point of the ascent because the
        // gradient is then the same for every row, so without breaking the
        // symmetry the update could never diversify the rows. The candidates
        // are evaluated in place — nothing is cloned to pick the winner.
        let mut mle = xi_sum.map(|v| v + PROB_FLOOR);
        mle.normalize_rows();
        let mut perturbed = Matrix::from_fn(mle.rows(), mle.cols(), |i, j| {
            mle[(i, j)]
                * (1.0
                    + 0.02 * (((i + j) % 2) as f64)
                    + 0.005 * (i as f64 / mle.rows().max(1) as f64))
        });
        perturbed.normalize_rows();
        let mut start: &Matrix = &mle;
        let mut best_value = f64::NEG_INFINITY;
        for cand in [&mle, current, &perturbed] {
            if let Ok(v) = objective.value_with(cand, &mut ws.dpp) {
                if v > best_value {
                    best_value = v;
                    start = cand;
                }
            }
        }

        let (a, stats) =
            maximize_transition_objective_counted(&objective, start, &self.ascent, &mut ws)
                .map_err(|e| HmmError::InvalidParameters {
                    reason: format!("diversified transition update failed: {e}"),
                })?;
        self.accepted.add(stats.accepted);
        self.rejected.add(stats.rejected);
        Ok(a)
    }

    fn prior_objective(&self, a: &Matrix) -> Result<f64, HmmError> {
        if self.alpha == 0.0 {
            return Ok(0.0);
        }
        let mut ws = self.workspace.lock().expect("ascent workspace poisoned");
        let log_det = DppObjective::new(self.kernel)
            .log_det_with(a, &mut ws.dpp)
            .map_err(|e| HmmError::InvalidParameters {
                reason: format!("diversity prior evaluation failed: {e}"),
            })?;
        Ok(self.alpha * log_det)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhmm_dpp::{grad_log_det_kernel, log_det_kernel};
    use dhmm_prob::mean_pairwise_bhattacharyya;

    fn counts() -> Matrix {
        Matrix::from_rows(&[
            vec![30.0, 20.0, 10.0],
            vec![25.0, 20.0, 15.0],
            vec![20.0, 20.0, 20.0],
        ])
        .unwrap()
    }

    #[test]
    fn objective_value_matches_components() {
        let kernel = ProductKernel::bhattacharyya();
        let a = Matrix::from_rows(&[
            vec![0.5, 0.3, 0.2],
            vec![0.4, 0.35, 0.25],
            vec![0.3, 0.3, 0.4],
        ])
        .unwrap();
        let c = counts();
        let obj0 = TransitionObjective::unsupervised(&c, 0.0, kernel);
        let data_only = obj0.value(&a).unwrap();
        let expected: f64 = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| c[(i, j)] * a[(i, j)].ln())
            .sum();
        assert!((data_only - expected).abs() < 1e-9);
        let ascent = AscentConfig::default();
        let updater0 = DppTransitionUpdater::new(0.0, kernel, ascent);
        assert_eq!(updater0.prior_objective(&a).unwrap(), 0.0);

        let obj1 = TransitionObjective::unsupervised(&c, 2.0, kernel);
        let with_prior = obj1.value(&a).unwrap();
        let prior = 2.0 * log_det_kernel(&a, &kernel).unwrap();
        assert!((with_prior - data_only - prior).abs() < 1e-9);
        let updater2 = DppTransitionUpdater::new(2.0, kernel, ascent);
        assert!((updater2.prior_objective(&a).unwrap() - prior).abs() < 1e-9);
    }

    #[test]
    fn fused_and_reference_engines_agree_on_value_and_gradient() {
        let kernel = ProductKernel::bhattacharyya();
        let c = counts();
        let a0 = Matrix::from_rows(&[
            vec![0.5, 0.3, 0.2],
            vec![0.3, 0.4, 0.3],
            vec![0.2, 0.3, 0.5],
        ])
        .unwrap();
        let a = Matrix::from_rows(&[
            vec![0.45, 0.35, 0.2],
            vec![0.25, 0.45, 0.3],
            vec![0.3, 0.25, 0.45],
        ])
        .unwrap();
        let (alpha, w) = (1.5, 3.0);
        let fused = TransitionObjective::supervised(&c, alpha, kernel, &a0, w);
        // The same objective assembled from the scalar oracle functions.
        let data_value: f64 = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| c[(i, j)] * a[(i, j)].ln())
            .sum();
        let vr = data_value + alpha * log_det_kernel(&a, &kernel).unwrap()
            - w * a.squared_distance(&a0).unwrap();
        let prior_grad = grad_log_det_kernel(&a, &kernel).unwrap();
        let gr = Matrix::from_fn(3, 3, |i, j| {
            c[(i, j)] / a[(i, j)] + alpha * prior_grad[(i, j)] - 2.0 * w * (a[(i, j)] - a0[(i, j)])
        });
        let vf = fused.value(&a).unwrap();
        assert!((vf - vr).abs() / vr.abs().max(1.0) < 1e-12, "{vf} vs {vr}");
        let gf = fused.gradient(&a).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let rel = (gf[(i, j)] - gr[(i, j)]).abs() / gr[(i, j)].abs().max(1.0);
                assert!(rel < 1e-10, "({i},{j}): {} vs {}", gf[(i, j)], gr[(i, j)]);
            }
        }
        // The fused combined call agrees with its separate calls.
        let mut ws = MStepWorkspace::new();
        let mut g = Matrix::zeros(3, 3);
        let v = fused.value_and_gradient_with(&a, &mut ws, &mut g).unwrap();
        assert_eq!(v, vf);
        assert!(g.approx_eq(&gf, 1e-12));
    }

    #[test]
    fn supervised_objective_penalizes_distance_from_anchor() {
        let kernel = ProductKernel::bhattacharyya();
        let a0 = Matrix::from_rows(&[vec![0.6, 0.4], vec![0.3, 0.7]]).unwrap();
        let ones = Matrix::filled(2, 2, 1.0);
        let obj = TransitionObjective::supervised(&ones, 0.0, kernel, &a0, 10.0);
        let at_anchor = obj.value(&a0).unwrap();
        let away = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let away_value = obj.value(&away).unwrap();
        assert!(at_anchor > away_value);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let kernel = ProductKernel::bhattacharyya();
        let c = counts();
        let a0 = Matrix::from_rows(&[
            vec![0.5, 0.3, 0.2],
            vec![0.3, 0.4, 0.3],
            vec![0.2, 0.3, 0.5],
        ])
        .unwrap();
        let obj = TransitionObjective::supervised(&c, 1.5, kernel, &a0, 3.0);
        let a = Matrix::from_rows(&[
            vec![0.45, 0.35, 0.2],
            vec![0.25, 0.45, 0.3],
            vec![0.3, 0.25, 0.45],
        ])
        .unwrap();
        let grad = obj.gradient(&a).unwrap();
        let eps = 1e-6;
        for i in 0..3 {
            for j in 0..3 {
                let mut plus = a.clone();
                plus[(i, j)] += eps;
                let mut minus = a.clone();
                minus[(i, j)] -= eps;
                let numeric =
                    (obj.value(&plus).unwrap() - obj.value(&minus).unwrap()) / (2.0 * eps);
                let diff = (grad[(i, j)] - numeric).abs();
                assert!(
                    diff / numeric.abs().max(1.0) < 1e-3,
                    "gradient mismatch at ({i},{j}): {} vs {numeric}",
                    grad[(i, j)]
                );
            }
        }
    }

    #[test]
    fn ascent_never_decreases_the_objective() {
        let kernel = ProductKernel::bhattacharyya();
        let c = counts();
        let obj = TransitionObjective::unsupervised(&c, 5.0, kernel);
        let mut start = c.clone();
        start.normalize_rows();
        let before = obj.value(&start).unwrap();
        let result = maximize_transition_objective(&obj, &start, &AscentConfig::default()).unwrap();
        let after = obj.value(&result).unwrap();
        assert!(after >= before - 1e-9, "{after} < {before}");
        assert!(result.is_row_stochastic(1e-8));
    }

    #[test]
    fn workspace_reuse_across_updates_is_safe() {
        // The same updater (and thus the same persistent workspace) run on
        // different shapes and repeated inputs must match fresh-workspace
        // results exactly.
        let kernel = ProductKernel::bhattacharyya();
        let updater = DppTransitionUpdater::new(5.0, kernel, AscentConfig::default());
        for k in [3usize, 2, 4, 3] {
            let xi = Matrix::from_fn(k, k, |i, j| 10.0 + ((i * 3 + j) % 4) as f64);
            let uniform = Matrix::filled(k, k, 1.0 / k as f64);
            let reused = updater.update(&xi, &uniform).unwrap();
            let fresh = DppTransitionUpdater::new(5.0, kernel, AscentConfig::default())
                .update(&xi, &uniform)
                .unwrap();
            assert!(reused.approx_eq(&fresh, 0.0), "k={k}");
        }
    }

    #[test]
    fn counted_ascent_reports_line_search_outcomes() {
        let kernel = ProductKernel::bhattacharyya();
        let c = counts();
        let obj = TransitionObjective::unsupervised(&c, 5.0, kernel);
        let mut start = c.clone();
        start.normalize_rows();
        let mut ws = AscentWorkspace::new();
        let (counted, stats) =
            maximize_transition_objective_counted(&obj, &start, &AscentConfig::default(), &mut ws)
                .unwrap();
        assert!(stats.accepted > 0, "ascent never moved: {stats:?}");
        // The counted and uncounted entry points are the same algorithm.
        let plain = maximize_transition_objective(&obj, &start, &AscentConfig::default()).unwrap();
        assert!(counted.approx_eq(&plain, 0.0));
    }

    #[test]
    fn updater_telemetry_counts_ascent_steps_without_changing_results() {
        use dhmm_telemetry::{Registry, TelemetrySink};
        let kernel = ProductKernel::bhattacharyya();
        let sink = TelemetrySink::Registry(Registry::new());
        let instrumented =
            DppTransitionUpdater::new(5.0, kernel, AscentConfig::default()).with_telemetry(&sink);
        let xi = counts();
        let uniform = Matrix::filled(3, 3, 1.0 / 3.0);
        let with = instrumented.update(&xi, &uniform).unwrap();
        let without = DppTransitionUpdater::new(5.0, kernel, AscentConfig::default())
            .update(&xi, &uniform)
            .unwrap();
        assert!(with.approx_eq(&without, 0.0));
        assert!(
            instrumented.accepted.value() > 0,
            "no accepted steps recorded"
        );
        let text = sink.registry().unwrap().render();
        assert!(text.contains("dhmm_train_ascent_accepted_total"), "{text}");
        assert!(text.contains("dhmm_train_ascent_rejected_total"), "{text}");
    }

    /// FNV-1a over the bits of every entry.
    fn bits_hash(m: &Matrix) -> u64 {
        m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// What [`two_pinned_updates`] pins of each of its two M-steps.
    #[derive(Debug, PartialEq, Eq)]
    struct Pinned {
        /// FNV-1a of the returned transition's bits.
        hash: u64,
        /// Accepted and rejected line-search steps so far.
        steps: (u64, u64),
        /// Entries the projections clipped to exactly zero.
        zeros: usize,
    }

    /// `k × k` counts with one zero in seven and a heavy diagonal (`shift`
    /// moves the pattern), so the projections clip entries to exactly zero
    /// and the ascent both accepts and rejects trials.
    fn counts_with_zeros(k: usize, shift: usize) -> Matrix {
        Matrix::from_fn(k, k, |i, j| {
            if (i * 5 + j * 3 + shift).is_multiple_of(7) {
                0.0
            } else {
                let diagonal = if i == j { 40.0 } else { 0.0 };
                ((i * 17 + j * 29 + i * j + shift) % 31) as f64 + 0.5 + diagonal
            }
        })
    }

    /// A row-stochastic `k × k` starting point unrelated to the counts.
    fn uneven_start(k: usize) -> Matrix {
        let mut start = Matrix::from_fn(k, k, |i, j| 1.0 + ((i * 11 + j * 7) % 13) as f64);
        start.normalize_rows();
        start
    }

    /// Two successive M-steps at `k` on [`counts_with_zeros`], the first
    /// from [`uneven_start`], the second from the first's result.
    fn two_pinned_updates(k: usize) -> [Pinned; 2] {
        use dhmm_telemetry::{Registry, TelemetrySink};
        let sink = TelemetrySink::Registry(Registry::new());
        let ascent = AscentConfig {
            tolerance: 0.0,
            ..AscentConfig::default()
        };
        let updater = DppTransitionUpdater::new(10.0, ProductKernel::bhattacharyya(), ascent)
            .with_telemetry(&sink);
        let pin = |a: &Matrix| Pinned {
            hash: bits_hash(a),
            steps: (updater.accepted.value(), updater.rejected.value()),
            zeros: a.as_slice().iter().filter(|&&x| x == 0.0).count(),
        };
        let first = updater
            .update(&counts_with_zeros(k, 0), &uneven_start(k))
            .unwrap();
        let first_pin = pin(&first);
        let second = updater.update(&counts_with_zeros(k, 3), &first).unwrap();
        [first_pin, pin(&second)]
    }

    /// The dispatched ascent returns the bits and line-search counts of the
    /// baseline body called directly: where the CPU has AVX2 this compares
    /// the two instantiations, at k = 13 (a partial block of right-hand
    /// sides in the inverse, partial tiles in every GEMM), 16 and 64, on
    /// counts with exact zeros, with and without the supervised anchor.
    #[test]
    fn dispatched_ascent_equals_the_baseline_body_bit_for_bit() {
        let kernel = ProductKernel::bhattacharyya();
        let config = AscentConfig {
            tolerance: 0.0,
            ..AscentConfig::default()
        };
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [13, 16, 64] {
            let (xi, start) = (counts_with_zeros(k, 0), uneven_start(k));
            let unsupervised = TransitionObjective::unsupervised(&xi, 10.0, kernel);
            let supervised = TransitionObjective::supervised(&xi, 10.0, kernel, &start, 50.0);
            for (name, objective) in [("unsupervised", unsupervised), ("supervised", supervised)] {
                let mut ws = AscentWorkspace::new();
                let (dispatched, counts) =
                    maximize_transition_objective_counted(&objective, &start, &config, &mut ws)
                        .unwrap();
                let mut ws = AscentWorkspace::new();
                let (baseline, baseline_counts) =
                    ascent_impl(&objective, &start, &config, &mut ws).unwrap();
                assert_eq!(bits(&dispatched), bits(&baseline), "k = {k}, {name}");
                assert_eq!(counts, baseline_counts, "k = {k}, {name}");
                assert!(counts.accepted > 0 && counts.rejected > 0, "{counts:?}");
                assert!(
                    dispatched.as_slice().contains(&0.0),
                    "k = {k}: no entry clipped"
                );
            }
        }
    }

    /// [`update_bits_and_ascent_counts_are_pinned`] at `train-wide`'s
    /// k = 64, recorded before the ascent ran on AVX2 lanes.
    #[test]
    fn update_bits_and_ascent_counts_are_pinned_at_k64() {
        let pins = two_pinned_updates(64);
        assert_eq!(
            pins,
            [
                Pinned {
                    hash: 0x0dd7_eecc_84be_21e6,
                    steps: (50, 55),
                    zeros: 233,
                },
                Pinned {
                    hash: 0x6c8c_4c08_0434_7aeb,
                    steps: (100, 111),
                    zeros: 266,
                },
            ]
        );
    }

    /// The same at k = 13, which leaves a partial block of right-hand sides
    /// in the inverse and partial tiles in every GEMM.
    #[test]
    fn update_bits_and_ascent_counts_are_pinned_at_k13() {
        let pins = two_pinned_updates(13);
        assert_eq!(
            pins,
            [
                Pinned {
                    hash: 0x247a_638d_c9f5_6a7d,
                    steps: (50, 2),
                    zeros: 16,
                },
                Pinned {
                    hash: 0x5bb3_6db7_6f0d_18d7,
                    steps: (100, 5),
                    zeros: 14,
                },
            ]
        );
    }

    /// Two successive M-steps on a fixed k = 16 problem whose counts hold
    /// zeros, so the projections clip entries to exactly zero and the
    /// ascent both accepts and rejects trials: the transition bits and the
    /// line-search counts are pinned to the values of the projection that
    /// sorted every row from scratch, as a guard on the warm-started one.
    #[test]
    fn update_bits_and_ascent_counts_are_pinned() {
        let [first, second] = two_pinned_updates(16);
        assert_eq!((first.hash, first.steps), (0xce0b_fee2_cf39_ab26, (50, 4)));
        assert_eq!(
            second,
            Pinned {
                hash: 0xf94c_06fa_fa10_907a,
                steps: (100, 10),
                zeros: 26,
            }
        );
    }

    #[test]
    fn zero_alpha_recovers_the_mle_update() {
        let kernel = ProductKernel::bhattacharyya();
        let updater = DppTransitionUpdater::new(0.0, kernel, AscentConfig::default());
        let xi = counts();
        let updated = updater
            .update(&xi, &Matrix::filled(3, 3, 1.0 / 3.0))
            .unwrap();
        let mut expected = xi.clone();
        expected.normalize_rows();
        assert!(updated.approx_eq(&expected, 1e-6));
        assert_eq!(updater.prior_objective(&updated).unwrap(), 0.0);
    }

    #[test]
    fn positive_alpha_increases_transition_diversity() {
        // Counts whose MLE rows are identical: the diversity prior must pull
        // the rows apart.
        let kernel = ProductKernel::bhattacharyya();
        let xi = Matrix::filled(3, 3, 10.0);
        let uniform_start = Matrix::filled(3, 3, 1.0 / 3.0);
        let mle = DppTransitionUpdater::new(0.0, kernel, AscentConfig::default())
            .update(&xi, &uniform_start)
            .unwrap();
        let d_mle = mean_pairwise_bhattacharyya(&mle);
        let diversified = DppTransitionUpdater::new(50.0, kernel, AscentConfig::default())
            .update(&xi, &uniform_start)
            .unwrap();
        let d_dpp = mean_pairwise_bhattacharyya(&diversified);
        assert!(
            d_dpp > d_mle + 1e-3,
            "diversified {d_dpp} not more diverse than MLE {d_mle}"
        );
        assert!(diversified.is_row_stochastic(1e-8));
    }

    #[test]
    fn larger_alpha_gives_at_least_as_much_diversity() {
        let kernel = ProductKernel::bhattacharyya();
        let xi = Matrix::from_rows(&[
            vec![40.0, 30.0, 30.0],
            vec![35.0, 35.0, 30.0],
            vec![30.0, 35.0, 35.0],
        ])
        .unwrap();
        let uniform_start = Matrix::filled(3, 3, 1.0 / 3.0);
        let small = DppTransitionUpdater::new(1.0, kernel, AscentConfig::default())
            .update(&xi, &uniform_start)
            .unwrap();
        let large = DppTransitionUpdater::new(200.0, kernel, AscentConfig::default())
            .update(&xi, &uniform_start)
            .unwrap();
        assert!(mean_pairwise_bhattacharyya(&large) >= mean_pairwise_bhattacharyya(&small) - 1e-6);
    }

    #[test]
    fn supervised_anchor_keeps_result_near_a0() {
        let kernel = ProductKernel::bhattacharyya();
        let a0 = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.2, 0.8]]).unwrap();
        let counts = Matrix::from_rows(&[vec![7.0, 3.0], vec![2.0, 8.0]]).unwrap();
        // Huge anchor weight: the result should barely move from A0.
        let obj = TransitionObjective::supervised(&counts, 1.0, kernel, &a0, 1e6);
        let result = maximize_transition_objective(&obj, &a0, &AscentConfig::default()).unwrap();
        assert!(result.squared_distance(&a0).unwrap() < 1e-4);
    }

    #[test]
    fn invalid_ascent_config_is_rejected() {
        let kernel = ProductKernel::bhattacharyya();
        let c = counts();
        let obj = TransitionObjective::unsupervised(&c, 1.0, kernel);
        let bad = AscentConfig {
            initial_step: -1.0,
            ..AscentConfig::default()
        };
        assert!(maximize_transition_objective(&obj, &c, &bad).is_err());
    }

    #[test]
    fn prior_objective_propagates_errors_instead_of_neg_infinity() {
        let kernel = ProductKernel::bhattacharyya();
        let mut bad = Matrix::filled(3, 3, 1.0 / 3.0);
        bad[(0, 0)] = f64::NAN;
        let updater = DppTransitionUpdater::new(1.0, kernel, AscentConfig::default());
        assert!(updater.prior_objective(&bad).is_err());
    }
}
