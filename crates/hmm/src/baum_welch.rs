//! Baum–Welch (EM) training of HMM parameters.
//!
//! The E-step runs the scaled forward–backward pass over every sequence
//! (optionally in parallel); the M-step re-estimates `π`, `A` and the
//! emission parameters from the collected sufficient statistics.
//!
//! The transition M-step is factored out behind the [`TransitionUpdater`]
//! trait so that the diversified HMM can replace the closed-form MLE update
//! (`A_ij ∝ Σ_t ξ_t(i,j)`, the `α = 0` case of the paper's Eq. 15) with its
//! DPP-regularized projected-gradient update without duplicating the rest of
//! the EM loop.

use crate::emission::Emission;
use crate::error::HmmError;
use crate::forward_backward::SequenceStats;
use crate::model::Hmm;
use crate::scaled::InferenceBackend;
use crate::workspace::WorkspacePool;
use dhmm_linalg::Matrix;
use dhmm_runtime::{Executor, Parallelism};
use dhmm_telemetry::{Counter, Gauge, Histogram, TelemetrySink};

/// Below either of these data sizes an [`Parallelism::Auto`] E-step runs
/// serially: the per-dispatch pool overhead would not be amortized. Explicit
/// `Threads(n)` requests are always honored (the partitioning is
/// deterministic, so over-partitioning small data is safe, just slower).
const PAR_MIN_SEQUENCES: usize = 8;
/// Minimum E-step work `Σ T·k²` (the dense passes cost `O(T·k²)` per
/// sequence) for an automatic parallel E-step. On a 2-vCPU AVX2 Xeon, one
/// worker won every reading up to 3.4·10³ and two workers every reading
/// from 1.85·10⁵ (1.5–2x); in between, from about 4·10³ to 10⁵, the
/// readings split, so the crossover is unresolved there and 2·10⁴ is a
/// value picked inside that band.
const PAR_MIN_ESTEP_WORK: usize = 20_000;

/// Strategy for re-estimating the transition matrix from the expected
/// transition counts collected in the E-step.
pub trait TransitionUpdater {
    /// Produces a new row-stochastic transition matrix.
    ///
    /// * `xi_sum` — `k × k` matrix of expected transition counts
    ///   `Σ_n Σ_t q(X_{t-1} = i, X_t = j)`,
    /// * `current` — the transition matrix from the previous iteration
    ///   (the starting point for gradient-based updaters).
    fn update(&self, xi_sum: &Matrix, current: &Matrix) -> Result<Matrix, HmmError>;

    /// Extra objective contributed by this updater's prior, evaluated at `a`
    /// (zero for plain MLE). Added to the data log-likelihood when
    /// monitoring convergence of MAP-EM.
    ///
    /// Evaluation failures must be surfaced as errors, never encoded as
    /// `NEG_INFINITY`: a sentinel infinity silently sign-flips into a reward
    /// for any caller maximizing a negated objective, and poisons the
    /// convergence check here.
    fn prior_objective(&self, _a: &Matrix) -> Result<f64, HmmError> {
        Ok(0.0)
    }
}

/// The classical maximum-likelihood transition update:
/// `A_ij = Σ ξ(i,j) / Σ_j Σ ξ(i,j)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MleTransitionUpdater {
    /// Pseudo-count added to every expected transition count before
    /// normalization (0.0 recovers the unsmoothed MLE).
    pub pseudo_count: f64,
}

impl TransitionUpdater for MleTransitionUpdater {
    fn update(&self, xi_sum: &Matrix, _current: &Matrix) -> Result<Matrix, HmmError> {
        let mut a = xi_sum.map(|v| v + self.pseudo_count.max(0.0) + 1e-12);
        a.normalize_rows();
        Ok(a)
    }
}

/// Configuration of the EM loop.
///
/// Not `Copy`: [`TelemetrySink`] can hold an `Arc`-backed registry. Clone
/// is cheap (a handful of words plus one atomic refcount bump).
#[derive(Debug, Clone)]
pub struct BaumWelchConfig {
    /// Maximum number of EM iterations.
    pub max_iterations: usize,
    /// Relative log-likelihood improvement below which EM stops.
    pub tolerance: f64,
    /// Which inference engine runs the E-step (scaled workspace engine by
    /// default).
    pub backend: InferenceBackend,
    /// Worker policy for the parallel E-step (`Auto` by default). Results
    /// are bit-identical for every setting; only wall-clock time changes.
    pub parallelism: Parallelism,
    /// Metrics destination for per-iteration training telemetry (E/M wall
    /// time, log-likelihood trace). [`TelemetrySink::Disabled`] by default:
    /// every record call compiles to a no-op and no clock is read.
    pub telemetry: TelemetrySink,
}

impl Default for BaumWelchConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tolerance: 1e-6,
            backend: InferenceBackend::default(),
            parallelism: Parallelism::default(),
            telemetry: TelemetrySink::default(),
        }
    }
}

impl BaumWelchConfig {
    /// Returns a copy with the given iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Returns a copy with the given relative-improvement tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Returns a copy with the given E-step inference backend.
    pub fn with_backend(mut self, backend: InferenceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy with the given worker policy (results are
    /// bit-identical under every policy; only wall-clock changes).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy with the given telemetry sink. Telemetry observes the
    /// EM loop from outside the arithmetic — fitted parameters are
    /// bit-identical whether it is enabled or not.
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Per-fit training metrics, resolved once from the config's sink so the
/// per-iteration loop touches only cheap handles.
struct TrainMetrics {
    /// `dhmm_train_iterations_total` — EM iterations completed.
    iterations: Counter,
    /// `dhmm_train_estep_ns` — wall time of each E-step (forward–backward
    /// over every sequence), in nanoseconds.
    estep_ns: Histogram,
    /// `dhmm_train_mstep_ns` — wall time of each M-step (π, transition
    /// update, emission re-estimation), in nanoseconds.
    mstep_ns: Histogram,
    /// `dhmm_train_log_likelihood` — data log-likelihood after the most
    /// recent iteration.
    log_likelihood: Gauge,
    /// `dhmm_train_objective_delta` — objective improvement over the
    /// previous iteration (the quantity the tolerance check watches).
    objective_delta: Gauge,
}

impl TrainMetrics {
    fn new(sink: &TelemetrySink) -> Self {
        Self {
            iterations: sink.counter(
                "dhmm_train_iterations_total",
                &[],
                "EM iterations completed",
            ),
            estep_ns: sink.histogram("dhmm_train_estep_ns", &[], "E-step wall time (ns)"),
            mstep_ns: sink.histogram("dhmm_train_mstep_ns", &[], "M-step wall time (ns)"),
            log_likelihood: sink.gauge(
                "dhmm_train_log_likelihood",
                &[],
                "Data log-likelihood after the latest EM iteration",
            ),
            objective_delta: sink.gauge(
                "dhmm_train_objective_delta",
                &[],
                "Objective improvement over the previous EM iteration",
            ),
        }
    }
}

/// Outcome of an EM fit.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Objective value (data log-likelihood plus any prior term) after each
    /// iteration.
    pub objective_history: Vec<f64>,
    /// Data log-likelihood after each iteration.
    pub log_likelihood_history: Vec<f64>,
    /// Number of iterations actually run.
    pub iterations: usize,
    /// Whether the relative-improvement stopping criterion was met before
    /// `max_iterations`.
    pub converged: bool,
}

impl FitResult {
    /// Final data log-likelihood (NaN if no iteration ran).
    pub fn final_log_likelihood(&self) -> f64 {
        self.log_likelihood_history
            .last()
            .copied()
            .unwrap_or(f64::NAN)
    }

    /// Final objective value (NaN if no iteration ran).
    pub fn final_objective(&self) -> f64 {
        self.objective_history.last().copied().unwrap_or(f64::NAN)
    }
}

/// The Baum–Welch trainer.
#[derive(Debug, Clone, Default)]
pub struct BaumWelch {
    config: BaumWelchConfig,
}

impl BaumWelch {
    /// Creates a trainer with the given configuration.
    pub fn new(config: BaumWelchConfig) -> Self {
        Self { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &BaumWelchConfig {
        &self.config
    }

    /// Fits the model in place using the classical MLE M-step.
    pub fn fit<E>(
        &self,
        model: &mut Hmm<E>,
        sequences: &[Vec<E::Obs>],
    ) -> Result<FitResult, HmmError>
    where
        E: Emission + Send + Sync,
        E::Obs: Sync,
    {
        self.fit_with_updater(model, sequences, &MleTransitionUpdater::default())
    }

    /// Fits the model in place, delegating the transition M-step to
    /// `updater`. This is the entry point the diversified HMM uses.
    ///
    /// The `E: Send` / `U: Sync` bounds exist because the M-step's two
    /// independent halves — the transition update (reads the current `A` and
    /// the ξ counts) and the emission re-estimation (rewrites `B` from the
    /// γ posteriors) — run as concurrent jobs on the shared runtime executor
    /// when `config.parallelism` resolves to more than one worker.
    pub fn fit_with_updater<E, U>(
        &self,
        model: &mut Hmm<E>,
        sequences: &[Vec<E::Obs>],
        updater: &U,
    ) -> Result<FitResult, HmmError>
    where
        E: Emission + Send + Sync,
        E::Obs: Sync,
        U: TransitionUpdater + Sync,
    {
        if sequences.is_empty() {
            return Err(HmmError::InvalidData {
                reason: "no training sequences".into(),
            });
        }
        if sequences.iter().any(|s| s.is_empty()) {
            return Err(HmmError::InvalidData {
                reason: "training sequences must be non-empty".into(),
            });
        }

        let k = model.num_states();
        let mut objective_history = Vec::new();
        let mut log_likelihood_history = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        // Per-thread inference buffers, allocated once for the whole EM run.
        let mut pool = WorkspacePool::new();
        // Executor for the concurrent M-step halves (transition ascent and
        // emission re-estimation). Gated by the same `Parallelism` knob as
        // the E-step; both orders produce bit-identical models because the
        // jobs share no mutable state.
        let mstep_exec = Executor::new(self.config.parallelism);
        let metrics = TrainMetrics::new(&self.config.telemetry);

        for _iter in 0..self.config.max_iterations {
            iterations += 1;

            // ---------------- E-step ----------------
            let estep_span = metrics.estep_ns.span();
            let stats = e_step_on(
                model,
                sequences,
                self.config.backend,
                &mut pool,
                self.config.parallelism,
            )?;
            drop(estep_span);
            let data_ll: f64 = stats.iter().map(|s| s.log_likelihood).sum();

            let mstep_span = metrics.mstep_ns.span();

            // ---------------- M-step ----------------
            // Initial distribution: average of the first-step posteriors.
            let mut new_pi = vec![0.0; k];
            for s in &stats {
                for (i, pi) in new_pi.iter_mut().enumerate() {
                    *pi += s.gamma[(0, i)];
                }
            }
            dhmm_linalg::normalize_in_place(&mut new_pi);
            model.set_initial(new_pi)?;

            // Transition matrix (delegated to the updater) and emission
            // parameters. The two updates consume the same E-step statistics
            // and are independent of each other — the transition update
            // reads the *current* `A` and the ξ counts, the emission update
            // reads the γ posteriors — so with more than one worker they run
            // as two concurrent jobs on the shared runtime pool. The serial
            // path keeps the original transition-then-emission order; the
            // concurrent path is bit-identical to it because neither job
            // observes the other's output.
            let mut xi_total = Matrix::zeros(k, k);
            for s in &stats {
                for (x, &v) in xi_total.as_mut_slice().iter_mut().zip(s.xi_sum.as_slice()) {
                    *x += v;
                }
            }
            let gammas: Vec<Matrix> = stats.into_iter().map(|s| s.gamma).collect();
            let (transition_result, emission_result) = {
                let (current_a, emission) = model.transition_and_emission_mut();
                mstep_exec.join(
                    || updater.update(&xi_total, current_a),
                    || emission.reestimate(sequences, &gammas),
                )
            };
            let new_a = transition_result?;
            emission_result?;
            model.set_transition(new_a)?;
            drop(mstep_span);

            // ---------------- Convergence check ----------------
            let objective = data_ll + updater.prior_objective(model.transition())?;
            metrics.iterations.inc();
            metrics.log_likelihood.set(data_ll);
            log_likelihood_history.push(data_ll);
            objective_history.push(objective);
            if objective_history.len() >= 2 {
                let prev = objective_history[objective_history.len() - 2];
                metrics.objective_delta.set(objective - prev);
                if dhmm_linalg::stats::relative_change(prev, objective) < self.config.tolerance {
                    converged = true;
                    break;
                }
            }
        }

        Ok(FitResult {
            objective_history,
            log_likelihood_history,
            iterations,
            converged,
        })
    }
}

/// Runs the E-step over all sequences on the shared runtime executor with an
/// explicit worker policy.
///
/// The sequence list is split into deterministic contiguous ranges
/// ([`dhmm_runtime::split_rows`]), each range is processed by one worker
/// with its own leased workspace, and the per-sequence statistics are
/// concatenated in range order — so the result is bit-identical for every
/// worker policy, including `Serial`. Under `Auto` the E-step additionally
/// drops to serial below 8 sequences or below `Σ T·k² = 2·10⁴`, where
/// dispatch overhead can outweigh the split (which cannot change results,
/// only speed).
pub fn e_step_on<E>(
    model: &Hmm<E>,
    sequences: &[Vec<E::Obs>],
    backend: InferenceBackend,
    pool: &mut WorkspacePool,
    parallelism: Parallelism,
) -> Result<Vec<SequenceStats>, HmmError>
where
    E: Emission + Sync,
    E::Obs: Sync,
{
    let mut exec = Executor::new(parallelism);
    if parallelism == Parallelism::Auto {
        let k = model.num_states();
        let work: usize = sequences.iter().map(|s| s.len() * k * k).sum();
        if sequences.len() < PAR_MIN_SEQUENCES || work < PAR_MIN_ESTEP_WORK {
            exec = Executor::serial();
        }
    }
    if exec.is_serial() {
        let ws = &mut pool.ensure(1)[0];
        return sequences
            .iter()
            .map(|s| backend.forward_backward(model, s, ws))
            .collect();
    }

    let num_ranges = exec.num_ranges(sequences.len());
    let workspaces = pool.ensure(num_ranges);
    let per_range: Vec<Result<Vec<SequenceStats>, HmmError>> =
        exec.map_ranges_with(sequences.len(), workspaces, |_, range, ws| {
            sequences[range]
                .iter()
                .map(|s| backend.forward_backward(model, s, ws))
                .collect()
        });

    let mut all = Vec::with_capacity(sequences.len());
    for chunk in per_range {
        all.extend(chunk?);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::{DiscreteEmission, GaussianEmission};
    use crate::generate::generate_sequences;
    use crate::init::{random_parameters, InitStrategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ground_truth() -> Hmm<DiscreteEmission> {
        let emission = DiscreteEmission::new(
            Matrix::from_rows(&[vec![0.9, 0.05, 0.05], vec![0.05, 0.05, 0.9]]).unwrap(),
        )
        .unwrap();
        let transition = Matrix::from_rows(&[vec![0.85, 0.15], vec![0.2, 0.8]]).unwrap();
        Hmm::new(vec![0.6, 0.4], transition, emission).unwrap()
    }

    fn random_model(seed: u64) -> Hmm<DiscreteEmission> {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pi, a) = random_parameters(2, InitStrategy::default(), &mut rng).unwrap();
        let b = crate::init::random_stochastic_matrix(2, 3, 1.0, &mut rng).unwrap();
        Hmm::new(pi, a, DiscreteEmission::new(b).unwrap()).unwrap()
    }

    #[test]
    fn empty_training_data_is_rejected() {
        let bw = BaumWelch::default();
        let mut m = random_model(0);
        assert!(bw.fit(&mut m, &[]).is_err());
        assert!(bw.fit(&mut m, &[vec![]]).is_err());
    }

    #[test]
    fn log_likelihood_is_monotone_nondecreasing() {
        let mut rng = StdRng::seed_from_u64(7);
        let data: Vec<Vec<usize>> = generate_sequences(&ground_truth(), 60, 12, &mut rng)
            .unwrap()
            .into_iter()
            .map(|s| s.observations)
            .collect();
        let mut m = random_model(3);
        let bw = BaumWelch::new(BaumWelchConfig {
            max_iterations: 25,
            tolerance: 0.0,
            ..BaumWelchConfig::default()
        });
        let result = bw.fit(&mut m, &data).unwrap();
        for w in result.log_likelihood_history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-6,
                "log-likelihood decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(result.iterations, 25);
    }

    #[test]
    fn em_improves_over_initialization() {
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<Vec<usize>> = generate_sequences(&ground_truth(), 80, 10, &mut rng)
            .unwrap()
            .into_iter()
            .map(|s| s.observations)
            .collect();
        let mut m = random_model(5);
        let initial_ll = m.total_log_likelihood(&data).unwrap();
        let bw = BaumWelch::new(BaumWelchConfig {
            max_iterations: 30,
            tolerance: 1e-8,
            ..BaumWelchConfig::default()
        });
        let result = bw.fit(&mut m, &data).unwrap();
        assert!(result.final_log_likelihood() > initial_ll);
        assert!(m.transition().is_row_stochastic(1e-6));
        assert!(dhmm_linalg::vector::is_distribution(m.initial(), 1e-6));
    }

    #[test]
    fn convergence_flag_is_set_with_loose_tolerance() {
        let mut rng = StdRng::seed_from_u64(13);
        let data: Vec<Vec<usize>> = generate_sequences(&ground_truth(), 40, 8, &mut rng)
            .unwrap()
            .into_iter()
            .map(|s| s.observations)
            .collect();
        let mut m = random_model(1);
        let bw = BaumWelch::new(BaumWelchConfig {
            max_iterations: 200,
            tolerance: 1e-3,
            ..BaumWelchConfig::default()
        });
        let result = bw.fit(&mut m, &data).unwrap();
        assert!(result.converged);
        assert!(result.iterations < 200);
        assert!(result.final_objective().is_finite());
    }

    #[test]
    fn recovers_separated_gaussian_means() {
        // Two well-separated Gaussian states should be recovered by EM.
        let emission = GaussianEmission::new(vec![0.0, 10.0], vec![0.5, 0.5]).unwrap();
        let transition = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.1, 0.9]]).unwrap();
        let truth = Hmm::new(vec![0.5, 0.5], transition, emission).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let data: Vec<Vec<f64>> = generate_sequences(&truth, 50, 15, &mut rng)
            .unwrap()
            .into_iter()
            .map(|s| s.observations)
            .collect();

        let init_emission = GaussianEmission::new(vec![2.0, 6.0], vec![2.0, 2.0]).unwrap();
        let init_a = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        let mut m = Hmm::new(vec![0.5, 0.5], init_a, init_emission).unwrap();
        let bw = BaumWelch::new(BaumWelchConfig {
            max_iterations: 50,
            tolerance: 1e-8,
            ..BaumWelchConfig::default()
        });
        bw.fit(&mut m, &data).unwrap();
        let mut means = m.emission().means().to_vec();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((means[0] - 0.0).abs() < 0.5, "means = {means:?}");
        assert!((means[1] - 10.0).abs() < 0.5, "means = {means:?}");
    }

    #[test]
    fn mle_updater_with_pseudocounts_keeps_support() {
        let xi = Matrix::from_rows(&[vec![10.0, 0.0], vec![0.0, 10.0]]).unwrap();
        let plain = MleTransitionUpdater::default()
            .update(&xi, &Matrix::identity(2))
            .unwrap();
        assert!(plain[(0, 1)] < 1e-9);
        let smoothed = MleTransitionUpdater { pseudo_count: 1.0 }
            .update(&xi, &Matrix::identity(2))
            .unwrap();
        assert!(smoothed[(0, 1)] > 0.05);
        assert!(smoothed.is_row_stochastic(1e-9));
        assert_eq!(
            MleTransitionUpdater::default()
                .prior_objective(&xi)
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn parallel_and_serial_e_step_agree() {
        let truth = ground_truth();
        let mut rng = StdRng::seed_from_u64(2);
        // Enough data to trigger the parallel path. The serial side runs the
        // log-domain reference, so this doubles as a backend parity check.
        let data: Vec<Vec<usize>> = generate_sequences(&truth, 200, 40, &mut rng)
            .unwrap()
            .into_iter()
            .map(|s| s.observations)
            .collect();
        let parallel = e_step_on(
            &truth,
            &data,
            InferenceBackend::default(),
            &mut WorkspacePool::new(),
            Parallelism::Auto,
        )
        .unwrap();
        let serial: Vec<SequenceStats> = data
            .iter()
            .map(|s| crate::reference::forward_backward(&truth, s).unwrap())
            .collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert!((p.log_likelihood - s.log_likelihood).abs() < 1e-9);
            assert!(p.gamma.approx_eq(&s.gamma, 1e-9));
            assert!(p.xi_sum.approx_eq(&s.xi_sum, 1e-9));
        }
    }

    #[test]
    fn e_step_is_bit_identical_across_worker_policies() {
        let truth = ground_truth();
        let mut rng = StdRng::seed_from_u64(23);
        let data: Vec<Vec<usize>> = generate_sequences(&truth, 40, 25, &mut rng)
            .unwrap()
            .into_iter()
            .map(|s| s.observations)
            .collect();
        let mut serial_pool = WorkspacePool::new();
        let serial = e_step_on(
            &truth,
            &data,
            InferenceBackend::Scaled,
            &mut serial_pool,
            Parallelism::Serial,
        )
        .unwrap();
        for workers in [2usize, 3, 8] {
            let mut pool = WorkspacePool::new();
            let parallel = e_step_on(
                &truth,
                &data,
                InferenceBackend::Scaled,
                &mut pool,
                Parallelism::Threads(workers),
            )
            .unwrap();
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().zip(&serial) {
                assert_eq!(p.log_likelihood.to_bits(), s.log_likelihood.to_bits());
                assert!(p.gamma.approx_eq(&s.gamma, 0.0), "workers={workers}");
                assert!(p.xi_sum.approx_eq(&s.xi_sum, 0.0), "workers={workers}");
            }
        }
    }

    #[test]
    fn telemetry_records_iterations_without_changing_the_fit() {
        use dhmm_telemetry::Registry;
        let mut rng = StdRng::seed_from_u64(19);
        let data: Vec<Vec<usize>> = generate_sequences(&ground_truth(), 30, 10, &mut rng)
            .unwrap()
            .into_iter()
            .map(|s| s.observations)
            .collect();
        let sink = TelemetrySink::Registry(Registry::new());
        let config = BaumWelchConfig {
            max_iterations: 5,
            tolerance: 0.0,
            ..BaumWelchConfig::default()
        };
        let mut instrumented = random_model(9);
        let with = BaumWelch::new(config.clone().with_telemetry(sink.clone()))
            .fit(&mut instrumented, &data)
            .unwrap();
        let mut plain = random_model(9);
        let without = BaumWelch::new(config).fit(&mut plain, &data).unwrap();

        // Telemetry observes the loop; it never perturbs the arithmetic.
        for (a, b) in with
            .log_likelihood_history
            .iter()
            .zip(&without.log_likelihood_history)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let text = sink.registry().unwrap().render();
        assert!(
            text.contains("dhmm_train_iterations_total 5"),
            "iteration counter missing: {text}"
        );
        assert!(text.contains("dhmm_train_estep_ns_count 5"), "{text}");
        assert!(text.contains("dhmm_train_mstep_ns_count 5"), "{text}");
        assert!(text.contains("dhmm_train_log_likelihood"), "{text}");
        assert!(text.contains("dhmm_train_objective_delta"), "{text}");
    }
}
