//! Unsupervised diversified-HMM training (MAP-EM, Eq. 7 of the paper).
//!
//! The E-step is the standard scaled forward–backward pass (unchanged by the
//! prior, as the paper notes); the M-step re-estimates `π` and the emission
//! parameters with their usual closed forms and the transition matrix with
//! the DPP-regularized projected-gradient ascent of Algorithm 1
//! ([`crate::transition_update`]).

use crate::config::DiversifiedConfig;
use crate::error::DhmmError;
use crate::transition_update::DppTransitionUpdater;
use dhmm_hmm::baum_welch::{BaumWelch, BaumWelchConfig, FitResult, TransitionUpdater};
use dhmm_hmm::emission::{DiscreteEmission, Emission, GaussianEmission};
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::model::Hmm;
use dhmm_prob::mean_pairwise_bhattacharyya;
use dhmm_stream::{SessionPool, StreamConfig, StreamingDecoder};
use dhmm_telemetry::TelemetrySink;
use rand::Rng;
use std::sync::Arc;

/// Diagnostics of an unsupervised dHMM fit.
#[derive(Debug, Clone)]
pub struct DiversifiedFitReport {
    /// Per-iteration EM history (objective = data log-likelihood + prior).
    pub fit: FitResult,
    /// `α · log det K̃_A` of the final transition matrix.
    pub final_log_prior: f64,
    /// Mean pairwise Bhattacharyya distance between the rows of the final
    /// transition matrix (the paper's diversity measure).
    pub final_diversity: f64,
    /// The prior weight the model was trained with.
    pub alpha: f64,
}

/// The unsupervised diversified-HMM trainer.
#[derive(Debug, Clone, Default)]
pub struct DiversifiedHmm {
    config: DiversifiedConfig,
    /// Metrics destination for training telemetry. Lives on the trainer
    /// rather than [`DiversifiedConfig`] so the config stays `Copy`;
    /// disabled (all record calls are no-ops) unless set via
    /// [`Self::with_telemetry`].
    telemetry: TelemetrySink,
}

impl DiversifiedHmm {
    /// Creates a trainer with the given configuration.
    pub fn new(config: DiversifiedConfig) -> Self {
        Self {
            config,
            telemetry: TelemetrySink::default(),
        }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &DiversifiedConfig {
        &self.config
    }

    /// Returns the trainer recording per-iteration EM telemetry (E/M wall
    /// time, log-likelihood trace, ascent accept/backtrack counts) and
    /// streaming telemetry for decoders/pools it builds into `telemetry`.
    /// Fitted parameters and decoded labels are bit-identical with or
    /// without it.
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Fits an existing model in place with MAP-EM and returns diagnostics.
    pub fn fit<E>(
        &self,
        model: &mut Hmm<E>,
        sequences: &[Vec<E::Obs>],
    ) -> Result<DiversifiedFitReport, DhmmError>
    where
        E: Emission + Send + Sync,
        E::Obs: Sync,
    {
        let kernel = self.config.validate()?;
        let updater = DppTransitionUpdater::new(self.config.alpha, kernel, self.config.ascent)
            .with_telemetry(&self.telemetry);
        let bw = BaumWelch::new(BaumWelchConfig {
            max_iterations: self.config.max_em_iterations,
            tolerance: self.config.em_tolerance,
            backend: self.config.backend,
            parallelism: self.config.parallelism,
            telemetry: self.telemetry.clone(),
        });
        let fit = bw.fit_with_updater(model, sequences, &updater)?;
        // The last EM iteration evaluated this same prior in its convergence
        // check, so for an interior iterate the updater's workspace answers
        // it from its cache.
        let final_log_prior = updater.prior_objective(model.transition())?;
        Ok(DiversifiedFitReport {
            fit,
            final_log_prior,
            final_diversity: mean_pairwise_bhattacharyya(model.transition()),
            alpha: self.config.alpha,
        })
    }

    /// Convenience: builds a randomly initialized Gaussian-emission model
    /// with `k` states (Dirichlet(3) initialization for `π` and `A`, data-
    /// scaled Gaussian/Gamma initialization for the emissions, as in the
    /// paper's toy experiment) and fits it.
    pub fn fit_gaussian<R: Rng + ?Sized>(
        &self,
        sequences: &[Vec<f64>],
        num_states: usize,
        rng: &mut R,
    ) -> Result<(Hmm<GaussianEmission>, DiversifiedFitReport), DhmmError> {
        let flat: Vec<f64> = sequences.iter().flatten().copied().collect();
        let mean = if flat.is_empty() {
            0.0
        } else {
            flat.iter().sum::<f64>() / flat.len() as f64
        };
        let spread = if flat.len() > 1 {
            let var =
                flat.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (flat.len() - 1) as f64;
            var.sqrt().max(0.1)
        } else {
            1.0
        };
        let (pi, a) = random_parameters(
            num_states,
            InitStrategy::Dirichlet { concentration: 3.0 },
            rng,
        )?;
        let (means, stds) =
            dhmm_hmm::init::random_gaussian_emission(num_states, mean, spread, spread / 2.0, rng)?;
        let emission = GaussianEmission::new(means, stds)?;
        let mut model = Hmm::new(pi, a, emission)?;
        let report = self.fit(&mut model, sequences)?;
        Ok((model, report))
    }

    /// Convenience: builds a randomly initialized discrete-emission model
    /// with `k` states over a vocabulary of `vocab_size` symbols (symmetric
    /// Dirichlet initialization, as in the paper's PoS experiment) and fits
    /// it.
    pub fn fit_discrete<R: Rng + ?Sized>(
        &self,
        sequences: &[Vec<usize>],
        num_states: usize,
        vocab_size: usize,
        rng: &mut R,
    ) -> Result<(Hmm<DiscreteEmission>, DiversifiedFitReport), DhmmError> {
        let (pi, a) = random_parameters(
            num_states,
            InitStrategy::Dirichlet { concentration: 3.0 },
            rng,
        )?;
        let b = random_stochastic_matrix(num_states, vocab_size, 1.0, rng)?;
        let emission = DiscreteEmission::new(b)?;
        let mut model = Hmm::new(pi, a, emission)?;
        let report = self.fit(&mut model, sequences)?;
        Ok((model, report))
    }

    /// Viterbi-decodes every sequence with the engine selected by
    /// `config.backend`, sharing one inference workspace across the set.
    /// (`Hmm::decode_all` always uses the scaled default; this is the
    /// trainer-level entry point that honors an explicit backend choice.)
    pub fn decode_all<E: Emission>(
        &self,
        model: &Hmm<E>,
        sequences: &[Vec<E::Obs>],
    ) -> Result<Vec<Vec<usize>>, DhmmError> {
        Ok(self.config.backend.decode_all(model, sequences)?)
    }

    /// The streaming config implied by this trainer's knobs and a lag.
    fn stream_config(&self, lag: usize) -> StreamConfig {
        StreamConfig::default()
            .with_lag(lag)
            .with_backend(self.config.backend)
            .with_parallelism(self.config.parallelism)
            .with_telemetry(self.telemetry.clone())
    }

    /// Builds a single-session [`StreamingDecoder`] over a trained model,
    /// honoring the trainer's `backend` knob. With `lag ≥ T` the stream
    /// reproduces [`DiversifiedHmm::decode_all`] exactly.
    pub fn streaming_decoder<'m, E: Emission>(
        &self,
        model: &'m Hmm<E>,
        lag: usize,
    ) -> Result<StreamingDecoder<'m, E>, DhmmError> {
        StreamingDecoder::with_config(model, self.stream_config(lag)).map_err(DhmmError::from)
    }

    /// Builds a multiplexed [`SessionPool`] over a trained model, honoring
    /// the trainer's `backend` and `parallelism` knobs (batch ticks run on
    /// the same worker policy as training, bit-identical across policies).
    /// The pool owns the model behind an `Arc` so later checkpoints can be
    /// hot-swapped in with [`SessionPool::publish`].
    pub fn streaming_pool<E: Emission>(
        &self,
        model: Arc<Hmm<E>>,
        lag: usize,
    ) -> Result<SessionPool<E>, DhmmError> {
        SessionPool::with_config(model, self.stream_config(lag)).map_err(DhmmError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AscentConfig;
    use dhmm_data::toy::{generate, ToyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fast_config(alpha: f64) -> DiversifiedConfig {
        DiversifiedConfig {
            alpha,
            max_em_iterations: 15,
            em_tolerance: 1e-7,
            ascent: AscentConfig {
                max_iterations: 20,
                ..AscentConfig::default()
            },
            ..DiversifiedConfig::default()
        }
    }

    fn toy_observations(seed: u64, n: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = generate(
            &ToyConfig {
                num_sequences: n,
                ..ToyConfig::default()
            },
            &mut rng,
        );
        data.corpus.observations()
    }

    #[test]
    fn invalid_config_is_rejected_at_fit_time() {
        let trainer = DiversifiedHmm::new(DiversifiedConfig {
            alpha: -1.0,
            ..DiversifiedConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let obs = toy_observations(0, 10);
        assert!(trainer.fit_gaussian(&obs, 5, &mut rng).is_err());
    }

    #[test]
    fn objective_is_monotone_over_em_iterations() {
        let obs = toy_observations(1, 60);
        let trainer = DiversifiedHmm::new(fast_config(1.0));
        let mut rng = StdRng::seed_from_u64(2);
        let (_, report) = trainer.fit_gaussian(&obs, 5, &mut rng).unwrap();
        for w in report.fit.objective_history.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-4,
                "MAP objective decreased: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(report.final_diversity > 0.0);
        assert_eq!(report.alpha, 1.0);
    }

    /// The reported prior comes from the fused engine and stays within
    /// 1e-12 relative of the scalar oracle on a fitted k = 16 model.
    #[test]
    fn final_log_prior_matches_the_scalar_oracle() {
        let obs = toy_observations(11, 40);
        let alpha = 2.0;
        let trainer = DiversifiedHmm::new(fast_config(alpha));
        let mut rng = StdRng::seed_from_u64(12);
        let (model, report) = trainer.fit_gaussian(&obs, 16, &mut rng).unwrap();
        let kernel = trainer.config().validate().unwrap();
        let oracle = alpha * dhmm_dpp::log_det_kernel(model.transition(), &kernel).unwrap();
        let rel = (report.final_log_prior - oracle).abs() / oracle.abs().max(1.0);
        assert!(
            rel <= 1e-12,
            "reported {} vs oracle {oracle} (rel {rel:e})",
            report.final_log_prior
        );
    }

    #[test]
    fn alpha_zero_matches_plain_baum_welch() {
        let obs = toy_observations(3, 40);
        let trainer = DiversifiedHmm::new(fast_config(0.0));
        let mut rng = StdRng::seed_from_u64(4);
        let (model, report) = trainer.fit_gaussian(&obs, 5, &mut rng).unwrap();
        assert_eq!(report.final_log_prior, 0.0);
        assert!(model.transition().is_row_stochastic(1e-6));
        // Objective equals the data log-likelihood when alpha = 0.
        let last_obj = report.fit.final_objective();
        let last_ll = report.fit.final_log_likelihood();
        assert!((last_obj - last_ll).abs() < 1e-9);
    }

    #[test]
    fn diversity_prior_increases_transition_diversity() {
        let obs = toy_observations(5, 60);
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        let (hmm_model, hmm_report) = DiversifiedHmm::new(fast_config(0.0))
            .fit_gaussian(&obs, 5, &mut rng_a)
            .unwrap();
        let (dhmm_model, dhmm_report) = DiversifiedHmm::new(fast_config(5.0))
            .fit_gaussian(&obs, 5, &mut rng_b)
            .unwrap();
        assert!(
            dhmm_report.final_diversity >= hmm_report.final_diversity - 1e-6,
            "dHMM diversity {} < HMM diversity {}",
            dhmm_report.final_diversity,
            hmm_report.final_diversity
        );
        assert!(hmm_model.transition().is_row_stochastic(1e-6));
        assert!(dhmm_model.transition().is_row_stochastic(1e-6));
    }

    #[test]
    fn discrete_fit_produces_valid_model() {
        // Small discrete dataset from the toy generator quantized to symbols.
        let obs_f: Vec<Vec<f64>> = toy_observations(7, 30);
        let obs: Vec<Vec<usize>> = obs_f
            .iter()
            .map(|s| {
                s.iter()
                    .map(|&y| (y.round().clamp(1.0, 5.0) as usize) - 1)
                    .collect()
            })
            .collect();
        let trainer = DiversifiedHmm::new(fast_config(1.0));
        let mut rng = StdRng::seed_from_u64(8);
        let (model, report) = trainer.fit_discrete(&obs, 5, 5, &mut rng).unwrap();
        assert_eq!(model.num_states(), 5);
        assert_eq!(model.emission().vocab_size(), 5);
        assert!(model.transition().is_row_stochastic(1e-6));
        assert!(report.fit.final_objective().is_finite());
        // Decoding still works end to end.
        let decoded = model.decode(&obs[0]).unwrap();
        assert_eq!(decoded.len(), obs[0].len());
    }

    #[test]
    fn config_accessor_returns_configuration() {
        let trainer = DiversifiedHmm::new(fast_config(2.5));
        assert_eq!(trainer.config().alpha, 2.5);
    }
}
