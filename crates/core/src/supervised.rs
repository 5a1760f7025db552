//! Supervised diversified-HMM training (Eq. 8 of the paper).
//!
//! In the supervised setting the hidden states are observed at training
//! time. `π`, the emission parameters and the anchor transition matrix `A0`
//! are estimated by counting (crate `dhmm-hmm`'s supervised estimator); the
//! final transition matrix then maximizes
//!
//! ```text
//! Σ_ij c_ij · log A_ij + α · log det K̃_A − α_A · ‖A − A0‖²
//! ```
//!
//! by projected gradient ascent starting from `A0`, where `c_ij` are the
//! observed transition counts. Decoding of unlabeled test sequences uses
//! Viterbi exactly as in the unsupervised case.

use crate::config::SupervisedConfig;
use crate::error::DhmmError;
use crate::transition_update::{
    maximize_transition_objective_counted, AscentWorkspace, TransitionObjective,
};
use dhmm_dpp::{DppObjective, MStepWorkspace};
use dhmm_hmm::emission::Emission;
use dhmm_hmm::model::Hmm;
use dhmm_hmm::supervised::supervised_estimate;
use dhmm_hmm::InferenceWorkspace;
use dhmm_linalg::Matrix;
use dhmm_prob::mean_pairwise_bhattacharyya;
use dhmm_stream::{SessionPool, StreamConfig, StreamingDecoder};
use dhmm_telemetry::TelemetrySink;
use std::sync::Arc;

/// Diagnostics of a supervised dHMM fit.
#[derive(Debug, Clone)]
pub struct SupervisedFitReport {
    /// The count-based anchor transition matrix `A0`.
    pub anchor_transition: Matrix,
    /// Mean pairwise Bhattacharyya diversity of `A0`.
    pub anchor_diversity: f64,
    /// Mean pairwise Bhattacharyya diversity of the final transition matrix.
    pub final_diversity: f64,
    /// `α·log det K̃_A` of the final transition matrix.
    pub final_log_prior: f64,
    /// Squared Frobenius distance `‖A − A0‖²` between the final and anchor
    /// transition matrices.
    pub drift_from_anchor: f64,
}

/// The supervised diversified-HMM trainer.
#[derive(Debug, Clone, Default)]
pub struct SupervisedDiversifiedHmm {
    config: SupervisedConfig,
    /// Metrics destination for training telemetry. Lives on the trainer
    /// rather than [`SupervisedConfig`] so the config stays `Copy`;
    /// disabled unless set via [`Self::with_telemetry`].
    telemetry: TelemetrySink,
}

impl SupervisedDiversifiedHmm {
    /// Creates a trainer with the given configuration.
    pub fn new(config: SupervisedConfig) -> Self {
        Self {
            config,
            telemetry: TelemetrySink::default(),
        }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &SupervisedConfig {
        &self.config
    }

    /// Returns the trainer recording ascent accept/backtrack counts and
    /// streaming telemetry for decoders/pools it builds into `telemetry`.
    /// Fitted parameters and decoded labels are bit-identical with or
    /// without it.
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Fits a supervised dHMM from labeled sequences.
    ///
    /// `emission` provides the (untrained) emission model whose state count
    /// defines `k`; it is re-estimated from the labels. Returns the trained
    /// model and a diagnostics report.
    pub fn fit<E: Emission>(
        &self,
        labeled: &[(Vec<usize>, Vec<E::Obs>)],
        emission: E,
    ) -> Result<(Hmm<E>, SupervisedFitReport), DhmmError> {
        let kernel = self.config.validate()?;

        // Count-based estimation of (π, A0, B) — the λ0 of the paper.
        let (mut model, counts) = supervised_estimate(labeled, emission, self.config.pseudo_count)?;
        let anchor = model.transition().clone();
        let anchor_diversity = mean_pairwise_bhattacharyya(&anchor);

        // Diversified refinement of the transition matrix (Eq. 8). With
        // α = 0 the anchor itself is already the maximizer.
        let final_transition = if self.config.alpha > 0.0 {
            let objective = TransitionObjective::supervised(
                &counts.transition_counts,
                self.config.alpha,
                kernel,
                &anchor,
                self.config.alpha_anchor,
            );
            let (a, stats) = maximize_transition_objective_counted(
                &objective,
                &anchor,
                &self.config.ascent,
                &mut AscentWorkspace::new(),
            )?;
            self.telemetry
                .counter(
                    "dhmm_train_ascent_accepted_total",
                    &[],
                    "Accepted projected-gradient line-search steps",
                )
                .add(stats.accepted);
            self.telemetry
                .counter(
                    "dhmm_train_ascent_rejected_total",
                    &[],
                    "Backtracked (non-improving) line-search trial steps",
                )
                .add(stats.rejected);
            a
        } else {
            anchor.clone()
        };
        model.set_transition(final_transition.clone())?;

        let report = SupervisedFitReport {
            anchor_diversity,
            final_diversity: mean_pairwise_bhattacharyya(&final_transition),
            final_log_prior: if self.config.alpha > 0.0 {
                let prior = DppObjective::new(kernel);
                self.config.alpha
                    * prior.log_det_with(&final_transition, &mut MStepWorkspace::new())?
            } else {
                0.0
            },
            drift_from_anchor: final_transition.squared_distance(&anchor)?,
            anchor_transition: anchor,
        };
        Ok((model, report))
    }

    /// Viterbi-decodes every sequence with the engine selected by
    /// `config.backend`, sharing one inference workspace across the set.
    pub fn decode_all<E: Emission>(
        &self,
        model: &Hmm<E>,
        sequences: &[Vec<E::Obs>],
    ) -> Result<Vec<Vec<usize>>, DhmmError> {
        let mut ws = InferenceWorkspace::new();
        sequences
            .iter()
            .map(|s| {
                self.config
                    .backend
                    .viterbi(model, s, &mut ws)
                    .map_err(DhmmError::from)
            })
            .collect()
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
    /// reproduces [`SupervisedDiversifiedHmm::decode_all`] exactly.
    pub fn streaming_decoder<'m, E: Emission>(
        &self,
        model: &'m Hmm<E>,
        lag: usize,
    ) -> Result<StreamingDecoder<'m, E>, DhmmError> {
        StreamingDecoder::with_config(model, self.stream_config(lag)).map_err(DhmmError::from)
    }

    /// Builds a multiplexed [`SessionPool`] over a trained model, honoring
    /// the trainer's `backend` and `parallelism` knobs. The pool owns the
    /// model behind an `Arc` so later checkpoints can be hot-swapped in
    /// with [`SessionPool::publish`].
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
    use dhmm_data::ocr::{generate, OcrConfig};
    use dhmm_hmm::emission::{BernoulliEmission, DiscreteEmission};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn labeled_toy() -> Vec<(Vec<usize>, Vec<usize>)> {
        vec![
            (vec![0, 1, 0, 1], vec![0, 1, 0, 1]),
            (vec![1, 0, 1], vec![1, 0, 1]),
            (vec![0, 0, 1], vec![0, 0, 1]),
        ]
    }

    #[test]
    fn invalid_config_rejected() {
        let trainer = SupervisedDiversifiedHmm::new(SupervisedConfig {
            alpha: f64::NAN,
            ..SupervisedConfig::default()
        });
        assert!(trainer
            .fit(&labeled_toy(), DiscreteEmission::uniform(2, 2).unwrap())
            .is_err());
    }

    #[test]
    fn alpha_zero_keeps_the_count_estimate() {
        let trainer = SupervisedDiversifiedHmm::new(SupervisedConfig {
            alpha: 0.0,
            pseudo_count: 0.0,
            ..SupervisedConfig::default()
        });
        let (model, report) = trainer
            .fit(&labeled_toy(), DiscreteEmission::uniform(2, 2).unwrap())
            .unwrap();
        assert!(model
            .transition()
            .approx_eq(&report.anchor_transition, 1e-12));
        assert_eq!(report.drift_from_anchor, 0.0);
        assert_eq!(report.final_log_prior, 0.0);
    }

    /// The reported prior comes from the fused engine and stays within
    /// 1e-12 relative of the scalar oracle on a fitted k = 16 model.
    #[test]
    fn final_log_prior_matches_the_scalar_oracle() {
        let k = 16;
        let mut rng = StdRng::seed_from_u64(21);
        let labeled: Vec<(Vec<usize>, Vec<usize>)> = (0..60)
            .map(|_| {
                let mut state = rng.gen_range(0..k);
                let mut states = Vec::new();
                let mut obs = Vec::new();
                for _ in 0..20 {
                    states.push(state);
                    obs.push((state + rng.gen_range(0..3)) % k);
                    state = (state + rng.gen_range(1..4)) % k;
                }
                (states, obs)
            })
            .collect();
        let alpha = 3.0;
        let trainer = SupervisedDiversifiedHmm::new(SupervisedConfig {
            alpha,
            alpha_anchor: 1.0,
            pseudo_count: 0.1,
            ..SupervisedConfig::default()
        });
        let (model, report) = trainer
            .fit(&labeled, DiscreteEmission::uniform(k, k).unwrap())
            .unwrap();
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
    fn diversity_refinement_stays_near_anchor_with_large_anchor_weight() {
        let trainer = SupervisedDiversifiedHmm::new(SupervisedConfig {
            alpha: 10.0,
            alpha_anchor: 1e5,
            pseudo_count: 0.1,
            ascent: AscentConfig::default(),
            ..SupervisedConfig::default()
        });
        let (model, report) = trainer
            .fit(&labeled_toy(), DiscreteEmission::uniform(2, 2).unwrap())
            .unwrap();
        assert!(model.transition().is_row_stochastic(1e-8));
        assert!(
            report.drift_from_anchor < 1e-2,
            "drift {}",
            report.drift_from_anchor
        );
        // Diversity should not decrease relative to the anchor.
        assert!(report.final_diversity >= report.anchor_diversity - 1e-6);
    }

    #[test]
    fn small_anchor_weight_allows_more_diversification() {
        let tight = SupervisedDiversifiedHmm::new(SupervisedConfig {
            alpha: 20.0,
            alpha_anchor: 1e6,
            ..SupervisedConfig::default()
        });
        let loose = SupervisedDiversifiedHmm::new(SupervisedConfig {
            alpha: 20.0,
            alpha_anchor: 1.0,
            ..SupervisedConfig::default()
        });
        let data = labeled_toy();
        let (_, tight_report) = tight
            .fit(&data, DiscreteEmission::uniform(2, 2).unwrap())
            .unwrap();
        let (_, loose_report) = loose
            .fit(&data, DiscreteEmission::uniform(2, 2).unwrap())
            .unwrap();
        assert!(loose_report.drift_from_anchor >= tight_report.drift_from_anchor - 1e-9);
    }

    #[test]
    fn decode_all_backends_agree() {
        use crate::config::InferenceBackend;
        let mut rng = StdRng::seed_from_u64(9);
        let data = generate(
            &OcrConfig {
                num_words: 80,
                ..OcrConfig::default()
            },
            &mut rng,
        );
        let scaled_trainer = SupervisedDiversifiedHmm::new(SupervisedConfig::default());
        let sparse_trainer = SupervisedDiversifiedHmm::new(
            SupervisedConfig::default()
                .with_backend(InferenceBackend::Sparse(dhmm_hmm::SparseParams::exact())),
        );
        let emission = BernoulliEmission::uniform(26, 128).unwrap();
        let (model, _) = scaled_trainer
            .fit(&data.corpus.sequences, emission)
            .unwrap();
        let images: Vec<Vec<Vec<bool>>> = data
            .corpus
            .sequences
            .iter()
            .take(20)
            .map(|(_, obs)| obs.clone())
            .collect();
        let scaled_paths = scaled_trainer.decode_all(&model, &images).unwrap();
        let sparse_paths = sparse_trainer.decode_all(&model, &images).unwrap();
        let oracle_paths: Vec<Vec<usize>> = images
            .iter()
            .map(|s| dhmm_hmm::reference::viterbi(&model, s).unwrap())
            .collect();
        assert_eq!(scaled_paths, oracle_paths);
        assert_eq!(sparse_paths, oracle_paths);
    }

    #[test]
    fn supervised_ocr_training_and_decoding_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let data = generate(
            &OcrConfig {
                num_words: 150,
                ..OcrConfig::default()
            },
            &mut rng,
        );
        let trainer = SupervisedDiversifiedHmm::new(SupervisedConfig {
            alpha: 10.0,
            alpha_anchor: 1e5,
            pseudo_count: 0.5,
            ..SupervisedConfig::default()
        });
        let emission = BernoulliEmission::uniform(26, 128).unwrap();
        let (model, report) = trainer.fit(&data.corpus.sequences, emission).unwrap();
        assert_eq!(model.num_states(), 26);
        assert!(report.final_diversity > 0.0);
        // The trained model should decode training words far better than chance.
        let mut correct = 0usize;
        let mut total = 0usize;
        for (labels, images) in data.corpus.sequences.iter().take(50) {
            let decoded = model.decode(images).unwrap();
            correct += decoded.iter().zip(labels).filter(|(a, b)| a == b).count();
            total += labels.len();
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.5, "training accuracy only {acc}");
    }
}
