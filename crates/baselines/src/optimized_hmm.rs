//! The "Optimized HMM" baseline (after Krevat & Cuzzillo, 2006).
//!
//! The paper's Fig. 11 includes an "Optimized HMM" bar that improves only
//! marginally over the vanilla supervised HMM. Krevat & Cuzzillo's report
//! describes a handful of engineering tricks on top of count-based HMM
//! training for handwritten character recognition; the ones reproduced here
//! are
//!
//! * Laplace smoothing of the transition counts,
//! * interpolation of each transition row with the global letter-unigram
//!   distribution (backoff),
//! * a tunable emission weight `w < 1` that de-emphasizes the (over-confident
//!   Naive-Bayes) emission log-likelihood relative to the transition model
//!   during Viterbi decoding.

use dhmm_hmm::emission::{BernoulliEmission, Emission};
use dhmm_hmm::model::Hmm;
use dhmm_hmm::supervised::supervised_estimate;
use dhmm_hmm::{HmmError, InferenceBackend, InferenceWorkspace};
use dhmm_linalg::Matrix;
use rand::Rng;

/// Configuration of the Optimized HMM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizedHmmConfig {
    /// Laplace pseudo-count added to transition and initial counts.
    pub transition_smoothing: f64,
    /// Interpolation weight toward the global unigram distribution
    /// (0 = no backoff, 1 = ignore the bigram counts entirely).
    pub unigram_backoff: f64,
    /// Weight applied to the emission log-likelihood during decoding
    /// (1.0 = standard Viterbi).
    pub emission_weight: f64,
    /// Inference engine used for decoding (scaled workspace engine by
    /// default).
    pub backend: InferenceBackend,
}

impl Default for OptimizedHmmConfig {
    fn default() -> Self {
        Self {
            transition_smoothing: 0.5,
            unigram_backoff: 0.1,
            emission_weight: 0.3,
            backend: InferenceBackend::default(),
        }
    }
}

/// A Bernoulli emission whose log-likelihood is scaled by a constant weight
/// `w`: `log b'_i(y) = w · log b_i(y)` (equivalently `b'_i(y) = b_i(y)^w`).
/// This is exactly the Krevat–Cuzzillo de-emphasis trick expressed as an
/// [`Emission`], which lets the baseline reuse the shared Viterbi engines
/// instead of carrying its own decoder.
#[derive(Debug, Clone)]
struct WeightedBernoulli {
    inner: BernoulliEmission,
    weight: f64,
}

impl Emission for WeightedBernoulli {
    type Obs = Vec<bool>;

    fn num_states(&self) -> usize {
        self.inner.num_states()
    }

    fn log_prob(&self, state: usize, obs: &Vec<bool>) -> f64 {
        self.weight * self.inner.log_prob(state, obs)
    }

    fn reestimate(
        &mut self,
        _sequences: &[Vec<Vec<bool>>],
        _gammas: &[Matrix],
    ) -> Result<(), HmmError> {
        Err(HmmError::InvalidParameters {
            reason: "weighted decoding emissions are fixed at fit time".into(),
        })
    }

    fn sample<R: Rng + ?Sized>(&self, state: usize, rng: &mut R) -> Vec<bool> {
        self.inner.sample(state, rng)
    }
}

/// A supervised Bernoulli-emission HMM with the Krevat–Cuzzillo decoding
/// tweaks. Specialized to the OCR task (the only place the paper uses it).
#[derive(Debug, Clone)]
pub struct OptimizedHmm {
    model: Hmm<BernoulliEmission>,
    /// The same `(π, A)` with the emission log-likelihood pre-weighted, so
    /// decoding is a plain Viterbi call on the shared engines.
    decoder: Hmm<WeightedBernoulli>,
    config: OptimizedHmmConfig,
}

impl OptimizedHmm {
    /// Fits the baseline from labeled (letter ids, pixel vectors) sequences.
    pub fn fit(
        labeled: &[(Vec<usize>, Vec<Vec<bool>>)],
        num_states: usize,
        dim: usize,
        config: OptimizedHmmConfig,
    ) -> Result<Self, HmmError> {
        if !(0.0..=1.0).contains(&config.unigram_backoff) {
            return Err(HmmError::InvalidParameters {
                reason: "unigram_backoff must lie in [0, 1]".into(),
            });
        }
        if config.emission_weight <= 0.0 || !config.emission_weight.is_finite() {
            return Err(HmmError::InvalidParameters {
                reason: "emission_weight must be positive".into(),
            });
        }
        let emission = BernoulliEmission::uniform(num_states, dim)?;
        let (mut model, counts) =
            supervised_estimate(labeled, emission, config.transition_smoothing.max(0.0))?;

        // Interpolate each transition row with the unigram distribution.
        if config.unigram_backoff > 0.0 {
            let mut unigram: Vec<f64> = counts.state_counts.clone();
            dhmm_linalg::normalize_in_place(&mut unigram);
            let a = model.transition().clone();
            let blended = Matrix::from_fn(num_states, num_states, |i, j| {
                (1.0 - config.unigram_backoff) * a[(i, j)] + config.unigram_backoff * unigram[j]
            });
            model.set_transition(blended)?;
        }
        let decoder = Hmm::new(
            model.initial().to_vec(),
            model.transition().clone(),
            WeightedBernoulli {
                inner: model.emission().clone(),
                weight: config.emission_weight,
            },
        )?;
        Ok(Self {
            model,
            decoder,
            config,
        })
    }

    /// The underlying HMM.
    pub fn model(&self) -> &Hmm<BernoulliEmission> {
        &self.model
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> &OptimizedHmmConfig {
        &self.config
    }

    /// Viterbi decoding with the emission log-likelihood scaled by
    /// `emission_weight`, dispatched to the engine selected at fit time.
    pub fn decode(&self, observations: &[Vec<bool>]) -> Result<Vec<usize>, HmmError> {
        self.decode_with(observations, &mut InferenceWorkspace::new())
    }

    /// Like [`OptimizedHmm::decode`] but reusing a caller-provided workspace.
    pub fn decode_with(
        &self,
        observations: &[Vec<bool>],
        ws: &mut InferenceWorkspace,
    ) -> Result<Vec<usize>, HmmError> {
        self.config.backend.viterbi(&self.decoder, observations, ws)
    }

    /// Decodes every sequence in a set, sharing one workspace.
    pub fn decode_all(&self, sequences: &[Vec<Vec<bool>>]) -> Result<Vec<Vec<usize>>, HmmError> {
        let mut ws = InferenceWorkspace::new();
        sequences
            .iter()
            .map(|s| self.decode_with(s, &mut ws))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhmm_data::ocr::{generate, OcrConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_ocr() -> dhmm_data::OcrDataset {
        let mut rng = StdRng::seed_from_u64(1);
        generate(
            &OcrConfig {
                num_words: 200,
                ..OcrConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn config_validation() {
        let data = small_ocr();
        assert!(OptimizedHmm::fit(
            &data.corpus.sequences,
            26,
            128,
            OptimizedHmmConfig {
                unigram_backoff: 1.5,
                ..Default::default()
            }
        )
        .is_err());
        assert!(OptimizedHmm::fit(
            &data.corpus.sequences,
            26,
            128,
            OptimizedHmmConfig {
                emission_weight: 0.0,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn fit_produces_valid_model() {
        let data = small_ocr();
        let opt = OptimizedHmm::fit(
            &data.corpus.sequences,
            26,
            128,
            OptimizedHmmConfig::default(),
        )
        .unwrap();
        assert!(opt.model().transition().is_row_stochastic(1e-6));
        assert_eq!(opt.model().num_states(), 26);
        assert_eq!(opt.config().transition_smoothing, 0.5);
    }

    #[test]
    fn decodes_training_words_reasonably() {
        let data = small_ocr();
        let opt = OptimizedHmm::fit(
            &data.corpus.sequences,
            26,
            128,
            OptimizedHmmConfig::default(),
        )
        .unwrap();
        let mut correct = 0usize;
        let mut total = 0usize;
        for (labels, images) in data.corpus.sequences.iter().take(40) {
            let decoded = opt.decode(images).unwrap();
            assert_eq!(decoded.len(), labels.len());
            correct += decoded.iter().zip(labels).filter(|(a, b)| a == b).count();
            total += labels.len();
        }
        assert!(correct as f64 / total as f64 > 0.5);
        assert!(opt.decode(&[]).is_err());
    }

    #[test]
    fn scaled_and_reference_decoders_agree() {
        let data = small_ocr();
        let scaled = OptimizedHmm::fit(
            &data.corpus.sequences,
            26,
            128,
            OptimizedHmmConfig::default(),
        )
        .unwrap();
        for (_, images) in data.corpus.sequences.iter().take(30) {
            assert_eq!(
                scaled.decode(images).unwrap(),
                dhmm_hmm::reference::viterbi(&scaled.decoder, images).unwrap()
            );
        }
    }

    #[test]
    fn backoff_makes_transitions_denser() {
        let data = small_ocr();
        let no_backoff = OptimizedHmm::fit(
            &data.corpus.sequences,
            26,
            128,
            OptimizedHmmConfig {
                unigram_backoff: 0.0,
                transition_smoothing: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let backoff = OptimizedHmm::fit(
            &data.corpus.sequences,
            26,
            128,
            OptimizedHmmConfig {
                unigram_backoff: 0.5,
                transition_smoothing: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        let zeros_no = no_backoff
            .model()
            .transition()
            .as_slice()
            .iter()
            .filter(|&&v| v < 1e-9)
            .count();
        let zeros_yes = backoff
            .model()
            .transition()
            .as_slice()
            .iter()
            .filter(|&&v| v < 1e-9)
            .count();
        assert!(zeros_yes < zeros_no);
    }
}
