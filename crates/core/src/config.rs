//! Configuration of diversified-HMM training.

use crate::error::DhmmError;
use dhmm_dpp::ProductKernel;
pub use dhmm_hmm::InferenceBackend;
pub use dhmm_runtime::Parallelism;

/// Configuration of the projected-gradient ascent used to maximize the
/// penalized transition objective (the paper's Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AscentConfig {
    /// Maximum number of ascent iterations per M-step.
    pub max_iterations: usize,
    /// Initial step size `γ`; the backtracking line search shrinks it when a
    /// step does not improve the objective.
    pub initial_step: f64,
    /// Multiplicative factor applied to the step size on a failed step.
    pub backtrack_factor: f64,
    /// Number of backtracking halvings to try per iteration.
    pub max_backtracks: usize,
    /// Absolute objective-improvement threshold `δ` for stopping.
    pub tolerance: f64,
}

impl Default for AscentConfig {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            initial_step: 0.1,
            backtrack_factor: 0.5,
            max_backtracks: 20,
            tolerance: 1e-6,
        }
    }
}

impl AscentConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), DhmmError> {
        if self.max_iterations == 0 {
            return Err(DhmmError::InvalidConfig {
                reason: "ascent max_iterations must be positive".into(),
            });
        }
        if self.initial_step <= 0.0 || !self.initial_step.is_finite() {
            return Err(DhmmError::InvalidConfig {
                reason: "ascent initial_step must be positive and finite".into(),
            });
        }
        if !(0.0 < self.backtrack_factor && self.backtrack_factor < 1.0) {
            return Err(DhmmError::InvalidConfig {
                reason: "backtrack_factor must lie in (0, 1)".into(),
            });
        }
        if self.tolerance < 0.0 || self.tolerance.is_nan() {
            return Err(DhmmError::InvalidConfig {
                reason: "ascent tolerance must be non-negative".into(),
            });
        }
        Ok(())
    }
}

/// Configuration of unsupervised (MAP-EM) diversified-HMM training, Eq. 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiversifiedConfig {
    /// Weight `α ≥ 0` of the diversity prior; `α = 0` recovers the plain HMM.
    pub alpha: f64,
    /// Exponent `ρ` of the probability product kernel (the paper uses 0.5).
    pub rho: f64,
    /// Maximum number of EM iterations.
    pub max_em_iterations: usize,
    /// Relative objective-improvement threshold for EM convergence.
    pub em_tolerance: f64,
    /// Projected-gradient ascent settings for the transition M-step.
    pub ascent: AscentConfig,
    /// Inference engine for the E-step and for trainer-level decoding via
    /// [`crate::unsupervised::DiversifiedHmm::decode_all`] (scaled workspace
    /// engine by default). Note `Hmm::decode`/`decode_all` on the model
    /// itself always use the scaled default.
    pub backend: InferenceBackend,
    /// Worker policy of the E-step, of the M-step's two concurrent halves
    /// (transition ascent and emission update) and of the decoders and
    /// pools this trainer builds (`Auto` by default; `Serial` is the
    /// single-threaded oracle). The transition ascent itself runs on one
    /// thread. Results are bit-identical under every policy.
    pub parallelism: Parallelism,
}

impl Default for DiversifiedConfig {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            rho: ProductKernel::DEFAULT_RHO,
            max_em_iterations: 100,
            em_tolerance: 1e-6,
            ascent: AscentConfig::default(),
            backend: InferenceBackend::default(),
            parallelism: Parallelism::default(),
        }
    }
}

impl DiversifiedConfig {
    /// Validates the configuration and builds the product kernel.
    pub fn validate(&self) -> Result<ProductKernel, DhmmError> {
        if self.alpha < 0.0 || !self.alpha.is_finite() {
            return Err(DhmmError::InvalidConfig {
                reason: format!("alpha must be non-negative and finite, got {}", self.alpha),
            });
        }
        if self.max_em_iterations == 0 {
            return Err(DhmmError::InvalidConfig {
                reason: "max_em_iterations must be positive".into(),
            });
        }
        if self.em_tolerance < 0.0 || self.em_tolerance.is_nan() {
            return Err(DhmmError::InvalidConfig {
                reason: "em_tolerance must be non-negative".into(),
            });
        }
        self.ascent.validate()?;
        ProductKernel::new(self.rho).map_err(DhmmError::from)
    }

    /// Returns a copy with a different prior weight `α` (convenient for the
    /// α-sweeps of Figs. 7 and 10).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Returns a copy with the given inference backend for the E-step and
    /// trainer-level decoding.
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

    /// Returns a copy with the given projected-gradient ascent settings.
    pub fn with_ascent(mut self, ascent: AscentConfig) -> Self {
        self.ascent = ascent;
        self
    }
}

/// Configuration of supervised diversified-HMM training, Eq. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisedConfig {
    /// Weight `α ≥ 0` of the diversity prior.
    pub alpha: f64,
    /// Weight `α_A ≥ 0` of the anchor term `‖A − A0‖²` that keeps the
    /// diversified transition matrix close to the count-based estimate
    /// (the paper uses `α_A = 1e5` for OCR).
    pub alpha_anchor: f64,
    /// Exponent `ρ` of the probability product kernel.
    pub rho: f64,
    /// Additive smoothing pseudo-count used when estimating `π`, `A0` and the
    /// emission model from counts.
    pub pseudo_count: f64,
    /// Projected-gradient ascent settings.
    pub ascent: AscentConfig,
    /// Inference engine used when decoding unlabeled sequences (scaled
    /// workspace engine by default).
    pub backend: InferenceBackend,
    /// Worker policy of the decoders and pools this trainer builds (`Auto`
    /// by default; bit-identical results under every policy). The
    /// transition refinement runs on the calling thread.
    pub parallelism: Parallelism,
}

impl Default for SupervisedConfig {
    fn default() -> Self {
        Self {
            alpha: 10.0,
            alpha_anchor: 1e5,
            rho: ProductKernel::DEFAULT_RHO,
            pseudo_count: 0.1,
            ascent: AscentConfig::default(),
            backend: InferenceBackend::default(),
            parallelism: Parallelism::default(),
        }
    }
}

impl SupervisedConfig {
    /// Validates the configuration and builds the product kernel.
    pub fn validate(&self) -> Result<ProductKernel, DhmmError> {
        if self.alpha < 0.0 || !self.alpha.is_finite() {
            return Err(DhmmError::InvalidConfig {
                reason: "alpha must be non-negative and finite".into(),
            });
        }
        if self.alpha_anchor < 0.0 || !self.alpha_anchor.is_finite() {
            return Err(DhmmError::InvalidConfig {
                reason: "alpha_anchor must be non-negative and finite".into(),
            });
        }
        if self.pseudo_count < 0.0 || self.pseudo_count.is_nan() {
            return Err(DhmmError::InvalidConfig {
                reason: "pseudo_count must be non-negative".into(),
            });
        }
        self.ascent.validate()?;
        ProductKernel::new(self.rho).map_err(DhmmError::from)
    }

    /// Returns a copy with a different prior weight `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Returns a copy with the given inference backend for decoding
    /// unlabeled sequences.
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

    /// Returns a copy with the given projected-gradient ascent settings.
    pub fn with_ascent(mut self, ascent: AscentConfig) -> Self {
        self.ascent = ascent;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let u = DiversifiedConfig::default();
        assert!(u.validate().is_ok());
        assert_eq!(u.rho, 0.5);
        let s = SupervisedConfig::default();
        assert!(s.validate().is_ok());
        assert_eq!(s.alpha_anchor, 1e5);
    }

    #[test]
    fn invalid_unsupervised_configs_rejected() {
        assert!(DiversifiedConfig {
            alpha: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DiversifiedConfig {
            alpha: f64::NAN,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DiversifiedConfig {
            max_em_iterations: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DiversifiedConfig {
            em_tolerance: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DiversifiedConfig {
            rho: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn invalid_supervised_configs_rejected() {
        assert!(SupervisedConfig {
            alpha: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SupervisedConfig {
            alpha_anchor: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SupervisedConfig {
            pseudo_count: -0.1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SupervisedConfig {
            rho: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn invalid_ascent_configs_rejected() {
        assert!(AscentConfig {
            max_iterations: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AscentConfig {
            initial_step: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AscentConfig {
            backtrack_factor: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AscentConfig {
            tolerance: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(AscentConfig::default().validate().is_ok());
    }

    #[test]
    fn with_alpha_builder() {
        let c = DiversifiedConfig::default().with_alpha(100.0);
        assert_eq!(c.alpha, 100.0);
        let s = SupervisedConfig::default().with_alpha(0.0);
        assert_eq!(s.alpha, 0.0);
    }

    #[test]
    fn builders_cover_the_shared_knobs_consistently() {
        // One builder spelling across both trainer configs (and mirrored by
        // `BaumWelchConfig` / `StreamConfig` in their crates): chainable,
        // consuming, field-for-field.
        let sparse = InferenceBackend::Sparse(dhmm_hmm::SparseParams::exact());
        let c = DiversifiedConfig::default()
            .with_alpha(2.0)
            .with_backend(sparse)
            .with_parallelism(Parallelism::Threads(3))
            .with_ascent(AscentConfig {
                max_iterations: 7,
                ..Default::default()
            });
        assert_eq!(c.backend, sparse);
        assert_eq!(c.parallelism, Parallelism::Threads(3));
        assert_eq!(c.ascent.max_iterations, 7);

        let s = SupervisedConfig::default()
            .with_backend(sparse)
            .with_parallelism(Parallelism::Serial)
            .with_ascent(AscentConfig {
                tolerance: 1e-3,
                ..Default::default()
            });
        assert_eq!(s.backend, sparse);
        assert_eq!(s.parallelism, Parallelism::Serial);
        assert_eq!(s.ascent.tolerance, 1e-3);
    }
}
