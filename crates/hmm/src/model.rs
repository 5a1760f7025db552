//! The first-order HMM parameterized by `λ = (π, A, B)`.

use crate::emission::Emission;
use crate::error::HmmError;
use dhmm_linalg::Matrix;

/// A first-order Hidden Markov Model.
///
/// * `π` — initial state distribution (`k` entries),
/// * `A` — `k × k` row-stochastic transition matrix, `A[i][j] = P(X_t = j | X_{t-1} = i)`,
/// * `B` — emission model implementing [`Emission`].
///
/// The model also keeps `Aᵀ` ([`Hmm::transition_t`]) for the backward
/// recursion, which reads the predecessors of a state as one contiguous
/// row. [`Hmm::new`] and [`Hmm::set_transition`] are the only code that
/// writes `A`, and both rebuild `Aᵀ`, so the two never disagree.
#[derive(Debug, Clone)]
pub struct Hmm<E: Emission> {
    initial: Vec<f64>,
    transition: Matrix,
    transition_t: Matrix,
    emission: E,
}

impl<E: Emission> Hmm<E> {
    /// Builds an HMM after validating that the parameter shapes are
    /// consistent and that `π` and the rows of `A` are distributions.
    pub fn new(initial: Vec<f64>, transition: Matrix, emission: E) -> Result<Self, HmmError> {
        let k = emission.num_states();
        if k == 0 {
            return Err(HmmError::InvalidParameters {
                reason: "emission model has zero states".into(),
            });
        }
        if initial.len() != k {
            return Err(HmmError::InvalidParameters {
                reason: format!(
                    "initial distribution has {} entries but the model has {k} states",
                    initial.len()
                ),
            });
        }
        if transition.shape() != (k, k) {
            return Err(HmmError::InvalidParameters {
                reason: format!(
                    "transition matrix is {:?}, expected ({k}, {k})",
                    transition.shape()
                ),
            });
        }
        if !dhmm_linalg::vector::is_distribution(&initial, 1e-6) {
            return Err(HmmError::InvalidParameters {
                reason: "initial state probabilities must be non-negative and sum to 1".into(),
            });
        }
        if !transition.is_row_stochastic(1e-6) {
            return Err(HmmError::InvalidParameters {
                reason: "transition matrix must be row stochastic".into(),
            });
        }
        Ok(Self {
            initial,
            transition_t: transition.transpose(),
            transition,
            emission,
        })
    }

    /// Number of hidden states `k`.
    pub fn num_states(&self) -> usize {
        self.emission.num_states()
    }

    /// The initial state distribution `π`.
    pub fn initial(&self) -> &[f64] {
        &self.initial
    }

    /// The transition matrix `A`.
    pub fn transition(&self) -> &Matrix {
        &self.transition
    }

    /// The transposed transition matrix `Aᵀ` (`transition_t()[(j, i)] =
    /// transition()[(i, j)]`), kept in step with `A`.
    pub fn transition_t(&self) -> &Matrix {
        &self.transition_t
    }

    /// The emission model `B`.
    pub fn emission(&self) -> &E {
        &self.emission
    }

    /// Mutable access to the emission model (used by the EM M-step).
    pub fn emission_mut(&mut self) -> &mut E {
        &mut self.emission
    }

    /// Split borrow: the transition matrix (shared) together with the
    /// emission model (exclusive). Lets the M-step's two independent jobs —
    /// the transition update, which reads the current `A`, and the emission
    /// re-estimation, which rewrites `B` — borrow the model simultaneously
    /// so they can run as concurrent tasks on the runtime executor.
    pub fn transition_and_emission_mut(&mut self) -> (&Matrix, &mut E) {
        (&self.transition, &mut self.emission)
    }

    /// Replaces `π`, re-validating it.
    pub fn set_initial(&mut self, initial: Vec<f64>) -> Result<(), HmmError> {
        if initial.len() != self.num_states()
            || !dhmm_linalg::vector::is_distribution(&initial, 1e-6)
        {
            return Err(HmmError::InvalidParameters {
                reason: "invalid initial distribution".into(),
            });
        }
        self.initial = initial;
        Ok(())
    }

    /// Replaces `A`, re-validating it.
    pub fn set_transition(&mut self, transition: Matrix) -> Result<(), HmmError> {
        let k = self.num_states();
        if transition.shape() != (k, k) || !transition.is_row_stochastic(1e-6) {
            return Err(HmmError::InvalidParameters {
                reason: "invalid transition matrix".into(),
            });
        }
        transition
            .transpose_into(&mut self.transition_t)
            .expect("Aᵀ has the k x k shape of A");
        self.transition = transition;
        Ok(())
    }

    /// Log-probability of a *labeled* sequence, `log P(X, Y | λ)`.
    pub fn joint_log_likelihood(
        &self,
        states: &[usize],
        observations: &[E::Obs],
    ) -> Result<f64, HmmError> {
        if states.len() != observations.len() {
            return Err(HmmError::LabelMismatch {
                sequence: 0,
                states: states.len(),
                observations: observations.len(),
            });
        }
        if states.is_empty() {
            return Err(HmmError::InvalidData {
                reason: "empty sequence".into(),
            });
        }
        let k = self.num_states();
        if states.iter().any(|&s| s >= k) {
            return Err(HmmError::InvalidData {
                reason: "state index out of range".into(),
            });
        }
        let floor = 1e-300_f64;
        let mut ll = self.initial[states[0]].max(floor).ln()
            + self.emission.log_prob(states[0], &observations[0]);
        for t in 1..states.len() {
            ll += self.transition[(states[t - 1], states[t])].max(floor).ln()
                + self.emission.log_prob(states[t], &observations[t]);
        }
        Ok(ll)
    }

    /// Marginal log-likelihood `log P(Y | λ)` of one observation sequence,
    /// computed with the scaled forward pass (forward recursion only).
    pub fn log_likelihood(&self, observations: &[E::Obs]) -> Result<f64, HmmError> {
        self.log_likelihood_with(
            observations,
            &mut crate::workspace::InferenceWorkspace::new(),
        )
    }

    /// Like [`Hmm::log_likelihood`] but reusing a caller-provided workspace —
    /// the allocation-free path for repeated evaluation.
    pub fn log_likelihood_with(
        &self,
        observations: &[E::Obs],
        ws: &mut crate::workspace::InferenceWorkspace,
    ) -> Result<f64, HmmError> {
        crate::scaled::log_likelihood_scaled(self, observations, ws)
    }

    /// Total marginal log-likelihood over a set of sequences.
    pub fn total_log_likelihood(&self, sequences: &[Vec<E::Obs>]) -> Result<f64, HmmError> {
        let mut ws = crate::workspace::InferenceWorkspace::new();
        let mut total = 0.0;
        for seq in sequences {
            total += self.log_likelihood_with(seq, &mut ws)?;
        }
        Ok(total)
    }

    /// Most likely hidden state sequence (scaled-space Viterbi decoding).
    pub fn decode(&self, observations: &[E::Obs]) -> Result<Vec<usize>, HmmError> {
        self.decode_with(
            observations,
            &mut crate::workspace::InferenceWorkspace::new(),
        )
    }

    /// Like [`Hmm::decode`] but reusing a caller-provided workspace.
    pub fn decode_with(
        &self,
        observations: &[E::Obs],
        ws: &mut crate::workspace::InferenceWorkspace,
    ) -> Result<Vec<usize>, HmmError> {
        crate::scaled::viterbi_scaled(self, observations, ws)
    }

    /// Decodes every sequence in a set, sharing one workspace across calls.
    pub fn decode_all(&self, sequences: &[Vec<E::Obs>]) -> Result<Vec<Vec<usize>>, HmmError> {
        crate::scaled::InferenceBackend::Scaled.decode_all(self, sequences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::DiscreteEmission;

    fn weather_model() -> Hmm<DiscreteEmission> {
        // Classic 2-state weather/umbrella model.
        let emission =
            DiscreteEmission::new(Matrix::from_rows(&[vec![0.9, 0.1], vec![0.2, 0.8]]).unwrap())
                .unwrap();
        let transition = Matrix::from_rows(&[vec![0.7, 0.3], vec![0.3, 0.7]]).unwrap();
        Hmm::new(vec![0.5, 0.5], transition, emission).unwrap()
    }

    #[test]
    fn construction_validates_shapes() {
        let emission = DiscreteEmission::uniform(2, 3).unwrap();
        let a = Matrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]).unwrap();
        assert!(Hmm::new(vec![0.5, 0.5], a.clone(), emission.clone()).is_ok());
        assert!(Hmm::new(vec![1.0], a.clone(), emission.clone()).is_err());
        assert!(Hmm::new(vec![0.6, 0.6], a.clone(), emission.clone()).is_err());
        let bad_a = Matrix::from_rows(&[vec![0.5, 0.6], vec![0.5, 0.5]]).unwrap();
        assert!(Hmm::new(vec![0.5, 0.5], bad_a, emission.clone()).is_err());
        let wrong_shape = Matrix::filled(3, 3, 1.0 / 3.0);
        assert!(Hmm::new(vec![0.5, 0.5], wrong_shape, emission).is_err());
    }

    #[test]
    fn accessors_and_setters() {
        let mut m = weather_model();
        assert_eq!(m.num_states(), 2);
        assert_eq!(m.initial(), &[0.5, 0.5]);
        assert_eq!(m.transition()[(0, 0)], 0.7);
        assert!(m.set_initial(vec![0.9, 0.1]).is_ok());
        assert!(m.set_initial(vec![0.9, 0.2]).is_err());
        assert!(m.set_initial(vec![1.0]).is_err());
        let new_a = Matrix::from_rows(&[vec![0.6, 0.4], vec![0.4, 0.6]]).unwrap();
        assert!(m.set_transition(new_a).is_ok());
        assert!(m.set_transition(Matrix::filled(3, 3, 1.0 / 3.0)).is_err());
        let _ = m.emission_mut();
    }

    /// `Aᵀ` is the exact transpose of `A` after construction and after
    /// every accepted `set_transition`; a rejected one leaves both alone.
    #[test]
    fn transition_t_tracks_the_transition() {
        let mut m = weather_model();
        let bits = |x: &Matrix| x.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(m.transition_t()), bits(&m.transition().transpose()));
        let new_a = Matrix::from_rows(&[vec![0.1, 0.9], vec![0.35, 0.65]]).unwrap();
        m.set_transition(new_a.clone()).unwrap();
        assert_eq!(bits(m.transition_t()), bits(&new_a.transpose()));
        assert_eq!(m.transition_t()[(0, 1)], 0.35);
        assert!(m.set_transition(Matrix::filled(2, 2, 0.9)).is_err());
        assert_eq!(bits(m.transition_t()), bits(&new_a.transpose()));
    }

    #[test]
    fn joint_log_likelihood_matches_hand_computation() {
        let m = weather_model();
        // P(X=[0,1], Y=[0,1]) = 0.5 * 0.9 * 0.3 * 0.8
        let ll = m.joint_log_likelihood(&[0, 1], &[0usize, 1usize]).unwrap();
        let expected = (0.5_f64 * 0.9 * 0.3 * 0.8).ln();
        assert!((ll - expected).abs() < 1e-10);
    }

    #[test]
    fn joint_log_likelihood_validates_inputs() {
        let m = weather_model();
        assert!(m.joint_log_likelihood(&[0], &[0usize, 1]).is_err());
        assert!(m.joint_log_likelihood(&[], &[]).is_err());
        assert!(m.joint_log_likelihood(&[5], &[0usize]).is_err());
    }

    #[test]
    fn marginal_likelihood_sums_over_paths() {
        let m = weather_model();
        // Brute-force enumerate P(Y) over all state paths for a length-3 sequence.
        let obs = vec![0usize, 1, 0];
        let mut total = 0.0;
        for s0 in 0..2 {
            for s1 in 0..2 {
                for s2 in 0..2 {
                    let ll = m.joint_log_likelihood(&[s0, s1, s2], &obs).unwrap().exp();
                    total += ll;
                }
            }
        }
        let ll = m.log_likelihood(&obs).unwrap();
        assert!((ll - total.ln()).abs() < 1e-9, "{} vs {}", ll, total.ln());
    }

    #[test]
    fn total_log_likelihood_adds_sequences() {
        let m = weather_model();
        let s1 = vec![0usize, 1];
        let s2 = vec![1usize, 1, 0];
        let total = m.total_log_likelihood(&[s1.clone(), s2.clone()]).unwrap();
        let expected = m.log_likelihood(&s1).unwrap() + m.log_likelihood(&s2).unwrap();
        assert!((total - expected).abs() < 1e-10);
    }

    #[test]
    fn decode_all_returns_one_path_per_sequence() {
        let m = weather_model();
        let paths = m
            .decode_all(&[vec![0usize, 0, 0], vec![1usize, 1]])
            .unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 3);
        assert_eq!(paths[1].len(), 2);
    }
}
