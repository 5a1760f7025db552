//! `train-pos` and `train-wide`: unsupervised MAP-EM with the DPP transition
//! prior on the synthetic WSJ-like corpus, then Viterbi labeling and
//! many-to-1 accuracy.
//!
//! `train-pos` is the paper's PoS experiment at paper size (k = 15): the
//! forward–backward E-step dominates the fit. `train-wide` uses k = 64 on a
//! small corpus, where the DPP M-step dominates and dense Viterbi is slow; it
//! decodes a held-out corpus about ten times the training corpus.
//!
//! `train-pos` trains on one thread. Its E-step splits evenly across the two
//! `Auto` workers of a 2-core machine, so each iteration waits for whichever
//! core the host slows: on a shared 2-vCPU VM, alternating runs of four seeds
//! gave median fit times of 0.65–0.90 s under `Auto` and 0.94–1.06 s on one
//! thread. `train-wide` keeps `Auto` and measures the runtime pool.
//!
//! Of the two, `BENCHMARK.json` lists `train-wide`. Before training timings
//! were scaled to a nominal host ([`crate::report::host_timed`]), the decode
//! throughput and sentence latency of `train-pos` spread by up to 30% over
//! ten runs of the same code on a shared 2-vCPU VM. It has not been
//! re-measured with the scaling, and a third listed workload would cut every
//! run to about 35 s within the benchmark's total time limit. It stays here
//! for per-layer attribution runs.

use crate::report::{host_timed, median, quantile, Round, RuntimeCounters, Slowdown};
use crate::{Scale, Workload};
use dhmm_core::{AscentConfig, DiversifiedConfig, DiversifiedHmm};
use dhmm_data::pos::{generate, PosConfig};
use dhmm_eval::accuracy::many_to_one_accuracy;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::{Hmm, InferenceWorkspace, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Prior weight α of every training workload (the paper's PoS setting).
const ALPHA: f64 = 10.0;
/// Allowed decrease of the MAP objective between EM iterations.
const OBJECTIVE_SLACK: f64 = 1e-4;

pub struct Train {
    config: DiversifiedConfig,
    states: usize,
    /// Random restarts per round; fitting all of them is the round's job,
    /// and the best final objective is kept.
    restarts: usize,
    /// EM iterations per restart.
    iterations: usize,
    vocab: usize,
    init_seed: u64,
    train_sentences: usize,
    train_obs: Vec<Vec<usize>>,
    eval_obs: Vec<Vec<usize>>,
    eval_gold: Vec<Vec<usize>>,
}

fn corpus(sentences: usize, vocab: usize, max_length: usize) -> PosConfig {
    PosConfig {
        num_sentences: sentences,
        vocab_size: vocab,
        min_length: 2,
        max_length,
    }
}

impl Train {
    /// Paper size: 3828 sentences, 10K vocabulary, k = 15, evaluated on the
    /// training corpus as in the paper.
    pub fn pos(seed: u64, scale: Scale) -> Self {
        let (config, iterations) = match scale {
            Scale::Full => (PosConfig::default(), 10),
            Scale::Smoke => (corpus(40, 300, 40), 3),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let data = generate(&config, &mut rng);
        Self {
            config: config_for(iterations, Parallelism::Serial),
            states: 15,
            restarts: 1,
            iterations,
            vocab: data.vocab_size,
            init_seed: seed.wrapping_add(1),
            train_sentences: data.corpus.len(),
            train_obs: data.corpus.observations(),
            eval_obs: data.corpus.observations(),
            eval_gold: data.corpus.labels(),
        }
    }

    /// k = 64 on 150 training sentences over a 1K vocabulary, evaluated on
    /// 1500 held-out sentences from the same generator.
    pub fn wide(seed: u64, scale: Scale) -> Self {
        let (train, heldout, iterations) = match scale {
            Scale::Full => (corpus(150, 1000, 250), corpus(1500, 1000, 250), 5),
            Scale::Smoke => (corpus(20, 200, 30), corpus(40, 200, 30), 2),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let data = generate(&train, &mut rng);
        let eval = generate(&heldout, &mut rng);
        Self {
            config: config_for(iterations, Parallelism::Auto),
            states: 64,
            // The DPP ascent's work depends on where EM starts: over ten
            // seeds a round of four restarts made 1610–1895 ascent steps, and
            // the fit time followed. A job of eight restarts averages that
            // out of `job_s`.
            restarts: 8,
            iterations,
            vocab: data.vocab_size,
            init_seed: seed.wrapping_add(1),
            train_sentences: data.corpus.len(),
            train_obs: data.corpus.observations(),
            eval_obs: eval.corpus.observations(),
            eval_gold: eval.corpus.labels(),
        }
    }
}

/// The trainer's configuration. Both tolerances are 0 so that a fit always
/// does the same EM iterations and the DPP ascent runs to its iteration cap
/// unless no step improves.
fn config_for(iterations: usize, parallelism: Parallelism) -> DiversifiedConfig {
    DiversifiedConfig {
        alpha: ALPHA,
        max_em_iterations: iterations,
        em_tolerance: 0.0,
        ascent: AscentConfig {
            tolerance: 0.0,
            ..AscentConfig::default()
        },
        parallelism,
        ..DiversifiedConfig::default()
    }
}

fn tokens(obs: &[Vec<usize>]) -> usize {
    obs.iter().map(Vec::len).sum()
}

impl Workload for Train {
    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("states", self.states.to_string()),
            ("alpha", ALPHA.to_string()),
            ("restarts", self.restarts.to_string()),
            ("em_iterations_per_restart", self.iterations.to_string()),
            ("vocab", self.vocab.to_string()),
            ("train_sentences", self.train_sentences.to_string()),
            ("train_tokens", tokens(&self.train_obs).to_string()),
            ("eval_sentences", self.eval_obs.len().to_string()),
            ("eval_tokens", tokens(&self.eval_obs).to_string()),
            ("accuracy", "\"many-to-1\"".into()),
            (
                "parallelism",
                format!("\"{:?}\"", self.config.parallelism).to_lowercase(),
            ),
        ]
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::new(traced);
        let (registry, sink) = crate::report::sink(traced);

        // Set-up: the trainer and one initial model per restart, each built
        // exactly as `DiversifiedHmm::fit_discrete` builds it (Dirichlet(3) π
        // and A, symmetric Dirichlet(1) emission rows).
        let mut slowdown = Slowdown::default();
        let ((trainer, mut models), setup_s, setup_slowdown) = host_timed(|| {
            let trainer = DiversifiedHmm::new(self.config).with_telemetry(sink);
            let mut rng = StdRng::seed_from_u64(self.init_seed);
            let models: Vec<Hmm<DiscreteEmission>> = (0..self.restarts)
                .map(|_| {
                    let (pi, a) = random_parameters(
                        self.states,
                        InitStrategy::Dirichlet { concentration: 3.0 },
                        &mut rng,
                    )?;
                    let b = random_stochastic_matrix(self.states, self.vocab, 1.0, &mut rng)?;
                    Hmm::new(pi, a, DiscreteEmission::new(b)?)
                })
                .collect::<Result<_, _>>()
                .expect("initial parameters are valid");
            (trainer, models)
        });
        round.setup_s = setup_s;
        slowdown.setup = setup_slowdown;

        // The job: fit every restart, keep the model with the best objective.
        // Each fit is scaled by the reference passes around it; the job's
        // slowdown is the one that turns the summed fit times into the sum of
        // the scaled ones.
        let before = RuntimeCounters::read();
        let (mut fit_s, mut nominal_fit_s) = (0.0, 0.0);
        let mut best: Option<(usize, f64)> = None;
        for (r, model) in models.iter_mut().enumerate() {
            round.attempted += 1;
            let (fitted, s, slow) = host_timed(|| trainer.fit(model, &self.train_obs));
            fit_s += s;
            nominal_fit_s += s / slow;
            let report = match fitted {
                Ok(report) => report,
                Err(e) => {
                    round.fail(format!("fit failed: {e}"));
                    return round;
                }
            };
            let history = &report.fit.objective_history;
            round.check(history.len() == self.iterations, || {
                format!(
                    "{} EM iterations, expected {}",
                    history.len(),
                    self.iterations
                )
            });
            let worst = history
                .windows(2)
                .map(|w| w[0] - w[1])
                .fold(f64::NEG_INFINITY, f64::max);
            round.check(history.len() < 2 || worst <= OBJECTIVE_SLACK, || {
                format!("MAP objective decreased by {worst}")
            });
            round.check(model.transition().is_row_stochastic(1e-9), || {
                "transition matrix is not row-stochastic".into()
            });
            let objective = report.fit.final_objective();
            if best.is_none_or(|(_, b)| objective > b) {
                best = Some((r, objective));
            }
        }
        round.jobs_s.push(fit_s);
        slowdown.jobs.push(fit_s / nominal_fit_s);
        let model = &models[best.map_or(0, |(r, _)| r)];

        if traced {
            let fit_ns = fit_s * 1e9;
            let expo = crate::report::parse_exposition(&registry.render());
            let get = |k: &str| expo.get(k).copied().unwrap_or(0.0);
            let iterations = get("dhmm_train_iterations_total");
            let estep_ns = get("dhmm_train_estep_ns_sum");
            let mstep_ns = get("dhmm_train_mstep_ns_sum");
            let accepted = get("dhmm_train_ascent_accepted_total");
            let rejected = get("dhmm_train_ascent_rejected_total");
            round.layer("hmm.estep_ms", estep_ns / iterations.max(1.0) / 1e6);
            round.layer("hmm.estep_share", estep_ns / fit_ns);
            round.layer("core.mstep_ms", mstep_ns / iterations.max(1.0) / 1e6);
            round.layer("core.mstep_share", mstep_ns / fit_ns);
            round.layer("core.fit_ms", fit_s * 1e3);
            round.layer("core.em_iterations", iterations);
            round.layer("dpp.ascent_accepted", accepted);
            round.layer("dpp.ascent_rejected", rejected);
            round.layer(
                "dpp.ascent_accept_share",
                accepted / (accepted + rejected).max(1.0),
            );
            before.record_since(&mut round, fit_ns);
        }

        // Offline labeling: one `decode_all` call over the corpus gives the
        // throughput.
        round.attempted += 1;
        let (decoded, work_s, work_slowdown) =
            host_timed(|| trainer.decode_all(model, &self.eval_obs));
        round.work_s = work_s;
        slowdown.work = work_slowdown;
        round.slowdown = Some(slowdown);
        let predicted = match decoded {
            Ok(labels) => labels,
            Err(e) => {
                round.fail(format!("decode failed: {e}"));
                return round;
            }
        };
        let (labeled, expected) = (tokens(&predicted), tokens(&self.eval_obs));
        round.tokens = expected as u64;
        round.check(labeled == expected, || {
            format!("{labeled} labels for {expected} tokens")
        });

        // Per-sentence latency: the Viterbi call `decode_all` makes for each
        // sentence, on one workspace reused across sentences as it does. The
        // labels must be the ones `decode_all` returned.
        let mut ws = InferenceWorkspace::new();
        for (sentence, want) in self.eval_obs.iter().zip(&predicted) {
            let t = Instant::now();
            let decoded = self.config.backend.viterbi(model, sentence, &mut ws);
            round.latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            round.check(decoded.as_ref().is_ok_and(|l| l == want), || {
                format!("per-sentence Viterbi gave {decoded:?}, decode_all {want:?}")
            });
        }
        if traced {
            round.layer("hmm.decode_p50_us", median(&round.latencies_us));
            round.layer("hmm.decode_p90_us", quantile(&round.latencies_us, 0.9));
        }
        // Many-to-1 rather than the paper's 1-to-1: after a fixed ten EM
        // iterations, 1-to-1 accuracy depends on the random start so much
        // that it varies by a quarter across seeds.
        match many_to_one_accuracy(&predicted, &self.eval_gold) {
            Ok(acc) => round.accuracy = acc,
            Err(e) => round.fail(format!("accuracy: {e}")),
        }
        round
    }

    fn primary(&self) -> &'static str {
        "job_s"
    }
}
