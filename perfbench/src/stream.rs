//! `stream-pool`: an in-process `SessionPool` (dense, k = 64, lag 8) with 64
//! live sessions. Even slots push 32 tokens per tick; odd slots push a seeded
//! 1–32. A session that has pushed its whole document is flushed, closed and
//! replaced by the next document, so one large lockstep group (the 32-token
//! pushers) runs beside many small groups and scalar fallbacks. A round is a
//! fixed number of ticks, after which every live session is flushed and
//! closed.
//!
//! `BENCHMARK.json` does not list `stream-pool`. Its ticks are vectorised
//! floating-point code, which a shared host slows by up to 1.8x for tens of
//! seconds at a time, and over ten runs of the same code on a 2-vCPU VM its
//! throughput and document times spread by up to 31%; its timings are not
//! scaled to a nominal host. It stays here for per-layer attribution of the
//! `stream` layer's lockstep path.

use crate::report::{hist_mean, median, parse_exposition, quantile, Round, RuntimeCounters};
use crate::{Scale, Workload};
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::generate::{generate_sequence, LabeledSequence};
use dhmm_hmm::init::{random_parameters, random_stochastic_matrix, InitStrategy};
use dhmm_hmm::Hmm;
use dhmm_runtime::Parallelism;
use dhmm_stream::{SessionId, SessionPool, StreamConfig, StreamingDecoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Most tokens one session pushes per tick.
const CHUNK: usize = 32;
const LAG: usize = 8;

/// A random discrete model whose rows are Dirichlet draws, shared by the
/// streaming and serving workloads.
pub fn random_model(states: usize, vocab: usize, rng: &mut StdRng) -> Hmm<DiscreteEmission> {
    let (pi, a) = random_parameters(states, InitStrategy::Dirichlet { concentration: 2.0 }, rng)
        .expect("valid parameters");
    let b = random_stochastic_matrix(states, vocab, 1.0, rng).expect("valid emission rows");
    Hmm::new(pi, a, DiscreteEmission::new(b).expect("valid emission")).expect("valid model")
}

pub struct StreamPool {
    model: Arc<Hmm<DiscreteEmission>>,
    vocab: usize,
    sessions: usize,
    docs: Vec<LabeledSequence<usize>>,
    /// Ticks after the set-up tick; then every live session is retired.
    ticks: usize,
    schedule_seed: u64,
    /// The document whose labels are re-derived by a standalone decoder.
    check_doc: usize,
}

impl StreamPool {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (states, vocab, sessions, ticks, docs, lengths) = match scale {
            Scale::Full => (64, 256, 64, 100, 256, 64..=1024),
            Scale::Smoke => (8, 16, 8, 10, 16, 8..=64),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(states, vocab, &mut rng);
        let docs: Vec<_> = (0..docs)
            .map(|_| {
                let len = rng.gen_range(lengths.clone());
                generate_sequence(&model, len, &mut rng).expect("valid model generates")
            })
            .collect();
        Self {
            check_doc: rng.gen_range(0..sessions),
            schedule_seed: rng.gen(),
            model: Arc::new(model),
            vocab,
            sessions,
            docs,
            ticks,
        }
    }
}

/// One live session: the document it streams and what it has committed.
struct Live {
    id: SessionId,
    doc: usize,
    steady: bool,
    pushed: usize,
    labels: Vec<usize>,
    started: Instant,
}

/// What one round's ticks accumulate.
#[derive(Default)]
struct Tally {
    push_s: f64,
    pushes: u64,
    pushed_tokens: u64,
    correct: u64,
    labeled: u64,
    /// Documents opened so far; the next one to open.
    next_doc: usize,
    /// Labels, log-likelihood and pushed length of the checked document.
    checked: Option<(Vec<usize>, f64, usize)>,
}

impl StreamPool {
    /// Opens a session for the `n`-th document of the round; the documents
    /// are reused in order if the round outlasts them.
    fn open(&self, pool: &mut SessionPool<DiscreteEmission>, slot: usize, n: usize) -> Live {
        Live {
            id: pool.create(),
            doc: n % self.docs.len(),
            steady: slot.is_multiple_of(2),
            pushed: 0,
            labels: Vec::new(),
            started: Instant::now(),
        }
    }

    /// One tick: every live session pushes, the pool ticks, committed
    /// labels are collected, and finished documents are retired and
    /// replaced by the next one. Returns the wall time of `SessionPool::tick`.
    fn step(
        &self,
        pool: &mut SessionPool<DiscreteEmission>,
        live: &mut [Live],
        schedule: &mut StdRng,
        round: &mut Round,
        tally: &mut Tally,
    ) -> f64 {
        for s in live.iter_mut() {
            let doc = &self.docs[s.doc].observations;
            let want = if s.steady {
                CHUNK
            } else {
                schedule.gen_range(1..=CHUNK)
            };
            let n = want.min(doc.len() - s.pushed);
            let t = Instant::now();
            let pushed = pool.push_many(s.id, doc[s.pushed..s.pushed + n].iter().copied());
            tally.push_s += t.elapsed().as_secs_f64();
            tally.pushes += 1;
            round.attempted += 1;
            match pushed {
                Ok(()) => {
                    s.pushed += n;
                    tally.pushed_tokens += n as u64;
                }
                Err(e) => round.fail(format!("push_many: {e}")),
            }
        }
        let t = Instant::now();
        pool.tick();
        let tick_s = t.elapsed().as_secs_f64();
        round.attempted += 1;

        for (slot, s) in live.iter_mut().enumerate() {
            collect(pool, s, round);
            if s.pushed == self.docs[s.doc].observations.len() {
                self.retire(pool, s, round, tally);
                *s = self.open(pool, slot, tally.next_doc);
                tally.next_doc += 1;
            }
        }
        tick_s
    }

    /// Flushes and closes a session, then checks its labels. A session cut
    /// off at the end of the round is checked against the prefix it pushed.
    fn retire(
        &self,
        pool: &mut SessionPool<DiscreteEmission>,
        s: &mut Live,
        round: &mut Round,
        tally: &mut Tally,
    ) {
        round.attempted += 1;
        if let Err(e) = pool.flush(s.id) {
            round.fail(format!("flush: {e}"));
        }
        collect(pool, s, round);
        let ll = pool.log_likelihood(s.id).unwrap_or(f64::NAN);
        round.attempted += 1;
        if let Err(e) = pool.close(s.id) {
            round.fail(format!("close: {e}"));
        }
        let gold = &self.docs[s.doc].states;
        if s.pushed == gold.len() {
            round.jobs_s.push(s.started.elapsed().as_secs_f64());
        }
        round.check(s.labels.len() == s.pushed, || {
            format!(
                "document {}: {} labels for {} tokens",
                s.doc,
                s.labels.len(),
                s.pushed
            )
        });
        tally.labeled += s.labels.len() as u64;
        tally.correct += s.labels.iter().zip(gold).filter(|(a, b)| a == b).count() as u64;
        if s.doc == self.check_doc && tally.checked.is_none() {
            tally.checked = Some((std::mem::take(&mut s.labels), ll, s.pushed));
        }
    }
}

/// Moves a session's newly committed labels into its buffer, checking that
/// their start offset continues where the previous batch ended.
fn collect(pool: &mut SessionPool<DiscreteEmission>, s: &mut Live, round: &mut Round) {
    let before = s.labels.len();
    round.attempted += 1;
    match pool.take_committed(s.id, &mut s.labels) {
        Ok(start) => round.check(start == before, || {
            format!(
                "document {}: committed start {start}, expected {before}",
                s.doc
            )
        }),
        Err(e) => round.fail(format!("take_committed: {e}")),
    }
}

impl Workload for StreamPool {
    fn params(&self) -> Vec<(&'static str, String)> {
        let tokens: usize = self.docs.iter().map(|d| d.observations.len()).sum();
        vec![
            ("states", self.model.num_states().to_string()),
            ("vocab", self.vocab.to_string()),
            ("lag", LAG.to_string()),
            ("sessions", self.sessions.to_string()),
            ("ticks_per_round", (self.ticks + 1).to_string()),
            ("documents", self.docs.len().to_string()),
            ("document_tokens", tokens.to_string()),
            ("max_push", CHUNK.to_string()),
            ("parallelism", "\"auto\"".into()),
        ]
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::new(traced);
        let (registry, sink) = crate::report::sink(traced);
        let config = StreamConfig::default()
            .with_lag(LAG)
            .with_parallelism(Parallelism::Auto)
            .with_telemetry(sink);
        let mut schedule = StdRng::seed_from_u64(self.schedule_seed);
        let mut tally = Tally::default();

        // Set-up: the pool, its sessions, and the first warm tick.
        let t = Instant::now();
        let mut pool = match SessionPool::with_config(Arc::clone(&self.model), config) {
            Ok(p) => p,
            Err(e) => {
                round.fail(format!("pool: {e}"));
                return round;
            }
        };
        let mut live: Vec<Live> = (0..self.sessions)
            .map(|slot| self.open(&mut pool, slot, slot))
            .collect();
        tally.next_doc = self.sessions;
        self.step(&mut pool, &mut live, &mut schedule, &mut round, &mut tally);
        round.setup_s = t.elapsed().as_secs_f64();

        let setup_tokens = tally.pushed_tokens;
        let before = RuntimeCounters::read();
        let t = Instant::now();
        let mut tick_total = 0.0;
        for _ in 0..self.ticks {
            let tick_s = self.step(&mut pool, &mut live, &mut schedule, &mut round, &mut tally);
            tick_total += tick_s;
            round.latencies_us.push(tick_s * 1e6);
        }
        for s in &mut live {
            self.retire(&mut pool, s, &mut round, &mut tally);
        }
        round.work_s = t.elapsed().as_secs_f64();
        round.tokens = tally.pushed_tokens - setup_tokens;
        round.accuracy = tally.correct as f64 / tally.labeled.max(1) as f64;

        if traced {
            let lockstep = pool.lockstep_tokens_total() as f64;
            let scalar = pool.scalar_tokens_total() as f64;
            let expo = parse_exposition(&registry.render());
            round.layer("stream.lockstep_tokens", lockstep);
            round.layer("stream.scalar_tokens", scalar);
            round.layer(
                "stream.lockstep_share",
                lockstep / (lockstep + scalar).max(1.0),
            );
            round.layer(
                "stream.smoothing_batched_rows",
                pool.smoothing_batched_total() as f64,
            );
            round.layer(
                "stream.smoothing_scalar_rows",
                pool.smoothing_scalar_total() as f64,
            );
            round.layer(
                "stream.group_size_mean",
                hist_mean(&expo, "dhmm_stream_lockstep_group_size", ""),
            );
            round.layer(
                "stream.push_us",
                tally.push_s / tally.pushes.max(1) as f64 * 1e6,
            );
            round.layer("stream.tick_p50_us", median(&round.latencies_us));
            round.layer("stream.tick_p90_us", quantile(&round.latencies_us, 0.9));
            before.record_since(&mut round, tick_total * 1e9);
        }

        // A standalone decoder fed the checked document must reproduce the
        // pool's labels and log-likelihood bit for bit.
        match tally.checked.take() {
            None => round.fail(format!("document {} was never streamed", self.check_doc)),
            Some((labels, ll, pushed)) => {
                let doc = &self.docs[self.check_doc].observations[..pushed];
                let (want, want_ll) = standalone(&self.model, doc);
                round.check(labels == want, || {
                    format!(
                        "document {}: pool labels differ from a standalone decoder",
                        self.check_doc
                    )
                });
                round.check(ll.to_bits() == want_ll.to_bits(), || {
                    format!(
                        "document {}: pool log-likelihood {ll} differs from standalone {want_ll}",
                        self.check_doc
                    )
                });
            }
        }
        round
    }

    fn primary(&self) -> &'static str {
        "tokens_per_s"
    }
}

fn standalone(model: &Hmm<DiscreteEmission>, tokens: &[usize]) -> (Vec<usize>, f64) {
    let mut dec = StreamingDecoder::with_config(model, StreamConfig::default().with_lag(LAG))
        .expect("scaled backend streams");
    let mut labels = Vec::with_capacity(tokens.len());
    for tok in tokens {
        labels.extend_from_slice(dec.push(tok).committed);
    }
    let out = dec.flush();
    labels.extend_from_slice(out.committed);
    (labels, out.log_likelihood)
}
