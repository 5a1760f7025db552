//! `serve-replay`: a `dhmm-serve` server on loopback (k = 16, lag 8, default
//! configuration but a serial engine) driven by one closed-loop client. Every
//! session uses a fresh connection: a seeded pause, then connect, create, 32
//! pushes of 32 tokens, flush, close, disconnect. At k = 16 the tick is
//! cheap, so the front end (framing, engine queue, reply) dominates.
//!
//! The end-to-end timings start at the `create` reply. Connect plus the
//! first reply waits for the acceptor's 5 ms poll and for a new connection
//! thread, and on a shared machine that wait swings by a factor of two from
//! run to run; it is reported per layer (`serve.connect_*`, `serve.create_us`).
//!
//! One client and a serial engine keep a single thread runnable at a time.
//! With two clients, or with an `Auto` engine whose one- or two-session ticks
//! wait for a pool helper to wake, the median session time on a shared 2-core
//! machine moved by up to a factor of two between runs of the same code.

use crate::report::{hist_mean, median, parse_exposition, quantile, Round, RuntimeCounters};
use crate::stream::random_model;
use crate::{Scale, Workload};
use dhmm_data::io::LoadedModel;
use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::generate::generate_sequence;
use dhmm_hmm::Hmm;
use dhmm_runtime::Parallelism;
use dhmm_serve::{Client, Request, Response, ServeConfig, Server, SessionId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Tokens per push request.
const CHUNK: usize = 32;
const LAG: usize = 8;
/// Longest pause the client takes before it connects: one period of the
/// acceptor's 5 ms poll. Without it a closed-loop client reconnects at the
/// same phase of the poll every time, and the wait it sees locks onto the
/// session length modulo 5 ms instead of sampling the poll.
const PAUSE_US: u64 = 5000;

/// One session's input: the client's pause before connecting, the token
/// text of each push, and the states the tokens were generated from.
struct Session {
    pause: Duration,
    pushes: Vec<Vec<String>>,
    states: Vec<usize>,
}

pub struct ServeReplay {
    model: Hmm<DiscreteEmission>,
    vocab: usize,
    /// The sessions of a round, replayed in order.
    sessions: Vec<Session>,
}

impl ServeReplay {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (states, vocab, sessions, pushes) = match scale {
            Scale::Full => (16, 64, 64, 32),
            Scale::Smoke => (4, 8, 4, 4),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(states, vocab, &mut rng);
        let sessions = (0..sessions)
            .map(|_| {
                let seq = generate_sequence(&model, pushes * CHUNK, &mut rng)
                    .expect("valid model generates");
                Session {
                    pause: Duration::from_micros(rng.gen_range(0..PAUSE_US)),
                    pushes: seq
                        .observations
                        .chunks(CHUNK)
                        .map(|c| c.iter().map(usize::to_string).collect())
                        .collect(),
                    states: seq.states,
                }
            })
            .collect();
        Self {
            model,
            vocab,
            sessions,
        }
    }
}

/// What the client saw in one round.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failures: Vec<String>,
    /// Connect plus the first reply, per session.
    connect_us: Vec<f64>,
    create_us: Vec<f64>,
    push_us: Vec<f64>,
    flush_us: Vec<f64>,
    close_us: Vec<f64>,
    /// Each session from the `create` reply to the `close` reply.
    sessions_s: Vec<f64>,
    tokens: u64,
    correct: u64,
}

impl ClientLog {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// One timed round trip; an error reply or a transport failure counts as
    /// a failed operation.
    fn call(&mut self, client: &mut Client, req: &Request) -> Option<(Response, f64)> {
        self.attempted += 1;
        let t = Instant::now();
        let resp = client.call(req);
        let us = t.elapsed().as_secs_f64() * 1e6;
        match resp {
            Ok(Response::Error { code, message }) => {
                self.fail(format!("{}: err {code} {message}", req.encode()));
                None
            }
            Ok(r) => Some((r, us)),
            Err(e) => {
                self.fail(format!("{}: {e}", req.encode()));
                None
            }
        }
    }

    /// Pause, connect and create.
    fn open(&mut self, addr: SocketAddr, s: &Session) -> Option<(Client, SessionId)> {
        std::thread::sleep(s.pause);
        let started = Instant::now();
        self.attempted += 1;
        let mut client = match Client::connect(addr) {
            Ok(c) => c,
            Err(e) => {
                self.fail(format!("connect: {e}"));
                return None;
            }
        };
        match self.call(&mut client, &Request::Create) {
            Some((Response::Created { id }, us)) => {
                self.create_us.push(us);
                self.connect_us.push(started.elapsed().as_secs_f64() * 1e6);
                Some((client, id))
            }
            other => {
                self.fail(format!("create answered {:?}", other.map(|r| r.0)));
                None
            }
        }
    }

    /// Opens a session, then pushes, flush, close, disconnect.
    fn session(&mut self, addr: SocketAddr, s: &Session) {
        let Some((mut client, id)) = self.open(addr, s) else {
            return;
        };
        let opened = Instant::now();
        let mut labels = Vec::with_capacity(s.states.len());
        for chunk in &s.pushes {
            let req = Request::Push {
                id,
                tokens: chunk.clone(),
            };
            match self.call(&mut client, &req) {
                Some((Response::Committed { start, labels: l }, us)) => {
                    self.push_us.push(us);
                    if start != labels.len() {
                        self.fail(format!(
                            "push committed at {start}, expected {}",
                            labels.len()
                        ));
                    }
                    labels.extend(l);
                }
                other => return self.fail(format!("push answered {:?}", other.map(|r| r.0))),
            }
        }
        match self.call(&mut client, &Request::Flush { id }) {
            Some((
                Response::Flushed {
                    start,
                    labels: l,
                    tokens,
                    ..
                },
                us,
            )) => {
                self.flush_us.push(us);
                if start != labels.len() {
                    self.fail(format!(
                        "flush committed at {start}, expected {}",
                        labels.len()
                    ));
                }
                labels.extend(l);
                if tokens != s.states.len() || labels.len() != s.states.len() {
                    self.fail(format!(
                        "session of {} tokens: server counted {tokens}, committed {}",
                        s.states.len(),
                        labels.len()
                    ));
                }
            }
            other => return self.fail(format!("flush answered {:?}", other.map(|r| r.0))),
        }
        match self.call(&mut client, &Request::Close { id }) {
            Some((Response::Closed, us)) => self.close_us.push(us),
            other => return self.fail(format!("close answered {:?}", other.map(|r| r.0))),
        }
        self.sessions_s.push(opened.elapsed().as_secs_f64());
        drop(client);
        self.tokens += s.states.len() as u64;
        self.correct += labels.iter().zip(&s.states).filter(|(a, b)| a == b).count() as u64;
    }
}

impl Workload for ServeReplay {
    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("states", self.model.num_states().to_string()),
            ("vocab", self.vocab.to_string()),
            ("lag", LAG.to_string()),
            ("clients", "1".into()),
            ("sessions_per_round", self.sessions.len().to_string()),
            (
                "pushes_per_session",
                self.sessions[0].pushes.len().to_string(),
            ),
            ("tokens_per_push", CHUNK.to_string()),
            ("parallelism", "\"serial\"".into()),
        ]
    }

    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::new(traced);
        let (_, sink) = crate::report::sink(traced);
        let config = ServeConfig::default()
            .with_lag(LAG)
            .with_parallelism(Parallelism::Serial)
            .with_telemetry(sink);

        // Set-up: until `Server::start` returns, listening. The first reply
        // waits for the acceptor's poll, which `serve.connect_*` reports.
        let t = Instant::now();
        let handle = match Server::start(
            LoadedModel::Discrete(self.model.clone()),
            config,
            "127.0.0.1:0",
        ) {
            Ok(h) => h,
            Err(e) => {
                round.fail(format!("server start: {e}"));
                return round;
            }
        };
        round.setup_s = t.elapsed().as_secs_f64();
        let addr = handle.local_addr();
        let first = Client::connect(addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call(&Request::Stats).map_err(|e| e.to_string()));
        round.check(matches!(first, Ok(Response::Stats { .. })), || {
            format!("first reply: {first:?}")
        });

        let before = RuntimeCounters::read();
        let t = Instant::now();
        let mut log = ClientLog::default();
        for s in &self.sessions {
            log.session(addr, s);
        }
        let wall_ns = t.elapsed().as_secs_f64() * 1e9;

        round.attempted += log.attempted;
        for f in log.failures.drain(..) {
            round.fail(f);
        }
        // Throughput: one session's tokens per median session time.
        let session_tokens = log.tokens as f64 / log.sessions_s.len().max(1) as f64;
        round.tokens = log.tokens;
        round.work_s = log.tokens as f64 / session_tokens * median(&log.sessions_s);
        round.accuracy = log.correct as f64 / log.tokens.max(1) as f64;
        round.latencies_us = [&log.push_us, &log.flush_us, &log.close_us]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        round.jobs_s = std::mem::take(&mut log.sessions_s);

        if traced {
            before.record_since(&mut round, wall_ns);
            round.layer("serve.request_p50_us", median(&round.latencies_us));
            round.layer("serve.request_p90_us", quantile(&round.latencies_us, 0.9));
            round.layer("serve.connect_p50_us", quantile(&log.connect_us, 0.5));
            round.layer("serve.connect_p99_us", quantile(&log.connect_us, 0.99));
            round.layer("serve.create_us", median(&log.create_us));
            round.layer("serve.push_us", median(&log.push_us));
            round.layer("serve.flush_us", median(&log.flush_us));
            round.layer("serve.close_us", median(&log.close_us));
            scrape(addr, &mut round);
        }

        round.attempted += 1;
        match handle.shutdown() {
            Ok(report) => round.check(report.flushed == 0, || {
                format!("{} sessions were left open at shutdown", report.flushed)
            }),
            Err(e) => round.fail(format!("shutdown: {e}")),
        }
        round
    }

    fn primary(&self) -> &'static str {
        "tokens_per_s"
    }
}

/// Reads the server's `metrics` exposition and `stats` reply into the
/// per-layer values of a traced round.
fn scrape(addr: SocketAddr, round: &mut Round) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return round.fail(format!("connect for metrics: {e}")),
    };
    round.attempted += 2;
    let expo = match client.call(&Request::Metrics) {
        Ok(Response::Metrics { text }) => parse_exposition(&text),
        other => return round.fail(format!("metrics answered {other:?}")),
    };
    let push = r#"{verb="push"}"#;
    round.layer(
        "serve.engine_push_us",
        hist_mean(&expo, "dhmm_serve_request_ns", push) / 1e3,
    );
    round.layer(
        "serve.batch_size_mean",
        hist_mean(&expo, "dhmm_serve_batch_size", ""),
    );
    round.layer(
        "serve.tick_us",
        hist_mean(&expo, "dhmm_stream_tick_duration_ns", "") / 1e3,
    );
    round.layer(
        "serve.errors",
        expo.iter()
            .filter(|(k, _)| k.starts_with("dhmm_serve_errors_total"))
            .map(|(_, v)| v)
            .sum(),
    );
    round.layer(
        "stream.group_size_mean",
        hist_mean(&expo, "dhmm_stream_lockstep_group_size", ""),
    );
    match client.call(&Request::Stats) {
        Ok(Response::Stats {
            lockstep_tokens,
            scalar_tokens,
            smoothing_batched,
            smoothing_scalar,
            ..
        }) => {
            let (l, s) = (lockstep_tokens as f64, scalar_tokens as f64);
            round.layer("stream.lockstep_tokens", l);
            round.layer("stream.scalar_tokens", s);
            round.layer("stream.lockstep_share", l / (l + s).max(1.0));
            round.layer("stream.smoothing_batched_rows", smoothing_batched as f64);
            round.layer("stream.smoothing_scalar_rows", smoothing_scalar as f64);
        }
        other => round.fail(format!("stats answered {other:?}")),
    }
}
