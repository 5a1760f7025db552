//! Multiplexed streaming sessions on the shared deterministic runtime.
//!
//! A [`SessionPool`] owns many concurrent streaming sessions. Producers
//! enqueue tokens per session ([`SessionPool::push`]); a batch
//! [`SessionPool::tick`] then advances every session's pending tokens,
//! fanning the *sessions* out over the runtime executor in deterministic
//! contiguous bands (the token order *within* a session is always its queue
//! order, and sessions share no state), so a tick is **bit-identical across
//! worker policies** — `Serial`, `Threads(n)` and `Auto` produce the same
//! labels and log-likelihoods to the last bit, pinned by
//! `tests/session_determinism.rs`. A pool exposes labels and
//! log-likelihoods only: it shares the standalone decoder's per-token step
//! but never runs its fixed-lag smoother, so no tick computes a posterior.
//!
//! # Epoch-versioned models
//!
//! The pool owns its model behind an [`Arc`], stamped with a monotonically
//! increasing **epoch**. [`SessionPool::publish`] atomically replaces the
//! current model (a freshly trained checkpoint, say) without draining the
//! pool: every *live* session keeps decoding against the epoch it is pinned
//! to until its next **commit boundary** — the start of the next tick or
//! flush that touches it — where it is *flush-then-rebound*: the old
//! stream's Viterbi tail is committed under the old model (exactly as an
//! explicit flush would), the session's running log-likelihood and token
//! count are carried over, and subsequent tokens start a fresh stream
//! against the new epoch. Already-committed labels are never touched, and a
//! swapped session's full label sequence is identical to closing it and
//! reopening a new session against the new model (pinned by
//! `tests/hotswap.rs`).
//!
//! # Backpressure
//!
//! With caps configured ([`crate::StreamConfig::pending_cap`] /
//! [`crate::StreamConfig::committed_cap`]), `push` refuses to grow a
//! session's queues without bound: a full pending-token queue fails with
//! [`StreamError::QueueFull`] (tick before pushing more) and an un-drained
//! committed-label queue fails with [`StreamError::Lagging`]
//! (`take_committed` before pushing more). [`SessionPool::evict_idle`]
//! closes sessions that have seen no activity for a configured number of
//! ticks, bumping the slot generation so stale clients get a typed
//! [`StreamError::SessionClosed`], never another session's labels.
//!
//! Memory: each session owns one ring [`StreamWorkspace`] (O(window · k)),
//! while per-push scratch is leased per *worker* from a runtime `LeasePool`
//! — `S` sessions on `w` workers pay for `S` rings but only `w` scratches.
//! Closing a session keeps its workspace warm in the slot; reopening reuses
//! it allocation-free (including a shorter stream followed by a longer one —
//! the buffers are grow-only).

use crate::decoder::{flush_stream, push_token, ring_window, SmoothAction};
use crate::error::StreamError;
use crate::workspace::{StreamScratch, StreamWorkspace};
use crate::StreamConfig;
use dhmm_hmm::emission::Emission;
use dhmm_hmm::model::Hmm;
use dhmm_hmm::InferenceBackend;
use dhmm_runtime::{Executor, LeasePool, Parallelism};
use dhmm_telemetry::{Counter, Gauge, Histogram, TelemetrySink};
use std::sync::Arc;

/// Below either of these per-tick sizes, an `Auto`-policy tick runs
/// serially: dispatch overhead would not be amortized. Explicit `Threads(n)`
/// requests are always honored (determinism makes over-partitioning safe).
const PAR_MIN_SESSIONS: usize = 2;
/// Minimum total pending tokens for an automatic parallel tick.
const PAR_MIN_TOKENS: usize = 2_048;

/// Handle to one session in a [`SessionPool`].
///
/// Carries a generation counter so a handle kept across a close/reopen (or
/// idle eviction) of the same slot is detected as stale instead of silently
/// reading another session's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId {
    slot: u32,
    generation: u32,
}

impl SessionId {
    /// Reassembles a session id from its wire parts (a serving front-end
    /// round-trips ids through its protocol as `slot.generation`). An id
    /// fabricated with a wrong generation is harmless: every pool operation
    /// generation-checks and fails with [`StreamError::SessionClosed`].
    pub fn from_parts(slot: u32, generation: u32) -> Self {
        Self { slot, generation }
    }

    /// The pool slot this id names (diagnostic only).
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The slot generation this id was issued under.
    pub fn generation(&self) -> u32 {
        self.generation
    }
}

/// One slot of the pool: persistent ring state plus the token in-queue and
/// the committed-label out-queue, pinned to a model epoch.
struct Slot<E: Emission> {
    generation: u32,
    active: bool,
    flushed: bool,
    /// The model this session is currently decoding against.
    model: Arc<Hmm<E>>,
    /// The epoch of `model`; rebinding happens when this falls behind the
    /// pool's published epoch.
    epoch: u64,
    ws: StreamWorkspace,
    /// Tokens enqueued since the last tick, in arrival order.
    pending: Vec<E::Obs>,
    /// Committed labels awaiting pickup; contiguous in time starting at
    /// `out_start`.
    out: Vec<usize>,
    out_start: usize,
    /// Log-likelihood accumulated by stream segments completed before the
    /// last rebind (each rebind flushes a segment and folds its `Σ log c_t`
    /// in here).
    ll_carry: f64,
    /// Tokens decoded by segments completed before the last rebind.
    tokens_carry: usize,
    /// Pool clock value of the last activity on this session (push, flush,
    /// take, or a tick that advanced it); drives idle eviction.
    last_active: u64,
}

impl<E: Emission> Slot<E> {
    fn new(model: Arc<Hmm<E>>, epoch: u64) -> Self {
        Self {
            generation: 0,
            active: false,
            flushed: false,
            model,
            epoch,
            ws: StreamWorkspace::new(),
            pending: Vec::new(),
            out: Vec::new(),
            out_start: 0,
            ll_carry: 0.0,
            tokens_carry: 0,
            last_active: 0,
        }
    }
}

/// Commits the old stream segment at a boundary and rebinds the slot to the
/// published model. Free function (not a method) so `tick` can call it from
/// inside a parallel band over disjoint slots.
fn rebind_slot<E: Emission>(
    slot: &mut Slot<E>,
    model: &Arc<Hmm<E>>,
    epoch: u64,
    lag: usize,
    scratch: &mut StreamScratch,
) {
    if slot.ws.tokens() > 0 && !slot.ws.is_finished() {
        // The tail commits under the *old* model (a backtrack over the
        // session's own ring; no posterior is computed).
        flush_stream(lag, &mut slot.ws, scratch);
        slot.out.extend_from_slice(&scratch.committed);
    }
    slot.ll_carry += slot.ws.log_likelihood();
    slot.tokens_carry += slot.ws.tokens();
    slot.model = Arc::clone(model);
    slot.epoch = epoch;
    slot.ws.reset();
}

/// Empties `v` and hands its allocation to a vector of another element type
/// of the same size and alignment: the standard library collects a mapped
/// `vec::IntoIter` in place, so nothing is allocated or freed. This is how
/// [`SessionPool::tick`] keeps its list of slot borrows, whose lifetime
/// cannot outlive one tick, warm across ticks (pinned by
/// `tests/zero_alloc.rs`).
fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    const {
        assert!(size_of::<T>() == size_of::<U>() && align_of::<T>() == align_of::<U>());
    }
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was emptied"))
        .collect()
}

/// Summary of one batch tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TickReport {
    /// Sessions that had pending tokens.
    pub sessions: usize,
    /// Total tokens advanced.
    pub tokens: usize,
    /// Sessions rebound to a newer model epoch during this tick.
    pub rebound: usize,
    /// Rows whose fixed-lag smoothing window closed this tick (whole
    /// blocks, or one row per token at lag 0): the rows a standalone
    /// decoder fed the same tokens would emit. The pool computes no
    /// posterior for them. A rebind's flush is not counted.
    pub smoothing_scalar_tokens: usize,
}

/// Metric handles of one [`SessionPool`], registered once at construction.
///
/// The lifetime counters double as the pool's *functional* state: the
/// `evicted_total` / `scalar_tokens_total` / … accessors (and a serving
/// front-end's `stats` reply) read the same atomics the metrics exposition
/// renders, so the two can never disagree. They are built with
/// [`TelemetrySink::live_counter`] — detached (but still counting) under a
/// disabled sink. Pure-telemetry metrics (tick latency, rebinds, gauges)
/// are true no-ops when disabled: no clock reads, no atomics. Everything on the tick path is allocation-free (pinned by
/// `tests/zero_alloc.rs`).
#[derive(Debug, Clone)]
struct PoolMetrics {
    /// `dhmm_stream_ticks_total`.
    ticks: Counter,
    /// `dhmm_stream_tick_duration_ns`.
    tick_ns: Histogram,
    /// `dhmm_stream_rebinds_total`.
    rebinds: Counter,
    /// `dhmm_stream_clock` (mirrors [`SessionPool::clock`]).
    clock: Gauge,
    /// `dhmm_stream_scalar_tokens_total` (live: backs the accessor).
    scalar_tokens: Counter,
    /// `dhmm_stream_smoothing_scalar_rows_total` (live).
    smoothing_scalar: Counter,
    /// `dhmm_stream_evicted_sessions_total` (live).
    evicted: Counter,
}

impl PoolMetrics {
    fn new(sink: &TelemetrySink) -> Self {
        Self {
            ticks: sink.counter(
                "dhmm_stream_ticks_total",
                &[],
                "Batch ticks run by the session pool.",
            ),
            tick_ns: sink.histogram(
                "dhmm_stream_tick_duration_ns",
                &[],
                "Wall time of one session-pool tick, in nanoseconds.",
            ),
            rebinds: sink.counter(
                "dhmm_stream_rebinds_total",
                &[],
                "Sessions rebound to a newer model epoch at a commit boundary.",
            ),
            clock: sink.gauge(
                "dhmm_stream_clock",
                &[],
                "The pool's logical clock (ticks so far).",
            ),
            scalar_tokens: sink.live_counter(
                "dhmm_stream_scalar_tokens_total",
                &[],
                "Tokens advanced by session-pool ticks.",
            ),
            smoothing_scalar: sink.live_counter(
                "dhmm_stream_smoothing_scalar_rows_total",
                &[],
                "Rows whose fixed-lag smoothing window closed in session-pool \
                 ticks (the pool computes no posterior for them).",
            ),
            evicted: sink.live_counter(
                "dhmm_stream_evicted_sessions_total",
                &[],
                "Sessions evicted for idleness.",
            ),
        }
    }
}

/// Many concurrent streaming sessions multiplexed over an epoch-versioned
/// model and the shared worker-pool runtime.
pub struct SessionPool<E: Emission> {
    model: Arc<Hmm<E>>,
    epoch: u64,
    lag: usize,
    backend: InferenceBackend,
    parallelism: Parallelism,
    pending_cap: Option<usize>,
    committed_cap: Option<usize>,
    slots: Vec<Slot<E>>,
    free: Vec<usize>,
    scratch: LeasePool<StreamScratch>,
    /// The allocation of [`SessionPool::tick`]'s list of sessions to
    /// advance, kept empty between ticks (see [`recycle`]) so a warm tick
    /// does not allocate.
    tick_slots: Vec<usize>,
    /// Logical clock: advances once per [`SessionPool::tick`]; the idle
    /// reference for eviction.
    clock: u64,
    /// Metric handles; the lifetime counters (evicted sessions, ticked
    /// tokens, closed smoothing rows) live here as shared atomics so the
    /// accessors, a serving front-end's `stats` reply and the metrics
    /// exposition all read the same storage.
    metrics: PoolMetrics,
}

impl<E: Emission> std::fmt::Debug for SessionPool<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Hand-written (not derived) so `E::Obs: Debug` is not required.
        f.debug_struct("SessionPool")
            .field("epoch", &self.epoch)
            .field("lag", &self.lag)
            .field("parallelism", &self.parallelism)
            .field("slots", &self.slots.len())
            .field("active", &self.active_sessions())
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl<E: Emission> SessionPool<E> {
    /// Creates a pool from a full [`StreamConfig`], rejecting out-of-range
    /// sparse parameters.
    pub fn with_config(model: Arc<Hmm<E>>, config: StreamConfig) -> Result<Self, StreamError> {
        config.validate()?;
        Ok(Self {
            model,
            epoch: 0,
            lag: config.lag,
            backend: config.backend,
            parallelism: config.parallelism,
            pending_cap: config.pending_cap,
            committed_cap: config.committed_cap,
            slots: Vec::new(),
            free: Vec::new(),
            scratch: LeasePool::new(),
            tick_slots: Vec::new(),
            clock: 0,
            metrics: PoolMetrics::new(&config.telemetry),
        })
    }

    /// Creates a pool with the given lag and worker policy (unbounded
    /// queues; use [`SessionPool::with_config`] for backpressure caps).
    pub fn new(model: Arc<Hmm<E>>, lag: usize, parallelism: Parallelism) -> Self {
        Self::with_config(
            model,
            StreamConfig::default()
                .with_lag(lag)
                .with_parallelism(parallelism),
        )
        .expect("default backend always streams")
    }

    /// The configured lag `L`.
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// The currently published model epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// The currently published model.
    pub fn current_model(&self) -> &Arc<Hmm<E>> {
        &self.model
    }

    /// The pool's logical clock (ticks so far).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Sessions evicted for idleness over the pool's lifetime.
    pub fn evicted_total(&self) -> u64 {
        self.metrics.evicted.value()
    }

    /// The configured inference backend.
    pub fn backend(&self) -> InferenceBackend {
        self.backend
    }

    /// Always 0. Every ticked token advances through the per-session step
    /// and is counted by [`SessionPool::scalar_tokens_total`]; this reader
    /// stays so existing consumers of the old lockstep/scalar split (and
    /// the `stats` reply) keep working.
    pub fn lockstep_tokens_total(&self) -> u64 {
        0
    }

    /// Tokens advanced by ticks over the pool's lifetime (flush-drained
    /// tokens are not counted).
    pub fn scalar_tokens_total(&self) -> u64 {
        self.metrics.scalar_tokens.value()
    }

    /// Always 0, like [`SessionPool::lockstep_tokens_total`]: every closed
    /// smoothing row is counted by [`SessionPool::smoothing_scalar_total`].
    pub fn smoothing_batched_total(&self) -> u64 {
        0
    }

    /// Rows whose fixed-lag smoothing window closed in ticks over the
    /// pool's lifetime (see [`TickReport::smoothing_scalar_tokens`]; the
    /// pool computes no posterior for them, and flush-drained rows are not
    /// counted, like the token count).
    pub fn smoothing_scalar_total(&self) -> u64 {
        self.metrics.smoothing_scalar.value()
    }

    /// Number of currently open sessions.
    pub fn active_sessions(&self) -> usize {
        self.slots.iter().filter(|s| s.active).count()
    }

    /// Ids of every currently open session (ascending slot order). A
    /// serving front-end drains these at shutdown so every in-flight
    /// stream's tail is committed before the process exits.
    pub fn active_ids(&self) -> Vec<SessionId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active)
            .map(|(i, s)| SessionId {
                slot: i as u32,
                generation: s.generation,
            })
            .collect()
    }

    /// Whether the session's stream has been flushed (it stays readable
    /// until closed).
    pub fn is_flushed(&self, id: SessionId) -> Result<bool, StreamError> {
        let slot = self.resolve(id)?;
        Ok(self.slots[slot].flushed)
    }

    /// Number of slots ever allocated (active + warm free).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Atomically publishes a new model as the next epoch and returns that
    /// epoch. Live sessions are *not* drained: each picks the new model up
    /// at its next commit boundary (tick or flush) via flush-then-rebind —
    /// the old stream's tail is committed under the old model, then
    /// subsequent tokens decode against the new one. Sessions created after
    /// `publish` bind the new epoch immediately.
    pub fn publish(&mut self, model: Arc<Hmm<E>>) -> u64 {
        self.model = model;
        self.epoch += 1;
        self.epoch
    }

    /// Opens a session against the current epoch, reusing a closed slot's
    /// warm buffers when one is available.
    pub fn create(&mut self) -> SessionId {
        let slot = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots
                    .push(Slot::new(Arc::clone(&self.model), self.epoch));
                self.slots.len() - 1
            }
        };
        let clock = self.clock;
        let (model, epoch) = (Arc::clone(&self.model), self.epoch);
        let s = &mut self.slots[slot];
        s.active = true;
        s.flushed = false;
        s.model = model;
        s.epoch = epoch;
        s.ws.reset();
        s.pending.clear();
        s.out.clear();
        s.out_start = 0;
        s.ll_carry = 0.0;
        s.tokens_carry = 0;
        s.last_active = clock;
        SessionId {
            slot: slot as u32,
            generation: s.generation,
        }
    }

    fn resolve(&self, id: SessionId) -> Result<usize, StreamError> {
        let slot = id.slot as usize;
        match self.slots.get(slot) {
            None => Err(StreamError::SessionNotFound { slot }),
            Some(s) if !s.active || s.generation != id.generation => {
                Err(StreamError::SessionClosed { slot })
            }
            Some(_) => Ok(slot),
        }
    }

    /// Enqueues one observation on a session; it is processed by the next
    /// [`SessionPool::tick`] (or [`SessionPool::flush`]). This is
    /// [`SessionPool::push_many`] of one observation, so it fails with the
    /// same typed backpressure errors when a configured queue cap is hit.
    ///
    /// The [`StreamError::Lagging`] check is a *high-water mark*, not a
    /// strict bound: the push is accepted whenever the committed-label
    /// out-queue currently holds fewer than `committed_cap` labels. How many labels a token will commit is unknowable before the
    /// tick runs — a forced commit can emit one, a convergence commit a
    /// whole window — so the queue may legitimately overshoot the cap by
    /// one tick's commits before further pushes are refused.
    pub fn push(&mut self, id: SessionId, obs: E::Obs) -> Result<(), StreamError> {
        self.push_many(id, std::iter::once(obs))
    }

    /// Enqueues a batch of observations atomically: either every
    /// observation is accepted or — when a configured cap would be hit
    /// anywhere in the batch — none is, and the typed backpressure error is
    /// returned with the queue state at rejection time. This is the
    /// all-or-nothing entry point a serving front-end needs so a partially
    /// applied request never leaves the client guessing how much of its
    /// push survived.
    ///
    /// The [`StreamError::Lagging`] check is the same high-water-mark rule
    /// as [`SessionPool::push`]: the batch is accepted whenever the
    /// committed-label out-queue currently holds fewer than `committed_cap`
    /// labels, *regardless of batch size* — the out-queue growth a batch
    /// causes is unknowable before the tick runs, so sizing the check on
    /// the batch would be a guess, and an asymmetric one between the two
    /// entry points.
    pub fn push_many<I>(&mut self, id: SessionId, obs: I) -> Result<(), StreamError>
    where
        I: IntoIterator<Item = E::Obs>,
        I::IntoIter: ExactSizeIterator,
    {
        let obs = obs.into_iter();
        let slot = self.resolve(id)?;
        let clock = self.clock;
        let (pending_cap, committed_cap) = (self.pending_cap, self.committed_cap);
        let s = &mut self.slots[slot];
        if s.flushed {
            return Err(StreamError::SessionFinished { slot });
        }
        if let Some(cap) = pending_cap {
            // `checked_add`: a hostile `ExactSizeIterator` can claim up to
            // `usize::MAX` elements, and a wrapping sum in a release build
            // would sail past the cap. Overflow is by definition over any
            // finite cap, so it degrades to the same typed error.
            if s.pending
                .len()
                .checked_add(obs.len())
                .is_none_or(|total| total > cap)
            {
                return Err(StreamError::QueueFull {
                    slot,
                    pending: s.pending.len(),
                    cap,
                });
            }
        }
        if let Some(cap) = committed_cap {
            if s.out.len() >= cap {
                return Err(StreamError::Lagging {
                    slot,
                    queued: s.out.len(),
                    cap,
                });
            }
        }
        s.pending.extend(obs);
        s.last_active = clock;
        Ok(())
    }

    /// Advances every session's pending tokens, and rebinds any session
    /// still pinned to a superseded model epoch (flush-then-rebind at this
    /// commit boundary).
    ///
    /// Each session's tokens run in queue order through the same per-token
    /// step as [`crate::StreamingDecoder::push`] and [`SessionPool::flush`],
    /// so a pooled session's labels and log-likelihood are exactly a
    /// standalone decoder's fed the same tokens. Unlike the decoder, a tick
    /// never runs the fixed-lag smoother: it counts the rows whose window
    /// closed ([`TickReport::smoothing_scalar_tokens`]) and computes no
    /// posterior. The sessions are fanned out in deterministic contiguous
    /// bands over the configured worker policy; sessions share no state, so
    /// `Serial`, `Threads(n)` and `Auto` produce the same labels and
    /// log-likelihoods to the last bit (pinned by
    /// `tests/session_determinism.rs`).
    pub fn tick(&mut self) -> TickReport
    where
        E: Send + Sync,
        E::Obs: Send + Sync,
    {
        // The tick span borrows only `self.metrics`; under a disabled sink
        // it never reads the clock. One span per *tick* (not per push) keeps
        // instrumented pool throughput within the telemetry overhead budget.
        let tick_span = self.metrics.tick_ns.span();
        self.clock += 1;
        self.metrics.ticks.inc();
        self.metrics.clock.set(self.clock as f64);
        let clock = self.clock;
        let epoch = self.epoch;
        let model = Arc::clone(&self.model);
        let lag = self.lag;
        let backend = self.backend;

        let total_tokens: usize = self
            .slots
            .iter()
            .filter(|s| s.active)
            .map(|s| s.pending.len())
            .sum();
        let mut active: Vec<&mut Slot<E>> = recycle(std::mem::take(&mut self.tick_slots));
        active.extend(
            self.slots
                .iter_mut()
                .filter(|s| s.active && !s.flushed && (!s.pending.is_empty() || s.epoch != epoch)),
        );
        let mut report = TickReport {
            sessions: active.iter().filter(|s| !s.pending.is_empty()).count(),
            tokens: total_tokens,
            rebound: active.iter().filter(|s| s.epoch != epoch).count(),
            smoothing_scalar_tokens: 0,
        };
        if active.is_empty() {
            self.tick_slots = recycle(active);
            drop(tick_span);
            return report;
        }

        let mut exec = Executor::new(self.parallelism);
        if self.parallelism == Parallelism::Auto
            && (active.len() < PAR_MIN_SESSIONS || total_tokens < PAR_MIN_TOKENS)
        {
            exec = Executor::serial();
        }
        // One scratch per worker covers every band of the partition, and
        // sizing by the worker count needs no partition (no allocation).
        let scratches = self.scratch.ensure(exec.workers());
        let model_ref = &model;
        exec.for_each_band_with(&mut active, 1, scratches, |_range, band, scratch| {
            for slot in band.iter_mut() {
                if slot.epoch != epoch {
                    rebind_slot(slot, model_ref, epoch, lag, scratch);
                }
                if !slot.pending.is_empty() {
                    slot.last_active = clock;
                }
                for i in 0..slot.pending.len() {
                    let action = push_token(
                        &slot.model,
                        lag,
                        backend,
                        slot.epoch,
                        &mut slot.ws,
                        scratch,
                        &slot.pending[i],
                    );
                    scratch.tick_smoothing_rows += action.map_or(0, SmoothAction::rows) as u64;
                    slot.out.extend_from_slice(&scratch.committed);
                }
                slot.pending.clear();
            }
        });
        self.tick_slots = recycle(active);
        // Drain the per-band smoothing-row counters (each band owned its
        // scratch, so the sum is policy-independent).
        for sc in self.scratch.ensure(exec.workers()).iter_mut() {
            report.smoothing_scalar_tokens += std::mem::take(&mut sc.tick_smoothing_rows) as usize;
        }
        self.metrics.rebinds.add(report.rebound as u64);
        self.metrics.scalar_tokens.add(report.tokens as u64);
        self.metrics
            .smoothing_scalar
            .add(report.smoothing_scalar_tokens as u64);
        drop(tick_span);
        report
    }

    /// Drains any pending tokens of one session (serially), then ends its
    /// stream: the remaining Viterbi tail is appended to the session's
    /// committed labels. If a newer model epoch has been published, the
    /// session is rebound first (old-segment tail committed under the old
    /// model, pending tokens decoded against the new one) — the same
    /// commit-boundary rule as [`SessionPool::tick`]. The session stays
    /// readable (labels, likelihood) until closed.
    pub fn flush(&mut self, id: SessionId) -> Result<(), StreamError> {
        let slot = self.resolve(id)?;
        if self.slots[slot].flushed {
            return Err(StreamError::SessionFinished { slot });
        }
        let clock = self.clock;
        let (model, epoch, lag) = (Arc::clone(&self.model), self.epoch, self.lag);
        let backend = self.backend;
        let scratch = &mut self.scratch.ensure(1)[0];
        let s = &mut self.slots[slot];
        if s.epoch != epoch {
            rebind_slot(s, &model, epoch, lag, scratch);
        }
        for i in 0..s.pending.len() {
            push_token(
                &s.model,
                lag,
                backend,
                s.epoch,
                &mut s.ws,
                scratch,
                &s.pending[i],
            );
            s.out.extend_from_slice(&scratch.committed);
        }
        s.pending.clear();
        flush_stream(lag, &mut s.ws, scratch);
        s.out.extend_from_slice(&scratch.committed);
        s.flushed = true;
        s.last_active = clock;
        Ok(())
    }

    /// The committed labels awaiting pickup (contiguous in time; the first
    /// entry is the label of time [`SessionPool::committed_start`]).
    pub fn committed(&self, id: SessionId) -> Result<&[usize], StreamError> {
        let slot = self.resolve(id)?;
        Ok(&self.slots[slot].out)
    }

    /// Time index of the first not-yet-taken committed label.
    pub fn committed_start(&self, id: SessionId) -> Result<usize, StreamError> {
        let slot = self.resolve(id)?;
        Ok(self.slots[slot].out_start)
    }

    /// Moves the session's committed labels into `dst` (appending) and
    /// returns the time index of the first moved label.
    pub fn take_committed(
        &mut self,
        id: SessionId,
        dst: &mut Vec<usize>,
    ) -> Result<usize, StreamError> {
        let slot = self.resolve(id)?;
        let clock = self.clock;
        let s = &mut self.slots[slot];
        let start = s.out_start;
        dst.extend_from_slice(&s.out);
        s.out_start += s.out.len();
        s.out.clear();
        s.last_active = clock;
        Ok(start)
    }

    /// Running `log P(y_0..t)` of everything ticked through the session so
    /// far (pending tokens not yet included), summed across every model
    /// epoch the session has decoded under.
    pub fn log_likelihood(&self, id: SessionId) -> Result<f64, StreamError> {
        let slot = self.resolve(id)?;
        let s = &self.slots[slot];
        Ok(s.ll_carry + s.ws.log_likelihood())
    }

    /// Tokens fully processed (ticked) on this session, across epochs.
    pub fn tokens(&self, id: SessionId) -> Result<usize, StreamError> {
        let slot = self.resolve(id)?;
        let s = &self.slots[slot];
        Ok(s.tokens_carry + s.ws.tokens())
    }

    /// The model epoch this session is currently pinned to.
    pub fn session_epoch(&self, id: SessionId) -> Result<u64, StreamError> {
        let slot = self.resolve(id)?;
        Ok(self.slots[slot].epoch)
    }

    /// Closes a session: the slot (with its warm ring buffers) returns to
    /// the free list for the next [`SessionPool::create`], and the id
    /// becomes stale.
    pub fn close(&mut self, id: SessionId) -> Result<(), StreamError> {
        let slot = self.resolve(id)?;
        self.close_slot(slot);
        Ok(())
    }

    fn close_slot(&mut self, slot: usize) {
        let s = &mut self.slots[slot];
        s.active = false;
        s.generation = s.generation.wrapping_add(1);
        s.pending.clear();
        s.out.clear();
        self.free.push(slot);
    }

    /// Evicts every session idle for more than `max_idle_ticks` ticks of
    /// the pool clock (no push/flush/take and no pending tokens advanced),
    /// returning the evicted ids. Eviction closes the slot and bumps its
    /// generation, so a returning client's stale handle fails with
    /// [`StreamError::SessionClosed`] — it can never read another
    /// session's stream. Queued-but-untaken labels are dropped with the
    /// session.
    pub fn evict_idle(&mut self, max_idle_ticks: u64) -> Vec<SessionId> {
        let clock = self.clock;
        let idle: Vec<(usize, u32)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.active && clock.saturating_sub(s.last_active) > max_idle_ticks)
            .map(|(i, s)| (i, s.generation))
            .collect();
        let mut evicted = Vec::with_capacity(idle.len());
        for (slot, generation) in idle {
            self.close_slot(slot);
            self.metrics.evicted.inc();
            evicted.push(SessionId {
                slot: slot as u32,
                generation,
            });
        }
        evicted
    }

    /// The ring window `W = max(2L, 1)` sessions of this pool use.
    pub fn window(&self) -> usize {
        ring_window(self.lag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingDecoder;
    use dhmm_hmm::emission::DiscreteEmission;
    use dhmm_hmm::SparseParams;
    use dhmm_linalg::Matrix;

    fn model() -> Hmm<DiscreteEmission> {
        let emission = DiscreteEmission::new(
            Matrix::from_rows(&[
                vec![0.5, 0.3, 0.1, 0.1],
                vec![0.1, 0.5, 0.3, 0.1],
                vec![0.1, 0.1, 0.3, 0.5],
            ])
            .unwrap(),
        )
        .unwrap();
        let transition = Matrix::from_rows(&[
            vec![0.8, 0.1, 0.1],
            vec![0.15, 0.7, 0.15],
            vec![0.1, 0.2, 0.7],
        ])
        .unwrap();
        Hmm::new(vec![0.5, 0.3, 0.2], transition, emission).unwrap()
    }

    /// Asserts that no scratch the pool ever leased holds a posterior row.
    fn assert_no_posteriors(pool: &mut SessionPool<DiscreteEmission>, when: &str) {
        let leased = pool.scratch.len();
        for (w, scratch) in pool.scratch.ensure(leased).iter().enumerate() {
            assert_eq!(scratch.smoothed_len, 0, "{when}: scratch {w} smoothed");
        }
    }

    /// A pool never runs the smoother, so no scratch it leases grows the
    /// smoother's buffers: after ticks and a flush at lag 64, serial and on
    /// two workers, every leased scratch holds no backward row and no
    /// posterior row.
    #[test]
    fn a_pool_scratch_holds_no_smoother_buffer() {
        let model = Arc::new(model());
        let tokens: Vec<usize> = (0..200).map(|i| (i * 7 + i / 5) % 4).collect();
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let config = StreamConfig::default()
                .with_lag(64)
                .with_parallelism(parallelism);
            let mut pool = SessionPool::with_config(Arc::clone(&model), config).unwrap();
            let ids = [pool.create(), pool.create(), pool.create()];
            for chunk in tokens.chunks(50) {
                for &id in &ids {
                    pool.push_many(id, chunk.iter().copied()).unwrap();
                }
                pool.tick();
            }
            pool.flush(ids[0]).unwrap();
            let leased = pool.scratch.len();
            assert!(leased > 0, "{parallelism:?}: no scratch leased");
            for (w, scratch) in pool.scratch.ensure(leased).iter().enumerate() {
                assert_eq!(scratch.beta.capacity(), 0, "{parallelism:?} scratch {w}");
                assert_eq!(
                    scratch.smoothed.capacity(),
                    0,
                    "{parallelism:?} scratch {w}"
                );
            }
        }
    }

    /// Ticks and flushes share the standalone decoder's per-token step but
    /// never run its smoother: at lag 0 every token closes its window, at
    /// lag 3 the sixth, ninth and twelfth tokens close a block, and the
    /// last token each tick and flush pushes is one of them. No leased
    /// scratch holds a posterior row afterwards, while the smoothing counter
    /// still counts the rows a decoder fed the ticked tokens emits.
    #[test]
    fn a_pool_never_runs_the_smoother() {
        let model = Arc::new(model());
        let tokens: Vec<usize> = (0..12).map(|i| (i * 7 + i / 5) % 4).collect();
        let backends = [
            InferenceBackend::Scaled,
            InferenceBackend::Sparse(SparseParams::default()),
        ];
        for backend in backends {
            for (lag, closed_rows) in [(0usize, 9usize), (3, 6)] {
                for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                    let config = StreamConfig::default()
                        .with_lag(lag)
                        .with_backend(backend)
                        .with_parallelism(parallelism);
                    let case = format!("{backend:?} lag {lag} {parallelism:?}");
                    let mut pool = SessionPool::with_config(Arc::clone(&model), config.clone())
                        .expect("valid config");
                    let ids = [pool.create(), pool.create()];
                    for ticked in [&tokens[..6], &tokens[6..9]] {
                        for &id in &ids {
                            pool.push_many(id, ticked.iter().copied()).unwrap();
                        }
                        pool.tick();
                        assert_no_posteriors(&mut pool, &format!("{case} tick"));
                    }
                    for &id in &ids {
                        pool.push_many(id, tokens[9..].iter().copied()).unwrap();
                        pool.flush(id).unwrap();
                        assert_no_posteriors(&mut pool, &format!("{case} flush"));
                    }

                    let mut decoder = StreamingDecoder::with_config(&model, config).unwrap();
                    let decoder_rows: usize = tokens[..9]
                        .iter()
                        .map(|obs| decoder.push(obs).smoothed.len() / 3)
                        .sum();
                    assert_eq!(decoder_rows, closed_rows, "{case}");
                    assert_eq!(
                        pool.smoothing_scalar_total(),
                        (ids.len() * closed_rows) as u64,
                        "{case}"
                    );
                }
            }
        }
    }
}
