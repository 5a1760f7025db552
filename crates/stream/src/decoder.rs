//! The streaming decoder: O(k²)-per-token filtering, fixed-lag smoothing and
//! bounded-memory online Viterbi.
//!
//! # Algorithms
//!
//! **Filtering.** The scaled forward recursion of the offline engine
//! ([`dhmm_hmm::scaled`]), one row per pushed token. Every recursion step
//! here — filter, Viterbi and smoother — is taken by the offline recursions'
//! [`dhmm_hmm::Transitions`] operator over the dense `A` or the
//! CSR-compiled pruned `Ã` the backend selects, so neither backend has a
//! step of its own in this crate. The filter and smoother steps are the
//! offline passes' own; the Viterbi step
//! ([`dhmm_hmm::Transitions::viterbi_step`]) computes the offline score rows
//! and also stores every state's backpointer, which the offline decode
//! recomputes along its path only. The filter calls
//! [`dhmm_hmm::Transitions::forward_step`] and [`dhmm_hmm::scale_row`], so
//! the streaming filtered rows and the running `log P(y_0..t) = Σ log c_t`
//! are **bit-identical** to an offline forward pass over the same prefix.
//!
//! **Fixed-lag smoothing.** Rather than paying an O(L·k²) backward pass per
//! token, smoothing runs in amortized-O(k²) blocks: once `2L` un-smoothed
//! steps have accumulated, one backward pass over that `2L` window (started
//! from β = 1 at the newest step, per-row sum-normalized exactly like the
//! offline backward pass) emits the smoothed posteriors of the *oldest* `L`
//! steps — each conditioned on at least `L` tokens of lookahead. A smoothed
//! row for time `s` emitted while the stream is at time `t` equals row `s`
//! of `forward_backward_scaled` over the prefix `y_0..=t` exactly.
//!
//! The per-token step (`push_token`, and `flush_stream` at the end) only
//! *decides* which window a token closes and advances the bookkeeping; the
//! backward pass runs only in [`StreamingDecoder`], the one caller that
//! hands posteriors out. A [`crate::SessionPool`] shares the step, counts
//! the rows whose window closed, and computes no posterior: it exposes
//! labels and log-likelihoods only.
//!
//! **Online Viterbi.** The max-product recursion with per-step
//! max-normalization, ψ backpointers in a ring of `W = max(2L, 1)` rows,
//! and two commit rules:
//!
//! * *path convergence*: a level-set walk over the ψ ring finds the newest
//!   time at which every surviving path passes through a single state; the
//!   shared prefix up to that time is committed. Such commits are exact —
//!   whatever the future holds, the offline backtrack must pass through the
//!   merge state — so with `lag ≥ T` the streamed path equals the offline
//!   `viterbi_scaled` path identically. One walk costs O(window · k), so it
//!   is amortized: re-armed only after the window has grown by ~half its
//!   length, bounding its cost at O(k) per token for any window size.
//! * *forced commit at lag `L`*: the label of time `t − L` is emitted no
//!   later than after token `t`, by backtracking from the current best
//!   state. The survivor set is then pruned to the chains consistent with
//!   the committed prefix, so the emitted sequence is always a connected
//!   state path (the constrained optimum given the committed prefix).
//!
//! # Zero probability
//!
//! When every candidate path hits probability exactly zero at a step (an
//! observation impossible under every reachable state), the Viterbi row is
//! floored to uniform by [`dhmm_hmm::viterbi_scale_row`] and the step adds
//! `ln(f64::MIN_POSITIVE)` to the score, as [`dhmm_hmm::scale_row`] does for
//! the filter. The offline Viterbi recursion applies the same function, so a
//! stream at `lag ≥ T` decodes such a sequence to the offline path with the
//! offline score, bit for bit.

use crate::error::StreamError;
use crate::workspace::{StreamScratch, StreamWorkspace};
use dhmm_hmm::emission::Emission;
use dhmm_hmm::model::Hmm;
use dhmm_hmm::scaled::{emission_likelihood_row, scale_row, viterbi_scale_row};
use dhmm_hmm::InferenceBackend;
use dhmm_runtime::Parallelism;
use dhmm_telemetry::{Counter, Histogram, TelemetrySink};

/// The ring-buffer window `W = max(2L, 1)` implied by a lag `L`: `2L` slots
/// so a smoothing block can span `2L` steps, one slot minimum so the filter
/// always has a current row. The single source of the window formula — the
/// commit rules and smoothing invariants are all stated against it.
pub(crate) fn ring_window(lag: usize) -> usize {
    (2 * lag).max(1)
}

/// One fixed-lag smoothing decision, derived by [`smoothing_action`] /
/// [`flush_smoothing_action`]. These two functions are the single source of
/// the smoothing-window extents: the per-push tail and the flush both
/// consume the same numbers instead of re-deriving them. [`push_token`] and
/// [`flush_stream`] return the decision; only [`StreamingDecoder`] runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SmoothAction {
    /// `lag = 0`: β ≡ 1 over a window of one, so the smoothed row for the
    /// token just pushed *is* its filtered row — copied out verbatim, never
    /// re-normalized (the α̂ row's sum may differ from 1.0 in the last ulp,
    /// and the offline product with the exact 1.0 β row is an identity).
    CopyFiltered,
    /// A full window has accumulated: run the backward recursion from
    /// `from` (where β = 1) down to `downto`, emitting the γ rows of times
    /// `downto ..= emit_upto` — the oldest `L` steps, each conditioned on
    /// at least `L` tokens of lookahead.
    Block {
        from: usize,
        downto: usize,
        emit_upto: usize,
    },
}

impl SmoothAction {
    /// Number of posterior rows whose fixed-lag window this action closes.
    pub(crate) fn rows(self) -> usize {
        match self {
            SmoothAction::CopyFiltered => 1,
            SmoothAction::Block {
                downto, emit_upto, ..
            } => emit_upto - downto + 1,
        }
    }
}

/// The per-push smoothing decision for the token at time `t`, given the
/// first not-yet-emitted time `smoothed_upto`. With `lag > 0` the block
/// fires once `2L` un-smoothed steps have accumulated; because the boundary
/// is checked on every push, it is reached by exact equality, so every
/// mid-stream block spans exactly `2L` steps and emits exactly `L` rows.
fn smoothing_action(lag: usize, t: usize, smoothed_upto: usize) -> Option<SmoothAction> {
    if lag == 0 {
        return Some(SmoothAction::CopyFiltered);
    }
    if t + 1 - smoothed_upto >= 2 * lag {
        debug_assert_eq!(
            t + 1 - smoothed_upto,
            2 * lag,
            "smoothing boundary overshot: checked every push, reached by equality"
        );
        Some(SmoothAction::Block {
            from: t,
            downto: smoothed_upto,
            emit_upto: t - lag,
        })
    } else {
        None
    }
}

/// The flush-time smoothing decision: everything not yet emitted, each row
/// conditioned on the (now final) full prefix — `emit_upto` extends to
/// `last`, unlike the mid-stream block's `t − lag`. `None` when `lag = 0`
/// (every row was copied out as it streamed) or when the block passes have
/// already emitted through `last`.
fn flush_smoothing_action(lag: usize, last: usize, smoothed_upto: usize) -> Option<SmoothAction> {
    if lag > 0 && smoothed_upto <= last {
        Some(SmoothAction::Block {
            from: last,
            downto: smoothed_upto,
            emit_upto: last,
        })
    } else {
        None
    }
}

/// Configuration of a streaming decoder or session pool.
///
/// Not `Copy`: the [`TelemetrySink`] carries a shared registry handle.
/// Cloning is cheap (an `Arc` bump at most).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Fixed lag `L`: the Viterbi label of time `t` is emitted no later than
    /// after token `t + L`, and a [`StreamingDecoder`]'s smoothed posteriors
    /// condition on at least `L` tokens of lookahead (a
    /// [`crate::SessionPool`] computes no posteriors). Memory is
    /// O(max(2L, 1) · k) per session.
    /// `lag ≥ T` makes the stream exactly equivalent to offline decoding;
    /// `lag = 0` degenerates to committed-as-you-go greedy filtering.
    pub lag: usize,
    /// Inference engine: [`InferenceBackend::Scaled`] (the default) or
    /// [`InferenceBackend::Sparse`], whose parameters are validated at
    /// construction. Under the sparse backend the labels, log-likelihood
    /// and posteriors are exact under the pruned, renormalized matrix `Ã`,
    /// as the offline sparse backend's are.
    pub backend: InferenceBackend,
    /// Worker policy for [`crate::SessionPool`] batch ticks (ignored by a
    /// standalone decoder, which is single-session and inherently serial).
    pub parallelism: Parallelism,
    /// Per-session cap on the pending-token queue of a [`crate::SessionPool`]
    /// (`None` = unbounded). When a session holds this many un-ticked
    /// tokens, further pushes fail with [`StreamError::QueueFull`] — the
    /// backpressure signal a serving front-end forwards to its client.
    pub pending_cap: Option<usize>,
    /// Per-session cap on the committed-label out-queue of a
    /// [`crate::SessionPool`] (`None` = unbounded). When a session's
    /// consumer has let this many committed labels accumulate without
    /// `take_committed`, further pushes fail with [`StreamError::Lagging`].
    pub committed_cap: Option<usize>,
    /// Metrics sink. [`TelemetrySink::Disabled`] (the default) compiles the
    /// record path to no-ops — no clock reads, no atomics; with a registry
    /// attached, counters/histograms cost relaxed `fetch_add`s and stay
    /// allocation-free on the push/tick hot path (pinned by
    /// `tests/zero_alloc.rs`). Telemetry never touches the arithmetic:
    /// decoded output is bit-identical either way.
    pub telemetry: TelemetrySink,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            lag: 16,
            backend: InferenceBackend::default(),
            parallelism: Parallelism::default(),
            pending_cap: None,
            committed_cap: None,
            telemetry: TelemetrySink::default(),
        }
    }
}

impl StreamConfig {
    /// Returns a copy with the given fixed lag `L`.
    pub fn with_lag(mut self, lag: usize) -> Self {
        self.lag = lag;
        self
    }

    /// Returns a copy with the given inference backend (validated at
    /// decoder/pool construction).
    pub fn with_backend(mut self, backend: InferenceBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy with the given worker policy for pool batch ticks.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Returns a copy with the given pending-token queue cap (`None` =
    /// unbounded).
    pub fn with_pending_cap(mut self, cap: Option<usize>) -> Self {
        self.pending_cap = cap;
        self
    }

    /// Returns a copy with the given committed-label queue cap (`None` =
    /// unbounded).
    pub fn with_committed_cap(mut self, cap: Option<usize>) -> Self {
        self.committed_cap = cap;
        self
    }

    /// Returns a copy recording metrics into the given sink
    /// ([`TelemetrySink::Disabled`] by default).
    pub fn with_telemetry(mut self, telemetry: TelemetrySink) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The ring window `W = max(2L, 1)` this config implies.
    pub fn window(&self) -> usize {
        ring_window(self.lag)
    }

    /// Rejects out-of-range backend parameters.
    pub fn validate(&self) -> Result<(), StreamError> {
        match self.backend {
            InferenceBackend::Scaled => Ok(()),
            InferenceBackend::Sparse(params) => {
                params.validate().map_err(|e| StreamError::InvalidConfig {
                    reason: e.to_string(),
                })
            }
        }
    }
}

/// Everything one `push` produces. All slices borrow the decoder's internal
/// buffers and are valid until the next push/flush — copy out what must
/// outlive the step.
#[derive(Debug)]
pub struct StepOutput<'a> {
    /// Time index of the token just pushed (0-based).
    pub t: usize,
    /// Number of states `k` (the stride of `smoothed`).
    pub num_states: usize,
    /// Running `log P(y_0..=t)`, recovered from the accumulated `log c_t`.
    pub log_likelihood: f64,
    /// Filtered posterior `P(X_t | y_0..=t)` (the scaled α̂ row — a
    /// distribution unless the step was floored).
    pub filtered: &'a [f64],
    /// Viterbi labels newly committed by this push, ascending in time.
    pub committed: &'a [usize],
    /// Time index of `committed[0]` (meaningful when non-empty).
    pub committed_start: usize,
    /// Newly emitted fixed-lag smoothed posteriors, row-major
    /// (`len / num_states` rows), ascending in time; each row conditions on
    /// the whole prefix `y_0..=t`.
    pub smoothed: &'a [f64],
    /// Time index of the first smoothed row (meaningful when non-empty).
    pub smoothed_start: usize,
}

/// Everything `flush` produces: the Viterbi tail, the remaining smoothed
/// rows, and the final stream scalars.
#[derive(Debug)]
pub struct FlushOutput<'a> {
    /// Number of states `k` (the stride of `smoothed`).
    pub num_states: usize,
    /// Final `log P(y_0..=T-1)`.
    pub log_likelihood: f64,
    /// Joint log-probability `max_X log P(X, Y)` of the full committed path
    /// (exactly the offline `viterbi_scaled_with_score` score when no forced
    /// commit fired mid-stream).
    pub viterbi_log_score: f64,
    /// The remaining (previously uncommitted) Viterbi labels.
    pub committed: &'a [usize],
    /// Time index of `committed[0]` (meaningful when non-empty).
    pub committed_start: usize,
    /// The remaining smoothed posterior rows, ascending in time.
    pub smoothed: &'a [f64],
    /// Time index of the first smoothed row (meaningful when non-empty).
    pub smoothed_start: usize,
}

/// Advances one session by one token. Free function so the standalone
/// decoder and the session pool share one implementation (the pool calls it
/// with leased per-worker scratch).
///
/// `epoch` keys the scratch's CSR transition cache (see
/// [`crate::workspace::StreamScratch`]): the pool passes its publish epoch,
/// a standalone decoder always passes 0. The filter and Viterbi steps are
/// the offline recursions' own, taken by the backend's
/// [`dhmm_hmm::Transitions`] operator: the model's dense `A` under
/// [`InferenceBackend::Scaled`], the CSR-compiled pruned `Ã` under
/// [`InferenceBackend::Sparse`].
///
/// Decides whether this token closes a fixed-lag smoothing window and
/// advances the workspace past it, but computes no posterior: it returns
/// the [`SmoothAction`] for the caller to run (the standalone decoder does;
/// the pool only counts its rows).
pub(crate) fn push_token<E: Emission>(
    model: &Hmm<E>,
    lag: usize,
    backend: InferenceBackend,
    epoch: u64,
    ws: &mut StreamWorkspace,
    scratch: &mut StreamScratch,
    obs: &E::Obs,
) -> Option<SmoothAction> {
    assert!(
        !ws.finished,
        "StreamingDecoder::push after flush; call reset() to start a new stream"
    );
    let k = model.num_states();
    let window = ring_window(lag);
    if ws.shape() != (k, window) {
        // First push of a fresh/reshaped workspace; mid-stream the shape is
        // fixed by the (model, lag) pair, so this never fires after t = 0.
        ws.ensure(k, window);
    }
    scratch.ensure(k, window);
    scratch.clear_outputs();

    let t = ws.t;
    let slot = ws.slot(t);
    // The backend's transition operator (the CSR compile is epoch-keyed, a
    // no-op once warm).
    let trans = scratch.trans.transitions(model, backend, epoch);

    // --- Emission row (shared per-step numerics with the offline engine).
    let shift = {
        let e_row = &mut ws.emis[slot * k..(slot + 1) * k];
        emission_likelihood_row(model.emission(), obs, e_row)
    };

    // --- Scaled forward (filter) step, the offline pass's own.
    {
        let row = &mut scratch.row[..k];
        let e_row = &ws.emis[slot * k..(slot + 1) * k];
        if t == 0 {
            for (j, (r, &e)) in row.iter_mut().zip(e_row).enumerate() {
                *r = model.initial()[j] * e;
            }
        } else {
            trans.forward_step(ws.alpha_row(t - 1), e_row, row);
        }
        let (_c, log_c) = scale_row(row, shift);
        ws.log_likelihood += log_c;
        ws.alpha[slot * k..(slot + 1) * k].copy_from_slice(row);
    }

    // --- Online Viterbi step (two rolling score rows: time t's row is
    // delta[(t % 2) * k ..]).
    {
        let (first, rest) = ws.delta.split_at_mut(k);
        let second = &mut rest[..k];
        let e_row = &ws.emis[slot * k..(slot + 1) * k];
        let cur: &mut [f64] = if t == 0 {
            for (j, p) in first.iter_mut().enumerate() {
                *p = model.initial()[j] * e_row[j];
            }
            first
        } else {
            let (prev, cur): (&[f64], &mut [f64]) = if t % 2 == 1 {
                (first, second)
            } else {
                (second, first)
            };
            let psi_row = &mut ws.psi[slot * k..(slot + 1) * k];
            trans.viterbi_step(prev, e_row, cur, psi_row);
            cur
        };
        ws.viterbi_log += viterbi_scale_row(cur, shift);
    }

    // --- Commit rule 1: path convergence (amortized). The level-set walk
    // costs O(window · k), so it is re-armed only after the uncommitted
    // window has grown by ~half its post-walk length: total walk cost stays
    // O(k) amortized per token even in the lag ≥ T exact-offline mode,
    // where the window grows with the stream. Skipping a check never
    // violates the lag bound (rule 2 runs every push) and never changes the
    // final path — only how early its stable prefix is emitted.
    if t >= ws.next_converge {
        converge_commit(ws, scratch, t);
        ws.next_converge = t + 1 + (t + 1 - ws.base) / 2;
    }

    // --- Commit rule 2: forced commit at lag L.
    if ws.base + lag <= t {
        force_commit(ws, scratch, t, t - lag);
    }

    // --- Fixed-lag smoothing bookkeeping: the window this token closes.
    let action = smoothing_action(lag, t, ws.smoothed_upto);
    match action {
        Some(SmoothAction::CopyFiltered) => ws.smoothed_upto = t + 1,
        Some(SmoothAction::Block { emit_upto, .. }) => ws.smoothed_upto = emit_upto + 1,
        None => {}
    }
    ws.t = t + 1;
    action
}

/// Runs the smoothing action a step returned, emitting its posterior rows
/// into `scratch.smoothed` (nothing when the step closed no window). Only
/// [`StreamingDecoder`] calls it, right after the step and before the next
/// push overwrites the ring rows it reads.
fn smooth<E: Emission>(
    model: &Hmm<E>,
    backend: InferenceBackend,
    ws: &StreamWorkspace,
    scratch: &mut StreamScratch,
    action: Option<SmoothAction>,
) {
    match action {
        None => {}
        Some(SmoothAction::CopyFiltered) => {
            let (k, t) = (ws.num_states, ws.t - 1);
            scratch.smoothed[..k].copy_from_slice(ws.alpha_row(t));
            scratch.smoothed_len = 1;
            scratch.smoothed_start = t;
        }
        Some(SmoothAction::Block {
            from,
            downto,
            emit_upto,
        }) => backward_smooth(model, backend, ws, scratch, from, downto, emit_upto),
    }
}

/// Finds the newest time at which all surviving Viterbi paths pass through a
/// single state (a level-set walk over the ψ ring) and commits the shared
/// prefix `[base ..= merge]`. Appends to `scratch.committed`.
fn converge_commit(ws: &mut StreamWorkspace, scratch: &mut StreamScratch, t: usize) {
    let k = ws.num_states;
    let cur = &ws.delta[(t % 2) * k..(t % 2) * k + k];

    // Seed the level set with the states that can still end the path.
    let set_cur = &mut scratch.set_cur[..k];
    let set_next = &mut scratch.set_next[..k];
    let mut count = 0usize;
    let mut last_state = 0usize;
    for (j, (&p, flag)) in cur.iter().zip(set_cur.iter_mut()).enumerate() {
        *flag = p > 0.0;
        if *flag {
            count += 1;
            last_state = j;
        }
    }
    if count == 0 {
        // Defensive: a fully floored row keeps every state alive.
        set_cur.fill(true);
        count = k;
    }

    let mut merge: Option<(usize, usize)> = None;
    if count == 1 {
        merge = Some((t, last_state));
    } else {
        let mut tau = t;
        while tau > ws.base {
            let psi_row = {
                let s = ws.slot(tau);
                &ws.psi[s * k..(s + 1) * k]
            };
            set_next.fill(false);
            count = 0;
            for (j, &alive) in set_cur.iter().enumerate() {
                if alive {
                    let p = psi_row[j];
                    if !set_next[p] {
                        set_next[p] = true;
                        count += 1;
                        last_state = p;
                    }
                }
            }
            set_cur.copy_from_slice(set_next);
            tau -= 1;
            if count == 1 {
                merge = Some((tau, last_state));
                break;
            }
        }
    }

    if let Some((m, x)) = merge {
        commit_chain(ws, scratch, m, x);
        ws.base = m + 1;
    }
}

/// Commits times `[base ..= commit_upto]` by backtracking from the current
/// best state, then prunes the survivor set to chains consistent with the
/// committed prefix (so the emitted sequence stays a connected path).
fn force_commit(
    ws: &mut StreamWorkspace,
    scratch: &mut StreamScratch,
    t: usize,
    commit_upto: usize,
) {
    let k = ws.num_states;
    // Current best state, first occurrence on ties — the same rule the
    // offline backtrack applies to the final row.
    let (jbest, _) = {
        let cur = &ws.delta[(t % 2) * k..(t % 2) * k + k];
        let mut best = (0usize, f64::NEG_INFINITY);
        for (j, &v) in cur.iter().enumerate() {
            if v > best.1 {
                best = (j, v);
            }
        }
        best
    };

    // Chain state of the best path at `commit_upto`.
    let mut x = jbest;
    let mut tau = t;
    while tau > commit_upto {
        let s = ws.slot(tau);
        x = ws.psi[s * k + x];
        tau -= 1;
    }
    commit_chain(ws, scratch, commit_upto, x);

    // Prune: states whose survivor chain does not pass through `x` at
    // `commit_upto` are no longer reachable extensions of the committed
    // prefix.
    let roots = &mut scratch.roots[..k];
    for (j, r) in roots.iter_mut().enumerate() {
        *r = j;
    }
    let mut tau = t;
    while tau > commit_upto {
        let s = ws.slot(tau);
        let psi_row = &ws.psi[s * k..(s + 1) * k];
        for r in roots.iter_mut() {
            *r = psi_row[*r];
        }
        tau -= 1;
    }
    let cur = &mut ws.delta[(t % 2) * k..(t % 2) * k + k];
    for (p, &r) in cur.iter_mut().zip(roots.iter()) {
        if r != x {
            *p = 0.0;
        }
    }

    ws.base = commit_upto + 1;
}

/// Reconstructs the (shared) survivor chain ending at `(m, x)` back to
/// `ws.base` and appends the states of times `[base ..= m]` to
/// `scratch.committed` in ascending time order.
fn commit_chain(ws: &StreamWorkspace, scratch: &mut StreamScratch, m: usize, x: usize) {
    let k = ws.num_states;
    let base = ws.base;
    let chain = &mut scratch.chain[..m - base + 1];
    chain[m - base] = x;
    let mut tau = m;
    while tau > base {
        let s = ws.slot(tau);
        chain[tau - 1 - base] = ws.psi[s * k + chain[tau - base]];
        tau -= 1;
    }
    if scratch.committed.is_empty() {
        scratch.committed_start = base;
    }
    scratch.committed.extend_from_slice(chain);
}

/// Runs the backward smoothing pass from `from` (β = 1) down to `downto`,
/// emitting normalized `γ` rows for times `downto ..= emit_upto` into
/// `scratch.smoothed` (ascending). Exactly the offline backward recursion,
/// restricted to the ring window, with the backend's transition operator,
/// so the smoothed posteriors match the filter's layout. Under the sparse
/// backend the scratch's epoch-0 compile is already warm: the only caller
/// is a [`StreamingDecoder`], whose own pushes compiled its one borrowed
/// model into its own scratch.
fn backward_smooth<E: Emission>(
    model: &Hmm<E>,
    backend: InferenceBackend,
    ws: &StreamWorkspace,
    scratch: &mut StreamScratch,
    from: usize,
    downto: usize,
    emit_upto: usize,
) {
    let k = ws.num_states;
    scratch.smoothed_start = downto;
    scratch.smoothed_len = emit_upto - downto + 1;
    let trans = scratch.trans.transitions(model, backend, 0);

    // β at `from` is all ones.
    {
        let (beta_cur, _) = scratch.beta.split_at_mut(k);
        beta_cur.fill(1.0);
    }
    if from <= emit_upto {
        // γ(from) = normalize(α̂ · 1) — multiplying by the exact 1.0 β row
        // is an identity, so copy + normalize matches the offline product.
        let alpha_row = ws.alpha_row(from);
        let out = &mut scratch.smoothed[(from - downto) * k..(from - downto + 1) * k];
        out.copy_from_slice(alpha_row);
        dhmm_linalg::normalize_in_place(out);
    }

    let mut tau = from;
    while tau > downto {
        tau -= 1;
        // w[j] = b_j(y_{τ+1}) · β(τ+1, j), exactly as offline.
        let next_slot = ws.slot(tau + 1);
        let next_e = &ws.emis[next_slot * k..(next_slot + 1) * k];
        // Rolling β parity: row for time τ sits at (from - τ) % 2.
        let parity = (from - tau) % 2;
        let prev_parity = 1 - parity;
        {
            let w = &mut scratch.row[..k];
            let beta_prev = &scratch.beta[prev_parity * k..prev_parity * k + k];
            for ((wv, &e), &b) in w.iter_mut().zip(next_e).zip(beta_prev) {
                *wv = e * b;
            }
        }
        {
            let w = &scratch.row[..k];
            let beta_cur = &mut scratch.beta[parity * k..parity * k + k];
            trans.backward_step(w, beta_cur);
            let norm: f64 = beta_cur.iter().sum();
            if norm > 0.0 {
                for v in beta_cur.iter_mut() {
                    *v /= norm;
                }
            }
        }
        if tau <= emit_upto {
            let alpha_row = ws.alpha_row(tau);
            let out = &mut scratch.smoothed[(tau - downto) * k..(tau - downto + 1) * k];
            let beta_cur = &scratch.beta[parity * k..parity * k + k];
            for ((g, &av), &bv) in out.iter_mut().zip(alpha_row).zip(beta_cur) {
                *g = av * bv;
            }
            dhmm_linalg::normalize_in_place(out);
        }
    }
}

/// Flushes the stream: commits the Viterbi tail by backtracking from the
/// best final state. Returns the path's joint log-probability and the
/// smoothing action that would emit the remaining posterior rows, which,
/// as in [`push_token`], is the caller's to run.
pub(crate) fn flush_stream(
    lag: usize,
    ws: &mut StreamWorkspace,
    scratch: &mut StreamScratch,
) -> (f64, Option<SmoothAction>) {
    assert!(
        !ws.finished,
        "StreamingDecoder::flush called twice; call reset() to start a new stream"
    );
    let k = ws.num_states.max(1);
    scratch.ensure(k, ws.window.max(1));
    scratch.clear_outputs();
    ws.finished = true;
    if ws.t == 0 {
        return (f64::NEG_INFINITY, None);
    }
    let last = ws.t - 1;

    // Final backtrack, first-occurrence argmax like the offline engine.
    let (jbest, best_val) = {
        let cur = &ws.delta[(last % 2) * k..(last % 2) * k + k];
        let mut best = (0usize, f64::NEG_INFINITY);
        for (j, &v) in cur.iter().enumerate() {
            if v > best.1 {
                best = (j, v);
            }
        }
        best
    };
    if ws.base <= last {
        commit_chain(ws, scratch, last, jbest);
        ws.base = last + 1;
    }
    let score = ws.viterbi_log + best_val.ln();

    // Remaining smoothed rows (everything not yet emitted by block passes).
    let action = flush_smoothing_action(lag, last, ws.smoothed_upto);
    ws.smoothed_upto = ws.t;
    (score, action)
}

/// Metric handles of one [`StreamingDecoder`]. Registered once at
/// construction (the only allocating step); every record on the push path is
/// a relaxed `fetch_add` — or a no-op under [`TelemetrySink::Disabled`].
#[derive(Debug, Clone)]
struct DecoderMetrics {
    /// `dhmm_decoder_pushes_total`.
    pushes: Counter,
    /// `dhmm_decoder_push_duration_ns` (noop sink: no clock read either).
    push_ns: Histogram,
    /// `dhmm_decoder_committed_labels_total`.
    committed: Counter,
    /// `dhmm_decoder_smoothed_rows_total`.
    smoothed: Counter,
}

impl DecoderMetrics {
    fn new(sink: &TelemetrySink) -> Self {
        Self {
            pushes: sink.counter(
                "dhmm_decoder_pushes_total",
                &[],
                "Tokens pushed through standalone streaming decoders.",
            ),
            push_ns: sink.histogram(
                "dhmm_decoder_push_duration_ns",
                &[],
                "Wall time of one standalone decoder push, in nanoseconds.",
            ),
            committed: sink.counter(
                "dhmm_decoder_committed_labels_total",
                &[],
                "Viterbi labels committed by standalone decoder pushes.",
            ),
            smoothed: sink.counter(
                "dhmm_decoder_smoothed_rows_total",
                &[],
                "Smoothed posterior rows emitted by standalone decoder pushes.",
            ),
        }
    }

    fn noop() -> Self {
        Self::new(&TelemetrySink::Disabled)
    }
}

/// A single-session streaming decoder over a borrowed model.
///
/// Owns its [`StreamWorkspace`] and [`StreamScratch`]; every buffer is sized
/// at construction, so [`StreamingDecoder::push`] performs **zero heap
/// allocation** (pinned by the counting-allocator test — with telemetry
/// enabled as well as disabled). For many concurrent
/// sessions, use [`crate::SessionPool`], which shares scratch across
/// sessions per worker instead of owning one per session.
#[derive(Debug, Clone)]
pub struct StreamingDecoder<'m, E: Emission> {
    model: &'m Hmm<E>,
    lag: usize,
    backend: InferenceBackend,
    ws: StreamWorkspace,
    scratch: StreamScratch,
    metrics: DecoderMetrics,
}

impl<'m, E: Emission> StreamingDecoder<'m, E> {
    /// Creates a decoder with the given fixed lag and the default (scaled)
    /// backend, preallocating every buffer for the model's state count.
    pub fn new(model: &'m Hmm<E>, lag: usize) -> Self {
        let mut ws = StreamWorkspace::new();
        let window = ring_window(lag);
        ws.ensure(model.num_states(), window);
        let mut scratch = StreamScratch::new();
        scratch.ensure(model.num_states(), window);
        scratch.ensure_smoother(model.num_states(), window);
        Self {
            model,
            lag,
            backend: InferenceBackend::Scaled,
            ws,
            scratch,
            metrics: DecoderMetrics::noop(),
        }
    }

    /// Creates a decoder from a full [`StreamConfig`], rejecting out-of-range
    /// sparse parameters.
    pub fn with_config(model: &'m Hmm<E>, config: StreamConfig) -> Result<Self, StreamError> {
        config.validate()?;
        let mut decoder = Self::new(model, config.lag);
        decoder.backend = config.backend;
        decoder.metrics = DecoderMetrics::new(&config.telemetry);
        Ok(decoder)
    }

    /// The configured lag `L`.
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// The configured inference backend.
    pub fn backend(&self) -> InferenceBackend {
        self.backend
    }

    /// The model this decoder streams against.
    pub fn model(&self) -> &'m Hmm<E> {
        self.model
    }

    /// Tokens pushed since construction/reset.
    pub fn tokens(&self) -> usize {
        self.ws.tokens()
    }

    /// Number of Viterbi labels committed so far.
    pub fn committed(&self) -> usize {
        self.ws.committed()
    }

    /// Running `log P(y_0..=t-1)` of the pushed prefix.
    pub fn log_likelihood(&self) -> f64 {
        self.ws.log_likelihood()
    }

    /// Advances the stream by one observation: one O(k²) filter step, one
    /// O(k²) Viterbi step, the commit rules, and (amortized O(k²)) fixed-lag
    /// smoothing, which only a standalone decoder runs. Allocation-free.
    ///
    /// # Latency profile (amortization bound)
    ///
    /// The *amortized* cost per push is O(k²), but it is not uniform: the
    /// fixed-lag smoothing block runs once every `L` pushes and performs a
    /// backward pass over the whole `2L` window, so that one push costs
    /// O(L·k²) — a factor-`L` spike over the median. This is inherent to
    /// block-based fixed-lag smoothing: emitting `c < L` rows per pass
    /// instead would bound the spike at O((L+c)·k²) but raise the amortized
    /// smoothing cost from `2k²` to `(L+c)/c · k²` per token. Concretely, in
    /// `BENCH_stream.json` the k=64/lag=64 p99 (~90µs vs a ~2µs p50)
    /// is exactly these block pushes: 1/L ≈ 1.6% of pushes pay the block,
    /// which lands inside the top percentile; at lag=8 the block is 8× more
    /// frequent but 8× cheaper, so the p99 (~14µs) sits far below. The p99.9
    /// column records the same bound one decade further out — the tail is
    /// flat beyond the block cost. Latency-critical deployments should pick
    /// the smallest lag their accuracy budget allows, not the largest ring
    /// that fits in memory.
    ///
    /// # Panics
    /// Panics if called after [`StreamingDecoder::flush`] without an
    /// intervening [`StreamingDecoder::reset`].
    pub fn push(&mut self, obs: &E::Obs) -> StepOutput<'_> {
        // Epoch 0: the borrowed model cannot change under a standalone
        // decoder, so the scratch's transition cache never goes stale.
        let span = self.metrics.push_ns.span();
        let action = push_token(
            self.model,
            self.lag,
            self.backend,
            0,
            &mut self.ws,
            &mut self.scratch,
            obs,
        );
        smooth(
            self.model,
            self.backend,
            &self.ws,
            &mut self.scratch,
            action,
        );
        drop(span);
        self.metrics.pushes.inc();
        self.metrics.smoothed.add(self.scratch.smoothed_len as u64);
        self.metrics
            .committed
            .add(self.scratch.committed.len() as u64);
        let k = self.ws.num_states;
        StepOutput {
            t: self.ws.t - 1,
            num_states: k,
            log_likelihood: self.ws.log_likelihood,
            filtered: self.ws.alpha_row(self.ws.t - 1),
            committed: &self.scratch.committed,
            committed_start: self.scratch.committed_start,
            smoothed: &self.scratch.smoothed[..self.scratch.smoothed_len * k],
            smoothed_start: self.scratch.smoothed_start,
        }
    }

    /// Ends the stream: commits the remaining Viterbi tail (backtracking
    /// from the best final state, exactly like the offline engine) and
    /// emits the remaining smoothed rows. After `flush`, call
    /// [`StreamingDecoder::reset`] before pushing again.
    pub fn flush(&mut self) -> FlushOutput<'_> {
        let (score, action) = flush_stream(self.lag, &mut self.ws, &mut self.scratch);
        smooth(
            self.model,
            self.backend,
            &self.ws,
            &mut self.scratch,
            action,
        );
        let k = self.ws.num_states.max(1);
        FlushOutput {
            num_states: k,
            log_likelihood: self.ws.log_likelihood,
            viterbi_log_score: score,
            committed: &self.scratch.committed,
            committed_start: self.scratch.committed_start,
            smoothed: &self.scratch.smoothed[..self.scratch.smoothed_len * k],
            smoothed_start: self.scratch.smoothed_start,
        }
    }

    /// Rewinds to an empty stream, keeping every buffer warm (the
    /// allocation-free restart path).
    pub fn reset(&mut self) {
        self.ws.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-sourced window math: lag 0 copies every row as it
    /// streams; lag > 0 fires exclusively on the exact `2L`-step boundary,
    /// so every mid-stream block spans `2L` steps and emits `L` rows.
    #[test]
    fn smoothing_action_fires_only_on_exact_window_boundaries() {
        // lag 0: the filtered row is the smoothed row, every push.
        assert_eq!(smoothing_action(0, 0, 0), Some(SmoothAction::CopyFiltered));
        assert_eq!(smoothing_action(0, 7, 7), Some(SmoothAction::CopyFiltered));

        // lag 1 (window 2): nothing at t = 0, then a one-row block on every
        // push — each spans the 2 newest steps and emits the older one.
        assert_eq!(smoothing_action(1, 0, 0), None);
        assert_eq!(
            smoothing_action(1, 1, 0),
            Some(SmoothAction::Block {
                from: 1,
                downto: 0,
                emit_upto: 0
            })
        );
        assert_eq!(
            smoothing_action(1, 2, 1),
            Some(SmoothAction::Block {
                from: 2,
                downto: 1,
                emit_upto: 1
            })
        );

        // lag 8 (window 16): the first block waits for 16 steps, emits the
        // oldest 8, and the window then grows back from 8 un-smoothed steps.
        for t in 0..15 {
            assert_eq!(smoothing_action(8, t, 0), None);
        }
        assert_eq!(
            smoothing_action(8, 15, 0),
            Some(SmoothAction::Block {
                from: 15,
                downto: 0,
                emit_upto: 7
            })
        );
        for t in 16..23 {
            assert_eq!(smoothing_action(8, t, 8), None);
        }
        assert_eq!(
            smoothing_action(8, 23, 8),
            Some(SmoothAction::Block {
                from: 23,
                downto: 8,
                emit_upto: 15
            })
        );
    }

    /// The flush block emits everything not yet emitted — through `last`,
    /// not `last − L` — and is skipped when lag 0 already copied every row
    /// or the stream ended exactly on a block boundary with nothing held.
    #[test]
    fn flush_smoothing_action_covers_exactly_the_unemitted_tail() {
        assert_eq!(flush_smoothing_action(0, 9, 10), None);
        assert_eq!(
            flush_smoothing_action(2, 9, 6),
            Some(SmoothAction::Block {
                from: 9,
                downto: 6,
                emit_upto: 9
            })
        );
        // One un-smoothed row left: a single-row block conditioned on the
        // full prefix.
        assert_eq!(
            flush_smoothing_action(1, 4, 4),
            Some(SmoothAction::Block {
                from: 4,
                downto: 4,
                emit_upto: 4
            })
        );
        // Everything already emitted (flush right after a lag-0 copy).
        assert_eq!(flush_smoothing_action(1, 4, 5), None);
    }
}
