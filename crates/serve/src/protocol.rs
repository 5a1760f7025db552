//! The wire protocol: length-delimited text frames.
//!
//! # Framing
//!
//! Every message — request or response — is one frame: a 4-byte big-endian
//! `u32` payload length followed by that many bytes of UTF-8 text. Frames
//! larger than [`MAX_FRAME_LEN`] are rejected (`bad-request`) so a corrupt
//! length prefix cannot make the server allocate unboundedly.
//!
//! # Requests
//!
//! One request per frame, space-separated tokens, first token is the verb:
//!
//! | request | payload |
//! |---|---|
//! | `create` | — |
//! | `push <slot>.<gen> <obs>…` | one or more observations |
//! | `flush <slot>.<gen>` | — |
//! | `close <slot>.<gen>` | — |
//! | `swap-model <path>` | checkpoint path, server-side |
//! | `stats` | — |
//! | `metrics` | — |
//!
//! Observations are formatted per emission family: discrete symbols as
//! decimal integers, Gaussian observations as `{:.17e}` floats (17
//! significant digits round-trip `f64` exactly, the same convention as the
//! `dhmm_data` checkpoint format — protocol-driven labeling is bit-identical
//! to in-process use, and the parity suite pins it).
//!
//! # Responses
//!
//! `ok` responses carry the verb's result; `err <code> <message>` carries a
//! stable machine-readable code ([`crate::ServeError::code`]) and detail:
//!
//! | response | meaning |
//! |---|---|
//! | `ok sid <slot>.<gen>` | `create` — the new session id |
//! | `ok committed <start> <n> <label>…` | `push` — labels committed by this batch (may be empty) |
//! | `ok flushed <start> <n> <label>… ll <float> tokens <t>` | `flush` — the tail, final log-likelihood, token count |
//! | `ok closed` | `close` |
//! | `ok epoch <e>` | `swap-model` — the newly published epoch |
//! | `ok stats active <n> epoch <e> clock <c> evicted <n> lockstep 0 scalar <n> smoothing-batched 0 smoothing-scalar <n>` | `stats` |
//! | `ok metrics␊<exposition…>` | `metrics` — everything after the first newline is the Prometheus-style text exposition, verbatim |
//! | `err <code> <message…>` | any verb |
//!
//! `ok metrics` is the one multi-line response: its payload is the verb
//! tag, one `\n`, then the exposition text exactly as the registry rendered
//! it (itself newline-terminated). Everything else stays single-line
//! whitespace-tokenized.
//!
//! In `ok stats`, `lockstep` and `smoothing-batched` always read 0: every
//! ticked token and smoothed row goes through the per-session path and is
//! counted by `scalar` and `smoothing-scalar`. The fields stay so existing
//! clients parse the reply unchanged.

use crate::error::ServeError;
use dhmm_stream::SessionId;
use std::fmt::Write as _;
use std::io::{self, IoSlice, Read, Write};

/// Hard cap on a frame payload (16 MiB): a sanity bound, far above any real
/// request, so a corrupted length prefix fails fast instead of allocating.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Writes one length-delimited frame: the length prefix and the payload go
/// out in one vectored write (for a socket, one `writev`) without being
/// copied into a buffer of their own. Two writes would leave the payload
/// waiting on Nagle's algorithm and the peer's delayed ACK whenever the
/// writing socket has not set `TCP_NODELAY`.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(bytes.len() <= MAX_FRAME_LEN);
    let len = (bytes.len() as u32).to_be_bytes();
    let mut bufs = [IoSlice::new(&len), IoSlice::new(bytes)];
    let mut rest = &mut bufs[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one length-delimited frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the connection).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A parsed client request. Observations stay as raw text tokens here — the
/// typed engine parses them per emission family, so the protocol layer is
/// family-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Open a session.
    Create,
    /// Enqueue observations on a session; the reply carries the labels the
    /// next batch tick commits.
    Push {
        /// The session.
        id: SessionId,
        /// Raw observation tokens (decimal ints or `{:.17e}` floats).
        tokens: Vec<String>,
    },
    /// End a session's stream and drain its tail.
    Flush {
        /// The session.
        id: SessionId,
    },
    /// Close a session (its id becomes stale).
    Close {
        /// The session.
        id: SessionId,
    },
    /// Load a checkpoint (server-side path) and publish it as the next
    /// model epoch.
    SwapModel {
        /// Server-side checkpoint path.
        path: String,
    },
    /// Pool statistics.
    Stats,
    /// The server's metrics exposition (Prometheus-style text).
    Metrics,
}

fn parse_sid(tok: &str) -> Result<SessionId, ServeError> {
    let (slot, generation) = tok.split_once('.').ok_or_else(|| ServeError::BadRequest {
        reason: format!("session id must be <slot>.<generation>, got {tok:?}"),
    })?;
    let parse = |s: &str| {
        s.parse::<u32>().map_err(|_| ServeError::BadRequest {
            reason: format!("session id must be <slot>.<generation>, got {tok:?}"),
        })
    };
    Ok(SessionId::from_parts(parse(slot)?, parse(generation)?))
}

/// Formats a session id in its wire form `<slot>.<generation>`.
pub fn format_sid(id: SessionId) -> String {
    format!("{}.{}", id.slot(), id.generation())
}

impl Request {
    /// Parses one request payload.
    pub fn parse(payload: &str) -> Result<Self, ServeError> {
        let mut it = payload.split_ascii_whitespace();
        let verb = it.next().ok_or_else(|| ServeError::BadRequest {
            reason: "empty request".into(),
        })?;
        let mut require_sid = |verb: &str| {
            it.next()
                .ok_or_else(|| ServeError::BadRequest {
                    reason: format!("{verb} requires a session id"),
                })
                .and_then(parse_sid)
        };
        let req = match verb {
            "create" => Request::Create,
            "push" => {
                let id = require_sid("push")?;
                let tokens: Vec<String> = it.map(str::to_string).collect();
                if tokens.is_empty() {
                    return Err(ServeError::BadRequest {
                        reason: "push requires at least one observation".into(),
                    });
                }
                return Ok(Request::Push { id, tokens });
            }
            "flush" => Request::Flush {
                id: require_sid("flush")?,
            },
            "close" => Request::Close {
                id: require_sid("close")?,
            },
            "swap-model" => {
                let path = it.next().ok_or_else(|| ServeError::BadRequest {
                    reason: "swap-model requires a checkpoint path".into(),
                })?;
                Request::SwapModel {
                    path: path.to_string(),
                }
            }
            "stats" => Request::Stats,
            "metrics" => Request::Metrics,
            other => {
                return Err(ServeError::BadRequest {
                    reason: format!("unknown verb {other:?}"),
                })
            }
        };
        if let Some(extra) = it.next() {
            return Err(ServeError::BadRequest {
                reason: format!("trailing token {extra:?} after {verb}"),
            });
        }
        Ok(req)
    }

    /// Encodes this request as a frame payload (the client side).
    pub fn encode(&self) -> String {
        match self {
            Request::Create => "create".to_string(),
            Request::Push { id, tokens } => {
                let mut s = format!("push {}", format_sid(*id));
                for t in tokens {
                    s.push(' ');
                    s.push_str(t);
                }
                s
            }
            Request::Flush { id } => format!("flush {}", format_sid(*id)),
            Request::Close { id } => format!("close {}", format_sid(*id)),
            Request::SwapModel { path } => format!("swap-model {path}"),
            Request::Stats => "stats".to_string(),
            Request::Metrics => "metrics".to_string(),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `create` succeeded.
    Created {
        /// The new session id.
        id: SessionId,
    },
    /// `push` succeeded; these labels were committed by the batch tick that
    /// processed it (possibly none — fixed-lag decoding withholds the last
    /// `lag` labels until more tokens or a flush arrive).
    Committed {
        /// Time index of `labels[0]`.
        start: usize,
        /// Newly committed labels, ascending in time.
        labels: Vec<usize>,
    },
    /// `flush` succeeded: the remaining tail plus the stream's final
    /// scalars (log-likelihood formatted `{:.17e}` — bit-exact round-trip).
    Flushed {
        /// Time index of `labels[0]`.
        start: usize,
        /// The remaining labels, ascending in time.
        labels: Vec<usize>,
        /// Final `log P(y_0..T-1)` summed across every epoch the session
        /// decoded under.
        log_likelihood: f64,
        /// Tokens decoded over the session's lifetime.
        tokens: usize,
    },
    /// `close` succeeded.
    Closed,
    /// `swap-model` succeeded.
    Swapped {
        /// The newly published model epoch.
        epoch: u64,
    },
    /// `stats` snapshot.
    Stats {
        /// Open sessions.
        active: usize,
        /// Current model epoch.
        epoch: u64,
        /// Pool tick clock.
        clock: u64,
        /// Sessions evicted for idleness over the pool's lifetime.
        evicted: u64,
        /// Always 0 (the wire field `lockstep` is kept for compatibility).
        lockstep_tokens: u64,
        /// Tokens the pool advanced through its ticks.
        scalar_tokens: u64,
        /// Always 0 (the wire field `smoothing-batched` is kept for
        /// compatibility).
        smoothing_batched: u64,
        /// Smoothed rows the pool's ticks emitted.
        smoothing_scalar: u64,
    },
    /// `metrics` snapshot: the Prometheus-style text exposition, carried
    /// verbatim (the one multi-line response payload).
    Metrics {
        /// The exposition text (`# HELP`/`# TYPE`/sample lines), or the
        /// `# telemetry disabled` placeholder when the server runs without
        /// a registry.
        text: String,
    },
    /// The request failed; `code` is stable, `message` is free-form.
    Error {
        /// Stable machine-readable code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes this response as a frame payload.
    pub fn encode(&self) -> String {
        match self {
            Response::Created { id } => format!("ok sid {}", format_sid(*id)),
            Response::Committed { start, labels } => {
                let mut s = format!("ok committed {start} {}", labels.len());
                for l in labels {
                    let _ = write!(s, " {l}");
                }
                s
            }
            Response::Flushed {
                start,
                labels,
                log_likelihood,
                tokens,
            } => {
                let mut s = format!("ok flushed {start} {}", labels.len());
                for l in labels {
                    let _ = write!(s, " {l}");
                }
                let _ = write!(s, " ll {log_likelihood:.17e} tokens {tokens}");
                s
            }
            Response::Closed => "ok closed".to_string(),
            Response::Swapped { epoch } => format!("ok epoch {epoch}"),
            Response::Stats {
                active,
                epoch,
                clock,
                evicted,
                lockstep_tokens,
                scalar_tokens,
                smoothing_batched,
                smoothing_scalar,
            } => format!(
                "ok stats active {active} epoch {epoch} clock {clock} evicted {evicted} \
                 lockstep {lockstep_tokens} scalar {scalar_tokens} \
                 smoothing-batched {smoothing_batched} smoothing-scalar {smoothing_scalar}"
            ),
            Response::Metrics { text } => format!("ok metrics\n{text}"),
            Response::Error { code, message } => format!("err {code} {message}"),
        }
    }

    /// Parses one response payload (the client side).
    pub fn parse(payload: &str) -> Result<Self, ServeError> {
        let bad = |reason: String| ServeError::BadRequest { reason };
        // The one multi-line response: everything after the tag's newline is
        // the exposition text, verbatim — whitespace tokenization would
        // destroy it.
        if let Some(text) = payload.strip_prefix("ok metrics\n") {
            return Ok(Response::Metrics {
                text: text.to_string(),
            });
        }
        let mut it = payload.split_ascii_whitespace();
        match it.next() {
            Some("err") => {
                let code = it
                    .next()
                    .ok_or_else(|| bad("err response without a code".into()))?
                    .to_string();
                let rest: Vec<&str> = it.collect();
                return Ok(Response::Error {
                    code,
                    message: rest.join(" "),
                });
            }
            Some("ok") => {}
            other => {
                return Err(bad(format!(
                    "response must start with ok/err, got {other:?}"
                )))
            }
        }
        let kind = it
            .next()
            .ok_or_else(|| bad("ok response without a kind".into()))?;
        let parse_usize = |tok: Option<&str>, what: &str| {
            tok.and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| bad(format!("{what} missing or malformed")))
        };
        match kind {
            "sid" => {
                let id = parse_sid(it.next().ok_or_else(|| bad("sid missing".into()))?)?;
                Ok(Response::Created { id })
            }
            "committed" | "flushed" => {
                let start = parse_usize(it.next(), "start")?;
                let n = parse_usize(it.next(), "label count")?;
                // Each label takes at least two bytes of the payload, so a
                // hostile count cannot reserve more than the frame holds.
                let mut labels = Vec::with_capacity(n.min(payload.len() / 2));
                for _ in 0..n {
                    labels.push(parse_usize(it.next(), "label")?);
                }
                if kind == "committed" {
                    if let Some(extra) = it.next() {
                        return Err(bad(format!("trailing token {extra:?}")));
                    }
                    return Ok(Response::Committed { start, labels });
                }
                match it.next() {
                    Some("ll") => {}
                    other => return Err(bad(format!("expected ll, got {other:?}"))),
                }
                let log_likelihood = it
                    .next()
                    .and_then(|t| t.parse::<f64>().ok())
                    .ok_or_else(|| bad("ll missing or malformed".into()))?;
                match it.next() {
                    Some("tokens") => {}
                    other => return Err(bad(format!("expected tokens, got {other:?}"))),
                }
                let tokens = parse_usize(it.next(), "tokens")?;
                Ok(Response::Flushed {
                    start,
                    labels,
                    log_likelihood,
                    tokens,
                })
            }
            "closed" => Ok(Response::Closed),
            "epoch" => {
                let epoch = it
                    .next()
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| bad("epoch missing or malformed".into()))?;
                Ok(Response::Swapped { epoch })
            }
            "stats" => {
                let mut field = |name: &str| -> Result<u64, ServeError> {
                    match it.next() {
                        Some(n) if n == name => {}
                        other => return Err(bad(format!("expected {name}, got {other:?}"))),
                    }
                    it.next()
                        .and_then(|t| t.parse::<u64>().ok())
                        .ok_or_else(|| bad(format!("{name} value missing or malformed")))
                };
                Ok(Response::Stats {
                    active: field("active")? as usize,
                    epoch: field("epoch")?,
                    clock: field("clock")?,
                    evicted: field("evicted")?,
                    lockstep_tokens: field("lockstep")?,
                    scalar_tokens: field("scalar")?,
                    smoothing_batched: field("smoothing-batched")?,
                    smoothing_scalar: field("smoothing-scalar")?,
                })
            }
            other => Err(bad(format!("unknown ok kind {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "push 0.0 1 2 3").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "push 0.0 1 2 3");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// A writer that takes at most three bytes per call and counts calls.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_survives_partial_writes_and_goes_out_in_one_write_when_it_can() {
        let mut trickle = Trickle {
            out: Vec::new(),
            calls: 0,
        };
        write_frame(&mut trickle, "push 0.0 1 2").unwrap();
        assert_eq!(trickle.calls, 6, "16 bytes, three per write");
        assert_eq!(
            read_frame(&mut &trickle.out[..]).unwrap().unwrap(),
            "push 0.0 1 2"
        );

        // A writer with a real vectored write (a socket, or `Vec`) gets the
        // prefix and the payload in one call.
        struct Vectored(usize);
        impl Write for Vectored {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.0 += 1;
                Ok(bufs.iter().map(|b| b.len()).sum())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut vectored = Vectored(0);
        write_frame(&mut vectored, "stats").unwrap();
        assert_eq!(vectored.0, 1);
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn requests_round_trip() {
        let id = SessionId::from_parts(3, 7);
        for req in [
            Request::Create,
            Request::Push {
                id,
                tokens: vec!["5".into(), "1.00000000000000000e0".into()],
            },
            Request::Flush { id },
            Request::Close { id },
            Request::SwapModel {
                path: "/tmp/model.ckpt".into(),
            },
            Request::Stats,
            Request::Metrics,
        ] {
            assert_eq!(Request::parse(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Created {
                id: SessionId::from_parts(0, 2),
            },
            Response::Committed {
                start: 4,
                labels: vec![1, 0, 2],
            },
            Response::Committed {
                start: 0,
                labels: vec![],
            },
            Response::Flushed {
                start: 7,
                labels: vec![2, 2],
                log_likelihood: -123.456789,
                tokens: 9,
            },
            Response::Closed,
            Response::Swapped { epoch: 3 },
            Response::Stats {
                active: 5,
                epoch: 2,
                clock: 100,
                evicted: 1,
                lockstep_tokens: 4096,
                scalar_tokens: 17,
                smoothing_batched: 2048,
                smoothing_scalar: 5,
            },
            Response::Metrics {
                text: "# HELP dhmm_serve_requests_total Requests handled.\n\
                       # TYPE dhmm_serve_requests_total counter\n\
                       dhmm_serve_requests_total{verb=\"push\"} 42\n"
                    .into(),
            },
            Response::Metrics {
                text: String::new(),
            },
            Response::Error {
                code: "queue-full".into(),
                message: "session slot 3 pending-token queue is full".into(),
            },
        ] {
            assert_eq!(Response::parse(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn log_likelihood_round_trips_bit_exactly() {
        for ll in [-1_234.567_890_123_456_7, -1e-300, f64::MIN_POSITIVE.ln()] {
            let resp = Response::Flushed {
                start: 0,
                labels: vec![],
                log_likelihood: ll,
                tokens: 1,
            };
            match Response::parse(&resp.encode()).unwrap() {
                Response::Flushed { log_likelihood, .. } => {
                    assert_eq!(log_likelihood.to_bits(), ll.to_bits());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for bad in [
            "",
            "nope",
            "push",
            "push 1",
            "push x.y 1",
            "flush 3",
            "create extra",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
