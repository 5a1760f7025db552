//! Error type of the serving front-end, with stable wire codes.
//!
//! Every error a client can receive has a short machine-readable `code`
//! (the first token of an `err` response — see [`crate::protocol`]) and a
//! human-readable message. The codes are part of the protocol contract:
//! clients branch on the code, never on the message text.

use dhmm_core::DhmmError;
use dhmm_stream::StreamError;
use std::fmt;

/// Errors produced by the serving front-end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The session's pending-token queue is at its cap; the client must let
    /// a tick drain it (i.e. wait for its outstanding replies) before
    /// pushing more. Wire code `queue-full`.
    QueueFull {
        /// The offending slot index.
        slot: usize,
        /// Tokens currently pending.
        pending: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The session's committed-label queue is at its cap: the consumer is
    /// not draining labels as fast as ticks produce them. Wire code
    /// `lagging`.
    Lagging {
        /// The offending slot index.
        slot: usize,
        /// Committed labels awaiting pickup.
        queued: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The session id names a slot that was closed, evicted for idleness,
    /// or never existed — the generation check failed. Wire code
    /// `stale-session`.
    StaleSession {
        /// The offending slot index.
        slot: usize,
    },
    /// The session was already flushed; open a new session to stream more.
    /// Wire code `finished`.
    SessionFinished {
        /// The offending slot index.
        slot: usize,
    },
    /// The request could not be parsed (unknown verb, malformed session id,
    /// unparseable observation, oversized frame). Wire code `bad-request`.
    BadRequest {
        /// What was wrong with the request.
        reason: String,
    },
    /// A model checkpoint could not be loaded or does not match the serving
    /// family (e.g. swapping a Gaussian checkpoint into a discrete server).
    /// Wire code `model`.
    Model {
        /// What went wrong.
        reason: String,
    },
    /// The streaming backend rejected the configuration. Wire code
    /// `backend`.
    Backend {
        /// What went wrong.
        reason: String,
    },
    /// The server failed to start (bind failure, unreadable checkpoint).
    /// Never sent over the wire — startup errors have no client yet — but
    /// carries the same code discipline. Wire code `startup`.
    Startup {
        /// What went wrong.
        reason: String,
    },
    /// The engine thread panicked: the shutdown drain did not run and its
    /// report does not exist. Surfaced by [`crate::ServerHandle::shutdown`]
    /// / [`crate::ServerHandle::wait`] so a crash is never mistaken for a
    /// clean zero-session drain. Never sent over the wire — by definition
    /// there is no engine left to answer. Wire code `engine-crashed`.
    EngineCrashed,
}

impl ServeError {
    /// The stable wire code of this error (the first token after `err`).
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::QueueFull { .. } => "queue-full",
            ServeError::Lagging { .. } => "lagging",
            ServeError::StaleSession { .. } => "stale-session",
            ServeError::SessionFinished { .. } => "finished",
            ServeError::BadRequest { .. } => "bad-request",
            ServeError::Model { .. } => "model",
            ServeError::Backend { .. } => "backend",
            ServeError::Startup { .. } => "startup",
            ServeError::EngineCrashed => "engine-crashed",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { slot, pending, cap } => write!(
                f,
                "session slot {slot} pending-token queue is full ({pending} of {cap})"
            ),
            ServeError::Lagging { slot, queued, cap } => write!(
                f,
                "session slot {slot} is lagging: {queued} committed labels queued (cap {cap})"
            ),
            ServeError::StaleSession { slot } => {
                write!(f, "session slot {slot} is stale (closed or evicted)")
            }
            ServeError::SessionFinished { slot } => {
                write!(f, "session slot {slot} was already flushed")
            }
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Model { reason } => write!(f, "model error: {reason}"),
            ServeError::Backend { reason } => write!(f, "backend error: {reason}"),
            ServeError::Startup { reason } => write!(f, "startup error: {reason}"),
            ServeError::EngineCrashed => {
                write!(f, "engine thread panicked; shutdown drain did not run")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::QueueFull { slot, pending, cap } => {
                ServeError::QueueFull { slot, pending, cap }
            }
            StreamError::Lagging { slot, queued, cap } => ServeError::Lagging { slot, queued, cap },
            StreamError::SessionNotFound { slot } | StreamError::SessionClosed { slot } => {
                ServeError::StaleSession { slot }
            }
            StreamError::SessionFinished { slot } => ServeError::SessionFinished { slot },
            StreamError::InvalidConfig { reason } => ServeError::Backend { reason },
        }
    }
}

// `ServeError` is local, so the orphan rule allows extending the workspace's
// facade error enum from here: the facade exposes one `DhmmError` end to
// end, with serve failures carried in their wire form.
impl From<ServeError> for DhmmError {
    fn from(e: ServeError) -> Self {
        DhmmError::Serve {
            code: e.code().to_string(),
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_display_names_the_problem() {
        let e = ServeError::QueueFull {
            slot: 3,
            pending: 8,
            cap: 8,
        };
        assert_eq!(e.code(), "queue-full");
        assert!(e.to_string().contains("full"));
        assert_eq!(ServeError::StaleSession { slot: 1 }.code(), "stale-session");
        assert_eq!(
            ServeError::BadRequest { reason: "x".into() }.code(),
            "bad-request"
        );
    }

    #[test]
    fn stream_errors_map_onto_wire_codes() {
        let e: ServeError = StreamError::SessionClosed { slot: 2 }.into();
        assert_eq!(e.code(), "stale-session");
        let e: ServeError = StreamError::Lagging {
            slot: 0,
            queued: 9,
            cap: 8,
        }
        .into();
        assert_eq!(e.code(), "lagging");
    }

    #[test]
    fn serve_errors_join_the_facade_error_enum() {
        let e: DhmmError = ServeError::SessionFinished { slot: 5 }.into();
        match e {
            DhmmError::Serve { code, reason } => {
                assert_eq!(code, "finished");
                assert!(reason.contains('5'));
            }
            other => panic!("expected DhmmError::Serve, got {other:?}"),
        }
    }
}
