//! Error type for the streaming subsystem.

use std::fmt;

/// Errors produced by streaming configuration and session management.
///
/// Token *decoding* is infallible by design: every degenerate input
/// (out-of-vocabulary symbol, underflowing density, non-finite observation)
/// takes the engines' established floored-row path, exactly like the offline
/// scaled engine. What can fail is *plumbing* — an out-of-range backend
/// parameter at construction, a stale/unknown session handle, or (when the pool is
/// configured with queue caps) a producer outrunning the consumer. The
/// capacity variants are the backpressure story: a full pending queue or a
/// lagging committed queue is surfaced as a typed error at `push` time
/// instead of growing without bound.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// The backend's parameters are out of range (e.g. a sparse top-p
    /// outside `(0, 1]`), rejected at construction before any session runs.
    InvalidConfig {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// The session id does not name any slot in this pool.
    SessionNotFound {
        /// The offending slot index.
        slot: usize,
    },
    /// The session id names a slot that has since been closed and reopened
    /// (stale generation), evicted for idleness, or is currently free.
    SessionClosed {
        /// The offending slot index.
        slot: usize,
    },
    /// The session was already flushed; create a new session (or the same
    /// slot, reopened) to stream more data.
    SessionFinished {
        /// The offending slot index.
        slot: usize,
    },
    /// The session's pending-token queue is at its configured cap; the
    /// producer must wait for a tick to drain it before pushing more.
    QueueFull {
        /// The offending slot index.
        slot: usize,
        /// Tokens currently pending.
        pending: usize,
        /// The configured pending-queue cap.
        cap: usize,
    },
    /// The session's committed-label queue is at its configured cap: the
    /// consumer is not draining labels (`take_committed`) as fast as ticks
    /// produce them. Further pushes are refused until the backlog is taken.
    Lagging {
        /// The offending slot index.
        slot: usize,
        /// Committed labels awaiting pickup.
        queued: usize,
        /// The configured committed-queue cap.
        cap: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::InvalidConfig { reason } => {
                write!(f, "invalid stream configuration: {reason}")
            }
            StreamError::SessionNotFound { slot } => {
                write!(f, "session slot {slot} does not exist in this pool")
            }
            StreamError::SessionClosed { slot } => {
                write!(f, "session slot {slot} was closed (stale session id)")
            }
            StreamError::SessionFinished { slot } => {
                write!(f, "session slot {slot} was already flushed")
            }
            StreamError::QueueFull { slot, pending, cap } => write!(
                f,
                "session slot {slot} pending-token queue is full ({pending} of {cap}); tick before pushing more"
            ),
            StreamError::Lagging { slot, queued, cap } => write!(
                f,
                "session slot {slot} is lagging: {queued} committed labels queued (cap {cap}); take_committed before pushing more"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        assert!(StreamError::InvalidConfig {
            reason: "top-p out of range".into()
        }
        .to_string()
        .contains("top-p"));
        assert!(StreamError::SessionNotFound { slot: 3 }
            .to_string()
            .contains('3'));
        assert!(StreamError::SessionClosed { slot: 1 }
            .to_string()
            .contains("closed"));
        assert!(StreamError::SessionFinished { slot: 0 }
            .to_string()
            .contains("flushed"));
        assert!(StreamError::QueueFull {
            slot: 2,
            pending: 8,
            cap: 8
        }
        .to_string()
        .contains("full"));
        assert!(StreamError::Lagging {
            slot: 4,
            queued: 100,
            cap: 64
        }
        .to_string()
        .contains("lagging"));
    }
}
