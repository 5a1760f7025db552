//! Counters and gauges: relaxed atomics behind cheap clonable handles.
//!
//! Relaxed ordering is correct here because metric values are monotone
//! tallies or last-write-wins levels read for reporting — nothing
//! synchronizes *through* them. The handles clone by `Arc` refcount bump;
//! a `None` inner is the no-op variant whose record calls are one branch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event tally.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    pub(crate) inner: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A counter that ignores every increment and reads 0 — what a disabled
    /// sink hands out for pure-telemetry counts.
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// A live counter not registered in any registry — for counts that are
    /// functional state (accessors read them back) even with telemetry off,
    /// and for bench-local tallies outside any registry.
    pub fn detached() -> Self {
        Self {
            inner: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    pub(crate) fn from_cell(cell: Arc<AtomicU64>) -> Self {
        Self { inner: Some(cell) }
    }

    /// Adds 1. Zero-allocation; a single relaxed `fetch_add` when live.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Zero-allocation; a single relaxed `fetch_add` when live.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.inner {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op counter).
    #[inline]
    pub fn value(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }

    /// Whether increments are observable (live), as opposed to a no-op.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }
}

/// A last-write-wins level (stored as `f64` bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    pub(crate) inner: Option<Arc<AtomicU64>>,
}

impl Gauge {
    /// A gauge that ignores every set and reads 0.0.
    pub fn noop() -> Self {
        Self { inner: None }
    }

    /// A live gauge not registered in any registry.
    pub fn detached() -> Self {
        Self {
            inner: Some(Arc::new(AtomicU64::new(0))),
        }
    }

    pub(crate) fn from_cell(cell: Arc<AtomicU64>) -> Self {
        Self { inner: Some(cell) }
    }

    /// Sets the level. Zero-allocation; a single relaxed store when live.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.inner {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current level (0.0 for a no-op gauge).
    #[inline]
    pub fn value(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_tally_and_noops_stay_zero() {
        let c = Counter::detached();
        c.inc();
        c.add(41);
        assert_eq!(c.value(), 42);
        assert!(c.is_live());
        let n = Counter::noop();
        n.add(7);
        assert_eq!(n.value(), 0);
        assert!(!n.is_live());
    }

    #[test]
    fn clones_share_the_cell() {
        let a = Counter::detached();
        let b = a.clone();
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(b.value(), 5);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let g = Gauge::detached();
        g.set(1.25);
        g.set(-3.5);
        assert_eq!(g.value(), -3.5);
        let n = Gauge::noop();
        n.set(9.0);
        assert_eq!(n.value(), 0.0);
    }
}
