//! Generic per-worker scratch leases.
//!
//! [`LeasePool`] is the generalization of the old `hmm::WorkspacePool`: a
//! grow-only collection of default-constructed scratch values, one leased to
//! each worker of a parallel section and kept warm across sections (an EM
//! run performs its scratch allocations exactly once).

/// A grow-only pool of reusable scratch values, leased one-per-worker.
///
/// Values are created with `T::default()` on first demand and never
/// discarded, so a pool sized by the widest parallel section it has seen
/// serves every narrower section allocation-free. The executor's
/// `map_ranges_with` hands range `t` exclusive access to slot `t`.
#[derive(Debug, Clone, Default)]
pub struct LeasePool<T> {
    items: Vec<T>,
}

impl<T: Default> LeasePool<T> {
    /// Creates an empty pool; slots are created on first lease.
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Returns at least `n` scratch slots, growing the pool if needed.
    pub fn ensure(&mut self, n: usize) -> &mut [T] {
        if self.items.len() < n {
            self.items.resize_with(n, T::default);
        }
        &mut self.items[..n]
    }

    /// Number of slots currently in the pool.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pool has no slots yet.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_pool_grows_but_never_shrinks() {
        let mut pool: LeasePool<Vec<f64>> = LeasePool::new();
        assert!(pool.is_empty());
        pool.ensure(3)[0].resize(16, 0.0);
        assert_eq!(pool.len(), 3);
        // A narrower lease hands back the already-warm slots.
        let slots = pool.ensure(2);
        assert_eq!(slots.len(), 2);
        assert_eq!(slots[0].len(), 16);
        assert_eq!(pool.len(), 3);
    }
}
