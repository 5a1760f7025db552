//! Allocation count of a warm projected-gradient ascent, asserted with a
//! counting global allocator: once an [`AscentWorkspace`] has seen a shape,
//! `maximize_transition_objective_counted` makes exactly one allocation,
//! the matrix it returns. Candidates, gradients, the prior engine's
//! factorizations and the simplex projection's sort orders all live in the
//! workspace.
//!
//! The counts hold zeros, so the projections clip entries to exactly zero
//! and the ascent's gradients run the factorizing boundary path as well as
//! the accept→gradient cache. The rows stay far from collinear, so no
//! gradient falls back to the scalar reference (which is documented to
//! allocate).
//!
//! The counter is per thread and gated on a thread-local flag, so the test
//! sees only the allocations of its own measured calls on the calling
//! thread.

use dhmm_core::transition_update::{
    maximize_transition_objective_counted, AscentWorkspace, TransitionObjective,
};
use dhmm_core::AscentConfig;
use dhmm_dpp::ProductKernel;
use dhmm_linalg::Matrix;
use dhmm_runtime::Parallelism;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Count allocations only while a measured call runs on this thread.
    /// `const` initialization: reading the flag never allocates.
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Allocations made on this thread while `TRACKING` was set.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn record_allocation() {
    // `try_with`: TLS may already be torn down when late allocations happen
    // during thread exit; those are never ours.
    if TRACKING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations the calling thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    TRACKING.with(|t| t.set(true));
    f();
    TRACKING.with(|t| t.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// Expected counts with a heavy diagonal, one zero in seven off the
/// diagonal, and the rest spread unevenly (`seed` varies the pattern), so
/// the rows stay far from collinear.
fn counts(k: usize, seed: usize) -> Matrix {
    Matrix::from_fn(k, k, |i, j| {
        if i == j {
            4.0 * k as f64
        } else if (i * 5 + j * 3 + seed).is_multiple_of(7) {
            0.0
        } else {
            1.0 + ((i * 31 + j * 17 + seed * 7 + i * j) % 23) as f64
        }
    })
}

#[test]
fn a_warm_ascent_allocates_only_the_returned_matrix() {
    let kernel = ProductKernel::bhattacharyya();
    let config = AscentConfig {
        max_iterations: 10,
        tolerance: 0.0,
        ..AscentConfig::default()
    };
    for k in [16, 64] {
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            let mut ws = AscentWorkspace::new();
            for seed in 0..3 {
                let xi = counts(k, seed);
                let objective = TransitionObjective::unsupervised(&xi, 10.0, kernel)
                    .with_parallelism(parallelism);
                let mut start = xi.clone();
                start.normalize_rows();
                let mut result = None;
                let allocations = allocations_in(|| {
                    result = Some(
                        maximize_transition_objective_counted(&objective, &start, &config, &mut ws)
                            .expect("ascent runs"),
                    );
                });
                let (a, stats) = result.expect("measured call ran");
                assert!(stats.accepted > 0, "k = {k}: the ascent never moved");
                assert!(a.is_row_stochastic(1e-9));
                assert!(a.as_slice().contains(&0.0), "k = {k}: no entry clipped");
                // The first call sizes the workspace; every later one only
                // returns its matrix.
                if seed > 0 {
                    assert_eq!(allocations, 1, "k = {k}, {parallelism:?}, seed {seed}");
                }
            }
        }
    }
}
