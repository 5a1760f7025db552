//! Allocation-freedom of the fused DPP M-step engine, asserted with a
//! counting global allocator: once a workspace has seen a shape, every
//! value, gradient and fused evaluation at that shape makes zero heap
//! allocations, under the serial executor and under a two-worker one, on
//! both the factorizing path and the accept→gradient cache path.
//!
//! The iterates are interior and well conditioned: the degenerate-kernel
//! gradient falls back to the scalar reference, which is documented to
//! allocate, and stays out of this test.
//!
//! The counter is per thread and gated on a thread-local flag, so the test
//! sees only the allocations of its own measured calls on the dispatching
//! thread. Everything runs in one test so that no other test in this binary
//! holds the worker pool while this one warms it up.

use dhmm_dpp::{DppObjective, MStepWorkspace, ProductKernel};
use dhmm_linalg::Matrix;
use dhmm_runtime::Executor;
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

/// A `k × k` row-stochastic iterate with a heavy diagonal and the rest of
/// each row spread unevenly (`seed` varies the spread): every entry is far
/// above the gradient's entry floor, and the rows are far from collinear,
/// so the normalized kernel factors without jitter.
fn interior_iterate(k: usize, seed: usize) -> Matrix {
    let mut a = Matrix::from_fn(k, k, |i, j| {
        if i == j {
            (k - 1) as f64
        } else {
            1.0 + ((i * 31 + j * 17 + seed * 7 + i * j) % 23) as f64 / 23.0
        }
    });
    a.normalize_rows();
    a
}

/// One engine call on the first (`a`) or second (`b`) iterate.
type Call = fn(&DppObjective, &Matrix, &Matrix, &mut MStepWorkspace, &mut Matrix);

/// The measured calls, in order: fresh factorizations, then the
/// accept→gradient cache hits after a value evaluation of `a`. The list
/// ends with `b` cached, so a repeat of it factorizes `a` afresh.
const CALLS: [(&str, Call); 7] = [
    ("log_det_with a", |e, a, _, ws, _| {
        e.log_det_with(a, ws).unwrap();
    }),
    ("log_det_with b", |e, _, b, ws, _| {
        e.log_det_with(b, ws).unwrap();
    }),
    ("grad_with a", |e, a, _, ws, g| {
        e.grad_with(a, ws, g).unwrap()
    }),
    ("log_det_and_grad_with a", |e, a, _, ws, g| {
        e.log_det_and_grad_with(a, ws, g).unwrap();
    }),
    ("grad_with a, cached", |e, a, _, ws, g| {
        e.grad_with(a, ws, g).unwrap()
    }),
    ("log_det_and_grad_with a, cached", |e, a, _, ws, g| {
        e.log_det_and_grad_with(a, ws, g).unwrap();
    }),
    ("log_det_and_grad_with b", |e, _, b, ws, g| {
        e.log_det_and_grad_with(b, ws, g).unwrap();
    }),
];

#[test]
fn warm_evaluations_allocate_nothing() {
    let mut allocating = Vec::new();
    for k in [16usize, 64] {
        let (a, b) = (interior_iterate(k, 0), interior_iterate(k, 1));
        for exec in [Executor::serial(), Executor::from_workers(2)] {
            let engine = DppObjective::new(ProductKernel::bhattacharyya()).with_executor(exec);
            let mut ws = MStepWorkspace::new();
            let mut grad = Matrix::zeros(k, k);
            // The first pass sizes the workspace (and, at k = 64 on two
            // workers, spawns the pool's helper thread); the second is
            // measured.
            for measured in [false, true] {
                for (name, call) in CALLS {
                    let n = allocations_in(|| call(&engine, &a, &b, &mut ws, &mut grad));
                    if measured && n > 0 {
                        allocating.push(format!("k={k} workers={} {name}: {n}", exec.workers()));
                    }
                }
            }
            assert!(grad.is_finite(), "k={k} workers={}", exec.workers());
        }
    }
    assert!(
        allocating.is_empty(),
        "warm evaluations allocated:\n{}",
        allocating.join("\n")
    );
}
