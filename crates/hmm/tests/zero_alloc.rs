//! Allocation-freedom of warm offline inference, asserted with a counting
//! global allocator: once a workspace and a compiled transition matrix have
//! grown to their high-water sizes, recompiling the pruned matrix `Ã` for a
//! changed `A` allocates nothing, and a decode allocates only the path it
//! returns.
//!
//! The counter is per thread and gated on a thread-local flag, so a test
//! sees only the allocations of its own measured section: the libtest
//! harness allocates on its own threads (timers, output capture), and the
//! tests in this file run in parallel, each tracking its own thread.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::{CsrTransition, Hmm, InferenceBackend, InferenceWorkspace, SparseParams};
use dhmm_linalg::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    /// Count allocations only while the measured section runs on this
    /// thread. `const` initialization: reading the flag never allocates.
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

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const K: usize = 24;
const VOCAB: usize = 5;

/// A `K`-state model whose transition rows put most of their mass on a few
/// successors (so pruning keeps a different pattern for each `shift`).
fn model(shift: usize) -> Hmm<DiscreteEmission> {
    let mut a = Matrix::from_fn(K, K, |i, j| {
        let d = (j + K - (i + shift) % K) % K;
        1.0 / (1.0 + (d * d) as f64)
    });
    let mut b = Matrix::from_fn(K, VOCAB, |i, v| 1.0 + ((i + 2 * v) % VOCAB) as f64);
    a.normalize_rows();
    b.normalize_rows();
    Hmm::new(
        vec![1.0 / K as f64; K],
        a,
        DiscreteEmission::new(b).unwrap(),
    )
    .unwrap()
}

fn rules() -> [SparseParams; 3] {
    [
        SparseParams::exact(),
        SparseParams::threshold(0.02),
        SparseParams::top_p(0.9),
    ]
}

/// `compile_into` for a changed `A` of the same `k`, under every rule,
/// allocates nothing once its buffers have grown: the row-major build, the
/// transpose and the top-p scratch all reuse their storage.
#[test]
fn recompiling_for_a_changed_matrix_allocates_nothing() {
    let models = [model(0), model(5)];
    for params in rules() {
        let mut csr = CsrTransition::compile(models[0].transition(), params).unwrap();
        for m in &models {
            csr.compile_into(m.transition(), params).unwrap();
        }
        for round in 0..4 {
            let a = models[round % 2].transition();
            let (res, n) = counted(|| csr.compile_into(a, params));
            res.unwrap();
            assert_eq!(n, 0, "{params:?} round {round}: {n} allocations");
        }
    }
}

/// A warm `viterbi_with_score` allocates exactly once, for the returned
/// path, under `Scaled` and under `Sparse`, including when the model's `A`
/// changed since the last call and the workspace recompiles its cached `Ã`
/// and its key. A warm forward pass allocates nothing.
#[test]
fn warm_decode_allocates_only_the_returned_path() {
    let models = [model(0), model(5)];
    let obs: Vec<usize> = (0..200).map(|t| (t * 7 + t / 3) % VOCAB).collect();
    let backends =
        std::iter::once(InferenceBackend::Scaled).chain(rules().map(InferenceBackend::Sparse));
    for backend in backends {
        let mut ws = InferenceWorkspace::new();
        for m in &models {
            backend.viterbi_with_score(m, &obs, &mut ws).unwrap();
            backend.log_likelihood(m, &obs, &mut ws).unwrap();
        }
        for round in 0..4 {
            let m = &models[round % 2];
            let ((path, score), n) =
                counted(|| backend.viterbi_with_score(m, &obs, &mut ws).unwrap());
            assert_eq!(n, 1, "{backend:?} round {round}: {n} allocations");
            assert_eq!(path.len(), obs.len());
            assert!(score.is_finite());
            let (ll, n) = counted(|| backend.log_likelihood(m, &obs, &mut ws).unwrap());
            assert_eq!(n, 0, "{backend:?} round {round}: {n} allocations");
            assert!(ll.is_finite());
        }
    }
}
