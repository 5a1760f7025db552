//! Allocation-freedom of the streaming hot path, asserted with a counting
//! global allocator: after a warm-up stream sizes every grow-only buffer,
//! a full second stream — pushes, commits, smoothing blocks and flush —
//! performs zero heap allocations.
//!
//! The counter is per thread and gated on a thread-local flag, so a test
//! sees only the allocations of its own measured section: the libtest
//! harness allocates on its own threads (timers, output capture), and the
//! tests in this file run in parallel, each tracking its own thread.

use dhmm_hmm::emission::DiscreteEmission;
use dhmm_hmm::Hmm;
use dhmm_linalg::Matrix;
use dhmm_stream::{
    Parallelism, Registry, SessionPool, StreamConfig, StreamingDecoder, TelemetrySink,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

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

/// The calling thread's tracked allocation count.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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

#[test]
fn push_performs_zero_heap_allocation_after_warm_up() {
    let model = model();
    let seq: Vec<usize> = (0..512).map(|i| (i * 7 + i / 5) % 4).collect();

    // Both sinks: the instrumented record path (counters, histogram buckets,
    // span clock reads) must be exactly as allocation-free as the no-op one.
    for telemetry in [
        TelemetrySink::Disabled,
        TelemetrySink::Registry(Registry::new()),
    ] {
        for lag in [0usize, 1, 8, 64] {
            let config = StreamConfig::default()
                .with_lag(lag)
                .with_telemetry(telemetry.clone());
            let mut dec = StreamingDecoder::with_config(&model, config).unwrap();
            // Warm-up stream: exercises every buffer at its steady-state
            // size, including the flush-tail commit and the final smoothing
            // pass.
            let mut sink = 0usize;
            for obs in &seq {
                sink += dec.push(obs).committed.len();
            }
            sink += dec.flush().committed.len();
            assert_eq!(sink, seq.len(), "lag={lag}");
            dec.reset();

            let before = allocations();
            TRACKING.with(|t| t.set(true));
            let mut sink = 0usize;
            let mut ll = 0.0;
            for obs in &seq {
                let step = dec.push(obs);
                sink += step.committed.len() + step.smoothed.len();
                ll = step.log_likelihood;
            }
            let flush = dec.flush();
            sink += flush.committed.len();
            TRACKING.with(|t| t.set(false));
            let after = allocations();
            assert_eq!(
                after - before,
                0,
                "lag={lag} telemetry={}: {} allocations on the warm path",
                telemetry.enabled(),
                after - before
            );
            assert!(sink > 0 && ll.is_finite(), "lag={lag}");
        }
    }
}

/// One warmed-up pool tick cycle (push + tick + take) under each sink,
/// counting allocations on the measured thread. The tick path allocates
/// nothing under either sink: the tick's list of sessions to advance reuses
/// its allocation across ticks, and the record path is counters and
/// preallocated histogram buckets only — so attaching a registry adds
/// **zero** allocations over the disabled sink, which itself makes none.
#[test]
fn telemetry_adds_zero_allocations_to_the_pool_tick_path() {
    let model = Arc::new(model());
    let seq: Vec<usize> = (0..256).map(|i| (i * 7 + i / 5) % 4).collect();

    let mut allocs = [0u64, 0];
    for (run, telemetry) in [
        TelemetrySink::Disabled,
        TelemetrySink::Registry(Registry::new()),
    ]
    .into_iter()
    .enumerate()
    {
        let config = StreamConfig::default()
            .with_lag(4)
            .with_parallelism(Parallelism::Serial)
            .with_telemetry(telemetry);
        let mut pool = SessionPool::with_config(Arc::clone(&model), config).unwrap();
        let ids: Vec<_> = (0..4).map(|_| pool.create()).collect();
        let mut out = Vec::with_capacity(seq.len() * ids.len());
        // Warm-up pass: size every grow-only buffer (rings, scratch, queues).
        for chunk in seq.chunks(8) {
            for &id in &ids {
                for &obs in chunk {
                    pool.push(id, obs).unwrap();
                }
            }
            pool.tick();
            for &id in &ids {
                pool.take_committed(id, &mut out).unwrap();
            }
        }

        // The label sink is the test's own buffer: empty it so the measured
        // pass fits the capacity the warm-up used.
        out.clear();
        let before = allocations();
        TRACKING.with(|t| t.set(true));
        for chunk in seq.chunks(8) {
            for &id in &ids {
                for &obs in chunk {
                    pool.push(id, obs).unwrap();
                }
            }
            pool.tick();
            for &id in &ids {
                pool.take_committed(id, &mut out).unwrap();
            }
        }
        TRACKING.with(|t| t.set(false));
        allocs[run] = allocations() - before;
        assert!(!out.is_empty());
    }
    assert_eq!(
        allocs[1], allocs[0],
        "registry-backed tick path allocated more than the disabled one \
         (disabled={}, enabled={})",
        allocs[0], allocs[1]
    );
    assert_eq!(
        allocs,
        [0, 0],
        "the warm pool tick path allocated (disabled={}, enabled={})",
        allocs[0],
        allocs[1]
    );
}
