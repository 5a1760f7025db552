//! The scoped worker-pool executor: deterministic row-range fan-out with
//! fixed-order collection.

use crate::parallelism::Parallelism;
use crate::pool;
use crate::split::{split_count, split_range};
use std::ops::Range;

/// Shared-nothing pointer wrapper for handing disjoint `&mut` regions to
/// pool workers. Safety of every use rests on the range-disjointness
/// guarantee of the [`crate::split_rows`] partition: task `t` touches only
/// offsets derived from its range [`split_range`]`(n, workers, t)`, and
/// `run_tasks` runs each task exactly once.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper itself, not the raw pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// A dispatcher binding a resolved worker count to the process-wide pool.
///
/// `Executor` is a trivially-copyable policy value (it owns no threads); all
/// heavy state lives in the shared pool. Every method guarantees the same
/// contract: the iteration space is partitioned with [`crate::split_rows`],
/// each partition is processed exactly once, and results are collected on
/// the calling thread in ascending range order — so outputs are
/// bit-identical whatever the worker count, including `1`. A method finds
/// its ranges with [`split_range`] and builds no partition vector, so the
/// banded methods allocate nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    workers: usize,
}

impl Default for Executor {
    /// The serial executor — the conservative default for low-level code;
    /// trainers construct explicit executors from their configured
    /// [`Parallelism`].
    fn default() -> Self {
        Self { workers: 1 }
    }
}

impl Executor {
    /// Creates an executor for the resolved worker count of `parallelism`.
    pub fn new(parallelism: Parallelism) -> Self {
        Self {
            workers: parallelism.resolve(),
        }
    }

    /// The single-threaded executor (dispatch-free, allocation-free).
    pub fn serial() -> Self {
        Self { workers: 1 }
    }

    /// An executor with exactly `n` workers (clamped to at least 1).
    pub fn from_workers(n: usize) -> Self {
        Self { workers: n.max(1) }
    }

    /// The worker count this executor partitions for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether dispatch is bypassed entirely.
    pub fn is_serial(&self) -> bool {
        self.workers <= 1
    }

    /// Number of ranges [`Self::map_ranges`] will produce for `n` rows: the
    /// same count the [`crate::split_rows`] partition is built from.
    pub fn num_ranges(&self, n: usize) -> usize {
        split_count(n, self.workers)
    }

    /// This executor, demoted to serial when the problem is too small for
    /// dispatch overhead to pay for itself. `work` is any monotone size
    /// proxy (elements, flops); callers pick the threshold.
    pub fn unless_smaller_than(self, work: usize, min_work: usize) -> Self {
        if work < min_work {
            Self::serial()
        } else {
            self
        }
    }

    /// Runs `f(range_index, range)` over the [`crate::split_rows`] partition
    /// of `0..n` and returns the outputs in range order.
    pub fn map_ranges<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let count = self.num_ranges(n);
        if count <= 1 {
            return (0..count).map(|t| f(t, 0..n)).collect();
        }
        let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let out_ptr = SendPtr(out.as_mut_ptr());
        pool::run_tasks(count, self.workers, &|t| {
            let value = f(t, split_range(n, self.workers, t));
            // SAFETY: slot `t` is written exactly once (tasks are unique)
            // and slots are disjoint; overwriting the prefilled `None` via
            // `write` drops nothing.
            unsafe { std::ptr::write(out_ptr.get().add(t), Some(value)) };
        });
        out.into_iter()
            .map(|v| v.expect("runtime executor: range produced no value"))
            .collect()
    }

    /// Like [`Self::map_ranges`], but hands range `t` exclusive access to
    /// `states[t]` — the per-worker lease pattern of the pooled E-step.
    ///
    /// # Panics
    /// Panics if `states` has fewer entries than the partition has ranges
    /// (size it with [`Self::num_ranges`]).
    pub fn map_ranges_with<S, T, F>(&self, n: usize, states: &mut [S], f: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        F: Fn(usize, Range<usize>, &mut S) -> T + Sync,
    {
        let count = self.num_ranges(n);
        assert!(
            states.len() >= count,
            "runtime executor: {} states for {count} ranges",
            states.len(),
        );
        if count <= 1 {
            return (0..count).map(|t| f(t, 0..n, &mut states[t])).collect();
        }
        let mut out: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let out_ptr = SendPtr(out.as_mut_ptr());
        let state_ptr = SendPtr(states.as_mut_ptr());
        pool::run_tasks(count, self.workers, &|t| {
            // SAFETY: state slot `t` is accessed only by task `t`, which
            // runs exactly once; distinct tasks touch distinct slots.
            let state = unsafe { &mut *state_ptr.get().add(t) };
            let value = f(t, split_range(n, self.workers, t), state);
            // SAFETY: as in `map_ranges`.
            unsafe { std::ptr::write(out_ptr.get().add(t), Some(value)) };
        });
        out.into_iter()
            .map(|v| v.expect("runtime executor: range produced no value"))
            .collect()
    }

    /// Runs two independent jobs, concurrently when this executor has more
    /// than one worker and serially (`a` then `b`) otherwise. The pair of a
    /// task-list fan-out for heterogeneous work: the concurrent M-step runs
    /// the transition ascent and the emission re-estimation through this.
    ///
    /// Both jobs must be independent of each other (the determinism contract
    /// of the pool); their results are returned in argument order either way.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        if self.is_serial() {
            return (a(), b());
        }
        // `run_tasks` wants `Fn`; the one-shot closures and their results
        // travel through mutex-guarded options (cold path, two locks total).
        let a = std::sync::Mutex::new(Some(a));
        let b = std::sync::Mutex::new(Some(b));
        let ra: std::sync::Mutex<Option<RA>> = std::sync::Mutex::new(None);
        let rb: std::sync::Mutex<Option<RB>> = std::sync::Mutex::new(None);
        pool::run_tasks(2, 2, &|t| {
            if t == 0 {
                let f = a.lock().expect("join job poisoned").take();
                let value = f.expect("join task 0 runs once")();
                *ra.lock().expect("join result poisoned") = Some(value);
            } else {
                let f = b.lock().expect("join job poisoned").take();
                let value = f.expect("join task 1 runs once")();
                *rb.lock().expect("join result poisoned") = Some(value);
            }
        });
        let ra = ra
            .into_inner()
            .expect("join result poisoned")
            .expect("join task 0 produced no value");
        let rb = rb
            .into_inner()
            .expect("join result poisoned")
            .expect("join task 1 produced no value");
        (ra, rb)
    }

    /// Splits `data` — a row-major buffer of `data.len() / stride` rows —
    /// into contiguous row bands along the [`crate::split_rows`] partition
    /// and runs `f(rows, band)` on each, in parallel. The workhorse of the
    /// banded linear-algebra kernels and the per-row M-step gradient pass.
    /// Allocation-free: each band's range is computed by [`split_range`].
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `stride` (`stride == 0`
    /// is allowed only with empty `data`).
    pub fn for_each_band<T, F>(&self, data: &mut [T], stride: usize, f: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(
            stride > 0 && data.len().is_multiple_of(stride),
            "runtime executor: buffer of {} is not a whole number of rows of {stride}",
            data.len()
        );
        let rows = data.len() / stride;
        let count = self.num_ranges(rows);
        if count == 1 {
            f(0..rows, data);
            return;
        }
        let base = SendPtr(data.as_mut_ptr());
        pool::run_tasks(count, self.workers, &|t| {
            let range = split_range(rows, self.workers, t);
            // SAFETY: ranges partition the rows, so the bands
            // `[start*stride, end*stride)` are pairwise disjoint; each task
            // runs exactly once, giving each band a unique `&mut`.
            let band = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(range.start * stride),
                    range.len() * stride,
                )
            };
            f(range, band);
        });
    }

    /// Like [`Self::for_each_band`], but additionally hands band `t`
    /// exclusive access to `states[t]` — the banded sibling of
    /// [`Self::map_ranges_with`]. Used where each worker needs a leased
    /// scratch value while mutating a disjoint row band (e.g. a streaming
    /// session pool advancing per-session decoders with per-worker scratch).
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `stride`, or if `states`
    /// has fewer entries than the partition has ranges (size it with
    /// [`Self::num_ranges`] over `data.len() / stride`).
    pub fn for_each_band_with<T, S, F>(&self, data: &mut [T], stride: usize, states: &mut [S], f: F)
    where
        T: Send,
        S: Send,
        F: Fn(Range<usize>, &mut [T], &mut S) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(
            stride > 0 && data.len().is_multiple_of(stride),
            "runtime executor: buffer of {} is not a whole number of rows of {stride}",
            data.len()
        );
        let rows = data.len() / stride;
        let count = self.num_ranges(rows);
        assert!(
            states.len() >= count,
            "runtime executor: {} states for {count} ranges",
            states.len(),
        );
        if count == 1 {
            f(0..rows, data, &mut states[0]);
            return;
        }
        let base = SendPtr(data.as_mut_ptr());
        let state_ptr = SendPtr(states.as_mut_ptr());
        pool::run_tasks(count, self.workers, &|t| {
            let range = split_range(rows, self.workers, t);
            // SAFETY: bands are disjoint as in `for_each_band`, and state
            // slot `t` is touched only by task `t`, which runs exactly once.
            let band = unsafe {
                std::slice::from_raw_parts_mut(
                    base.get().add(range.start * stride),
                    range.len() * stride,
                )
            };
            let state = unsafe { &mut *state_ptr.get().add(t) };
            f(range, band, state);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_ranges_collects_in_range_order() {
        for workers in [1usize, 2, 4, 9] {
            let exec = Executor::from_workers(workers);
            let sums = exec.map_ranges(100, |_, r| r.clone().map(|i| i as u64).sum::<u64>());
            assert_eq!(sums.len(), exec.num_ranges(100));
            assert_eq!(sums.iter().sum::<u64>(), 4950, "workers={workers}");
            // Fixed-order reduction: concatenating range outputs in order
            // reconstructs the serial result exactly.
            let serial =
                Executor::serial().map_ranges(100, |_, r| r.clone().map(|i| i as u64).sum::<u64>());
            assert_eq!(serial.iter().sum::<u64>(), sums.iter().sum::<u64>());
        }
    }

    #[test]
    fn map_ranges_with_gives_each_range_its_own_state() {
        let exec = Executor::from_workers(4);
        let mut scratch = vec![0usize; exec.num_ranges(10)];
        let lens = exec.map_ranges_with(10, &mut scratch, |_, r, s| {
            *s += r.len();
            r.len()
        });
        assert_eq!(lens.iter().sum::<usize>(), 10);
        assert_eq!(scratch.iter().sum::<usize>(), 10);
    }

    #[test]
    #[should_panic(expected = "states for")]
    fn map_ranges_with_rejects_undersized_state_slice() {
        let exec = Executor::from_workers(4);
        let mut scratch = vec![0usize; 1];
        exec.map_ranges_with(10, &mut scratch, |_, _, _| ());
    }

    #[test]
    fn for_each_band_touches_every_row_once() {
        for workers in [1usize, 3, 8] {
            let exec = Executor::from_workers(workers);
            let mut data = vec![0u32; 7 * 5];
            exec.for_each_band(&mut data, 5, |rows, band| {
                assert_eq!(band.len(), rows.len() * 5);
                for v in band.iter_mut() {
                    *v += 1;
                }
            });
            assert!(data.iter().all(|&v| v == 1), "workers={workers}");
        }
    }

    #[test]
    fn for_each_band_handles_empty_buffers() {
        let exec = Executor::from_workers(4);
        let mut empty: Vec<f64> = Vec::new();
        exec.for_each_band(&mut empty, 0, |_, _| panic!("no bands expected"));
    }

    #[test]
    fn for_each_band_with_gives_each_band_its_own_state() {
        for workers in [1usize, 3, 8] {
            let exec = Executor::from_workers(workers);
            let mut data = vec![0u32; 11 * 3];
            let mut scratch = vec![0usize; exec.num_ranges(11)];
            exec.for_each_band_with(&mut data, 3, &mut scratch, |rows, band, s| {
                *s += rows.len();
                for v in band.iter_mut() {
                    *v += 1;
                }
            });
            assert!(data.iter().all(|&v| v == 1), "workers={workers}");
            assert_eq!(scratch.iter().sum::<usize>(), 11, "workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "states for")]
    fn for_each_band_with_rejects_undersized_state_slice() {
        let exec = Executor::from_workers(4);
        let mut data = vec![0u32; 8];
        let mut scratch = vec![0usize; 1];
        exec.for_each_band_with(&mut data, 1, &mut scratch, |_, _, _| ());
    }

    #[test]
    fn join_runs_both_jobs_and_keeps_argument_order() {
        for workers in [1usize, 2, 8] {
            let exec = Executor::from_workers(workers);
            let (a, b) = exec.join(|| 21 * 2, || "right".to_string());
            assert_eq!(a, 42, "workers={workers}");
            assert_eq!(b, "right", "workers={workers}");
        }
    }

    #[test]
    fn join_inside_a_dispatched_job_falls_back_inline() {
        // A join issued from inside a pool job must not deadlock: the pool's
        // re-entrant dispatch runs it inline.
        let exec = Executor::from_workers(4);
        let sums = exec.map_ranges(4, |_, r| {
            let (a, b) = exec.join(|| r.start + 1, || r.end + 1);
            a + b
        });
        assert_eq!(sums.len(), exec.num_ranges(4));
        // Four unit ranges i..i+1: Σ (start+1) + (end+1) = Σ (2i + 3) = 24.
        assert_eq!(sums.iter().sum::<usize>(), 24);
    }

    #[test]
    fn size_gate_demotes_small_problems_to_serial() {
        let exec = Executor::from_workers(8);
        assert!(exec.unless_smaller_than(100, 1000).is_serial());
        assert_eq!(exec.unless_smaller_than(1000, 1000).workers(), 8);
    }

    #[test]
    fn parallel_and_serial_band_writes_are_bit_identical() {
        // A float kernel whose per-row result depends only on the row: any
        // partition must reproduce the serial output bit for bit.
        let rows = 33;
        let stride = 17;
        let kernel = |rows: Range<usize>, band: &mut [f64]| {
            for (local, row) in rows.enumerate() {
                for j in 0..stride {
                    band[local * stride + j] =
                        ((row * 31 + j) as f64).sqrt().sin() / (row + 1) as f64;
                }
            }
        };
        let mut serial = vec![0.0; rows * stride];
        Executor::serial().for_each_band(&mut serial, stride, kernel);
        for workers in [2usize, 5, 16] {
            let mut par = vec![0.0; rows * stride];
            Executor::from_workers(workers).for_each_band(&mut par, stride, kernel);
            assert_eq!(serial, par, "workers={workers}");
        }
    }
}
