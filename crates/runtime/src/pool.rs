//! The process-wide pool of parked worker threads behind [`crate::Executor`].
//!
//! A scoped-thread (`std::thread::scope`) implementation would be fully
//! safe, but spawning an OS thread costs tens of microseconds — more than an
//! entire `k = 64` gradient evaluation — so per-call spawning would erase
//! the wins a pooled E-step or pool tick exists to deliver. Instead the
//! pool keeps
//! its helper threads parked on a condvar between dispatches and hands them
//! a lifetime-erased pointer to the caller's job closure.
//!
//! # Safety model
//!
//! The single unsafe ingredient is erasing the lifetime of the job closure
//! so it can sit in the shared slot while helpers run it. Soundness rests on
//! one invariant: **`dispatch` never returns (or unwinds) while any helper
//! can still dereference the job pointer**. A drop guard waits for every
//! participating helper to check in before the closure's stack frame can
//! die, on both the normal and the panicking exit path. Panics inside the
//! job (on helpers or on the caller) are caught, the barrier is still
//! honored, and the panic is re-raised on the calling thread afterwards.
//!
//! Re-entrant dispatch (a pool job dispatching again) and concurrent
//! dispatch from a second thread fall back to inline serial execution, which
//! is always correct because jobs are required to produce identical results
//! under any task-to-thread assignment (the runtime's determinism
//! contract). The pool therefore never deadlocks on nesting and needs no
//! per-dispatch allocation.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Upper bound on helper threads the pool will ever spawn; requests beyond
/// it are strided over the existing helpers (results are unaffected).
const MAX_HELPERS: usize = 63;

/// A dispatched job: a lifetime-erased pointer to the caller's closure plus
/// the task-assignment geometry of this dispatch.
#[derive(Clone, Copy)]
struct Job {
    /// The job closure; valid until the dispatching thread observes
    /// `outstanding == 0` (enforced by [`DispatchGuard`]).
    ptr: *const (dyn Fn(usize) + Sync),
    /// Dispatch sequence number; helpers use it to run each job once.
    epoch: u64,
    /// Number of threads sharing the tasks (caller + participating helpers).
    participants: usize,
    /// Total number of independent tasks; participant `p` runs tasks
    /// `p, p + participants, p + 2·participants, …`.
    tasks: usize,
}

// SAFETY: the pointer is only dereferenced while the dispatching thread is
// blocked inside `dispatch` (see the drop-guard barrier), during which the
// pointee — a `Sync` closure — is alive and may be shared across threads.
unsafe impl Send for Job {}

struct State {
    job: Option<Job>,
    epoch: u64,
    /// Participating helpers that have not yet finished the current job.
    outstanding: usize,
    /// Payload of the first helper panic inside the current job, preserved
    /// so the dispatcher can re-raise the original assertion/message.
    panic_payload: Option<Box<dyn std::any::Any + Send>>,
    /// Helper threads spawned so far (their 1-based indices are `1..=helpers`).
    helpers: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Signals parked helpers that a new job (epoch) is available.
    work: Condvar,
    /// Signals the dispatcher that `outstanding` reached zero.
    done: Condvar,
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        state: Mutex::new(State {
            job: None,
            epoch: 0,
            outstanding: 0,
            panic_payload: None,
            helpers: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    })
}

/// Set while some thread is inside `dispatch`; a second (or re-entrant)
/// dispatch runs inline instead of touching the pool.
static DISPATCHING: AtomicBool = AtomicBool::new(false);

fn worker_loop(index: usize) {
    let shared = shared();
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("runtime pool poisoned");
            loop {
                match st.job {
                    Some(job) if job.epoch != last_epoch => break job,
                    _ => st = shared.work.wait(st).expect("runtime pool poisoned"),
                }
            }
        };
        last_epoch = job.epoch;
        if index >= job.participants {
            // Spurious wake-up of a helper beyond this dispatch's
            // participant count: it owes no work and no check-in.
            continue;
        }
        // SAFETY: the dispatcher blocks until this helper decrements
        // `outstanding` below, so the closure behind `ptr` is still alive.
        let f = unsafe { &*job.ptr };
        let timing = crate::telemetry::timing_enabled().then(std::time::Instant::now);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut task = index;
            while task < job.tasks {
                f(task);
                task += job.participants;
            }
        }));
        if let Some(start) = timing {
            crate::telemetry::add_busy_ns(start.elapsed().as_nanos() as u64);
        }
        let mut st = shared.state.lock().expect("runtime pool poisoned");
        if let Err(payload) = result {
            // Keep the first payload; later panics of the same job add
            // nothing the dispatcher could act on.
            st.panic_payload.get_or_insert(payload);
        }
        st.outstanding -= 1;
        if st.outstanding == 0 {
            shared.done.notify_all();
        }
    }
}

/// Blocks until every participating helper has checked in, then clears the
/// job slot and releases the dispatch flag — on unwind as well as on the
/// normal path, which is what keeps the lifetime erasure sound.
///
/// The helper-panic payload is captured into `saw_panic` *inside* the
/// barrier, before `DISPATCHING` is released: once the flag is released,
/// another thread's dispatch may reset the shared payload slot, so reading
/// it any later would race and could swallow the panic.
struct DispatchGuard<'a> {
    shared: &'static Shared,
    saw_panic: &'a Cell<Option<Box<dyn std::any::Any + Send>>>,
}

impl Drop for DispatchGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().expect("runtime pool poisoned");
        while st.outstanding > 0 {
            st = self.shared.done.wait(st).expect("runtime pool poisoned");
        }
        st.job = None;
        self.saw_panic.set(st.panic_payload.take());
        drop(st);
        DISPATCHING.store(false, Ordering::Release);
    }
}

/// Runs `f(task)` exactly once for every `task` in `0..tasks`, using the
/// calling thread plus up to `max_workers - 1` pool helpers.
///
/// Tasks must be independent and order-insensitive: the runtime guarantees
/// each task runs exactly once, but on no particular thread and in no
/// particular order relative to other tasks. A panic inside any task is
/// re-raised on the calling thread after all participants have stopped.
pub(crate) fn run_tasks(tasks: usize, max_workers: usize, f: &(dyn Fn(usize) + Sync)) {
    if tasks == 0 {
        return;
    }
    if tasks == 1 || max_workers <= 1 {
        for task in 0..tasks {
            f(task);
        }
        return;
    }
    if DISPATCHING.swap(true, Ordering::Acquire) {
        // Re-entrant or concurrent dispatch: the pool is already serving
        // another job, so run inline. Identical results by the determinism
        // contract; no deadlock possible.
        crate::telemetry::count_inline_fallback(tasks);
        for task in 0..tasks {
            f(task);
        }
        return;
    }

    let shared = shared();
    let participants;
    {
        let mut st = shared.state.lock().expect("runtime pool poisoned");
        let wanted_helpers = max_workers.min(tasks).min(MAX_HELPERS + 1) - 1;
        while st.helpers < wanted_helpers {
            let index = st.helpers + 1;
            let spawned = std::thread::Builder::new()
                .name(format!("dhmm-runtime-{index}"))
                .spawn(move || worker_loop(index));
            match spawned {
                Ok(_) => st.helpers += 1,
                // Thread exhaustion: proceed with what we have.
                Err(_) => break,
            }
        }
        participants = st.helpers.min(wanted_helpers) + 1;
        if participants == 1 {
            drop(st);
            DISPATCHING.store(false, Ordering::Release);
            crate::telemetry::count_inline_fallback(tasks);
            for task in 0..tasks {
                f(task);
            }
            return;
        }
        crate::telemetry::count_dispatch(tasks);
        st.epoch += 1;
        st.outstanding = participants - 1;
        st.panic_payload = None;
        // SAFETY: lifetime erasure; see the module-level safety model. The
        // guard below keeps this frame alive until `outstanding == 0`.
        let ptr = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
                as *const (dyn Fn(usize) + Sync)
        };
        st.job = Some(Job {
            ptr,
            epoch: st.epoch,
            participants,
            tasks,
        });
        shared.work.notify_all();
    }

    let saw_panic: Cell<Option<Box<dyn std::any::Any + Send>>> = Cell::new(None);
    let guard = DispatchGuard {
        shared,
        saw_panic: &saw_panic,
    };
    // The caller is participant 0; its panic (if any) unwinds through the
    // guard, which still waits for the helpers before the frame dies.
    let timing = crate::telemetry::timing_enabled().then(std::time::Instant::now);
    let mut task = 0;
    while task < tasks {
        f(task);
        task += participants;
    }
    if let Some(start) = timing {
        crate::telemetry::add_busy_ns(start.elapsed().as_nanos() as u64);
    }
    drop(guard);

    if let Some(payload) = saw_panic.take() {
        // Re-raise the helper's original panic (assertion text, location
        // payload) on the dispatching thread.
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn every_task_runs_exactly_once() {
        for &(tasks, workers) in &[(1usize, 4usize), (7, 2), (16, 4), (5, 16), (64, 3)] {
            let counts: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            run_tasks(tasks, workers, &|t| {
                counts[t].fetch_add(1, Ordering::Relaxed);
            });
            for (t, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "task {t} ({tasks}/{workers})");
            }
        }
    }

    #[test]
    fn reentrant_dispatch_falls_back_to_inline_execution() {
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        run_tasks(4, 4, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            run_tasks(3, 4, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 4);
        assert_eq!(inner.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn telemetry_counters_advance_on_dispatch() {
        use crate::telemetry;
        let before = telemetry::dispatch_total() + telemetry::inline_fallback_total();
        let tasks_before = telemetry::tasks_total();
        run_tasks(8, 4, &|_| {});
        // `>=`: other tests dispatch concurrently; this one contributes one
        // dispatch (pooled or inline-fallback — helper spawning can fail)
        // and eight tasks.
        assert!(telemetry::dispatch_total() + telemetry::inline_fallback_total() > before);
        assert!(telemetry::tasks_total() >= tasks_before + 8);
    }

    #[test]
    fn worker_panic_propagates_to_the_dispatcher() {
        let result = std::panic::catch_unwind(|| {
            run_tasks(8, 4, &|t| {
                if t == 5 {
                    panic!("boom");
                }
            });
        });
        assert!(result.is_err());
        // The pool stays usable after a panicking job.
        let ran = AtomicUsize::new(0);
        run_tasks(6, 4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 6);
    }
}
