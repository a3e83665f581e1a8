//! A persistent fork-join worker pool for the in-check parallel phases.
//!
//! The [`crate::explorer::Explorer`] used to spawn scoped worker threads for
//! every wide BFS level — cheap for a handful of deep levels, but a real tax
//! on searches with hundreds of wide levels and on sweeps running thousands
//! of sub-millisecond checks.  [`WorkerPool`] amortises that cost: the
//! threads are spawned once (per check, or once per sweep worker and shared
//! across all the grid cells it processes) and every parallel phase is a
//! *batch* of closures pushed onto the pool's queue.
//!
//! # Design
//!
//! * A pool of `threads` total lanes spawns `threads - 1` OS threads; the
//!   **calling thread always participates** in draining the batch queue, so
//!   a 1-thread pool spawns nothing and runs batches inline — the
//!   sequential path pays no synchronisation at all.
//! * [`WorkerPool::run`] accepts borrowing closures (the explorer's tasks
//!   capture `&RowEngine`, `&StateStore` and `&mut` scratch buffers) and
//!   **joins the whole batch before returning**, which is what makes the
//!   internal lifetime erasure sound: no task can outlive the borrows it
//!   captured.
//! * A panicking task is caught, the batch is still drained to completion,
//!   and the panic is re-raised on the calling thread once the batch is
//!   done — the pool itself stays usable and its queue empty.
//!
//! The pool is deliberately *not* a work-stealing scheduler: it hands out a
//! small number of batch tasks (one lane loop for the expand phase, one per
//! store shard for the intern phase), so a single locked queue drained by
//! all lanes is both simpler and fast enough — the queue is touched a few
//! times per *wave*, not per state.  Work stealing *within* the expand
//! phase lives in the explorer instead: each lane task claims wave chunks
//! through an atomic cursor, so skewed chunk costs balance without the pool
//! needing per-task queues.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};
use std::thread::JoinHandle;

thread_local! {
    /// Backtrace captured by the chained panic hook for the most recent
    /// panic on this thread; consumed by [`take_thread_backtrace`].
    static LAST_BACKTRACE: Cell<Option<String>> = const { Cell::new(None) };
}

static HOOK_INSTALLED: Once = Once::new();

/// Chains a panic hook (once per process) that snapshots the panicking
/// lane's backtrace into a thread-local, so a caught worker panic can be
/// reported with the backtrace of the lane that actually failed.
fn install_panic_hook() {
    HOOK_INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            LAST_BACKTRACE.with(|slot| {
                slot.set(Some(std::backtrace::Backtrace::force_capture().to_string()))
            });
            previous(info);
        }));
    });
}

/// Takes the backtrace of the most recent panic *on the calling thread*
/// (for panics that unwound through the pool's inline fast path, where no
/// lane handed the backtrace to the pool state).
pub(crate) fn take_thread_backtrace() -> Option<String> {
    LAST_BACKTRACE.with(|slot| slot.take())
}

/// A type-erased batch task.  The `'static` is a lie maintained by
/// [`WorkerPool::run`], which joins every task before the borrows it
/// captured can expire.
type Task = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct PoolState {
    /// Tasks of the in-flight batch that no lane has picked up yet.
    queue: VecDeque<Task>,
    /// Tasks of the in-flight batch that have not finished yet (queued or
    /// currently running on some lane).
    pending: usize,
    /// The payload of the first task of the current batch that panicked,
    /// re-raised on the batch owner so the original diagnostic survives.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// The panicking lane's backtrace, captured alongside `panic` and held
    /// for [`WorkerPool::take_panic_backtrace`].
    backtrace: Option<String>,
    /// Set by `Drop`; workers exit once the queue is empty.
    shutdown: bool,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

#[derive(Default)]
struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when tasks are queued (or on shutdown).
    work_ready: Condvar,
    /// Signalled when the last pending task of a batch finishes.
    batch_done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // a panicked task is recorded and re-raised deliberately; don't let
        // mutex poisoning turn it into an unrelated unwrap failure
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs one task, recording a panic instead of unwinding, and wakes the
    /// batch owner when the batch completes.
    fn finish_one(&self, task: Task) {
        let result = catch_unwind(AssertUnwindSafe(task));
        let backtrace = if result.is_err() {
            take_thread_backtrace()
        } else {
            None
        };
        let mut state = self.lock();
        if let Err(payload) = result {
            if state.panic.is_none() {
                state.panic = Some(payload);
                state.backtrace = backtrace;
            }
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.batch_done.notify_all();
        }
    }
}

/// A persistent fork-join pool of `threads` lanes (see the module docs).
///
/// Created once per check by [`crate::ExplicitChecker`] — or once per sweep
/// worker by [`crate::check_over_sweep_with_stats`], which reuses it across
/// every grid cell of the runs the worker takes — and dropped (joining its
/// threads) with its owner.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Spawned lazily by the first multi-task batch: a pool that only ever
    /// serves sequential explorations (or none at all — most checks of a
    /// narrow system never reach the parallel threshold) costs nothing.
    handles: OnceLock<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl WorkerPool {
    /// A pool with `threads` total lanes (clamped to at least 1).  The
    /// calling thread is one of the lanes, so at most `threads - 1` OS
    /// threads serve the pool — and they are spawned only when the first
    /// real batch arrives, so a pool that never runs a parallel phase (a
    /// 1-lane pool, or a checker whose frontiers stay narrow) spawns
    /// nothing.
    pub fn new(threads: usize) -> Self {
        install_panic_hook();
        WorkerPool {
            shared: Arc::new(Shared::default()),
            handles: OnceLock::new(),
            threads: threads.max(1),
        }
    }

    fn spawned_handles(&self) -> &[JoinHandle<()>] {
        self.handles.get_or_init(|| {
            (1..self.threads)
                .map(|_| {
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || worker_loop(&shared))
                })
                .collect()
        })
    }

    /// Total number of lanes (including the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Takes the backtrace of the lane whose panic the last batch re-raised
    /// (if a batch panicked and no one consumed the backtrace yet).  Panics
    /// on the inline fast path never reach the pool state; see
    /// [`take_thread_backtrace`] for those.
    pub(crate) fn take_panic_backtrace(&self) -> Option<String> {
        self.shared.lock().backtrace.take()
    }

    /// Runs a batch of tasks across the pool's lanes and the calling
    /// thread, returning when *all* of them have completed.
    ///
    /// Tasks may borrow from the caller's scope: the join-before-return
    /// guarantee is what makes the internal lifetime erasure sound.  If any
    /// task panicked, the panic is re-raised here after the batch drained.
    pub(crate) fn run<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if self.threads == 1 || tasks.len() == 1 {
            // inline fast path: no queue round-trip, panics unwind directly
            for task in tasks {
                task();
            }
            return;
        }
        self.spawned_handles();
        let batch = tasks.len();
        {
            let mut state = self.shared.lock();
            state.pending += batch;
            for task in tasks {
                // SAFETY: this function does not return until `pending`
                // covering every task of this batch has reached zero, i.e.
                // until each task has run to completion (panics included,
                // via `finish_one`), so no task outlives `'scope`.
                let task: Task =
                    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(task) };
                state.queue.push_back(task);
            }
        }
        self.shared.work_ready.notify_all();

        // the calling thread is a lane too: drain the queue …
        loop {
            let task = self.shared.lock().queue.pop_front();
            match task {
                Some(task) => self.shared.finish_one(task),
                None => break,
            }
        }
        // … then wait for the stragglers running on the other lanes
        let mut state = self.shared.lock();
        while state.pending > 0 {
            state = self
                .shared
                .batch_done
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        if let Some(handles) = self.handles.take() {
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut state = shared.lock();
            loop {
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.finish_one(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut results = vec![0usize; 3];
        pool.run(
            results
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| boxed(move || *slot = i + 1))
                .collect(),
        );
        assert_eq!(results, vec![1, 2, 3]);
    }

    #[test]
    fn batches_join_before_returning() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        for round in 1..=20usize {
            pool.run(
                (0..8)
                    .map(|_| {
                        let counter = &counter;
                        boxed(move || {
                            counter.fetch_add(1, Ordering::Relaxed);
                        })
                    })
                    .collect(),
            );
            // every task of every batch completed by the time run() returned
            assert_eq!(counter.load(Ordering::Relaxed), round * 8);
        }
    }

    #[test]
    fn tasks_may_mutate_disjoint_borrows() {
        let pool = WorkerPool::new(3);
        let mut slots = [0u64; 16];
        pool.run(
            slots
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| boxed(move || *slot = (i as u64 + 1) * 10))
                .collect(),
        );
        assert!(slots
            .iter()
            .enumerate()
            .all(|(i, &v)| v == (i as u64 + 1) * 10));
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(
                (0..4)
                    .map(|i| boxed(move || assert!(i != 2, "boom at task {i}")))
                    .collect(),
            );
        }));
        // the original panic payload is re-raised, not a generic wrapper
        let payload = result.unwrap_err();
        let message = payload
            .downcast_ref::<String>()
            .expect("panic payload survives");
        assert!(message.contains("boom at task 2"), "{message}");
        // the queue drained and the pool is reusable
        let ok = AtomicUsize::new(0);
        pool.run(
            (0..4)
                .map(|_| {
                    let ok = &ok;
                    boxed(move || {
                        ok.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect(),
        );
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }
}
