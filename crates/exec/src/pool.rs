//! Persistent worker pool for the scan's morsel-parallel section.
//!
//! Spawning a thread for each helper worker of each parallel section is
//! acceptable for one long analytical query, but a measurable fixed cost
//! for serving traffic made of many small queries. A [`WorkerPool`]
//! amortizes that cost: a fixed set of threads is spawned once, parks on a
//! condition variable while idle, and is woken whenever a parallel section
//! injects work.
//!
//! The unit of work is deliberately *mirrored*: [`WorkerPool::run_mirrored`]
//! enqueues `copies` executions of one `Fn() + Sync` task, runs the task once
//! on the calling thread, and blocks until every enqueued copy has finished.
//! Morsel kernels are cooperative claim loops over a shared atomic cursor, so
//! a mirrored copy that starts late (or never gets a free worker because the
//! pool is busy with another query) simply finds the cursor exhausted and
//! returns — correctness never depends on *when* or *whether* a helper copy
//! runs, only on the guarantee that no copy is still running once
//! `run_mirrored` returns. That guarantee is what makes it sound to hand the
//! pool borrowed, stack-allocated task state (see the safety notes below).
//!
//! Properties:
//!
//! * **Fixed threads.** `WorkerPool::new(n)` spawns exactly `n` workers;
//!   there is no growth or shrinking. `n = 0` is a valid pool that runs
//!   everything inline on the caller.
//! * **Park / unpark.** Idle workers block on a `Condvar`; injection notifies
//!   exactly as many workers as there are new copies.
//! * **Panic propagation.** A panicking task copy is caught on the worker
//!   (the worker thread survives and keeps serving), recorded, and re-thrown
//!   on the calling thread after the section completes — the same observable
//!   behavior as a kernel panicking inline.
//! * **Graceful, idempotent shutdown.** [`WorkerPool::shutdown`] stops
//!   accepting new work, lets workers drain everything already queued, and
//!   joins them. Calling it twice (or dropping the last handle after an
//!   explicit shutdown) is a no-op. Sections entered after shutdown degrade
//!   to inline execution on the caller — still correct, just serial.
//!
//! Cloning a [`WorkerPool`] is a cheap handle copy; all clones share the
//! queue and the workers, so one pool owned by an engine can serve every
//! session and every server dispatcher concurrently. The threads are joined
//! when the last handle drops (or at the first explicit `shutdown`).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One enqueued execution of a mirrored task.
///
/// The raw pointer erases the task's stack lifetime so it can cross into the
/// persistent workers. Safety rests on the completion latch: the submitting
/// `run_mirrored` call does not return — not even by unwinding — until every
/// copy has completed, so the pointee outlives every dereference.
struct Job {
    task: *const (dyn Fn() + Sync),
    state: Arc<JobState>,
}

// SAFETY: the task pointee is `Sync` (shared execution from several threads
// is its contract) and is kept alive by the submitter until `JobState`
// reports all copies complete, so sending the pointer to a worker thread is
// sound.
unsafe impl Send for Job {}

/// Completion latch shared by all copies of one mirrored task.
struct JobState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl JobState {
    fn new(copies: usize) -> Self {
        JobState {
            remaining: Mutex::new(copies),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Marks one copy complete, recording the first panic payload.
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(payload) = panic {
            #[expect(
                clippy::expect_used,
                reason = "lock poisoning on the slot that records worker panics; the original panic is already propagating"
            )]
            let mut slot = self.panic.lock().expect("pool job panic slot poisoned");
            slot.get_or_insert(payload);
        }
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning: the completion latch mutex guards two integers; poisoning implies a panic already in flight"
        )]
        let mut remaining = self.remaining.lock().expect("pool job latch poisoned");
        *remaining -= 1;
        if *remaining == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every copy has completed.
    #[expect(
        clippy::expect_used,
        reason = "lock poisoning: the completion latch mutex guards two integers; poisoning implies a panic already in flight"
    )]
    fn wait(&self) {
        let mut remaining = self.remaining.lock().expect("pool job latch poisoned");
        while *remaining > 0 {
            remaining = self.done.wait(remaining).expect("pool job latch poisoned");
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "lock poisoning on the slot that records worker panics; the original panic is already propagating"
    )]
    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic
            .lock()
            .expect("pool job panic slot poisoned")
            .take()
    }
}

/// Queue state shared between handles and workers.
struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here while the queue is empty.
    work_available: Condvar,
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning: a worker already panicked while holding pool state; continuing would hand out jobs from a broken queue"
        )]
        let job = {
            let mut state = shared.state.lock().expect("worker pool poisoned");
            loop {
                // Drain the queue before honoring shutdown: work injected
                // before the shutdown flag was raised always runs (its
                // submitter is blocked on the completion latch).
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .work_available
                    .wait(state)
                    .expect("worker pool poisoned");
            }
        };
        // SAFETY: see `Job` — the submitter keeps the task alive until this
        // copy's `complete` call below lands.
        let task = unsafe { &*job.task };
        let outcome = catch_unwind(AssertUnwindSafe(task));
        job.state.complete(outcome.err());
    }
}

/// Owner of the worker threads: joined at explicit [`WorkerPool::shutdown`]
/// or when the last pool handle drops.
struct PoolOwner {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Live worker count: the spawn count until shutdown, then 0.
    workers: AtomicUsize,
}

impl PoolOwner {
    fn shutdown(&self) {
        {
            #[expect(
                clippy::expect_used,
                reason = "lock poisoning: a worker already panicked while holding pool state; continuing would hand out jobs from a broken queue"
            )]
            let mut state = self.shared.state.lock().expect("worker pool poisoned");
            state.shutdown = true;
        }
        // ORDERING: Release pairs with the Acquire in `num_workers`: a
        // caller that reads 0 also sees the `shutdown = true` state written
        // above (the mutex already orders the workers themselves).
        self.workers.store(0, Ordering::Release);
        self.shared.work_available.notify_all();
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning: a worker already panicked while holding pool state; continuing would hand out jobs from a broken queue"
        )]
        let handles = std::mem::take(&mut *self.handles.lock().expect("worker pool poisoned"));
        for handle in handles {
            // Workers only exit their loop; task panics are caught inside it.
            #[expect(
                clippy::expect_used,
                reason = "deliberate panic propagation: pool drop re-raises a worker's panic instead of losing it"
            )]
            handle.join().expect("pool worker thread panicked");
        }
    }
}

impl Drop for PoolOwner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A persistent, shareable pool of parked worker threads executing mirrored
/// work-stealing tasks.
#[derive(Clone)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    owner: Arc<PoolOwner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.num_workers())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of exactly `num_workers` persistent threads (0 is valid:
    /// every section then runs inline on its calling thread).
    pub fn new(num_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
        });
        #[expect(
            clippy::expect_used,
            reason = "startup-only: thread spawn failure at pool construction is unrecoverable resource exhaustion"
        )]
        let handles = (0..num_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bqo-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool {
            owner: Arc::new(PoolOwner {
                shared: Arc::clone(&shared),
                handles: Mutex::new(handles),
                workers: AtomicUsize::new(num_workers),
            }),
            shared,
        }
    }

    /// Number of live pool workers (0 after [`WorkerPool::shutdown`]).
    pub fn num_workers(&self) -> usize {
        // ORDERING: Acquire pairs with the Release store in `shutdown`.
        self.owner.workers.load(Ordering::Acquire)
    }

    /// Stops accepting new work, drains everything already queued, and joins
    /// the worker threads. Idempotent: repeated calls (and the implicit call
    /// when the last handle drops) are no-ops. Sections entered afterwards
    /// run inline on their calling thread.
    pub fn shutdown(&self) {
        self.owner.shutdown();
    }

    /// Enqueues `copies` executions of `task` on the pool workers, runs the
    /// task once more on the calling thread, and blocks until every enqueued
    /// copy has finished. The first panic from any copy (helpers or the
    /// caller's own) is re-thrown on the calling thread.
    ///
    /// `task` must be a *mirrored* work-stealing loop: running it fewer times
    /// than requested (a busy or shut-down pool) must not affect the result,
    /// only the achieved parallelism. Copies are capped at the worker count.
    pub fn run_mirrored(&self, copies: usize, task: &(dyn Fn() + Sync)) {
        let copies = copies.min(self.num_workers());
        let state = if copies == 0 {
            None
        } else {
            let state = Arc::new(JobState::new(copies));
            // SAFETY: erases the task's stack lifetime so the pointer can be
            // stored in the queue. The pointee outlives every dereference
            // because this function blocks (even during unwinding, via the
            // guard below) until all copies have completed.
            let task: *const (dyn Fn() + Sync) = unsafe {
                std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(task)
            };
            #[expect(
                clippy::expect_used,
                reason = "lock poisoning: a worker already panicked while holding pool state; continuing would hand out jobs from a broken queue"
            )]
            let mut pool_state = self.shared.state.lock().expect("worker pool poisoned");
            if pool_state.shutdown {
                None
            } else {
                for _ in 0..copies {
                    pool_state.queue.push_back(Job {
                        task,
                        state: Arc::clone(&state),
                    });
                }
                drop(pool_state);
                if copies == 1 {
                    self.shared.work_available.notify_one();
                } else {
                    self.shared.work_available.notify_all();
                }
                Some(state)
            }
        };

        let Some(state) = state else {
            // No helpers available (empty or shut-down pool): run the single
            // caller copy; mirrored tasks are complete on their own.
            task();
            return;
        };

        // Even if the caller's own copy panics we must not unwind past the
        // borrowed task state while helper copies may still be running: the
        // guard blocks on the latch during unwinding too. Before waiting it
        // *withdraws* every copy no worker has started yet — once the
        // caller's own claim loop has finished, queued copies have nothing
        // left to steal, and on a busy pool they may sit behind *other*
        // sections' jobs; waiting for those would stretch a small query's
        // latency to its neighbors' runtime. (Mirrored tasks are pure
        // helpers, so not running them is always correct.)
        struct WaitGuard<'a> {
            shared: &'a PoolShared,
            state: &'a Arc<JobState>,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                let withdrawn = {
                    #[expect(
                        clippy::expect_used,
                        reason = "lock poisoning: a worker already panicked while holding pool state; continuing would hand out jobs from a broken queue"
                    )]
                    let mut pool_state = self.shared.state.lock().expect("worker pool poisoned");
                    let before = pool_state.queue.len();
                    pool_state
                        .queue
                        .retain(|job| !Arc::ptr_eq(&job.state, self.state));
                    before - pool_state.queue.len()
                };
                for _ in 0..withdrawn {
                    self.state.complete(None);
                }
                self.state.wait();
            }
        }
        let guard = WaitGuard {
            shared: &self.shared,
            state: &state,
        };
        task();
        drop(guard);
        if let Some(payload) = state.take_panic() {
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn mirrored_copies_share_the_work() {
        let pool = WorkerPool::new(3);
        let cursor = AtomicUsize::new(0);
        let sum = AtomicU64::new(0);
        pool.run_mirrored(3, &|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= 1000 {
                break;
            }
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn copies_beyond_the_worker_count_are_capped() {
        let pool = WorkerPool::new(1);
        let runs = AtomicUsize::new(0);
        pool.run_mirrored(64, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        // At most one helper copy (worker-count cap) + the caller's own; the
        // helper copy may be withdrawn if the caller finishes first.
        let runs = runs.load(Ordering::Relaxed);
        assert!((1..=2).contains(&runs), "{runs}");
    }

    #[test]
    fn empty_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let runs = AtomicUsize::new(0);
        pool.run_mirrored(4, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        assert_eq!(pool.num_workers(), 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_degrades_to_inline() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.num_workers(), 2);
        pool.shutdown();
        pool.shutdown();
        assert_eq!(pool.num_workers(), 0);
        let runs = AtomicUsize::new(0);
        pool.run_mirrored(2, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        // Dropping the handle after an explicit shutdown is also a no-op.
        drop(pool);
    }

    #[test]
    fn clones_share_workers_and_shutdown() {
        let pool = WorkerPool::new(2);
        let clone = pool.clone();
        assert_eq!(clone.num_workers(), 2);
        pool.shutdown();
        assert_eq!(clone.num_workers(), 0);
    }

    #[test]
    fn helper_panic_propagates_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let turn = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_mirrored(2, &|| {
                if turn.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("mirrored copy exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(message.contains("exploded"), "{message}");
        // The worker that caught the panic is still alive and serving.
        assert_eq!(pool.num_workers(), 2);
        let runs = AtomicUsize::new(0);
        pool.run_mirrored(2, &|| {
            runs.fetch_add(1, Ordering::Relaxed);
        });
        let runs = runs.load(Ordering::Relaxed);
        assert!((1..=3).contains(&runs), "{runs}");
    }

    #[test]
    fn finished_callers_withdraw_their_queued_copies() {
        // Occupy the pool's only worker with a gated section, then run a
        // second section: its helper copy queues behind the gate, the caller
        // finishes its own claim loop, and run_mirrored must return by
        // withdrawing the queued copy instead of waiting out the gate (this
        // test deadlocks otherwise — the gate only opens afterwards).
        let pool = WorkerPool::new(1);
        let entered = AtomicUsize::new(0);
        let release = AtomicUsize::new(0);
        let runs = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run_mirrored(1, &|| {
                    entered.fetch_add(1, Ordering::Relaxed);
                    while release.load(Ordering::Relaxed) == 0 {
                        std::thread::yield_now();
                    }
                });
            });
            // Wait until both gated copies (worker + its caller) are inside,
            // so the worker is provably busy.
            while entered.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            pool.run_mirrored(1, &|| {
                runs.fetch_add(1, Ordering::Relaxed);
            });
            // Only the caller's copy ran; the queued helper copy was
            // withdrawn, and we got here while the gate is still closed.
            assert_eq!(runs.load(Ordering::Relaxed), 1);
            release.store(1, Ordering::Relaxed);
        });
    }

    #[test]
    fn concurrent_sections_share_one_pool() {
        let pool = WorkerPool::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = pool.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let cursor = AtomicUsize::new(0);
                        let sum = AtomicU64::new(0);
                        pool.run_mirrored(3, &|| loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= 100 {
                                break;
                            }
                            sum.fetch_add(i as u64, Ordering::Relaxed);
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
                    }
                });
            }
        });
    }
}
