//! Morsel-driven parallel scheduling.
//!
//! The scan splits its table's rows into **morsels** (Leis et al.,
//! "Morsel-Driven Parallelism", adapted to this pipeline's batch seam) — one
//! batch of an in-memory table, one chunk of a fetched one — and dispatches
//! them to worker threads. This is the executor's one parallel section:
//! `ScanOp::open` is the one caller of `ExecContext::run_morsels`, and a hash
//! join builds, probes and filters on the thread that pulls its batch. The
//! calling thread participates as worker 0, and a section never runs more
//! workers than it has morsels, so a one-morsel scan runs inline. Helpers
//! are the parked threads of a persistent [`WorkerPool`]
//! ([`run_morsels_with`]); without a pool — or with a 0-worker or shut-down
//! one — the section runs inline on the calling thread. Three properties
//! make the parallel path bit-identical to the serial one:
//!
//! 1. **Shared-state-free kernels.** A kernel only reads shared immutable
//!    state (columns, published bitvector filters) and returns an owned
//!    per-morsel result; the only counters it writes are the scan's chunk
//!    tallies, which are order-independent sums.
//! 2. **Deterministic merge.** Workers claim morsels from an atomic cursor in
//!    any order, but results are placed into a slot per morsel and merged *in
//!    morsel order* — so concatenated rows and summed counters are identical
//!    no matter how the OS schedules the workers.
//! 3. **Contiguous range partitioning.** Morsels are contiguous row ranges,
//!    so the concatenation of per-morsel outputs equals the output of one
//!    serial left-to-right pass.
//!
//! With `num_threads <= 1` (the default) everything runs inline on the
//! calling thread — no pool, no atomics: exactly the pre-parallel serial
//! path.

use crate::cancel::CancelToken;
use crate::pool::WorkerPool;
use bqo_storage::StorageError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// A contiguous range of rows `[start, end)` claimed as one unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Position of this morsel in the morsel sequence (the merge key).
    pub index: usize,
    /// First row of the range (inclusive).
    pub start: usize,
    /// One past the last row of the range (exclusive).
    pub end: usize,
}

impl Morsel {
    /// Number of rows in the morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the morsel covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The rows of the morsel.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Splits `num_rows` rows into morsels of at most `morsel_size` rows.
/// `morsel_size` is clamped to at least 1; `usize::MAX` yields a single
/// morsel. Zero rows yield no morsels.
pub fn morsels(num_rows: usize, morsel_size: usize) -> Vec<Morsel> {
    let size = morsel_size.max(1);
    let mut out = Vec::new();
    let mut start = 0;
    while start < num_rows {
        let end = num_rows.min(start.saturating_add(size));
        out.push(Morsel {
            index: out.len(),
            start,
            end,
        });
        start = end;
    }
    out
}

/// Runs `kernel` over every morsel using up to `num_threads` workers and
/// returns the per-morsel results **in morsel order**, or the first failure.
///
/// Workers claim morsels from a shared atomic cursor (work stealing over a
/// contiguous range); results are slotted by morsel index, so the returned
/// vector is independent of scheduling. The calling thread is worker 0 and
/// the helpers are `pool`'s parked threads — the per-section fixed cost is a
/// queue push + unpark, never a thread spawn. With one worker, one morsel,
/// no pool, or a pool without live workers (0-worker or shut down) the
/// kernels run inline on the calling thread, in morsel order.
///
/// One stop rule covers every failure: a kernel's `Err` and a fired `cancel`
/// token (re-checked before every claim) both stop all claim loops at their
/// next claim. Claims form a prefix in cursor order and a claimed morsel
/// always runs, so the error is the lowest-index failed morsel's, or
/// `StorageError::Cancelled` if the token alone cut the section short; a
/// token fired after the last claim is seen by the *next* check point.
///
/// # Panics
/// Propagates kernel panics to the caller.
pub fn run_morsels_with<T, K>(
    pool: Option<&WorkerPool>,
    cancel: Option<&CancelToken>,
    num_threads: usize,
    morsels: &[Morsel],
    kernel: K,
) -> Result<Vec<T>, StorageError>
where
    T: Send,
    K: Fn(&Morsel) -> Result<T, StorageError> + Sync,
{
    let workers = num_threads.max(1).min(morsels.len());
    if let Some(pool) = pool.filter(|pool| workers > 1 && pool.num_workers() > 0) {
        return run_morsels_pooled(pool, cancel, workers, morsels, kernel);
    }
    let mut out = Vec::with_capacity(morsels.len());
    for morsel in morsels {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(StorageError::Cancelled);
        }
        out.push(kernel(morsel)?);
    }
    Ok(out)
}

/// Pool-backed parallel section: the claim loop runs once on the caller and
/// is mirrored onto up to `workers - 1` pool workers.
fn run_morsels_pooled<T, K>(
    pool: &WorkerPool,
    cancel: Option<&CancelToken>,
    workers: usize,
    morsels: &[Morsel],
    kernel: K,
) -> Result<Vec<T>, StorageError>
where
    T: Send,
    K: Fn(&Morsel) -> Result<T, StorageError> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let produced = Mutex::new(Vec::with_capacity(morsels.len()));
    let claim_all = || {
        let mut local = Vec::new();
        // ORDERING: Relaxed — the stop flag guards no data; the failed
        // result is published via the section's join/latch.
        while !failed.load(Ordering::Relaxed) && !cancel.is_some_and(CancelToken::is_cancelled) {
            // ORDERING: Relaxed — the counter only allocates a unique
            // morsel index; the produced results are published via the
            // section's join/latch, which supplies the happens-before edge.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(morsel) = morsels.get(i) else {
                break;
            };
            let result = kernel(morsel);
            if result.is_err() {
                // ORDERING: Relaxed — as for the load above.
                failed.store(true, Ordering::Relaxed);
            }
            local.push((i, result));
        }
        if !local.is_empty() {
            #[expect(
                clippy::expect_used,
                reason = "lock poisoning: a worker panicked mid-append; partial results must not be returned as complete"
            )]
            produced
                .lock()
                .expect("morsel result sink poisoned")
                .extend(local);
        }
    };
    pool.run_mirrored(workers - 1, &claim_all);

    // Deterministic merge: results are slotted by morsel index, so scheduling
    // is invisible. The claimed slots form a prefix, so the first failure in
    // morsel order precedes any slot a fired token left empty.
    let mut slots: Vec<Option<Result<T, StorageError>>> = Vec::with_capacity(morsels.len());
    slots.resize_with(morsels.len(), || None);
    #[expect(
        clippy::expect_used,
        reason = "lock poisoning: a worker panicked mid-append; partial results must not be returned as complete"
    )]
    for (i, result) in produced.into_inner().expect("morsel result sink poisoned") {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or(Err(StorageError::Cancelled)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_the_range_without_overlap() {
        for (num_rows, size) in [(0, 4), (1, 4), (10, 4), (12, 4), (5, 1), (7, usize::MAX)] {
            let ms = morsels(num_rows, size);
            let mut covered = 0;
            for (i, m) in ms.iter().enumerate() {
                assert_eq!(m.index, i);
                assert_eq!(m.start, covered);
                assert!(m.len() <= size);
                assert!(!m.is_empty());
                covered = m.end;
            }
            assert_eq!(covered, num_rows);
        }
        assert!(morsels(0, 8).is_empty());
        assert_eq!(morsels(7, usize::MAX).len(), 1);
    }

    #[test]
    fn zero_morsel_size_is_clamped_to_one() {
        let ms = morsels(3, 0);
        assert_eq!(ms.len(), 3);
        assert!(ms.iter().all(|m| m.len() == 1));
    }

    /// Runs an uncancellable section of an infallible kernel over `pool`.
    fn run<T: Send>(
        pool: Option<&WorkerPool>,
        threads: usize,
        ms: &[Morsel],
        kernel: impl Fn(&Morsel) -> T + Sync,
    ) -> Vec<T> {
        run_morsels_with(pool, None, threads, ms, |m| Ok(kernel(m))).expect("nothing fails")
    }

    #[test]
    fn sections_are_in_morsel_order_for_any_thread_count() {
        let pool = WorkerPool::new(3);
        let ms = morsels(1000, 7);
        let serial = run(None, 1, &ms, |m| m.rows().sum::<usize>());
        for threads in [2, 3, 4, 8] {
            let pooled = run(Some(&pool), threads, &ms, |m| m.rows().sum::<usize>());
            assert_eq!(serial, pooled, "threads {threads}");
        }
        // Repeated sections reuse the same parked workers.
        for _ in 0..10 {
            assert_eq!(
                run(Some(&pool), 4, &ms, |m| m.rows().sum::<usize>()),
                serial
            );
        }
    }

    #[test]
    fn sections_handle_empty_and_single() {
        let pool = WorkerPool::new(3);
        assert!(run(Some(&pool), 4, &[], |m| m.len()).is_empty());
        let one = morsels(5, usize::MAX);
        assert_eq!(run(Some(&pool), 4, &one, |m| m.len()), vec![5]);
    }

    #[test]
    fn no_pool_or_a_dead_pool_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let ms = morsels(100, 3);
        let serial = run(None, 1, &ms, |m| m.len());
        let empty = WorkerPool::new(0);
        let shut_down = WorkerPool::new(2);
        shut_down.shutdown();
        for pool in [None, Some(&empty), Some(&shut_down)] {
            let out = run(pool, 4, &ms, |m| {
                assert_eq!(std::thread::current().id(), caller);
                m.len()
            });
            assert_eq!(out, serial);
        }
    }

    #[test]
    #[should_panic(expected = "pooled kernel exploded")]
    fn pooled_worker_panics_propagate() {
        let pool = WorkerPool::new(3);
        let ms = morsels(64, 1);
        run(Some(&pool), 4, &ms, |m| {
            if m.index == 33 {
                panic!("pooled kernel exploded");
            }
            m.len()
        });
    }

    #[test]
    fn a_pre_fired_token_interrupts_before_any_kernel_runs() {
        let pool = WorkerPool::new(3);
        let token = CancelToken::new();
        token.cancel();
        let ms = morsels(100, 3);
        for (pool, threads) in [(None, 1usize), (Some(&pool), 4)] {
            let result = run_morsels_with(pool, Some(&token), threads, &ms, |m| Ok(m.len()));
            assert_eq!(result, Err(StorageError::Cancelled), "threads {threads}");
        }
    }

    #[test]
    fn a_token_fired_mid_section_stops_the_remaining_claims() {
        // The kernel fires the token itself on morsel 10: both paths (inline,
        // pooled) must stop claiming within one morsel and report the
        // interruption instead of fabricating a full result set.
        let pool = WorkerPool::new(3);
        let ms = morsels(10_000, 1);
        for (label, pool) in [("inline", None), ("pooled", Some(&pool))] {
            let token = CancelToken::new();
            let ran = AtomicUsize::new(0);
            let result = run_morsels_with(pool, Some(&token), 4, &ms, |m| {
                ran.fetch_add(1, Ordering::Relaxed);
                if m.index == 10 {
                    token.cancel();
                }
                Ok(m.len())
            });
            assert_eq!(result, Err(StorageError::Cancelled), "{label}");
            assert!(
                ran.load(Ordering::Relaxed) < ms.len(),
                "{label}: cancellation should leave morsels unclaimed"
            );
        }
    }

    #[test]
    fn an_unfired_token_changes_nothing() {
        let pool = WorkerPool::new(3);
        let token = CancelToken::new();
        let ms = morsels(1000, 7);
        let serial = run(None, 1, &ms, |m| m.rows().sum::<usize>());
        for threads in [1, 2, 4] {
            let result = run_morsels_with(Some(&pool), Some(&token), threads, &ms, |m| {
                Ok(m.rows().sum::<usize>())
            });
            assert_eq!(result.unwrap(), serial, "threads {threads}");
        }
    }

    /// A kernel that fails at morsel `k` (and, with `also`, at a later
    /// one), counting the morsels it ran.
    fn failing_at(
        k: usize,
        also: Option<usize>,
        ran: &AtomicUsize,
    ) -> impl Fn(&Morsel) -> Result<usize, StorageError> + Sync + '_ {
        move |m| {
            ran.fetch_add(1, Ordering::Relaxed);
            if m.index == k || Some(m.index) == also {
                return Err(StorageError::InvalidArgument(format!("morsel {}", m.index)));
            }
            Ok(m.len())
        }
    }

    #[test]
    fn a_failed_kernel_stops_the_serial_section_at_its_morsel() {
        let ms = morsels(100, 1);
        for k in [0, 1, 57, 99] {
            let ran = AtomicUsize::new(0);
            let result = run_morsels_with(None, None, 1, &ms, failing_at(k, None, &ran));
            let want = StorageError::InvalidArgument(format!("morsel {k}"));
            assert_eq!(result, Err(want), "k {k}");
            assert_eq!(
                ran.load(Ordering::Relaxed),
                k + 1,
                "no morsel after {k} runs"
            );
        }
    }

    #[test]
    fn a_pooled_section_returns_the_lowest_failed_morsels_error() {
        let pool = WorkerPool::new(3);
        let ms = morsels(400, 1);
        for workers in 1..=4 {
            for k in [0, 3, 150, 398] {
                let ran = AtomicUsize::new(0);
                let kernel = failing_at(k, Some(k + 1), &ran);
                let result = run_morsels_with(Some(&pool), None, workers, &ms, kernel);
                let want = StorageError::InvalidArgument(format!("morsel {k}"));
                assert_eq!(result, Err(want), "workers {workers}, k {k}");
                // Every morsel up to `k` was claimed, so every one ran.
                let ran = ran.load(Ordering::Relaxed);
                assert!(ran > k, "workers {workers}, k {k}: {ran} ran");
            }
        }
    }

    /// Morsel 0 fails at once and every other morsel takes a millisecond, so
    /// the pooled workers stop after about one morsel each; were the failure
    /// not to stop the other claim loops, all 400 would run.
    #[test]
    fn a_pooled_failure_stops_the_other_claim_loops() {
        let pool = WorkerPool::new(3);
        let ms = morsels(400, 1);
        for workers in 2..=4 {
            let ran = AtomicUsize::new(0);
            let fail_first = failing_at(0, None, &ran);
            let result = run_morsels_with(Some(&pool), None, workers, &ms, |m| {
                if m.index > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                fail_first(m)
            });
            let want = StorageError::InvalidArgument("morsel 0".to_string());
            assert_eq!(result, Err(want), "workers {workers}");
            let ran = ran.load(Ordering::Relaxed);
            assert!(ran <= 64, "workers {workers}: {ran} of 400 morsels ran");
        }
    }
}
