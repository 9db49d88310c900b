//! The server's scheduling and accounting state machine.
//!
//! A [`Scheduler`] is single-threaded and reads no clock: it owns the pending
//! queue, the accepting/paused flags, the concurrency bound and every counter
//! and latency histogram, per tenant and in total, as plain integers, and
//! each transition takes `now` and returns what the caller must resolve. The
//! server keeps one behind one mutex (see [`super`]); the tests below drive
//! it on the test thread with a hand-advanced clock and `()` or index
//! payloads.
//!
//! [`Scheduler::dispatch`] is the one way into the running set, for a
//! dispatcher thread and for a client waiting on its own request alike, and
//! it refuses while `max_running` requests run: the bound holds whichever
//! threads execute the requests.
//!
//! The ledger is exact by construction. A request is booked once at
//! admission and once more by the one transition that takes it out of the
//! queue or the running set — [`Scheduler::cancel_queued`],
//! [`Scheduler::expire_queued`], the deadline sweep of
//! [`Scheduler::dispatch`] or [`Scheduler::finish`] — so for the server and
//! for every tenant `admitted = completed + cancelled + deadline_expired +
//! failed + panicked + queued + running`, and a payload is handed back for
//! resolution at most once. A rejection is booked to its named tenant too,
//! so every field of a tenant's ledger means what the server's does.

use super::{LatencyStats, ServerStats, SubmitError};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// How an admitted request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) enum Outcome {
    Completed,
    Cancelled,
    DeadlineExpired,
    Failed,
    Panicked,
}

/// One thing that happened to a request, as [`Counters::apply`] books it.
enum Event {
    Admitted,
    Rejected,
    Dispatched {
        queue_wait: Duration,
    },
    /// Left the queue without running (cancelled or expired).
    Dropped(Outcome),
    /// Left the running set.
    Finished {
        outcome: Outcome,
        run_time: Duration,
        total_wall: Duration,
    },
}

/// The ledger kept for the server and, separately, for every named tenant.
#[derive(Debug, Clone, Default)]
struct Counters {
    admitted: u64,
    completed: u64,
    rejected: u64,
    cancelled: u64,
    deadline_expired: u64,
    failed: u64,
    panicked: u64,
    queued: usize,
    running: usize,
    /// Submit-to-completion wall time over completed requests.
    total_wall: Duration,
    queue_wait: LatencyHistogram,
    run_time: LatencyHistogram,
}

impl Counters {
    fn apply(&mut self, event: &Event) {
        match *event {
            Event::Admitted => {
                self.admitted += 1;
                self.queued += 1;
            }
            Event::Rejected => self.rejected += 1,
            Event::Dispatched { queue_wait } => {
                self.queued -= 1;
                self.running += 1;
                self.queue_wait.record(queue_wait);
            }
            Event::Dropped(outcome) => {
                self.queued -= 1;
                self.count(outcome);
            }
            Event::Finished {
                outcome,
                run_time,
                total_wall,
            } => {
                self.running -= 1;
                self.count(outcome);
                if outcome == Outcome::Completed {
                    self.run_time.record(run_time);
                    self.total_wall = self.total_wall.saturating_add(total_wall);
                }
            }
        }
    }

    /// The ledger as the public snapshot.
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            admitted: self.admitted,
            completed: self.completed,
            rejected: self.rejected,
            cancelled: self.cancelled,
            deadline_expired: self.deadline_expired,
            failed: self.failed,
            panicked: self.panicked,
            queue_depth: self.queued,
            running: self.running,
            total_wall: self.total_wall,
            queue_wait: self.queue_wait.snapshot(),
            run_time: self.run_time.snapshot(),
        }
    }

    fn count(&mut self, outcome: Outcome) {
        *match outcome {
            Outcome::Completed => &mut self.completed,
            Outcome::Cancelled => &mut self.cancelled,
            Outcome::DeadlineExpired => &mut self.deadline_expired,
            Outcome::Failed => &mut self.failed,
            Outcome::Panicked => &mut self.panicked,
        } += 1;
    }
}

/// Fixed power-of-two-microsecond latency buckets; `snapshot` derives
/// approximate p50/p95/p99 (each reported as its bucket's upper bound).
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct LatencyHistogram {
    /// `buckets[b]` counts samples with `2^(b-1) <= micros < 2^b`
    /// (bucket 0: sub-microsecond; the last bucket is the overflow).
    buckets: [u64; LatencyHistogram::BUCKETS],
    total_nanos: u64,
    max_nanos: u64,
}

impl LatencyHistogram {
    /// 32 power-of-two buckets reach ~2^31 µs ≈ 36 minutes before clamping.
    const BUCKETS: usize = 32;

    pub(super) fn record(&mut self, sample: Duration) {
        let micros = u64::try_from(sample.as_micros()).unwrap_or(u64::MAX);
        let bucket = (64 - micros.leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket] += 1;
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.total_nanos = self.total_nanos.saturating_add(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    pub(super) fn snapshot(&self) -> LatencyStats {
        let count: u64 = self.buckets.iter().sum();
        if count == 0 {
            return LatencyStats::default();
        }
        let quantile = |q: f64| -> Duration {
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (bucket, &n) in self.buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    // Upper bound of bucket b is 2^b µs (bucket 0: 1 µs).
                    return Duration::from_micros(1u64 << bucket.min(63));
                }
            }
            Duration::from_micros(1u64 << (Self::BUCKETS - 1))
        };
        LatencyStats {
            count,
            mean: Duration::from_nanos(self.total_nanos / count),
            max: Duration::from_nanos(self.max_nanos),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// One queued request.
#[derive(Debug, Clone)]
struct Entry<P> {
    id: u64,
    tenant: Option<String>,
    priority: i32,
    deadline: Option<Instant>,
    submitted: Instant,
    payload: P,
}

/// Whether `a` should dispatch before `b`: higher priority, then earlier
/// deadline (no deadline sorts last), then submission order.
fn beats<P>(a: &Entry<P>, b: &Entry<P>) -> bool {
    if a.priority != b.priority {
        return a.priority > b.priority;
    }
    match (a.deadline, b.deadline) {
        (Some(da), Some(db)) if da != db => da < db,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        _ => a.id < b.id,
    }
}

/// A request booked into the running set, handed back to
/// [`Scheduler::finish`] when it is done.
#[derive(Debug, Clone)]
pub(super) struct Running {
    tenant: Option<String>,
    pub(super) submitted: Instant,
    started: Instant,
}

impl Running {
    /// Time the request spent queued.
    pub(super) fn queue_wait(&self) -> Duration {
        self.started.saturating_duration_since(self.submitted)
    }
}

/// What one [`Scheduler::dispatch`] hands the caller.
#[derive(Debug)]
pub(super) struct Dispatch<P> {
    /// Queued requests whose deadline had passed, removed and booked as
    /// expired: the caller resolves each as `DeadlineExceeded`.
    pub(super) expired: Vec<P>,
    /// The request to run next, booked as running.
    pub(super) next: Option<(Running, P)>,
}

/// The server's queue, flags and ledger (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(super) struct Scheduler<P> {
    /// The most requests [`Scheduler::submit`] lets wait in the queue.
    capacity: usize,
    /// The most requests [`Scheduler::dispatch`] lets run at once.
    max_running: usize,
    queue: VecDeque<Entry<P>>,
    accepting: bool,
    paused: bool,
    next_id: u64,
    totals: Counters,
    /// Per-tenant ledgers, created on first touch.
    tenants: HashMap<String, Counters>,
}

impl<P> Scheduler<P> {
    /// An accepting scheduler whose queue holds up to `capacity` requests
    /// and which runs up to `max_running` at once (the server passes its
    /// clamped [`super::ServerConfig::queue_capacity`] and
    /// [`super::ServerConfig::max_concurrent_queries`]).
    pub(super) fn new(capacity: usize, max_running: usize) -> Self {
        Scheduler {
            capacity,
            max_running,
            queue: VecDeque::new(),
            accepting: true,
            paused: false,
            next_id: 0,
            totals: Counters::default(),
            tenants: HashMap::new(),
        }
    }

    /// Admits a request submitted at `now`, or rejects it (shut down or queue
    /// full). Returns the id
    /// that [`Scheduler::cancel_queued`] and [`Scheduler::expire_queued`]
    /// take.
    pub(super) fn submit(
        &mut self,
        now: Instant,
        tenant: Option<String>,
        priority: i32,
        deadline: Option<Instant>,
        payload: P,
    ) -> Result<u64, SubmitError> {
        if !self.accepting {
            self.book(tenant.as_deref(), Event::Rejected);
            return Err(SubmitError::ShutDown);
        }
        let capacity = self.capacity;
        if self.queue.len() >= capacity {
            self.book(tenant.as_deref(), Event::Rejected);
            return Err(SubmitError::QueueFull { capacity });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.book(tenant.as_deref(), Event::Admitted);
        self.queue.push_back(Entry {
            id,
            tenant,
            priority,
            deadline,
            submitted: now,
            payload,
        });
        Ok(id)
    }

    /// Sweeps the queue for passed deadlines, then picks the request that
    /// runs next: the one that [`beats`] every other. The pick is refused
    /// while `max_running` requests run and, when `only` names a request,
    /// unless that request is the pick — a waiter runs its own request and
    /// overtakes none; the sweep happens either way. A paused server does
    /// neither — unless it is shutting down, when draining wins.
    pub(super) fn dispatch(&mut self, now: Instant, only: Option<u64>) -> Dispatch<P> {
        let mut dispatch = Dispatch {
            expired: Vec::new(),
            next: None,
        };
        if self.paused && self.accepting {
            return dispatch;
        }
        while let Some(index) = self
            .queue
            .iter()
            .position(|e| e.deadline.is_some_and(|d| d <= now))
        {
            dispatch
                .expired
                .extend(self.drop_at(index, Outcome::DeadlineExpired));
        }
        if self.totals.running >= self.max_running {
            return dispatch;
        }
        let best = self
            .queue
            .iter()
            .enumerate()
            .reduce(|best, next| if beats(next.1, best.1) { next } else { best })
            .filter(|(_, entry)| only.is_none_or(|id| entry.id == id))
            .map(|(index, _)| index);
        if let Some(entry) = best.and_then(|index| self.queue.remove(index)) {
            let running = Running {
                tenant: entry.tenant,
                submitted: entry.submitted,
                started: now,
            };
            let queue_wait = running.queue_wait();
            self.book(running.tenant.as_deref(), Event::Dispatched { queue_wait });
            dispatch.next = Some((running, entry.payload));
        }
        dispatch
    }

    /// Removes request `id` if it is still queued, booked as cancelled.
    pub(super) fn cancel_queued(&mut self, id: u64) -> Option<P> {
        let index = self.queue.iter().position(|e| e.id == id)?;
        self.drop_at(index, Outcome::Cancelled)
    }

    /// Removes request `id` if it is still queued and its deadline has
    /// passed at `now`, booked as expired — the waiter-side twin of the
    /// sweep in [`Scheduler::dispatch`].
    pub(super) fn expire_queued(&mut self, id: u64, now: Instant) -> Option<P> {
        let index = self
            .queue
            .iter()
            .position(|e| e.id == id && e.deadline.is_some_and(|d| d <= now))?;
        self.drop_at(index, Outcome::DeadlineExpired)
    }

    /// Books a running request out at `now`.
    pub(super) fn finish(&mut self, running: Running, now: Instant, outcome: Outcome) {
        let event = Event::Finished {
            outcome,
            run_time: now.saturating_duration_since(running.started),
            total_wall: now.saturating_duration_since(running.submitted),
        };
        self.book(running.tenant.as_deref(), event);
    }

    /// Holds (or releases) queued requests; admission stays open.
    pub(super) fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Stops admitting; what is queued still dispatches, paused or not.
    pub(super) fn close(&mut self) {
        self.accepting = false;
    }

    /// Whether a dispatch would pick a request: one is queued, a slot is
    /// free and the server is not paused (or is draining).
    pub(super) fn dispatchable(&self) -> bool {
        !self.queue.is_empty()
            && self.totals.running < self.max_running
            && !(self.paused && self.accepting)
    }

    /// Closed with nothing queued and nothing running: dispatchers may exit,
    /// and shutdown returns.
    pub(super) fn drained(&self) -> bool {
        !self.accepting && self.queue.is_empty() && self.totals.running == 0
    }

    pub(super) fn stats(&self) -> ServerStats {
        self.totals.snapshot()
    }

    /// One tenant's ledger; all zeros for a tenant never seen.
    pub(super) fn tenant_stats(&self, tenant: &str) -> ServerStats {
        self.tenants
            .get(tenant)
            .map_or_else(ServerStats::default, Counters::snapshot)
    }

    /// Removes the queued entry at `index`, booked under `outcome`.
    fn drop_at(&mut self, index: usize, outcome: Outcome) -> Option<P> {
        let entry = self.queue.remove(index)?;
        self.book(entry.tenant.as_deref(), Event::Dropped(outcome));
        Some(entry.payload)
    }

    /// Applies `event` to the server's ledger and, for a named tenant, to
    /// the tenant's.
    fn book(&mut self, tenant: Option<&str>, event: Event) {
        self.totals.apply(&event);
        if let Some(name) = tenant {
            match self.tenants.get_mut(name) {
                Some(counters) => counters.apply(&event),
                None => {
                    let mut counters = Counters::default();
                    counters.apply(&event);
                    self.tenants.insert(name.to_owned(), counters);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::tests::epoch;
    use std::cmp::Reverse;
    use std::collections::HashSet;

    /// `ticks` seconds after `t0`: the hand-advanced clock.
    fn at(t0: Instant, ticks: u64) -> Instant {
        t0 + Duration::from_secs(ticks)
    }

    /// Dispatches at `now`, asserting the sweep found nothing.
    fn next<P>(scheduler: &mut Scheduler<P>, now: Instant) -> Option<(Running, P)> {
        let dispatch = scheduler.dispatch(now, None);
        assert!(dispatch.expired.is_empty(), "nothing was due to expire");
        dispatch.next
    }

    /// One slot, a backlog of four, then a probe: a higher-priority probe
    /// runs first; an equal-priority one runs last, the backlog in
    /// submission order.
    #[test]
    fn priority_overtakes_a_backlog_and_equal_priorities_are_fifo() {
        for (probe_priority, expected) in [(5, [4, 0, 1, 2, 3]), (0, [0, 1, 2, 3, 4])] {
            let t0 = epoch();
            let mut scheduler = Scheduler::new(64, 1);
            for i in 0..5 {
                let priority = if i == 4 { probe_priority } else { 0 };
                scheduler.submit(t0, None, priority, None, i).unwrap();
            }
            let (mut order, mut waits, mut now) = (Vec::new(), Vec::new(), t0);
            while let Some((running, i)) = next(&mut scheduler, now) {
                assert!(next(&mut scheduler, now).is_none(), "one slot");
                waits.push(running.queue_wait());
                now += Duration::from_secs(1);
                scheduler.finish(running, now, Outcome::Completed);
                order.push(i);
            }
            assert_eq!(order, expected);
            assert!(waits.windows(2).all(|pair| pair[0] < pair[1]));
            let stats = scheduler.stats();
            assert_eq!(
                (stats.completed, stats.queue_depth, stats.running),
                (5, 0, 0)
            );
            assert_eq!((stats.queue_wait.count, stats.run_time.count), (5, 5));
        }
    }

    #[test]
    fn queued_deadlines_expire_at_dispatch_or_through_the_waiter() {
        let t0 = epoch();
        let mut scheduler = Scheduler::new(8, 1);
        scheduler.set_paused(true);
        let tenant = Some("t".to_string());
        let a = scheduler
            .submit(t0, tenant, 0, Some(at(t0, 1)), "a")
            .unwrap();
        scheduler.submit(t0, None, 1, None, "b").unwrap();
        let c = scheduler.submit(t0, None, 0, Some(at(t0, 3)), "c").unwrap();
        // Nothing expires early, and a paused server sweeps nothing.
        assert_eq!(scheduler.expire_queued(a, at(t0, 0)), None);
        let held = scheduler.dispatch(at(t0, 2), None);
        assert!(held.expired.is_empty() && held.next.is_none());
        // Resumed, the sweep drops `a` before the pick.
        scheduler.set_paused(false);
        let Dispatch { expired, next } = scheduler.dispatch(at(t0, 2), None);
        assert_eq!(expired, ["a"]);
        let (running, b) = next.unwrap();
        assert_eq!(b, "b");
        // The waiter's path: `c` expires once, and only past its deadline.
        assert_eq!(scheduler.expire_queued(c, at(t0, 2)), None);
        assert_eq!(scheduler.expire_queued(c, at(t0, 3)), Some("c"));
        assert_eq!(scheduler.expire_queued(c, at(t0, 3)), None);
        scheduler.finish(running, at(t0, 4), Outcome::Completed);
        let stats = scheduler.stats();
        assert_eq!(
            (stats.admitted, stats.deadline_expired, stats.completed),
            (3, 2, 1)
        );
        assert_eq!((stats.queue_depth, stats.queue_wait.count), (0, 1));
        let t = scheduler.tenant_stats("t");
        assert_eq!((t.admitted, t.deadline_expired, t.queue_depth), (1, 1, 0));
    }

    #[test]
    fn a_full_queue_rejects_until_a_slot_frees() {
        let t0 = epoch();
        let mut scheduler = Scheduler::new(3, 1);
        scheduler.set_paused(true);
        let ids: Vec<u64> = (0..3)
            .map(|i| scheduler.submit(t0, None, 0, None, i).unwrap())
            .collect();
        for _ in 0..5 {
            let full = scheduler.submit(t0, None, 0, None, 9);
            assert_eq!(full, Err(SubmitError::QueueFull { capacity: 3 }));
        }
        let stats = scheduler.stats();
        assert_eq!(
            (stats.admitted, stats.rejected, stats.queue_depth),
            (3, 5, 3)
        );
        // A cancel frees its slot at once; resuming drains the rest.
        assert_eq!(scheduler.cancel_queued(ids[0]), Some(0));
        assert_eq!(scheduler.cancel_queued(ids[0]), None);
        scheduler.submit(t0, None, 0, None, 3).unwrap();
        scheduler.set_paused(false);
        let mut served = Vec::new();
        while let Some((running, i)) = next(&mut scheduler, t0) {
            scheduler.finish(running, at(t0, 1), Outcome::Completed);
            served.push(i);
        }
        assert_eq!(served, [1, 2, 3]);
        let stats = scheduler.stats();
        assert_eq!(
            (stats.completed, stats.cancelled, stats.rejected),
            (3, 1, 5)
        );
        assert_eq!(stats.total_wall, Duration::from_secs(3));
    }

    #[test]
    fn closing_rejects_new_work_and_drains_even_when_paused() {
        let t0 = epoch();
        let mut scheduler = Scheduler::new(8, 1);
        scheduler.set_paused(true);
        scheduler.submit(t0, None, 0, None, ()).unwrap();
        scheduler.close();
        assert_eq!(
            scheduler.submit(t0, None, 0, None, ()),
            Err(SubmitError::ShutDown)
        );
        assert!(!scheduler.drained());
        let (running, ()) = next(&mut scheduler, t0).expect("draining beats pausing");
        assert!(!scheduler.drained(), "a request still runs");
        scheduler.finish(running, t0, Outcome::Failed);
        assert!(scheduler.drained());
        let stats = scheduler.stats();
        assert_eq!((stats.rejected, stats.failed, stats.running), (1, 1, 0));
    }

    /// The server clamps zero bounds to 1 (`server::tests`); a one-request
    /// queue with one slot admits and dispatches. Unclamped, a zero capacity
    /// rejected every request and zero slots dispatched none.
    #[test]
    fn zero_bounds_are_clamped_to_one() {
        let mut scheduler = Scheduler::new(1, 1);
        let t0 = epoch();
        scheduler.submit(t0, Some("a".into()), 0, None, ()).unwrap();
        let (running, ()) = next(&mut scheduler, t0).expect("dispatches");
        scheduler.finish(running, t0, Outcome::Completed);
        assert_eq!(scheduler.tenant_stats("a").completed, 1);
    }

    /// A waiter's dispatch, restricted to its own request, picks nothing
    /// while another request wins or every slot is taken, and sweeps the
    /// passed deadlines either way.
    #[test]
    fn a_restricted_dispatch_runs_only_the_next_request_in_a_free_slot() {
        let t0 = epoch();
        let mut scheduler = Scheduler::new(8, 1);
        scheduler.submit(t0, None, 0, Some(at(t0, 1)), "a").unwrap();
        let b = scheduler.submit(t0, None, 1, None, "b").unwrap();
        let c = scheduler.submit(t0, None, 0, None, "c").unwrap();
        scheduler.submit(t0, None, 0, Some(at(t0, 3)), "d").unwrap();
        // `b` wins: `c`'s waiter gets nothing, but `a`'s deadline is swept.
        let beaten = scheduler.dispatch(at(t0, 2), Some(c));
        assert_eq!((beaten.expired, beaten.next.is_none()), (vec!["a"], true));
        let (running, name) = next(&mut scheduler, at(t0, 2)).unwrap();
        assert_eq!(name, "b");
        // The one slot is taken: `c`'s waiter still gets nothing, and
        // neither does a dispatcher, while `d` is swept.
        let full = scheduler.dispatch(at(t0, 4), Some(c));
        assert_eq!((full.expired, full.next.is_none()), (vec!["d"], true));
        assert!(next(&mut scheduler, at(t0, 4)).is_none());
        assert_eq!(
            scheduler.dispatch(at(t0, 4), Some(b)).next.map(|n| n.1),
            None
        );
        // The slot frees and `c` is next: its waiter runs it.
        scheduler.finish(running, at(t0, 4), Outcome::Completed);
        let (_, name) = scheduler.dispatch(at(t0, 4), Some(c)).next.unwrap();
        assert_eq!(name, "c");
        let stats = scheduler.stats();
        assert_eq!(
            (stats.deadline_expired, stats.completed, stats.running),
            (2, 1, 1)
        );
        assert_eq!((stats.queue_depth, stats.queue_wait.count), (0, 2));
    }

    // --- The exhaustive small model -------------------------------------

    /// Three requests over two tenants, with priorities and deadlines (in
    /// ticks after submission) chosen so that every pick rule and expiry
    /// path is reachable.
    const TENANT: [&str; 3] = ["a", "a", "b"];
    const PRIORITY: [i32; 3] = [0, 1, 0];
    const DEADLINE: [Option<u64>; 3] = [Some(1), Some(2), None];
    const LAST_TICK: u64 = 3;
    const OUTCOMES: [Outcome; 5] = [
        Outcome::Completed,
        Outcome::Cancelled,
        Outcome::DeadlineExpired,
        Outcome::Failed,
        Outcome::Panicked,
    ];

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Phase {
        Unsent,
        Rejected,
        Queued,
        Running,
        Done { outcome: Outcome, ran: bool },
    }

    /// What the model expects one ledger to read.
    #[derive(Debug, Default, PartialEq)]
    struct Ledger {
        admitted: u64,
        completed: u64,
        rejected: u64,
        cancelled: u64,
        deadline_expired: u64,
        failed: u64,
        panicked: u64,
        queued: usize,
        running: usize,
        dispatched: u64,
    }

    impl Ledger {
        fn of(s: &ServerStats) -> Ledger {
            Ledger {
                admitted: s.admitted,
                completed: s.completed,
                rejected: s.rejected,
                cancelled: s.cancelled,
                deadline_expired: s.deadline_expired,
                failed: s.failed,
                panicked: s.panicked,
                queued: s.queue_depth,
                running: s.running,
                dispatched: s.queue_wait.count,
            }
        }

        /// Every admitted request is in exactly one terminal counter, the
        /// queue or the running set.
        fn reconciles(&self) -> bool {
            let ended = self.completed
                + self.cancelled
                + self.deadline_expired
                + self.failed
                + self.panicked;
            self.admitted == ended + (self.queued + self.running) as u64
        }
    }

    /// Which transitions the exploration took at least once.
    #[derive(Debug, Default)]
    struct Seen {
        rejected: HashSet<&'static str>,
        swept: bool,
        expired_by_waiter: bool,
        cancelled: bool,
        finished: HashSet<Outcome>,
        /// How waiters' dispatches went: "ran", "full", "beaten", "expired".
        waited: HashSet<&'static str>,
    }

    #[derive(Clone)]
    struct World {
        scheduler: Scheduler<usize>,
        t0: Instant,
        now: u64,
        closed: bool,
        phase: [Phase; 3],
        id: [u64; 3],
        submitted: [u64; 3],
        running: [Option<Running>; 3],
    }

    /// Everything the scheduler's decisions and counts depend on: two
    /// worlds with equal keys have equal futures.
    type Key = (u64, bool, [Phase; 3], [u64; 3], [u64; 3]);

    impl World {
        fn key(&self) -> Key {
            (self.now, self.closed, self.phase, self.id, self.submitted)
        }

        fn deadline(&self, i: usize) -> Option<u64> {
            DEADLINE[i].map(|d| self.submitted[i] + d)
        }

        fn is(&self, i: usize, phase: Phase) -> bool {
            self.phase[i] == phase
        }

        /// Marks `i` resolved — the one place a second resolution would
        /// show up.
        fn resolve(&mut self, i: usize, outcome: Outcome) {
            let ran = match self.phase[i] {
                Phase::Queued => false,
                Phase::Running => true,
                other => panic!("request {i} resolved twice (was {other:?})"),
            };
            self.phase[i] = Phase::Done { outcome, ran };
        }

        fn expected(&self, which: impl Fn(usize) -> bool) -> Ledger {
            let mut ledger = Ledger::default();
            for i in (0..3).filter(|&i| which(i)) {
                match self.phase[i] {
                    Phase::Unsent => {}
                    Phase::Rejected => ledger.rejected += 1,
                    Phase::Queued => {
                        ledger.admitted += 1;
                        ledger.queued += 1;
                    }
                    Phase::Running => {
                        ledger.admitted += 1;
                        ledger.running += 1;
                        ledger.dispatched += 1;
                    }
                    Phase::Done { outcome, ran } => {
                        ledger.admitted += 1;
                        ledger.dispatched += u64::from(ran);
                        *match outcome {
                            Outcome::Completed => &mut ledger.completed,
                            Outcome::Cancelled => &mut ledger.cancelled,
                            Outcome::DeadlineExpired => &mut ledger.deadline_expired,
                            Outcome::Failed => &mut ledger.failed,
                            Outcome::Panicked => &mut ledger.panicked,
                        } += 1;
                    }
                }
            }
            ledger
        }

        /// The invariants, checked after every step.
        fn check(&mut self) {
            let state = format!("at tick {} with {:?}", self.now, self.phase);
            let stats = Ledger::of(&self.scheduler.stats());
            assert_eq!(stats, self.expected(|_| true), "{state}");
            assert!(stats.reconciles(), "{state}");
            // The scheduler's bound: two slots, whoever dispatches.
            assert!(stats.running <= 2 && stats.queued <= 2, "{state}");
            for tenant in ["a", "b"] {
                let ledger = Ledger::of(&self.scheduler.tenant_stats(tenant));
                let expected = self.expected(|i| TENANT[i] == tenant);
                assert_eq!(ledger, expected, "tenant {tenant} {state}");
                assert!(ledger.reconciles(), "{state}");
            }
            let far = at(self.t0, LAST_TICK + 10);
            for i in 0..3 {
                let (id, now) = (self.id[i], at(self.t0, self.now));
                if !matches!(self.phase[i], Phase::Unsent | Phase::Rejected) {
                    if !self.is(i, Phase::Queued) {
                        assert_eq!(self.scheduler.cancel_queued(id), None, "{state}");
                        assert_eq!(self.scheduler.expire_queued(id, far), None, "{state}");
                    } else if self.deadline(i).is_none_or(|d| d > self.now) {
                        assert_eq!(self.scheduler.expire_queued(id, now), None, "{state}");
                    }
                }
            }
            assert_eq!(
                self.scheduler.drained(),
                self.closed && stats.queued == 0 && stats.running == 0,
                "{state}"
            );
            assert_eq!(
                self.scheduler.dispatchable(),
                stats.queued > 0 && stats.running < 2,
                "{state}"
            );
            if stats.queued > 0 && stats.running < 2 {
                let progress = self.clone().dispatch(None, &mut Seen::default());
                assert!(progress.is_some(), "a queued request is stranded {state}");
            }
        }

        fn submit(mut self, i: usize, seen: &mut Seen) -> World {
            let queued = (0..3).filter(|&j| self.is(j, Phase::Queued));
            let expected = if self.closed {
                Err(SubmitError::ShutDown)
            } else if queued.count() >= 2 {
                Err(SubmitError::QueueFull { capacity: 2 })
            } else {
                Ok(())
            };
            let now = at(self.t0, self.now);
            let deadline = DEADLINE[i].map(|d| at(self.t0, self.now + d));
            let tenant = Some(TENANT[i].to_string());
            let got = self.scheduler.submit(now, tenant, PRIORITY[i], deadline, i);
            assert_eq!(
                got.map(|_| ()),
                expected,
                "submit {i} with {:?}",
                self.phase
            );
            match got {
                Ok(id) => {
                    self.id[i] = id;
                    self.submitted[i] = self.now;
                    self.phase[i] = Phase::Queued;
                }
                Err(e) => {
                    seen.rejected.insert(match e {
                        SubmitError::ShutDown => "shut down",
                        _ => "queue full",
                    });
                    self.phase[i] = Phase::Rejected;
                }
            }
            self
        }

        /// Dispatches — by a dispatcher (`waiter` is `None`) or by the
        /// client waiting on request `waiter` — checked against the model:
        /// the sweep takes exactly the queued requests whose deadline
        /// passed; the pick is the best queued one while a slot of two is
        /// free, and a waiter gets it only when it is the waiter's own.
        /// `None` when dispatching changes nothing.
        fn dispatch(mut self, waiter: Option<usize>, seen: &mut Seen) -> Option<World> {
            let due = |w: &World, i: usize| w.deadline(i).is_some_and(|d| d <= w.now);
            let expect_expired: Vec<usize> = (0..3)
                .filter(|&i| self.is(i, Phase::Queued) && due(&self, i))
                .collect();
            let full = (0..3).filter(|&i| self.is(i, Phase::Running)).count() == 2;
            let only = waiter.map(|i| self.id[i]);
            let now = at(self.t0, self.now);
            let Dispatch { mut expired, next } = self.scheduler.dispatch(now, only);
            expired.sort_unstable();
            for &i in &expired {
                self.resolve(i, Outcome::DeadlineExpired);
            }
            assert_eq!(expired, expect_expired, "sweep at tick {}", self.now);
            let rank = |i: usize| {
                let deadline = self.deadline(i);
                let key = (deadline.is_none(), deadline, self.id[i]);
                (Reverse(PRIORITY[i]), key)
            };
            let queued: Vec<usize> = (0..3).filter(|&i| self.is(i, Phase::Queued)).collect();
            let best = queued.iter().copied().min_by_key(|&i| rank(i));
            let expect_next = best.filter(|&i| !full && waiter.is_none_or(|w| w == i));
            assert_eq!(
                next.as_ref().map(|(_, i)| *i),
                expect_next,
                "{waiter:?} dispatches with {:?}",
                self.phase
            );
            if let Some(w) = waiter {
                if let Some((_, i)) = &next {
                    // The waiter's request beat every other queued one.
                    let others = queued.iter().filter(|&&j| j != *i);
                    assert!(others.into_iter().all(|&j| rank(*i) < rank(j)));
                }
                seen.waited.insert(match (&next, full) {
                    (Some(_), _) => "ran",
                    (None, true) => "full",
                    (None, false) if queued.contains(&w) => "beaten",
                    (None, false) => "expired",
                });
            }
            seen.swept |= !expired.is_empty();
            if let Some((handle, i)) = next {
                self.phase[i] = Phase::Running;
                self.running[i] = Some(handle);
            } else if expired.is_empty() {
                return None;
            }
            Some(self)
        }

        /// Every move from this world, each applied to its own copy.
        fn successors(&self, seen: &mut Seen) -> Vec<World> {
            let mut out = Vec::new();
            for i in 0..3 {
                match self.phase[i] {
                    Phase::Unsent => out.push(self.clone().submit(i, seen)),
                    Phase::Queued => {
                        let mut w = self.clone();
                        assert_eq!(w.scheduler.cancel_queued(w.id[i]), Some(i));
                        w.resolve(i, Outcome::Cancelled);
                        seen.cancelled = true;
                        out.push(w);
                        if self.deadline(i).is_some_and(|d| d <= self.now) {
                            let mut w = self.clone();
                            let now = at(w.t0, w.now);
                            assert_eq!(w.scheduler.expire_queued(w.id[i], now), Some(i));
                            w.resolve(i, Outcome::DeadlineExpired);
                            seen.expired_by_waiter = true;
                            out.push(w);
                        }
                    }
                    Phase::Running => {
                        for outcome in OUTCOMES {
                            let mut w = self.clone();
                            let handle = w.running[i].take().expect("running has a handle");
                            w.scheduler.finish(handle, at(w.t0, w.now), outcome);
                            w.resolve(i, outcome);
                            seen.finished.insert(outcome);
                            out.push(w);
                        }
                    }
                    Phase::Rejected | Phase::Done { .. } => {}
                }
            }
            if self.now < LAST_TICK {
                let mut w = self.clone();
                w.now += 1;
                out.push(w);
            }
            if !self.closed {
                let mut w = self.clone();
                w.scheduler.close();
                w.closed = true;
                out.push(w);
            }
            // A dispatcher, and every client waiting on a queued request;
            // the scheduler holds the two-slot bound for all of them.
            out.extend(self.clone().dispatch(None, seen));
            for i in (0..3).filter(|&i| self.is(i, Phase::Queued)) {
                out.extend(self.clone().dispatch(Some(i), seen));
            }
            out
        }
    }

    /// Every interleaving of submit / cancel / clock advance / waiter-side
    /// expiry / dispatch (by a dispatcher, or by a client waiting on its own
    /// request) / finish (each outcome) / close over three requests and two
    /// tenants keeps the invariants in [`World::check`]: no request resolves
    /// twice, at most two run and at most two are queued, a waiter runs only
    /// its own request and only when it beats every queued one, the counters
    /// match the model and reconcile globally and per tenant, and nothing
    /// queued is stranded while a slot is free.
    /// Worlds with equal [`Key`]s have equal futures, so each is expanded
    /// once; every transition out of every reachable world is still taken.
    #[test]
    fn every_interleaving_keeps_the_ledger() {
        let t0 = epoch();
        let start = World {
            scheduler: Scheduler::new(2, 2),
            t0,
            now: 0,
            closed: false,
            phase: [Phase::Unsent; 3],
            id: [0; 3],
            submitted: [0; 3],
            running: [None, None, None],
        };
        let (mut visited, mut seen) = (HashSet::new(), Seen::default());
        let (mut transitions, mut endings) = (0usize, 0usize);
        let mut stack = vec![start];
        while let Some(mut world) = stack.pop() {
            if !visited.insert(world.key()) {
                continue;
            }
            world.check();
            let settled = world
                .phase
                .iter()
                .all(|p| matches!(p, Phase::Rejected | Phase::Done { .. }));
            if settled {
                // Every admitted request resolved; usage is back to zero.
                endings += 1;
                let stats = world.scheduler.stats();
                assert_eq!((stats.queue_depth, stats.running), (0, 0));
                for tenant in ["a", "b"] {
                    let t = world.scheduler.tenant_stats(tenant);
                    assert_eq!((t.queue_depth, t.running), (0, 0));
                }
            }
            let next = world.successors(&mut seen);
            transitions += next.len();
            stack.extend(next);
        }
        // The model reached every kind of transition and ending.
        assert_eq!(seen.rejected.len(), 2, "{seen:?}");
        assert_eq!(seen.finished.len(), OUTCOMES.len(), "{seen:?}");
        assert!(
            seen.swept && seen.expired_by_waiter && seen.cancelled,
            "{seen:?}"
        );
        assert_eq!(seen.waited.len(), 4, "{seen:?}");
        assert!(endings > 100, "{endings} endings");
        println!(
            "{} worlds, {transitions} transitions, {endings} endings",
            visited.len()
        );
    }
}
