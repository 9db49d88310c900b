//! Multi-tenant, admission-controlled serving front end over [`Engine`] /
//! [`Session`].
//!
//! [`Session`]: crate::Session
//!
//! A [`Server`] is what turns the engine into a multi-tenant runtime: instead
//! of every caller grabbing a [`Session`] and flooding the executor, clients
//! **submit** [`Request`]s (built with [`Request::builder`]) and the server
//! shapes the traffic —
//!
//! * **Priority/deadline-aware scheduling.** Dispatch picks the queued
//!   request with the highest [`RequestBuilder::priority`], breaking ties by
//!   earliest deadline and then submission order (so equal-priority,
//!   deadline-free traffic is served first-in-first-out). At most
//!   [`ServerConfig::max_concurrent_queries`] statements execute at once (a
//!   fixed set of persistent dispatcher threads).
//! * **Deadlines.** A request with a [`RequestBuilder::deadline`] that expires
//!   while still queued is dropped with [`ServeError::DeadlineExceeded`]
//!   before wasting pool time; one that expires mid-execution is aborted
//!   cooperatively within roughly one morsel, returning the partial
//!   [`bqo_exec::ExecutionMetrics`] it accumulated.
//! * **Bounded-queue backpressure.** The queue holds at most
//!   [`ServerConfig::queue_capacity`] pending requests; submissions beyond
//!   that are rejected immediately with [`SubmitError::QueueFull`].
//! * **Join-handle tickets with mid-flight cancellation.** [`Server::submit`]
//!   returns a [`Ticket`] that [`Ticket::wait`]s for the [`QueryOutput`]
//!   (or [`Ticket::wait_timeout`]s, leaving the request running).
//!   [`Ticket::cancel`] resolves a queued request immediately and aborts a
//!   *running* one cooperatively: a [`bqo_exec::CancelToken`] cloned into the
//!   executor is re-checked at every morsel claim and batch pull, so the
//!   query stops within roughly one morsel and surfaces as
//!   [`ServeError::Cancelled`] with its partial metrics.
//! * **Panic containment.** A statement that panics mid-execution takes down
//!   neither the dispatcher nor the server: the panic is caught and surfaced
//!   through that request's ticket as [`ServeError::Panicked`].
//! * **Graceful shutdown.** [`Server::shutdown`] stops admissions, drains
//!   everything already queued, and joins the dispatchers; it is idempotent
//!   and implied when the last server handle drops.
//! * **Operational visibility.** [`Server::stats`] reports global counters
//!   plus queue-wait and run-time latency histograms ([`LatencyStats`]);
//!   [`Server::stats_for`] reports the same [`ServerStats`] per named
//!   tenant ([`RequestBuilder::tenant`]).
//!
//! Execution itself goes through the engine like any session run: plans come
//! from the engine's [`crate::PlanCache`], and parallel sections draw their
//! helper workers from the engine-owned persistent
//! [`bqo_exec::WorkerPool`] — dispatchers are the *query*-level concurrency
//! limit, the pool is the *morsel*-level one.
//!
//! Scheduling and accounting — the queue, the accepting/paused flags,
//! every counter and histogram, per tenant and in total — live in one
//! single-threaded state machine (`server/queue.rs`) whose transitions take
//! `now` as a parameter. This module wraps it in one mutex and a condvar,
//! runs the dispatcher threads and hands out [`Ticket`]s. A queued request
//! is resolved only under that mutex, by whichever transition removes it
//! from the queue, and every request is booked before its ticket resolves:
//! [`Server::stats`] read after [`Ticket::wait`] returns counts it.
//!
//! ```
//! use bqo_core::workloads::{star, Scale};
//! use bqo_core::{Engine, OptimizerChoice, Params, Request, Server, ServerConfig};
//!
//! let workload = star::generate(Scale(0.02), 3, 1, 42);
//! let engine = Engine::from_catalog(workload.catalog);
//! let server = Server::new(engine, ServerConfig::default());
//! let template = star::build_param_query("by_bound", 3, &[0]);
//! let request = Request::builder()
//!     .query(&template)
//!     .params(&Params::new().set("bound0", 3i64))
//!     .optimizer(OptimizerChoice::Bqo)
//!     .tenant("dashboards")
//!     .priority(1)
//!     .build()
//!     .unwrap();
//! let ticket = server.submit(request).unwrap();
//! let output = ticket.wait().unwrap();
//! assert!(output.result.output_rows > 0);
//! server.shutdown();
//! ```

mod queue;

use crate::engine::{Engine, QueryOutput, RunOptions};
use crate::{BqoError, OptimizerChoice};
use bqo_exec::{CancelToken, ExecConfig, ExecutionMetrics};
use bqo_plan::{Params, QuerySpec};
use queue::{Dispatch, Outcome, Running, Scheduler};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Traffic-shaping knobs of a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Maximum number of statements executing concurrently (the number of
    /// persistent dispatcher threads). Values below 1 are treated as 1.
    pub max_concurrent_queries: usize,
    /// Maximum number of admitted-but-not-yet-started requests; submissions
    /// beyond this bound fail fast with [`SubmitError::QueueFull`]. Values
    /// below 1 are treated as 1.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent_queries: 4,
            queue_capacity: 128,
        }
    }
}

impl ServerConfig {
    /// The same configuration with a different concurrency limit (clamped to
    /// at least 1).
    pub fn with_max_concurrent_queries(mut self, max_concurrent_queries: usize) -> Self {
        self.max_concurrent_queries = max_concurrent_queries.max(1);
        self
    }

    /// The same configuration with a different pending-queue bound (clamped
    /// to at least 1).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity.max(1);
        self
    }
}

/// One unit of work for [`Server::submit`]: what to run (a query spec or a
/// SQL text, with optional parameters), which optimizer plans it, how
/// it is scheduled (tenant, priority, deadline) and the [`RunOptions`] its
/// run gets. Built with [`Request::builder`].
#[derive(Debug, Clone)]
pub struct Request {
    statement: Statement,
    choice: OptimizerChoice,
    tenant: Option<String>,
    priority: i32,
    deadline: Option<Duration>,
    run: RunOptions,
}

impl Request {
    /// Starts building a request.
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }
}

/// Builder for [`Request`] — the single submit surface of the server.
///
/// Exactly one statement source is required: [`RequestBuilder::query`] or
/// [`RequestBuilder::sql`], each optionally with [`RequestBuilder::params`].
/// A hand-built plan runs outside the server, through
/// [`Engine::prepare_plan`] and [`crate::Session::execute`].
#[derive(Debug, Default)]
pub struct RequestBuilder {
    statement: Option<Statement>,
    params: Option<Params>,
    choice: Option<OptimizerChoice>,
    tenant: Option<String>,
    priority: i32,
    deadline: Option<Duration>,
    run: RunOptions,
}

impl RequestBuilder {
    /// Runs a (possibly parameterized) query spec, planned through the
    /// engine's plan cache on the dispatcher. Replaces any previously set
    /// statement.
    pub fn query(mut self, spec: &QuerySpec) -> Self {
        self.statement = Some(Statement::Spec {
            spec: spec.clone(),
            params: None,
        });
        self
    }

    /// Runs a SQL `SELECT` (see the `bqo-sql` crate for the supported
    /// grammar), parsed and bound against the engine's catalog on the
    /// dispatcher. Combine with [`RequestBuilder::params`] for `$param`
    /// templates. Replaces any previously set statement.
    pub fn sql(mut self, text: impl Into<String>) -> Self {
        self.statement = Some(Statement::Sql {
            text: text.into(),
            params: None,
        });
        self
    }

    /// Parameter bindings for a template query set with
    /// [`RequestBuilder::query`] or [`RequestBuilder::sql`].
    pub fn params(mut self, params: &Params) -> Self {
        self.params = Some(params.clone());
        self
    }

    /// Which optimizer plans the request (default [`OptimizerChoice::Bqo`]).
    pub fn optimizer(mut self, choice: OptimizerChoice) -> Self {
        self.choice = Some(choice);
        self
    }

    /// Accounts the request to a named tenant, whose ledger
    /// [`Server::stats_for`] reports; without one the request is anonymous
    /// (counted globally only).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Scheduling priority — higher dispatches first (default 0).
    pub fn priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Relative deadline, measured from submission. A request still queued
    /// when it expires resolves to [`ServeError::DeadlineExceeded`] without
    /// executing; one caught mid-execution is aborted cooperatively. A
    /// deadline too far to represent as an instant (such as `Duration::MAX`)
    /// is no deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Collects the concatenated output rows into [`QueryOutput::rows`]
    /// ([`RunOptions::collecting_rows`]).
    pub fn collect_rows(mut self) -> Self {
        self.run = self.run.collecting_rows();
        self
    }

    /// Execution configuration for this request
    /// ([`RunOptions::with_exec_config`]); without one the engine's default
    /// runs.
    pub fn exec_config(mut self, config: ExecConfig) -> Self {
        self.run = self.run.with_exec_config(config);
        self
    }

    /// Validates and builds the [`Request`].
    pub fn build(self) -> Result<Request, SubmitError> {
        let statement = match self.statement {
            None => {
                return Err(SubmitError::InvalidRequest {
                    reason: "a request needs a query",
                })
            }
            Some(Statement::Spec { spec, .. }) => Statement::Spec {
                spec,
                params: self.params,
            },
            Some(Statement::Sql { text, .. }) => Statement::Sql {
                text,
                params: self.params,
            },
        };
        Ok(Request {
            statement,
            choice: self.choice.unwrap_or(OptimizerChoice::Bqo),
            tenant: self.tenant,
            priority: self.priority,
            deadline: self.deadline,
            run: self.run,
        })
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue already holds `capacity` requests — backpressure:
    /// retry later or shed the request.
    QueueFull {
        /// The configured [`ServerConfig::queue_capacity`].
        capacity: usize,
    },
    /// The request was malformed (see [`Request::builder`]).
    InvalidRequest {
        /// What was wrong with the request.
        reason: &'static str,
    },
    /// The server is shutting down (or already shut down).
    ShutDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "server queue is full ({capacity} pending requests)")
            }
            SubmitError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            SubmitError::ShutDown => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an admitted request produced no [`QueryOutput`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Planning or execution failed (the usual error path, with query name
    /// and phase attached).
    Query(BqoError),
    /// Execution panicked on the dispatcher; the payload's message. The
    /// dispatcher survived and keeps serving other requests.
    Panicked(String),
    /// The request was cancelled via [`Ticket::cancel`]. `partial` carries
    /// the metrics a mid-flight cancellation accumulated before the abort
    /// (`None` when the request never started).
    Cancelled {
        /// Metrics gathered before the abort, for requests cancelled
        /// mid-execution.
        partial: Option<ExecutionMetrics>,
    },
    /// The request's own [`RequestBuilder::deadline`] expired — while queued
    /// (`partial` is `None`) or mid-execution (`partial` carries the work
    /// done before the abort).
    DeadlineExceeded {
        /// Metrics gathered before the abort, for requests aborted
        /// mid-execution.
        partial: Option<ExecutionMetrics>,
    },
    /// [`Ticket::wait_timeout`]'s bound elapsed before the request finished.
    /// The request keeps running; a later wait can still collect its result.
    TimedOut,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Query(e) => write!(f, "{e}"),
            ServeError::Panicked(msg) => write!(f, "query execution panicked: {msg}"),
            ServeError::Cancelled { partial: None } => {
                write!(f, "request was cancelled before it started")
            }
            ServeError::Cancelled { partial: Some(_) } => {
                write!(f, "request was cancelled mid-execution")
            }
            ServeError::DeadlineExceeded { .. } => {
                write!(f, "request deadline exceeded")
            }
            ServeError::TimedOut => write!(f, "timed out waiting for the request to finish"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Query(e) => Some(e),
            _ => None,
        }
    }
}

/// What a queued request executes.
#[derive(Debug, Clone)]
enum Statement {
    /// A (possibly parameterized) query spec, planned through the engine's
    /// plan cache on the dispatcher.
    Spec {
        spec: QuerySpec,
        params: Option<Params>,
    },
    /// A SQL `SELECT`, parsed and bound against the engine's catalog on the
    /// dispatcher, then planned through the plan cache like a spec request.
    Sql {
        text: String,
        params: Option<Params>,
    },
}

/// A ticket's outcome slot: empty until the request resolves, then written
/// once — by whichever scheduler transition took the request out of the
/// queue or the running set (see the [module docs](self)).
#[derive(Default)]
struct TicketShared {
    outcome: Mutex<Option<Result<QueryOutput, ServeError>>>,
    done: Condvar,
}

impl TicketShared {
    #[expect(
        clippy::expect_used,
        reason = "lock poisoning: the query thread panicked mid-update; the waiter cannot trust the ticket state"
    )]
    fn lock(&self) -> MutexGuard<'_, Option<Result<QueryOutput, ServeError>>> {
        self.outcome.lock().expect("ticket poisoned")
    }

    fn resolve(&self, outcome: Result<QueryOutput, ServeError>) {
        *self.lock() = Some(outcome);
        self.done.notify_all();
    }
}

/// A join-handle for one submitted request: wait for the output (with an
/// optional bound), poll, or cancel it — queued *or* mid-flight. Dropping a
/// ticket detaches from the request — it still executes.
pub struct Ticket {
    shared: Arc<TicketShared>,
    /// Back-reference for [`Ticket::cancel`] and queued-deadline expiry,
    /// which take the request out of the queue at once, freeing its
    /// admission slot. Weak so outstanding tickets never keep a shut-down
    /// server alive.
    server: Weak<ServerShared>,
    /// The request's scheduler id.
    id: u64,
    /// The request's cancel token — fired by [`Ticket::cancel`] on a running
    /// request; execution notices at its next morsel claim or batch pull.
    cancel: CancelToken,
    /// The request's absolute deadline, if it has one.
    deadline: Option<Instant>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("finished", &self.shared.lock().is_some())
            .finish()
    }
}

impl Ticket {
    /// Blocks until the request finishes and returns its output. Waiting
    /// repeatedly is fine — the outcome is retained.
    pub fn wait(&self) -> Result<QueryOutput, ServeError> {
        self.wait_deadline(None)
    }

    /// Blocks until the request finishes or `timeout` elapses; a wait that
    /// returns [`ServeError::TimedOut`] leaves the request running. A request
    /// whose own deadline has already passed while still queued resolves to
    /// [`ServeError::DeadlineExceeded`] immediately instead of blocking for
    /// the full bound. A `timeout` too far to represent as an instant (such
    /// as `Duration::MAX`) is no bound.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<QueryOutput, ServeError> {
        self.wait_deadline(Instant::now().checked_add(timeout))
    }

    fn wait_deadline(&self, bound: Option<Instant>) -> Result<QueryOutput, ServeError> {
        // The request's own deadline needs a wake-up only once: past it, a
        // still-queued request is expired here instead of at the next
        // dispatch, and a running one is aborted by its cancel token.
        let mut expiry = self.deadline;
        let mut outcome = self.shared.lock();
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning: the query thread panicked mid-update; the waiter cannot trust the ticket state"
        )]
        loop {
            if let Some(outcome) = &*outcome {
                return outcome.clone();
            }
            let now = Instant::now();
            if expiry.is_some_and(|d| now >= d) {
                expiry = None;
                // Lock order is scheduler → ticket: let go of the ticket.
                drop(outcome);
                self.expire_if_queued(now);
                outcome = self.shared.lock();
                continue;
            }
            if bound.is_some_and(|b| now >= b) {
                return Err(ServeError::TimedOut);
            }
            outcome = match bound.into_iter().chain(expiry).min() {
                None => self.shared.done.wait(outcome).expect("ticket poisoned"),
                Some(wake) => {
                    let timeout = wake - now;
                    let waited = self.shared.done.wait_timeout(outcome, timeout);
                    waited.expect("ticket poisoned").0
                }
            };
        }
    }

    /// The request's outcome if it already finished, without blocking.
    pub fn try_wait(&self) -> Option<Result<QueryOutput, ServeError>> {
        self.shared.lock().clone()
    }

    /// Cancels the request. A *queued* request resolves to
    /// [`ServeError::Cancelled`] immediately and frees its admission slot. A
    /// *running* request is aborted cooperatively: its cancel token fires,
    /// execution stops within roughly one morsel, and the ticket resolves to
    /// [`ServeError::Cancelled`] carrying the partial metrics. Returns `true`
    /// if cancellation was initiated (or the abort is in flight), `false` if
    /// the request already finished.
    pub fn cancel(&self) -> bool {
        if let Some(server) = self.server.upgrade() {
            let mut scheduler = server.lock();
            if let Some(job) = scheduler.cancel_queued(self.id) {
                job.ticket
                    .resolve(Err(ServeError::Cancelled { partial: None }));
                return true;
            }
        }
        // Not queued: finished, or running — then its dispatcher books and
        // resolves the abort once execution notices the token.
        if self.shared.lock().is_some() {
            return false;
        }
        self.cancel.cancel();
        true
    }

    /// Resolves the request as expired if it is still queued.
    fn expire_if_queued(&self, now: Instant) {
        if let Some(server) = self.server.upgrade() {
            let mut scheduler = server.lock();
            if let Some(job) = scheduler.expire_queued(self.id, now) {
                job.ticket
                    .resolve(Err(ServeError::DeadlineExceeded { partial: None }));
            }
        }
    }
}

/// What a dispatcher needs to run one request and resolve its ticket — the
/// scheduler's payload.
struct Job {
    statement: Statement,
    choice: OptimizerChoice,
    /// The request's run options, carrying its cancel token.
    run: RunOptions,
    ticket: Arc<TicketShared>,
}

/// A point-in-time latency summary derived from a server histogram. The
/// quantiles are approximate: each is the upper bound of its power-of-two
/// microsecond bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean: Duration,
    /// Exact maximum.
    pub max: Duration,
    /// Approximate median.
    pub p50: Duration,
    /// Approximate 95th percentile.
    pub p95: Duration,
    /// Approximate 99th percentile.
    pub p99: Duration,
}

struct ServerShared {
    engine: Engine,
    /// The scheduler's clamped configuration, readable without the lock.
    config: ServerConfig,
    scheduler: Mutex<Scheduler<Job>>,
    /// Dispatchers park here while no request is dispatchable (queue empty,
    /// server paused, or every slot taken).
    work: Condvar,
}

impl ServerShared {
    fn new(engine: Engine, config: ServerConfig) -> Self {
        let scheduler = Scheduler::new(config);
        ServerShared {
            engine,
            config: scheduler.config(),
            scheduler: Mutex::new(scheduler),
            work: Condvar::new(),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "lock poisoning: a dispatcher already panicked; aborting beats scheduling from a half-mutated queue"
    )]
    fn lock(&self) -> MutexGuard<'_, Scheduler<Job>> {
        self.scheduler.lock().expect("server queue poisoned")
    }
}

/// A point-in-time snapshot of a server's traffic counters, as returned by
/// [`Server::stats`] for the whole server and by [`Server::stats_for`] for
/// one tenant (all zeros for a tenant the server has never seen). Every
/// field means the same in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests that finished with a [`QueryOutput`].
    pub completed: u64,
    /// Submissions rejected (queue full or shut down).
    pub rejected: u64,
    /// Admitted requests cancelled — while queued or mid-flight.
    pub cancelled: u64,
    /// Admitted requests dropped or aborted because their deadline expired.
    pub deadline_expired: u64,
    /// Admitted requests that failed planning or execution.
    pub failed: u64,
    /// Admitted requests whose execution panicked (contained per request).
    pub panicked: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: usize,
    /// Requests currently executing on dispatchers.
    pub running: usize,
    /// Cumulative submit-to-completion wall time over completed requests.
    pub total_wall: Duration,
    /// Queue-wait latency distribution over dispatched requests.
    pub queue_wait: LatencyStats,
    /// Execution-time distribution over completed requests.
    pub run_time: LatencyStats,
}

/// Owner of the dispatcher threads: joined at [`Server::shutdown`] or when
/// the last server handle drops.
struct ServerOwner {
    shared: Arc<ServerShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerOwner {
    fn shutdown(&self) {
        self.shared.lock().close();
        self.shared.work.notify_all();
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning: a dispatcher already panicked; aborting beats scheduling from a half-mutated queue"
        )]
        let handles = std::mem::take(&mut *self.handles.lock().expect("server queue poisoned"));
        for handle in handles {
            // Dispatchers contain request panics; the loop itself never
            // panics.
            #[expect(
                clippy::expect_used,
                reason = "deliberate panic propagation: shutdown re-raises a dispatcher's panic on the owner thread instead of swallowing it"
            )]
            handle.join().expect("server dispatcher panicked");
        }
    }
}

impl Drop for ServerOwner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The multi-tenant serving front end: priority- and deadline-aware
/// dispatch, per-tenant accounting, bounded-queue backpressure and
/// cancellable [`Ticket`]s.
/// Cloning a `Server` is a cheap handle copy; all clones share the queue,
/// dispatchers and counters. The dispatchers are joined at the first
/// [`Server::shutdown`] (or when the last handle drops).
#[derive(Clone)]
pub struct Server {
    shared: Arc<ServerShared>,
    owner: Arc<ServerOwner>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("config", &self.shared.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// Starts a server over an engine: spawns
    /// [`ServerConfig::max_concurrent_queries`] persistent dispatcher
    /// threads and begins accepting submissions immediately.
    pub fn new(engine: Engine, config: ServerConfig) -> Self {
        let shared = Arc::new(ServerShared::new(engine, config));
        #[expect(
            clippy::expect_used,
            reason = "startup-only: if the OS cannot spawn dispatcher threads the server cannot exist; fail construction loudly"
        )]
        let handles = (0..shared.config.max_concurrent_queries)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("bqo-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(shared))
                    .expect("spawning server dispatcher")
            })
            .collect();
        Server {
            owner: Arc::new(ServerOwner {
                shared: Arc::clone(&shared),
                handles: Mutex::new(handles),
            }),
            shared,
        }
    }

    /// The server's traffic-shaping configuration, every bound clamped to at
    /// least 1.
    pub fn config(&self) -> ServerConfig {
        self.shared.config
    }

    /// Submits a [`Request`] (built with [`Request::builder`]) for
    /// execution. Returns the request's [`Ticket`] immediately, or a
    /// [`SubmitError`] when admission control rejects it: the server is shut
    /// down or the queue is full.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let Request {
            statement,
            choice,
            tenant,
            priority,
            deadline,
            run,
        } = request;
        let submitted = Instant::now();
        // A deadline too far to represent as an instant is no deadline.
        let deadline = deadline.and_then(|d| submitted.checked_add(d));
        let cancel = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
        let ticket = Arc::new(TicketShared::default());
        let job = Job {
            statement,
            choice,
            run: run.with_cancel_token(cancel.clone()),
            ticket: Arc::clone(&ticket),
        };
        let id = self
            .shared
            .lock()
            .submit(submitted, tenant, priority, deadline, job)?;
        self.shared.work.notify_one();
        Ok(Ticket {
            shared: ticket,
            server: Arc::downgrade(&self.shared),
            id,
            cancel,
            deadline,
        })
    }

    /// Pauses dispatching: admitted requests stay queued (admission control —
    /// including [`SubmitError::QueueFull`] backpressure — remains active).
    /// An operational drain/maintenance switch; [`Server::resume`] restarts
    /// dispatching. Shutdown while paused still drains the queue.
    pub fn pause(&self) {
        self.shared.lock().set_paused(true);
    }

    /// Resumes dispatching after [`Server::pause`].
    pub fn resume(&self) {
        self.shared.lock().set_paused(false);
        self.shared.work.notify_all();
    }

    /// A point-in-time snapshot of the server's counters, occupancy and
    /// latency histograms.
    pub fn stats(&self) -> ServerStats {
        self.shared.lock().stats()
    }

    /// The same snapshot as [`Server::stats`] for one tenant's requests. A
    /// tenant the server has never seen reports all zeros.
    pub fn stats_for(&self, tenant: &str) -> ServerStats {
        self.shared.lock().tenant_stats(tenant)
    }

    /// Stops accepting new submissions, drains everything already queued,
    /// and joins the dispatcher threads. Idempotent; implied when the last
    /// server handle drops. Submissions after shutdown fail with
    /// [`SubmitError::ShutDown`].
    pub fn shutdown(&self) {
        self.owner.shutdown();
    }
}

/// One dispatcher: dispatches, runs and books requests until the server is
/// shut down and drained.
fn dispatcher_loop(shared: Arc<ServerShared>) {
    let mut scheduler = shared.lock();
    #[expect(
        clippy::expect_used,
        reason = "lock poisoning: a dispatcher already panicked; aborting beats scheduling from a half-mutated queue"
    )]
    loop {
        let Dispatch { expired, next } = scheduler.dispatch(Instant::now());
        for job in expired {
            job.ticket
                .resolve(Err(ServeError::DeadlineExceeded { partial: None }));
        }
        if let Some((running, job)) = next {
            drop(scheduler);
            // A completion wakes no other dispatcher: each runs one request
            // at a time, so a parked one waits for a submission, `resume`
            // or `close`, which notify it themselves.
            serve_one(&shared, running, job);
            scheduler = shared.lock();
        } else if scheduler.drained() {
            return;
        } else {
            scheduler = shared.work.wait(scheduler).expect("server queue poisoned");
        }
    }
}

/// Runs one dispatched request without the lock, books its outcome under
/// the lock, then resolves its ticket — in that order, so a waiter that sees
/// the request finished also sees it counted. The ticket resolves after the
/// lock is released: the woken client's next submit must not find the lock
/// still held by its waker.
fn serve_one(shared: &ServerShared, running: Running, job: Job) {
    // Contain panics to this request: the dispatcher thread (and the
    // engine's worker pool, which re-throws kernel panics on this thread)
    // must survive a malformed statement.
    let result = catch_unwind(AssertUnwindSafe(|| run_request(&shared.engine, &job)));
    let now = Instant::now();
    let (outcome, resolved) = match result {
        Ok(Ok(mut output)) => {
            output.queue_wait = running.queue_wait();
            output.total_wall = now.saturating_duration_since(running.submitted);
            (Outcome::Completed, Ok(output))
        }
        Ok(Err(mut e)) if e.is_cancelled() => {
            let partial = e.take_partial_metrics();
            let cancel = job.run.cancel.as_ref();
            if cancel.is_some_and(CancelToken::cancel_requested) {
                (Outcome::Cancelled, Err(ServeError::Cancelled { partial }))
            } else {
                let expired = ServeError::DeadlineExceeded { partial };
                (Outcome::DeadlineExpired, Err(expired))
            }
        }
        Ok(Err(e)) => (Outcome::Failed, Err(ServeError::Query(e))),
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            (Outcome::Panicked, Err(ServeError::Panicked(message)))
        }
    };
    shared.lock().finish(running, now, outcome);
    job.ticket.resolve(resolved);
}

/// Plans and executes one request on the dispatcher thread under its
/// [`RunOptions`] (cancel token included); [`serve_one`] stamps the output's
/// `queue_wait` and `total_wall`.
fn run_request(engine: &Engine, job: &Job) -> Result<QueryOutput, BqoError> {
    let choice = job.choice;
    let stmt = match &job.statement {
        Statement::Spec {
            spec,
            params: Some(params),
        } => engine.bind(spec, params, choice)?,
        Statement::Spec { spec, params: None } => engine.prepare(spec, choice)?,
        Statement::Sql {
            text,
            params: Some(params),
        } => engine.bind_sql(text, params, choice)?,
        Statement::Sql { text, params: None } => engine.prepare_sql(text, choice)?,
    };
    engine.session().execute(&stmt, job.run.clone())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The origin of the scheduler tests' hand-advanced clocks: `queue.rs`
    /// reads no clock, not even in its tests.
    pub(super) fn epoch() -> Instant {
        Instant::now()
    }

    fn assert_send_sync<T: Send + Sync + 'static>() {}

    #[test]
    fn serving_types_are_send_sync() {
        assert_send_sync::<Server>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<Request>();
        assert_send_sync::<ServerConfig>();
        assert_send_sync::<ServerStats>();
    }

    #[test]
    fn config_clamps_degenerate_values() {
        let config = ServerConfig::default()
            .with_max_concurrent_queries(0)
            .with_queue_capacity(0);
        assert_eq!(config.max_concurrent_queries, 1);
        assert_eq!(config.queue_capacity, 1);
    }

    #[test]
    fn errors_render_their_cause() {
        let full = SubmitError::QueueFull { capacity: 7 };
        assert!(full.to_string().contains('7'));
        assert!(SubmitError::ShutDown.to_string().contains("shut down"));
        assert!(SubmitError::InvalidRequest { reason: "nope" }
            .to_string()
            .contains("nope"));
        assert!(ServeError::Panicked("boom".into())
            .to_string()
            .contains("boom"));
        assert!(ServeError::Cancelled { partial: None }
            .to_string()
            .contains("cancelled"));
        assert!(ServeError::Cancelled {
            partial: Some(ExecutionMetrics::new())
        }
        .to_string()
        .contains("mid-execution"));
        assert!(ServeError::DeadlineExceeded { partial: None }
            .to_string()
            .contains("deadline"));
        assert!(ServeError::TimedOut.to_string().contains("imed out"));
        let query = ServeError::Query(BqoError::planning(
            "q",
            bqo_storage::StorageError::TableNotFound { table: "t".into() },
        ));
        assert!(query.to_string().contains("`q`"));
        use std::error::Error;
        assert!(query.source().is_some());
        assert!(ServeError::Cancelled { partial: None }.source().is_none());
    }

    #[test]
    fn request_builder_validates_its_input() {
        assert_eq!(
            Request::builder().build().unwrap_err(),
            SubmitError::InvalidRequest {
                reason: "a request needs a query"
            }
        );
        let spec = QuerySpec::new("q").table("t");
        let request = Request::builder()
            .query(&spec)
            .tenant("a")
            .priority(3)
            .deadline(Duration::from_secs(1))
            .build()
            .unwrap();
        assert_eq!(request.tenant.as_deref(), Some("a"));
        assert_eq!(request.priority, 3);
        assert_eq!(request.deadline, Some(Duration::from_secs(1)));
    }

    #[test]
    fn dispatch_order_prefers_priority_then_deadline_then_seq() {
        let config = ServerConfig::default().with_max_concurrent_queries(8);
        let mut scheduler = Scheduler::new(config);
        let now = Instant::now();
        let soon = Some(now + Duration::from_millis(10));
        let later = Some(now + Duration::from_secs(10));
        for (name, priority, deadline) in [
            ("none-1", 0, None),
            ("later", 0, later),
            ("none-2", 0, None),
            ("soon", 0, soon),
            ("high", 1, None),
        ] {
            scheduler
                .submit(now, None, priority, deadline, name)
                .unwrap();
        }
        // Higher priority wins regardless of order or deadline; at equal
        // priority the earlier deadline, and a deadline beats none; full
        // ties go in submission order.
        let order: Vec<&str> =
            std::iter::from_fn(|| scheduler.dispatch(now).next.map(|(_, name)| name)).collect();
        assert_eq!(order, ["high", "soon", "later", "none-1", "none-2"]);
    }

    /// The window `server_oracle::midflight_cancel_aborts_and_frees_the_slot`
    /// used to lose: a dispatcher has booked the request (`stats().running`
    /// counts it) but not started executing it. A cancel landing there must
    /// abort it as a running request — partial metrics, accounted by the
    /// dispatcher — not resolve it as never started.
    #[test]
    fn cancel_between_dispatch_and_execution_is_a_midflight_abort() {
        use bqo_workloads::{star, Scale};
        let engine = Engine::from_catalog(star::build_catalog(Scale(0.02), 2, 7));
        // No dispatcher threads: the test thread plays the dispatcher, so
        // the window stays open for as long as the cancel takes.
        let shared = Arc::new(ServerShared::new(engine, ServerConfig::default()));
        let server = Server {
            owner: Arc::new(ServerOwner {
                shared: Arc::clone(&shared),
                handles: Mutex::new(Vec::new()),
            }),
            shared,
        };
        let spec = star::build_query("windowed", 2, &[(0, 3)]);
        let ticket = server
            .submit(Request::builder().query(&spec).build().unwrap())
            .unwrap();
        let dispatched = server.shared.lock().dispatch(Instant::now()).next;
        let (running, job) = dispatched.expect("one request is queued");
        assert_eq!(server.stats().running, 1);

        assert!(ticket.cancel());
        assert!(
            ticket.try_wait().is_none(),
            "a running request resolves on its dispatcher"
        );
        assert_eq!(server.stats().cancelled, 0);

        serve_one(&server.shared, running, job);
        match ticket.try_wait() {
            Some(Err(ServeError::Cancelled { partial: Some(_) })) => {}
            other => panic!("expected a mid-flight cancel, got {other:?}"),
        }
        assert_eq!(server.stats().cancelled, 1);
    }

    #[test]
    fn latency_histogram_reports_sane_quantiles() {
        let mut h = queue::LatencyHistogram::default();
        assert_eq!(h.snapshot(), LatencyStats::default());
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        let stats = h.snapshot();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.max, Duration::from_millis(50));
        // 99% of samples sit in the 64–128µs bucket; p50/p95 report its
        // upper bound, p99 may reach into the outlier's bucket ceiling.
        assert_eq!(stats.p50, Duration::from_micros(128));
        assert_eq!(stats.p95, Duration::from_micros(128));
        assert!(stats.p99 >= stats.p95);
        assert!(stats.p99 <= Duration::from_micros(1 << 16));
        assert!(stats.mean >= Duration::from_micros(100));
        assert!(stats.mean <= Duration::from_millis(1));
    }

    #[test]
    fn panic_messages_are_extracted() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&"boom".to_string()), "boom");
        assert_eq!(panic_message(&42usize), "<non-string panic payload>");
    }
}
