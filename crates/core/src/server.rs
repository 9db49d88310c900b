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
//!   request with the highest [`QueryOptions::priority`], breaking ties by
//!   earliest deadline and then submission order (so equal-priority,
//!   deadline-free traffic is served first-in-first-out). At most
//!   [`ServerConfig::max_concurrent_queries`] statements execute at once (a
//!   fixed set of persistent dispatcher threads).
//! * **Per-tenant quotas.** With a [`ServerConfig::tenant_quota`], each named
//!   tenant is bounded in how many requests it may have queued
//!   ([`SubmitError::TenantQuotaExceeded`] at admission) and how many it may
//!   have running at once (enforced at dispatch — other tenants' requests
//!   are picked around a saturated tenant).
//! * **Deadlines.** A request with a [`QueryOptions::deadline`] that expires
//!   while still queued is dropped with [`ServeError::DeadlineExceeded`]
//!   before wasting pool time; one that expires mid-execution is aborted
//!   cooperatively within roughly one morsel, returning the partial
//!   [`bqo_exec::ExecutionMetrics`] it accumulated.
//! * **Bounded-queue backpressure.** The queue holds at most
//!   [`ServerConfig::queue_capacity`] pending requests; submissions beyond
//!   that are rejected immediately with [`SubmitError::QueueFull`].
//! * **Join-handle tickets with mid-flight cancellation.** [`Server::submit`]
//!   returns a [`Ticket`] that [`Ticket::wait`]s for the [`QueryOutput`].
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
//!   [`Server::stats_for`] reports the same per tenant.
//!
//! Execution itself goes through the engine like any session run: plans come
//! from the shared [`crate::PlanCache`], and parallel sections draw their
//! helper workers from the engine-owned persistent
//! [`bqo_exec::WorkerPool`] — dispatchers are the *query*-level concurrency
//! limit, the pool is the *morsel*-level one.
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

use crate::engine::{Engine, RunOptions};
use crate::{BqoError, CacheStatus, OptimizerChoice};
use bqo_exec::{Batch, CancelToken, ExecConfig, ExecutionMetrics, QueryResult};
use bqo_plan::{JoinGraph, Params, PhysicalPlan, QuerySpec};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Uniform per-tenant admission bounds (applied to every *named* tenant;
/// requests without a tenant are exempt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum requests a tenant may have waiting in the queue; submissions
    /// beyond this fail with [`SubmitError::TenantQuotaExceeded`]. Values
    /// below 1 are treated as 1.
    pub max_queued: usize,
    /// Maximum requests a tenant may have executing at once; further requests
    /// stay queued (other tenants are dispatched around them). Values below 1
    /// are treated as 1.
    pub max_concurrent: usize,
}

impl TenantQuota {
    /// A quota with both bounds (each clamped to at least 1).
    pub fn new(max_queued: usize, max_concurrent: usize) -> Self {
        TenantQuota {
            max_queued: max_queued.max(1),
            max_concurrent: max_concurrent.max(1),
        }
    }
}

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
    /// Default bound applied by [`Ticket::wait`]; `None` (the default) waits
    /// indefinitely. A timed-out wait leaves the request running — a later
    /// [`Ticket::wait_timeout`] can still collect the result.
    pub default_timeout: Option<Duration>,
    /// Per-tenant admission/concurrency bounds; `None` (the default) leaves
    /// tenants unbounded (global bounds still apply).
    pub tenant_quota: Option<TenantQuota>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_concurrent_queries: 4,
            queue_capacity: 128,
            default_timeout: None,
            tenant_quota: None,
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

    /// The same configuration with a default [`Ticket::wait`] timeout.
    pub fn with_default_timeout(mut self, timeout: Duration) -> Self {
        self.default_timeout = Some(timeout);
        self
    }

    /// The same configuration with a per-tenant quota.
    pub fn with_tenant_quota(mut self, quota: TenantQuota) -> Self {
        self.tenant_quota = Some(quota);
        self
    }
}

/// Per-request scheduling and execution options carried by a [`Request`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// The tenant this request is accounted to. Named tenants are subject to
    /// [`ServerConfig::tenant_quota`] and show up in [`Server::stats_for`];
    /// `None` is the anonymous tenant (unbounded, aggregated globally only).
    pub tenant: Option<String>,
    /// Scheduling priority — higher values dispatch first. Default 0.
    pub priority: i32,
    /// Relative deadline, measured from submission. A request still queued
    /// when it expires resolves to [`ServeError::DeadlineExceeded`] without
    /// executing; one caught mid-execution is aborted cooperatively.
    pub deadline: Option<Duration>,
    /// Collect the concatenated output rows into [`QueryOutput::rows`]
    /// (the differential-testing mode of the server oracle).
    pub collect_rows: bool,
    /// Execution-configuration override for this request; `None` uses the
    /// engine's default configuration.
    pub exec_config: Option<ExecConfig>,
}

/// One unit of work for [`Server::submit`]: what to run (a query spec with
/// optional parameters, or a hand-built plan), which optimizer plans it, and
/// its [`QueryOptions`]. Built with [`Request::builder`].
#[derive(Debug, Clone)]
pub struct Request {
    statement: Statement,
    choice: OptimizerChoice,
    options: QueryOptions,
}

impl Request {
    /// Starts building a request.
    pub fn builder() -> RequestBuilder {
        RequestBuilder::default()
    }

    /// The request's scheduling/execution options.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }
}

/// Builder for [`Request`] — the single submit surface of the server.
///
/// Exactly one statement source is required: [`RequestBuilder::query`] or
/// [`RequestBuilder::sql`] (each optionally with [`RequestBuilder::params`]),
/// or [`RequestBuilder::plan`].
#[derive(Debug)]
pub struct RequestBuilder {
    statement: Option<Statement>,
    params: Option<Params>,
    choice: OptimizerChoice,
    options: QueryOptions,
}

impl Default for RequestBuilder {
    fn default() -> Self {
        RequestBuilder {
            statement: None,
            params: None,
            choice: OptimizerChoice::Bqo,
            options: QueryOptions::default(),
        }
    }
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

    /// Runs a hand-built physical plan (e.g. a specific join order under
    /// study), labelled `name` in errors and stats. Replaces any previously
    /// set statement.
    pub fn plan(mut self, name: impl Into<String>, graph: JoinGraph, plan: PhysicalPlan) -> Self {
        self.statement = Some(Statement::Plan {
            name: name.into(),
            graph,
            plan,
        });
        self
    }

    /// Which optimizer plans a spec request (default
    /// [`OptimizerChoice::Bqo`]; ignored for plan requests).
    pub fn optimizer(mut self, choice: OptimizerChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Accounts the request to a named tenant (see [`QueryOptions::tenant`]).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.options.tenant = Some(tenant.into());
        self
    }

    /// Scheduling priority — higher dispatches first (default 0).
    pub fn priority(mut self, priority: i32) -> Self {
        self.options.priority = priority;
        self
    }

    /// Relative deadline, measured from submission (see
    /// [`QueryOptions::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.options.deadline = Some(deadline);
        self
    }

    /// Collects the concatenated output rows into [`QueryOutput::rows`].
    pub fn collect_rows(mut self) -> Self {
        self.options.collect_rows = true;
        self
    }

    /// Execution-configuration override for this request.
    pub fn exec_config(mut self, config: ExecConfig) -> Self {
        self.options.exec_config = Some(config);
        self
    }

    /// Validates and builds the [`Request`].
    pub fn build(self) -> Result<Request, SubmitError> {
        let statement = match (self.statement, self.params) {
            (None, _) => {
                return Err(SubmitError::InvalidRequest {
                    reason: "a request needs a query or a plan",
                })
            }
            (Some(Statement::Plan { .. }), Some(_)) => {
                return Err(SubmitError::InvalidRequest {
                    reason: "parameters apply only to query-spec requests",
                })
            }
            (Some(Statement::Spec { spec, .. }), params) => Statement::Spec { spec, params },
            (Some(Statement::Sql { text, .. }), params) => Statement::Sql { text, params },
            (Some(plan), None) => plan,
        };
        Ok(Request {
            statement,
            choice: self.choice,
            options: self.options,
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
    /// The request's tenant is at its [`TenantQuota::max_queued`] bound.
    TenantQuotaExceeded,
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
            SubmitError::TenantQuotaExceeded => {
                write!(f, "tenant is at its queued-request quota")
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
    /// The request's own [`QueryOptions::deadline`] expired — while queued
    /// (`partial` is `None`) or mid-execution (`partial` carries the work
    /// done before the abort).
    DeadlineExceeded {
        /// Metrics gathered before the abort, for requests aborted
        /// mid-execution.
        partial: Option<ExecutionMetrics>,
    },
    /// [`Ticket::wait`]'s bound elapsed before the request finished. The
    /// request keeps running; a later wait can still collect its result.
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

/// The result of one served request.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Row count and execution metrics.
    pub result: QueryResult,
    /// Concatenated output rows, when requested via
    /// [`QueryOptions::collect_rows`].
    pub rows: Option<Batch>,
    /// How the plan was obtained from the plan cache
    /// ([`CacheStatus::Bypassed`] for hand-built plan requests).
    pub cache_status: CacheStatus,
    /// Time the request spent queued before a dispatcher picked it up.
    pub queue_wait: Duration,
    /// Submit-to-completion wall time (queueing + planning + execution).
    pub total_wall: Duration,
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
    /// A hand-built physical plan (e.g. a specific join order under study).
    Plan {
        name: String,
        graph: JoinGraph,
        plan: PhysicalPlan,
    },
}

// One instance per ticket, behind its own Mutex: the size skew between the
// marker phases and the carried outcome is irrelevant here.
#[allow(clippy::large_enum_variant)]
enum TicketPhase {
    Queued,
    Running,
    Finished(Result<QueryOutput, ServeError>),
}

struct TicketShared {
    phase: Mutex<TicketPhase>,
    done: Condvar,
}

impl TicketShared {
    fn new() -> Self {
        TicketShared {
            phase: Mutex::new(TicketPhase::Queued),
            done: Condvar::new(),
        }
    }

    /// Marks the ticket running unless it already resolved (a cancel or
    /// expiry that has not yet removed its queue entry).
    fn start(&self) {
        let mut phase = self.phase.lock().expect("ticket poisoned");
        if matches!(*phase, TicketPhase::Queued) {
            *phase = TicketPhase::Running;
        }
    }

    /// Resolves the ticket unless it already is — the first outcome wins
    /// (e.g. a cancel racing the dispatcher's deadline sweep). Returns
    /// whether this call resolved it.
    fn finish(&self, outcome: Result<QueryOutput, ServeError>) -> bool {
        let mut phase = self.phase.lock().expect("ticket poisoned");
        if matches!(*phase, TicketPhase::Finished(_)) {
            return false;
        }
        *phase = TicketPhase::Finished(outcome);
        self.done.notify_all();
        true
    }
}

/// A join-handle for one submitted request: wait for the output (with an
/// optional bound), poll, or cancel it — queued *or* mid-flight. Dropping a
/// ticket detaches from the request — it still executes.
pub struct Ticket {
    shared: Arc<TicketShared>,
    default_timeout: Option<Duration>,
    /// Back-reference for [`Ticket::cancel`] and deadline-expiry resolution:
    /// a cancelled/expired queued request is removed from the server queue
    /// immediately, freeing its admission slot. Weak so outstanding tickets
    /// never keep a shut-down server alive.
    server: Weak<ServerShared>,
    /// The request's cancel token — fired by [`Ticket::cancel`] on a running
    /// request; execution notices at its next morsel claim or batch pull.
    cancel: CancelToken,
    /// The request's absolute deadline, if it has one.
    deadline: Option<Instant>,
    /// The request's tenant, for per-tenant accounting on cancel/expiry.
    tenant: Option<String>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl Ticket {
    /// Blocks until the request finishes and returns its output, honoring
    /// the server's [`ServerConfig::default_timeout`] (no bound when the
    /// server has none). Waiting repeatedly is fine — the outcome is
    /// retained, and a wait that returns [`ServeError::TimedOut`] leaves the
    /// request running.
    pub fn wait(&self) -> Result<QueryOutput, ServeError> {
        self.wait_deadline(self.default_timeout.map(|t| Instant::now() + t))
    }

    /// Blocks until the request finishes or `timeout` elapses. A request
    /// whose own deadline has already passed while still queued resolves to
    /// [`ServeError::DeadlineExceeded`] immediately instead of blocking for
    /// the full bound.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<QueryOutput, ServeError> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    fn wait_deadline(&self, deadline: Option<Instant>) -> Result<QueryOutput, ServeError> {
        let mut phase = self.shared.phase.lock().expect("ticket poisoned");
        loop {
            if let TicketPhase::Finished(outcome) = &*phase {
                return outcome.clone();
            }
            let queued = matches!(*phase, TicketPhase::Queued);
            // A queued request whose own deadline already passed can never
            // produce output — resolve it now instead of blocking the caller
            // (the dispatcher sweep would do the same at its next dispatch).
            if queued && self.deadline.is_some_and(|d| Instant::now() >= d) {
                let outcome = Err(ServeError::DeadlineExceeded { partial: None });
                *phase = TicketPhase::Finished(outcome.clone());
                self.shared.done.notify_all();
                drop(phase);
                self.discard_expired_entry();
                return outcome;
            }
            // Wake at the earlier of the caller's bound and (while queued)
            // the request's own deadline. A running request needs no
            // deadline wake-up: the executor aborts it via the cancel token
            // and the dispatcher resolves the ticket.
            let request_deadline = if queued { self.deadline } else { None };
            let wake = match (deadline, request_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            phase = match wake {
                None => self.shared.done.wait(phase).expect("ticket poisoned"),
                Some(wake) => {
                    let now = Instant::now();
                    if now >= wake {
                        if deadline.is_some_and(|d| now >= d) {
                            return Err(ServeError::TimedOut);
                        }
                        // Only the request's own deadline passed; the loop
                        // re-checks it and resolves the ticket.
                        continue;
                    }
                    self.shared
                        .done
                        .wait_timeout(phase, wake - now)
                        .expect("ticket poisoned")
                        .0
                }
            };
        }
    }

    /// The request's outcome if it already finished, without blocking.
    pub fn try_wait(&self) -> Option<Result<QueryOutput, ServeError>> {
        let phase = self.shared.phase.lock().expect("ticket poisoned");
        match &*phase {
            TicketPhase::Finished(outcome) => Some(outcome.clone()),
            _ => None,
        }
    }

    /// Whether the request has finished (successfully or not).
    pub fn is_finished(&self) -> bool {
        matches!(
            *self.shared.phase.lock().expect("ticket poisoned"),
            TicketPhase::Finished(_)
        )
    }

    /// Cancels the request. A *queued* request resolves to
    /// [`ServeError::Cancelled`] immediately and frees its admission slot. A
    /// *running* request is aborted cooperatively: its cancel token fires,
    /// execution stops within roughly one morsel, and the ticket resolves to
    /// [`ServeError::Cancelled`] carrying the partial metrics. Returns `true`
    /// if cancellation was initiated (or the abort is in flight), `false` if
    /// the request already finished.
    pub fn cancel(&self) -> bool {
        enum Was {
            Queued,
            Running,
        }
        let was = {
            let mut phase = self.shared.phase.lock().expect("ticket poisoned");
            match &*phase {
                TicketPhase::Finished(_) => return false,
                TicketPhase::Queued => {
                    *phase = TicketPhase::Finished(Err(ServeError::Cancelled { partial: None }));
                    self.shared.done.notify_all();
                    Was::Queued
                }
                TicketPhase::Running => Was::Running,
            }
        };
        match was {
            Was::Queued => {
                if let Some(server) = self.server.upgrade() {
                    {
                        let mut state = server.state.lock().expect("server queue poisoned");
                        state.remove_queued(&self.shared);
                    }
                    server.counters.cancelled.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                    if let Some(tenant) = self.tenant.as_deref() {
                        server
                            .tenant_cell(tenant)
                            .cancelled
                            .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                    }
                }
            }
            // The dispatcher owns the accounting for a mid-flight abort: it
            // resolves the ticket (with partial metrics) when execution
            // notices the token.
            Was::Running => self.cancel.cancel(),
        }
        true
    }

    /// Removes this ticket's entry from the server queue after its deadline
    /// was found expired by [`Ticket::wait_deadline`] (which already resolved
    /// the ticket).
    fn discard_expired_entry(&self) {
        if let Some(server) = self.server.upgrade() {
            {
                let mut state = server.state.lock().expect("server queue poisoned");
                state.remove_queued(&self.shared);
            }
            server
                .counters
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            if let Some(tenant) = self.tenant.as_deref() {
                server
                    .tenant_cell(tenant)
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            }
        }
    }
}

struct QueuedRequest {
    statement: Statement,
    choice: OptimizerChoice,
    options: QueryOptions,
    /// Absolute deadline derived from [`QueryOptions::deadline`] at
    /// submission.
    deadline: Option<Instant>,
    /// The request's cancel token (deadline baked in), cloned into the
    /// executor by the dispatcher.
    cancel: CancelToken,
    /// Submission sequence number — the FIFO tiebreak.
    seq: u64,
    ticket: Arc<TicketShared>,
    submitted: Instant,
}

/// Live queued/running counts for one tenant (entries are dropped when both
/// reach zero).
#[derive(Default)]
struct TenantUsage {
    queued: usize,
    running: usize,
}

struct QueueState {
    queue: VecDeque<QueuedRequest>,
    accepting: bool,
    paused: bool,
    running: usize,
    usage: HashMap<String, TenantUsage>,
    next_seq: u64,
}

impl QueueState {
    /// Books a request out of the queue without dispatching it
    /// (cancellation / deadline expiry).
    fn note_dequeued(&mut self, request: &QueuedRequest) {
        if let Some(tenant) = request.options.tenant.as_deref() {
            if let Some(usage) = self.usage.get_mut(tenant) {
                usage.queued = usage.queued.saturating_sub(1);
                if usage.queued == 0 && usage.running == 0 {
                    self.usage.remove(tenant);
                }
            }
        }
    }

    /// Books a request out of the queue and into execution.
    fn note_dispatched(&mut self, request: &QueuedRequest) {
        self.running += 1;
        if let Some(tenant) = request.options.tenant.as_deref() {
            let usage = self.usage.entry(tenant.to_string()).or_default();
            usage.queued = usage.queued.saturating_sub(1);
            usage.running += 1;
        }
    }

    /// Books a dispatched request's completion.
    fn note_finished(&mut self, tenant: Option<&str>) {
        self.running -= 1;
        if let Some(tenant) = tenant {
            if let Some(usage) = self.usage.get_mut(tenant) {
                usage.running = usage.running.saturating_sub(1);
                if usage.queued == 0 && usage.running == 0 {
                    self.usage.remove(tenant);
                }
            }
        }
    }

    /// Removes the queue entry owned by `ticket`, if still present, with
    /// usage bookkeeping.
    fn remove_queued(&mut self, ticket: &Arc<TicketShared>) {
        if let Some(pos) = self
            .queue
            .iter()
            .position(|r| Arc::ptr_eq(&r.ticket, ticket))
        {
            let request = self.queue.remove(pos).expect("position in bounds");
            self.note_dequeued(&request);
        }
    }
}

/// Fixed power-of-two-microsecond latency buckets with atomic counters:
/// `record` is lock-free, `snapshot` derives approximate p50/p95/p99 (each
/// reported as its bucket's upper bound).
struct LatencyHistogram {
    /// `buckets[b]` counts samples with `2^(b-1) <= micros < 2^b`
    /// (bucket 0: sub-microsecond; the last bucket is the overflow).
    buckets: [AtomicU64; LatencyHistogram::BUCKETS],
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl LatencyHistogram {
    /// 32 power-of-two buckets reach ~2^31 µs ≈ 36 minutes before clamping.
    const BUCKETS: usize = 32;

    fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    fn record(&self, sample: Duration) {
        let micros = u64::try_from(sample.as_micros()).unwrap_or(u64::MAX);
        let bucket = (64 - micros.leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
        let nanos = u64::try_from(sample.as_nanos()).unwrap_or(u64::MAX);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed); // ORDERING: running max over independent samples; relaxed suffices
    }

    fn snapshot(&self) -> LatencyStats {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed)) // ORDERING: stats snapshot read; a recent value suffices
            .collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return LatencyStats::default();
        }
        let quantile = |q: f64| -> Duration {
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (bucket, &n) in counts.iter().enumerate() {
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
            mean: Duration::from_nanos(self.total_nanos.load(Ordering::Relaxed) / count), // ORDERING: stats snapshot read; a recent value suffices
            max: Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed)), // ORDERING: stats snapshot read; a recent value suffices
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
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

#[derive(Default)]
struct ServerCounters {
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    total_wall_nanos: AtomicU64,
}

/// Monotonic per-tenant counters and histograms (live queued/running counts
/// come from the queue state).
struct TenantCell {
    admitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    failed: AtomicU64,
    queue_wait: LatencyHistogram,
    run_time: LatencyHistogram,
}

impl TenantCell {
    fn new() -> Self {
        TenantCell {
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            queue_wait: LatencyHistogram::new(),
            run_time: LatencyHistogram::new(),
        }
    }
}

struct ServerShared {
    engine: Engine,
    config: ServerConfig,
    state: Mutex<QueueState>,
    /// Dispatchers park here while no request is dispatchable (queue empty,
    /// server paused, or every queued tenant at its concurrency quota).
    work: Condvar,
    counters: ServerCounters,
    queue_wait: LatencyHistogram,
    run_time: LatencyHistogram,
    /// Per-tenant stats cells, created on first touch. Lock order: may be
    /// taken while holding `state`, never the other way around.
    tenants: Mutex<HashMap<String, Arc<TenantCell>>>,
}

impl ServerShared {
    fn new(engine: Engine, config: ServerConfig) -> Self {
        ServerShared {
            engine,
            config,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                accepting: true,
                paused: false,
                running: 0,
                usage: HashMap::new(),
                next_seq: 0,
            }),
            work: Condvar::new(),
            counters: ServerCounters::default(),
            queue_wait: LatencyHistogram::new(),
            run_time: LatencyHistogram::new(),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    fn tenant_cell(&self, tenant: &str) -> Arc<TenantCell> {
        let mut tenants = self.tenants.lock().expect("tenant stats poisoned");
        Arc::clone(
            tenants
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(TenantCell::new())),
        )
    }
}

/// A point-in-time snapshot of a server's traffic counters, as returned by
/// [`Server::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests that finished with a [`QueryOutput`].
    pub completed: u64,
    /// Submissions rejected (queue full, tenant quota, or shut down).
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

/// A point-in-time snapshot of one tenant's traffic, as returned by
/// [`Server::stats_for`]. Unknown tenants report all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Requests this tenant got admitted.
    pub admitted: u64,
    /// Requests that finished with a [`QueryOutput`].
    pub completed: u64,
    /// Submissions rejected by the tenant quota.
    pub rejected: u64,
    /// Requests cancelled — while queued or mid-flight.
    pub cancelled: u64,
    /// Requests dropped or aborted because their deadline expired.
    pub deadline_expired: u64,
    /// Requests that failed planning or execution.
    pub failed: u64,
    /// Requests currently waiting in the queue.
    pub queued: usize,
    /// Requests currently executing.
    pub running: usize,
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
        {
            let mut state = self.shared.state.lock().expect("server queue poisoned");
            state.accepting = false;
        }
        self.shared.work.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().expect("server queue poisoned"));
        for handle in handles {
            // Dispatchers contain request panics; the loop itself never
            // panics.
            handle.join().expect("server dispatcher panicked");
        }
    }
}

impl Drop for ServerOwner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The multi-tenant serving front end (see the [module docs](self)).
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
        let config = config
            .with_max_concurrent_queries(config.max_concurrent_queries)
            .with_queue_capacity(config.queue_capacity);
        let shared = Arc::new(ServerShared::new(engine, config));
        let handles = (0..config.max_concurrent_queries)
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

    /// The engine this server executes against.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// The server's traffic-shaping configuration.
    pub fn config(&self) -> ServerConfig {
        self.shared.config
    }

    /// Submits a [`Request`] (built with [`Request::builder`]) for
    /// execution. Returns the request's [`Ticket`] immediately, or a
    /// [`SubmitError`] when admission control rejects it: the server is shut
    /// down, the queue is full, or the request's tenant is at its
    /// [`TenantQuota::max_queued`] bound.
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let Request {
            statement,
            choice,
            options,
        } = request;
        let tenant = options.tenant.clone();
        let submitted = Instant::now();
        let deadline = options.deadline.map(|d| submitted + d);
        let cancel = match deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let ticket = Arc::new(TicketShared::new());
        {
            let mut state = self.shared.state.lock().expect("server queue poisoned");
            if !state.accepting {
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                return Err(SubmitError::ShutDown);
            }
            if state.queue.len() >= self.shared.config.queue_capacity {
                self.shared
                    .counters
                    .rejected
                    .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                return Err(SubmitError::QueueFull {
                    capacity: self.shared.config.queue_capacity,
                });
            }
            if let (Some(quota), Some(tenant)) =
                (&self.shared.config.tenant_quota, tenant.as_deref())
            {
                let queued = state.usage.get(tenant).map_or(0, |u| u.queued);
                if queued >= quota.max_queued {
                    self.shared
                        .counters
                        .rejected
                        .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                    self.shared
                        .tenant_cell(tenant)
                        .rejected
                        .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                    return Err(SubmitError::TenantQuotaExceeded);
                }
            }
            let seq = state.next_seq;
            state.next_seq += 1;
            if let Some(tenant) = tenant.as_deref() {
                state.usage.entry(tenant.to_string()).or_default().queued += 1;
            }
            state.queue.push_back(QueuedRequest {
                statement,
                choice,
                options,
                deadline,
                cancel: cancel.clone(),
                seq,
                ticket: Arc::clone(&ticket),
                submitted,
            });
            self.shared
                .counters
                .admitted
                .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            if let Some(tenant) = tenant.as_deref() {
                self.shared
                    .tenant_cell(tenant)
                    .admitted
                    .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            }
        }
        self.shared.work.notify_one();
        Ok(Ticket {
            shared: ticket,
            default_timeout: self.shared.config.default_timeout,
            server: Arc::downgrade(&self.shared),
            cancel,
            deadline,
            tenant,
        })
    }

    /// Pauses dispatching: admitted requests stay queued (admission control —
    /// including [`SubmitError::QueueFull`] backpressure — remains active).
    /// An operational drain/maintenance switch; [`Server::resume`] restarts
    /// dispatching. Shutdown while paused still drains the queue.
    pub fn pause(&self) {
        let mut state = self.shared.state.lock().expect("server queue poisoned");
        state.paused = true;
    }

    /// Resumes dispatching after [`Server::pause`].
    pub fn resume(&self) {
        {
            let mut state = self.shared.state.lock().expect("server queue poisoned");
            state.paused = false;
        }
        self.shared.work.notify_all();
    }

    /// A point-in-time snapshot of the server's counters, occupancy and
    /// latency histograms.
    pub fn stats(&self) -> ServerStats {
        let (queue_depth, running) = {
            let state = self.shared.state.lock().expect("server queue poisoned");
            (state.queue.len(), state.running)
        };
        let c = &self.shared.counters;
        ServerStats {
            admitted: c.admitted.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
            completed: c.completed.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
            rejected: c.rejected.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
            cancelled: c.cancelled.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
            failed: c.failed.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
            panicked: c.panicked.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
            queue_depth,
            running,
            total_wall: Duration::from_nanos(c.total_wall_nanos.load(Ordering::Relaxed)), // ORDERING: stats snapshot read; a recent value suffices
            queue_wait: self.shared.queue_wait.snapshot(),
            run_time: self.shared.run_time.snapshot(),
        }
    }

    /// A point-in-time snapshot of one tenant's counters, occupancy and
    /// latency histograms. A tenant the server has never seen reports all
    /// zeros.
    pub fn stats_for(&self, tenant: &str) -> TenantStats {
        let (queued, running) = {
            let state = self.shared.state.lock().expect("server queue poisoned");
            state
                .usage
                .get(tenant)
                .map_or((0, 0), |u| (u.queued, u.running))
        };
        let cell = {
            let tenants = self.shared.tenants.lock().expect("tenant stats poisoned");
            tenants.get(tenant).cloned()
        };
        match cell {
            Some(cell) => TenantStats {
                admitted: cell.admitted.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
                completed: cell.completed.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
                rejected: cell.rejected.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
                cancelled: cell.cancelled.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
                deadline_expired: cell.deadline_expired.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
                failed: cell.failed.load(Ordering::Relaxed), // ORDERING: stats snapshot read; a recent value suffices
                queued,
                running,
                queue_wait: cell.queue_wait.snapshot(),
                run_time: cell.run_time.snapshot(),
            },
            None => TenantStats {
                queued,
                running,
                ..TenantStats::default()
            },
        }
    }

    /// Stops accepting new submissions, drains everything already queued,
    /// and joins the dispatcher threads. Idempotent; implied when the last
    /// server handle drops. Submissions after shutdown fail with
    /// [`SubmitError::ShutDown`].
    pub fn shutdown(&self) {
        self.owner.shutdown();
    }
}

/// Resolves and removes every queued request whose deadline has passed.
/// Called under the state lock at each dispatch.
fn expire_queued(shared: &ServerShared, state: &mut QueueState) {
    let now = Instant::now();
    let mut i = 0;
    while i < state.queue.len() {
        if state.queue[i].deadline.is_some_and(|d| d <= now) {
            let request = state.queue.remove(i).expect("index in bounds");
            state.note_dequeued(&request);
            // finish() may lose to a concurrent cancel or a waiter's own
            // expiry check; whoever wins books the counter.
            if request
                .ticket
                .finish(Err(ServeError::DeadlineExceeded { partial: None }))
            {
                shared
                    .counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                if let Some(tenant) = request.options.tenant.as_deref() {
                    shared
                        .tenant_cell(tenant)
                        .deadline_expired
                        .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                }
            }
        } else {
            i += 1;
        }
    }
}

/// Index of the next dispatchable queued request — the eligible one that
/// [`beats`] every other — or `None` when nothing is eligible (empty queue or
/// every queued tenant at its concurrency quota).
fn pick_next(config: &ServerConfig, state: &QueueState) -> Option<usize> {
    let eligible = |request: &QueuedRequest| -> bool {
        match (&config.tenant_quota, request.options.tenant.as_deref()) {
            (Some(quota), Some(tenant)) => state
                .usage
                .get(tenant)
                .is_none_or(|u| u.running < quota.max_concurrent),
            _ => true,
        }
    };
    let mut best: Option<(usize, &QueuedRequest)> = None;
    for (i, request) in state.queue.iter().enumerate() {
        if !eligible(request) {
            continue;
        }
        let beats = match best {
            None => true,
            Some((_, cur)) => beats(request, cur),
        };
        if beats {
            best = Some((i, request));
        }
    }
    best.map(|(i, _)| i)
}

/// Whether `a` should dispatch before `b`: higher priority, then earlier
/// deadline (no deadline sorts last), then submission order.
fn beats(a: &QueuedRequest, b: &QueuedRequest) -> bool {
    if a.options.priority != b.options.priority {
        return a.options.priority > b.options.priority;
    }
    match (a.deadline, b.deadline) {
        (Some(da), Some(db)) if da != db => da < db,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        _ => a.seq < b.seq,
    }
}

/// Blocks until a queued request is dispatchable and books it into
/// execution; `None` once the server is shut down and drained.
fn next_request(shared: &ServerShared) -> Option<QueuedRequest> {
    let mut state = shared.state.lock().expect("server queue poisoned");
    loop {
        // A paused server holds requests in the queue — unless it is
        // shutting down, in which case draining wins.
        if !state.paused || !state.accepting {
            expire_queued(shared, &mut state);
            if let Some(index) = pick_next(&shared.config, &state) {
                let request = state.queue.remove(index).expect("picked index exists");
                state.note_dispatched(&request);
                // Flipped under the queue lock (lock order queue → ticket):
                // once `stats().running` counts the request, a cancel finds
                // it `Running` and aborts it mid-flight with its metrics
                // instead of resolving it as never started.
                request.ticket.start();
                return Some(request);
            }
            if !state.accepting && state.queue.is_empty() {
                return None;
            }
        }
        state = shared.work.wait(state).expect("server queue poisoned");
    }
}

fn dispatcher_loop(shared: Arc<ServerShared>) {
    while let Some(request) = next_request(&shared) {
        let tenant = request.options.tenant.clone();
        serve_one(&shared, request);
        {
            let mut state = shared.state.lock().expect("server queue poisoned");
            state.note_finished(tenant.as_deref());
        }
        // A completion may unblock a quota-gated tenant (and, at shutdown,
        // lets draining dispatchers re-check for exit).
        shared.work.notify_all();
    }
}

/// Executes one dequeued request and resolves its ticket.
fn serve_one(shared: &ServerShared, request: QueuedRequest) {
    if matches!(
        *request.ticket.phase.lock().expect("ticket poisoned"),
        TicketPhase::Finished(_)
    ) {
        // Cancelled/expired before the dispatcher popped its queue entry:
        // the ticket is already resolved (and accounted by whoever resolved
        // it).
        return;
    }
    let queue_wait = request.submitted.elapsed();
    shared.queue_wait.record(queue_wait);
    let tenant_cell = request
        .options
        .tenant
        .as_deref()
        .map(|t| shared.tenant_cell(t));
    if let Some(cell) = &tenant_cell {
        cell.queue_wait.record(queue_wait);
    }
    let run_start = Instant::now();
    // Contain panics to this request: the dispatcher thread (and the
    // engine's worker pool, which re-throws kernel panics on this thread)
    // must survive a malformed statement.
    let outcome = match catch_unwind(AssertUnwindSafe(|| run_request(shared, &request))) {
        Ok(Ok(mut output)) => {
            output.queue_wait = queue_wait;
            output.total_wall = request.submitted.elapsed();
            let run_time = run_start.elapsed();
            shared.run_time.record(run_time);
            shared.counters.completed.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            shared.counters.total_wall_nanos.fetch_add(
                u64::try_from(output.total_wall.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed, // ORDERING: monotonic stats counter; needs no synchronization
            );
            if let Some(cell) = &tenant_cell {
                cell.completed.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                cell.run_time.record(run_time);
            }
            Ok(output)
        }
        Ok(Err(mut e)) if e.is_cancelled() => {
            let partial = e.take_partial_metrics();
            if request.cancel.cancel_requested() {
                shared.counters.cancelled.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                if let Some(cell) = &tenant_cell {
                    cell.cancelled.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                }
                Err(ServeError::Cancelled { partial })
            } else {
                shared
                    .counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                if let Some(cell) = &tenant_cell {
                    cell.deadline_expired.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
                }
                Err(ServeError::DeadlineExceeded { partial })
            }
        }
        Ok(Err(e)) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            if let Some(cell) = &tenant_cell {
                cell.failed.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            }
            Err(ServeError::Query(e))
        }
        Err(payload) => {
            shared.counters.panicked.fetch_add(1, Ordering::Relaxed); // ORDERING: monotonic stats counter; needs no synchronization
            Err(ServeError::Panicked(panic_message(payload.as_ref())))
        }
    };
    request.ticket.finish(outcome);
}

/// Plans and executes one request on the dispatcher thread, observing the
/// request's cancel token throughout execution.
fn run_request(shared: &ServerShared, request: &QueuedRequest) -> Result<QueryOutput, BqoError> {
    let engine = &shared.engine;
    let choice = request.choice;
    let stmt = match &request.statement {
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
        Statement::Plan { name, graph, plan } => {
            engine.prepare_plan(name, graph.clone(), plan.clone())
        }
    };
    let options = RunOptions {
        exec_config: request.options.exec_config,
        collect_rows: request.options.collect_rows,
        cancel: Some(request.cancel.clone()),
    };
    let out = engine.session().execute(&stmt, options)?;
    Ok(QueryOutput {
        result: out.result,
        rows: out.rows,
        cache_status: out.cache_status,
        queue_wait: Duration::ZERO,
        total_wall: Duration::ZERO,
    })
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

    #[allow(dead_code)]
    fn assert_send_sync<T: Send + Sync + 'static>() {}

    #[test]
    fn serving_types_are_send_sync() {
        assert_send_sync::<Server>();
        assert_send_sync::<Ticket>();
        assert_send_sync::<Request>();
        assert_send_sync::<ServerConfig>();
        assert_send_sync::<ServerStats>();
        assert_send_sync::<TenantStats>();
    }

    #[test]
    fn config_clamps_degenerate_values() {
        let config = ServerConfig::default()
            .with_max_concurrent_queries(0)
            .with_queue_capacity(0);
        assert_eq!(config.max_concurrent_queries, 1);
        assert_eq!(config.queue_capacity, 1);
        assert_eq!(config.default_timeout, None);
        assert_eq!(config.tenant_quota, None);
        let config = config
            .with_default_timeout(Duration::from_millis(5))
            .with_tenant_quota(TenantQuota::new(0, 0));
        assert_eq!(config.default_timeout, Some(Duration::from_millis(5)));
        assert_eq!(config.tenant_quota, Some(TenantQuota::new(1, 1)));
    }

    #[test]
    fn errors_render_their_cause() {
        let full = SubmitError::QueueFull { capacity: 7 };
        assert!(full.to_string().contains('7'));
        assert!(SubmitError::ShutDown.to_string().contains("shut down"));
        assert!(SubmitError::TenantQuotaExceeded
            .to_string()
            .contains("quota"));
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
                reason: "a request needs a query or a plan"
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
        assert_eq!(request.options().tenant.as_deref(), Some("a"));
        assert_eq!(request.options().priority, 3);
        assert_eq!(request.options().deadline, Some(Duration::from_secs(1)));
        // Params on a plan request are rejected.
        let graph = JoinGraph::new();
        let plan =
            PhysicalPlan::from_join_tree(&graph, &bqo_plan::JoinTree::Leaf(bqo_plan::RelId(0)));
        let err = Request::builder()
            .plan("p", graph, plan)
            .params(&Params::new())
            .build()
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidRequest { .. }));
    }

    #[test]
    fn dispatch_order_prefers_priority_then_deadline_then_seq() {
        fn queued(priority: i32, deadline: Option<Instant>, seq: u64) -> QueuedRequest {
            QueuedRequest {
                statement: Statement::Spec {
                    spec: QuerySpec::new("q").table("t"),
                    params: None,
                },
                choice: OptimizerChoice::Bqo,
                options: QueryOptions {
                    priority,
                    ..QueryOptions::default()
                },
                deadline,
                cancel: CancelToken::new(),
                seq,
                ticket: Arc::new(TicketShared::new()),
                submitted: Instant::now(),
            }
        }
        let now = Instant::now();
        let soon = now + Duration::from_millis(10);
        let later = now + Duration::from_secs(10);
        // Higher priority wins regardless of order or deadline.
        assert!(beats(&queued(1, None, 5), &queued(0, Some(soon), 1)));
        // Same priority: earlier deadline wins; a deadline beats none.
        assert!(beats(&queued(0, Some(soon), 5), &queued(0, Some(later), 1)));
        assert!(beats(&queued(0, Some(later), 5), &queued(0, None, 1)));
        // Full tie: submission order.
        assert!(beats(&queued(0, None, 1), &queued(0, None, 2)));
        assert!(!beats(&queued(0, None, 2), &queued(0, None, 1)));
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
        let request = next_request(&server.shared).expect("one request is queued");
        assert_eq!(server.stats().running, 1);

        assert!(ticket.cancel());
        assert!(
            !ticket.is_finished(),
            "a running request resolves on its dispatcher"
        );
        assert_eq!(server.stats().cancelled, 0);

        serve_one(&server.shared, request);
        match ticket.try_wait() {
            Some(Err(ServeError::Cancelled { partial: Some(_) })) => {}
            other => panic!("expected a mid-flight cancel, got {other:?}"),
        }
        assert_eq!(server.stats().cancelled, 1);
    }

    #[test]
    fn latency_histogram_reports_sane_quantiles() {
        let h = LatencyHistogram::new();
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
