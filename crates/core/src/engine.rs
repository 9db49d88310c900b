//! The serving-grade `Engine` facade: a cheaply shareable handle over the
//! catalog, the engine's own selectivity-aware plan cache, owned prepared
//! statements and lightweight execution sessions.
//!
//! ```text
//! Engine (Arc-internal, Clone + Send + Sync)
//!   ├── plan_cache().cache_stats()      -> CacheStats         (the cache's one read path)
//!   ├── prepare(spec, choice)           -> PreparedStatement  (owned, 'static)
//!   ├── bind(spec, params, choice)      -> PreparedStatement  (via PlanCache)
//!   ├── prepare_sql(sql, choice)        -> PreparedStatement  (SQL text, via PlanCache)
//!   ├── bind_sql(sql, params, choice)   -> PreparedStatement  (SQL template, via PlanCache)
//!   ├── prepare_plan(name, graph, plan) -> PreparedStatement  (hand-built, no cache)
//!   └── session() -> Session ── execute(&stmt, RunOptions) -> QueryOutput
//! ```

use crate::cache::{CacheStatus, PlanCache};
use crate::{BqoError, OptimizerChoice};
use bqo_bitvector::FilterKind;
use bqo_exec::{
    Batch, CancelToken, ExecConfig, ExecContext, ExecutionMetrics, QueryResult, WorkerPool,
};
use bqo_optimizer::{BaselineOptimizer, BqoOptimizer, Optimizer};
use bqo_plan::{CostModel, CoutBreakdown, JoinGraph, Params, PhysicalPlan, QuerySpec};
use bqo_storage::{Catalog, ForeignKey, Table};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Minimum effective parallelism the engine's worker pool is sized for when
/// the builder does not pin an explicit [`EngineBuilder::worker_threads`]:
/// the pool gets `max(available_parallelism, 4) - 1` helper threads, so
/// per-run `num_threads` overrides up to at least 4 (and up to the hardware
/// width) are served by parked pool workers instead of running inline.
const MIN_DEFAULT_PARALLELISM: usize = 4;

/// Default helper-worker count for an engine pool on `hardware` threads
/// (see [`MIN_DEFAULT_PARALLELISM`]). The calling thread always participates
/// as worker 0, hence the `- 1`. No `num_threads` sizes it: a run asking for
/// more threads than the pool has runs with fewer helpers, bit-identically.
fn default_pool_workers(hardware: usize) -> usize {
    hardware.max(MIN_DEFAULT_PARALLELISM) - 1
}

#[derive(Debug)]
struct EngineInner {
    catalog: Catalog,
    exec_config: ExecConfig,
    /// The engine's own plan cache: no other engine reaches it, so its keys
    /// need not name the catalog.
    cache: PlanCache,
    /// Helper-thread count of the engine-owned worker pool.
    pool_workers: usize,
    /// The persistent worker pool serving the scans' parallel section in every
    /// session (and every `Server` dispatcher) of this engine. Spawned
    /// lazily on the first parallel run, so serial-only engines never start
    /// threads; shut down (threads joined) when the engine's last clone
    /// drops.
    pool: OnceLock<WorkerPool>,
}

/// The unified query engine: a catalog, a default execution configuration and
/// its plan cache behind one `Arc` — cloning an `Engine` is a reference-count
/// bump, and every clone, session and thread resolves through the same cache.
///
/// Construct one with [`Engine::builder`] (or [`Engine::from_catalog`] when a
/// workload generator already produced the catalog), then turn a
/// [`QuerySpec`] into an owned [`PreparedStatement`] with [`Engine::prepare`]
/// (literal queries) or [`Engine::bind`] (parameterized queries), and execute
/// it through a [`Session`]:
///
/// ```
/// use bqo_core::{Engine, OptimizerChoice, RunOptions};
/// use bqo_core::workloads::{star, Scale};
///
/// let workload = star::generate(Scale(0.02), 3, 1, 42);
/// let engine = Engine::builder().catalog(workload.catalog).build().unwrap();
/// let session = engine.session();
/// let stmt = engine
///     .prepare(&workload.queries[0], OptimizerChoice::Bqo)
///     .unwrap();
/// let out = session.execute(&stmt, RunOptions::new()).unwrap();
/// assert!(out.result.output_rows > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Wraps an existing catalog (e.g. one produced by the workload
    /// generators) with the default execution configuration and a fresh plan
    /// cache.
    pub fn from_catalog(catalog: Catalog) -> Self {
        Engine::new(Engine::builder().catalog(catalog))
    }

    /// The one constructor, over a builder whose constraints are declared.
    fn new(b: EngineBuilder) -> Self {
        let pool_workers = b.worker_threads.unwrap_or_else(|| {
            default_pool_workers(std::thread::available_parallelism().map_or(1, |p| p.get()))
        });
        Engine {
            inner: Arc::new(EngineInner {
                catalog: b.catalog,
                exec_config: b.exec_config,
                cache: PlanCache::new(),
                pool_workers,
                pool: OnceLock::new(),
            }),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// The engine's default execution configuration.
    pub fn exec_config(&self) -> ExecConfig {
        self.inner.exec_config
    }

    /// The plan cache serving [`Engine::prepare`] and [`Engine::bind`]; read
    /// its counters and occupancy with [`PlanCache::cache_stats`].
    pub fn plan_cache(&self) -> &PlanCache {
        &self.inner.cache
    }

    /// The engine-owned persistent [`WorkerPool`] backing every parallel
    /// section run through this engine's sessions. Spawned lazily on first
    /// use; its threads are joined when the engine's last clone drops.
    /// Cloning the returned handle is cheap and shares the workers.
    pub fn worker_pool(&self) -> &WorkerPool {
        self.inner
            .pool
            .get_or_init(|| WorkerPool::new(self.inner.pool_workers))
    }

    /// Opens a session. Sessions are cheap (an `Arc` clone) — open one per
    /// thread or per request.
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
        }
    }

    /// Resolves and optimizes a literal (fully bound) query into an owned
    /// [`PreparedStatement`], consulting the plan cache.
    ///
    /// Parameterized specs must go through [`Engine::bind`]; preparing one
    /// directly is a planning error naming the first unbound parameter.
    pub fn prepare(
        &self,
        query: &QuerySpec,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        self.prepare_fingerprinted(query, query.fingerprint(), choice)
    }

    /// Parses and binds a SQL `SELECT` against this engine's catalog,
    /// returning the lowered [`QuerySpec`] (see [`bqo_sql`] for the
    /// supported grammar). Lexer/parser/binder errors surface as planning
    /// errors carrying the caret diagnostic (or the structured
    /// table/column/type variant) and the query text as the label.
    pub fn parse_sql(&self, sql: &str) -> Result<QuerySpec, BqoError> {
        bqo_sql::lower(sql, &self.inner.catalog)
            .map_err(|e| BqoError::planning(bqo_sql::query_label(sql), e.to_storage()))
    }

    /// Parses, binds and prepares a literal SQL query — the SQL face of
    /// [`Engine::prepare`]. The plan cache is consulted under the lowered
    /// spec's canonical fingerprint, so the same query modulo literal
    /// order (reordered predicates, swapped join sides, shuffled joins)
    /// hits the same cache entry. Parameterized SQL (`$name` placeholders)
    /// must go through [`Engine::bind_sql`].
    pub fn prepare_sql(
        &self,
        sql: &str,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let spec = self.parse_sql(sql)?;
        let mut stmt = self.prepare(&spec, choice)?;
        stmt.sql = Some(sql.to_string());
        Ok(stmt)
    }

    /// Parses a parameterized SQL template and binds it with `params` — the
    /// SQL face of [`Engine::bind`]: selectivities are re-derived from the
    /// bound literals and the plan cache is consulted under the *template*
    /// fingerprint, so repeated binds of one SQL template share a cache
    /// entry.
    pub fn bind_sql(
        &self,
        sql: &str,
        params: &Params,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let spec = self.parse_sql(sql)?;
        let mut stmt = self.bind(&spec, params, choice)?;
        stmt.sql = Some(sql.to_string());
        Ok(stmt)
    }

    /// Binds a parameterized query and prepares it: placeholders are
    /// substituted from `params`, per-relation cardinalities and
    /// selectivities are re-derived from catalog statistics for the bound
    /// values, and the plan cache is consulted under the *template*
    /// fingerprint — so repeated binds of one template share a cache entry,
    /// and a bind whose selectivities leave the stored envelope transparently
    /// re-optimizes (see [`PlanCache`]).
    pub fn bind(
        &self,
        query: &QuerySpec,
        params: &Params,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let bound = query
            .bind(params)
            .map_err(|e| BqoError::planning(&query.name, e))?;
        self.prepare_fingerprinted(&bound, query.fingerprint(), choice)
    }

    fn prepare_fingerprinted(
        &self,
        bound: &QuerySpec,
        fingerprint: String,
        choice: OptimizerChoice,
    ) -> Result<PreparedStatement, BqoError> {
        let graph = bound
            .to_join_graph(&self.inner.catalog)
            .map_err(|e| BqoError::planning(&bound.name, e))?;
        let key = format!("{}|{fingerprint}", choice.display_label());
        let (plan, cache_status) = self
            .inner
            .cache
            .resolve(&key, &graph, || optimize(&graph, choice));
        // The cached plan may have been optimized for different (in-envelope)
        // selectivities; the cost estimate is always re-derived for *this*
        // bind's statistics — a cheap model evaluation, not an optimizer run.
        let estimated_cost = CostModel::new(&graph).cout_physical(&plan);
        Ok(PreparedStatement {
            name: bound.name.clone(),
            graph,
            plan,
            estimated_cost,
            cache_status,
            default_exec: self.inner.exec_config,
            sql: None,
        })
    }

    /// Wraps a hand-built physical plan (e.g. a specific join order under
    /// study, as in the Figure 2 experiment) as a [`PreparedStatement`], so it
    /// executes through [`Session::execute`] like any optimized statement.
    /// Neither the optimizer nor the plan cache is consulted
    /// ([`CacheStatus::Bypassed`]); `name` labels execution errors and the
    /// cost estimate is the bitvector-aware `Cout` of `plan` over `graph`.
    ///
    /// # Panics
    ///
    /// If `plan` has no root: costing walks the plan exactly as executing it
    /// would.
    pub fn prepare_plan(
        &self,
        name: impl Into<String>,
        graph: JoinGraph,
        plan: PhysicalPlan,
    ) -> PreparedStatement {
        let estimated_cost = CostModel::new(&graph).cout_physical(&plan);
        PreparedStatement {
            name: name.into(),
            graph,
            plan: Arc::new(plan),
            estimated_cost,
            cache_status: CacheStatus::Bypassed,
            default_exec: self.inner.exec_config,
            sql: None,
        }
    }
}

/// Runs the chosen optimizer over a resolved join graph.
fn optimize(graph: &JoinGraph, choice: OptimizerChoice) -> PhysicalPlan {
    match choice {
        OptimizerChoice::Baseline => BaselineOptimizer::new().optimize(graph),
        OptimizerChoice::BaselineNoBitvectors => {
            BaselineOptimizer::without_bitvectors().optimize(graph)
        }
        OptimizerChoice::Bqo => BqoOptimizer::new().optimize(graph),
        OptimizerChoice::BqoWithThreshold(t) => BqoOptimizer::with_threshold(t).optimize(graph),
    }
}

/// Renders a row-count knob, showing `usize::MAX` as "unbatched".
fn render_rows(n: usize) -> String {
    if n == usize::MAX {
        "unbatched".to_string()
    } else {
        n.to_string()
    }
}

/// Renders the execution-configuration line appended to EXPLAIN output:
/// every [`ExecConfig`] field, in declaration order.
fn render_exec_config(config: ExecConfig) -> String {
    let filter = match config.filter_kind {
        FilterKind::Bitmap => "bitmap".to_string(),
        FilterKind::Exact => "exact".to_string(),
        FilterKind::Bloom { bits_per_key } => format!("bloom({bits_per_key})"),
        FilterKind::BlockedBloom { bits_per_key } => format!("blocked_bloom({bits_per_key})"),
    };
    let kernels = match config.kernel_mode {
        bqo_exec::KernelMode::Vectorized => "vectorized",
        bqo_exec::KernelMode::Scalar => "scalar",
    };
    format!(
        "execution: filter={filter}, batch_size={}, num_threads={}, kernels={kernels}\n",
        render_rows(config.batch_size),
        config.num_threads,
    )
}

/// Renders the storage-counter line appended to EXPLAIN ANALYZE output:
/// chunks read vs pruned by zone maps (with the pruning ratio) and bytes
/// fetched. Purely in-memory plans report zero chunks.
fn render_storage_counters(metrics: &ExecutionMetrics) -> String {
    format!(
        "storage: chunks_read={}, chunks_pruned={} (pruned {:.1}%), bytes_read={}\n",
        metrics.chunks_read,
        metrics.chunks_pruned,
        metrics.chunk_pruning_ratio() * 100.0,
        metrics.bytes_read
    )
}

/// Builder for [`Engine`]: registers tables and constraints, sets the
/// execution configuration and the worker-pool size, and validates
/// everything at [`EngineBuilder::build`]. Every engine gets its own plan
/// cache of 256 plans.
#[derive(Debug, Default)]
pub struct EngineBuilder {
    catalog: Catalog,
    exec_config: ExecConfig,
    worker_threads: Option<usize>,
    primary_keys: Vec<(String, String)>,
    foreign_keys: Vec<ForeignKey>,
}

impl EngineBuilder {
    /// Uses an existing catalog as the starting point.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Registers a table.
    pub fn table(mut self, table: Table) -> Self {
        self.catalog.register_table(table);
        self
    }

    /// Declares a primary key (drives PKFK join detection). Validated at
    /// [`EngineBuilder::build`].
    pub fn primary_key(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.primary_keys.push((table.into(), column.into()));
        self
    }

    /// Declares a foreign key. Validated at [`EngineBuilder::build`].
    pub fn foreign_key(mut self, fk: ForeignKey) -> Self {
        self.foreign_keys.push(fk);
        self
    }

    /// Sets the execution configuration (filter kind, batch size,
    /// worker-thread count, kernel mode).
    pub fn exec_config(mut self, config: ExecConfig) -> Self {
        self.exec_config = config;
        self
    }

    /// Pins the engine's persistent worker pool to exactly `threads` helper
    /// threads (the calling thread always participates as worker 0 on top).
    /// Without this, the pool is sized to `max(available_parallelism, 4) - 1`
    /// whatever the default `num_threads` asks for. `0` disables
    /// the pool: every scan runs inline on the calling thread,
    /// whatever `num_threads` a run asks for.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads);
        self
    }

    /// Validates the declared constraints and builds the engine.
    pub fn build(mut self) -> Result<Engine, BqoError> {
        for (table, column) in &self.primary_keys {
            self.catalog
                .declare_primary_key(table, column)
                .map_err(BqoError::setup)?;
        }
        for fk in self.foreign_keys.drain(..) {
            self.catalog
                .declare_foreign_key(fk)
                .map_err(BqoError::setup)?;
        }
        Ok(Engine::new(self))
    }
}

/// An owned, fully bound and optimized statement: the resolved join graph,
/// the chosen physical plan (with bitvector placements) and its estimated
/// cost. Carries no engine borrow — it is `'static`, `Send + Sync`, cheap to
/// clone (the plan is `Arc`-shared with the cache) and can be executed by any
/// [`Session`] of the engine it was prepared against.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    name: String,
    graph: JoinGraph,
    plan: Arc<PhysicalPlan>,
    estimated_cost: CoutBreakdown,
    cache_status: CacheStatus,
    default_exec: ExecConfig,
    /// The original SQL text, for statements prepared through
    /// [`Engine::prepare_sql`] / [`Engine::bind_sql`].
    sql: Option<String>,
}

impl PreparedStatement {
    /// The query's name (copied from the [`QuerySpec`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The statistics-annotated join graph the statement was bound against.
    pub fn graph(&self) -> &JoinGraph {
        &self.graph
    }

    /// The physical plan, including bitvector filter placements.
    pub fn plan(&self) -> &PhysicalPlan {
        &self.plan
    }

    /// The plan as a shared handle (the same allocation the plan cache
    /// serves to other statements).
    pub fn shared_plan(&self) -> Arc<PhysicalPlan> {
        Arc::clone(&self.plan)
    }

    /// Estimated bitvector-aware `Cout` of the plan, re-derived for this
    /// statement's bound selectivities.
    pub fn estimated_cost(&self) -> &CoutBreakdown {
        &self.estimated_cost
    }

    /// Whether this statement's plan came from the cache ([`CacheStatus::Hit`]),
    /// a first optimization ([`CacheStatus::Miss`]), an envelope-exit
    /// re-optimization ([`CacheStatus::Reoptimized`]) or was hand-built
    /// ([`CacheStatus::Bypassed`], see [`Engine::prepare_plan`]).
    pub fn cache_status(&self) -> CacheStatus {
        self.cache_status
    }

    /// EXPLAIN-style rendering of the plan, followed by the engine's default
    /// execution configuration (every [`ExecConfig`] field). Statements
    /// prepared from SQL lead with the original query text.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        if let Some(sql) = &self.sql {
            out.push_str(&format!("sql: {sql}\n"));
        }
        out.push_str(&self.plan.explain(&self.graph));
        out.push_str(&render_exec_config(self.default_exec));
        out
    }

    /// The original SQL text, for statements prepared through
    /// [`Engine::prepare_sql`] / [`Engine::bind_sql`]; `None` for
    /// spec-prepared statements.
    pub fn sql(&self) -> Option<&str> {
        self.sql.as_deref()
    }
}

/// Per-run knobs for [`Session::execute`] — the only per-run
/// configuration, whether the run is direct or served (a [`crate::Request`]
/// carries one): an optional [`ExecConfig`] override, whether to collect
/// the output rows, and an optional [`CancelToken`] observed by the run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Execution configuration for this run; `None` uses the engine's
    /// default ([`EngineBuilder::exec_config`]).
    pub exec_config: Option<ExecConfig>,
    /// When true, the concatenated output rows are returned in
    /// [`QueryOutput::rows`] — the differential-testing mode the oracle
    /// harnesses use to compare results bit for bit.
    pub collect_rows: bool,
    /// Cancel token the run observes cooperatively; firing it (or its
    /// deadline passing) aborts the run within roughly one morsel,
    /// surfacing as a [`BqoError`] with [`BqoError::is_cancelled`] set and
    /// the partial metrics attached.
    pub cancel: Option<CancelToken>,
}

impl RunOptions {
    /// Default options: engine config, no row collection, no cancel token.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// The same options with an explicit execution configuration.
    pub fn with_exec_config(mut self, config: ExecConfig) -> Self {
        self.exec_config = Some(config);
        self
    }

    /// The same options collecting the output rows.
    pub fn collecting_rows(mut self) -> Self {
        self.collect_rows = true;
        self
    }

    /// The same options observing `token` for cooperative cancellation.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Everything one run produces, from [`Session::execute`] or a served
/// request's [`crate::Ticket::wait`].
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Row count and execution metrics.
    pub result: QueryResult,
    /// Concatenated output rows, present iff the run collected them
    /// ([`RunOptions::collect_rows`]).
    pub rows: Option<Batch>,
    /// How the statement's plan was obtained from the plan cache
    /// ([`CacheStatus::Bypassed`] for hand-built plans).
    pub cache_status: CacheStatus,
    /// Time a served request spent queued before it started running — on
    /// a dispatcher, or on the client waiting on it; zero for a direct run.
    pub queue_wait: Duration,
    /// Submit-to-completion wall time of a served request (queueing +
    /// planning + execution); a direct run's execution time
    /// (`result.metrics.elapsed`).
    pub total_wall: Duration,
}

/// A lightweight execution handle over an engine. Sessions are
/// `Clone + Send + Sync`; open one per thread or request and run any number
/// of [`PreparedStatement`]s through it via [`Session::execute`].
#[derive(Debug, Clone)]
pub struct Session {
    engine: Engine,
}

impl Session {
    /// Runs a prepared statement through the pull-based operator pipeline —
    /// the single execution entry point, and the one caller of
    /// [`bqo_exec::execute`]. [`RunOptions`] selects the configuration
    /// (the engine's default unless overridden), whether to collect output
    /// rows, and an optional cancel token. Parallel configurations draw their
    /// helper workers from the engine's [`WorkerPool`]; serial ones never
    /// touch (or spawn) it. Any execution failure — an I/O error, a corrupt
    /// chunk, a cancel or a passed deadline — stops the run at its next
    /// morsel claim, and the error carries the metrics gathered until then
    /// ([`BqoError::partial_metrics`]):
    ///
    /// ```ignore
    /// let out = session.execute(&stmt, RunOptions::new())?;                  // plain run
    /// let out = session.execute(&stmt, RunOptions::new().collecting_rows())?; // + rows
    /// ```
    pub fn execute(
        &self,
        stmt: &PreparedStatement,
        options: RunOptions,
    ) -> Result<QueryOutput, BqoError> {
        let engine = &self.engine;
        let config = options.exec_config.unwrap_or(engine.inner.exec_config);
        let pool = (config.num_threads > 1).then(|| engine.worker_pool().clone());
        let mut ctx = ExecContext::with_pool(config, pool);
        if let Some(token) = options.cancel {
            ctx = ctx.with_cancel_token(token);
        }
        let catalog = &engine.inner.catalog;
        match bqo_exec::execute(catalog, &stmt.graph, &stmt.plan, ctx, options.collect_rows) {
            (result, Ok(rows)) => Ok(QueryOutput {
                total_wall: result.metrics.elapsed,
                result,
                rows,
                cache_status: stmt.cache_status,
                queue_wait: Duration::ZERO,
            }),
            (result, Err(e)) => Err(BqoError::from_exec(&stmt.name, e, result.metrics)),
        }
    }

    /// EXPLAIN ANALYZE: renders the plan (each scan labelled with its
    /// backing, `scan=memory` or `scan=file`) as [`PreparedStatement::explain`]
    /// does, executes the statement under the engine's configuration, and
    /// appends the observed storage counters — chunks read vs pruned by zone
    /// maps, the pruning ratio and bytes fetched. Purely in-memory plans
    /// report zero chunks.
    pub fn explain_analyze(&self, stmt: &PreparedStatement) -> Result<String, BqoError> {
        let out = self.execute(stmt, RunOptions::new())?;
        let mut text = stmt.explain();
        text.push_str(&render_storage_counters(&out.result.metrics));
        Ok(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The serving contract: everything a multi-threaded server shares is
    // Send + Sync and free of borrowed lifetimes.
    fn assert_send_sync<T: Send + Sync + 'static>() {}

    #[test]
    fn serving_types_are_send_sync_and_owned() {
        assert_send_sync::<Engine>();
        assert_send_sync::<Session>();
        assert_send_sync::<PreparedStatement>();
        assert_send_sync::<PlanCache>();
    }

    /// The default pool is sized from the hardware alone: a default
    /// `num_threads` of a million no longer asks for a million threads.
    /// Building an engine starts no thread (the pool is spawned lazily).
    #[test]
    fn default_pool_is_sized_from_the_hardware_not_num_threads() {
        assert_eq!(default_pool_workers(1), MIN_DEFAULT_PARALLELISM - 1);
        assert_eq!(default_pool_workers(64), 63);
        let huge = ExecConfig::default().with_num_threads(1 << 20);
        let engine = Engine::builder().exec_config(huge).build().unwrap();
        let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(engine.inner.pool_workers, default_pool_workers(hardware));
        assert!(engine.inner.pool.get().is_none(), "no pool was spawned");
    }

    #[test]
    fn exec_config_rendering_reports_all_knobs() {
        let line = render_exec_config(ExecConfig::default());
        assert!(line.contains("batch_size=4096"), "{line}");
        assert!(line.contains("num_threads=1"), "{line}");
        let line = render_exec_config(
            ExecConfig::default()
                .with_batch_size(usize::MAX)
                .with_num_threads(4),
        );
        assert!(line.contains("batch_size=unbatched"), "{line}");
        assert!(line.contains("num_threads=4"), "{line}");
        let line = render_exec_config(
            ExecConfig::default().with_kernel_mode(bqo_exec::KernelMode::Scalar),
        );
        assert!(line.contains("kernels=scalar"), "{line}");
        assert!(line.contains("filter=bitmap"), "{line}");
        let line = render_exec_config(ExecConfig::exact_filters());
        assert!(line.contains("filter=exact"), "{line}");
        let bloom = |filter_kind| ExecConfig {
            filter_kind,
            ..ExecConfig::default()
        };
        let line = render_exec_config(bloom(FilterKind::Bloom { bits_per_key: 10 }));
        assert!(line.contains("filter=bloom(10)"), "{line}");
        let line = render_exec_config(bloom(FilterKind::BlockedBloom { bits_per_key: 8 }));
        assert!(line.contains("filter=blocked_bloom(8)"), "{line}");
    }
}
