//! # bqo-core — Bitvector-aware Query Optimization
//!
//! Public facade of the reproduction of *"Bitvector-aware Query Optimization
//! for Decision Support Queries"* (SIGMOD 2020). It ties together the
//! storage, planning, optimization and execution crates behind one
//! serving-grade entry point:
//!
//! * [`Engine`] — built with [`Engine::builder`] (tables, constraints,
//!   [`ExecConfig`]) or [`Engine::from_catalog`]. The engine is
//!   `Arc`-internal: cloning is a reference-count bump and every clone is
//!   `Send + Sync`, so one engine serves any number of threads. Each engine
//!   owns one [`PlanCache`], shared by its clones, sessions and [`Server`]
//!   dispatchers and read through [`PlanCache::cache_stats`].
//! * [`PreparedStatement`] — an **owned** (`'static`, `Send + Sync`) bound
//!   and optimized query produced by [`Engine::prepare`] (literal specs) or
//!   [`Engine::bind`] (parameterized specs with [`Params`]). Binding
//!   re-derives per-relation cardinalities from catalog statistics for the
//!   bound values and consults the [`PlanCache`]: repeated binds of one
//!   template skip the optimizer entirely, while a bind whose estimated
//!   selectivities leave the cached plan's envelope transparently
//!   re-optimizes (the regime where the paper shows bitvector placements
//!   flip).
//! * **SQL** — [`Engine::parse_sql`] lowers a SQL `SELECT` (see [`sql`] for
//!   the grammar) to the same [`QuerySpec`] machinery;
//!   [`Engine::prepare_sql`] / [`Engine::bind_sql`] add plan caching under
//!   the canonical fingerprint (the same query modulo literal order hits
//!   the same cache entry) and `$param` templates with bind-time
//!   selectivity re-derivation. [`RequestBuilder::sql`] serves SQL text
//!   through the [`Server`].
//! * [`Session`] — a lightweight execution handle; [`Session::execute`]
//!   runs any statement through the pull-based operator pipeline of
//!   `bqo-exec`. [`RunOptions`], the only per-run configuration, selects
//!   an [`ExecConfig`] (the engine's default unless set), output-row
//!   collection and an optional [`CancelToken`]; every run, direct or
//!   served, returns one [`QueryOutput`]. Every fallible step returns the
//!   unified [`BqoError`], which keeps the query name and processing phase
//!   attached to the underlying cause.
//! * [`Server`] — the multi-tenant serving front end over the engine:
//!   [`Server::submit`] admits a [`Request`] (built with
//!   [`Request::builder`]: tenant, priority and deadline, plus the
//!   [`RunOptions`] its run gets) into a bounded queue
//!   (backpressure via [`SubmitError::QueueFull`]) and returns a [`Ticket`]
//!   (`wait` / `wait_timeout` / `cancel`). Dispatch picks by (priority,
//!   earliest-deadline, FIFO tiebreak); cancellation and deadline expiry
//!   propagate through a cooperative [`CancelToken`] that aborts
//!   in-flight queries at morsel granularity, surfacing as
//!   [`ServeError::Cancelled`] / [`ServeError::DeadlineExceeded`] with the
//!   partial [`ExecutionMetrics`]. At most
//!   [`ServerConfig::max_concurrent_queries`] statements execute at once — a
//!   bound the scheduler holds — on persistent dispatcher threads or on the
//!   client blocked in [`Ticket::wait`], which runs its own request when a
//!   slot is free and it is next; panics are contained per request, and
//!   one [`ServerStats`] type reports global ([`Server::stats`]) and
//!   per-tenant ([`Server::stats_for`]) counters plus queue-wait and
//!   run-time latency histograms. Scheduling and accounting are one
//!   single-threaded state machine taking `now` as a parameter, behind one
//!   mutex: every request is counted before its ticket resolves, and per
//!   tenant as exactly as globally. Parallel sections inside the executor
//!   draw their helper workers from the engine-owned persistent
//!   [`WorkerPool`] instead of spawning threads per query.
//! * [`mod@format`] — the on-disk columnar file format (`.bqo`): chunked
//!   columns with per-chunk zone maps and checksums, written with
//!   [`format::write_table`] and registered into a catalog via
//!   [`format::CatalogExt`] (`register_file` / `attach_dir`). File-backed
//!   tables execute out of core through chunk-streaming scans that skip
//!   every chunk their zone maps prove empty, bit-identically to their
//!   in-memory twins.
//!
//! ## Quick example
//!
//! ```
//! use bqo_core::{CacheStatus, Engine, OptimizerChoice, Params, RunOptions};
//! use bqo_core::workloads::{star, Scale};
//!
//! // Generate a small star-schema workload and build an engine around it.
//! let workload = star::generate(Scale(0.02), 3, 1, 42);
//! let engine = Engine::builder().catalog(workload.catalog).build().unwrap();
//! let session = engine.session();
//!
//! // Prepare the first query with the bitvector-aware optimizer and run it.
//! let query = &workload.queries[0];
//! let stmt = engine.prepare(query, OptimizerChoice::Bqo).unwrap();
//! println!("{}", stmt.explain());
//! let result = session.execute(&stmt, RunOptions::new()).unwrap().result;
//!
//! // The same query prepared with the baseline returns the same answer.
//! let baseline = engine.prepare(query, OptimizerChoice::Baseline).unwrap();
//! let baseline_result = session.execute(&baseline, RunOptions::new()).unwrap().result;
//! assert_eq!(result.output_rows, baseline_result.output_rows);
//!
//! // Parameterized serving: one template, many binds, one cache entry.
//! let template = star::build_param_query("by_category", 3, &[0]);
//! let a = engine
//!     .bind(&template, &Params::new().set("bound0", 2i64), OptimizerChoice::Bqo)
//!     .unwrap();
//! let b = engine
//!     .bind(&template, &Params::new().set("bound0", 3i64), OptimizerChoice::Bqo)
//!     .unwrap();
//! assert_eq!(a.cache_status(), CacheStatus::Miss);
//! assert_eq!(b.cache_status(), CacheStatus::Hit); // optimizer skipped
//! let rows_a = session.execute(&a, RunOptions::new()).unwrap().result.output_rows;
//! let rows_b = session.execute(&b, RunOptions::new()).unwrap().result.output_rows;
//! assert!(rows_a <= rows_b);
//! ```
//!
//! ## Execution model
//!
//! Plans execute as a tree of pull-based operators exchanging batches of at
//! most [`ExecConfig::batch_size`] rows: scans apply local predicates and
//! pushed-down bitvector probes, hash joins drain their build side at `open`
//! (publishing their bitvector filter before the probe side starts) and
//! stream the probe side on the thread that pulls each batch. The scans'
//! predicate and filter probes are the one parallel section: they run as
//! shared-state-free kernels over row **morsels** (a batch of an in-memory
//! table, one chunk of a file-backed one) dispatched to
//! [`ExecConfig::num_threads`] workers ([`ExecConfig::with_num_threads`]) —
//! parked threads of the engine-owned persistent [`WorkerPool`], woken per
//! scan — and per-morsel outputs and counters merged deterministically in
//! morsel order, so results and all reported counters are bit-identical for
//! every `(batch_size, num_threads)` combination.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

mod cache;
mod engine;
mod error;
mod server;

// Re-export the building blocks so downstream users (examples, benches) only
// need to depend on `bqo-core`.
pub use bqo_bitvector as bitvector;
pub use bqo_exec as exec;
pub use bqo_format as format;
pub use bqo_optimizer as optimizer;
pub use bqo_plan as plan;
pub use bqo_sql as sql;
pub use bqo_storage as storage;
pub use bqo_workloads as workloads;

pub use cache::{CacheStats, CacheStatus, PlanCache};
pub use engine::{Engine, EngineBuilder, PreparedStatement, QueryOutput, RunOptions, Session};
pub use error::{BqoError, QueryPhase};
pub use server::{
    LatencyStats, Request, RequestBuilder, ServeError, Server, ServerConfig, ServerStats,
    SubmitError, Ticket,
};

pub use bqo_exec::{
    CancelToken, ExecConfig, ExecutionMetrics, KernelMode, OperatorKind, QueryResult, WorkerPool,
};
pub use bqo_optimizer::{BaselineOptimizer, BqoOptimizer, Optimizer};
pub use bqo_plan::{
    ColumnPredicate, CompareOp, CostModel, CoutBreakdown, JoinGraph, Params, PhysicalPlan,
    QuerySpec,
};
pub use bqo_sql::{SqlError, SqlErrorKind};
pub use bqo_storage::{Catalog, ForeignKey, StorageError, Table, TableBuilder};

/// Which optimizer to use for a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerChoice {
    /// Conventional cost-based optimizer; bitvector filters added as a
    /// post-processing step (the paper's baseline, "Original").
    Baseline,
    /// The conventional tree of [`OptimizerChoice::Baseline`] with no
    /// bitvector placements, so it runs without filters (the Table 4
    /// comparison).
    BaselineNoBitvectors,
    /// The paper's bitvector-aware optimizer with the default 5% λ threshold.
    Bqo,
    /// The bitvector-aware optimizer with an explicit λ threshold
    /// (0 disables cost-based filter pruning).
    BqoWithThreshold(f64),
}

impl OptimizerChoice {
    /// Short label used to group report rows: every BQO variant collapses to
    /// `"BQO"`. Use [`OptimizerChoice::display_label`] when the λ threshold
    /// must stay visible (e.g. Table-4-style λ sweeps).
    pub fn label(&self) -> &'static str {
        match self {
            OptimizerChoice::Baseline => "Original",
            OptimizerChoice::BaselineNoBitvectors => "Original (no bitvectors)",
            OptimizerChoice::Bqo | OptimizerChoice::BqoWithThreshold(_) => "BQO",
        }
    }

    /// Full label including the λ threshold, so reports sweeping λ can tell
    /// the configurations apart.
    pub fn display_label(&self) -> String {
        match self {
            OptimizerChoice::Baseline => "Original".to_string(),
            OptimizerChoice::BaselineNoBitvectors => "Original (no bitvectors)".to_string(),
            OptimizerChoice::Bqo => {
                format!("BQO (λ={})", bqo_optimizer::DEFAULT_LAMBDA_THRESHOLD)
            }
            OptimizerChoice::BqoWithThreshold(t) => format!("BQO (λ={t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_workloads::{star, tpcds_like, Scale};
    use std::sync::Arc;

    fn rows(session: &Session, stmt: &PreparedStatement) -> u64 {
        session
            .execute(stmt, RunOptions::new())
            .unwrap()
            .result
            .output_rows
    }

    #[test]
    fn optimize_and_execute_star_query() {
        let w = star::generate(Scale(0.02), 3, 2, 5);
        let engine = Engine::from_catalog(w.catalog);
        let session = engine.session();
        for q in &w.queries {
            let bqo = engine.prepare(q, OptimizerChoice::Bqo).unwrap();
            let base = engine.prepare(q, OptimizerChoice::Baseline).unwrap();
            let nobv = engine
                .prepare(q, OptimizerChoice::BaselineNoBitvectors)
                .unwrap();
            let bqo_rows = rows(&session, &bqo);
            assert_eq!(bqo_rows, rows(&session, &base), "{}", q.name);
            assert_eq!(bqo_rows, rows(&session, &nobv), "{}", q.name);
            assert!(bqo.estimated_cost().total <= base.estimated_cost().total + 1e-6);
        }
    }

    #[test]
    fn tpcds_queries_round_trip() {
        let w = tpcds_like::generate(Scale(0.01), 4, 9);
        let engine = Engine::from_catalog(w.catalog);
        let session = engine.session();
        for q in &w.queries {
            let opt = engine.prepare(q, OptimizerChoice::Bqo).unwrap();
            let opt_b = engine.prepare(q, OptimizerChoice::Baseline).unwrap();
            assert_eq!(rows(&session, &opt), rows(&session, &opt_b), "{}", q.name);
            assert_eq!(
                opt.plan().relation_set(opt.plan().root()).len(),
                opt_b.plan().relation_set(opt_b.plan().root()).len()
            );
        }
    }

    #[test]
    fn explain_output_mentions_operators() {
        let w = star::generate(Scale(0.02), 3, 1, 5);
        let engine = Engine::from_catalog(w.catalog);
        let opt = engine.prepare(&w.queries[0], OptimizerChoice::Bqo).unwrap();
        let text = opt.explain();
        assert!(text.contains("HashJoin"));
        assert!(text.contains("Scan fact"));
    }

    #[test]
    fn prepared_statements_outlive_their_engine_borrowlessly() {
        // The owned-statement contract: a statement prepared by one engine
        // clone can be executed later through another clone's session, and
        // moving it across a thread boundary compiles (Send + 'static).
        let w = star::generate(Scale(0.02), 3, 1, 5);
        let engine = Engine::from_catalog(w.catalog);
        let stmt = engine.prepare(&w.queries[0], OptimizerChoice::Bqo).unwrap();
        let session = engine.session();
        let expected = rows(&session, &stmt);
        let handle = std::thread::spawn(move || stmt);
        let stmt = handle.join().unwrap();
        assert_eq!(rows(&session, &stmt), expected);
    }

    #[test]
    fn repeated_prepare_hits_the_plan_cache() {
        let w = star::generate(Scale(0.02), 3, 1, 5);
        let engine = Engine::from_catalog(w.catalog);
        let q = &w.queries[0];
        let first = engine.prepare(q, OptimizerChoice::Bqo).unwrap();
        assert_eq!(first.cache_status(), CacheStatus::Miss);
        let second = engine.prepare(q, OptimizerChoice::Bqo).unwrap();
        assert_eq!(second.cache_status(), CacheStatus::Hit);
        // The plan allocation is literally shared with the cache entry.
        assert!(Arc::ptr_eq(&first.shared_plan(), &second.shared_plan()));
        // A different optimizer choice is a different cache key.
        let base = engine.prepare(q, OptimizerChoice::Baseline).unwrap();
        assert_eq!(base.cache_status(), CacheStatus::Miss);
        assert_eq!(engine.plan_cache().cache_stats().hits, 1);
        assert_eq!(engine.plan_cache().cache_stats().misses, 2);
    }

    #[test]
    fn preparing_a_parameterized_spec_is_a_descriptive_error() {
        let w = star::generate(Scale(0.02), 2, 1, 5);
        let engine = Engine::from_catalog(w.catalog);
        let template = star::build_param_query("template", 2, &[0]);
        let err = engine.prepare(&template, OptimizerChoice::Bqo).unwrap_err();
        assert_eq!(err.phase(), QueryPhase::Planning);
        assert!(err.to_string().contains("bound0"), "{err}");
        // Binding with the parameter present succeeds.
        let stmt = engine
            .bind(
                &template,
                &Params::new().set("bound0", 5i64),
                OptimizerChoice::Bqo,
            )
            .unwrap();
        assert!(rows(&engine.session(), &stmt) > 0);
    }

    #[test]
    fn optimizer_choice_labels() {
        assert_eq!(OptimizerChoice::Baseline.label(), "Original");
        assert_eq!(OptimizerChoice::Bqo.label(), "BQO");
        assert_eq!(OptimizerChoice::BqoWithThreshold(0.1).label(), "BQO");
        // display_label keeps λ sweeps distinguishable.
        assert_eq!(OptimizerChoice::Baseline.display_label(), "Original");
        assert_eq!(OptimizerChoice::Bqo.display_label(), "BQO (λ=0.05)");
        assert_eq!(
            OptimizerChoice::BqoWithThreshold(0.1).display_label(),
            "BQO (λ=0.1)"
        );
        assert_ne!(
            OptimizerChoice::BqoWithThreshold(0.0).display_label(),
            OptimizerChoice::BqoWithThreshold(0.5).display_label()
        );
    }

    #[test]
    fn engine_builder_constructs_a_working_database() {
        let engine = Engine::builder()
            .table(
                TableBuilder::new("dim")
                    .with_i64("sk", vec![0, 1, 2, 3])
                    .with_i64("cat", vec![0, 1, 0, 1])
                    .build()
                    .unwrap(),
            )
            .table(
                TableBuilder::new("fact")
                    .with_i64("dim_sk", vec![0, 1, 2, 3, 0, 1])
                    .build()
                    .unwrap(),
            )
            .primary_key("dim", "sk")
            .foreign_key(ForeignKey::new("fact", "dim_sk", "dim", "sk"))
            .build()
            .unwrap();
        let q = QuerySpec::new("q")
            .table("fact")
            .table("dim")
            .join("fact", "dim_sk", "dim", "sk")
            .predicate("dim", ColumnPredicate::new("cat", CompareOp::Eq, 0i64));
        let stmt = engine.prepare(&q, OptimizerChoice::Bqo).unwrap();
        let out = engine.session().execute(&stmt, RunOptions::new()).unwrap();
        assert_eq!(out.result.output_rows, 3);
    }

    #[test]
    fn builder_rejects_bad_constraints() {
        let err = Engine::builder()
            .primary_key("ghost", "sk")
            .build()
            .unwrap_err();
        assert_eq!(err.phase(), QueryPhase::Setup);
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn missing_table_error_surfaces_with_context() {
        let engine = Engine::builder().build().unwrap();
        let q = QuerySpec::new("phantom").table("nope");
        let err = engine.prepare(&q, OptimizerChoice::Bqo).unwrap_err();
        assert_eq!(err.phase(), QueryPhase::Planning);
        assert_eq!(err.query(), Some("phantom"));
        let msg = err.to_string();
        assert!(msg.contains("phantom") && msg.contains("nope"), "{msg}");
    }
}
