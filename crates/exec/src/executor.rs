//! Plan execution: [`execute`], a thin driver over the pull-based operator
//! pipeline, and the configuration it runs under.

use crate::batch::Batch;
use crate::metrics::ExecutionMetrics;
use crate::pipeline::{ExecContext, PipelineBuilder};
use bqo_bitvector::FilterKind;
use bqo_plan::{JoinGraph, PhysicalPlan};
use bqo_storage::{Catalog, StorageError};
use std::time::Instant;

/// Default number of rows per batch pulled through the pipeline.
pub const DEFAULT_BATCH_SIZE: usize = 4096;

/// Which probe/filter kernel implementations the operators run.
///
/// Both modes produce bit-identical rows, batch boundaries and counters for
/// every `(batch_size, num_threads)` combination — the scalar
/// kernels are retained as the differential-testing oracle for the
/// vectorized ones (see the `kernel_oracle` suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Word-level vectorized kernels (the default): bitvector membership is
    /// probed 64 rows per survivor word, composite join keys are hashed
    /// column-at-a-time, and the join table is probed a batch at a time.
    #[default]
    Vectorized,
    /// Row-at-a-time scalar key, filter-probe and join-probe loops over the
    /// same row-id batches and the same join table — kept as the oracle.
    Scalar,
}

/// Execution configuration. Every field is a production knob: a test that
/// needs a slow or faulty scan registers a `ChunkSource` fake through
/// `Catalog::register_source` instead of adding one here.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Which bitvector filter implementation hash joins build.
    pub filter_kind: FilterKind,
    /// Rows per batch pulled through the operator pipeline, and per morsel of
    /// an in-memory scan (a file-backed scan's morsel is one chunk). Any
    /// value produces identical results and counters; `usize::MAX` is
    /// effectively unbatched (one batch per scan). Values below 1 are treated
    /// as 1.
    pub batch_size: usize,
    /// Worker threads for the one morsel-parallel section, the scan's
    /// predicate and bitvector-probe evaluation; hash joins build, probe and
    /// filter on the thread that pulls their batches. A scan runs one worker
    /// per morsel, at most `num_threads` of them, so a one-morsel scan runs
    /// inline on the calling thread. `1` (the default) runs everything
    /// inline — the serial path. Results and all counters are bit-identical
    /// for every value; values below 1 are treated as 1.
    pub num_threads: usize,
    /// Which probe/filter kernel implementations the operators run
    /// ([`KernelMode::Vectorized`] by default). Results and counters are
    /// bit-identical in both modes.
    pub kernel_mode: KernelMode,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            filter_kind: FilterKind::default(),
            batch_size: DEFAULT_BATCH_SIZE,
            num_threads: 1,
            kernel_mode: KernelMode::Vectorized,
        }
    }
}

impl ExecConfig {
    /// Configuration with exact (no-false-positive) filters.
    pub fn exact_filters() -> Self {
        ExecConfig {
            filter_kind: FilterKind::Exact,
            ..Default::default()
        }
    }

    /// The same configuration with a different batch size. Values below 1
    /// are clamped to 1 (a zero batch size would otherwise stall the
    /// pipeline); `usize::MAX` is effectively unbatched. Every batch size
    /// produces identical results and counters.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// The same configuration with a different worker-thread count. Values
    /// below 1 are clamped to 1 (the serial path) rather than panicking, so
    /// e.g. a misconfigured environment variable degrades to serial
    /// execution.
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads.max(1);
        self
    }

    /// The same configuration with an explicit kernel mode. The
    /// differential harnesses use this to sweep vectorized vs scalar kernels
    /// within one process.
    pub fn with_kernel_mode(mut self, kernel_mode: KernelMode) -> Self {
        self.kernel_mode = kernel_mode;
        self
    }

    /// Configuration pinned to the row-at-a-time scalar kernels (the
    /// differential-testing oracle).
    pub fn scalar_kernels() -> Self {
        ExecConfig::default().with_kernel_mode(KernelMode::Scalar)
    }
}

/// The result of executing one query plan.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Number of rows produced by the plan root (the paper's queries are
    /// `COUNT(*)` aggregations over the join, so the row count is the query
    /// answer).
    pub output_rows: u64,
    /// Execution metrics.
    pub metrics: ExecutionMetrics,
}

/// Runs `plan` over `graph` (relation names and local predicates) against
/// `catalog` — the one way a plan executes.
/// It lowers the plan into the operator pipeline, drains the root under
/// `ctx` (its configuration, worker pool and cancel token), always closes
/// the pipeline, and with `collect_rows` gathers the root's row-id batches
/// into the output rows: the differential harnesses compare that [`Batch`]
/// bit for bit across configurations. Without it no value is copied
/// (`Ok(None)`).
///
/// The [`QueryResult`] holds the metrics gathered so far whatever the
/// outcome. Any failure — a kernel's error such as a failed chunk read, or
/// the cancel token (`StorageError::Cancelled`) — stops the run at its next
/// morsel claim, so a failed run reports how much work it did.
/// `metrics.elapsed` is stamped last, after the rows exist.
pub fn execute(
    catalog: &Catalog,
    graph: &JoinGraph,
    plan: &PhysicalPlan,
    mut ctx: ExecContext,
    collect_rows: bool,
) -> (QueryResult, Result<Option<Batch>, StorageError>) {
    let start = Instant::now();
    let mut output_rows = 0u64;
    let pipeline = PipelineBuilder::new(catalog, graph, plan, ctx.config).build();
    let rows = pipeline.and_then(|mut root| {
        let mut collected = Vec::new();
        // Drive the pipeline, capturing the first failure instead of
        // `?`-returning so `close` always runs and the context's partial
        // metrics survive any failure.
        let drained = (|| -> Result<(), StorageError> {
            root.open(&mut ctx)?;
            while let Some(batch) = root.next_batch(&mut ctx)? {
                output_rows += batch.num_rows() as u64;
                if collect_rows {
                    collected.push(batch);
                }
            }
            Ok(())
        })();
        root.close(&mut ctx);
        drop(root);
        drained?;
        // The root's batches are row ids: values are gathered here, once, for
        // a caller that asked for rows — re-checking the token per batch, so
        // a deadline passing mid-gather still aborts.
        if !collect_rows {
            return Ok(None);
        }
        Batch::try_concat(collected, || ctx.check_cancelled()).map(Some)
    });
    let mut metrics = ctx.into_metrics();
    metrics.elapsed = start.elapsed();
    let result = QueryResult {
        output_rows,
        metrics,
    };
    (result, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::metrics::OperatorKind;
    use crate::pool::WorkerPool;
    use bqo_plan::{
        push_down_bitvectors, ColumnPredicate, ColumnRef, CompareOp, JoinEdge, JoinTree,
        PhysicalPlan, QuerySpec, RelId, RelationInfo,
    };
    use bqo_storage::DataGenerator;
    use bqo_storage::{
        Catalog, ChunkSource, Column, Schema, Table, TableBuilder, TableStats, Value,
    };
    use std::sync::{Arc, Mutex};

    /// Runs `plan` under `ctx` without collecting rows.
    fn run(
        catalog: &Catalog,
        ctx: ExecContext,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
    ) -> QueryResult {
        let (result, rows) = execute(catalog, graph, plan, ctx, false);
        assert!(
            rows.unwrap().is_none(),
            "rows are returned only when asked for"
        );
        result
    }

    /// `plan` with its bitvector placements cleared: the same joins, run
    /// without filters.
    fn without_placements(plan: &PhysicalPlan) -> PhysicalPlan {
        let mut bare = plan.clone();
        bare.placements.clear();
        bare
    }

    /// Runs `plan` under `ctx`, also returning the concatenated output rows.
    fn run_rows(
        catalog: &Catalog,
        ctx: ExecContext,
        graph: &JoinGraph,
        plan: &PhysicalPlan,
    ) -> (QueryResult, Batch) {
        let (result, rows) = execute(catalog, graph, plan, ctx, true);
        (result, rows.unwrap().expect("collect_rows was set"))
    }

    /// A context with a 3-worker pool attached, so `num_threads > 1`
    /// configurations really fan out (a context without a pool runs inline).
    fn pooled(config: ExecConfig) -> ExecContext {
        ExecContext::with_pool(config, Some(WorkerPool::new(3)))
    }

    /// Small hand-built star: fact(12 rows) -> d1(4 rows), d2(3 rows).
    fn tiny_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_table(
            TableBuilder::new("d1")
                .with_i64("sk", vec![0, 1, 2, 3])
                .with_i64("cat", vec![0, 0, 1, 1])
                .build()
                .unwrap(),
        );
        c.register_table(
            TableBuilder::new("d2")
                .with_i64("sk", vec![0, 1, 2])
                .with_i64("flag", vec![1, 0, 1])
                .build()
                .unwrap(),
        );
        c.register_table(
            TableBuilder::new("fact")
                .with_i64("d1_sk", vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])
                .with_i64("d2_sk", vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
                .with_f64("amount", vec![1.0; 12])
                .build()
                .unwrap(),
        );
        c.declare_primary_key("d1", "sk").unwrap();
        c.declare_primary_key("d2", "sk").unwrap();
        c
    }

    fn tiny_graph() -> (JoinGraph, RelId, RelId, RelId) {
        let mut g = JoinGraph::new();
        let fact = g.add_relation(RelationInfo::new("fact", 12.0, 12.0));
        let d1 = g.add_relation(
            RelationInfo::new("d1", 4.0, 2.0).with_predicates(vec![ColumnPredicate::new(
                "cat",
                CompareOp::Eq,
                0i64,
            )]),
        );
        let d2 = g.add_relation(
            RelationInfo::new("d2", 3.0, 2.0).with_predicates(vec![ColumnPredicate::new(
                "flag",
                CompareOp::Eq,
                1i64,
            )]),
        );
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 4.0));
        g.add_edge(JoinEdge::pkfk(fact, "d2_sk", d2, "sk", 3.0));
        (g, fact, d1, d2)
    }

    /// Expected answer: fact rows with d1.cat = 0 (d1_sk in {0,1}) and
    /// d2.flag = 1 (d2_sk in {0,2}): d1_sk∈{0,1} gives 6 rows, of which
    /// d2_sk ∈ {0,2} keeps rows with d2_sk=0 (2 rows: positions 0,1) and
    /// d2_sk=2 (2 rows: positions 8,9) => 4 rows.
    const EXPECTED_ROWS: u64 = 4;

    #[test]
    fn executes_star_join_correctly_with_bitvectors() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let result = run(
            &catalog,
            ExecContext::new(ExecConfig::exact_filters()),
            &g,
            &plan,
        );
        assert_eq!(result.output_rows, EXPECTED_ROWS);
        // Both filters were created and they eliminated fact rows before the
        // joins: the fact scan outputs exactly the surviving 4 rows.
        assert_eq!(result.metrics.filters_created, 2);
        let leaf = result.metrics.tuples_by_kind(OperatorKind::Leaf);
        assert_eq!(leaf, 4 + 2 + 2);
        assert!(result.metrics.filter_stats.eliminated > 0);
    }

    #[test]
    fn bitvectors_do_not_change_the_answer() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        for order in [
            vec![fact, d1, d2],
            vec![fact, d2, d1],
            vec![d1, fact, d2],
            vec![d2, fact, d1],
        ] {
            let tree = JoinTree::right_deep(&order);
            let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
            let bare = without_placements(&plan);
            for (plan, config) in [
                (&plan, ExecConfig::default()),
                (&plan, ExecConfig::exact_filters()),
                (&bare, ExecConfig::default()),
            ] {
                let result = run(&catalog, ExecContext::new(config), &g, plan);
                assert_eq!(result.output_rows, EXPECTED_ROWS);
            }
        }
    }

    #[test]
    fn batch_size_does_not_change_results_or_counters() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let unbatched = ExecConfig::exact_filters().with_batch_size(usize::MAX);
        let oracle = run(&catalog, ExecContext::new(unbatched), &g, &plan);
        for batch_size in [1usize, 2, 3, 7, 1024] {
            let config = ExecConfig::exact_filters().with_batch_size(batch_size);
            let result = run(&catalog, ExecContext::new(config), &g, &plan);
            assert_eq!(result.output_rows, oracle.output_rows, "{batch_size}");
            assert_eq!(
                result.metrics.filter_stats.probed, oracle.metrics.filter_stats.probed,
                "{batch_size}"
            );
            assert_eq!(
                result.metrics.filter_stats.eliminated, oracle.metrics.filter_stats.eliminated,
                "{batch_size}"
            );
            for kind in [OperatorKind::Leaf, OperatorKind::Join, OperatorKind::Other] {
                assert_eq!(
                    result.metrics.tuples_by_kind(kind),
                    oracle.metrics.tuples_by_kind(kind),
                    "{batch_size} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn counting_run_returns_no_rows_and_the_collecting_runs_counters() {
        // The tiny star with a `Utf8` label on both dimensions: the values a
        // collecting run clones are what a counting run never touches.
        let mut catalog = tiny_catalog();
        let labelled = |name: &str, attribute: &str, values: Vec<i64>| {
            let rows = values.len() as i64;
            TableBuilder::new(name)
                .with_i64("sk", (0..rows).collect())
                .with_i64(attribute, values)
                .with_utf8("label", (0..rows).map(|i| format!("{name}-{i}")).collect())
                .build()
                .unwrap()
        };
        catalog.register_table(labelled("d1", "cat", vec![0, 0, 1, 1]));
        catalog.register_table(labelled("d2", "flag", vec![1, 0, 1]));
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        for threads in [1usize, 4] {
            let config = ExecConfig::default()
                .with_batch_size(5)
                .with_num_threads(threads);
            let counted = run(&catalog, pooled(config), &g, &plan);
            let (collected, rows) = run_rows(&catalog, pooled(config), &g, &plan);
            assert_eq!(counted.output_rows, EXPECTED_ROWS);
            assert_eq!(counted.output_rows, collected.output_rows);
            let (c, r) = (&counted.metrics, &collected.metrics);
            assert_eq!(c.operators, r.operators);
            assert_eq!(c.filter_stats, r.filter_stats);
            assert_eq!(c.filters_created, r.filters_created);
            assert_eq!(c.logical_work(), r.logical_work());
            assert!(rows.is_dense());
            let labels = rows.column(&ColumnRef::new(d2, "label")).unwrap();
            assert_eq!(labels.as_utf8().unwrap(), &["d2-0", "d2-0", "d2-2", "d2-2"]);
        }
    }

    #[test]
    fn disabling_bitvectors_increases_probe_work() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));

        let with = run(
            &catalog,
            ExecContext::new(ExecConfig::exact_filters()),
            &g,
            &plan,
        );
        let without = ExecContext::new(ExecConfig::default());
        let without = run(&catalog, without, &g, &without_placements(&plan));
        assert!(without.metrics.total_probe_rows() > with.metrics.total_probe_rows());
        assert_eq!(without.metrics.filters_created, 0);
        assert_eq!(without.metrics.filter_stats.probed, 0);
    }

    #[test]
    fn generated_workload_round_trip() {
        // Build a catalog with the generator, describe the query through
        // QuerySpec, optimize nothing (fixed plan), and check that execution
        // works end to end on a few thousand rows.
        let gen = DataGenerator::new(3);
        let mut catalog = Catalog::new();
        catalog.register_table(gen.dimension_table("store", 50, 5));
        catalog.register_table(gen.dimension_table("item", 200, 10));
        catalog.register_table(gen.fact_table(
            "sales",
            5000,
            &[
                ("store".to_string(), 50, 0.0),
                ("item".to_string(), 200, 0.0),
            ],
        ));
        catalog.declare_primary_key("store", "store_sk").unwrap();
        catalog.declare_primary_key("item", "item_sk").unwrap();

        let spec = QuerySpec::new("q")
            .table("sales")
            .table("store")
            .table("item")
            .join("sales", "store_sk", "store", "store_sk")
            .join("sales", "item_sk", "item", "item_sk")
            .predicate(
                "store",
                ColumnPredicate::new("store_category", CompareOp::Eq, 2i64),
            )
            .predicate(
                "item",
                ColumnPredicate::new("item_category", CompareOp::Lt, 5i64),
            );
        let graph = spec.to_join_graph(&catalog).unwrap();
        let sales = graph.relation_by_name("sales").unwrap();
        let store = graph.relation_by_name("store").unwrap();
        let item = graph.relation_by_name("item").unwrap();

        let tree = JoinTree::right_deep(&[sales, store, item]);
        let plan = push_down_bitvectors(&graph, PhysicalPlan::from_join_tree(&graph, &tree));

        let with = run(
            &catalog,
            ExecContext::new(ExecConfig::default()),
            &graph,
            &plan,
        );
        let without = ExecContext::new(ExecConfig::default());
        let without = run(&catalog, without, &graph, &without_placements(&plan));
        assert_eq!(with.output_rows, without.output_rows);
        assert!(with.output_rows > 0);
        // The bloom filters (default config) may pass a few extra tuples but
        // never change results; with exact filters leaf output matches the
        // final result contribution exactly.
        assert!(with.metrics.total_probe_rows() <= without.metrics.total_probe_rows());
    }

    #[test]
    fn zero_num_threads_is_clamped_not_a_panic() {
        let config = ExecConfig::default().with_num_threads(0);
        assert_eq!(config.num_threads, 1);
        // And the clamped configuration actually executes.
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let result = run(&catalog, ExecContext::new(config), &g, &plan);
        assert_eq!(result.output_rows, EXPECTED_ROWS);
    }

    #[test]
    fn pool_backed_executor_matches_the_inline_path() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let config = ExecConfig::exact_filters()
            .with_num_threads(4)
            .with_batch_size(2);
        // 2-row morsels make even the 12-row fact scan fan out, which changes
        // neither results nor counters. With no pool attached the same
        // configuration runs inline.
        let inline = run_rows(&catalog, ExecContext::new(config), &g, &plan);
        let pool = WorkerPool::new(3);
        let ctx = ExecContext::with_pool(config, Some(pool.clone()));
        let pooled = run_rows(&catalog, ctx, &g, &plan);
        assert_eq!(pooled.0.output_rows, inline.0.output_rows);
        assert_eq!(pooled.0.metrics.operators, inline.0.metrics.operators);
        assert_eq!(pooled.0.metrics.filter_stats, inline.0.metrics.filter_stats);
        assert_eq!(pooled.1, inline.1);
        // A shut-down pool degrades gracefully (inline), results unchanged.
        pool.shutdown();
        let degraded = run_rows(
            &catalog,
            ExecContext::with_pool(config, Some(pool)),
            &g,
            &plan,
        );
        assert_eq!(degraded.1, inline.1);
    }

    #[test]
    fn num_threads_does_not_change_results_or_counters() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let serial = ExecContext::new(ExecConfig::exact_filters());
        let serial = run_rows(&catalog, serial, &g, &plan);
        for threads in [2usize, 4, 8] {
            for batch_size in [1usize, 3, 1024, usize::MAX] {
                let config = ExecConfig::exact_filters()
                    .with_batch_size(batch_size)
                    .with_num_threads(threads);
                let (result, rows) = run_rows(&catalog, pooled(config), &g, &plan);
                assert_eq!(result.output_rows, serial.0.output_rows);
                assert_eq!(result.metrics.operators, serial.0.metrics.operators);
                assert_eq!(result.metrics.filter_stats, serial.0.metrics.filter_stats);
                assert_eq!(rows, serial.1, "threads {threads} batch {batch_size}");
            }
        }
    }

    #[test]
    fn kernel_modes_are_bit_identical() {
        // The scalar serial unbatched run is the oracle; every (kernel mode,
        // threads, batch size) cell must reproduce its rows and counters
        // exactly — including with Bloom filters, whose false positives must
        // be the *same* false positives in both modes.
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        for base in [
            ExecConfig::default(),
            ExecConfig::exact_filters(),
            ExecConfig {
                filter_kind: FilterKind::Bloom { bits_per_key: 8 },
                ..ExecConfig::default()
            },
            ExecConfig {
                filter_kind: FilterKind::BlockedBloom { bits_per_key: 8 },
                ..ExecConfig::default()
            },
        ] {
            let scalar = base
                .with_kernel_mode(KernelMode::Scalar)
                .with_batch_size(usize::MAX);
            let oracle = run_rows(&catalog, ExecContext::new(scalar), &g, &plan);
            for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
                for threads in [1usize, 4] {
                    for batch_size in [1usize, 7, 1024, usize::MAX] {
                        let config = base
                            .with_kernel_mode(mode)
                            .with_num_threads(threads)
                            .with_batch_size(batch_size);
                        let (result, rows) = run_rows(&catalog, pooled(config), &g, &plan);
                        let label = format!("{mode:?} threads={threads} batch={batch_size}");
                        assert_eq!(result.output_rows, oracle.0.output_rows, "{label}");
                        assert_eq!(
                            result.metrics.operators, oracle.0.metrics.operators,
                            "{label}"
                        );
                        assert_eq!(
                            result.metrics.filter_stats, oracle.0.metrics.filter_stats,
                            "{label}"
                        );
                        assert_eq!(rows, oracle.1, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_mode_builders() {
        assert_eq!(ExecConfig::scalar_kernels().kernel_mode, KernelMode::Scalar);
        assert_eq!(
            ExecConfig::scalar_kernels()
                .with_kernel_mode(KernelMode::Vectorized)
                .kernel_mode,
            KernelMode::Vectorized
        );
        assert_eq!(ExecConfig::default().kernel_mode, KernelMode::Vectorized);
    }

    #[test]
    fn missing_table_in_catalog_is_an_error() {
        let catalog = tiny_catalog();
        let mut g = JoinGraph::new();
        let ghost = g.add_relation(RelationInfo::new("ghost", 10.0, 10.0));
        let tree = JoinTree::right_deep(&[ghost]);
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let ctx = ExecContext::new(ExecConfig::default());
        let (_, rows) = execute(&catalog, &g, &plan, ctx, false);
        assert!(rows.is_err());
    }

    #[test]
    fn single_table_scan_with_predicate() {
        let catalog = tiny_catalog();
        let mut g = JoinGraph::new();
        let d1 = g.add_relation(
            RelationInfo::new("d1", 4.0, 2.0).with_predicates(vec![ColumnPredicate::new(
                "cat",
                CompareOp::Eq,
                1i64,
            )]),
        );
        let tree = JoinTree::right_deep(&[d1]);
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let result = run(&catalog, ExecContext::new(ExecConfig::default()), &g, &plan);
        assert_eq!(result.output_rows, 2);
        assert_eq!(result.metrics.tuples_by_kind(OperatorKind::Leaf), 2);
        assert_eq!(result.metrics.tuples_by_kind(OperatorKind::Join), 0);
    }

    #[test]
    fn empty_scan_still_reports_schema_and_zero_rows() {
        let catalog = tiny_catalog();
        let mut g = JoinGraph::new();
        let d1 = g.add_relation(
            RelationInfo::new("d1", 4.0, 0.0).with_predicates(vec![ColumnPredicate::new(
                "cat",
                CompareOp::Eq,
                99i64,
            )]),
        );
        let fact = g.add_relation(RelationInfo::new("fact", 12.0, 12.0));
        g.add_edge(JoinEdge::pkfk(fact, "d1_sk", d1, "sk", 4.0));
        let tree = JoinTree::right_deep(&[fact, d1]);
        let plan = PhysicalPlan::from_join_tree(&g, &tree);
        let result = run(&catalog, ExecContext::new(ExecConfig::default()), &g, &plan);
        assert_eq!(result.output_rows, 0);
        assert_eq!(result.metrics.tuples_by_kind(OperatorKind::Join), 0);
    }

    #[test]
    fn unfired_cancel_token_changes_nothing() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let config = ExecConfig::exact_filters();
        let plain = run_rows(&catalog, ExecContext::new(config), &g, &plan);
        let ctx = ExecContext::new(config).with_cancel_token(CancelToken::new());
        let observed = run_rows(&catalog, ctx, &g, &plan);
        assert_eq!(observed.0.output_rows, plain.0.output_rows);
        assert_eq!(observed.1, plain.1);
    }

    #[test]
    fn pre_fired_token_cancels_with_partial_metrics() {
        let catalog = tiny_catalog();
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let token = CancelToken::new();
        token.cancel();
        for threads in [1usize, 4] {
            let config = ExecConfig::exact_filters().with_num_threads(threads);
            let ctx = pooled(config).with_cancel_token(token.clone());
            let (partial, rows) = execute(&catalog, &g, &plan, ctx, false);
            assert_eq!(rows, Err(StorageError::Cancelled), "threads {threads}");
            // Nothing ran, but the metrics gathered so far are returned.
            assert_eq!(partial.metrics.tuples_by_kind(OperatorKind::Join), 0);
        }
    }

    /// The tiny star's fact table served as a fetched source of 2-row
    /// chunks whose `read_chunk(k)` fires the armed token: a cancel landing
    /// inside a known morsel.
    #[derive(Debug)]
    struct CancelAtChunk {
        table: Arc<Table>,
        armed: Mutex<Option<(usize, CancelToken)>>,
    }

    impl ChunkSource for CancelAtChunk {
        fn name(&self) -> &str {
            self.table.name()
        }
        fn schema(&self) -> &Schema {
            self.table.schema()
        }
        fn num_rows(&self) -> usize {
            self.table.num_rows()
        }
        fn chunk_rows(&self) -> usize {
            2
        }
        fn zone_map(&self, _chunk: usize, _column: usize) -> Option<(Value, Value)> {
            None
        }
        fn read_chunk(&self, chunk: usize) -> Result<Vec<Arc<Column>>, StorageError> {
            if let Some((k, token)) = &*self.armed.lock().unwrap() {
                if *k == chunk {
                    token.cancel();
                }
            }
            let (start, end) = self.chunk_range(chunk);
            let rows: Vec<usize> = (start..end).collect();
            let columns = self.table.columns().iter();
            Ok(columns.map(|c| Arc::new(c.take(&rows))).collect())
        }
        fn chunk_byte_size(&self, chunk: usize) -> u64 {
            let (start, end) = self.chunk_range(chunk);
            (end - start) as u64
        }
        fn fingerprint(&self) -> u64 {
            0
        }
        fn table_stats(&self) -> TableStats {
            self.table.compute_stats()
        }
    }

    /// The cancel-at-every-morsel sweep: a token fired from inside
    /// `read_chunk(k)`, for every chunk `k` of the fetched fact table, at 1
    /// and 4 threads in both kernel modes, aborts the run with
    /// `StorageError::Cancelled` and its partial metrics — and the next run
    /// with the same catalog, configuration and worker pool is bit-identical
    /// to an uncancelled one.
    #[test]
    fn cancel_at_every_chunk_aborts_and_the_next_run_is_bit_identical() {
        let mut catalog = tiny_catalog();
        let source = Arc::new(CancelAtChunk {
            table: catalog.table("fact").unwrap(),
            armed: Mutex::new(None),
        });
        catalog.register_source(Arc::clone(&source) as Arc<dyn ChunkSource>);
        let (g, fact, d1, d2) = tiny_graph();
        let tree = JoinTree::right_deep(&[fact, d1, d2]);
        let plan = push_down_bitvectors(&g, PhysicalPlan::from_join_tree(&g, &tree));
        let pool = WorkerPool::new(3);
        for mode in [KernelMode::Vectorized, KernelMode::Scalar] {
            for threads in [1usize, 4] {
                let config = ExecConfig::exact_filters()
                    .with_kernel_mode(mode)
                    .with_num_threads(threads);
                let ctx = || ExecContext::with_pool(config, Some(pool.clone()));
                let (reference, reference_rows) = run_rows(&catalog, ctx(), &g, &plan);
                assert_eq!(reference.output_rows, EXPECTED_ROWS);
                for k in 0..source.num_chunks() {
                    let label = format!("{mode:?} threads={threads} chunk={k}");
                    let token = CancelToken::new();
                    *source.armed.lock().unwrap() = Some((k, token.clone()));
                    let cancellable = ctx().with_cancel_token(token);
                    let (partial, rows) = execute(&catalog, &g, &plan, cancellable, true);
                    *source.armed.lock().unwrap() = None;
                    assert_eq!(rows.err(), Some(StorageError::Cancelled), "{label}");
                    // The fact scan opens last, under both joins: no join
                    // produced a row before the abort.
                    let joined = partial.metrics.tuples_by_kind(OperatorKind::Join);
                    assert_eq!(joined, 0, "{label}");

                    let (result, rows) = run_rows(&catalog, ctx(), &g, &plan);
                    assert_eq!(rows, reference_rows, "{label}");
                    assert_eq!(result.output_rows, reference.output_rows, "{label}");
                    let (m, r) = (&result.metrics, &reference.metrics);
                    assert_eq!(m.operators, r.operators, "{label}");
                    assert_eq!(m.filter_stats, r.filter_stats, "{label}");
                    assert_eq!(m.filters_created, r.filters_created, "{label}");
                    assert_eq!(m.chunks_read, r.chunks_read, "{label}");
                    assert_eq!(m.bytes_read, r.bytes_read, "{label}");
                }
            }
        }
    }
}
