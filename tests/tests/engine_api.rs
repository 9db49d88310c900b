//! Integration tests of the `Engine` facade and the pull-based pipeline:
//! batch-size invariance (results and counters must be bit-identical for
//! every batch size, and match the pre-redesign recursive executor), and
//! descriptive error paths instead of panics.

use bqo_core::exec::{ExecConfig, DEFAULT_BATCH_SIZE};
use bqo_core::plan::{push_down_bitvectors, JoinTree, PhysicalPlan};
use bqo_core::workloads::{tpcds_like, Scale};
use bqo_core::{
    CacheStatus, Catalog, ColumnPredicate, CompareOp, Engine, OperatorKind, OptimizerChoice,
    QueryPhase, QuerySpec, RunOptions, StorageError, TableBuilder,
};
use bqo_integration_tests::Rechunked;
use std::sync::Arc;
use std::time::Duration;

/// Batch sizes swept by the invariance tests; `usize::MAX` is effectively
/// unbatched (one batch per scan), i.e. the pre-redesign execution granularity.
const BATCH_SIZES: [usize; 4] = [1, 7, 1024, usize::MAX];

/// The hand-built star of the original executor unit tests: fact(12 rows)
/// -> d1(4 rows), d2(3 rows).
fn tiny_star_engine() -> Engine {
    Engine::builder()
        .table(
            TableBuilder::new("d1")
                .with_i64("sk", vec![0, 1, 2, 3])
                .with_i64("cat", vec![0, 0, 1, 1])
                .build()
                .unwrap(),
        )
        .table(
            TableBuilder::new("d2")
                .with_i64("sk", vec![0, 1, 2])
                .with_i64("flag", vec![1, 0, 1])
                .build()
                .unwrap(),
        )
        .table(
            TableBuilder::new("fact")
                .with_i64("d1_sk", vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])
                .with_i64("d2_sk", vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
                .with_f64("amount", vec![1.0; 12])
                .build()
                .unwrap(),
        )
        .primary_key("d1", "sk")
        .primary_key("d2", "sk")
        .build()
        .unwrap()
}

/// Every batch size must reproduce the numbers the pre-redesign recursive
/// executor produced on the tiny star (recorded in the seed's executor unit
/// test): 4 result rows, 2 filters created, 4 + 2 + 2 leaf tuples with exact
/// filters, and at least one elimination.
#[test]
fn batch_size_sweep_matches_the_pre_redesign_oracle() {
    let engine = tiny_star_engine();
    let spec = QuerySpec::new("tiny_star")
        .table("fact")
        .table("d1")
        .table("d2")
        .join("fact", "d1_sk", "d1", "sk")
        .join("fact", "d2_sk", "d2", "sk")
        .predicate("d1", ColumnPredicate::new("cat", CompareOp::Eq, 0i64))
        .predicate("d2", ColumnPredicate::new("flag", CompareOp::Eq, 1i64));
    let graph = spec.to_join_graph(engine.catalog()).unwrap();
    let fact = graph.relation_by_name("fact").unwrap();
    let d1 = graph.relation_by_name("d1").unwrap();
    let d2 = graph.relation_by_name("d2").unwrap();
    let tree = JoinTree::right_deep(&[fact, d1, d2]);
    let plan = push_down_bitvectors(&graph, PhysicalPlan::from_join_tree(&graph, &tree));

    let mut probed = Vec::new();
    let mut eliminated = Vec::new();
    let stmt = engine.prepare_plan("tiny_star", graph, plan);
    // A hand-built plan never goes through the plan cache.
    assert_eq!(stmt.cache_status(), CacheStatus::Bypassed);
    for batch_size in BATCH_SIZES {
        let out = engine
            .session()
            .execute(
                &stmt,
                RunOptions::new()
                    .with_exec_config(ExecConfig::exact_filters().with_batch_size(batch_size)),
            )
            .unwrap();
        // A direct run was never queued, and its wall time is its execution.
        assert_eq!(out.queue_wait, Duration::ZERO);
        assert_eq!(out.total_wall, out.result.metrics.elapsed);
        assert_eq!(out.cache_status, stmt.cache_status());
        let result = out.result;
        assert_eq!(result.output_rows, 4, "batch_size {batch_size}");
        assert_eq!(result.metrics.filters_created, 2, "batch_size {batch_size}");
        assert_eq!(
            result.metrics.tuples_by_kind(OperatorKind::Leaf),
            4 + 2 + 2,
            "batch_size {batch_size}"
        );
        assert!(result.metrics.filter_stats.eliminated > 0);
        probed.push(result.metrics.filter_stats.probed);
        eliminated.push(result.metrics.filter_stats.eliminated);
    }
    assert!(
        probed.windows(2).all(|w| w[0] == w[1]),
        "probe counts differ across batch sizes: {probed:?}"
    );
    assert!(
        eliminated.windows(2).all(|w| w[0] == w[1]),
        "elimination counts differ across batch sizes: {eliminated:?}"
    );
}

/// On a generated workload, both optimizers' plans must produce identical
/// rows and filter statistics for every batch size, with the unbatched run
/// (`usize::MAX`, the pre-redesign granularity) as the oracle.
#[test]
fn batch_size_sweep_is_invariant_on_generated_workloads() {
    let workload = tpcds_like::generate(Scale(0.02), 3, 17);
    let engine = Engine::from_catalog(workload.catalog.clone());
    let session = engine.session();
    for query in &workload.queries {
        for choice in [OptimizerChoice::Baseline, OptimizerChoice::Bqo] {
            let prepared = engine.prepare(query, choice).unwrap();
            let oracle = session
                .execute(
                    &prepared,
                    RunOptions::new()
                        .with_exec_config(ExecConfig::exact_filters().with_batch_size(usize::MAX)),
                )
                .unwrap()
                .result;
            for batch_size in BATCH_SIZES {
                let result = session
                    .execute(
                        &prepared,
                        RunOptions::new().with_exec_config(
                            ExecConfig::exact_filters().with_batch_size(batch_size),
                        ),
                    )
                    .unwrap()
                    .result;
                let label = format!("{} / {:?} / batch {batch_size}", query.name, choice);
                assert_eq!(result.output_rows, oracle.output_rows, "{label}");
                assert_eq!(
                    result.metrics.filters_created, oracle.metrics.filters_created,
                    "{label}"
                );
                assert_eq!(
                    result.metrics.filter_stats.probed, oracle.metrics.filter_stats.probed,
                    "{label}"
                );
                assert_eq!(
                    result.metrics.filter_stats.eliminated, oracle.metrics.filter_stats.eliminated,
                    "{label}"
                );
                for kind in [OperatorKind::Leaf, OperatorKind::Join, OperatorKind::Other] {
                    assert_eq!(
                        result.metrics.tuples_by_kind(kind),
                        oracle.metrics.tuples_by_kind(kind),
                        "{label} {kind:?}"
                    );
                }
                assert_eq!(
                    result.metrics.total_probe_rows(),
                    oracle.metrics.total_probe_rows(),
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn default_batch_size_is_sane_and_clamped() {
    assert_eq!(ExecConfig::default().batch_size, DEFAULT_BATCH_SIZE);
    const { assert!(DEFAULT_BATCH_SIZE > 1) };
    // A zero batch size silently becomes 1 instead of hanging the pipeline.
    assert_eq!(ExecConfig::default().with_batch_size(0).batch_size, 1);
}

#[test]
fn default_num_threads_is_serial_and_zero_is_clamped() {
    assert_eq!(ExecConfig::default().num_threads, 1);
    // `num_threads = 0` is clamped to the serial path, not a panic.
    assert_eq!(ExecConfig::default().with_num_threads(0).num_threads, 1);
    assert_eq!(ExecConfig::default().with_num_threads(8).num_threads, 8);
}

/// `PreparedStatement::explain` surfaces the engine's default execution
/// configuration.
#[test]
fn explain_surfaces_the_execution_configuration() {
    let spec = QuerySpec::new("explained")
        .table("fact")
        .table("d1")
        .join("fact", "d1_sk", "d1", "sk");

    let serial = tiny_star_engine();
    let explain = serial
        .prepare(&spec, OptimizerChoice::Bqo)
        .unwrap()
        .explain();
    assert!(explain.contains("num_threads=1"), "{explain}");
    assert!(
        explain.contains(&format!("batch_size={DEFAULT_BATCH_SIZE}")),
        "{explain}"
    );

    let workload = bqo_core::workloads::star::generate(Scale(0.02), 2, 1, 5);
    let parallel = Engine::builder()
        .catalog(workload.catalog)
        .exec_config(
            ExecConfig::default()
                .with_num_threads(4)
                .with_batch_size(usize::MAX),
        )
        .build()
        .unwrap();
    let stmt = parallel
        .prepare(&workload.queries[0], OptimizerChoice::Bqo)
        .unwrap();
    let explain = stmt.explain();
    assert!(explain.contains("num_threads=4"), "{explain}");
    assert!(explain.contains("batch_size=unbatched"), "{explain}");
}

#[test]
fn unknown_relation_in_query_spec_is_a_descriptive_error() {
    let engine = tiny_star_engine();
    let spec = QuerySpec::new("bad_table_query")
        .table("fact")
        .table("nope");
    let err = engine
        .prepare(&spec, OptimizerChoice::Bqo)
        .expect_err("unknown relation must not panic");
    assert_eq!(err.phase(), QueryPhase::Planning);
    assert_eq!(err.query(), Some("bad_table_query"));
    let msg = err.to_string();
    assert!(msg.contains("bad_table_query"), "{msg}");
    assert!(msg.contains("nope"), "{msg}");
}

#[test]
fn unknown_column_in_query_spec_is_a_descriptive_error() {
    let engine = tiny_star_engine();
    // Predicate on a column d1 does not have.
    let spec = QuerySpec::new("bad_column_query")
        .table("fact")
        .table("d1")
        .join("fact", "d1_sk", "d1", "sk")
        .predicate(
            "d1",
            ColumnPredicate::new("no_such_column", CompareOp::Eq, 1i64),
        );
    let err = engine
        .prepare(&spec, OptimizerChoice::Baseline)
        .expect_err("unknown column must not panic");
    assert_eq!(err.phase(), QueryPhase::Planning);
    let msg = err.to_string();
    assert!(msg.contains("bad_column_query"), "{msg}");
    assert!(msg.contains("no_such_column"), "{msg}");

    // Join on a column that does not exist.
    let spec = QuerySpec::new("bad_join_query")
        .table("fact")
        .table("d1")
        .join("fact", "ghost_sk", "d1", "sk");
    let err = engine
        .prepare(&spec, OptimizerChoice::Bqo)
        .expect_err("unknown join column must not panic");
    let msg = err.to_string();
    assert!(msg.contains("bad_join_query"), "{msg}");
    assert!(msg.contains("ghost_sk"), "{msg}");
}

/// Query shapes the optimizers cannot plan are planning errors naming the
/// query and the offending tables — under both optimizers, and the engine
/// keeps serving afterwards.
#[test]
fn malformed_query_shapes_are_descriptive_errors() {
    let engine = tiny_star_engine();
    let too_many = (0..129).fold(QuerySpec::new("too_many"), |spec, i| {
        spec.table(format!("t{i}"))
    });
    let cases = [
        (
            QuerySpec::new("cross").table("d1").table("d2"),
            "no join condition connecting `d2` to `d1`",
        ),
        (
            QuerySpec::new("self_join")
                .table("d1")
                .join("d1", "sk", "d1", "sk"),
            "joins table `d1` with itself",
        ),
        (
            QuerySpec::new("twice")
                .table("d1")
                .table("d1")
                .table("fact")
                .join("fact", "d1_sk", "d1", "sk"),
            "lists table `d1` twice",
        ),
        (too_many, "joins 129 tables; at most 128"),
    ];
    for (spec, expected) in &cases {
        for choice in [OptimizerChoice::Bqo, OptimizerChoice::Baseline] {
            let err = engine
                .prepare(spec, choice)
                .expect_err("malformed query shape must not plan");
            assert_eq!(err.phase(), QueryPhase::Planning);
            let msg = err.to_string();
            assert!(msg.contains(&format!("query `{}`", spec.name)), "{msg}");
            assert!(msg.contains(expected), "{msg}");
        }
    }
    let ok = QuerySpec::new("ok")
        .table("fact")
        .table("d1")
        .join("fact", "d1_sk", "d1", "sk");
    let stmt = engine.prepare(&ok, OptimizerChoice::Bqo).unwrap();
    let rows = engine.session().execute(&stmt, RunOptions::new()).unwrap();
    assert_eq!(rows.result.output_rows, 12);
}

/// Execution errors keep real query context: `Engine::prepare_plan` threads
/// the caller's query name through to the error.
#[test]
fn execution_phase_errors_carry_query_context() {
    let engine = tiny_star_engine();
    let spec = QuerySpec::new("runtime_ghost")
        .table("fact")
        .table("d1")
        .join("fact", "d1_sk", "d1", "sk");
    let graph = spec.to_join_graph(engine.catalog()).unwrap();
    let fact = graph.relation_by_name("fact").unwrap();
    let d1 = graph.relation_by_name("d1").unwrap();
    let tree = JoinTree::right_deep(&[fact, d1]);
    let plan = PhysicalPlan::from_join_tree(&graph, &tree);

    let empty = Engine::builder().build().unwrap();
    // The provided query name ends up in the error.
    let stmt = empty.prepare_plan("runtime_ghost", graph, plan);
    let err = empty
        .session()
        .execute(&stmt, RunOptions::new())
        .expect_err("missing table at runtime must not panic");
    assert_eq!(err.phase(), QueryPhase::Execution);
    assert_eq!(err.query(), Some("runtime_ghost"));
    assert!(err.to_string().contains("runtime_ghost"), "{err}");
    // Every execution error carries the run's metrics; this run stopped
    // while lowering, before any operator ran.
    let partial = err
        .partial_metrics()
        .expect("execution errors keep metrics");
    assert!(partial.operators.is_empty());
}

/// `f1` and `f2` are facts; `y` is adjacent to no snowflake until `x` joins
/// `f2`'s, so Algorithm 3 must not hand `y` to `f1`'s snowflake, which cannot
/// reach it through its fact (a plan scanning only `f1` and `f2` returns
/// 50 000 rows). Every optimizer must join all four tables.
#[test]
fn every_optimizer_joins_every_table_of_a_two_fact_query() {
    let ints = |n: i64, f: fn(i64) -> i64| (0..n).map(f).collect::<Vec<_>>();
    let engine = Engine::builder()
        .table(
            TableBuilder::new("f1")
                .with_i64("k", ints(1000, |i| i % 100))
                .build()
                .unwrap(),
        )
        .table(
            TableBuilder::new("f2")
                .with_i64("k", ints(5000, |i| i % 100))
                .with_i64("a", ints(5000, |i| i % 50))
                .build()
                .unwrap(),
        )
        .table(
            TableBuilder::new("y")
                .with_i64("pk", ints(20_000, |i| i))
                .build()
                .unwrap(),
        )
        .table(
            TableBuilder::new("x")
                .with_i64("pk", ints(20_000, |i| 2 * i))
                .with_i64("a", ints(20_000, |i| i % 50))
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let spec = QuerySpec::new("two_facts")
        .table("f1")
        .table("f2")
        .table("y")
        .table("x")
        .join("f1", "k", "f2", "k")
        .join("f2", "a", "x", "a")
        .join("x", "pk", "y", "pk");
    for choice in [
        OptimizerChoice::BaselineNoBitvectors,
        OptimizerChoice::Baseline,
        OptimizerChoice::Bqo,
    ] {
        let stmt = engine.prepare(&spec, choice).unwrap();
        assert_eq!(stmt.plan().num_joins(), 3, "{choice:?}: {}", stmt.explain());
        let out = engine
            .session()
            .execute(&stmt, RunOptions::new())
            .unwrap()
            .result;
        assert_eq!(out.output_rows, 10_000_000, "{choice:?}");
    }
}

/// A primary key on a column with repeated values is a setup error naming
/// the table, the column and both counts, whether the table lives in memory
/// or behind a chunk source; a declared key would otherwise mark the join
/// edge unique and hand the optimizer a wrong fact/dimension role.
#[test]
fn a_primary_key_on_a_repeated_column_is_rejected() {
    // `d.k`: 1 000 rows, 10 distinct values.
    let d = TableBuilder::new("d")
        .with_i64("k", (0..1000).map(|i| i % 10).collect())
        .build()
        .unwrap();
    let mut file_backed = Catalog::new();
    file_backed.register_source(Arc::new(Rechunked::new(Arc::new(d.clone()), 64)));
    for builder in [
        Engine::builder().table(d),
        Engine::builder().catalog(file_backed),
    ] {
        let err = builder
            .primary_key("d", "k")
            .build()
            .expect_err("a repeated column is not a key");
        assert_eq!(err.phase(), QueryPhase::Setup);
        assert!(
            matches!(err.storage_error(), StorageError::InvalidArgument(_)),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("`d.k`"), "{msg}");
        assert!(msg.contains("10 distinct values in 1000 rows"), "{msg}");
    }
}

/// Unique columns are still accepted as keys, in memory and behind a chunk
/// source.
#[test]
fn a_primary_key_on_a_unique_column_is_accepted() {
    let unique = |name: &str| {
        TableBuilder::new(name)
            .with_i64("k", (0..1000).map(|i| 999 - i).collect())
            .build()
            .unwrap()
    };
    let mut file_backed = Catalog::new();
    file_backed.register_source(Arc::new(Rechunked::new(Arc::new(unique("e")), 64)));
    let engine = Engine::builder()
        .catalog(file_backed)
        .table(unique("d"))
        .primary_key("d", "k")
        .primary_key("e", "k")
        .build()
        .unwrap();
    assert_eq!(engine.catalog().primary_key("d"), Some("k"));
    assert_eq!(engine.catalog().primary_key("e"), Some("k"));
}
