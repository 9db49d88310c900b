//! Differential-testing oracle harness for morsel-driven parallel execution.
//!
//! Every workload query is executed once through the serial path
//! (`num_threads = 1`, unbatched, **scalar kernels**) as the **oracle**, then
//! re-executed across the full `{1, 2, 4, 8} × {1, 7, 1024, usize::MAX}`
//! thread/batch matrix (plus the `BQO_TEST_THREADS` CI override) under
//! **both kernel modes** — vectorized (selection vectors + word-level
//! probes) and scalar. Each cell must reproduce the oracle **bit for bit**:
//! the concatenated output rows, the per-operator counter list, and every
//! aggregate filter counter. A single probe counted twice, a row emitted out
//! of order, a morsel dropped by the scheduler, or a word-probe tail bit
//! miscounted fails this harness.

use bqo_core::exec::{ExecConfig, KernelMode};
use bqo_core::workloads::{star, tpcds_like, Scale};
use bqo_core::{Engine, OptimizerChoice, QuerySpec, RunOptions};
use bqo_integration_tests::{env_threads, Rechunked};
use std::sync::Arc;

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 8];
const BATCH_MATRIX: [usize; 4] = [1, 7, 1024, usize::MAX];

/// Thread counts under test: the fixed matrix plus the CI environment
/// override, deduplicated.
fn thread_counts() -> Vec<usize> {
    let mut threads = THREAD_MATRIX.to_vec();
    let env = env_threads();
    if !threads.contains(&env) {
        threads.push(env);
    }
    threads
}

/// Runs every query of a workload under every optimizer choice through the
/// whole thread/batch matrix and asserts bit-identical rows and counters
/// against the serial oracle.
fn assert_parallel_matches_serial_oracle(
    engine: &Engine,
    queries: &[QuerySpec],
    choices: &[OptimizerChoice],
    base: ExecConfig,
) {
    let session = engine.session();
    for query in queries {
        for &choice in choices {
            let prepared = engine.prepare(query, choice).unwrap();
            let oracle_out = session
                .execute(
                    &prepared,
                    RunOptions::new()
                        .with_exec_config(
                            base.with_batch_size(usize::MAX)
                                .with_num_threads(1)
                                .with_kernel_mode(KernelMode::Scalar),
                        )
                        .collecting_rows(),
                )
                .unwrap();
            let (oracle, oracle_rows) = (oracle_out.result, oracle_out.rows.unwrap());
            for kernel_mode in [KernelMode::Vectorized, KernelMode::Scalar] {
                for &num_threads in &thread_counts() {
                    for &batch_size in &BATCH_MATRIX {
                        let config = base
                            .with_batch_size(batch_size)
                            .with_num_threads(num_threads)
                            .with_kernel_mode(kernel_mode);
                        let out = session
                            .execute(
                                &prepared,
                                RunOptions::new().with_exec_config(config).collecting_rows(),
                            )
                            .unwrap();
                        let (result, rows) = (out.result, out.rows.unwrap());
                        let label = format!(
                            "{} / {:?} / {kernel_mode:?} / threads {num_threads} / batch {batch_size}",
                            query.name, choice
                        );
                        // Results: identical rows in identical order.
                        assert_eq!(result.output_rows, oracle.output_rows, "{label}");
                        assert_eq!(rows, oracle_rows, "{label}");
                        // Counters: the full per-operator list (output, build
                        // and probe tuple counts per plan node, in close
                        // order) and every aggregate.
                        assert_eq!(
                            result.metrics.operators, oracle.metrics.operators,
                            "{label}"
                        );
                        assert_eq!(
                            result.metrics.filter_stats, oracle.metrics.filter_stats,
                            "{label}"
                        );
                        assert_eq!(
                            result.metrics.filters_created, oracle.metrics.filters_created,
                            "{label}"
                        );
                        assert_eq!(
                            result.metrics.logical_work(),
                            oracle.metrics.logical_work(),
                            "{label}"
                        );
                    }
                }
            }
        }
    }
}

/// TPC-DS-like snowstorm of PKFK joins, both optimizers, default (bitmap)
/// filters.
#[test]
fn tpcds_like_matrix_matches_serial_oracle() {
    let workload = tpcds_like::generate(Scale(0.02), 3, 17);
    let engine = Engine::from_catalog(workload.catalog);
    assert_parallel_matches_serial_oracle(
        &engine,
        &workload.queries,
        &[OptimizerChoice::Baseline, OptimizerChoice::Bqo],
        ExecConfig::default(),
    );
}

/// Star workload with exact filters and the fact table fetched in 64-row
/// chunks: its scan morsels are chunks, so they disagree with most batch
/// boundaries of the matrix.
#[test]
fn star_matrix_matches_serial_oracle_with_exact_filters() {
    let mut workload = star::generate(Scale(0.02), 3, 2, 42);
    let fact = workload.catalog.table("fact").unwrap();
    let fetched = Rechunked::new(fact, 64);
    workload.catalog.register_source(Arc::new(fetched));
    let engine = Engine::from_catalog(workload.catalog);
    assert_parallel_matches_serial_oracle(
        &engine,
        &workload.queries,
        &[OptimizerChoice::Bqo],
        ExecConfig::exact_filters(),
    );
}

/// Plans without bitvector placements: the parallel path must also be a
/// bit-identical reproduction (the scans' predicate morsels still fan out,
/// while every join probes on the thread that pulls its batch).
#[test]
fn star_matrix_matches_serial_oracle_without_bitvectors() {
    let workload = star::generate(Scale(0.02), 3, 1, 7);
    let engine = Engine::from_catalog(workload.catalog);
    assert_parallel_matches_serial_oracle(
        &engine,
        &workload.queries,
        &[OptimizerChoice::BaselineNoBitvectors],
        ExecConfig::default(),
    );
}

/// An empty-result query (impossible predicate) must stay empty — with the
/// schema-carrying empty batch — for every matrix cell.
#[test]
fn empty_results_survive_the_matrix() {
    use bqo_core::{ColumnPredicate, CompareOp};
    let workload = star::generate(Scale(0.02), 2, 1, 3);
    let engine = Engine::from_catalog(workload.catalog);
    let query = star::build_query("empty_q", 2, &[(0, 1)]).predicate(
        "dim0",
        ColumnPredicate::new("dim0_category", CompareOp::Lt, -1i64),
    );
    assert_parallel_matches_serial_oracle(
        &engine,
        &[query],
        &[OptimizerChoice::Bqo, OptimizerChoice::Baseline],
        ExecConfig::default(),
    );
}
