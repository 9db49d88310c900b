//! Property-based differential testing of the parallel executor.
//!
//! Random star schemas — random dimension sizes, category cardinalities,
//! predicate selectivities, fact skew, batch sizes and thread counts — are
//! generated with the vendored proptest shim, materialized through the data
//! generator, and executed twice: once serially (`num_threads = 1`) and once
//! with the generated thread count. Rows, per-operator counters and
//! bitvector probe counts must match exactly.
//!
//! The same harness states the scan's chunk-aligned-morsel invariant: the
//! star re-registered through a re-chunked, fetched [`Rechunked`] source (one
//! morsel per chunk, zone-map pruning, per-chunk compaction) answers exactly
//! like the plain in-memory tables.
//!
//! And the join table's determinism contract: whatever the number of build
//! workers, every key's row list — whichever layout holds it — is the
//! ascending list of build rows carrying that key.

use bqo_core::exec::{ExecConfig, JoinTable, KernelMode};
use bqo_core::storage::DataGenerator;
use bqo_core::storage::{Catalog, Table};
use bqo_core::{ColumnPredicate, CompareOp, Engine, OptimizerChoice, QuerySpec, RunOptions};
use bqo_integration_tests::{env_threads, Rechunked};
use proptest::prelude::*;
use std::sync::Arc;

/// One generated dimension: `(rows, categories, predicate bound)`.
type DimSpec = (usize, usize, i64);

fn dim_strategy() -> impl Strategy<Value = DimSpec> {
    (2usize..60, 2usize..8, 1i64..8)
}

/// Builds the star catalog and query for one generated case. With
/// `chunk_rows`, every table is registered through [`Rechunked`] instead of
/// as a plain in-memory table.
fn build_star(
    seed: u64,
    fact_rows: usize,
    skew: f64,
    dims: &[DimSpec],
    chunk_rows: Option<usize>,
) -> (Engine, QuerySpec) {
    let gen = DataGenerator::new(seed);
    let mut catalog = Catalog::new();
    let register = |catalog: &mut Catalog, table: Table| match chunk_rows {
        None => catalog.register_table(table),
        Some(chunk_rows) => {
            catalog.register_source(Arc::new(Rechunked::new(Arc::new(table), chunk_rows)))
        }
    };
    let mut fact_dims = Vec::new();
    let mut spec = QuerySpec::new(format!("prop_star_{seed}")).table("fact");
    for (i, &(rows, categories, bound)) in dims.iter().enumerate() {
        let name = format!("d{i}");
        register(&mut catalog, gen.dimension_table(&name, rows, categories));
        catalog
            .declare_primary_key(&name, &format!("{name}_sk"))
            .unwrap();
        fact_dims.push((name.clone(), rows, skew));
        spec = spec
            .table(name.clone())
            .join(
                "fact",
                format!("{name}_sk"),
                name.clone(),
                format!("{name}_sk"),
            )
            .predicate(
                name.clone(),
                ColumnPredicate::new(format!("{name}_category"), CompareOp::Lt, bound),
            );
    }
    register(&mut catalog, gen.fact_table("fact", fact_rows, &fact_dims));
    let engine = Engine::from_catalog(catalog);
    (engine, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial and parallel execution agree on rows, operator counters and
    /// bitvector probe counts for arbitrary star schemas and configurations.
    #[test]
    fn serial_and_parallel_execution_agree(
        seed in 0u64..1_000_000,
        // Spans the inline/fan-out boundary: a fact of at most `batch_size`
        // rows is one morsel and runs inline, a larger one fans out over the
        // engine's pool workers.
        fact_rows in 0usize..6000,
        skew in 0.0f64..1.2,
        dims in prop::collection::vec(dim_strategy(), 1..4),
        batch_size in 1usize..300,
        num_threads in 2usize..9,
    ) {
        let (engine, spec) = build_star(seed, fact_rows, skew, &dims, None);
        let session = engine.session();
        let prepared = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();

        let serial = ExecConfig::default()
            .with_batch_size(batch_size)
            .with_num_threads(1);
        let parallel = serial.with_num_threads(num_threads.max(env_threads()));

        let serial_out = session
            .execute(
                &prepared,
                RunOptions::new().with_exec_config(serial).collecting_rows(),
            )
            .unwrap();
        let parallel_out = session
            .execute(
                &prepared,
                RunOptions::new().with_exec_config(parallel).collecting_rows(),
            )
            .unwrap();
        let (serial_result, serial_rows) = (serial_out.result, serial_out.rows.unwrap());
        let (parallel_result, parallel_rows) = (parallel_out.result, parallel_out.rows.unwrap());

        prop_assert_eq!(parallel_result.output_rows, serial_result.output_rows);
        prop_assert_eq!(&parallel_rows, &serial_rows);
        prop_assert_eq!(
            &parallel_result.metrics.operators,
            &serial_result.metrics.operators
        );
        // Bitvector probe counts: the paper's λ bookkeeping must not drift
        // under parallel probing.
        prop_assert_eq!(
            parallel_result.metrics.filter_stats,
            serial_result.metrics.filter_stats
        );
        prop_assert_eq!(
            parallel_result.metrics.filters_created,
            serial_result.metrics.filters_created
        );
    }

    /// The baseline optimizer (and the no-bitvector path) agree too, and both
    /// optimizers return the same answer under parallel execution.
    #[test]
    fn optimizers_agree_under_parallel_execution(
        seed in 0u64..1_000_000,
        fact_rows in 1usize..5000,
        dims in prop::collection::vec(dim_strategy(), 1..4),
        num_threads in 2usize..9,
    ) {
        let (engine, spec) = build_star(seed, fact_rows, 0.3, &dims, None);
        let session = engine.session();
        let config = ExecConfig::default().with_num_threads(num_threads);
        let bqo_stmt = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();
        let bqo = session
            .execute(&bqo_stmt, RunOptions::new().with_exec_config(config))
            .unwrap()
            .result;
        let baseline_stmt = engine
            .prepare(&spec, OptimizerChoice::BaselineNoBitvectors)
            .unwrap();
        let baseline = session
            .execute(
                &baseline_stmt,
                RunOptions::new().with_exec_config(config),
            )
            .unwrap()
            .result;
        prop_assert_eq!(bqo.output_rows, baseline.output_rows);
        prop_assert_eq!(baseline.metrics.filters_created, 0usize);
    }

    /// The chunk-aligned-morsel invariant: a fetched source scanned one
    /// morsel per chunk, its zone maps pruning chunks — whatever the chunk
    /// size — yields the rows, `FilterStats` and per-operator counters of
    /// the in-memory scan under the same configuration.
    #[test]
    fn rechunked_sources_answer_like_in_memory_tables(
        seed in 0u64..1_000_000,
        fact_rows in 0usize..3000,
        skew in 0.0f64..1.2,
        dims in prop::collection::vec(dim_strategy(), 1..4),
        chunk_choice in 0usize..5,
        batch_size in 1usize..300,
        parallel in 0usize..2,
        scalar in 0usize..2,
    ) {
        let chunk_rows = [1, 7, 64, fact_rows.max(1), fact_rows + 1][chunk_choice];
        let config = ExecConfig::default()
            .with_batch_size(batch_size)
            .with_num_threads([1, 4][parallel])
            .with_kernel_mode([KernelMode::Vectorized, KernelMode::Scalar][scalar]);
        let run = |chunk_rows| {
            let (engine, spec) = build_star(seed, fact_rows, skew, &dims, chunk_rows);
            let prepared = engine.prepare(&spec, OptimizerChoice::Bqo).unwrap();
            let options = RunOptions::new().with_exec_config(config).collecting_rows();
            engine.session().execute(&prepared, options).unwrap()
        };
        let (memory, fetched) = (run(None), run(Some(chunk_rows)));

        prop_assert_eq!(fetched.result.output_rows, memory.result.output_rows);
        prop_assert_eq!(&fetched.rows, &memory.rows);
        prop_assert_eq!(&fetched.result.metrics.operators, &memory.result.metrics.operators);
        prop_assert_eq!(fetched.result.metrics.filter_stats, memory.result.metrics.filter_stats);
        prop_assert_eq!(fetched.result.metrics.filters_created, memory.result.metrics.filters_created);
        // Only fetched chunks are counted.
        prop_assert_eq!(memory.result.metrics.chunks_read + memory.result.metrics.chunks_pruned, 0);
        let table_rows = dims.iter().map(|d| d.0).chain([fact_rows]);
        let chunks: usize = table_rows.map(|rows| rows.div_ceil(chunk_rows)).sum();
        let metrics = &fetched.result.metrics;
        prop_assert_eq!(metrics.chunks_read + metrics.chunks_pruned, chunks as u64);
    }

    /// Count-then-scatter is deterministic: over dense (direct-addressed),
    /// sparse (hashed) and extreme key sets, every key's row list is exactly
    /// the ascending build rows carrying it. The build takes the keys alone,
    /// so this holds at every worker count.
    #[test]
    fn join_table_row_lists_are_ascending_for_every_worker_count(
        raw in prop::collection::vec(-40i64..40, 0..400),
        shape in 0usize..3,
    ) {
        let keys: Vec<i64> = match shape {
            0 => raw.clone(),
            1 => raw.iter().map(|k| k * 1_000_000_007).collect(),
            _ => raw.iter().map(|k| if k % 2 == 0 { i64::MAX - k.abs() } else { i64::MIN + k.abs() }).collect(),
        };
        let mut expected: std::collections::BTreeMap<i64, Vec<u32>> = Default::default();
        for (row, &key) in keys.iter().enumerate() {
            expected.entry(key).or_default().push(row as u32);
        }
        let table = JoinTable::build(&keys).unwrap();
        prop_assert_eq!(table.num_rows(), keys.len());
        for (&key, rows) in &expected {
            prop_assert!(rows.windows(2).all(|pair| pair[0] < pair[1]));
            prop_assert_eq!((key, table.get(key)), (key, &rows[..]));
        }
        for miss in [41, -41, 1_000_000_006, i64::MAX, 0] {
            if !expected.contains_key(&miss) {
                prop_assert!(table.get(miss).is_empty());
            }
        }
    }
}
