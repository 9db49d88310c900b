//! Disk-backed execution oracle.
//!
//! The contract under test: registering a table through its on-disk `.bqo`
//! file instead of in memory changes *where* the scan reads rows, and
//! nothing else. Concretely:
//!
//! * a TPC-DS-like workload executed against a file-backed twin of its
//!   catalog returns **bit-identical** row batches and `FilterStats` to the
//!   in-memory original, across {1, 4} worker threads × {vectorized,
//!   scalar} kernels;
//! * writing a table, reading it back and writing it again reproduces the
//!   original file byte for byte (the format has one canonical encoding);
//! * on a selective scan of a fact table clustered by its join key,
//!   zone-map pruning skips ≥ 50% of the chunks (observed through the
//!   `chunks_pruned` counter) while rows and `FilterStats` stay identical
//!   to the unpruned in-memory reference;
//! * a fault in any one chunk of a fetched fact table — an I/O error from a
//!   `Rechunked` source, or one flipped byte in a `.bqo` file — fails the
//!   query with a typed error, never a panic, at 1 and 4 workers in both
//!   kernel modes; once the fault is gone the same engine answers
//!   bit-identically to a fresh one.

use bqo_core::format::{write_table, CatalogExt, FileReader};
use bqo_core::workloads::{tpcds_like, Scale};
use bqo_core::{
    BqoError, ColumnPredicate, CompareOp, Engine, ExecConfig, KernelMode, OptimizerChoice,
    QueryOutput, QuerySpec, RunOptions, StorageError, Table, TableBuilder,
};
use bqo_integration_tests::Rechunked;
use bqo_storage::{Catalog, ChunkSource};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 2] = [1, 4];
const KERNELS: [KernelMode; 2] = [KernelMode::Vectorized, KernelMode::Scalar];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bqo-storage-oracle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes every table of `catalog` to a `.bqo` file in `dir` and builds a
/// catalog registering those files, carrying over the key declarations —
/// the disk twin of an in-memory catalog.
fn file_twin(catalog: &Catalog, dir: &Path, chunk_rows: usize) -> Catalog {
    let mut names: Vec<String> = catalog
        .table_names()
        .into_iter()
        .map(String::from)
        .collect();
    names.sort();
    let mut twin = Catalog::new();
    for name in &names {
        let table = catalog.table(name).expect("memory-backed original");
        let path = dir.join(format!("{name}.bqo"));
        write_table(&path, &table, chunk_rows).expect("write table file");
        let registered = twin.register_file(&path).expect("register file");
        assert_eq!(&registered, name);
        if let Some(pk) = catalog.primary_key(name) {
            twin.declare_primary_key(name, pk).expect("copy pk");
        }
    }
    for fk in catalog.foreign_keys() {
        twin.declare_foreign_key(fk.clone()).expect("copy fk");
    }
    twin
}

fn run(engine: &Engine, stmt: &bqo_core::PreparedStatement, config: ExecConfig) -> QueryOutput {
    engine
        .session()
        .execute(
            stmt,
            RunOptions::new().with_exec_config(config).collecting_rows(),
        )
        .expect("execution")
}

/// Disk-backed TPC-DS-like runs are bit-identical (rows and FilterStats) to
/// the in-memory runs across the threads × kernel-mode matrix.
#[test]
fn disk_backed_runs_are_bit_identical_to_memory() {
    let dir = temp_dir("tpcds");
    let w = tpcds_like::generate(Scale(0.02), 6, 11);
    let memory_engine = Engine::from_catalog(w.catalog.clone());
    // 512-row chunks give the fact tables dozens of chunks each.
    let engine = Engine::from_catalog(file_twin(&w.catalog, &dir, 512));

    for q in &w.queries {
        let mem_stmt = memory_engine.prepare(q, OptimizerChoice::Bqo).unwrap();
        assert!(mem_stmt.explain().contains("[scan=memory]"));
        let file_stmt = engine.prepare(q, OptimizerChoice::Bqo).unwrap();
        assert!(
            file_stmt.explain().contains("[scan=file]"),
            "{}: explain should label file-backed scans:\n{}",
            q.name,
            file_stmt.explain()
        );
        for threads in THREAD_COUNTS {
            for kernel in KERNELS {
                let config = ExecConfig::default()
                    .with_num_threads(threads)
                    .with_kernel_mode(kernel);
                let mem = run(&memory_engine, &mem_stmt, config);
                let file = run(&engine, &file_stmt, config);
                let cell = format!("{} [{threads} thread(s), {kernel:?}]", q.name);
                assert_eq!(
                    mem.result.output_rows, file.result.output_rows,
                    "{cell}: row counts differ"
                );
                assert_eq!(mem.rows, file.rows, "{cell}: row batches differ");
                assert_eq!(
                    mem.result.metrics.filter_stats, file.result.metrics.filter_stats,
                    "{cell}: FilterStats differ"
                );
                assert_eq!(
                    mem.result.metrics.chunks_read, 0,
                    "{cell}: memory run claims file chunks"
                );
                assert!(
                    file.result.metrics.chunks_read > 0,
                    "{cell}: file run read no chunks"
                );
                assert!(
                    file.result.metrics.bytes_read > 0,
                    "{cell}: file run read no bytes"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// write → read → write reproduces the file byte for byte: the format has
/// one canonical encoding and reading loses nothing.
#[test]
fn write_read_write_round_trip_is_byte_identical() {
    let dir = temp_dir("roundtrip");
    let catalog = tpcds_like::build_catalog(Scale(0.01), 7);
    for name in ["store_sales", "item", "date_dim"] {
        let table = catalog.table(name).unwrap();
        let first = dir.join(format!("{name}-a.bqo"));
        let second = dir.join(format!("{name}-b.bqo"));
        write_table(&first, &table, 1000).unwrap();
        let reread = FileReader::open(&first).unwrap().read_table().unwrap();
        write_table(&second, &reread, 1000).unwrap();
        let a = std::fs::read(&first).unwrap();
        let b = std::fs::read(&second).unwrap();
        assert_eq!(a, b, "{name}: write→read→write changed the bytes");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Builds a two-table catalog whose fact table is *clustered* by the join
/// key: 64 000 fact rows sorted by `fk` over 1000 dimension keys, so each
/// 1024-row chunk covers a narrow 16-key range and a selective dimension
/// predicate makes most chunks provably empty under the pushed-down
/// bitvector filter.
fn clustered_catalog() -> Catalog {
    const FACT_ROWS: usize = 64_000;
    const DIM_ROWS: usize = 1000;
    let mut catalog = Catalog::new();
    catalog.register_table(
        TableBuilder::new("dim")
            .with_i64("sk", (0..DIM_ROWS as i64).collect())
            .with_i64("payload", (0..DIM_ROWS as i64).map(|i| i % 17).collect())
            .build()
            .unwrap(),
    );
    catalog.register_table(
        TableBuilder::new("fact")
            .with_i64("fk", (0..FACT_ROWS).map(|i| (i / 64) as i64).collect())
            .with_f64("amount", (0..FACT_ROWS).map(|i| i as f64 * 0.25).collect())
            .build()
            .unwrap(),
    );
    catalog.declare_primary_key("dim", "sk").unwrap();
    catalog
        .declare_foreign_key(bqo_core::ForeignKey::new("fact", "fk", "dim", "sk"))
        .unwrap();
    catalog
}

/// Zone-map pruning skips ≥ 50% of the chunks on a selective clustered
/// scan and changes no row and no filter counter: the in-memory tables,
/// which have no chunks to prune, are the reference.
#[test]
fn zone_map_pruning_skips_most_chunks_and_changes_nothing() {
    let dir = temp_dir("pruning");
    let memory = clustered_catalog();
    // 1024-row chunks: fact = 63 chunks (ragged tail), dim = 1 chunk.
    let engine = Engine::from_catalog(file_twin(&memory, &dir, 1024));
    let memory_engine = Engine::from_catalog(memory);
    let sources = ["fact", "dim"].map(|t| engine.catalog().table_meta(t).unwrap().scan_source());
    let chunks: u64 = sources.iter().map(|s| s.num_chunks() as u64).sum();
    let chunk_bytes: u64 = sources
        .iter()
        .flat_map(|s| (0..s.num_chunks()).map(|c| s.chunk_byte_size(c)))
        .sum();
    assert_eq!(chunks, 64);

    // dim.sk < 100 keeps keys 0..100 → fact rows 0..6400 → chunks 0..=6.
    let query = QuerySpec::new("selective")
        .table("fact")
        .table("dim")
        .join("fact", "fk", "dim", "sk")
        .predicate("dim", ColumnPredicate::new("sk", CompareOp::Lt, 100i64));
    let stmt = engine.prepare(&query, OptimizerChoice::Bqo).unwrap();
    let memory_stmt = memory_engine.prepare(&query, OptimizerChoice::Bqo).unwrap();

    for threads in THREAD_COUNTS {
        for kernel in KERNELS {
            let base = ExecConfig::default()
                .with_num_threads(threads)
                .with_kernel_mode(kernel);
            let pruned = run(&engine, &stmt, base);
            let unpruned = run(&memory_engine, &memory_stmt, base);
            let cell = format!("[{threads} thread(s), {kernel:?}]");

            // Identical answers and identical filter accounting either way.
            assert_eq!(pruned.result.output_rows, 6400, "{cell}");
            assert_eq!(
                pruned.result.output_rows, unpruned.result.output_rows,
                "{cell}: pruning changed the answer"
            );
            assert_eq!(
                pruned.rows, unpruned.rows,
                "{cell}: pruning changed the row batches"
            );
            assert_eq!(
                pruned.result.metrics.filter_stats, unpruned.result.metrics.filter_stats,
                "{cell}: pruning changed FilterStats"
            );

            // Every chunk is either read or pruned, and well over half of
            // them are pruned.
            let m = &pruned.result.metrics;
            let total = m.chunks_read + m.chunks_pruned;
            assert_eq!(
                total, chunks,
                "{cell}: pruned + read must cover every chunk"
            );
            assert!(
                m.chunks_pruned * 2 >= total,
                "{cell}: expected ≥50% of chunks pruned, got {} of {total}",
                m.chunks_pruned
            );
            assert!(
                m.bytes_read < chunk_bytes,
                "{cell}: pruning should cut bytes read below {chunk_bytes}"
            );
            assert!(
                m.chunk_pruning_ratio() >= 0.5,
                "{cell}: pruning ratio {}",
                m.chunk_pruning_ratio()
            );
        }
    }

    // EXPLAIN ANALYZE surfaces the backing and the pruning counters.
    let session = engine.session();
    let analyzed = session.explain_analyze(&stmt).unwrap();
    assert!(analyzed.contains("[scan=file]"), "{analyzed}");
    assert!(analyzed.contains("chunks_pruned="), "{analyzed}");
    assert!(analyzed.contains("pruned "), "{analyzed}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Predicate-based zone pruning (no bitvectors involved): a range predicate
/// on the clustered fact column itself prunes chunks whose min/max cannot
/// satisfy it, again with unchanged answers.
#[test]
fn predicate_zone_pruning_matches_unpruned_answers() {
    let dir = temp_dir("pred-pruning");
    let memory = clustered_catalog();
    let engine = Engine::from_catalog(file_twin(&memory, &dir, 1024));
    let memory_engine = Engine::from_catalog(memory);

    // A local predicate on the fact's clustered column: fk < 50 keeps the
    // first ~3200 rows; every chunk with min ≥ 50 is pruned by zone maps.
    let query = QuerySpec::new("local")
        .table("fact")
        .table("dim")
        .join("fact", "fk", "dim", "sk")
        .predicate("fact", ColumnPredicate::new("fk", CompareOp::Lt, 50i64));
    let file_stmt = engine.prepare(&query, OptimizerChoice::Bqo).unwrap();
    let mem_stmt = memory_engine.prepare(&query, OptimizerChoice::Bqo).unwrap();

    let config = ExecConfig::default().with_num_threads(4);
    let file_out = run(&engine, &file_stmt, config);
    let mem_out = run(&memory_engine, &mem_stmt, config);
    assert_eq!(file_out.result.output_rows, 3200);
    assert_eq!(file_out.rows, mem_out.rows);
    assert_eq!(
        file_out.result.metrics.filter_stats,
        mem_out.result.metrics.filter_stats
    );
    assert!(
        file_out.result.metrics.chunks_pruned * 2
            >= file_out.result.metrics.chunks_pruned + file_out.result.metrics.chunks_read,
        "expected most chunks pruned by the local predicate, read={} pruned={}",
        file_out.result.metrics.chunks_read,
        file_out.result.metrics.chunks_pruned
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Rows per chunk of the fault sweep's fact table: 2 000 rows make 8 chunks,
/// the last one ragged.
const FAULT_CHUNK_ROWS: usize = 256;

/// The fault sweep's star: `fact` cycles through every key of both
/// dimensions, so every chunk spans the whole key range and no zone map can
/// prune one — every chunk is read by every run.
fn fault_tables() -> (Table, Table, Table) {
    let dim = |name: &str, rows: i64, categories: i64| {
        TableBuilder::new(name)
            .with_i64("sk", (0..rows).collect())
            .with_i64("category", (0..rows).map(|i| i % categories).collect())
            .build()
            .unwrap()
    };
    let fact = TableBuilder::new("fact")
        .with_i64("d1_sk", (0..2000).map(|i| i % 40).collect())
        .with_i64("d2_sk", (0..2000).map(|i| (i * 7) % 25).collect())
        .with_i64("amount", (0..2000).collect())
        .build()
        .unwrap();
    (fact, dim("d1", 40, 5), dim("d2", 25, 3))
}

/// The dimensions in memory and `fact` from `source`.
fn fault_catalog(fact: Arc<dyn ChunkSource>) -> Catalog {
    let (_, d1, d2) = fault_tables();
    let mut catalog = Catalog::new();
    catalog.register_source(fact);
    catalog.register_table(d1);
    catalog.register_table(d2);
    for (dim, fk) in [("d1", "d1_sk"), ("d2", "d2_sk")] {
        catalog.declare_primary_key(dim, "sk").unwrap();
        let fk = bqo_core::ForeignKey::new("fact", fk, dim, "sk");
        catalog.declare_foreign_key(fk).unwrap();
    }
    catalog
}

/// Both dimensions filtered, so BQO pushes two filters into the predicate-
/// free fact scan.
fn fault_query() -> QuerySpec {
    QuerySpec::new("faulty-star")
        .table("fact")
        .table("d1")
        .table("d2")
        .join("fact", "d1_sk", "d1", "sk")
        .join("fact", "d2_sk", "d2", "sk")
        .predicate("d1", ColumnPredicate::new("category", CompareOp::Lt, 2i64))
        .predicate("d2", ColumnPredicate::new("category", CompareOp::Eq, 1i64))
}

/// The fault sweep's execution matrix: {1, 4} workers × both kernel modes,
/// with real fan-out at 4.
fn fault_configs() -> Vec<ExecConfig> {
    let cells = THREAD_COUNTS.into_iter().flat_map(|threads| {
        KERNELS.into_iter().map(move |kernel| {
            ExecConfig::default()
                .with_num_threads(threads)
                .with_kernel_mode(kernel)
                .with_batch_size(64)
        })
    });
    cells.collect()
}

/// Runs `stmt` on `engine`, keeping the error.
fn try_run(
    engine: &Engine,
    stmt: &bqo_core::PreparedStatement,
    config: ExecConfig,
) -> Result<QueryOutput, BqoError> {
    let options = RunOptions::new().with_exec_config(config).collecting_rows();
    engine.session().execute(stmt, options)
}

/// `got` answers like `want`: rows, row count, and every counter.
fn assert_same_answer(got: &QueryOutput, want: &QueryOutput, cell: &str) {
    assert_eq!(got.rows, want.rows, "{cell}: rows");
    assert_eq!(got.result.output_rows, want.result.output_rows, "{cell}");
    let (m, w) = (&got.result.metrics, &want.result.metrics);
    assert_eq!(m.operators, w.operators, "{cell}: operator counters");
    assert_eq!(m.filter_stats, w.filter_stats, "{cell}: FilterStats");
    assert_eq!(m.filters_created, w.filters_created, "{cell}: filters");
    assert_eq!(m.chunks_read, w.chunks_read, "{cell}: chunks read");
    assert_eq!(m.bytes_read, w.bytes_read, "{cell}: bytes read");
}

/// An I/O error from `read_chunk(k)` of a fetched fact table, for every
/// chunk `k`: the run fails with that typed error and stops reading — its
/// partial metrics count exactly the reads the source served, `k` of them
/// at one worker — and the next run on the same engine answers
/// bit-identically to a fresh engine's.
#[test]
fn an_io_error_in_any_chunk_fails_typed_and_the_engine_recovers() {
    let (fact, ..) = fault_tables();
    let source = Arc::new(Rechunked::new(Arc::new(fact), FAULT_CHUNK_ROWS));
    let chunks = source.num_chunks();
    assert_eq!(chunks, 8);
    let engine = Engine::from_catalog(fault_catalog(Arc::clone(&source) as _));
    let stmt = engine
        .prepare(&fault_query(), OptimizerChoice::Bqo)
        .unwrap();
    for config in fault_configs() {
        // A fresh engine over an identical, fault-free source.
        let (fresh_fact, ..) = fault_tables();
        let clean = Rechunked::new(Arc::new(fresh_fact), FAULT_CHUNK_ROWS);
        let fresh = Engine::from_catalog(fault_catalog(Arc::new(clean)));
        let fresh_stmt = fresh.prepare(&fault_query(), OptimizerChoice::Bqo).unwrap();
        let want = try_run(&fresh, &fresh_stmt, config).unwrap();
        assert!(want.result.output_rows > 0);
        assert_eq!(want.result.metrics.chunks_read, chunks as u64);
        for k in 0..chunks {
            let cell = format!("{config:?}, chunk {k}");
            let before = source.served();
            source.fail_next_read(k);
            let err = try_run(&engine, &stmt, config).expect_err(&cell);
            let after = source.served();
            let (reads, bytes) = (after.0 - before.0, after.1 - before.1);
            let partial = err.partial_metrics().expect(&cell);
            assert_eq!(partial.chunks_read, reads, "{cell}: chunks read");
            assert_eq!(partial.bytes_read, bytes, "{cell}: bytes read");
            if config.num_threads == 1 {
                assert_eq!(reads, k as u64, "{cell}: no read after the fault");
            }
            match err.storage_error() {
                StorageError::Format { path, detail } => {
                    assert_eq!(path, "fact", "{cell}");
                    assert!(
                        detail.contains(&format!("injected fault in chunk {k}")),
                        "{cell}: {detail}"
                    );
                }
                other => panic!("{cell}: expected a typed I/O error, got {other:?}"),
            }
            let got = try_run(&engine, &stmt, config).expect(&cell);
            assert_same_answer(&got, &want, &cell);
        }
    }
}

/// Writes `byte` at `offset` of the file at `path` in place (same inode, so
/// an open reader sees it), returning the byte it replaced.
fn poke(path: &Path, offset: u64, byte: u8) -> u8 {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let mut old = [0u8];
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.read_exact(&mut old).unwrap();
    file.seek(SeekFrom::Start(offset)).unwrap();
    file.write_all(&[byte]).unwrap();
    file.sync_all().unwrap();
    old[0]
}

/// One flipped byte inside chunk `k`'s run of a real `.bqo` fact file, for
/// every chunk `k`: the run fails with the chunk's checksum mismatch and
/// partial metrics (`k` chunks read at one worker), and once the byte is
/// restored the same engine answers bit-identically to a
/// fresh engine over an intact file.
#[test]
fn a_flipped_byte_in_any_chunk_fails_typed_and_the_engine_recovers() {
    let dir = temp_dir("faults");
    let (fact, ..) = fault_tables();
    let path = dir.join("fact.bqo");
    write_table(&path, &fact, FAULT_CHUNK_ROWS).unwrap();
    let reader = Arc::new(FileReader::open(&path).unwrap());
    let chunks = reader.num_chunks();
    assert_eq!(chunks, 8);
    let engine = Engine::from_catalog(fault_catalog(reader));
    let stmt = engine
        .prepare(&fault_query(), OptimizerChoice::Bqo)
        .unwrap();
    let pristine = dir.join("pristine.bqo");
    std::fs::copy(&path, &pristine).unwrap();
    let fresh_reader = FileReader::open(&pristine).unwrap();
    let fresh = Engine::from_catalog(fault_catalog(Arc::new(fresh_reader)));
    let fresh_stmt = fresh.prepare(&fault_query(), OptimizerChoice::Bqo).unwrap();

    // Runs are chunk-major after the 8-byte magic, one 8-byte value per row
    // and column: chunk `k` (full chunks before it) starts at
    // 8 + k × 3 columns × FAULT_CHUNK_ROWS × 8 bytes. Each chunk is damaged
    // in a different column.
    let run_bytes = (FAULT_CHUNK_ROWS * 8) as u64;
    for config in fault_configs() {
        let want = try_run(&fresh, &fresh_stmt, config).unwrap();
        assert!(want.result.output_rows > 0);
        for k in 0..chunks {
            let cell = format!("{config:?}, chunk {k}");
            let column = k % 3;
            let offset = 8 + (k * 3 + column) as u64 * run_bytes + 5;
            let old = poke(&path, offset, 0);
            poke(&path, offset, !old);
            let err = try_run(&engine, &stmt, config).expect_err(&cell);
            poke(&path, offset, old);
            let partial = err.partial_metrics().expect(&cell);
            if config.num_threads == 1 {
                assert_eq!(partial.chunks_read, k as u64, "{cell}: chunks read");
            }
            match err.storage_error() {
                StorageError::Format { detail, .. } => assert_eq!(
                    detail,
                    &format!("checksum mismatch in chunk {k} column {column}"),
                    "{cell}"
                ),
                other => panic!("{cell}: expected a typed checksum error, got {other:?}"),
            }
            let got = try_run(&engine, &stmt, config).expect(&cell);
            assert_same_answer(&got, &want, &cell);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
