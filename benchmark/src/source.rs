//! A timing decorator around a [`ChunkSource`]: the `format` layer measured
//! from outside, at the one call every file-backed scan makes into it.

use bqo_core::storage::{ChunkSource, Column, Schema, StorageError, TableStats, Value};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The `read_chunk` calls observed while recording is on, as
/// `(start_ns, end_ns)` since `epoch` — the same clock the tracers use.
/// Shared by every decorated source of a run; whichever thread makes the call
/// (client or pool worker) appends under the lock.
#[derive(Debug)]
pub struct ChunkLog {
    epoch: Instant,
    recording: AtomicBool,
    reads: Mutex<Vec<(u64, u64)>>,
}

impl ChunkLog {
    pub fn new(epoch: Instant) -> Self {
        ChunkLog {
            epoch,
            recording: AtomicBool::new(false),
            reads: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on for traced passes and off for untraced ones, so
    /// an untraced pass over decorated sources pays one flag load per chunk.
    pub fn set_recording(&self, on: bool) {
        // ORDERING: Relaxed — toggled by the client thread between passes,
        // while no scan is in flight; the flag guards no other data.
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Takes the reads recorded since the last call.
    pub fn drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.reads.lock().expect("chunk log poisoned"))
    }
}

/// Forwards every [`ChunkSource`] method to `inner` unchanged — zone maps,
/// byte sizes, statistics and fingerprint included, so pruning decisions and
/// plans are exactly the undecorated source's — and times `read_chunk`.
#[derive(Debug)]
pub struct TimingSource {
    inner: Arc<dyn ChunkSource>,
    log: Arc<ChunkLog>,
}

impl TimingSource {
    pub fn new(inner: Arc<dyn ChunkSource>, log: Arc<ChunkLog>) -> Self {
        TimingSource { inner, log }
    }
}

impl ChunkSource for TimingSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn chunk_rows(&self) -> usize {
        self.inner.chunk_rows()
    }

    fn num_chunks(&self) -> usize {
        self.inner.num_chunks()
    }

    fn chunk_range(&self, chunk: usize) -> (usize, usize) {
        self.inner.chunk_range(chunk)
    }

    fn zone_map(&self, chunk: usize, column: usize) -> Option<(Value, Value)> {
        self.inner.zone_map(chunk, column)
    }

    fn read_chunk(&self, chunk: usize) -> Result<Vec<Arc<Column>>, StorageError> {
        // ORDERING: Relaxed — see `ChunkLog::set_recording`.
        if !self.log.recording.load(Ordering::Relaxed) {
            return self.inner.read_chunk(chunk);
        }
        let start = self.log.epoch.elapsed();
        let result = self.inner.read_chunk(chunk);
        let end = self.log.epoch.elapsed();
        let ns = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.log
            .reads
            .lock()
            .expect("chunk log poisoned")
            .push((ns(start), ns(end)));
        result
    }

    fn chunk_byte_size(&self, chunk: usize) -> u64 {
        self.inner.chunk_byte_size(chunk)
    }

    fn byte_size(&self) -> usize {
        self.inner.byte_size()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn path(&self) -> Option<&Path> {
        self.inner.path()
    }

    fn table_stats(&self) -> TableStats {
        self.inner.table_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_core::format::{write_table, FileReader};
    use bqo_core::{
        Catalog, ColumnPredicate, CompareOp, Engine, OptimizerChoice, QuerySpec, RunOptions,
        TableBuilder,
    };

    /// fact(fk clustered) ⋈ dim with a selective key-range predicate on the
    /// dimension: the pushed-down filter prunes most fact chunks.
    fn catalogs(tag: &str) -> (Catalog, Catalog, Arc<ChunkLog>, std::path::PathBuf) {
        // Inside the package (git-ignored `out/`), never the system temp dir.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dim = TableBuilder::new("dim")
            .with_i64("sk", (0..100).collect())
            .build()
            .unwrap();
        let fact = TableBuilder::new("fact")
            .with_i64("fk", (0..6400).map(|i| i / 64).collect())
            .build()
            .unwrap();
        write_table(dir.join("dim.bqo"), &dim, 256).unwrap();
        write_table(dir.join("fact.bqo"), &fact, 256).unwrap();
        let log = Arc::new(ChunkLog::new(Instant::now()));
        let mut plain = Catalog::new();
        let mut timed = Catalog::new();
        for name in ["dim", "fact"] {
            let path = dir.join(format!("{name}.bqo"));
            plain.register_source(Arc::new(FileReader::open(&path).unwrap()));
            timed.register_source(Arc::new(TimingSource::new(
                Arc::new(FileReader::open(&path).unwrap()),
                Arc::clone(&log),
            )));
        }
        for catalog in [&mut plain, &mut timed] {
            catalog.declare_primary_key("dim", "sk").unwrap();
        }
        (plain, timed, log, dir)
    }

    #[test]
    fn decorator_forwards_zone_maps_sizes_and_identity_unchanged() {
        let (plain, timed, _log, dir) = catalogs("forward");
        for name in ["dim", "fact"] {
            let a = plain.table_meta(name).unwrap().source().unwrap().clone();
            let b = timed.table_meta(name).unwrap().source().unwrap().clone();
            assert_eq!(a.name(), b.name());
            assert_eq!(a.schema(), b.schema());
            assert_eq!(a.num_rows(), b.num_rows());
            assert_eq!(a.chunk_rows(), b.chunk_rows());
            assert_eq!(a.num_chunks(), b.num_chunks());
            assert_eq!(a.byte_size(), b.byte_size());
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.path(), b.path());
            for chunk in 0..a.num_chunks() {
                assert_eq!(a.chunk_range(chunk), b.chunk_range(chunk));
                assert_eq!(a.chunk_byte_size(chunk), b.chunk_byte_size(chunk));
                assert_eq!(a.zone_map(chunk, 0), b.zone_map(chunk, 0));
                assert_eq!(a.read_chunk(chunk).unwrap(), b.read_chunk(chunk).unwrap());
            }
        }
        assert_eq!(plain.schema_tag(), timed.schema_tag());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pruning_counters_equal_the_undecorated_sources() {
        let (plain, timed, log, dir) = catalogs("prune");
        let query = QuerySpec::new("selective")
            .table("fact")
            .table("dim")
            .join("fact", "fk", "dim", "sk")
            .predicate("dim", ColumnPredicate::new("sk", CompareOp::Lt, 10i64));
        let run = |catalog: Catalog| {
            let engine = Engine::from_catalog(catalog);
            let stmt = engine.prepare(&query, OptimizerChoice::Bqo).unwrap();
            let out = engine
                .session()
                .execute(&stmt, RunOptions::new().collecting_rows())
                .unwrap();
            (out.result.metrics, out.rows)
        };
        let (plain_metrics, plain_rows) = run(plain);
        log.set_recording(true);
        let (timed_metrics, timed_rows) = run(timed);
        assert_eq!(plain_rows, timed_rows);
        assert!(plain_metrics.chunks_pruned > plain_metrics.chunks_read);
        assert_eq!(plain_metrics.chunks_pruned, timed_metrics.chunks_pruned);
        assert_eq!(plain_metrics.chunks_read, timed_metrics.chunks_read);
        assert_eq!(plain_metrics.bytes_read, timed_metrics.bytes_read);
        assert_eq!(plain_metrics.filter_stats, timed_metrics.filter_stats);
        // One recorded call per chunk actually read, none for pruned ones.
        let reads = log.drain();
        assert_eq!(reads.len() as u64, timed_metrics.chunks_read);
        assert!(reads.iter().all(|(start, end)| end >= start));
        // Recording off: calls pass through unrecorded.
        log.set_recording(false);
        let (_, timed, log, dir2) = catalogs("prune-off");
        run(timed);
        assert!(log.drain().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
        std::fs::remove_dir_all(dir2).unwrap();
    }
}
