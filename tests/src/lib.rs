//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library provides
//! random join-graph construction used by the property-based tests of the
//! paper's theorems, and [`Rechunked`], the fetched-source fake of the
//! storage properties and the serving tests' slow query.

pub mod mini;
pub mod slt;

use bqo_format::FormatError;
use bqo_plan::{JoinEdge, JoinGraph, RelationInfo};
use bqo_storage::{ChunkSource, Column, Schema, StorageError, Table, TableStats, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker-thread count requested for this test run via the
/// `BQO_TEST_THREADS` environment variable (CI runs the suite once with `1`
/// and once with `4`). Defaults to 1; unparsable or zero values degrade to 1,
/// mirroring `ExecConfig::with_num_threads` clamping.
pub fn env_threads() -> usize {
    std::env::var("BQO_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// An in-memory table served as a fetched source of `chunk_rows`-row chunks:
/// every `read_chunk` sleeps [`Rechunked::with_delay`]'s delay (none by
/// default), then copies the chunk out; zone maps are the chunk's exact
/// min/max. Registered through `Catalog::register_source`, it stands in for
/// a file in the storage properties and, with a delay, makes the serving
/// tests' slow query: a scan then takes a known time per chunk, and a
/// cancel lands between chunks. [`Rechunked::fail_next_read`] injects a
/// transient I/O fault into one chunk, [`Rechunked::panic_next_read`] a
/// kernel panic. [`Rechunked::served`] counts the reads it answered,
/// [`Rechunked::peak_reads`] the most that were in progress at once, and
/// [`Rechunked::readers`] names the threads that read.
#[derive(Debug)]
pub struct Rechunked {
    table: Arc<Table>,
    chunk_rows: usize,
    delay: Duration,
    /// The chunk whose next read faults, and how, if a fault is armed.
    fault: Mutex<Option<(usize, Fault)>>,
    /// Reads answered with a chunk, and the sum of their `chunk_byte_size`.
    served_reads: AtomicU64,
    served_bytes: AtomicU64,
    /// Reads in progress now, and the most ever in progress at once.
    reading: AtomicUsize,
    peak_reading: AtomicUsize,
    /// The names of the threads that called `read_chunk`.
    readers: Mutex<BTreeSet<String>>,
}

/// What an armed one-shot fault does to its chunk's next read.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Fail,
    Panic,
}

impl Rechunked {
    /// `table` in chunks of `chunk_rows` rows, read without delay.
    pub fn new(table: Arc<Table>, chunk_rows: usize) -> Self {
        Rechunked {
            table,
            chunk_rows,
            delay: Duration::ZERO,
            fault: Mutex::new(None),
            served_reads: AtomicU64::new(0),
            served_bytes: AtomicU64::new(0),
            reading: AtomicUsize::new(0),
            peak_reading: AtomicUsize::new(0),
            readers: Mutex::new(BTreeSet::new()),
        }
    }

    /// The same source sleeping `delay` in every `read_chunk`.
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Arms a one-shot fault: the next `read_chunk(chunk)` fails with the
    /// error a file's failed read maps to (`StorageError::Format` carrying
    /// an I/O error), and every later read succeeds again.
    pub fn fail_next_read(&self, chunk: usize) {
        *self.fault.lock().expect("fault slot poisoned") = Some((chunk, Fault::Fail));
    }

    /// Arms a one-shot panic: the next `read_chunk(chunk)` panics with a
    /// message naming the chunk and the thread it ran on (a pool worker's
    /// name starts with `bqo-worker`), and every later read succeeds again.
    pub fn panic_next_read(&self, chunk: usize) {
        *self.fault.lock().expect("fault slot poisoned") = Some((chunk, Fault::Panic));
    }

    /// The reads answered with a chunk so far, and the sum of those chunks'
    /// `chunk_byte_size`.
    pub fn served(&self) -> (u64, u64) {
        // ORDERING: SeqCst — test bookkeeping; a reader on another thread
        // sees every read counted before the chunk was returned.
        let reads = self.served_reads.load(Ordering::SeqCst);
        // ORDERING: SeqCst — as above.
        (reads, self.served_bytes.load(Ordering::SeqCst))
    }

    /// The most `read_chunk` calls that were in progress at once so far: a
    /// serial scan reads one chunk at a time, so over serial scans this is
    /// the most scans that ran at once.
    pub fn peak_reads(&self) -> usize {
        // ORDERING: SeqCst — test bookkeeping, as in `served`.
        self.peak_reading.load(Ordering::SeqCst)
    }

    /// The names of the threads that have called `read_chunk` (`unnamed`
    /// for a thread without one).
    pub fn readers(&self) -> BTreeSet<String> {
        self.readers.lock().expect("reader set poisoned").clone()
    }
}

/// Counts one `read_chunk` in progress until it returns or unwinds.
struct Reading<'a>(&'a AtomicUsize);

impl Drop for Reading<'_> {
    fn drop(&mut self) {
        // ORDERING: SeqCst — test bookkeeping, as in `served`.
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ChunkSource for Rechunked {
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
        self.chunk_rows
    }
    fn zone_map(&self, chunk: usize, column: usize) -> Option<(Value, Value)> {
        let (start, end) = self.chunk_range(chunk);
        let column = self.table.column_at(column);
        let mut values = (start..end).map(|row| column.value(row));
        let first = values.next()?;
        Some(values.fold((first.clone(), first), |(min, max), v| {
            if v.total_cmp(&min).is_lt() {
                (v, max)
            } else if v.total_cmp(&max).is_gt() {
                (min, v)
            } else {
                (min, max)
            }
        }))
    }
    fn read_chunk(&self, chunk: usize) -> Result<Vec<Arc<Column>>, StorageError> {
        // ORDERING: SeqCst — test bookkeeping, as in `served`.
        let now_reading = self.reading.fetch_add(1, Ordering::SeqCst) + 1;
        let _reading = Reading(&self.reading);
        // ORDERING: SeqCst — as above.
        self.peak_reading.fetch_max(now_reading, Ordering::SeqCst);
        let thread = std::thread::current();
        let name = thread.name().unwrap_or("unnamed");
        let mut readers = self.readers.lock().expect("reader set poisoned");
        if !readers.contains(name) {
            readers.insert(name.to_owned());
        }
        drop(readers);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        // Disarm under the lock, fault after releasing it: a panic must not
        // poison the slot for later reads.
        let mut slot = self.fault.lock().expect("fault slot poisoned");
        let armed = slot.take_if(|(armed, _)| *armed == chunk);
        drop(slot);
        match armed.map(|(_, fault)| fault) {
            Some(Fault::Fail) => {
                let source = std::io::Error::other(format!("injected fault in chunk {chunk}"));
                let path = self.name().into();
                return Err(FormatError::Io { path, source }.into());
            }
            Some(Fault::Panic) => {
                panic!("injected panic in chunk {chunk} on thread {name}");
            }
            None => {}
        }
        let (start, end) = self.chunk_range(chunk);
        let rows: Vec<usize> = (start..end).collect();
        let columns = self.table.columns().iter();
        let chunk_columns = columns.map(|c| Arc::new(c.take(&rows))).collect();
        // ORDERING: SeqCst — see `served`.
        self.served_bytes
            .fetch_add(self.chunk_byte_size(chunk), Ordering::SeqCst);
        // ORDERING: SeqCst — see `served`.
        self.served_reads.fetch_add(1, Ordering::SeqCst);
        Ok(chunk_columns)
    }
    fn chunk_byte_size(&self, chunk: usize) -> u64 {
        let (start, end) = self.chunk_range(chunk);
        (end - start) as u64
    }
    fn fingerprint(&self) -> u64 {
        self.chunk_rows as u64
    }
    fn table_stats(&self) -> TableStats {
        self.table.compute_stats()
    }
}

/// Builds a star join graph with the given fact cardinality and per-dimension
/// `(base_rows, filtered_rows)` pairs.
pub fn star_graph(fact_rows: f64, dims: &[(f64, f64)]) -> JoinGraph {
    let mut g = JoinGraph::new();
    let fact = g.add_relation(RelationInfo::new("fact", fact_rows, fact_rows));
    for (i, &(base, filtered)) in dims.iter().enumerate() {
        let d = g.add_relation(RelationInfo::new(
            format!("d{i}"),
            base,
            filtered.min(base).max(1.0),
        ));
        g.add_edge(JoinEdge::pkfk(fact, format!("d{i}_sk"), d, "sk", base));
    }
    g
}

/// Builds a chain join graph `r0 -> r1 -> ... -> rn` with the given
/// per-relation `(base_rows, filtered_rows)` pairs (the first entry is `r0`).
pub fn chain_graph(levels: &[(f64, f64)]) -> JoinGraph {
    let mut g = JoinGraph::new();
    let mut prev = None;
    for (i, &(base, filtered)) in levels.iter().enumerate() {
        let r = g.add_relation(RelationInfo::new(
            format!("r{i}"),
            base,
            filtered.min(base).max(1.0),
        ));
        if let Some(p) = prev {
            g.add_edge(JoinEdge::pkfk(p, format!("r{i}_sk"), r, "sk", base));
        }
        prev = Some(r);
    }
    g
}

/// Builds a snowflake join graph from a fact cardinality and a list of
/// branches, each branch a list of `(base_rows, filtered_rows)` ordered from
/// the relation adjacent to the fact outwards.
pub fn snowflake_graph(fact_rows: f64, branches: &[Vec<(f64, f64)>]) -> JoinGraph {
    let mut g = JoinGraph::new();
    let fact = g.add_relation(RelationInfo::new("fact", fact_rows, fact_rows));
    for (b, branch) in branches.iter().enumerate() {
        let mut prev = fact;
        for (j, &(base, filtered)) in branch.iter().enumerate() {
            let r = g.add_relation(RelationInfo::new(
                format!("b{b}_{j}"),
                base,
                filtered.min(base).max(1.0),
            ));
            g.add_edge(JoinEdge::pkfk(prev, format!("b{b}_{j}_sk"), r, "sk", base));
            prev = r;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_plan::RelId;

    #[test]
    fn helpers_build_expected_shapes() {
        let s = star_graph(1e6, &[(100.0, 10.0), (50.0, 50.0)]);
        // Every helper numbers its fact (or chain root) R0.
        let r = RelId;
        assert_eq!(
            s.clean_snowflake(),
            Some((r(0), vec![vec![r(1)], vec![r(2)]]))
        );
        let c = chain_graph(&[(1e5, 1e5), (1e3, 500.0), (10.0, 2.0)]);
        assert_eq!(c.clean_snowflake(), Some((r(0), vec![vec![r(1), r(2)]])));
        let f = snowflake_graph(1e6, &[vec![(1e3, 1e3), (10.0, 5.0)], vec![(100.0, 10.0)]]);
        let branches = vec![vec![r(1), r(2)], vec![r(3)]];
        assert_eq!(f.clean_snowflake(), Some((r(0), branches)));
    }

    #[test]
    fn filtered_rows_are_clamped() {
        let s = star_graph(1e6, &[(100.0, 1e9)]);
        let d = s.relation_by_name("d0").unwrap();
        assert_eq!(s.relation(d).filtered_rows, 100.0);
    }
}
