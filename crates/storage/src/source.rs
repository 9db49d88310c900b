//! Chunked table sources: the abstraction behind out-of-core scans.
//!
//! A [`ChunkSource`] exposes a table as a sequence of fixed-size row chunks
//! that are materialized on demand — the shape of the on-disk columnar
//! format in `bqo-format` — together with per-chunk min/max *zone maps* the
//! scan can consult **before** reading a chunk. It is the one interface the
//! executor scans through: an in-memory [`crate::Table`] implements it as a
//! single chunk whose columns are already resident
//! ([`ChunkSource::resident_columns`]).
//! Zone-map pruning composes with the paper's bitvector pushdown: both are
//! semi-join reducers applied ahead of the join, one driven by the scan's
//! local predicates and one by the surviving build keys of a pushed-down
//! filter.
//!
//! The trait lives in the storage crate (not in `bqo-format`) so the
//! catalog and the executor can depend on the abstraction without depending
//! on any particular file format.

use crate::column::Column;
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::value::Value;
use crate::Result;
use std::path::Path;
use std::sync::Arc;

/// A table materializable chunk by chunk, with per-chunk zone maps.
///
/// Invariants implementations must uphold (the executor's bit-identity
/// guarantees rest on them):
/// * Chunks partition the row space: chunk `i` covers rows
///   `[i * chunk_rows, min((i + 1) * chunk_rows, num_rows))`, in order.
/// * [`ChunkSource::read_chunk`] returns one column per schema field, each
///   of exactly the chunk's length, with values identical to the rows the
///   table held when it was written.
/// * [`ChunkSource::zone_map`] bounds are conservative: every value in the
///   chunk's column lies within `[min, max]` under [`Value::total_cmp`].
pub trait ChunkSource: Send + Sync + std::fmt::Debug {
    /// The table's name (as registered in the catalog).
    fn name(&self) -> &str;

    /// The table's schema.
    fn schema(&self) -> &Schema;

    /// Total number of rows across all chunks.
    fn num_rows(&self) -> usize;

    /// Rows per chunk (the last chunk may be shorter).
    fn chunk_rows(&self) -> usize;

    /// Number of chunks.
    fn num_chunks(&self) -> usize {
        self.num_rows().div_ceil(self.chunk_rows().max(1))
    }

    /// The `[start, end)` row range covered by `chunk`.
    fn chunk_range(&self, chunk: usize) -> (usize, usize) {
        let start = chunk * self.chunk_rows();
        let end = (start + self.chunk_rows()).min(self.num_rows());
        (start, end)
    }

    /// The inclusive `[min, max]` bounds of column `column` within `chunk`,
    /// if tracked. `None` means "unknown" and disables pruning for that
    /// (chunk, column) pair.
    fn zone_map(&self, chunk: usize, column: usize) -> Option<(Value, Value)>;

    /// Materializes every column of `chunk` (verifying checksums where the
    /// backing tracks them).
    fn read_chunk(&self, chunk: usize) -> Result<Vec<Arc<Column>>>;

    /// The whole table's columns, when they are already resident in memory
    /// (one per schema field, each `num_rows` long). The scan shares resident
    /// columns across all of its morsels and emits zero-copy batches over
    /// them; a source returning `None` (the default) is fetched one chunk per
    /// morsel and its survivors are compacted before the chunk is dropped.
    /// Only [`crate::Table`] overrides this.
    fn resident_columns(&self) -> Option<&[Arc<Column>]> {
        None
    }

    /// Approximate on-disk (or in-memory) size of `chunk` in bytes, for the
    /// scan's `bytes_read` accounting.
    fn chunk_byte_size(&self, chunk: usize) -> u64;

    /// Total approximate size of the source in bytes.
    fn byte_size(&self) -> usize {
        (0..self.num_chunks())
            .map(|c| self.chunk_byte_size(c) as usize)
            .sum()
    }

    /// A content fingerprint of the backing data (e.g. a hash of the file's
    /// footer). [`Catalog::schema_tag`](crate::Catalog::schema_tag) folds it
    /// in, so two different files registered under one table name give
    /// different tags. The engine does not read it.
    fn fingerprint(&self) -> u64;

    /// The backing file's path, when there is one (diagnostics only).
    fn path(&self) -> Option<&Path> {
        None
    }

    /// Table statistics for the optimizer. Implementations persist these at
    /// write time so registration does not have to materialize the data.
    fn table_stats(&self) -> TableStats;
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::table::{Table, TableBuilder};

    /// Minimal fetched (non-resident) in-memory ChunkSource for this crate's
    /// tests; the real implementation lives in `bqo-format`.
    #[derive(Debug)]
    pub(crate) struct VecSource {
        pub(crate) table: Table,
        pub(crate) chunk_rows: usize,
        pub(crate) fingerprint: u64,
    }

    impl ChunkSource for VecSource {
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
        fn zone_map(&self, _chunk: usize, _column: usize) -> Option<(Value, Value)> {
            None
        }
        fn read_chunk(&self, chunk: usize) -> Result<Vec<Arc<Column>>> {
            let (start, end) = self.chunk_range(chunk);
            let rows: Vec<usize> = (start..end).collect();
            Ok(self
                .table
                .columns()
                .iter()
                .map(|c| Arc::new(c.take(&rows)))
                .collect())
        }
        fn chunk_byte_size(&self, chunk: usize) -> u64 {
            let (start, end) = self.chunk_range(chunk);
            ((end - start) * 8) as u64
        }
        fn fingerprint(&self) -> u64 {
            self.fingerprint
        }
        fn table_stats(&self) -> TableStats {
            self.table.compute_stats()
        }
    }

    fn source(rows: usize, chunk_rows: usize) -> VecSource {
        VecSource {
            table: TableBuilder::new("t")
                .with_i64("id", (0..rows as i64).collect())
                .build()
                .unwrap(),
            chunk_rows,
            fingerprint: 42,
        }
    }

    #[test]
    fn chunk_arithmetic_partitions_the_row_space() {
        for (rows, chunk_rows) in [(0usize, 4usize), (1, 4), (4, 4), (5, 4), (12, 5), (7, 100)] {
            let s = source(rows, chunk_rows);
            let expected_chunks = rows.div_ceil(chunk_rows);
            assert_eq!(s.num_chunks(), expected_chunks, "rows {rows}");
            let mut covered = 0usize;
            for c in 0..s.num_chunks() {
                let (start, end) = s.chunk_range(c);
                assert_eq!(start, covered);
                assert!(end > start && end <= rows);
                assert!(end - start <= chunk_rows);
                covered = end;
            }
            assert_eq!(covered, rows);
        }
    }

    #[test]
    fn read_chunk_round_trips_rows() {
        let s = source(10, 4);
        let cols = s.read_chunk(2).unwrap();
        assert_eq!(cols.len(), 1);
        match cols[0].as_ref() {
            Column::Int64(v) => assert_eq!(v, &vec![8i64, 9]),
            other => panic!("unexpected column {other:?}"),
        }
        assert!(s.byte_size() > 0);
        assert!(s.path().is_none());
    }
}
