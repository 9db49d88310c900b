//! `bqo-format`: a single-file on-disk columnar format with zone maps.
//!
//! The format backs out-of-core execution: a table is laid out as
//! fixed-size row *chunks*, column-major within each chunk, with a footer
//! holding the schema, a per-(chunk, column) directory of offsets, xxh64
//! checksums and min/max *zone maps*, and the table statistics the
//! optimizer needs. [`write_table`] writes an in-memory table in one pass
//! and seals it with `Table::compute_stats`; [`FileReader`] parses and
//! validates the footer up front and materializes chunks on demand with
//! positional reads.
//!
//! A [`FileReader`] implements [`bqo_storage::ChunkSource`], so registering
//! a file in a catalog ([`CatalogExt::register_file`] /
//! [`CatalogExt::attach_dir`]) makes it queryable exactly like an
//! in-memory table: the executor streams its chunks morsel-by-morsel,
//! prunes chunks whose zone maps cannot satisfy the scan's predicates or a
//! pushed-down bitvector filter's surviving key range, and produces
//! bit-identical results to the in-memory path.
//!
//! Corruption is always a typed [`FormatError`] naming the file (and chunk)
//! — never a panic; the corruption test suite flips arbitrary bytes to pin
//! this down.

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

mod codec;
mod error;
mod layout;
mod reader;
mod writer;
mod xxhash;

pub use error::FormatError;
pub use layout::FILE_EXTENSION;
pub use reader::FileReader;
pub use writer::{write_table, FileSummary};

// Internals that the corruption suite (`tests/corruption.rs`) forges and
// re-seals damaged files with.
pub use layout::{FORMAT_VERSION, MAGIC};
pub use xxhash::xxh64;

use bqo_storage::Catalog;
use std::path::Path;
use std::sync::Arc;

/// Catalog extensions for registering on-disk tables next to in-memory
/// ones.
pub trait CatalogExt {
    /// Opens `path` and registers it under the table name stored in its
    /// footer. Returns that name.
    fn register_file(&mut self, path: impl AsRef<Path>) -> Result<String, FormatError>;

    /// Registers every `.bqo` file directly inside `dir`, in file-name
    /// order (deterministic registration order). Returns the registered
    /// table names.
    fn attach_dir(&mut self, dir: impl AsRef<Path>) -> Result<Vec<String>, FormatError>;
}

impl CatalogExt for Catalog {
    fn register_file(&mut self, path: impl AsRef<Path>) -> Result<String, FormatError> {
        let reader = FileReader::open(path)?;
        let name = reader.table_name().to_string();
        self.register_source(Arc::new(reader));
        Ok(name)
    }

    fn attach_dir(&mut self, dir: impl AsRef<Path>) -> Result<Vec<String>, FormatError> {
        let dir = dir.as_ref();
        let io = |source: std::io::Error| FormatError::Io {
            path: dir.to_path_buf(),
            source,
        };
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            if path.is_file() && reader::is_format_file(&path) {
                files.push(path);
            }
        }
        files.sort();
        let mut names = Vec::with_capacity(files.len());
        for path in files {
            names.push(self.register_file(&path)?);
        }
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqo_storage::{Table, TableBuilder, Value};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bqo-format-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_table(rows: usize) -> Table {
        TableBuilder::new("sample")
            .with_i64("id", (0..rows as i64).collect())
            .with_f64("price", (0..rows).map(|i| i as f64 * 0.5 - 10.0).collect())
            .with_utf8(
                "label",
                (0..rows).map(|i| format!("row-{}", i % 7)).collect(),
            )
            .with_bool("flag", (0..rows).map(|i| i % 3 == 0).collect())
            .build()
            .unwrap()
    }

    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.schema(), b.schema());
        assert_eq!(a.num_rows(), b.num_rows());
        for (ca, cb) in a.columns().iter().zip(b.columns()) {
            let mut ea = Vec::new();
            let mut eb = Vec::new();
            codec::encode_column_range(ca, 0, ca.len(), &mut ea);
            codec::encode_column_range(cb, 0, cb.len(), &mut eb);
            assert_eq!(ea, eb);
        }
    }

    /// A fixed table holding the values whose encodings are easiest to get
    /// wrong: integer extremes, signed zero, NaN, infinities, empty and
    /// multi-byte strings.
    fn golden_table() -> Table {
        let rows = 1000;
        let floats = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0];
        let strings = ["", "plain", "héllo", "日本語", "🦀 crab"];
        TableBuilder::new("golden")
            .with_i64(
                "i",
                (0..rows)
                    .map(|i| match i % 211 {
                        0 => i64::MIN,
                        105 => i64::MAX,
                        _ => (i as i64 * 7919) % 1013 - 500,
                    })
                    .collect(),
            )
            .with_f64(
                "f",
                (0..rows)
                    .map(|i| match i % 13 {
                        k @ 0..5 => floats[k],
                        k => i as f64 / k as f64 - 40.0,
                    })
                    .collect(),
            )
            .with_utf8(
                "s",
                (0..rows)
                    .map(|i| format!("{}{}", strings[i % 5], "x".repeat(i % 3)))
                    .collect(),
            )
            .with_bool("b", (0..rows).map(|i| i % 7 < 3).collect())
            .build()
            .unwrap()
    }

    /// `(chunk_rows, file length, xxh64 of the file)` for `golden_table`.
    /// A writer refactor keeps these constants; only a deliberate format
    /// change (with a `FORMAT_VERSION` bump) may re-bless them.
    const GOLDEN: [(usize, usize, u64); 5] = [
        (1, 192_671, 5_726_278_345_929_090_275),
        (7, 52_492, 16_968_000_275_720_914_449),
        (192, 30_039, 12_983_460_670_190_729_431),
        (1000, 29_234, 3_027_036_878_597_677_687),
        (1001, 29_234, 14_264_478_644_876_781_677),
    ];

    #[test]
    fn file_bytes_are_pinned() {
        let dir = temp_dir("golden");
        let table = golden_table();
        let got: Vec<(usize, usize, u64)> = GOLDEN
            .iter()
            .map(|&(chunk_rows, _, _)| {
                let path = dir.join(format!("golden-{chunk_rows}.bqo"));
                write_table(&path, &table, chunk_rows).unwrap();
                let bytes = std::fs::read(&path).unwrap();
                (chunk_rows, bytes.len(), xxh64(&bytes, 0))
            })
            .collect();
        assert_eq!(got, GOLDEN);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A string longer than the zone-map bound cap is written with no zone
    /// for its chunk, so the file still opens and reads back unchanged.
    #[test]
    fn over_cap_string_bound_writes_no_zone() {
        let dir = temp_dir("long-string");
        let table = TableBuilder::new("long")
            .with_utf8("s", vec!["y".repeat((1 << 20) + 1)])
            .build()
            .unwrap();
        write_table(dir.join("long.bqo"), &table, 16).unwrap();
        let reader = FileReader::open(dir.join("long.bqo")).unwrap();
        assert_eq!(reader.zone_map(0, 0), None);
        assert_tables_equal(&table, &reader.read_table().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A name or column count the reader would reject is a usage error at
    /// write time, not a sealed file that cannot be opened.
    #[test]
    fn over_cap_name_fails_at_write() {
        let dir = temp_dir("long-name");
        let long_name = TableBuilder::new("n".repeat(70_000))
            .with_i64("x", vec![1])
            .build()
            .unwrap();
        let wide = (0..=layout::MAX_COLUMNS)
            .fold(TableBuilder::new("wide"), |b, i| {
                b.with_i64(format!("c{i}"), vec![])
            })
            .build()
            .unwrap();
        for table in [long_name, wide] {
            let path = dir.join("t.bqo");
            let err = write_table(&path, &table, 16).unwrap_err();
            assert!(
                matches!(err, FormatError::Corrupt { chunk: None, .. }),
                "{err}"
            );
            assert!(!path.exists(), "nothing is created for a refused table");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_read_round_trip() {
        let dir = temp_dir("round-trip");
        let table = sample_table(1000);
        // 192 rows/chunk: several full chunks plus a ragged tail.
        let summary = write_table(dir.join("sample.bqo"), &table, 192).unwrap();
        assert_eq!(summary.rows, 1000);
        assert_eq!(summary.chunks, 1000usize.div_ceil(192));
        let reader = FileReader::open(dir.join("sample.bqo")).unwrap();
        assert_eq!(reader.table_name(), "sample");
        assert_eq!(reader.num_rows(), 1000);
        assert_tables_equal(&table, &reader.read_table().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    use bqo_storage::ChunkSource;

    #[test]
    fn stats_match_compute_stats_exactly() {
        let dir = temp_dir("stats");
        let table = sample_table(777);
        write_table(dir.join("t.bqo"), &table, 100).unwrap();
        let reader = FileReader::open(dir.join("t.bqo")).unwrap();
        let expected = table.compute_stats();
        let got = reader.table_stats();
        assert_eq!(got.row_count, expected.row_count);
        for field in table.schema().fields() {
            let e = expected.column(&field.name).unwrap();
            let g = got.column(&field.name).unwrap();
            assert_eq!(g.row_count, e.row_count, "{}", field.name);
            assert_eq!(g.distinct_count, e.distinct_count, "{}", field.name);
            assert_eq!(g.min, e.min, "{}", field.name);
            assert_eq!(g.max, e.max, "{}", field.name);
            assert_eq!(g.histogram, e.histogram, "{}", field.name);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zone_maps_bound_every_chunk() {
        let dir = temp_dir("zones");
        let table = sample_table(500);
        write_table(dir.join("t.bqo"), &table, 64).unwrap();
        let reader = FileReader::open(dir.join("t.bqo")).unwrap();
        for chunk in 0..reader.num_chunks() {
            let columns = reader.read_chunk_columns(chunk).unwrap();
            for (ci, column) in columns.iter().enumerate() {
                let (min, max) = reader.zone_map(chunk, ci).expect("zone tracked");
                for i in 0..column.len() {
                    let v = column.value(i);
                    assert_ne!(v.total_cmp(&min), std::cmp::Ordering::Less);
                    assert_ne!(v.total_cmp(&max), std::cmp::Ordering::Greater);
                }
            }
        }
        // The id column's zones are the exact chunk ranges.
        assert_eq!(
            reader.zone_map(0, 0),
            Some((Value::Int64(0), Value::Int64(63)))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_table_round_trips() {
        let dir = temp_dir("empty");
        let table = TableBuilder::new("void")
            .with_i64("x", vec![])
            .build()
            .unwrap();
        let summary = write_table(dir.join("void.bqo"), &table, 16).unwrap();
        assert_eq!(summary.rows, 0);
        assert_eq!(summary.chunks, 0);
        let reader = FileReader::open(dir.join("void.bqo")).unwrap();
        assert_eq!(reader.num_rows(), 0);
        assert_eq!(reader.num_chunks(), 0);
        assert_tables_equal(&table, &reader.read_table().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_registers_files_and_directories() {
        let dir = temp_dir("catalog");
        write_table(dir.join("b_table.bqo"), &sample_table(64), 16).unwrap();
        let other = TableBuilder::new("alpha")
            .with_i64("k", (0..10).collect())
            .build()
            .unwrap();
        write_table(dir.join("a_table.bqo"), &other, 4).unwrap();
        std::fs::write(dir.join("ignored.txt"), b"not a format file").unwrap();

        let mut catalog = Catalog::new();
        let names = catalog.attach_dir(&dir).unwrap();
        // File-name order, not registration or table-name order.
        assert_eq!(names, vec!["alpha".to_string(), "sample".to_string()]);
        let meta = catalog.table_meta("sample").unwrap();
        assert!(meta.is_file_backed());
        assert_eq!(meta.num_rows(), 64);
        assert!(catalog.table("sample").is_err());

        let tag_before = catalog.schema_tag();
        let mut catalog2 = Catalog::new();
        catalog2.register_file(dir.join("b_table.bqo")).unwrap();
        assert_ne!(catalog2.schema_tag(), tag_before);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
