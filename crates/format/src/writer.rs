//! Writer for the on-disk columnar format.
//!
//! [`write_table`] lays an in-memory [`Table`] out in one pass over its own
//! columns: each (chunk, column) run is encoded straight from the table,
//! checksummed, zone-mapped and written. The footer's statistics are
//! `Table::compute_stats` itself, so file-backed and memory-backed
//! registrations plan identically.

use crate::codec::{encode_column_range, encode_value, put_string, put_u32, put_u64, type_code};
use crate::error::FormatError;
use crate::layout::{
    ChunkEntry, FORMAT_VERSION, MAGIC, MAX_COLUMNS, MAX_NAME_LEN, MAX_ZONE_STRING_LEN,
};
use crate::xxhash::xxh64;
use bqo_storage::{Column, Schema, Table, TableStats, Value};
use std::cmp::Ordering;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// What [`write_table`] reports about the sealed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileSummary {
    /// Total rows written.
    pub rows: usize,
    /// Number of chunks in the file.
    pub chunks: usize,
    /// Final file size in bytes (data + footer).
    pub bytes: u64,
}

/// The inclusive min/max of `column[start..end]` under [`Value::total_cmp`]
/// — the zone-map bound the scan pruner compares predicate and filter
/// ranges against. `None` (no zone: the chunk is never pruned) when a string
/// bound is longer than a reader accepts.
fn zone_of(column: &Column, start: usize, end: usize) -> Option<(Value, Value)> {
    debug_assert!(start < end, "zone of an empty range");
    let (min, max) = match column {
        Column::Int64(v) => bounds(&v[start..end], Ord::cmp, |x| Value::Int64(*x)),
        Column::Float64(v) => bounds(&v[start..end], f64::total_cmp, |x| Value::Float64(*x)),
        Column::Utf8(v) => bounds(&v[start..end], Ord::cmp, |x| Value::Utf8(x.clone())),
        Column::Bool(v) => bounds(&v[start..end], Ord::cmp, |x| Value::Bool(*x)),
    }?;
    let too_long = |v: &Value| matches!(v, Value::Utf8(s) if s.len() > MAX_ZONE_STRING_LEN);
    (!too_long(&min) && !too_long(&max)).then_some((min, max))
}

/// The least and greatest of `run` under `cmp`, as values; `None` when
/// `run` is empty. Elements equal under `cmp` — every order `zone_of`
/// passes is [`Value::total_cmp`] on one type — are identical, so which of
/// the tied elements is picked does not matter.
fn bounds<T>(
    run: &[T],
    cmp: impl Fn(&T, &T) -> Ordering,
    value: impl Fn(&T) -> Value,
) -> Option<(Value, Value)> {
    let min = run.iter().min_by(|a, b| cmp(a, b))?;
    let max = run.iter().max_by(|a, b| cmp(a, b))?;
    Some((value(min), value(max)))
}

/// Writes all of `table` to `path` as chunks of `chunk_rows` rows (clamped
/// to at least 1) and seals the file with its footer and trailer.
///
/// A table the reader would reject — more than `MAX_COLUMNS` columns, or a
/// table or column name longer than `MAX_NAME_LEN` bytes — is refused with
/// [`FormatError::Corrupt`] (`chunk: None`) before anything is created.
pub fn write_table(
    path: impl AsRef<Path>,
    table: &Table,
    chunk_rows: usize,
) -> Result<FileSummary, FormatError> {
    let path = path.as_ref();
    let schema = table.schema();
    let usage = |detail: String| FormatError::Corrupt {
        path: path.to_path_buf(),
        chunk: None,
        detail,
    };
    if schema.len() > MAX_COLUMNS {
        return Err(usage(format!(
            "{} columns exceed the {MAX_COLUMNS}-column limit",
            schema.len()
        )));
    }
    let mut names = std::iter::once(table.name()).chain(schema.names());
    if let Some(name) = names.find(|name| name.len() > MAX_NAME_LEN) {
        return Err(usage(format!(
            "a {}-byte name exceeds the {MAX_NAME_LEN}-byte limit",
            name.len()
        )));
    }
    let io = |source: std::io::Error| FormatError::Io {
        path: path.to_path_buf(),
        source,
    };
    let chunk_rows = chunk_rows.max(1);
    let rows = table.num_rows();
    let mut file = BufWriter::new(File::create(path).map_err(io)?);
    file.write_all(MAGIC).map_err(io)?;
    let mut offset = MAGIC.len() as u64; // CAST-OK: constant 8-byte magic
    let mut directory = Vec::with_capacity(rows.div_ceil(chunk_rows));
    let mut encoded = Vec::new();
    for start in (0..rows).step_by(chunk_rows) {
        let end = (start + chunk_rows).min(rows);
        let mut entries = Vec::with_capacity(schema.len());
        for column in table.columns() {
            encoded.clear();
            encode_column_range(column, start, end, &mut encoded);
            file.write_all(&encoded).map_err(io)?;
            let len = encoded.len() as u64; // CAST-OK: usize widens losslessly into u64 on supported targets
            entries.push(ChunkEntry {
                offset,
                len,
                checksum: xxh64(&encoded, 0),
                zone: zone_of(column, start, end),
            });
            offset += len;
        }
        directory.push(entries);
    }

    let mut footer = Vec::new();
    put_u32(&mut footer, FORMAT_VERSION);
    put_u64(&mut footer, chunk_rows as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
    put_string(&mut footer, table.name());
    put_u32(&mut footer, schema.len() as u32); // CAST-OK: column count checked against MAX_COLUMNS above
    for field in schema.fields() {
        put_string(&mut footer, &field.name);
        footer.push(type_code(field.data_type));
    }
    put_u64(&mut footer, rows as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
    put_u64(&mut footer, directory.len() as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
    for entry in directory.iter().flatten() {
        put_u64(&mut footer, entry.offset);
        put_u64(&mut footer, entry.len);
        put_u64(&mut footer, entry.checksum);
        match &entry.zone {
            Some((min, max)) => {
                footer.push(1);
                encode_value(min, &mut footer);
                encode_value(max, &mut footer);
            }
            None => footer.push(0),
        }
    }
    encode_stats(&table.compute_stats(), schema, &mut footer).map_err(usage)?;
    let mut trailer = Vec::new();
    put_u64(&mut trailer, footer.len() as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
    put_u64(&mut trailer, xxh64(&footer, 0));
    trailer.extend_from_slice(MAGIC);
    file.write_all(&footer).map_err(io)?;
    file.write_all(&trailer).map_err(io)?;
    file.flush().map_err(io)?;
    Ok(FileSummary {
        rows,
        chunks: directory.len(),
        bytes: offset + (footer.len() + trailer.len()) as u64, // CAST-OK: usize widens losslessly into u64 on supported targets
    })
}

/// Serializes `TableStats` into the footer, in schema order (deterministic
/// bytes for a deterministic file fingerprint).
fn encode_stats(stats: &TableStats, schema: &Schema, out: &mut Vec<u8>) -> Result<(), String> {
    put_u64(out, stats.row_count as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
    put_u32(out, schema.len() as u32); // CAST-OK: column count checked against MAX_COLUMNS by the caller
    for field in schema.fields() {
        let col = stats
            .column(&field.name)
            .ok_or_else(|| format!("no statistics for column `{}`", field.name))?;
        put_string(out, &field.name);
        put_u64(out, col.row_count as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
        put_u64(out, col.distinct_count as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
        for bound in [col.min, col.max] {
            match bound {
                Some(v) => {
                    out.push(1);
                    put_u64(out, v.to_bits());
                }
                None => out.push(0),
            }
        }
        put_u32(out, col.histogram.len() as u32); // CAST-OK: histogram length is the small HISTOGRAM_BUCKETS constant
        for &bucket in &col.histogram {
            put_u64(out, bucket as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
        }
    }
    Ok(())
}
