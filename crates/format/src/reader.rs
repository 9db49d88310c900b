//! Reader for the on-disk columnar format.
//!
//! Opening a file parses and validates only the footer (magic, trailer,
//! footer checksum, version, structural bounds); chunk data is materialized
//! on demand through [`FileReader::read_chunk_columns`], which reads each
//! column run with one positional read on the reader's shared `File` (safe
//! from many threads at once) and verifies its checksum before decoding.

use crate::codec::{decode_column, decode_value, Cursor};
use crate::error::FormatError;
use crate::layout::{
    ChunkEntry, FILE_EXTENSION, FORMAT_VERSION, MAGIC, MAX_COLUMNS, MAX_NAME_LEN, TRAILER_LEN,
};
use crate::xxhash::xxh64;
use bqo_storage::{ChunkSource, Column, ColumnStats, Schema, Table, TableStats, Value};
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Seed distinguishing the fingerprint hash from the footer checksum.
const FINGERPRINT_SEED: u64 = 0xB90F;

/// Upper bound on a footer-declared histogram length, so a corrupt footer
/// cannot drive a pathological allocation before a parse error surfaces
/// (names and column counts are bounded by the `layout` limits).
const MAX_HISTOGRAM_LEN: usize = 1 << 16;

/// Reads `buf.len()` bytes at `offset` without moving any shared cursor.
fn read_exact_at(file: &File, path: &Path, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let _ = path;
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        // No positional-read primitive: open a private handle so concurrent
        // readers do not race on one seek cursor.
        let _ = file;
        use std::io::{Read, Seek, SeekFrom};
        let mut f = File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// An open format file: parsed footer plus on-demand chunk access.
///
/// Implements [`ChunkSource`], so a reader registers directly into a
/// [`bqo_storage::Catalog`] and streams through the executor like any
/// other table.
#[derive(Debug)]
pub struct FileReader {
    path: PathBuf,
    file: File,
    footer: ParsedFooter,
    fingerprint: u64,
}

impl FileReader {
    /// Opens `path`, parsing and validating the footer.
    pub fn open(path: impl AsRef<Path>) -> Result<FileReader, FormatError> {
        let path = path.as_ref().to_path_buf();
        let io = |source: std::io::Error| FormatError::Io {
            path: path.clone(),
            source,
        };
        let file = File::open(&path).map_err(io)?;
        let file_len = file.metadata().map_err(io)?.len();
        let truncated = |detail: String| FormatError::TruncatedFooter {
            path: path.clone(),
            detail,
        };
        // CAST-OK: constant 8-byte magic
        if file_len < MAGIC.len() as u64 {
            return Err(truncated(format!(
                "file is {file_len} bytes, smaller than the {}-byte header",
                MAGIC.len()
            )));
        }
        let mut header = [0u8; 8];
        read_exact_at(&file, &path, 0, &mut header).map_err(io)?;
        if &header != MAGIC {
            return Err(FormatError::BadMagic { path });
        }
        // CAST-OK: constant 8-byte magic
        if file_len < MAGIC.len() as u64 + TRAILER_LEN {
            return Err(truncated(format!(
                "file is {file_len} bytes, no room for the {TRAILER_LEN}-byte trailer"
            )));
        }
        let mut trailer = [0u8; TRAILER_LEN as usize]; // CAST-OK: small constant trailer length
        read_exact_at(&file, &path, file_len - TRAILER_LEN, &mut trailer).map_err(io)?;
        if &trailer[16..24] != MAGIC {
            return Err(truncated("closing magic missing".to_string()));
        }
        #[expect(
            clippy::unwrap_used,
            reason = "infallible: the trailer slice indices are compile-time constants matching the array width"
        )]
        let footer_len = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        #[expect(
            clippy::unwrap_used,
            reason = "infallible: the trailer slice indices are compile-time constants matching the array width"
        )]
        let footer_checksum = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
        // CAST-OK: constant 8-byte magic
        if footer_len + TRAILER_LEN + MAGIC.len() as u64 > file_len {
            return Err(truncated(format!(
                "footer length {footer_len} does not fit in a {file_len}-byte file"
            )));
        }
        let footer_start = file_len - TRAILER_LEN - footer_len;
        let mut footer = vec![0u8; footer_len as usize]; // CAST-OK: checked against file_len above; fits usize on 64-bit targets
        read_exact_at(&file, &path, footer_start, &mut footer).map_err(io)?;
        if xxh64(&footer, 0) != footer_checksum {
            return Err(truncated("footer checksum mismatch".to_string()));
        }
        let fingerprint = xxh64(&footer, FINGERPRINT_SEED);
        let footer = parse_footer(&footer, &path, footer_start)?;
        Ok(FileReader {
            path,
            file,
            footer,
            fingerprint,
        })
    }

    /// The table name stored in the footer.
    pub fn table_name(&self) -> &str {
        &self.footer.name
    }

    /// Materializes one chunk, verifying every column run's checksum. Unlike
    /// `ChunkSource::read_chunk`, a failure keeps its [`FormatError`] type,
    /// which is what the corruption suite asserts on.
    pub fn read_chunk_columns(&self, chunk: usize) -> Result<Vec<Arc<Column>>, FormatError> {
        let entries =
            self.footer
                .directory
                .get(chunk)
                .ok_or_else(|| FormatError::ChunkOutOfBounds {
                    path: self.path.clone(),
                    chunk,
                    chunks: self.footer.directory.len(),
                })?;
        let start = chunk * self.footer.chunk_rows;
        let rows = (start + self.footer.chunk_rows).min(self.footer.row_count) - start;
        let mut columns = Vec::with_capacity(entries.len());
        let mut buf = Vec::new();
        for (column, entry) in entries.iter().enumerate() {
            buf.resize(entry.len as usize, 0); // CAST-OK: entry validated against the data region in parse_footer
            read_exact_at(&self.file, &self.path, entry.offset, &mut buf).map_err(|source| {
                FormatError::Io {
                    path: self.path.clone(),
                    source,
                }
            })?;
            if xxh64(&buf, 0) != entry.checksum {
                return Err(FormatError::ChecksumMismatch {
                    path: self.path.clone(),
                    chunk,
                    column,
                });
            }
            let decoded = decode_column(self.footer.schema.field_at(column).data_type, rows, &buf)
                .map_err(|detail| FormatError::Corrupt {
                    path: self.path.clone(),
                    chunk: Some(chunk),
                    detail,
                })?;
            columns.push(Arc::new(decoded));
        }
        Ok(columns)
    }

    /// Reads the whole file back into an in-memory [`Table`] — for
    /// round-trip tests and small-table registration.
    pub fn read_table(&self) -> Result<Table, FormatError> {
        let mut columns: Vec<Column> = self
            .footer
            .schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        for chunk in 0..self.footer.directory.len() {
            for (i, col) in self.read_chunk_columns(chunk)?.into_iter().enumerate() {
                columns[i].append(&col).map_err(|e| FormatError::Corrupt {
                    path: self.path.clone(),
                    chunk: Some(chunk),
                    detail: e.to_string(),
                })?;
            }
        }
        Table::new(
            self.footer.name.clone(),
            self.footer.schema.clone(),
            columns,
        )
        .map_err(|e| FormatError::Corrupt {
            path: self.path.clone(),
            chunk: None,
            detail: e.to_string(),
        })
    }
}

impl ChunkSource for FileReader {
    fn name(&self) -> &str {
        &self.footer.name
    }

    fn schema(&self) -> &Schema {
        &self.footer.schema
    }

    fn num_rows(&self) -> usize {
        self.footer.row_count
    }

    fn chunk_rows(&self) -> usize {
        self.footer.chunk_rows
    }

    fn num_chunks(&self) -> usize {
        self.footer.directory.len()
    }

    fn zone_map(&self, chunk: usize, column: usize) -> Option<(Value, Value)> {
        self.footer
            .directory
            .get(chunk)
            .and_then(|entries| entries.get(column))
            .and_then(|entry| entry.zone.clone())
    }

    fn read_chunk(&self, chunk: usize) -> bqo_storage::Result<Vec<Arc<Column>>> {
        self.read_chunk_columns(chunk).map_err(Into::into)
    }

    fn chunk_byte_size(&self, chunk: usize) -> u64 {
        self.footer
            .directory
            .get(chunk)
            .map(|entries| entries.iter().map(|e| e.len).sum())
            .unwrap_or(0)
    }

    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn path(&self) -> Option<&Path> {
        Some(&self.path)
    }

    fn table_stats(&self) -> TableStats {
        self.footer.stats.clone()
    }
}

/// True when `path` has the format's `.bqo` extension.
pub(crate) fn is_format_file(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some(FILE_EXTENSION)
}

/// The table a footer describes: everything a [`FileReader`] reads chunks by.
#[derive(Debug)]
struct ParsedFooter {
    name: String,
    schema: Schema,
    chunk_rows: usize,
    row_count: usize,
    directory: Vec<Vec<ChunkEntry>>,
    stats: TableStats,
}

fn parse_footer(footer: &[u8], path: &Path, data_end: u64) -> Result<ParsedFooter, FormatError> {
    let corrupt = |detail: String| FormatError::Corrupt {
        path: path.to_path_buf(),
        chunk: None,
        detail,
    };
    let mut cur = Cursor::new(footer);
    let version = cur.u32().map_err(&corrupt)?;
    if version != FORMAT_VERSION {
        return Err(FormatError::VersionSkew {
            path: path.to_path_buf(),
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let chunk_rows = cur
        .bounded_len(usize::MAX / 2, "chunk_rows")
        .map_err(&corrupt)?;
    if chunk_rows == 0 {
        return Err(corrupt("chunk_rows is zero".to_string()));
    }
    let name = cur.string(MAX_NAME_LEN).map_err(&corrupt)?;
    let num_fields = cur.u32().map_err(&corrupt)?;
    // CAST-OK: u32 fits usize on supported targets
    if num_fields as usize > MAX_COLUMNS {
        return Err(corrupt(format!(
            "field count {num_fields} exceeds limit {MAX_COLUMNS}"
        )));
    }
    let mut fields = Vec::new();
    for _ in 0..num_fields {
        let field_name = cur.string(MAX_NAME_LEN).map_err(&corrupt)?;
        let dt = crate::codec::type_from_code(cur.u8().map_err(&corrupt)?).map_err(&corrupt)?;
        fields.push(bqo_storage::Field::new(field_name, dt));
    }
    let schema = Schema::new(fields);
    let row_count = cur
        .bounded_len(usize::MAX / 2, "row_count")
        .map_err(&corrupt)?;
    let num_chunks = cur
        .bounded_len(usize::MAX / 2, "chunk count")
        .map_err(&corrupt)?;
    let expected_chunks = if schema.is_empty() {
        0
    } else {
        row_count.div_ceil(chunk_rows)
    };
    if num_chunks != expected_chunks {
        return Err(corrupt(format!(
            "directory has {num_chunks} chunks, {row_count} rows at {chunk_rows} rows/chunk \
             implies {expected_chunks}"
        )));
    }
    let mut directory = Vec::new();
    for chunk in 0..num_chunks {
        let mut entries = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            let offset = cur.u64().map_err(&corrupt)?;
            let len = cur.u64().map_err(&corrupt)?;
            let checksum = cur.u64().map_err(&corrupt)?;
            let zone = match cur.u8().map_err(&corrupt)? {
                0 => None,
                1 => {
                    let min = decode_value(&mut cur).map_err(&corrupt)?;
                    let max = decode_value(&mut cur).map_err(&corrupt)?;
                    Some((min, max))
                }
                other => return Err(corrupt(format!("invalid zone flag {other}"))),
            };
            // `checked_add`: a crafted footer with `offset + len` wrapping
            // u64 would otherwise pass this bound and index out of range
            // when the run is sliced.
            let end = offset.checked_add(len);
            // CAST-OK: constant 8-byte magic
            if offset < MAGIC.len() as u64 || end.is_none_or(|end| end > data_end) {
                return Err(corrupt(format!(
                    "chunk {chunk} run at {offset} (+{len}) lies outside the data region"
                )));
            }
            entries.push(ChunkEntry {
                offset,
                len,
                checksum,
                zone,
            });
        }
        directory.push(entries);
    }
    let stats = parse_stats(&mut cur, &schema).map_err(&corrupt)?;
    if stats.row_count != row_count {
        return Err(corrupt(format!(
            "stats row count {} disagrees with footer row count {row_count}",
            stats.row_count
        )));
    }
    if cur.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after footer",
            cur.remaining()
        )));
    }
    Ok(ParsedFooter {
        name,
        schema,
        chunk_rows,
        row_count,
        directory,
        stats,
    })
}

fn parse_stats(cur: &mut Cursor<'_>, schema: &Schema) -> Result<TableStats, String> {
    let row_count = cur.bounded_len(usize::MAX / 2, "stats row_count")?;
    let num_cols = cur.u32()? as usize; // CAST-OK: u32 fits usize on supported targets
    if num_cols != schema.len() {
        return Err(format!(
            "stats cover {num_cols} columns, schema has {}",
            schema.len()
        ));
    }
    let mut columns = HashMap::new();
    for _ in 0..num_cols {
        let name = cur.string(MAX_NAME_LEN)?;
        let Some(field) = schema.field(&name) else {
            return Err(format!("stats name `{name}` not in schema"));
        };
        let col_rows = cur.bounded_len(usize::MAX / 2, "column row_count")?;
        let distinct_count = cur.bounded_len(usize::MAX / 2, "distinct count")?;
        let min = match cur.u8()? {
            0 => None,
            1 => Some(f64::from_bits(cur.u64()?)),
            other => return Err(format!("invalid min flag {other}")),
        };
        let max = match cur.u8()? {
            0 => None,
            1 => Some(f64::from_bits(cur.u64()?)),
            other => return Err(format!("invalid max flag {other}")),
        };
        let hist_len = cur.u32()?;
        // CAST-OK: u32 fits usize on supported targets
        if hist_len as usize > MAX_HISTOGRAM_LEN {
            return Err(format!(
                "histogram length {hist_len} exceeds limit {MAX_HISTOGRAM_LEN}"
            ));
        }
        let mut histogram = Vec::with_capacity(hist_len as usize); // CAST-OK: checked against MAX_HISTOGRAM_LEN above
        for _ in 0..hist_len {
            histogram.push(cur.bounded_len(usize::MAX / 2, "histogram bucket")?);
        }
        columns.insert(
            Arc::clone(&field.name),
            ColumnStats {
                row_count: col_rows,
                distinct_count,
                min,
                max,
                histogram,
            },
        );
    }
    Ok(TableStats { row_count, columns })
}
