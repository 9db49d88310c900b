//! On-disk layout constants and the chunk directory entry.
//!
//! File layout, start to end:
//!
//! ```text
//! [MAGIC: 8 bytes]
//! [chunk 0, column 0 run][chunk 0, column 1 run]...[chunk N-1, column C-1]
//! [footer]
//! [footer_len: u64][xxh64(footer): u64][MAGIC: 8 bytes]   <- trailer
//! ```
//!
//! The footer holds the format version, chunk size, table name, schema,
//! row count, per-(chunk, column) directory entries (absolute offset, byte
//! length, xxh64 checksum, optional zone-map min/max), and the table
//! statistics computed at write time. Readers locate it from the fixed-size
//! trailer at the end of the file and verify its checksum before parsing,
//! so truncation and footer corruption are detected up front.
//!
//! The size limits below are the one definition the writer and the reader
//! share, so the writer never seals a file its reader would reject.

use bqo_storage::Value;

/// Magic bytes opening and closing every format file.
pub const MAGIC: &[u8; 8] = b"BQOCOL01";

/// Current format version, written to and checked against the footer.
pub const FORMAT_VERSION: u32 = 1;

/// Longest table or column name in bytes. The reader rejects a longer one,
/// so the writer refuses to seal it.
pub(crate) const MAX_NAME_LEN: usize = 1 << 16;

/// Most columns a table may have; checked on both sides like
/// [`MAX_NAME_LEN`].
pub(crate) const MAX_COLUMNS: usize = 1 << 16;

/// Longest `Utf8` zone-map bound in bytes. The reader rejects a longer one;
/// the writer stores no zone for such a chunk instead.
pub(crate) const MAX_ZONE_STRING_LEN: usize = 1 << 20;

/// File extension `Catalog::attach_dir` looks for.
pub const FILE_EXTENSION: &str = "bqo";

/// Byte length of the fixed trailer: footer length + footer checksum +
/// closing magic.
pub(crate) const TRAILER_LEN: u64 = 8 + 8 + MAGIC.len() as u64;

/// Directory entry for one (chunk, column) run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ChunkEntry {
    /// Absolute file offset of the encoded run.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u64,
    /// xxh64 (seed 0) of the encoded bytes.
    pub checksum: u64,
    /// Inclusive min/max of the run's values, `None` when untracked.
    pub zone: Option<(Value, Value)>,
}
