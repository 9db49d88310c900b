//! The catalog: tables, primary keys, foreign keys and statistics.

use crate::schema::Schema;
use crate::source::ChunkSource;
use crate::stats::TableStats;
use crate::table::Table;
use crate::{Result, StorageError};
use std::collections::HashMap;
use std::sync::Arc;

/// A declared foreign-key relationship `fk_table.fk_column -> pk_table.pk_column`.
///
/// These drive the PKFK-join detection used by the paper's star/snowflake
/// analysis (`R1 -> R2` in the paper's notation means the join column is a
/// key in `R2`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub fk_table: Arc<str>,
    pub fk_column: Arc<str>,
    pub pk_table: Arc<str>,
    pub pk_column: Arc<str>,
}

impl ForeignKey {
    /// Creates a foreign key declaration.
    pub fn new(
        fk_table: impl Into<Arc<str>>,
        fk_column: impl Into<Arc<str>>,
        pk_table: impl Into<Arc<str>>,
        pk_column: impl Into<Arc<str>>,
    ) -> Self {
        ForeignKey {
            fk_table: fk_table.into(),
            fk_column: fk_column.into(),
            pk_table: pk_table.into(),
            pk_column: pk_column.into(),
        }
    }
}

/// What holds a registered table's rows: fully materialized memory, or a
/// chunked source (an on-disk columnar file) read on demand.
#[derive(Debug, Clone)]
pub enum TableBacking {
    /// The table's columns live in memory.
    Memory(Arc<Table>),
    /// The table's rows are materialized chunk by chunk through a
    /// [`ChunkSource`] (e.g. a `bqo-format` file reader).
    Source(Arc<dyn ChunkSource>),
}

/// Catalog entry for one table: data (or its source), statistics and key
/// metadata.
#[derive(Debug, Clone)]
pub struct TableMeta {
    /// The table's name, allocated once at registration: query specs bound
    /// against the catalog and the plans built from them share this `Arc`.
    pub name: Arc<str>,
    /// Where the rows live.
    pub backing: TableBacking,
    pub stats: Arc<TableStats>,
    /// Name of the primary-key column (the schema field's own `Arc`), if
    /// declared.
    pub primary_key: Option<Arc<str>>,
}

impl TableMeta {
    /// The rows' [`ChunkSource`], whichever backing provides it.
    fn as_source(&self) -> &dyn ChunkSource {
        match &self.backing {
            TableBacking::Memory(t) => t.as_ref(),
            TableBacking::Source(s) => s.as_ref(),
        }
    }

    /// The table's schema, regardless of backing.
    pub fn schema(&self) -> &Schema {
        self.as_source().schema()
    }

    /// The table's row count, regardless of backing.
    pub fn num_rows(&self) -> usize {
        self.as_source().num_rows()
    }

    /// Approximate size in bytes (in memory or on disk).
    pub fn byte_size(&self) -> usize {
        self.as_source().byte_size()
    }

    /// The chunk source, when this entry is file-backed.
    pub fn source(&self) -> Option<&Arc<dyn ChunkSource>> {
        match &self.backing {
            TableBacking::Memory(_) => None,
            TableBacking::Source(s) => Some(s),
        }
    }

    /// The table as the executor scans it, regardless of backing: an
    /// in-memory table is a [`ChunkSource`] of one resident chunk.
    pub fn scan_source(&self) -> Arc<dyn ChunkSource> {
        match &self.backing {
            TableBacking::Memory(t) => Arc::clone(t) as Arc<dyn ChunkSource>,
            TableBacking::Source(s) => Arc::clone(s),
        }
    }

    /// True when the rows are materialized on demand from a chunk source.
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backing, TableBacking::Source(_))
    }
}

/// The database catalog.
///
/// Holds every registered table together with its statistics and the declared
/// primary-key / foreign-key constraints. The optimizer only reads the
/// catalog; the executor reads the table data through it.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<Arc<str>, TableMeta>,
    foreign_keys: Vec<ForeignKey>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table, computing its statistics.
    pub fn register_table(&mut self, table: Table) {
        let stats = Arc::new(table.compute_stats());
        let name = Arc::clone(&table.name);
        self.insert(name, TableBacking::Memory(Arc::new(table)), stats);
    }

    /// Registers a chunked (file-backed) table source alongside the
    /// in-memory tables. Statistics come from the source itself — on-disk
    /// formats persist them at write time — so registration reads no row
    /// data. The executor scans such tables chunk by chunk through the
    /// source instead of through an `Arc<Table>`.
    pub fn register_source(&mut self, source: Arc<dyn ChunkSource>) {
        let stats = Arc::new(source.table_stats());
        let name: Arc<str> = Arc::from(source.name());
        self.insert(name, TableBacking::Source(source), stats);
    }

    fn insert(&mut self, name: Arc<str>, backing: TableBacking, stats: Arc<TableStats>) {
        let meta = TableMeta {
            name: Arc::clone(&name),
            backing,
            stats,
            primary_key: None,
        };
        self.tables.insert(name, meta);
    }

    /// A content tag over the catalog's schema: an FNV-1a hash of the sorted
    /// table names with their row counts, column names, declared primary
    /// keys, backing-file fingerprints and foreign keys. Two catalogs with
    /// different registered schemas hash differently (modulo hash
    /// collisions); the engine does not read it. It is a cheap identity
    /// check for callers that compare two catalogs, such as a wrapper that
    /// must register the same schema as the catalog it wraps.
    pub fn schema_tag(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        let mut mix_bytes = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(FNV_PRIME);
            }
            // Separator so concatenated fields cannot alias.
            hash ^= 0xff;
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        let mut names: Vec<&Arc<str>> = self.tables.keys().collect();
        names.sort_unstable();
        for name in names {
            let meta = &self.tables[name];
            mix_bytes(name.as_bytes());
            mix_bytes(&meta.stats.row_count.to_le_bytes());
            for column in meta.schema().names() {
                mix_bytes(column.as_bytes());
            }
            if let Some(pk) = &meta.primary_key {
                mix_bytes(pk.as_bytes());
            }
            // File-backed tables fold in the backing file's content
            // fingerprint, so re-registering a *different* file under the
            // same name changes the tag.
            if let TableBacking::Source(source) = &meta.backing {
                mix_bytes(&source.fingerprint().to_le_bytes());
            }
        }
        for fk in &self.foreign_keys {
            mix_bytes(fk.fk_table.as_bytes());
            mix_bytes(fk.fk_column.as_bytes());
            mix_bytes(fk.pk_table.as_bytes());
            mix_bytes(fk.pk_column.as_bytes());
        }
        hash
    }

    /// Declares the primary key of a registered table. A column whose
    /// statistics count fewer distinct values than rows is rejected with
    /// [`StorageError::InvalidArgument`].
    pub fn declare_primary_key(&mut self, table: &str, column: &str) -> Result<()> {
        let meta = self
            .tables
            .get_mut(table)
            .ok_or_else(|| StorageError::TableNotFound {
                table: table.to_string(),
            })?;
        let Some(field) = meta.schema().field(column) else {
            return Err(StorageError::ColumnNotFound {
                table: table.to_string(),
                column: column.to_string(),
            });
        };
        let name = Arc::clone(&field.name);
        if let Some(stats) = meta.stats.column(column) {
            if stats.distinct_count != stats.row_count {
                return Err(StorageError::InvalidArgument(format!(
                    "primary key `{table}.{column}` is not unique: {} distinct values in {} rows",
                    stats.distinct_count, stats.row_count
                )));
            }
        }
        meta.primary_key = Some(name);
        Ok(())
    }

    /// Declares a foreign key; both endpoints must be registered.
    pub fn declare_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        for (t, c) in [(&fk.fk_table, &fk.fk_column), (&fk.pk_table, &fk.pk_column)] {
            let meta = self
                .tables
                .get(t)
                .ok_or_else(|| StorageError::TableNotFound {
                    table: t.to_string(),
                })?;
            if !meta.schema().contains(c) {
                return Err(StorageError::ColumnNotFound {
                    table: t.to_string(),
                    column: c.to_string(),
                });
            }
        }
        self.foreign_keys.push(fk);
        Ok(())
    }

    /// Looks up a table's metadata.
    pub fn table_meta(&self, name: &str) -> Result<&TableMeta> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::TableNotFound {
                table: name.to_string(),
            })
    }

    /// Looks up a table's in-memory data. File-backed tables have no
    /// materialized `Table` — read those chunk by chunk through
    /// [`TableMeta::source`] instead (the executor's file scan does).
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        match &self.table_meta(name)?.backing {
            TableBacking::Memory(t) => Ok(Arc::clone(t)),
            TableBacking::Source(_) => Err(StorageError::InvalidArgument(format!(
                "table `{name}` is file-backed; read it through its chunk source"
            ))),
        }
    }

    /// Looks up a table's statistics.
    pub fn stats(&self, name: &str) -> Result<Arc<TableStats>> {
        Ok(Arc::clone(&self.table_meta(name)?.stats))
    }

    /// The declared primary key column of a table, if any.
    pub fn primary_key(&self, table: &str) -> Option<&str> {
        self.tables
            .get(table)
            .and_then(|m| m.primary_key.as_deref())
    }

    /// True if `table.column` is declared as (or statistically is) unique.
    ///
    /// The paper's definition of a PKFK join only needs the join column to be
    /// a key on one side; declared primary keys take precedence and the
    /// statistics provide a fallback for schemas loaded without constraints.
    pub fn is_unique_column(&self, table: &str, column: &str) -> bool {
        if self.primary_key(table) == Some(column) {
            return true;
        }
        self.tables
            .get(table)
            .and_then(|m| m.stats.column(column))
            .map(|s| s.is_unique())
            .unwrap_or(false)
    }

    /// All declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Names of all registered tables (unordered).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| &**s).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total approximate size of all registered tables in bytes (in memory
    /// or on disk, depending on each table's backing).
    pub fn total_byte_size(&self) -> usize {
        self.tables.values().map(|m| m.byte_size()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register_table(
            TableBuilder::new("dim")
                .with_i64("id", vec![1, 2, 3])
                .with_utf8("label", vec!["a".into(), "b".into(), "c".into()])
                .build()
                .unwrap(),
        );
        c.register_table(
            TableBuilder::new("fact")
                .with_i64("fk", vec![1, 1, 2, 3, 3, 3])
                .with_f64("amount", vec![1.0; 6])
                .build()
                .unwrap(),
        );
        c
    }

    #[test]
    fn register_and_lookup() {
        let c = catalog();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(c.table("dim").unwrap().num_rows(), 3);
        assert_eq!(c.stats("fact").unwrap().row_count, 6);
        assert!(c.table("missing").is_err());
    }

    #[test]
    fn primary_key_declaration() {
        let mut c = catalog();
        c.declare_primary_key("dim", "id").unwrap();
        assert_eq!(c.primary_key("dim"), Some("id"));
        assert!(c.is_unique_column("dim", "id"));
        assert!(c.declare_primary_key("dim", "missing").is_err());
        assert!(c.declare_primary_key("missing", "id").is_err());
    }

    #[test]
    fn unique_detection_from_stats() {
        let c = catalog();
        // `dim.id` is unique even without a declared PK.
        assert!(c.is_unique_column("dim", "id"));
        // `fact.fk` repeats values.
        assert!(!c.is_unique_column("fact", "fk"));
        assert!(!c.is_unique_column("missing", "x"));
    }

    #[test]
    fn foreign_key_declaration() {
        let mut c = catalog();
        c.declare_foreign_key(ForeignKey::new("fact", "fk", "dim", "id"))
            .unwrap();
        assert_eq!(c.foreign_keys().len(), 1);
        assert!(c
            .declare_foreign_key(ForeignKey::new("fact", "nope", "dim", "id"))
            .is_err());
        assert!(c
            .declare_foreign_key(ForeignKey::new("nope", "fk", "dim", "id"))
            .is_err());
    }

    #[test]
    fn schema_tag_distinguishes_diverged_clones() {
        let base = catalog();
        let mut a = base.clone();
        let mut b = base.clone();
        a.register_table(
            TableBuilder::new("extra_a")
                .with_i64("x", vec![1])
                .build()
                .unwrap(),
        );
        b.register_table(
            TableBuilder::new("extra_b")
                .with_i64("x", vec![1])
                .build()
                .unwrap(),
        );
        // Same number of mutations, different content: different tags.
        assert_ne!(a.schema_tag(), b.schema_tag());
        // Identical lineages share a tag; key declarations change it.
        assert_eq!(base.schema_tag(), base.clone().schema_tag());
        let mut keyed = base.clone();
        keyed.declare_primary_key("dim", "id").unwrap();
        assert_ne!(keyed.schema_tag(), base.schema_tag());
    }

    #[test]
    fn register_source_behaves_like_a_table() {
        use crate::source::tests::VecSource;

        let table = TableBuilder::new("disk")
            .with_i64("id", vec![1, 2, 3, 4, 5])
            .build()
            .unwrap();
        let mut c = catalog();
        let tag_before = c.schema_tag();
        c.register_source(Arc::new(VecSource {
            table: table.clone(),
            chunk_rows: 2,
            fingerprint: 7,
        }));
        // Stats, schema and keys work through the meta accessors…
        let meta = c.table_meta("disk").unwrap();
        assert!(meta.is_file_backed());
        assert!(matches!(meta.backing, TableBacking::Source(_)));
        assert!(meta.source().is_some());
        assert_eq!(meta.num_rows(), 5);
        assert_eq!(c.stats("disk").unwrap().row_count, 5);
        c.declare_primary_key("disk", "id").unwrap();
        assert!(c.is_unique_column("disk", "id"));
        // …but a materialized Table lookup is an error.
        assert!(c.table("disk").is_err());
        // The schema tag folds in the source fingerprint: a different file
        // under the same name re-tags the catalog.
        let tag_a = c.schema_tag();
        assert_ne!(tag_a, tag_before);
        c.register_source(Arc::new(VecSource {
            table,
            chunk_rows: 2,
            fingerprint: 8,
        }));
        assert_ne!(c.schema_tag(), tag_a);
        assert!(c.total_byte_size() > 0);
    }

    #[test]
    fn table_names_and_size() {
        let c = catalog();
        let mut names = c.table_names();
        names.sort_unstable();
        assert_eq!(names, vec!["dim", "fact"]);
        assert!(c.total_byte_size() > 0);
    }
}
