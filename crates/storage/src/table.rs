//! Materialized tables.

use crate::column::Column;
use crate::schema::{Field, Schema};
use crate::source::ChunkSource;
use crate::stats::TableStats;
use crate::value::{DataType, Value};
use crate::{Result, StorageError};
use std::sync::Arc;

/// An immutable, fully materialized table.
///
/// Columns are stored behind `Arc` so execution-layer batches can reference
/// them without copying: a scan that marks survivors with a selection vector
/// shares the table's columns across every emitted batch for free, and
/// cloning a `Table` never duplicates column data.
#[derive(Debug, Clone)]
pub struct Table {
    /// Shared with the catalog entry the table is registered under.
    pub(crate) name: Arc<str>,
    schema: Schema,
    columns: Vec<Arc<Column>>,
    num_rows: usize,
}

impl Table {
    /// Creates a table from a schema and matching columns.
    ///
    /// All columns must have identical lengths and types matching the schema.
    pub fn new(name: impl Into<Arc<str>>, schema: Schema, columns: Vec<Column>) -> Result<Self> {
        let name = name.into();
        if schema.len() != columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: schema.len(),
                actual: columns.len(),
            });
        }
        let num_rows = columns.first().map(|c| c.len()).unwrap_or(0);
        for (field, column) in schema.fields().iter().zip(columns.iter()) {
            if column.data_type() != field.data_type {
                return Err(StorageError::TypeMismatch {
                    expected: field.data_type.to_string(),
                    actual: column.data_type().to_string(),
                });
            }
            if column.len() != num_rows {
                return Err(StorageError::LengthMismatch {
                    expected: num_rows,
                    actual: column.len(),
                });
            }
        }
        Ok(Table {
            name,
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            num_rows,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// All columns in schema order, as shared handles.
    ///
    /// Cloning an element is a refcount bump, not a data copy — batches that
    /// reference table columns (e.g. selection-vector scan output) do so
    /// through these handles.
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| StorageError::ColumnNotFound {
                table: self.name.to_string(),
                column: name.to_string(),
            })?;
        Ok(&self.columns[idx])
    }

    /// Column by positional index.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Computes per-column statistics for this table.
    pub fn compute_stats(&self) -> TableStats {
        TableStats::compute(self)
    }

    /// Approximate in-memory size in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }
}

/// An in-memory table is a [`ChunkSource`] of one resident chunk: the scan
/// reads it through the same interface as an on-disk file, but
/// [`ChunkSource::resident_columns`] hands it the shared column handles
/// directly, so nothing is fetched, pruned or copied.
impl ChunkSource for Table {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn num_rows(&self) -> usize {
        self.num_rows
    }

    fn chunk_rows(&self) -> usize {
        self.num_rows
    }

    fn zone_map(&self, _chunk: usize, _column: usize) -> Option<(Value, Value)> {
        None
    }

    fn read_chunk(&self, _chunk: usize) -> Result<Vec<Arc<Column>>> {
        Ok(self.columns.clone())
    }

    fn resident_columns(&self) -> Option<&[Arc<Column>]> {
        Some(&self.columns)
    }

    fn chunk_byte_size(&self, _chunk: usize) -> u64 {
        self.byte_size() as u64
    }

    /// In-memory tables carry no content fingerprint:
    /// [`Catalog::schema_tag`](crate::Catalog::schema_tag) tells them apart
    /// by name, row count and columns.
    fn fingerprint(&self) -> u64 {
        0
    }

    fn table_stats(&self) -> TableStats {
        self.compute_stats()
    }
}

/// Incremental builder for a [`Table`], used by the data generators.
#[derive(Debug)]
pub struct TableBuilder {
    name: Arc<str>,
    fields: Vec<Field>,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Starts building a table with the given name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        TableBuilder {
            name: name.into(),
            fields: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// Adds a fully materialized integer column.
    pub fn with_i64(mut self, name: impl Into<Arc<str>>, values: Vec<i64>) -> Self {
        self.fields.push(Field::new(name, DataType::Int64));
        self.columns.push(Column::Int64(values));
        self
    }

    /// Adds a fully materialized float column.
    pub fn with_f64(mut self, name: impl Into<Arc<str>>, values: Vec<f64>) -> Self {
        self.fields.push(Field::new(name, DataType::Float64));
        self.columns.push(Column::Float64(values));
        self
    }

    /// Adds a fully materialized string column.
    pub fn with_utf8(mut self, name: impl Into<Arc<str>>, values: Vec<String>) -> Self {
        self.fields.push(Field::new(name, DataType::Utf8));
        self.columns.push(Column::Utf8(values));
        self
    }

    /// Adds a fully materialized boolean column.
    pub fn with_bool(mut self, name: impl Into<Arc<str>>, values: Vec<bool>) -> Self {
        self.fields.push(Field::new(name, DataType::Bool));
        self.columns.push(Column::Bool(values));
        self
    }

    /// Finishes the table, validating column lengths.
    pub fn build(self) -> Result<Table> {
        Table::new(self.name, Schema::new(self.fields), self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        TableBuilder::new("people")
            .with_i64("id", vec![1, 2, 3])
            .with_utf8("name", vec!["a".into(), "b".into(), "c".into()])
            .with_f64("score", vec![1.0, 2.0, 3.0])
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_inspect() {
        let t = people();
        assert_eq!(t.name(), "people");
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.schema().len(), 3);
        assert_eq!(t.column("id").unwrap().as_i64().unwrap(), &[1, 2, 3]);
        assert_eq!(t.column_at(2).as_f64().unwrap(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_access() {
        let t = people();
        let row: Vec<Value> = t.columns().iter().map(|c| c.value(1)).collect();
        assert_eq!(
            row,
            vec![
                Value::Int64(2),
                Value::Utf8("b".into()),
                Value::Float64(2.0)
            ]
        );
    }

    #[test]
    fn missing_column_is_error() {
        let t = people();
        assert!(matches!(
            t.column("missing"),
            Err(StorageError::ColumnNotFound { .. })
        ));
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let res = TableBuilder::new("bad")
            .with_i64("a", vec![1, 2, 3])
            .with_i64("b", vec![1])
            .build();
        assert!(matches!(res, Err(StorageError::LengthMismatch { .. })));
    }

    #[test]
    fn mismatched_types_rejected() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let res = Table::new("bad", schema, vec![Column::Float64(vec![1.0])]);
        assert!(matches!(res, Err(StorageError::TypeMismatch { .. })));
    }

    #[test]
    fn schema_column_count_mismatch_rejected() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let res = Table::new("bad", schema, vec![]);
        assert!(matches!(res, Err(StorageError::LengthMismatch { .. })));
    }

    #[test]
    fn empty_table_allowed() {
        let t = TableBuilder::new("empty")
            .with_i64("a", vec![])
            .build()
            .unwrap();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.byte_size(), 0);
    }

    #[test]
    fn byte_size_sums_columns() {
        let t = people();
        assert!(t.byte_size() > 0);
    }
}
