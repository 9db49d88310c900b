//! Typed column vectors.

use crate::value::{DataType, Value};
use crate::StorageError;

/// A fully materialized column of a single type.
///
/// Execution operators work directly on the typed vectors (via
/// [`Column::as_i64`] and friends) to avoid per-value boxing on the hot path.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<String>),
    Bool(Vec<bool>),
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn empty(data_type: DataType) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64(Vec::new()),
            DataType::Float64 => Column::Float64(Vec::new()),
            DataType::Utf8 => Column::Utf8(Vec::new()),
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Creates an empty column of the given type with reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Self {
        match data_type {
            DataType::Int64 => Column::Int64(Vec::with_capacity(capacity)),
            DataType::Float64 => Column::Float64(Vec::with_capacity(capacity)),
            DataType::Utf8 => Column::Utf8(Vec::with_capacity(capacity)),
            DataType::Bool => Column::Bool(Vec::with_capacity(capacity)),
        }
    }

    /// Number of values in this column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Utf8(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The data type of this column.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Utf8(_) => DataType::Utf8,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Returns the value at `idx` as a boxed [`Value`].
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn value(&self, idx: usize) -> Value {
        match self {
            Column::Int64(v) => Value::Int64(v[idx]),
            Column::Float64(v) => Value::Float64(v[idx]),
            Column::Utf8(v) => Value::Utf8(v[idx].clone()),
            Column::Bool(v) => Value::Bool(v[idx]),
        }
    }

    /// Appends a value, checking the type.
    pub fn push(&mut self, value: Value) -> Result<(), StorageError> {
        match (self, value) {
            (Column::Int64(v), Value::Int64(x)) => v.push(x),
            (Column::Float64(v), Value::Float64(x)) => v.push(x),
            (Column::Utf8(v), Value::Utf8(x)) => v.push(x),
            (Column::Bool(v), Value::Bool(x)) => v.push(x),
            (col, value) => {
                return Err(StorageError::TypeMismatch {
                    expected: col.data_type().to_string(),
                    actual: value.data_type().to_string(),
                })
            }
        }
        Ok(())
    }

    /// Borrow as `&[i64]`, if the column is an integer column.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[f64]`, if the column is a float column.
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[String]`, if the column is a string column.
    pub fn as_utf8(&self) -> Option<&[String]> {
        match self {
            Column::Utf8(v) => Some(v),
            _ => None,
        }
    }

    /// Borrow as `&[bool]`, if the column is a boolean column.
    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// Builds a new column containing only the rows selected by `indices`
    /// (in the given order, duplicates allowed).
    pub fn take(&self, indices: &[usize]) -> Column {
        let rows = indices.iter();
        match self {
            Column::Int64(v) => Column::Int64(rows.map(|&i| v[i]).collect()),
            Column::Float64(v) => Column::Float64(rows.map(|&i| v[i]).collect()),
            Column::Utf8(v) => Column::Utf8(rows.map(|&i| v[i].clone()).collect()),
            Column::Bool(v) => Column::Bool(rows.map(|&i| v[i]).collect()),
        }
    }

    /// Appends all values of `other` to this column.
    pub fn append(&mut self, other: &Column) -> Result<(), StorageError> {
        self.extend_rows(other, None)
    }

    /// Appends the rows `rows` of `other` (in the given order, duplicates
    /// allowed; `None`: every row) — how the executor gathers a row-id
    /// batch's values (`u32 -> usize` is lossless on every supported target).
    ///
    /// # Panics
    /// Panics if a row id is out of `other`'s bounds.
    pub fn extend_rows(
        &mut self,
        other: &Column,
        rows: Option<&[u32]>,
    ) -> Result<(), StorageError> {
        fn extend<T: Clone>(dst: &mut Vec<T>, src: &[T], rows: Option<&[u32]>) {
            match rows {
                None => dst.extend_from_slice(src),
                Some(rows) => dst.extend(rows.iter().map(|&r| src[r as usize].clone())),
            }
        }
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => extend(a, b, rows),
            (Column::Float64(a), Column::Float64(b)) => extend(a, b, rows),
            (Column::Utf8(a), Column::Utf8(b)) => extend(a, b, rows),
            (Column::Bool(a), Column::Bool(b)) => extend(a, b, rows),
            (a, b) => {
                return Err(StorageError::TypeMismatch {
                    expected: a.data_type().to_string(),
                    actual: b.data_type().to_string(),
                })
            }
        }
        Ok(())
    }

    /// [`Column::append`] for a column the caller owns: the values are moved,
    /// not cloned (no `String::clone` per `Utf8` cell).
    pub fn append_owned(&mut self, other: Column) -> Result<(), StorageError> {
        match (self, other) {
            (Column::Int64(a), Column::Int64(mut b)) => a.append(&mut b),
            (Column::Float64(a), Column::Float64(mut b)) => a.append(&mut b),
            (Column::Utf8(a), Column::Utf8(mut b)) => a.append(&mut b),
            (Column::Bool(a), Column::Bool(mut b)) => a.append(&mut b),
            (a, b) => {
                return Err(StorageError::TypeMismatch {
                    expected: a.data_type().to_string(),
                    actual: b.data_type().to_string(),
                })
            }
        }
        Ok(())
    }

    /// Approximate heap size of the column in bytes (used for reporting).
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int64(v) => v.len() * 8,
            Column::Float64(v) => v.len() * 8,
            Column::Utf8(v) => v.iter().map(|s| s.len() + 24).sum(),
            Column::Bool(v) => v.len(),
        }
    }
}

impl From<Vec<i64>> for Column {
    fn from(v: Vec<i64>) -> Self {
        Column::Int64(v)
    }
}

impl From<Vec<f64>> for Column {
    fn from(v: Vec<f64>) -> Self {
        Column::Float64(v)
    }
}

impl From<Vec<String>> for Column {
    fn from(v: Vec<String>) -> Self {
        Column::Utf8(v)
    }
}

impl From<Vec<bool>> for Column {
    fn from(v: Vec<bool>) -> Self {
        Column::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_len() {
        let c = Column::empty(DataType::Int64);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.data_type(), DataType::Int64);
    }

    #[test]
    fn push_and_value() {
        let mut c = Column::empty(DataType::Utf8);
        c.push(Value::Utf8("a".into())).unwrap();
        c.push(Value::Utf8("b".into())).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.value(1), Value::Utf8("b".into()));
    }

    #[test]
    fn push_type_mismatch() {
        let mut c = Column::empty(DataType::Int64);
        let err = c.push(Value::Utf8("a".into())).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn append_concatenates_and_checks_types() {
        let mut c = Column::from(vec![1i64, 2]);
        c.append(&Column::from(vec![3i64])).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[1, 2, 3]);
        let err = c.append(&Column::from(vec![1.5f64])).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn extend_rows_appends_the_named_rows_and_checks_types() {
        let source = Column::from(vec!["a".to_string(), "b".to_string(), "c".to_string()]);
        let mut c = Column::from(vec!["z".to_string()]);
        c.extend_rows(&source, Some(&[2, 0, 0])).unwrap();
        c.extend_rows(&source, Some(&[])).unwrap();
        c.extend_rows(&source, None).unwrap();
        assert_eq!(c.as_utf8().unwrap(), &["z", "c", "a", "a", "a", "b", "c"]);
        let err = c
            .extend_rows(&Column::from(vec![true]), Some(&[0]))
            .unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
        assert_eq!(c.len(), 7);
    }

    #[test]
    fn append_owned_moves_values_and_checks_types() {
        let mut c = Column::from(vec!["a".to_string()]);
        c.append_owned(Column::from(vec!["b".to_string(), "c".to_string()]))
            .unwrap();
        assert_eq!(c.as_utf8().unwrap(), &["a", "b", "c"]);
        let err = c.append_owned(Column::from(vec![true])).unwrap_err();
        assert!(matches!(err, StorageError::TypeMismatch { .. }));
    }

    #[test]
    fn take_reorders_and_duplicates() {
        let c = Column::from(vec![10i64, 20, 30]);
        let t = c.take(&[2, 0, 0]);
        assert_eq!(t.as_i64().unwrap(), &[30, 10, 10]);
    }

    #[test]
    fn typed_accessors() {
        assert!(Column::from(vec![1i64]).as_i64().is_some());
        assert!(Column::from(vec![1i64]).as_f64().is_none());
        assert!(Column::from(vec![1.0f64]).as_f64().is_some());
        assert!(Column::from(vec!["x".to_string()]).as_utf8().is_some());
        assert!(Column::from(vec![true]).as_bool().is_some());
    }

    #[test]
    fn byte_size_is_positive_for_nonempty() {
        assert!(Column::from(vec![1i64, 2, 3]).byte_size() >= 24);
        assert!(Column::from(vec!["abc".to_string()]).byte_size() >= 3);
    }

    #[test]
    fn with_capacity_has_zero_len() {
        let c = Column::with_capacity(DataType::Float64, 100);
        assert_eq!(c.len(), 0);
    }
}
