//! Table schemas.

use crate::value::DataType;
use std::fmt;
use std::sync::Arc;

/// A named, typed column description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// The column's name, allocated once with the schema: plans, operator
    /// schemas and batches share this `Arc` instead of copying the text.
    pub name: Arc<str>,
    pub data_type: DataType,
}

impl Field {
    /// Creates a new field.
    pub fn new(name: impl Into<Arc<str>>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered collection of fields describing a table's columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from a list of fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| *f.name == *name)
    }

    /// The field with the given name, if present.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| *f.name == *name)
    }

    /// The field at the given index.
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn field_at(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// True if a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Column names in declaration order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| &*f.name).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

/// Convenience constructor used throughout the workload generators.
#[macro_export]
macro_rules! schema {
    ($(($name:expr, $dt:expr)),* $(,)?) => {
        $crate::Schema::new(vec![$($crate::Field::new($name, $dt)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("name", DataType::Utf8),
            Field::new("price", DataType::Float64),
        ])
    }

    #[test]
    fn index_of_and_contains() {
        let s = sample();
        assert_eq!(s.index_of("id"), Some(0));
        assert_eq!(s.index_of("price"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.contains("name"));
        assert!(!s.contains("nope"));
    }

    #[test]
    fn field_lookup() {
        let s = sample();
        assert_eq!(s.field("name").unwrap().data_type, DataType::Utf8);
        assert!(s.field("missing").is_none());
        assert_eq!(&*s.field_at(0).name, "id");
    }

    #[test]
    fn names_and_len() {
        let s = sample();
        assert_eq!(s.names(), vec!["id", "name", "price"]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(Schema::default().is_empty());
    }

    #[test]
    fn display_format() {
        let s = sample();
        assert_eq!(s.to_string(), "(id: Int64, name: Utf8, price: Float64)");
    }

    #[test]
    fn schema_macro_builds_schema() {
        let s = schema![("a", DataType::Int64), ("b", DataType::Bool)];
        assert_eq!(s.len(), 2);
        assert_eq!(s.field("b").unwrap().data_type, DataType::Bool);
    }
}
