//! Error type shared by the storage crate.

use std::fmt;

/// Errors raised while building or querying storage structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A referenced column does not exist in the schema.
    ColumnNotFound { table: String, column: String },
    /// A referenced table does not exist in the catalog.
    TableNotFound { table: String },
    /// Columns of a table have inconsistent lengths.
    LengthMismatch { expected: usize, actual: usize },
    /// The value's type does not match the column's declared type.
    TypeMismatch { expected: String, actual: String },
    /// A constraint (primary key / foreign key) references missing objects
    /// or is otherwise invalid.
    InvalidConstraint(String),
    /// Catch-all for invalid arguments.
    InvalidArgument(String),
    /// A query references a parameter placeholder that has no bound value.
    UnboundParameter { name: String },
    /// An on-disk columnar file failed to open, parse or verify. `path` is
    /// the offending file and `detail` the format layer's description
    /// (including the chunk index for chunk-level failures). Produced by
    /// mapping `bqo-format`'s typed `FormatError` into the storage error
    /// channel.
    Format { path: String, detail: String },
    /// Execution was interrupted cooperatively (a cancel token fired or a
    /// deadline passed) before the query completed. Raised by the execution
    /// layer's morsel scheduler and batch loops, never by storage itself; it
    /// lives here so cancellation can travel the same `Result` channel as
    /// every other runtime failure.
    Cancelled,
    /// An intermediate result holds more rows than a `u32` row id can
    /// address. Raised by the execution layer, whose join tables and row-id
    /// batches reference rows through `u32`s; it lives here for the same
    /// reason as [`StorageError::Cancelled`].
    RowIdOverflow { rows: usize },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ColumnNotFound { table, column } => {
                write!(f, "column `{column}` not found in table `{table}`")
            }
            StorageError::TableNotFound { table } => {
                write!(f, "table `{table}` not found in catalog")
            }
            StorageError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "column length mismatch: expected {expected}, got {actual}"
                )
            }
            StorageError::TypeMismatch { expected, actual } => {
                write!(f, "type mismatch: expected {expected}, got {actual}")
            }
            StorageError::InvalidConstraint(msg) => write!(f, "invalid constraint: {msg}"),
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            StorageError::UnboundParameter { name } => {
                write!(f, "parameter `${name}` has no bound value")
            }
            StorageError::Format { path, detail } => {
                write!(f, "format error in `{path}`: {detail}")
            }
            StorageError::Cancelled => write!(f, "execution was cancelled"),
            StorageError::RowIdOverflow { rows } => {
                write!(f, "{rows} rows exceed the u32 row-id space of a join")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_column_not_found() {
        let e = StorageError::ColumnNotFound {
            table: "t".into(),
            column: "c".into(),
        };
        assert_eq!(e.to_string(), "column `c` not found in table `t`");
    }

    #[test]
    fn display_table_not_found() {
        let e = StorageError::TableNotFound { table: "x".into() };
        assert!(e.to_string().contains("`x`"));
    }

    #[test]
    fn display_length_mismatch() {
        let e = StorageError::LengthMismatch {
            expected: 3,
            actual: 5,
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(e.to_string().contains("got 5"));
    }

    #[test]
    fn display_unbound_parameter() {
        let e = StorageError::UnboundParameter { name: "cat".into() };
        assert_eq!(e.to_string(), "parameter `$cat` has no bound value");
    }

    #[test]
    fn display_format_error() {
        let e = StorageError::Format {
            path: "/tmp/t.bqo".into(),
            detail: "checksum mismatch in chunk 3".into(),
        };
        assert_eq!(
            e.to_string(),
            "format error in `/tmp/t.bqo`: checksum mismatch in chunk 3"
        );
    }

    #[test]
    fn display_cancelled() {
        assert_eq!(
            StorageError::Cancelled.to_string(),
            "execution was cancelled"
        );
    }

    #[test]
    fn display_row_id_overflow() {
        let e = StorageError::RowIdOverflow {
            rows: 5_000_000_000,
        };
        assert!(e.to_string().contains("5000000000 rows"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&StorageError::InvalidArgument("x".into()));
    }
}
