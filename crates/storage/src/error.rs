//! Error type for the storage layer.

use crate::value::{DataType, Value};
use std::fmt;

/// Errors raised by schema validation, catalog operations and table access.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// Two columns in a schema share the same qualified name.
    DuplicateColumn(String),
    /// A column reference did not resolve.
    UnknownColumn(String),
    /// A column reference resolved to more than one column.
    AmbiguousColumn(String),
    /// A positional column index was out of range.
    ColumnIndexOutOfRange(usize),
    /// A row had the wrong number of values.
    ArityMismatch {
        /// Number of columns in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// A value was incompatible with its column type.
    TypeMismatch {
        /// Offending column's display name.
        column: String,
        /// Declared column type.
        expected: DataType,
        /// Value that failed to conform.
        got: Value,
    },
    /// A table name did not resolve.
    UnknownTable(String),
    /// A table with that name already exists.
    TableExists(String),
    /// A tuple id did not resolve within a table.
    UnknownTuple(u64),
    /// A confidence value was outside `[0, 1]` or not finite.
    InvalidConfidence(f64),
    /// An explicit tuple id collided with an existing tuple.
    DuplicateTupleId(u64),
    /// An equality index was requested on a column type that cannot carry
    /// one (only `INT`, `TEXT` and `BOOL` columns are indexable).
    NotIndexable {
        /// Offending column's display name.
        column: String,
        /// The column's declared type.
        data_type: DataType,
    },
    /// A CSV document failed to parse or did not match the table schema.
    Csv {
        /// 1-based line number (0 when the document could not be read).
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateColumn(c) => write!(f, "duplicate column `{c}`"),
            StorageError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            StorageError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            StorageError::ColumnIndexOutOfRange(i) => {
                write!(f, "column index {i} out of range")
            }
            StorageError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            StorageError::TypeMismatch {
                column,
                expected,
                got,
            } => write!(
                f,
                "column `{column}` expects {expected}, got incompatible value {got}"
            ),
            StorageError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            StorageError::TableExists(t) => write!(f, "table `{t}` already exists"),
            StorageError::UnknownTuple(id) => write!(f, "unknown tuple id {id}"),
            // The payload stays available to code; the rendered message
            // does not echo the confidence value (PCQE-F003).
            StorageError::InvalidConfidence(_) => {
                write!(f, "confidence outside [0, 1]")
            }
            StorageError::DuplicateTupleId(id) => {
                write!(f, "tuple id {id} already exists")
            }
            StorageError::NotIndexable { column, data_type } => {
                write!(
                    f,
                    "column `{column}` of type {data_type} cannot carry an equality index"
                )
            }
            StorageError::Csv { line, message } => {
                write!(f, "csv error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::TypeMismatch {
            column: "income".into(),
            expected: DataType::Real,
            got: Value::text("oops"),
        };
        let msg = e.to_string();
        assert!(msg.contains("income"));
        assert!(msg.contains("REAL"));
        assert!(msg.contains("oops"));
    }

    #[test]
    fn errors_are_std_errors() {
        let e: Box<dyn std::error::Error> = Box::new(StorageError::UnknownTable("t".into()));
        assert!(e.to_string().contains('t'));
    }
}
