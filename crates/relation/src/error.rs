//! Error types for the relation layer.

use std::fmt;

use crate::datatype::DataType;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RelationError>;

/// Errors produced by schema, column, and relation operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// A column name was not found in the schema.
    UnknownColumn(String),
    /// A column id was out of range for the schema.
    ColumnIdOutOfRange {
        /// The offending column index.
        id: usize,
        /// The schema's width.
        width: usize,
    },
    /// A value's type did not match the column's declared type.
    TypeMismatch {
        /// Column name (may be empty when unknown at the error site).
        column: String,
        /// The column's declared type.
        expected: DataType,
        /// The value's actual type.
        actual: DataType,
    },
    /// A row had the wrong number of values for the schema.
    ArityMismatch {
        /// Expected width/length.
        expected: usize,
        /// Actual width/length.
        actual: usize,
    },
    /// Two column names collided while building a schema.
    DuplicateColumn(String),
    /// A row index was out of range for the relation.
    RowOutOfRange {
        /// The offending row index.
        row: usize,
        /// The relation's row count.
        rows: usize,
    },
    /// An expression or predicate referenced a column with an incompatible type.
    InvalidOperandType {
        /// Where the operand appeared.
        context: &'static str,
        /// The operand's actual type.
        actual: DataType,
    },
    /// A binary relation encoding failed validation (torn bytes, hostile
    /// length fields, unknown tags).
    CorruptEncoding(String),
}

impl RelationError {
    /// The error's message without the "corrupt relation encoding" prefix,
    /// for decoders of other blob kinds that name the blob themselves.
    pub fn reason(self) -> String {
        match self {
            RelationError::CorruptEncoding(m) => m,
            e => e.to_string(),
        }
    }
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::UnknownColumn(name) => write!(f, "unknown column `{name}`"),
            RelationError::ColumnIdOutOfRange { id, width } => {
                write!(f, "column id {id} out of range for schema of width {width}")
            }
            RelationError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch for column `{column}`: expected {expected}, got {actual}"
            ),
            RelationError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, row has {actual}"
                )
            }
            RelationError::DuplicateColumn(name) => {
                write!(f, "duplicate column name `{name}`")
            }
            RelationError::RowOutOfRange { row, rows } => {
                write!(
                    f,
                    "row index {row} out of range for relation with {rows} rows"
                )
            }
            RelationError::InvalidOperandType { context, actual } => {
                write!(f, "invalid operand type {actual} in {context}")
            }
            RelationError::CorruptEncoding(m) => write!(f, "corrupt relation encoding: {m}"),
        }
    }
}

impl std::error::Error for RelationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelationError::UnknownColumn("foo".into());
        assert!(e.to_string().contains("foo"));
        let e = RelationError::TypeMismatch {
            column: "bar".into(),
            expected: DataType::Int,
            actual: DataType::Float,
        };
        let msg = e.to_string();
        assert!(msg.contains("bar") && msg.contains("Int") && msg.contains("Float"));
        let e = RelationError::ArityMismatch {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&RelationError::DuplicateColumn("x".into()));
    }
}
