use std::fmt;

/// Error raised by data-model and IO operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DataError {
    /// A row had a different number of fields than the schema demands.
    RowArity {
        /// Number of fields the schema expects.
        expected: usize,
        /// Number of fields found in the offending row.
        found: usize,
    },
    /// A value code was outside its feature's domain.
    CodeOutOfDomain {
        /// Feature index of the offending value.
        feature: usize,
        /// The offending code.
        code: u32,
        /// Cardinality of the feature's domain.
        cardinality: u32,
    },
    /// A string value was not present in a frozen domain.
    UnknownLabel {
        /// Feature index of the offending value.
        feature: usize,
        /// The label that could not be resolved.
        label: String,
    },
    /// A domain label cannot be written to CSV and read back as itself.
    UnwritableLabel {
        /// Feature index of the offending label.
        feature: usize,
        /// The label.
        label: String,
    },
    /// The input text could not be parsed.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An IO failure, flattened to its display string to keep the error
    /// `Clone + PartialEq`.
    Io(String),
    /// The operation needed a non-empty table.
    EmptyTable,
    /// A requested row sharding was invalid (zero batch size, batch larger
    /// than the table, or an empty/out-of-range shard).
    InvalidShard {
        /// Human-readable description of the violated constraint.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::RowArity { expected, found } => {
                write!(f, "row has {found} fields but the schema has {expected} features")
            }
            DataError::CodeOutOfDomain { feature, code, cardinality } => write!(
                f,
                "code {code} is outside the domain of feature {feature} (cardinality {cardinality})"
            ),
            DataError::UnknownLabel { feature, label } => {
                write!(f, "label {label:?} is not in the domain of feature {feature}")
            }
            DataError::UnwritableLabel { feature, label } => write!(
                f,
                "label {label:?} of feature {feature} would not read back from CSV \
                 (a missing token, padded with whitespace, or holding a line break)"
            ),
            DataError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            DataError::Io(message) => write!(f, "io error: {message}"),
            DataError::EmptyTable => write!(f, "operation requires a non-empty table"),
            DataError::InvalidShard { message } => write!(f, "invalid shard: {message}"),
        }
    }
}

impl std::error::Error for DataError {}

impl From<std::io::Error> for DataError {
    fn from(err: std::io::Error) -> Self {
        DataError::Io(err.to_string())
    }
}
