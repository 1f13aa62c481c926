//! Error type for the learning crate.

use std::fmt;

/// Errors produced when building datasets or fitting models.
#[derive(Debug, Clone, PartialEq)]
pub enum LearnError {
    /// A model was fit on an empty training set.
    EmptyTrainingSet,
    /// Feature matrix and target vector lengths differ.
    LengthMismatch {
        /// Number of feature rows.
        features: usize,
        /// Number of targets.
        targets: usize,
    },
    /// Rows of the feature matrix have inconsistent widths.
    RaggedFeatures {
        /// Expected width (from the first row).
        expected: usize,
        /// Width actually found.
        found: usize,
    },
    /// A feature value is NaN, which has no place in a split order.
    NanFeature {
        /// Row of the first NaN (row-major order).
        row: usize,
        /// Column of that NaN.
        column: usize,
    },
    /// A hyper-parameter was invalid (e.g. zero trees, zero neighbours).
    InvalidHyperParameter(&'static str),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::EmptyTrainingSet => write!(f, "training set is empty"),
            LearnError::LengthMismatch { features, targets } => write!(
                f,
                "feature rows ({features}) and targets ({targets}) have different lengths"
            ),
            LearnError::RaggedFeatures { expected, found } => write!(
                f,
                "ragged feature matrix: expected width {expected}, found {found}"
            ),
            LearnError::NanFeature { row, column } => {
                write!(f, "feature value at row {row}, column {column} is NaN")
            }
            LearnError::InvalidHyperParameter(msg) => write!(f, "invalid hyper-parameter: {msg}"),
        }
    }
}

impl std::error::Error for LearnError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(LearnError::EmptyTrainingSet.to_string().contains("empty"));
        assert!(LearnError::LengthMismatch {
            features: 3,
            targets: 4
        }
        .to_string()
        .contains('3'));
        assert!(LearnError::RaggedFeatures {
            expected: 2,
            found: 5
        }
        .to_string()
        .contains("ragged"));
    }
}
