//! # scope-compredict
//!
//! COMPREDICT (§V of the paper): prediction of compression ratio and
//! decompression speed for data partitions, on the fly, from cheap features.
//!
//! The module has three parts:
//!
//! * [`features`] — the paper's *weighted entropy* features `H(P, d)`, one
//!   per data type `d` present in a partition, plus the size-only baseline
//!   feature set and the *bucketed* entropy variant studied for sorted data,
//! * [`sampling`] — random row sampling vs *query-based* sampling (samples
//!   drawn from the rows that queries actually touch); the paper shows the
//!   latter is what makes prediction work (Table V, Fig 4),
//! * [`predictor`] — ground-truth measurement (compressing the sampled bytes
//!   with the `scope-compress` codecs) and the model sweep of Tables VI–VIII
//!   (averaging baseline, Random Forest, gradient boosting, MLP, k-NN) with
//!   MAE / MAPE / R² evaluation.

#![warn(missing_docs)]

pub mod features;
pub mod predictor;
pub mod sampling;

pub use features::{FeatureExtractor, FeatureSet};
pub use predictor::{
    CompressionPredictor, EvaluationReport, ModelKind, PredictionTask, TrainingExample,
};
pub use sampling::{query_samples, random_samples};

/// Errors produced by the compression predictor.
#[derive(Debug, Clone, PartialEq)]
pub enum CompredictError {
    /// Not enough samples to train or evaluate a model.
    NotEnoughSamples(usize),
    /// The underlying learner failed.
    Learn(String),
    /// A table operation failed while building samples.
    Table(String),
    /// An option was invalid.
    InvalidOption(String),
}

impl std::fmt::Display for CompredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompredictError::NotEnoughSamples(n) => {
                write!(f, "not enough samples to train a predictor: {n}")
            }
            CompredictError::Learn(msg) => write!(f, "learner error: {msg}"),
            CompredictError::Table(msg) => write!(f, "table error: {msg}"),
            CompredictError::InvalidOption(msg) => write!(f, "invalid option: {msg}"),
        }
    }
}

impl std::error::Error for CompredictError {}

impl From<scope_learn::LearnError> for CompredictError {
    fn from(e: scope_learn::LearnError) -> Self {
        CompredictError::Learn(e.to_string())
    }
}

impl From<scope_table::TableError> for CompredictError {
    fn from(e: scope_table::TableError) -> Self {
        CompredictError::Table(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        assert!(CompredictError::NotEnoughSamples(3)
            .to_string()
            .contains('3'));
        let le: CompredictError = scope_learn::LearnError::EmptyTrainingSet.into();
        assert!(matches!(le, CompredictError::Learn(_)));
        let te: CompredictError = scope_table::TableError::UnknownColumn("x".into()).into();
        assert!(matches!(te, CompredictError::Table(_)));
    }
}
