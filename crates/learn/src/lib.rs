//! # scope-learn
//!
//! From-scratch machine-learning substrate for the SCOPe reproduction.
//!
//! The paper trains scikit-learn / XGBoost style models — Random Forests,
//! gradient-boosted trees, SVR, a small MLP and an "averaging" baseline — to
//! (a) predict compression ratio and decompression speed per partition
//! (COMPREDICT, §V) and (b) predict the cost-optimal storage tier for the
//! next billing period (§IV-C, Table III). No third-party ML crates are in
//! the allowed dependency set, so this crate implements the model families
//! from scratch:
//!
//! * [`tree`] — CART decision trees (regression and classification),
//! * [`forest`] — random forests built on bagged CART trees,
//! * [`boosting`] — gradient-boosted regression trees (the "XGBoost" row),
//! * [`linear`] — ridge regression (linear baseline / SVR stand-in),
//! * [`knn`] — k-nearest-neighbour regression (kernel-method stand-in),
//! * [`mlp`] — a single-hidden-layer perceptron trained with SGD,
//! * [`metrics`] — MAE / MAPE / R², accuracy, precision, recall, F1 and
//!   confusion matrices (the exact metrics reported in Tables III and V–VIII).
//!
//! All models implement the [`Regressor`] or [`Classifier`] trait so that the
//! experiment drivers can sweep model families uniformly.
//!
//! # The learning fast path (PR 5)
//!
//! Training runs on a **column-major dataset view**:
//! [`data::ColumnMatrix`] stores features feature-major (one contiguous
//! `f64` column per feature), built once and shared by every model trained
//! on the same rows. On top of it:
//!
//! * **Presort CART** — [`tree`] sorts each feature once per tree and
//!   stably partitions the per-feature position arrays down the recursion;
//!   split scores come from running prefix statistics (`O(1)` per
//!   candidate for variance, `O(classes)` for Gini) instead of per-node
//!   re-sorts and per-split re-scans.
//! * **Bagging by index** — forests draw bootstrap *row indices* and gather
//!   flat column buffers; no per-row `Vec` clones.
//! * **Deterministic parallel fan-out** — forest trees (and boosting's
//!   per-stage ensemble updates) run through
//!   `scope_cloudsim::parallel_map`: chunked by index, merged in index
//!   order, bit-for-bit identical for any thread count.
//! * **Bounded k-NN selection** — queries keep a max-heap of the k best
//!   neighbours instead of fully sorting all training distances.
//!
//! That fan-out module is re-exported as [`parallel`]: this crate already
//! sits on `scope-cloudsim` for it, so the crates above (`scope-compredict`
//! fans its ground-truth compression out over the samples) reach the one
//! deterministic fan-out through `scope_learn::parallel` without a Cargo
//! edge of their own.
//!
//! # The reference-oracle pattern
//!
//! The seed-shaped implementations (per-node sorts, clone-based bootstraps,
//! sequential loops, full k-NN sorts) are preserved in [`reference`]. Both
//! families score splits through the *same* code in [`tree`], so the fast
//! path is bit-for-bit equal to the reference by construction — tree
//! structures, forest votes, boosting predictions and k-NN regressions are
//! pinned against the oracles on randomized instances in
//! `tests/differential_learn.rs`. The shared scorer itself is checked
//! against the seed's two-pass formulas (`reference::fit_*_seed`) in
//! `crates/learn/tests/differential_seed_oracles.rs`.

#![warn(missing_docs)]

pub mod boosting;
pub mod data;
pub mod error;
pub mod forest;
pub mod knn;
pub mod linear;
pub mod metrics;
pub mod mlp;
pub mod reference;
pub mod tree;

pub use boosting::GradientBoostingRegressor;
pub use data::{train_test_split, ColumnMatrix, Dataset, Standardizer};
pub use error::LearnError;
pub use forest::{RandomForestClassifier, RandomForestRegressor};
pub use knn::KnnRegressor;
pub use linear::RidgeRegression;
pub use metrics::{
    confusion_matrix, f1_score, mae, mape, precision, r2_score, recall, ConfusionMatrix,
};
pub use mlp::MlpRegressor;
pub use scope_cloudsim::parallel;
pub use tree::{DecisionTreeClassifier, DecisionTreeRegressor};

/// A trained regression model mapping a feature vector to a real value.
pub trait Regressor {
    /// Predict the target for a single feature vector.
    fn predict_one(&self, features: &[f64]) -> f64;

    /// Predict targets for a batch of feature vectors.
    fn predict(&self, features: &[Vec<f64>]) -> Vec<f64> {
        features.iter().map(|f| self.predict_one(f)).collect()
    }

    /// Predict targets for a batch stored column-major. Always equal to
    /// mapping [`Regressor::predict_one`] over the rows; models override it
    /// with allocation-free (and, for forests, parallel) walks.
    fn predict_columns(&self, features: &ColumnMatrix) -> Vec<f64> {
        let mut buf = Vec::with_capacity(features.n_cols());
        (0..features.n_rows())
            .map(|r| {
                features.row_to(r, &mut buf);
                self.predict_one(&buf)
            })
            .collect()
    }
}

/// A trained classifier mapping a feature vector to a class label.
pub trait Classifier {
    /// Predict the class label for a single feature vector.
    fn predict_one(&self, features: &[f64]) -> usize;

    /// Predict labels for a batch of feature vectors.
    fn predict(&self, features: &[Vec<f64>]) -> Vec<usize> {
        features.iter().map(|f| self.predict_one(f)).collect()
    }

    /// Predict labels for a batch stored column-major. Always equal to
    /// mapping [`Classifier::predict_one`] over the rows; models override
    /// it with allocation-free (and, for forests, parallel) walks.
    fn predict_columns(&self, features: &ColumnMatrix) -> Vec<usize> {
        let mut buf = Vec::with_capacity(features.n_cols());
        (0..features.n_rows())
            .map(|r| {
                features.row_to(r, &mut buf);
                self.predict_one(&buf)
            })
            .collect()
    }
}

/// The trivial "Averaging" baseline of Tables VI–VIII: always predicts the
/// mean of the training targets.
#[derive(Debug, Clone)]
pub struct MeanRegressor {
    mean: f64,
}

impl MeanRegressor {
    /// Fit by computing the mean of `targets`.
    pub fn fit(targets: &[f64]) -> Result<Self, LearnError> {
        if targets.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;
        Ok(MeanRegressor { mean })
    }

    /// The constant value this model predicts.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Regressor for MeanRegressor {
    fn predict_one(&self, _features: &[f64]) -> f64 {
        self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_regressor_predicts_training_mean() {
        let m = MeanRegressor::fit(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m.predict_one(&[100.0, -5.0]), 2.5);
        assert_eq!(m.mean(), 2.5);
        assert_eq!(m.predict(&[vec![0.0], vec![1.0]]), vec![2.5, 2.5]);
    }

    #[test]
    fn mean_regressor_rejects_empty_targets() {
        assert!(MeanRegressor::fit(&[]).is_err());
    }
}
