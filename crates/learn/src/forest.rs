//! Random forests: bagged ensembles of CART trees.
//!
//! The paper finds the Random Forest to be the best-performing model both
//! for the compression predictor (Tables VI–VIII) and the tier predictor
//! (Table III, F1 > 0.96). The implementation here uses bootstrap sampling
//! and per-split feature subsampling, with deterministic seeding so that
//! experiment outputs are reproducible.
//!
//! Training is the fast path: bootstraps are drawn **by index** from a
//! shared [`ColumnMatrix`] (no row clones), all bootstrap plans are drawn
//! up-front from the single seeded RNG stream (so the sample of tree `i` is
//! identical to the sequential seed implementation's), and the expensive
//! tree builds fan out over
//! [`scope_cloudsim::parallel_map`] — whichever thread is free claims the
//! next few trees, and results merge in index order, so the fitted forest
//! is bit-for-bit identical for any thread count and to the sequential
//! [`crate::reference`] oracle.

use crate::data::ColumnMatrix;
use crate::error::LearnError;
use crate::tree::{DecisionTreeClassifier, DecisionTreeRegressor, TreeParams};
use crate::{Classifier, Regressor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_cloudsim::parallel::{default_threads, parallel_map, parallel_map_with_threads};

/// Hyper-parameters for random forests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Per-tree parameters. If `max_features` is `None` it is defaulted to
    /// `sqrt(width)` for classification and `width / 3` for regression, the
    /// conventional random-forest defaults.
    pub tree: TreeParams,
    /// Seed controlling bootstrap sampling and feature subsampling.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 50,
            tree: TreeParams::default(),
            seed: 42,
        }
    }
}

pub(crate) fn default_max_features(width: usize, classification: bool) -> usize {
    if classification {
        ((width as f64).sqrt().round() as usize).max(1)
    } else {
        (width / 3).max(1)
    }
}

/// Draw every tree's bootstrap rows and subsampling seed from the single
/// sequential RNG stream (exactly the draws the seed implementation made),
/// so the expensive builds can then fan out in any order.
fn bootstrap_plans(n_trees: usize, n: usize, seed: u64) -> Vec<(Vec<u32>, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_trees)
        .map(|_| {
            let rows: Vec<u32> = (0..n).map(|_| rng.gen_range(0..n) as u32).collect();
            let tree_seed: u64 = rng.gen();
            (rows, tree_seed)
        })
        .collect()
}

/// Random forest regressor (average of tree predictions).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestRegressor {
    trees: Vec<DecisionTreeRegressor>,
}

impl RandomForestRegressor {
    /// Fit a forest with the given parameters.
    pub fn fit(
        features: &[Vec<f64>],
        targets: &[f64],
        params: ForestParams,
    ) -> Result<Self, LearnError> {
        Self::fit_with_threads(features, targets, params, default_threads())
    }

    /// [`RandomForestRegressor::fit`] with an explicit worker-thread count
    /// (1 = plain sequential loop). The thread count never changes the
    /// fitted model, only wall-clock time.
    pub fn fit_with_threads(
        features: &[Vec<f64>],
        targets: &[f64],
        params: ForestParams,
        threads: usize,
    ) -> Result<Self, LearnError> {
        if features.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        let cols = ColumnMatrix::from_rows(features)?;
        Self::fit_columns_with_threads(&cols, targets, params, threads)
    }

    /// Fit on a shared column-major matrix.
    pub fn fit_columns(
        cols: &ColumnMatrix,
        targets: &[f64],
        params: ForestParams,
    ) -> Result<Self, LearnError> {
        Self::fit_columns_with_threads(cols, targets, params, default_threads())
    }

    /// [`RandomForestRegressor::fit_columns`] with an explicit thread count.
    pub fn fit_columns_with_threads(
        cols: &ColumnMatrix,
        targets: &[f64],
        params: ForestParams,
        threads: usize,
    ) -> Result<Self, LearnError> {
        if params.n_trees == 0 {
            return Err(LearnError::InvalidHyperParameter("n_trees must be > 0"));
        }
        if cols.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        if cols.n_rows() != targets.len() {
            return Err(LearnError::LengthMismatch {
                features: cols.n_rows(),
                targets: targets.len(),
            });
        }
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            tree_params.max_features = Some(default_max_features(cols.n_cols(), false));
        }
        let plans = bootstrap_plans(params.n_trees, cols.n_rows(), params.seed);
        let trees = parallel_map_with_threads(&plans, threads, |_, (rows, tree_seed)| {
            DecisionTreeRegressor::fit_bootstrap_indices(
                cols,
                targets,
                rows,
                tree_params,
                *tree_seed,
            )
        });
        Ok(RandomForestRegressor { trees })
    }

    /// Fit with default parameters and the given seed.
    pub fn fit_default(
        features: &[Vec<f64>],
        targets: &[f64],
        seed: u64,
    ) -> Result<Self, LearnError> {
        Self::fit(
            features,
            targets,
            ForestParams {
                seed,
                ..Default::default()
            },
        )
    }

    /// Assemble a forest from pre-built trees (reference builders).
    pub(crate) fn from_trees(trees: Vec<DecisionTreeRegressor>) -> Self {
        RandomForestRegressor { trees }
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Regressor for RandomForestRegressor {
    fn predict_one(&self, features: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_one(features)).sum();
        sum / self.trees.len() as f64
    }

    fn predict_columns(&self, features: &ColumnMatrix) -> Vec<f64> {
        if default_threads() == 1 {
            // No parallelism available: a reused row buffer beats per-node
            // strided column reads.
            let mut buf = Vec::with_capacity(features.n_cols());
            return (0..features.n_rows())
                .map(|r| {
                    features.row_to(r, &mut buf);
                    self.predict_one(&buf)
                })
                .collect();
        }
        let rows: Vec<u32> = (0..features.n_rows() as u32).collect();
        parallel_map(&rows, |_, &r| {
            let get = |f: usize| features.value(r as usize, f);
            let sum: f64 = self.trees.iter().map(|t| t.root().predict_by(&get)).sum();
            sum / self.trees.len() as f64
        })
    }
}

/// Random forest classifier (majority vote).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Fit a forest classifier with the given parameters.
    pub fn fit(
        features: &[Vec<f64>],
        labels: &[usize],
        params: ForestParams,
    ) -> Result<Self, LearnError> {
        Self::fit_with_threads(features, labels, params, default_threads())
    }

    /// [`RandomForestClassifier::fit`] with an explicit worker-thread count
    /// (1 = plain sequential loop); the model is thread-count independent.
    pub fn fit_with_threads(
        features: &[Vec<f64>],
        labels: &[usize],
        params: ForestParams,
        threads: usize,
    ) -> Result<Self, LearnError> {
        if features.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        let cols = ColumnMatrix::from_rows(features)?;
        Self::fit_columns_with_threads(&cols, labels, params, threads)
    }

    /// Fit on a shared column-major matrix.
    pub fn fit_columns(
        cols: &ColumnMatrix,
        labels: &[usize],
        params: ForestParams,
    ) -> Result<Self, LearnError> {
        Self::fit_columns_with_threads(cols, labels, params, default_threads())
    }

    /// [`RandomForestClassifier::fit_columns`] with an explicit thread count.
    pub fn fit_columns_with_threads(
        cols: &ColumnMatrix,
        labels: &[usize],
        params: ForestParams,
        threads: usize,
    ) -> Result<Self, LearnError> {
        if params.n_trees == 0 {
            return Err(LearnError::InvalidHyperParameter("n_trees must be > 0"));
        }
        if cols.is_empty() {
            return Err(LearnError::EmptyTrainingSet);
        }
        if cols.n_rows() != labels.len() {
            return Err(LearnError::LengthMismatch {
                features: cols.n_rows(),
                targets: labels.len(),
            });
        }
        let mut tree_params = params.tree;
        if tree_params.max_features.is_none() {
            tree_params.max_features = Some(default_max_features(cols.n_cols(), true));
        }
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        let targets: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
        let plans = bootstrap_plans(params.n_trees, cols.n_rows(), params.seed);
        let trees = parallel_map_with_threads(&plans, threads, |_, (rows, tree_seed)| {
            DecisionTreeClassifier::fit_bootstrap_indices(
                cols,
                &targets,
                rows,
                tree_params,
                *tree_seed,
            )
        });
        Ok(RandomForestClassifier { trees, n_classes })
    }

    /// Fit with default parameters and the given seed.
    pub fn fit_default(
        features: &[Vec<f64>],
        labels: &[usize],
        seed: u64,
    ) -> Result<Self, LearnError> {
        Self::fit(
            features,
            labels,
            ForestParams {
                seed,
                ..Default::default()
            },
        )
    }

    /// Assemble a forest from pre-built trees (reference builders).
    pub(crate) fn from_parts(trees: Vec<DecisionTreeClassifier>, n_classes: usize) -> Self {
        RandomForestClassifier { trees, n_classes }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Per-class vote fractions via a feature getter.
    fn proba_by(&self, get: &impl Fn(usize) -> f64) -> Vec<f64> {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            let c = (t.root().predict_by(get).round().max(0.0) as usize).min(self.n_classes - 1);
            votes[c] += 1;
        }
        votes
            .into_iter()
            .map(|v| v as f64 / self.trees.len() as f64)
            .collect()
    }

    /// Per-class vote fractions for one feature vector (a calibrated-ish
    /// probability estimate used when a score is needed instead of a label).
    pub fn predict_proba_one(&self, features: &[f64]) -> Vec<f64> {
        self.proba_by(&|f| features.get(f).copied().unwrap_or(0.0))
    }
}

/// Majority vote from vote fractions: the class with the highest fraction,
/// ties resolved towards the last maximal index (the historical
/// `max_by(partial_cmp)` behaviour, kept so batched prediction matches
/// [`Classifier::predict_one`] bit-for-bit).
fn vote_argmax(proba: &[f64]) -> usize {
    proba
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

impl Classifier for RandomForestClassifier {
    fn predict_one(&self, features: &[f64]) -> usize {
        vote_argmax(&self.predict_proba_one(features))
    }

    fn predict_columns(&self, features: &ColumnMatrix) -> Vec<usize> {
        if default_threads() == 1 {
            let mut buf = Vec::with_capacity(features.n_cols());
            return (0..features.n_rows())
                .map(|r| {
                    features.row_to(r, &mut buf);
                    self.predict_one(&buf)
                })
                .collect();
        }
        let rows: Vec<u32> = (0..features.n_rows() as u32).collect();
        parallel_map(&rows, |_, &r| {
            vote_argmax(&self.proba_by(&|f| features.value(r as usize, f)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{confusion_matrix, f1_score, mae, r2_score};

    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Smooth nonlinear target; deterministic pseudo-random features.
        let mut state = seed | 1;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut features = Vec::with_capacity(n);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..4).map(|_| next()).collect();
            let y = 10.0 * (std::f64::consts::PI * x[0] * x[1]).sin()
                + 20.0 * (x[2] - 0.5).powi(2)
                + 10.0 * x[3];
            features.push(x);
            targets.push(y);
        }
        (features, targets)
    }

    #[test]
    fn forest_regressor_beats_mean_baseline() {
        let (f, t) = friedman_like(300, 3);
        let (ft, tt) = friedman_like(100, 77);
        let forest = RandomForestRegressor::fit_default(&f, &t, 1).unwrap();
        let preds: Vec<f64> = ft.iter().map(|x| forest.predict_one(x)).collect();
        let mean = t.iter().sum::<f64>() / t.len() as f64;
        let mean_preds = vec![mean; tt.len()];
        assert!(mae(&tt, &preds) < mae(&tt, &mean_preds));
        assert!(
            r2_score(&tt, &preds) > 0.5,
            "r2 = {}",
            r2_score(&tt, &preds)
        );
    }

    #[test]
    fn forest_is_deterministic_for_a_seed() {
        let (f, t) = friedman_like(100, 5);
        let a = RandomForestRegressor::fit_default(&f, &t, 9).unwrap();
        let b = RandomForestRegressor::fit_default(&f, &t, 9).unwrap();
        let xs = vec![0.3, 0.4, 0.5, 0.6];
        assert_eq!(a.predict_one(&xs), b.predict_one(&xs));
        assert_eq!(a, b);
    }

    #[test]
    fn forest_is_thread_count_independent() {
        // The fan-out must never change the fitted model: 1 worker (the
        // sequential loop) and many workers produce identical trees.
        let (f, t) = friedman_like(120, 8);
        let sequential =
            RandomForestRegressor::fit_with_threads(&f, &t, ForestParams::default(), 1).unwrap();
        for threads in [2, 3, 5, 8] {
            let parallel =
                RandomForestRegressor::fit_with_threads(&f, &t, ForestParams::default(), threads)
                    .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
        let labels: Vec<usize> = t.iter().map(|&y| usize::from(y > 14.0)).collect();
        let c_seq =
            RandomForestClassifier::fit_with_threads(&f, &labels, ForestParams::default(), 1)
                .unwrap();
        let c_par =
            RandomForestClassifier::fit_with_threads(&f, &labels, ForestParams::default(), 7)
                .unwrap();
        assert_eq!(c_seq, c_par);
    }

    #[test]
    fn batched_prediction_equals_scalar_prediction() {
        let (f, t) = friedman_like(150, 21);
        let forest = RandomForestRegressor::fit_default(&f, &t, 4).unwrap();
        let cols = crate::data::ColumnMatrix::from_rows(&f).unwrap();
        let batched = forest.predict_columns(&cols);
        for (row, &b) in f.iter().zip(&batched) {
            assert_eq!(forest.predict_one(row).to_bits(), b.to_bits());
        }
        let labels: Vec<usize> = t.iter().map(|&y| usize::from(y > 14.0)).collect();
        let clf = RandomForestClassifier::fit_default(&f, &labels, 4).unwrap();
        let batched = clf.predict_columns(&cols);
        for (row, &b) in f.iter().zip(&batched) {
            assert_eq!(Classifier::predict_one(&clf, row), b);
        }
    }

    #[test]
    fn forest_classifier_learns_threshold_rule() {
        // Label is 1 when x0 + x1 > 1.0 — mimics the "hot if enough accesses"
        // structure of the tier predictor.
        let (f, _) = friedman_like(400, 11);
        let labels: Vec<usize> = f.iter().map(|x| usize::from(x[0] + x[1] > 1.0)).collect();
        let clf = RandomForestClassifier::fit_default(&f, &labels, 2).unwrap();
        let (ftest, _) = friedman_like(200, 99);
        let truth: Vec<usize> = ftest
            .iter()
            .map(|x| usize::from(x[0] + x[1] > 1.0))
            .collect();
        let preds = Classifier::predict(&clf, &ftest);
        let cm = confusion_matrix(&truth, &preds, 2);
        assert!(cm.accuracy() > 0.85, "accuracy = {}", cm.accuracy());
        assert!(f1_score(&cm, 1) > 0.8);
    }

    #[test]
    fn predict_proba_sums_to_one() {
        let (f, _) = friedman_like(100, 13);
        let labels: Vec<usize> = f.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        let clf = RandomForestClassifier::fit_default(&f, &labels, 3).unwrap();
        let p = clf.predict_proba_one(&[0.9, 0.1, 0.1, 0.1]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_trees_rejected() {
        let params = ForestParams {
            n_trees: 0,
            ..Default::default()
        };
        assert!(RandomForestRegressor::fit(&[vec![1.0]], &[1.0], params).is_err());
        assert!(RandomForestClassifier::fit(&[vec![1.0]], &[0], params).is_err());
    }

    #[test]
    fn mismatched_labels_rejected() {
        assert!(RandomForestClassifier::fit_default(&[vec![1.0]], &[0, 1], 1).is_err());
        assert!(RandomForestRegressor::fit_default(&[], &[], 1).is_err());
    }
}
