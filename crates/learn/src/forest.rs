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
//!
//! Before the fan-out the forest ranks every column of the matrix once
//! (one sort per column; equal values, `-0.0 == 0.0` included, share a
//! dense rank). A tree then orders each feature's bootstrap positions by a
//! stable counting sort on the ranks of the rows they draw, instead of
//! sorting values. The matrix refuses NaN, so values form a total preorder
//! and (rank, position) is exactly the (value, position) order the
//! reference's per-node sort produces: trees, leaves and votes are the
//! same. Both forests share that body (`fit_trees`); they differ only in
//! the criterion and the per-tree builder.
//!
//! Prediction walks one row at a time: the [`Regressor`] and
//! [`Classifier`] batch methods are the traits' own, through
//! `predict_one`. A row-parallel batch walk was dropped after it measured
//! 1.08–1.15× the per-row loop in five rounds of six and 0.90× in the
//! sixth (4 971 rows, 60 trees, two vCPUs; 0.022–0.035 s), about 3 ms of a
//! 1.2 s batch plan.

use crate::data::ColumnMatrix;
use crate::error::LearnError;
use crate::tree::{DecisionTreeClassifier, DecisionTreeRegressor, RankTable, TreeParams};
use crate::{Classifier, Regressor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_cloudsim::parallel::{default_threads, parallel_map_with_threads};

/// Hyper-parameters for random forests. Every tree is grown with
/// [`TreeParams::default`]'s depth and split limits and considers
/// `forest_tree`'s `max_features` at each split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestParams {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Seed controlling bootstrap sampling and feature subsampling.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams {
            n_trees: 50,
            seed: 42,
        }
    }
}

/// The parameters of every tree of a forest over `width` features:
/// [`TreeParams::default`] (depth 12, the conventional split and leaf
/// minimums), considering `sqrt(width)` features per split for
/// classification and `width / 3` for regression, the conventional
/// random-forest defaults.
pub(crate) fn forest_tree(width: usize, classification: bool) -> TreeParams {
    let max_features = if classification {
        ((width as f64).sqrt().round() as usize).max(1)
    } else {
        (width / 3).max(1)
    };
    TreeParams {
        max_features: Some(max_features),
        ..TreeParams::default()
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

/// A tree type's builder for one bootstrap sample: `(cols, ranks, targets,
/// rows, params, seed)`, as `fit_bootstrap_indices` takes them.
type BootstrapFit<T> = fn(&ColumnMatrix, &RankTable, &[f64], &[u32], TreeParams, u64) -> T;

/// The one forest body: validate, default `max_features` for the
/// criterion (`classification`: Gini), draw every bootstrap plan, rank the
/// columns once, and fan the per-tree builds out over `threads` workers.
/// `fit_tree` is the tree type's bootstrap builder.
fn fit_trees<T: Send>(
    cols: &ColumnMatrix,
    targets: &[f64],
    params: ForestParams,
    classification: bool,
    threads: usize,
    fit_tree: BootstrapFit<T>,
) -> Result<Vec<T>, LearnError> {
    if params.n_trees == 0 {
        return Err(LearnError::InvalidHyperParameter("n_trees must be > 0"));
    }
    cols.check_targets(targets.len())?;
    let tree_params = forest_tree(cols.n_cols(), classification);
    let plans = bootstrap_plans(params.n_trees, cols.n_rows(), params.seed);
    let ranks = RankTable::new(cols);
    Ok(parallel_map_with_threads(
        &plans,
        threads,
        |_, (rows, tree_seed)| fit_tree(cols, &ranks, targets, rows, tree_params, *tree_seed),
    ))
}

/// Random forest regressor (average of tree predictions).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestRegressor {
    trees: Vec<DecisionTreeRegressor>,
}

impl RandomForestRegressor {
    /// Fit on a shared column-major matrix.
    pub fn fit_columns(
        cols: &ColumnMatrix,
        targets: &[f64],
        params: ForestParams,
    ) -> Result<Self, LearnError> {
        Self::fit_columns_with_threads(cols, targets, params, default_threads())
    }

    /// [`RandomForestRegressor::fit_columns`] with an explicit worker-thread
    /// count (1 = plain sequential loop). The thread count never changes
    /// the fitted model, only wall-clock time.
    pub fn fit_columns_with_threads(
        cols: &ColumnMatrix,
        targets: &[f64],
        params: ForestParams,
        threads: usize,
    ) -> Result<Self, LearnError> {
        let trees = fit_trees(
            cols,
            targets,
            params,
            false,
            threads,
            DecisionTreeRegressor::fit_bootstrap_indices,
        )?;
        Ok(RandomForestRegressor { trees })
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
}

/// Random forest classifier (majority vote).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTreeClassifier>,
    n_classes: usize,
}

impl RandomForestClassifier {
    /// Fit on a shared column-major matrix.
    pub fn fit_columns(
        cols: &ColumnMatrix,
        labels: &[usize],
        params: ForestParams,
    ) -> Result<Self, LearnError> {
        Self::fit_columns_with_threads(cols, labels, params, default_threads())
    }

    /// [`RandomForestClassifier::fit_columns`] with an explicit
    /// worker-thread count (1 = plain sequential loop); the model is
    /// thread-count independent.
    pub fn fit_columns_with_threads(
        cols: &ColumnMatrix,
        labels: &[usize],
        params: ForestParams,
        threads: usize,
    ) -> Result<Self, LearnError> {
        let targets: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
        let trees = fit_trees(
            cols,
            &targets,
            params,
            true,
            threads,
            DecisionTreeClassifier::fit_bootstrap_indices,
        )?;
        let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
        Ok(RandomForestClassifier { trees, n_classes })
    }

    /// Assemble a forest from pre-built trees (reference builders).
    pub(crate) fn from_parts(trees: Vec<DecisionTreeClassifier>, n_classes: usize) -> Self {
        RandomForestClassifier { trees, n_classes }
    }

    /// Per-class vote fractions for one feature vector (a calibrated-ish
    /// probability estimate used when a score is needed instead of a label).
    pub fn predict_proba_one(&self, features: &[f64]) -> Vec<f64> {
        let mut votes = vec![0usize; self.n_classes];
        for t in &self.trees {
            votes[t.predict_one(features).min(self.n_classes - 1)] += 1;
        }
        votes
            .into_iter()
            .map(|v| v as f64 / self.trees.len() as f64)
            .collect()
    }
}

/// Majority vote from vote fractions: the class with the highest fraction,
/// ties resolved towards the last maximal index (the historical
/// `max_by(partial_cmp)` behaviour).
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{confusion_matrix, f1_score, mae, r2_score};

    fn seeded(seed: u64) -> ForestParams {
        ForestParams {
            seed,
            ..Default::default()
        }
    }

    /// Fit from rows through [`ColumnMatrix::from_rows`], as callers do.
    fn regressor(
        f: &[Vec<f64>],
        t: &[f64],
        params: ForestParams,
    ) -> Result<RandomForestRegressor, LearnError> {
        RandomForestRegressor::fit_columns(&ColumnMatrix::from_rows(f)?, t, params)
    }

    fn classifier(
        f: &[Vec<f64>],
        labels: &[usize],
        params: ForestParams,
    ) -> Result<RandomForestClassifier, LearnError> {
        RandomForestClassifier::fit_columns(&ColumnMatrix::from_rows(f)?, labels, params)
    }

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
        let forest = regressor(&f, &t, seeded(1)).unwrap();
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
        let a = regressor(&f, &t, seeded(9)).unwrap();
        let b = regressor(&f, &t, seeded(9)).unwrap();
        let xs = vec![0.3, 0.4, 0.5, 0.6];
        assert_eq!(a.predict_one(&xs), b.predict_one(&xs));
        assert_eq!(a, b);
    }

    #[test]
    fn forest_is_thread_count_independent() {
        // The fan-out must never change the fitted model: 1 worker (the
        // sequential loop) and many workers produce identical trees.
        let (f, t) = friedman_like(120, 8);
        let cols = ColumnMatrix::from_rows(&f).unwrap();
        let sequential =
            RandomForestRegressor::fit_columns_with_threads(&cols, &t, ForestParams::default(), 1)
                .unwrap();
        for threads in [2, 3, 5, 8] {
            let parallel = RandomForestRegressor::fit_columns_with_threads(
                &cols,
                &t,
                ForestParams::default(),
                threads,
            )
            .unwrap();
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
        let labels: Vec<usize> = t.iter().map(|&y| usize::from(y > 14.0)).collect();
        let c_seq = RandomForestClassifier::fit_columns_with_threads(
            &cols,
            &labels,
            ForestParams::default(),
            1,
        )
        .unwrap();
        let c_par = RandomForestClassifier::fit_columns_with_threads(
            &cols,
            &labels,
            ForestParams::default(),
            7,
        )
        .unwrap();
        assert_eq!(c_seq, c_par);
    }

    #[test]
    fn batched_prediction_equals_scalar_prediction() {
        let (f, t) = friedman_like(150, 21);
        let forest = regressor(&f, &t, seeded(4)).unwrap();
        let cols = crate::data::ColumnMatrix::from_rows(&f).unwrap();
        let batched = forest.predict_columns(&cols);
        for (row, &b) in f.iter().zip(&batched) {
            assert_eq!(forest.predict_one(row).to_bits(), b.to_bits());
        }
        let labels: Vec<usize> = t.iter().map(|&y| usize::from(y > 14.0)).collect();
        let clf = classifier(&f, &labels, seeded(4)).unwrap();
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
        let clf = classifier(&f, &labels, seeded(2)).unwrap();
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
        let clf = classifier(&f, &labels, seeded(3)).unwrap();
        let p = clf.predict_proba_one(&[0.9, 0.1, 0.1, 0.1]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn a_nan_feature_is_refused_with_its_cell() {
        // 3 columns, about 15% NaN cells. A NaN has no place in a sort by
        // value (the std sort panics on the comparator it makes), so every
        // fit refuses the first one, and the oracles name the same cell.
        let (mut f, t) = friedman_like(200, 17);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for row in &mut f {
            row.truncate(3);
            for v in row.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if (state >> 33) % 100 < 15 {
                    *v = f64::NAN;
                }
            }
        }
        let (row, column) = f
            .iter()
            .enumerate()
            .find_map(|(r, x)| x.iter().position(|v| v.is_nan()).map(|c| (r, c)))
            .unwrap();
        let expected = Some(LearnError::NanFeature { row, column });
        let params = ForestParams {
            n_trees: 8,
            ..Default::default()
        };
        let labels: Vec<usize> = t.iter().map(|&y| usize::from(y > 14.0)).collect();
        assert_eq!(regressor(&f, &t, params).err(), expected);
        assert_eq!(
            crate::reference::fit_forest_regressor_reference(&f, &t, params).err(),
            expected
        );
        assert_eq!(classifier(&f, &labels, params).err(), expected);
        assert_eq!(
            crate::reference::fit_forest_classifier_reference(&f, &labels, params).err(),
            expected
        );
        assert_eq!(
            DecisionTreeRegressor::fit_seeded(&f, &t, TreeParams::default(), 0x5EED).err(),
            expected
        );
        assert_eq!(
            crate::reference::fit_tree_regressor_reference(&f, &t, TreeParams::default(), 0x5EED)
                .err(),
            expected
        );
        assert_eq!(
            ColumnMatrix::from_rows(&f)
                .and_then(|cols| crate::GradientBoostingRegressor::fit_columns(
                    &cols,
                    &t,
                    crate::boosting::BoostingParams::default()
                ))
                .err(),
            expected
        );
        assert_eq!(ColumnMatrix::from_rows(&f).err(), expected);
    }

    #[test]
    fn zero_trees_rejected() {
        let params = ForestParams {
            n_trees: 0,
            ..Default::default()
        };
        assert!(regressor(&[vec![1.0]], &[1.0], params).is_err());
        assert!(classifier(&[vec![1.0]], &[0], params).is_err());
    }

    #[test]
    fn mismatched_labels_rejected() {
        assert!(classifier(&[vec![1.0]], &[0, 1], seeded(1)).is_err());
        assert!(regressor(&[], &[], seeded(1)).is_err());
    }
}
