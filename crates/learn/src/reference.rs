//! The historical **seed-shaped** training paths, preserved as differential
//! oracles and benchmark baselines.
//!
//! These are *not* the production entry points — [`crate::tree`],
//! [`crate::forest`] and [`crate::boosting`] train through the rank-ordered
//! fast path (one rank table per fit, index-based bagging, deterministic
//! parallel fan-out). The reference paths keep the seed implementation's
//! *structure*:
//!
//! * the CART builder re-sorts the candidate feature's index set **per
//!   node** with a stable `sort_by`,
//! * bootstrap samples **clone whole feature rows** into fresh row-major
//!   matrices,
//! * forests and boosting stages train **sequentially**, drawing from one
//!   RNG stream,
//! * k-NN queries **fully sort** all training distances.
//!
//! Split scoring is shared with the fast path
//! (`crate::tree::SplitScan` / `crate::tree::best_split_scan`): every
//! floating-point operation that decides a split, a leaf value or a vote is
//! defined exactly once, so the two families are bit-for-bit identical by
//! construction. `tests/differential_learn.rs` pins that equality (tree
//! structures, forest votes, boosting predictions, k-NN regressions) on
//! randomized instances.
//!
//! The three `fit_*_seed` functions at the end are a different kind of
//! oracle: they score splits the seed's own two-pass way and share no
//! `SplitScan` with the fast path, so they are the only check of the
//! shared scorer itself. `crates/learn/tests/differential_seed_oracles.rs`
//! pins the fast path against them.

use crate::boosting::{BoostingParams, LEARNING_RATE, STAGE_TREE};
use crate::data::check_no_nan;
use crate::error::LearnError;
use crate::forest::{forest_tree, ForestParams};
use crate::knn::KnnWeighting;
use crate::tree::{
    best_split_scan, validate, Criterion, Node, SplitScan, SubsampleRng, TreeParams,
};
use crate::{
    DecisionTreeClassifier, DecisionTreeRegressor, GradientBoostingRegressor, KnnRegressor,
    RandomForestClassifier, RandomForestRegressor, Regressor,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The seed-shaped CART builder: per-node index copies and stable re-sorts,
/// scoring through the shared [`SplitScan`].
struct RefBuilder<'a> {
    features: &'a [Vec<f64>],
    targets: &'a [f64],
    params: TreeParams,
    scan: SplitScan,
    rng: SubsampleRng,
    cand: Vec<usize>,
}

impl RefBuilder<'_> {
    fn build(&mut self, idx: &[usize], depth: usize) -> Node {
        self.scan.reset_node();
        for &i in idx {
            self.scan.add_node_sample(self.targets[i]);
        }
        if depth >= self.params.max_depth
            || idx.len() < self.params.min_samples_split
            || idx.len() < 2 * self.params.min_samples_leaf
        {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        let parent_impurity = self.scan.node_impurity();
        if parent_impurity <= 1e-12 {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        let width = self.features[0].len();
        self.rng
            .candidate_features(width, self.params.max_features, &mut self.cand);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let mut sorted_idx = idx.to_vec();
        for ci in 0..self.cand.len() {
            let feat = self.cand[ci];
            let features = self.features;
            // The per-node stable sort the fast path replaces with one
            // rank-ordered pass per tree. Each feature sorts from the node's idx
            // order, so equal values tie in ascending sample order — the
            // seed reused the previous feature's buffer, leaking that
            // feature's order into the ties (i.e. tie order depended on the
            // candidate iteration order); both paths now canonicalize it.
            sorted_idx.copy_from_slice(idx);
            sorted_idx.sort_by(|&a, &b| {
                features[a][feat]
                    .partial_cmp(&features[b][feat])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let targets = self.targets;
            if let Some((threshold, score)) = best_split_scan(
                &mut self.scan,
                idx.len(),
                self.params.min_samples_leaf,
                sorted_idx.iter().map(|&i| (features[i][feat], targets[i])),
            ) {
                if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                    best = Some((feat, threshold, score));
                }
            }
        }

        let Some((feature, threshold, score)) = best else {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        };
        if score >= parent_impurity - 1e-12 {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&i| self.features[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return Node::Leaf {
                value: self.scan.leaf_value(),
            };
        }
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(&left_idx, depth + 1)),
            right: Box::new(self.build(&right_idx, depth + 1)),
        }
    }
}

/// [`DecisionTreeRegressor::fit_seeded`] through the seed-shaped builder.
pub fn fit_tree_regressor_reference(
    features: &[Vec<f64>],
    targets: &[f64],
    params: TreeParams,
    seed: u64,
) -> Result<DecisionTreeRegressor, LearnError> {
    validate(features, targets)?;
    let mut builder = RefBuilder {
        features,
        targets,
        params,
        scan: SplitScan::new(Criterion::Variance, 0),
        rng: SubsampleRng::new(seed),
        cand: Vec::new(),
    };
    let idx: Vec<usize> = (0..features.len()).collect();
    let root = builder.build(&idx, 0);
    Ok(DecisionTreeRegressor::from_parts(root, params))
}

/// [`DecisionTreeClassifier::fit_seeded`] through the seed-shaped builder.
pub fn fit_tree_classifier_reference(
    features: &[Vec<f64>],
    labels: &[usize],
    params: TreeParams,
    seed: u64,
) -> Result<DecisionTreeClassifier, LearnError> {
    let targets: Vec<f64> = labels.iter().map(|&l| l as f64).collect();
    validate(features, &targets)?;
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut builder = RefBuilder {
        features,
        targets: &targets,
        params,
        scan: SplitScan::new(Criterion::Gini, n_classes),
        rng: SubsampleRng::new(seed),
        cand: Vec::new(),
    };
    let idx: Vec<usize> = (0..features.len()).collect();
    let root = builder.build(&idx, 0);
    Ok(DecisionTreeClassifier::from_parts(root, n_classes))
}

/// [`RandomForestRegressor::fit_columns`] the seed way: sequential trees, each on a
/// bootstrap that clones whole feature rows.
pub fn fit_forest_regressor_reference(
    features: &[Vec<f64>],
    targets: &[f64],
    params: ForestParams,
) -> Result<RandomForestRegressor, LearnError> {
    if params.n_trees == 0 {
        return Err(LearnError::InvalidHyperParameter("n_trees must be > 0"));
    }
    if features.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    // A bootstrap may miss a NaN row, so the whole set is checked first,
    // naming the same cell as the fast path's `ColumnMatrix::from_rows`.
    check_no_nan(features)?;
    let width = features[0].len();
    let tree_params = forest_tree(width, false);
    let n = features.len();
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut trees = Vec::with_capacity(params.n_trees);
    for _ in 0..params.n_trees {
        let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        // The per-row clones the fast path's index-based bagging avoids.
        let boot_features: Vec<Vec<f64>> = idx.iter().map(|&i| features[i].clone()).collect();
        let boot_targets: Vec<f64> = idx.iter().map(|&i| targets[i]).collect();
        trees.push(fit_tree_regressor_reference(
            &boot_features,
            &boot_targets,
            tree_params,
            rng.gen(),
        )?);
    }
    Ok(RandomForestRegressor::from_trees(trees))
}

/// [`RandomForestClassifier::fit_columns`] the seed way (sequential, clone-based
/// bootstraps).
pub fn fit_forest_classifier_reference(
    features: &[Vec<f64>],
    labels: &[usize],
    params: ForestParams,
) -> Result<RandomForestClassifier, LearnError> {
    if params.n_trees == 0 {
        return Err(LearnError::InvalidHyperParameter("n_trees must be > 0"));
    }
    if features.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    if features.len() != labels.len() {
        return Err(LearnError::LengthMismatch {
            features: features.len(),
            targets: labels.len(),
        });
    }
    check_no_nan(features)?;
    let width = features[0].len();
    let tree_params = forest_tree(width, true);
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    let n = features.len();
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut trees = Vec::with_capacity(params.n_trees);
    for _ in 0..params.n_trees {
        let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let boot_features: Vec<Vec<f64>> = idx.iter().map(|&i| features[i].clone()).collect();
        let boot_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
        trees.push(fit_tree_classifier_reference(
            &boot_features,
            &boot_labels,
            tree_params,
            rng.gen(),
        )?);
    }
    Ok(RandomForestClassifier::from_parts(trees, n_classes))
}

/// [`GradientBoostingRegressor::fit_columns`] the seed way: every stage re-sorts
/// from scratch inside the tree builder and the ensemble update walks rows
/// sequentially.
pub fn fit_boosting_reference(
    features: &[Vec<f64>],
    targets: &[f64],
    params: BoostingParams,
) -> Result<GradientBoostingRegressor, LearnError> {
    if params.n_estimators == 0 {
        return Err(LearnError::InvalidHyperParameter(
            "n_estimators must be > 0",
        ));
    }
    if features.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    if features.len() != targets.len() {
        return Err(LearnError::LengthMismatch {
            features: features.len(),
            targets: targets.len(),
        });
    }
    let base_prediction = targets.iter().sum::<f64>() / targets.len() as f64;
    let mut current: Vec<f64> = vec![base_prediction; targets.len()];
    let mut stages = Vec::with_capacity(params.n_estimators);
    for stage_idx in 0..params.n_estimators {
        let residuals: Vec<f64> = targets.iter().zip(&current).map(|(t, c)| t - c).collect();
        if residuals.iter().all(|r| r.abs() < 1e-12) {
            break;
        }
        let tree =
            fit_tree_regressor_reference(features, &residuals, STAGE_TREE, stage_idx as u64 + 1)?;
        for (c, row) in current.iter_mut().zip(features) {
            *c += LEARNING_RATE * tree.predict_one(row);
        }
        stages.push(tree);
    }
    Ok(GradientBoostingRegressor::from_parts(
        base_prediction,
        stages,
    ))
}

// ---------------------------------------------------------------------------
// The *seed* scorer: the original hot loop, preserved for honest
// benchmarking.
// ---------------------------------------------------------------------------

/// Split impurity exactly as the seed computed it: a fresh two-pass scan of
/// the candidate slice **per split position** (`O(n)` per candidate,
/// `O(n · candidates)` per feature per node — the loop the scan-based
/// scoring replaced). The one seed behaviour not kept: Gini counts use an
/// ordered map instead of `HashMap`, because the seed's `Σ p²` summation
/// order followed the hash map's nondeterministic iteration order — with
/// three or more classes that made split scores (and so whole trees) vary
/// run to run. Everything else is verbatim.
fn seed_impurity(targets: &[f64], idx: &[usize], criterion: Criterion) -> f64 {
    match criterion {
        Criterion::Variance => {
            let n = idx.len() as f64;
            let mean = idx.iter().map(|&i| targets[i]).sum::<f64>() / n;
            idx.iter()
                .map(|&i| (targets[i] - mean).powi(2))
                .sum::<f64>()
        }
        Criterion::Gini => {
            let n = idx.len() as f64;
            let mut counts: std::collections::BTreeMap<i64, usize> =
                std::collections::BTreeMap::new();
            for &i in idx {
                *counts.entry(targets[i] as i64).or_insert(0) += 1;
            }
            let gini = 1.0
                - counts
                    .values()
                    .map(|&c| {
                        let p = c as f64 / n;
                        p * p
                    })
                    .sum::<f64>();
            gini * n
        }
    }
}

/// Leaf value exactly as the seed computed it (majority vote ties towards
/// the smaller label, as fixed in PR 1).
fn seed_leaf_value(targets: &[f64], idx: &[usize], criterion: Criterion) -> f64 {
    match criterion {
        Criterion::Variance => idx.iter().map(|&i| targets[i]).sum::<f64>() / idx.len() as f64,
        Criterion::Gini => {
            let mut counts: std::collections::BTreeMap<i64, usize> =
                std::collections::BTreeMap::new();
            for &i in idx {
                *counts.entry(targets[i] as i64).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(label, c)| (c, std::cmp::Reverse(label)))
                .map(|(label, _)| label as f64)
                .unwrap_or(0.0)
        }
    }
}

/// The seed CART builder, verbatim: per-node sorts of a shared index
/// buffer, two-pass impurity per candidate split.
struct SeedBuilder<'a> {
    features: &'a [Vec<f64>],
    targets: &'a [f64],
    params: TreeParams,
    criterion: Criterion,
    rng: SubsampleRng,
    cand: Vec<usize>,
}

impl SeedBuilder<'_> {
    fn build(&mut self, idx: &[usize], depth: usize) -> Node {
        let targets = self.targets;
        let criterion = self.criterion;
        let make_leaf = || Node::Leaf {
            value: seed_leaf_value(targets, idx, criterion),
        };
        if depth >= self.params.max_depth
            || idx.len() < self.params.min_samples_split
            || idx.len() < 2 * self.params.min_samples_leaf
        {
            return make_leaf();
        }
        let parent_impurity = seed_impurity(self.targets, idx, self.criterion);
        if parent_impurity <= 1e-12 {
            return make_leaf();
        }
        let width = self.features[0].len();
        self.rng
            .candidate_features(width, self.params.max_features, &mut self.cand);

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let mut sorted_idx = idx.to_vec();
        for ci in 0..self.cand.len() {
            let feat = self.cand[ci];
            let features = self.features;
            sorted_idx.sort_by(|&a, &b| {
                features[a][feat]
                    .partial_cmp(&features[b][feat])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // Scan split positions between distinct values.
            for pos in
                self.params.min_samples_leaf..=(sorted_idx.len() - self.params.min_samples_leaf)
            {
                if pos == 0 || pos == sorted_idx.len() {
                    continue;
                }
                let lo = self.features[sorted_idx[pos - 1]][feat];
                let hi = self.features[sorted_idx[pos]][feat];
                if (hi - lo).abs() <= f64::EPSILON {
                    continue;
                }
                let threshold = 0.5 * (lo + hi);
                let (left, right) = sorted_idx.split_at(pos);
                let score = seed_impurity(self.targets, left, self.criterion)
                    + seed_impurity(self.targets, right, self.criterion);
                if best.map(|(_, _, s)| score < s).unwrap_or(true) {
                    best = Some((feat, threshold, score));
                }
            }
        }

        let Some((feature, threshold, score)) = best else {
            return make_leaf();
        };
        if score >= parent_impurity - 1e-12 {
            return make_leaf();
        }
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = idx
            .iter()
            .partition(|&&i| self.features[i][feature] <= threshold);
        if left_idx.is_empty() || right_idx.is_empty() {
            return make_leaf();
        }
        Node::Split {
            feature,
            threshold,
            left: Box::new(self.build(&left_idx, depth + 1)),
            right: Box::new(self.build(&right_idx, depth + 1)),
        }
    }
}

/// The seed's `DecisionTreeRegressor::fit_seeded`, two-pass scoring and
/// all: an oracle for the split scorer that does not share `SplitScan`
/// with the fast path. Trees agree with the fast path except where two
/// candidate splits score within rounding of each other (the formulas
/// differ by float reassociation only).
pub fn fit_tree_regressor_seed(
    features: &[Vec<f64>],
    targets: &[f64],
    params: TreeParams,
    seed: u64,
) -> Result<DecisionTreeRegressor, LearnError> {
    validate(features, targets)?;
    let mut builder = SeedBuilder {
        features,
        targets,
        params,
        criterion: Criterion::Variance,
        rng: SubsampleRng::new(seed),
        cand: Vec::new(),
    };
    let idx: Vec<usize> = (0..features.len()).collect();
    let root = builder.build(&idx, 0);
    Ok(DecisionTreeRegressor::from_parts(root, params))
}

/// The seed's `RandomForestRegressor::fit`: sequential clone-bootstrap
/// trees scored the two-pass way, so independent of `SplitScan` like
/// [`fit_tree_regressor_seed`].
pub fn fit_forest_regressor_seed(
    features: &[Vec<f64>],
    targets: &[f64],
    params: ForestParams,
) -> Result<RandomForestRegressor, LearnError> {
    if params.n_trees == 0 {
        return Err(LearnError::InvalidHyperParameter("n_trees must be > 0"));
    }
    if features.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    // A bootstrap may miss a NaN row, so the whole set is checked first,
    // naming the same cell as the fast path's `ColumnMatrix::from_rows`.
    check_no_nan(features)?;
    let width = features[0].len();
    let tree_params = forest_tree(width, false);
    let n = features.len();
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut trees = Vec::with_capacity(params.n_trees);
    for _ in 0..params.n_trees {
        let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let boot_features: Vec<Vec<f64>> = idx.iter().map(|&i| features[i].clone()).collect();
        let boot_targets: Vec<f64> = idx.iter().map(|&i| targets[i]).collect();
        trees.push(fit_tree_regressor_seed(
            &boot_features,
            &boot_targets,
            tree_params,
            rng.gen(),
        )?);
    }
    Ok(RandomForestRegressor::from_trees(trees))
}

/// The seed's `RandomForestClassifier::fit` (two-pass Gini scoring,
/// clone-bootstraps, sequential), independent of `SplitScan` like
/// [`fit_tree_regressor_seed`].
pub fn fit_forest_classifier_seed(
    features: &[Vec<f64>],
    labels: &[usize],
    params: ForestParams,
) -> Result<RandomForestClassifier, LearnError> {
    if params.n_trees == 0 {
        return Err(LearnError::InvalidHyperParameter("n_trees must be > 0"));
    }
    if features.is_empty() {
        return Err(LearnError::EmptyTrainingSet);
    }
    if features.len() != labels.len() {
        return Err(LearnError::LengthMismatch {
            features: features.len(),
            targets: labels.len(),
        });
    }
    check_no_nan(features)?;
    let width = features[0].len();
    let tree_params = forest_tree(width, true);
    let n_classes = labels.iter().copied().max().unwrap_or(0) + 1;
    let n = features.len();
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut trees = Vec::with_capacity(params.n_trees);
    for _ in 0..params.n_trees {
        let idx: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let boot_features: Vec<Vec<f64>> = idx.iter().map(|&i| features[i].clone()).collect();
        let boot_labels: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
        let targets: Vec<f64> = boot_labels.iter().map(|&l| l as f64).collect();
        let tree_n_classes = boot_labels.iter().copied().max().unwrap_or(0) + 1;
        let mut builder = SeedBuilder {
            features: &boot_features,
            targets: &targets,
            params: tree_params,
            criterion: Criterion::Gini,
            rng: SubsampleRng::new(rng.gen::<u64>()),
            cand: Vec::new(),
        };
        let idx2: Vec<usize> = (0..boot_features.len()).collect();
        let root = builder.build(&idx2, 0);
        trees.push(DecisionTreeClassifier::from_parts(root, tree_n_classes));
    }
    Ok(RandomForestClassifier::from_parts(trees, n_classes))
}

/// [`KnnRegressor`]'s seed prediction: collect **all** training distances,
/// fully sort them, truncate to k — the baseline for the bounded-selection
/// fast path.
pub fn knn_predict_reference(model: &KnnRegressor, features: &[f64]) -> f64 {
    let mut dist: Vec<(f64, f64)> = model
        .training_features()
        .iter()
        .zip(model.training_targets())
        .map(|(row, &t)| (crate::knn::squared_distance(row, features), t))
        .collect();
    dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    dist.truncate(model.k());
    match model.weighting() {
        KnnWeighting::Uniform => dist.iter().map(|(_, t)| t).sum::<f64>() / dist.len() as f64,
        KnnWeighting::InverseDistance => {
            let mut num = 0.0;
            let mut den = 0.0;
            for (d2, t) in dist {
                let w = 1.0 / (d2.sqrt() + 1e-9);
                num += w * t;
                den += w;
            }
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_data(n: usize, width: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        // Half the features quantized to tiny grids (heavy ties), half
        // continuous — stresses stable ordering and tie-broken splits.
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
            let x: Vec<f64> = (0..width)
                .map(|f| {
                    if f % 2 == 0 {
                        (next() * 5.0).floor()
                    } else {
                        next() * 10.0
                    }
                })
                .collect();
            let y = x.iter().sum::<f64>() + (next() - 0.5);
            features.push(x);
            targets.push(y);
        }
        (features, targets)
    }

    #[test]
    fn fast_tree_is_bit_identical_to_reference() {
        for (n, width, seed) in [(60, 1, 1), (120, 3, 2), (200, 5, 3)] {
            let (f, t) = mixed_data(n, width, seed);
            let params = TreeParams {
                min_samples_leaf: 2,
                ..Default::default()
            };
            let fast = DecisionTreeRegressor::fit_seeded(&f, &t, params, seed).unwrap();
            let slow = fit_tree_regressor_reference(&f, &t, params, seed).unwrap();
            assert_eq!(fast, slow, "n={n} width={width}");
            let labels: Vec<usize> = t.iter().map(|&y| (y as usize) % 3).collect();
            let fast = DecisionTreeClassifier::fit_seeded(&f, &labels, params, seed).unwrap();
            let slow = fit_tree_classifier_reference(&f, &labels, params, seed).unwrap();
            assert_eq!(fast, slow, "classifier n={n} width={width}");
        }
    }

    #[test]
    fn fast_forest_and_boosting_are_bit_identical_to_reference() {
        let (f, t) = mixed_data(150, 4, 9);
        let cols = crate::ColumnMatrix::from_rows(&f).unwrap();
        let fp = ForestParams {
            n_trees: 12,
            ..Default::default()
        };
        assert_eq!(
            RandomForestRegressor::fit_columns(&cols, &t, fp).unwrap(),
            fit_forest_regressor_reference(&f, &t, fp).unwrap()
        );
        let labels: Vec<usize> = t.iter().map(|&y| usize::from(y > 12.0)).collect();
        assert_eq!(
            RandomForestClassifier::fit_columns(&cols, &labels, fp).unwrap(),
            fit_forest_classifier_reference(&f, &labels, fp).unwrap()
        );
        let bp = BoostingParams { n_estimators: 20 };
        assert_eq!(
            GradientBoostingRegressor::fit_columns(&cols, &t, bp).unwrap(),
            fit_boosting_reference(&f, &t, bp).unwrap()
        );
    }
}
