//! Differential pins for the seed-shaped training oracles in
//! `scope_learn::reference` — the only check of the split scorer that
//! does not share `SplitScan` with the fast path: the fast paths must
//! agree with `fit_tree_regressor_seed`, `fit_forest_regressor_seed` and
//! `fit_forest_classifier_seed`, and the oracles themselves must be
//! deterministic.
//!
//! The fast and seed split scorers differ by float reassociation only, so
//! two candidate splits scoring within rounding of each other may break
//! ties differently. The synthetic datasets below have well-separated
//! split points, where both builders must pick identical structure and the
//! predictions agree to tight tolerance.

use scope_learn::forest::ForestParams;
use scope_learn::reference::{
    fit_forest_classifier_seed, fit_forest_regressor_seed, fit_tree_regressor_seed,
};
use scope_learn::tree::TreeParams;
use scope_learn::{
    Classifier, ColumnMatrix, DecisionTreeRegressor, RandomForestClassifier, RandomForestRegressor,
    Regressor,
};

/// Deterministic pseudo-random stream (splitmix64) so the datasets are
/// reproducible without pulling the rand shim into the comparison.
struct Mix(u64);

impl Mix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A regression dataset with clean, well-separated split structure:
/// piecewise-constant target in feature 0 plus a small slope in feature 1.
fn regression_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = Mix(seed);
    let mut features = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.next_f64() * 10.0;
        let b = rng.next_f64() * 4.0;
        let c = rng.next_f64();
        let step = if a < 3.0 {
            -5.0
        } else if a < 7.0 {
            2.0
        } else {
            9.0
        };
        targets.push(step + 0.5 * b);
        features.push(vec![a, b, c]);
    }
    (features, targets)
}

/// A cleanly separable 3-class dataset keyed off feature 0.
fn classification_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = Mix(seed);
    let mut features = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let a = rng.next_f64() * 9.0;
        let b = rng.next_f64();
        labels.push((a / 3.0) as usize);
        features.push(vec![a, b]);
    }
    (features, labels)
}

#[test]
fn tree_regressor_fast_path_matches_seed_oracle() {
    let (features, targets) = regression_data(240, 11);
    let params = TreeParams {
        max_depth: 8,
        ..TreeParams::default()
    };
    let oracle = fit_tree_regressor_seed(&features, &targets, params, 7).unwrap();
    let fast = DecisionTreeRegressor::fit_seeded(&features, &targets, params, 7).unwrap();
    for (o, f) in oracle
        .predict(&features)
        .iter()
        .zip(fast.predict(&features))
    {
        assert!((o - f).abs() < 1e-9, "oracle {o} vs fast {f}");
    }
}

#[test]
fn tree_regressor_seed_oracle_is_deterministic() {
    let (features, targets) = regression_data(160, 23);
    let params = TreeParams::default();
    let a = fit_tree_regressor_seed(&features, &targets, params, 99).unwrap();
    let b = fit_tree_regressor_seed(&features, &targets, params, 99).unwrap();
    assert_eq!(a, b);
}

#[test]
fn forest_regressor_fast_path_matches_seed_oracle() {
    let (features, targets) = regression_data(200, 5);
    let params = ForestParams {
        n_trees: 8,
        seed: 31,
        ..ForestParams::default()
    };
    let oracle = fit_forest_regressor_seed(&features, &targets, params).unwrap();
    let cols = ColumnMatrix::from_rows(&features).unwrap();
    let fast = RandomForestRegressor::fit_columns(&cols, &targets, params).unwrap();
    for (o, f) in oracle
        .predict(&features)
        .iter()
        .zip(fast.predict(&features))
    {
        assert!((o - f).abs() < 1e-9, "oracle {o} vs fast {f}");
    }
}

#[test]
fn forest_classifier_fast_path_matches_seed_oracle() {
    let (features, labels) = classification_data(220, 17);
    let params = ForestParams {
        n_trees: 9,
        seed: 13,
        ..ForestParams::default()
    };
    let oracle = fit_forest_classifier_seed(&features, &labels, params).unwrap();
    let cols = ColumnMatrix::from_rows(&features).unwrap();
    let fast = RandomForestClassifier::fit_columns(&cols, &labels, params).unwrap();
    assert_eq!(oracle.predict(&features), fast.predict(&features));
    // Clean separation: the ensemble must actually have learned the bands.
    let errors = oracle
        .predict(&features)
        .iter()
        .zip(&labels)
        .filter(|(p, l)| p != l)
        .count();
    assert!(
        errors * 20 < labels.len(),
        "{errors} errors on the train set"
    );
}

#[test]
fn forest_seed_oracles_are_deterministic() {
    let (features, targets) = regression_data(120, 41);
    let params = ForestParams {
        n_trees: 5,
        seed: 77,
        ..ForestParams::default()
    };
    let a = fit_forest_regressor_seed(&features, &targets, params).unwrap();
    let b = fit_forest_regressor_seed(&features, &targets, params).unwrap();
    assert_eq!(a, b);

    let (cf, cl) = classification_data(130, 43);
    let c = fit_forest_classifier_seed(&cf, &cl, params).unwrap();
    let d = fit_forest_classifier_seed(&cf, &cl, params).unwrap();
    assert_eq!(c.predict(&cf), d.predict(&cf));
}
