//! Differential pins for the learning fast path: the production
//! rank-ordered/parallel/index-bagged training paths must be **bit-for-bit**
//! equal to the preserved seed-shaped oracles in `scope_learn::reference`,
//! `scope_compredict::features::weighted_entropy_by_type_reference` and
//! `scope_datapart::solve_ordered_exact_reference` — tree structures,
//! forest votes, boosting predictions, predictor labels and ordered-DP
//! plans, on randomized single- and multi-feature instances (with heavy
//! value ties, the regime where a tie-break bug would surface).
//!
//! Also pins parallel-vs-sequential determinism: any worker-thread count
//! must fit the identical model.
//!
//! Every tree fit orders its positions through one rank table per fit (a
//! stable counting sort on shared ranks: per forest, per boosted ensemble,
//! per single tree), so the proptest at the end feeds all of them the ties
//! that ordering must get right: few distinct values, constant columns,
//! `-0.0` next to `0.0`, and `±∞`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_cloudsim::TierCatalog;
use scope_compredict::features::{weighted_entropy_by_type, weighted_entropy_by_type_reference};
use scope_compredict::predictor::build_examples;
use scope_compredict::{
    CompressionPredictor, FeatureExtractor, FeatureSet, ModelKind, PredictionTask,
};
use scope_datapart::{solve_ordered_exact, solve_ordered_exact_reference, OrderedPartition};
use scope_learn::boosting::BoostingParams;
use scope_learn::forest::ForestParams;
use scope_learn::reference::{
    fit_boosting_reference, fit_forest_classifier_reference, fit_forest_regressor_reference,
    fit_tree_classifier_reference, fit_tree_regressor_reference, knn_predict_reference,
};
use scope_learn::tree::TreeParams;
use scope_learn::{
    Classifier, ColumnMatrix, DecisionTreeClassifier, DecisionTreeRegressor,
    GradientBoostingRegressor, KnnRegressor, RandomForestClassifier, RandomForestRegressor,
    Regressor,
};
use scope_optassign::{ideal_tier_labels, PredictorFeatures, TierPredictor};
use scope_table::{TpchGenerator, TpchOptions, TpchTable};
use scope_workload::{EnterpriseOptions, EnterpriseWorkload};

/// Random instance with a mix of heavily-tied (quantized) and continuous
/// features — the regime where stable ordering and tie-breaks matter.
fn random_instance(n: usize, width: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut features = Vec::with_capacity(n);
    let mut targets = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f64> = (0..width)
            .map(|f| {
                if f % 2 == 0 {
                    rng.gen_range(0..6) as f64 // quantized: many exact ties
                } else {
                    rng.gen_range(0.0..10.0)
                }
            })
            .collect();
        let noise: f64 = rng.gen_range(-0.5..0.5);
        let y = x
            .iter()
            .enumerate()
            .map(|(i, v)| v * (i + 1) as f64)
            .sum::<f64>()
            + noise;
        features.push(x);
        targets.push(y);
    }
    (features, targets)
}

#[test]
fn trees_match_reference_bit_for_bit() {
    for (case, (n, width)) in [(0u64, (50, 1)), (1, (120, 2)), (2, (250, 5)), (3, (80, 7))]
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i as u64, c.1))
    {
        let (f, t) = random_instance(n, width, 100 + case);
        for params in [
            TreeParams::default(),
            TreeParams {
                max_depth: 4,
                min_samples_leaf: 3,
                min_samples_split: 6,
                max_features: Some(2),
            },
        ] {
            let fast = DecisionTreeRegressor::fit_seeded(&f, &t, params, 7 + case).unwrap();
            let slow = fit_tree_regressor_reference(&f, &t, params, 7 + case).unwrap();
            assert_eq!(fast, slow, "regressor n={n} width={width}");

            let labels: Vec<usize> = t.iter().map(|&y| (y.abs() as usize) % 4).collect();
            let fast = DecisionTreeClassifier::fit_seeded(&f, &labels, params, 7 + case).unwrap();
            let slow = fit_tree_classifier_reference(&f, &labels, params, 7 + case).unwrap();
            assert_eq!(fast, slow, "classifier n={n} width={width}");
        }
    }
}

#[test]
fn forests_match_reference_votes_and_structure() {
    let (f, t) = random_instance(200, 4, 11);
    let (queries, _) = random_instance(60, 4, 99);
    let params = ForestParams {
        n_trees: 15,
        seed: 3,
    };
    let cols = ColumnMatrix::from_rows(&f).unwrap();
    let fast = RandomForestRegressor::fit_columns(&cols, &t, params).unwrap();
    let slow = fit_forest_regressor_reference(&f, &t, params).unwrap();
    assert_eq!(fast, slow, "forest regressor trees diverged");
    for q in &queries {
        assert_eq!(fast.predict_one(q).to_bits(), slow.predict_one(q).to_bits());
    }

    let labels: Vec<usize> = t.iter().map(|&y| (y.abs() as usize) % 3).collect();
    let fast = RandomForestClassifier::fit_columns(&cols, &labels, params).unwrap();
    let slow = fit_forest_classifier_reference(&f, &labels, params).unwrap();
    assert_eq!(fast, slow, "forest classifier trees diverged");
    for q in &queries {
        assert_eq!(
            Classifier::predict_one(&fast, q),
            Classifier::predict_one(&slow, q)
        );
        assert_eq!(fast.predict_proba_one(q), slow.predict_proba_one(q));
    }
}

#[test]
fn boosting_matches_reference_predictions() {
    let (f, t) = random_instance(180, 3, 21);
    let params = BoostingParams { n_estimators: 30 };
    let cols = ColumnMatrix::from_rows(&f).unwrap();
    let fast = GradientBoostingRegressor::fit_columns(&cols, &t, params).unwrap();
    let slow = fit_boosting_reference(&f, &t, params).unwrap();
    assert_eq!(fast, slow, "boosting stages diverged");
    let (queries, _) = random_instance(40, 3, 77);
    for q in &queries {
        assert_eq!(fast.predict_one(q).to_bits(), slow.predict_one(q).to_bits());
    }
}

#[test]
fn training_is_thread_count_independent() {
    // Satellite: parallel-vs-sequential determinism of forest and boosting
    // training — a fixed seed fits the identical model for any worker
    // count (1 = the plain sequential loop).
    let (f, t) = random_instance(220, 4, 31);
    let cols = ColumnMatrix::from_rows(&f).unwrap();
    let fp = ForestParams {
        n_trees: 17,
        seed: 5,
    };
    let forest_seq = RandomForestRegressor::fit_columns_with_threads(&cols, &t, fp, 1).unwrap();
    for threads in [2, 3, 5, 8, 13] {
        let forest_par =
            RandomForestRegressor::fit_columns_with_threads(&cols, &t, fp, threads).unwrap();
        assert_eq!(forest_seq, forest_par, "forest threads={threads}");
    }
    let labels: Vec<usize> = t.iter().map(|&y| (y.abs() as usize) % 3).collect();
    let clf_seq = RandomForestClassifier::fit_columns_with_threads(&cols, &labels, fp, 1).unwrap();
    for threads in [2, 7] {
        let clf_par =
            RandomForestClassifier::fit_columns_with_threads(&cols, &labels, fp, threads).unwrap();
        assert_eq!(clf_seq, clf_par, "classifier threads={threads}");
    }
    let bp = BoostingParams { n_estimators: 20 };
    let gbt_seq = GradientBoostingRegressor::fit_columns_with_threads(&cols, &t, bp, 1).unwrap();
    for threads in [2, 6] {
        let gbt_par =
            GradientBoostingRegressor::fit_columns_with_threads(&cols, &t, bp, threads).unwrap();
        assert_eq!(gbt_seq, gbt_par, "boosting threads={threads}");
    }
}

#[test]
fn knn_bounded_selection_matches_sorted_reference() {
    let (f, t) = random_instance(300, 3, 41);
    let (queries, _) = random_instance(50, 3, 43);
    for k in [1, 5, 17, 300] {
        let knn =
            KnnRegressor::fit(&f, &t, k, scope_learn::knn::KnnWeighting::InverseDistance).unwrap();
        for q in &queries {
            assert_eq!(
                knn.predict_one(q).to_bits(),
                knn_predict_reference(&knn, q).to_bits(),
                "k={k}"
            );
        }
    }
}

#[test]
fn compression_predictor_labels_match_reference_forest() {
    // The production CompressionPredictor trains its forest through the
    // column-major fast path; a reference forest trained the seed way on
    // the same examples must predict identical (clamped) ratios.
    let gen = TpchGenerator::new(TpchOptions {
        scale_factor: 0.1,
        ..Default::default()
    })
    .unwrap();
    let orders = gen.generate(TpchTable::Orders);
    let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
    let mut samples = Vec::new();
    for rows in [40, 80, 150] {
        samples.extend(scope_compredict::random_samples(&orders, 5, rows, rows as u64).unwrap());
    }
    let examples = build_examples(
        &samples,
        scope_compress::CompressionScheme::Gzip,
        scope_table::DataLayout::Csv,
        &extractor,
    );
    let seed = 9;
    let predictor = CompressionPredictor::train(
        &examples,
        PredictionTask::CompressionRatio,
        ModelKind::RandomForest,
        extractor,
        seed,
    )
    .unwrap();
    let features: Vec<Vec<f64>> = examples.iter().map(|e| e.features.clone()).collect();
    let targets: Vec<f64> = examples.iter().map(|e| e.ratio).collect();
    let reference = fit_forest_regressor_reference(
        &features,
        &targets,
        ForestParams {
            seed,
            ..Default::default()
        },
    )
    .unwrap();
    for e in &examples {
        let fast = predictor.predict_features(&e.features);
        let slow = reference.predict_one(&e.features).max(0.1);
        assert_eq!(fast.to_bits(), slow.to_bits());
    }
}

#[test]
fn tier_predictor_labels_match_reference_forest() {
    // Rebuild the exact (features, ideal-label) training set TierPredictor
    // uses, train a seed-way reference forest on it, and require identical
    // tier labels from the production predictor's batched path.
    let w = EnterpriseWorkload::generate(EnterpriseOptions {
        n_datasets: 80,
        history_months: 10,
        future_months: 4,
        seed: 5,
        ..Default::default()
    })
    .unwrap();
    let catalog = TierCatalog::azure_hot_cool();
    let hot = catalog.tier_id("Hot").unwrap();
    let features = PredictorFeatures::default();
    let (train_until, horizon, seed) = (7u32, 2u32, 42u64);
    let predictor = TierPredictor::train(
        &catalog,
        &w.catalog,
        &w.series,
        train_until,
        horizon,
        hot,
        features,
        seed,
    )
    .unwrap();

    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<usize> = Vec::new();
    for month in features.lookback_months..=train_until {
        if month + horizon > w.series.months() {
            break;
        }
        let labels =
            ideal_tier_labels(&catalog, &w.catalog, &w.series, month, horizon, hot).unwrap();
        for d in w.catalog.iter() {
            if d.created_month > month {
                continue;
            }
            xs.push(features.extract(d, &w.series, month));
            ys.push(labels[d.id].index());
        }
    }
    let reference =
        fit_forest_classifier_reference(&xs, &ys, ForestParams { n_trees: 60, seed }).unwrap();

    let at_month = 10;
    let predicted = predictor.predict_all(&w.catalog, &w.series, at_month);
    for (d, &tier) in w.catalog.iter().zip(&predicted) {
        let x = features.extract(d, &w.series, at_month);
        let expect = Classifier::predict_one(&reference, &x).min(catalog.len() - 1);
        assert_eq!(tier.index(), expect, "dataset {}", d.id);
    }
}

#[test]
fn entropy_features_match_reference_bitwise() {
    let gen = TpchGenerator::new(TpchOptions {
        scale_factor: 0.08,
        ..Default::default()
    })
    .unwrap();
    for table in [TpchTable::Orders, TpchTable::Lineitem, TpchTable::Customer] {
        let t = gen.generate(table);
        let n = t.n_rows();
        for (start, end) in [(0, n), (n / 3, 2 * n / 3)] {
            let fast = weighted_entropy_by_type(&t, start, end);
            let slow = weighted_entropy_by_type_reference(&t, start, end);
            assert_eq!(fast.len(), slow.len());
            for (k, v) in &slow {
                assert_eq!(fast[k].to_bits(), v.to_bits(), "{table:?} {k:?}");
            }
        }
    }
}

#[test]
fn ordered_dp_plans_match_reference_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(17);
    for case in 0..12 {
        let n = rng.gen_range(5..40);
        let mut parts = Vec::with_capacity(n);
        let mut end = 0.0f64;
        for _ in 0..n {
            end += rng.gen_range(0.5..4.0);
            let span = rng.gen_range(0.5..8.0);
            let freq = rng.gen_range(0..5) as f64 * rng.gen_range(0.5..1.5);
            parts.push(OrderedPartition::new(end - span, end, freq));
        }
        let min_cost: f64 = parts.iter().map(|p| p.span() * p.frequency).sum();
        let budget = (min_cost + rng.gen_range(1.0..50.0)) * rng.gen_range(1.0..2.0);
        let resolution = [0.5, 1.0, 4.0][case % 3];
        let fast = solve_ordered_exact(&parts, budget, resolution).unwrap();
        let slow = solve_ordered_exact_reference(&parts, budget, resolution).unwrap();
        assert_eq!(fast.merges, slow.merges, "case {case} n={n}");
        assert_eq!(fast.total_space.to_bits(), slow.total_space.to_bits());
        assert_eq!(fast.total_cost.to_bits(), slow.total_cost.to_bits());
    }
}

#[test]
fn batched_column_prediction_equals_row_prediction() {
    let (f, t) = random_instance(150, 4, 51);
    let cols = ColumnMatrix::from_rows(&f).unwrap();
    let forest = RandomForestRegressor::fit_columns(
        &cols,
        &t,
        ForestParams {
            seed: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let batched = forest.predict_columns(&cols);
    let scalar = forest.predict(&f);
    assert_eq!(batched.len(), scalar.len());
    for (a, b) in batched.iter().zip(&scalar) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let gbt = GradientBoostingRegressor::fit_columns(&cols, &t, BoostingParams::default()).unwrap();
    for (a, b) in gbt.predict_columns(&cols).iter().zip(gbt.predict(&f)) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Values a quantised column draws from: `-0.0` and `0.0` (equal, with
/// different bits), both infinities and a few finite values.
const TIE_POOL: [f64; 8] = [
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -2.5,
    3.0,
    1e-300,
];

/// `n` rows of `width` adversarial columns: each column is quantised to
/// `levels` values of [`TIE_POOL`], constant, or continuous with signed
/// zeros mixed in. Targets span sixteen orders of magnitude, so a split
/// score depends on the order the scan adds them in: a tree builder that
/// orders tied values differently from the oracle fits different trees.
/// Labels are drawn apart, four classes.
fn tied_instance(
    n: usize,
    width: usize,
    levels: usize,
    seed: u64,
) -> (Vec<Vec<f64>>, Vec<f64>, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut columns: Vec<Vec<f64>> = Vec::with_capacity(width);
    for _ in 0..width {
        let column = match rng.gen_range(0..4) {
            0 => {
                let values: Vec<f64> = (0..levels)
                    .map(|_| TIE_POOL[rng.gen_range(0..TIE_POOL.len())])
                    .collect();
                (0..n)
                    .map(|_| values[rng.gen_range(0..values.len())])
                    .collect()
            }
            1 => vec![TIE_POOL[rng.gen_range(0..TIE_POOL.len())]; n],
            // A coarsened copy of an earlier column: its splits cut the
            // same row sets as the finer column's, so the two score within
            // rounding of each other, and the order the scan adds a tied
            // group in decides which one wins.
            3 if !columns.is_empty() => {
                let finer = &columns[rng.gen_range(0..columns.len())];
                finer.iter().map(|v| (v * levels as f64).floor()).collect()
            }
            _ => (0..n)
                .map(|_| match rng.gen_range(0..8) {
                    0 => -0.0,
                    1 => 0.0,
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect(),
        };
        columns.push(column);
    }
    let rows = (0..n)
        .map(|r| columns.iter().map(|c| c[r]).collect())
        .collect();
    let targets = (0..n)
        .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(0..17)))
        .collect();
    let labels = (0..n).map(|_| rng.gen_range(0..4)).collect();
    (rows, targets, labels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every tree fit equals its seed-shaped oracle bit for bit under
    /// adversarial ties: both forests and the boosted ensemble at one and
    /// at three threads, and both single trees — the trees (thresholds'
    /// signs included, through `Debug`) and every `predict_one`.
    #[test]
    fn forests_match_reference_bit_for_bit_under_adversarial_ties(
        n in 1usize..=300,
        width in 1usize..=9,
        n_trees in 1usize..=8,
        levels in 1usize..=6,
        max_features in 1usize..=9,
        n_stages in 1usize..=8,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let (f, t, labels) = tied_instance(n, width, levels, seed);
        let (queries, _, _) = tied_instance(20, width, levels, seed ^ 1);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tree_params = TreeParams {
            max_features: Some(max_features),
            ..Default::default()
        };
        let tree = DecisionTreeRegressor::fit_seeded(&f, &t, tree_params, seed).unwrap();
        let tree_ref = fit_tree_regressor_reference(&f, &t, tree_params, seed).unwrap();
        prop_assert_eq!(&tree, &tree_ref, "regression tree");
        prop_assert_eq!(format!("{tree:?}"), format!("{tree_ref:?}"));
        let clf_tree = DecisionTreeClassifier::fit_seeded(&f, &labels, tree_params, seed).unwrap();
        let clf_tree_ref = fit_tree_classifier_reference(&f, &labels, tree_params, seed).unwrap();
        prop_assert_eq!(&clf_tree, &clf_tree_ref, "classification tree");
        prop_assert_eq!(format!("{clf_tree:?}"), format!("{clf_tree_ref:?}"));
        for q in f.iter().chain(&queries) {
            prop_assert_eq!(tree.predict_one(q).to_bits(), tree_ref.predict_one(q).to_bits());
            prop_assert_eq!(
                Classifier::predict_one(&clf_tree, q),
                Classifier::predict_one(&clf_tree_ref, q)
            );
        }

        let cols = ColumnMatrix::from_rows(&f).unwrap();
        let params = ForestParams {
            n_trees,
            seed,
        };
        let boost_params = BoostingParams {
            n_estimators: n_stages,
        };
        let reg_ref = fit_forest_regressor_reference(&f, &t, params).unwrap();
        let clf_ref = fit_forest_classifier_reference(&f, &labels, params).unwrap();
        let gbt_ref = fit_boosting_reference(&f, &t, boost_params).unwrap();
        for threads in [1, 3] {
            let gbt = GradientBoostingRegressor::fit_columns_with_threads(
                &cols,
                &t,
                boost_params,
                threads,
            )
            .unwrap();
            prop_assert_eq!(&gbt, &gbt_ref, "boosting, {} threads", threads);
            prop_assert_eq!(format!("{gbt:?}"), format!("{gbt_ref:?}"));
            prop_assert_eq!(bits(&gbt.predict(&f)), bits(&gbt_ref.predict(&f)));
            prop_assert_eq!(bits(&gbt.predict(&queries)), bits(&gbt_ref.predict(&queries)));

            let reg = RandomForestRegressor::fit_columns_with_threads(&cols, &t, params, threads)
                .unwrap();
            prop_assert_eq!(&reg, &reg_ref, "regressor, {} threads", threads);
            prop_assert_eq!(format!("{reg:?}"), format!("{reg_ref:?}"));
            let clf =
                RandomForestClassifier::fit_columns_with_threads(&cols, &labels, params, threads)
                    .unwrap();
            prop_assert_eq!(&clf, &clf_ref, "classifier, {} threads", threads);
            prop_assert_eq!(format!("{clf:?}"), format!("{clf_ref:?}"));
            for q in f.iter().chain(&queries) {
                prop_assert_eq!(reg.predict_one(q).to_bits(), reg_ref.predict_one(q).to_bits());
                prop_assert_eq!(
                    Classifier::predict_one(&clf, q),
                    Classifier::predict_one(&clf_ref, q)
                );
                let (p, p_ref) = (clf.predict_proba_one(q), clf_ref.predict_proba_one(q));
                prop_assert_eq!(bits(&p), bits(&p_ref));
            }
        }
    }
}
