//! Training and evaluation of compression-performance predictors.
//!
//! Ground truth is obtained by actually serializing each sample in the
//! requested layout (csv / parquet-like) and compressing it with the
//! requested `scope-compress` codec; the targets are the measured
//! compression ratio and decompression seconds-per-GB. Models are the
//! families swept in Tables VI–VIII: an averaging baseline, Random Forest,
//! gradient-boosted trees (the "XGBoost" row), a small MLP (the "Neural
//! Network" row) and k-NN (standing in for SVR). Evaluation reports MAE,
//! MAPE and R² exactly as the paper's tables do.
//!
//! # What a ground-truth example costs
//!
//! [`build_examples`] pays only for what a [`TrainingExample`] holds, in
//! two halves:
//!
//! * **The deterministic half is fanned out.** Serialise → compress
//!   **once** → extract features is a pure function of the sample, so it
//!   runs over `scope_learn::parallel`'s weight-cut fan-out (weight = rows
//!   × columns, known before serialising; sample lists arrive in table
//!   order, so an equal-count cut would hand one worker nearly all the
//!   bytes). Each worker drops its serialised buffer and keeps only the
//!   compressed stream, the serialised length and the features; results
//!   merge in sample order, so `features`, `ratio` and `serialized_bytes`
//!   are bit-identical for any thread count.
//! * **The timed half is sequential.** After the join, the caller's thread
//!   times decompression of each kept stream with
//!   [`scope_compress::measure_decompression`] (the one min-of-reps
//!   protocol). `decompress_sec_per_gb` is a training target (Table VIII),
//!   and a target measured while this function's own workers compete for
//!   the cores and the cache would be a measurement of the fan-out, not of
//!   the codec — so no timing ever runs under self-inflicted contention.
//!
//! Compression is never timed here: compression time is not a COMPREDICT
//! target, and `scope_compress::measure`'s three-or-more compression
//! passes per sample were most of what an example used to cost.

use crate::features::FeatureExtractor;
use crate::CompredictError;
use scope_compress::{measure_decompression, CompressionScheme};
use scope_learn::{
    mae, mape, parallel, r2_score, ColumnMatrix, GradientBoostingRegressor, KnnRegressor,
    MeanRegressor, MlpRegressor, RandomForestRegressor, Regressor, Standardizer,
};
use scope_table::{format, DataLayout, Table};

/// Which quantity is being predicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictionTask {
    /// Compression ratio (uncompressed / compressed size).
    CompressionRatio,
    /// Decompression speed in seconds per GB of uncompressed data.
    DecompressionSpeed,
}

impl PredictionTask {
    /// Name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PredictionTask::CompressionRatio => "compression-ratio",
            PredictionTask::DecompressionSpeed => "decompression-speed",
        }
    }
}

/// Model families swept in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Predict the training mean (the "Averaging" baseline row).
    Averaging,
    /// Random forest (the paper's best model).
    RandomForest,
    /// Gradient-boosted trees (the "XGBoost" row).
    GradientBoosting,
    /// Single-hidden-layer MLP (the "Neural Network" row).
    NeuralNetwork,
    /// k-nearest neighbours (stand-in for the "SVR" row: a non-parametric
    /// kernel-flavoured model).
    Knn,
}

impl ModelKind {
    /// All model kinds, in the order the paper's tables list them.
    pub fn all() -> [ModelKind; 5] {
        [
            ModelKind::Averaging,
            ModelKind::GradientBoosting,
            ModelKind::NeuralNetwork,
            ModelKind::Knn,
            ModelKind::RandomForest,
        ]
    }

    /// Display name matching the paper's table rows.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Averaging => "Averaging",
            ModelKind::RandomForest => "Random Forest",
            ModelKind::GradientBoosting => "XGBoost",
            ModelKind::NeuralNetwork => "Neural Network",
            ModelKind::Knn => "SVR",
        }
    }
}

/// One training / evaluation example: features plus measured targets.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingExample {
    /// Feature vector (from [`FeatureExtractor`]).
    pub features: Vec<f64>,
    /// Measured compression ratio.
    pub ratio: f64,
    /// Measured decompression seconds per GB.
    pub decompress_sec_per_gb: f64,
    /// Serialized (uncompressed) size of the sample in bytes.
    pub serialized_bytes: usize,
}

/// Build training examples by serializing, compressing and featurising each
/// sample table (see the module docs for what runs where). A single sample
/// spawns no worker.
pub fn build_examples(
    samples: &[Table],
    scheme: CompressionScheme,
    layout: DataLayout,
    extractor: &FeatureExtractor,
) -> Vec<TrainingExample> {
    build_examples_with_threads(
        samples,
        scheme,
        layout,
        extractor,
        parallel::default_threads(),
    )
}

/// [`build_examples`] with the deterministic half on exactly `threads`
/// workers (1 = the calling thread); the timed half is always sequential.
pub(crate) fn build_examples_with_threads(
    samples: &[Table],
    scheme: CompressionScheme,
    layout: DataLayout,
    extractor: &FeatureExtractor,
    threads: usize,
) -> Vec<TrainingExample> {
    let codec = scheme.codec();
    let compressed = parallel::parallel_map_weighted_with_threads(
        samples,
        threads,
        |sample| (sample.n_rows() * sample.n_columns()) as u64,
        |_, sample| {
            let (stream, serialized_bytes) = {
                let bytes = format::serialize(sample, layout);
                (codec.compress(&bytes), bytes.len())
            };
            (stream, serialized_bytes, extractor.extract(sample))
        },
    );
    compressed
        .into_iter()
        .map(|(stream, serialized_bytes, features)| {
            let m = measure_decompression(codec.as_ref(), &stream, serialized_bytes);
            TrainingExample {
                features,
                ratio: m.ratio,
                decompress_sec_per_gb: m.decompress_seconds_per_gb,
                serialized_bytes,
            }
        })
        .collect()
}

/// Evaluation metrics for one predictor on one task (a cell group of
/// Tables V–VIII).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvaluationReport {
    /// Mean absolute error.
    pub mae: f64,
    /// Mean absolute percentage error (percent).
    pub mape: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

enum TrainedModel {
    Mean(MeanRegressor),
    Forest(RandomForestRegressor),
    Gbt(GradientBoostingRegressor),
    Mlp(MlpRegressor),
    Knn {
        model: KnnRegressor,
        standardizer: Standardizer,
    },
}

impl TrainedModel {
    fn predict(&self, features: &[f64]) -> f64 {
        match self {
            TrainedModel::Mean(m) => m.predict_one(features),
            TrainedModel::Forest(m) => m.predict_one(features),
            TrainedModel::Gbt(m) => m.predict_one(features),
            TrainedModel::Mlp(m) => m.predict_one(features),
            TrainedModel::Knn {
                model,
                standardizer,
            } => model.predict_one(&standardizer.transform_one(features)),
        }
    }
}

/// A trained compression-performance predictor.
pub struct CompressionPredictor {
    model: TrainedModel,
    extractor: FeatureExtractor,
    task: PredictionTask,
    kind: ModelKind,
}

impl std::fmt::Debug for CompressionPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressionPredictor")
            .field("task", &self.task.name())
            .field("model", &self.kind.name())
            .field("features", &self.extractor.feature_set.name())
            .finish()
    }
}

impl CompressionPredictor {
    /// Train a predictor of `task` on `examples` using the given model kind.
    pub fn train(
        examples: &[TrainingExample],
        task: PredictionTask,
        kind: ModelKind,
        extractor: FeatureExtractor,
        seed: u64,
    ) -> Result<Self, CompredictError> {
        if examples.len() < 4 {
            return Err(CompredictError::NotEnoughSamples(examples.len()));
        }
        let targets: Vec<f64> = examples.iter().map(|e| target_of(e, task)).collect();
        // The tree-ensemble models train on the shared column-major view
        // (no per-row feature clones); the row-major models still get
        // borrowed rows, cloned only where their APIs require it.
        let rows: Vec<&[f64]> = examples.iter().map(|e| e.features.as_slice()).collect();
        let model = match kind {
            ModelKind::Averaging => TrainedModel::Mean(MeanRegressor::fit(&targets)?),
            ModelKind::RandomForest => {
                let cols = ColumnMatrix::from_rows(&rows)?;
                TrainedModel::Forest(RandomForestRegressor::fit_columns(
                    &cols,
                    &targets,
                    scope_learn::forest::ForestParams {
                        seed,
                        ..Default::default()
                    },
                )?)
            }
            ModelKind::GradientBoosting => {
                let cols = ColumnMatrix::from_rows(&rows)?;
                TrainedModel::Gbt(GradientBoostingRegressor::fit_columns(
                    &cols,
                    &targets,
                    scope_learn::boosting::BoostingParams::default(),
                )?)
            }
            ModelKind::NeuralNetwork => {
                let features: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
                TrainedModel::Mlp(MlpRegressor::fit_default(&features, &targets)?)
            }
            ModelKind::Knn => {
                let features: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
                let standardizer = Standardizer::fit(&features)?;
                let transformed = standardizer.transform(&features);
                let k = (examples.len() / 10).clamp(3, 15);
                TrainedModel::Knn {
                    model: KnnRegressor::fit(
                        &transformed,
                        &targets,
                        k,
                        scope_learn::knn::KnnWeighting::InverseDistance,
                    )?,
                    standardizer,
                }
            }
        };
        Ok(CompressionPredictor {
            model,
            extractor,
            task,
            kind,
        })
    }

    /// The task this predictor was trained for.
    pub fn task(&self) -> PredictionTask {
        self.task
    }

    /// The model family used.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Predict from a raw feature vector.
    pub fn predict_features(&self, features: &[f64]) -> f64 {
        // Ratios and speeds are physically non-negative; ratios are >= a
        // small positive floor so downstream divisions are safe.
        let raw = self.model.predict(features);
        match self.task {
            PredictionTask::CompressionRatio => raw.max(0.1),
            PredictionTask::DecompressionSpeed => raw.max(0.0),
        }
    }

    /// Extract features from a partition and predict.
    pub fn predict_table(&self, table: &Table) -> f64 {
        self.predict_features(&self.extractor.extract(table))
    }

    /// Evaluate on held-out examples, producing the MAE / MAPE / R² triple
    /// of the paper's tables.
    pub fn evaluate(&self, examples: &[TrainingExample]) -> EvaluationReport {
        let truth: Vec<f64> = examples.iter().map(|e| target_of(e, self.task)).collect();
        let preds: Vec<f64> = examples
            .iter()
            .map(|e| self.predict_features(&e.features))
            .collect();
        EvaluationReport {
            mae: mae(&truth, &preds),
            mape: mape(&truth, &preds),
            r2: r2_score(&truth, &preds),
        }
    }
}

fn target_of(example: &TrainingExample, task: PredictionTask) -> f64 {
    match task {
        PredictionTask::CompressionRatio => example.ratio,
        PredictionTask::DecompressionSpeed => example.decompress_sec_per_gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use crate::sampling::random_samples;
    use scope_table::{TpchGenerator, TpchOptions, TpchTable};

    fn examples() -> Vec<TrainingExample> {
        // Samples of varying size/repetition from two tables give a spread
        // of ratios to learn from.
        let gen = TpchGenerator::new(TpchOptions {
            scale_factor: 0.15,
            ..Default::default()
        })
        .unwrap();
        let orders = gen.generate(TpchTable::Orders);
        let lineitem = gen.generate(TpchTable::Lineitem);
        let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
        let mut samples = Vec::new();
        for rows in [30, 60, 120, 200] {
            samples.extend(random_samples(&orders, 4, rows, rows as u64).unwrap());
            samples.extend(random_samples(&lineitem, 4, rows, rows as u64 + 1).unwrap());
        }
        build_examples(
            &samples,
            CompressionScheme::Gzip,
            DataLayout::Csv,
            &extractor,
        )
    }

    /// `build_examples` as it was before the fan-out: `measure` (which also
    /// times compression) per sample, in order, on the calling thread.
    fn build_examples_reference(
        samples: &[Table],
        scheme: CompressionScheme,
        layout: DataLayout,
        extractor: &FeatureExtractor,
    ) -> Vec<TrainingExample> {
        let codec = scheme.codec();
        samples
            .iter()
            .map(|sample| {
                let bytes = format::serialize(sample, layout);
                let m = scope_compress::measure(codec.as_ref(), &bytes);
                TrainingExample {
                    features: extractor.extract(sample),
                    ratio: m.ratio,
                    decompress_sec_per_gb: m.decompress_seconds_per_gb,
                    serialized_bytes: bytes.len(),
                }
            })
            .collect()
    }

    #[test]
    fn examples_equal_the_per_sample_measure_loop_for_any_thread_count() {
        // Query samples of one table (in file order, sizes uneven), random
        // samples of another, and a zero-row sample in the middle.
        let gen = TpchGenerator::new(TpchOptions {
            scale_factor: 0.1,
            ..Default::default()
        })
        .unwrap();
        let orders = gen.generate(TpchTable::Orders);
        let files = orders.split_into_files(40).unwrap();
        let workload = scope_workload::QueryWorkload::generate_tpch(
            &[("orders".to_string(), files.len())],
            &scope_workload::QueryWorkloadOptions {
                queries_per_template: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut samples = crate::query_samples(&orders, &files, &workload.families).unwrap();
        samples.truncate(6);
        let customer = gen.generate(TpchTable::Customer);
        samples.push(customer.slice_rows(0, 0).unwrap());
        samples.extend(random_samples(&customer, 3, 25, 9).unwrap());
        assert!(samples.len() >= 8 && samples.iter().any(|s| s.n_rows() == 0));

        let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
        for scheme in CompressionScheme::all() {
            for layout in [DataLayout::Csv, DataLayout::Columnar] {
                let reference = build_examples_reference(&samples, scheme, layout, &extractor);
                for threads in [1, 2, 3, 8] {
                    let got =
                        build_examples_with_threads(&samples, scheme, layout, &extractor, threads);
                    assert_eq!(got.len(), reference.len());
                    for (g, r) in got.iter().zip(&reference) {
                        let at = format!("{scheme} {layout:?} threads {threads}");
                        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&g.features), bits(&r.features), "{at}");
                        assert_eq!(g.ratio.to_bits(), r.ratio.to_bits(), "{at}");
                        assert_eq!(g.serialized_bytes, r.serialized_bytes, "{at}");
                        // Standing caveat: timings are only ever sane, never
                        // compared.
                        assert!(
                            g.decompress_sec_per_gb.is_finite() && g.decompress_sec_per_gb >= 0.0,
                            "{at}"
                        );
                    }
                }
            }
        }
        // The public form is the same function at the default thread count.
        let public = build_examples(
            &samples,
            CompressionScheme::Gzip,
            DataLayout::Csv,
            &extractor,
        );
        let reference = build_examples_reference(
            &samples,
            CompressionScheme::Gzip,
            DataLayout::Csv,
            &extractor,
        );
        assert!(public
            .iter()
            .zip(&reference)
            .all(|(g, r)| g.ratio.to_bits() == r.ratio.to_bits() && g.features == r.features));
        assert!(
            build_examples(&[], CompressionScheme::Gzip, DataLayout::Csv, &extractor).is_empty()
        );
    }

    #[test]
    fn examples_have_positive_ratios_and_sizes() {
        let ex = examples();
        assert!(ex.len() >= 30);
        for e in &ex {
            assert!(e.ratio > 1.0, "gzip should compress tabular text");
            assert!(e.serialized_bytes > 0);
            assert!(e.decompress_sec_per_gb >= 0.0);
            assert!(!e.features.is_empty());
        }
    }

    #[test]
    fn random_forest_beats_averaging_baseline() {
        let ex = examples();
        let split = ex.len() * 3 / 4;
        let (train, test) = ex.split_at(split);
        let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
        let rf = CompressionPredictor::train(
            train,
            PredictionTask::CompressionRatio,
            ModelKind::RandomForest,
            extractor,
            1,
        )
        .unwrap();
        let avg = CompressionPredictor::train(
            train,
            PredictionTask::CompressionRatio,
            ModelKind::Averaging,
            extractor,
            1,
        )
        .unwrap();
        let rf_report = rf.evaluate(test);
        let avg_report = avg.evaluate(test);
        assert!(
            rf_report.mae <= avg_report.mae,
            "rf mae {} vs averaging mae {}",
            rf_report.mae,
            avg_report.mae
        );
    }

    #[test]
    fn all_model_kinds_train_and_predict() {
        let ex = examples();
        let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
        for kind in ModelKind::all() {
            let p = CompressionPredictor::train(
                &ex,
                PredictionTask::CompressionRatio,
                kind,
                extractor,
                2,
            )
            .unwrap();
            let pred = p.predict_features(&ex[0].features);
            assert!(pred.is_finite() && pred > 0.0, "{kind:?} produced {pred}");
            assert_eq!(p.kind(), kind);
        }
    }

    #[test]
    fn decompression_speed_task_trains() {
        let ex = examples();
        let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
        let p = CompressionPredictor::train(
            &ex,
            PredictionTask::DecompressionSpeed,
            ModelKind::RandomForest,
            extractor,
            3,
        )
        .unwrap();
        assert_eq!(p.task(), PredictionTask::DecompressionSpeed);
        let report = p.evaluate(&ex);
        assert!(report.mae >= 0.0);
        assert!(report.mape >= 0.0);
    }

    #[test]
    fn too_few_examples_rejected() {
        let ex = examples();
        let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
        assert!(matches!(
            CompressionPredictor::train(
                &ex[..2],
                PredictionTask::CompressionRatio,
                ModelKind::RandomForest,
                extractor,
                1,
            ),
            Err(CompredictError::NotEnoughSamples(2))
        ));
    }

    #[test]
    fn predict_table_uses_extractor() {
        let ex = examples();
        let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
        let p = CompressionPredictor::train(
            &ex,
            PredictionTask::CompressionRatio,
            ModelKind::RandomForest,
            extractor,
            4,
        )
        .unwrap();
        let gen = TpchGenerator::new(TpchOptions {
            scale_factor: 0.05,
            ..Default::default()
        })
        .unwrap();
        let t = gen.generate(TpchTable::Customer);
        let pred = p.predict_table(&t);
        assert!(
            pred > 0.5 && pred < 50.0,
            "unreasonable ratio prediction {pred}"
        );
        let dbg = format!("{p:?}");
        assert!(dbg.contains("Random Forest"));
    }

    #[test]
    fn model_kind_names_match_paper_rows() {
        assert_eq!(ModelKind::GradientBoosting.name(), "XGBoost");
        assert_eq!(ModelKind::Knn.name(), "SVR");
        assert_eq!(ModelKind::all().len(), 5);
        assert_eq!(PredictionTask::CompressionRatio.name(), "compression-ratio");
    }
}
