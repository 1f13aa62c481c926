//! The tier predictor of §IV-C and the caching/recency baselines of
//! Table IV.
//!
//! "Predicting access patterns is a non-trivial problem. We have proposed a
//! Random Forest model that is near optimal, with high precision and recall
//! (F-1 score > 0.96)." The model's features are (i) dataset size,
//! (ii) months since dataset creation, and the aggregated monthly
//! (iii) read and (iv) write accesses for the last few months; the training
//! labels are the *ideal* tiers — the ones OPTASSIGN would pick if the
//! future accesses were known — and validation is out-of-time.

use crate::greedy::solve_greedy;
use crate::problem::{OptAssignProblem, PartitionSpec};
use crate::OptAssignError;
use scope_cloudsim::{ProviderCatalog, ProviderTopology, TierCatalog, TierId};
use scope_learn::forest::ForestParams;
use scope_learn::{
    confusion_matrix, Classifier, ColumnMatrix, ConfusionMatrix, RandomForestClassifier,
};
use scope_workload::{AccessSeries, DatasetCatalog, DatasetMeta};

/// Feature-extraction configuration for the tier predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorFeatures {
    /// Number of trailing months of read/write history fed to the model.
    pub lookback_months: u32,
}

impl Default for PredictorFeatures {
    fn default() -> Self {
        PredictorFeatures { lookback_months: 3 }
    }
}

impl PredictorFeatures {
    /// Extract the feature vector for `dataset` as seen at the beginning of
    /// `at_month` (only months strictly before `at_month` are visible).
    pub fn extract(&self, dataset: &DatasetMeta, series: &AccessSeries, at_month: u32) -> Vec<f64> {
        let age = dataset.age_at(at_month).unwrap_or(0) as f64;
        let mut features = vec![dataset.size_gb, age];
        for back in 1..=self.lookback_months {
            let month = at_month.checked_sub(back);
            let access = month.map(|m| series.get(dataset.id, m)).unwrap_or_default();
            features.push(access.reads);
            features.push(access.writes);
        }
        features
    }

    /// Names of the features, for reports.
    pub fn names(&self) -> Vec<String> {
        let mut names = vec!["size_gb".to_string(), "months_since_creation".to_string()];
        for back in 1..=self.lookback_months {
            names.push(format!("reads_m-{back}"));
            names.push(format!("writes_m-{back}"));
        }
        names
    }
}

/// Compute, for every dataset, the *ideal* tier for the projection window
/// `[from_month, from_month + horizon_months)` assuming the future accesses
/// in `series` are known exactly. This is the label-encoding step the paper
/// uses ("We used OPTASSIGN to assign the ground truth label encoding (i.e.
/// the optimal tier) for each dataset while training the model").
///
/// `current_tier` is the tier all datasets currently occupy (the platform
/// default, Hot, in the paper's storage accounts).
pub fn ideal_tier_labels(
    catalog: &TierCatalog,
    datasets: &DatasetCatalog,
    series: &AccessSeries,
    from_month: u32,
    horizon_months: u32,
    current_tier: TierId,
) -> Result<Vec<TierId>, OptAssignError> {
    ideal_tier_labels_with(
        catalog,
        None,
        datasets,
        series,
        from_month,
        horizon_months,
        current_tier,
    )
}

/// [`ideal_tier_labels`] over the merged tier space of a multi-provider
/// catalog: labels are merged [`TierId`]s, `current_tier` is a merged id
/// (e.g. from [`ProviderCatalog::merged_tier_id`]), and the objective the
/// labels minimize charges the egress matrix for cross-provider moves.
pub fn ideal_tier_labels_multi(
    providers: &ProviderCatalog,
    datasets: &DatasetCatalog,
    series: &AccessSeries,
    from_month: u32,
    horizon_months: u32,
    current_tier: TierId,
) -> Result<Vec<TierId>, OptAssignError> {
    ideal_tier_labels_with(
        &providers.merged_catalog(),
        Some(providers.topology()),
        datasets,
        series,
        from_month,
        horizon_months,
        current_tier,
    )
}

/// Shared implementation of the label computation, optionally egress-aware.
fn ideal_tier_labels_with(
    catalog: &TierCatalog,
    topology: Option<ProviderTopology>,
    datasets: &DatasetCatalog,
    series: &AccessSeries,
    from_month: u32,
    horizon_months: u32,
    current_tier: TierId,
) -> Result<Vec<TierId>, OptAssignError> {
    let partitions: Vec<PartitionSpec> = datasets
        .iter()
        .map(|d| {
            let mut reads = 0.0;
            let mut volume_weighted_fraction = 0.0;
            for m in from_month..from_month + horizon_months {
                let acc = series.get(d.id, m);
                reads += acc.reads;
                volume_weighted_fraction += acc.reads * acc.read_fraction;
            }
            let read_fraction = if reads > 0.0 {
                (volume_weighted_fraction / reads).clamp(0.0, 1.0)
            } else {
                1.0
            };
            PartitionSpec::new(d.id, d.name.clone(), d.size_gb, reads)
                .with_latency_threshold(d.latency_threshold_seconds)
                .with_current_tier(current_tier)
                .with_read_fraction(read_fraction)
        })
        .collect();
    let mut problem = OptAssignProblem::new(catalog.clone(), partitions, horizon_months as f64);
    if let Some(t) = topology {
        problem = problem.with_topology(t);
    }
    let assignment = solve_greedy(&problem)?;
    Ok(assignment.choices.iter().map(|&(tier, _)| tier).collect())
}

/// The trained Random-Forest tier predictor.
#[derive(Debug)]
pub struct TierPredictor {
    model: RandomForestClassifier,
    features: PredictorFeatures,
    n_tiers: usize,
    topology: Option<ProviderTopology>,
}

impl TierPredictor {
    /// Train the predictor.
    ///
    /// Training examples are generated for every decision month `m` in
    /// `[features.lookback_months, train_until_month]`: the features are
    /// what was observable before `m`, the label is the ideal tier for the
    /// window `[m, m + horizon_months)`. Months after `train_until_month`
    /// are never seen during training, so evaluating at a later month is
    /// out-of-time validation.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        catalog: &TierCatalog,
        datasets: &DatasetCatalog,
        series: &AccessSeries,
        train_until_month: u32,
        horizon_months: u32,
        current_tier: TierId,
        features: PredictorFeatures,
        seed: u64,
    ) -> Result<Self, OptAssignError> {
        Self::train_with(
            catalog,
            None,
            datasets,
            series,
            train_until_month,
            horizon_months,
            current_tier,
            features,
            seed,
        )
    }

    /// Train over the merged tier space of a multi-provider catalog: the
    /// label classes are merged [`TierId`]s across every provider's ladder
    /// and the label-encoding objective is egress-aware, so the model
    /// learns *which cloud and tier* each dataset should live on.
    #[allow(clippy::too_many_arguments)]
    pub fn train_multi(
        providers: &ProviderCatalog,
        datasets: &DatasetCatalog,
        series: &AccessSeries,
        train_until_month: u32,
        horizon_months: u32,
        current_tier: TierId,
        features: PredictorFeatures,
        seed: u64,
    ) -> Result<Self, OptAssignError> {
        Self::train_with(
            &providers.merged_catalog(),
            Some(providers.topology()),
            datasets,
            series,
            train_until_month,
            horizon_months,
            current_tier,
            features,
            seed,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn train_with(
        catalog: &TierCatalog,
        topology: Option<ProviderTopology>,
        datasets: &DatasetCatalog,
        series: &AccessSeries,
        train_until_month: u32,
        horizon_months: u32,
        current_tier: TierId,
        features: PredictorFeatures,
        seed: u64,
    ) -> Result<Self, OptAssignError> {
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<usize> = Vec::new();
        let first_month = features.lookback_months;
        if train_until_month < first_month {
            return Err(OptAssignError::InvalidProblem(format!(
                "train_until_month {train_until_month} is before the lookback window {first_month}"
            )));
        }
        for month in first_month..=train_until_month {
            if month + horizon_months > series.months() {
                break;
            }
            let labels = ideal_tier_labels_with(
                catalog,
                topology.clone(),
                datasets,
                series,
                month,
                horizon_months,
                current_tier,
            )?;
            for d in datasets.iter() {
                if d.created_month > month {
                    continue; // dataset does not exist yet
                }
                xs.push(features.extract(d, series, month));
                ys.push(labels[d.id].index());
            }
        }
        if xs.is_empty() {
            return Err(OptAssignError::InvalidProblem(
                "no training examples could be generated".to_string(),
            ));
        }
        // Train on the shared column-major view: one build of the feature
        // matrix, index-based bagging and the deterministic parallel tree
        // fan-out underneath (bit-identical to the sequential path).
        let cols = ColumnMatrix::from_rows(&xs)
            .map_err(|e| OptAssignError::InvalidProblem(format!("training failed: {e}")))?;
        let model = RandomForestClassifier::fit_columns(
            &cols,
            &ys,
            ForestParams {
                n_trees: 60,
                seed,
                ..Default::default()
            },
        )
        .map_err(|e| OptAssignError::InvalidProblem(format!("training failed: {e}")))?;
        Ok(TierPredictor {
            model,
            features,
            n_tiers: catalog.len(),
            topology,
        })
    }

    /// Predict the tier for one dataset at the start of `at_month`.
    pub fn predict(&self, dataset: &DatasetMeta, series: &AccessSeries, at_month: u32) -> TierId {
        let x = self.features.extract(dataset, series, at_month);
        TierId(Classifier::predict_one(&self.model, &x).min(self.n_tiers - 1))
    }

    /// Predict tiers for every dataset in a catalog.
    ///
    /// Batched: extracts one column-major feature matrix and walks the
    /// forest through [`Classifier::predict_columns`], one row at a time —
    /// identical labels to calling [`TierPredictor::predict`] per dataset.
    pub fn predict_all(
        &self,
        datasets: &DatasetCatalog,
        series: &AccessSeries,
        at_month: u32,
    ) -> Vec<TierId> {
        let xs: Vec<Vec<f64>> = datasets
            .iter()
            .map(|d| self.features.extract(d, series, at_month))
            .collect();
        let Ok(cols) = ColumnMatrix::from_rows(&xs) else {
            return Vec::new(); // no datasets
        };
        self.model
            .predict_columns(&cols)
            .into_iter()
            .map(|c| TierId(c.min(self.n_tiers - 1)))
            .collect()
    }

    /// Evaluate predicted vs ideal tiers at `at_month` over the following
    /// `horizon_months`, producing the confusion matrix of Table III. For a
    /// predictor trained with [`TierPredictor::train_multi`], pass the
    /// merged catalog — the ideal labels are computed with the same egress
    /// awareness the training labels had.
    pub fn evaluate(
        &self,
        catalog: &TierCatalog,
        datasets: &DatasetCatalog,
        series: &AccessSeries,
        at_month: u32,
        horizon_months: u32,
        current_tier: TierId,
    ) -> Result<ConfusionMatrix, OptAssignError> {
        let ideal = ideal_tier_labels_with(
            catalog,
            self.topology.clone(),
            datasets,
            series,
            at_month,
            horizon_months,
            current_tier,
        )?;
        let predicted = self.predict_all(datasets, series, at_month);
        let truth: Vec<usize> = ideal.iter().map(|t| t.index()).collect();
        let preds: Vec<usize> = predicted.iter().map(|t| t.index()).collect();
        Ok(confusion_matrix(&truth, &preds, self.n_tiers))
    }
}

/// The intuitive tiering baselines of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieringBaseline {
    /// Keep everything on the hot (first) tier — the platform default.
    AllHot,
    /// "Hot if the data was accessed in the last `months` months, else
    /// cool" — the caching-inspired rules.
    HotIfAccessedWithin(u32),
    /// Use the tier that would have been optimal in the previous month.
    PreviousOptimal,
}

impl TieringBaseline {
    /// Produce a tier choice per dataset at the start of `at_month`.
    ///
    /// `hot` and `cool` are the tier ids the rule switches between;
    /// `horizon_months` is only used by [`TieringBaseline::PreviousOptimal`].
    #[allow(clippy::too_many_arguments)]
    pub fn assign(
        &self,
        catalog: &TierCatalog,
        datasets: &DatasetCatalog,
        series: &AccessSeries,
        at_month: u32,
        hot: TierId,
        cool: TierId,
        current_tier: TierId,
    ) -> Result<Vec<TierId>, OptAssignError> {
        match *self {
            TieringBaseline::AllHot => Ok(vec![hot; datasets.len()]),
            TieringBaseline::HotIfAccessedWithin(months) => Ok(datasets
                .iter()
                .map(|d| {
                    let from = at_month.saturating_sub(months);
                    let recent_reads = series.total_reads(d.id, from, at_month);
                    if recent_reads > 0.0 {
                        hot
                    } else {
                        cool
                    }
                })
                .collect()),
            TieringBaseline::PreviousOptimal => {
                let prev_month = at_month.saturating_sub(1);
                ideal_tier_labels(catalog, datasets, series, prev_month, 1, current_tier)
            }
        }
    }

    /// Name used in reports (matches the Table IV row labels).
    pub fn name(&self) -> String {
        match self {
            TieringBaseline::AllHot => "All hot".to_string(),
            TieringBaseline::HotIfAccessedWithin(m) => {
                format!("\"Hot\" if data accessed in last {m} mos")
            }
            TieringBaseline::PreviousOptimal => "Use optimal tier of prev. month".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_learn::f1_score;
    use scope_workload::{EnterpriseOptions, EnterpriseWorkload};

    fn workload() -> EnterpriseWorkload {
        EnterpriseWorkload::generate(EnterpriseOptions {
            n_datasets: 150,
            history_months: 10,
            future_months: 4,
            seed: 5,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn feature_extraction_shape_and_visibility() {
        let w = workload();
        let f = PredictorFeatures::default();
        let d = w.catalog.get(0).unwrap();
        let x = f.extract(d, &w.series, 6);
        assert_eq!(x.len(), 2 + 2 * 3);
        assert_eq!(x.len(), f.names().len());
        assert_eq!(x[0], d.size_gb);
        // Features at month 0 see no history (all zeros in the lookback).
        let x0 = f.extract(d, &w.series, 0);
        assert!(x0[2..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ideal_labels_put_unread_data_on_the_cool_tier() {
        let w = workload();
        let catalog = TierCatalog::azure_hot_cool();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let labels = ideal_tier_labels(&catalog, &w.catalog, &w.series, 10, 4, hot).unwrap();
        assert_eq!(labels.len(), w.catalog.len());
        // Every dataset with zero future reads must be labelled Cool (its
        // storage is cheaper and there is no read penalty).
        for d in w.catalog.iter() {
            let future_reads = w.series.total_reads(d.id, 10, 14);
            if future_reads == 0.0 {
                assert_eq!(labels[d.id], cool, "dataset {} should be cool", d.id);
            }
        }
        assert!(labels.contains(&cool));
    }

    #[test]
    fn ideal_labels_keep_heavily_read_data_hot() {
        // A hand-built two-dataset catalog: one dataset is scanned in full
        // thousands of times over the horizon (Hot is cheaper once read
        // costs dominate), the other is never read (Cool wins on storage).
        use scope_workload::{AccessPattern, DatasetMeta, MonthlyAccess};
        let catalog = TierCatalog::azure_hot_cool();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let datasets = scope_workload::DatasetCatalog::new(vec![
            DatasetMeta {
                id: 0,
                name: "busy".into(),
                size_gb: 100.0,
                created_month: 0,
                latency_threshold_seconds: f64::INFINITY,
                pattern: AccessPattern::Constant { rate: 500.0 },
            },
            DatasetMeta {
                id: 1,
                name: "cold".into(),
                size_gb: 100.0,
                created_month: 0,
                latency_threshold_seconds: f64::INFINITY,
                pattern: AccessPattern::Dormant,
            },
        ]);
        let mut series = AccessSeries::new(4);
        for m in 0..4 {
            series.set(
                0,
                m,
                MonthlyAccess {
                    reads: 500.0,
                    writes: 0.0,
                    read_fraction: 1.0,
                },
            );
        }
        let labels = ideal_tier_labels(&catalog, &datasets, &series, 0, 4, hot).unwrap();
        assert_eq!(labels[0], hot);
        assert_eq!(labels[1], cool);
    }

    #[test]
    fn predictor_learns_tiering_with_high_f1() {
        let w = workload();
        let catalog = TierCatalog::azure_hot_cool();
        let hot = catalog.tier_id("Hot").unwrap();
        let features = PredictorFeatures::default();
        // Train on months 3..=7, evaluate out-of-time at month 10.
        let predictor =
            TierPredictor::train(&catalog, &w.catalog, &w.series, 7, 2, hot, features, 42).unwrap();
        let cm = predictor
            .evaluate(&catalog, &w.catalog, &w.series, 10, 2, hot)
            .unwrap();
        assert_eq!(cm.total(), w.catalog.len());
        assert!(
            cm.accuracy() > 0.8,
            "accuracy = {} (confusion: {:?})",
            cm.accuracy(),
            cm.counts
        );
        assert!(f1_score(&cm, 1) > 0.8, "cool F1 = {}", f1_score(&cm, 1));
    }

    #[test]
    fn multi_provider_labels_cross_clouds_for_latency_bounded_cold_data() {
        use scope_workload::{AccessPattern, DatasetMeta, MonthlyAccess};
        let providers = ProviderCatalog::azure_s3_gcs();
        let azure_hot = providers.merged_tier_id("azure", "Hot").unwrap();
        let azure = providers.provider_id("azure").unwrap();
        let topo = providers.topology();
        // A cold dataset that must stay sub-second: azure's only compliant
        // cold tier is Cool (1.52), while gcs Coldline (0.4, ms-latency)
        // repays the 2 c/GB egress over 6 months.
        let datasets = scope_workload::DatasetCatalog::new(vec![DatasetMeta {
            id: 0,
            name: "cold-sla".into(),
            size_gb: 100.0,
            created_month: 0,
            latency_threshold_seconds: 1.0,
            pattern: AccessPattern::Dormant,
        }]);
        let mut series = AccessSeries::new(6);
        series.set(
            0,
            0,
            MonthlyAccess {
                reads: 0.0,
                writes: 0.0,
                read_fraction: 1.0,
            },
        );
        let labels =
            ideal_tier_labels_multi(&providers, &datasets, &series, 0, 6, azure_hot).unwrap();
        assert_ne!(topo.provider_of(labels[0]), Some(azure), "{:?}", labels);
        // With internet-priced egress the same dataset stays home.
        let expensive = providers.clone().with_egress_scale(10.0).unwrap();
        let labels =
            ideal_tier_labels_multi(&expensive, &datasets, &series, 0, 6, azure_hot).unwrap();
        assert_eq!(topo.provider_of(labels[0]), Some(azure), "{:?}", labels);
    }

    #[test]
    fn multi_provider_predictor_learns_merged_tier_labels() {
        let w = workload();
        let providers = ProviderCatalog::azure_s3_gcs();
        let azure_hot = providers.merged_tier_id("azure", "Hot").unwrap();
        let features = PredictorFeatures::default();
        let predictor = TierPredictor::train_multi(
            &providers, &w.catalog, &w.series, 7, 2, azure_hot, features, 42,
        )
        .unwrap();
        let merged = providers.merged_catalog();
        let cm = predictor
            .evaluate(&merged, &w.catalog, &w.series, 10, 2, azure_hot)
            .unwrap();
        assert_eq!(cm.total(), w.catalog.len());
        assert_eq!(cm.counts.len(), merged.len());
        assert!(
            cm.accuracy() > 0.6,
            "merged-space accuracy = {} (confusion: {:?})",
            cm.accuracy(),
            cm.counts
        );
        // Predictions live in the merged id space.
        let preds = predictor.predict_all(&w.catalog, &w.series, 10);
        assert!(preds.iter().all(|t| t.index() < merged.len()));
    }

    #[test]
    fn batched_predict_all_equals_per_dataset_predict() {
        let w = workload();
        let catalog = TierCatalog::azure_hot_cool();
        let hot = catalog.tier_id("Hot").unwrap();
        let predictor = TierPredictor::train(
            &catalog,
            &w.catalog,
            &w.series,
            7,
            2,
            hot,
            PredictorFeatures::default(),
            42,
        )
        .unwrap();
        let batched = predictor.predict_all(&w.catalog, &w.series, 10);
        let scalar: Vec<TierId> = w
            .catalog
            .iter()
            .map(|d| predictor.predict(d, &w.series, 10))
            .collect();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn baselines_produce_full_assignments() {
        let w = workload();
        let catalog = TierCatalog::azure_hot_cool();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        for baseline in [
            TieringBaseline::AllHot,
            TieringBaseline::HotIfAccessedWithin(1),
            TieringBaseline::HotIfAccessedWithin(2),
            TieringBaseline::PreviousOptimal,
        ] {
            let tiers = baseline
                .assign(&catalog, &w.catalog, &w.series, 10, hot, cool, hot)
                .unwrap();
            assert_eq!(tiers.len(), w.catalog.len(), "{}", baseline.name());
        }
        // AllHot really is all hot.
        let all_hot = TieringBaseline::AllHot
            .assign(&catalog, &w.catalog, &w.series, 10, hot, cool, hot)
            .unwrap();
        assert!(all_hot.iter().all(|&t| t == hot));
        // The recency rule sends never-accessed data to cool.
        let recency = TieringBaseline::HotIfAccessedWithin(2)
            .assign(&catalog, &w.catalog, &w.series, 10, hot, cool, hot)
            .unwrap();
        assert!(recency.contains(&cool));
        assert!(recency.contains(&hot));
    }

    #[test]
    fn training_validates_inputs() {
        let w = workload();
        let catalog = TierCatalog::azure_hot_cool();
        let hot = catalog.tier_id("Hot").unwrap();
        // train_until before the lookback window.
        assert!(TierPredictor::train(
            &catalog,
            &w.catalog,
            &w.series,
            1,
            2,
            hot,
            PredictorFeatures { lookback_months: 3 },
            1,
        )
        .is_err());
    }

    #[test]
    fn baseline_names_match_table_iv_style() {
        assert_eq!(TieringBaseline::AllHot.name(), "All hot");
        assert!(TieringBaseline::HotIfAccessedWithin(2)
            .name()
            .contains("2 mos"));
        assert!(TieringBaseline::PreviousOptimal.name().contains("prev"));
    }
}
