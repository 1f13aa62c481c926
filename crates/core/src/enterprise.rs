//! Enterprise Data I experiments: Tables II–IV and Fig 3.
//!
//! These experiments operate at metadata level: a synthetic dataset catalog
//! plus access-log series from `scope-workload` stand in for the
//! proprietary Adobe Experience Platform accounts, OPTASSIGN (with `K = 0`,
//! i.e. no compression) picks tiers per dataset, and the
//! `scope-cloudsim` billing simulator replays the *actual* accesses of the
//! projection window to compute the realised "% cost benefit" relative to
//! the all-hot platform baseline.

use crate::lifecycle::{bill_schedules, WRITE_VOLUME_FRACTION};
use crate::ScopeError;
use scope_cloudsim::{
    billing::Placement, BillingEvent, BillingSimulator, PlacementSchedule, TierCatalog, TierId,
    DAYS_PER_MONTH,
};
use scope_learn::ConfusionMatrix;
use scope_optassign::{ideal_tier_labels, PredictorFeatures, TierPredictor, TieringBaseline};
use scope_workload::{AccessSeries, DatasetCatalog, EnterpriseOptions, EnterpriseWorkload};
use serde::{Deserialize, Serialize};

/// Result row of Table II: the projected % cost benefit for one customer
/// account at two horizons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CustomerBenefit {
    /// Customer label ("Customer A", ...).
    pub customer: String,
    /// Total catalog size in PB.
    pub total_size_pb: f64,
    /// % cost benefit over the all-hot baseline for a 2-month horizon
    /// (Hot/Cool tiers only).
    pub benefit_2_months: f64,
    /// % cost benefit for a 6-month horizon (Hot/Cool/Archive tiers).
    pub benefit_6_months: f64,
}

/// Result row of Table IV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineRow {
    /// Model / rule description.
    pub model: String,
    /// "Predicted", "Known" or "N/A".
    pub access_information: String,
    /// Horizon in months.
    pub duration_months: u32,
    /// % cost benefit over the all-hot baseline.
    pub benefit_percent: f64,
}

/// The window's monthly accesses as billing events: month `m`'s reads and
/// writes land on the first day of its billing period,
/// `(m - from_month) * DAYS_PER_MONTH`.
fn access_events(
    datasets: &DatasetCatalog,
    series: &AccessSeries,
    from_month: u32,
    horizon: u32,
) -> Vec<BillingEvent> {
    let mut events = Vec::new();
    for d in datasets.iter() {
        for m in from_month..from_month + horizon {
            let acc = series.get(d.id, m);
            let day = (m - from_month) * DAYS_PER_MONTH;
            if acc.reads > 0.0 {
                events.push(BillingEvent::read(
                    d.name.clone(),
                    day,
                    acc.reads * acc.read_fraction * d.size_gb,
                ));
            }
            if acc.writes > 0.0 {
                events.push(BillingEvent::write(
                    d.name.clone(),
                    day,
                    acc.writes * WRITE_VOLUME_FRACTION * d.size_gb,
                ));
            }
        }
    }
    events
}

/// Percentage benefit of assigning `tiers` relative to keeping everything on
/// `current_tier`, over the window `[from_month, from_month + horizon)`:
/// both placements billed against the window's actual accesses.
pub(crate) fn percent_benefit(
    catalog: &TierCatalog,
    datasets: &DatasetCatalog,
    series: &AccessSeries,
    tiers: &[TierId],
    current_tier: TierId,
    from_month: u32,
    horizon: u32,
) -> Result<f64, ScopeError> {
    let events = access_events(datasets, series, from_month, horizon);
    let bill = |tiers: &[TierId]| {
        let schedules: Vec<PlacementSchedule> = tiers
            .iter()
            .map(|&t| PlacementSchedule::constant(Placement::uncompressed(t)))
            .collect();
        bill_schedules(
            BillingSimulator::new(catalog.clone()),
            datasets,
            &schedules,
            current_tier,
            horizon * DAYS_PER_MONTH,
            &events,
        )
    };
    let baseline = bill(&vec![current_tier; datasets.len()])?;
    let optimized = bill(tiers)?;
    Ok(optimized.percent_benefit_vs(&baseline))
}

/// Reproduce Table II: % cost benefit for several customer accounts at 2-
/// and 6-month horizons, using OPTASSIGN with known future accesses
/// (`K = 0`, dataset-level placement).
pub fn customer_benefit_table(
    accounts: &[(String, EnterpriseOptions)],
) -> Result<Vec<CustomerBenefit>, ScopeError> {
    let mut rows = Vec::with_capacity(accounts.len());
    for (name, options) in accounts {
        let workload = EnterpriseWorkload::generate(options.clone())?;
        let start = workload.projection_start();
        let hot_cool = TierCatalog::azure_hot_cool();
        let hot = hot_cool.tier_id("Hot")?;
        let labels_2 = ideal_tier_labels(
            &hot_cool,
            &workload.catalog,
            &workload.series,
            start,
            2,
            hot,
        )?;
        let benefit_2 = percent_benefit(
            &hot_cool,
            &workload.catalog,
            &workload.series,
            &labels_2,
            hot,
            start,
            2,
        )?;
        let hca = TierCatalog::azure_hot_cool_archive();
        let hot_hca = hca.tier_id("Hot")?;
        let horizon6 = 6.min(workload.options.future_months);
        let labels_6 = ideal_tier_labels(
            &hca,
            &workload.catalog,
            &workload.series,
            start,
            horizon6,
            hot_hca,
        )?;
        let benefit_6 = percent_benefit(
            &hca,
            &workload.catalog,
            &workload.series,
            &labels_6,
            hot_hca,
            start,
            horizon6,
        )?;
        rows.push(CustomerBenefit {
            customer: name.clone(),
            total_size_pb: workload.catalog.total_size_pb(),
            benefit_2_months: benefit_2,
            benefit_6_months: benefit_6,
        });
    }
    Ok(rows)
}

/// Reproduce Table III: train the Random-Forest tier predictor on the
/// account's history and return the predicted-vs-ideal confusion matrix at
/// the start of the projection window.
pub fn predictor_confusion(
    options: &EnterpriseOptions,
    horizon_months: u32,
) -> Result<ConfusionMatrix, ScopeError> {
    let workload = EnterpriseWorkload::generate(options.clone())?;
    let catalog = TierCatalog::azure_hot_cool();
    let hot = catalog.tier_id("Hot")?;
    let eval_month = workload.projection_start();
    let train_until = eval_month.saturating_sub(horizon_months).max(3);
    let predictor = TierPredictor::train(
        &catalog,
        &workload.catalog,
        &workload.series,
        train_until,
        horizon_months,
        hot,
        PredictorFeatures::default(),
        options.seed,
    )?;
    Ok(predictor.evaluate(
        &catalog,
        &workload.catalog,
        &workload.series,
        eval_month,
        horizon_months,
        hot,
    )?)
}

/// Reproduce Table IV: compare OPTASSIGN (with predicted and with known
/// access information, at several horizons and tier sets) against the
/// intuitive caching / recency baselines.
pub fn tiering_baseline_comparison(
    options: &EnterpriseOptions,
) -> Result<Vec<BaselineRow>, ScopeError> {
    let workload = EnterpriseWorkload::generate(options.clone())?;
    let start = workload.projection_start();
    let catalog = TierCatalog::azure_hot_cool();
    let hot = catalog.tier_id("Hot")?;
    let cool = catalog.tier_id("Cool")?;
    let max_horizon = workload.options.future_months;
    let mut rows = Vec::new();

    // Rule-based baselines, evaluated over (up to) a 4-month window as in
    // the paper.
    let rule_horizon = 4.min(max_horizon);
    rows.push(BaselineRow {
        model: TieringBaseline::AllHot.name(),
        access_information: "N/A".to_string(),
        duration_months: 2.min(max_horizon),
        benefit_percent: 0.0,
    });
    for months in [2u32, 1] {
        let tiers = TieringBaseline::HotIfAccessedWithin(months).assign(
            &catalog,
            &workload.catalog,
            &workload.series,
            start,
            hot,
            cool,
            hot,
        )?;
        rows.push(BaselineRow {
            model: TieringBaseline::HotIfAccessedWithin(months).name(),
            access_information: "N/A".to_string(),
            duration_months: rule_horizon,
            benefit_percent: percent_benefit(
                &catalog,
                &workload.catalog,
                &workload.series,
                &tiers,
                hot,
                start,
                rule_horizon,
            )?,
        });
    }
    {
        let tiers = TieringBaseline::PreviousOptimal.assign(
            &catalog,
            &workload.catalog,
            &workload.series,
            start,
            hot,
            cool,
            hot,
        )?;
        rows.push(BaselineRow {
            model: TieringBaseline::PreviousOptimal.name(),
            access_information: "N/A".to_string(),
            duration_months: 2.min(max_horizon),
            benefit_percent: percent_benefit(
                &catalog,
                &workload.catalog,
                &workload.series,
                &tiers,
                hot,
                start,
                2.min(max_horizon),
            )?,
        });
    }

    // OptAssign with predicted access information (the trained RF).
    for horizon in [2u32, 4] {
        let horizon = horizon.min(max_horizon);
        let train_until = start.saturating_sub(horizon).max(3);
        let predictor = TierPredictor::train(
            &catalog,
            &workload.catalog,
            &workload.series,
            train_until,
            horizon,
            hot,
            PredictorFeatures::default(),
            options.seed,
        )?;
        let tiers = predictor.predict_all(&workload.catalog, &workload.series, start);
        rows.push(BaselineRow {
            model: "OptAssign (Hot, Cool)".to_string(),
            access_information: "Predicted".to_string(),
            duration_months: horizon,
            benefit_percent: percent_benefit(
                &catalog,
                &workload.catalog,
                &workload.series,
                &tiers,
                hot,
                start,
                horizon,
            )?,
        });
    }

    // OptAssign with known access information at increasing horizons.
    for horizon in [2u32, 4, 6] {
        let horizon = horizon.min(max_horizon);
        let tiers = ideal_tier_labels(
            &catalog,
            &workload.catalog,
            &workload.series,
            start,
            horizon,
            hot,
        )?;
        rows.push(BaselineRow {
            model: "OptAssign (Hot, Cool)".to_string(),
            access_information: "Known".to_string(),
            duration_months: horizon,
            benefit_percent: percent_benefit(
                &catalog,
                &workload.catalog,
                &workload.series,
                &tiers,
                hot,
                start,
                horizon,
            )?,
        });
    }

    // OptAssign with known accesses and the archive tier enabled.
    {
        let hca = TierCatalog::azure_hot_cool_archive();
        let hot_hca = hca.tier_id("Hot")?;
        let horizon = 6.min(max_horizon);
        let tiers = ideal_tier_labels(
            &hca,
            &workload.catalog,
            &workload.series,
            start,
            horizon,
            hot_hca,
        )?;
        rows.push(BaselineRow {
            model: "OptAssign (Hot, Cool, Archive)".to_string(),
            access_information: "Known".to_string(),
            duration_months: horizon,
            benefit_percent: percent_benefit(
                &hca,
                &workload.catalog,
                &workload.series,
                &tiers,
                hot_hca,
                start,
                horizon,
            )?,
        });
    }
    Ok(rows)
}

/// Per-dataset data for the Fig 3 scatter plots: (size GB, projected reads,
/// % cost benefit of the optimized tier vs staying hot) over a horizon.
pub fn benefit_scatter(
    options: &EnterpriseOptions,
    horizon_months: u32,
) -> Result<Vec<(f64, f64, f64)>, ScopeError> {
    let workload = EnterpriseWorkload::generate(options.clone())?;
    let start = workload.projection_start();
    let horizon = horizon_months.min(workload.options.future_months);
    let catalog = TierCatalog::azure_hot_cool_archive();
    let hot = catalog.tier_id("Hot")?;
    let labels = ideal_tier_labels(
        &catalog,
        &workload.catalog,
        &workload.series,
        start,
        horizon,
        hot,
    )?;
    let mut points = Vec::with_capacity(workload.catalog.len());
    for d in workload.catalog.iter() {
        // Simulate just this dataset under both placements.
        let single = DatasetCatalog::new(vec![d.clone()]);
        // Re-index: the single-dataset catalog re-assigns id 0, but the
        // series is keyed by the original id, so build a tiny series view.
        let mut series = AccessSeries::new(workload.series.months());
        for m in 0..workload.series.months() {
            series.set(0, m, workload.series.get(d.id, m));
        }
        let benefit = percent_benefit(
            &catalog,
            &single,
            &series,
            &[labels[d.id]],
            hot,
            start,
            horizon,
        )?;
        let reads = workload.series.total_reads(d.id, start, start + horizon);
        points.push((d.size_gb, reads, benefit));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_learn::f1_score;

    fn account(seed: u64, n: usize) -> EnterpriseOptions {
        EnterpriseOptions {
            n_datasets: n,
            history_months: 10,
            future_months: 6,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn customer_benefits_grow_with_horizon_and_are_positive() {
        let accounts = vec![
            ("Customer A".to_string(), account(1, 120)),
            ("Customer B".to_string(), account(2, 90)),
        ];
        let rows = customer_benefit_table(&accounts).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.total_size_pb > 0.0);
            assert!(
                r.benefit_2_months >= 0.0,
                "{}: 2-month benefit {}",
                r.customer,
                r.benefit_2_months
            );
            assert!(
                r.benefit_6_months > r.benefit_2_months,
                "{}: 6-month benefit {} should exceed 2-month {}",
                r.customer,
                r.benefit_6_months,
                r.benefit_2_months
            );
            // The paper reports 50-83% at 6 months with the archive tier.
            assert!(
                r.benefit_6_months > 20.0,
                "{}: 6-month benefit too small: {}",
                r.customer,
                r.benefit_6_months
            );
        }
    }

    #[test]
    fn predictor_confusion_matrix_is_near_diagonal() {
        let cm = predictor_confusion(&account(3, 150), 2).unwrap();
        assert_eq!(cm.total(), 150);
        assert!(cm.accuracy() > 0.8, "accuracy {}", cm.accuracy());
        assert!(f1_score(&cm, 0) > 0.5);
        assert!(f1_score(&cm, 1) > 0.8);
    }

    #[test]
    fn optassign_beats_caching_baselines_and_archive_helps() {
        let rows = tiering_baseline_comparison(&account(4, 120)).unwrap();
        assert_eq!(rows.len(), 10);
        let benefit = |model: &str, info: &str, dur: u32| -> f64 {
            rows.iter()
                .find(|r| {
                    r.model == model && r.access_information == info && r.duration_months == dur
                })
                .map(|r| r.benefit_percent)
                .unwrap_or_else(|| panic!("missing row {model}/{info}/{dur}"))
        };
        let all_hot = benefit("All hot", "N/A", 2);
        assert_eq!(all_hot, 0.0);
        let known2 = benefit("OptAssign (Hot, Cool)", "Known", 2);
        let known4 = benefit("OptAssign (Hot, Cool)", "Known", 4);
        let known6 = benefit("OptAssign (Hot, Cool)", "Known", 6);
        let predicted2 = benefit("OptAssign (Hot, Cool)", "Predicted", 2);
        let archive6 = benefit("OptAssign (Hot, Cool, Archive)", "Known", 6);
        // Longer horizons help; archive helps further; predictions are close
        // to the known-access optimum; everything beats doing nothing.
        assert!(known2 > 0.0);
        assert!(known6 >= known4 && known4 >= known2);
        assert!(archive6 > known6);
        assert!(predicted2 > 0.0);
        assert!(predicted2 >= known2 * 0.5);
        // The caching rules are clearly worse than OptAssign at comparable
        // horizons.
        let recency = benefit(&TieringBaseline::HotIfAccessedWithin(1).name(), "N/A", 4);
        let known_comparable = benefit("OptAssign (Hot, Cool)", "Known", 4);
        assert!(known_comparable > recency);
    }

    #[test]
    fn benefit_scatter_has_one_point_per_dataset() {
        let opts = account(5, 60);
        let points = benefit_scatter(&opts, 6).unwrap();
        assert_eq!(points.len(), 60);
        // Datasets that are never read should show a large benefit (they move
        // to cool/archive); at least some heavily read datasets show ~0.
        let max_benefit = points.iter().map(|p| p.2).fold(f64::NEG_INFINITY, f64::max);
        let min_benefit = points.iter().map(|p| p.2).fold(f64::INFINITY, f64::min);
        assert!(max_benefit > 30.0, "max benefit {max_benefit}");
        assert!(
            min_benefit >= -1e-6,
            "benefit should never be negative: {min_benefit}"
        );
    }
}
