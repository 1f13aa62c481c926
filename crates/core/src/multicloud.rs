//! Multi-cloud placement: the cooling enterprise workload placed inside a
//! single provider vs across a [`ProviderCatalog`], with egress priced in.
//!
//! The lifecycle scenario ([`crate::lifecycle`]) showed what per-period
//! re-tiering is worth inside one provider's ladder. This scenario asks the
//! SkyStore question on top of it: *does it pay to cross clouds?* The same
//! cooling enterprise account is placed three ways, all replayed through
//! the day-granular multi-provider billing engine
//! ([`BillingSimulator::multi_provider`]) so every comparison includes the
//! egress a real migration would be invoiced:
//!
//! 1. **All-home** — everything frozen on the home provider's default tier
//!    (the platform baseline),
//! 2. **Single-provider** — for each provider, the residency-aware
//!    schedule DP plans per-period tiers restricted to that provider's
//!    ladder (for a non-home provider the initial migration pays the
//!    home→provider egress on every byte),
//! 3. **Cross-provider** — the DP searches the merged tier space with
//!    egress-aware transition costs and crosses clouds only where the
//!    destination ladder repays the egress.
//!
//! The [`MultiCloudOutcome`] reports the egress-adjusted savings split:
//! what the best single cloud achieves over the baseline, and what
//! crossing adds on top. With the catalog's discounted-interconnect egress
//! matrix the cross-provider plan typically wins (latency-bounded cold
//! data reaches another cloud's cheap millisecond-latency tiers); scale
//! the matrix to public-internet rates
//! ([`ProviderCatalog::with_egress_scale`], ~×5 and up) and the optimum
//! collapses back to staying single-provider — both regimes are asserted
//! in `tests/integration_multicloud.rs`.

use crate::lifecycle::{bill_schedules, billing_events, WRITE_VOLUME_FRACTION};
use crate::ScopeError;
use scope_cloudsim::{
    billing::Placement, BillingSimulator, CostModel, PlacementSchedule, ProviderCatalog,
    ProviderTopology, TierId, DAYS_PER_MONTH,
};
use scope_optassign::{ideal_tier_schedules_with_model, CompressionOption, PlacementPlan};
use scope_workload::{EnterpriseOptions, EnterpriseWorkload};
use serde::{Deserialize, Serialize};

/// The provider the data currently lives on: the paper's enterprise
/// account is an Azure storage account.
const HOME_PROVIDER: &str = "azure";

/// The tier (inside the home provider) the data currently occupies: the
/// platform default, Azure's Hot tier.
const HOME_TIER: &str = "Hot";

/// Options for the multi-cloud experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCloudOptions {
    /// The enterprise account to generate (catalog + day-resolution log).
    pub workload: EnterpriseOptions,
    /// The providers to place across (tier ladders + egress matrix); it
    /// must hold the home tier, `HOME_PROVIDER`'s `HOME_TIER`.
    pub providers: ProviderCatalog,
}

impl Default for MultiCloudOptions {
    fn default() -> Self {
        MultiCloudOptions {
            workload: EnterpriseOptions::default(),
            providers: ProviderCatalog::azure_s3_gcs(),
        }
    }
}

/// Re-tiering granularity in billing periods: every period, so both the
/// single-provider and the cross-provider plans may move data as soon as
/// it cools, and the comparison isolates what crossing clouds adds.
const RETIER_EVERY: u32 = 1;

/// Realised cost of placing the account entirely inside one provider.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SingleProviderOutcome {
    /// Provider name.
    pub provider: String,
    /// Realised day-granular total (cents), including the initial
    /// migration egress when the provider is not the home provider.
    pub total: f64,
    /// Egress paid (cents) — zero for the home provider.
    pub egress: f64,
    /// Mid-horizon tier transitions across all datasets.
    pub transitions: usize,
}

/// Outcome of the multi-cloud experiment: the egress-adjusted savings
/// split between single-provider and cross-provider placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiCloudOutcome {
    /// Realised cost of freezing everything on the home default tier.
    pub all_home_total: f64,
    /// One outcome per provider, in provider-catalog order.
    pub single: Vec<SingleProviderOutcome>,
    /// Name of the cheapest single provider.
    pub best_single_provider: String,
    /// Its realised total (cents).
    pub best_single_total: f64,
    /// Realised total of the cross-provider placement (cents).
    pub cross_total: f64,
    /// Egress paid by the cross-provider placement (cents).
    pub cross_egress: f64,
    /// Mid-horizon transitions of the cross-provider placement.
    pub cross_transitions: usize,
    /// How many of the cross-provider plan's moves (including the initial
    /// placement off the home tier) actually cross a provider boundary.
    pub cross_provider_moves: usize,
    /// % cost benefit of the best single provider over the all-home
    /// baseline.
    pub benefit_best_single: f64,
    /// % cost benefit of the cross-provider placement over the all-home
    /// baseline.
    pub benefit_cross: f64,
    /// % saved by going cross-provider relative to the best single
    /// provider: `100 * (best_single - cross) / best_single`.
    pub savings_vs_best_single: f64,
    /// Events outside the billed horizon in the cross-provider run.
    pub dropped_events: u64,
}

/// Count the moves of a plan that cross a provider boundary, including the
/// initial move off the home tier.
fn count_cross_moves(plans: &[PlacementPlan], topo: &ProviderTopology, home: TierId) -> usize {
    let mut moves = 0;
    for plan in plans {
        let mut prev = home;
        for &(tier, _) in &plan.placements {
            if tier != prev && topo.crosses_providers(prev, tier) {
                moves += 1;
            }
            prev = tier;
        }
    }
    moves
}

/// Run the multi-cloud experiment.
pub fn run_multicloud(options: &MultiCloudOptions) -> Result<MultiCloudOutcome, ScopeError> {
    let providers = &options.providers;
    let topo = providers.topology();
    let model = CostModel::with_topology(providers.merged_catalog(), topo.clone());
    let home = providers.merged_tier_id(HOME_PROVIDER, HOME_TIER)?;
    let none = [CompressionOption::none()];

    let workload = EnterpriseWorkload::generate(options.workload.clone())?;
    let start = workload.projection_start();
    let horizon_months = workload.options.future_months;
    let horizon_days = horizon_months * DAYS_PER_MONTH;
    let events = billing_events(&workload, start * DAYS_PER_MONTH, horizon_days)?;

    // Baseline: everything frozen on the home default tier.
    let all_home: Vec<PlacementSchedule> = workload
        .catalog
        .iter()
        .map(|_| PlacementSchedule::constant(Placement::uncompressed(home)))
        .collect();
    let all_home_report = bill_schedules(
        BillingSimulator::multi_provider(providers),
        &workload.catalog,
        &all_home,
        home,
        horizon_days,
        &events,
    )?;

    // One restricted plan per provider.
    let mut single = Vec::with_capacity(providers.len());
    let mut single_reports = Vec::with_capacity(providers.len());
    for (pid, provider) in providers.iter() {
        let allowed = providers.provider_tier_ids(pid)?;
        let plans = ideal_tier_schedules_with_model(
            &model,
            Some(&allowed),
            &workload.catalog,
            &workload.series,
            start,
            horizon_months,
            home,
            WRITE_VOLUME_FRACTION,
            RETIER_EVERY,
        )?;
        let schedules: Vec<PlacementSchedule> = plans
            .iter()
            .map(|p| p.to_placement_schedule(&none))
            .collect();
        let report = bill_schedules(
            BillingSimulator::multi_provider(providers),
            &workload.catalog,
            &schedules,
            home,
            horizon_days,
            &events,
        )?;
        single.push(SingleProviderOutcome {
            provider: provider.name.clone(),
            total: report.total(),
            egress: report.total_breakdown().egress,
            transitions: plans.iter().map(|p| p.transition_count()).sum(),
        });
        single_reports.push(report);
    }
    let best_idx = (0..single.len())
        .min_by(|&a, &b| {
            single[a]
                .total
                .partial_cmp(&single[b].total)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .ok_or_else(|| ScopeError::InvalidConfig("no providers to compare".into()))?;

    // The cross-provider plan over the full merged space.
    let cross_plans = ideal_tier_schedules_with_model(
        &model,
        None,
        &workload.catalog,
        &workload.series,
        start,
        horizon_months,
        home,
        WRITE_VOLUME_FRACTION,
        RETIER_EVERY,
    )?;
    let cross_schedules: Vec<PlacementSchedule> = cross_plans
        .iter()
        .map(|p| p.to_placement_schedule(&none))
        .collect();
    let cross_report = bill_schedules(
        BillingSimulator::multi_provider(providers),
        &workload.catalog,
        &cross_schedules,
        home,
        horizon_days,
        &events,
    )?;

    let best_single_total = single[best_idx].total;
    let savings_vs_best_single = if best_single_total > 0.0 {
        100.0 * (best_single_total - cross_report.total()) / best_single_total
    } else {
        0.0
    };
    Ok(MultiCloudOutcome {
        all_home_total: all_home_report.total(),
        best_single_provider: single[best_idx].provider.clone(),
        best_single_total,
        cross_total: cross_report.total(),
        cross_egress: cross_report.total_breakdown().egress,
        cross_transitions: cross_plans.iter().map(|p| p.transition_count()).sum(),
        cross_provider_moves: count_cross_moves(&cross_plans, &topo, home),
        benefit_best_single: single_reports[best_idx].percent_benefit_vs(&all_home_report),
        benefit_cross: cross_report.percent_benefit_vs(&all_home_report),
        savings_vs_best_single,
        dropped_events: cross_report.dropped_events,
        single,
    })
}

/// Sweep the egress scale: run the experiment at each multiple of the
/// catalog's egress matrix (0 = free interconnect, 1 = the shipped
/// discounted rates, ~5 = public internet prices). Everything else —
/// workload seed, home placement, granularity — is held fixed, so the
/// sweep isolates what egress pricing does to the single-vs-cross split.
///
/// The per-scale experiments are independent full pipelines (workload
/// generation → schedule DP → day-granular replay), so they fan out with
/// the deterministic parallel helper of [`scope_cloudsim::parallel`] and
/// merge in scale order — the sweep output is bit-for-bit the sequential
/// loop's.
pub fn multicloud_egress_sweep(
    options: &MultiCloudOptions,
    scales: &[f64],
) -> Result<Vec<(f64, MultiCloudOutcome)>, ScopeError> {
    scope_cloudsim::parallel::parallel_map(scales, |_, &scale| {
        let scaled = MultiCloudOptions {
            providers: options
                .providers
                .clone()
                .with_egress_scale(scale)
                .map_err(|e| ScopeError::InvalidConfig(e.to_string()))?,
            ..options.clone()
        };
        Ok((scale, run_multicloud(&scaled)?))
    })
    .into_iter()
    .collect()
}

/// The merged placement never loses to staying inside any one provider:
/// the restricted plans are points of the merged search space priced by the
/// same egress-aware model.
#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> MultiCloudOptions {
        MultiCloudOptions {
            workload: EnterpriseOptions {
                n_datasets: 80,
                history_months: 6,
                future_months: 6,
                seed: 17,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn cross_provider_never_loses_to_any_single_provider() {
        let outcome = run_multicloud(&options()).unwrap();
        assert_eq!(outcome.single.len(), 3);
        assert_eq!(outcome.dropped_events, 0);
        for s in &outcome.single {
            assert!(
                outcome.cross_total <= s.total * (1.0 + 1e-9),
                "cross {} loses to {} {}",
                outcome.cross_total,
                s.provider,
                s.total
            );
        }
        // The home provider pays no egress; the others migrate everything.
        let home = outcome
            .single
            .iter()
            .find(|s| s.provider == "azure")
            .unwrap();
        assert_eq!(home.egress, 0.0);
        for s in &outcome.single {
            if s.provider != "azure" {
                assert!(s.egress > 0.0, "{} paid no egress", s.provider);
            }
        }
        // Both optimized placements beat the all-home baseline.
        assert!(outcome.benefit_best_single > 0.0, "{outcome:?}");
        assert!(
            outcome.benefit_cross >= outcome.benefit_best_single,
            "{outcome:?}"
        );
    }

    #[test]
    fn egress_sweep_is_monotone_in_the_cross_total() {
        let sweep = multicloud_egress_sweep(&options(), &[0.0, 1.0, 10.0]).unwrap();
        assert_eq!(sweep.len(), 3);
        // More expensive egress can only make the realised cross-provider
        // plan costlier (the plan re-optimizes, but the free-egress optimum
        // dominates every priced one).
        for w in sweep.windows(2) {
            assert!(
                w[0].1.cross_total <= w[1].1.cross_total * (1.0 + 1e-9),
                "scale {} total {} vs scale {} total {}",
                w[0].0,
                w[0].1.cross_total,
                w[1].0,
                w[1].1.cross_total
            );
        }
        // Free egress crosses at least as often as internet-priced egress.
        assert!(sweep[0].1.cross_provider_moves >= sweep[2].1.cross_provider_moves);
    }
}
