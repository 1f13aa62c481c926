//! Lifecycle tiering: objects that cool over time and get re-tiered at
//! billing-period boundaries.
//!
//! This is the scenario the day-granular billing timeline unlocks. The
//! enterprise generator's datasets follow decaying/periodic/spike access
//! patterns — they *cool* — but a placement frozen for the whole horizon
//! must average over that lifecycle. Here the pipeline instead:
//!
//! 1. generates an enterprise workload with a **day-resolution** access log
//!    (`scope-workload`),
//! 2. plans a cost-optimal per-period tier schedule per dataset with the
//!    residency-aware dynamic program (`scope-optassign::schedule`), which
//!    prices transition costs and day-exact early-deletion penalties,
//! 3. lowers the schedules onto the billing timeline and replays the
//!    actual day-stamped accesses through the day-granular billing engine
//!    (`scope-cloudsim`),
//!
//! and reports the realised cost against two frozen baselines: the all-hot
//! platform default and the best *static* OPTASSIGN placement. The sweep in
//! [`lifecycle_tradeoff`] varies the re-tiering granularity (every period,
//! every 2nd, ... never), quantifying what per-billing-period tier changes
//! are worth — the refinement the paper recommends over ad-hoc moves.

use crate::ScopeError;
use scope_cloudsim::{
    billing::Placement, BillingEvent, BillingReport, BillingSimulator, ObjectSpec,
    PlacementSchedule, TierCatalog, TierId, DAYS_PER_MONTH,
};
use scope_optassign::{ideal_tier_labels, ideal_tier_schedules, CompressionOption};
use scope_workload::{DatasetCatalog, EnterpriseOptions, EnterpriseWorkload};
use serde::{Deserialize, Serialize};

/// Fraction of a dataset's size written per write access (appends/updates,
/// not full rewrites) — the convention shared with the Enterprise Data I
/// experiment drivers in [`crate::enterprise`].
pub(crate) const WRITE_VOLUME_FRACTION: f64 = 0.05;

/// Options for the lifecycle experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleOptions {
    /// The enterprise account to generate (catalog + day-resolution log).
    pub workload: EnterpriseOptions,
    /// Tier catalog to optimize over.
    pub catalog: TierCatalog,
    /// Re-tiering granularity in billing periods (1 = every period).
    pub retier_every: u32,
}

impl Default for LifecycleOptions {
    fn default() -> Self {
        LifecycleOptions {
            workload: EnterpriseOptions::default(),
            catalog: TierCatalog::azure_hot_cool_archive(),
            retier_every: 1,
        }
    }
}

/// Outcome of the lifecycle experiment: realised day-granular costs of the
/// scheduled placement and its frozen baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleOutcome {
    /// Realised cost (cents) of keeping everything on the platform default
    /// (hot) tier.
    pub all_hot_total: f64,
    /// Realised cost of the best *static* OPTASSIGN placement (one tier
    /// per dataset, frozen for the horizon).
    pub static_total: f64,
    /// Realised cost of the per-period tier schedules.
    pub scheduled_total: f64,
    /// % cost benefit of the static placement over all-hot.
    pub benefit_static: f64,
    /// % cost benefit of the scheduled placement over all-hot.
    pub benefit_scheduled: f64,
    /// Number of mid-horizon tier transitions across all datasets.
    pub transitions: usize,
    /// Events outside the billed horizon (trace/horizon mismatches), from
    /// the scheduled run.
    pub dropped_events: u64,
}

/// Convert the day-resolution access log of a window
/// `[from_day, from_day + horizon_days)` into billing events with days
/// re-based to the window start. Read volume is `reads × fraction × size`;
/// write volume uses the appends-not-rewrites convention. Shared with the
/// multi-cloud scenario in [`crate::multicloud`]. A record naming a dataset
/// the catalog lacks is a [`ScopeError::Workload`].
pub(crate) fn billing_events(
    workload: &EnterpriseWorkload,
    from_day: u32,
    horizon_days: u32,
) -> Result<Vec<BillingEvent>, ScopeError> {
    let mut events = Vec::new();
    for r in workload.daily.records() {
        if r.day < from_day || r.day >= from_day + horizon_days {
            continue;
        }
        let d = workload.catalog.get(r.dataset).ok_or_else(|| {
            ScopeError::Workload(format!(
                "daily log references dataset {} outside the catalog",
                r.dataset
            ))
        })?;
        let day = r.day - from_day;
        if r.reads > 0.0 {
            events.push(BillingEvent::read(
                d.name.clone(),
                day,
                r.reads * r.read_fraction * d.size_gb,
            ));
        }
        if r.writes > 0.0 {
            events.push(BillingEvent::write(
                d.name.clone(),
                day,
                r.writes * WRITE_VOLUME_FRACTION * d.size_gb,
            ));
        }
    }
    Ok(events)
}

/// Place every dataset on `sim`, first on `current_tier` and then on
/// `schedules[d.id]`, and replay `events` over `horizon_days` days. Tables
/// II–IV, the lifecycle sweep and the multi-cloud comparison all bill
/// through here; they differ only in the simulator they hand in.
pub(crate) fn bill_schedules(
    mut sim: BillingSimulator,
    datasets: &DatasetCatalog,
    schedules: &[PlacementSchedule],
    current_tier: TierId,
    horizon_days: u32,
    events: &[BillingEvent],
) -> Result<BillingReport, ScopeError> {
    for d in datasets.iter() {
        sim.place_scheduled(
            ObjectSpec::new(d.name.clone(), d.size_gb).on_tier(current_tier),
            schedules[d.id].clone(),
        )?;
    }
    Ok(sim.run_days(horizon_days, events)?)
}

/// The granularity-independent part of the experiment: the generated
/// workload, its billing-event trace, and the two frozen baselines. Built
/// once and reused across a [`lifecycle_tradeoff`] sweep.
struct LifecycleContext {
    workload: EnterpriseWorkload,
    events: Vec<BillingEvent>,
    all_hot_report: BillingReport,
    static_report: BillingReport,
    hot: TierId,
    horizon_months: u32,
    horizon_days: u32,
}

/// Generate the account and evaluate everything that does not depend on the
/// re-tiering granularity.
fn prepare_lifecycle(options: &LifecycleOptions) -> Result<LifecycleContext, ScopeError> {
    let workload = EnterpriseWorkload::generate(options.workload.clone())?;
    let hot = options.catalog.tier_id("Hot")?;
    let start = workload.projection_start();
    let horizon_months = workload.options.future_months;
    let horizon_days = horizon_months * DAYS_PER_MONTH;
    let events = billing_events(&workload, start * DAYS_PER_MONTH, horizon_days)?;

    // Baseline 1: everything frozen on the platform default.
    let all_hot: Vec<PlacementSchedule> = workload
        .catalog
        .iter()
        .map(|_| PlacementSchedule::constant(Placement::uncompressed(hot)))
        .collect();
    let all_hot_report = bill_schedules(
        BillingSimulator::new(options.catalog.clone()),
        &workload.catalog,
        &all_hot,
        hot,
        horizon_days,
        &events,
    )?;

    // Baseline 2: the best static placement (one frozen tier per dataset).
    let labels = ideal_tier_labels(
        &options.catalog,
        &workload.catalog,
        &workload.series,
        start,
        horizon_months,
        hot,
    )?;
    let static_schedules: Vec<PlacementSchedule> = labels
        .iter()
        .map(|&t| PlacementSchedule::constant(Placement::uncompressed(t)))
        .collect();
    let static_report = bill_schedules(
        BillingSimulator::new(options.catalog.clone()),
        &workload.catalog,
        &static_schedules,
        hot,
        horizon_days,
        &events,
    )?;

    Ok(LifecycleContext {
        workload,
        events,
        all_hot_report,
        static_report,
        hot,
        horizon_months,
        horizon_days,
    })
}

/// Plan and replay the per-period schedules for one re-tiering granularity
/// against an already-prepared context.
fn run_prepared(
    options: &LifecycleOptions,
    ctx: &LifecycleContext,
) -> Result<LifecycleOutcome, ScopeError> {
    // Per-period schedules from the residency-aware DP, lowered onto the
    // billing timeline.
    let plans = ideal_tier_schedules(
        &options.catalog,
        &ctx.workload.catalog,
        &ctx.workload.series,
        ctx.workload.projection_start(),
        ctx.horizon_months,
        ctx.hot,
        WRITE_VOLUME_FRACTION,
        options.retier_every,
    )?;
    let transitions = plans.iter().map(|p| p.transition_count()).sum();
    let none = [CompressionOption::none()];
    let scheduled: Vec<PlacementSchedule> = plans
        .iter()
        .map(|p| p.to_placement_schedule(&none))
        .collect();
    let scheduled_report = bill_schedules(
        BillingSimulator::new(options.catalog.clone()),
        &ctx.workload.catalog,
        &scheduled,
        ctx.hot,
        ctx.horizon_days,
        &ctx.events,
    )?;

    Ok(LifecycleOutcome {
        all_hot_total: ctx.all_hot_report.total(),
        static_total: ctx.static_report.total(),
        scheduled_total: scheduled_report.total(),
        benefit_static: ctx.static_report.percent_benefit_vs(&ctx.all_hot_report),
        benefit_scheduled: scheduled_report.percent_benefit_vs(&ctx.all_hot_report),
        transitions,
        dropped_events: scheduled_report.dropped_events,
    })
}

/// Run the lifecycle experiment: generate the account, plan per-period
/// schedules, and replay the projection window's day-stamped accesses under
/// the scheduled placement and both frozen baselines.
pub fn run_lifecycle(options: &LifecycleOptions) -> Result<LifecycleOutcome, ScopeError> {
    let ctx = prepare_lifecycle(options)?;
    run_prepared(options, &ctx)
}

/// Sweep the re-tiering granularity: one [`LifecycleOutcome`] per entry of
/// `granularities` (in periods; use a value at least the horizon length for
/// "never re-tier"). The workload, trace and frozen baselines are generated
/// once and shared across the sweep — only the schedule planning and its
/// replay depend on the granularity. The trade-off mirrors the paper's
/// recommendation of per-billing-period tier changes: finer granularity can
/// only help the planned cost, and the sweep shows how much of the benefit
/// survives at coarser operational cadences.
pub fn lifecycle_tradeoff(
    options: &LifecycleOptions,
    granularities: &[u32],
) -> Result<Vec<(u32, LifecycleOutcome)>, ScopeError> {
    let ctx = prepare_lifecycle(options)?;
    granularities
        .iter()
        .map(|&g| {
            let opts = LifecycleOptions {
                retier_every: g.max(1),
                ..options.clone()
            };
            Ok((g, run_prepared(&opts, &ctx)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> LifecycleOptions {
        LifecycleOptions {
            workload: EnterpriseOptions {
                n_datasets: 100,
                history_months: 8,
                future_months: 6,
                seed: 21,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn lifecycle_beats_the_static_placement() {
        let outcome = run_lifecycle(&options()).unwrap();
        // Both optimized placements beat the platform default…
        assert!(outcome.benefit_static > 0.0, "{outcome:?}");
        assert!(outcome.benefit_scheduled > 0.0, "{outcome:?}");
        // …and per-period re-tiering beats (or at worst matches) the frozen
        // placement, because frozen placements are a special case of the
        // schedule space and the DP prices exactly what the engine bills.
        assert!(
            outcome.scheduled_total <= outcome.static_total * (1.0 + 1e-9),
            "{outcome:?}"
        );
        // Cooling datasets make some mid-horizon transitions worthwhile.
        assert!(outcome.transitions > 0, "{outcome:?}");
        assert_eq!(outcome.dropped_events, 0, "{outcome:?}");
        // The replayed trace is the projection window's own events, so the
        // lifecycle placement realises a real improvement, not a tie.
        assert!(
            outcome.scheduled_total < outcome.static_total,
            "{outcome:?}"
        );
    }

    #[test]
    fn finer_retier_granularity_is_never_worse() {
        let opts = LifecycleOptions {
            workload: EnterpriseOptions {
                n_datasets: 60,
                history_months: 6,
                future_months: 6,
                seed: 33,
                ..Default::default()
            },
            ..Default::default()
        };
        let sweep = lifecycle_tradeoff(&opts, &[1, 3, 6]).unwrap();
        assert_eq!(sweep.len(), 3);
        // Granularity 6 on a 6-period horizon = frozen placement.
        let frozen = &sweep[2].1;
        assert_eq!(frozen.transitions, 0);
        for w in sweep.windows(2) {
            assert!(
                w[0].1.scheduled_total <= w[1].1.scheduled_total * (1.0 + 1e-9),
                "granularity {} ({}) should not beat {} ({})",
                w[1].0,
                w[1].1.scheduled_total,
                w[0].0,
                w[0].1.scheduled_total,
            );
        }
    }
}
