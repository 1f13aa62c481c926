//! Per-billing-period placement schedules: the day-granular extension of
//! the OPTASSIGN objective.
//!
//! The paper's OPTASSIGN picks a partition's tier *and* compression scheme
//! together, and recommends *per-billing-period* tier changes: instead of
//! freezing one placement per object for the whole projection horizon, the
//! placement may move at period boundaries as data cools. This module
//! prices a per-period `(tier, scheme)` plan exactly the way the
//! day-granular billing engine bills it — per-period storage of the stored
//! bytes, read/write volume charges, decompression compute per read, moves
//! and in-place recompressions in the period they occur, and early-deletion
//! penalties pro-rated by the **days** of unmet minimum residency — and
//! finds the cost-optimal plan by dynamic programming
//! ([`plan_placement_schedule`]);
//! [`placement_schedule_cost`] prices an explicit plan.
//!
//! The DP state is `(tier, scheme, period the tier was entered)`: the entry
//! period is what makes residency accounting exact, since the days served
//! on a tier at the moment of a move determine the early-deletion penalty.
//! With `O` tier × scheme options and `T` periods the state space is
//! `O(O·T)` and the transition space `O(O²·T²)` — trivial for realistic
//! horizons (`T ≤ 24`).
//!
//! Tier-only planning is the one-scheme case: [`ideal_tier_schedules`]
//! runs the DP over `[CompressionOption::none()]`, whose plans lower onto
//! uncompressed placements.
//!
//! The DP also searches **merged multi-provider tier spaces**: with a
//! provider-aware [`CostModel`] every move also pays the inter-provider
//! egress charge on the bytes leaving the source, so a plan only crosses
//! clouds when the destination ladder's savings repay the egress (and any
//! unmet-residency penalty of the tier being left).

use crate::error::OptAssignError;
use crate::problem::{improves_minimum, CompressionOption};
use scope_cloudsim::billing::Placement;
use scope_cloudsim::timeline::{PlacementSchedule, DAYS_PER_MONTH};
use scope_cloudsim::{CostModel, TierCatalog, TierId};
use scope_workload::{AccessSeries, DatasetCatalog};
use serde::{Deserialize, Serialize};

/// Options for [`plan_placement_schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleOptions {
    /// Tier the object occupies before the horizon starts (`None` = newly
    /// ingested).
    pub current_tier: Option<TierId>,
    /// Days already served on `current_tier` before the horizon starts
    /// (counts against the tier's minimum residency period).
    pub residency_days: u32,
    /// Access-latency SLA: tiers whose TTFB exceeds this are never used.
    pub latency_threshold_seconds: f64,
    /// Re-tiering granularity: placement changes are only allowed at
    /// period boundaries that are multiples of this (1 = every billing
    /// period, `u32::MAX`-ish values degenerate to a frozen placement).
    pub retier_every: u32,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            current_tier: None,
            residency_days: 0,
            latency_threshold_seconds: f64::INFINITY,
            retier_every: 1,
        }
    }
}

/// Projected access volumes and read-event count of one object in one
/// billing period — the input row of the planner.
///
/// The billing engine charges decompression compute per access, not per
/// GB, so a scheme-aware plan needs the read *events* as well as the
/// volumes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PeriodUsage {
    /// GB expected to be read during the period.
    pub read_gb: f64,
    /// GB expected to be written during the period.
    pub write_gb: f64,
    /// Number of read accesses expected during the period (each pays the
    /// scheme's decompression compute).
    pub read_events: f64,
}

impl PeriodUsage {
    /// Convenience constructor.
    pub fn new(read_gb: f64, write_gb: f64, read_events: f64) -> Self {
        PeriodUsage {
            read_gb,
            write_gb,
            read_events,
        }
    }
}

/// A cost-optimal per-period `(tier, scheme)` schedule for one object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// Per billing period: the tier occupied and the index into the
    /// planner's scheme list of the compression scheme stored under.
    pub placements: Vec<(TierId, usize)>,
    /// The projected cost (cents) of the plan, priced exactly as the
    /// day-granular billing engine bills it — including mid-horizon
    /// recompression rewrites.
    pub planned_cost: f64,
}

impl PlacementPlan {
    /// Number of mid-horizon placement changes (tier or scheme).
    pub fn transition_count(&self) -> usize {
        self.placements.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Lower the plan onto the billing timeline, resolving scheme indices
    /// against the same `schemes` list the planner searched over; the
    /// transitions sit on period-boundary days.
    pub fn to_placement_schedule(&self, schemes: &[CompressionOption]) -> PlacementSchedule {
        let placement = |(tier, k): (TierId, usize)| Placement {
            tier,
            compression_ratio: schemes[k].ratio,
            decompression_seconds: schemes[k].decompress_seconds,
        };
        let mut schedule = PlacementSchedule::constant(placement(self.placements[0]));
        for (p, w) in self.placements.windows(2).enumerate() {
            if w[0] != w[1] {
                schedule =
                    schedule.with_transition((p as u32 + 1) * DAYS_PER_MONTH, placement(w[1]));
            }
        }
        schedule
    }
}

/// Early-deletion penalty (cents) for leaving `tier` after `days_served`
/// days — delegates to the shared [`CostModel::early_deletion_penalty`]
/// rule so the DP prices exactly what the billing engine charges.
fn departure_penalty(
    model: &CostModel,
    tier: TierId,
    size_gb: f64,
    days_served: u32,
) -> Result<f64, OptAssignError> {
    model
        .early_deletion_penalty(tier, size_gb, days_served)
        .map_err(|e| OptAssignError::InvalidProblem(e.to_string()))
}

fn validate_schemes(schemes: &[CompressionOption]) -> Result<(), OptAssignError> {
    if schemes.is_empty() {
        return Err(OptAssignError::InvalidProblem(
            "scheme list must contain at least one compression option".to_string(),
        ));
    }
    for s in schemes {
        if !s.ratio.is_finite() || s.ratio <= 0.0 {
            return Err(OptAssignError::InvalidProblem(format!(
                "scheme {} has invalid ratio {}",
                s.name, s.ratio
            )));
        }
        if !s.decompress_seconds.is_finite() || s.decompress_seconds < 0.0 {
            return Err(OptAssignError::InvalidProblem(format!(
                "scheme {} has invalid decompression time {}",
                s.name, s.decompress_seconds
            )));
        }
    }
    Ok(())
}

/// Cost (cents) of spending one period on `tier` compressed with `scheme`:
/// a full period of storage at the compressed size, read/write volume
/// charges on the compressed bytes (the billing engine divides every
/// event's volume by the segment ratio) and decompression compute per read
/// access.
fn period_usage_cost(
    model: &CostModel,
    tier: TierId,
    stored_gb: f64,
    scheme: &CompressionOption,
    usage: &PeriodUsage,
) -> f64 {
    model.storage_cost(tier, stored_gb, 1.0)
        + model.read_cost(tier, usage.read_gb / scheme.ratio, 1.0)
        + model.write_cost(tier, usage.write_gb / scheme.ratio)
        + model.decompression_cost(scheme.decompress_seconds, usage.read_events)
}

/// Find the cost-minimal per-period `(tier, scheme)` placement plan for
/// one object.
///
/// `periods[p]` is the projected usage of billing period `p`; the returned
/// plan has one placement per period. `allowed_tiers` optionally restricts
/// the search to a subset of the catalog (e.g. one provider's tiers inside
/// a merged catalog); `None` searches the whole catalog. The latency
/// threshold of `options` filters on top of this. With a provider-aware
/// model (see [`CostModel::with_topology`]) every move also pays egress,
/// so the optimum crosses providers only when the savings repay it.
///
/// The DP state is `(tier, scheme, period the tier was entered)`: a scheme
/// change that stays on the tier keeps the entry period (billing accrues
/// residency across consecutive same-tier segments), a tier change resets
/// it. Transition costs mirror the billing ledger branch for branch: a
/// mid-horizon tier change pays a read of the bytes resident under the old
/// scheme plus a write of the new stored size (plus egress and any unmet
/// residency on the source-resident bytes); an in-place recompression pays
/// the same read+write rewrite with no egress and no penalty; the day-0
/// segment on the object's current tier charges nothing (the pre-horizon
/// compression state is unknown).
pub fn plan_placement_schedule(
    model: &CostModel,
    size_gb: f64,
    schemes: &[CompressionOption],
    periods: &[PeriodUsage],
    options: &ScheduleOptions,
    allowed_tiers: Option<&[TierId]>,
) -> Result<PlacementPlan, OptAssignError> {
    let catalog = model.catalog();
    if periods.is_empty() {
        return Err(OptAssignError::InvalidProblem(
            "schedule horizon must cover at least one period".to_string(),
        ));
    }
    if !(size_gb >= 0.0) || !size_gb.is_finite() {
        return Err(OptAssignError::InvalidProblem(format!(
            "invalid object size {size_gb}"
        )));
    }
    validate_schemes(schemes)?;
    for u in periods {
        for (name, v) in [
            ("read_gb", u.read_gb),
            ("write_gb", u.write_gb),
            ("read_events", u.read_events),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(OptAssignError::InvalidProblem(format!(
                    "invalid period usage {name} {v}"
                )));
            }
        }
    }
    let retier_every = options.retier_every.max(1);
    let mut usable: Vec<TierId> = Vec::new();
    for id in allowed_tiers.map_or_else(|| catalog.tier_ids(), <[TierId]>::to_vec) {
        let tier = catalog
            .tier(id)
            .map_err(|e| OptAssignError::InvalidProblem(e.to_string()))?;
        if tier.ttfb_seconds <= options.latency_threshold_seconds {
            usable.push(id);
        }
    }
    if usable.is_empty() {
        return Err(OptAssignError::InvalidProblem(
            "no tier satisfies the latency threshold".to_string(),
        ));
    }

    // The DP's choice space is the cross product tier × scheme, tier-major;
    // the entry period in the state tracks the *tier* only, since that is
    // what residency accounting keys on. cost[idx(o, e)] is the minimal
    // cost of periods 0..=p on option o with its tier entered at the start
    // of period e; parents[p][state] is the state occupied at period p - 1
    // (usize::MAX marks the DP root at p = 0).
    let opts_list: Vec<(TierId, usize)> = usable
        .iter()
        .flat_map(|&t| (0..schemes.len()).map(move |k| (t, k)))
        .collect();
    let n = periods.len();
    let n_opts = opts_list.len();
    let stored: Vec<f64> = opts_list
        .iter()
        .map(|&(_, k)| size_gb / schemes[k].ratio)
        .collect();
    let idx = |o: usize, e: usize| o * n + e;
    let inf = f64::INFINITY;

    // Hoisted per-(option, period) stay costs and the option×option
    // placement-change matrix (the penalty term stays in the loop — it
    // depends on days served, which is state).
    let mut stay_cost = Vec::with_capacity(n_opts * n);
    for (&(tier, k), &gb) in opts_list.iter().zip(&stored) {
        let price = |u| period_usage_cost(model, tier, gb, &schemes[k], u);
        stay_cost.extend(periods.iter().map(price));
    }
    let mut change_cost = Vec::with_capacity(n_opts * n_opts);
    for (oi, &(ti, _)) in opts_list.iter().enumerate() {
        for (oj, &(tj, _)) in opts_list.iter().enumerate() {
            // A move reads (and egresses) the bytes resident under the old
            // scheme and writes the new stored size — exactly the billing
            // ledger's move branch; an in-place recompression is the same
            // rewrite with zero egress; same tier and size is no change.
            change_cost.push(if ti == tj && stored[oi] == stored[oj] {
                0.0
            } else {
                model.read_cost(ti, stored[oi], 1.0)
                    + model.write_cost(tj, stored[oj])
                    + model.egress_cost(Some(ti), tj, stored[oi])
            });
        }
    }

    let mut cost = vec![inf; n_opts * n];
    let mut parents: Vec<Vec<usize>> = Vec::with_capacity(n);

    // Seed: the day-0 placement. Staying on the current tier charges
    // nothing whatever the scheme (the pre-horizon compression state is
    // unknown — billing's legacy convention); moving pays read+write on
    // the destination's stored size, egress and residency penalty on the
    // uncompressed source bytes.
    for (o, &(tier, _)) in opts_list.iter().enumerate() {
        let mut c = model.read_write_cost(options.current_tier, tier, stored[o])
            + model.egress_cost(options.current_tier, tier, size_gb);
        if let Some(from) = options.current_tier {
            if from != tier {
                c += departure_penalty(model, from, size_gb, options.residency_days)?;
            }
        }
        c += stay_cost[o * n];
        cost[idx(o, 0)] = c;
    }
    parents.push(vec![usize::MAX; n_opts * n]);

    for p in 1..n {
        let mut next = vec![inf; n_opts * n];
        let mut parent = vec![usize::MAX; n_opts * n];
        let may_move = (p as u32) % retier_every == 0;
        for (oi, &(ti, _)) in opts_list.iter().enumerate() {
            for e in 0..p {
                let s = idx(oi, e);
                if cost[s] == inf {
                    continue;
                }
                // Keep the placement: entry period unchanged.
                let stay = cost[s] + stay_cost[oi * n + p];
                if stay < next[s] {
                    next[s] = stay;
                    parent[s] = s;
                }
                if !may_move {
                    continue;
                }
                // Days served on `ti` at the start of period p; the
                // pre-horizon residency counts if the object entered the
                // horizon on this tier without an initial move.
                let mut days_served = (p - e) as u32 * DAYS_PER_MONTH;
                if e == 0 && options.current_tier == Some(ti) {
                    days_served += options.residency_days;
                }
                let penalty = departure_penalty(model, ti, stored[oi], days_served)?;
                for (oj, &(tj, _)) in opts_list.iter().enumerate() {
                    if oj == oi {
                        continue;
                    }
                    // The penalty goes in before the destination's stay
                    // cost: with one scheme every sum is then the tier-only
                    // arithmetic `tests/differential_costtable.rs` pins bit
                    // for bit. A recompression that stays put keeps the
                    // tier's entry period: residency accrues.
                    let tier_change = tj != ti;
                    let mut c = cost[s] + change_cost[oi * n_opts + oj];
                    if tier_change {
                        c += penalty;
                    }
                    c += stay_cost[oj * n + p];
                    let d = idx(oj, if tier_change { p } else { e });
                    if c < next[d] {
                        next[d] = c;
                        parent[d] = s;
                    }
                }
            }
        }
        cost = next;
        parents.push(parent);
    }

    // The first strictly cheapest final state; a NaN-priced state (a tier
    // with NaN rates) never wins over a finite one.
    let mut best: Option<(usize, f64)> = None;
    for (state, &c) in cost.iter().enumerate() {
        if improves_minimum(c, best.map(|(_, b)| b)) {
            best = Some((state, c));
        }
    }
    let Some((mut state, planned_cost)) = best.filter(|&(_, c)| c.is_finite()) else {
        return Err(OptAssignError::InvalidProblem(
            "no feasible placement plan".to_string(),
        ));
    };
    let mut placements = vec![opts_list[0]; n];
    for p in (0..n).rev() {
        placements[p] = opts_list[state / n];
        state = parents[p][state];
    }
    debug_assert_eq!(state, usize::MAX, "walked past the DP root");
    Ok(PlacementPlan {
        placements,
        planned_cost,
    })
}

/// Price an *explicit* per-period `(tier, scheme)` placement sequence with
/// the same branch-for-branch billing arithmetic the DP optimizes (useful
/// for comparing a frozen placement against the optimal plan).
pub fn placement_schedule_cost(
    model: &CostModel,
    size_gb: f64,
    schemes: &[CompressionOption],
    periods: &[PeriodUsage],
    placements: &[(TierId, usize)],
    options: &ScheduleOptions,
) -> Result<f64, OptAssignError> {
    if placements.len() != periods.len() || periods.is_empty() {
        return Err(OptAssignError::InvalidProblem(format!(
            "placement sequence length {} does not match horizon {}",
            placements.len(),
            periods.len()
        )));
    }
    validate_schemes(schemes)?;
    let mut prev_tier = options.current_tier;
    let mut days_served = options.residency_days;
    let mut prev_stored = size_gb;
    let mut total = 0.0;
    for (p, (&(tier, k), usage)) in placements.iter().zip(periods).enumerate() {
        let scheme = schemes.get(k).ok_or_else(|| {
            OptAssignError::InvalidProblem(format!(
                "placement for period {p} names scheme {k}, only {} known",
                schemes.len()
            ))
        })?;
        let stored = size_gb / scheme.ratio;
        if prev_tier != Some(tier) {
            if let (true, Some(from)) = (p > 0, prev_tier) {
                total += model.read_cost(from, prev_stored, 1.0) + model.write_cost(tier, stored);
            } else {
                total += model.read_write_cost(prev_tier, tier, stored);
            }
            total += model.egress_cost(prev_tier, tier, prev_stored);
            if let Some(from) = prev_tier {
                total += departure_penalty(model, from, prev_stored, days_served)?;
            }
            days_served = 0;
        } else if p > 0 && stored != prev_stored {
            total += model.read_cost(tier, prev_stored, 1.0) + model.write_cost(tier, stored);
        }
        total += period_usage_cost(model, tier, stored, scheme, usage);
        days_served += DAYS_PER_MONTH;
        prev_tier = Some(tier);
        prev_stored = stored;
    }
    Ok(total)
}

/// Plan cost-optimal per-period tier schedules for every dataset in a
/// catalog, projecting access volumes from the (known or predicted) monthly
/// series — the per-billing-period counterpart of
/// [`ideal_tier_labels`](crate::predictor::ideal_tier_labels).
///
/// The plans search the one uncompressed scheme, so every scheme index is
/// 0; lower them with `to_placement_schedule(&[CompressionOption::none()])`.
/// `write_volume_fraction` is the fraction of a dataset's size written per
/// write access (writes are appends/updates, not full rewrites);
/// `retier_every` is the re-tiering granularity in periods (1 = every
/// billing period).
#[allow(clippy::too_many_arguments)]
pub fn ideal_tier_schedules(
    catalog: &TierCatalog,
    datasets: &DatasetCatalog,
    series: &AccessSeries,
    from_month: u32,
    horizon_months: u32,
    current_tier: TierId,
    write_volume_fraction: f64,
    retier_every: u32,
) -> Result<Vec<PlacementPlan>, OptAssignError> {
    ideal_tier_schedules_with_model(
        &CostModel::new(catalog.clone()),
        None,
        datasets,
        series,
        from_month,
        horizon_months,
        current_tier,
        write_volume_fraction,
        retier_every,
    )
}

/// [`ideal_tier_schedules`] over an explicit [`CostModel`] and an optional
/// tier restriction — the multi-provider entry point: pass a
/// provider-aware model over a merged catalog to plan cross-provider
/// schedules with egress-aware transition costs, and restrict
/// `allowed_tiers` to one provider's merged tier ids to plan a
/// single-provider baseline inside the same cost model.
///
/// Each dataset's DP is independent, so the plans are computed with the
/// deterministic parallel fan-out ([`scope_cloudsim::parallel`]): units of
/// datasets, merged in index order — the result (including which error is
/// reported first) is bit-for-bit the sequential loop's.
#[allow(clippy::too_many_arguments)]
pub fn ideal_tier_schedules_with_model(
    model: &CostModel,
    allowed_tiers: Option<&[TierId]>,
    datasets: &DatasetCatalog,
    series: &AccessSeries,
    from_month: u32,
    horizon_months: u32,
    current_tier: TierId,
    write_volume_fraction: f64,
    retier_every: u32,
) -> Result<Vec<PlacementPlan>, OptAssignError> {
    let datasets: Vec<_> = datasets.iter().collect();
    let schemes = [CompressionOption::none()];
    let plans = scope_cloudsim::parallel::parallel_map(&datasets, |_, d| {
        let periods: Vec<PeriodUsage> = (from_month..from_month + horizon_months)
            .map(|m| {
                let acc = series.get(d.id, m);
                PeriodUsage {
                    read_gb: acc.reads * acc.read_fraction * d.size_gb,
                    write_gb: acc.writes * write_volume_fraction * d.size_gb,
                    read_events: acc.reads,
                }
            })
            .collect();
        let options = ScheduleOptions {
            current_tier: Some(current_tier),
            latency_threshold_seconds: d.latency_threshold_seconds,
            retier_every,
            ..Default::default()
        };
        plan_placement_schedule(
            model,
            d.size_gb,
            &schemes,
            &periods,
            &options,
            allowed_tiers,
        )
    });
    // Index-order collection: the first error surfaced is the one the
    // sequential loop would have hit first.
    plans.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> TierCatalog {
        TierCatalog::azure_hot_cool_archive()
    }

    fn hot() -> TierId {
        catalog().tier_id("Hot").unwrap()
    }
    fn cool() -> TierId {
        catalog().tier_id("Cool").unwrap()
    }
    fn archive() -> TierId {
        catalog().tier_id("Archive").unwrap()
    }

    fn on_hot() -> ScheduleOptions {
        ScheduleOptions {
            current_tier: Some(hot()),
            ..Default::default()
        }
    }

    /// Tier-only usage: read and write volumes, no read events.
    fn usage(read_gb: f64, write_gb: f64) -> PeriodUsage {
        PeriodUsage::new(read_gb, write_gb, 0.0)
    }

    /// The tier-only plan: the one DP over the single uncompressed scheme.
    fn plan_tiers(
        catalog: &TierCatalog,
        size_gb: f64,
        periods: &[PeriodUsage],
        options: &ScheduleOptions,
    ) -> Result<PlacementPlan, OptAssignError> {
        let model = CostModel::new(catalog.clone());
        let none = [CompressionOption::none()];
        plan_placement_schedule(&model, size_gb, &none, periods, options, None)
    }

    /// The tiers of a plan, one per period.
    fn tiers(plan: &PlacementPlan) -> Vec<TierId> {
        plan.placements.iter().map(|&(t, _)| t).collect()
    }

    /// The price of an uncompressed tier sequence.
    fn price_tiers(size_gb: f64, periods: &[PeriodUsage], tiers: &[TierId]) -> f64 {
        let placements: Vec<(TierId, usize)> = tiers.iter().map(|&t| (t, 0)).collect();
        placement_schedule_cost(
            &CostModel::new(catalog()),
            size_gb,
            &[CompressionOption::none()],
            periods,
            &placements,
            &on_hot(),
        )
        .unwrap()
    }

    #[test]
    fn cold_object_moves_off_hot_immediately() {
        let periods = vec![PeriodUsage::default(); 6];
        let s = plan_tiers(&catalog(), 1000.0, &periods, &on_hot()).unwrap();
        assert_eq!(s.placements.len(), 6);
        assert!(tiers(&s).iter().all(|&t| t == archive()));
        assert!(s.planned_cost > 0.0);
    }

    #[test]
    fn hot_object_stays_hot() {
        let periods = vec![usage(50_000.0, 0.0); 4];
        let s = plan_tiers(&catalog(), 100.0, &periods, &on_hot()).unwrap();
        assert!(tiers(&s).iter().all(|&t| t == hot()));
        assert_eq!(s.transition_count(), 0);
    }

    #[test]
    fn cooling_object_is_retiered_mid_horizon() {
        // Heavy reads in the first periods, silence afterwards: the optimal
        // schedule starts Hot and moves to a colder tier once the reads
        // stop — the lifecycle the frozen placement cannot express.
        let mut periods = vec![usage(20_000.0, 0.0); 2];
        periods.extend(vec![PeriodUsage::default(); 8]);
        let s = plan_tiers(&catalog(), 100.0, &periods, &on_hot()).unwrap();
        let plan = tiers(&s);
        assert_eq!(plan[0], hot());
        assert!(s.transition_count() >= 1, "schedule: {plan:?}");
        assert_ne!(*plan.last().unwrap(), hot());
        // And the schedule strictly beats every frozen placement.
        for tier in catalog().tier_ids() {
            let frozen = price_tiers(100.0, &periods, &vec![tier; periods.len()]);
            assert!(
                s.planned_cost < frozen - 1e-6,
                "schedule {} vs frozen {:?} {}",
                s.planned_cost,
                tier,
                frozen
            );
        }
    }

    #[test]
    fn residency_penalty_blocks_premature_archive_exit() {
        // One quiet period on Cool: moving to Archive would pay Cool's
        // unmet 30-day residency plus the change cost for no storage gain
        // worth it at this horizon, so the DP stays put.
        let periods = vec![PeriodUsage::default()];
        let opts = ScheduleOptions {
            current_tier: Some(cool()),
            residency_days: 0,
            ..Default::default()
        };
        let s = plan_tiers(&catalog(), 100.0, &periods, &opts).unwrap();
        assert_eq!(tiers(&s), vec![cool()]);
        // With the residency window already met pre-horizon, the same
        // object is free to leave and the archive wins.
        let opts_met = ScheduleOptions {
            current_tier: Some(cool()),
            residency_days: 30,
            ..Default::default()
        };
        let s2 = plan_tiers(&catalog(), 100.0, &periods, &opts_met).unwrap();
        assert_eq!(tiers(&s2), vec![archive()]);
        assert!(s2.planned_cost < s.planned_cost);
    }

    #[test]
    fn dp_matches_schedule_cost_pricing() {
        // The DP's planned cost must equal re-pricing its own schedule.
        let periods = vec![
            usage(5000.0, 10.0),
            usage(100.0, 0.0),
            PeriodUsage::default(),
            PeriodUsage::default(),
        ];
        let s = plan_tiers(&catalog(), 250.0, &periods, &on_hot()).unwrap();
        let repriced = price_tiers(250.0, &periods, &tiers(&s));
        assert!(
            (s.planned_cost - repriced).abs() < 1e-9 * (1.0 + repriced),
            "dp {} vs repriced {}",
            s.planned_cost,
            repriced
        );
    }

    #[test]
    fn dp_beats_or_matches_every_frozen_placement() {
        for seed_reads in [0.0, 50.0, 5_000.0] {
            let periods: Vec<PeriodUsage> = (0..6)
                .map(|p| usage(seed_reads / (1 + p) as f64, 0.0))
                .collect();
            let s = plan_tiers(&catalog(), 42.0, &periods, &on_hot()).unwrap();
            for tier in catalog().tier_ids() {
                let frozen = price_tiers(42.0, &periods, &[tier; 6]);
                assert!(
                    s.planned_cost <= frozen + 1e-9,
                    "reads {seed_reads}: dp {} vs frozen {:?} {}",
                    s.planned_cost,
                    tier,
                    frozen
                );
            }
        }
    }

    #[test]
    fn latency_threshold_excludes_slow_tiers() {
        let periods = vec![PeriodUsage::default(); 3];
        let opts = ScheduleOptions {
            current_tier: Some(hot()),
            latency_threshold_seconds: 1.0, // excludes Archive's 3600 s TTFB
            ..Default::default()
        };
        let s = plan_tiers(&catalog(), 1000.0, &periods, &opts).unwrap();
        assert!(tiers(&s).iter().all(|&t| t == cool()), "{:?}", s.placements);
    }

    #[test]
    fn retier_every_limits_transition_boundaries() {
        // Strong cooling every period, but transitions only allowed every
        // 3 periods: tier changes must sit on multiples of 3.
        let mut periods = vec![usage(30_000.0, 0.0); 1];
        periods.extend(vec![PeriodUsage::default(); 8]);
        let opts = ScheduleOptions {
            retier_every: 3,
            ..on_hot()
        };
        let s = plan_tiers(&catalog(), 100.0, &periods, &opts).unwrap();
        for (p, w) in s.placements.windows(2).enumerate() {
            if w[0] != w[1] {
                assert_eq!(
                    (p as u32 + 1) % 3,
                    0,
                    "transition at boundary {} violates granularity",
                    p + 1
                );
            }
        }
        // The unconstrained schedule is at least as cheap.
        let free = plan_tiers(&catalog(), 100.0, &periods, &on_hot()).unwrap();
        assert!(free.planned_cost <= s.planned_cost + 1e-9);
    }

    #[test]
    fn placement_schedule_lowering_sits_on_period_boundaries() {
        let mut periods = vec![usage(20_000.0, 0.0); 2];
        periods.extend(vec![PeriodUsage::default(); 4]);
        let s = plan_tiers(&catalog(), 100.0, &periods, &on_hot()).unwrap();
        let plan = tiers(&s);
        // The one-scheme lowering is exactly the uncompressed placements.
        let placement = s.to_placement_schedule(&[CompressionOption::none()]);
        assert_eq!(*placement.initial(), Placement::uncompressed(plan[0]));
        for &(day, p) in placement.transitions() {
            assert_eq!(day % DAYS_PER_MONTH, 0);
            assert_eq!(
                p,
                Placement::uncompressed(plan[(day / DAYS_PER_MONTH) as usize])
            );
        }
        assert_eq!(placement.transitions().len(), s.transition_count());
    }

    #[test]
    fn multi_provider_dp_crosses_clouds_only_when_egress_pays_for_itself() {
        use scope_cloudsim::ProviderCatalog;
        let providers = ProviderCatalog::azure_s3_gcs();
        let model = CostModel::with_topology(providers.merged_catalog(), providers.topology());
        let azure_hot = providers.merged_tier_id("azure", "Hot").unwrap();
        let azure = providers.provider_id("azure").unwrap();
        let azure_tiers = providers.provider_tier_ids(azure).unwrap();
        let none = [CompressionOption::none()];
        // One busy period, then quiet; a 60 s latency SLA rules out the
        // azure and s3 archives, so azure's best cold tier is Cool
        // (1.52 c/GB/mo) while s3/gcs offer 0.4 c/GB/mo.
        let mut periods = vec![usage(5_000.0, 0.0)];
        periods.extend(vec![PeriodUsage::default(); 5]);
        let opts = ScheduleOptions {
            current_tier: Some(azure_hot),
            latency_threshold_seconds: 60.0,
            ..Default::default()
        };
        let plan = |model: &CostModel, allowed: Option<&[TierId]>| {
            plan_placement_schedule(model, 100.0, &none, &periods, &opts, allowed).unwrap()
        };
        let cross = plan(&model, None);
        let home_only = plan(&model, Some(&azure_tiers));
        // At ~2 c/GB interconnect egress the 1.12 c/GB/mo saving over the
        // remaining periods repays the move: the plan leaves azure…
        let topo = providers.topology();
        assert!(
            tiers(&cross)
                .iter()
                .any(|&t| topo.provider_of(t) != Some(azure)),
            "cross plan stayed home: {:?}",
            cross.placements
        );
        assert!(cross.planned_cost < home_only.planned_cost - 1e-6);
        // …and the restricted plan never does.
        assert!(tiers(&home_only)
            .iter()
            .all(|&t| topo.provider_of(t) == Some(azure)));

        // At public-internet egress (×10) crossing no longer pays: the
        // unrestricted optimum coincides with the azure-only plan.
        let expensive = providers.clone().with_egress_scale(10.0).unwrap();
        let model_x = CostModel::with_topology(expensive.merged_catalog(), expensive.topology());
        let stay = plan(&model_x, None);
        assert!(tiers(&stay)
            .iter()
            .all(|&t| topo.provider_of(t) == Some(azure)));
        assert!((stay.planned_cost - home_only.planned_cost).abs() < 1e-9);
    }

    #[test]
    fn allowed_tiers_restriction_validates_ids() {
        let periods = vec![PeriodUsage::default(); 2];
        let model = CostModel::new(catalog());
        let none = [CompressionOption::none()];
        let plan = |allowed: &[TierId]| {
            plan_placement_schedule(&model, 1.0, &none, &periods, &on_hot(), Some(allowed))
        };
        assert!(plan(&[TierId(99)]).is_err());
        // Restricting to a single tier forces a frozen schedule on it.
        let s = plan(&[cool()]).unwrap();
        assert!(tiers(&s).iter().all(|&t| t == cool()));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let invalid = |r: Result<PlacementPlan, OptAssignError>| {
            matches!(r, Err(OptAssignError::InvalidProblem(_)))
        };
        let quiet = [PeriodUsage::default()];
        assert!(invalid(plan_tiers(&catalog(), 1.0, &[], &on_hot())));
        assert!(invalid(plan_tiers(&catalog(), f64::NAN, &quiet, &on_hot())));
        // A negative or NaN volume is rejected at entry, not priced as a
        // negative cost or surfaced as "no feasible plan".
        for bad in [usage(-1.0, 0.0), usage(0.0, -1.0), usage(f64::NAN, 0.0)] {
            assert!(invalid(plan_tiers(&catalog(), 1.0, &[bad], &on_hot())));
        }
        let impossible = ScheduleOptions {
            latency_threshold_seconds: 1e-9,
            ..on_hot()
        };
        assert!(invalid(plan_tiers(&catalog(), 1.0, &quiet, &impossible)));
        assert!(placement_schedule_cost(
            &CostModel::new(catalog()),
            1.0,
            &[CompressionOption::none()],
            &quiet,
            &[],
            &on_hot()
        )
        .is_err());
        // A NaN-rated tier listed first never wins the final argmin: the
        // finite plan on the other tier comes back.
        let nan_first = TierCatalog::new(vec![
            scope_cloudsim::Tier::new("nan", f64::NAN, 0.0, 0.0, 0.01),
            scope_cloudsim::Tier::new("ok", 1.0, 0.1, 0.1, 0.01),
        ])
        .unwrap();
        let fresh = ScheduleOptions::default();
        let s = plan_tiers(&nan_first, 1.0, &quiet, &fresh).unwrap();
        assert_eq!(tiers(&s), vec![TierId(1)]);
        assert!(s.planned_cost.is_finite());
    }

    fn none_and_gzip() -> Vec<CompressionOption> {
        vec![
            CompressionOption::none(),
            CompressionOption::new("gzip", 4.0, 2.0),
        ]
    }

    /// Cost model whose compute rate makes decompression CPU a first-class
    /// cost: heavy-read periods then favor "none", quiet periods favor
    /// compressed storage, so optimal plans recompress mid-horizon.
    fn compute_heavy_catalog() -> TierCatalog {
        let mut c = catalog();
        c.compute_cost_cents_per_second = 50.0;
        c
    }

    /// Replay `plan` for a 100 GB object on `current` through the billing
    /// engine, with a trace matching the projected usage — per period,
    /// `read_events` reads sharing the read volume plus one write — and
    /// check it is billed exactly what the DP planned.
    fn assert_billed_as_planned(
        catalog: TierCatalog,
        current: TierId,
        plan: &PlacementPlan,
        schemes: &[CompressionOption],
        usage: &[PeriodUsage],
    ) {
        use scope_cloudsim::timeline::BillingEvent;
        use scope_cloudsim::{BillingSimulator, ObjectSpec};

        let mut sim = BillingSimulator::new(catalog);
        let obj = ObjectSpec::new("obj", 100.0).on_tier(current);
        sim.place_scheduled(obj, plan.to_placement_schedule(schemes))
            .unwrap();
        let mut events = Vec::new();
        for (p, u) in usage.iter().enumerate() {
            let day = p as u32 * DAYS_PER_MONTH;
            for i in 0..u.read_events as u32 {
                events.push(BillingEvent::read(
                    "obj",
                    day + i,
                    u.read_gb / u.read_events,
                ));
            }
            if u.write_gb > 0.0 {
                events.push(BillingEvent::write("obj", day + 5, u.write_gb));
            }
        }
        let horizon = usage.len() as u32 * DAYS_PER_MONTH;
        let billed = sim.run_days(horizon, &events).unwrap().total();
        assert!(
            (plan.planned_cost - billed).abs() < 1e-9 * (1.0 + billed),
            "planned {} vs billed {}",
            plan.planned_cost,
            billed
        );
    }

    #[test]
    fn compression_dp_matches_placement_pricer() {
        let mut usage = vec![PeriodUsage::new(300.0, 30.0, 3.0); 2];
        usage.extend([PeriodUsage::default(); 4]);
        let model = CostModel::new(compute_heavy_catalog());
        let schemes = none_and_gzip();
        let plan =
            plan_placement_schedule(&model, 100.0, &schemes, &usage, &on_hot(), None).unwrap();
        let repriced =
            placement_schedule_cost(&model, 100.0, &schemes, &usage, &plan.placements, &on_hot())
                .unwrap();
        assert!(
            (plan.planned_cost - repriced).abs() < 1e-9 * (1.0 + repriced),
            "dp {} vs repriced {}",
            plan.planned_cost,
            repriced
        );
    }

    /// The recompression-caveat regression test: an optimal plan that
    /// recompresses *in place* mid-horizon is billed exactly what the DP
    /// planned.
    #[test]
    fn in_place_recompression_plan_matches_billed_cost() {
        let catalog = compute_heavy_catalog();
        let schemes = none_and_gzip();
        // Two heavy-read periods (decompression CPU makes gzip a loss),
        // then four quiet ones (compressed storage wins, and the rewrite
        // cost is trivially repaid).
        let mut usage = vec![PeriodUsage::new(300.0, 30.0, 3.0); 2];
        usage.extend([PeriodUsage::default(); 4]);
        let only_hot = [hot()];
        let model = CostModel::new(catalog.clone());
        let plan =
            plan_placement_schedule(&model, 100.0, &schemes, &usage, &on_hot(), Some(&only_hot))
                .unwrap();
        assert!(
            plan.placements
                .windows(2)
                .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1),
            "plan never recompresses: {:?}",
            plan.placements
        );
        assert_eq!(
            plan.placements[0],
            (hot(), 0),
            "busy start should stay uncompressed"
        );
        assert_eq!(plan.placements[5].1, 1, "quiet tail should be compressed");
        assert_billed_as_planned(catalog, hot(), &plan, &schemes, &usage);

        // Residency accrues across an in-place recompression: on a tier
        // with a 90-day window the plan recompresses at period 1 and leaves
        // at period 3, when the window counted from period 0 is met. Had
        // the recompression restarted the count, leaving would pay 60
        // unmet days and staying would win.
        let mut catalog = TierCatalog::new(vec![
            scope_cloudsim::Tier::new("a", 10.0, 0.01, 0.01, 0.01).with_early_deletion_days(90),
            scope_cloudsim::Tier::new("b", 0.5, 10.0, 0.01, 0.01),
        ])
        .unwrap();
        catalog.compute_cost_cents_per_second = 50.0;
        let (a, b) = (TierId(0), TierId(1));
        let mut usage = vec![
            PeriodUsage::new(1000.0, 0.0, 20.0),
            PeriodUsage::new(1000.0, 0.0, 1.0),
        ];
        usage.extend([PeriodUsage::default(); 2]);
        let on_a = ScheduleOptions {
            current_tier: Some(a),
            ..Default::default()
        };
        let model = CostModel::new(catalog.clone());
        let plan = plan_placement_schedule(&model, 100.0, &schemes, &usage, &on_a, None).unwrap();
        assert_eq!(plan.placements, vec![(a, 0), (a, 1), (a, 1), (b, 1)]);
        assert_billed_as_planned(catalog, a, &plan, &schemes, &usage);
    }

    /// A mid-horizon move that recompresses in flight: the billing ledger
    /// reads/egresses the bytes resident under the old scheme but writes
    /// the new stored size, and the DP prices exactly that.
    #[test]
    fn move_with_recompression_matches_billed_cost() {
        let catalog = compute_heavy_catalog();
        let schemes = none_and_gzip();
        let mut usage = vec![PeriodUsage::new(10_000.0, 0.0, 3.0)];
        usage.extend([PeriodUsage::default(); 5]);
        let opts = ScheduleOptions {
            current_tier: Some(hot()),
            latency_threshold_seconds: 60.0, // rules out Archive
            ..Default::default()
        };
        let model = CostModel::new(catalog.clone());
        let plan = plan_placement_schedule(&model, 100.0, &schemes, &usage, &opts, None).unwrap();
        assert_eq!(plan.placements[0], (hot(), 0));
        assert!(
            plan.placements
                .windows(2)
                .any(|w| w[0].0 != w[1].0 && w[0].1 != w[1].1),
            "no simultaneous move + recompression: {:?}",
            plan.placements
        );
        assert_eq!(*plan.placements.last().unwrap(), (cool(), 1));
        assert_billed_as_planned(catalog, hot(), &plan, &schemes, &usage);
    }

    #[test]
    fn placement_planner_and_pricer_validate_inputs() {
        let usage = vec![PeriodUsage::default(); 2];
        let schemes = none_and_gzip();
        let model = CostModel::new(catalog());
        let plan = |schemes: &[CompressionOption], usage: &[PeriodUsage]| {
            plan_placement_schedule(&model, 1.0, schemes, usage, &on_hot(), None)
        };
        let price = |placements: &[(TierId, usize)]| {
            placement_schedule_cost(&model, 1.0, &schemes, &usage, placements, &on_hot())
        };
        // Empty scheme list.
        assert!(plan(&[], &usage).is_err());
        // Non-finite usage.
        assert!(plan(&schemes, &[PeriodUsage::new(f64::NAN, 0.0, 0.0)]).is_err());
        // Invalid scheme ratio.
        assert!(plan(&[CompressionOption::new("broken", 0.0, 0.0)], &usage).is_err());
        // Pricer: length mismatch and out-of-range scheme index.
        assert!(price(&[]).is_err());
        assert!(price(&[(hot(), 99), (hot(), 99)]).is_err());
    }

    #[test]
    fn ideal_tier_schedules_cover_every_dataset() {
        use scope_workload::{EnterpriseOptions, EnterpriseWorkload};
        let w = EnterpriseWorkload::generate(EnterpriseOptions {
            n_datasets: 60,
            history_months: 6,
            future_months: 4,
            seed: 9,
            ..Default::default()
        })
        .unwrap();
        let catalog = catalog();
        let hot = catalog.tier_id("Hot").unwrap();
        let schedules =
            ideal_tier_schedules(&catalog, &w.catalog, &w.series, 6, 4, hot, 0.05, 1).unwrap();
        assert_eq!(schedules.len(), 60);
        assert!(schedules.iter().all(|s| s.placements.len() == 4));
        assert!(schedules
            .iter()
            .all(|s| s.placements.iter().all(|&(_, k)| k == 0)));
        // The lake cools over time: at least one dataset is re-tiered
        // mid-horizon rather than frozen.
        assert!(schedules.iter().any(|s| s.transition_count() > 0));
    }
}
