//! Integration and property-based tests of the day-granular billing
//! engine: cost invariants, the month-aligned equivalence contract, and
//! day-exact early-deletion accounting.

use proptest::prelude::*;
use scope_cloudsim::{
    billing::Placement, AccessEvent, AccessKind, BillingEvent, BillingReport, BillingSimulator,
    CostBreakdown, CostModel, MonthlyCost, ObjectSpec, PlacementSchedule, TierCatalog, TierId,
    DAYS_PER_MONTH,
};

/// A generated object + placement-schedule fixture, decoded from flat
/// proptest primitives.
struct Fixture {
    objects: Vec<(ObjectSpec, PlacementSchedule)>,
    events: Vec<BillingEvent>,
}

/// Decode flat random vectors into objects, schedules and events. `months`
/// aligns transitions to period boundaries when `month_aligned` is true;
/// otherwise transitions land on arbitrary days.
#[allow(clippy::too_many_arguments)]
fn build_fixture(
    catalog: &TierCatalog,
    sizes: &[f64],
    tier_picks: &[usize],
    residencies: &[u32],
    transition_days: &[u32],
    event_volumes: &[f64],
    horizon_days: u32,
    month_aligned: bool,
) -> Fixture {
    let n_tiers = catalog.len();
    let mut objects = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let pick = |j: usize| TierId(tier_picks[(i * 3 + j) % tier_picks.len()] % n_tiers);
        let current = if tier_picks[i % tier_picks.len()] % 3 == 0 {
            None
        } else {
            Some(pick(0))
        };
        let mut obj = ObjectSpec::new(format!("obj-{i}"), size)
            .with_residency_days(residencies[i % residencies.len()]);
        if let Some(t) = current {
            obj = obj.on_tier(t);
        }
        let mut schedule = PlacementSchedule::constant(Placement::uncompressed(pick(1)));
        let raw_day = transition_days[i % transition_days.len()] % horizon_days.max(1);
        let day = if month_aligned {
            (raw_day / DAYS_PER_MONTH) * DAYS_PER_MONTH
        } else {
            raw_day
        };
        if day > 0 {
            schedule = schedule.with_transition(day, Placement::uncompressed(pick(2)));
        }
        objects.push((obj, schedule));
    }
    let events = event_volumes
        .iter()
        .enumerate()
        .map(|(k, &v)| {
            let object = format!("obj-{}", k % sizes.len().max(1));
            let day = (transition_days[k % transition_days.len()] ^ k as u32) % (horizon_days + 5);
            if k % 3 == 0 {
                BillingEvent::write(object, day, v)
            } else {
                BillingEvent::read(object, day, v)
            }
        })
        .collect();
    Fixture { objects, events }
}

/// Independent reference implementation of the month-granular replay (the
/// legacy algorithm plus the residency-pro-rated early-deletion fix): whole
/// months of storage, moves and penalties booked in month 0, accesses in
/// their month. The day-granular engine must reproduce it bit-for-bit on
/// month-aligned inputs.
fn reference_monthly_replay(
    catalog: &TierCatalog,
    objects: &[(ObjectSpec, Placement)],
    horizon_months: u32,
    accesses: &[AccessEvent],
) -> BillingReport {
    let model = CostModel::new(catalog.clone());
    let mut months: Vec<MonthlyCost> = (0..horizon_months)
        .map(|m| MonthlyCost {
            month: m,
            ..Default::default()
        })
        .collect();
    let mut per_object: std::collections::BTreeMap<std::sync::Arc<str>, f64> =
        std::collections::BTreeMap::new();
    for (obj, placement) in objects {
        let stored_gb = obj.size_gb / placement.compression_ratio.max(f64::MIN_POSITIVE);
        let mut obj_total = 0.0;
        for m in months.iter_mut() {
            let c = model.storage_cost(placement.tier, stored_gb, 1.0);
            m.breakdown.storage += c;
            obj_total += c;
        }
        let change = model.read_write_cost(obj.current_tier, placement.tier, stored_gb);
        months[0].breakdown.write += change;
        obj_total += change;
        if let Some(from) = obj.current_tier {
            if from != placement.tier {
                let from_tier = catalog.tier(from).unwrap();
                if from_tier.early_deletion_days > obj.residency_days {
                    let unmet = from_tier.early_deletion_days - obj.residency_days;
                    let penalty = from_tier.storage_cost_cents_per_gb_month
                        * obj.size_gb
                        * (unmet as f64 / 30.0);
                    months[0].early_deletion_penalty += penalty;
                    obj_total += penalty;
                }
            }
        }
        per_object.insert(obj.name.as_str().into(), obj_total);
    }
    let mut dropped_events = 0u64;
    for ev in accesses {
        if ev.month >= horizon_months {
            dropped_events += 1;
            continue;
        }
        let Some((_, placement)) = objects.iter().find(|(o, _)| o.name == ev.object) else {
            continue;
        };
        let effective_gb = ev.volume_gb / placement.compression_ratio.max(f64::MIN_POSITIVE);
        let m = &mut months[ev.month as usize];
        let cost = match ev.kind {
            AccessKind::Read => {
                let read = model.read_cost(placement.tier, effective_gb, 1.0);
                let decomp = model.decompression_cost(placement.decompression_seconds, 1.0);
                m.breakdown.read += read;
                m.breakdown.decompression += decomp;
                read + decomp
            }
            AccessKind::Write => {
                let w = model.write_cost(placement.tier, effective_gb);
                m.breakdown.write += w;
                w
            }
        };
        *per_object.entry(ev.object.as_str().into()).or_insert(0.0) += cost;
    }
    BillingReport {
        months,
        per_object: per_object.into(),
        dropped_events,
    }
}

fn assert_finite_non_negative(report: &BillingReport) -> Result<(), String> {
    for m in &report.months {
        for c in [
            m.breakdown.storage,
            m.breakdown.read,
            m.breakdown.write,
            m.breakdown.decompression,
            m.early_deletion_penalty,
        ] {
            if !(c.is_finite() && c >= 0.0) {
                return Err(format!("month {} has invalid cost {c}", m.month));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All costs of a day-granular run are finite and non-negative, the
    /// per-period totals sum to the report total, the component breakdowns
    /// sum consistently, and the per-object attribution accounts for every
    /// cent.
    #[test]
    fn day_engine_cost_invariants(
        sizes in proptest::collection::vec(0.0f64..2000.0, 1..6),
        tier_picks in proptest::collection::vec(0usize..12, 6),
        residencies in proptest::collection::vec(0u32..400, 4),
        transition_days in proptest::collection::vec(0u32..400, 5),
        event_volumes in proptest::collection::vec(0.0f64..100.0, 0..24),
        horizon_days in 1u32..220,
    ) {
        let catalog = TierCatalog::azure_adls_gen2();
        let fixture = build_fixture(
            &catalog, &sizes, &tier_picks, &residencies, &transition_days,
            &event_volumes, horizon_days, false,
        );
        let mut sim = BillingSimulator::new(catalog);
        for (obj, schedule) in &fixture.objects {
            sim.place_scheduled(obj.clone(), schedule.clone()).unwrap();
        }
        let report = sim.run_days(horizon_days, &fixture.events).unwrap();

        prop_assert_eq!(report.months.len() as u32, horizon_days.div_ceil(DAYS_PER_MONTH));
        prop_assert!(assert_finite_non_negative(&report).is_ok(),
            "{:?}", assert_finite_non_negative(&report));

        // Per-period totals sum to the grand total.
        let month_sum: f64 = report.months.iter().map(|m| m.total()).sum();
        prop_assert!((month_sum - report.total()).abs() <= 1e-9 * (1.0 + month_sum.abs()));

        // The breakdown aggregation is consistent with the period entries.
        let agg: CostBreakdown = report.total_breakdown();
        let agg_sum = agg.total()
            + report.months.iter().map(|m| m.early_deletion_penalty).sum::<f64>();
        prop_assert!((agg_sum - report.total()).abs() <= 1e-9 * (1.0 + report.total().abs()));

        // Every cent is attributed to an object (unknown-object events are
        // ignored by construction: all events name placed objects).
        let attributed: f64 = report.per_object.values().sum();
        prop_assert!(
            (attributed - report.total()).abs() <= 1e-6 * (1.0 + report.total().abs()),
            "attributed {} vs total {}", attributed, report.total()
        );

        // Dropped events are exactly the out-of-horizon ones.
        let expected_dropped = fixture.events.iter().filter(|e| e.day >= horizon_days).count() as u64;
        prop_assert_eq!(report.dropped_events, expected_dropped);
    }

    /// The equivalence contract of the refactor: on month-aligned inputs
    /// (constant placements, monthly events) the day-granular engine
    /// reproduces the legacy monthly replay **bit-for-bit** — same months,
    /// same per-object totals, same drop counts.
    #[test]
    fn day_engine_matches_legacy_monthly_replay_bit_for_bit(
        sizes in proptest::collection::vec(0.0f64..2000.0, 1..6),
        tier_picks in proptest::collection::vec(0usize..12, 6),
        residencies in proptest::collection::vec(0u32..400, 4),
        event_volumes in proptest::collection::vec(0.0f64..100.0, 0..24),
        event_months in proptest::collection::vec(0u32..10, 8),
        horizon_months in 1u32..8,
    ) {
        let catalog = TierCatalog::azure_adls_gen2();
        let n_tiers = catalog.len();
        let mut placed: Vec<(ObjectSpec, Placement)> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let pick = |j: usize| TierId(tier_picks[(i * 3 + j) % tier_picks.len()] % n_tiers);
            let mut obj = ObjectSpec::new(format!("obj-{i}"), size)
                .with_residency_days(residencies[i % residencies.len()]);
            if tier_picks[i % tier_picks.len()] % 3 != 0 {
                obj = obj.on_tier(pick(0));
            }
            placed.push((obj, Placement::uncompressed(pick(1))));
        }
        let accesses: Vec<AccessEvent> = event_volumes
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let object = format!("obj-{}", k % sizes.len());
                let month = event_months[k % event_months.len()];
                if k % 3 == 0 {
                    AccessEvent::write(object, month, v)
                } else {
                    AccessEvent::read(object, month, v)
                }
            })
            .collect();

        let mut sim = BillingSimulator::new(catalog.clone());
        for (obj, placement) in &placed {
            sim.place(obj.clone(), *placement).unwrap();
        }
        let day_engine = sim.run(horizon_months, &accesses).unwrap();
        let reference = reference_monthly_replay(&catalog, &placed, horizon_months, &accesses);

        // Bit-for-bit: no tolerance anywhere.
        prop_assert_eq!(&day_engine.months, &reference.months);
        prop_assert_eq!(&day_engine.per_object, &reference.per_object);
        prop_assert_eq!(day_engine.dropped_events, reference.dropped_events);
    }

    /// Early-deletion penalties are exact to the day: for a single object
    /// leaving a residency-bearing tier at day `d`, the penalty equals the
    /// closed-form unmet-days formula.
    #[test]
    fn early_deletion_penalty_is_exact_to_the_day(
        size in 0.1f64..500.0,
        residency in 0u32..200,
        leave_day in 1u32..180,
    ) {
        let catalog = TierCatalog::azure_adls_gen2();
        let archive = catalog.tier_id("Archive").unwrap();
        let hot = catalog.tier_id("Hot").unwrap();
        let rate = catalog.tier(archive).unwrap().storage_cost_cents_per_gb_month;
        let window = catalog.tier(archive).unwrap().early_deletion_days;
        let mut sim = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(archive))
            .with_transition(leave_day, Placement::uncompressed(hot));
        sim.place_scheduled(
            ObjectSpec::new("a", size).on_tier(archive).with_residency_days(residency),
            schedule,
        )
        .unwrap();
        let report = sim.run_days(200, &[]).unwrap();
        let days_served = residency + leave_day;
        let expected = if window > days_served {
            rate * size * ((window - days_served) as f64 / DAYS_PER_MONTH as f64)
        } else {
            0.0
        };
        let charged: f64 = report.months.iter().map(|m| m.early_deletion_penalty).sum();
        prop_assert!(
            (charged - expected).abs() <= 1e-9 * (1.0 + expected),
            "served {} days, charged {} expected {}", days_served, charged, expected
        );
        // And it is booked in the period of the move.
        let period = (leave_day / DAYS_PER_MONTH) as usize;
        prop_assert_eq!(report.months[period].early_deletion_penalty, charged);
    }

    /// For period-aligned schedules, each period's storage charge is the
    /// full-month rate of the tier in force during that period.
    #[test]
    fn month_aligned_schedules_charge_whole_month_storage(
        size in 0.1f64..500.0,
        switch_period in 1u32..5,
        tier_a in 0usize..4,
        tier_b in 0usize..4,
    ) {
        let catalog = TierCatalog::azure_adls_gen2();
        let a = TierId(tier_a);
        let b = TierId(tier_b);
        let rate = |t: TierId| catalog.tier(t).unwrap().storage_cost_cents_per_gb_month;
        let mut sim = BillingSimulator::new(catalog.clone());
        let schedule = PlacementSchedule::constant(Placement::uncompressed(a))
            .with_transition(switch_period * DAYS_PER_MONTH, Placement::uncompressed(b));
        sim.place_scheduled(ObjectSpec::new("a", size).on_tier(a), schedule).unwrap();
        let horizon = 6 * DAYS_PER_MONTH;
        let report = sim.run_days(horizon, &[]).unwrap();
        for (p, m) in report.months.iter().enumerate() {
            let tier = if (p as u32) < switch_period { a } else { b };
            let expected = rate(tier) * size;
            prop_assert!(
                (m.breakdown.storage - expected).abs() <= 1e-9 * (1.0 + expected),
                "period {}: storage {} expected {}", p, m.breakdown.storage, expected
            );
        }
    }
}

#[test]
fn lifted_monthly_events_round_trip_through_run_days() {
    // `run` is documented as a thin lifting of monthly traces onto the day
    // axis; spot-check the two entry points agree on a mixed trace.
    let catalog = TierCatalog::azure_adls_gen2();
    let hot = catalog.tier_id("Hot").unwrap();
    let cool = catalog.tier_id("Cool").unwrap();
    let mut sim = BillingSimulator::new(catalog);
    sim.place(
        ObjectSpec::new("a", 50.0).on_tier(hot),
        Placement::uncompressed(cool),
    )
    .unwrap();
    let monthly = vec![
        AccessEvent::read("a", 0, 5.0),
        AccessEvent::read("a", 2, 50.0),
        AccessEvent::write("a", 1, 2.5),
        AccessEvent::read("a", 9, 1.0), // beyond the horizon
    ];
    let via_months = sim.run(3, &monthly).unwrap();
    let via_days = sim
        .run_days(
            3 * DAYS_PER_MONTH,
            &scope_cloudsim::events_from_monthly(&monthly),
        )
        .unwrap();
    assert_eq!(via_months, via_days);
    assert_eq!(via_months.dropped_events, 1);
}
