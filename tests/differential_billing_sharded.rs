//! Differential pins for the PR-7 sharded billing engine: the
//! struct-of-arrays column replay
//! (`BillingSimulator::run_columns_with_threads`) must be **bit-for-bit**
//! identical to the preserved sequential engine
//! (`scope_cloudsim::reference::run_days_reference`) — monthly breakdowns,
//! per-object totals, `dropped_events` and error values — for every worker
//! thread count, including counts that split the object list and the trace
//! into uneven shards.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_cloudsim::reference::run_days_reference;
use scope_cloudsim::{
    BillingEvent, BillingSimulator, ObjectSpec, Placement, PlacementSchedule, TierCatalog,
    DAYS_PER_MONTH,
};

/// A randomized simulator + trace: objects across all azure tiers with
/// mixed schedules (constant, mid-horizon moves, day-0 moves, same-tier
/// recompressions), and a trace with reads, writes, unknown names and
/// beyond-horizon days. Object counts like 23 and thread counts like 7
/// guarantee uneven shards under the contiguous-chunk fan-out.
fn random_fixture(
    n_objects: usize,
    n_events: usize,
    seed: u64,
) -> (BillingSimulator, Vec<BillingEvent>, u32) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let catalog = TierCatalog::azure_adls_gen2();
    let tiers = [
        catalog.tier_id("Premium").unwrap(),
        catalog.tier_id("Hot").unwrap(),
        catalog.tier_id("Cool").unwrap(),
        catalog.tier_id("Archive").unwrap(),
    ];
    let horizon = DAYS_PER_MONTH * rng.gen_range(1u32..7);
    let mut sim = BillingSimulator::new(catalog);
    for i in 0..n_objects {
        let name = format!("obj-{i}");
        let spec = ObjectSpec::new(&name, rng.gen_range(0.1f64..400.0))
            .on_tier(tiers[rng.gen_range(0usize..4)])
            .with_residency_days(rng.gen_range(0u32..200));
        let placement = |rng: &mut SmallRng| Placement {
            tier: tiers[rng.gen_range(0usize..4)],
            compression_ratio: if rng.gen_bool(0.5) {
                1.0
            } else {
                rng.gen_range(1.1f64..6.0)
            },
            decompression_seconds: rng.gen_range(0.0f64..2.0),
        };
        let mut schedule = PlacementSchedule::constant(placement(&mut rng));
        for _ in 0..rng.gen_range(0usize..3) {
            schedule = schedule.with_transition(rng.gen_range(0..horizon + 5), placement(&mut rng));
        }
        sim.place_scheduled(spec, schedule).unwrap();
    }
    let mut events = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let name = if rng.gen_bool(0.05) {
            "no-such-object".to_string()
        } else {
            format!("obj-{}", rng.gen_range(0..n_objects.max(1)))
        };
        let day = rng.gen_range(0..horizon + DAYS_PER_MONTH); // some dropped
        let volume = rng.gen_range(0.0f64..50.0);
        events.push(if rng.gen_bool(0.2) {
            BillingEvent::write(name, day, volume)
        } else {
            BillingEvent::read(name, day, volume)
        });
    }
    (sim, events, horizon)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_replay_is_bit_identical_to_sequential_reference(
        n_objects in 1usize..40,
        n_events in 0usize..600,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let (sim, events, horizon) = random_fixture(n_objects, n_events, seed);
        let expected = run_days_reference(&sim, horizon, &events).unwrap();
        for threads in [1usize, 2, 7] {
            let got = sim.run_days_with_threads(horizon, &events, threads).unwrap();
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
        // The column path over prebuilt columns agrees too, and the
        // default-thread entry point is just a special case of the same.
        let columns = sim.build_columns(&events);
        prop_assert_eq!(columns.len(), events.len());
        for threads in [1usize, 2, 7] {
            let got = sim.run_columns_with_threads(horizon, &columns, threads).unwrap();
            prop_assert_eq!(&got, &expected, "columns threads={}", threads);
        }
        prop_assert_eq!(&sim.run_days(horizon, &events).unwrap(), &expected);
    }

    /// Error agreement: a trace with invalid volumes must fail with the
    /// reference's exact error (the first invalid event in trace order),
    /// regardless of which shard computes it. NaN payloads break
    /// `PartialEq`, so errors are compared by their rendered form.
    #[test]
    fn sharded_replay_reports_reference_errors(
        n_objects in 1usize..20,
        n_events in 10usize..300,
        bad_slots in proptest::collection::vec(0usize..300, 3),
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let (sim, mut events, horizon) = random_fixture(n_objects, n_events, seed);
        let bad = [f64::NAN, -1.5, f64::INFINITY];
        for (k, slot) in bad_slots.iter().enumerate() {
            let i = slot % events.len();
            events[i].volume_gb = bad[k % bad.len()];
        }
        let expected = run_days_reference(&sim, horizon, &events);
        for threads in [1usize, 2, 7] {
            let got = sim.run_days_with_threads(horizon, &events, threads);
            prop_assert_eq!(format!("{:?}", got), format!("{:?}", expected), "threads={}", threads);
        }
    }

    /// `dropped_events` alone (cheap cross-check): counted identically
    /// however the trace is sharded, even when every event is dropped.
    #[test]
    fn dropped_event_counts_agree_across_thread_counts(
        n_events in 0usize..200,
        seed in proptest::arbitrary::any::<u64>(),
    ) {
        let (sim, mut events, horizon) = random_fixture(3, n_events, seed);
        // Push a prefix of the trace entirely past the horizon.
        for ev in events.iter_mut().take(n_events / 2) {
            ev.day += horizon;
        }
        let expected = run_days_reference(&sim, horizon, &events).unwrap();
        for threads in [1usize, 2, 7] {
            let got = sim.run_days_with_threads(horizon, &events, threads).unwrap();
            prop_assert_eq!(got.dropped_events, expected.dropped_events, "threads={}", threads);
            prop_assert_eq!(&got, &expected);
        }
    }
}

// ---------------------------------------------------------------------------
// The two-stage kernel: unit boundaries, long schedules, error positions,
// malformed columns — all against the same reference.
// ---------------------------------------------------------------------------

/// `billing.rs`'s private `UNIT_EVENTS` (events resolved, then applied, per
/// unit at every thread count), mirrored so the sizes below straddle it; a
/// unit test beside the constant pins the mirror.
const UNIT: usize = 32_768;

const KERNEL_THREADS: [usize; 4] = [1, 2, 3, 8];

/// A fleet mixing 1-, 2-, 3- and 4-segment schedules (three and more take
/// the flat-table path), day-0 transitions, transitions at and after the
/// horizon, compression, and names placed twice (the later schedule
/// overwrites the earlier; both placements are billed a timeline).
fn kernel_fleet(n_objects: usize) -> (BillingSimulator, u32) {
    let catalog = TierCatalog::azure_adls_gen2();
    let tiers = [
        catalog.tier_id("Premium").unwrap(),
        catalog.tier_id("Hot").unwrap(),
        catalog.tier_id("Cool").unwrap(),
        catalog.tier_id("Archive").unwrap(),
    ];
    let horizon = 4 * DAYS_PER_MONTH + 11; // a partial last period
    let placement = |k: usize| Placement {
        tier: tiers[k % 4],
        compression_ratio: [1.0, 2.5, 1.0, 4.0, 1.7][k % 5],
        decompression_seconds: [0.0, 0.5, 0.0, 1.25, 0.1][k % 5],
    };
    let mut sim = BillingSimulator::new(catalog);
    for i in 0..n_objects {
        let spec = ObjectSpec::new(format!("obj-{i}"), 0.5 + (i % 97) as f64 * 3.25)
            .on_tier(tiers[(i / 3) % 4])
            .with_residency_days((i * 7 % 190) as u32);
        let day = |k: usize| (1 + (i * 13 + k * 31) % (horizon as usize - 1)) as u32;
        let mut schedule = PlacementSchedule::constant(placement(i));
        schedule = match i % 7 {
            0 => schedule,
            1 => schedule.with_transition(day(0), placement(i + 1)),
            2 => schedule
                .with_transition(day(0), placement(i + 1))
                .with_transition(day(1), placement(i + 2)),
            3 => schedule
                .with_transition(day(0), placement(i + 1))
                .with_transition(day(1), placement(i + 2))
                .with_transition(day(2), placement(i + 3)),
            // A day-0 transition replaces the initial placement.
            4 => schedule
                .with_transition(0, placement(i + 2))
                .with_transition(day(0), placement(i + 3)),
            // At and after the horizon: ignored, the schedule bills as constant.
            5 => schedule
                .with_transition(horizon, placement(i + 1))
                .with_transition(horizon + 40, placement(i + 2)),
            _ => schedule
                .with_transition(day(0), placement(i + 1))
                .with_transition(horizon + 3, placement(i + 2)),
        };
        sim.place_scheduled(spec, schedule).unwrap();
    }
    // Re-place every 11th name on a different schedule.
    for i in (0..n_objects).step_by(11) {
        let spec = ObjectSpec::new(format!("obj-{i}"), 9.0 + i as f64);
        let schedule = PlacementSchedule::constant(placement(i + 2))
            .with_transition(17, placement(i + 4))
            .with_transition(58, placement(i + 1));
        sim.place_scheduled(spec, schedule).unwrap();
    }
    (sim, horizon)
}

/// `n_events` deterministic events over `n_objects` names: reads and writes,
/// one in 17 naming nobody, one in 23 past the horizon.
fn kernel_events(n_objects: usize, n_events: usize, horizon: u32, seed: u64) -> Vec<BillingEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n_events)
        .map(|k| {
            let name = if k % 17 == 5 || n_objects == 0 {
                "nobody".to_string()
            } else {
                format!("obj-{}", rng.gen_range(0..n_objects))
            };
            let day = if k % 23 == 7 {
                horizon + rng.gen_range(0u32..9)
            } else {
                rng.gen_range(0..horizon)
            };
            let volume = rng.gen_range(0.0f64..80.0);
            if k % 6 == 1 {
                BillingEvent::write(name, day, volume)
            } else {
                BillingEvent::read(name, day, volume)
            }
        })
        .collect()
}

#[test]
fn kernel_is_bit_identical_at_unit_boundaries() {
    let (sim, horizon) = kernel_fleet(61);
    let all = kernel_events(61, 3 * UNIT + 77, horizon, 0xb10c);
    let sizes = [0, 1, 129, UNIT - 1, UNIT, UNIT + 1, 2 * UNIT, 3 * UNIT + 77];
    for n in sizes {
        let events = &all[..n];
        let expected = run_days_reference(&sim, horizon, events).unwrap();
        let columns = sim.build_columns(events);
        for threads in KERNEL_THREADS {
            let got = sim
                .run_columns_with_threads(horizon, &columns, threads)
                .unwrap();
            assert_eq!(got, expected, "{n} events, threads={threads}");
        }
        assert_eq!(
            sim.run_columns(horizon, &columns).unwrap(),
            expected,
            "{n} events"
        );
    }
    let expected = run_days_reference(&sim, horizon, &all).unwrap();
    assert!(expected.dropped_events > 0, "fixture must drop events");
    assert_eq!(sim.run_days(horizon, &all).unwrap(), expected);
}

#[test]
fn kernel_handles_an_empty_fleet_and_a_large_one() {
    // Nothing placed: every event names nobody.
    let empty = BillingSimulator::new(TierCatalog::azure_adls_gen2());
    let events = kernel_events(0, 131, 90, 1);
    let expected = run_days_reference(&empty, 90, &events).unwrap();
    assert!(expected.per_object.is_empty());
    for threads in KERNEL_THREADS {
        let got = empty.run_days_with_threads(90, &events, threads).unwrap();
        assert_eq!(got, expected, "threads={threads}");
    }
    // Thousands of objects: a flat table of many 3+-segment spans, and
    // re-placed names whose second span supersedes their first.
    let (sim, horizon) = kernel_fleet(3_000);
    let events = kernel_events(3_000, UNIT + 131, horizon, 2);
    let expected = run_days_reference(&sim, horizon, &events).unwrap();
    for threads in KERNEL_THREADS {
        let got = sim
            .run_days_with_threads(horizon, &events, threads)
            .unwrap();
        assert_eq!(got, expected, "threads={threads}");
    }
}

#[test]
fn kernel_reports_the_first_error_in_trace_order_wherever_it_falls() {
    let (sim, horizon) = kernel_fleet(40);
    let base = kernel_events(40, 2 * UNIT + 300, horizon, 0xe44);
    let in_horizon = |events: &mut [BillingEvent], i: usize| events[i].day %= horizon;
    // (label, edits): each edit plants a bad volume at an index.
    let cases: Vec<(&str, Vec<(usize, f64)>)> = vec![
        ("first event of the trace", vec![(0, -2.0)]),
        ("last event of a unit", vec![(UNIT - 1, f64::INFINITY)]),
        ("first event of the next unit", vec![(UNIT, -0.25)]),
        ("last event of the trace", vec![(2 * UNIT + 299, f64::NAN)]),
        (
            "two in different units: the earlier wins",
            vec![(UNIT + 9, -1.5), (2 * UNIT + 5, f64::NAN)],
        ),
        (
            "two in one unit: the earlier wins",
            vec![(UNIT + 130, f64::NEG_INFINITY), (UNIT + 131, -7.0)],
        ),
    ];
    for (label, edits) in cases {
        let mut events = base.clone();
        for &(i, volume) in &edits {
            events[i].volume_gb = volume;
            in_horizon(&mut events, i);
        }
        let expected = run_days_reference(&sim, horizon, &events);
        assert!(expected.is_err(), "{label}");
        for threads in KERNEL_THREADS {
            let got = sim.run_days_with_threads(horizon, &events, threads);
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "{label}, threads={threads}"
            );
        }
    }

    // Right after a dropped event, and on a name nobody placed: still an
    // error. Past the horizon itself: dropped, not an error.
    let mut events = base.clone();
    events[UNIT + 40].day = horizon + 2;
    events[UNIT + 41] = BillingEvent::read("nobody", 3, f64::NAN);
    let expected = run_days_reference(&sim, horizon, &events);
    assert!(format!("{expected:?}").contains("volume_gb"));
    let mut dropped = base.clone();
    dropped[UNIT + 41] = BillingEvent::read("obj-1", horizon, f64::NAN);
    let expected_dropped = run_days_reference(&sim, horizon, &dropped).unwrap();
    for threads in KERNEL_THREADS {
        let got = sim.run_days_with_threads(horizon, &events, threads);
        assert_eq!(
            format!("{got:?}"),
            format!("{expected:?}"),
            "threads={threads}"
        );
        let got = sim
            .run_days_with_threads(horizon, &dropped, threads)
            .unwrap();
        assert_eq!(got, expected_dropped, "threads={threads}");
    }
}

#[test]
fn ragged_columns_are_one_typed_error_at_every_thread_count() {
    let (sim, horizon) = kernel_fleet(12);
    for n in [5, UNIT + 50] {
        let columns = sim.build_columns(&kernel_events(12, n, horizon, 3));
        let short = n as f64 - 1.0;
        type Cut = fn(&mut scope_cloudsim::EventColumns);
        let cuts: [(&str, f64, Cut); 5] = [
            ("columns.periods", short, |c| {
                c.periods.truncate(c.periods.len() - 1)
            }),
            ("columns.object_ids", short, |c| {
                c.object_ids.truncate(c.object_ids.len() - 1)
            }),
            ("columns.kinds", short, |c| {
                c.kinds.truncate(c.kinds.len() - 1)
            }),
            ("columns.volumes", short, |c| {
                c.volumes.truncate(c.volumes.len() - 1)
            }),
            // A short `days` makes the next column the odd one out.
            ("columns.periods", n as f64, |c| {
                c.days.truncate(c.days.len() - 1)
            }),
        ];
        for (name, value, cut) in cuts {
            let mut ragged = columns.clone();
            cut(&mut ragged);
            let expected = Err(scope_cloudsim::CloudSimError::InvalidParameter { name, value });
            for threads in [1usize, 2, 3] {
                let got = sim.run_columns_with_threads(horizon, &ragged, threads);
                assert_eq!(got, expected, "{name} of {n}, threads={threads}");
            }
            assert_eq!(sim.run_columns(horizon, &ragged), expected);
        }
    }
}

#[test]
fn an_id_no_object_owns_is_an_error_not_an_ignored_access() {
    use scope_cloudsim::{AccessKind, CloudSimError, UNKNOWN_OBJECT};
    let (sim, horizon) = kernel_fleet(12);
    let events = kernel_events(12, UNIT + 50, horizon, 4);
    let clean = sim.build_columns(&events);
    let expected_clean = run_days_reference(&sim, horizon, &events).unwrap();
    // The rule: an id is an interned id of this simulator or
    // `UNKNOWN_OBJECT`; anything else means the columns were built against
    // another simulator, and the replay says so.
    let foreign = 12u32; // ids are 0..12
    let err = |name, value| Err(CloudSimError::InvalidParameter { name, value });
    for at in [0, UNIT - 1, UNIT, UNIT + 49] {
        let mut columns = clean.clone();
        columns.object_ids[at] = foreign;
        columns.days[at] %= horizon;
        let mut far = columns.clone();
        far.object_ids[at] = u32::MAX - 1;
        // Dropped before it is looked at; an invalid volume outranks it; an
        // earlier invalid volume is reported instead.
        let mut dropped = columns.clone();
        dropped.days[at] = horizon + 1;
        let mut bad_volume = columns.clone();
        bad_volume.volumes[at] = -3.0;
        for threads in KERNEL_THREADS {
            let run = |c| sim.run_columns_with_threads(horizon, c, threads);
            assert_eq!(
                run(&columns),
                err("object_id", 12.0),
                "at {at}, threads={threads}"
            );
            assert_eq!(run(&far), err("object_id", f64::from(u32::MAX - 1)));
            assert!(run(&dropped).is_ok(), "at {at}, threads={threads}");
            assert_eq!(run(&bad_volume), err("volume_gb", -3.0));
        }
    }
    // `UNKNOWN_OBJECT` itself stays an ignored access, pushed by hand or not.
    let mut columns = clean.clone();
    columns.push_resolved(3, UNKNOWN_OBJECT, AccessKind::Read, 1.0);
    for threads in KERNEL_THREADS {
        let got = sim
            .run_columns_with_threads(horizon, &columns, threads)
            .unwrap();
        assert_eq!(got, expected_clean, "threads={threads}");
    }
}
