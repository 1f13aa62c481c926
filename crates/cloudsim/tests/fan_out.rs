//! Who spawns threads under a billing replay, counted.
//!
//! `scope_cloudsim::parallel::workers_spawned` counts every worker the
//! process spawns, so these tests live in a binary of their own and take a
//! lock: no other test's fan-out can move the counter under them. They pin
//! that the ordered-streaming primitive spawns exactly `threads - 1`
//! resolvers (the caller is the last party) and nothing when one thread or
//! one unit makes a fan-out pointless, and that a replay fans out once —
//! phase 2 only, phase 1 staying on the caller at any fleet size — with
//! the default entry point declining below its floor.

use std::sync::Mutex;

use scope_cloudsim::parallel::{default_threads, ordered_stream_with_threads, workers_spawned};
use scope_cloudsim::{
    AccessKind, BillingSimulator, EventColumns, ObjectSpec, Placement, PlacementSchedule,
    TierCatalog, TierId,
};

static COUNTER: Mutex<()> = Mutex::new(());

/// Workers spawned while `f` runs.
fn spawned_by<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = workers_spawned();
    let out = f();
    (workers_spawned() - before, out)
}

fn stream(units: usize, threads: usize) -> u64 {
    let mut applied = 0;
    let (spawned, result) = spawned_by(|| {
        ordered_stream_with_threads(
            units,
            threads,
            || 0usize,
            |unit, buffer: &mut usize| *buffer = unit,
            |unit, buffer: &mut usize| {
                assert_eq!((*buffer, applied), (unit, unit));
                applied += 1;
                Ok::<(), ()>(())
            },
        )
    });
    assert_eq!(result, Ok(()));
    assert_eq!(applied, units);
    spawned
}

#[test]
fn the_stream_spawns_one_resolver_per_thread_beside_the_caller() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    for units in [0, 1, 2, 64] {
        assert_eq!(stream(units, 0), 0);
        assert_eq!(stream(units, 1), 0, "{units} units on one thread");
    }
    for threads in 2..=9 {
        assert_eq!(
            stream(64, threads),
            threads as u64 - 1,
            "threads = {threads}"
        );
        // One unit is the caller's; more resolvers than the rest would idle.
        assert_eq!(stream(1, threads), 0);
        assert_eq!(stream(3, threads), (threads as u64 - 1).min(2));
    }
}

/// `objects` two-segment objects named `obj-<i>`.
fn fleet(objects: usize) -> BillingSimulator {
    let mut sim = BillingSimulator::new(TierCatalog::azure_adls_gen2());
    for i in 0..objects {
        let schedule = PlacementSchedule::constant(Placement::uncompressed(TierId(i % 4)))
            .with_transition(
                30 + (i % 50) as u32,
                Placement::uncompressed(TierId((i + 1) % 4)),
            );
        sim.place_scheduled(
            ObjectSpec::new(format!("obj-{i}"), 1.0 + i as f64),
            schedule,
        )
        .expect("valid object");
    }
    sim
}

/// `events` reads of the first `objects` interned ids over 90 days.
fn reads(objects: usize, events: usize) -> EventColumns {
    let mut columns = EventColumns::default();
    for k in 0..events {
        columns.push_resolved(
            (k * 7 % 90) as u32,
            (k * 31 % objects) as u32,
            AccessKind::Read,
            0.5 + (k % 9) as f64,
        );
    }
    columns
}

// `billing.rs` cuts phase 2 into units of 32 768 events and `run_columns`
// fans it out from 262 144 events; a unit test beside those constants pins
// them.

#[test]
fn a_replay_fans_out_once_and_only_its_event_phase() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // Ten phase-2 units over a fleet large enough to tempt phase 1.
    let (sim, columns) = (fleet(40_000), reads(40_000, 10 * 32_768 - 5));
    let (spawned, expected) = spawned_by(|| sim.run_columns_with_threads(90, &columns, 1));
    assert_eq!(spawned, 0);
    let expected = expected.expect("valid replay");
    for threads in [2usize, 3, 8] {
        let (spawned, got) = spawned_by(|| sim.run_columns_with_threads(90, &columns, threads));
        // `threads - 1` resolvers for phase 2: had phase 1 fanned out too
        // (or a resolver fanned out again) there would be more.
        assert_eq!(spawned, threads as u64 - 1, "threads = {threads}");
        assert_eq!(got.expect("valid replay"), expected, "threads = {threads}");
    }
}

#[test]
fn small_inputs_and_the_default_below_its_floor_spawn_nothing() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // One unit: nothing to hand off, whatever `threads` says.
    let (sim, columns) = (fleet(300), reads(300, 20_000));
    let (spawned, _) = spawned_by(|| sim.run_columns_with_threads(90, &columns, 8));
    assert_eq!(spawned, 0);
    // Two units only.
    let columns = reads(300, 32_768 + 1);
    let (spawned, _) = spawned_by(|| sim.run_columns_with_threads(90, &columns, 8));
    assert_eq!(spawned, 1);

    // The default entry point fans out only from its event floor.
    let (sim, below) = (fleet(9_000), reads(9_000, 262_144 - 1));
    let (spawned, report) = spawned_by(|| sim.run_columns(90, &below));
    assert_eq!(spawned, 0);
    assert_eq!(report, sim.run_columns_with_threads(90, &below, 1));
    let at = reads(9_000, 262_144);
    let (spawned, report) = spawned_by(|| sim.run_columns(90, &at));
    assert_eq!(spawned, default_threads() as u64 - 1);
    assert_eq!(report, sim.run_columns_with_threads(90, &at, 1));
}
