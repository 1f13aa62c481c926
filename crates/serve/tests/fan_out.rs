//! Who spawns threads under a re-solve, counted.
//!
//! `ServeConfig::threads` is the whole fan-out budget of an epoch
//! boundary: `1` never spawns, `n` fans the shards out once over `n`
//! threads — the caller and `min(n, shards) − 1` spawned — `0` stays on
//! the calling thread below the engine's work floor, and nothing
//! underneath (the cost-table build and patch) fans out again. `scope_cloudsim::parallel::workers_spawned` counts every worker
//! the process spawns, so these tests live in a binary of their own and
//! take a lock: no other test's fan-out can move the counter under them.

use std::sync::Mutex;

use scope_cloudsim::parallel::{default_threads, workers_spawned};
use scope_cloudsim::{AccessKind, EventColumns, TierCatalog, TierId};
use scope_serve::{CompressionOption, ServeConfig, ServeEngine, ServeObject};

static COUNTER: Mutex<()> = Mutex::new(());

const HORIZON_DAYS: u32 = 60;

fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("zstd", 2.4, 0.35),
    ]
}

/// `objects` objects in three accounts.
fn fleet(threads: usize, objects: u32) -> ServeEngine {
    let config = ServeConfig {
        horizon_days: HORIZON_DAYS,
        horizon_months: f64::from(HORIZON_DAYS) / 30.0,
        threads,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(TierCatalog::azure_hot_cool_archive(), schemes(), config)
        .expect("valid config");
    for i in 0..objects {
        engine
            .register(ServeObject::new(
                format!("obj-{i}"),
                format!("acct-{}", i % 3),
                1.0 + f64::from(i % 12) * 0.4,
                TierId(0),
            ))
            .expect("valid object");
    }
    engine
}

/// Reads that heat a few objects of every account past a bucket edge
/// (only the first twelve objects are ever read).
fn batch(epoch: u32) -> EventColumns {
    let mut cols = EventColumns::default();
    for i in 0..40u32 {
        let kind = if i % 7 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        cols.push_resolved(epoch * 15 + i % 15, (i * (epoch + 1)) % 12, kind, 0.25);
    }
    cols
}

/// One epoch: deliver, advance, re-solve, checkpoint. Returns the rows the
/// re-solve patched.
fn epoch(engine: &mut ServeEngine, epoch: u32) -> usize {
    engine
        .ingest_sequenced(u64::from(epoch), &batch(epoch))
        .expect("in-order delivery");
    engine.advance((epoch + 1) * 15);
    let outcome = engine.reoptimize().expect("healthy re-solve");
    std::hint::black_box(engine.checkpoint());
    outcome.rows_patched
}

#[test]
fn a_threads_1_engine_never_spawns() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let before = workers_spawned();
    // A hundred rows a shard: tables this size used to fan out by
    // themselves, whatever the engine was told.
    let mut engine = fleet(1, 300);
    assert_eq!(epoch(&mut engine, 0), 300, "cold start prices every row");
    // Epoch 1 re-prices every row the cold start moved; from epoch 2 on a
    // re-solve is a delta.
    epoch(&mut engine, 1);
    let steady = epoch(&mut engine, 2);
    assert!(steady > 0 && steady < 12, "a delta re-solve: {steady} rows");
    assert_eq!(workers_spawned(), before);
}

#[test]
fn an_engine_left_to_decide_stays_inline_below_its_floor() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let before = workers_spawned();
    let mut engine = fleet(0, 300);
    for e in 0..3 {
        epoch(&mut engine, e);
    }
    assert_eq!(workers_spawned(), before);
}

#[test]
fn an_engine_left_to_decide_fans_out_once_when_every_row_is_stale() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // 4 500 rows to build is past the floor: the cold start, and the
    // epoch after it that re-prices every row it moved, take the host's
    // threads (three shards are three units: the caller and up to two
    // spawned; none on a single-core host) — and the delta after them none.
    let workers = default_threads().min(3) as u64 - 1;
    let mut engine = fleet(0, 4_500);
    let mut sequential = fleet(1, 4_500);
    for (e, expected) in [(0, workers), (1, workers), (2, 0)] {
        let before = workers_spawned();
        let rows = epoch(&mut engine, e);
        assert_eq!(
            workers_spawned() - before,
            expected,
            "epoch {e}: {rows} rows"
        );
        epoch(&mut sequential, e);
        assert_eq!(engine.checkpoint(), sequential.checkpoint(), "epoch {e}");
    }
}

#[test]
fn explicit_threads_are_honoured_exactly_and_never_nest() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    // Twelve objects are far below any work floor; `threads: 3` still
    // means three threads for the three account shards, cold or steady:
    // the caller and two spawned.
    let mut engine = fleet(3, 12);
    let before = workers_spawned();
    epoch(&mut engine, 0);
    assert_eq!(workers_spawned() - before, 2);
    let before = workers_spawned();
    epoch(&mut engine, 1);
    assert_eq!(workers_spawned() - before, 2);

    // Two threads for three shards of a hundred rows — the caller and one
    // spawned — and not one more from underneath: the table work runs on
    // the thread that claimed the shard.
    let mut engine = fleet(2, 300);
    let before = workers_spawned();
    epoch(&mut engine, 0);
    assert_eq!(workers_spawned() - before, 1);
    let before = workers_spawned();
    epoch(&mut engine, 1);
    assert_eq!(workers_spawned() - before, 1);
}
