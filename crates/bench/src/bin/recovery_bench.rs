//! PR-10 recovery benchmark: the journaled serving loop — crash-recovery
//! equalities first, journaling overhead second.
//!
//! ```text
//! recovery_bench [--json] [--quick] [--out PATH] [--dir PATH]
//! ```
//!
//! * `--json`  — also write the results as JSON (default path
//!   `BENCH_10.json` in the working directory; override with `--out`).
//! * `--quick` — the CI smoke configuration.
//! * `--dir`   — directory for the file-backed journal used by the
//!   timing phase (default `target/recovery_bench_wal`). Every
//!   repetition creates its own `rep-<pid>-<n>` child there and removes
//!   only that child afterwards; the directory itself is never wiped.
//!
//! **Correctness before speed:** the verification phase runs the
//! [`scope_core::run_recovery`] crash-recovery scenario in this process,
//! over fault-injected in-memory storage, for every seeded storage-fault
//! plan (none / light / heavy) and two seeds each. Every run forces at
//! least three crashes at fuzzed step positions on top of the plan's own
//! crash/torn-write/bit-flip schedule, and asserts that after every
//! crash + recover + re-delivery cycle the journaled engine's durable
//! checkpoints and final state are **byte-identical** to a never-crashed
//! twin's — heat bits, placement choices, objective bits, checkpoint
//! bytes.
//!
//! Only then is journaling overhead timed on the BENCH_8 steady loop
//! (the `serve_bench` fleet and trace, sequenced intake, epoch
//! advance + incremental re-solve): a plain [`scope_serve::ServeEngine`] replay
//! versus the same loop behind [`JournaledEngine`] — once over
//! [`MemStorage`] (framing + CRC cost alone) and once over
//! [`FileStorage`] with real fsyncs at epoch boundaries and atomic
//! durable checkpoints (the headline overhead).

use scope_bench::{min_seconds, BenchArgs, ServeFixture};
use scope_cloudsim::EventColumns;
use scope_core::lockstep::split_batches;
use scope_core::{run_recovery, RecoveryOptions, RecoveryOutcome, ServingOptions};
use scope_faults::StorageFaultRates;
use scope_serve::JournaledEngine;
use scope_wal::{FileStorage, JournalConfig, MemStorage, Storage};
use scope_workload::EnterpriseOptions;
use std::error::Error;
use std::path::Path;
use std::time::Instant;

const BATCHES_PER_EPOCH: usize = 4;
const SEGMENT_RECORDS: usize = 64;
const VERIFY_MONTHS: u32 = 6;

/// One crash-recovery scenario over fault-injected in-memory storage,
/// with the bit-for-bit contracts asserted in this process. Panics (no
/// JSON) on any divergence.
fn verify_plan(
    verify_datasets: usize,
    rates: StorageFaultRates,
    seed: u64,
    label: &str,
) -> Result<RecoveryOutcome, Box<dyn Error>> {
    let outcome = run_recovery(&RecoveryOptions {
        serving: ServingOptions {
            workload: EnterpriseOptions {
                n_datasets: verify_datasets,
                history_months: VERIFY_MONTHS,
                future_months: VERIFY_MONTHS,
                seed: seed ^ 11,
                ..Default::default()
            },
            ..Default::default()
        },
        seed,
        rates,
        ..Default::default()
    })?;
    assert!(
        outcome.crashes >= 3 && outcome.forced_crashes >= 3,
        "{label}: fewer than three fuzzed crash points fired: {outcome:?}"
    );
    assert!(
        outcome.checkpoints_bit_identical,
        "{label}: a recovered checkpoint diverged from the never-crashed twin: {outcome:?}"
    );
    assert!(
        outcome.final_bit_identical,
        "{label}: the final recovered state diverged from the never-crashed twin: {outcome:?}"
    );
    for (i, e) in outcome.epochs.iter().enumerate() {
        assert!(
            e.checkpoint_matches_twin && e.objective_bits_match,
            "{label}: epoch {i} diverged from the twin: {e:?}"
        );
    }
    Ok(outcome)
}

/// The BENCH_8 steady loop: sequenced intake, epoch advance, incremental
/// re-solve — no journal. Returns the wall-clock seconds of the loop.
fn timed_plain(fixture: &ServeFixture, trace: &EventColumns) -> Result<f64, Box<dyn Error>> {
    let mut engine = fixture.fleet(1).engine()?;
    let t = Instant::now();
    let mut next_seq = 0u64;
    for epoch in 0..fixture.epochs {
        let (lo, hi) = (epoch * fixture.epoch_days, (epoch + 1) * fixture.epoch_days);
        for batch in split_batches(&trace.filter_day_range(lo, hi), BATCHES_PER_EPOCH) {
            engine.ingest_sequenced(next_seq, &batch)?;
            next_seq += 1;
        }
        engine.advance(hi);
        engine.reoptimize()?;
        let _ = engine.checkpoint();
    }
    Ok(t.elapsed().as_secs_f64())
}

/// The same loop behind the write-ahead journal over `storage`: every
/// batch appended before intake, synced epoch boundaries, durable
/// atomic checkpoints.
fn timed_journaled<S: Storage>(
    fixture: &ServeFixture,
    trace: &EventColumns,
    storage: S,
) -> Result<f64, Box<dyn Error>> {
    let journal_cfg = JournalConfig {
        segment_records: SEGMENT_RECORDS,
        ..JournalConfig::default()
    };
    let mut engine = JournaledEngine::create(fixture.fleet(1).engine()?, storage, journal_cfg)?;
    let t = Instant::now();
    let mut next_seq = 0u64;
    for epoch in 0..fixture.epochs {
        let (lo, hi) = (epoch * fixture.epoch_days, (epoch + 1) * fixture.epoch_days);
        for batch in split_batches(&trace.filter_day_range(lo, hi), BATCHES_PER_EPOCH) {
            engine.ingest_sequenced(next_seq, &batch)?;
            next_seq += 1;
        }
        engine.advance(hi)?;
        engine.reoptimize()?;
        engine.checkpoint_durable(u64::from(epoch) + 1)?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// The journaled loop over a fresh file-backed store. The journal refuses
/// a dirty store, so every call works in a child of `dir` that it creates
/// and is the only thing it removes; `dir` itself may hold anything.
fn timed_file(
    fixture: &ServeFixture,
    trace: &EventColumns,
    dir: &Path,
    rep: &mut usize,
) -> Result<f64, Box<dyn Error>> {
    *rep += 1;
    let child = dir.join(format!("rep-{}-{rep}", std::process::id()));
    std::fs::create_dir_all(dir)?;
    std::fs::create_dir(&child)?;
    let timed = (|| timed_journaled(fixture, trace, FileStorage::create(&child)?))();
    std::fs::remove_dir_all(&child)?;
    timed
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = BenchArgs::parse("BENCH_10.json", &["--dir"])?;
    let dir = Path::new(args.value("--dir").unwrap_or("target/recovery_bench_wal"));
    let cfg = ServeFixture::new(args.quick);
    let reps = if args.quick { 1 } else { 3 };
    let verify_datasets = if args.quick { 40 } else { 60 };
    println!(
        "recovery_bench: {} objects, {} accounts, {} epochs x {} days, {} events/day, \
         {} batches/epoch, {} records/segment{}",
        cfg.objects,
        cfg.accounts,
        cfg.epochs,
        cfg.epoch_days,
        cfg.events_per_day,
        BATCHES_PER_EPOCH,
        SEGMENT_RECORDS,
        if args.quick { " [quick]" } else { "" }
    );

    // Phase 1: crash-recovery equalities, every plan, in this process.
    let plans = [
        ("none", StorageFaultRates::none()),
        ("light", StorageFaultRates::light()),
        ("heavy", StorageFaultRates::heavy()),
    ];
    let seeds = [0xD0_5EED_u64, 7];
    let mut total = RecoveryOutcome::default();
    for (name, rates) in &plans {
        for &seed in &seeds {
            let outcome = verify_plan(
                verify_datasets,
                *rates,
                seed,
                &format!("{name}/seed-{seed}"),
            )?;
            println!(
                "verified {name:>5} seed {seed:#x}: {} crashes ({} forced, {} torn, {} bit-flip), \
                 {} replayed, {} re-delivered, {} ckpt quarantined, {} fresh, {} resets",
                outcome.crashes,
                outcome.forced_crashes,
                outcome.torn_crashes,
                outcome.bit_flip_crashes,
                outcome.replayed_records,
                outcome.redelivered_batches,
                outcome.quarantined_checkpoints,
                outcome.recoveries_started_fresh,
                outcome.unrecoverable_resets,
            );
            total.crashes += outcome.crashes;
            total.recoveries_started_fresh += outcome.recoveries_started_fresh;
            total.unrecoverable_resets += outcome.unrecoverable_resets;
            total.quarantined_checkpoints += outcome.quarantined_checkpoints;
            total.quarantined_records += outcome.quarantined_records;
            total.torn_bytes += outcome.torn_bytes;
            total.replayed_records += outcome.replayed_records;
            total.redelivered_batches += outcome.redelivered_batches;
        }
    }
    println!(
        "differential pass: every recovered checkpoint and final state byte-identical to the \
         never-crashed twin, across {} crashes over all seeded storage-fault plans",
        total.crashes
    );

    // Phase 2: journaling overhead on the BENCH_8 steady loop.
    let trace = cfg.trace();
    let plain_s = min_seconds(reps, || timed_plain(&cfg, &trace))?;
    let mem_s = min_seconds(reps, || timed_journaled(&cfg, &trace, MemStorage::new()))?;
    let mut rep = 0;
    let file_s = min_seconds(reps, || timed_file(&cfg, &trace, dir, &mut rep))?;
    let mem_overhead = (mem_s / plain_s - 1.0) * 100.0;
    let file_overhead = (file_s / plain_s - 1.0) * 100.0;
    println!("plain loop     {plain_s:>9.4} s  (the BENCH_8 steady loop, no journal)");
    println!("journaled mem  {mem_s:>9.4} s  ({mem_overhead:>+7.1}% — framing + CRC, no disk)");
    println!("journaled file {file_s:>9.4} s  ({file_overhead:>+7.1}% — epoch fsyncs + atomic durable checkpoints)");

    if args.json {
        let json = format!(
            "{{\n  \"issue\": 10,\n  \"quick\": {},\n  \"config\": {{\n    \"objects\": {},\n    \"accounts\": {},\n    \"epochs\": {},\n    \"epoch_days\": {},\n    \"events_per_day\": {},\n    \"batches_per_epoch\": {},\n    \"segment_records\": {},\n    \"reps\": {},\n    \"verify_datasets\": {},\n    \"verify_seeds\": {}\n  }},\n  \"recovery\": {{\n    \"verified_plans\": [\"none\", \"light\", \"heavy\"],\n    \"crashes\": {},\n    \"recoveries_started_fresh\": {},\n    \"unrecoverable_resets\": {},\n    \"quarantined_checkpoints\": {},\n    \"quarantined_records\": {},\n    \"torn_bytes\": {},\n    \"replayed_records\": {},\n    \"redelivered_batches\": {},\n    \"plain_loop_s\": {:.6},\n    \"journaled_mem_s\": {:.6},\n    \"journaled_file_s\": {:.6},\n    \"journaled_mem_overhead_pct\": {:.1},\n    \"journaled_file_overhead_pct\": {:.1},\n    \"note\": \"overhead = the BENCH_8 steady loop (sequenced intake, epoch advance, incremental re-solve) behind the write-ahead intake journal over the plain loop; mem = framing + CRC only, file = real fsyncs at epoch boundaries plus atomic durable checkpoints; before timing, this process ran the crash-recovery scenario for every storage-fault plan (none/light/heavy, two seeds each, >= 3 fuzzed crash points plus the plan's own crash/torn-write/bit-flip schedule) and asserted the recovered engine byte-identical to a never-crashed twin after every crash: heat bits, placement choices, objective bits, checkpoint bytes\"\n  }}\n}}\n",
            args.quick,
            cfg.objects,
            cfg.accounts,
            cfg.epochs,
            cfg.epoch_days,
            cfg.events_per_day,
            BATCHES_PER_EPOCH,
            SEGMENT_RECORDS,
            reps,
            verify_datasets,
            seeds.len(),
            total.crashes,
            total.recoveries_started_fresh,
            total.unrecoverable_resets,
            total.quarantined_checkpoints,
            total.quarantined_records,
            total.torn_bytes,
            total.replayed_records,
            total.redelivered_batches,
            plain_s,
            mem_s,
            file_s,
            mem_overhead,
            file_overhead,
        );
        std::fs::write(&args.out, &json)?;
        println!("wrote {}", args.out);
    }
    Ok(())
}
