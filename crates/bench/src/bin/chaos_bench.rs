//! PR-9 chaos benchmark: the serving loop under seeded fault injection —
//! recovery equalities first, degraded-mode overhead second.
//!
//! ```text
//! chaos_bench [--json] [--quick] [--out PATH]
//! ```
//!
//! * `--json`  — also write the results as JSON (default path
//!   `BENCH_9.json` in the working directory; override with `--out`).
//! * `--quick` — the 1 000-object CI smoke configuration.
//!
//! The fixture is the `serve_bench` fleet and trace; each epoch's events
//! are split into batches and pushed through a [`scope_faults::FaultPlan`]
//! before delivery: volumes corrupted to NaN/negative, batches torn,
//! duplicated, and locally reordered, shards hit with re-solve failures
//! and deadline overruns, and some epochs ended by a simulated crash.
//!
//! **Correctness before speed:** for every fault mix a verification pass
//! asserts, in this process, that
//!
//! * the chaos engine's heat stays bit-identical to a fault-free twin fed
//!   the filtered stream,
//! * the quarantine ledger and drop/seen counters equal the independent
//!   [`scope_faults::expected_intake`] reference,
//! * every healthy shard matches `reference::full_resolve` bit-for-bit,
//! * a crash-and-restore engine's final checkpoint is byte-identical to a
//!   never-crashed engine's over the same faulted stream (and every
//!   restore round-trips its snapshot byte-identically).
//!
//! Only then are the clean, light, and heavy replays timed; the headline
//! number is the degraded-mode overhead — wall-clock of the faulted
//! replay over the fault-free replay of the same trace.

use scope_bench::{min_seconds, BenchArgs, ServeFixture};
use scope_cloudsim::EventColumns;
use scope_core::lockstep::{replay_chaos, split_batches, ChaosOutcome, Schedule};
use scope_faults::{FaultPlan, FaultRates};
use scope_serve::ServeEngine;
use std::error::Error;
use std::time::Instant;

const SEED: u64 = 0xC4A0_5EED;
const BATCHES_PER_EPOCH: usize = 4;

/// Differential pass for one fault mix: the lockstep driver runs three
/// engines over the identical faulted stream — one that crashes and
/// restores on crash epochs, one that never crashes, and a fault-free
/// twin fed the filtered stream — and every recovery equality it reports
/// is asserted here (see module docs). Panics (no JSON) on divergence.
fn verify_mix(
    fixture: &ServeFixture,
    schedule: &Schedule,
    rates: FaultRates,
    label: &str,
) -> Result<ChaosOutcome, Box<dyn Error>> {
    let outcome = replay_chaos(&fixture.fleet(1), schedule, &FaultPlan::new(SEED, rates)?)?;
    assert_eq!(outcome.epochs.len(), fixture.epochs as usize, "{label}");
    for (epoch, e) in outcome.epochs.iter().enumerate() {
        assert!(
            e.heat_matches_twin,
            "{label}: epoch {epoch} heat diverged from the fault-free twin"
        );
        assert!(
            e.matches_reference,
            "{label}: epoch {epoch} a healthy shard diverged from full resolve"
        );
        assert!(
            e.checkpoint_matches_twin && e.objective_bits_match,
            "{label}: epoch {epoch} diverged from the never-crashed engine"
        );
    }
    assert!(
        outcome.recoveries_bit_identical,
        "{label}: a restore did not round-trip its snapshot"
    );
    assert!(
        outcome.recovered_matches_never_crashed,
        "{label}: recovered engine diverged from the never-crashed engine"
    );
    assert!(
        outcome.intake_matches_expected,
        "{label}: quarantine ledger or intake counters diverged from the reference intake"
    );
    Ok(outcome)
}

/// One full faulted replay (no verification, crash epochs included),
/// returning the wall-clock seconds of the epoch loop.
fn timed_replay(
    fixture: &ServeFixture,
    trace: &EventColumns,
    rates: FaultRates,
) -> Result<f64, Box<dyn Error>> {
    let plan = FaultPlan::new(SEED, rates)?;
    let fleet = fixture.fleet(1);
    let mut engine = fleet.engine()?;
    let horizon_days = fixture.horizon_days();
    let shards = fleet.accounts();

    let t = Instant::now();
    let mut next_seq = 0u64;
    for epoch in 0..fixture.epochs {
        let (lo, hi) = (epoch * fixture.epoch_days, (epoch + 1) * fixture.epoch_days);
        let window = trace.filter_day_range(lo, hi);
        let mut sequenced = Vec::with_capacity(BATCHES_PER_EPOCH);
        for batch in split_batches(&window, BATCHES_PER_EPOCH) {
            let seq = next_seq;
            next_seq += 1;
            sequenced.push((seq, plan.corrupt_batch(seq, &batch, horizon_days).delivered));
        }
        for (seq, batch) in plan.deliver(u64::from(epoch), &sequenced) {
            engine.ingest_sequenced(seq, &batch)?;
        }
        engine.advance(hi);
        engine.reoptimize_with_faults(&plan.shard_faults(u64::from(epoch), shards))?;
        if plan.crash_after_epoch(u64::from(epoch)) {
            let snapshot = engine.checkpoint();
            engine = ServeEngine::restore(fleet.catalog.clone(), fleet.schemes.clone(), &snapshot)?;
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = BenchArgs::parse("BENCH_9.json", &[])?;
    let cfg = ServeFixture::new(args.quick);
    let reps = if args.quick { 1 } else { 3 };
    println!(
        "chaos_bench: {} objects, {} accounts, {} epochs x {} days, {} events/day, {} batches/epoch{}",
        cfg.objects,
        cfg.accounts,
        cfg.epochs,
        cfg.epoch_days,
        cfg.events_per_day,
        BATCHES_PER_EPOCH,
        if args.quick { " [quick]" } else { "" }
    );
    let trace = cfg.trace();
    let schedule = Schedule::new(
        &trace,
        cfg.horizon_days(),
        cfg.epoch_days,
        BATCHES_PER_EPOCH,
    )?;

    let light = verify_mix(&cfg, &schedule, FaultRates::light(), "light")?;
    let heavy = verify_mix(&cfg, &schedule, FaultRates::heavy(), "heavy")?;
    println!(
        "differential pass: heat == twin, quarantine == reference, healthy shards == full \
         resolve, recovered == never-crashed, on every epoch of both mixes"
    );
    assert!(
        light.quarantined_events > 0 && heavy.quarantined_events > light.quarantined_events,
        "fault mixes did not inject meaningful corruption"
    );
    assert!(
        light.crashes > 0 && heavy.crashes > 0,
        "fault mixes did not exercise crash recovery"
    );
    let truncated = |o: &ChaosOutcome| -> u64 { o.epochs.iter().map(|e| e.truncated_events).sum() };
    let degraded =
        |o: &ChaosOutcome| -> usize { o.epochs.iter().map(|e| e.degraded_accounts).sum() };

    let clean_s = min_seconds(reps, || timed_replay(&cfg, &trace, FaultRates::none()))?;
    let light_s = min_seconds(reps, || timed_replay(&cfg, &trace, FaultRates::light()))?;
    let heavy_s = min_seconds(reps, || timed_replay(&cfg, &trace, FaultRates::heavy()))?;
    let light_overhead = (light_s / clean_s - 1.0) * 100.0;
    let heavy_overhead = (heavy_s / clean_s - 1.0) * 100.0;
    println!("clean replay   {clean_s:>9.4} s  (the BENCH_8 steady loop behind sequenced intake)");
    println!(
        "light faults   {light_s:>9.4} s  ({light_overhead:>+7.1}% — {} quarantined, {} dup \
         batches, {} crashes, {} degraded shard-epochs)",
        light.quarantined_events,
        light.duplicate_batches,
        light.crashes,
        degraded(&light)
    );
    println!(
        "heavy faults   {heavy_s:>9.4} s  ({heavy_overhead:>+7.1}% — {} quarantined, {} dup \
         batches, {} crashes, {} degraded shard-epochs)",
        heavy.quarantined_events,
        heavy.duplicate_batches,
        heavy.crashes,
        degraded(&heavy)
    );

    if args.json {
        let json = format!(
            "{{\n  \"issue\": 9,\n  \"quick\": {},\n  \"config\": {{\n    \"objects\": {},\n    \"accounts\": {},\n    \"epochs\": {},\n    \"epoch_days\": {},\n    \"events_per_day\": {},\n    \"batches_per_epoch\": {},\n    \"reps\": {}\n  }},\n  \"chaos\": {{\n    \"clean_replay_s\": {:.6},\n    \"light_replay_s\": {:.6},\n    \"heavy_replay_s\": {:.6},\n    \"light_overhead_pct\": {:.1},\n    \"heavy_overhead_pct\": {:.1},\n    \"light_quarantined_events\": {},\n    \"light_truncated_events\": {},\n    \"light_duplicate_batches\": {},\n    \"light_crashes\": {},\n    \"light_degraded_shard_epochs\": {},\n    \"heavy_quarantined_events\": {},\n    \"heavy_truncated_events\": {},\n    \"heavy_duplicate_batches\": {},\n    \"heavy_crashes\": {},\n    \"heavy_degraded_shard_epochs\": {},\n    \"note\": \"overhead = faulted replay wall-clock over the fault-free replay of the same trace (sequenced intake + validation + quarantine + retry/backoff + checkpoint/restore on crash epochs); before timing, this process asserted for both mixes that heat is bit-identical to a fault-free twin, the quarantine ledger equals the independent expected_intake reference, healthy shards match reference::full_resolve bit-for-bit, every restore round-trips its snapshot, and the crash-and-restore engine's final checkpoint is byte-identical to a never-crashed engine's\"\n  }}\n}}\n",
            args.quick,
            cfg.objects,
            cfg.accounts,
            cfg.epochs,
            cfg.epoch_days,
            cfg.events_per_day,
            BATCHES_PER_EPOCH,
            reps,
            clean_s,
            light_s,
            heavy_s,
            light_overhead,
            heavy_overhead,
            light.quarantined_events,
            truncated(&light),
            light.duplicate_batches,
            light.crashes,
            degraded(&light),
            heavy.quarantined_events,
            truncated(&heavy),
            heavy.duplicate_batches,
            heavy.crashes,
            degraded(&heavy),
        );
        std::fs::write(&args.out, &json)?;
        println!("wrote {}", args.out);
    }
    Ok(())
}
