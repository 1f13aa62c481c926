//! PR-8 serving-engine benchmark: steady-state incremental re-solve vs
//! the batch full-resolve baseline.
//!
//! ```text
//! serve_bench [--json] [--quick] [--out PATH]
//! ```
//!
//! * `--json`  — also write the results as JSON (default path
//!   `BENCH_8.json` in the working directory; override with `--out`).
//! * `--quick` — the 1 000-object CI smoke configuration.
//!
//! The fixture is a skewed day-granular read/write trace over a fleet of
//! objects sharded into billing accounts. The replay loop is the serving
//! engine's intended steady state: ingest an epoch's event batch, advance
//! the clock (heat decays and re-buckets), then re-solve.
//!
//! **Correctness before speed:** a first pass over the whole replay
//! asserts, in this process, that every epoch's incremental outcome —
//! patched rows, per-row greedy decisions, account-ordered merge — is
//! bit-for-bit identical to `scope_serve::reference::full_resolve` (a
//! cold table build + batch greedy per account) on the same state, and
//! thread-count independent. Only then does a second pass time both
//! paths on the post-cold-start epochs.
//!
//! The headline number is steady-state re-tiering decisions per second
//! (objects decided per wall-clock second of re-solve): the incremental
//! path must clear 5x the full-resolve baseline on the quick config, and
//! the binary asserts that floor before writing any numbers.

use scope_bench::{time_min, BenchArgs, ServeFixture};
use scope_core::lockstep::{replay_serving, Schedule};
use scope_serve::reference;
use std::error::Error;
use std::time::Instant;

/// Differential pass: every epoch of the replay must match the batch
/// reference bit-for-bit (the lockstep driver's `matches_reference`:
/// accounts, choices, per-account and total objective bits), and a
/// 1-thread engine must match the default fan-out. Runs before any
/// timing; panics (no JSON) on divergence.
fn verify(fixture: &ServeFixture) -> Result<(), Box<dyn Error>> {
    // One batch per epoch, as in the timed loop.
    let horizon_days = fixture.horizon_days();
    let schedule = Schedule::new(&fixture.trace(), horizon_days, fixture.epoch_days, 1)?;
    let outcome = replay_serving(&fixture.fleet(0), &schedule)?;
    let sequential = replay_serving(&fixture.fleet(1), &schedule)?;
    assert_eq!(outcome.epochs.len(), fixture.epochs as usize);
    for (epoch, (e, seq)) in outcome.epochs.iter().zip(&sequential.epochs).enumerate() {
        assert!(
            e.matches_reference && seq.matches_reference,
            "epoch {epoch}: incremental outcome diverged from full resolve"
        );
        assert_eq!(
            e.total_objective.to_bits(),
            seq.total_objective.to_bits(),
            "epoch {epoch}: thread fan-out changed the outcome"
        );
        assert_eq!(e.rows_patched, seq.rows_patched);
    }
    Ok(())
}

struct ServeNumbers {
    steady_epochs: u32,
    full_resolve_s: f64,
    incremental_s: f64,
    rows_patched: usize,
    retier_decisions: usize,
    full_decisions_per_s: f64,
    incremental_decisions_per_s: f64,
    speedup: f64,
}

/// Timing pass over a fresh engine: epoch 0 is the cold build and epoch 1
/// re-prices the rows the cold solve re-tiered (transition costs are
/// priced from the placement the cold solve installed), so both are
/// untimed warm-up; the remaining epochs are the steady state. Both timed
/// paths run sequentially (threads = 1) so the comparison measures work
/// skipped, not thread fan-out — thread-count independence is asserted
/// separately in the differential pass. The immutable full resolve is
/// min-of-reps; the incremental re-solve mutates state so each epoch is
/// timed once and the epochs are summed.
fn bench_serve(fixture: &ServeFixture, reps: usize) -> Result<ServeNumbers, Box<dyn Error>> {
    if fixture.epochs <= 2 {
        return Err("need at least three epochs: two warm-up plus steady state".into());
    }
    let mut engine = fixture.fleet(1).engine()?;
    let columns = fixture.trace();

    // Warm-up: cold table build, then the re-pricing epoch it induces.
    for epoch in 0..2 {
        let (lo, hi) = (epoch * fixture.epoch_days, (epoch + 1) * fixture.epoch_days);
        engine.ingest(&columns.filter_day_range(lo, hi));
        engine.advance(hi);
        engine.reoptimize()?;
    }

    let mut full_resolve_s = 0.0;
    let mut incremental_s = 0.0;
    let mut rows_patched = 0usize;
    let mut retier_decisions = 0usize;
    for epoch in 2..fixture.epochs {
        let (lo, hi) = (epoch * fixture.epoch_days, (epoch + 1) * fixture.epoch_days);
        engine.ingest(&columns.filter_day_range(lo, hi));
        engine.advance(hi);

        let (t_full, cold) = time_min(reps, || reference::full_resolve(&engine));
        let cold = cold?;
        full_resolve_s += t_full;

        let t = Instant::now();
        let outcome = engine.reoptimize()?;
        incremental_s += t.elapsed().as_secs_f64();

        // Re-check equality on the timed engine too — the speedup is only
        // meaningful if the fast path produced the same answer.
        assert_eq!(
            outcome.total_objective.to_bits(),
            reference::total_objective(&cold).to_bits(),
            "epoch {epoch}: timed run diverged from reference"
        );
        rows_patched += outcome.rows_patched;
        retier_decisions += outcome.retier_decisions;
    }

    let steady_epochs = fixture.epochs - 2;
    let decisions = f64::from(steady_epochs) * fixture.objects as f64;
    let numbers = ServeNumbers {
        steady_epochs,
        full_resolve_s,
        incremental_s,
        rows_patched,
        retier_decisions,
        full_decisions_per_s: decisions / full_resolve_s,
        incremental_decisions_per_s: decisions / incremental_s,
        speedup: full_resolve_s / incremental_s,
    };
    Ok(numbers)
}

fn main() -> Result<(), Box<dyn Error>> {
    let args = BenchArgs::parse("BENCH_8.json", &[])?;
    let cfg = ServeFixture::new(args.quick);
    let reps = if args.quick { 1 } else { 3 };
    println!(
        "serve_bench: {} objects, {} accounts, {} epochs x {} days, {} events/day{}",
        cfg.objects,
        cfg.accounts,
        cfg.epochs,
        cfg.epoch_days,
        cfg.events_per_day,
        if args.quick { " [quick]" } else { "" }
    );
    verify(&cfg)?;
    println!("differential pass: incremental == full resolve bit-for-bit on every epoch");

    let serve = bench_serve(&cfg, reps)?;
    println!(
        "full resolve   {:>9.4} s over {} steady epochs ({:>10.0} decisions/s)",
        serve.full_resolve_s, serve.steady_epochs, serve.full_decisions_per_s
    );
    println!(
        "incremental    {:>9.4} s over {} steady epochs ({:>10.0} decisions/s, {} rows patched, {} re-tierings)",
        serve.incremental_s,
        serve.steady_epochs,
        serve.incremental_decisions_per_s,
        serve.rows_patched,
        serve.retier_decisions
    );
    println!("speedup        {:>9.2}x (floor 5x)", serve.speedup);
    assert!(
        serve.speedup >= 5.0,
        "steady-state incremental re-solve is only {:.2}x the full-resolve baseline (need >= 5x)",
        serve.speedup
    );

    if args.json {
        let json = format!(
            "{{\n  \"issue\": 8,\n  \"quick\": {},\n  \"config\": {{\n    \"objects\": {},\n    \"accounts\": {},\n    \"epochs\": {},\n    \"epoch_days\": {},\n    \"events_per_day\": {},\n    \"reps\": {}\n  }},\n  \"serve\": {{\n    \"steady_epochs\": {},\n    \"full_resolve_s\": {:.6},\n    \"incremental_s\": {:.6},\n    \"full_decisions_per_s\": {:.0},\n    \"incremental_decisions_per_s\": {:.0},\n    \"speedup\": {:.2},\n    \"rows_patched\": {},\n    \"retier_decisions\": {},\n    \"note\": \"steady-state re-tiering decisions/s over post-cold-start epochs; every epoch asserted bit-identical to reference::full_resolve (and thread-count independent) in this process before timing; incremental path re-evaluates only heat-rebucketed rows via CostTable::patch_rows and re-decides them with the same first-minimum rule as the batch greedy\"\n  }}\n}}\n",
            args.quick,
            cfg.objects,
            cfg.accounts,
            cfg.epochs,
            cfg.epoch_days,
            cfg.events_per_day,
            reps,
            serve.steady_epochs,
            serve.full_resolve_s,
            serve.incremental_s,
            serve.full_decisions_per_s,
            serve.incremental_decisions_per_s,
            serve.speedup,
            serve.rows_patched,
            serve.retier_decisions,
        );
        std::fs::write(&args.out, &json)?;
        println!("wrote {}", args.out);
    }
    Ok(())
}
