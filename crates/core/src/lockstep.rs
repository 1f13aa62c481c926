//! The lockstep replay driver: one serving schedule, run through one step
//! loop, behind the plain and the fault-injected scenarios.
//!
//! The paper's production setting is a single loop — access events
//! arrive, heat moves, OPTASSIGN re-tiers. This module owns that loop
//! once:
//!
//! * a `Fleet` is everything needed to build (and restore) identical
//!   registered [`ServeEngine`]s;
//! * a `Schedule` is the step list every engine replays: deliveries of
//!   sequenced batches (cut by the only batch splitter, `split_batches`)
//!   interleaved with epoch boundaries (advance, incremental re-solve,
//!   checkpoint);
//! * the private `drive` function is the only step loop. It takes every
//!   step through [`Serving`] — [`Serving::deliver`],
//!   [`Serving::advance_to`], [`Serving::resolve`] with a [`FaultPlan`]'s
//!   compute faults, [`Serving::checkpoint_epoch`] — so it runs a plain
//!   engine or a journaled one alike, and writes one [`EpochRecord`] per
//!   boundary. Its one crash is a plain engine's: checkpointed, dropped
//!   and restored after the epochs a [`FaultPlan`] picks.
//!
//! [`run_serving`] and [`run_chaos`] are configurations of that loop over
//! a generated enterprise account, and with their option / outcome types
//! the module's whole public surface. The contracts, all exact:
//!
//! * **Reference equality** (both scenarios, every epoch). The cold batch
//!   path — [`reference::full_resolve`], taken after the advance and
//!   before the incremental re-solve so both price transitions from the
//!   same placements — must match every healthy (non-stale) shard
//!   bit-for-bit: account, choices, objective bits and breakdown (the
//!   engine sums a dense mirror of its chosen table entries, the
//!   reference a freshly built table), and the total when no shard is
//!   stale ([`EpochRecord::matches_reference`]).
//! * **Intake equality** (chaos). The plan's corrupt, torn, duplicated
//!   and reordered batches become the delivered schedule, next to the
//!   *clean* schedule a fault-free twin replays; after
//!   every epoch the faulted engine's heat equals the twin's bit-for-bit
//!   ([`EpochRecord::heat_matches_twin`]), and at the end its quarantine
//!   ledger and drop/seen counters equal the independent
//!   [`expected_intake`] reference.
//! * **Crash consistency** (chaos). On the epochs the plan picks, the
//!   engine is checkpointed, dropped and restored; every restore must
//!   round-trip its snapshot byte-for-byte, and the run continues on the
//!   restored engine next to one that replays the same faulted stream and
//!   never crashes — their checkpoints must be byte-identical after every
//!   epoch and at the end.
//!
//! The durable engine's crashes are not sampled here: `scope-serve`'s
//! journal tests enumerate a crash at every storage operation of a fixed
//! run, torn tails and a second crash included.

use crate::lifecycle::billing_events;
use crate::ScopeError;
use scope_cloudsim::{EventColumns, TierCatalog, TierId, DAYS_PER_MONTH};
use scope_faults::{expected_intake, FaultPlan, FaultRates};
use scope_serve::{
    reference, AccountAssignment, CompressionOption, ResolveOutcome, ServeConfig, ServeEngine,
    ServeError, ServeObject, Serving,
};
use scope_workload::{EnterpriseOptions, EnterpriseWorkload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The fleet and schedule options every scenario shares; on their own,
/// the options of the plain serving replay. The engine's decay and bucket
/// base are [`ServeConfig::default`]'s; the catalog, the schemes, the
/// account shards and the batches per epoch are the scenario's own
/// constants.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOptions {
    /// The enterprise account to generate (catalog + day-resolution log).
    pub workload: EnterpriseOptions,
    /// Re-optimization cadence in days (an epoch = deliveries + advance +
    /// re-solve).
    pub epoch_days: u32,
    /// Worker threads for the sharded re-solve (0 = default).
    pub threads: usize,
}

impl Default for ServingOptions {
    fn default() -> Self {
        ServingOptions {
            workload: EnterpriseOptions::default(),
            epoch_days: 15,
            threads: 0,
        }
    }
}

/// The tier catalog the engines re-optimize over: the paper's enterprise
/// account is an Azure storage account, so Azure's Hot, Cool and Archive.
fn catalog() -> TierCatalog {
    TierCatalog::azure_hot_cool_archive()
}

/// The compression schemes every object offers: the mandatory identity
/// scheme (index 0) and one zstd-like codec, so a re-solve trades storage
/// against decompression as well as tiers.
fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("zstd", 2.4, 0.35),
    ]
}

/// Billing accounts the datasets are sharded into round-robin: four
/// shards re-solve independently, so one shard can fail or go stale while
/// the others stay pinned to the reference.
const ACCOUNTS: usize = 4;

/// Batches each epoch's events are split into before delivery, the unit of
/// journaling, tearing, duplication and reordering: four give every epoch
/// a batch to lose, repeat and reorder without making the journal long.
const BATCHES_PER_EPOCH: usize = 4;

/// Options for the chaos replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// The fleet and its schedule.
    pub serving: ServingOptions,
    /// Fault-plan seed.
    pub seed: u64,
    /// Fault-plan rates.
    pub rates: FaultRates,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            serving: ServingOptions::default(),
            seed: 0xC4A0_5EED,
            rates: FaultRates::light(),
        }
    }
}

/// One epoch boundary of a lockstep replay. The `*_twin` flags are `true`
/// in scenarios that run no twin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Day the engine advanced to before this re-solve.
    pub day: u32,
    /// Events folded into heat by this epoch's deliveries.
    pub folded_events: u64,
    /// Events quarantined this epoch.
    pub quarantined_events: u64,
    /// Events lost to torn columns this epoch.
    pub truncated_events: u64,
    /// Cost-table rows (re)evaluated this epoch.
    pub rows_patched: usize,
    /// Objects whose placement changed this epoch.
    pub retier_decisions: usize,
    /// Shards degraded (faulted or backing off) this epoch.
    pub degraded_accounts: usize,
    /// Shards still serving a stale incumbent after this epoch.
    pub stale_accounts: usize,
    /// Total objective across accounts after the re-solve.
    pub total_objective: f64,
    /// Whether every healthy (non-stale) shard matched the cold batch
    /// reference bit-for-bit — all of them, and the total, when none is
    /// stale.
    pub matches_reference: bool,
    /// Whether per-object heat equalled the fault-free twin's bit-for-bit.
    pub heat_matches_twin: bool,
    /// Whether the engine checkpoint equalled the never-crashed twin's
    /// byte-for-byte.
    pub checkpoint_matches_twin: bool,
    /// Whether the re-solve objective equalled the never-crashed twin's
    /// bit-for-bit.
    pub objective_bits_match: bool,
    /// Whether this boundary was followed by a crash and restore.
    pub crashed: bool,
}

/// Outcome of the serving replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingOutcome {
    /// Per-epoch records, in replay order.
    pub epochs: Vec<EpochRecord>,
    /// Objects served.
    pub objects: usize,
    /// Account shards.
    pub accounts: usize,
    /// Total objective after the final epoch.
    pub final_total_objective: f64,
    /// Placement changes across all epochs.
    pub total_retier_decisions: usize,
    /// Row evaluations across all epochs (the work an equivalent sequence
    /// of batch solves would have spent is `epochs * objects`).
    pub total_rows_patched: usize,
    /// Out-of-horizon events dropped by ingestion.
    pub dropped_events: u64,
    /// The engine's checkpoint after the final epoch.
    pub final_checkpoint: Vec<u8>,
}

/// Outcome of the chaos replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosOutcome {
    /// Per-epoch records of the crash-and-restore engine, in replay order.
    pub epochs: Vec<EpochRecord>,
    /// Objects served.
    pub objects: usize,
    /// Account shards.
    pub accounts: usize,
    /// Simulated crashes survived (checkpoint → restore → continue).
    pub crashes: usize,
    /// Whether every restored engine's checkpoint was byte-identical to
    /// the snapshot it was restored from, and after every epoch to the
    /// never-crashed engine's.
    pub recoveries_bit_identical: bool,
    /// Whether the crash-and-restore engine's final checkpoint was
    /// byte-identical to the never-crashed engine's over the same faulted
    /// stream.
    pub recovered_matches_never_crashed: bool,
    /// Total events quarantined (including past ledger capacity).
    pub quarantined_events: u64,
    /// Whether the final quarantine ledger, drop and seen counters
    /// matched the independent [`scope_faults::expected_intake`]
    /// reference exactly.
    pub intake_matches_expected: bool,
    /// Out-of-horizon events dropped by ingestion.
    pub dropped_events: u64,
    /// Duplicate batch deliveries rejected by sequenced intake.
    pub duplicate_batches: u64,
    /// Placement changes across all epochs.
    pub total_retier_decisions: usize,
    /// Total objective after the final epoch.
    pub final_total_objective: f64,
    /// The crash-and-restore engine's checkpoint after the final epoch.
    pub final_checkpoint: Vec<u8>,
}

/// One step of a serving schedule.
#[derive(Debug, Clone, PartialEq)]
enum Step {
    /// Deliver sequenced batch `seq`.
    Deliver(u64, EventColumns),
    /// Boundary of the 0-based `epoch`: advance to `day`, re-solve,
    /// checkpoint.
    Epoch { day: u32, epoch: usize },
}

/// The delivery schedule every engine of a scenario replays.
#[derive(Debug, Clone, PartialEq)]
struct Schedule {
    steps: Vec<Step>,
    epochs: usize,
    horizon_days: u32,
}

/// Split `columns` into `n` contiguous batches, preserving trace order.
/// The batches are equal-sized up to the remainder; empty batches are
/// kept so the sequence-number stream stays dense.
fn split_batches(columns: &EventColumns, n: usize) -> Vec<EventColumns> {
    let total = columns.len();
    let per = total.div_ceil(n.max(1)).max(1);
    (0..n.max(1))
        .map(|b| columns.range((b * per).min(total)..((b + 1) * per).min(total)))
        .collect()
}

impl Schedule {
    /// Lay `columns` out as epochs of `epoch_days` up to `horizon_days`,
    /// each delivered as `BATCHES_PER_EPOCH` sequenced batches followed by
    /// its boundary.
    fn new(
        columns: &EventColumns,
        horizon_days: u32,
        epoch_days: u32,
    ) -> Result<Schedule, ScopeError> {
        if epoch_days == 0 {
            return Err(ScopeError::InvalidConfig(
                "epoch_days must be positive".into(),
            ));
        }
        let mut steps = Vec::new();
        let (mut seq, mut epochs, mut day) = (0u64, 0usize, 0u32);
        while day < horizon_days {
            let hi = (day + epoch_days).min(horizon_days);
            for batch in split_batches(&columns.filter_day_range(day, hi), BATCHES_PER_EPOCH) {
                steps.push(Step::Deliver(seq, batch));
                seq += 1;
            }
            steps.push(Step::Epoch {
                day: hi,
                epoch: epochs,
            });
            epochs += 1;
            day = hi;
        }
        Ok(Schedule {
            steps,
            epochs,
            horizon_days,
        })
    }

    /// Push every delivery through `plan`'s intake faults — each batch
    /// corrupted and possibly torn, each epoch's batches delivered with
    /// duplication and local reordering. Returns the schedule the engine
    /// under test receives, the *clean* schedule a fault-free twin replays
    /// instead (every delivered event the validating intake will not
    /// divert), and the corrupted batches once each in sequence order (the
    /// input to the independent intake reference).
    fn inject(&self, plan: &FaultPlan) -> (Schedule, Schedule, Vec<EventColumns>) {
        let empty = || Schedule {
            steps: Vec::new(),
            ..*self
        };
        let (mut delivered, mut clean) = (empty(), empty());
        let mut in_order = Vec::new();
        let mut pending = Vec::new();
        for step in &self.steps {
            match step {
                Step::Deliver(seq, batch) => {
                    let corrupted = plan.corrupt_batch(*seq, batch, self.horizon_days);
                    clean.steps.push(Step::Deliver(*seq, corrupted.clean));
                    pending.push((*seq, corrupted.delivered));
                }
                Step::Epoch { epoch, .. } => {
                    let deliveries = plan.deliver(*epoch as u64, &pending);
                    let deliveries = deliveries.into_iter().map(|(s, b)| Step::Deliver(s, b));
                    delivered.steps.extend(deliveries.chain([step.clone()]));
                    clean.steps.push(step.clone());
                    in_order.extend(pending.drain(..).map(|(_, batch)| batch));
                }
            }
        }
        (delivered, clean, in_order)
    }
}

/// Everything needed to build, and after a crash rebuild, identical
/// registered engines over `catalog()` and `schemes()`.
#[derive(Debug, Clone, PartialEq)]
struct Fleet {
    /// Engine configuration.
    config: ServeConfig,
    /// The objects, in registration (= interned id) order.
    objects: Vec<ServeObject>,
}

impl Fleet {
    /// A fresh engine with every object registered.
    fn engine(&self) -> Result<ServeEngine, ServeError> {
        let mut engine = ServeEngine::new(catalog(), schemes(), self.config.clone())?;
        for object in &self.objects {
            engine.register(object.clone())?;
        }
        Ok(engine)
    }

    /// Number of account shards.
    fn accounts(&self) -> usize {
        let accounts: BTreeSet<&str> = self.objects.iter().map(|o| o.account.as_str()).collect();
        accounts.len()
    }
}

/// The enterprise fixture: the generated account's datasets round-robined
/// into billing accounts on the platform default tier, and the projection
/// window of its day log as the schedule.
fn enterprise_replay(options: &ServingOptions) -> Result<(Fleet, Schedule), ScopeError> {
    let workload = EnterpriseWorkload::generate(options.workload.clone())?;
    let horizon_months = workload.options.future_months;
    let horizon_days = horizon_months * DAYS_PER_MONTH;
    let events = billing_events(
        &workload,
        workload.projection_start() * DAYS_PER_MONTH,
        horizon_days,
    )?;
    let fleet = Fleet {
        config: ServeConfig {
            horizon_days,
            horizon_months: f64::from(horizon_months),
            threads: options.threads,
            ..ServeConfig::default()
        },
        objects: workload
            .catalog
            .iter()
            .map(|d| {
                ServeObject::new(
                    d.name.clone(),
                    format!("account-{}", d.id % ACCOUNTS),
                    d.size_gb,
                    TierId(0),
                )
                .with_latency_threshold(d.latency_threshold_seconds)
            })
            .collect(),
    };
    let engine = fleet.engine()?;
    let columns = EventColumns::from_events(&events, |n| engine.object_id(n));
    let schedule = Schedule::new(&columns, horizon_days, options.epoch_days)?;
    Ok((fleet, schedule))
}

/// What one boundary left behind: the public record plus the exact state
/// twins are compared on.
struct Trace {
    record: EpochRecord,
    heat: Vec<Option<u64>>,
    checkpoint: Vec<u8>,
}

/// A finished replay.
struct Replayed<E> {
    engine: E,
    epochs: Vec<Trace>,
}

impl<E> Replayed<E> {
    fn records(&self) -> Vec<EpochRecord> {
        self.epochs.iter().map(|t| t.record.clone()).collect()
    }
}

/// Whether every healthy shard of `resolved` equals the cold reference.
fn matches_reference(cold: &[AccountAssignment], resolved: &ResolveOutcome) -> bool {
    cold.len() == resolved.accounts.len()
        && cold.iter().zip(&resolved.accounts).all(|(c, i)| {
            i.stale
                || (c.account == i.account
                    && c.assignment.choices == i.assignment.choices
                    && c.assignment.objective.to_bits() == i.assignment.objective.to_bits()
                    && c.assignment.breakdown == i.assignment.breakdown)
        })
        && (resolved.accounts.iter().any(|a| a.stale)
            || reference::total_objective(cold).to_bits() == resolved.total_objective.to_bits())
}

/// The step loop. Replays `schedule` on `engine` through its [`Serving`]
/// steps — deliveries through the sequenced intake; at each boundary
/// advance, take the cold reference, re-solve under `compute`'s shard
/// faults, checkpoint and record. After each boundary `crash_after` is
/// handed the engine and the epoch: it may crash the engine and bring it
/// back, and says whether it did. `twins` are the per-epoch traces of the
/// fault-free twin (heat) and of the never-crashed twin (checkpoint and
/// objective) to compare against.
fn drive<E: Serving>(
    fleet: &Fleet,
    schedule: &Schedule,
    compute: Option<&FaultPlan>,
    mut engine: E,
    mut crash_after: impl FnMut(&mut E, usize) -> Result<bool, ServeError>,
    twins: Option<(&[Trace], &[Trace])>,
) -> Result<Replayed<E>, ScopeError> {
    let shards = fleet.accounts();
    let mut epochs = Vec::with_capacity(schedule.epochs);
    // Intake counters since the last boundary.
    let mut intake = (0u64, 0u64, 0u64);
    for (pos, step) in schedule.steps.iter().enumerate() {
        let (day, epoch) = match step {
            Step::Deliver(seq, batch) => {
                let report = engine.deliver(*seq, batch)?;
                intake.0 += report.folded;
                intake.1 += report.quarantined;
                intake.2 += report.truncated;
                continue;
            }
            Step::Epoch { day, epoch } => (*day, *epoch),
        };
        engine.advance_to(day)?;
        // The cold reference must be taken before the incremental re-solve:
        // both solve from the same pre-solve placements (the re-solve then
        // updates them, changing transition costs).
        let cold = reference::full_resolve(engine.engine())?;
        let faults = compute.map_or_else(Vec::new, |p| p.shard_faults(epoch as u64, shards));
        let resolved = engine.resolve(&faults)?;
        engine.checkpoint_epoch(pos as u64 + 1)?;
        let served = engine.engine();
        let heat: Vec<Option<u64>> = (0..served.len() as u32)
            .map(|id| served.heat(id).map(f64::to_bits))
            .collect();
        let checkpoint = served.checkpoint();
        let (heat_ok, checkpoint_ok, objective_ok) =
            twins.map_or((true, true, true), |(clean, steady)| {
                (
                    clean[epoch].heat == heat,
                    steady[epoch].checkpoint == checkpoint,
                    steady[epoch].record.total_objective.to_bits()
                        == resolved.total_objective.to_bits(),
                )
            });
        let mut record = EpochRecord {
            day,
            folded_events: intake.0,
            quarantined_events: intake.1,
            truncated_events: intake.2,
            rows_patched: resolved.rows_patched,
            retier_decisions: resolved.retier_decisions,
            degraded_accounts: resolved.degraded_accounts,
            stale_accounts: served.stale_accounts().len(),
            total_objective: resolved.total_objective,
            matches_reference: matches_reference(&cold, &resolved),
            heat_matches_twin: heat_ok,
            checkpoint_matches_twin: checkpoint_ok,
            objective_bits_match: objective_ok,
            crashed: false,
        };
        record.crashed = crash_after(&mut engine, epoch)?;
        epochs.push(Trace {
            record,
            heat,
            checkpoint,
        });
        intake = (0, 0, 0);
    }
    Ok(Replayed { engine, epochs })
}

/// [`drive`] a fresh plain engine that never crashes and has no twin.
fn drive_plain(
    fleet: &Fleet,
    schedule: &Schedule,
    compute: Option<&FaultPlan>,
) -> Result<Replayed<ServeEngine>, ScopeError> {
    drive(
        fleet,
        schedule,
        compute,
        fleet.engine()?,
        |_, _| Ok(false),
        None,
    )
}

/// Replay the projection window of a generated enterprise account through
/// a plain serving engine, re-optimizing every `epoch_days` and checking
/// every epoch against the batch reference.
pub fn run_serving(options: &ServingOptions) -> Result<ServingOutcome, ScopeError> {
    let (fleet, schedule) = enterprise_replay(options)?;
    let run = drive_plain(&fleet, &schedule, None)?;
    let engine = &run.engine;
    let epochs = run.records();
    Ok(ServingOutcome {
        objects: engine.len(),
        accounts: fleet.accounts(),
        final_total_objective: epochs.last().map_or(0.0, |e| e.total_objective),
        total_retier_decisions: epochs.iter().map(|e| e.retier_decisions).sum(),
        total_rows_patched: epochs.iter().map(|e| e.rows_patched).sum(),
        dropped_events: engine.dropped_events(),
        final_checkpoint: engine.checkpoint(),
        epochs,
    })
}

/// Replay the same window under the seeded fault schedule as a
/// three-engine lockstep, verifying the degraded-mode contracts every
/// epoch (see the [module docs](self)): one engine takes the faulted
/// stream and compute faults and is checkpointed, dropped and restored on
/// the plan's crash epochs; a second takes the same stream and faults and
/// never crashes; a fault-free twin takes the filtered stream.
pub fn run_chaos(options: &ChaosOptions) -> Result<ChaosOutcome, ScopeError> {
    let plan = FaultPlan::new(options.seed, options.rates)
        .map_err(|err| ScopeError::InvalidConfig(err.to_string()))?;
    let (fleet, schedule) = enterprise_replay(&options.serving)?;
    let (delivered, clean, in_order) = schedule.inject(&plan);
    let twin = drive_plain(&fleet, &clean, None)?;
    let steady = drive_plain(&fleet, &delivered, Some(&plan))?;
    // A crash checkpoints the engine, drops it and restores the snapshot,
    // which must round-trip byte for byte.
    let mut restores_bit_identical = true;
    let crash_after = |engine: &mut ServeEngine, epoch: usize| {
        if !plan.crash_after_epoch(epoch as u64) {
            return Ok(false);
        }
        let snapshot = engine.checkpoint();
        *engine = ServeEngine::restore(catalog(), schemes(), &snapshot)?;
        restores_bit_identical &= engine.checkpoint() == snapshot;
        Ok(true)
    };
    let run = drive(
        &fleet,
        &delivered,
        Some(&plan),
        fleet.engine()?,
        crash_after,
        Some((&twin.epochs, &steady.epochs)),
    )?;

    let engine = &run.engine;
    let epochs = run.records();
    let quarantined_events = epochs.iter().map(|e| e.quarantined_events).sum();
    let expected = expected_intake(
        &in_order,
        schedule.horizon_days,
        engine.len() as u32,
        engine.quarantine().capacity(),
    );
    let final_checkpoint = engine.checkpoint();
    Ok(ChaosOutcome {
        objects: engine.len(),
        accounts: fleet.accounts(),
        crashes: epochs.iter().filter(|e| e.crashed).count(),
        recoveries_bit_identical: restores_bit_identical
            && epochs.iter().all(|e| e.checkpoint_matches_twin),
        recovered_matches_never_crashed: final_checkpoint == steady.engine.checkpoint(),
        quarantined_events,
        intake_matches_expected: engine.quarantine().entries() == expected.records
            && engine.quarantine().total() == expected.quarantined
            && engine.quarantine().truncated() == expected.truncated
            && engine.dropped_events() == expected.dropped
            && engine.events_seen() == expected.events_seen
            && quarantined_events == expected.quarantined,
        dropped_events: engine.dropped_events(),
        duplicate_batches: engine.duplicate_batches(),
        total_retier_decisions: epochs.iter().map(|e| e.retier_decisions).sum(),
        final_total_objective: epochs.last().map_or(0.0, |e| e.total_objective),
        final_checkpoint,
        epochs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_serve::JournaledEngine;
    use scope_wal::{JournalConfig, MemStorage};

    /// The scenarios' test fleet: 60 datasets, a six-month window.
    fn serving() -> ServingOptions {
        ServingOptions {
            workload: EnterpriseOptions {
                n_datasets: 60,
                history_months: 6,
                future_months: 6,
                seed: 11,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn chaos() -> ChaosOptions {
        ChaosOptions {
            serving: serving(),
            ..Default::default()
        }
    }

    fn columns(n: usize) -> EventColumns {
        let mut columns = EventColumns::default();
        for i in 0..n {
            let kind = if i % 4 == 0 {
                scope_cloudsim::AccessKind::Write
            } else {
                scope_cloudsim::AccessKind::Read
            };
            columns.push_resolved(i as u32 / 3, i as u32 % 7, kind, 0.5 + i as f64);
        }
        columns
    }

    #[test]
    fn split_batches_is_an_exact_partition() {
        // Every (length, batch count) pair up to 40 x 60, which covers
        // empty input and more batches than events.
        for len in 0..40 {
            let input = columns(len);
            for n in 1..60 {
                let batches = split_batches(&input, n);
                assert_eq!(batches.len(), n, "len {len}");
                let mut joined = EventColumns::default();
                for batch in &batches {
                    joined.extend_from(batch);
                }
                assert_eq!(joined, input, "len {len}, n {n}");
            }
        }
    }

    #[test]
    fn plain_faultless_and_journaled_replays_are_one_trajectory() {
        let serving = ServingOptions {
            workload: EnterpriseOptions {
                n_datasets: 40,
                history_months: 4,
                future_months: 4,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        let plain = run_serving(&serving).unwrap();
        let chaos = run_chaos(&ChaosOptions {
            serving: serving.clone(),
            rates: FaultRates::none(),
            ..Default::default()
        })
        .unwrap();
        // The journaled engine replays the scenario-size schedule through
        // the same loop and never crashes. Two records to a segment roll
        // segments inside every epoch (four deliveries and a marker), not
        // only at its publish.
        let (fleet, schedule) = enterprise_replay(&serving).unwrap();
        let cfg = JournalConfig {
            segment_records: 2,
            ..JournalConfig::default()
        };
        let journaled =
            JournaledEngine::create(fleet.engine().unwrap(), MemStorage::new(), cfg).unwrap();
        let journaled = drive(&fleet, &schedule, None, journaled, |_, _| Ok(false), None).unwrap();
        assert!(journaled.engine.journal().active_segment() > 2 * schedule.epochs as u64);
        let bits = |epochs: &[EpochRecord]| -> Vec<u64> {
            epochs.iter().map(|e| e.total_objective.to_bits()).collect()
        };
        assert_eq!(plain.epochs.len(), 8);
        assert_eq!(bits(&plain.epochs), bits(&chaos.epochs));
        assert_eq!(bits(&plain.epochs), bits(&journaled.records()));
        assert!(!plain.final_checkpoint.is_empty());
        assert_eq!(plain.final_checkpoint, chaos.final_checkpoint);
        assert_eq!(
            plain.final_checkpoint,
            journaled.engine.engine().checkpoint()
        );
    }

    #[test]
    fn serving_replay_matches_the_batch_reference_on_every_epoch() {
        let outcome = run_serving(&serving()).unwrap();
        assert_eq!(outcome.objects, 60);
        assert_eq!(outcome.epochs.len(), 12); // 180 days / 15-day epochs
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(e.matches_reference, "epoch {i} diverged from reference");
        }
        // The first epoch is a cold build; the steady state is a delta
        // path that re-evaluates only re-bucketed rows.
        assert_eq!(outcome.epochs[0].rows_patched, outcome.objects);
        let warm_rows: usize = outcome.epochs[1..].iter().map(|e| e.rows_patched).sum();
        assert!(
            warm_rows < (outcome.epochs.len() - 1) * outcome.objects,
            "warm epochs patched {warm_rows} rows; not incremental"
        );
        // Cooling datasets make the engine move placements mid-stream.
        assert!(outcome.total_retier_decisions > 0, "{outcome:?}");
        // The replayed trace lies inside the configured horizon.
        assert_eq!(outcome.dropped_events, 0);
        assert!(outcome.final_total_objective.is_finite());
    }

    #[test]
    fn serving_options_are_validated() {
        let bad = ServingOptions {
            epoch_days: 0,
            ..serving()
        };
        assert!(matches!(
            run_serving(&bad),
            Err(ScopeError::InvalidConfig(_))
        ));
    }

    fn assert_chaos_contracts(outcome: &ChaosOutcome) {
        assert!(outcome.recoveries_bit_identical);
        assert!(outcome.intake_matches_expected);
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(e.heat_matches_twin, "epoch {i} heat diverged from twin");
            assert!(
                e.matches_reference,
                "epoch {i} healthy shards diverged from reference"
            );
        }
    }

    #[test]
    fn chaos_replay_upholds_every_contract_under_light_faults() {
        let outcome = run_chaos(&chaos()).unwrap();
        assert_eq!(outcome.objects, 60);
        assert_eq!(outcome.epochs.len(), 12);
        assert_chaos_contracts(&outcome);
        // The light mix actually exercised something.
        assert!(outcome.quarantined_events > 0, "{outcome:?}");
        assert!(outcome.duplicate_batches > 0, "{outcome:?}");
        assert!(outcome.crashes > 0, "{outcome:?}");
        assert!(
            outcome.epochs.iter().any(|e| e.degraded_accounts > 0),
            "{outcome:?}"
        );
        assert!(outcome.final_total_objective.is_finite());
    }

    #[test]
    fn chaos_replay_under_heavy_faults_still_recovers() {
        let outcome = run_chaos(&ChaosOptions {
            rates: FaultRates::heavy(),
            seed: 7,
            ..chaos()
        })
        .unwrap();
        assert_chaos_contracts(&outcome);
        assert!(outcome.crashes > 0);
    }

    #[test]
    fn a_faultless_plan_reduces_to_the_serving_replay() {
        let outcome = run_chaos(&ChaosOptions {
            rates: FaultRates::none(),
            ..chaos()
        })
        .unwrap();
        assert_chaos_contracts(&outcome);
        assert_eq!(outcome.quarantined_events, 0);
        assert_eq!(outcome.duplicate_batches, 0);
        assert_eq!(outcome.crashes, 0);
        assert!(outcome.epochs.iter().all(|e| e.degraded_accounts == 0));
        // With no faults the chaos loop must reproduce the serving
        // scenario's replay exactly (same trace, same engine settings).
        let serving = run_serving(&serving()).unwrap();
        assert_eq!(
            outcome.final_total_objective.to_bits(),
            serving.final_total_objective.to_bits()
        );
        assert_eq!(
            outcome.total_retier_decisions,
            serving.total_retier_decisions
        );
    }

    #[test]
    fn chaos_options_are_validated() {
        for bad in [
            ChaosOptions {
                serving: ServingOptions {
                    epoch_days: 0,
                    ..serving()
                },
                ..chaos()
            },
            ChaosOptions {
                rates: FaultRates {
                    crash: 1.5,
                    ..FaultRates::none()
                },
                ..chaos()
            },
        ] {
            assert!(matches!(run_chaos(&bad), Err(ScopeError::InvalidConfig(_))));
        }
    }
}
