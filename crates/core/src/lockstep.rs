//! The lockstep replay driver: one serving schedule, run through one step
//! loop, behind the plain, fault-injected and journaled scenarios.
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
//!   engine or a [`JournaledEngine`] over fault-injected storage alike,
//!   and writes one [`EpochRecord`] per boundary. What differs per engine
//!   kind is only its private crash policy: when the engine crashes and
//!   how it comes back (a plain engine is restored from its snapshot, a
//!   journaled one recovers from its storage).
//!
//! [`run_serving`], [`run_chaos`] and [`run_recovery`] are configurations
//! of that loop over a generated enterprise account, and with their
//! option / outcome types the module's whole public surface. The
//! contracts, all exact:
//!
//! * **Reference equality** (every scenario, every epoch). The cold batch
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
//! * **Durable recovery** (recovery). The journaled engine runs over
//!   [`FaultyStorage`]: the seeded [`StorageFaultPlan`] fails and tears
//!   appends, fails syncs and picks crash points, and
//!   [`StorageFaultPlan::fuzz_points`] forces `FUZZ_CRASHES` (3) more at
//!   fuzzed step positions. At a crash the plan may tear the unsynced
//!   tail and flip a durable bit; the single recovery protocol
//!   ([`JournaledEngine::recover`]) then rebuilds the engine and the loop
//!   resumes from the position the
//!   [`scope_serve::RecoveryReport`] proves durable — lost deliveries are
//!   simply re-delivered, and the journal's epoch markers keep the resume
//!   point from landing past an un-replayed boundary. If corruption
//!   destroys every checkpoint *and* the journal's origin, storage is
//!   wiped and the schedule restarts from step zero. After every epoch
//!   the durable checkpoint and the objective bits must equal the
//!   never-crashed twin's.
//!
//! Livelock is impossible by construction: [`FaultyStorage`] mixes its
//! crash generation into every draw, forced crashes fire once, and after
//! `CRASH_CAP` (48) crashes a rates-none plan takes over so the run
//! drains.

use crate::lifecycle::billing_events;
use crate::ScopeError;
use scope_cloudsim::{EventColumns, TierCatalog, TierId, DAYS_PER_MONTH};
use scope_faults::{
    expected_intake, FaultPlan, FaultRates, FaultyStorage, StorageFaultPlan, StorageFaultRates,
};
use scope_serve::{
    reference, AccountAssignment, CompressionOption, JournaledEngine, ResolveOutcome, ServeConfig,
    ServeEngine, ServeError, ServeObject, Serving,
};
use scope_wal::{JournalConfig, MemStorage, WalError};
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

/// Options for the crash-recovery replay.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOptions {
    /// The fleet and its schedule.
    pub serving: ServingOptions,
    /// Storage-fault-plan seed.
    pub seed: u64,
    /// Storage-fault-plan rates.
    pub rates: StorageFaultRates,
}

/// Records per journal segment: eight, far below the journal's default, so
/// every replay rolls segments and recovery crosses segment boundaries.
const SEGMENT_RECORDS: usize = 8;

/// Crashes forced at fuzzed step positions regardless of the crash rate
/// (each fires exactly once): at least three crash points per run, whatever
/// the plan's rates draw.
const FUZZ_CRASHES: usize = 3;

/// After this many crashes the plan is swapped for rates-none so the run
/// always drains (forced fuzz crashes still fire): it bounds a run's
/// recoveries whatever crash rate the plan draws.
const CRASH_CAP: usize = 48;

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            serving: ServingOptions::default(),
            seed: 0xD0_5EED,
            rates: StorageFaultRates::light(),
        }
    }
}

/// One epoch boundary of a lockstep replay, as its last attempt left it
/// (a journaled engine re-runs a boundary it crashed across). The
/// `*_twin` flags are `true` in scenarios that run no twin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Day the engine advanced to before this re-solve.
    pub day: u32,
    /// Times this boundary executed (re-runs after crashes included).
    pub attempts: u32,
    /// Events folded into heat by this epoch's deliveries (events a
    /// recovery replayed from the journal are not counted again).
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
    /// Whether this boundary was followed by a crash and recovery.
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

/// Outcome of the crash-recovery replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryOutcome {
    /// Per-epoch records, in schedule order.
    pub epochs: Vec<EpochRecord>,
    /// Objects served.
    pub objects: usize,
    /// Steps in the schedule (deliveries + epochs).
    pub steps: usize,
    /// Crashes survived (plan-drawn, fault-triggered, and forced).
    pub crashes: usize,
    /// Crashes forced at fuzzed positions.
    pub forced_crashes: usize,
    /// Injected append/sync failures that surfaced as typed errors.
    pub injected_op_faults: usize,
    /// Crashes that tore the unsynced tail.
    pub torn_crashes: usize,
    /// Crashes that flipped a durable bit.
    pub bit_flip_crashes: usize,
    /// Recoveries that found no usable checkpoint and rebuilt fresh.
    pub recoveries_started_fresh: usize,
    /// Full restarts after storage corruption destroyed the journal
    /// origin (recovery by total re-delivery).
    pub unrecoverable_resets: usize,
    /// Checkpoints quarantined (deleted) during walk-back, total.
    pub quarantined_checkpoints: usize,
    /// Corrupt interior records quarantined, total.
    pub quarantined_records: usize,
    /// Torn tail bytes truncated, total.
    pub torn_bytes: u64,
    /// Journal records replayed through the validating intake, total.
    pub replayed_records: u64,
    /// Deliveries re-executed after recoveries (the re-delivery cost).
    pub redelivered_batches: u64,
    /// Whether every attempt of every epoch left a checkpoint equal to
    /// the twin's.
    pub checkpoints_bit_identical: bool,
    /// Whether the final engine state matched the twin's bit-for-bit.
    pub final_bit_identical: bool,
    /// Whether the crash cap was hit and the plan swapped to rates-none.
    pub fault_injection_capped: bool,
    /// The recovered engine's checkpoint after the final epoch.
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

    /// The step position just after the `deliveries`-th delivery — where a
    /// recovery covering that many deliveries resumes unless its checkpoint
    /// marker proves more progress.
    fn after_delivery(&self, deliveries: u64) -> usize {
        let delivered = |step: &Step| matches!(step, Step::Deliver(seq, _) if *seq < deliveries);
        self.steps.iter().rposition(delivered).map_or(0, |i| i + 1)
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

type FaultyMem = FaultyStorage<MemStorage>;

/// The storage-fault schedule under a journaled engine.
struct StorageCrashes {
    plan: StorageFaultPlan,
    /// Takes over once `CRASH_CAP` crashes have happened.
    nofault: StorageFaultPlan,
    journal_cfg: JournalConfig,
    /// Forced crash positions still to fire, ascending.
    pending_fuzz: Vec<u64>,
}

/// What can crash a replay's engine, and how it comes back: all that
/// differs between the engine kinds [`drive`] runs, which takes every
/// step through [`Serving`].
trait CrashPolicy {
    /// The engine this policy crashes.
    type Engine: Serving;

    /// Whether `engine` crashes after completing `step` at `step_pos`.
    fn crashes_after(
        &mut self,
        engine: &Self::Engine,
        step_pos: u64,
        step: &Step,
        tally: &mut RecoveryOutcome,
    ) -> bool;

    /// Crash `engine` at `step_pos` (the crash is already counted): drop
    /// all in-memory state, recover, and return the engine with the step
    /// position to resume from (`next` when nothing was lost).
    fn recover(
        &mut self,
        engine: Self::Engine,
        fleet: &Fleet,
        schedule: &Schedule,
        step_pos: u64,
        next: usize,
        tally: &mut RecoveryOutcome,
    ) -> Result<(Self::Engine, usize), ServeError>;
}

/// A plain engine. With a plan it is checkpointed, dropped and restored
/// after the epochs the plan picks; without one it never crashes.
impl CrashPolicy for Option<&FaultPlan> {
    type Engine = ServeEngine;

    fn crashes_after(
        &mut self,
        _: &ServeEngine,
        _: u64,
        step: &Step,
        _: &mut RecoveryOutcome,
    ) -> bool {
        match (self, step) {
            (Some(plan), Step::Epoch { epoch, .. }) => plan.crash_after_epoch(*epoch as u64),
            _ => false,
        }
    }

    fn recover(
        &mut self,
        engine: ServeEngine,
        _: &Fleet,
        _: &Schedule,
        _: u64,
        next: usize,
        tally: &mut RecoveryOutcome,
    ) -> Result<(ServeEngine, usize), ServeError> {
        let snapshot = engine.checkpoint();
        let restored = ServeEngine::restore(catalog(), schemes(), &snapshot)?;
        tally.checkpoints_bit_identical &= restored.checkpoint() == snapshot;
        Ok((restored, next))
    }
}

/// A journaled engine over fault-injected in-memory storage.
impl CrashPolicy for StorageCrashes {
    type Engine = JournaledEngine<FaultyMem>;

    fn crashes_after(
        &mut self,
        journaled: &Self::Engine,
        step_pos: u64,
        _: &Step,
        tally: &mut RecoveryOutcome,
    ) -> bool {
        if self.pending_fuzz.first() == Some(&step_pos) {
            self.pending_fuzz.remove(0);
            tally.forced_crashes += 1;
            true
        } else {
            tally.crashes < CRASH_CAP
                && self
                    .plan
                    .crash_at(journaled.journal().storage().generation(), step_pos)
        }
    }

    fn recover(
        &mut self,
        journaled: Self::Engine,
        fleet: &Fleet,
        schedule: &Schedule,
        step_pos: u64,
        _: usize,
        tally: &mut RecoveryOutcome,
    ) -> Result<(Self::Engine, usize), ServeError> {
        // Apply the crash-time corruption, bump the generation so the
        // replay draws a fresh fault schedule, and past the cap rebuild the
        // wrapper around the surviving bytes with the rates-none plan so
        // the run drains.
        let mut faulty = journaled.crash();
        let (tore, flipped) = corrupt_at_crash(
            &self.plan,
            faulty.generation(),
            step_pos,
            faulty.inner_mut(),
        );
        tally.torn_crashes += usize::from(tore);
        tally.bit_flip_crashes += usize::from(flipped);
        faulty.bump_generation();
        let generations = faulty.generation();
        tally.fault_injection_capped |= tally.crashes == CRASH_CAP;
        let capped = tally.crashes >= CRASH_CAP;
        if capped {
            faulty = FaultyStorage::new(faulty.into_inner(), self.nofault.clone());
        }
        match JournaledEngine::recover(
            faulty,
            self.journal_cfg.clone(),
            catalog(),
            schemes(),
            || fleet.engine(),
        ) {
            Ok((recovered, report)) => {
                tally.recoveries_started_fresh += usize::from(report.started_fresh);
                tally.quarantined_checkpoints += report.wal.quarantined_checkpoints.len();
                tally.quarantined_records += report.wal.quarantined_records.len();
                tally.torn_bytes += report.wal.torn_bytes;
                tally.replayed_records += report.replayed;
                let resume = schedule
                    .after_delivery(report.resume_deliveries)
                    .max(report.marker as usize);
                Ok((recovered, resume))
            }
            Err(ServeError::Wal(WalError::Unrecoverable(_))) => {
                // Storage corruption destroyed the journal origin: wipe and
                // restart the whole schedule — recovery by total
                // re-delivery. The generation keeps counting.
                tally.unrecoverable_resets += 1;
                let plan = if capped { &self.nofault } else { &self.plan };
                let mut fresh = FaultyStorage::new(MemStorage::new(), plan.clone());
                for _ in 0..generations {
                    fresh.bump_generation();
                }
                let journaled =
                    JournaledEngine::create(fleet.engine()?, fresh, self.journal_cfg.clone())?;
                Ok((journaled, 0))
            }
            Err(err) => Err(err),
        }
    }
}

/// Was this error injected by the fault plan (as opposed to a real bug)?
fn is_injected(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::Wal(WalError::Io { reason, .. }) if reason.starts_with("injected fault")
    )
}

/// Apply the plan's crash-time corruption to the raw store: possibly tear
/// the newest pending tail, drop the rest of the pending bytes, possibly
/// flip one durable bit. Returns `(tore, flipped)`.
fn corrupt_at_crash(
    plan: &StorageFaultPlan,
    generation: u64,
    pos: u64,
    mem: &mut MemStorage,
) -> (bool, bool) {
    let mut tore = false;
    if let Some((name, pending)) = mem.pending_objects().into_iter().next_back() {
        if let Some(keep) = plan.torn_keep(generation, pos, pending) {
            mem.crash_torn(&name, keep);
            tore = true;
        }
    }
    mem.crash();
    let mut flipped = false;
    if let Some(draw) = plan.flip_bit(generation, pos) {
        let targets: Vec<String> = mem
            .durable_objects()
            .into_iter()
            .filter(|(_, len)| *len > 0)
            .map(|(name, _)| name)
            .collect();
        if !targets.is_empty() {
            let target = &targets[(draw >> 48) as usize % targets.len()];
            flipped = mem.flip_durable_bit(target, draw & 0xffff_ffff_ffff);
        }
    }
    (tore, flipped)
}

/// What one boundary left behind: the public record plus the exact state
/// twins are compared on.
#[derive(Clone)]
struct Trace {
    record: EpochRecord,
    heat: Vec<Option<u64>>,
    checkpoint: Vec<u8>,
}

/// A finished replay.
struct Replayed<E> {
    engine: E,
    epochs: Vec<Trace>,
    /// Crash counters (the storage-only ones stay zero for a plain engine);
    /// `checkpoints_bit_identical` also covers plain restores round-tripping
    /// their snapshot.
    tally: RecoveryOutcome,
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
/// faults, checkpoint and record — and crashes and recovers the engine
/// where `crashes` says so, resuming from the position recovery proves.
/// `twins` are the per-epoch traces of the fault-free twin (heat) and of
/// the never-crashed twin (checkpoint and objective) to compare against.
fn drive<C: CrashPolicy>(
    fleet: &Fleet,
    schedule: &Schedule,
    compute: Option<&FaultPlan>,
    mut engine: C::Engine,
    mut crashes: C,
    twins: Option<(&[Trace], &[Trace])>,
) -> Result<Replayed<C::Engine>, ScopeError> {
    let steps = &schedule.steps;
    let shards = fleet.accounts();
    let mut tally = RecoveryOutcome {
        checkpoints_bit_identical: true,
        ..RecoveryOutcome::default()
    };
    let mut epochs: Vec<Option<Trace>> = vec![None; schedule.epochs];
    // Intake counters since the last boundary (or recovery).
    let mut intake = (0u64, 0u64, 0u64);
    let (mut pos, mut max_pos) = (0usize, 0usize);
    while pos < steps.len() {
        let step_pos = pos;
        let result: Result<(), ServeError> = match &steps[step_pos] {
            Step::Deliver(seq, batch) => {
                tally.redelivered_batches += u64::from(step_pos < max_pos);
                engine.deliver(*seq, batch).map(|report| {
                    intake.0 += report.folded;
                    intake.1 += report.quarantined;
                    intake.2 += report.truncated;
                })
            }
            Step::Epoch { day, epoch } => (|| {
                engine.advance_to(*day)?;
                // The cold reference must be taken before the incremental
                // re-solve: both solve from the same pre-solve placements
                // (the re-solve then updates them, changing transition
                // costs).
                let cold = reference::full_resolve(engine.engine())?;
                let faults =
                    compute.map_or_else(Vec::new, |p| p.shard_faults(*epoch as u64, shards));
                let resolved = engine.resolve(&faults)?;
                engine.checkpoint_epoch(step_pos as u64 + 1)?;
                let served = engine.engine();
                let heat: Vec<Option<u64>> = (0..served.len() as u32)
                    .map(|id| served.heat(id).map(f64::to_bits))
                    .collect();
                let checkpoint = served.checkpoint();
                let (heat_ok, checkpoint_ok, objective_ok) =
                    twins.map_or((true, true, true), |(clean, steady)| {
                        (
                            clean[*epoch].heat == heat,
                            steady[*epoch].checkpoint == checkpoint,
                            steady[*epoch].record.total_objective.to_bits()
                                == resolved.total_objective.to_bits(),
                        )
                    });
                tally.checkpoints_bit_identical &= checkpoint_ok;
                let record = EpochRecord {
                    day: *day,
                    attempts: epochs[*epoch].as_ref().map_or(0, |t| t.record.attempts) + 1,
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
                epochs[*epoch] = Some(Trace {
                    record,
                    heat,
                    checkpoint,
                });
                intake = (0, 0, 0);
                Ok(())
            })(),
        };
        let crash = match result {
            Ok(()) => {
                pos += 1;
                max_pos = max_pos.max(pos);
                let crash =
                    crashes.crashes_after(&engine, step_pos as u64, &steps[step_pos], &mut tally);
                if let (true, Step::Epoch { epoch, .. }) = (crash, &steps[step_pos]) {
                    if let Some(trace) = &mut epochs[*epoch] {
                        trace.record.crashed = true;
                    }
                }
                crash
            }
            Err(err) if is_injected(&err) => {
                tally.injected_op_faults += 1;
                true
            }
            Err(err) => return Err(err.into()),
        };
        if crash {
            tally.crashes += 1;
            (engine, pos) =
                crashes.recover(engine, fleet, schedule, step_pos as u64, pos, &mut tally)?;
            intake = (0, 0, 0);
        }
    }
    Ok(Replayed {
        engine,
        epochs: epochs.into_iter().flatten().collect(),
        tally,
    })
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
        None::<&FaultPlan>,
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
    let plan = FaultPlan::new(options.seed, options.rates).map_err(invalid)?;
    let (fleet, schedule) = enterprise_replay(&options.serving)?;
    let (delivered, clean, in_order) = schedule.inject(&plan);
    let twin = drive_plain(&fleet, &clean, None)?;
    let steady = drive_plain(&fleet, &delivered, Some(&plan))?;
    let run = drive(
        &fleet,
        &delivered,
        Some(&plan),
        fleet.engine()?,
        Some(&plan),
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
        crashes: run.tally.crashes,
        recoveries_bit_identical: run.tally.checkpoints_bit_identical,
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

fn invalid(err: impl std::fmt::Display) -> ScopeError {
    ScopeError::InvalidConfig(err.to_string())
}

/// Replay the same window through the journaled engine under the seeded
/// storage-fault schedule, crashing and recovering along the way, and pin
/// the recovered states bit-for-bit against a never-crashed twin (see the
/// [module docs](self)).
pub fn run_recovery(options: &RecoveryOptions) -> Result<RecoveryOutcome, ScopeError> {
    let plan = StorageFaultPlan::new(options.seed, options.rates).map_err(invalid)?;
    let nofault =
        StorageFaultPlan::new(options.seed, StorageFaultRates::none()).map_err(invalid)?;
    let (fleet, schedule) = enterprise_replay(&options.serving)?;
    let steps = &schedule.steps;

    // The never-crashed twin runs the whole schedule once, cleanly.
    let twin = drive_plain(&fleet, &schedule, None)?;

    let journal_cfg = JournalConfig {
        segment_records: SEGMENT_RECORDS,
        ..JournalConfig::default()
    };
    let journaled = JournaledEngine::create(
        fleet.engine()?,
        FaultyStorage::new(MemStorage::new(), plan.clone()),
        journal_cfg.clone(),
    )?;
    let storage = StorageCrashes {
        pending_fuzz: plan.fuzz_points(steps.len() as u64, FUZZ_CRASHES),
        plan,
        nofault,
        journal_cfg,
    };
    let run = drive(
        &fleet,
        &schedule,
        None,
        journaled,
        storage,
        Some((&twin.epochs, &twin.epochs)),
    )?;
    let final_checkpoint = run.engine.engine().checkpoint();
    Ok(RecoveryOutcome {
        epochs: run.records(),
        objects: fleet.objects.len(),
        steps: steps.len(),
        final_bit_identical: final_checkpoint == twin.engine.checkpoint(),
        final_checkpoint,
        ..run.tally
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn recovery() -> RecoveryOptions {
        RecoveryOptions {
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
        let recovery = run_recovery(&RecoveryOptions {
            serving,
            rates: StorageFaultRates::none(),
            ..Default::default()
        })
        .unwrap();
        assert!(recovery.crashes >= 3, "{recovery:?}");
        let bits = |epochs: &[EpochRecord]| -> Vec<u64> {
            epochs.iter().map(|e| e.total_objective.to_bits()).collect()
        };
        assert_eq!(plain.epochs.len(), 8);
        assert_eq!(bits(&plain.epochs), bits(&chaos.epochs));
        assert_eq!(bits(&plain.epochs), bits(&recovery.epochs));
        assert!(!plain.final_checkpoint.is_empty());
        assert_eq!(plain.final_checkpoint, chaos.final_checkpoint);
        assert_eq!(plain.final_checkpoint, recovery.final_checkpoint);
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

    fn assert_recovery_contracts(outcome: &RecoveryOutcome) {
        assert!(outcome.checkpoints_bit_identical, "{outcome:?}");
        assert!(outcome.final_bit_identical, "{outcome:?}");
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(
                e.checkpoint_matches_twin,
                "epoch {i} checkpoint diverged from twin"
            );
            assert!(
                e.objective_bits_match,
                "epoch {i} objective diverged from twin"
            );
        }
    }

    #[test]
    fn recovery_replay_is_bit_identical_under_light_storage_faults() {
        let outcome = run_recovery(&recovery()).unwrap();
        assert_eq!(outcome.objects, 60);
        assert_eq!(outcome.epochs.len(), 12);
        assert_recovery_contracts(&outcome);
        assert!(outcome.crashes >= 3, "{outcome:?}");
        assert_eq!(outcome.forced_crashes, 3);
        assert!(!outcome.fault_injection_capped, "{outcome:?}");
    }

    #[test]
    fn recovery_replay_survives_heavy_storage_faults() {
        let outcome = run_recovery(&RecoveryOptions {
            rates: StorageFaultRates::heavy(),
            seed: 7,
            ..recovery()
        })
        .unwrap();
        assert_recovery_contracts(&outcome);
        assert!(outcome.crashes > 3, "{outcome:?}");
        // The heavy mix actually corrupted storage somewhere.
        assert!(
            outcome.torn_crashes + outcome.bit_flip_crashes + outcome.injected_op_faults > 0,
            "{outcome:?}"
        );
    }

    #[test]
    fn a_faultless_plan_still_exercises_forced_fuzz_crashes() {
        let outcome = run_recovery(&RecoveryOptions {
            rates: StorageFaultRates::none(),
            ..recovery()
        })
        .unwrap();
        assert_recovery_contracts(&outcome);
        assert_eq!(outcome.crashes, 3, "only the forced fuzz crashes");
        assert_eq!(outcome.forced_crashes, 3);
        assert_eq!(outcome.injected_op_faults, 0);
        assert_eq!(outcome.torn_crashes, 0);
        assert_eq!(outcome.bit_flip_crashes, 0);
        assert_eq!(outcome.unrecoverable_resets, 0);
    }

    #[test]
    fn recovery_options_are_validated() {
        for bad in [
            RecoveryOptions {
                serving: ServingOptions {
                    epoch_days: 0,
                    ..serving()
                },
                ..recovery()
            },
            RecoveryOptions {
                rates: StorageFaultRates {
                    crash: -1.0,
                    ..StorageFaultRates::none()
                },
                ..recovery()
            },
        ] {
            assert!(matches!(
                run_recovery(&bad),
                Err(ScopeError::InvalidConfig(_))
            ));
        }
    }
}
