//! Deterministic fault-injection plans for chaos-testing the serving loop.
//!
//! A [`FaultPlan`] is a **pure function** of `(seed, epoch, shard/object
//! id)`: no wall clock, no global RNG, no hidden state. The same plan
//! replayed over the same trace injects bit-identical faults, which is
//! what lets the chaos suites assert exact recovery equalities instead of
//! "it didn't crash":
//!
//! * **Intake faults** ([`FaultPlan::corrupt_batch`],
//!   [`FaultPlan::deliver`]): corrupt event volumes (NaN with varied
//!   payloads, negative), tear batches (truncated columns), duplicate and
//!   locally reorder batch delivery. Each corruption also yields the
//!   *clean* stream a fault-free twin engine should be fed so the two
//!   engines' heat states stay bit-comparable.
//! * **Compute faults** ([`FaultPlan::shard_faults`]): per-epoch,
//!   per-shard re-solve failures and deadline overruns, mapped onto
//!   [`scope_serve::ShardFault`].
//! * **Crashes** ([`FaultPlan::crash_after_epoch`]): which epochs end in a
//!   simulated crash of a plain engine, exercising checkpoint → restore.
//!
//! Intake and compute faults only: the durable journal's storage faults
//! are not sampled here. `scope-serve`'s journal tests enumerate them
//! instead — a crash at every storage operation of a fixed run, clean and
//! with the unsynced tail torn at every frame end ± 1 byte, then a second
//! crash at every operation of the recovery and of the resumed run.
//!
//! [`expected_intake`] is the one independent reference implementation of
//! the intake's validation rules (horizon drop, quarantine, unknown skip,
//! torn-batch truncation), spelled out apart from
//! [`scope_cloudsim::classify`] and [`EventColumns::usable_prefix`] —
//! the code that the serving intake, the billing replay and
//! [`FaultPlan::corrupt_batch`]'s clean twin all share. The differential
//! suites pit it against [`scope_serve::Serving::deliver`], so neither
//! the rule nor its oracle can drift silently.

#![warn(missing_docs)]

use std::fmt;

use scope_cloudsim::{classify, EventClass, EventColumns};
use scope_serve::{QuarantineReason, QuarantinedEvent, ShardFault};

/// Domain separators so the same `(epoch, id)` never reuses a draw across
/// fault kinds.
const DOMAIN_CORRUPT: u64 = 0x01;
const DOMAIN_CORRUPT_KIND: u64 = 0x02;
const DOMAIN_TRUNCATE: u64 = 0x03;
const DOMAIN_DUPLICATE: u64 = 0x04;
const DOMAIN_REORDER: u64 = 0x05;
const DOMAIN_SHARD_FAIL: u64 = 0x06;
const DOMAIN_SHARD_OVERRUN: u64 = 0x07;
const DOMAIN_CRASH: u64 = 0x08;

/// Errors from building a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A rate was outside `[0, 1]` or not finite.
    InvalidRate {
        /// Which rate field was invalid.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidRate { name, value } => {
                write!(f, "fault rate {name} must be in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Per-kind fault probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Per-event probability of corrupting the volume (NaN or negative).
    pub corrupt_event: f64,
    /// Per-batch probability of tearing the batch (truncated columns).
    pub truncate_batch: f64,
    /// Per-batch probability of delivering it twice.
    pub duplicate_batch: f64,
    /// Per-batch probability of swapping it with its successor.
    pub reorder_batch: f64,
    /// Per-`(epoch, shard)` probability of a re-solve failure.
    pub shard_failure: f64,
    /// Per-`(epoch, shard)` probability of a deadline overrun.
    pub deadline_overrun: f64,
    /// Per-epoch probability of a crash after the epoch completes.
    pub crash: f64,
}

impl FaultRates {
    /// No faults at all (the plan becomes a no-op).
    pub fn none() -> Self {
        FaultRates {
            corrupt_event: 0.0,
            truncate_batch: 0.0,
            duplicate_batch: 0.0,
            reorder_batch: 0.0,
            shard_failure: 0.0,
            deadline_overrun: 0.0,
            crash: 0.0,
        }
    }

    /// A light chaos mix: rare corruption, occasional delivery mischief
    /// and shard faults.
    pub fn light() -> Self {
        FaultRates {
            corrupt_event: 0.01,
            truncate_batch: 0.05,
            duplicate_batch: 0.10,
            reorder_batch: 0.10,
            shard_failure: 0.05,
            deadline_overrun: 0.05,
            crash: 0.10,
        }
    }

    /// A heavy chaos mix: pervasive corruption and frequent faults.
    pub fn heavy() -> Self {
        FaultRates {
            corrupt_event: 0.10,
            truncate_batch: 0.20,
            duplicate_batch: 0.30,
            reorder_batch: 0.30,
            shard_failure: 0.25,
            deadline_overrun: 0.15,
            crash: 0.30,
        }
    }

    fn validate(&self) -> Result<(), FaultError> {
        for (name, value) in [
            ("corrupt_event", self.corrupt_event),
            ("truncate_batch", self.truncate_batch),
            ("duplicate_batch", self.duplicate_batch),
            ("reorder_batch", self.reorder_batch),
            ("shard_failure", self.shard_failure),
            ("deadline_overrun", self.deadline_overrun),
            ("crash", self.crash),
        ] {
            if !(0.0..=1.0).contains(&value) || !value.is_finite() {
                return Err(FaultError::InvalidRate { name, value });
            }
        }
        Ok(())
    }
}

/// One batch after intake-fault injection.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptedBatch {
    /// What the chaos engine receives: corrupted volumes, possibly torn
    /// columns (parallel arrays of unequal length).
    pub delivered: EventColumns,
    /// What a fault-free twin should be fed instead: the delivered events
    /// minus everything the validating intake diverts — the torn tail
    /// (past the [`EventColumns::usable_prefix`]) and every event
    /// [`scope_cloudsim::classify`] calls a bad volume. Out-of-horizon
    /// events stay (corrupt or not, they are *dropped*, and the twin must
    /// drop them too). How many events the intake quarantines or loses is
    /// [`expected_intake`]'s to say.
    pub clean: EventColumns,
}

/// A seeded, stateless fault schedule (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// Build a plan; every rate must be a probability in `[0, 1]`.
    pub fn new(seed: u64, rates: FaultRates) -> Result<Self, FaultError> {
        rates.validate()?;
        Ok(FaultPlan { seed, rates })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates.
    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// SplitMix64-style avalanche over `(seed, domain, epoch, id)`.
    fn mix(&self, domain: u64, epoch: u64, id: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(domain.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(epoch.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(id.wrapping_mul(0x94d0_49bb_1331_11eb));
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Bernoulli draw with probability `rate` from the hash stream.
    fn chance(&self, domain: u64, epoch: u64, id: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        // 53 uniform bits -> [0, 1).
        let unit = (self.mix(domain, epoch, id) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < rate
    }

    /// Inject intake corruption into batch `seq`: flip some volumes to
    /// NaN (with hash-varied payloads) or negative values, and possibly
    /// tear the batch by truncating a suffix of the `volumes`/`kinds`
    /// columns. Pure in `(seed, seq, event index)`.
    pub fn corrupt_batch(
        &self,
        seq: u64,
        columns: &EventColumns,
        horizon_days: u32,
    ) -> CorruptedBatch {
        let mut delivered = columns.clone();
        for i in 0..delivered.volumes.len() {
            let id = (seq << 32) | (i as u64 & 0xffff_ffff);
            if !self.chance(DOMAIN_CORRUPT, 0, id, self.rates.corrupt_event) {
                continue;
            }
            let h = self.mix(DOMAIN_CORRUPT_KIND, 0, id);
            delivered.volumes[i] = if h & 1 == 0 {
                // A quiet NaN with a varied payload: quarantine records
                // store raw bits, so payloads must survive round trips.
                f64::from_bits(0x7ff8_0000_0000_0000 | ((h >> 16) & 0xffff))
            } else {
                -1.0 - ((h >> 32) & 0xff) as f64 / 16.0
            };
        }
        // Tear the batch: drop a short suffix of two of the four columns
        // the intake reads, so the parallel arrays disagree in length.
        if !delivered.volumes.is_empty()
            && self.chance(DOMAIN_TRUNCATE, 0, seq, self.rates.truncate_batch)
        {
            let h = self.mix(DOMAIN_TRUNCATE, 1, seq);
            let torn = (1 + (h % 3) as usize).min(delivered.volumes.len());
            delivered.volumes.truncate(columns.volumes.len() - torn);
            delivered.kinds.truncate(columns.kinds.len() - torn);
        }
        // The clean twin's stream: the usable prefix less what the intake
        // quarantines. The volume is judged before the id, so any object
        // count serves.
        let mut clean = EventColumns::default();
        for i in 0..delivered.usable_prefix().0 {
            let (day, id) = (delivered.days[i], delivered.object_ids[i]);
            let (kind, volume) = (delivered.kinds[i], delivered.volumes[i]);
            if !matches!(
                classify(day, id, volume, horizon_days, 0),
                EventClass::BadVolume(_)
            ) {
                clean.push_resolved(day, id, kind, volume);
            }
        }
        CorruptedBatch { delivered, clean }
    }

    /// Delivery schedule for sequenced batches: adjacent pairs may swap
    /// (bounded reordering — displacement never exceeds 1, so the
    /// engine's reorder buffer cannot overflow) and individual batches
    /// may be delivered twice. Returns `(seq, batch)` pairs in delivery
    /// order. Pure in `(seed, epoch, batch index)`.
    pub fn deliver(&self, epoch: u64, batches: &[(u64, EventColumns)]) -> Vec<(u64, EventColumns)> {
        let mut order: Vec<usize> = (0..batches.len()).collect();
        let mut i = 0;
        while i + 1 < order.len() {
            if self.chance(DOMAIN_REORDER, epoch, i as u64, self.rates.reorder_batch) {
                order.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        let mut out = Vec::new();
        for &idx in &order {
            out.push(batches[idx].clone());
            if self.chance(
                DOMAIN_DUPLICATE,
                epoch,
                idx as u64,
                self.rates.duplicate_batch,
            ) {
                out.push(batches[idx].clone());
            }
        }
        out
    }

    /// The compute fault (if any) shard `shard` suffers in `epoch`.
    pub(crate) fn shard_fault(&self, epoch: u64, shard: usize) -> Option<ShardFault> {
        if self.chance(
            DOMAIN_SHARD_FAIL,
            epoch,
            shard as u64,
            self.rates.shard_failure,
        ) {
            Some(ShardFault::SolveFailure)
        } else if self.chance(
            DOMAIN_SHARD_OVERRUN,
            epoch,
            shard as u64,
            self.rates.deadline_overrun,
        ) {
            Some(ShardFault::DeadlineOverrun)
        } else {
            None
        }
    }

    /// Per-shard fault vector for `epoch`, ready for
    /// [`scope_serve::Serving::resolve`].
    pub fn shard_faults(&self, epoch: u64, shards: usize) -> Vec<Option<ShardFault>> {
        (0..shards).map(|s| self.shard_fault(epoch, s)).collect()
    }

    /// Whether the engine crashes after completing `epoch` (the chaos
    /// runner then restores from its last checkpoint and replays).
    pub fn crash_after_epoch(&self, epoch: u64) -> bool {
        self.chance(DOMAIN_CRASH, epoch, 0, self.rates.crash)
    }
}

/// What an in-order, exactly-once intake of `batches` must produce —
/// computed by an **independent** implementation of the validation rules
/// (horizon drop first, then quarantine, then unknown skip; torn batches
/// ingest their common column prefix).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedIntake {
    /// Quarantine records, bounded by `capacity`, in intake order.
    pub records: Vec<QuarantinedEvent>,
    /// Total quarantined events (including past capacity).
    pub quarantined: u64,
    /// Events lost to torn columns.
    pub truncated: u64,
    /// Out-of-horizon events dropped.
    pub dropped: u64,
    /// Events folded into heat.
    pub folded: u64,
    /// In-horizon events naming unknown objects.
    pub unknown: u64,
    /// Every event examined (the ordinal space).
    pub events_seen: u64,
}

/// Reference intake over `batches` in order (see [`ExpectedIntake`]).
/// `known_objects` is the number of registered (interned) object ids;
/// `capacity` bounds the retained quarantine records.
pub fn expected_intake(
    batches: &[EventColumns],
    horizon_days: u32,
    known_objects: u32,
    capacity: usize,
) -> ExpectedIntake {
    let mut out = ExpectedIntake {
        records: Vec::new(),
        quarantined: 0,
        truncated: 0,
        dropped: 0,
        folded: 0,
        unknown: 0,
        events_seen: 0,
    };
    for columns in batches {
        let usable = columns
            .days
            .len()
            .min(columns.object_ids.len())
            .min(columns.kinds.len())
            .min(columns.volumes.len());
        let intended = columns
            .days
            .len()
            .max(columns.object_ids.len())
            .max(columns.kinds.len())
            .max(columns.volumes.len());
        out.truncated += (intended - usable) as u64;
        for i in 0..usable {
            let ordinal = out.events_seen;
            out.events_seen += 1;
            if columns.days[i] >= horizon_days {
                out.dropped += 1;
                continue;
            }
            let volume = columns.volumes[i];
            if !volume.is_finite() || volume < 0.0 {
                out.quarantined += 1;
                if out.records.len() < capacity {
                    out.records.push(QuarantinedEvent {
                        ordinal,
                        day: columns.days[i],
                        object_id: columns.object_ids[i],
                        volume_bits: volume.to_bits(),
                        reason: if volume.is_finite() {
                            QuarantineReason::NegativeVolume
                        } else {
                            QuarantineReason::NonFiniteVolume
                        },
                    });
                }
                continue;
            }
            if columns.object_ids[i] >= known_objects {
                out.unknown += 1;
                continue;
            }
            out.folded += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scope_cloudsim::AccessKind;

    /// Bit-exact digest of a column batch: NaN volumes compare by their
    /// raw bits (`PartialEq` on `f64` would make NaN != NaN).
    type ColumnBits = (Vec<u32>, Vec<u32>, Vec<AccessKind>, Vec<u64>);

    fn bits(c: &EventColumns) -> ColumnBits {
        (
            c.days.clone(),
            c.object_ids.clone(),
            c.kinds.clone(),
            c.volumes.iter().map(|v| v.to_bits()).collect(),
        )
    }

    fn batch_bits(b: &CorruptedBatch) -> (ColumnBits, ColumnBits) {
        (bits(&b.delivered), bits(&b.clean))
    }

    /// What the validating intake makes of one delivered batch, for
    /// `sample_columns`' seven object ids.
    fn intake_of(delivered: &EventColumns, horizon_days: u32) -> ExpectedIntake {
        expected_intake(std::slice::from_ref(delivered), horizon_days, 7, 1024)
    }

    fn sample_columns(n: usize) -> EventColumns {
        let mut columns = EventColumns::default();
        for i in 0..n {
            let kind = if i % 5 == 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            columns.push_resolved((i % 40) as u32, (i % 7) as u32, kind, 0.1 + i as f64 * 0.03);
        }
        columns
    }

    #[test]
    fn rates_are_validated() {
        let mut rates = FaultRates::none();
        rates.crash = 1.5;
        assert_eq!(
            FaultPlan::new(1, rates).unwrap_err(),
            FaultError::InvalidRate {
                name: "crash",
                value: 1.5
            }
        );
        rates.crash = f64::NAN;
        assert!(matches!(
            FaultPlan::new(1, rates),
            Err(FaultError::InvalidRate { name: "crash", .. })
        ));
        assert!(FaultPlan::new(1, FaultRates::heavy()).is_ok());
    }

    #[test]
    fn plans_are_pure_functions_of_seed_epoch_and_id() {
        let a = FaultPlan::new(0xfeed, FaultRates::heavy()).unwrap();
        let b = FaultPlan::new(0xfeed, FaultRates::heavy()).unwrap();
        let columns = sample_columns(200);
        for seq in 0..8u64 {
            assert_eq!(
                batch_bits(&a.corrupt_batch(seq, &columns, 30)),
                batch_bits(&b.corrupt_batch(seq, &columns, 30))
            );
        }
        for epoch in 0..16u64 {
            assert_eq!(a.shard_faults(epoch, 12), b.shard_faults(epoch, 12));
            assert_eq!(a.crash_after_epoch(epoch), b.crash_after_epoch(epoch));
        }
        // A different seed draws a different schedule somewhere.
        let c = FaultPlan::new(0xbeef, FaultRates::heavy()).unwrap();
        let differs = (0..16u64).any(|e| a.shard_faults(e, 12) != c.shard_faults(e, 12))
            || (0..8u64).any(|s| {
                batch_bits(&a.corrupt_batch(s, &columns, 30))
                    != batch_bits(&c.corrupt_batch(s, &columns, 30))
            });
        assert!(differs, "seeds 0xfeed and 0xbeef drew identical schedules");
    }

    #[test]
    fn zero_rates_are_a_no_op_and_unit_rates_always_fire() {
        let none = FaultPlan::new(7, FaultRates::none()).unwrap();
        let columns = sample_columns(50);
        let batch = none.corrupt_batch(0, &columns, 60);
        assert_eq!(batch.delivered, columns);
        assert_eq!(batch.clean, columns);
        let intake = intake_of(&batch.delivered, 60);
        assert_eq!((intake.quarantined, intake.truncated), (0, 0));
        assert_eq!(none.shard_faults(3, 8), vec![None; 8]);
        assert!(!none.crash_after_epoch(3));

        let mut all = FaultRates::none();
        all.corrupt_event = 1.0;
        all.shard_failure = 1.0;
        all.crash = 1.0;
        let always = FaultPlan::new(7, all).unwrap();
        let batch = always.corrupt_batch(0, &columns, 60);
        assert_eq!(intake_of(&batch.delivered, 60).quarantined, 50);
        assert!(batch.clean.is_empty());
        assert!(batch
            .delivered
            .volumes
            .iter()
            .all(|v| !v.is_finite() || *v < 0.0));
        assert_eq!(
            always.shard_faults(0, 3),
            vec![Some(ShardFault::SolveFailure); 3]
        );
        assert!(always.crash_after_epoch(11));
    }

    #[test]
    fn corruption_spares_out_of_horizon_events_from_the_clean_filter() {
        // horizon 10: events on days >= 10 stay in the clean stream even
        // when corrupted, because both engines drop them identically.
        let mut all = FaultRates::none();
        all.corrupt_event = 1.0;
        let plan = FaultPlan::new(3, all).unwrap();
        let mut columns = EventColumns::default();
        columns.push_resolved(5, 0, AccessKind::Read, 1.0);
        columns.push_resolved(25, 1, AccessKind::Read, 1.0);
        let batch = plan.corrupt_batch(0, &columns, 10);
        let intake = intake_of(&batch.delivered, 10);
        assert_eq!((intake.quarantined, intake.dropped), (1, 1));
        assert_eq!(batch.clean.len(), 1);
        assert_eq!(batch.clean.days[0], 25);
    }

    #[test]
    fn torn_batches_truncate_some_columns_and_filter_the_tail() {
        let mut rates = FaultRates::none();
        rates.truncate_batch = 1.0;
        let plan = FaultPlan::new(11, rates).unwrap();
        let columns = sample_columns(20);
        let batch = plan.corrupt_batch(4, &columns, 60);
        let intake = intake_of(&batch.delivered, 60);
        let torn = intake.truncated as usize;
        assert!((1..=3).contains(&torn));
        assert_eq!(batch.delivered.volumes.len(), 20 - torn);
        assert_eq!(batch.delivered.days.len(), 20);
        assert_eq!(batch.clean.len(), 20 - torn);
        assert_eq!(intake.events_seen, 20 - torn as u64);
    }

    #[test]
    fn delivery_reorders_locally_and_duplicates_exactly() {
        let mut rates = FaultRates::none();
        rates.reorder_batch = 0.5;
        rates.duplicate_batch = 0.5;
        let plan = FaultPlan::new(0x5eed, rates).unwrap();
        let batches: Vec<(u64, EventColumns)> =
            (0..32u64).map(|s| (s, sample_columns(3))).collect();
        let delivered = plan.deliver(2, &batches);
        assert_eq!(delivered, plan.deliver(2, &batches));
        // Every original batch appears at least once; displacement of the
        // first occurrence never exceeds 1; total length counts the dups.
        let mut dups = 0usize;
        let mut seen: Vec<u64> = Vec::new();
        for (pos, (seq, _)) in delivered.iter().enumerate() {
            if seen.contains(seq) {
                dups += 1;
            } else {
                seen.push(*seq);
                let original = *seq as i64;
                let first = (pos - dups) as i64;
                assert!(
                    (first - original).abs() <= 1,
                    "batch {seq} displaced from {original} to {first}"
                );
            }
        }
        assert_eq!(seen.len(), batches.len());
        assert_eq!(delivered.len(), batches.len() + dups);
        assert!(dups > 0, "duplicate rate 0.5 over 32 batches drew none");
    }

    #[test]
    fn expected_intake_implements_the_validation_order() {
        let mut columns = EventColumns::default();
        columns.push_resolved(1, 0, AccessKind::Read, 1.0); // folded
        columns.push_resolved(99, 0, AccessKind::Read, f64::NAN); // dropped, not quarantined
        columns.push_resolved(2, 9, AccessKind::Read, -1.0); // quarantined (unknown id!)
        columns.push_resolved(3, 9, AccessKind::Read, 1.0); // unknown
        let out = expected_intake(&[columns], 60, 5, 16);
        assert_eq!(out.folded, 1);
        assert_eq!(out.dropped, 1);
        assert_eq!(out.quarantined, 1);
        assert_eq!(out.unknown, 1);
        assert_eq!(out.events_seen, 4);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].ordinal, 2);
        assert_eq!(out.records[0].reason, QuarantineReason::NegativeVolume);
    }
}
