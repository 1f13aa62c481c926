//! Typed, bounded quarantine for malformed intake events.
//!
//! The validating intake ([`crate::Serving::deliver`]) never folds a
//! malformed event into heat: in-horizon events with NaN or negative
//! volumes — what [`scope_cloudsim::classify`] calls
//! [`EventClass::BadVolume`](scope_cloudsim::EventClass::BadVolume), the
//! same call and the same [`QuarantineReason`] the billing replay refuses
//! a trace by — are diverted here instead, with enough context (global event
//! ordinal, day, object id, offending volume bits, reason) to audit or
//! replay them later. The ledger is **bounded**: it keeps the first
//! `capacity` records verbatim and afterwards only counts, so a
//! corruption storm cannot grow engine memory — the serving analogue of
//! the billing engine's "count, don't retain" `dropped_events` rule.
//!
//! Determinism contract: ledger contents are a pure function of the
//! accepted event stream. Ordinals index the engine's lifetime event
//! sequence (every event examined by the intake, in arrival order), so
//! splitting a stream into batches at any boundary — or re-delivering
//! duplicate batches through the sequenced intake — yields a bit-for-bit
//! identical ledger. The chaos differential suites compare ledgers across
//! fault schedules exactly (volumes are compared as stored `f64` bits, so
//! NaN payloads round-trip).

pub use scope_cloudsim::QuarantineReason;

/// One quarantined event record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedEvent {
    /// Position of the event in the engine's lifetime intake sequence
    /// (0-based; counts every examined event, including dropped, unknown
    /// and folded ones, so ordinals are invariant under batch splits).
    pub ordinal: u64,
    /// Day stamp of the offending event.
    pub day: u32,
    /// Interned object id the event named (possibly
    /// [`scope_cloudsim::UNKNOWN_OBJECT`]: `classify` judges the volume
    /// before the id, for the billing replay too).
    pub object_id: u32,
    /// Raw bits of the offending volume (bits, not the value, so NaN
    /// payloads survive checkpoint round-trips and compare exactly).
    pub volume_bits: u64,
    /// Why the event was quarantined.
    pub reason: QuarantineReason,
}

impl QuarantinedEvent {
    /// The offending volume as an `f64`.
    pub fn volume_gb(&self) -> f64 {
        f64::from_bits(self.volume_bits)
    }
}

/// Bounded ledger of quarantined events: first `capacity` records kept
/// verbatim, everything past that only counted in [`Self::total`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineLedger {
    entries: Vec<QuarantinedEvent>,
    capacity: usize,
    total: u64,
    truncated: u64,
}

/// Default record capacity: enough to audit a corruption burst without
/// letting a hostile stream grow engine memory.
pub(crate) const DEFAULT_QUARANTINE_CAPACITY: usize = 1024;

impl Default for QuarantineLedger {
    fn default() -> Self {
        QuarantineLedger::with_capacity(DEFAULT_QUARANTINE_CAPACITY)
    }
}

impl QuarantineLedger {
    /// An empty ledger keeping at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        QuarantineLedger {
            entries: Vec::new(),
            capacity,
            total: 0,
            truncated: 0,
        }
    }

    /// Record one quarantined event (kept if under capacity, else only
    /// counted).
    pub(crate) fn record(&mut self, event: QuarantinedEvent) {
        self.total += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(event);
        }
    }

    /// Count `n` events lost to truncated columns (a batch whose parallel
    /// arrays disagree in length: the common prefix is ingested, the torn
    /// tail is unrecoverable and only counted here).
    pub(crate) fn record_truncated(&mut self, n: u64) {
        self.truncated += n;
    }

    /// The retained records, in intake order.
    pub fn entries(&self) -> &[QuarantinedEvent] {
        &self.entries
    }

    /// Maximum number of retained records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total quarantined events, including those past capacity.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events lost to truncated (length-mismatched) column batches.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Whether nothing has ever been quarantined or truncated.
    pub fn is_clean(&self) -> bool {
        self.total == 0 && self.truncated == 0
    }

    /// Crate-internal rebuild from checkpoint fields.
    pub(crate) fn from_parts(
        entries: Vec<QuarantinedEvent>,
        capacity: usize,
        total: u64,
        truncated: u64,
    ) -> Self {
        QuarantineLedger {
            entries,
            capacity,
            total,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_bounded_but_counts_everything() {
        let mut ledger = QuarantineLedger::with_capacity(2);
        for i in 0..5u64 {
            ledger.record(QuarantinedEvent {
                ordinal: i,
                day: i as u32,
                object_id: 0,
                volume_bits: f64::NAN.to_bits(),
                reason: QuarantineReason::NonFiniteVolume,
            });
        }
        ledger.record_truncated(3);
        assert_eq!(ledger.entries().len(), 2);
        assert_eq!(ledger.total(), 5);
        assert_eq!(ledger.truncated(), 3);
        assert!(!ledger.is_clean());
        assert_eq!(ledger.entries()[1].ordinal, 1);
        assert!(ledger.entries()[0].volume_gb().is_nan());
    }
}
