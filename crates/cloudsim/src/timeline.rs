//! Day-granular billing timeline: day-stamped events and per-object
//! placement schedules with mid-horizon tier transitions.
//!
//! The legacy simulator replayed *monthly aggregated* events against a
//! placement frozen for the whole horizon. Real providers bill at a finer
//! granularity: storage is pro-rated by days, tier changes are charged in
//! the billing period they occur, and leaving Cool/Archive before the
//! minimum residency period is billed for exactly the *days* of unmet
//! residency (this is how Azure bills early deletion). This module provides
//! the day-granular time axis the rebuilt [`BillingSimulator`] engine runs
//! on:
//!
//! * [`BillingEvent`] — an access stamped with the **day** (0-based) it
//!   happens on; [`events_from_monthly`] lifts a legacy monthly trace onto
//!   the day axis (each month `m` maps to day `m * DAYS_PER_MONTH`, the
//!   first day of the corresponding billing period, so period totals are
//!   preserved).
//! * [`PlacementSchedule`] — the placement of one object *over time*: an
//!   initial [`Placement`] plus day-stamped transitions. A schedule with no
//!   transitions reproduces the legacy frozen placement.
//! * [`ScheduleSegment`] — one maximal `[start_day, end_day)` span during
//!   which the placement is constant; [`PlacementSchedule::segments`]
//!   decomposes a schedule over a horizon into these spans, which is what
//!   the billing engine streams over.
//! * [`EventColumns`] — a resolved trace (or one delivered batch of it)
//!   in struct-of-arrays form, and the one byte layout of such a batch
//!   ([`EventColumns::encode_into`] / [`EventColumns::decode`]) that the
//!   write-ahead journal and the serving checkpoint both carry.
//! * [`classify`] — what one event is — and
//!   [`EventColumns::usable_prefix`] — how much of a torn batch can be
//!   read: the billing replay, its reference, the serving intake and the
//!   fault injector's clean twin all call these two, each mapping the class
//!   to its own outcome (billing refuses a bad volume or a foreign id;
//!   serving quarantines the one and skips the other).
//!
//! A billing **period** is the fixed [`DAYS_PER_MONTH`]-day window the
//! provider invoices on: day `d` falls in period `d / DAYS_PER_MONTH`. The
//! whole-month convention (30 days) matches the `early_deletion_days / 30`
//! arithmetic the tier catalog and the paper's Table I use.
//!
//! [`BillingSimulator`]: crate::billing::BillingSimulator

use crate::billing::{AccessEvent, AccessKind, Placement};
use crate::error::CloudSimError;
use crate::parallel;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Days per billing period ("month"). All month-denominated rates
/// (`storage_cost_cents_per_gb_month`, `early_deletion_days / 30`) are
/// pro-rated against this length.
pub const DAYS_PER_MONTH: u32 = 30;

/// First day of billing period `month` (0-based). A month whose first day
/// is past `u32::MAX` saturates to `u32::MAX`, which is at or beyond every
/// horizon, so an event lifted from it is dropped rather than billed on a
/// wrapped day.
pub(crate) fn first_day_of_month(month: u32) -> u32 {
    month.saturating_mul(DAYS_PER_MONTH)
}

/// One access to an object, stamped with the day it happens on.
///
/// The day-granular counterpart of [`AccessEvent`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BillingEvent {
    /// Name of the object being accessed (must match an `ObjectSpec`).
    pub object: String,
    /// Day index (0-based) within the billing horizon.
    pub day: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Volume touched by this access in GB.
    pub volume_gb: f64,
}

impl BillingEvent {
    /// Convenience constructor for a read event.
    pub fn read(object: impl Into<String>, day: u32, volume_gb: f64) -> Self {
        BillingEvent {
            object: object.into(),
            day,
            kind: AccessKind::Read,
            volume_gb,
        }
    }

    /// Convenience constructor for a write event.
    pub fn write(object: impl Into<String>, day: u32, volume_gb: f64) -> Self {
        BillingEvent {
            object: object.into(),
            day,
            kind: AccessKind::Write,
            volume_gb,
        }
    }

    /// Lift a monthly event onto the day axis: month `m` becomes day
    /// `m * DAYS_PER_MONTH`, i.e. the first day of the same billing period.
    pub(crate) fn from_monthly(ev: &AccessEvent) -> Self {
        BillingEvent {
            object: ev.object.clone(),
            day: first_day_of_month(ev.month),
            kind: ev.kind,
            volume_gb: ev.volume_gb,
        }
    }
}

/// Lift a legacy monthly trace onto the day axis, preserving event order
/// (and therefore the exact floating-point accumulation order of the
/// legacy replay).
pub fn events_from_monthly(events: &[AccessEvent]) -> Vec<BillingEvent> {
    events.iter().map(BillingEvent::from_monthly).collect()
}

/// Sentinel id in [`EventColumns::object_ids`] for events naming an object
/// the resolver does not know (such accesses are ignored by the billing
/// engine, matching the historical behaviour).
pub const UNKNOWN_OBJECT: u32 = u32::MAX;

/// Why an event's volume is unusable: why the serving intake quarantines
/// the event and the billing replay refuses the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The volume was NaN or infinite.
    NonFiniteVolume,
    /// The volume was negative.
    NegativeVolume,
}

/// What one event is, by [`classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// At or past the horizon, whatever else it holds.
    Dropped,
    /// In the horizon with a non-finite or negative volume, whatever its id.
    BadVolume(QuarantineReason),
    /// In the horizon with a good volume, naming [`UNKNOWN_OBJECT`].
    Unresolved,
    /// In the horizon with a good volume, naming neither that nor a known id.
    OutOfRange,
    /// In the horizon, a good volume and a known object.
    Valid,
}

/// Classify one event against a horizon and a consumer that knows the
/// object ids `0..known_objects`: typically the length of the table the
/// consumer indexes by id, so that the id check here is that table's
/// bounds check and the compiler drops the second. The checks run in one
/// order, horizon → volume → id, so an event past the horizon is
/// [`EventClass::Dropped`] even when its volume is NaN, and a bad volume
/// is [`EventClass::BadVolume`] even when its id names nothing: a corrupt
/// volume is a corrupt trace regardless of whether its name resolved.
#[inline]
pub fn classify(
    day: u32,
    object_id: u32,
    volume_gb: f64,
    horizon_days: u32,
    known_objects: usize,
) -> EventClass {
    if day >= horizon_days {
        EventClass::Dropped
    } else if !volume_gb.is_finite() {
        EventClass::BadVolume(QuarantineReason::NonFiniteVolume)
    } else if volume_gb < 0.0 {
        EventClass::BadVolume(QuarantineReason::NegativeVolume)
    } else if (object_id as usize) < known_objects {
        EventClass::Valid
    } else if object_id == UNKNOWN_OBJECT {
        EventClass::Unresolved
    } else {
        EventClass::OutOfRange
    }
}

/// An access trace in struct-of-arrays layout: one parallel column per
/// event field, in trace order.
///
/// The billing replay loop touches four narrow fields per event (day,
/// object id, kind, volume); storing them as parallel `Vec`s instead of a
/// `Vec` of [`BillingEvent`] structs removes the per-event `String` from
/// the hot cache lines entirely and lets the engine stream each column
/// sequentially. Object names are resolved to interned ids **once**, at
/// column-build time — the replay itself (`BillingSimulator::run_columns`)
/// never hashes a name.
///
/// The columns are `pub` and may be assembled by hand; the replay refuses
/// columns of unequal length and ids that are neither [`UNKNOWN_OBJECT`]
/// nor an interned id with a typed error (see
/// `BillingSimulator::run_columns_with_threads`). The byte layout
/// ([`EventColumns::encode_into`]) carries such a ragged batch as it
/// stands, for the consumer to judge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventColumns {
    /// Day stamp of each event (0-based).
    pub days: Vec<u32>,
    /// Interned object id of each event, or [`UNKNOWN_OBJECT`].
    pub object_ids: Vec<u32>,
    /// Read or write.
    pub kinds: Vec<AccessKind>,
    /// Volume touched in GB.
    pub volumes: Vec<f64>,
}

/// [`EventColumns::from_events`] resolves names on more than one thread
/// from this many rows. `BillingSimulator::build_columns` on a 2-vCPU
/// host, `obj-<i>` names drawn uniformly, median of up to 201 builds, two
/// rounds, `threads: 1` → `threads: 2`: over 1 000 interned names, 1 000
/// rows 0.038–0.040 → 0.063 ms, 2 000 rows 0.075–0.080 → 0.083–0.084,
/// 4 000 rows 0.151–0.163 → 0.122–0.125, 16 000 rows 0.62–0.66 →
/// 0.31–0.41, 400 000 rows 14.3–19.5 → 10.2–10.7; over 100 000 names,
/// 1 000 rows 0.033–0.057 → 0.061–0.075, 2 000 rows 0.071–0.115 →
/// 0.096–0.102, 4 000 rows 0.26–0.27 → 0.18–0.24, 400 000 rows 72–92 →
/// 40–46 ms. Break-even is ≈ 2 000 rows (one spawn against a hash and a
/// probe per row); the floor is the first size that won in every round.
pub(crate) const RESOLVE_FAN_OUT_MIN_ROWS: usize = 4_096;

impl EventColumns {
    /// Build columns from a day-stamped trace, resolving each object name
    /// with `resolve` (typically the simulator's intern table). Unresolved
    /// names get [`UNKNOWN_OBJECT`]. Traces of `RESOLVE_FAN_OUT_MIN_ROWS`
    /// events or more resolve their names on [`parallel::default_threads`]
    /// threads, so `resolve` is shared between them; the columns are the
    /// same at every thread count.
    pub fn from_events(
        events: &[BillingEvent],
        resolve: impl Fn(&str) -> Option<u32> + Sync,
    ) -> Self {
        Self::from_rows(
            events,
            |ev| (ev.object.as_str(), ev.day, ev.kind, ev.volume_gb),
            resolve,
        )
    }

    /// The one column builder: `row` reads each item as a `(name, day,
    /// kind, volume_gb)` row, in trace order, and names are resolved with
    /// `resolve`. [`EventColumns::from_events`] and the month-aligned
    /// `BillingSimulator::run` (which lifts month `m` to day
    /// `m * DAYS_PER_MONTH` on the fly) both feed it borrowed names, so no
    /// adapter clones a `String` to get here. Name resolution — a hash and
    /// a probe per row, the whole cost of a build — fans out from
    /// `RESOLVE_FAN_OUT_MIN_ROWS` rows; the other three columns are copies.
    pub(crate) fn from_rows<T: Sync>(
        items: &[T],
        row: impl Fn(&T) -> (&str, u32, AccessKind, f64) + Sync,
        resolve: impl Fn(&str) -> Option<u32> + Sync,
    ) -> Self {
        let threads = if items.len() < RESOLVE_FAN_OUT_MIN_ROWS {
            1
        } else {
            parallel::default_threads()
        };
        Self::from_rows_with_threads(items, threads, row, resolve)
    }

    /// [`EventColumns::from_rows`] on exactly `threads` threads
    /// (`parallel::parallel_map_with_threads`' rule: one is the calling
    /// thread alone).
    pub(crate) fn from_rows_with_threads<T: Sync>(
        items: &[T],
        threads: usize,
        row: impl Fn(&T) -> (&str, u32, AccessKind, f64) + Sync,
        resolve: impl Fn(&str) -> Option<u32> + Sync,
    ) -> Self {
        EventColumns {
            object_ids: parallel::parallel_map_with_threads(items, threads, |_, item| {
                resolve(row(item).0).unwrap_or(UNKNOWN_OBJECT)
            }),
            days: items.iter().map(|item| row(item).1).collect(),
            kinds: items.iter().map(|item| row(item).2).collect(),
            volumes: items.iter().map(|item| row(item).3).collect(),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// True if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }

    /// Each column's length, in block order (see [`Self::encode_into`]).
    fn column_lens(&self) -> [usize; 4] {
        let (days, ids) = (self.days.len(), self.object_ids.len());
        [days, ids, self.kinds.len(), self.volumes.len()]
    }

    /// How much of a possibly torn batch can be read: `(usable, torn)`,
    /// where the first `usable` events have an entry in every column (the
    /// shortest column's length) and `torn` more are in the longest column
    /// only. A square batch is `(len, 0)`.
    pub fn usable_prefix(&self) -> (usize, usize) {
        let [days, ids, kinds, volumes] = self.column_lens();
        let usable = days.min(ids).min(kinds).min(volumes);
        (usable, days.max(ids).max(kinds).max(volumes) - usable)
    }

    /// `Ok` if all four columns hold one entry per event, else an
    /// `InvalidParameter` naming the first column whose length differs
    /// from `days`' and carrying that length.
    pub(crate) fn check_lengths(&self) -> Result<(), CloudSimError> {
        let names = ["columns.object_ids", "columns.kinds", "columns.volumes"];
        let [days, rest @ ..] = self.column_lens();
        match names.into_iter().zip(rest).find(|&(_, len)| len != days) {
            Some((name, len)) => Err(CloudSimError::InvalidParameter {
                name,
                value: len as f64,
            }),
            None => Ok(()),
        }
    }

    /// Append one already-resolved event, preserving trace order — the
    /// streaming counterpart of [`EventColumns::from_events`] for callers
    /// (like the serving engine's ingestion path) that accumulate batches
    /// incrementally instead of materializing a `Vec<BillingEvent>` first.
    pub fn push_resolved(&mut self, day: u32, object_id: u32, kind: AccessKind, volume_gb: f64) {
        self.days.push(day);
        self.object_ids.push(object_id);
        self.kinds.push(kind);
        self.volumes.push(volume_gb);
    }

    /// Append every event of `other` after this trace's events, preserving
    /// both traces' internal order (batch concatenation).
    pub fn extend_from(&mut self, other: &EventColumns) {
        self.days.extend_from_slice(&other.days);
        self.object_ids.extend_from_slice(&other.object_ids);
        self.kinds.extend_from_slice(&other.kinds);
        self.volumes.extend_from_slice(&other.volumes);
    }

    /// Events `range.start..range.end`, in trace order — the one range
    /// copier behind every batch splitter. A column shorter than the range
    /// gives what it holds of it, so a ragged batch is cut, not refused.
    pub fn range(&self, range: Range<usize>) -> EventColumns {
        fn cut<T: Copy>(column: &[T], range: &Range<usize>) -> Vec<T> {
            let end = range.end.min(column.len());
            column[range.start.min(end)..end].to_vec()
        }
        EventColumns {
            days: cut(&self.days, &range),
            object_ids: cut(&self.object_ids, &range),
            kinds: cut(&self.kinds, &range),
            volumes: cut(&self.volumes, &range),
        }
    }

    /// The sub-trace of events with `start_day <= day < end_day`, in the
    /// original trace order — the epoch-batching primitive: a day log is
    /// sliced into `[epoch_start, epoch_end)` windows that are fed to the
    /// serving engine one batch at a time.
    pub fn filter_day_range(&self, start_day: u32, end_day: u32) -> EventColumns {
        let mut out = EventColumns::default();
        for i in 0..self.len() {
            let day = self.days[i];
            if day >= start_day && day < end_day {
                out.days.push(day);
                out.object_ids.push(self.object_ids[i]);
                out.kinds.push(self.kinds[i]);
                out.volumes.push(self.volumes[i]);
            }
        }
        out
    }

    /// Append this batch's **column block** to `out`: the one byte layout
    /// of an event batch, carried by the journal's batch records and by
    /// the serving checkpoint's reorder buffer. Little-endian:
    ///
    /// ```text
    /// days word   u32   bit 31: the days are runs; bits 0–30: day count
    /// ids word    u32   bits 30–31: log2 of the id cell width (0, 1 or 2);
    ///                   bits 0–29: id count
    /// kinds       u32   kind count
    /// volumes     u32   volume count
    /// days        u32 each, or runs (see encode_day_column)
    /// object_ids  1, 2 or 4 bytes each
    /// kinds       bitmap: event i is bit i % 8 of byte i / 8 (1 = Write),
    ///             padding bits zero
    /// volumes     u64 each  (f64 bit patterns, so NaN payloads survive)
    /// ```
    ///
    /// Each column takes the smallest coding that holds every value it
    /// carries: the days are runs when that is strictly fewer bytes than
    /// `u32` cells and there are no more days than ids (so that decoding
    /// never allocates more than eight bytes per block byte, see
    /// [`EventColumns::decode`]); an id cell is the narrowest that holds
    /// the column's largest id ([`UNKNOWN_OBJECT`] takes four). So a
    /// block is never longer than the fixed-width layout's
    /// `16 + 4 × (days + ids) + kinds + 8 × volumes` bytes (17 per event),
    /// and a batch whose days are a few runs over a fleet of fewer than
    /// 65 536 objects costs ≈ 10.1 B per event.
    ///
    /// Every column goes out at its own length, so a ragged batch is
    /// written as it stands and [`EventColumns::decode`] reads it back
    /// exactly: neither refused nor squared off. `out` grows once, and
    /// each column is read once but the ids, twice (their widest, then the
    /// cells). A column of 2³⁰ events or more has no block.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let [days, ids, kinds, volumes] = self.column_lens();
        let width = id_width(self.object_ids.iter().fold(0, |max, &id| max.max(id)));
        out.reserve(16 + 4 * days + (ids << width) + kinds.div_ceil(8) + 8 * volumes);
        // The lengths go in once the days' coding is known.
        let header = out.len();
        out.extend_from_slice(&[0; 16]);
        let runs = encode_day_column(days, |i| self.days[i], days <= ids, out);
        let words = [
            days as u32 | if runs { DAYS_RUNS } else { 0 },
            ids as u32 | width << ID_WIDTH_SHIFT,
            kinds as u32,
            volumes as u32,
        ];
        for (slot, word) in out[header..header + 16].chunks_exact_mut(4).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        let ids = self.object_ids.iter();
        match width {
            0 => out.extend(ids.map(|&id| id as u8)),
            1 => out.extend(ids.flat_map(|&id| (id as u16).to_le_bytes())),
            _ => out.extend(ids.flat_map(|&id| id.to_le_bytes())),
        }
        let eights = self.kinds.chunks_exact(8);
        let rest = eights.remainder();
        // Eight 0/1 bytes, little-endian, times this constant leave byte
        // i's bit at bit 56 + i: the top byte is the eight packed.
        out.extend(eights.map(|eight| {
            let bits: [u8; 8] = std::array::from_fn(|i| u8::from(eight[i] == AccessKind::Write));
            (u64::from_le_bytes(bits).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
        }));
        if !rest.is_empty() {
            out.push((rest.iter().enumerate()).fold(0, |byte, (bit, &kind)| {
                byte | u8::from(kind == AccessKind::Write) << bit
            }));
        }
        out.extend(self.volumes.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }

    /// Decode exactly one column block (see [`EventColumns::encode_into`]),
    /// or `None` if `bytes` is anything else: a length other than the
    /// header declares, an id width code of 3, or any coding
    /// [`EventColumns::encode_into`] would not have chosen for the values
    /// it carries — ids in cells wider than the largest needs, a set
    /// padding bit, runs that are not the shorter coding or not maximal,
    /// or runs of more days than there are ids. So a decoded batch
    /// re-encodes to exactly `bytes`. The lengths are checked against
    /// `bytes` before anything is allocated, and a column is allocated
    /// only at a length the block pays for: at most eight bytes per block
    /// byte, however hostile the header.
    pub fn decode(bytes: &[u8]) -> Option<EventColumns> {
        let header = bytes.get(..16)?;
        let [days_word, ids_word, kinds, volumes] =
            std::array::from_fn(|i| u32::from_le_bytes(le(&header[4 * i..][..4])));
        let (days, runs) = (
            (days_word & !DAYS_RUNS) as usize,
            days_word & DAYS_RUNS != 0,
        );
        let (ids, width) = (
            (ids_word & ((1 << ID_WIDTH_SHIFT) - 1)) as usize,
            ids_word >> ID_WIDTH_SHIFT,
        );
        let (kinds, volumes) = (kinds as usize, volumes as usize);
        // Every column but the days has a size its length fixes; the days
        // hold what is left.
        let rest = (ids << width) + kinds.div_ceil(8) + 8 * volumes;
        let day_bytes = (bytes.len() - 16).checked_sub(rest)?;
        if width > 2 || (!runs && day_bytes != 4 * days) {
            return None;
        }
        let (day_cells, rest) = bytes[16..].split_at(day_bytes);
        let (days, used) = decode_day_column(day_cells, days, runs, days <= ids)?;
        let (id_cells, rest) = rest.split_at(ids << width);
        let (kind_bits, volumes) = rest.split_at(kinds.div_ceil(8));
        let object_ids = match width {
            0 => id_cells.iter().map(|&id| u32::from(id)).collect(),
            1 => cells(id_cells, |id| u32::from(u16::from_le_bytes(id))),
            _ => cells(id_cells, u32::from_le_bytes),
        };
        let widest = object_ids.iter().copied().max().unwrap_or(0);
        let padding = match kinds % 8 {
            0 => 0,
            used => kind_bits.last().map_or(0, |&last| last >> used),
        };
        if used != day_bytes || id_width(widest) != width || padding != 0 {
            return None;
        }
        let mut kinds_out = Vec::with_capacity(kinds);
        for (at, &byte) in kind_bits.iter().enumerate() {
            let bits = (kinds - 8 * at).min(8);
            kinds_out
                .extend((0..bits).map(|bit| {
                    [AccessKind::Read, AccessKind::Write][usize::from(byte >> bit & 1)]
                }));
        }
        Some(EventColumns {
            days,
            object_ids,
            kinds: kinds_out,
            volumes: cells(volumes, |b| f64::from_bits(u64::from_le_bytes(b))),
        })
    }
}

/// Bit 31 of a column block's days word: the days are runs.
const DAYS_RUNS: u32 = 1 << 31;

/// Where a column block's ids word keeps log2 of the id cell width.
const ID_WIDTH_SHIFT: u32 = 30;

/// Log2 of the narrowest of 1, 2 or 4 bytes that holds `id`.
fn id_width(id: u32) -> u32 {
    match id {
        0..=0xff => 0,
        0x100..=0xffff => 1,
        _ => 2,
    }
}

/// Maximal runs of equal values in `values`.
fn run_count(values: &[u32]) -> usize {
    usize::from(!values.is_empty()) + values.windows(2).filter(|w| w[0] != w[1]).count()
}

/// Append a column of `n` days, `day(i)` the `i`-th, to `out` in the
/// shorter of two codings and say which: **runs** — one `(day u32, count
/// u32)` pair per maximal run of equal days, little-endian — when
/// `runs_allowed` and that is strictly fewer bytes than the days as `u32`
/// cells, the cells otherwise. The column block's days and the serving
/// checkpoint's per-object `last_day` column are both coded by it. Any
/// `u32` is a day here: a corrupt one round-trips to be judged by its
/// reader.
pub fn encode_day_column(
    n: usize,
    day: impl Fn(usize) -> u32,
    runs_allowed: bool,
    out: &mut Vec<u8>,
) -> bool {
    let start = out.len();
    if runs_allowed {
        // Runs as they are found, given up for cells once they are no
        // shorter: a column of a few runs is read once.
        let mut i = 0;
        while i < n && out.len() - start < 4 * n {
            let d = day(i);
            let mut j = i + 1;
            // Sixteen days at a time while the run lasts (a test without
            // branches, which the compiler vectorises), then one by one.
            while j + 16 <= n && (j..j + 16).fold(true, |same, k| same & (day(k) == d)) {
                j += 16;
            }
            while j < n && day(j) == d {
                j += 1;
            }
            out.extend_from_slice(&d.to_le_bytes());
            out.extend_from_slice(&((j - i) as u32).to_le_bytes());
            i = j;
        }
        if out.len() - start < 4 * n {
            return true;
        }
        out.truncate(start);
    }
    out.extend((0..n).flat_map(|i| day(i).to_le_bytes()));
    false
}

/// Read `n` days from the front of `bytes`, coded by
/// [`encode_day_column`] as runs or as cells (`runs`): the days and the
/// bytes they took, or `None` when they are not exactly what it writes
/// for them under `runs_allowed` — too few bytes, a run of no days, two
/// runs of one day side by side, runs past `n` days, runs where cells
/// are as short or not allowed, or cells where runs are shorter.
/// Allocates `4 × n` bytes up front, so the caller bounds `n` first.
pub fn decode_day_column(
    bytes: &[u8],
    n: usize,
    runs: bool,
    runs_allowed: bool,
) -> Option<(Vec<u32>, usize)> {
    if runs && !runs_allowed {
        return None;
    }
    let mut days = Vec::with_capacity(n);
    let (shorter, used) = if runs {
        let mut pairs = bytes.chunks_exact(8);
        let mut used = 0;
        while days.len() < n {
            let pair = pairs.next()?;
            used += 8;
            let (day, count) = (
                u32::from_le_bytes(le(&pair[..4])),
                u32::from_le_bytes(le(&pair[4..])),
            );
            if count == 0 || count as usize > n - days.len() || days.last() == Some(&day) {
                return None;
            }
            days.resize(days.len() + count as usize, day);
        }
        // The runs read are maximal, so they are the days' runs.
        (used < 4 * n, used)
    } else {
        days.extend(
            bytes
                .get(..4 * n)?
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes(le(b))),
        );
        (runs_allowed && 2 * run_count(&days) < n, 4 * n)
    };
    (shorter == runs).then_some((days, used))
}

/// A `W`-byte slice as an array.
fn le<const W: usize>(chunk: &[u8]) -> [u8; W] {
    let mut bytes = [0u8; W];
    bytes.copy_from_slice(chunk);
    bytes
}

/// A column of `W`-byte cells, each read with `read`.
fn cells<T, const W: usize>(column: &[u8], read: impl Fn([u8; W]) -> T) -> Vec<T> {
    column.chunks_exact(W).map(|w| read(le(w))).collect()
}

/// The placement of one object over the billing horizon: an initial
/// [`Placement`] (in force from day 0) plus day-stamped transitions.
///
/// Transitions are kept sorted by strictly increasing day; a transition on a
/// day that already has one replaces it, and a transition on day 0 replaces
/// the initial placement. Each transition takes effect at the *start* of its
/// day: accesses on the transition day are billed against the new placement,
/// and the old placement's last billed day is `day - 1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementSchedule {
    initial: Placement,
    transitions: Vec<(u32, Placement)>,
}

/// One maximal span of a [`PlacementSchedule`] during which the placement
/// is constant: the object is on `placement` for days
/// `[start_day, end_day)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSegment {
    /// First day (inclusive) of the span.
    pub start_day: u32,
    /// First day *after* the span (exclusive).
    pub end_day: u32,
    /// The placement in force during the span.
    pub placement: Placement,
}

impl ScheduleSegment {
    /// Number of days the span covers.
    pub fn days(&self) -> u32 {
        self.end_day - self.start_day
    }
}

impl PlacementSchedule {
    /// A schedule that keeps `placement` for the whole horizon (the legacy
    /// frozen-placement behaviour).
    pub fn constant(placement: Placement) -> Self {
        PlacementSchedule {
            initial: placement,
            transitions: Vec::new(),
        }
    }

    /// Builder-style addition of a transition: from `day` onwards the object
    /// is on `placement`. A transition on day 0 replaces the initial
    /// placement; a transition on an already-scheduled day replaces it.
    pub fn with_transition(mut self, day: u32, placement: Placement) -> Self {
        if day == 0 {
            self.initial = placement;
            return self;
        }
        match self.transitions.binary_search_by_key(&day, |&(d, _)| d) {
            Ok(i) => self.transitions[i].1 = placement,
            Err(i) => self.transitions.insert(i, (day, placement)),
        }
        self
    }

    /// The placement in force from day 0.
    pub fn initial(&self) -> &Placement {
        &self.initial
    }

    /// The day-stamped transitions, sorted by strictly increasing day.
    pub fn transitions(&self) -> &[(u32, Placement)] {
        &self.transitions
    }

    /// Every placement the schedule ever uses (initial + transitions), in
    /// chronological order. Used to validate tiers against a catalog.
    pub fn placements(&self) -> impl Iterator<Item = &Placement> {
        std::iter::once(&self.initial).chain(self.transitions.iter().map(|(_, p)| p))
    }

    /// The placement in force on `day`.
    pub(crate) fn placement_at(&self, day: u32) -> &Placement {
        // Number of transitions with transition day <= day.
        let n = self.transitions.partition_point(|&(d, _)| d <= day);
        if n == 0 {
            &self.initial
        } else {
            &self.transitions[n - 1].1
        }
    }

    /// Decompose the schedule over `[0, horizon_days)` into maximal
    /// constant-placement segments. Transitions at or after the horizon are
    /// ignored. Returns an empty vector for a zero-day horizon.
    pub fn segments(&self, horizon_days: u32) -> Vec<ScheduleSegment> {
        self.iter_segments(horizon_days).collect()
    }

    /// [`PlacementSchedule::segments`] as an iterator: the same segments in
    /// the same order, yielded one at a time with nothing allocated — the
    /// form the billing engine walks once per object per replay.
    pub(crate) fn iter_segments(
        &self,
        horizon_days: u32,
    ) -> impl Iterator<Item = ScheduleSegment> + '_ {
        Segments {
            next: (horizon_days > 0).then_some((0, self.initial)),
            transitions: self.transitions.iter(),
            horizon_days,
        }
    }
}

/// The iterator behind [`PlacementSchedule::iter_segments`].
struct Segments<'a> {
    /// Start day and placement of the segment to yield next.
    next: Option<(u32, Placement)>,
    transitions: std::slice::Iter<'a, (u32, Placement)>,
    horizon_days: u32,
}

impl Iterator for Segments<'_> {
    type Item = ScheduleSegment;

    fn next(&mut self) -> Option<ScheduleSegment> {
        let (start_day, placement) = self.next.take()?;
        // Transitions are sorted by day: the first one at or past the
        // horizon ends the walk.
        let end_day = match self.transitions.next() {
            Some(&(day, to)) if day < self.horizon_days => {
                self.next = Some((day, to));
                day
            }
            _ => self.horizon_days,
        };
        Some(ScheduleSegment {
            start_day,
            end_day,
            placement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiers::TierId;

    fn placement(tier: usize) -> Placement {
        Placement::uncompressed(TierId(tier))
    }

    #[test]
    fn monthly_events_land_on_period_start_days() {
        let monthly = vec![
            AccessEvent::read("a", 0, 1.0),
            AccessEvent::write("a", 2, 0.5),
        ];
        let daily = events_from_monthly(&monthly);
        assert_eq!(daily.len(), 2);
        assert_eq!(daily[0].day, 0);
        assert_eq!(daily[1].day, 60);
        assert_eq!(daily[1].kind, AccessKind::Write);
        assert_eq!(daily[1].day / DAYS_PER_MONTH, 2);
    }

    #[test]
    fn constant_schedule_is_one_segment() {
        let s = PlacementSchedule::constant(placement(1));
        assert!(s.transitions().is_empty());
        let segs = s.segments(90);
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].start_day, segs[0].end_day), (0, 90));
        assert_eq!(segs[0].days(), 90);
        assert_eq!(s.placement_at(0).tier, TierId(1));
        assert_eq!(s.placement_at(89).tier, TierId(1));
    }

    #[test]
    fn transitions_split_the_horizon() {
        let s = PlacementSchedule::constant(placement(0))
            .with_transition(30, placement(1))
            .with_transition(75, placement(2));
        let segs = s.segments(120);
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].start_day, segs[0].end_day), (0, 30));
        assert_eq!((segs[1].start_day, segs[1].end_day), (30, 75));
        assert_eq!((segs[2].start_day, segs[2].end_day), (75, 120));
        assert_eq!(segs[0].placement.tier, TierId(0));
        assert_eq!(segs[1].placement.tier, TierId(1));
        assert_eq!(segs[2].placement.tier, TierId(2));
        // A transition takes effect at the start of its day.
        assert_eq!(s.placement_at(29).tier, TierId(0));
        assert_eq!(s.placement_at(30).tier, TierId(1));
        assert_eq!(s.placement_at(74).tier, TierId(1));
        assert_eq!(s.placement_at(75).tier, TierId(2));
    }

    #[test]
    fn transitions_stay_sorted_regardless_of_insertion_order() {
        let s = PlacementSchedule::constant(placement(0))
            .with_transition(75, placement(2))
            .with_transition(30, placement(1));
        let days: Vec<u32> = s.transitions().iter().map(|&(d, _)| d).collect();
        assert_eq!(days, vec![30, 75]);
        assert_eq!(s.placement_at(40).tier, TierId(1));
    }

    #[test]
    fn day_zero_and_duplicate_transitions_replace() {
        let s = PlacementSchedule::constant(placement(0))
            .with_transition(0, placement(3))
            .with_transition(10, placement(1))
            .with_transition(10, placement(2));
        assert_eq!(s.initial().tier, TierId(3));
        assert_eq!(s.transitions().len(), 1);
        assert_eq!(s.placement_at(10).tier, TierId(2));
    }

    #[test]
    fn transitions_beyond_the_horizon_are_ignored() {
        let s = PlacementSchedule::constant(placement(0)).with_transition(100, placement(1));
        let segs = s.segments(60);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].placement.tier, TierId(0));
        assert!(s.segments(0).is_empty());
    }

    #[test]
    fn event_columns_preserve_trace_order_and_resolve_names() {
        let events = vec![
            BillingEvent::read("a", 0, 1.5),
            BillingEvent::write("b", 31, 2.0),
            BillingEvent::read("ghost", 65, 0.5),
        ];
        let cols = EventColumns::from_events(&events, |name| match name {
            "a" => Some(0),
            "b" => Some(1),
            _ => None,
        });
        assert_eq!(cols.len(), 3);
        assert!(!cols.is_empty());
        assert_eq!(cols.days, vec![0, 31, 65]);
        assert_eq!(cols.object_ids, vec![0, 1, UNKNOWN_OBJECT]);
        assert_eq!(cols.kinds[1], AccessKind::Write);
        assert_eq!(cols.volumes, vec![1.5, 2.0, 0.5]);
        assert!(EventColumns::from_events(&[], |_| None).is_empty());
    }

    #[test]
    fn event_columns_batch_api_appends_and_slices_in_trace_order() {
        let events = vec![
            BillingEvent::read("a", 0, 1.5),
            BillingEvent::write("b", 31, 2.0),
            BillingEvent::read("a", 31, 0.25),
            BillingEvent::read("b", 65, 0.5),
        ];
        let resolve = |name: &str| match name {
            "a" => Some(0),
            "b" => Some(1),
            _ => None,
        };
        let cols = EventColumns::from_events(&events, resolve);

        // push_resolved rebuilds the same columns one event at a time.
        let mut streamed = EventColumns::default();
        for ev in &events {
            streamed.push_resolved(
                ev.day,
                resolve(&ev.object).unwrap_or(UNKNOWN_OBJECT),
                ev.kind,
                ev.volume_gb,
            );
        }
        assert_eq!(streamed, cols);

        // Slicing by day windows preserves order, and re-concatenating the
        // epoch batches reproduces the full trace exactly.
        let early = cols.filter_day_range(0, 32);
        assert_eq!(early.days, vec![0, 31, 31]);
        assert_eq!(early.object_ids, vec![0, 1, 0]);
        let late = cols.filter_day_range(32, 90);
        assert_eq!(late.days, vec![65]);
        assert!(cols.filter_day_range(90, 300).is_empty());
        let mut rejoined = EventColumns::default();
        rejoined.extend_from(&early);
        rejoined.extend_from(&late);
        assert_eq!(rejoined, cols);

        // Index ranges cut the same way, and tile the trace.
        assert_eq!(cols.range(0..3), early);
        assert_eq!(cols.range(3..4), late);
        assert!(cols.range(4..4).is_empty());
        let mut rejoined = cols.range(0..1);
        rejoined.extend_from(&cols.range(1..4));
        assert_eq!(rejoined, cols);
        // A ragged batch is cut column by column, past any column's end.
        let mut ragged = cols.clone();
        ragged.volumes.truncate(2);
        let tail = ragged.range(1..9);
        assert_eq!((tail.days.len(), tail.volumes.len()), (3, 1));
        assert_eq!(ragged.range(3..9).volumes, Vec::<f64>::new());
    }

    /// The loop `PlacementSchedule::segments` was before it became a
    /// `collect` of `iter_segments`, kept as its reference.
    fn segments_reference(schedule: &PlacementSchedule, horizon_days: u32) -> Vec<ScheduleSegment> {
        let mut segments = Vec::new();
        if horizon_days == 0 {
            return segments;
        }
        let mut current = *schedule.initial();
        let mut start = 0u32;
        for &(day, placement) in schedule.transitions() {
            if day >= horizon_days {
                break;
            }
            segments.push(ScheduleSegment {
                start_day: start,
                end_day: day,
                placement: current,
            });
            current = placement;
            start = day;
        }
        segments.push(ScheduleSegment {
            start_day: start,
            end_day: horizon_days,
            placement: current,
        });
        segments
    }

    /// A small deterministic generator for the randomized check below
    /// (this crate has no `proptest` dev-dependency).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as u32) % n
        }
    }

    #[test]
    fn iter_segments_matches_the_collecting_loop() {
        let mut rng = Lcg(0xca1e);
        for _ in 0..500 {
            let mut schedule = PlacementSchedule::constant(placement(rng.below(4) as usize));
            for _ in 0..rng.below(6) {
                schedule =
                    schedule.with_transition(rng.below(130), placement(rng.below(4) as usize));
            }
            for horizon in [0, 1, 29, 30, 31, 90, 129, 130, 200] {
                let expected = segments_reference(&schedule, horizon);
                assert_eq!(schedule.segments(horizon), expected);
                assert_eq!(
                    schedule.iter_segments(horizon).collect::<Vec<_>>(),
                    expected
                );
                // Segments tile [0, horizon).
                let mut day = 0;
                for seg in schedule.iter_segments(horizon) {
                    assert_eq!(seg.start_day, day);
                    assert!(seg.end_day > seg.start_day);
                    day = seg.end_day;
                }
                assert_eq!(day, horizon);
            }
        }
    }

    #[test]
    fn ragged_columns_are_named_with_their_length() {
        let mut cols = EventColumns::default();
        for day in 0..4 {
            cols.push_resolved(day, 0, AccessKind::Read, 1.0);
        }
        assert_eq!(cols.check_lengths(), Ok(()));
        assert_eq!(EventColumns::default().check_lengths(), Ok(()));
        let cut = |f: fn(&mut EventColumns)| {
            let mut ragged = cols.clone();
            f(&mut ragged);
            ragged.check_lengths()
        };
        let err = |name, value| Err(CloudSimError::InvalidParameter { name, value });
        assert_eq!(
            cut(|c| c.object_ids.truncate(3)),
            err("columns.object_ids", 3.0)
        );
        assert_eq!(cut(|c| c.kinds.truncate(3)), err("columns.kinds", 3.0));
        assert_eq!(cut(|c| c.volumes.truncate(3)), err("columns.volumes", 3.0));
        // A short `days` makes every other column the odd one out; the
        // first is named.
        assert_eq!(cut(|c| c.days.truncate(3)), err("columns.object_ids", 4.0));
        assert_eq!(cut(|c| c.volumes.push(0.0)), err("columns.volumes", 5.0));

        // The usable prefix is the shortest column, the torn count the
        // rest of the longest, whichever columns they are.
        assert_eq!(cols.usable_prefix(), (4, 0));
        assert_eq!(EventColumns::default().usable_prefix(), (0, 0));
        let prefix = |f: fn(&mut EventColumns)| {
            let mut ragged = cols.clone();
            f(&mut ragged);
            ragged.usable_prefix()
        };
        assert_eq!(prefix(|c| c.kinds.truncate(1)), (1, 3));
        assert_eq!(prefix(|c| c.days.clear()), (0, 4));
        assert_eq!(
            prefix(|c| {
                c.object_ids.truncate(2);
                c.volumes.push(0.0);
            }),
            (2, 3)
        );
    }

    #[test]
    fn classify_checks_the_horizon_then_the_volume_then_the_id() {
        use EventClass::*;
        use QuarantineReason::*;
        let class = |day, id, volume| classify(day, id, volume, 60, 3);
        assert_eq!(class(0, 0, 1.0), Valid);
        assert_eq!(class(59, 2, 0.0), Valid);
        // Past the horizon, nothing else is looked at.
        assert_eq!(class(60, 0, 1.0), Dropped);
        assert_eq!(class(u32::MAX, UNKNOWN_OBJECT, f64::NAN), Dropped);
        assert_eq!(class(61, 7, -1.0), Dropped);
        // A bad volume comes before any id check.
        assert_eq!(class(1, 0, f64::NAN), BadVolume(NonFiniteVolume));
        assert_eq!(class(1, 0, f64::NEG_INFINITY), BadVolume(NonFiniteVolume));
        assert_eq!(
            class(1, UNKNOWN_OBJECT, f64::INFINITY),
            BadVolume(NonFiniteVolume)
        );
        assert_eq!(class(1, 9, -0.5), BadVolume(NegativeVolume));
        assert_eq!(class(1, 1, -0.0), Valid);
        // Past the known ids: the sentinel is unresolved, anything else foreign.
        assert_eq!(class(1, UNKNOWN_OBJECT, 1.0), Unresolved);
        assert_eq!(class(1, 3, 1.0), OutOfRange);
        assert_eq!(class(1, UNKNOWN_OBJECT - 1, 1.0), OutOfRange);
        assert_eq!(classify(1, 0, 1.0, 60, 0), OutOfRange);
        assert_eq!(classify(0, 0, 1.0, 0, 3), Dropped);
    }

    /// The block of `cols`, alone.
    fn block(cols: &EventColumns) -> Vec<u8> {
        let mut out = Vec::new();
        cols.encode_into(&mut out);
        out
    }

    /// Three events on one day, one of them naming an id past 255, and the
    /// same batch torn: ids and kinds lost entries, volumes all but one.
    fn golden_batch(torn: bool) -> EventColumns {
        let mut cols = EventColumns::default();
        cols.push_resolved(5, 1, AccessKind::Read, 0.5);
        cols.push_resolved(5, 300, AccessKind::Write, 1.0);
        cols.push_resolved(5, 2, AccessKind::Write, 2.0);
        if torn {
            cols.object_ids = vec![1, 2];
            cols.kinds.truncate(1);
            cols.volumes.truncate(1);
        }
        cols
    }

    /// The column block, pinned byte for byte. A layout change must
    /// replace these bytes on purpose.
    #[test]
    fn the_column_block_is_pinned_by_golden_blocks() {
        let half = [0, 0, 0, 0, 0, 0, 0xE0, 0x3F];
        let clean: Vec<u8> = [
            // Three days as runs, three ids in 2-byte cells, three kinds,
            // three volumes.
            &[3, 0, 0, 0x80, 3, 0, 0, 0x40, 3, 0, 0, 0, 3, 0, 0, 0][..],
            &[5, 0, 0, 0, 3, 0, 0, 0],
            &[1, 0, 0x2C, 0x01, 2, 0],
            &[0b110],
            &half,
            &[0, 0, 0, 0, 0, 0, 0xF0, 0x3F],
            &[0, 0, 0, 0, 0, 0, 0, 0x40],
        ]
        .concat();
        // More days than ids: the days go out as cells although one run
        // would be shorter, and the ids fit one byte each.
        let torn: Vec<u8> = [
            &[3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0][..],
            &[5, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0],
            &[1, 2],
            &[0],
            &half,
        ]
        .concat();
        for (golden, cols) in [(clean, golden_batch(false)), (torn, golden_batch(true))] {
            assert_eq!(block(&cols), golden);
            assert_eq!(EventColumns::decode(&golden), Some(cols));
        }
        assert_eq!(block(&EventColumns::default()), [0; 16]);
    }

    /// Overwrite header word `word` of `bytes`.
    fn set_word(bytes: &mut [u8], word: usize, value: u32) {
        bytes[4 * word..][..4].copy_from_slice(&value.to_le_bytes());
    }

    #[test]
    fn blocks_encode_would_not_write_are_refused() {
        let clean = block(&golden_batch(false));
        let refused = |bytes: &[u8]| EventColumns::decode(bytes).is_none();
        // Cut short, padded, or no header at all.
        assert!(refused(&clean[..clean.len() - 1]));
        assert!(refused(&[clean.clone(), vec![0]].concat()));
        assert!(refused(&clean[..15]));
        // Id width code 3, and ids in cells wider than the largest needs.
        let mut bad = clean.clone();
        set_word(&mut bad, 1, 3 | 3 << ID_WIDTH_SHIFT);
        assert!(refused(&bad));
        let mut cols = golden_batch(false);
        cols.object_ids[1] = 255;
        let narrow = block(&cols);
        assert_eq!(narrow.len(), clean.len() - 3);
        let mut wide: Vec<u8> = narrow[..24].to_vec();
        set_word(&mut wide, 1, 3 | 1 << ID_WIDTH_SHIFT);
        wide.extend_from_slice(&[1, 0, 255, 0, 2, 0]);
        wide.extend_from_slice(&narrow[27..]);
        assert!(refused(&wide));
        // A set padding bit of the kind bitmap.
        let mut bad = clean.clone();
        bad[30] |= 0x80;
        assert!(refused(&bad));
        // The days as cells where runs are shorter, and as runs where
        // there are more days than ids.
        let mut cells: Vec<u8> = [&clean[..16], &[5, 0, 0, 0].repeat(3), &clean[24..]].concat();
        set_word(&mut cells, 0, 3);
        assert!(refused(&cells));

        let mut torn = block(&golden_batch(true));
        assert!(!refused(&torn));
        set_word(&mut torn, 0, 3 | DAYS_RUNS);
        torn.drain(16..28);
        torn.splice(16..16, [5, 0, 0, 0, 3, 0, 0, 0]);
        assert!(refused(&torn));
        // A header that declares 2³¹ − 1 days of runs and no ids asks for
        // nothing: runs of more days than ids are refused first.
        let mut hostile = vec![0xFF, 0xFF, 0xFF, 0xFF];
        hostile.extend_from_slice(&[0; 12]);
        hostile.extend_from_slice(&[7, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(refused(&hostile));
    }

    #[test]
    fn day_columns_take_the_shorter_coding_and_refuse_any_other() {
        let code = |days: &[u32], allowed: bool| {
            let mut out = vec![0xAB];
            let runs = encode_day_column(days.len(), |i| days[i], allowed, &mut out);
            assert_eq!(out[0], 0xAB, "appends after what `out` holds");
            (runs, out.split_off(1))
        };
        let pair = |day: u32, count: u32| [day.to_le_bytes(), count.to_le_bytes()].concat();
        // Three days of one value: one run, 8 bytes against 12.
        let (runs, bytes) = code(&[9, 9, 9], true);
        assert!(runs);
        assert_eq!(bytes, pair(9, 3));
        assert_eq!(
            decode_day_column(&bytes, 3, true, true),
            Some((vec![9; 3], 8))
        );
        // Not allowed, or not strictly shorter: cells.
        for (days, allowed) in [(&[9, 9, 9][..], false), (&[1, 1, 2, 2], true), (&[], true)] {
            let (runs, bytes) = code(days, allowed);
            assert!(!runs);
            assert_eq!(bytes.len(), 4 * days.len());
            assert_eq!(
                decode_day_column(&bytes, days.len(), false, allowed),
                Some((days.to_vec(), bytes.len()))
            );
            assert_eq!(decode_day_column(&bytes, days.len(), true, allowed), None);
        }
        // Any u32 is carried, and trailing bytes are the caller's.
        let (_, bytes) = code(&[u32::MAX; 4], true);
        let long = [bytes.clone(), vec![1, 2, 3]].concat();
        assert_eq!(
            decode_day_column(&long, 4, true, true),
            Some((vec![u32::MAX; 4], 8))
        );
        // Cells where runs are shorter; a zero run; two runs of one day;
        // a run past `n`; too few bytes.
        assert_eq!(
            decode_day_column(&[9, 0, 0, 0].repeat(3), 3, false, true),
            None
        );
        let runs_of = |pairs: &[(u32, u32)]| {
            pairs
                .iter()
                .flat_map(|&(d, c)| pair(d, c))
                .collect::<Vec<u8>>()
        };
        for bad in [
            runs_of(&[(9, 0), (9, 5)]),
            runs_of(&[(9, 2), (9, 3)]),
            runs_of(&[(9, 6)]),
            runs_of(&[(9, 5)])[..7].to_vec(),
        ] {
            assert_eq!(decode_day_column(&bad, 5, true, true), None, "{bad:?}");
        }
        assert_eq!(
            decode_day_column(&runs_of(&[(9, 2), (8, 3)]), 5, true, true),
            Some((vec![9, 9, 8, 8, 8], 16))
        );
    }

    #[test]
    fn placements_iterates_every_placement() {
        let s = PlacementSchedule::constant(placement(0)).with_transition(10, placement(2));
        let tiers: Vec<usize> = s.placements().map(|p| p.tier.index()).collect();
        assert_eq!(tiers, vec![0, 2]);
    }
}
