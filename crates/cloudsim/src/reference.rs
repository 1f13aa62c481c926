//! The preserved sequential billing engine, kept as the differential
//! oracle for the sharded column engine.
//!
//! [`run_days_reference`] is the pre-sharding `BillingSimulator::run_days`
//! body: one thread, `String`-keyed event resolution per event,
//! accumulating directly onto the shared monthly/per-object accumulators in
//! a single pass. What an event is — dropped, a bad volume, an unknown
//! name — it asks [`crate::timeline::classify`], like the sharded engine
//! and the serving intake: it is the oracle of the accounting, and
//! `scope_faults::expected_intake` that of the classification. The
//! sharded engine
//! ([`crate::billing::BillingSimulator::run_columns_with_threads`]) must
//! produce **bit-for-bit identical** reports (including error values and
//! `dropped_events`) for every thread count — that is what the workspace
//! `differential_billing` suite pins against this module.

use crate::billing::{empty_periods, AccessKind, BillingReport, BillingSimulator};
use crate::error::CloudSimError;
use crate::timeline::{classify, BillingEvent, EventClass, DAYS_PER_MONTH, UNKNOWN_OBJECT};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Day-granular sequential replay: the original single-threaded engine.
///
/// Mirrors [`crate::billing::BillingSimulator::run_days`] semantics exactly;
/// see that method for the billing rules. This copy exists so the sharded
/// engine has a byte-stable oracle that cannot drift with it.
pub fn run_days_reference(
    sim: &BillingSimulator,
    horizon_days: u32,
    events: &[BillingEvent],
) -> Result<BillingReport, CloudSimError> {
    let mut months = empty_periods(horizon_days)?;
    // Per-object totals are accumulated in a flat vector indexed by the
    // interned name ids — the map is only built once, for the final
    // report.
    let mut totals: Vec<f64> = vec![0.0; sim.names.len()];

    // Storage + transition + residency-penalty costs, per object, by
    // streaming over its constant-placement segments.
    for (obj, &id) in sim.objects.iter().zip(&sim.object_ids) {
        let schedule = &sim.schedules[id as usize];
        let mut obj_total = 0.0;
        // Where the object is coming from and how long it has been
        // there: seeds the early-deletion accounting of the first (and
        // every later) transition.
        let mut prev_tier = obj.current_tier;
        let mut prev_days_served = obj.residency_days;
        let mut prev_stored_gb = obj.size_gb;
        for seg in schedule.segments(horizon_days) {
            let stored_gb = obj.size_gb / seg.placement.compression_ratio.max(f64::MIN_POSITIVE);

            // Pro-rated storage in every billing period the segment
            // overlaps.
            for p in seg.start_day / DAYS_PER_MONTH..=(seg.end_day - 1) / DAYS_PER_MONTH {
                let period_start = p * DAYS_PER_MONTH;
                let days = seg.end_day.min(period_start + DAYS_PER_MONTH)
                    - seg.start_day.max(period_start);
                let c = sim.model.storage_cost(
                    seg.placement.tier,
                    stored_gb,
                    days as f64 / DAYS_PER_MONTH as f64,
                );
                months[p as usize].breakdown.storage += c;
                obj_total += c;
            }

            // The move onto this segment's placement, charged in the
            // period the transition day falls in. A same-tier
            // recompression is still a physical rewrite: it pays a read
            // of the old bytes plus a write of the new ones.
            let period = (seg.start_day / DAYS_PER_MONTH) as usize;
            let (change, egress) = if prev_tier != Some(seg.placement.tier) {
                if let (true, Some(from)) = (seg.start_day > 0, prev_tier) {
                    // Mid-horizon move: the read off the old tier (and
                    // the egress, billed by the source provider) cover
                    // the bytes actually resident there.
                    (
                        sim.model.read_cost(from, prev_stored_gb, 1.0)
                            + sim.model.write_cost(seg.placement.tier, stored_gb),
                        sim.model
                            .egress_cost(prev_tier, seg.placement.tier, prev_stored_gb),
                    )
                } else {
                    // Initial move at day 0: read+write priced on the
                    // destination's stored size, egress on the bytes
                    // leaving the source.
                    (
                        sim.model
                            .read_write_cost(prev_tier, seg.placement.tier, stored_gb),
                        sim.model
                            .egress_cost(prev_tier, seg.placement.tier, prev_stored_gb),
                    )
                }
            } else if seg.start_day > 0 && stored_gb != prev_stored_gb {
                (
                    sim.model.read_cost(seg.placement.tier, prev_stored_gb, 1.0)
                        + sim.model.write_cost(seg.placement.tier, stored_gb),
                    0.0,
                )
            } else {
                (0.0, 0.0)
            };
            months[period].breakdown.write += change;
            months[period].breakdown.egress += egress;
            obj_total += change + egress;

            // Early-deletion penalty, pro-rated by the days already
            // served on the tier being left.
            if let Some(from) = prev_tier {
                if from != seg.placement.tier {
                    let penalty =
                        sim.model
                            .early_deletion_penalty(from, prev_stored_gb, prev_days_served)?;
                    months[period].early_deletion_penalty += penalty;
                    obj_total += penalty;
                }
            }

            // Residency accumulates across consecutive segments on the
            // same tier (e.g. a recompression that stays put).
            if prev_tier == Some(seg.placement.tier) {
                prev_days_served += seg.days();
            } else {
                prev_days_served = seg.days();
            }
            prev_tier = Some(seg.placement.tier);
            prev_stored_gb = stored_gb;
        }
        // Assignment (not +=) matches the historical insert-overwrite
        // semantics when several objects share a name.
        totals[id as usize] = obj_total;
    }

    // Access costs, streamed in trace order against the placement in
    // force on each event's day.
    let mut dropped_events: u64 = 0;
    let known_objects = sim.names.len();
    let invalid = |name, value| CloudSimError::InvalidParameter { name, value };
    for ev in events {
        let id = sim
            .name_ids
            .get(ev.object.as_str())
            .map_or(UNKNOWN_OBJECT, |&id| id);
        match classify(ev.day, id, ev.volume_gb, horizon_days, known_objects) {
            EventClass::Valid => {}
            EventClass::Dropped => {
                dropped_events += 1; // outside the billed horizon
                continue;
            }
            EventClass::Unresolved => continue, // accesses to unknown objects are ignored
            EventClass::BadVolume(_) => return Err(invalid("volume_gb", ev.volume_gb)),
            EventClass::OutOfRange => return Err(invalid("object_id", f64::from(id))),
        }
        let placement = sim.schedules[id as usize].placement_at(ev.day);
        let effective_gb = ev.volume_gb / placement.compression_ratio.max(f64::MIN_POSITIVE);
        let m = &mut months[(ev.day / DAYS_PER_MONTH) as usize];
        let cost = match ev.kind {
            AccessKind::Read => {
                let read = sim.model.read_cost(placement.tier, effective_gb, 1.0);
                let decomp = sim
                    .model
                    .decompression_cost(placement.decompression_seconds, 1.0);
                m.breakdown.read += read;
                m.breakdown.decompression += decomp;
                read + decomp
            }
            AccessKind::Write => {
                let w = sim.model.write_cost(placement.tier, effective_gb);
                m.breakdown.write += w;
                w
            }
        };
        totals[id as usize] += cost;
    }

    // Name order by a map's own sort, independent of the simulator's
    // cached order.
    let per_object: BTreeMap<Arc<str>, f64> = sim.names.iter().cloned().zip(totals).collect();
    Ok(BillingReport {
        months,
        per_object: per_object.into(),
        dropped_events,
    })
}
