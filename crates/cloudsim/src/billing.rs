//! Billing simulator: replays an access trace against a tier placement and
//! accrues the real costs the cloud provider would charge.
//!
//! The optimizer works with *projected* accesses; the billing simulator is
//! what we use to evaluate a placement against the accesses that actually
//! happen, exactly as the paper computes "% cost benefit compared to the
//! platform baseline" for Tables II and IV.
//!
//! The engine is **day-granular** ([`BillingSimulator::run_days`]): objects
//! follow a [`PlacementSchedule`] that may change tier mid-horizon, storage
//! is pro-rated by the days actually spent on each tier, tier changes are
//! charged in the billing period they occur, and moving an object off a
//! tier before its minimum residency period is billed for exactly the days
//! of unmet residency (how Azure bills early deletion from Cool/Archive,
//! and one of the reasons the paper recommends per-billing-period tier
//! changes). [`BillingSimulator::run`] is the month-aligned compatibility
//! path: it lifts a legacy monthly trace onto the day axis and produces
//! totals identical to the historical whole-month replay.
//!
//! # The replay kernel
//!
//! Every entry point ends in one engine
//! ([`BillingSimulator::run_columns_with_threads`]) that bills in two
//! phases. Phase 1 walks each placed object's timeline (storage, moves,
//! penalties) on the calling thread, in placement order, exactly as the
//! sequential engine does. Phase 2 bills the access events — the bulk of a
//! replay — as **one kernel in two stages over `UNIT_EVENTS`-event
//! units**, handed to [`parallel::ordered_stream_with_threads`]:
//!
//! * **Resolve** is the order-free stage: `resolve_event` — the event's
//!   [`classify`] class (horizon, then volume, then id: the rule the
//!   serving intake and the fault injector share), the rate-line lookup,
//!   the divide and the multiply — writes what billing each event of a
//!   unit costs into a reused buffer of 24-byte `EventOutcome`s (code,
//!   amount, decompression cost, billing period). No load of one event
//!   depends on another event's, so the misses of neighbouring events are
//!   in flight together, and any thread may run it.
//! * **Apply** is the ordered stage: `apply_event` lands outcomes on the
//!   monthly accumulators, the per-object totals, the dropped-event count
//!   and the first error, strictly in trace order on the calling thread. It
//!   is the only event-path code that touches them.
//!
//! With one thread the caller alternates the two stages per unit and
//! spawns nothing; with `n` threads, `n - 1` resolvers fill units while
//! the caller applies them in order (and resolves units itself whenever
//! the next one has not arrived). The same two functions run in the same
//! order over the same units either way, so the report is bit-for-bit
//! identical for every thread count **by construction**, and
//! [`crate::reference::run_days_reference`] — the preserved sequential
//! engine — is the one oracle the differential suites pin it against.
//! Memory is `O(threads × unit)`: a replay never holds an outcome per
//! event.
//!
//! ## The rate line
//!
//! Phase 1's walk of an object's schedule also files everything phase 2
//! needs about that object into one 64-byte, 64-byte-aligned `RateLine`:
//! for each of the first two segments the compression divisor
//! (`compression_ratio.max(f64::MIN_POSITIVE)`), the per-GB read rate
//! (`read_cost(tier, 1.0, 1.0)`) and the per-access decompression cost
//! (`decompression_cost(seconds, 1.0)`), plus the day the second segment
//! starts — so picking the segment in force is `day >= start1`, a select,
//! not a search, and pricing an event touches **one cache line** of a table
//! that at 100k objects is larger than the L2. Each stored `f64` is the
//! value of the very expression the cost model (and the reference engine)
//! evaluates per event — a rate times 1.0 is that rate, bit for bit — and
//! the event path still divides and multiplies exactly as
//! [`CostModel::read_cost`] / [`CostModel::write_cost`] do, so pricing from
//! the line cannot perturb a bit. The write rate (`write_cost(tier, 1.0)`),
//! needed by one event in ten, lives in a parallel array; a schedule of
//! three or more segments falls back to a binary-searched flat table.
//!
//! ## Who fans out
//!
//! Two stages fan out, each deciding from its own length. Building columns
//! from named events ([`BillingSimulator::build_columns`], and so
//! [`BillingSimulator::run_days`] and [`BillingSimulator::run`]) resolves
//! names on [`parallel::default_threads`] threads from
//! `RESOLVE_FAN_OUT_MIN_ROWS` events, one thread below. A replay's phase 2
//! does the same from `FAN_OUT_MIN_EVENTS` events in
//! [`BillingSimulator::run_columns`];
//! [`BillingSimulator::run_columns_with_threads`] gives it exactly the
//! threads it is given. Phase 1 is a fraction of a replay and stays on the
//! calling thread, and the report around it is a gather of the totals into
//! a name order the simulator keeps between replays. The measurements are
//! beside the constants.

use crate::cost::{CostBreakdown, CostModel, ObjectSpec};
use crate::error::CloudSimError;
use crate::parallel;
use crate::providers::ProviderCatalog;
use crate::tiers::{TierCatalog, TierId};
use crate::timeline::{
    classify, first_day_of_month, BillingEvent, EventClass, EventColumns, PlacementSchedule,
    DAYS_PER_MONTH,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// The longest horizon a replay accepts: 36 500 days (100 years), so
/// 1 217 billing periods of [`DAYS_PER_MONTH`] days. A replay allocates one
/// [`MonthlyCost`] per period before it bills anything; without a cap a
/// horizon near `u32::MAX` would ask for ≈ 8 GB of them. Every horizon in
/// the workspace and its benchmark is a few hundred days.
pub const MAX_HORIZON_DAYS: u32 = 36_500;

/// The billing periods of a `horizon_days`-day replay, each zeroed.
///
/// # Errors
///
/// `InvalidParameter` (`horizon_days`) for a zero horizon or one past
/// [`MAX_HORIZON_DAYS`].
pub(crate) fn empty_periods(horizon_days: u32) -> Result<Vec<MonthlyCost>, CloudSimError> {
    if horizon_days == 0 || horizon_days > MAX_HORIZON_DAYS {
        return Err(CloudSimError::InvalidParameter {
            name: "horizon_days",
            value: f64::from(horizon_days),
        });
    }
    Ok((0..horizon_days.div_ceil(DAYS_PER_MONTH))
        .map(|m| MonthlyCost {
            month: m,
            ..Default::default()
        })
        .collect())
}

/// The kind of an access event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// A read of (part of) the object.
    Read,
    /// A write / append to the object.
    Write,
}

/// One access to an object during the billed horizon.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessEvent {
    /// Name of the object being accessed (must match an [`ObjectSpec`]).
    pub object: String,
    /// Month index (0-based) within the billing horizon.
    pub month: u32,
    /// Read or write.
    pub kind: AccessKind,
    /// Volume touched by this access in GB. For full-object scans this is
    /// the object size; selective queries touch less.
    pub volume_gb: f64,
}

impl AccessEvent {
    /// Convenience constructor for a read event.
    pub fn read(object: impl Into<String>, month: u32, volume_gb: f64) -> Self {
        AccessEvent {
            object: object.into(),
            month,
            kind: AccessKind::Read,
            volume_gb,
        }
    }

    /// Convenience constructor for a write event.
    pub fn write(object: impl Into<String>, month: u32, volume_gb: f64) -> Self {
        AccessEvent {
            object: object.into(),
            month,
            kind: AccessKind::Write,
            volume_gb,
        }
    }
}

/// Cost accrued in a single month of the simulated horizon.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MonthlyCost {
    /// Month index (0-based).
    pub month: u32,
    /// Cost breakdown for the month, cents.
    pub breakdown: CostBreakdown,
    /// Early-deletion penalties charged this month, cents.
    pub early_deletion_penalty: f64,
}

impl MonthlyCost {
    /// Total cost of the month including penalties.
    pub fn total(&self) -> f64 {
        self.breakdown.total() + self.early_deletion_penalty
    }
}

/// Result of a billing simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BillingReport {
    /// Per-billing-period costs, indexed by period (a period is a
    /// [`DAYS_PER_MONTH`]-day "month"; the last period of a day-granular
    /// run may be partial).
    pub months: Vec<MonthlyCost>,
    /// Per-object totals in cents, in name order, so consumers that iterate
    /// or fold the totals see a hash-seed-independent order (the order a
    /// `BTreeMap` keyed by name would give). See [`PerObject`].
    pub per_object: PerObject,
    /// Number of access events that fell at or beyond the billed horizon
    /// and were therefore not charged. A non-zero value signals a
    /// trace/horizon mismatch.
    pub dropped_events: u64,
}

impl BillingReport {
    /// Grand total over the horizon, cents.
    pub fn total(&self) -> f64 {
        self.months.iter().map(|m| m.total()).sum()
    }

    /// Total of one cost component over the horizon.
    pub fn total_breakdown(&self) -> CostBreakdown {
        let mut acc = CostBreakdown::default();
        for m in &self.months {
            acc.accumulate(&m.breakdown);
        }
        acc
    }

    /// Percentage benefit of this report relative to a baseline report:
    /// `100 * (baseline - this) / baseline`. This is the "% cost benefit"
    /// reported in Tables II and IV.
    pub fn percent_benefit_vs(&self, baseline: &BillingReport) -> f64 {
        let b = baseline.total();
        if b <= 0.0 {
            return 0.0;
        }
        100.0 * (b - self.total()) / b
    }
}

/// The per-object totals of a [`BillingReport`]: one total in cents per
/// distinct placed name, iterated in name order (byte-wise `str` order, a
/// `BTreeMap<Arc<str>, f64>`'s), so a fold over them gives the same bits
/// as a fold over such a map.
///
/// The names are one shared slice: a simulator sorts its names once per
/// set of placed names, and every report it builds until the next new name
/// holds the same slice, so building one costs a refcount bump and a
/// gather of the totals, not a map node per object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerObject {
    /// Distinct names, sorted.
    names: Arc<[Arc<str>]>,
    /// `totals[i]` is `names[i]`'s total.
    totals: Vec<f64>,
}

impl PerObject {
    /// The total of the object named `name`, if one was placed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.position(name).ok().map(|i| self.totals[i])
    }

    /// Every total, in name order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.totals.iter().copied()
    }

    /// Every `(name, total)`, in name order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, f64)> + '_ {
        self.names.iter().map(|n| &**n).zip(self.values())
    }

    /// Number of distinct placed names.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True if no object was placed.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.names.binary_search_by(|n| (**n).cmp(name))
    }
}

impl std::ops::Index<&str> for PerObject {
    type Output = f64;

    /// The total of the object named `name`.
    ///
    /// # Panics
    ///
    /// If no object of that name was placed, as a map's index does.
    fn index(&self, name: &str) -> &f64 {
        // A missing name indexes one past the last total.
        &self.totals[self.position(name).unwrap_or(self.totals.len())]
    }
}

/// Name order from a map: how an oracle that keeps its totals in a
/// `BTreeMap` builds the [`PerObject`] a simulator's report is compared
/// with.
impl From<BTreeMap<Arc<str>, f64>> for PerObject {
    fn from(map: BTreeMap<Arc<str>, f64>) -> Self {
        PerObject {
            names: map.keys().cloned().collect(),
            totals: map.into_values().collect(),
        }
    }
}

/// A simulator's distinct names in name order, with each one's interned
/// id: what turns the id-indexed totals of a replay into a [`PerObject`].
#[derive(Debug, Clone)]
struct NameOrder {
    names: Arc<[Arc<str>]>,
    ids: Box<[u32]>,
}

/// A placement decision for one object over the billed horizon.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Tier the object is stored on for the horizon.
    pub tier: TierId,
    /// Compression ratio the object is stored at (1.0 = uncompressed).
    pub compression_ratio: f64,
    /// Decompression seconds paid per read access.
    pub decompression_seconds: f64,
}

impl Placement {
    /// Uncompressed placement on `tier`.
    pub fn uncompressed(tier: TierId) -> Self {
        Placement {
            tier,
            compression_ratio: 1.0,
            decompression_seconds: 0.0,
        }
    }
}

/// Replays accesses against placement schedules and accrues per-period
/// costs on a day-granular time axis.
///
/// Object names are **interned at placement time** into dense `u32` ids:
/// the streaming loop of [`BillingSimulator::run_days`] accounts storage,
/// transitions and per-event access costs into flat `Vec`s indexed by those
/// ids — no `String` clone and no allocation per event. The names are
/// sorted once, by the first report after a name is added, and every
/// report shares that order: a report's [`PerObject`] is the totals
/// gathered into it, with no allocation per object.
#[derive(Debug, Clone)]
pub struct BillingSimulator {
    pub(crate) model: CostModel,
    pub(crate) objects: Vec<ObjectSpec>,
    /// Interned name id of each placed object (parallel to `objects`).
    pub(crate) object_ids: Vec<u32>,
    /// Distinct object names; index = interned id. `Arc<str>` so reports
    /// can rematerialize string keys with a refcount bump per object
    /// instead of an allocation per row.
    pub(crate) names: Vec<Arc<str>>,
    /// Name → interned id lookup.
    pub(crate) name_ids: HashMap<Arc<str>, u32>,
    /// Schedule per interned name id (re-placing a name replaces its
    /// schedule, matching the historical `HashMap::insert` semantics).
    pub(crate) schedules: Vec<PlacementSchedule>,
    /// `names` in name order, built by the first report that needs it and
    /// emptied when `place_scheduled` adds a name. A clone copies it, so a
    /// name placed on the clone leaves the original's order alone.
    name_order: OnceLock<NameOrder>,
}

impl BillingSimulator {
    /// Create a simulator over the given catalog.
    pub fn new(catalog: TierCatalog) -> Self {
        Self::with_model(CostModel::new(catalog))
    }

    /// Create a simulator over a multi-provider catalog: placements use
    /// merged [`TierId`]s (see
    /// [`ProviderCatalog::merged_catalog`]) and schedule segments that
    /// cross providers are charged the egress rate of the provider pair in
    /// addition to the usual read+write transfer.
    pub fn multi_provider(providers: &ProviderCatalog) -> Self {
        Self::with_model(CostModel::with_topology(
            providers.merged_catalog(),
            providers.topology(),
        ))
    }

    fn with_model(model: CostModel) -> Self {
        BillingSimulator {
            model,
            objects: Vec::new(),
            object_ids: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            schedules: Vec::new(),
            name_order: OnceLock::new(),
        }
    }

    /// The cost model the simulator bills with.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Register an object with a placement frozen for the whole horizon.
    pub fn place(&mut self, obj: ObjectSpec, placement: Placement) -> Result<(), CloudSimError> {
        self.place_scheduled(obj, PlacementSchedule::constant(placement))
    }

    /// Register an object with a full placement schedule (mid-horizon tier
    /// transitions allowed).
    pub fn place_scheduled(
        &mut self,
        obj: ObjectSpec,
        schedule: PlacementSchedule,
    ) -> Result<(), CloudSimError> {
        obj.validate()?;
        // Validate every tier the schedule ever uses exists in the catalog.
        for placement in schedule.placements() {
            self.model.catalog().tier(placement.tier)?;
        }
        let id = match self.name_ids.get(obj.name.as_str()) {
            Some(&id) => {
                self.schedules[id as usize] = schedule;
                id
            }
            None => {
                let id = self.names.len() as u32;
                let name: Arc<str> = Arc::from(obj.name.as_str());
                self.name_ids.insert(name.clone(), id);
                self.names.push(name);
                self.schedules.push(schedule);
                self.name_order.take();
                id
            }
        };
        self.object_ids.push(id);
        self.objects.push(obj);
        Ok(())
    }

    /// Month-aligned compatibility path: run the simulation over
    /// `horizon_months` whole billing periods with a monthly aggregated
    /// trace. Events of month `m` are lifted to day `m * 30` (same billing
    /// period) straight into [`EventColumns`] — names are borrowed, never
    /// cloned — and the day-granular engine does the rest; for constant
    /// schedules the resulting totals are identical to the historical
    /// whole-month replay. An event whose month starts past `u32::MAX`
    /// days is dropped, like any other event beyond the horizon.
    ///
    /// # Errors
    ///
    /// `InvalidParameter` (`horizon_months`) for a zero horizon, or one
    /// whose day count does not fit a `u32`; then as
    /// [`BillingSimulator::run_columns_with_threads`].
    pub fn run(
        &self,
        horizon_months: u32,
        accesses: &[AccessEvent],
    ) -> Result<BillingReport, CloudSimError> {
        let horizon_days = match horizon_months.checked_mul(DAYS_PER_MONTH) {
            Some(days) if days > 0 => days,
            _ => {
                return Err(CloudSimError::InvalidParameter {
                    name: "horizon_months",
                    value: f64::from(horizon_months),
                })
            }
        };
        let columns = EventColumns::from_rows(
            accesses,
            |ev| {
                let day = first_day_of_month(ev.month);
                (ev.object.as_str(), day, ev.kind, ev.volume_gb)
            },
            |name| self.name_ids.get(name).copied(),
        );
        self.run_columns(horizon_days, &columns)
    }

    /// Run the day-granular engine over `horizon_days` days with a
    /// day-stamped access trace.
    ///
    /// The engine streams over each object's schedule segments and the
    /// event trace:
    ///
    /// * **Storage** is pro-rated: each constant-placement segment charges
    ///   `rate * stored_gb * days / 30` into every billing period it
    ///   overlaps.
    /// * **Tier changes** (including the initial move off
    ///   [`ObjectSpec::current_tier`] at day 0) are charged in the period
    ///   the transition day falls in. In a multi-provider simulator
    ///   ([`BillingSimulator::multi_provider`]) a change whose source and
    ///   destination tiers belong to different providers additionally
    ///   books the provider-pair egress charge into
    ///   [`CostBreakdown::egress`].
    /// * **Early deletion** is exact to the day: moving an object off a
    ///   tier with a minimum residency period charges the *unmet* days —
    ///   the residency period minus the days actually served on that tier
    ///   (pre-horizon days count via [`ObjectSpec::residency_days`]) — at
    ///   the old tier's storage rate, in the period of the move.
    /// * **Reads/writes** are billed against the placement in force on
    ///   their day, into their day's billing period.
    ///
    /// Events at or beyond `horizon_days` are not charged but counted in
    /// [`BillingReport::dropped_events`]; events naming unknown objects are
    /// ignored, as before.
    ///
    /// Internally this builds [`EventColumns`] from the trace and replays
    /// them with [`BillingSimulator::run_columns`]; totals are bit-for-bit
    /// identical for any thread count, and to the preserved sequential
    /// engine [`crate::reference::run_days_reference`].
    pub fn run_days(
        &self,
        horizon_days: u32,
        events: &[BillingEvent],
    ) -> Result<BillingReport, CloudSimError> {
        self.run_columns(horizon_days, &self.build_columns(events))
    }

    /// Resolve a day-stamped trace into struct-of-arrays [`EventColumns`]
    /// against this simulator's intern table: one name-hash per event, paid
    /// **once**, and spread over [`parallel::default_threads`] threads for
    /// a long trace (see [`EventColumns::from_events`]). The columns can be
    /// replayed any number of times with [`BillingSimulator::run_columns`]
    /// without touching a `String` again.
    pub fn build_columns(&self, events: &[BillingEvent]) -> EventColumns {
        EventColumns::from_events(events, |name| self.name_ids.get(name).copied())
    }

    /// Replay prebuilt [`EventColumns`] on [`parallel::default_threads`]
    /// threads for a trace of at least `FAN_OUT_MIN_EVENTS` events and on
    /// the calling thread below it (the measurements are beside that
    /// constant). See [`BillingSimulator::run_columns_with_threads`] for
    /// the engine.
    pub fn run_columns(
        &self,
        horizon_days: u32,
        columns: &EventColumns,
    ) -> Result<BillingReport, CloudSimError> {
        let threads = if columns.len() < FAN_OUT_MIN_EVENTS {
            1
        } else {
            parallel::default_threads()
        };
        self.run_columns_with_threads(horizon_days, columns, threads)
    }

    /// The day-granular engine, in two phases.
    ///
    /// **Phase 1 — timeline costs**, on the calling thread. One walk of
    /// each placed object's schedule segments, in placement order, accrues
    /// its storage, moves and penalties exactly as the sequential engine
    /// does and files its `RateLine` under the object's interned id.
    ///
    /// **Phase 2 — access costs**, the two-stage kernel of the module docs
    /// in units of `UNIT_EVENTS` events, driven by
    /// [`parallel::ordered_stream_with_threads`] with exactly `threads`
    /// threads (`threads - 1` resolvers beside the caller; `threads <= 1`
    /// spawns nothing). *Resolve* prices each event from its columns row
    /// and its object's rate line; *apply* accumulates in trace order.
    /// Dropped-event counting, unknown-object skipping and the first-error
    /// rule all key off the apply stage's trace-order walk, preserving the
    /// sequential engine's exact semantics (an invalid volume *after* an
    /// earlier invalid one is never reported, just as the sequential loop
    /// would have stopped at the first).
    ///
    /// The same resolve and apply functions run over the same units at
    /// every thread count, so the report is bit-for-bit the same for any
    /// `threads` by construction, and
    /// [`crate::reference::run_days_reference`] is the one oracle.
    ///
    /// # Errors
    ///
    /// Checked in this order: a zero horizon or one past
    /// [`MAX_HORIZON_DAYS`] (`horizon_days`); columns of unequal length
    /// (`InvalidParameter` naming the first column whose length differs
    /// from `days`', carrying that length) — before any event is billed;
    /// then, per event in trace order, its [`classify`] class against
    /// this simulator's interned ids: after the horizon drop, a
    /// non-finite or negative volume (`volume_gb`) and, after the
    /// [`UNKNOWN_OBJECT`](crate::timeline::UNKNOWN_OBJECT) skip, an id
    /// that is not an interned id of this simulator (`object_id`, carrying
    /// the id) — columns built against another simulator are a corrupt
    /// trace, not accesses to ignore. Each is the same error at every
    /// thread count.
    pub fn run_columns_with_threads(
        &self,
        horizon_days: u32,
        columns: &EventColumns,
        threads: usize,
    ) -> Result<BillingReport, CloudSimError> {
        let mut months = empty_periods(horizon_days)?;
        columns.check_lengths()?;
        // Per-object totals are accumulated in a flat vector indexed by the
        // interned name ids, and gathered into name order once, for the
        // report.
        let mut totals: Vec<f64> = vec![0.0; self.names.len()];

        let rates = self.bill_timelines(horizon_days, &mut months, &mut totals)?;
        let dropped_events = bill_events(
            columns,
            horizon_days,
            threads,
            &rates,
            &mut months,
            &mut totals,
        )?;

        let order = self.name_order();
        Ok(BillingReport {
            months,
            per_object: PerObject {
                names: Arc::clone(&order.names),
                totals: order.ids.iter().map(|&id| totals[id as usize]).collect(),
            },
            dropped_events,
        })
    }

    /// This simulator's names in name order, sorted on first use after a
    /// name was added. Names are distinct, so the unstable sort has one
    /// outcome.
    fn name_order(&self) -> &NameOrder {
        self.name_order.get_or_init(|| {
            let mut ids: Vec<u32> = (0..self.names.len() as u32).collect();
            ids.sort_unstable_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
            NameOrder {
                names: ids
                    .iter()
                    .map(|&id| Arc::clone(&self.names[id as usize]))
                    .collect(),
                ids: ids.into(),
            }
        })
    }

    /// Phase 1: bill every placed object's timeline onto `months` and
    /// `totals` in placement order, on the calling thread, and return the
    /// rate table phase 2 prices events from.
    fn bill_timelines(
        &self,
        horizon_days: u32,
        months: &mut [MonthlyCost],
        totals: &mut [f64],
    ) -> Result<RateTable, CloudSimError> {
        let mut rates = RateTable {
            lines: vec![RateLine::default(); self.names.len()],
            write_rates: vec![[0.0; 2]; self.names.len()],
            long: Vec::new(),
        };
        for i in 0..self.objects.len() {
            self.bill_timeline(i, horizon_days, months, totals, &mut rates)?;
        }
        Ok(rates)
    }

    /// The timeline costs of placed object `i`, accrued onto `months` and
    /// filed in `totals` under its interned id. The arithmetic and its
    /// order are copied verbatim from the sequential engine (preserved as
    /// [`crate::reference::run_days_reference`]).
    ///
    /// The same walk fills the object's `RateLine`. Every stored f64 is
    /// computed by the cost-model expression the per-event path of the
    /// reference evaluates, so pricing from the line is bit-identical:
    ///
    /// * `ratio_max` is `compression_ratio.max(f64::MIN_POSITIVE)` — the
    ///   event path still divides by it.
    /// * `read_rate` / `write_rate` are the tier's per-GB cents rates,
    ///   extracted by evaluating the model at 1.0 GB (multiplying a rate
    ///   by 1.0 is a bitwise identity, so these are the exact tier
    ///   constants); the event path multiplies exactly as
    ///   [`CostModel::read_cost`] / [`CostModel::write_cost`] do.
    /// * `decomp_cost` is the full per-access
    ///   [`CostModel::decompression_cost`] (volume-independent, so it can
    ///   be taken whole).
    fn bill_timeline(
        &self,
        i: usize,
        horizon_days: u32,
        months: &mut [MonthlyCost],
        totals: &mut [f64],
        rates: &mut RateTable,
    ) -> Result<(), CloudSimError> {
        let (obj, id) = (&self.objects[i], self.object_ids[i]);
        let schedule = &self.schedules[id as usize];
        let mut total = 0.0;
        let mut line = RateLine {
            start1: u32::MAX,
            ..RateLine::default()
        };
        let mut write_rates = [0.0; 2];
        let long_lo = rates.long.len();
        // Where the object is coming from and how long it has been there:
        // seeds the early-deletion accounting of the first (and every
        // later) transition.
        let mut prev_tier = obj.current_tier;
        let mut prev_days_served = obj.residency_days;
        let mut prev_stored_gb = obj.size_gb;
        for (k, seg) in schedule.iter_segments(horizon_days).enumerate() {
            let ratio_max = seg.placement.compression_ratio.max(f64::MIN_POSITIVE);
            let stored_gb = obj.size_gb / ratio_max;

            let seg_rates = SegmentRates {
                start_day: seg.start_day,
                slot: RateSlot {
                    ratio_max,
                    read_rate: self.model.read_cost(seg.placement.tier, 1.0, 1.0),
                    decomp_cost: self
                        .model
                        .decompression_cost(seg.placement.decompression_seconds, 1.0),
                },
                write_rate: self.model.write_cost(seg.placement.tier, 1.0),
            };
            match k {
                // A one-segment schedule answers from either slot.
                0 => {
                    line.slots = [seg_rates.slot; 2];
                    write_rates = [seg_rates.write_rate; 2];
                }
                1 => {
                    line.start1 = seg.start_day;
                    line.slots[1] = seg_rates.slot;
                    write_rates[1] = seg_rates.write_rate;
                }
                _ => {}
            }
            rates.long.push(seg_rates);

            // Pro-rated storage in every billing period the segment
            // overlaps.
            for p in seg.start_day / DAYS_PER_MONTH..=(seg.end_day - 1) / DAYS_PER_MONTH {
                let period_start = p * DAYS_PER_MONTH;
                let days = seg.end_day.min(period_start + DAYS_PER_MONTH)
                    - seg.start_day.max(period_start);
                let c = self.model.storage_cost(
                    seg.placement.tier,
                    stored_gb,
                    days as f64 / DAYS_PER_MONTH as f64,
                );
                months[p as usize].breakdown.storage += c;
                total += c;
            }

            // The move onto this segment's placement, charged in the
            // period the transition day falls in. A same-tier
            // recompression is still a physical rewrite: it pays a read
            // of the old bytes plus a write of the new ones. (The
            // initial segment on the object's current tier charges
            // nothing, as before: the pre-horizon compression state is
            // unknown.)
            let period = (seg.start_day / DAYS_PER_MONTH) as usize;
            let (change, egress) = if prev_tier != Some(seg.placement.tier) {
                if let (true, Some(from)) = (seg.start_day > 0, prev_tier) {
                    // Mid-horizon move: the read off the old tier (and
                    // the egress, billed by the source provider) cover
                    // the bytes actually resident there, which a
                    // simultaneous recompression can make different
                    // from the new stored size.
                    (
                        self.model.read_cost(from, prev_stored_gb, 1.0)
                            + self.model.write_cost(seg.placement.tier, stored_gb),
                        self.model
                            .egress_cost(prev_tier, seg.placement.tier, prev_stored_gb),
                    )
                } else {
                    // Initial move at day 0: the pre-horizon
                    // compression state is unknown, so the legacy
                    // convention prices the read+write on the
                    // destination's stored size — but egress (new in
                    // the provider layer, no legacy constraint)
                    // covers the bytes leaving the source, same as
                    // the mid-horizon rule above.
                    (
                        self.model
                            .read_write_cost(prev_tier, seg.placement.tier, stored_gb),
                        self.model
                            .egress_cost(prev_tier, seg.placement.tier, prev_stored_gb),
                    )
                }
            } else if seg.start_day > 0 && stored_gb != prev_stored_gb {
                (
                    self.model
                        .read_cost(seg.placement.tier, prev_stored_gb, 1.0)
                        + self.model.write_cost(seg.placement.tier, stored_gb),
                    0.0,
                )
            } else {
                (0.0, 0.0)
            };
            months[period].breakdown.write += change;
            months[period].breakdown.egress += egress;
            total += change + egress;

            // Early-deletion penalty, pro-rated by the days already
            // served on the tier being left.
            if let Some(from) = prev_tier {
                if from != seg.placement.tier {
                    let penalty = self.model.early_deletion_penalty(
                        from,
                        prev_stored_gb,
                        prev_days_served,
                    )?;
                    months[period].early_deletion_penalty += penalty;
                    total += penalty;
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
        if rates.long.len() - long_lo > 2 {
            (line.long_lo, line.long_hi) = (long_lo as u32, rates.long.len() as u32);
        } else {
            // The line holds the whole schedule.
            rates.long.truncate(long_lo);
        }
        // Assignment (not +=) matches the historical insert-overwrite
        // semantics when several objects share a name (they share its
        // schedule, hence its line).
        totals[id as usize] = total;
        rates.lines[id as usize] = line;
        rates.write_rates[id as usize] = write_rates;
        Ok(())
    }
}

/// Events per unit of the phase-2 kernel, at every thread count: resolved
/// into one 32 768 × 24 B = 768 KB buffer (L2-resident), then applied. With
/// resolvers beside the caller that is ≈ 0.4 ms of resolve work against a
/// hand-off of microseconds, two buffers per thread. The size hardly
/// matters — the out-of-order core already overlaps neighbouring events'
/// misses — so one size serves one thread and many. `run_columns_with_threads`
/// on this host (2 vCPUs, seed 12, median of 9, two rounds), 100k objects ×
/// 4 M events at 4 096 / 8 192 / 16 384 / 32 768: `threads: 1` 95.4, 94.9 /
/// 98.4, 96.2 / 100.6, 95.6 / 98.1, 90.1 ms (128: 93.0, 93.3, 107.0);
/// `threads: 2` 64.0, 64.8 / 65.0, 62.0 / 62.1, 61.7 / 61.6, 56.9 ms (128:
/// 153.8 — a hand-off per 1.5 µs of work). 1k objects × 1 M events:
/// `threads: 1` 10.5–11.1 ms at every size, `threads: 2` 7.9 / 7.3 / 7.1 /
/// 7.2 ms.
const UNIT_EVENTS: usize = 32_768;

/// [`BillingSimulator::run_columns`] fans phase 2 out from this many
/// events. `run_columns_with_threads` on this host (2 vCPUs; 4 000 objects,
/// median of 61 replays, `threads: 1` → `threads: 2`): 100k events 1.7 →
/// 1.9 ms, 200k 2.8 → 2.8, 300k 3.9 → 3.1, 400k 5.0 → 3.9, 600k 7.1 → 5.3,
/// 1 M 11.4 → 7.9; at 100k objects 4 M events 98.1 → 61.6 ms. Break-even
/// is ≈ 200k events (a thread spawn and the buffers' first touch); the
/// floor — eight units — sits between it and the first clear win. When
/// the second vCPU is busy elsewhere two threads read as one (the caller
/// resolves what the resolver does not), not slower.
const FAN_OUT_MIN_EVENTS: usize = 8 * UNIT_EVENTS;

/// Phase 2: bill every event of `columns` onto `months` and `totals` in
/// trace order; returns the dropped-event count.
fn bill_events(
    columns: &EventColumns,
    horizon_days: u32,
    threads: usize,
    rates: &RateTable,
    months: &mut [MonthlyCost],
    totals: &mut [f64],
) -> Result<u64, CloudSimError> {
    let unit_of = |unit: usize| unit * UNIT_EVENTS..((unit + 1) * UNIT_EVENTS).min(columns.len());
    let mut dropped_events: u64 = 0;
    parallel::ordered_stream_with_threads(
        columns.len().div_ceil(UNIT_EVENTS),
        threads,
        // Reserved, not written: a buffer's pages are first touched by the
        // unit that fills it, so a short trace pays for the buffers it uses.
        || Vec::with_capacity(UNIT_EVENTS.min(columns.len())),
        |unit, out: &mut Vec<EventOutcome>| {
            let rows = unit_of(unit);
            let rows = columns.days[rows.clone()]
                .iter()
                .zip(&columns.object_ids[rows.clone()])
                .zip(&columns.kinds[rows.clone()])
                .zip(&columns.volumes[rows]);
            out.clear();
            out.extend(rows.map(|(((&day, &id), &kind), &volume_gb)| {
                resolve_event(day, id, kind, volume_gb, horizon_days, rates)
            }));
        },
        |unit, out: &mut Vec<EventOutcome>| {
            for (&id, outcome) in columns.object_ids[unit_of(unit)].iter().zip(out.iter()) {
                apply_event(id, outcome, months, totals, &mut dropped_events)?;
            }
            Ok(())
        },
    )?;
    Ok(dropped_events)
}

/// Phase-2 resolve: the billing outcome of one event — a pure function of
/// its columns row and its object's rate line, so every load is
/// independent of every other event's and any thread may compute it. An
/// event [`classify`] does not call valid against the interned ids is
/// `Refused`, for the apply stage to count, skip or raise.
#[inline]
fn resolve_event(
    day: u32,
    id: u32,
    kind: AccessKind,
    volume_gb: f64,
    horizon_days: u32,
    rates: &RateTable,
) -> EventOutcome {
    let class = classify(day, id, volume_gb, horizon_days, rates.lines.len());
    if class != EventClass::Valid {
        // Bills nothing; the volume is a bad volume's error payload.
        return EventOutcome {
            code: OutcomeCode::Refused(class),
            amount: volume_gb,
            ..EventOutcome::default()
        };
    }
    let line = &rates.lines[id as usize];
    // The segment in force on `day`: the last one starting at or before
    // it. Segments tile [0, horizon) and day < horizon, so one always is.
    // The write rate is only pointed at: its cache line is touched by the
    // one event in ten that is a write.
    let (slot, write_rate) = if line.long_hi > line.long_lo {
        let table = &rates.long[line.long_lo as usize..line.long_hi as usize];
        let seg = &table[table.partition_point(|s| s.start_day <= day) - 1];
        (&seg.slot, &seg.write_rate)
    } else {
        // `start1` is `u32::MAX` for a one-segment schedule and
        // `day < horizon_days <= u32::MAX`, so this is a select.
        let s = usize::from(day >= line.start1);
        (&line.slots[s], &rates.write_rates[id as usize][s])
    };
    let effective_gb = volume_gb / slot.ratio_max;
    let period = day / DAYS_PER_MONTH;
    match kind {
        AccessKind::Read => EventOutcome {
            amount: slot.read_rate * effective_gb * 1.0,
            decomp: slot.decomp_cost,
            period,
            code: OutcomeCode::Read,
        },
        AccessKind::Write => EventOutcome {
            amount: write_rate * effective_gb,
            decomp: 0.0,
            period,
            code: OutcomeCode::Write,
        },
    }
}

/// Phase-2 apply: land one outcome on the shared accumulators, in trace
/// order — the exact statement sequence of the sequential engine's event
/// loop, and the only code that touches them.
#[inline]
fn apply_event(
    id: u32,
    outcome: &EventOutcome,
    months: &mut [MonthlyCost],
    totals: &mut [f64],
    dropped_events: &mut u64,
) -> Result<(), CloudSimError> {
    match outcome.code {
        OutcomeCode::Read => {
            let m = &mut months[outcome.period as usize];
            m.breakdown.read += outcome.amount;
            m.breakdown.decompression += outcome.decomp;
            totals[id as usize] += outcome.amount + outcome.decomp;
        }
        OutcomeCode::Write => {
            let m = &mut months[outcome.period as usize];
            m.breakdown.write += outcome.amount;
            totals[id as usize] += outcome.amount;
        }
        OutcomeCode::Refused(EventClass::Dropped) => *dropped_events += 1, // outside the horizon
        OutcomeCode::Refused(EventClass::BadVolume(_)) => {
            return Err(CloudSimError::InvalidParameter {
                name: "volume_gb",
                value: outcome.amount,
            });
        }
        // Exactly: every `u32` is an `f64`.
        OutcomeCode::Refused(EventClass::OutOfRange) => {
            return Err(CloudSimError::InvalidParameter {
                name: "object_id",
                value: f64::from(id),
            });
        }
        OutcomeCode::Refused(_) => {} // accesses to unknown objects are ignored
    }
    Ok(())
}

/// Everything phase 2 needs to price an event of one object, in one
/// 64-byte, 64-byte-aligned record: one cache line per lookup. The slots
/// hold the first two schedule segments' rates (a one-segment schedule
/// repeats itself in slot 1), `start1` is the day slot 1 takes over
/// (`u32::MAX` if it never does), and a schedule of three or more segments
/// — rare: one transition is a lifecycle policy, two already a re-tiering
/// — instead names its span of `RateTable::long` (`long_lo == long_hi`
/// otherwise). The write rate, needed by one event in ten, lives in the
/// parallel `RateTable::write_rates`.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct RateLine {
    slots: [RateSlot; 2],
    start1: u32,
    long_lo: u32,
    long_hi: u32,
}

/// The read-path rates of one schedule segment: the compression divisor,
/// the per-GB read rate and the per-access decompression cost.
#[derive(Debug, Clone, Copy, Default)]
struct RateSlot {
    ratio_max: f64,
    read_rate: f64,
    decomp_cost: f64,
}

/// One schedule segment's rates: what `bill_timeline` computes per
/// segment, and the entry of the binary-searched table that schedules of
/// three or more segments fall back to.
#[derive(Debug, Clone, Copy)]
struct SegmentRates {
    start_day: u32,
    slot: RateSlot,
    write_rate: f64,
}

/// The phase-2 rate table: one `RateLine` and one pair of write rates
/// per interned id, plus the flat segment table of the schedules too long
/// for a line.
#[derive(Debug)]
struct RateTable {
    lines: Vec<RateLine>,
    write_rates: Vec<[f64; 2]>,
    long: Vec<SegmentRates>,
}

/// What billing one event does to the accumulators.
#[derive(Debug, Clone, Copy, Default)]
enum OutcomeCode {
    /// Any class but `Valid`, billed as nothing: a drop is counted, an
    /// unresolved name ignored, and the first bad volume (carried in
    /// `amount`) or foreign id in trace order fails the replay.
    Refused(EventClass),
    /// A read: `amount` of transfer plus `decomp` of compute.
    #[default]
    Read,
    /// A write: `amount` of transfer.
    Write,
}

/// Phase-2 resolve output, 24 bytes: everything `apply_event` needs
/// besides the event's object id.
#[derive(Debug, Clone, Copy, Default)]
struct EventOutcome {
    /// Transfer cost in cents (or the payload of an error code).
    amount: f64,
    /// Decompression compute cost in cents (reads only).
    decomp: f64,
    /// Billing period the charge lands in, `day / DAYS_PER_MONTH`.
    period: u32,
    code: OutcomeCode,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::events_from_monthly;

    fn sim() -> BillingSimulator {
        BillingSimulator::new(TierCatalog::azure_adls_gen2())
    }

    #[test]
    fn storage_is_charged_every_month() {
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("a", 10.0), Placement::uncompressed(hot))
            .unwrap();
        let report = s.run(6, &[]).unwrap();
        assert_eq!(report.months.len(), 6);
        let per_month = 10.0 * 2.08;
        for m in &report.months {
            assert!((m.breakdown.storage - per_month).abs() < 1e-9);
        }
        // Month 0 also carries the ingest write.
        assert!(report.months[0].breakdown.write > 0.0);
        assert!(report.months[1].breakdown.write == 0.0);
    }

    #[test]
    fn reads_are_charged_in_their_month() {
        let mut s = sim();
        let cool = s.model.catalog().tier_id("Cool").unwrap();
        s.place(ObjectSpec::new("a", 10.0), Placement::uncompressed(cool))
            .unwrap();
        let trace = vec![
            AccessEvent::read("a", 2, 10.0),
            AccessEvent::read("a", 2, 10.0),
        ];
        let report = s.run(4, &trace).unwrap();
        assert_eq!(report.months[0].breakdown.read, 0.0);
        assert!((report.months[2].breakdown.read - 2.0 * 10.0 * 0.0333).abs() < 1e-9);
    }

    #[test]
    fn early_deletion_penalty_applies_when_leaving_archive_early() {
        let catalog = TierCatalog::azure_adls_gen2();
        let archive = catalog.tier_id("Archive").unwrap();
        let hot = catalog.tier_id("Hot").unwrap();
        let mut s = BillingSimulator::new(catalog);
        s.place(
            ObjectSpec::new("a", 100.0).on_tier(archive),
            Placement::uncompressed(hot),
        )
        .unwrap();
        let report = s.run(2, &[]).unwrap();
        assert!(report.months[0].early_deletion_penalty > 0.0);
        // 180 days = 6 months at the archive storage rate.
        let expected = 0.099 * 100.0 * 6.0;
        assert!((report.months[0].early_deletion_penalty - expected).abs() < 1e-9);
    }

    #[test]
    fn no_penalty_when_staying_on_tier() {
        let catalog = TierCatalog::azure_adls_gen2();
        let archive = catalog.tier_id("Archive").unwrap();
        let mut s = BillingSimulator::new(catalog);
        s.place(
            ObjectSpec::new("a", 100.0).on_tier(archive),
            Placement::uncompressed(archive),
        )
        .unwrap();
        let report = s.run(2, &[]).unwrap();
        assert_eq!(report.months[0].early_deletion_penalty, 0.0);
        assert_eq!(report.months[0].breakdown.write, 0.0);
    }

    #[test]
    fn compression_reduces_billed_storage_and_read_volume() {
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let mut plain = BillingSimulator::new(catalog.clone());
        plain
            .place(ObjectSpec::new("a", 100.0), Placement::uncompressed(hot))
            .unwrap();
        let mut comp = BillingSimulator::new(catalog);
        comp.place(
            ObjectSpec::new("a", 100.0),
            Placement {
                tier: hot,
                compression_ratio: 5.0,
                decompression_seconds: 1.0,
            },
        )
        .unwrap();
        let trace = vec![AccessEvent::read("a", 0, 100.0)];
        let rp = plain.run(3, &trace).unwrap();
        let rc = comp.run(3, &trace).unwrap();
        assert!(rc.total_breakdown().storage < rp.total_breakdown().storage);
        assert!(rc.total_breakdown().read < rp.total_breakdown().read);
        assert!(rc.total_breakdown().decompression > 0.0);
    }

    #[test]
    fn percent_benefit_vs_baseline() {
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let mut base = BillingSimulator::new(catalog.clone());
        base.place(ObjectSpec::new("a", 1000.0), Placement::uncompressed(hot))
            .unwrap();
        let mut opt = BillingSimulator::new(catalog);
        opt.place(ObjectSpec::new("a", 1000.0), Placement::uncompressed(cool))
            .unwrap();
        let rb = base.run(6, &[]).unwrap();
        let ro = opt.run(6, &[]).unwrap();
        let benefit = ro.percent_benefit_vs(&rb);
        assert!(benefit > 0.0 && benefit < 100.0);
    }

    #[test]
    fn zero_horizon_and_bad_volume_are_rejected() {
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("a", 1.0), Placement::uncompressed(hot))
            .unwrap();
        assert!(s.run(0, &[]).is_err());
        let bad = vec![AccessEvent::read("a", 0, f64::NAN)];
        assert!(s.run(1, &bad).is_err());
    }

    #[test]
    fn accesses_to_unknown_objects_or_outside_horizon_are_ignored() {
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("a", 1.0), Placement::uncompressed(hot))
            .unwrap();
        let trace = vec![
            AccessEvent::read("nonexistent", 0, 1.0),
            AccessEvent::read("a", 99, 1.0),
        ];
        let report = s.run(2, &trace).unwrap();
        assert_eq!(report.total_breakdown().read, 0.0);
    }

    #[test]
    fn writes_are_charged_at_write_rate() {
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("a", 10.0), Placement::uncompressed(hot))
            .unwrap();
        let trace = vec![AccessEvent::write("a", 1, 5.0)];
        let report = s.run(2, &trace).unwrap();
        assert!(report.months[1].breakdown.write > 0.0);
    }

    #[test]
    fn early_deletion_penalty_is_prorated_by_days_already_served() {
        // Regression test: the penalty once charged the *full* minimum
        // residency window no matter how long the object had already sat on
        // the source tier. An object 20 days into Cool's 30-day window owes
        // only the 10 unmet days.
        let catalog = TierCatalog::azure_adls_gen2();
        let cool = catalog.tier_id("Cool").unwrap();
        let hot = catalog.tier_id("Hot").unwrap();
        let mut s = BillingSimulator::new(catalog);
        s.place(
            ObjectSpec::new("a", 100.0)
                .on_tier(cool)
                .with_residency_days(20),
            Placement::uncompressed(hot),
        )
        .unwrap();
        let report = s.run(2, &[]).unwrap();
        let expected = 1.52 * 100.0 * (10.0 / 30.0);
        assert!((report.months[0].early_deletion_penalty - expected).abs() < 1e-9);
        // Residency at or beyond the window: no penalty at all.
        let catalog = TierCatalog::azure_adls_gen2();
        let mut s = BillingSimulator::new(catalog);
        s.place(
            ObjectSpec::new("a", 100.0)
                .on_tier(cool)
                .with_residency_days(30),
            Placement::uncompressed(hot),
        )
        .unwrap();
        let report = s.run(2, &[]).unwrap();
        assert_eq!(report.months[0].early_deletion_penalty, 0.0);
    }

    #[test]
    fn dropped_events_are_counted() {
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("a", 1.0), Placement::uncompressed(hot))
            .unwrap();
        let trace = vec![
            AccessEvent::read("a", 0, 1.0),
            AccessEvent::read("a", 5, 1.0),
            AccessEvent::write("a", 7, 1.0),
            AccessEvent::read("nonexistent", 0, 1.0), // unknown, not "dropped"
        ];
        let report = s.run(2, &trace).unwrap();
        assert_eq!(report.dropped_events, 2);
        let clean = s.run(8, &trace).unwrap();
        assert_eq!(clean.dropped_events, 0);
    }

    #[test]
    fn mid_horizon_transition_prorates_storage_by_days() {
        // Hot for the first 45 days, Cool for the remaining 45 of a 90-day
        // horizon: period 0 is all-Hot, period 1 is half/half, period 2 is
        // all-Cool.
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let mut s = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(hot))
            .with_transition(45, Placement::uncompressed(cool));
        s.place_scheduled(ObjectSpec::new("a", 10.0).on_tier(hot), schedule)
            .unwrap();
        let report = s.run_days(90, &[]).unwrap();
        assert_eq!(report.months.len(), 3);
        let hot_month = 10.0 * 2.08;
        let cool_month = 10.0 * 1.52;
        assert!((report.months[0].breakdown.storage - hot_month).abs() < 1e-9);
        assert!(
            (report.months[1].breakdown.storage - (hot_month * 0.5 + cool_month * 0.5)).abs()
                < 1e-9
        );
        assert!((report.months[2].breakdown.storage - cool_month).abs() < 1e-9);
        // The Hot→Cool move (a read + a write) lands in period 1.
        assert_eq!(report.months[0].breakdown.write, 0.0);
        assert!(report.months[1].breakdown.write > 0.0);
        assert_eq!(report.months[2].breakdown.write, 0.0);
    }

    #[test]
    fn mid_horizon_departure_charges_exact_unmet_residency_days() {
        // Onto Cool (30-day minimum residency) at day 0, away at day 12:
        // the penalty is exactly the 18 unmet days at Cool's storage rate,
        // booked in the period of the move.
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let mut s = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(cool))
            .with_transition(12, Placement::uncompressed(hot));
        s.place_scheduled(ObjectSpec::new("a", 100.0), schedule)
            .unwrap();
        let report = s.run_days(60, &[]).unwrap();
        let expected = 1.52 * 100.0 * (18.0 / 30.0);
        assert!((report.months[0].early_deletion_penalty - expected).abs() < 1e-9);
        // Departing only after the residency window is met costs nothing.
        let catalog = TierCatalog::azure_adls_gen2();
        let mut s = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(cool))
            .with_transition(30, Placement::uncompressed(hot));
        s.place_scheduled(ObjectSpec::new("a", 100.0), schedule)
            .unwrap();
        let report = s.run_days(60, &[]).unwrap();
        assert_eq!(report.months[0].early_deletion_penalty, 0.0);
        assert_eq!(report.months[1].early_deletion_penalty, 0.0);
    }

    #[test]
    fn residency_accumulates_across_same_tier_segments() {
        // A recompression at day 20 stays on Cool; the later departure at
        // day 40 has already served the full 30-day window across both
        // segments, so no penalty is due.
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let mut s = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(cool))
            .with_transition(
                20,
                Placement {
                    tier: cool,
                    compression_ratio: 2.0,
                    decompression_seconds: 0.5,
                },
            )
            .with_transition(40, Placement::uncompressed(hot));
        s.place_scheduled(ObjectSpec::new("a", 100.0), schedule)
            .unwrap();
        let report = s.run_days(90, &[]).unwrap();
        for m in &report.months {
            assert_eq!(m.early_deletion_penalty, 0.0, "month {}", m.month);
        }
    }

    #[test]
    fn same_tier_recompression_pays_a_read_and_a_rewrite() {
        // Recompressing 4:1 on Hot at day 30: a read of the 100 GB stored
        // bytes plus a write of the 25 GB recompressed bytes, charged in
        // period 1; no tier change, so no early-deletion penalty.
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let mut s = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(hot)).with_transition(
            30,
            Placement {
                tier: hot,
                compression_ratio: 4.0,
                decompression_seconds: 1.0,
            },
        );
        s.place_scheduled(ObjectSpec::new("a", 100.0).on_tier(hot), schedule)
            .unwrap();
        let report = s.run_days(60, &[]).unwrap();
        assert_eq!(report.months[0].breakdown.write, 0.0);
        let expected = 100.0 * 0.01331 + 25.0 * 0.01331;
        assert!((report.months[1].breakdown.write - expected).abs() < 1e-9);
        assert_eq!(report.months[1].early_deletion_penalty, 0.0);
        // And the recompressed month stores a quarter of the bytes.
        assert!(
            (report.months[1].breakdown.storage - 25.0 * 2.08).abs() < 1e-9,
            "storage {}",
            report.months[1].breakdown.storage
        );
    }

    #[test]
    fn events_bill_against_the_placement_in_force_on_their_day() {
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let mut s = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(hot))
            .with_transition(15, Placement::uncompressed(cool));
        s.place_scheduled(ObjectSpec::new("a", 10.0), schedule)
            .unwrap();
        let trace = vec![
            BillingEvent::read("a", 14, 10.0), // still Hot
            BillingEvent::read("a", 15, 10.0), // Cool from day 15
        ];
        let report = s.run_days(30, &trace).unwrap();
        let expected = 10.0 * 0.01331 + 10.0 * 0.0333;
        assert!((report.months[0].breakdown.read - expected).abs() < 1e-9);
    }

    #[test]
    fn partial_final_period_prorates_storage() {
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("a", 10.0), Placement::uncompressed(hot))
            .unwrap();
        let report = s.run_days(45, &[]).unwrap();
        assert_eq!(report.months.len(), 2);
        let month = 10.0 * 2.08;
        assert!((report.months[0].breakdown.storage - month).abs() < 1e-9);
        assert!((report.months[1].breakdown.storage - month * 0.5).abs() < 1e-9);
    }

    #[test]
    fn mid_horizon_move_with_recompression_reads_the_old_stored_bytes() {
        // Regression test: a tier change that also recompresses once priced
        // the source-tier read on the *destination's* stored size. 100 GB
        // uncompressed on Hot moving to Cool at 2:1 must read 100 GB off
        // Hot and write 50 GB onto Cool.
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let mut s = BillingSimulator::new(catalog);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(hot)).with_transition(
            30,
            Placement {
                tier: cool,
                compression_ratio: 2.0,
                decompression_seconds: 0.5,
            },
        );
        s.place_scheduled(ObjectSpec::new("a", 100.0).on_tier(hot), schedule)
            .unwrap();
        let report = s.run_days(60, &[]).unwrap();
        let expected = 100.0 * 0.01331 + 50.0 * 0.02662;
        assert!(
            (report.months[1].breakdown.write - expected).abs() < 1e-9,
            "write {} expected {}",
            report.months[1].breakdown.write,
            expected
        );
        // And the egress of a cross-provider move covers the source bytes.
        let providers = ProviderCatalog::azure_s3_gcs();
        let merged = providers.merged_catalog();
        let azure_hot = merged.tier_id("azure:Hot").unwrap();
        let gcs_coldline = merged.tier_id("gcs:Coldline").unwrap();
        let mut s = BillingSimulator::multi_provider(&providers);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(azure_hot))
            .with_transition(
                30,
                Placement {
                    tier: gcs_coldline,
                    compression_ratio: 2.0,
                    decompression_seconds: 0.5,
                },
            );
        s.place_scheduled(ObjectSpec::new("a", 100.0).on_tier(azure_hot), schedule)
            .unwrap();
        let report = s.run_days(60, &[]).unwrap();
        assert!(
            (report.months[1].breakdown.egress - 2.0 * 100.0).abs() < 1e-9,
            "egress {} should cover the 100 GB leaving azure",
            report.months[1].breakdown.egress
        );
        // The same migration performed at day 0 books the same egress: the
        // egress base is the source bytes regardless of when the move
        // happens or how the destination compresses.
        let mut s = BillingSimulator::multi_provider(&providers);
        s.place(
            ObjectSpec::new("a", 100.0).on_tier(azure_hot),
            Placement {
                tier: gcs_coldline,
                compression_ratio: 2.0,
                decompression_seconds: 0.5,
            },
        )
        .unwrap();
        let report = s.run_days(60, &[]).unwrap();
        assert!(
            (report.months[0].breakdown.egress - 2.0 * 100.0).abs() < 1e-9,
            "day-0 egress {} should also cover the 100 GB leaving azure",
            report.months[0].breakdown.egress
        );
    }

    #[test]
    fn cross_provider_segment_books_egress_in_the_period_of_the_move() {
        let providers = ProviderCatalog::azure_s3_gcs();
        let merged = providers.merged_catalog();
        let azure_hot = merged.tier_id("azure:Hot").unwrap();
        let gcs_coldline = merged.tier_id("gcs:Coldline").unwrap();
        let mut s = BillingSimulator::multi_provider(&providers);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(azure_hot))
            .with_transition(30, Placement::uncompressed(gcs_coldline));
        s.place_scheduled(ObjectSpec::new("a", 100.0).on_tier(azure_hot), schedule)
            .unwrap();
        let report = s.run_days(90, &[]).unwrap();
        // The azure→gcs move (2.0 c/GB over 100 GB) lands in period 1.
        assert_eq!(report.months[0].breakdown.egress, 0.0);
        assert!((report.months[1].breakdown.egress - 200.0).abs() < 1e-9);
        assert_eq!(report.months[2].breakdown.egress, 0.0);
        // Read+write transfer is booked separately in the write term.
        assert!(report.months[1].breakdown.write > 0.0);
        // Per-object attribution carries the egress too.
        let total_months: f64 = report.months.iter().map(|m| m.total()).sum();
        assert!((report.per_object["a"] - total_months).abs() < 1e-9);
    }

    #[test]
    fn intra_provider_moves_in_a_multi_catalog_pay_no_egress() {
        let providers = ProviderCatalog::azure_s3_gcs();
        let merged = providers.merged_catalog();
        let hot = merged.tier_id("azure:Hot").unwrap();
        let cool = merged.tier_id("azure:Cool").unwrap();
        let mut s = BillingSimulator::multi_provider(&providers);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(hot))
            .with_transition(30, Placement::uncompressed(cool));
        s.place_scheduled(ObjectSpec::new("a", 100.0).on_tier(hot), schedule)
            .unwrap();
        let report = s.run_days(60, &[]).unwrap();
        assert_eq!(report.total_breakdown().egress, 0.0);
        // And the totals match the plain single-provider simulator running
        // the same schedule (azure merged ids coincide with local ids).
        let single_cat = TierCatalog::azure_adls_gen2();
        let sh = single_cat.tier_id("Hot").unwrap();
        let sc = single_cat.tier_id("Cool").unwrap();
        let mut single = BillingSimulator::new(single_cat);
        let schedule = PlacementSchedule::constant(Placement::uncompressed(sh))
            .with_transition(30, Placement::uncompressed(sc));
        single
            .place_scheduled(ObjectSpec::new("a", 100.0).on_tier(sh), schedule)
            .unwrap();
        let reference = single.run_days(60, &[]).unwrap();
        assert_eq!(report, reference);
    }

    #[test]
    fn interned_accounting_keys_per_object_totals_by_name() {
        // The event loop accounts into interned-id vectors; the report must
        // still key per-object totals by the original names, cover every
        // placed object (accessed or not), and attribute event costs to the
        // right object.
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        let cool = s.model.catalog().tier_id("Cool").unwrap();
        s.place(ObjectSpec::new("alpha", 10.0), Placement::uncompressed(hot))
            .unwrap();
        s.place(ObjectSpec::new("beta", 20.0), Placement::uncompressed(cool))
            .unwrap();
        let trace = vec![
            AccessEvent::read("alpha", 0, 10.0),
            AccessEvent::read("alpha", 1, 10.0),
            AccessEvent::write("beta", 0, 5.0),
        ];
        let report = s.run(2, &trace).unwrap();
        assert_eq!(report.per_object.len(), 2);
        let alpha_expected = 2.0 * (10.0 * 2.08) // storage
            + 10.0 * 0.01331 // ingest write
            + 2.0 * 10.0 * 0.01331; // two reads
        assert!((report.per_object["alpha"] - alpha_expected).abs() < 1e-9);
        // The per-object totals sum to the grand total.
        let sum: f64 = report.per_object.values().sum();
        assert!((sum - report.total()).abs() < 1e-9);
        // Re-placing the same name replaces its schedule rather than
        // double-billing under one key.
        let mut s = sim();
        s.place(ObjectSpec::new("alpha", 10.0), Placement::uncompressed(hot))
            .unwrap();
        s.place(
            ObjectSpec::new("alpha", 10.0),
            Placement::uncompressed(cool),
        )
        .unwrap();
        let report = s.run(1, &[]).unwrap();
        assert_eq!(report.per_object.len(), 1);
        assert_eq!(s.objects.len(), 2);
    }

    #[test]
    fn month_aligned_schedule_matches_monthly_replay_exactly() {
        // The compatibility contract: a constant schedule driven through
        // the day engine with month-lifted events reproduces the legacy
        // whole-month replay bit-for-bit.
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let mut s = BillingSimulator::new(catalog);
        s.place(
            ObjectSpec::new("a", 123.0).on_tier(hot),
            Placement::uncompressed(cool),
        )
        .unwrap();
        s.place(
            ObjectSpec::new("b", 7.0),
            Placement {
                tier: hot,
                compression_ratio: 3.0,
                decompression_seconds: 0.25,
            },
        )
        .unwrap();
        let monthly = vec![
            AccessEvent::read("a", 1, 12.0),
            AccessEvent::write("b", 0, 2.0),
            AccessEvent::read("b", 3, 7.0),
        ];
        let via_months = s.run(4, &monthly).unwrap();
        let via_days = s
            .run_days(4 * DAYS_PER_MONTH, &events_from_monthly(&monthly))
            .unwrap();
        assert_eq!(via_months, via_days);
        assert_eq!(via_months.months.len(), 4);
    }

    /// A simulator exercising every phase-1 branch (mid-horizon moves,
    /// day-0 moves, same-tier recompression, penalties, cross-provider
    /// egress) plus a trace hitting every phase-2 branch (reads, writes,
    /// dropped events, unknown objects).
    fn differential_fixture() -> (BillingSimulator, Vec<BillingEvent>, u32) {
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let archive = catalog.tier_id("Archive").unwrap();
        let mut s = BillingSimulator::new(catalog);
        for i in 0..23u32 {
            let name = format!("obj-{i}");
            let spec = ObjectSpec::new(&name, 1.0 + i as f64 * 3.5).on_tier(hot);
            let schedule = match i % 4 {
                0 => PlacementSchedule::constant(Placement::uncompressed(hot)),
                1 => PlacementSchedule::constant(Placement::uncompressed(hot))
                    .with_transition(17 + i, Placement::uncompressed(cool)),
                2 => PlacementSchedule::constant(Placement::uncompressed(cool))
                    .with_transition(
                        40,
                        Placement {
                            tier: cool,
                            compression_ratio: 2.5,
                            decompression_seconds: 0.5,
                        },
                    )
                    .with_transition(80 + i, Placement::uncompressed(archive)),
                _ => PlacementSchedule::constant(Placement::uncompressed(archive)),
            };
            s.place_scheduled(spec, schedule).unwrap();
        }
        let horizon = 4 * DAYS_PER_MONTH;
        let mut events = Vec::new();
        for k in 0..400u32 {
            let day = (k * 7919) % (horizon + 10); // some past the horizon
            let name = if k % 13 == 0 {
                "nobody".to_string() // unknown object
            } else {
                format!("obj-{}", k % 23)
            };
            let volume = 0.25 + (k % 17) as f64 * 0.6;
            let ev = if k % 5 == 0 {
                BillingEvent::write(name, day, volume)
            } else {
                BillingEvent::read(name, day, volume)
            };
            events.push(ev);
        }
        (s, events, horizon)
    }

    #[test]
    fn sharded_engine_is_bit_identical_to_reference_for_any_thread_count() {
        let (s, events, horizon) = differential_fixture();
        let expected = crate::reference::run_days_reference(&s, horizon, &events).unwrap();
        assert!(expected.dropped_events > 0, "fixture must drop events");
        let columns = s.build_columns(&events);
        for threads in [1, 2, 7] {
            let got = s
                .run_columns_with_threads(horizon, &columns, threads)
                .unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn prebuilt_columns_replay_matches_event_replay() {
        let (s, events, horizon) = differential_fixture();
        let columns = s.build_columns(&events);
        assert_eq!(columns.len(), events.len());
        let via_events = s.run_days(horizon, &events).unwrap();
        for threads in [1, 2, 7] {
            let via_columns = s
                .run_columns_with_threads(horizon, &columns, threads)
                .unwrap();
            assert_eq!(via_columns, via_events, "threads={threads}");
        }
        assert_eq!(s.run_columns(horizon, &columns).unwrap(), via_events);
    }

    #[test]
    fn sharded_engine_reports_first_invalid_volume_in_trace_order() {
        let (s, mut events, horizon) = differential_fixture();
        // Two invalid volumes: the error must carry the first in trace
        // order, regardless of the shard that computed it.
        events[7] = BillingEvent::read("obj-1", 3, f64::NAN);
        events[300] = BillingEvent::read("obj-2", 3, -4.0);
        let expected = crate::reference::run_days_reference(&s, horizon, &events);
        for threads in [1, 2, 7] {
            let got = s.run_columns_with_threads(horizon, &s.build_columns(&events), threads);
            // NaN payloads break PartialEq; compare the rendered error.
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "threads={threads}"
            );
            assert!(format!("{got:?}").contains("NaN"), "threads={threads}");
        }
    }

    #[test]
    fn invalid_volume_on_an_unknown_object_is_rejected_not_skipped() {
        // Regression: the invalid-volume check used to come after the
        // unknown-object skip, so corrupt events naming unregistered
        // objects were silently ignored instead of failing the replay.
        let (s, mut events, horizon) = differential_fixture();
        events[11] = BillingEvent::read("nobody-at-all", 2, f64::NAN);
        let expected = crate::reference::run_days_reference(&s, horizon, &events);
        assert!(
            format!("{expected:?}").contains("volume_gb"),
            "reference must reject the corrupt unknown-object event: {expected:?}"
        );
        for threads in [1, 2, 7] {
            let got = s.run_columns_with_threads(horizon, &s.build_columns(&events), threads);
            assert_eq!(
                format!("{got:?}"),
                format!("{expected:?}"),
                "threads={threads}"
            );
        }
        // Negative volumes are typed errors too, on known and unknown names.
        for name in ["obj-1", "ghost-object"] {
            let mut events = events.clone();
            events[11] = BillingEvent::write(name, 2, -0.5);
            let got = s.run_days(horizon, &events);
            assert!(
                matches!(
                    got,
                    Err(CloudSimError::InvalidParameter {
                        name: "volume_gb",
                        value,
                    }) if value == -0.5
                ),
                "{name}: {got:?}"
            );
        }
    }

    #[test]
    fn kernel_sizes_are_the_ones_the_differential_suite_straddles() {
        // `tests/differential_billing_sharded.rs` mirrors the unit size (it
        // cannot see it) to put event counts and bad volumes on both sides
        // of a unit seam, and `tests/fan_out.rs` sizes its traces by it and
        // by the floor. Move them together.
        assert_eq!(UNIT_EVENTS, 32_768);
        assert_eq!(FAN_OUT_MIN_EVENTS, 262_144);
        assert_eq!(crate::timeline::RESOLVE_FAN_OUT_MIN_ROWS, 4_096);
        assert_eq!(std::mem::size_of::<RateLine>(), 64);
        assert_eq!(std::mem::align_of::<RateLine>(), 64);
        assert_eq!(std::mem::size_of::<EventOutcome>(), 24);
    }

    #[test]
    fn out_of_horizon_invalid_volumes_still_count_as_dropped() {
        // Drop-ordering is unchanged: the horizon check precedes volume
        // validation, so a corrupt event past the horizon is dropped, not
        // an error — exactly the serving intake's quarantine ordering.
        let (s, mut events, horizon) = differential_fixture();
        events[11] = BillingEvent::read("obj-1", horizon + 3, f64::NAN);
        let expected = crate::reference::run_days_reference(&s, horizon, &events).unwrap();
        let columns = s.build_columns(&events);
        for threads in [1, 2, 7] {
            let got = s
                .run_columns_with_threads(horizon, &columns, threads)
                .unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
        assert!(expected.dropped_events > 0);
    }

    #[test]
    fn a_month_past_the_last_u32_day_is_dropped_not_billed_on_a_wrapped_day() {
        // Regression: `first_day_of_month` multiplied without a check, so
        // month 143 165 577 (its first day is 2^32 + 14) wrapped to day 14
        // in release and billed a far-future read inside a 6-month horizon
        // (debug builds panicked instead).
        let mut s = sim();
        let cool = s.model.catalog().tier_id("Cool").unwrap();
        s.place(ObjectSpec::new("a", 10.0), Placement::uncompressed(cool))
            .unwrap();
        let far = 143_165_577;
        assert_eq!(first_day_of_month(far), u32::MAX);
        assert_eq!(first_day_of_month(far - 1), 4_294_967_280);
        let quiet = s.run(6, &[]).unwrap();
        let report = s.run(6, &[AccessEvent::read("a", far, 10.0)]).unwrap();
        assert_eq!(report.dropped_events, 1);
        assert_eq!(report.months, quiet.months);
        assert_eq!(report.total().to_bits(), quiet.total().to_bits());
        // The day-axis lift saturates the same way.
        let lifted = events_from_monthly(&[AccessEvent::read("a", far, 10.0)]);
        assert_eq!(lifted[0].day, u32::MAX);
        assert_eq!(s.run_days(180, &lifted).unwrap(), report);
        // A horizon whose day count overflows is refused, not wrapped.
        for months in [far, u32::MAX] {
            assert!(matches!(
                s.run(months, &[]),
                Err(CloudSimError::InvalidParameter { name: "horizon_months", value })
                    if value == f64::from(months)
            ));
        }
    }

    #[test]
    fn a_horizon_past_the_cap_is_refused_before_anything_is_allocated() {
        // Regression: only a zero horizon was refused, and the replay then
        // allocated `horizon_days.div_ceil(30)` periods up front — ≈ 8 GB
        // for a horizon near `u32::MAX`. Both engines refuse the cap + 1.
        let (s, events, _) = differential_fixture();
        let columns = s.build_columns(&events);
        let refused = |result: Result<BillingReport, CloudSimError>, days: u32| {
            assert!(
                matches!(
                    result,
                    Err(CloudSimError::InvalidParameter { name: "horizon_days", value })
                        if value == f64::from(days)
                ),
                "{days} days"
            );
        };
        for days in [MAX_HORIZON_DAYS + 1, u32::MAX] {
            for threads in [1, 2] {
                refused(s.run_columns_with_threads(days, &columns, threads), days);
            }
            refused(s.run_days(days, &events), days);
            refused(
                crate::reference::run_days_reference(&s, days, &events),
                days,
            );
        }
        // The cap itself is a horizon like any other.
        let at_cap = s.run_days(MAX_HORIZON_DAYS, &events).unwrap();
        assert_eq!(at_cap.months.len(), 1_217);
        assert_eq!(
            at_cap,
            crate::reference::run_days_reference(&s, MAX_HORIZON_DAYS, &events).unwrap()
        );
    }

    /// The differential fixture with `obj-5` placed a second time (one id,
    /// the later schedule), and a trace cycled out of its events to `len`.
    fn replaced_name_fixture(len: usize) -> (BillingSimulator, Vec<BillingEvent>, u32) {
        let (mut s, events, horizon) = differential_fixture();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("obj-5", 2.0), Placement::uncompressed(hot))
            .unwrap();
        let trace = events.iter().cycle().take(len).cloned().collect();
        (s, trace, horizon)
    }

    #[test]
    fn fanned_out_column_build_equals_the_sequential_build_and_the_reference() {
        let floor = crate::timeline::RESOLVE_FAN_OUT_MIN_ROWS;
        for len in [0, 400, floor - 1, floor, floor + 1] {
            let (s, events, horizon) = replaced_name_fixture(len);
            // The sequential build, one event at a time.
            let mut sequential = EventColumns::default();
            for ev in &events {
                let id = s.name_ids.get(ev.object.as_str()).copied();
                sequential.push_resolved(
                    ev.day,
                    id.unwrap_or(crate::timeline::UNKNOWN_OBJECT),
                    ev.kind,
                    ev.volume_gb,
                );
            }
            assert_eq!(s.build_columns(&events), sequential, "len={len}");
            let expected = crate::reference::run_days_reference(&s, horizon, &events).unwrap();
            for threads in [1, 2, 3, 8] {
                let columns = EventColumns::from_rows_with_threads(
                    &events,
                    threads,
                    |ev| (ev.object.as_str(), ev.day, ev.kind, ev.volume_gb),
                    |name| s.name_ids.get(name).copied(),
                );
                assert_eq!(columns, sequential, "len={len} threads={threads}");
                let got = s.run_columns_with_threads(horizon, &columns, 1).unwrap();
                assert_eq!(got, expected, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn a_name_placed_after_a_replay_takes_its_place_in_the_next_report() {
        let (mut s, events, horizon) = differential_fixture();
        let before = s.run_days(horizon, &events).unwrap();
        assert_eq!(before.per_object.len(), 23);
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        // Sorts before every `obj-<i>`, so a stale order would misplace
        // every total.
        s.place(
            ObjectSpec::new("a-first", 9.0),
            Placement::uncompressed(hot),
        )
        .unwrap();
        let after = s.run_days(horizon, &events).unwrap();
        assert_eq!(
            after,
            crate::reference::run_days_reference(&s, horizon, &events).unwrap()
        );
        assert_eq!(after.per_object.len(), 24);
        assert_eq!(after.per_object.iter().next().unwrap().0, "a-first");
        // Re-placing a known name keeps the order.
        s.place(ObjectSpec::new("obj-3", 1.0), Placement::uncompressed(hot))
            .unwrap();
        assert_eq!(
            s.run_days(horizon, &events).unwrap(),
            crate::reference::run_days_reference(&s, horizon, &events).unwrap()
        );
    }

    #[test]
    fn a_name_placed_on_a_clone_leaves_the_original_report_alone() {
        let (s, events, horizon) = differential_fixture();
        let original = s.run_days(horizon, &events).unwrap(); // warms the order
        let mut clone = s.clone();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        clone
            .place(
                ObjectSpec::new("a-first", 9.0),
                Placement::uncompressed(hot),
            )
            .unwrap();
        assert_eq!(s.run_days(horizon, &events).unwrap(), original);
        assert_eq!(
            clone.run_days(horizon, &events).unwrap(),
            crate::reference::run_days_reference(&clone, horizon, &events).unwrap()
        );
        assert_eq!(s.run_days(horizon, &events).unwrap().per_object.len(), 23);
    }

    #[test]
    fn per_object_iterates_and_looks_up_like_a_name_keyed_map() {
        // Byte-wise order: upper case before lower case, a prefix before
        // its extensions, multi-byte UTF-8 last, "obj-10" before "obj-9".
        let names = ["obj-9", "b", "ä", "a0", "B", "", "obj-10", "a", "Z"];
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        for (i, name) in names.iter().enumerate() {
            s.place(
                ObjectSpec::new(*name, 1.0 + i as f64),
                Placement::uncompressed(hot),
            )
            .unwrap();
        }
        let report = s.run(2, &[AccessEvent::read("a0", 1, 3.0)]).unwrap();
        let per_object = &report.per_object;
        let map: BTreeMap<&str, f64> = names
            .iter()
            .map(|&name| (name, per_object.get(name).unwrap()))
            .collect();
        assert_eq!(per_object.len(), map.len());
        assert!(!per_object.is_empty());
        assert!(per_object.iter().eq(map.iter().map(|(&k, &v)| (k, v))));
        assert!(per_object.values().eq(map.values().copied()));
        for (name, total) in &map {
            assert_eq!(per_object.get(name), Some(*total));
            assert_eq!(per_object[*name].to_bits(), total.to_bits());
        }
        // Distinct totals: a lookup that hit the wrong slot would show.
        let mut totals: Vec<u64> = per_object.values().map(f64::to_bits).collect();
        totals.sort_unstable();
        totals.dedup();
        assert_eq!(totals.len(), names.len());
        for missing in ["c", "obj-", "a00", " "] {
            assert_eq!(per_object.get(missing), None);
        }
        let from_map: BTreeMap<Arc<str>, f64> =
            map.iter().map(|(&k, &v)| (Arc::from(k), v)).collect();
        assert_eq!(PerObject::from(from_map), *per_object);
        assert!(sim().run(1, &[]).unwrap().per_object.is_empty());
    }

    #[test]
    #[should_panic]
    fn indexing_per_object_by_an_unplaced_name_panics() {
        let mut s = sim();
        let hot = s.model.catalog().tier_id("Hot").unwrap();
        s.place(ObjectSpec::new("a", 1.0), Placement::uncompressed(hot))
            .unwrap();
        let _ = s.run(1, &[]).unwrap().per_object["b"];
    }
}
