//! Long-running serving state and the incremental re-optimization loop.
//!
//! The engine is organised around three invariants:
//!
//! 1. **Bounded memory.** [`Serving::deliver`] folds event batches into
//!    per-object `(heat, last_day)` pairs and never retains an event, so
//!    resident state is `O(objects)` regardless of trace length.
//! 2. **Delta-only table work.** Heat feeds the optimizer through a
//!    geometric bucket representative; a partition's cost-table row is
//!    re-evaluated (via [`CostTable::patch_rows`]) only when its heat
//!    crosses a bucket boundary or its placement changed last epoch.
//! 3. **Bit-for-bit reproducibility.** The incremental path re-derives
//!    exactly the rows a from-scratch build would produce (patching is
//!    pinned bit-identical in `scope-optassign`), per-row choices use the
//!    same first-minimum rule as the batch greedy solver, and account
//!    shards merge in account order under the deterministic
//!    [`parallel fan-out`](scope_cloudsim::parallel) — so the outcome is
//!    independent of the thread count and equal to
//!    [`crate::reference::full_resolve`] on the same state.
//!
//! An epoch boundary (`advance` → `reoptimize` → `checkpoint`) is the
//! recurring cost of running the optimizer every billing period, so each
//! step costs what changed: a re-solve makes **one** fan-out decision
//! ([`ServeConfig::threads`]) and prices, re-decides and applies only the
//! stale rows — the objective is an in-order sum over a dense per-row
//! mirror of the chosen entries, not a gather over the table — and a
//! checkpoint copies the pre-encoded static section and writes the
//! dynamic columns (see [`crate::checkpoint`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

use scope_cloudsim::parallel::{default_threads, parallel_map_mut_with_threads};
use scope_cloudsim::{
    classify, AccessKind, CostBreakdown, EventClass, EventColumns, TierCatalog, TierId,
    UNKNOWN_OBJECT,
};
use scope_optassign::{
    Assignment, CompressionOption, CostTable, OptAssignError, OptAssignProblem, PartitionSpec,
};

use scope_wal::{xxh64, StaticDigest, Xxh64};

use crate::checkpoint::{
    config_fingerprint, get_id, id_width, put_id, Reader, Writer, CHECKPOINT_MAGIC, DYNAMIC_MAGIC,
};
use crate::error::ServeError;
use crate::quarantine::{QuarantineLedger, QuarantinedEvent};
use crate::serving::Serving;

/// Tuning knobs for a [`ServeEngine`].
///
/// None of them picks the solver: every re-solve is per-row greedy, exact
/// when no tier reserves capacity (Theorem 3), and [`ServeEngine::new`]
/// refuses a catalog whose tiers reserve any.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Billing/serving horizon in days; events at or past this day are
    /// counted as dropped, by the rule the billing engine's
    /// `dropped_events` counts with ([`scope_cloudsim::classify`]).
    pub horizon_days: u32,
    /// Optimizer cost horizon in months (the projection length every
    /// re-solve prices placements over).
    pub horizon_months: f64,
    /// Per-day exponential decay applied to heat counters, in `(0, 1]`
    /// (1.0 = no decay, pure cumulative access counts). A counter `k`
    /// days stale is multiplied by `decay_per_day.powi(k)`, read from a
    /// table [`ServeEngine::new`] precomputes for every `k` up to the
    /// horizon (at most 4 096 entries); only a longer gap calls `powi`.
    pub decay_per_day: f64,
    /// Base of the geometric heat buckets (> 1). Heat `h >= 1` is
    /// represented by `base^floor(log_base(h))`; heat below 1 by 0. A
    /// partition is re-evaluated only when its representative changes, so
    /// larger bases mean fewer row patches and coarser cost estimates.
    pub bucket_base: f64,
    /// Re-bucketing hysteresis margin (>= 1). With representative `rep`,
    /// the row is only re-bucketed once heat leaves the widened band
    /// `[rep / hysteresis, rep * base * hysteresis)` — objects whose heat
    /// merely oscillates around a bucket edge with event noise stop
    /// flapping between rows. 1.0 = pure floor semantics (any bucket
    /// change re-buckets). Like `bucket_base`, this only trades estimate
    /// freshness against patch volume; both re-solve paths read the same
    /// stored representative, so bit-for-bit equality with the batch
    /// reference holds for any setting.
    pub bucket_hysteresis: f64,
    /// Threads for the account-sharded re-solve. `n >= 1` is honoured
    /// exactly: every [`Serving::resolve`] fans the shards out over
    /// `n` threads — the calling thread and `min(n, shards) − 1` spawned —
    /// and `1` runs on the calling thread and never spawns. `0` lets the
    /// engine decide, once per re-solve, from the work in hand:
    /// [`default_threads`] when the rows to build or patch, summed over the
    /// shards, reach the measured floor, one below it. Whichever way
    /// the count is chosen, nothing under the re-solve fans out again.
    /// The thread count never changes the outcome, only the wall-clock,
    /// and is not part of a checkpoint (a restored engine has `0`).
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            horizon_days: 180,
            horizon_months: 6.0,
            decay_per_day: 0.98,
            bucket_base: 2.0,
            bucket_hysteresis: 1.0,
            threads: 0,
        }
    }
}

impl ServeConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.horizon_days == 0 {
            return Err(ServeError::InvalidConfig(
                "horizon_days must be positive".into(),
            ));
        }
        if !(self.horizon_months > 0.0) || !self.horizon_months.is_finite() {
            return Err(ServeError::InvalidConfig(format!(
                "horizon_months must be finite and positive, got {}",
                self.horizon_months
            )));
        }
        if !(self.decay_per_day > 0.0 && self.decay_per_day <= 1.0) {
            return Err(ServeError::InvalidConfig(format!(
                "decay_per_day must be in (0, 1], got {}",
                self.decay_per_day
            )));
        }
        if !(self.bucket_base > 1.0) || !self.bucket_base.is_finite() {
            return Err(ServeError::InvalidConfig(format!(
                "bucket_base must be finite and > 1, got {}",
                self.bucket_base
            )));
        }
        if !(self.bucket_hysteresis >= 1.0) || !self.bucket_hysteresis.is_finite() {
            return Err(ServeError::InvalidConfig(format!(
                "bucket_hysteresis must be finite and >= 1, got {}",
                self.bucket_hysteresis
            )));
        }
        Ok(())
    }
}

/// Registration record for one serving object.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeObject {
    /// Globally unique object name (the id events resolve against).
    pub name: String,
    /// Billing account the object belongs to; each account is one
    /// independently re-solved shard.
    pub account: String,
    /// Uncompressed size in GB.
    pub size_gb: f64,
    /// Tier the object currently lives on.
    pub current_tier: TierId,
    /// Index into the engine's shared compression-scheme list for the
    /// object's current encoding (0 = uncompressed).
    pub compression: usize,
    /// Days the object has already resided on `current_tier` (feeds
    /// early-deletion penalties on the first move).
    pub residency_days: u32,
    /// Maximum tolerable access latency in seconds
    /// (`f64::INFINITY` = unconstrained).
    pub latency_threshold_seconds: f64,
}

impl ServeObject {
    /// A new object on `tier`, uncompressed, with no latency constraint.
    pub fn new(
        name: impl Into<String>,
        account: impl Into<String>,
        size_gb: f64,
        tier: TierId,
    ) -> Self {
        ServeObject {
            name: name.into(),
            account: account.into(),
            size_gb,
            current_tier: tier,
            compression: 0,
            residency_days: 0,
            latency_threshold_seconds: f64::INFINITY,
        }
    }

    /// Set the current compression scheme (index into the engine's list).
    pub fn with_compression(mut self, scheme: usize) -> Self {
        self.compression = scheme;
        self
    }

    /// Set the days already served on the current tier.
    pub fn with_residency_days(mut self, days: u32) -> Self {
        self.residency_days = days;
        self
    }

    /// Set the latency threshold in seconds.
    pub fn with_latency_threshold(mut self, seconds: f64) -> Self {
        self.latency_threshold_seconds = seconds;
        self
    }
}

/// Per-object heat state: an exponentially decayed read counter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeatState {
    /// Decayed read count as of `last_day`.
    pub(crate) value: f64,
    /// Day the counter was last decayed to.
    pub(crate) last_day: u32,
}

/// Most entries a [`DecayTable`] holds (32 KiB): every day gap of a
/// horizon up to 4 095 days.
const DECAY_TABLE_MAX: usize = 4096;

/// `decay_per_day^k` for every day gap `k` from 0 to the horizon, capped
/// at [`DECAY_TABLE_MAX`] entries: the factor a heat counter `k` days
/// stale is multiplied by, looked up instead of computed per event and
/// per object. Derived from the config by [`ServeEngine::new`] — which
/// every restore goes through — and never persisted.
#[derive(Debug)]
pub(crate) struct DecayTable {
    decay: f64,
    pows: Box<[f64]>,
}

impl DecayTable {
    fn new(decay: f64, horizon_days: u32) -> Self {
        let len = (horizon_days as usize)
            .saturating_add(1)
            .min(DECAY_TABLE_MAX);
        DecayTable {
            decay,
            pows: (0..len).map(|k| decay.powi(k as i32)).collect(),
        }
    }

    /// `decay^k`. Every entry is the `powi` this falls back to past the
    /// table, so the bits do not depend on where the table ends.
    #[inline]
    pub(crate) fn factor(&self, k: u32) -> f64 {
        match self.pows.get(k as usize) {
            Some(&f) => f,
            None => self.pow(k),
        }
    }

    /// `decay^k` computed. A gap past `i32::MAX` would wrap `powi`'s
    /// exponent negative — a factor above 1 for any decay below 1 — so it
    /// is squared from half the gap instead.
    #[cold]
    fn pow(&self, k: u32) -> f64 {
        match i32::try_from(k) {
            Ok(k) => self.decay.powi(k),
            Err(_) => {
                // `k / 2 <= u32::MAX / 2 = i32::MAX`.
                let half = self.decay.powi((k / 2) as i32);
                let odd = if k % 2 == 1 { self.decay } else { 1.0 };
                half * half * odd
            }
        }
    }
}

/// One account's shard: its assignment problem, incrementally patched
/// cost table, incumbent choices, and the dirty-row worklist for the next
/// re-solve.
#[derive(Debug)]
pub(crate) struct AccountShard {
    /// Account name (shards merge in first-registration order).
    pub(crate) account: String,
    /// The shard's assignment problem; `partitions[n].predicted_accesses`
    /// holds the bucket representative and `current_tier` tracks the
    /// applied placement.
    pub(crate) problem: OptAssignProblem,
    /// Dense cost table, built on the first re-solve and row-patched
    /// afterwards. `None` until then (or after a new registration, which
    /// changes the problem shape).
    table: Option<CostTable>,
    /// Incumbent `(tier, scheme)` per partition: the registered placement
    /// before the first re-solve, the last applied assignment after.
    pub(crate) choices: Vec<(TierId, usize)>,
    /// Rows whose table entries are stale (heat re-bucketed, or placement
    /// changed last epoch); patched at the start of the next re-solve.
    /// Consumed **only on a successful re-solve** — a failed or faulted
    /// epoch keeps the worklist queued so the next healthy epoch
    /// re-converges over everything that accumulated meanwhile.
    pub(crate) dirty: Vec<usize>,
    /// Consecutive failed/faulted re-solves (reset by a healthy one).
    pub(crate) failures: u32,
    /// Remaining epochs of deterministic backoff before the next re-solve
    /// attempt (`0, 1, 3, 7, 7, ...` after successive failures).
    pub(crate) retry_after: u32,
    /// Whether the shard's served placement is the stale incumbent (set on
    /// failure, cleared when a re-solve re-converges).
    pub(crate) stale: bool,
    /// Objective and breakdown of the last successfully applied
    /// assignment — with `choices`, which only a successful re-solve
    /// changes, the incumbent served verbatim while the shard is
    /// degraded. `None` until the first healthy re-solve (or after a
    /// registration changed the shape).
    pub(crate) incumbent: Option<Totals>,
    /// Dense mirror of the table entry each row's choice selects (cost
    /// and breakdown), refreshed only when the row is re-priced or its
    /// choice changes: the objective is the in-order sum over these 48
    /// contiguous bytes per row instead of a gather over the table.
    /// Sized by the cold re-solve; a pure cache like the table.
    chosen_cost: Vec<f64>,
    chosen_breakdown: Vec<CostBreakdown>,
    /// Rows whose placement the running re-solve moved; swapped with
    /// `dirty` on success and kept for its capacity.
    moved: Vec<usize>,
}

/// What an assignment sums to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Totals {
    pub(crate) objective: f64,
    pub(crate) breakdown: CostBreakdown,
}

/// Result of one shard's re-solve (internal; merged in account order).
struct ShardDelta {
    totals: Totals,
    rows_patched: usize,
    retier_decisions: usize,
}

/// Result of one shard's guarded (fault-tolerant) re-solve.
struct GuardedDelta {
    assignment: Assignment,
    rows_patched: usize,
    retier_decisions: usize,
    /// True when the shard served its incumbent instead of re-solving
    /// (injected fault, genuine solver failure, or backoff epoch).
    degraded: bool,
    /// The shard's staleness flag after this epoch.
    stale: bool,
}

/// A compute fault injected into one shard's re-solve for one epoch (see
/// `scope-faults` for the deterministic fault plans that generate these).
/// Either way the shard's re-solve result is discarded before any state
/// is touched: the cost table is not patched, the dirty worklist is
/// preserved, and the incumbent placement is served marked stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The re-solve fails outright (a crashed or errored solver).
    SolveFailure,
    /// The re-solve exceeds its epoch deadline and its result is
    /// discarded unused.
    DeadlineOverrun,
}

/// Counters from one [`Serving::deliver`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Events folded into heat counters.
    pub folded: u64,
    /// Events at or past the horizon, dropped exactly as the billing
    /// engine drops them (checked before object resolution).
    pub dropped: u64,
    /// In-horizon events for unknown object ids, skipped.
    pub unknown: u64,
    /// In-horizon events with NaN/negative volumes, diverted to the
    /// [`QuarantineLedger`] (checked after the horizon drop and before the
    /// unknown-object skip: the order of [`scope_cloudsim::classify`]).
    pub quarantined: u64,
    /// Events lost to a torn batch whose parallel columns disagree in
    /// length (only the common prefix is ingested).
    pub truncated: u64,
}

impl IngestReport {
    /// Fold another report's counters into this one (used when a
    /// sequenced ingest drains several buffered batches at once).
    fn merge(&mut self, other: IngestReport) {
        self.folded += other.folded;
        self.dropped += other.dropped;
        self.unknown += other.unknown;
        self.quarantined += other.quarantined;
        self.truncated += other.truncated;
    }
}

/// One account's slice of a resolve.
#[derive(Debug, Clone)]
pub struct AccountAssignment {
    /// Account name.
    pub account: String,
    /// The account's (incremental or reference) assignment.
    pub assignment: Assignment,
    /// True when this is a degraded shard's stale incumbent (its last
    /// healthy assignment, not a re-solve over current heat).
    pub stale: bool,
}

/// Outcome of one [`Serving::resolve`] epoch.
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// Day the engine was last advanced to.
    pub day: u32,
    /// Per-account assignments, in account registration order.
    pub accounts: Vec<AccountAssignment>,
    /// Total objective across accounts, summed in account order.
    pub total_objective: f64,
    /// Cost-table rows (re)evaluated this epoch, across all shards.
    pub rows_patched: usize,
    /// Objects whose `(tier, scheme)` changed vs. the incumbent.
    pub retier_decisions: usize,
    /// Objects covered by this resolve.
    pub objects: usize,
    /// Cumulative out-of-horizon events dropped since engine start.
    pub dropped_events: u64,
    /// Accounts that served a stale incumbent this epoch instead of
    /// re-solving (injected fault, solver failure, or backoff).
    pub degraded_accounts: usize,
}

/// The long-running serving core: interned objects, decayed heat, and
/// account shards re-solved incrementally (see the
/// [module docs](self) for the invariants).
#[derive(Debug)]
pub struct ServeEngine {
    config: ServeConfig,
    /// `config.decay_per_day^k` by day gap `k`.
    decay: DecayTable,
    catalog: TierCatalog,
    /// Shared compression-scheme list; index 0 must be "no compression".
    schemes: Vec<CompressionOption>,
    shards: Vec<AccountShard>,
    account_ids: HashMap<String, usize>,
    /// Global object id -> (shard index, row within shard).
    locs: Vec<(u32, u32)>,
    /// Object names by interned id. One copy per object: `name_ids`' key
    /// and the partition spec's `name` are this `Arc`.
    names: Vec<Arc<str>>,
    name_ids: HashMap<Arc<str>, u32>,
    pub(crate) heat: Vec<HeatState>,
    /// Bucket representative of each object, by interned id: a dense
    /// mirror of its partition's `predicted_accesses`, which only
    /// [`Self::advance`] (and a restore) writes — so the boundary's
    /// per-object passes stream 8 bytes per object instead of gathering
    /// them out of the shards' partition specs.
    bucket_reps: Vec<f64>,
    /// Day the engine state was last advanced to.
    day: u32,
    pub(crate) dropped_events: u64,
    /// Lifetime count of events examined by the intake (folded, dropped,
    /// unknown and quarantined alike) — the ordinal space quarantine
    /// records index, invariant under batch splits.
    pub(crate) events_seen: u64,
    /// Epochs started ([`Self::reoptimize`] calls), driving backoff.
    epoch: u64,
    /// Malformed-event ledger (see [`QuarantineLedger`]).
    pub(crate) quarantine: QuarantineLedger,
    /// Next batch sequence number the sequenced intake will fold.
    next_seq: u64,
    /// Out-of-order batches buffered until their predecessors arrive,
    /// keyed by sequence number (BTreeMap: deterministic drain order).
    pending: BTreeMap<u64, EventColumns>,
    /// Batches rejected as duplicates by the sequenced intake.
    duplicate_batches: u64,
    /// The checkpoint's static section, kept encoded: one record per
    /// object, appended by [`Self::register`] and never rewritten, because
    /// nothing in it (name, shard, size, residency, latency threshold)
    /// can change afterwards. Every snapshot copies it whole.
    static_image: Vec<u8>,
    /// Hashes over the snapshots' epoch-invariant part, each computed
    /// when first asked for and all forgotten whenever [`Self::register`]
    /// appends.
    hashed: StaticHashes,
    /// [`config_fingerprint`] of `catalog` and `schemes`, neither of which
    /// changes after construction: every snapshot leads with it.
    fingerprint: u64,
}

/// What [`ServeEngine`] remembers of hashing its own snapshots: both
/// layouts lead with a prefix that only [`ServeEngine::register`] changes
/// (see [`crate::checkpoint`]), so a steady fleet hashes it once.
#[derive(Debug, Default)]
struct StaticHashes {
    /// XXH64 of the static section: what a dynamic snapshot names it by.
    section: OnceLock<u64>,
    /// The hash state after the full layout's prefix and after the
    /// dynamic one's, in that order, from which each snapshot's trailer
    /// resumes.
    prefix: [OnceLock<Xxh64>; 2],
}

/// Re-solve work, in cost-table rows to build or patch summed over the
/// shards, from which a `threads: 0` engine fans the shards out (see
/// [`fans_out`]). Measured on a 2-vCPU VM with explicit `threads: 1` and
/// `threads: 2` engines of 16 accounts, each steady re-solve right after
/// an epoch's intake (4.5 writes per object), advance and the previous
/// checkpoint, as in the serving loop: medians of 11 cold starts or of 25
/// steady re-solves per point, in µs, one worker / two. The second vCPU
/// was sometimes free (a two-thread compute probe ran 1.6–1.8× faster
/// than one thread around the run) and for long stretches held by a
/// neighbour (0.96–0.97×):
///
/// | re-solve | stale rows | free | held | rule |
/// |---|---|---|---|---|
/// | cold, 2 000 objects | 2 000 | 869 / 527 | 522 / 579 | 1 |
/// | cold, 8 000 objects | 8 000 | 4 246 / 2 534 | 2 720 / 2 819 | 2 |
/// | cold, 16 000 objects | 16 000 | 9 784 / 4 913 | 6 563 / 6 550 | 2 |
/// | cold, 40 000 objects | 40 000 | 26 799 / 12 184 | 17 824 / 18 788 | 2 |
/// | 500 dirty rows of 8 000 objects | 500 | 221 / 199 | 163 / 210 | 1 |
/// | 2 000 dirty rows of 8 000 objects | 2 000 | 324 / 299 | 430 / 552 | 1 |
/// | 4 000 dirty rows of 8 000 objects | 4 000 | 1 103 / 846 | 1 015 / 1 168 | 1 |
/// | 0 dirty rows of 40 000 objects | 0 | 155 / 190 | 336 / 460 | 1 |
/// | 500 dirty rows of 40 000 objects | 500 | 282 / 264 | 379 / 469 | 1 |
/// | 2 000 dirty rows of 40 000 objects | 2 000 | 596 / 458 | 678 / 767 | 1 |
///
/// A cold start gains 39–55% from a free second vCPU and loses at most
/// 11% to a held one; the floor keeps only the smallest on one worker. A
/// steady re-solve also passes over every row of its shards (the
/// `Assignment` clone of the choices, the objective sum), yet two workers
/// win only 6–23% on a free vCPU from 500 dirty rows (none at 0), and
/// lose 13–37% on a held one at every size measured. Counting the shard
/// rows too would fan out every steady epoch of a 40 000-object fleet: on
/// `serve_steady` (seed 12, vCPU held) that lost to one worker in three
/// pairs of three (`step_p50_ms` 0.87–0.95 against 0.81–0.92 ms). So the
/// floor counts stale rows alone and stays where a steady re-solve is
/// large.
const FAN_OUT_MIN_ROWS: usize = 4096;

/// Whether a `threads: 0` re-solve fans its shards out, given the
/// cost-table rows it builds or patches, summed over the shards.
fn fans_out(stale_rows: usize) -> bool {
    stale_rows >= FAN_OUT_MIN_ROWS
}

/// Refuse what no engine can price: an empty catalog, a tier that
/// reserves capacity (the reservation couples partitions, and the per-row
/// greedy re-solve would ignore it), a storage, read or write rate, TTFB or
/// compute cost that is NaN, infinite or negative, and a scheme list that
/// does not lead with the no-compression option or holds an invalid ratio
/// or decompression time. [`ServeEngine::new`], every restore and
/// [`crate::JournaledEngine::recover`] check it first.
pub(crate) fn check_catalog(
    catalog: &TierCatalog,
    schemes: &[CompressionOption],
) -> Result<(), ServeError> {
    if catalog.is_empty() {
        return Err(ServeError::InvalidConfig("tier catalog is empty".into()));
    }
    if let Some((_, tier)) = catalog.iter().find(|(_, t)| t.capacity_gb.is_some()) {
        return Err(ServeError::InvalidConfig(format!(
            "tier {} reserves capacity, which greedy re-solves ignore",
            tier.name
        )));
    }
    for (_, tier) in catalog.iter() {
        let rates = [
            (
                "storage_cost_cents_per_gb_month",
                tier.storage_cost_cents_per_gb_month,
            ),
            ("read_cost_cents_per_gb", tier.read_cost_cents_per_gb),
            ("write_cost_cents_per_gb", tier.write_cost_cents_per_gb),
            ("ttfb_seconds", tier.ttfb_seconds),
        ];
        if let Some((field, value)) = rates.into_iter().find(|&(_, v)| !valid_rate(v)) {
            return Err(ServeError::InvalidConfig(format!(
                "tier {} has invalid {field} {value}",
                tier.name
            )));
        }
    }
    let compute = catalog.compute_cost_cents_per_second;
    if !valid_rate(compute) {
        return Err(ServeError::InvalidConfig(format!(
            "catalog has invalid compute_cost_cents_per_second {compute}"
        )));
    }
    if schemes.is_empty() {
        return Err(ServeError::InvalidConfig(
            "scheme list is empty; it must at least contain the no-compression option".into(),
        ));
    }
    if schemes[0].ratio != 1.0 {
        return Err(ServeError::InvalidConfig(format!(
            "schemes[0] must be the no-compression option (ratio 1.0), got ratio {}",
            schemes[0].ratio
        )));
    }
    for (k, s) in schemes.iter().enumerate() {
        if !(s.ratio > 0.0) || !s.ratio.is_finite() {
            return Err(ServeError::InvalidConfig(format!(
                "scheme {k} ({}) has invalid ratio {}",
                s.name, s.ratio
            )));
        }
        if !(s.decompress_seconds >= 0.0) || !s.decompress_seconds.is_finite() {
            return Err(ServeError::InvalidConfig(format!(
                "scheme {k} ({}) has invalid decompress_seconds {}",
                s.name, s.decompress_seconds
            )));
        }
    }
    Ok(())
}

/// A price or latency an engine can use: finite and not negative.
fn valid_rate(value: f64) -> bool {
    value.is_finite() && value >= 0.0
}

impl ServeEngine {
    /// Create an engine over `catalog` with a shared compression-scheme
    /// list (`schemes[0]` must have ratio 1.0 — the "no compression"
    /// slot every partition's option list leads with). A catalog no
    /// engine can price is refused with [`ServeError::InvalidConfig`]:
    /// an empty one, a tier that reserves capacity (the reservation
    /// couples partitions, and the per-row greedy re-solve would ignore
    /// it), and a NaN, infinite or negative storage, read or write rate,
    /// TTFB or compute cost, named by its tier and field.
    pub fn new(
        catalog: TierCatalog,
        schemes: Vec<CompressionOption>,
        config: ServeConfig,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        check_catalog(&catalog, &schemes)?;
        Ok(ServeEngine {
            decay: DecayTable::new(config.decay_per_day, config.horizon_days),
            config,
            fingerprint: config_fingerprint(&catalog, &schemes),
            catalog,
            schemes,
            shards: Vec::new(),
            account_ids: HashMap::new(),
            locs: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            heat: Vec::new(),
            bucket_reps: Vec::new(),
            day: 0,
            dropped_events: 0,
            events_seen: 0,
            epoch: 0,
            quarantine: QuarantineLedger::default(),
            next_seq: 0,
            pending: BTreeMap::new(),
            duplicate_batches: 0,
            static_image: Vec::new(),
            hashed: StaticHashes::default(),
        })
    }

    /// Upper bound on out-of-order batches the sequenced intake buffers
    /// while waiting for a gap to fill; the 65th is a typed
    /// [`ServeError::IntakeOverflow`].
    pub(crate) const MAX_PENDING_BATCHES: usize = 64;

    /// Register an object and return its interned id (the id to use in
    /// [`EventColumns::object_ids`]). Registration invalidates the owning
    /// shard's cost table — the next re-solve rebuilds that shard from
    /// scratch, since the problem shape changed.
    pub fn register(&mut self, spec: ServeObject) -> Result<u32, ServeError> {
        if self.name_ids.contains_key(spec.name.as_str()) {
            return Err(ServeError::DuplicateObject(spec.name));
        }
        if !(spec.size_gb > 0.0) || !spec.size_gb.is_finite() {
            return Err(ServeError::InvalidObject(format!(
                "object {} has invalid size {} GB",
                spec.name, spec.size_gb
            )));
        }
        if spec.current_tier.index() >= self.catalog.len() {
            return Err(ServeError::InvalidObject(format!(
                "object {} is on unknown tier {:?}",
                spec.name, spec.current_tier
            )));
        }
        if spec.compression >= self.schemes.len() {
            return Err(ServeError::InvalidObject(format!(
                "object {} uses compression scheme {} but only {} are registered",
                spec.name,
                spec.compression,
                self.schemes.len()
            )));
        }
        let shard_idx = match self.account_ids.get(&spec.account) {
            Some(&i) => i,
            None => {
                let i = self.shards.len();
                self.account_ids.insert(spec.account.clone(), i);
                self.shards.push(AccountShard {
                    account: spec.account.clone(),
                    problem: OptAssignProblem::new(
                        self.catalog.clone(),
                        Vec::new(),
                        self.config.horizon_months,
                    ),
                    table: None,
                    choices: Vec::new(),
                    dirty: Vec::new(),
                    failures: 0,
                    retry_after: 0,
                    stale: false,
                    incumbent: None,
                    chosen_cost: Vec::new(),
                    chosen_breakdown: Vec::new(),
                    moved: Vec::new(),
                });
                i
            }
        };
        let gid = self.locs.len() as u32;
        if gid == UNKNOWN_OBJECT {
            return Err(ServeError::InvalidObject(
                "object id space exhausted".into(),
            ));
        }
        let shard = &mut self.shards[shard_idx];
        let row = shard.problem.partitions.len();
        let name: Arc<str> = spec.name.into();
        let mut partition = PartitionSpec::new(row, name.clone(), spec.size_gb, 0.0)
            .with_current_tier(spec.current_tier)
            .with_residency_days(spec.residency_days);
        if spec.latency_threshold_seconds.is_finite() {
            partition = partition.with_latency_threshold(spec.latency_threshold_seconds);
        }
        partition.compression_options = self.schemes.clone();
        // The static record holds the partition's fields, not the spec's:
        // what a restore registers again must encode to the same bytes.
        let mut w = Writer::bare(&mut self.static_image);
        w.str(&name);
        w.u32(shard_idx as u32);
        w.f64_bits(partition.size_gb);
        w.u32(partition.residency_days);
        w.f64_bits(partition.latency_threshold_seconds);
        self.hashed = StaticHashes::default();
        shard.problem.partitions.push(partition);
        shard.choices.push((spec.current_tier, spec.compression));
        // Shape changed: the dense table no longer matches the problem,
        // and the incumbent totals no longer cover every row (a degraded
        // epoch right after a registration falls back to pricing the
        // per-row incumbent choices instead).
        shard.table = None;
        shard.dirty.clear();
        shard.incumbent = None;
        self.locs.push((shard_idx as u32, row as u32));
        self.name_ids.insert(name.clone(), gid);
        self.names.push(name);
        self.heat.push(HeatState {
            value: 0.0,
            last_day: self.day,
        });
        self.bucket_reps.push(0.0);
        Ok(gid)
    }

    /// Interned id of `name`, if registered.
    pub fn object_id(&self, name: &str) -> Option<u32> {
        self.name_ids.get(name).copied()
    }

    /// Name of object `id`, if it exists.
    pub fn object_name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(|name| &**name)
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// Whether no objects are registered.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Day the engine was last advanced to.
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Cumulative out-of-horizon events dropped by [`Serving::deliver`].
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// The malformed-event quarantine ledger.
    pub fn quarantine(&self) -> &QuarantineLedger {
        &self.quarantine
    }

    /// Lifetime count of events examined by the intake.
    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    /// Epochs started (completed [`Self::reoptimize`] calls).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Next batch sequence number the sequenced intake will fold.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Out-of-order batches currently buffered by the sequenced intake.
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    /// Batches rejected as duplicates by the sequenced intake.
    pub fn duplicate_batches(&self) -> u64 {
        self.duplicate_batches
    }

    /// Accounts currently serving a stale incumbent (degraded), in
    /// account order.
    pub fn stale_accounts(&self) -> Vec<&str> {
        self.shards
            .iter()
            .filter(|s| s.stale)
            .map(|s| s.account.as_str())
            .collect()
    }

    /// Current decayed heat of object `id` (as of its last fold/advance).
    pub fn heat(&self, id: u32) -> Option<f64> {
        self.heat.get(id as usize).map(|h| h.value)
    }

    /// Current applied `(tier, scheme)` placement of object `id`.
    pub fn placement(&self, id: u32) -> Option<(TierId, usize)> {
        let &(shard, row) = self.locs.get(id as usize)?;
        Some(self.shards[shard as usize].choices[row as usize])
    }

    /// Fold an event batch into the per-object heat counters (the
    /// validation rules are [`Serving::deliver`]'s). No event is
    /// retained: memory stays `O(objects)` for arbitrarily long streams.
    fn ingest(&mut self, columns: &EventColumns) -> IngestReport {
        self.fold(columns, DecayTable::factor)
    }

    /// The one intake loop behind [`Self::ingest`] and
    /// [`crate::reference::ingest_reference`], which differ only in
    /// `factor`: the decay of a day gap, given the engine's table (which
    /// the oracle ignores, computing `powi` instead).
    ///
    /// One pass over the four columns of the usable prefix, zipped, with
    /// the horizon, the heat slice, the decay table and the ledger held in
    /// locals. The lifetime event count advances once per batch, so the
    /// `i`-th event's ordinal is the count before it plus `i`. A valid
    /// event folds without a branch: `value * factor(gap) + read` with
    /// the gap saturating at 0 for an event no later than the counter's
    /// day, and `last_day` the later of the two days. That is the
    /// branching fold's arithmetic bit for bit, because `factor(0)` is
    /// exactly 1.0 (`powi(0)`) and a counter is never NaN, infinite,
    /// negative or −0.0 — none of which an engine writes or a restore
    /// accepts — so adding the 0.0 of a write changes no bit.
    #[inline]
    pub(crate) fn fold(
        &mut self,
        columns: &EventColumns,
        factor: impl Fn(&DecayTable, u32) -> f64,
    ) -> IngestReport {
        let mut report = IngestReport::default();
        let (usable, torn) = columns.usable_prefix();
        if torn > 0 {
            report.truncated = torn as u64;
            self.quarantine.record_truncated(torn as u64);
        }
        let first = self.events_seen;
        self.events_seen += usable as u64;
        let horizon = self.config.horizon_days;
        let (decay, heat, quarantine) = (&self.decay, &mut self.heat[..], &mut self.quarantine);
        let events = columns.days[..usable]
            .iter()
            .zip(&columns.object_ids[..usable])
            .zip(&columns.kinds[..usable])
            .zip(&columns.volumes[..usable]);
        for (i, (((&day, &id), &kind), &volume)) in events.enumerate() {
            match classify(day, id, volume, horizon, heat.len()) {
                EventClass::Dropped => report.dropped += 1,
                EventClass::BadVolume(reason) => {
                    quarantine.record(QuarantinedEvent {
                        ordinal: first + i as u64,
                        day,
                        object_id: id,
                        volume_bits: volume.to_bits(),
                        reason,
                    });
                    report.quarantined += 1;
                }
                EventClass::Unresolved | EventClass::OutOfRange => report.unknown += 1,
                EventClass::Valid => {
                    let h = &mut heat[id as usize];
                    let read = if kind == AccessKind::Read { 1.0 } else { 0.0 };
                    h.value = h.value * factor(decay, day.saturating_sub(h.last_day)) + read;
                    h.last_day = h.last_day.max(day);
                    report.folded += 1;
                }
            }
        }
        self.dropped_events += report.dropped;
        report
    }

    /// [`Serving::deliver`], by the name `benchmark/` calls it.
    pub fn ingest_sequenced(
        &mut self,
        seq: u64,
        columns: &EventColumns,
    ) -> Result<IngestReport, ServeError> {
        self.deliver(seq, columns)
    }

    /// [`Serving::advance_to`], by the name `benchmark/` calls it (a
    /// plain engine's advance cannot fail).
    pub fn advance(&mut self, day: u32) {
        let _ = self.advance_to(day);
    }

    /// [`Serving::resolve`] of a healthy epoch, by the name `benchmark/`
    /// calls it.
    pub fn reoptimize(&mut self) -> Result<ResolveOutcome, ServeError> {
        self.resolve(&[])
    }

    /// `Err` if [`Serving::deliver`] would refuse batch `seq`: an early
    /// batch that finds the reorder buffer full.
    pub(crate) fn admit(&self, seq: u64) -> Result<(), ServeError> {
        if seq > self.next_seq
            && self.pending.len() >= Self::MAX_PENDING_BATCHES
            && !self.pending.contains_key(&seq)
        {
            return Err(ServeError::IntakeOverflow {
                expected_seq: self.next_seq,
                got_seq: seq,
            });
        }
        Ok(())
    }

    /// The sequenced intake past [`Self::admit`]: count a duplicate, park
    /// an early batch, or fold the next one and drain its buffered
    /// successors.
    pub(crate) fn accept(&mut self, seq: u64, columns: &EventColumns) -> IngestReport {
        if seq < self.next_seq || self.pending.contains_key(&seq) {
            self.duplicate_batches += 1;
            return IngestReport::default();
        }
        if seq > self.next_seq {
            self.pending.insert(seq, columns.clone());
            return IngestReport::default();
        }
        let mut report = self.ingest(columns);
        self.next_seq += 1;
        while let Some(buffered) = self.pending.remove(&self.next_seq) {
            report.merge(self.ingest(&buffered));
            self.next_seq += 1;
        }
        report
    }

    /// Cost-table rows the next re-solve has to build or patch, summed
    /// over the shards (before the worklists are deduplicated, and
    /// whether or not a shard is backing off: a size of the work, not a
    /// count of it).
    fn stale_rows(&self) -> usize {
        let rows = |shard: &AccountShard| match shard.table {
            Some(_) => shard.dirty.len(),
            None => shard.problem.partitions.len(),
        };
        self.shards.iter().map(rows).sum()
    }

    /// The account shards, in registration order (crate-internal: the
    /// reference resolver walks the same problems cold).
    pub(crate) fn shards(&self) -> &[AccountShard] {
        &self.shards
    }
}

/// The plain engine's steps: each holds the step's only body, and the
/// journaled engine wraps these.
impl Serving for ServeEngine {
    fn engine(&self) -> &ServeEngine {
        self
    }

    /// The intake **validates** each event with
    /// [`scope_cloudsim::classify`], the call the billing replay makes:
    /// an out-of-horizon event is dropped (so a day-300 event for an
    /// unknown object still counts as dropped), a NaN or negative volume
    /// is quarantined into the bounded [`QuarantineLedger`] (whatever its
    /// id — a corrupt volume is a corrupt trace even when it names an
    /// unknown object), and an id that names no registered object —
    /// [`scope_cloudsim::UNKNOWN_OBJECT`] or any other — is skipped. A
    /// torn batch whose parallel columns disagree in length is ingested up
    /// to its [`EventColumns::usable_prefix`]; the lost tail is counted in
    /// [`IngestReport::truncated`] and the ledger.
    ///
    /// Reads add 1 to the (decayed) heat; writes are folded but carry no
    /// read heat. Splitting a day-ordered stream into batches at any
    /// boundary yields identical state (heat, counters, and quarantine
    /// ledger), because decay is applied lazily per object from its own
    /// `last_day` and quarantine ordinals index the engine's lifetime
    /// event sequence. Sequence numbers start at 0; the reorder buffer
    /// holds at most `ServeEngine::MAX_PENDING_BATCHES` (64) batches.
    fn deliver(&mut self, seq: u64, columns: &EventColumns) -> Result<IngestReport, ServeError> {
        self.admit(seq)?;
        Ok(self.accept(seq, columns))
    }

    /// Days already passed are ignored per object (the clock never runs
    /// backwards).
    fn advance_to(&mut self, day: u32) -> Result<(), ServeError> {
        self.day = self.day.max(day);
        for (id, (h, bucket_rep)) in self.heat.iter_mut().zip(&mut self.bucket_reps).enumerate() {
            if day > h.last_day {
                h.value *= self.decay.factor(day - h.last_day);
                h.last_day = day;
            }
            let rep = *bucket_rep;
            let base = self.config.bucket_base;
            let hyst = self.config.bucket_hysteresis;
            // Re-bucket only once the heat leaves the representative's
            // hysteresis band (at hysteresis 1.0 the band is exactly the
            // bucket, i.e. pure floor semantics).
            let stale = if rep == 0.0 {
                h.value >= hyst
            } else {
                h.value < rep / hyst || h.value >= rep * base * hyst
            };
            if stale {
                // Geometric bucket representative: 0 below one read, else
                // the largest power of `bucket_base` not exceeding the heat.
                let target = if h.value < 1.0 {
                    0.0
                } else {
                    base.powf(h.value.log(base).floor())
                };
                if target.to_bits() != rep.to_bits() {
                    *bucket_rep = target;
                    let (shard_idx, row) = self.locs[id];
                    let shard = &mut self.shards[shard_idx as usize];
                    shard.problem.partitions[row as usize].predicted_accesses = target;
                    shard.dirty.push(row as usize);
                }
            }
        }
        Ok(())
    }

    /// Each account shard patches its dirty rows in place, re-decides
    /// exactly those rows by the greedy rule, and updates the incumbent;
    /// shards fan out over the deterministic parallel map — on the worker
    /// count [`ServeConfig::threads`] resolves to, decided once here and
    /// never again below — and merge in account order, so the outcome is
    /// bit-for-bit identical for any thread count — and to
    /// [`crate::reference::full_resolve`] on the same state.
    ///
    /// A faulted — or genuinely failing — shard serves its stale
    /// incumbent instead (marked via [`AccountAssignment::stale`]), keeps
    /// its dirty worklist, and backs off a bounded, deterministic number
    /// of epochs (`0, 1, 3, 7, 7, ...` after successive failures) before
    /// retrying; the next healthy re-solve re-converges it to exactly the
    /// state [`crate::reference::full_resolve`] produces. Healthy shards
    /// are bit-for-bit unaffected by other shards' faults. Per-shard
    /// `Result`s propagate deterministically through the fan-out: only an
    /// unservable shard (no incumbent and no way to price one) fails the
    /// epoch, with the lowest-indexed shard's error winning.
    fn resolve(&mut self, faults: &[Option<ShardFault>]) -> Result<ResolveOutcome, ServeError> {
        // The one fan-out decision of the re-solve: the shards below
        // price, decide and apply on the worker that runs them.
        let threads = match self.config.threads {
            0 if fans_out(self.stale_rows()) => default_threads(),
            0 => 1,
            n => n,
        };
        self.epoch += 1;
        let deltas: Vec<Result<GuardedDelta, OptAssignError>> =
            parallel_map_mut_with_threads(&mut self.shards, threads, |i, shard| {
                shard.resolve_guarded(faults.get(i).copied().flatten())
            });
        let mut outcome = ResolveOutcome {
            day: self.day,
            accounts: Vec::with_capacity(self.shards.len()),
            total_objective: 0.0,
            rows_patched: 0,
            retier_decisions: 0,
            objects: self.locs.len(),
            dropped_events: self.dropped_events,
            degraded_accounts: 0,
        };
        // Merge strictly in account order: the objective sum order is part
        // of the bit-for-bit contract with the reference path.
        for (shard, delta) in self.shards.iter().zip(deltas) {
            let delta = delta?;
            outcome.total_objective += delta.assignment.objective;
            outcome.rows_patched += delta.rows_patched;
            outcome.retier_decisions += delta.retier_decisions;
            outcome.degraded_accounts += usize::from(delta.degraded);
            outcome.accounts.push(AccountAssignment {
                account: shard.account.clone(),
                assignment: delta.assignment,
                stale: delta.stale,
            });
        }
        Ok(outcome)
    }

    fn checkpoint_epoch(&mut self, _marker: u64) -> Result<(), ServeError> {
        Ok(())
    }
}

/// Crash-consistent checkpointing (see [`crate::checkpoint`] for the wire
/// format and the recovery equality contract).
impl ServeEngine {
    /// Serialize the engine's full dynamic state into a versioned,
    /// checksummed checkpoint. Two engines that would behave identically
    /// from here on produce byte-identical checkpoints (what is not
    /// captured is derived: the dense cost table and the chosen-entry
    /// mirror are pure caches, and [`ServeConfig::threads`] cannot change
    /// a result).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.checkpoint_size_hint());
        self.checkpoint_into(&mut out);
        out
    }

    /// Roughly how many bytes [`Self::checkpoint`] will produce — a
    /// capacity for its buffer, nothing more: the static section, the
    /// dynamic columns, the worklists and the shard records. Short by the
    /// reorder buffer and the ledger, which are bounded and usually empty
    /// at an epoch boundary.
    fn checkpoint_size_hint(&self) -> usize {
        let dirty: usize = self.shards.iter().map(|s| s.dirty.len()).sum();
        let accounts: usize = self.shards.iter().map(|s| s.account.len()).sum();
        256 + self.static_image.len()
            + self.locs.len() * (self.dynamic_row_bytes() + 4)
            + dirty * 4
            + accounts
            + self.shards.len() * 80
    }

    /// Cell widths of the tier and scheme id columns (see [`id_width`]).
    fn id_widths(&self) -> (usize, usize) {
        (id_width(self.catalog.len()), id_width(self.schemes.len()))
    }

    /// Bytes one object takes across the fixed-width dynamic columns:
    /// tier and scheme ids, bucket representative, heat bits. The
    /// `last_day` column follows them, from 8 bytes in all (one run) to 4
    /// per object.
    fn dynamic_row_bytes(&self) -> usize {
        let (tier_width, scheme_width) = self.id_widths();
        tier_width + scheme_width + 8 + 8
    }

    /// Append the checkpoint [`Self::checkpoint`] returns to `out`, after
    /// whatever it already holds: a caller that wraps snapshots in a
    /// frame of its own (the journal) or takes one per epoch serializes
    /// into one long-lived buffer instead of a fresh allocation and a
    /// copy. The checksum covers the appended bytes only.
    pub(crate) fn checkpoint_into(&self, out: &mut Vec<u8>) {
        self.snapshot_into(out, false);
    }

    /// Serialize everything [`Self::checkpoint`] does **except the static
    /// section**, which is named by its digest instead (see
    /// [`crate::checkpoint`] for the layout): what an epoch can change, at
    /// about a third of the bytes. [`Self::restore_dynamic`] lays it over
    /// the static section of any full checkpoint of the same objects.
    pub fn checkpoint_dynamic(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.checkpoint_size_hint() - self.static_image.len());
        self.checkpoint_dynamic_into(&mut out);
        out
    }

    /// [`Self::checkpoint_dynamic`], appended to `out` after whatever it
    /// already holds (see [`Self::checkpoint_into`]).
    pub(crate) fn checkpoint_dynamic_into(&self, out: &mut Vec<u8>) {
        self.snapshot_into(out, true);
    }

    /// What names the static section as it stands: how many objects it
    /// describes, how long it is, and its XXH64.
    pub(crate) fn static_digest(&self) -> StaticDigest {
        StaticDigest {
            objects: self.locs.len() as u64,
            len: self.static_image.len() as u64,
            xxh64: *self
                .hashed
                .section
                .get_or_init(|| xxh64(&self.static_image)),
        }
    }

    /// The one snapshot writer: the full layout, or with `dynamic` the
    /// same less the static section's bytes.
    fn snapshot_into(&self, out: &mut Vec<u8>, dynamic: bool) {
        let magic = if dynamic {
            DYNAMIC_MAGIC
        } else {
            CHECKPOINT_MAGIC
        };
        let mut w = Writer::new(out, magic);
        w.u64(self.fingerprint);
        // Configuration.
        w.u32(self.config.horizon_days);
        w.f64_bits(self.config.horizon_months);
        w.f64_bits(self.config.decay_per_day);
        w.f64_bits(self.config.bucket_base);
        w.f64_bits(self.config.bucket_hysteresis);
        // Accounts, in shard order.
        w.u64(self.shards.len() as u64);
        for shard in &self.shards {
            w.str(&shard.account);
        }
        // Objects, in interned-id order: the static section as it stands
        // here, the dynamic columns below. Re-registering the objects in
        // this order on restore reproduces the identical shard/row layout.
        let n = self.locs.len();
        w.u64(n as u64);
        if dynamic {
            let digest = self.static_digest();
            w.u64(digest.len);
            w.u64(digest.xxh64);
        } else {
            w.bytes(&self.static_image);
        }
        // Everything above changes only when `register` appends, which
        // forgets the state: the trailer hashes only what follows.
        let prefix = *self.hashed.prefix[usize::from(dynamic)].get_or_init(|| w.hashed());
        debug_assert_eq!(prefix, w.hashed(), "a snapshot prefix changed unregistered");
        // Global counters.
        w.u32(self.day);
        w.u64(self.dropped_events);
        w.u64(self.events_seen);
        w.u64(self.epoch);
        w.u64(self.next_seq);
        w.u64(self.duplicate_batches);
        // The dynamic columns, filled side by side in one pass over the
        // objects.
        let (tier_width, scheme_width) = self.id_widths();
        let columns = w.zeroed(n * self.dynamic_row_bytes());
        let (tiers, columns) = columns.split_at_mut(n * tier_width);
        let (schemes, columns) = columns.split_at_mut(n * scheme_width);
        let (reps, heats) = columns.split_at_mut(n * 8);
        let cells = tiers
            .chunks_exact_mut(tier_width)
            .zip(schemes.chunks_exact_mut(scheme_width))
            .zip(reps.chunks_exact_mut(8).zip(heats.chunks_exact_mut(8)));
        let objects = self.locs.iter().zip(&self.heat).zip(&self.bucket_reps);
        for (((&(shard_idx, row), h), bucket_rep), ((tier, scheme), (rep, heat))) in
            objects.zip(cells)
        {
            let (on_tier, with_scheme) = self.shards[shard_idx as usize].choices[row as usize];
            put_id(tier, on_tier.index());
            put_id(scheme, with_scheme);
            rep.copy_from_slice(&bucket_rep.to_bits().to_le_bytes());
            heat.copy_from_slice(&h.value.to_bits().to_le_bytes());
        }
        // One run once `advance_to` has brought every object to the day.
        w.day_column(n, |i| self.heat[i].last_day);
        // Per-shard degraded-mode state.
        for shard in &self.shards {
            w.u32(shard.failures);
            w.u32(shard.retry_after);
            w.u8(u8::from(shard.stale));
            w.u64(shard.dirty.len() as u64);
            for &row in &shard.dirty {
                w.u32(row as u32);
            }
            match &shard.incumbent {
                None => w.u8(0),
                Some(totals) => {
                    w.u8(1);
                    w.f64_bits(totals.objective);
                    w.f64_bits(totals.breakdown.storage);
                    w.f64_bits(totals.breakdown.read);
                    w.f64_bits(totals.breakdown.write);
                    w.f64_bits(totals.breakdown.decompression);
                    w.f64_bits(totals.breakdown.egress);
                }
            }
        }
        // Quarantine ledger.
        w.u64(self.quarantine.capacity() as u64);
        w.u64(self.quarantine.total());
        w.u64(self.quarantine.truncated());
        w.u64(self.quarantine.entries().len() as u64);
        for e in self.quarantine.entries() {
            w.u64(e.ordinal);
            w.u32(e.day);
            w.u32(e.object_id);
            w.u64(e.volume_bits);
            w.reason(e.reason);
        }
        // Sequenced-intake reorder buffer (BTreeMap: deterministic order).
        w.u64(self.pending.len() as u64);
        for (&seq, cols) in &self.pending {
            w.u64(seq);
            w.columns(cols);
        }
        w.finish_from(prefix);
    }

    /// Rebuild an engine from a [`Self::checkpoint`] taken under the same
    /// `catalog` and `schemes` (enforced via fingerprint). The restored
    /// engine, replayed forward over the surviving event stream, is
    /// bit-for-bit equal to one that never crashed; its first re-solve
    /// rebuilds the (unserialized) cost table from scratch, which is
    /// pinned bit-identical to the warm patched table.
    pub fn restore(
        catalog: TierCatalog,
        schemes: Vec<CompressionOption>,
        bytes: &[u8],
    ) -> Result<ServeEngine, ServeError> {
        // Judged before the fingerprint: a catalog no engine can price is
        // a configuration error, not a mismatched snapshot.
        check_catalog(&catalog, &schemes)?;
        let r = Reader::open(bytes, CHECKPOINT_MAGIC)?;
        Self::restore_from(catalog, schemes, r, None)
    }

    /// Rebuild the engine `dynamic` (a [`Self::checkpoint_dynamic`]) was
    /// taken from: the static section comes from `full` — any
    /// [`Self::checkpoint`] of the same objects, however much older —
    /// and everything else from `dynamic`. A `full` whose static section
    /// is not the one `dynamic` names (another object count, length or
    /// XXH64: objects were registered in between, or it is another
    /// fleet's) is refused with [`ServeError::Checkpoint`], as is either
    /// snapshot offered in the other's place.
    pub fn restore_dynamic(
        catalog: TierCatalog,
        schemes: Vec<CompressionOption>,
        full: &[u8],
        dynamic: &[u8],
    ) -> Result<ServeEngine, ServeError> {
        check_catalog(&catalog, &schemes)?;
        let donor = static_section(&catalog, &schemes, full)?;
        let r = Reader::open(dynamic, DYNAMIC_MAGIC)?;
        Self::restore_from(catalog, schemes, r, Some(donor))
    }

    /// Decode the payload `r` stands at the start of: a full snapshot's,
    /// or with `donor` (a static section and its digest) a dynamic one's.
    fn restore_from(
        catalog: TierCatalog,
        schemes: Vec<CompressionOption>,
        mut r: Reader<'_>,
        donor: Option<(StaticDigest, &[u8])>,
    ) -> Result<ServeEngine, ServeError> {
        let head = Preamble::read(&mut r, config_fingerprint(&catalog, &schemes))?;
        let n_accounts = head.accounts.len();
        let mut engine = ServeEngine::new(catalog, schemes, head.config)?;
        let (n_objects, static_image) = match donor {
            None => {
                let n_objects = r.len(STATIC_RECORD_MIN + engine.dynamic_row_bytes())?;
                (n_objects, r.bytes()?)
            }
            Some((held, image)) => {
                let n_objects = r.len(engine.dynamic_row_bytes())?;
                let named = StaticDigest {
                    objects: n_objects as u64,
                    len: r.u64()?,
                    xxh64: r.u64()?,
                };
                if held != named {
                    return Err(ServeError::Checkpoint(format!(
                        "static digest mismatch: the dynamic snapshot was taken over \
                         {named:?}, the full one holds {held:?}"
                    )));
                }
                (n_objects, image)
            }
        };
        // Registration below reads none of the counters (a registered
        // object's `last_day` is overwritten from its column).
        engine.day = r.u32()?;
        engine.dropped_events = r.u64()?;
        engine.events_seen = r.u64()?;
        engine.epoch = r.u64()?;
        engine.next_seq = r.u64()?;
        engine.duplicate_batches = r.u64()?;
        let (tier_width, scheme_width) = engine.id_widths();
        let tiers = r.take(n_objects * tier_width)?;
        let schemes = r.take(n_objects * scheme_width)?;
        let reps = r.take(n_objects * 8)?;
        let heats = r.take(n_objects * 8)?;
        let last_days = r.day_column(n_objects)?;
        let mut statics = Reader::over(static_image);
        let (mut reps, mut heats) = (Reader::over(reps), Reader::over(heats));
        for gid in 0..n_objects {
            let name = statics.str()?;
            let shard_idx = statics.u32()? as usize;
            let account = head.accounts.get(shard_idx).ok_or_else(|| {
                ServeError::Checkpoint(format!(
                    "object {name:?} references shard {shard_idx} but only \
                     {n_accounts} accounts exist"
                ))
            })?;
            let spec = ServeObject {
                name,
                account: account.clone(),
                size_gb: statics.f64_bits()?,
                current_tier: TierId(get_id(&tiers[gid * tier_width..][..tier_width])),
                compression: get_id(&schemes[gid * scheme_width..][..scheme_width]),
                residency_days: statics.u32()?,
                latency_threshold_seconds: statics.f64_bits()?,
            };
            let got = engine.register(spec)?;
            if got as usize != gid {
                return Err(ServeError::Checkpoint(format!(
                    "object order corrupted: expected id {gid}, interned as {got}"
                )));
            }
            let (s, row) = engine.locs[gid];
            let bucket_rep = written_heat(gid, "bucket representative", reps.f64_bits()?)?;
            engine.bucket_reps[gid] = bucket_rep;
            engine.shards[s as usize].problem.partitions[row as usize].predicted_accesses =
                bucket_rep;
            engine.heat[gid] = HeatState {
                value: written_heat(gid, "heat", heats.f64_bits()?)?,
                last_day: last_days[gid],
            };
        }
        // Registration re-encoded every record; anything but the bytes it
        // was decoded from (trailing records, a field `register`
        // normalises) is not a section this engine wrote.
        if engine.static_image != static_image {
            return Err(ServeError::Checkpoint(
                "static section does not re-encode to itself".into(),
            ));
        }
        if engine.shards.len() != n_accounts {
            return Err(ServeError::Checkpoint(format!(
                "{n_accounts} accounts declared but {} materialized (an account \
                 with no objects cannot exist)",
                engine.shards.len()
            )));
        }
        for i in 0..n_accounts {
            let failures = r.u32()?;
            let retry_after = r.u32()?;
            let stale = match r.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(ServeError::Checkpoint(format!("bad stale tag {tag}")));
                }
            };
            let rows = engine.shards[i].problem.partitions.len();
            let n_dirty = r.len(4)?;
            let mut dirty = Vec::with_capacity(n_dirty);
            for _ in 0..n_dirty {
                let row = r.u32()? as usize;
                if row >= rows {
                    return Err(ServeError::Checkpoint(format!(
                        "dirty row {row} out of range for shard {i} ({rows} rows)"
                    )));
                }
                dirty.push(row);
            }
            let incumbent = match r.u8()? {
                0 => None,
                1 => Some(Totals {
                    objective: r.f64_bits()?,
                    breakdown: CostBreakdown {
                        storage: r.f64_bits()?,
                        read: r.f64_bits()?,
                        write: r.f64_bits()?,
                        decompression: r.f64_bits()?,
                        egress: r.f64_bits()?,
                    },
                }),
                tag => {
                    return Err(ServeError::Checkpoint(format!("bad incumbent tag {tag}")));
                }
            };
            let shard = &mut engine.shards[i];
            shard.failures = failures;
            shard.retry_after = retry_after;
            shard.stale = stale;
            shard.dirty = dirty;
            shard.incumbent = incumbent;
        }
        // A ledger keeps the first `capacity` records of `q_total`, and its
        // capacity is the one `new` installed: a lifted bound would let a
        // hostile stream grow the ledger, and fewer records than that
        // minimum or more would make `is_clean` or `record` lie.
        let capacity = engine.quarantine.capacity();
        let (q_capacity, q_total, q_truncated) = (r.u64()?, r.u64()?, r.u64()?);
        let n_entries = r.len(25)?;
        if q_capacity != capacity as u64 || n_entries as u64 != q_total.min(q_capacity) {
            return Err(ServeError::Checkpoint(format!(
                "quarantine ledger of capacity {q_capacity} retains {n_entries} of \
                 {q_total} records; this engine keeps the first {capacity}"
            )));
        }
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            entries.push(QuarantinedEvent {
                ordinal: r.u64()?,
                day: r.u32()?,
                object_id: r.u32()?,
                volume_bits: r.u64()?,
                reason: r.reason()?,
            });
        }
        engine.quarantine = QuarantineLedger::from_parts(entries, capacity, q_total, q_truncated);
        // A parked batch is at least its seq, its block length and the
        // block's header.
        let n_pending = r.len(8 + 8 + 16)?;
        for _ in 0..n_pending {
            let seq = r.u64()?;
            engine.pending.insert(seq, r.columns()?);
        }
        r.expect_end()?;
        Ok(engine)
    }
}

/// `value`, object `gid`'s decoded `what`, if an engine could have written
/// it: a finite number no smaller than +0.0. Heat starts at +0.0 and only
/// decays by factors in (0, 1] and grows by whole reads, and a bucket
/// representative is 0.0 or a power of the bucket base; anything else
/// (NaN, an infinity, a negative number, −0.0) is not a snapshot this
/// engine took, and −0.0 would even change under the intake's
/// branch-free fold.
fn written_heat(gid: usize, what: &str, value: f64) -> Result<f64, ServeError> {
    if value.is_finite() && value.is_sign_positive() {
        Ok(value)
    } else {
        Err(ServeError::Checkpoint(format!(
            "object {gid} has {what} {value:?} (bits {:#018x}), which no engine writes",
            value.to_bits()
        )))
    }
}

/// A static record is at least its five fixed-width fields.
const STATIC_RECORD_MIN: usize = 8 + 4 + 8 + 4 + 8;

/// What both snapshot layouts lead with, up to the object count.
struct Preamble {
    config: ServeConfig,
    /// Account names, in shard order.
    accounts: Vec<String>,
}

impl Preamble {
    /// Read it, refusing a snapshot taken under another configuration
    /// than the one `expected` fingerprints.
    fn read(r: &mut Reader<'_>, expected: u64) -> Result<Self, ServeError> {
        let fingerprint = r.u64()?;
        if fingerprint != expected {
            return Err(ServeError::Checkpoint(format!(
                "catalog/scheme fingerprint mismatch: checkpoint was taken under \
                 {fingerprint:#018x}, this configuration is {expected:#018x}"
            )));
        }
        let config = ServeConfig {
            horizon_days: r.u32()?,
            horizon_months: r.f64_bits()?,
            decay_per_day: r.f64_bits()?,
            bucket_base: r.f64_bits()?,
            bucket_hysteresis: r.f64_bits()?,
            // Not part of a snapshot: the restored engine decides.
            threads: 0,
        };
        let n_accounts = r.len(1)?;
        let mut accounts = Vec::with_capacity(n_accounts);
        for _ in 0..n_accounts {
            accounts.push(r.str()?);
        }
        Ok(Preamble { config, accounts })
    }
}

/// The static section of the full checkpoint `full` and its digest,
/// checked as far as a checksum and the configuration fingerprint go —
/// what it costs to ask whether a snapshot can lend its static section.
/// The records themselves are proven when a restore registers them again.
pub(crate) fn static_section<'a>(
    catalog: &TierCatalog,
    schemes: &[CompressionOption],
    full: &'a [u8],
) -> Result<(StaticDigest, &'a [u8]), ServeError> {
    let mut r = Reader::open(full, CHECKPOINT_MAGIC)?;
    Preamble::read(&mut r, config_fingerprint(catalog, schemes))?;
    let objects = r.len(STATIC_RECORD_MIN)? as u64;
    let image = r.bytes()?;
    let digest = StaticDigest {
        objects,
        len: image.len() as u64,
        xxh64: xxh64(image),
    };
    Ok((digest, image))
}

impl AccountShard {
    /// One guarded shard re-solve: honor backoff, inject `fault`, fall
    /// back to the incumbent on any failure, and only then attempt the
    /// real [`Self::resolve`]. A degraded epoch leaves the cost table and
    /// dirty worklist untouched, so the next healthy epoch re-converges
    /// over everything that accumulated — exactly what a cold
    /// `full_resolve` over the same state would decide.
    fn resolve_guarded(
        &mut self,
        fault: Option<ShardFault>,
    ) -> Result<GuardedDelta, OptAssignError> {
        if self.retry_after > 0 {
            // Backing off: serve the incumbent without attempting a solve.
            self.retry_after -= 1;
            return self.incumbent_delta();
        }
        if fault.is_some() {
            // Injected compute fault (solver failure or deadline overrun):
            // the result is discarded before any state is touched.
            self.note_failure();
            return self.incumbent_delta();
        }
        match self.resolve() {
            Ok(delta) => {
                self.failures = 0;
                self.retry_after = 0;
                self.stale = false;
                self.incumbent = Some(delta.totals);
                Ok(GuardedDelta {
                    assignment: self.assignment(delta.totals),
                    rows_patched: delta.rows_patched,
                    retier_decisions: delta.retier_decisions,
                    degraded: false,
                    stale: false,
                })
            }
            Err(_) => {
                // Genuine solver failure: degrade exactly like an injected
                // one. The error itself is recoverable (the incumbent
                // keeps serving); only an unservable shard errors out of
                // `incumbent_delta` below.
                self.note_failure();
                self.incumbent_delta()
            }
        }
    }

    /// Record one failed/faulted re-solve: bump the consecutive-failure
    /// count and arm the bounded deterministic backoff (`0, 1, 3, 7, 7,
    /// ...` epochs skipped after the 1st, 2nd, 3rd, 4th+ consecutive
    /// failure — capped so a recovering shard is never more than 8 epochs
    /// from its next attempt).
    fn note_failure(&mut self) {
        self.failures = self.failures.saturating_add(1);
        self.retry_after = (1u32 << (self.failures - 1).min(3)) - 1;
        self.stale = true;
    }

    /// The degraded serve: the last healthy assignment verbatim, or —
    /// before any re-solve ever succeeded — the registered per-row
    /// incumbent choices priced fresh.
    fn incumbent_delta(&mut self) -> Result<GuardedDelta, OptAssignError> {
        let assignment = match self.incumbent {
            Some(totals) => self.assignment(totals),
            None => Assignment::from_choices(&self.problem, self.choices.clone())?,
        };
        Ok(GuardedDelta {
            assignment,
            rows_patched: 0,
            retier_decisions: 0,
            degraded: true,
            stale: self.stale,
        })
    }

    /// The applied choices as an [`Assignment`] that sums to `totals`.
    fn assignment(&self, totals: Totals) -> Assignment {
        Assignment {
            choices: self.choices.clone(),
            objective: totals.objective,
            breakdown: totals.breakdown,
        }
    }

    /// One shard re-solve, on the calling thread: re-price the stale rows
    /// (every row on a cold start), re-decide them, apply. Nothing but the
    /// table — where re-patching a row reproduces the same bits — is
    /// touched before every fallible step succeeded, so a failed re-solve
    /// keeps the worklist and the incumbent.
    fn resolve(&mut self) -> Result<ShardDelta, OptAssignError> {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        let n = self.problem.partitions.len();
        let cold = self.table.is_none();
        // A cold table is kept only once the re-solve succeeded, so that a
        // failed cold start is retried cold.
        let mut built = None;
        let table: &CostTable = match &mut self.table {
            Some(table) => {
                table.patch_rows_with_threads(&self.problem, &self.dirty, 1)?;
                table
            }
            None => {
                // Cold start (first resolve, or the shape changed after a
                // registration): full build, full decide.
                self.problem.validate()?;
                built.insert(CostTable::build_with_threads(&self.problem, 1))
            }
        };
        // The re-priced rows: all of them cold, the worklist otherwise.
        let (all, listed) = if cold {
            (0..n, &[][..])
        } else {
            (0..0, &self.dirty[..])
        };
        let stale = all.chain(listed.iter().copied());
        let rows_patched = if cold { n } else { self.dirty.len() };

        // Decide. Greedy re-decides exactly the re-priced rows, by
        // `CostTable::min_feasible` — the rule `solve_greedy` applies,
        // first minimum in tier-major order, so incremental and batch
        // paths tie-break identically.
        if let Some(row) = stale.clone().find(|&r| table.min_feasible(r).is_none()) {
            return Err(OptAssignError::InfeasiblePartition {
                partition: self.problem.partitions[row].id,
                name: self.problem.partitions[row].name.clone(),
            });
        }

        // Apply: success from here on. A re-priced or moved row refreshes
        // its mirror entry; an applied move changes the row's transition
        // costs (they are priced from `current_tier`), so the row is
        // stale for the *next* epoch.
        if cold {
            self.chosen_cost.clear();
            self.chosen_cost.resize(n, 0.0);
            self.chosen_breakdown.clear();
            self.chosen_breakdown.resize(n, CostBreakdown::default());
        }
        self.moved.clear();
        // A row's minimum is the one entry whose breakdown the table
        // stores: the apply reads it and prices nothing.
        for row in stale {
            if let Some((_, tier, scheme)) = table.min_feasible(row) {
                self.chosen_cost[row] = table.cost(row, tier, scheme);
                self.chosen_breakdown[row] = *table.min_breakdown(row);
                if (tier, scheme) != self.choices[row] {
                    self.choices[row] = (tier, scheme);
                    self.moved.push(row);
                }
            }
        }
        for &row in &self.moved {
            self.problem.partitions[row].current_tier = Some(self.choices[row].0);
        }
        // The worklist is consumed; the applied moves are the next one.
        std::mem::swap(&mut self.dirty, &mut self.moved);
        if built.is_some() {
            self.table = built;
        }

        // Same accumulation order (row order) and the same values as
        // `CostTable::assignment` over the applied choices.
        let mut totals = Totals {
            objective: 0.0,
            breakdown: CostBreakdown::default(),
        };
        for (cost, breakdown) in self.chosen_cost.iter().zip(&self.chosen_breakdown) {
            totals.objective += cost;
            totals.breakdown.accumulate(breakdown);
        }
        Ok(ShardDelta {
            totals,
            rows_patched,
            retier_decisions: self.dirty.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use scope_cloudsim::{BillingEvent, BillingSimulator, ObjectSpec, Placement, QuarantineReason};

    fn schemes() -> Vec<CompressionOption> {
        vec![
            CompressionOption::none(),
            CompressionOption::new("gzip", 3.5, 1.5),
            CompressionOption::new("zstd", 2.4, 0.35),
        ]
    }

    /// Deterministic LCG so traces are reproducible without the rand shim.
    fn lcg(state: &mut u64) -> u32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (*state >> 33) as u32
    }

    /// Engine with `accounts * per_account` objects of distinct sizes;
    /// every third object gets a tight latency threshold (excludes the
    /// archive tier), sizes/residencies vary deterministically.
    fn demo_engine(accounts: usize, per_account: usize, config: ServeConfig) -> ServeEngine {
        let mut engine = ServeEngine::new(
            scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
            schemes(),
            config,
        )
        .unwrap();
        for a in 0..accounts {
            for o in 0..per_account {
                let gid = a * per_account + o;
                let mut spec = ServeObject::new(
                    format!("obj-{a}-{o}"),
                    format!("acct-{a}"),
                    1.0 + gid as f64 * 0.37,
                    TierId(gid % 2),
                )
                .with_residency_days((gid as u32 * 11) % 200);
                if gid % 3 == 0 {
                    spec = spec.with_latency_threshold(2.0);
                }
                engine.register(spec).unwrap();
            }
        }
        engine
    }

    /// A day-ordered read/write trace over the engine's objects, with a
    /// skewed access distribution so heats diverge across buckets.
    fn demo_trace(engine: &ServeEngine, days: u32, events_per_day: usize) -> Vec<BillingEvent> {
        let mut state = 0x5eed_cafe_u64;
        let n = engine.len() as u32;
        let mut events = Vec::new();
        for day in 0..days {
            for _ in 0..events_per_day {
                // Square the draw to skew toward low ids (hot objects).
                let draw = lcg(&mut state) % n;
                let id = (u64::from(draw) * u64::from(draw) / u64::from(n)) as u32;
                let name = engine.object_name(id.min(n - 1)).unwrap().to_string();
                let volume = 0.05 + f64::from(lcg(&mut state) % 100) / 200.0;
                if lcg(&mut state) % 10 == 0 {
                    events.push(BillingEvent::write(name, day, volume));
                } else {
                    events.push(BillingEvent::read(name, day, volume));
                }
            }
        }
        events
    }

    fn assert_outcome_matches_reference(
        outcome: &ResolveOutcome,
        reference: &[AccountAssignment],
        epoch: usize,
    ) {
        assert_eq!(outcome.accounts.len(), reference.len(), "epoch {epoch}");
        for (inc, cold) in outcome.accounts.iter().zip(reference) {
            assert_eq!(inc.account, cold.account, "epoch {epoch}");
            assert_eq!(
                inc.assignment.choices, cold.assignment.choices,
                "epoch {epoch}: choices diverged for {}",
                inc.account
            );
            assert_eq!(
                inc.assignment.objective.to_bits(),
                cold.assignment.objective.to_bits(),
                "epoch {epoch}: objective bits diverged for {}",
                inc.account
            );
            assert_eq!(
                inc.assignment.breakdown, cold.assignment.breakdown,
                "epoch {epoch}: breakdown diverged for {}",
                inc.account
            );
        }
        assert_eq!(
            outcome.total_objective.to_bits(),
            reference::total_objective(reference).to_bits(),
            "epoch {epoch}: total objective diverged"
        );
    }

    #[test]
    fn config_and_registration_are_validated() {
        let bad = ServeConfig {
            decay_per_day: 1.5,
            ..ServeConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::InvalidConfig(_))));
        let bad = ServeConfig {
            bucket_base: 1.0,
            ..ServeConfig::default()
        };
        assert!(matches!(bad.validate(), Err(ServeError::InvalidConfig(_))));

        let catalog = scope_cloudsim::TierCatalog::azure_hot_cool_archive();
        // schemes[0] must be the identity scheme.
        assert!(ServeEngine::new(
            catalog.clone(),
            vec![CompressionOption::new("gzip", 3.5, 1.5)],
            ServeConfig::default(),
        )
        .is_err());
        let mut engine = ServeEngine::new(catalog, schemes(), ServeConfig::default()).unwrap();
        engine
            .register(ServeObject::new("a", "acct", 1.0, TierId(0)))
            .unwrap();
        assert!(matches!(
            engine.register(ServeObject::new("a", "acct", 2.0, TierId(0))),
            Err(ServeError::DuplicateObject(_))
        ));
        assert!(matches!(
            engine.register(ServeObject::new("b", "acct", -1.0, TierId(0))),
            Err(ServeError::InvalidObject(_))
        ));
        assert!(matches!(
            engine.register(ServeObject::new("c", "acct", 1.0, TierId(9))),
            Err(ServeError::InvalidObject(_))
        ));
        assert!(matches!(
            engine.register(ServeObject::new("d", "acct", 1.0, TierId(0)).with_compression(7)),
            Err(ServeError::InvalidObject(_))
        ));
        assert_eq!(engine.len(), 1);
        assert_eq!(engine.object_id("a"), Some(0));
        assert_eq!(engine.object_name(0), Some("a"));
        assert_eq!(engine.placement(0), Some((TierId(0), 0)));
    }

    #[test]
    fn a_catalog_no_engine_can_price_is_refused_by_tier_and_field() {
        use crate::{JournaledEngine, Serving};
        use scope_cloudsim::{ProviderCatalog, Tier, TierCatalog};
        use scope_wal::{JournalConfig, MemStorage};
        let stock = [
            TierCatalog::azure_hot_cool(),
            TierCatalog::azure_hot_cool_archive(),
            TierCatalog::azure_premium_hot_cool(),
            ProviderCatalog::azure_s3_gcs().merged_catalog(),
        ];
        for catalog in &stock {
            ServeEngine::new(catalog.clone(), schemes(), ServeConfig::default()).unwrap();
        }
        let snapshot = demo_engine(1, 2, ServeConfig::default()).checkpoint();
        let journal = || {
            let mut journaled = JournaledEngine::create(
                demo_engine(1, 2, ServeConfig::default()),
                MemStorage::new(),
                JournalConfig::default(),
            )
            .unwrap();
            journaled.checkpoint_epoch(0).unwrap();
            journaled.crash()
        };
        let refusal = |catalog: TierCatalog| {
            let new = ServeEngine::new(catalog.clone(), schemes(), ServeConfig::default());
            let restored = ServeEngine::restore(catalog.clone(), schemes(), &snapshot);
            let recovered = JournaledEngine::recover(
                journal(),
                JournalConfig::default(),
                catalog,
                schemes(),
                || unreachable!("a refused catalog builds no engine"),
            )
            .map(|_| ());
            let reasons = [new.map(|_| ()), restored.map(|_| ()), recovered].map(|r| match r {
                Err(ServeError::InvalidConfig(reason)) => reason,
                other => panic!("not a configuration error: {other:?}"),
            });
            assert!(reasons.iter().all(|r| *r == reasons[0]), "{reasons:?}");
            reasons[0].clone()
        };
        let fields = [
            "storage_cost_cents_per_gb_month",
            "read_cost_cents_per_gb",
            "write_cost_cents_per_gb",
            "ttfb_seconds",
        ];
        let base = TierCatalog::azure_hot_cool_archive();
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            for (i, field) in fields.into_iter().enumerate() {
                let mut tiers: Vec<Tier> = base.iter().map(|(_, t)| t.clone()).collect();
                let cool = &mut tiers[1];
                *[
                    &mut cool.storage_cost_cents_per_gb_month,
                    &mut cool.read_cost_cents_per_gb,
                    &mut cool.write_cost_cents_per_gb,
                    &mut cool.ttfb_seconds,
                ][i] = bad;
                let reason = refusal(TierCatalog::new(tiers).unwrap());
                assert_eq!(reason, format!("tier Cool has invalid {field} {bad}"));
            }
            let mut catalog = base.clone();
            catalog.compute_cost_cents_per_second = bad;
            assert_eq!(
                refusal(catalog),
                format!("catalog has invalid compute_cost_cents_per_second {bad}")
            );
        }
    }

    #[test]
    fn an_object_and_a_scheme_are_each_named_once() {
        // "Said once" is a property of pointers, not of text: the name
        // table, the interning key and the partition spec share one copy
        // of an object's name, and every partition's options share the
        // engine's copy of each scheme's — registered and restored alike.
        fn assert_named_once(engine: &ServeEngine) {
            assert_eq!(engine.names.len(), engine.len());
            for (gid, name) in engine.names.iter().enumerate() {
                let (key, &id) = engine.name_ids.get_key_value(&**name).unwrap();
                assert_eq!(id as usize, gid);
                assert!(Arc::ptr_eq(key, name), "interning key of {name}");
                let (shard, row) = engine.locs[gid];
                let partition = &engine.shards[shard as usize].problem.partitions[row as usize];
                assert!(Arc::ptr_eq(&partition.name, name), "spec name of {name}");
                assert_eq!(partition.compression_options.len(), engine.schemes.len());
                for (option, scheme) in partition.compression_options.iter().zip(&engine.schemes) {
                    assert!(
                        Arc::ptr_eq(&option.name, &scheme.name),
                        "scheme {} of {name}",
                        scheme.name
                    );
                }
            }
        }
        let mut engine = demo_engine(3, 7, ServeConfig::default());
        assert_named_once(&engine);
        engine.reoptimize().unwrap();
        assert_named_once(&engine);
        let restored = ServeEngine::restore(
            scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
            schemes(),
            &engine.checkpoint(),
        )
        .unwrap();
        assert_eq!(restored.len(), engine.len());
        assert_named_once(&restored);
    }

    /// An engine and a billing simulator over one object per size, named
    /// `obj-0`, `obj-1`, … and registered and placed in the same order, so
    /// an id means the same object to both.
    fn intake_and_billing(sizes: &[f64], horizon_days: u32) -> (ServeEngine, BillingSimulator) {
        let catalog = scope_cloudsim::TierCatalog::azure_hot_cool_archive();
        let config = ServeConfig {
            horizon_days,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(catalog.clone(), schemes(), config).unwrap();
        let mut sim = BillingSimulator::new(catalog);
        for (i, &size) in sizes.iter().enumerate() {
            let (name, tier) = (format!("obj-{i}"), TierId(i % 2));
            engine
                .register(ServeObject::new(name.clone(), "acct", size, tier))
                .unwrap();
            sim.place(
                ObjectSpec::new(name, size).on_tier(tier),
                Placement::uncompressed(tier),
            )
            .unwrap();
        }
        (engine, sim)
    }

    /// Ingest a square batch into a fresh `engine` and replay it through
    /// `sim`, and check that both judged it alike. Let *f* be the first
    /// in-horizon event with a bad volume or a foreign id. Without one,
    /// the replay succeeds and drops what the intake drops. With one, the
    /// replay refuses the trace at *f*: for a bad volume, with the bits of
    /// the engine's first quarantine record, whose ordinal is *f*; for a
    /// foreign id, naming it, with nothing quarantined before *f*.
    fn assert_intake_agrees_with_billing(
        engine: &mut ServeEngine,
        sim: &BillingSimulator,
        columns: &EventColumns,
    ) -> IngestReport {
        let horizon = engine.config().horizon_days;
        let known = engine.len();
        let bill = sim.run_columns(horizon, columns);
        let ingest = engine.deliver(0, columns).unwrap();
        let first_refused = (0..columns.len())
            .map(|i| {
                let (day, id) = (columns.days[i], columns.object_ids[i]);
                (i, classify(day, id, columns.volumes[i], horizon, known))
            })
            .find(|(_, class)| matches!(class, EventClass::BadVolume(_) | EventClass::OutOfRange));
        let records = engine.quarantine().entries();
        let Some((f, class)) = first_refused else {
            assert_eq!(bill.unwrap().dropped_events, engine.dropped_events());
            return ingest;
        };
        let Err(scope_cloudsim::CloudSimError::InvalidParameter { name, value }) = bill else {
            panic!("billing accepted a trace refused at event {f}: {bill:?}");
        };
        if class == EventClass::OutOfRange {
            assert_eq!(
                (name, value),
                ("object_id", f64::from(columns.object_ids[f]))
            );
            assert!(records.iter().all(|r| r.ordinal > f as u64));
        } else {
            assert_eq!(name, "volume_gb");
            assert_eq!(records[0].ordinal, f as u64);
            assert_eq!(value.to_bits(), records[0].volume_bits);
        }
        ingest
    }

    #[test]
    fn ingest_mirrors_billing_dropped_events_exactly() {
        let (mut engine, sim) = intake_and_billing(&[10.0, 4.0], 60);
        // In-horizon reads/writes, out-of-horizon events (including one for
        // an unknown object — the drop check precedes object resolution in
        // both engines), and an in-horizon unknown (skipped, not dropped).
        let events = vec![
            BillingEvent::read("obj-0", 3, 1.0),
            BillingEvent::write("obj-1", 10, 0.5),
            BillingEvent::read("obj-0", 59, 2.0),
            BillingEvent::read("obj-0", 60, 1.0),
            BillingEvent::read("ghost", 61, 1.0),
            BillingEvent::write("obj-1", 300, 0.1),
            BillingEvent::read("ghost", 12, 1.0),
        ];
        let columns = EventColumns::from_events(&events, |n| engine.object_id(n));
        let ingest = assert_intake_agrees_with_billing(&mut engine, &sim, &columns);

        assert_eq!(ingest.dropped, 3);
        assert_eq!(ingest.unknown, 1);
        assert_eq!(ingest.folded, 3);
        assert_eq!(sim.run_days(60, &events).unwrap().dropped_events, 3);
        // Cumulative across batches: a replay of the same columns doubles it.
        engine.deliver(1, &columns).unwrap();
        assert_eq!(engine.dropped_events(), 6);
    }

    mod intake_agrees_with_billing {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any square batch over 1–5 objects: ids in `0..N+3` and the
            /// unknown sentinel, days past the horizon, NaN payloads, ±∞
            /// and negative volumes at a per-case rate (none at 0).
            #[test]
            fn the_intake_and_the_billing_replay_classify_every_event_alike(
                objects in 1usize..6,
                horizon in 1u32..120,
                noise in 0u64..6,
                words in proptest::collection::vec(any::<u64>(), 0..32),
            ) {
                let sizes: Vec<f64> = (0..objects).map(|i| 1.0 + i as f64).collect();
                let (mut engine, sim) = intake_and_billing(&sizes, horizon);
                let n = objects as u32;
                let mut columns = EventColumns::default();
                for w in words {
                    let x = (w >> 32) as u32;
                    let day = match w % 8 {
                        0 => horizon + x % 30,
                        1 => u32::MAX,
                        _ => x % horizon,
                    };
                    let id = match (w >> 3) % 16 {
                        0 => UNKNOWN_OBJECT,
                        _ if (w >> 8) % 64 < noise => n + x % 3,
                        _ => x % n,
                    };
                    let kind = if (w >> 7) % 4 == 0 { AccessKind::Write } else { AccessKind::Read };
                    let volume = if (w >> 14) % 64 < 2 * noise {
                        match (w >> 20) % 5 {
                            0 => f64::from_bits(0x7ff8_0000_0000_0000 | u64::from(x & 0xffff)),
                            1 => f64::from_bits(0xfff0_0000_0000_0001 | u64::from(x & 0xff) << 8),
                            2 => f64::INFINITY,
                            3 => f64::NEG_INFINITY,
                            _ => -0.25 - f64::from(x % 8),
                        }
                    } else if (w >> 20) % 16 == 0 {
                        -0.0
                    } else {
                        0.125 * f64::from(x % 32)
                    };
                    columns.push_resolved(day, id, kind, volume);
                }
                let ingest = assert_intake_agrees_with_billing(&mut engine, &sim, &columns);
                prop_assert_eq!(ingest.truncated, 0);
                prop_assert_eq!(
                    ingest.dropped + ingest.quarantined + ingest.unknown + ingest.folded,
                    columns.len() as u64
                );
            }
        }
    }

    #[test]
    fn ingest_is_invariant_under_batch_splits() {
        let config = ServeConfig::default();
        let mut whole = demo_engine(2, 12, config.clone());
        let mut split = demo_engine(2, 12, config);
        let events = demo_trace(&whole, 90, 40);
        let columns = EventColumns::from_events(&events, |n| whole.object_id(n));

        whole.deliver(0, &columns).unwrap();
        for (seq, (lo, hi)) in [(0, 13), (13, 40), (40, 90)].into_iter().enumerate() {
            split
                .deliver(seq as u64, &columns.filter_day_range(lo, hi))
                .unwrap();
        }
        for id in 0..whole.len() as u32 {
            assert_eq!(
                whole.heat(id).unwrap().to_bits(),
                split.heat(id).unwrap().to_bits(),
                "heat diverged for object {id}"
            );
        }
        assert_eq!(whole.dropped_events(), split.dropped_events());
    }

    #[test]
    fn incremental_resolve_matches_cold_reference_on_every_epoch() {
        let mut engine = demo_engine(3, 10, ServeConfig::default());
        let events = demo_trace(&engine, 90, 60);
        let columns = EventColumns::from_events(&events, |n| engine.object_id(n));
        let full_rows = engine.len();

        let mut later_rows_patched = 0;
        for epoch in 0..6 {
            let (lo, hi) = (epoch as u32 * 15, epoch as u32 * 15 + 15);
            engine
                .deliver(epoch as u64, &columns.filter_day_range(lo, hi))
                .unwrap();
            engine.advance(hi);
            let cold = reference::full_resolve(&engine).unwrap();
            // Applying the re-solve moves `current_tier`s, which the
            // model prices transitions from: keep the problems it solved.
            let solved: Vec<OptAssignProblem> =
                engine.shards().iter().map(|s| s.problem.clone()).collect();
            let outcome = engine.reoptimize().unwrap();
            assert_outcome_matches_reference(&outcome, &cold, epoch);
            // The sum over the dense chosen-entry mirror is the
            // model-driven sum over the same choices, bit for bit.
            for (problem, account) in solved.iter().zip(&outcome.accounts) {
                let choices = account.assignment.choices.clone();
                assert_eq!(
                    Assignment::from_choices(problem, choices).unwrap(),
                    account.assignment,
                    "epoch {epoch}: {}",
                    account.account
                );
            }
            assert_eq!(outcome.day, hi);
            assert_eq!(outcome.objects, engine.len());
            if epoch == 0 {
                // Cold start evaluates every row once.
                assert_eq!(outcome.rows_patched, full_rows);
            } else {
                later_rows_patched += outcome.rows_patched;
            }
        }
        // The steady state is a *delta* path: bucketing must absorb most
        // heat drift, so warm epochs patch far fewer rows than full
        // rebuilds would (5 warm epochs x 30 rows = 150 ceiling).
        assert!(
            later_rows_patched < 5 * full_rows / 2,
            "warm epochs patched {later_rows_patched} rows; delta path is not delta"
        );
    }

    #[test]
    fn registration_mid_stream_forces_a_cold_rebuild_and_stays_consistent() {
        let mut engine = demo_engine(2, 6, ServeConfig::default());
        let events = demo_trace(&engine, 60, 30);
        let columns = EventColumns::from_events(&events, |n| engine.object_id(n));
        for epoch in 0..4 {
            let (lo, hi) = (epoch * 15, epoch * 15 + 15);
            engine
                .deliver(u64::from(epoch), &columns.filter_day_range(lo, hi))
                .unwrap();
            engine.advance(hi);
            if epoch == 2 {
                // Shape change: the owning shard must rebuild, the other
                // shard keeps its warm table, and both still match the
                // cold reference.
                engine
                    .register(
                        ServeObject::new("late-arrival", "acct-0", 42.5, TierId(0))
                            .with_residency_days(7),
                    )
                    .unwrap();
            }
            let cold = reference::full_resolve(&engine).unwrap();
            let outcome = engine.reoptimize().unwrap();
            assert_outcome_matches_reference(&outcome, &cold, epoch as usize);
        }
        let late = engine.object_id("late-arrival").unwrap();
        assert!(engine.placement(late).is_some());
    }

    /// One epoch's digest: per-account choices plus the total-objective bits.
    type EpochDigest = Vec<(Vec<(TierId, usize)>, u64)>;

    #[test]
    fn the_fan_out_rule_takes_the_side_its_table_records() {
        // The rows of the `FAN_OUT_MIN_ROWS` table: stale rows, and
        // whether the rule fans out.
        for (resolve, stale_rows, two) in [
            ("cold, 2 000 objects", 2_000, false),
            ("cold, 8 000 objects", 8_000, true),
            ("cold, 16 000 objects", 16_000, true),
            ("cold, 40 000 objects", 40_000, true),
            ("500 dirty rows of 8 000 objects", 500, false),
            ("2 000 dirty rows of 8 000 objects", 2_000, false),
            ("4 000 dirty rows of 8 000 objects", 4_000, false),
            ("0 dirty rows of 40 000 objects", 0, false),
            ("500 dirty rows of 40 000 objects", 500, false),
            ("2 000 dirty rows of 40 000 objects", 2_000, false),
        ] {
            assert_eq!(fans_out(stale_rows), two, "{resolve}");
        }
    }

    #[test]
    fn resolve_outcome_is_thread_count_independent() {
        let mut outcomes: Vec<EpochDigest> = Vec::new();
        for threads in [1usize, 3, 8] {
            let config = ServeConfig {
                threads,
                ..ServeConfig::default()
            };
            let mut engine = demo_engine(4, 7, config);
            let events = demo_trace(&engine, 60, 50);
            let columns = EventColumns::from_events(&events, |n| engine.object_id(n));
            let mut per_epoch = Vec::new();
            for epoch in 0..4u32 {
                let (lo, hi) = (epoch * 15, epoch * 15 + 15);
                let batch = columns.filter_day_range(lo, hi);
                engine.deliver(u64::from(epoch), &batch).unwrap();
                engine.advance(hi);
                let outcome = engine.reoptimize().unwrap();
                per_epoch.push((
                    outcome
                        .accounts
                        .iter()
                        .flat_map(|a| a.assignment.choices.iter().copied())
                        .collect::<Vec<_>>(),
                    outcome.total_objective.to_bits(),
                ));
            }
            outcomes.push(per_epoch);
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "threads=3 diverged from sequential"
        );
        assert_eq!(
            outcomes[0], outcomes[2],
            "threads=8 diverged from sequential"
        );
    }

    #[test]
    fn a_capacity_reservation_is_refused_at_every_thread_count() {
        // Greedy re-solves would overfill a reserved tier, and the thread
        // count never changes what a re-solve does.
        let mut reserved = scope_cloudsim::TierCatalog::azure_hot_cool_archive();
        reserved.set_capacity("Hot", 10.0).unwrap();
        for threads in [0, 1, 3] {
            let config = ServeConfig {
                threads,
                ..ServeConfig::default()
            };
            let err = ServeEngine::new(reserved.clone(), schemes(), config).unwrap_err();
            assert!(
                matches!(&err, ServeError::InvalidConfig(m) if m.contains("reserves capacity")),
                "threads {threads}: {err:?}"
            );
        }
    }

    #[test]
    fn quarantine_is_ordered_and_invariant_under_batch_splits() {
        let config = ServeConfig::default();
        let mut whole = demo_engine(2, 6, config.clone());
        let mut split = demo_engine(2, 6, config);
        // Interleave corrupt volumes (NaN with a payload, -inf, negative)
        // with healthy traffic, plus one corrupt event naming an unknown
        // object and one past the horizon (dropped, not quarantined).
        let mut columns = EventColumns::default();
        columns.push_resolved(1, 0, AccessKind::Read, 1.0);
        columns.push_resolved(
            2,
            1,
            AccessKind::Read,
            f64::from_bits(0x7ff8_0000_0000_beef),
        );
        columns.push_resolved(3, 2, AccessKind::Write, 0.5);
        columns.push_resolved(4, UNKNOWN_OBJECT, AccessKind::Read, -3.5);
        columns.push_resolved(5, 3, AccessKind::Read, f64::NEG_INFINITY);
        columns.push_resolved(500, 0, AccessKind::Read, f64::NAN);
        columns.push_resolved(6, 4, AccessKind::Read, 2.0);

        let report = whole.deliver(0, &columns).unwrap();
        assert_eq!(report.folded, 3);
        assert_eq!(report.quarantined, 3);
        assert_eq!(report.dropped, 1);
        let entries = whole.quarantine().entries();
        assert_eq!(entries.len(), 3);
        // Ordinals index the lifetime intake sequence, in arrival order.
        assert_eq!(entries[0].ordinal, 1);
        assert_eq!(entries[0].reason, QuarantineReason::NonFiniteVolume);
        assert_eq!(entries[0].volume_bits, 0x7ff8_0000_0000_beef);
        assert_eq!(entries[1].ordinal, 3);
        assert_eq!(entries[1].reason, QuarantineReason::NegativeVolume);
        assert_eq!(entries[1].object_id, UNKNOWN_OBJECT);
        assert_eq!(entries[2].ordinal, 4);
        // Quarantined events never touch heat.
        assert_eq!(whole.heat(1).unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(whole.heat(3).unwrap().to_bits(), 0.0f64.to_bits());

        // Any batch split yields a bit-identical ledger and counters.
        for (seq, (lo, hi)) in [(0usize, 2), (2, 3), (3, 7)].into_iter().enumerate() {
            let mut part = EventColumns::default();
            for i in lo..hi {
                part.push_resolved(
                    columns.days[i],
                    columns.object_ids[i],
                    columns.kinds[i],
                    columns.volumes[i],
                );
            }
            split.deliver(seq as u64, &part).unwrap();
        }
        assert_eq!(whole.quarantine(), split.quarantine());
        assert_eq!(whole.events_seen(), split.events_seen());
        assert_eq!(whole.dropped_events(), split.dropped_events());
    }

    #[test]
    fn torn_batches_ingest_the_common_prefix_and_count_the_tail() {
        let mut engine = demo_engine(1, 4, ServeConfig::default());
        let mut columns = EventColumns::default();
        columns.push_resolved(1, 0, AccessKind::Read, 1.0);
        columns.push_resolved(2, 1, AccessKind::Read, 1.0);
        columns.push_resolved(3, 2, AccessKind::Read, 1.0);
        // Tear the last two events' volumes (and one kind) off.
        columns.volumes.truncate(1);
        columns.kinds.truncate(2);
        let report = engine.deliver(0, &columns).unwrap();
        assert_eq!(report.folded, 1);
        assert_eq!(report.truncated, 2);
        assert_eq!(engine.quarantine().truncated(), 2);
        assert_eq!(engine.events_seen(), 1);
        assert!(engine.heat(0).unwrap() > 0.0);
        assert_eq!(engine.heat(1).unwrap().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn sequenced_intake_is_exactly_once_under_duplication_and_reordering() {
        let config = ServeConfig::default();
        let mut ordered = demo_engine(2, 8, config.clone());
        let mut chaotic = demo_engine(2, 8, config);
        let events = demo_trace(&ordered, 60, 30);
        let columns = EventColumns::from_events(&events, |n| ordered.object_id(n));
        let batches: Vec<EventColumns> = (0..4)
            .map(|i| columns.filter_day_range(i * 15, i * 15 + 15))
            .collect();

        for (seq, batch) in batches.iter().enumerate() {
            ordered.ingest_sequenced(seq as u64, batch).unwrap();
        }
        // Duplicated + locally reordered delivery: 2 early, then the gap
        // filler (drains 0..=2), a stale duplicate, a buffered duplicate
        // case, and the tail.
        chaotic.ingest_sequenced(2, &batches[2]).unwrap();
        chaotic.ingest_sequenced(1, &batches[1]).unwrap();
        chaotic.ingest_sequenced(1, &batches[1]).unwrap(); // buffered dup
        let drained = chaotic.ingest_sequenced(0, &batches[0]).unwrap();
        assert!(drained.folded > 0);
        chaotic.ingest_sequenced(0, &batches[0]).unwrap(); // folded dup
        chaotic.ingest_sequenced(3, &batches[3]).unwrap();
        assert_eq!(chaotic.duplicate_batches(), 2);
        assert_eq!(chaotic.pending_batches(), 0);
        assert_eq!(chaotic.next_seq(), ordered.next_seq());

        for id in 0..ordered.len() as u32 {
            assert_eq!(
                ordered.heat(id).unwrap().to_bits(),
                chaotic.heat(id).unwrap().to_bits(),
                "heat diverged for object {id}"
            );
        }
        assert_eq!(ordered.dropped_events(), chaotic.dropped_events());
        assert_eq!(ordered.quarantine(), chaotic.quarantine());
    }

    #[test]
    fn sequenced_intake_bounds_the_reorder_buffer() {
        let mut engine = demo_engine(1, 2, ServeConfig::default());
        let mut batch = EventColumns::default();
        batch.push_resolved(1, 0, AccessKind::Read, 1.0);
        for seq in 1..=ServeEngine::MAX_PENDING_BATCHES as u64 {
            engine.ingest_sequenced(seq, &batch).unwrap();
        }
        assert_eq!(engine.pending_batches(), ServeEngine::MAX_PENDING_BATCHES);
        let err = engine
            .ingest_sequenced(ServeEngine::MAX_PENDING_BATCHES as u64 + 1, &batch)
            .unwrap_err();
        assert_eq!(
            err,
            ServeError::IntakeOverflow {
                expected_seq: 0,
                got_seq: ServeEngine::MAX_PENDING_BATCHES as u64 + 1,
            }
        );
        // Filling the gap drains the whole buffer.
        let report = engine.ingest_sequenced(0, &batch).unwrap();
        assert_eq!(report.folded, 1 + ServeEngine::MAX_PENDING_BATCHES as u64);
        assert_eq!(engine.pending_batches(), 0);
    }

    #[test]
    fn faulted_shards_serve_the_incumbent_and_reconverge_after_backoff() {
        let mut engine = demo_engine(3, 8, ServeConfig::default());
        let events = demo_trace(&engine, 90, 60);
        let columns = EventColumns::from_events(&events, |n| engine.object_id(n));

        // Epoch 1: healthy cold start.
        engine.deliver(0, &columns.filter_day_range(0, 15)).unwrap();
        engine.advance(15);
        let healthy = engine.reoptimize().unwrap();
        assert_eq!(healthy.degraded_accounts, 0);

        // Epochs 2-3: shard 1 faults repeatedly. It serves its last healthy
        // assignment verbatim; the other shards keep matching the cold
        // reference on the live state.
        let faults = [None, Some(ShardFault::SolveFailure), None];
        let mut last_good = healthy.accounts[1].assignment.clone();
        for epoch in 2..4u32 {
            let (lo, hi) = (epoch * 15 - 15, epoch * 15);
            let seq = u64::from(epoch) - 1;
            engine
                .deliver(seq, &columns.filter_day_range(lo, hi))
                .unwrap();
            engine.advance(hi);
            let cold = reference::full_resolve(&engine).unwrap();
            let outcome = engine.resolve(&faults).unwrap();
            assert_eq!(outcome.degraded_accounts, 1);
            assert!(outcome.accounts[1].stale);
            assert_eq!(outcome.accounts[1].assignment.choices, last_good.choices);
            assert_eq!(
                outcome.accounts[1].assignment.objective.to_bits(),
                last_good.objective.to_bits(),
                "degraded shard must serve the incumbent bit-for-bit"
            );
            last_good = outcome.accounts[1].assignment.clone();
            for i in [0usize, 2] {
                assert_eq!(
                    outcome.accounts[i].assignment.choices,
                    cold[i].assignment.choices
                );
                assert_eq!(
                    outcome.accounts[i].assignment.objective.to_bits(),
                    cold[i].assignment.objective.to_bits(),
                    "healthy shard {i} must be unaffected by shard 1's fault"
                );
                assert!(!outcome.accounts[i].stale);
            }
            assert_eq!(engine.stale_accounts(), vec!["acct-1"]);
        }

        // After 2 consecutive failures the backoff is 1 epoch: the next
        // epoch is skipped even though no fault is injected.
        engine
            .deliver(3, &columns.filter_day_range(45, 60))
            .unwrap();
        engine.advance(60);
        let outcome = engine.reoptimize().unwrap();
        assert_eq!(outcome.degraded_accounts, 1);
        assert!(outcome.accounts[1].stale);

        // Backoff expired: the next healthy epoch re-converges shard 1 to
        // exactly what the cold reference decides over the full state.
        engine
            .deliver(4, &columns.filter_day_range(60, 75))
            .unwrap();
        engine.advance(75);
        let cold = reference::full_resolve(&engine).unwrap();
        let outcome = engine.reoptimize().unwrap();
        assert_eq!(outcome.degraded_accounts, 0);
        assert_outcome_matches_reference(&outcome, &cold, 5);
        assert!(engine.stale_accounts().is_empty());
    }

    #[test]
    fn deadline_overrun_degrades_like_a_solve_failure() {
        let mut engine = demo_engine(2, 5, ServeConfig::default());
        let first = engine.reoptimize().unwrap();
        let faults = [Some(ShardFault::DeadlineOverrun), None];
        let outcome = engine.resolve(&faults).unwrap();
        assert_eq!(outcome.degraded_accounts, 1);
        assert!(outcome.accounts[0].stale);
        assert_eq!(
            outcome.accounts[0].assignment.objective.to_bits(),
            first.accounts[0].assignment.objective.to_bits()
        );
    }

    #[test]
    fn checkpoint_restore_replay_is_bit_identical_to_never_crashing() {
        let config = ServeConfig::default();
        let mut live = demo_engine(3, 9, config);
        let events = demo_trace(&live, 90, 50);
        let columns = EventColumns::from_events(&events, |n| live.object_id(n));
        let batches: Vec<EventColumns> = (0..6)
            .map(|i| columns.filter_day_range(i * 15, i * 15 + 15))
            .collect();

        // Run 3 epochs (with a fault in epoch 2 so degraded-mode state is
        // part of what the checkpoint must capture), then snapshot.
        let faults = [None, Some(ShardFault::SolveFailure), None];
        for (epoch, batch) in batches.iter().take(3).enumerate() {
            live.ingest_sequenced(epoch as u64, batch).unwrap();
            live.advance((epoch as u32 + 1) * 15);
            if epoch == 1 {
                live.resolve(&faults).unwrap();
            } else {
                live.reoptimize().unwrap();
            }
        }
        let snapshot = live.checkpoint();

        // Crash: rebuild from the snapshot under the same configuration.
        let mut restored = ServeEngine::restore(
            scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
            schemes(),
            &snapshot,
        )
        .unwrap();
        // The restored engine's own checkpoint is byte-identical.
        assert_eq!(restored.checkpoint(), snapshot);
        assert_eq!(restored.day(), live.day());
        assert_eq!(restored.epoch(), live.epoch());
        assert_eq!(restored.stale_accounts(), live.stale_accounts());

        // Replay the surviving stream on both engines in lockstep; every
        // epoch outcome (choices + objective bits + quarantine) and the
        // final checkpoints must match bit-for-bit. rows_patched is the
        // one counter allowed to differ (the restored engine rebuilds its
        // cost-table cache cold on the first epoch).
        for (epoch, batch) in batches.iter().enumerate().skip(3) {
            live.ingest_sequenced(epoch as u64, batch).unwrap();
            restored.ingest_sequenced(epoch as u64, batch).unwrap();
            let day = (epoch as u32 + 1) * 15;
            live.advance(day);
            restored.advance(day);
            let a = live.reoptimize().unwrap();
            let b = restored.reoptimize().unwrap();
            assert_eq!(a.accounts.len(), b.accounts.len());
            for (x, y) in a.accounts.iter().zip(&b.accounts) {
                assert_eq!(x.assignment.choices, y.assignment.choices, "epoch {epoch}");
                assert_eq!(
                    x.assignment.objective.to_bits(),
                    y.assignment.objective.to_bits(),
                    "epoch {epoch}: objective bits diverged after restore"
                );
                assert_eq!(x.stale, y.stale);
            }
            assert_eq!(a.total_objective.to_bits(), b.total_objective.to_bits());
            assert_eq!(a.retier_decisions, b.retier_decisions);
            assert_eq!(a.dropped_events, b.dropped_events);
        }
        assert_eq!(live.checkpoint(), restored.checkpoint());
    }

    #[test]
    fn checkpoint_preserves_the_reorder_buffer_and_quarantine() {
        let mut engine = demo_engine(2, 4, ServeConfig::default());
        let mut corrupt = EventColumns::default();
        corrupt.push_resolved(1, 0, AccessKind::Read, f64::NAN);
        corrupt.push_resolved(2, 1, AccessKind::Read, -1.0);
        corrupt.push_resolved(3, 2, AccessKind::Write, 0.5);
        engine.ingest_sequenced(0, &corrupt).unwrap();
        // An early batch left pending across the crash.
        let mut early = EventColumns::default();
        early.push_resolved(4, 3, AccessKind::Read, 1.0);
        engine.ingest_sequenced(5, &early).unwrap();
        assert_eq!(engine.pending_batches(), 1);

        let restored = ServeEngine::restore(
            scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
            schemes(),
            &engine.checkpoint(),
        )
        .unwrap();
        assert_eq!(restored.quarantine(), engine.quarantine());
        assert_eq!(restored.pending_batches(), 1);
        assert_eq!(restored.next_seq(), 1);
        assert_eq!(restored.checkpoint(), engine.checkpoint());
    }

    #[test]
    fn restore_rejects_a_mismatched_catalog_or_schemes() {
        let engine = demo_engine(1, 3, ServeConfig::default());
        let snapshot = engine.checkpoint();
        // Fewer schemes than the checkpoint was taken under.
        let err = ServeEngine::restore(
            scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
            vec![CompressionOption::none()],
            &snapshot,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Checkpoint(_)));
        // Flipped payload byte fails the checksum.
        let mut corrupt = snapshot.clone();
        corrupt[20] ^= 0x01;
        assert!(matches!(
            ServeEngine::restore(
                scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
                schemes(),
                &corrupt,
            ),
            Err(ServeError::Checkpoint(_))
        ));
    }

    /// A small engine whose checkpoint exercises every section of the
    /// layout: a degraded shard holding an incumbent and dirty rows, a
    /// quarantine entry, and a batch parked in the reorder buffer.
    fn eventful_engine() -> ServeEngine {
        let mut engine = demo_engine(2, 2, ServeConfig::default());
        let mut batch = EventColumns::default();
        batch.push_resolved(1, 0, AccessKind::Read, 0.75);
        batch.push_resolved(2, 3, AccessKind::Write, 0.5);
        batch.push_resolved(3, 1, AccessKind::Read, f64::NAN);
        engine.ingest_sequenced(0, &batch).unwrap();
        engine.advance(15);
        engine.reoptimize().unwrap();
        engine
            .resolve(&[None, Some(ShardFault::SolveFailure)])
            .unwrap();
        let mut early = EventColumns::default();
        early.push_resolved(16, 2, AccessKind::Read, 1.0);
        engine.ingest_sequenced(4, &early).unwrap();
        engine
    }

    fn restore_demo(bytes: &[u8]) -> Result<ServeEngine, ServeError> {
        ServeEngine::restore(
            scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
            schemes(),
            bytes,
        )
    }

    /// `bytes`, checked to end in the XXH64 of everything before its
    /// 8-byte trailer.
    fn sealed(bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        assert_eq!(bytes[body..], xxh64(&bytes[..body]).to_le_bytes());
        bytes
    }

    /// Both snapshots of `engine`, each [`sealed`], taken twice: the first
    /// pair may fill the engine's prefix hash states, the second resumes
    /// from them.
    fn sealed_snapshots(engine: &ServeEngine) -> [Vec<u8>; 2] {
        let snapshots = [engine.checkpoint(), engine.checkpoint_dynamic()].map(sealed);
        assert_eq!(
            [engine.checkpoint(), engine.checkpoint_dynamic()].map(sealed),
            snapshots
        );
        snapshots
    }

    #[test]
    fn every_snapshot_trailer_is_the_xxh64_of_the_bytes_before_it() {
        let catalog = scope_cloudsim::TierCatalog::azure_hot_cool_archive;
        let empty = ServeEngine::new(catalog(), schemes(), ServeConfig::default()).unwrap();
        sealed_snapshots(&empty);
        let mut engine = eventful_engine();
        let before = sealed_snapshots(&engine);
        // An epoch moves the counters and the columns, not the prefix.
        let mut batch = EventColumns::default();
        batch.push_resolved(16, 1, AccessKind::Read, 2.0);
        engine.deliver(engine.next_seq(), &batch).unwrap();
        engine.advance(30);
        engine.reoptimize().unwrap();
        let moved = sealed_snapshots(&engine);
        assert_ne!(moved, before);
        // A registration between two snapshots, into an existing account
        // and into a new one: each grows the prefix.
        for account in ["acct-0", "acct-new"] {
            let name = format!("late-{account}");
            engine
                .register(ServeObject::new(name, account, 2.5, TierId(0)))
                .unwrap();
            let grown = sealed_snapshots(&engine);
            assert_ne!(grown[0].len(), moved[0].len());
        }
        let [full, dynamic] = sealed_snapshots(&engine);
        // A restored engine keeps no state of its donor's hashing.
        let restored = restore_demo(&full).unwrap();
        assert_eq!(sealed_snapshots(&restored), [full.clone(), dynamic.clone()]);
        let restored = ServeEngine::restore_dynamic(catalog(), schemes(), &full, &dynamic).unwrap();
        assert_eq!(sealed_snapshots(&restored), [full, dynamic]);
    }

    #[test]
    fn checkpoint_equals_checkpoint_into_after_arbitrary_existing_bytes() {
        let engine = eventful_engine();
        let snapshot = engine.checkpoint();
        let dynamic = engine.checkpoint_dynamic();
        for prefix in [
            &b""[..],
            b"x",
            b"WCKP\x02\0\0\0 a frame header of some length",
        ] {
            let mut buf = prefix.to_vec();
            engine.checkpoint_into(&mut buf);
            assert_eq!(&buf[..prefix.len()], prefix);
            assert_eq!(&buf[prefix.len()..], &snapshot[..]);
            // An engine whose first snapshots go behind the bytes keeps
            // hash states of its own bytes only: they seal the same
            // snapshots taken into a fresh buffer afterwards.
            let fresh = eventful_engine();
            for (snapshot, into) in [
                (
                    &snapshot,
                    ServeEngine::checkpoint_into as fn(&ServeEngine, &mut Vec<u8>),
                ),
                (&dynamic, ServeEngine::checkpoint_dynamic_into),
            ] {
                let mut buf = prefix.to_vec();
                into(&fresh, &mut buf);
                assert_eq!(&sealed(buf[prefix.len()..].to_vec()), snapshot);
            }
            assert_eq!(
                sealed_snapshots(&fresh),
                [snapshot.clone(), dynamic.clone()]
            );
        }
        // The capacity hint is only a hint, but it should be a good one.
        let hint = engine.checkpoint_size_hint();
        assert!(
            hint >= snapshot.len() / 2 && hint <= snapshot.len() * 2,
            "hint {hint} for a {}-byte checkpoint",
            snapshot.len()
        );
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_checkpoint_is_a_typed_error() {
        let snapshot = eventful_engine().checkpoint();
        assert_eq!(restore_demo(&snapshot).unwrap().checkpoint(), snapshot);
        for byte in 0..snapshot.len() {
            for bit in 0..8 {
                let mut bad = snapshot.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(restore_demo(&bad), Err(ServeError::Checkpoint(_))),
                    "flip at byte {byte} bit {bit} restored"
                );
            }
        }
        for cut in 0..snapshot.len() {
            assert!(
                matches!(
                    restore_demo(&snapshot[..cut]),
                    Err(ServeError::Checkpoint(_))
                ),
                "prefix of {cut} bytes restored"
            );
        }
    }

    /// An `SCPK` version-7 checkpoint, byte for byte: [`golden_engine`]'s
    /// two objects in one account on [`golden_catalog`] /
    /// [`golden_schemes`] with explicit (non-default) configuration, one
    /// folded and one quarantined (NaN) event, one boundary at day 15 with
    /// a re-solve that moved both objects (`last_day` stays two `u32`
    /// cells: one run of two is no shorter), and a one-event batch (a write of 0.5 GB to object 1 on day 16) parked in
    /// the reorder buffer under sequence number 2, as a 30-byte column
    /// block. A layout change must bump `CHECKPOINT_VERSION` and replace
    /// these bytes on purpose.
    const GOLDEN_SCPK_V7: &str = "\
             5343504b070000006e4a1504387e4b0c3c000000000000000000004000000000\
             0000e03f0000000000000040000000000000f43f010000000000000004000000\
             0000000061636374020000000000000042000000000000000100000000000000\
             6100000000000000000000f83f07000000000000000000f07f01000000000000\
             00620000000000000000000010400000000000000000000002400f0000000000\
             0000000000000200000000000000010000000000000001000000000000000000\
             0000000000000100010100000000000000000000000000000000000000000000\
             103f0000000000000000000f0000000f00000000000000000000000002000000\
             000000000000000001000000010000000000c023400000000000802140000000\
             0000000000000000000000f23f00000000000000000000000000000000000400\
             0000000000010000000000000000000000000000000100000000000000010000\
             00000000000200000001000000000000000000f87f0001000000000000000200\
             0000000000001e00000000000000010000000100000001000000010000001000\
             00000101000000000000e03f8ace70079a75593f";

    /// The retired version-6 layout's fixture of the same scenario (the
    /// counters between the configuration and the accounts): kept to be
    /// refused.
    const GOLDEN_SCPK_V6: &str = "\
             5343504b060000006e4a1504387e4b0c3c000000000000000000004000000000\
             0000e03f0000000000000040000000000000f43f0f0000000000000000000000\
             0200000000000000010000000000000001000000000000000000000000000000\
             0100000000000000040000000000000061636374020000000000000042000000\
             0000000001000000000000006100000000000000000000f83f07000000000000\
             000000f07f010000000000000062000000000000000000001040000000000000\
             0000000002400100010100000000000000000000000000000000000000000000\
             103f0000000000000000000f0000000f00000000000000000000000002000000\
             000000000000000001000000010000000000c023400000000000802140000000\
             0000000000000000000000f23f00000000000000000000000000000000000400\
             0000000000010000000000000000000000000000000100000000000000010000\
             00000000000200000001000000000000000000f87f0001000000000000000200\
             0000000000001e00000000000000010000000100000001000000010000001000\
             00000101000000000000e03f7580e8130463eeb1";

    fn unhex(hex: &str) -> Vec<u8> {
        hex.as_bytes()
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn the_version_7_layout_is_pinned_by_a_golden_checkpoint() {
        let golden = unhex(GOLDEN_SCPK_V7);
        assert_eq!(golden.len(), 436);
        assert_eq!(golden_engine().checkpoint(), golden);
        assert_eq!(golden[..4], crate::checkpoint::CHECKPOINT_MAGIC);
        assert_eq!(golden[4], crate::checkpoint::CHECKPOINT_VERSION as u8);

        let restored = ServeEngine::restore(golden_catalog(), golden_schemes(), &golden).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.object_name(1), Some("b"));
        assert_eq!((restored.day(), restored.epoch()), (15, 1));
        // The fixture was taken at `threads: 1`; a snapshot does not say.
        assert_eq!(restored.config().threads, 0);
        assert_eq!(restored.placement(0), Some((TierId(1), 1)));
        assert_eq!(restored.placement(1), Some((TierId(0), 1)));
        assert_eq!(
            restored.heat(0).map(f64::to_bits),
            Some(0x3f10_0000_0000_0000)
        );
        assert_eq!(restored.quarantine().total(), 1);
        assert_eq!((restored.next_seq(), restored.pending_batches()), (1, 1));
        // The writer reproduces the fixture from the decoded state.
        assert_eq!(restored.checkpoint(), golden);
        // The heat column ends in object 1's zero heat; `last_day`
        // follows, tagged as cells.
        let last_day: [&[u8]; 3] = [&[0; 8], &[0], &[15, 0, 0, 0, 15, 0, 0, 0]];
        let at = 0xE2;
        assert_eq!(golden[at..at + 17], last_day.concat()[..]);
        // The pending section closes the payload: one batch, seq 2, and
        // its 30-byte block — four lengths of 1, day 16 (one day: a `u32`
        // cell), object 1 (a one-byte cell), a write, 0.5 GB.
        let pending: [&[u8]; 8] = [
            &[1, 0, 0, 0, 0, 0, 0, 0],
            &[2, 0, 0, 0, 0, 0, 0, 0],
            &[30, 0, 0, 0, 0, 0, 0, 0],
            &[1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],
            &[16, 0, 0, 0],
            &[1],
            &[1],
            &[0, 0, 0, 0, 0, 0, 0xE0, 0x3F],
        ];
        let pending = pending.concat();
        let end = golden.len() - 8;
        assert_eq!(golden[end - pending.len()..end], pending[..]);

        // A real version-6 snapshot is refused by name, not misread. Its
        // bytes are these but for the version, the trailer and where the
        // 44 bytes of counters sit: before the accounts.
        let retired = unhex(GOLDEN_SCPK_V6);
        let (counters, accounts, section_end) = (0x34, 0x60, 0xC6);
        let moved = [
            &retired[..counters],
            &retired[accounts..section_end],
            &retired[counters..accounts],
            &retired[section_end..retired.len() - 8],
        ]
        .concat();
        assert_eq!(moved[5..], golden[5..golden.len() - 8]);
        let reason = checkpoint_error(ServeEngine::restore(
            golden_catalog(),
            golden_schemes(),
            &retired,
        ));
        assert!(reason.contains("unsupported version 6"), "{reason}");
    }

    #[test]
    fn last_day_goes_out_as_one_run_after_a_boundary() {
        // Four objects, all brought to day 15: one run, tagged 1.
        let engine = eventful_engine();
        let snapshot = engine.checkpoint();
        let run: [&[u8]; 3] = [&[1], &15u32.to_le_bytes(), &4u32.to_le_bytes()];
        assert!(snapshot.windows(9).any(|w| w == run.concat()));
        assert_eq!(restore_demo(&snapshot).unwrap().checkpoint(), snapshot);
        // Mid-epoch, reads have moved two objects on: three runs of four
        // days are cells again, and restore just as exactly.
        let mut engine = engine;
        let mut batch = EventColumns::default();
        batch.push_resolved(20, 0, AccessKind::Read, 1.0);
        batch.push_resolved(21, 3, AccessKind::Read, 1.0);
        engine.deliver(engine.next_seq(), &batch).unwrap();
        let snapshot = engine.checkpoint();
        assert!(!snapshot.windows(9).any(|w| w == run.concat()));
        let restored = restore_demo(&snapshot).unwrap();
        assert_eq!(restored.checkpoint(), snapshot);
        assert_eq!(
            restored.heat.iter().map(|h| h.last_day).collect::<Vec<_>>(),
            [20, 15, 15, 21]
        );
    }

    /// The dynamic snapshot of the engine [`GOLDEN_SCPK_V7`] holds: the
    /// same bytes less the static section, whose place its length (0x42)
    /// and XXH64 take, under the `SCPD` magic.
    const GOLDEN_SCPD_V7: &str = "\
             53435044070000006e4a1504387e4b0c3c000000000000000000004000000000\
             0000e03f0000000000000040000000000000f43f010000000000000004000000\
             000000006163637402000000000000004200000000000000bf78d6998edd4dc1\
             0f00000000000000000000000200000000000000010000000000000001000000\
             0000000000000000000000000100010100000000000000000000000000000000\
             000000000000103f0000000000000000000f0000000f00000000000000000000\
             000002000000000000000000000001000000010000000000c023400000000000\
             8021400000000000000000000000000000f23f00000000000000000000000000\
             0000000004000000000000010000000000000000000000000000000100000000\
             00000001000000000000000200000001000000000000000000f87f0001000000\
             0000000002000000000000001e00000000000000010000000100000001000000\
             01000000100000000101000000000000e03f7561baae2c9bd185";

    /// The version-6 dynamic snapshot of the same scenario: kept to be
    /// refused.
    const GOLDEN_SCPD_V6: &str = "\
             53435044060000006e4a1504387e4b0c3c000000000000000000004000000000\
             0000e03f0000000000000040000000000000f43f0f0000000000000000000000\
             0200000000000000010000000000000001000000000000000000000000000000\
             0100000000000000040000000000000061636374020000000000000042000000\
             00000000bf78d6998edd4dc10100010100000000000000000000000000000000\
             000000000000103f0000000000000000000f0000000f00000000000000000000\
             000002000000000000000000000001000000010000000000c023400000000000\
             8021400000000000000000000000000000f23f00000000000000000000000000\
             0000000004000000000000010000000000000000000000000000000100000000\
             00000001000000000000000200000001000000000000000000f87f0001000000\
             0000000002000000000000001e00000000000000010000000100000001000000\
             01000000100000000101000000000000e03f39973a27c699f847";

    #[test]
    fn the_dynamic_layout_is_pinned_by_a_golden_snapshot() {
        let full = unhex(GOLDEN_SCPK_V7);
        let golden = unhex(GOLDEN_SCPD_V7);
        assert_eq!(golden.len(), 378);
        assert_eq!(golden_engine().checkpoint_dynamic(), golden);
        let engine = ServeEngine::restore(golden_catalog(), golden_schemes(), &full).unwrap();
        assert_eq!(engine.checkpoint_dynamic(), golden);
        assert_eq!(golden[..4], crate::checkpoint::DYNAMIC_MAGIC);
        assert_eq!(golden[4], crate::checkpoint::CHECKPOINT_VERSION as u8);
        // Byte for byte the full layout around the static section.
        let (at, section) = (0x50, 8 + 0x42);
        assert_eq!(full[at..at + 8], 0x42u64.to_le_bytes());
        assert_eq!(golden[4..at], full[4..at]);
        assert_eq!(golden[at..at + 8], full[at..at + 8]);
        assert_eq!(
            golden[at + 8..at + 16],
            xxh64(&full[at + 8..at + section]).to_le_bytes()
        );
        assert_eq!(
            golden[at + 16..golden.len() - 8],
            full[at + section..full.len() - 8]
        );
        assert_eq!(golden.len(), full.len() - 0x42 + 8);
        assert_eq!(
            engine.static_digest(),
            StaticDigest {
                objects: 2,
                len: 0x42,
                xxh64: xxh64(&full[at + 8..at + section]),
            }
        );

        let restored =
            ServeEngine::restore_dynamic(golden_catalog(), golden_schemes(), &full, &golden)
                .unwrap();
        assert_eq!(restored.checkpoint(), full);
        assert_eq!(restored.checkpoint_dynamic(), golden);

        // The version-6 dynamic snapshot is refused by name too.
        let retired = unhex(GOLDEN_SCPD_V6);
        let reason = checkpoint_error(ServeEngine::restore_dynamic(
            golden_catalog(),
            golden_schemes(),
            &full,
            &retired,
        ));
        assert!(reason.contains("unsupported version 6"), "{reason}");
    }

    fn checkpoint_error(result: Result<ServeEngine, ServeError>) -> String {
        match result {
            Err(ServeError::Checkpoint(reason)) => reason,
            other => panic!("not a checkpoint error: {other:?}"),
        }
    }

    #[test]
    fn restore_trusts_only_a_ledger_this_engine_could_have_written() {
        let mut engine = demo_engine(1, 3, ServeConfig::default());
        let mut batch = EventColumns::default();
        batch.push_resolved(1, 0, AccessKind::Read, f64::NAN);
        batch.push_resolved(2, 1, AccessKind::Read, -1.0);
        engine.deliver(0, &batch).unwrap();
        let snapshot = engine.checkpoint();
        // The ledger's capacity, total, truncated and record count come
        // before its two 25-byte records, the empty reorder buffer's count
        // and the checksum (see the `checkpoint` module docs).
        let ledger = snapshot.len() - 8 - 8 - 2 * 25 - 4 * 8;
        let resealed = |field: usize, value: u64| {
            let mut bytes = snapshot.clone();
            bytes[ledger + 8 * field..][..8].copy_from_slice(&value.to_le_bytes());
            let body = bytes.len() - 8;
            let seal = scope_wal::xxh64(&bytes[..body]);
            bytes[body..].copy_from_slice(&seal.to_le_bytes());
            restore_demo(&bytes)
        };
        assert_eq!(restore_demo(&snapshot).unwrap().checkpoint(), snapshot);
        let capacity = crate::quarantine::DEFAULT_QUARANTINE_CAPACITY as u64;
        let unchanged = resealed(0, capacity).unwrap();
        assert_eq!(unchanged.quarantine(), engine.quarantine());
        assert_eq!(unchanged.checkpoint(), snapshot);
        // A lifted or shrunk bound; a total that hides records (so
        // `is_clean` would call a dirty ledger clean) or claims more than
        // are kept; a record count that disagrees with both.
        for (field, value) in [(0, u64::MAX), (0, 1), (1, 0), (1, 1), (1, 5), (3, 1)] {
            let reason = checkpoint_error(resealed(field, value));
            assert!(
                reason.contains("quarantine"),
                "field {field} = {value}: {reason}"
            );
        }
    }

    #[test]
    fn restore_refuses_heat_no_engine_could_have_written() {
        let engine = golden_engine();
        let snapshot = engine.checkpoint();
        // The heat column, then the bucket representatives right before
        // it (see the `checkpoint` module docs).
        let heats: Vec<u8> = engine
            .heat
            .iter()
            .flat_map(|h| h.value.to_bits().to_le_bytes())
            .collect();
        let at = snapshot
            .windows(heats.len())
            .position(|w| w == heats)
            .expect("the heat column is in the snapshot");
        let reps_at = at - heats.len();
        let restore_with = |cell: usize, value: f64| {
            let mut bytes = snapshot.clone();
            bytes[cell..][..8].copy_from_slice(&value.to_bits().to_le_bytes());
            let body = bytes.len() - 8;
            let seal = scope_wal::xxh64(&bytes[..body]);
            bytes[body..].copy_from_slice(&seal.to_le_bytes());
            ServeEngine::restore(golden_catalog(), golden_schemes(), &bytes)
        };
        // The cells found are the ones a restore reads: a value an engine
        // could hold (a decayed read, +0.0) round-trips through them.
        for value in [0.75, 0.0] {
            let restored = restore_with(at + 8, value).unwrap();
            assert_eq!(restored.heat(1).map(f64::to_bits), Some(value.to_bits()));
            let restored = restore_with(reps_at, value).unwrap();
            assert_eq!(restored.bucket_reps[0].to_bits(), value.to_bits());
        }
        for value in [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            for (cell, what) in [(at, "heat"), (at + 8, "heat"), (reps_at + 8, "bucket")] {
                let reason = checkpoint_error(restore_with(cell, value));
                assert!(reason.contains(what), "{what} {value:?}: {reason}");
            }
        }
    }

    #[test]
    fn a_dynamic_snapshot_restores_over_any_full_one_of_the_same_objects() {
        // The full snapshot is taken early; the engine then lives on.
        let mut engine = demo_engine(2, 2, ServeConfig::default());
        let early = engine.checkpoint();
        let mut batch = EventColumns::default();
        batch.push_resolved(1, 0, AccessKind::Read, 0.75);
        batch.push_resolved(3, 1, AccessKind::Read, f64::NAN);
        engine.ingest_sequenced(0, &batch).unwrap();
        engine.advance(15);
        engine.reoptimize().unwrap();
        let (full, dynamic) = (engine.checkpoint(), engine.checkpoint_dynamic());
        assert!(dynamic.len() < full.len());
        for donor in [&early, &full] {
            let restored = ServeEngine::restore_dynamic(
                scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
                schemes(),
                donor,
                &dynamic,
            )
            .unwrap();
            assert_eq!(restored.checkpoint(), full);
        }

        // Each offered in the other's place is a typed error.
        let restore_dynamic = |full: &[u8], dynamic: &[u8]| {
            ServeEngine::restore_dynamic(
                scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
                schemes(),
                full,
                dynamic,
            )
        };
        let reason = checkpoint_error(restore_demo(&dynamic));
        assert!(reason.contains("bad magic"), "{reason}");
        let reason = checkpoint_error(restore_dynamic(&full, &full));
        assert!(reason.contains("bad magic"), "{reason}");
        let reason = checkpoint_error(restore_dynamic(&dynamic, &dynamic));
        assert!(reason.contains("bad magic"), "{reason}");

        // A registration after the full snapshot changes the digest: the
        // old full one no longer carries this engine's static section.
        let at = engine.len();
        engine
            .register(ServeObject::new("late", "acct-0", 2.5, TierId(0)))
            .unwrap();
        assert_eq!(engine.static_digest().objects, at as u64 + 1);
        let grown = engine.checkpoint_dynamic();
        let reason = checkpoint_error(restore_dynamic(&full, &grown));
        assert!(reason.contains("static digest mismatch"), "{reason}");
        let restored = restore_dynamic(&engine.checkpoint(), &grown).unwrap();
        assert_eq!(restored.checkpoint(), engine.checkpoint());
        // And the other way round: a full snapshot of more objects.
        let reason = checkpoint_error(restore_dynamic(&engine.checkpoint(), &dynamic));
        assert!(reason.contains("static digest mismatch"), "{reason}");
    }

    #[test]
    fn every_bit_flip_and_truncation_of_a_dynamic_snapshot_is_a_typed_error() {
        let engine = eventful_engine();
        let (full, dynamic) = (engine.checkpoint(), engine.checkpoint_dynamic());
        let restore = |dynamic: &[u8]| {
            ServeEngine::restore_dynamic(
                scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
                schemes(),
                &full,
                dynamic,
            )
        };
        assert_eq!(restore(&dynamic).unwrap().checkpoint(), full);
        for byte in 0..dynamic.len() {
            for bit in 0..8 {
                let mut bad = dynamic.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(restore(&bad), Err(ServeError::Checkpoint(_))),
                    "flip at byte {byte} bit {bit} restored"
                );
            }
        }
        for cut in 0..dynamic.len() {
            assert!(
                matches!(restore(&dynamic[..cut]), Err(ServeError::Checkpoint(_))),
                "prefix of {cut} bytes restored"
            );
        }
        // The donor is outside input too: a damaged one is refused whole.
        for byte in (0..full.len()).step_by(7) {
            let mut bad = full.clone();
            bad[byte] ^= 0x10;
            assert!(matches!(
                ServeEngine::restore_dynamic(
                    scope_cloudsim::TierCatalog::azure_hot_cool_archive(),
                    schemes(),
                    &bad,
                    &dynamic,
                ),
                Err(ServeError::Checkpoint(_))
            ));
        }
    }

    fn golden_catalog() -> scope_cloudsim::TierCatalog {
        use scope_cloudsim::Tier;
        scope_cloudsim::TierCatalog::new(vec![
            Tier::new("fast", 2.0, 0.5, 0.25, 0.01),
            Tier::new("cold", 0.5, 4.0, 1.0, 2.0).with_early_deletion_days(30),
        ])
        .unwrap()
    }

    /// The engine the golden snapshots hold, built from scratch.
    fn golden_engine() -> ServeEngine {
        let config = ServeConfig {
            horizon_days: 60,
            horizon_months: 2.0,
            decay_per_day: 0.5,
            bucket_base: 2.0,
            bucket_hysteresis: 1.25,
            threads: 1,
        };
        let mut engine = ServeEngine::new(golden_catalog(), golden_schemes(), config).unwrap();
        engine
            .register(ServeObject::new("a", "acct", 1.5, TierId(0)).with_residency_days(7))
            .unwrap();
        engine
            .register(ServeObject::new("b", "acct", 4.0, TierId(0)).with_latency_threshold(2.25))
            .unwrap();
        let mut batch = EventColumns::default();
        batch.push_resolved(1, 0, AccessKind::Read, 1.0);
        batch.push_resolved(2, 1, AccessKind::Read, f64::NAN);
        engine.ingest_sequenced(0, &batch).unwrap();
        engine.advance(15);
        engine.reoptimize().unwrap();
        let mut early = EventColumns::default();
        early.push_resolved(16, 1, AccessKind::Write, 0.5);
        engine.ingest_sequenced(2, &early).unwrap();
        engine
    }

    fn golden_schemes() -> Vec<CompressionOption> {
        vec![
            CompressionOption::none(),
            CompressionOption::new("lz", 2.0, 0.5),
        ]
    }

    #[test]
    fn applied_moves_update_placements_and_dirty_the_rows() {
        let mut engine = demo_engine(1, 8, ServeConfig::default());
        // Cold resolve decides initial placements (heat 0 -> cheapest
        // feasible tier for every object).
        let first = engine.reoptimize().unwrap();
        assert_eq!(first.rows_patched, 8);
        for id in 0..engine.len() as u32 {
            let (tier, scheme) = engine.placement(id).unwrap();
            let shard_choice = first.accounts[0].assignment.choices[id as usize];
            assert_eq!((tier, scheme), shard_choice);
        }
        // Without new events or heat changes, the next epoch only patches
        // rows whose placement moved last epoch, and decides nothing new.
        let second = engine.reoptimize().unwrap();
        assert_eq!(second.rows_patched, first.retier_decisions);
        assert_eq!(second.retier_decisions, 0);
        assert_eq!(
            second.total_objective.to_bits(),
            reference::total_objective(&reference::full_resolve(&engine).unwrap()).to_bits()
        );
    }

    /// Heat decay: the `decay^k` table against the `powi` oracle, and the
    /// gaps past `i32::MAX` that `powi`'s exponent cannot hold.
    mod decay {
        use super::*;
        use proptest::prelude::*;

        fn decay_engine(objects: usize, decay_per_day: f64, horizon_days: u32) -> ServeEngine {
            let config = ServeConfig {
                decay_per_day,
                horizon_days,
                ..ServeConfig::default()
            };
            demo_engine(1, objects, config)
        }

        /// Everything the intake and the decay write: heat bits and
        /// `last_day` per object, the drop and event counters, the ledger.
        type Folded = (Vec<(u64, u32)>, u64, u64, QuarantineLedger);

        fn folded(engine: &ServeEngine) -> Folded {
            (
                engine
                    .heat
                    .iter()
                    .map(|h| (h.value.to_bits(), h.last_day))
                    .collect(),
                engine.dropped_events,
                engine.events_seen,
                engine.quarantine.clone(),
            )
        }

        /// A batch of 1–12 events around `clock` (never past `span - 1`),
        /// drawn from `word`: some past the horizon, some earlier than the
        /// clock, unknown ids, NaN, infinite and negative volumes, and one
        /// batch in five torn.
        fn batch(word: u64, clock: u32, span: u32, horizon: u32, objects: usize) -> EventColumns {
            let mut cols = EventColumns::default();
            let mut state = word;
            for _ in 0..1 + word % 12 {
                let draw = lcg(&mut state);
                let jitter = (draw >> 20) % 40;
                let day = match draw % 16 {
                    0 => horizon.saturating_add(jitter),
                    1 => u32::MAX,
                    2 => clock.saturating_sub(jitter),
                    _ => clock.saturating_add(jitter).min(span - 1),
                };
                let id = match (draw >> 4) % 8 {
                    0 => UNKNOWN_OBJECT,
                    1 => (objects as u32) + (draw >> 8) % 3,
                    _ => (draw >> 8) % objects as u32,
                };
                let kind = if (draw >> 7) % 5 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let volume = match (draw >> 11) % 16 {
                    0 => f64::NAN,
                    1 => -1.5,
                    2 => f64::INFINITY,
                    _ => 0.25 + f64::from((draw >> 15) % 8),
                };
                cols.push_resolved(day, id, kind, volume);
            }
            if word % 5 == 0 {
                let short = cols.len().saturating_sub(1 + (word >> 3) as usize % 2);
                match (word >> 5) % 4 {
                    0 => cols.days.truncate(short),
                    1 => cols.object_ids.truncate(short),
                    2 => cols.kinds.truncate(short),
                    _ => cols.volumes.truncate(short),
                }
            }
            cols
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The table — and `powi` past it — folds every heat counter
            /// to the oracle's bits: any decay in (0, 1], horizons on both
            /// sides of the table's cap, corrupt and torn batches
            /// delivered reordered and duplicated, boundaries at any day.
            /// Days stay below 2^31, where the oracle's exponent cast does
            /// not wrap.
            #[test]
            fn the_decay_table_folds_heat_to_the_powi_oracles_bits(
                decay_draw in 0.0f64..1.0,
                shape in any::<u64>(),
                rounds in proptest::collection::vec(any::<u64>(), 1..40),
            ) {
                let decay = match shape % 3 {
                    0 => 1.0,
                    1 => 1.0 - decay_draw * 1e-6,
                    _ => 1.0 - decay_draw,
                };
                let horizon = match (shape >> 2) % 4 {
                    0 => 1 + (shape >> 8) as u32 % 64,
                    1 => 3_000 + (shape >> 8) as u32 % 3_000,
                    2 => ((shape >> 8) as u32).max(1),
                    _ => u32::MAX,
                };
                let span = horizon.min(1 << 31);
                let objects = 1 + (shape >> 4) as usize % 5;
                let (mut fast, mut oracle) = (
                    decay_engine(objects, decay, horizon),
                    decay_engine(objects, decay, horizon),
                );
                let (mut seq, mut clock) = (0u64, 0u32);
                for word in rounds {
                    let step = match (word >> 14) % 4 {
                        0 => 0,
                        1 => 1 + (word >> 20) as u32 % 7,
                        2 => 1 + (word >> 20) as u32 % 5_000,
                        _ => 1 + (word >> 20) as u32 % (1 << 30),
                    };
                    clock = clock.saturating_add(step).min(span - 1);
                    let n = 1 + word % 3;
                    let batches: Vec<EventColumns> = (0..n)
                        .map(|i| batch(word.rotate_left(9 * i as u32), clock, span, horizon, objects))
                        .collect();
                    let mut want = IngestReport::default();
                    for cols in &batches {
                        want.merge(reference::ingest_reference(&mut oracle, cols));
                    }
                    // In order; last first, so the rest park; or each
                    // twice and the round's first once more.
                    let order: Vec<u64> = match (word >> 10) % 3 {
                        0 => (0..n).collect(),
                        1 => (0..n).rev().collect(),
                        _ => (0..n).flat_map(|i| [i, i]).chain([0]).collect(),
                    };
                    let mut got = IngestReport::default();
                    for i in order {
                        got.merge(fast.ingest_sequenced(seq + i, &batches[i as usize]).unwrap());
                    }
                    seq += n;
                    prop_assert_eq!(fast.pending_batches(), 0);
                    prop_assert_eq!(got, want);
                    if (word >> 12) % 3 == 0 {
                        let day = match (word >> 50) % 3 {
                            0 => clock,
                            1 => clock.saturating_add((word >> 52) as u32 % 6_000),
                            _ => (word >> 33) as u32 % (1 << 31),
                        }
                        .min(i32::MAX as u32);
                        fast.advance(day);
                        reference::advance_reference(&mut oracle, day);
                        clock = clock.max(day).min(span - 1);
                    }
                    prop_assert_eq!(folded(&fast), folded(&oracle));
                }
            }

            /// A decay below 1 never raises heat, however far the clock
            /// jumps. A gap past `i32::MAX` used to wrap the exponent
            /// negative: at 0.98, one read at day 0 then `advance(u32::MAX)`
            /// left heat 1/0.98, and `advance(1 << 31)` left it infinite.
            #[test]
            fn advancing_to_a_later_day_never_raises_heat(
                decay_draw in 0.0f64..1.0,
                start in 0u32..u32::MAX,
                gaps in proptest::collection::vec(any::<u32>(), 1..8),
            ) {
                let decay = if decay_draw < 0.5 {
                    0.98
                } else {
                    1.0 - decay_draw * 1e-9
                };
                for day in [1 << 31, u32::MAX] {
                    let mut engine = decay_engine(1, decay, u32::MAX);
                    let mut cols = EventColumns::default();
                    cols.push_resolved(0, 0, AccessKind::Read, 1.0);
                    engine.deliver(0, &cols).unwrap();
                    engine.advance(day);
                    prop_assert!(engine.heat(0).unwrap() <= 1.0, "advance({day}) at {decay}");
                }
                // Object 1 is read at day 0 and object 0 at `start`; the
                // clock then jumps by random gaps up to `u32::MAX`.
                let mut engine = decay_engine(2, decay, u32::MAX);
                let mut cols = EventColumns::default();
                cols.push_resolved(0, 1, AccessKind::Read, 1.0);
                cols.push_resolved(start, 0, AccessKind::Read, 1.0);
                engine.deliver(0, &cols).unwrap();
                let mut day = start;
                for gap in gaps {
                    let before = [engine.heat(0).unwrap(), engine.heat(1).unwrap()];
                    day = day.saturating_add(gap);
                    engine.advance(day);
                    let after = [engine.heat(0).unwrap(), engine.heat(1).unwrap()];
                    prop_assert!(after[0] <= before[0] && after[1] <= before[1],
                        "advance({day}) at {decay}: {before:?} -> {after:?}");
                }
            }
        }

        #[test]
        fn a_u32_max_horizon_keeps_the_table_bounded_and_folds_through_powi() {
            // Close enough to 1 that a 2^31-day gap leaves heat to compare.
            let decay = 1.0 - 1e-10;
            let mut engine = decay_engine(1, decay, u32::MAX);
            let mut oracle = decay_engine(1, decay, u32::MAX);
            assert_eq!(engine.decay.pows.len(), DECAY_TABLE_MAX);
            // Every gap is past the table and at most `i32::MAX`, where
            // the oracle's exponent cast does not wrap.
            let days = [0, 4_096, 4_096 + i32::MAX as u32, u32::MAX - 1, u32::MAX];
            for (seq, day) in days.into_iter().enumerate() {
                let mut cols = EventColumns::default();
                cols.push_resolved(day, 0, AccessKind::Read, 1.0);
                assert_eq!(
                    engine.deliver(seq as u64, &cols).unwrap(),
                    reference::ingest_reference(&mut oracle, &cols)
                );
                assert_eq!(folded(&engine), folded(&oracle), "day {day}");
            }
            assert_eq!(engine.heat[0].last_day, u32::MAX - 1);
            assert_eq!(engine.dropped_events(), 1);
            assert!(engine.heat(0).unwrap() > 2.0);
        }
    }
}
