//! Incremental serving engine over the streaming billing loop.
//!
//! The optimizer crates below this one are batch-only: every solve builds
//! a dense [`scope_optassign::CostTable`], solves, and discards — fine for
//! a one-shot experiment, useless for the north-star of re-optimizing
//! millions of objects as access events stream in. This crate is the
//! long-running form:
//!
//! * [`ServeEngine`] holds per-object state — interned id, current
//!   `tier + compression` placement, and a heat counter with day-bucketed
//!   exponential decay — grouped into per-account shards.
//! * [`Serving`] is the serving loop's one step API — deliver, advance,
//!   re-solve, make the boundary durable — implemented by the plain
//!   engine and by the journaled one (below), one body per step each.
//! * [`Serving::deliver`] folds [`scope_cloudsim::EventColumns`]
//!   batches into per-object heat deltas in bounded memory (no event is
//!   retained), counting out-of-horizon events exactly as the billing
//!   engine's `dropped_events` does.
//! * [`Serving::advance_to`] decays heat to the epoch boundary and
//!   re-buckets it geometrically; only objects whose heat crossed a bucket
//!   boundary are marked dirty.
//! * [`Serving::resolve`] re-solves incrementally: dirty rows are
//!   re-evaluated in place with [`scope_optassign::CostTable::patch_rows`]
//!   (bit-identical to a from-scratch build), the greedy choice is
//!   recomputed for exactly those rows, and account shards fan out over
//!   the deterministic [`scope_cloudsim::parallel`] primitives with an
//!   in-order merge — once per re-solve, on the worker count
//!   [`ServeConfig::threads`] resolves to, with nothing underneath fanning
//!   out again — so the outcome is bit-for-bit identical for any thread
//!   count. Per-row greedy is the one re-solve rule: it is exact when no
//!   tier reserves capacity (Theorem 3), and [`ServeEngine::new`] refuses
//!   a catalog whose tiers reserve any.
//! * [`reference::full_resolve`] is the preserved batch path: a cold
//!   from-scratch `solve_greedy` per shard over the same state, pinned
//!   bit-for-bit equal to the incremental path on every epoch by
//!   `crates/serve/tests/incremental_equivalence.rs` and, through the
//!   lockstep driver, by `tests/integration_serving.rs`.
//!
//! # Failure model
//!
//! The engine is built to keep serving — deterministically — under three
//! classes of fault, each with an *exact* recovery contract (exercised by
//! the `scope-faults` plans and the `tests/integration_chaos.rs` suite):
//!
//! * **Malformed intake.** [`Serving::deliver`] validates every event
//!   with [`scope_cloudsim::classify`], the billing replay's own rule:
//!   out-of-horizon events are dropped (counted in `dropped_events`), NaN
//!   and negative volumes are diverted into the typed, bounded
//!   [`QuarantineLedger`] instead of poisoning heat, and torn batches
//!   (parallel columns of unequal length) ingest their
//!   [`usable_prefix`](scope_cloudsim::EventColumns::usable_prefix) with
//!   the lost tail counted. Decisions are made strictly in event order —
//!   drop first, then quarantine, then unknown-object skip — so a batch
//!   stream produces the identical ledger however it is split.
//!   Deliveries carry producer-assigned sequence numbers into a bounded
//!   reorder buffer: duplicated and locally reordered deliveries fold
//!   exactly once, and overflow is a typed
//!   [`ServeError::IntakeOverflow`], never silent loss — a refused
//!   delivery changes nothing, and the journaled engine does not log it.
//! * **Compute faults.** [`Serving::resolve`] accepts per-shard fault
//!   injections ([`ShardFault`]: solver failure or deadline overrun). A
//!   faulted shard serves its stored incumbent placement verbatim —
//!   marked stale, objective bits unchanged — and retries after a
//!   bounded, deterministic exponential backoff counted in epochs (0, 1, 3, then 7 skipped epochs). Its dirty-row worklist
//!   is preserved across failures, so the first healthy re-solve
//!   re-converges to exactly the placement the cold reference computes
//!   from the same state. Healthy shards are never affected: the fan-out
//!   merges per-shard results in shard order.
//! * **Crashes.** [`ServeEngine::checkpoint`] serializes the complete
//!   dynamic state (interned ids, placements, heat, degraded-shard state,
//!   quarantine ledger, reorder buffer) into a versioned, checksummed
//!   image (see [`checkpoint`] for the wire format and versioning rules).
//!   [`ServeEngine::restore`] + replay of the surviving batches is
//!   bit-for-bit equal to never having crashed — checkpoints compare as
//!   raw bytes. Corrupt, truncated, or mismatched images are typed
//!   [`ServeError::Checkpoint`] errors, never panics.
//!
//! # Durability and recovery
//!
//! [`JournaledEngine`] (see [`journal`]) closes the crash story end to
//! end, as the same [`Serving`] steps around the plain engine's: every
//! accepted batch is appended to a segmented, checksum-framed
//! write-ahead journal (`scope-wal`) *before* it mutates engine state,
//! synced at epoch boundaries, and checkpoints are published atomically
//! through the same storage with covered segments retired — a full
//! snapshot twice, then per epoch only the dynamic part
//! ([`ServeEngine::checkpoint_dynamic`]), which restores over either full
//! one ([`ServeEngine::restore_dynamic`]).
//! [`JournaledEngine::recover`] is the single recovery protocol — newest
//! valid checkpoint (walking back past corrupt ones), truncate the torn
//! tail, quarantine corrupt interior records with typed errors, replay
//! the tail through the validating intake — and is pinned bit-for-bit
//! equal to a never-crashed engine after a crash at every storage
//! operation of a fixed run, clean or with the unsynced tail torn, and
//! after a second crash inside the recovery or the resumed run
//! ([`journal`]'s tests), and under arbitrary truncations and bit flips of
//! durable objects (`tests/integration_recovery.rs`).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod journal;
pub mod quarantine;
pub mod reference;

mod error;
mod serving;

pub use engine::{
    AccountAssignment, IngestReport, ResolveOutcome, ServeConfig, ServeEngine, ServeObject,
    ShardFault,
};
pub use error::ServeError;
pub use journal::{JournaledEngine, RecoveryReport};
pub use quarantine::{QuarantineLedger, QuarantineReason, QuarantinedEvent};
pub use serving::Serving;

// The vocabulary types callers need to drive the engine, re-exported so
// downstream crates don't have to depend on the optimizer directly.
pub use scope_optassign::{Assignment, CompressionOption};
