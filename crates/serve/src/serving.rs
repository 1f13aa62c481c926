//! The one serving step API (see [`Serving`]).

use crate::engine::{IngestReport, ResolveOutcome, ServeEngine, ShardFault};
use crate::error::ServeError;
use scope_cloudsim::EventColumns;

/// The serving loop's one step API.
///
/// SCOPe's serving loop has four steps: deliver a sequenced batch, advance
/// the clock to an epoch boundary, re-solve, and make the boundary
/// durable. [`ServeEngine`] implements them as the engine itself;
/// [`JournaledEngine`] implements them as the same engine plus the
/// journal — an append before the fold, a boundary marker and a sync
/// before the advance, a published checkpoint at the boundary — so a step
/// has one body per engine, and a driver written against the trait (the
/// lockstep scenarios, the differential tests) runs either engine
/// unchanged.
///
/// [`JournaledEngine`]: crate::JournaledEngine
pub trait Serving {
    /// The engine state the steps act on.
    fn engine(&self) -> &ServeEngine;

    /// Exactly-once intake of producer-sequenced batch `seq` over an
    /// at-least-once delivery: the batch is folded if it is the next
    /// expected one (then any consecutive buffered successors are
    /// drained), parked if it arrived early, and counted as a duplicate if
    /// it was already folded or parked — so any duplicated or locally
    /// reordered delivery leaves the state an in-order one does, bit for
    /// bit. An early batch that finds the reorder buffer full is refused
    /// with [`ServeError::IntakeOverflow`] and changes nothing. The report
    /// sums over every batch this call folded.
    fn deliver(&mut self, seq: u64, batch: &EventColumns) -> Result<IngestReport, ServeError>;

    /// Epoch boundary: decay every heat counter to `day` and re-bucket,
    /// marking exactly the rows whose bucket changed as dirty.
    fn advance_to(&mut self, day: u32) -> Result<(), ServeError>;

    /// Re-solve incrementally and apply the result. `faults[i]`, when
    /// present and `Some`, makes shard `i`'s re-solve fail this epoch
    /// (the compute-fault hook; `&[]` is a healthy epoch).
    fn resolve(&mut self, faults: &[Option<ShardFault>]) -> Result<ResolveOutcome, ServeError>;

    /// Make the boundary durable; `marker` is the caller's position in its
    /// schedule, returned by recovery. A plain engine has nothing to make
    /// durable and does nothing.
    fn checkpoint_epoch(&mut self, marker: u64) -> Result<(), ServeError>;
}
