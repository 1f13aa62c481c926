//! Preserved full-resolve path: the batch oracle the incremental engine
//! is pinned against.
//!
//! [`full_resolve`] re-solves every account shard cold — a from-scratch
//! [`solve_greedy`] (its own [`CostTable`](scope_optassign::CostTable)
//! build, every row decided) over the engine's *current* bucketed heat
//! state — exactly what a batch deployment of the optimizer would do each
//! epoch. `crates/serve/tests/incremental_equivalence.rs` and
//! `tests/integration_serving.rs` assert that
//! [`Serving::resolve`](crate::Serving::resolve) reproduces
//! this bit-for-bit on every epoch; the incremental path earns its speedup
//! purely by skipping work, never by approximating.
//!
//! [`ingest_reference`] and [`advance_reference`] are the heat folds as
//! they were before the engine read `decay^k` from a table: one `powi`
//! per folded event and one per object at a boundary. They are the
//! oracle the table is pinned against, for every day gap up to
//! `i32::MAX` — past it their exponent cast wraps negative, which the
//! engine's fallback does not. That is all they check: `ingest_reference`
//! runs the engine's own intake loop with `powi` for the table, so the
//! intake's validation — drop, quarantine, skip, torn prefix — has one
//! independent oracle, `scope_faults::expected_intake`.

use scope_cloudsim::EventColumns;
use scope_optassign::solve_greedy;

use crate::engine::{AccountAssignment, IngestReport, ServeEngine};
use crate::error::ServeError;

/// Cold from-scratch solve of every account shard, in account order,
/// over the engine's current state. The engine itself is untouched: no
/// tables are patched, no placements applied, no dirty rows consumed.
pub fn full_resolve(engine: &ServeEngine) -> Result<Vec<AccountAssignment>, ServeError> {
    let mut accounts = Vec::new();
    for shard in engine.shards() {
        accounts.push(AccountAssignment {
            account: shard.account.clone(),
            assignment: solve_greedy(&shard.problem)?,
            stale: false,
        });
    }
    Ok(accounts)
}

/// Total objective across account assignments, summed in account order —
/// the same order the incremental merge uses, so totals from both paths
/// are bit-comparable.
pub fn total_objective(accounts: &[AccountAssignment]) -> f64 {
    accounts.iter().map(|a| a.assignment.objective).sum()
}

/// The fold behind [`Serving::deliver`](crate::Serving::deliver) with the
/// decay factor computed per event: the engine's own intake loop, handed
/// `powi` in place of its table (and no sequence number: the batch is
/// folded as it comes).
pub fn ingest_reference(engine: &mut ServeEngine, columns: &EventColumns) -> IngestReport {
    let decay_per_day = engine.config().decay_per_day;
    engine.fold(columns, |_, gap| decay_per_day.powi(gap as i32))
}

/// [`Serving::advance_to`](crate::Serving::advance_to) with the decay
/// factor computed per object: every counter is decayed to `day` here, so
/// the engine's own pass that follows only moves the clock and re-buckets.
pub fn advance_reference(engine: &mut ServeEngine, day: u32) {
    let decay_per_day = engine.config().decay_per_day;
    for h in &mut engine.heat {
        if day > h.last_day {
            h.value *= decay_per_day.powi((day - h.last_day) as i32);
            h.last_day = day;
        }
    }
    engine.advance(day);
}
