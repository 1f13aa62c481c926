//! Preserved full-resolve path: the batch oracle the incremental engine
//! is pinned against.
//!
//! [`full_resolve`] re-solves every account shard cold — a from-scratch
//! [`CostTable`](scope_optassign::CostTable) build and a fresh greedy (or
//! branch-and-bound) solve over the engine's *current* bucketed heat
//! state — exactly what a batch deployment of the optimizer would do each
//! epoch. `crates/serve/tests/incremental_equivalence.rs` and
//! `tests/integration_serving.rs` assert that
//! [`ServeEngine::reoptimize`](crate::ServeEngine::reoptimize) reproduces
//! this bit-for-bit on every epoch; the incremental path earns its speedup
//! purely by skipping work, never by approximating.

use scope_optassign::{solve_branch_and_bound, solve_greedy};

use crate::engine::{AccountAssignment, ServeEngine};
use crate::error::ServeError;

/// Cold from-scratch solve of every account shard, in account order,
/// over the engine's current state. The engine itself is untouched: no
/// tables are patched, no placements applied, no dirty rows consumed.
pub fn full_resolve(engine: &ServeEngine) -> Result<Vec<AccountAssignment>, ServeError> {
    let mut accounts = Vec::new();
    for shard in engine.shards() {
        let assignment = match engine.config().node_budget {
            None => solve_greedy(&shard.problem)?,
            Some(budget) => solve_branch_and_bound(&shard.problem, budget)?.0,
        };
        accounts.push(AccountAssignment {
            account: shard.account.clone(),
            assignment,
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
