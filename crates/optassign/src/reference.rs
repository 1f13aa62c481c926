//! The historical **model-driven** solver paths, preserved verbatim in
//! behaviour: every cost is evaluated through
//! [`OptAssignProblem::placement_cost`], which builds (clones) a fresh
//! [`CostModel`](scope_cloudsim::CostModel) per call.
//!
//! These are *not* the production entry points — [`crate::solve_greedy`]
//! and [`crate::solve_branch_and_bound`] search a precomputed
//! [`CostTable`](crate::costtable::CostTable) instead. The reference paths
//! exist as **differential oracles**: `tests/differential_costtable.rs`
//! pins the table-driven solvers bit-for-bit equal to these on random
//! single- and multi-provider instances, so the table engine can never
//! silently drift from the objective definition.
//!
//! The two branch-and-bound paths share their search core; the only
//! difference is whether a placement price is a table lookup or a fresh
//! model evaluation. Whether that core finds the optimum is checked apart
//! from it, against exhaustive enumeration in `tests/oracle_optassign.rs`.

use crate::error::OptAssignError;
use crate::ilp::{branch_and_bound_search, BranchAndBoundStats};
use crate::problem::{Assignment, OptAssignProblem};
use scope_cloudsim::TierId;

/// [`crate::solve_greedy`] evaluated through the model instead of a
/// [`CostTable`](crate::CostTable): per partition, scan every `(tier, scheme)` pair with
/// [`OptAssignProblem::min_feasible_cost`] (a catalog clone per price).
pub fn solve_greedy_reference(problem: &OptAssignProblem) -> Result<Assignment, OptAssignError> {
    problem.validate()?;
    let mut choices = Vec::with_capacity(problem.partitions.len());
    for p in &problem.partitions {
        match problem.min_feasible_cost(p) {
            Some((_, tier, k)) => choices.push((tier, k)),
            None => {
                return Err(OptAssignError::InfeasiblePartition {
                    partition: p.id,
                    name: p.name.clone(),
                })
            }
        }
    }
    Assignment::from_choices(problem, choices)
}

/// [`crate::solve_branch_and_bound`] with candidate lists evaluated through
/// the model: same search core, same visit order, same bound — only the
/// prices are recomputed per `(partition, tier, scheme)` instead of read
/// from the table.
pub fn solve_branch_and_bound_reference(
    problem: &OptAssignProblem,
    node_budget: u64,
) -> Result<(Assignment, BranchAndBoundStats), OptAssignError> {
    problem.validate()?;
    let mut candidates: Vec<Vec<(f64, TierId, usize)>> =
        Vec::with_capacity(problem.partitions.len());
    for p in &problem.partitions {
        let mut cands = Vec::new();
        for tier in problem.catalog.tier_ids() {
            for k in 0..p.compression_options.len() {
                if problem.is_feasible(p, tier, k) {
                    cands.push((problem.placement_cost(p, tier, k), tier, k));
                }
            }
        }
        if cands.is_empty() {
            return Err(OptAssignError::InfeasiblePartition {
                partition: p.id,
                name: p.name.clone(),
            });
        }
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        candidates.push(cands);
    }
    let (choices, stats) = branch_and_bound_search(problem, candidates, node_budget)?;
    let assignment = Assignment::from_choices(problem, choices)?;
    Ok((assignment, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CompressionOption, PartitionSpec};
    use crate::{solve_branch_and_bound, solve_greedy};
    use scope_cloudsim::TierCatalog;

    fn partition(id: usize, size: f64, accesses: f64) -> PartitionSpec {
        PartitionSpec::new(id, format!("p{id}"), size, accesses)
            .with_compression_option(CompressionOption::new("gzip", 4.0, 5.0))
            .with_compression_option(CompressionOption::new("snappy", 2.0, 0.5))
    }

    #[test]
    fn reference_solvers_agree_with_table_solvers_on_a_fixed_instance() {
        // The broad random coverage lives in the differential proptests;
        // this is the smoke check that the two families share semantics.
        let mut catalog = TierCatalog::azure_adls_gen2();
        catalog.set_capacity("Premium", 25.0).unwrap();
        let parts: Vec<_> = (0..6)
            .map(|i| partition(i, 20.0, (i * 100) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert_eq!(
            solve_greedy(&problem).unwrap(),
            solve_greedy_reference(&problem).unwrap()
        );
        let (table_bnb, table_stats) = solve_branch_and_bound(&problem, 1_000_000).unwrap();
        let (ref_bnb, ref_stats) = solve_branch_and_bound_reference(&problem, 1_000_000).unwrap();
        assert_eq!(table_bnb, ref_bnb);
        assert_eq!(table_stats, ref_stats);
    }

    #[test]
    fn reference_errors_match_table_errors() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![PartitionSpec::new(0, "p0", 10.0, 1.0).with_latency_threshold(1e-9)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(matches!(
            solve_greedy_reference(&problem),
            Err(OptAssignError::InfeasiblePartition { partition: 0, .. })
        ));
        assert!(matches!(
            solve_branch_and_bound_reference(&problem, 1000),
            Err(OptAssignError::InfeasiblePartition { partition: 0, .. })
        ));
    }
}
