//! Exact branch-and-bound solver for the capacity-constrained ILP.
//!
//! OPTASSIGN with per-tier capacity reservations is strongly NP-hard
//! (Theorem 1, by reduction from 3-PARTITION), so an exact solver must be
//! worst-case exponential. This branch-and-bound explores partitions in
//! decreasing-size order (the classic first-fail heuristic for packing
//! problems), tries each partition's feasible (tier, scheme) choices in
//! increasing-cost order, and prunes with the lower bound
//!
//! ```text
//! bound(node) = cost so far + Σ_{remaining p} min feasible cost of p
//! ```
//!
//! which ignores the capacity coupling and is therefore admissible. On the
//! capacity-free instances of the paper it collapses to the greedy solution
//! immediately; on 3-PARTITION-like instances it still finds the exact
//! optimum, just more slowly. Theorem 2's equal-size, uncompressed
//! instances are solved here too: they are a special case, not a separate
//! solver.
//!
//! [`solve_branch_and_bound`] is the one entry point: it prices the
//! problem into a [`CostTable`] (the bound's suffix minima are the table's
//! precomputed column-min scans) and searches it. The pre-table,
//! clone-per-evaluation path survives as
//! [`crate::reference::solve_branch_and_bound_reference`] for differential
//! tests, sharing this module's search core so only the cost evaluation
//! differs. `tests/oracle_optassign.rs` checks optimality independently of
//! that core, against exhaustive enumeration.

use crate::costtable::CostTable;
use crate::error::OptAssignError;
use crate::problem::{Assignment, OptAssignProblem};
use scope_cloudsim::TierId;

/// Statistics about a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchAndBoundStats {
    /// Number of search nodes expanded.
    pub nodes_expanded: u64,
    /// Number of nodes pruned by the lower bound.
    pub nodes_pruned: u64,
    /// Whether the search completed (false = the node budget cut at least
    /// one node, and the incumbent is best-effort rather than proven
    /// optimal).
    pub proved_optimal: bool,
}

/// One partition's feasible `(cost, tier, k)` choices, sorted by cost.
pub(crate) type Candidates = Vec<(f64, TierId, usize)>;

struct SearchState<'a> {
    problem: &'a OptAssignProblem,
    /// Partition visit order (indices into problem.partitions).
    order: Vec<usize>,
    /// Remaining capacity per tier (GB), infinity when unreserved.
    capacity: Vec<f64>,
    /// Per-partition candidate (cost, tier, k) lists, sorted by cost.
    candidates: Vec<Candidates>,
    /// Suffix sums of per-partition minimum feasible costs along `order`.
    suffix_min: Vec<f64>,
    /// Incumbent.
    best_cost: f64,
    best_choices: Option<Vec<(TierId, usize)>>,
    /// Current partial assignment along `order`.
    current: Vec<(TierId, usize)>,
    stats: BranchAndBoundStats,
    node_budget: u64,
    /// Whether the budget stopped the search at some node.
    cut: bool,
}

impl<'a> SearchState<'a> {
    fn search(&mut self, depth: usize, cost_so_far: f64) {
        // The node budget only kicks in once an incumbent exists, so the
        // solver always returns at least one feasible (if unproven) solution
        // when the instance is feasible.
        if self.stats.nodes_expanded >= self.node_budget && self.best_choices.is_some() {
            self.cut = true;
            return;
        }
        self.stats.nodes_expanded += 1;
        if depth == self.order.len() {
            if cost_so_far < self.best_cost {
                self.best_cost = cost_so_far;
                let mut choices = vec![(TierId(0), 0usize); self.order.len()];
                for (d, &pidx) in self.order.iter().enumerate() {
                    choices[pidx] = self.current[d];
                }
                self.best_choices = Some(choices);
            }
            return;
        }
        // Lower bound: cost so far plus the capacity-free minimum of the rest.
        if cost_so_far + self.suffix_min[depth] >= self.best_cost {
            self.stats.nodes_pruned += 1;
            return;
        }
        let pidx = self.order[depth];
        let partition = &self.problem.partitions[pidx];
        // Clone the candidate list reference by index to avoid borrow issues.
        for ci in 0..self.candidates[pidx].len() {
            let (cost, tier, k) = self.candidates[pidx][ci];
            let stored = partition.stored_gb(k);
            if stored > self.capacity[tier.index()] + 1e-9 {
                continue;
            }
            self.capacity[tier.index()] -= stored;
            self.current[depth] = (tier, k);
            self.search(depth + 1, cost_so_far + cost);
            self.capacity[tier.index()] += stored;
        }
    }
}

/// The search core shared by the table-driven and reference solvers: given
/// per-partition sorted candidate lists (each guaranteed non-empty by the
/// caller), run the branch-and-bound and return the best choices. How the
/// candidate costs were *evaluated* is the only thing the two paths differ
/// in.
pub(crate) fn branch_and_bound_search(
    problem: &OptAssignProblem,
    candidates: Vec<Candidates>,
    node_budget: u64,
) -> Result<(Vec<(TierId, usize)>, BranchAndBoundStats), OptAssignError> {
    let n = problem.partitions.len();

    // Visit order: largest partitions first (hardest to pack).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        problem.partitions[b]
            .size_gb
            .partial_cmp(&problem.partitions[a].size_gb)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Suffix minima of the capacity-free minimum cost along the visit order.
    let mut suffix_min = vec![0.0; n + 1];
    for d in (0..n).rev() {
        let pidx = order[d];
        suffix_min[d] = suffix_min[d + 1] + candidates[pidx][0].0;
    }

    // Initial capacities.
    let capacity: Vec<f64> = problem
        .catalog
        .iter()
        .map(|(_, t)| t.capacity_gb.unwrap_or(f64::INFINITY))
        .collect();

    // Quick infeasibility check: total stored size at the best per-partition
    // ratio must fit in the total capacity (when every tier is bounded).
    if capacity.iter().all(|c| c.is_finite()) {
        let min_total: f64 = problem
            .partitions
            .iter()
            .map(|p| {
                (0..p.compression_options.len())
                    .map(|k| p.stored_gb(k))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        if min_total > capacity.iter().sum::<f64>() + 1e-9 {
            return Err(OptAssignError::InfeasibleCapacity);
        }
    }

    let mut state = SearchState {
        problem,
        order,
        capacity,
        candidates,
        suffix_min,
        best_cost: f64::INFINITY,
        best_choices: None,
        current: vec![(TierId(0), 0); n],
        stats: BranchAndBoundStats::default(),
        node_budget,
        cut: false,
    };
    state.search(0, 0.0);

    let choices = state
        .best_choices
        .ok_or(OptAssignError::InfeasibleCapacity)?;
    let mut stats = state.stats;
    stats.proved_optimal = !state.cut;
    Ok((choices, stats))
}

/// Every partition's sorted candidate list off an evaluated table; a
/// partition without one is the typed infeasibility.
fn candidate_lists(
    problem: &OptAssignProblem,
    table: &CostTable,
) -> Result<Vec<Candidates>, OptAssignError> {
    let mut candidates = Vec::with_capacity(problem.partitions.len());
    for (i, p) in problem.partitions.iter().enumerate() {
        let cands = table.candidates_sorted(i);
        if cands.is_empty() {
            return Err(OptAssignError::InfeasiblePartition {
                partition: p.id,
                name: p.name.clone(),
            });
        }
        candidates.push(cands);
    }
    Ok(candidates)
}

/// Solve OPTASSIGN exactly with capacity constraints by branch and bound.
///
/// `node_budget` caps the number of explored nodes; when it cuts the search
/// the best incumbent found so far is returned with `proved_optimal =
/// false`.
pub fn solve_branch_and_bound(
    problem: &OptAssignProblem,
    node_budget: u64,
) -> Result<(Assignment, BranchAndBoundStats), OptAssignError> {
    problem.validate()?;
    let table = CostTable::build(problem);
    let candidates = candidate_lists(problem, &table)?;
    let (choices, stats) = branch_and_bound_search(problem, candidates, node_budget)?;
    let assignment = table.assignment(problem, choices)?;
    Ok((assignment, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::solve_greedy;
    use crate::problem::{CompressionOption, PartitionSpec};
    use scope_cloudsim::TierCatalog;

    fn partition(id: usize, size: f64, accesses: f64) -> PartitionSpec {
        PartitionSpec::new(id, format!("p{id}"), size, accesses)
            .with_compression_option(CompressionOption::new("gzip", 4.0, 5.0))
    }

    /// Eight gzip-able partitions of distinct sizes on an unbounded catalog.
    fn unbounded_problem() -> OptAssignProblem {
        let parts: Vec<_> = (0..8)
            .map(|i| partition(i, 10.0 * (i + 1) as f64, (i * 3) as f64))
            .collect();
        OptAssignProblem::new(TierCatalog::azure_adls_gen2(), parts, 6.0)
    }

    #[test]
    fn matches_greedy_when_capacity_is_unbounded() {
        let problem = unbounded_problem();
        let greedy = solve_greedy(&problem).unwrap();
        let (bnb, stats) = solve_branch_and_bound(&problem, 1_000_000).unwrap();
        assert!((bnb.objective - greedy.objective).abs() < 1e-6);
        assert!(stats.proved_optimal);
        assert!(stats.nodes_expanded > 0);
    }

    #[test]
    fn capacity_constraints_force_spill_to_other_tiers() {
        // Premium can hold only one of the two hot partitions; the exact
        // solver must place the other elsewhere, while the greedy (capacity
        // oblivious) would put both on premium.
        let mut catalog = TierCatalog::azure_adls_gen2();
        catalog.set_capacity("Premium", 100.0).unwrap();
        let premium = catalog.tier_id("Premium").unwrap();
        let parts = vec![
            PartitionSpec::new(0, "a", 100.0, 10_000.0),
            PartitionSpec::new(1, "b", 100.0, 10_000.0),
        ];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let (a, stats) = solve_branch_and_bound(&problem, 1_000_000).unwrap();
        let on_premium = a
            .choices
            .iter()
            .filter(|(tier, _)| *tier == premium)
            .count();
        assert!(on_premium <= 1);
        assert!(stats.proved_optimal);
        // Greedy ignores capacity and would overload premium.
        let greedy = solve_greedy(&problem).unwrap();
        let greedy_on_premium = greedy
            .choices
            .iter()
            .filter(|(tier, _)| *tier == premium)
            .count();
        assert_eq!(greedy_on_premium, 2);
        assert!(a.objective >= greedy.objective - 1e-9);
    }

    #[test]
    fn solves_a_three_partition_like_packing_instance_exactly() {
        // 6 partitions of sizes that must split 3/3 across two equally-priced
        // bounded tiers; the optimum packs them to fit exactly.
        let mut catalog = TierCatalog::azure_hot_cool();
        catalog.set_capacity("Hot", 60.0).unwrap();
        catalog.set_capacity("Cool", 60.0).unwrap();
        let sizes = [10.0, 20.0, 30.0, 15.0, 25.0, 20.0]; // total 120
        let parts: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| PartitionSpec::new(i, format!("p{i}"), s, 0.0))
            .collect();
        let problem = OptAssignProblem::new(catalog.clone(), parts, 1.0);
        let (a, stats) = solve_branch_and_bound(&problem, 10_000_000).unwrap();
        assert!(stats.proved_optimal);
        // Per-tier stored volume must respect the 60 GB reservations.
        let hot = catalog.tier_id("Hot").unwrap();
        let cool = catalog.tier_id("Cool").unwrap();
        let volume = |tier| {
            problem
                .partitions
                .iter()
                .zip(&a.choices)
                .filter(|(_, &(t, _))| t == tier)
                .map(|(p, &(_, k))| p.stored_gb(k))
                .sum::<f64>()
        };
        assert!(volume(hot) <= 60.0 + 1e-9);
        assert!(volume(cool) <= 60.0 + 1e-9);
    }

    #[test]
    fn infeasible_capacity_is_detected() {
        let mut catalog = TierCatalog::azure_hot_cool();
        catalog.set_capacity("Hot", 1.0).unwrap();
        catalog.set_capacity("Cool", 1.0).unwrap();
        let parts = vec![PartitionSpec::new(0, "big", 100.0, 0.0)];
        let problem = OptAssignProblem::new(catalog, parts, 1.0);
        assert!(matches!(
            solve_branch_and_bound(&problem, 100_000),
            Err(OptAssignError::InfeasibleCapacity)
        ));
    }

    #[test]
    fn node_budget_returns_best_effort_solution() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<_> = (0..12)
            .map(|i| partition(i, 10.0 + i as f64, i as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let (a, stats) = solve_branch_and_bound(&problem, 5).unwrap();
        assert!(!stats.proved_optimal);
        assert_eq!(a.choices.len(), 12);
    }

    #[test]
    fn a_search_that_fits_its_budget_exactly_is_proved_optimal() {
        // Optimality is whether the budget cut a node, not whether the
        // search stayed strictly under it.
        let problem = unbounded_problem();
        let (a, full) = solve_branch_and_bound(&problem, 1_000_000).unwrap();
        assert!(full.proved_optimal);
        let (exact_a, exact) = solve_branch_and_bound(&problem, full.nodes_expanded).unwrap();
        assert_eq!((exact_a, exact), (a, full));
        let (_, short) = solve_branch_and_bound(&problem, full.nodes_expanded - 1).unwrap();
        assert!(!short.proved_optimal);
        assert_eq!(short.nodes_expanded, full.nodes_expanded - 1);
    }

    #[test]
    fn a_nan_price_never_enters_a_candidate_list() {
        // Nobody validated this problem. Partition 1's gzip ratio is NaN:
        // its gzip entries are feasible and priced NaN, beside finite
        // ones. Partition 2 sits on a tier the catalog does not have:
        // every entry of its row is NaN.
        let catalog = TierCatalog::azure_adls_gen2();
        let mut parts = vec![
            partition(0, 10.0, 5.0),
            partition(1, 20.0, 1.0),
            partition(2, 30.0, 2.0).with_current_tier(TierId(99)),
        ];
        parts[1].compression_options[1].ratio = f64::NAN;
        let mut problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(problem.validate().is_err());
        let table = CostTable::build(&problem);

        let listed = table.candidates_sorted(1);
        assert_eq!(listed.len(), problem.n_tiers());
        assert!(listed.iter().all(|&(c, _, k)| c.is_finite() && k == 0));
        assert!(listed.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(table.min_feasible(1), Some(listed[0]));
        assert!(table.candidates_sorted(2).is_empty());

        // The entry point refuses the problem before searching; the search
        // core under it reports the all-NaN row as the typed infeasibility
        // and, without it, never places gzip on partition 1.
        assert!(matches!(
            solve_branch_and_bound(&problem, 100_000),
            Err(OptAssignError::InvalidProblem(_))
        ));
        assert_eq!(
            candidate_lists(&problem, &table).map(|_| ()),
            Err(OptAssignError::InfeasiblePartition {
                partition: 2,
                name: "p2".into(),
            })
        );
        problem.partitions.pop();
        let table = CostTable::build(&problem);
        let candidates = candidate_lists(&problem, &table).unwrap();
        let (choices, stats) = branch_and_bound_search(&problem, candidates, 100_000).unwrap();
        assert!(stats.proved_optimal);
        assert_eq!(choices[1].1, 0);
        let a = table.assignment(&problem, choices).unwrap();
        assert!(a.objective.is_finite());
    }

    #[test]
    fn infeasible_latency_is_reported() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![partition(0, 10.0, 1.0).with_latency_threshold(1e-6)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(matches!(
            solve_branch_and_bound(&problem, 1000),
            Err(OptAssignError::InfeasiblePartition { .. })
        ));
    }
}
