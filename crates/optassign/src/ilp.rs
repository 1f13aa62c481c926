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
//! optimum, just more slowly.
//!
//! Candidate costs come from a [`CostTable`] evaluated once per solve (the
//! bound's suffix minima are the table's precomputed column-min scans); the
//! pre-table, clone-per-evaluation path survives as
//! [`crate::reference::solve_branch_and_bound_reference`] for differential
//! tests and benchmarks, sharing this module's search core so only the cost
//! evaluation differs.

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
    /// Whether the search completed (false = node budget exhausted and the
    /// incumbent is best-effort rather than proven optimal).
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
}

impl<'a> SearchState<'a> {
    fn search(&mut self, depth: usize, cost_so_far: f64) {
        // The node budget only kicks in once an incumbent exists, so the
        // solver always returns at least one feasible (if unproven) solution
        // when the instance is feasible.
        if self.stats.nodes_expanded >= self.node_budget && self.best_choices.is_some() {
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
    branch_and_bound_search_warm(problem, candidates, node_budget, None)
}

/// An incumbent seed for the warm search: the choices and per-partition
/// costs of a known-feasible assignment.
pub(crate) type WarmStart = (Vec<(TierId, usize)>, Vec<f64>);

/// [`branch_and_bound_search`] with an optional incumbent seed: `warm` is
/// `(choices, per-partition cost)` of a known-feasible assignment. The seed
/// only tightens the pruning bound — ties lose to the incumbent (the leaf
/// comparison is strict), so seeding with an optimum returns that optimum's
/// exact choices, and seeding with anything else returns what the cold
/// search would have found.
pub(crate) fn branch_and_bound_search_warm(
    problem: &OptAssignProblem,
    candidates: Vec<Candidates>,
    node_budget: u64,
    warm: Option<WarmStart>,
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

    // Seed the incumbent from the warm start. Its cost is accumulated along
    // the visit order — the exact running sum a search leaf reaching the
    // same choices would carry — so the strict `<` tie-break behaves as if
    // the search had discovered the incumbent first.
    let (best_cost, best_choices) = match warm {
        Some((choices, costs)) => {
            let mut c = 0.0;
            for &pidx in &order {
                c += costs[pidx];
            }
            (c, Some(choices))
        }
        None => (f64::INFINITY, None),
    };

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
        best_cost,
        best_choices,
        current: vec![(TierId(0), 0); n],
        stats: BranchAndBoundStats::default(),
        node_budget,
    };
    state.search(0, 0.0);
    let proved_optimal = state.stats.nodes_expanded < node_budget;

    let choices = state
        .best_choices
        .ok_or(OptAssignError::InfeasibleCapacity)?;
    let mut stats = state.stats;
    stats.proved_optimal = proved_optimal;
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
/// `node_budget` caps the number of explored nodes; when it is hit the best
/// incumbent found so far is returned with `proved_optimal = false`.
pub fn solve_branch_and_bound(
    problem: &OptAssignProblem,
    node_budget: u64,
) -> Result<(Assignment, BranchAndBoundStats), OptAssignError> {
    problem.validate()?;
    solve_branch_and_bound_on(problem, &CostTable::build(problem), node_budget)
}

/// [`solve_branch_and_bound`] over a caller-held [`CostTable`] of the
/// **validated** `problem` — for a caller that has built (or keeps) the
/// table anyway, so the instance is priced once.
pub fn solve_branch_and_bound_on(
    problem: &OptAssignProblem,
    table: &CostTable,
    node_budget: u64,
) -> Result<(Assignment, BranchAndBoundStats), OptAssignError> {
    let candidates = candidate_lists(problem, table)?;
    let (choices, stats) = branch_and_bound_search(problem, candidates, node_budget)?;
    let assignment = table.assignment(problem, choices)?;
    Ok((assignment, stats))
}

/// Warm-started branch and bound over a caller-held [`CostTable`] — the
/// serving-engine re-solve entry point: the table is typically the previous
/// epoch's, delta-patched with [`CostTable::patch_rows`], and `incumbent`
/// is the previous epoch's assignment.
///
/// The incumbent seeds the search's best cost/choices, so the bound prunes
/// from the first node; because the leaf comparison is strict, an optimal
/// incumbent is returned unchanged and a stale one is improved to exactly
/// what the cold search finds. The incumbent must be feasible for the
/// *current* table (per-entry mask + capacity), which is checked up front.
pub fn solve_branch_and_bound_warm(
    problem: &OptAssignProblem,
    table: &CostTable,
    incumbent: &[(TierId, usize)],
    node_budget: u64,
) -> Result<(Assignment, BranchAndBoundStats), OptAssignError> {
    problem.validate()?;
    if incumbent.len() != problem.partitions.len() {
        return Err(OptAssignError::InvalidProblem(format!(
            "incumbent covers {} partitions, problem has {}",
            incumbent.len(),
            problem.partitions.len()
        )));
    }
    let mut used = vec![0.0f64; problem.catalog.len()];
    let mut costs = Vec::with_capacity(incumbent.len());
    for (n, (p, &(tier, k))) in problem.partitions.iter().zip(incumbent).enumerate() {
        if !table.is_feasible(n, tier, k) {
            return Err(OptAssignError::InvalidProblem(format!(
                "incumbent choice for partition {} is infeasible",
                p.name
            )));
        }
        used[tier.index()] += p.stored_gb(k);
        costs.push(table.cost(n, tier, k));
    }
    for (ti, (_, t)) in problem.catalog.iter().enumerate() {
        if let Some(cap) = t.capacity_gb {
            if used[ti] > cap + 1e-9 {
                return Err(OptAssignError::InvalidProblem(format!(
                    "incumbent overfills tier {ti}: {} GB of {} GB",
                    used[ti], cap
                )));
            }
        }
    }

    let (choices, stats) = branch_and_bound_search_warm(
        problem,
        candidate_lists(problem, table)?,
        node_budget,
        Some((incumbent.to_vec(), costs)),
    )?;
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

    #[test]
    fn matches_greedy_when_capacity_is_unbounded() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<_> = (0..8)
            .map(|i| partition(i, 10.0 * (i + 1) as f64, (i * 3) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
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
    fn warm_start_with_the_cold_optimum_returns_it_unchanged() {
        let mut catalog = TierCatalog::azure_adls_gen2();
        catalog.set_capacity("Premium", 100.0).unwrap();
        let parts: Vec<_> = (0..8)
            .map(|i| partition(i, 10.0 * (i + 1) as f64, (i * 700) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let (cold, cold_stats) = solve_branch_and_bound(&problem, 1_000_000).unwrap();
        assert!(cold_stats.proved_optimal);

        let table = CostTable::build(&problem);
        let (warm, warm_stats) =
            solve_branch_and_bound_warm(&problem, &table, &cold.choices, 1_000_000).unwrap();
        // The strict leaf comparison keeps the seeded optimum on ties, so
        // the choices — not just the objective — are identical.
        assert_eq!(warm.choices, cold.choices);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert!(warm_stats.proved_optimal);
        // Seeding a finite bound can only tighten pruning.
        assert!(warm_stats.nodes_expanded <= cold_stats.nodes_expanded);
    }

    #[test]
    fn warm_start_improves_a_suboptimal_feasible_incumbent() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<_> = (0..6)
            .map(|i| partition(i, 10.0 * (i + 1) as f64, (i * 1500) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let table = CostTable::build(&problem);
        // Deliberately bad incumbent: everything uncompressed on tier 0.
        let bad: Vec<_> = (0..6).map(|_| (TierId(0), 0usize)).collect();
        assert!(bad
            .iter()
            .enumerate()
            .all(|(n, &(t, k))| table.is_feasible(n, t, k)));
        let (warm, _) = solve_branch_and_bound_warm(&problem, &table, &bad, 1_000_000).unwrap();
        let (cold, _) = solve_branch_and_bound(&problem, 1_000_000).unwrap();
        assert_eq!(warm.choices, cold.choices);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    }

    #[test]
    fn warm_start_rejects_bad_incumbents() {
        let mut catalog = TierCatalog::azure_adls_gen2();
        catalog.set_capacity("Premium", 15.0).unwrap();
        let premium = catalog.tier_id("Premium").unwrap();
        let parts = vec![
            PartitionSpec::new(0, "a", 10.0, 0.0).with_latency_threshold(0.5),
            PartitionSpec::new(1, "b", 10.0, 0.0),
        ];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let table = CostTable::build(&problem);

        // Wrong length.
        assert!(matches!(
            solve_branch_and_bound_warm(&problem, &table, &[(TierId(0), 0)], 1000),
            Err(OptAssignError::InvalidProblem(_))
        ));
        // Infeasible entry: "a" has a latency threshold archive tiers miss.
        let archive = problem.catalog.tier_id("Archive").unwrap();
        assert!(matches!(
            solve_branch_and_bound_warm(&problem, &table, &[(archive, 0), (TierId(0), 0)], 1000),
            Err(OptAssignError::InvalidProblem(_))
        ));
        // Overfilled capacity: both 10 GB objects on the 15 GB premium tier.
        assert!(matches!(
            solve_branch_and_bound_warm(&problem, &table, &[(premium, 0), (premium, 0)], 1000),
            Err(OptAssignError::InvalidProblem(_))
        ));
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

        // The search over that table reports the all-NaN row as the typed
        // infeasibility; without it, it never places gzip on partition 1.
        assert_eq!(
            solve_branch_and_bound_on(&problem, &table, 100_000).map(|(a, _)| a),
            Err(OptAssignError::InfeasiblePartition {
                partition: 2,
                name: "p2".into(),
            })
        );
        problem.partitions.pop();
        let table = CostTable::build(&problem);
        let (a, stats) = solve_branch_and_bound_on(&problem, &table, 100_000).unwrap();
        assert!(stats.proved_optimal);
        assert_eq!(a.choices[1].1, 0);
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
