//! Integration and property-based tests of the OPTASSIGN solvers against
//! the cloud cost model.

use proptest::prelude::*;
use scope_cloudsim::{CostWeights, TierCatalog};
use scope_optassign::{
    solve_branch_and_bound, solve_greedy, CompressionOption, OptAssignProblem, PartitionSpec,
};

fn partition(id: usize, size: f64, accesses: f64) -> PartitionSpec {
    PartitionSpec::new(id, format!("p{id}"), size, accesses)
        .with_compression_option(CompressionOption::new("gzip", 3.5, 4.0))
        .with_compression_option(CompressionOption::new("snappy", 1.8, 0.4))
}

#[test]
fn greedy_and_branch_and_bound_agree_without_capacities() {
    let catalog = TierCatalog::azure_adls_gen2();
    let parts: Vec<_> = (0..10)
        .map(|i| partition(i, 5.0 + 17.0 * i as f64, (i * i % 23) as f64))
        .collect();
    let problem = OptAssignProblem::new(catalog, parts, 6.0);
    let greedy = solve_greedy(&problem).unwrap();
    let (exact, stats) = solve_branch_and_bound(&problem, 10_000_000).unwrap();
    assert!(stats.proved_optimal);
    assert!((greedy.objective - exact.objective).abs() < 1e-6);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The greedy solution is optimal for every unbounded-capacity instance:
    /// no single-partition deviation can reduce the objective.
    #[test]
    fn greedy_has_no_improving_single_swap(
        sizes in proptest::collection::vec(1.0f64..500.0, 1..8),
        accesses in proptest::collection::vec(0.0f64..200.0, 8),
        horizon in 1.0f64..12.0,
    ) {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| partition(i, s, accesses[i % accesses.len()]))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, horizon);
        let solution = solve_greedy(&problem).unwrap();
        for (p, &(tier, k)) in problem.partitions.iter().zip(&solution.choices) {
            let chosen = problem.placement_cost(p, tier, k);
            for alt_tier in problem.catalog.tier_ids() {
                for alt_k in 0..p.compression_options.len() {
                    if problem.is_feasible(p, alt_tier, alt_k) {
                        prop_assert!(
                            chosen <= problem.placement_cost(p, alt_tier, alt_k) + 1e-9
                        );
                    }
                }
            }
        }
    }

    /// The objective value recomputed from the returned choices always
    /// matches the assignment's stored objective, and weighted objectives
    /// respond monotonically to scaling all weights.
    #[test]
    fn assignment_objective_is_consistent(
        sizes in proptest::collection::vec(1.0f64..300.0, 1..6),
        scale in 1.0f64..10.0,
    ) {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| partition(i, s, (i * 13 % 40) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog.clone(), parts.clone(), 6.0);
        let solution = solve_greedy(&problem).unwrap();
        let recomputed: f64 = problem
            .partitions
            .iter()
            .zip(&solution.choices)
            .map(|(p, &(t, k))| problem.placement_cost(p, t, k))
            .sum();
        prop_assert!((recomputed - solution.objective).abs() < 1e-6);

        // Scaling every weight scales the optimal objective by that factor.
        let scaled_problem = OptAssignProblem::new(catalog, parts, 6.0)
            .with_weights(CostWeights::new(scale, scale, scale));
        let scaled = solve_greedy(&scaled_problem).unwrap();
        prop_assert!((scaled.objective - scale * solution.objective).abs() < 1e-6 * scale.max(1.0));
    }

    /// Latency constraints are always respected by the greedy solution.
    #[test]
    fn latency_thresholds_are_respected(
        threshold in 0.05f64..10.0,
        size in 1.0f64..100.0,
        accesses in 0.0f64..100.0,
    ) {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![partition(0, size, accesses).with_latency_threshold(threshold)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        if let Ok(solution) = solve_greedy(&problem) {
            let (tier, k) = solution.choices[0];
            prop_assert!(problem.latency_seconds(&problem.partitions[0], tier, k) <= threshold);
        }
    }
}
