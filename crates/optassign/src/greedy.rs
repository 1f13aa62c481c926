//! The greedy solver for the unbounded-capacity case (Theorem 3).
//!
//! When no tier carries a capacity reservation the ILP decomposes per
//! partition: each partition independently takes its cheapest feasible
//! (tier, compression) pair, which is optimal overall. The run time is
//! `O(N · L · K)` — linear in the number of partitions for fixed tier and
//! scheme counts — which is what makes OPTASSIGN "scalable and effective"
//! on petabyte-scale catalogs (2.53 s for 463 datasets in the paper; the
//! end-to-end benchmark's `optassign.greedy_s` times it).
//!
//! The per-partition minima come from a [`CostTable`] evaluated once per
//! solve (with one hoisted cost model, in parallel on large instances)
//! instead of re-deriving each price through a freshly cloned model; the
//! historical path survives as [`crate::reference::solve_greedy_reference`]
//! and the differential proptests pin both bit-for-bit equal.

use crate::costtable::CostTable;
use crate::error::OptAssignError;
use crate::problem::{Assignment, OptAssignProblem};

/// Solve an unbounded-capacity OPTASSIGN instance greedily (optimal when no
/// tier has a capacity reservation).
///
/// Capacity reservations, if present, are ignored by this solver — use
/// [`crate::ilp::solve_branch_and_bound`] when they must be respected.
/// Returns an error if some partition has no feasible choice at all (its
/// latency threshold excludes every tier), mirroring the paper's "relax the
/// latency requirements" prescription.
pub fn solve_greedy(problem: &OptAssignProblem) -> Result<Assignment, OptAssignError> {
    problem.validate()?;
    choose_minima(problem, &CostTable::build(problem))
}

/// The greedy rule over an evaluated table: every partition takes its
/// feasible minimum. A partition without one — no placement meets its
/// constraints, or (on a problem nobody validated) every feasible
/// placement priced NaN — is the typed infeasibility, never a NaN
/// objective.
fn choose_minima(
    problem: &OptAssignProblem,
    table: &CostTable,
) -> Result<Assignment, OptAssignError> {
    let mut choices = Vec::with_capacity(problem.partitions.len());
    for (i, p) in problem.partitions.iter().enumerate() {
        match table.min_feasible(i) {
            Some((_, tier, k)) => choices.push((tier, k)),
            None => {
                return Err(OptAssignError::InfeasiblePartition {
                    partition: p.id,
                    name: p.name.clone(),
                })
            }
        }
    }
    table.assignment(problem, choices)
}

/// Solve greedily, iteratively relaxing latency thresholds by `factor` (> 1)
/// until every partition has a feasible choice. Returns the assignment and
/// the number of relaxation rounds applied (0 = no relaxation needed).
pub fn solve_greedy_with_relaxation(
    problem: &OptAssignProblem,
    factor: f64,
    max_rounds: usize,
) -> Result<(Assignment, usize), OptAssignError> {
    let mut relaxed = problem.clone();
    let mut round = 0;
    loop {
        match solve_greedy(&relaxed) {
            Ok(a) => return Ok((a, round)),
            Err(OptAssignError::InfeasiblePartition { .. }) if round < max_rounds => {
                for p in &mut relaxed.partitions {
                    p.latency_threshold_seconds *= factor;
                }
                round += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CompressionOption, PartitionSpec};
    use scope_cloudsim::{CostWeights, TierCatalog};

    fn partition(id: usize, size: f64, accesses: f64) -> PartitionSpec {
        PartitionSpec::new(id, format!("p{id}"), size, accesses)
            .with_compression_option(CompressionOption::new("gzip", 4.0, 5.0))
            .with_compression_option(CompressionOption::new("snappy", 2.0, 0.5))
    }

    #[test]
    fn cold_data_goes_to_cheap_tiers_hot_data_stays_fast() {
        let catalog = TierCatalog::azure_adls_gen2();
        let hot = catalog.tier_id("Hot").unwrap();
        let archive = catalog.tier_id("Archive").unwrap();
        let parts = vec![
            partition(0, 1000.0, 0.0),   // never read
            partition(1, 1000.0, 500.0), // read constantly
        ];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let a = solve_greedy(&problem).unwrap();
        assert_eq!(a.choices[0].0, archive);
        assert!(a.choices[1].0 <= hot, "hot data should stay on a fast tier");
    }

    #[test]
    fn greedy_is_optimal_without_capacity() {
        // Exhaustively enumerate a small instance and check the greedy
        // objective matches the brute-force optimum.
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![partition(0, 50.0, 3.0), partition(1, 10.0, 40.0)];
        let problem = OptAssignProblem::new(catalog.clone(), parts, 6.0);
        let greedy = solve_greedy(&problem).unwrap();

        let mut best = f64::INFINITY;
        let tiers = catalog.tier_ids();
        for &t0 in &tiers {
            for k0 in 0..3 {
                for &t1 in &tiers {
                    for k1 in 0..3 {
                        let p0 = &problem.partitions[0];
                        let p1 = &problem.partitions[1];
                        if !problem.is_feasible(p0, t0, k0) || !problem.is_feasible(p1, t1, k1) {
                            continue;
                        }
                        let cost =
                            problem.placement_cost(p0, t0, k0) + problem.placement_cost(p1, t1, k1);
                        best = best.min(cost);
                    }
                }
            }
        }
        assert!((greedy.objective - best).abs() < 1e-9);
    }

    #[test]
    fn compression_is_chosen_when_it_pays_off() {
        // A large, rarely-read partition: compressing it shrinks the storage
        // term far more than the decompression compute it adds.
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![partition(0, 5000.0, 1.0)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let a = solve_greedy(&problem).unwrap();
        assert_ne!(a.choices[0].1, 0, "large cold data should be compressed");
    }

    #[test]
    fn latency_constraints_are_respected() {
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![
            partition(0, 100.0, 2.0).with_latency_threshold(0.1), // premium/hot only, no heavy decompression
        ];
        let problem = OptAssignProblem::new(catalog.clone(), parts, 6.0);
        let a = solve_greedy(&problem).unwrap();
        let (tier, k) = a.choices[0];
        let lat = problem.latency_seconds(&problem.partitions[0], tier, k);
        assert!(lat <= 0.1);
    }

    #[test]
    fn infeasible_partition_is_reported_and_relaxation_fixes_it() {
        let catalog = TierCatalog::azure_adls_gen2();
        // Threshold below even the premium TTFB: nothing is feasible.
        let parts = vec![partition(0, 10.0, 1.0).with_latency_threshold(0.001)];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(matches!(
            solve_greedy(&problem),
            Err(OptAssignError::InfeasiblePartition { partition: 0, .. })
        ));
        let (a, rounds) = solve_greedy_with_relaxation(&problem, 10.0, 5).unwrap();
        assert!(rounds >= 1);
        assert_eq!(a.choices.len(), 1);
    }

    #[test]
    fn latency_focused_weights_keep_data_on_the_fast_tier() {
        // With alpha = 0 (ignore storage cost) the optimizer minimises read +
        // decompression cost, which keeps accessed data on the cheapest-to-
        // read (fastest) tier — the HCompress-like baseline behaviour. Note
        // that compression can still be selected because it shrinks the read
        // volume more than the decompression compute it adds.
        let catalog = TierCatalog::azure_adls_gen2();
        let premium = catalog.tier_id("Premium").unwrap();
        let parts = vec![partition(0, 100.0, 50.0)];
        let problem =
            OptAssignProblem::new(catalog, parts, 6.0).with_weights(CostWeights::latency_focused());
        let a = solve_greedy(&problem).unwrap();
        assert_eq!(a.choices[0].0, premium);
        // Under total-cost weights the same partition does NOT sit on premium
        // (its storage is 7x hot), showing the weight knob matters.
        let total = OptAssignProblem::new(
            TierCatalog::azure_adls_gen2(),
            vec![partition(0, 100.0, 50.0)],
            6.0,
        )
        .with_weights(CostWeights::total_cost_focused());
        let b = solve_greedy(&total).unwrap();
        assert_ne!(b.choices[0].0, premium);
    }

    #[test]
    fn multi_provider_greedy_weighs_egress_against_cheaper_ladders() {
        use scope_cloudsim::ProviderCatalog;
        let providers = ProviderCatalog::azure_s3_gcs();
        let azure_hot = providers.merged_tier_id("azure", "Hot").unwrap();
        let azure = providers.provider_id("azure").unwrap();
        let topo = providers.topology();
        // A cold, latency-bounded partition already on azure Hot: with the
        // interconnect egress matrix the greedy sends it to another cloud's
        // 0.4 c/GB sub-second tier, but at 10x egress it stays home.
        let part = || {
            vec![PartitionSpec::new(0, "cold-sla", 100.0, 0.0)
                .with_latency_threshold(1.0)
                .with_current_tier(azure_hot)]
        };
        let problem = OptAssignProblem::multi_provider(&providers, part(), 6.0);
        let a = solve_greedy(&problem).unwrap();
        assert_ne!(topo.provider_of(a.choices[0].0), Some(azure));
        assert!(a.breakdown.egress > 0.0);

        let expensive = providers.clone().with_egress_scale(10.0).unwrap();
        let problem = OptAssignProblem::multi_provider(&expensive, part(), 6.0);
        let b = solve_greedy(&problem).unwrap();
        assert_eq!(topo.provider_of(b.choices[0].0), Some(azure));
        assert_eq!(b.breakdown.egress, 0.0);
    }

    #[test]
    fn scales_linearly_in_partition_count() {
        // Not a timing assertion (timings live in `benchmark/`), just a check
        // that a thousand-partition instance solves and assigns everything.
        let catalog = TierCatalog::azure_adls_gen2();
        let parts: Vec<_> = (0..1000)
            .map(|i| partition(i, (i % 100 + 1) as f64, (i % 17) as f64))
            .collect();
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        let a = solve_greedy(&problem).unwrap();
        assert_eq!(a.choices.len(), 1000);
    }

    #[test]
    fn a_nan_priced_row_is_the_typed_infeasibility_never_a_nan_objective() {
        use scope_cloudsim::TierId;
        // Partition 1 sits on a tier the catalog does not have and nobody
        // validated the problem: leaving that tier prices the
        // early-deletion term NaN, and no catalog tier is the one it is
        // on, so every one of its entries is NaN.
        let catalog = TierCatalog::azure_adls_gen2();
        let parts = vec![
            partition(0, 10.0, 5.0),
            partition(1, 20.0, 1.0).with_current_tier(TierId(99)),
        ];
        let problem = OptAssignProblem::new(catalog, parts, 6.0);
        assert!(problem.validate().is_err());
        let table = CostTable::build(&problem);
        for tier in problem.catalog.tier_ids() {
            for k in 0..3 {
                assert!(table.is_feasible(1, tier, k));
                assert!(table.cost(1, tier, k).is_nan());
                assert!(table.cost(0, tier, k).is_finite());
            }
        }
        // The first feasible entry used to win the first-minimum by
        // default and, nothing comparing below NaN, keep it.
        assert_eq!(table.min_feasible(1), None);
        assert_eq!(problem.min_feasible_cost(&problem.partitions[1]), None);
        let healthy = table.min_feasible(0).unwrap();
        assert_eq!(
            problem.min_feasible_cost(&problem.partitions[0]),
            Some(healthy)
        );
        assert!(healthy.0.is_finite());
        assert_eq!(
            choose_minima(&problem, &table),
            Err(OptAssignError::InfeasiblePartition {
                partition: 1,
                name: "p1".into(),
            })
        );
    }
}
