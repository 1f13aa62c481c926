//! The SCOPe pipeline: partition → predict compression → assign tiers.
//!
//! [`run_policy`] executes one policy (a row of Tables IX–XI) over a
//! scenario's [`PipelineInputs`] and returns the cost/latency outcome;
//! [`run_all_policies`] produces the whole table, sharing between the rows
//! everything that does not depend on the row (see its docs). The
//! pipeline follows §VII exactly:
//!
//! 1. initial partitions are derived from query families; when the policy
//!    enables partitioning they are merged with G-PART, otherwise each
//!    *table* is a single partition and every query that touches any of its
//!    files is charged for scanning the whole table (which is what makes
//!    the un-partitioned baselines expensive),
//! 2. each partition gets its compression options from the per-table
//!    measured (or predicted) profiles, scaled to the partition's size,
//! 3. OPTASSIGN chooses the (tier, scheme) per partition under the policy's
//!    weights, with either the greedy solver (unbounded capacity) or the
//!    branch-and-bound solver (capacity reservations).

use crate::policy::Policy;
use crate::scenario::PipelineInputs;
use crate::ScopeError;
use scope_cloudsim::{Tier, TierCatalog};
use scope_datapart::{gpart_merge, FileCatalog, MergeConfig, Partition};
use scope_optassign::{
    solve_branch_and_bound, solve_greedy, Assignment, CompressionOption, OptAssignProblem,
    PartitionSpec,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The outcome of running one policy — one row of Tables IX–XI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Policy name.
    pub policy: String,
    /// Adapted-from baseline label, if any.
    pub adapted_from: Option<String>,
    /// Storage cost over the horizon, cents.
    pub storage_cost: f64,
    /// Decompression compute cost, cents.
    pub decompression_cost: f64,
    /// Read cost, cents.
    pub read_cost: f64,
    /// Write / tier-change cost, cents.
    pub write_cost: f64,
    /// Total cost, cents.
    pub total_cost: f64,
    /// Worst-case read latency (time to first byte of the slowest tier in
    /// use), seconds.
    pub read_latency_ttfb: f64,
    /// Expected decompression latency per access, milliseconds.
    pub expected_decompression_ms: f64,
    /// Number of partitions assigned to each tier, in catalog order.
    pub tiering_scheme: Vec<usize>,
    /// Number of final partitions.
    pub n_partitions: usize,
}

/// Build the final partitions of one partitioning: G-PART merges of the
/// query families under `merge` when partitioning is on (`Some`), otherwise
/// one partition per table.
///
/// The data lake physically stores one copy of every file, so after G-PART
/// the final partitions are made *disjoint*: a file claimed by several
/// merged partitions is owned by the most frequently accessed of them (the
/// hot partition). Files never touched by any query family form one
/// residual zero-frequency partition per table — these are the partitions
/// the optimizer later pushes to the coolest tier.
fn build_partitions(
    inputs: &PipelineInputs,
    merge: Option<&MergeConfig>,
    file_catalog: &FileCatalog,
) -> Result<Vec<Partition>, ScopeError> {
    if let Some(merge) = merge {
        let initial = Partition::from_families(&inputs.families);
        let merged = gpart_merge(&initial, file_catalog, merge)?;
        // Assign every file to the highest-frequency partition claiming it.
        // A BTreeMap keeps the later iteration order (and therefore the file
        // order inside every partition) independent of hash seeds.
        let mut owner: std::collections::BTreeMap<scope_workload::FileRef, usize> =
            std::collections::BTreeMap::new();
        for (idx, p) in merged.iter().enumerate() {
            for f in &p.files {
                match owner.entry(f.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(idx);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        if merged[*e.get()].frequency < p.frequency {
                            e.insert(idx);
                        }
                    }
                }
            }
        }
        let mut files_of: Vec<Vec<scope_workload::FileRef>> = vec![Vec::new(); merged.len()];
        for (file, idx) in owner {
            files_of[idx].push(file);
        }
        let mut partitions: Vec<Partition> = Vec::new();
        for (idx, files) in files_of.into_iter().enumerate() {
            if files.is_empty() {
                continue;
            }
            partitions.push(Partition::new(
                partitions.len(),
                files,
                merged[idx].frequency,
            ));
        }
        // Residual partition per table for files no query ever touches.
        let covered: std::collections::BTreeSet<scope_workload::FileRef> = partitions
            .iter()
            .flat_map(|p| p.files.iter().cloned())
            .collect();
        for t in &inputs.tables {
            let uncovered: Vec<scope_workload::FileRef> = (0..t.n_files)
                .map(|i| scope_workload::FileRef::new(t.name.clone(), i))
                .filter(|f| !covered.contains(f))
                .collect();
            if !uncovered.is_empty() {
                partitions.push(Partition::new(partitions.len(), uncovered, 0.0));
            }
        }
        Ok(partitions)
    } else {
        // One partition per table covering all of its files; its access
        // frequency is the total frequency of families touching the table.
        let mut freq_per_table: HashMap<&str, f64> = HashMap::new();
        for family in &inputs.families {
            let tables: std::collections::BTreeSet<&str> =
                family.files.iter().map(|f| f.table.as_str()).collect();
            for t in tables {
                *freq_per_table.entry(t).or_insert(0.0) += family.frequency;
            }
        }
        let mut partitions = Vec::with_capacity(inputs.tables.len());
        for (i, t) in inputs.tables.iter().enumerate() {
            let files = (0..t.n_files).map(|f| scope_workload::FileRef::new(t.name.clone(), f));
            partitions.push(Partition::new(
                i,
                files,
                freq_per_table.get(t.name.as_str()).copied().unwrap_or(0.0),
            ));
        }
        Ok(partitions)
    }
}

/// Build the OPTASSIGN partition specs for the final partitions.
///
/// Access accounting: each query family is charged against the partitions
/// that own its files. With partitioning enabled a family only reads the
/// bytes of its own footprint inside each partition (file-level access);
/// without partitioning the table is the access unit and every query that
/// touches a table scans the whole of it — this is exactly what makes the
/// un-partitioned baselines pay an order of magnitude more in read cost in
/// the paper's Tables IX–XI.
fn build_specs(
    inputs: &PipelineInputs,
    policy: &Policy,
    partitions: &[Partition],
    file_catalog: &FileCatalog,
) -> Result<Vec<PartitionSpec>, ScopeError> {
    // File ownership map (partitions are disjoint by construction).
    let mut owner: HashMap<&scope_workload::FileRef, usize> = HashMap::new();
    for (idx, p) in partitions.iter().enumerate() {
        for f in &p.files {
            owner.insert(f, idx);
        }
    }
    // Per-partition access count and read volume (GB over the horizon).
    let mut accesses = vec![0.0f64; partitions.len()];
    let mut read_volume = vec![0.0f64; partitions.len()];
    for family in &inputs.families {
        // BTreeMap: the loop below folds `frequency * volume` into f64
        // accumulators, and float addition order must not depend on hash
        // seeds.
        let mut gb_per_partition: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for f in &family.files {
            if let Some(&idx) = owner.get(f) {
                let gb = file_catalog.size(f).unwrap_or(0.0);
                *gb_per_partition.entry(idx).or_insert(0.0) += gb;
            }
        }
        for (idx, gb) in gb_per_partition {
            accesses[idx] += family.frequency;
            let volume = if policy.partition {
                gb
            } else {
                // Whole-table scan per access.
                partitions[idx].span(file_catalog)?
            };
            read_volume[idx] += family.frequency * volume;
        }
    }

    // The schemes on offer are the first table's (every table carries the
    // same list; a table missing one is treated as uncompressed below).
    let scheme_names: Vec<&str> = inputs.tables[0]
        .options
        .iter()
        .skip(1)
        .map(|o| &*o.name)
        .collect();
    let mut specs = Vec::with_capacity(partitions.len());
    for (idx, p) in partitions.iter().enumerate() {
        let size_gb = p.span(file_catalog)?;
        // GB of the partition contributed by each table (drives the blended
        // compression profile).
        // BTreeMap: the accumulation loop below must add floats in a stable
        // order for run-to-run reproducible costs.
        let mut gb_per_table: std::collections::BTreeMap<&str, f64> =
            std::collections::BTreeMap::new();
        for f in &p.files {
            let profile = inputs
                .table(&f.table)
                .ok_or_else(|| ScopeError::InvalidConfig(format!("unknown table {}", f.table)))?;
            *gb_per_table.entry(f.table.as_str()).or_insert(0.0) += profile.file_size_gb();
        }
        let latency_threshold = p
            .files
            .iter()
            .filter_map(|f| inputs.table(&f.table))
            .map(|t| t.latency_threshold_seconds)
            .fold(f64::INFINITY, f64::min);

        // Average GB actually read per access of this partition.
        let gb_per_access = if accesses[idx] > 0.0 {
            (read_volume[idx] / accesses[idx]).min(size_gb)
        } else {
            0.0
        };
        let read_fraction = if size_gb > 0.0 {
            gb_per_access / size_gb
        } else {
            1.0
        };

        let mut spec = PartitionSpec::new(idx, format!("partition-{idx}"), size_gb, accesses[idx])
            .with_latency_threshold(latency_threshold)
            .with_read_fraction(read_fraction);
        if policy.compression && size_gb > 0.0 {
            // Blend per-table profiles: ratio is the GB-weighted average;
            // decompression time per access is the per-GB speed (GB-weighted
            // across tables) times the GB read per access.
            for &scheme in &scheme_names {
                let mut ratio_acc = 0.0;
                let mut sec_per_gb_acc = 0.0;
                for (table, gb) in &gb_per_table {
                    let profile = inputs.table(table).expect("validated above");
                    if let Some(opt) = profile.options.iter().find(|o| *o.name == *scheme) {
                        ratio_acc += opt.ratio * gb;
                        sec_per_gb_acc += opt.decompress_seconds * gb;
                    } else {
                        ratio_acc += gb; // scheme missing for this table: treat as uncompressed
                    }
                }
                let ratio = (ratio_acc / size_gb).max(1.0);
                let sec_per_gb = sec_per_gb_acc / size_gb;
                spec = spec.with_compression_option(CompressionOption::new(
                    scheme,
                    ratio,
                    sec_per_gb * gb_per_access,
                ));
            }
        }
        specs.push(spec);
    }
    Ok(specs)
}

/// Restrict a catalog to its fastest tier (used when tiering is disabled).
fn premium_only(catalog: &TierCatalog) -> TierCatalog {
    let fastest = catalog.fastest_tier();
    let tier: Tier = catalog.tier(fastest).expect("catalog non-empty").clone();
    TierCatalog::new(vec![tier]).expect("one tier")
}

/// The partitioning a policy asks for: its G-PART constraints when it
/// partitions, `None` (one partition per table) otherwise.
fn partitioning_of(policy: &Policy, total_gb: f64) -> Option<MergeConfig> {
    policy.partition.then(|| policy.merge_config(total_gb))
}

/// Run one policy over the inputs.
pub fn run_policy(inputs: &PipelineInputs, policy: &Policy) -> Result<PolicyOutcome, ScopeError> {
    inputs.validate()?;
    let file_catalog = inputs.file_catalog();
    let merge = partitioning_of(policy, inputs.total_size_gb());
    let partitions = build_partitions(inputs, merge.as_ref(), &file_catalog)?;
    run_policy_on(inputs, policy, &file_catalog, &partitions)
}

/// Everything of a policy run that depends on the policy, over validated
/// `inputs`, their file catalog and the final partitions of the policy's
/// partitioning: specs, tier catalog, OPTASSIGN and the outcome row.
fn run_policy_on(
    inputs: &PipelineInputs,
    policy: &Policy,
    file_catalog: &FileCatalog,
    partitions: &[Partition],
) -> Result<PolicyOutcome, ScopeError> {
    let specs = build_specs(inputs, policy, partitions, file_catalog)?;

    // Tier catalog for this policy.
    let mut catalog = if policy.tiering {
        inputs.catalog.clone()
    } else {
        premium_only(&inputs.catalog)
    };
    let use_capacities = policy.tiering && policy.capacity_fractions.is_some();
    if let (true, Some(fractions)) = (use_capacities, &policy.capacity_fractions) {
        let total = inputs.total_size_gb();
        let names: Vec<String> = catalog.iter().map(|(_, t)| t.name.clone()).collect();
        for (name, fraction) in names.iter().zip(fractions) {
            catalog.set_capacity(name, fraction * total)?;
        }
    }

    let problem =
        OptAssignProblem::new(catalog, specs, inputs.horizon_months).with_weights(policy.weights);
    let assignment: Assignment = if use_capacities {
        match solve_branch_and_bound(&problem, 2_000_000) {
            Ok((a, _)) => a,
            // If the reservations cannot hold the data, fall back to the
            // unbounded greedy (the paper's prescription is to relax the
            // constraint that makes the instance infeasible).
            Err(scope_optassign::OptAssignError::InfeasibleCapacity) => solve_greedy(&problem)?,
            Err(e) => return Err(e.into()),
        }
    } else {
        solve_greedy(&problem)?
    };

    // Worst-case TTFB over the tiers actually used.
    let ttfb = assignment
        .choices
        .iter()
        .map(|&(tier, _)| {
            problem
                .catalog
                .tier(tier)
                .map(|t| t.ttfb_seconds)
                .unwrap_or(0.0)
        })
        .fold(0.0, f64::max);

    Ok(PolicyOutcome {
        policy: policy.name.clone(),
        adapted_from: policy.adapted_from.clone(),
        storage_cost: assignment.breakdown.storage,
        decompression_cost: assignment.breakdown.decompression,
        read_cost: assignment.breakdown.read,
        write_cost: assignment.breakdown.write,
        total_cost: assignment.breakdown.total(),
        read_latency_ttfb: ttfb,
        expected_decompression_ms: assignment.expected_decompression_latency(&problem) * 1000.0,
        tiering_scheme: assignment.tier_histogram(inputs.catalog.len()),
        n_partitions: partitions.len(),
    })
}

/// Run every policy of [`Policy::table_rows`] over the inputs, in order.
///
/// What does not depend on the row is done once for the table: the inputs
/// are validated once, the file catalog is built once, and the final
/// partitions are built **once per distinct partitioning** — the paper's
/// eleven rows ask for two (one partition per table, and G-PART under the
/// one span threshold that seven rows share), so G-PART, the most
/// expensive step of a row, runs once instead of seven times. The rows
/// then fan out over [`scope_cloudsim::parallel_map`]: each is a pure
/// function of its policy and the shared, read-only partitions, and
/// results merge in policy order, so the table is value for value
/// `Policy::table_rows().iter().map(run_policy)` — including which error
/// surfaces (the lowest-indexed failing row's), and [`run_policy`], the
/// single-policy path over the same code, is the oracle the tests pin the
/// table against.
pub fn run_all_policies(inputs: &PipelineInputs) -> Result<Vec<PolicyOutcome>, ScopeError> {
    run_policies(inputs, &Policy::table_rows())
}

/// The distinct partitionings `policies` ask for, in first-use order, and
/// for each policy the index of its own.
fn distinct_partitionings(
    policies: &[Policy],
    total_gb: f64,
) -> (Vec<Option<MergeConfig>>, Vec<usize>) {
    let mut distinct: Vec<Option<MergeConfig>> = Vec::new();
    let of_policy = policies
        .iter()
        .map(|policy| {
            let merge = partitioning_of(policy, total_gb);
            distinct
                .iter()
                .position(|m| *m == merge)
                .unwrap_or_else(|| {
                    distinct.push(merge);
                    distinct.len() - 1
                })
        })
        .collect();
    (distinct, of_policy)
}

/// [`run_all_policies`] over an explicit policy list.
fn run_policies(
    inputs: &PipelineInputs,
    policies: &[Policy],
) -> Result<Vec<PolicyOutcome>, ScopeError> {
    inputs.validate()?;
    let file_catalog = inputs.file_catalog();
    let (distinct, of_policy) = distinct_partitionings(policies, inputs.total_size_gb());
    // A partitioning that fails to build fails every row that asks for it,
    // so the error that surfaces is still the lowest-indexed failing row's.
    let partitionings: Vec<Result<Vec<Partition>, ScopeError>> = distinct
        .iter()
        .map(|merge| build_partitions(inputs, merge.as_ref(), &file_catalog))
        .collect();
    scope_cloudsim::parallel_map(policies, |row, policy| {
        match &partitionings[of_policy[row]] {
            Ok(partitions) => run_policy_on(inputs, policy, &file_catalog, partitions),
            Err(e) => Err(e.clone()),
        }
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{tpch_scenario, ScenarioOptions};

    fn inputs() -> PipelineInputs {
        tpch_scenario(&ScenarioOptions {
            nominal_total_gb: 100.0,
            generator_scale: 0.05,
            queries_per_template: 4,
            total_files: 40,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn default_policy_stores_everything_on_premium_uncompressed() {
        let inputs = inputs();
        let outcome = run_policy(&inputs, &Policy::default_premium()).unwrap();
        assert_eq!(outcome.n_partitions, 8);
        assert_eq!(outcome.tiering_scheme[0], 8);
        assert_eq!(outcome.tiering_scheme[1..].iter().sum::<usize>(), 0);
        assert_eq!(outcome.decompression_cost, 0.0);
        assert_eq!(outcome.expected_decompression_ms, 0.0);
        assert!(outcome.storage_cost > 0.0);
        assert!(outcome.read_cost > 0.0);
    }

    #[test]
    fn partitioning_reduces_read_cost_on_premium() {
        // The "Partition & store on premium" row has a dramatically lower
        // read cost than "Default" because queries no longer scan whole
        // tables (paper: 117 vs 3828 on TPC-H 100 GB).
        let inputs = inputs();
        let default = run_policy(&inputs, &Policy::default_premium()).unwrap();
        let partitioned = run_policy(&inputs, &Policy::partition_premium()).unwrap();
        assert!(partitioned.n_partitions >= 2);
        assert!(
            partitioned.read_cost < default.read_cost * 0.8,
            "partitioned read {} vs default read {}",
            partitioned.read_cost,
            default.read_cost
        );
        // Storage cost can only grow (overlap is duplicated), but the read
        // saving dominates on this query-heavy workload.
        assert!(partitioned.total_cost < default.total_cost);
    }

    #[test]
    fn compression_reduces_storage_cost_but_adds_decompression() {
        let inputs = inputs();
        let default = run_policy(&inputs, &Policy::default_premium()).unwrap();
        let compressed = run_policy(&inputs, &Policy::compress_premium()).unwrap();
        assert!(compressed.storage_cost < default.storage_cost);
        assert!(compressed.decompression_cost >= 0.0);
        assert!(compressed.total_cost < default.total_cost);
    }

    #[test]
    fn scope_variants_beat_every_baseline_on_total_cost() {
        // The headline claim of Tables IX–XI: the SCOPe configurations (the
        // last rows) incur lower total cost than every baseline variant, and
        // the total-cost-focused configuration is (nearly) the cheapest of
        // all — in the paper's Table X it is within a whisker of the
        // no-capacity SCOPe row and far below everything else.
        let inputs = inputs();
        let outcomes = run_all_policies(&inputs).unwrap();
        assert_eq!(outcomes.len(), 11);
        let cost_of = |name: &str| {
            outcomes
                .iter()
                .find(|o| o.policy == name)
                .unwrap_or_else(|| panic!("missing {name}"))
                .total_cost
        };
        let scope_total = cost_of("SCOPe (Total cost focused)");
        let scope_nocap = cost_of("SCOPe (No capacity constraint)");
        let default = cost_of("Default (store on premium)");
        let best_scope = scope_total.min(scope_nocap);
        // Every non-SCOPe baseline is more expensive than the best SCOPe
        // configuration.
        for o in &outcomes {
            if o.policy.starts_with("SCOPe") {
                continue;
            }
            assert!(
                best_scope < o.total_cost,
                "SCOPe {} should beat {} ({})",
                best_scope,
                o.policy,
                o.total_cost
            );
        }
        // The total-cost-focused row stays in the same cost regime as the
        // unconstrained optimum (the capacity reservations force some extra
        // compression / tier shuffling, but nowhere near the baseline costs).
        // The factor is generous because the measured decompression timings
        // feeding the scenario vary with machine load between runs.
        assert!(
            scope_total <= scope_nocap * 2.0 + 1e-9,
            "capacity-constrained SCOPe {} strays too far from unconstrained {}",
            scope_total,
            scope_nocap
        );
        // And the saving relative to the platform default is large (the
        // paper reports SCOPe at 8–18% of the default's cost).
        assert!(
            best_scope < 0.5 * default,
            "SCOPe {} vs default {}",
            best_scope,
            default
        );
    }

    /// `run_policies` against the loop it replaces: `run_policy` per row,
    /// in order, stopping at the first error.
    fn assert_equals_per_policy_runs(inputs: &PipelineInputs, policies: &[Policy]) {
        let sequential: Result<Vec<PolicyOutcome>, ScopeError> =
            policies.iter().map(|p| run_policy(inputs, p)).collect();
        assert_eq!(run_policies(inputs, policies), sequential);
    }

    #[test]
    fn the_policy_table_equals_per_policy_runs_value_for_value() {
        let tpch = inputs();
        let enterprise = crate::scenario::enterprise2_scenario(1.5, 120, 3).unwrap();
        for inputs in [&tpch, &enterprise] {
            let sequential: Vec<PolicyOutcome> = Policy::table_rows()
                .iter()
                .map(|p| run_policy(inputs, p).unwrap())
                .collect();
            assert_eq!(run_all_policies(inputs).unwrap(), sequential);
        }
        // The paper's table asks for two partitionings: one partition per
        // table, and G-PART under the span threshold seven rows share.
        let (distinct, of_policy) = distinct_partitionings(&Policy::table_rows(), 100.0);
        assert_eq!(distinct.len(), 2);
        assert_eq!(distinct.iter().filter(|m| m.is_some()).count(), 1);
        assert_eq!(of_policy, [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn each_distinct_span_threshold_gets_its_own_partitioning() {
        let inputs = inputs();
        let with_fraction = |mut policy: Policy, fraction: f64| {
            policy.span_threshold_fraction = fraction;
            policy
        };
        let policies = [
            with_fraction(Policy::scope_no_capacity(), 0.02),
            // An un-partitioned row's span threshold is never used.
            with_fraction(Policy::multi_tiering(), 0.02),
            Policy::scope_no_capacity(),
            with_fraction(Policy::partition_tiering(), 0.02),
            Policy::default_premium(),
            Policy::scope_total_cost_focused(),
        ];
        let (distinct, of_policy) = distinct_partitionings(&policies, inputs.total_size_gb());
        assert_eq!(distinct.len(), 3);
        assert_eq!(of_policy, [0, 1, 2, 0, 1, 2]);
        assert_equals_per_policy_runs(&inputs, &policies);
        // The two thresholds really partition differently.
        let outcomes = run_policies(&inputs, &policies).unwrap();
        assert_ne!(outcomes[0].n_partitions, outcomes[2].n_partitions);
        assert_eq!(outcomes[0].n_partitions, outcomes[3].n_partitions);
    }

    #[test]
    fn the_lowest_indexed_failing_row_decides_the_error() {
        let valid = inputs();
        let with_capacities = |fractions: [f64; 3]| {
            let mut policy = Policy::scope_total_cost_focused();
            policy.capacity_fractions = Some(fractions.to_vec());
            policy
        };
        // Two rows whose reservations are refused, for different reasons:
        // whichever worker finishes first, row 2's refusal is the error.
        let mut policies = Policy::table_rows();
        policies[2] = with_capacities([-0.5, 0.3, 0.3]);
        policies[7] = with_capacities([0.2, f64::INFINITY, 0.3]);
        let failed = run_policies(&valid, &policies).unwrap_err();
        assert_eq!(failed, run_policy(&valid, &policies[2]).unwrap_err());
        assert_ne!(failed, run_policy(&valid, &policies[7]).unwrap_err());
        assert_equals_per_policy_runs(&valid, &policies);
        // Reservations too small for the data are relaxed, not an error.
        assert_equals_per_policy_runs(&valid, &[with_capacities([0.0, 0.0, 0.0])]);

        // No tier meets a zero-second latency threshold: every row fails,
        // and the first row's partition is the one named.
        let mut unplaceable = valid.clone();
        for t in &mut unplaceable.tables {
            t.latency_threshold_seconds = 0.0;
        }
        assert!(run_policies(&unplaceable, &Policy::table_rows()).is_err());
        assert_equals_per_policy_runs(&unplaceable, &Policy::table_rows());

        // Inputs that fail validation are refused before anything runs.
        let mut dangling = valid.clone();
        dangling.families[0]
            .files
            .push(scope_workload::FileRef::new("nonexistent", 0));
        assert_eq!(
            run_all_policies(&dangling).unwrap_err(),
            dangling.validate().unwrap_err()
        );
        assert_equals_per_policy_runs(&dangling, &Policy::table_rows());
    }

    #[test]
    fn latency_focused_scope_keeps_latency_low() {
        let inputs = inputs();
        let latency = run_policy(&inputs, &Policy::scope_latency_focused()).unwrap();
        let total = run_policy(&inputs, &Policy::scope_total_cost_focused()).unwrap();
        // The latency-focused variant sacrifices cost for latency.
        assert!(latency.read_latency_ttfb <= total.read_latency_ttfb + 1e-12);
        assert!(latency.total_cost >= total.total_cost * 0.9);
    }

    #[test]
    fn gpart_improves_the_tiering_baseline() {
        // "applying our partitioning heuristic can directly improve the
        // baselines" — Hermes + G-PART costs less than Hermes alone.
        let inputs = inputs();
        let hermes = run_policy(&inputs, &Policy::multi_tiering()).unwrap();
        let hermes_gpart = run_policy(&inputs, &Policy::partition_tiering()).unwrap();
        assert!(hermes_gpart.total_cost < hermes.total_cost);
    }

    #[test]
    fn tiering_scheme_histogram_sums_to_partition_count() {
        let inputs = inputs();
        for policy in Policy::table_rows() {
            let o = run_policy(&inputs, &policy).unwrap();
            assert_eq!(
                o.tiering_scheme.iter().sum::<usize>(),
                o.n_partitions,
                "{}",
                o.policy
            );
            assert!(o.total_cost > 0.0);
            assert!(
                (o.total_cost
                    - (o.storage_cost + o.read_cost + o.write_cost + o.decompression_cost))
                    .abs()
                    < 1e-6
            );
        }
    }
}
