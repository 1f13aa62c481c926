//! Cross-crate integration tests of the full SCOPe pipeline: scenario
//! generation (scope-table + scope-compress + scope-workload), partitioning
//! (scope-datapart), assignment (scope-optassign) and cost accounting
//! (scope-cloudsim) working together through scope-core.

use scope_core::{run_all_policies, run_policy, tpch_scenario, Policy, ScenarioOptions};

fn scenario() -> scope_core::PipelineInputs {
    tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 100.0,
        generator_scale: 0.05,
        queries_per_template: 4,
        total_files: 40,
    })
    .expect("scenario builds")
}

#[test]
fn full_pipeline_reproduces_table_x_shape() {
    // The qualitative shape of Table X:
    //   * the platform default (all premium, uncompressed, unpartitioned) is
    //     the most expensive storage configuration,
    //   * each individual ingredient (tiering alone, compression alone,
    //     partitioning alone) helps,
    //   * combining all three (SCOPe) gives the lowest total cost,
    //   * SCOPe's saving vs the default is large (paper: default is 5-13x
    //     the SCOPe total).
    let inputs = scenario();
    let outcomes = run_all_policies(&inputs).expect("all policies run");
    assert_eq!(outcomes.len(), 11);

    let cost = |name: &str| {
        outcomes
            .iter()
            .find(|o| o.policy == name)
            .unwrap_or_else(|| panic!("missing policy {name}"))
            .total_cost
    };
    let default = cost("Default (store on premium)");
    let compress_only = cost("Compress & store on premium");
    let tiering_only = cost("Multi-Tiering");
    let partition_only = cost("Partition & store on premium");
    let scope_best = cost("SCOPe (No capacity constraint)").min(cost("SCOPe (Total cost focused)"));

    assert!(compress_only < default, "compression alone should help");
    assert!(tiering_only < default, "tiering alone should help");
    assert!(partition_only < default, "partitioning alone should help");
    assert!(scope_best < compress_only);
    assert!(scope_best < tiering_only);
    assert!(scope_best < partition_only);
    assert!(
        scope_best < default / 2.0,
        "SCOPe should cut the platform cost at least in half (got {scope_best} vs {default})"
    );
}

#[test]
fn gpart_improves_every_baseline_it_is_added_to() {
    // The paper's ablation: adding G-PART partitioning to the premium-only,
    // tiering-only and compression-only baselines improves each of them.
    let inputs = scenario();
    let pairs = [
        (Policy::default_premium(), Policy::partition_premium()),
        (Policy::multi_tiering(), Policy::partition_tiering()),
        (Policy::compress_premium(), Policy::partition_compression()),
    ];
    for (without, with) in pairs {
        let base = run_policy(&inputs, &without).unwrap();
        let improved = run_policy(&inputs, &with).unwrap();
        assert!(
            improved.total_cost < base.total_cost,
            "{} ({}) should improve on {} ({})",
            with.name,
            improved.total_cost,
            without.name,
            base.total_cost
        );
    }
}

#[test]
fn outcomes_are_internally_consistent() {
    let inputs = scenario();
    for outcome in run_all_policies(&inputs).unwrap() {
        // Cost components sum to the total.
        let sum = outcome.storage_cost
            + outcome.read_cost
            + outcome.write_cost
            + outcome.decompression_cost;
        assert!(
            (outcome.total_cost - sum).abs() < 1e-6,
            "{}",
            outcome.policy
        );
        // Tier histogram covers every partition.
        assert_eq!(
            outcome.tiering_scheme.iter().sum::<usize>(),
            outcome.n_partitions,
            "{}",
            outcome.policy
        );
        // Latency numbers are physical.
        assert!(outcome.read_latency_ttfb >= 0.0);
        assert!(outcome.expected_decompression_ms >= 0.0);
        // No policy without compression should pay decompression costs.
        if outcome.policy == "Default (store on premium)"
            || outcome.policy == "Multi-Tiering"
            || outcome.policy == "Partition & store on premium"
            || outcome.policy == "Partitioning + Tiering"
        {
            assert_eq!(outcome.decompression_cost, 0.0, "{}", outcome.policy);
        }
    }
}

#[test]
fn scenario_scale_changes_costs_proportionally() {
    // A 1 TB-class scenario should cost roughly 10x the 100 GB-class one
    // under the same policy (costs are linear in bytes).
    let small = scenario();
    let large = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 1000.0,
        generator_scale: 0.05,
        queries_per_template: 4,
        total_files: 40,
    })
    .unwrap();
    let policy = Policy::default_premium();
    let small_cost = run_policy(&small, &policy).unwrap().total_cost;
    let large_cost = run_policy(&large, &policy).unwrap().total_cost;
    let ratio = large_cost / small_cost;
    assert!((8.0..12.0).contains(&ratio), "scale ratio {ratio}");
}

#[test]
fn pipeline_outcomes_are_deterministic() {
    // Regression test: partition file order and float-accumulation order
    // once leaked hash-map iteration order into policy outcomes, making
    // borderline optimizer decisions (and therefore whole test runs) flap
    // from process to process. Two runs over the same inputs must agree
    // bit-for-bit. (Scenario *construction* measures real decompression
    // wall-clock time, so the inputs are built once.)
    let inputs = scenario();
    let first = run_all_policies(&inputs).unwrap();
    let second = run_all_policies(&inputs).unwrap();
    assert_eq!(first, second);
}

#[test]
fn tradeoff_sweep_integrates_with_the_scenario() {
    use scope_core::{tradeoff_sweep, PredictorVariant};
    let inputs = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 1.0,
        generator_scale: 0.05,
        queries_per_template: 3,
        total_files: 24,
    })
    .unwrap();
    let alphas = [0.0, 0.5, 2.0];
    for variant in PredictorVariant::all() {
        let points = tradeoff_sweep(&inputs, variant, &alphas, 1.0).unwrap();
        assert_eq!(points.len(), alphas.len());
        assert!(points.iter().all(|p| p.total_cost > 0.0));
    }
}
