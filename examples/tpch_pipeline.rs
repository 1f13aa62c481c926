//! TPC-H pipeline example: reproduce the structure of the paper's Table X
//! (TPC-H 100 GB-class) and Table XI (1 TB-class) with the full SCOPe
//! pipeline, plus the G-PART space/cost trade-off of Fig 7.
//!
//! ```bash
//! cargo run --release --example tpch_pipeline
//! ```

use scope_core::{run_all_policies, tpch_scenario, PipelineInputs, ScenarioOptions};
use scope_datapart::{gpart_merge, merge_all, metrics, no_merge, MergeConfig, Partition};

fn print_table(label: &str, inputs: &PipelineInputs) -> Result<(), Box<dyn std::error::Error>> {
    println!("\n=== {label} ===");
    println!(
        "{:<42} {:>10} {:>9} {:>9} {:>10}  Tiering [P,H,C]",
        "Policy", "Storage", "Read", "Decomp", "Total"
    );
    for o in run_all_policies(inputs)? {
        println!(
            "{:<42} {:>10.1} {:>9.1} {:>9.1} {:>10.1}  {:?}",
            o.policy,
            o.storage_cost,
            o.read_cost,
            o.decompression_cost,
            o.total_cost,
            o.tiering_scheme
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 100 GB-class scenario.
    let tpch100 = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 100.0,
        generator_scale: 0.15,
        queries_per_template: 10,
        total_files: 80,
    })?;
    print_table("TPC-H 100 GB-class (paper Table X)", &tpch100)?;

    // 1 TB-class scenario: same workload shape, 10x the volume.
    let tpch1tb = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 1000.0,
        generator_scale: 0.15,
        queries_per_template: 10,
        total_files: 120,
    })?;
    print_table("TPC-H 1 TB-class (paper Table XI)", &tpch1tb)?;

    // Fig 7: space/cost trade-off of G-PART vs the no-merge / merge-all
    // baselines on the 100 GB-class workload.
    println!("\n=== Partitioning trade-off (paper Fig 7) ===");
    let initial = Partition::from_families(&tpch100.families);
    let file_catalog = tpch100.file_catalog();
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>12}",
        "variant", "#partitions", "duplication", "read cost", "space (GB)"
    );
    for (name, parts) in [
        ("no-merge", no_merge(&initial)),
        (
            "G-PART",
            gpart_merge(&initial, &file_catalog, &MergeConfig::default())?,
        ),
        ("merge-all", merge_all(&initial)),
    ] {
        let m = metrics::evaluate(&parts, &file_catalog)?;
        println!(
            "{:<12} {:>12} {:>14.3} {:>14.1} {:>12.1}",
            name, m.n_partitions, m.duplication, m.read_cost, m.total_space
        );
    }
    Ok(())
}
