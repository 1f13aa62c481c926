//! Regenerates paper Fig 7: the space (duplication) vs read-cost trade-off
//! of no-merge, G-PART and merge-all, per table, for a TPC-H-class and a
//! larger TPC-H-class workload. Also reports the ordered-case DP and its
//! bi-criteria approximation as the ablation for time-series data.

use scope_bench::heading;
use scope_core::{tpch_scenario, ScenarioOptions};
use scope_datapart::{
    gpart_merge, merge_all, metrics, no_merge, solve_ordered_bicriteria, solve_ordered_exact,
    MergeConfig, OrderedPartition, Partition,
};
use std::error::Error;

fn tradeoff(label: &str, options: &ScenarioOptions) -> Result<(), Box<dyn Error>> {
    heading(&format!("Fig 7 — space/cost trade-off ({label})"));
    let inputs = tpch_scenario(options)?;
    let catalog = inputs.file_catalog();
    println!(
        "{:<12} {:<12} {:>12} {:>13} {:>14} {:>12}",
        "table", "variant", "#partitions", "duplication", "read cost", "space (GB)"
    );
    for table in &inputs.tables {
        // Families restricted to this table (the paper plots one dot per table).
        let families: Vec<_> = inputs
            .families
            .iter()
            .filter(|f| f.files.iter().any(|fr| fr.table == table.name))
            .cloned()
            .map(|mut f| {
                f.files.retain(|fr| fr.table == table.name);
                f
            })
            .collect();
        if families.is_empty() {
            continue;
        }
        let initial = Partition::from_families(&families);
        let variants = [
            ("no-merge", no_merge(&initial)),
            (
                "G-PART",
                gpart_merge(&initial, &catalog, &MergeConfig::default())?,
            ),
            ("merge-all", merge_all(&initial)),
        ];
        for (name, parts) in variants {
            let m = metrics::evaluate(&parts, &catalog)?;
            println!(
                "{:<12} {:<12} {:>12} {:>13.3} {:>14.1} {:>12.2}",
                table.name, name, m.n_partitions, m.duplication, m.read_cost, m.total_space
            );
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    tradeoff(
        "TPC-H 100GB-class",
        &ScenarioOptions {
            nominal_total_gb: 100.0,
            generator_scale: 0.15,
            queries_per_template: 12,
            total_files: 80,
        },
    )?;
    tradeoff(
        "TPC-H 1TB-class",
        &ScenarioOptions {
            nominal_total_gb: 1000.0,
            generator_scale: 0.15,
            queries_per_template: 12,
            total_files: 120,
        },
    )?;

    heading("Ordered (time-series) special case — exact DP vs bi-criteria approximation");
    let partitions: Vec<OrderedPartition> = (0..40)
        .map(|i| OrderedPartition::new(i as f64 * 4.0, i as f64 * 4.0 + 10.0, 1.0 + (i % 5) as f64))
        .collect();
    let min_cost: f64 = partitions.iter().map(|p| p.span() * p.frequency).sum();
    println!(
        "{:>12} {:>14} {:>14} {:>12}",
        "budget", "space (exact)", "space (eps=.05)", "cost (approx)"
    );
    for factor in [1.0, 1.5, 2.0, 3.0, 5.0] {
        let budget = min_cost * factor;
        let exact = solve_ordered_exact(&partitions, budget, 1.0)?;
        let approx = solve_ordered_bicriteria(&partitions, budget, 0.05)?;
        println!(
            "{:>12.0} {:>14.1} {:>14.1} {:>12.1}",
            budget, exact.total_space, approx.total_space, approx.total_cost
        );
    }
    Ok(())
}
