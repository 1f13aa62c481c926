//! Regenerates paper Table X: the full policy comparison on the TPC-H
//! 100 GB-class scenario.

use scope_bench::{heading, print_policy_header, print_policy_row};
use scope_core::{run_all_policies, tpch_scenario, ScenarioOptions};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    heading("Table X — TPC-H 100 GB-class");
    let inputs = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 100.0,
        generator_scale: 0.2,
        queries_per_template: 20,
        total_files: 100,
    })?;
    println!(
        "scenario: {} tables, {:.0} GB, {} query families, horizon {:.1} months\n",
        inputs.tables.len(),
        inputs.total_size_gb(),
        inputs.families.len(),
        inputs.horizon_months
    );
    print_policy_header();
    for outcome in run_all_policies(&inputs)? {
        print_policy_row(&outcome);
    }
    println!("\nCosts in cents over the horizon. Lower total cost is better; the SCOPe rows should dominate.");
    Ok(())
}
