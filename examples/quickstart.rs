//! Quickstart: run the full SCOPe pipeline on a small TPC-H-like scenario
//! and print one cost/latency row per storage policy — a miniature version
//! of the paper's Table X.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use scope_cloudsim::TierCatalog;
use scope_core::{run_all_policies, tpch_scenario, ScenarioOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Azure ADLS Gen2 tier catalog of Table I / Table XII.
    let catalog = TierCatalog::azure_adls_gen2();
    println!("Storage tiers (paper Table I / XII):");
    for (_, tier) in catalog.iter() {
        println!(
            "  {:8} storage {:>7.3} c/GB/mo   read {:>8.5} c/GB   TTFB {:>9.4} s",
            tier.name,
            tier.storage_cost_cents_per_gb_month,
            tier.read_cost_cents_per_gb,
            tier.ttfb_seconds
        );
    }

    // A small TPC-H-like scenario: generated tables, measured compression,
    // a query workload, and a nominal volume of 100 GB.
    let inputs = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 100.0,
        generator_scale: 0.1,
        queries_per_template: 6,
        total_files: 60,
    })?;
    println!(
        "\nScenario: {} tables, {:.0} GB nominal, {} query families over {:.1} months",
        inputs.tables.len(),
        inputs.total_size_gb(),
        inputs.families.len(),
        inputs.horizon_months
    );

    // Run every policy row of the paper's Tables IX-XI.
    println!(
        "\n{:<42} {:>10} {:>9} {:>9} {:>10} {:>8}  Tiering",
        "Policy", "Storage", "Read", "Decomp", "Total", "TTFB(s)"
    );
    for outcome in run_all_policies(&inputs)? {
        println!(
            "{:<42} {:>10.1} {:>9.1} {:>9.1} {:>10.1} {:>8.3}  {:?}",
            outcome.policy,
            outcome.storage_cost,
            outcome.read_cost,
            outcome.decompression_cost,
            outcome.total_cost,
            outcome.read_latency_ttfb,
            outcome.tiering_scheme
        );
    }
    println!("\nCosts are cents over the projection horizon; lower is better.");
    Ok(())
}
