//! Regenerates paper Fig 5: the latency-cost vs storage-cost and total-cost
//! vs latency trade-off curves of OPTASSIGN under different compression
//! predictors (ground truth, RF-quality, SVR-quality, averaging, and the
//! random-sample/size-only failure mode).

use scope_bench::heading;
use scope_core::{tpch_scenario, tradeoff_sweep, PredictorVariant, ScenarioOptions};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let inputs = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 1.0, // the paper runs Fig 5 on TPC-H 1 GB
        generator_scale: 0.15,
        queries_per_template: 8,
        total_files: 32,
    })?;

    let alphas = [0.0, 0.05, 0.1, 0.3, 0.5, 1.0, 2.0, 5.0, 10.0];
    heading("Fig 5 — cost/latency trade-off curves per compression predictor");
    for variant in PredictorVariant::all() {
        println!("\npredictor: {}", variant.name());
        println!(
            "{:>8} {:>14} {:>14} {:>14} {:>14}",
            "alpha", "storage cost", "latency cost", "total cost", "latency (s)"
        );
        let points = tradeoff_sweep(&inputs, variant, &alphas, 1.0)?;
        for p in points {
            println!(
                "{:>8.2} {:>14.3} {:>14.3} {:>14.3} {:>14.4}",
                p.alpha, p.storage_cost, p.latency_cost, p.total_cost, p.latency_seconds
            );
        }
    }
    println!(
        "\nThe ground-truth and RF curves should be nearly identical; the averaging and\n\
         random-sample/size-only predictors land on visibly different trade-off points."
    );
    Ok(())
}
