//! # scope-bench
//!
//! The paper's tables and figures as runnable binaries: each
//! `src/bin/{fig,table}*.rs` regenerates the table or figure its name
//! carries and prints the rows / series to stdout
//! (`cargo run --release -p scope-bench --bin <name>`).
//!
//! No timing harness lives here: the repository's one measurement system
//! is the out-of-workspace `benchmark/` package behind `BENCHMARK.json`.
//! This library holds the formatting helpers the binaries share.

/// Print a titled separator so the binary outputs are easy to scan.
pub fn heading(title: &str) {
    println!("\n==== {title} ====");
}

/// Print one row of a pipeline-policy table (Tables IX–XI style).
pub fn print_policy_row(outcome: &scope_core::PolicyOutcome) {
    println!(
        "{:<42} {:>10.1} {:>9.2} {:>9.1} {:>10.1} {:>9.4} {:>10.3}  {:?}",
        outcome.policy,
        outcome.storage_cost,
        outcome.decompression_cost,
        outcome.read_cost,
        outcome.total_cost,
        outcome.read_latency_ttfb,
        outcome.expected_decompression_ms,
        outcome.tiering_scheme
    );
}

/// Print the header matching [`print_policy_row`].
pub fn print_policy_header() {
    println!(
        "{:<42} {:>10} {:>9} {:>9} {:>10} {:>9} {:>10}  Tiering",
        "Policy", "Storage", "Decomp", "Read", "Total", "TTFB(s)", "Decomp(ms)"
    );
}
