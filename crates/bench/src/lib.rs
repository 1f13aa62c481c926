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

/// Format a floating-point cell with a fixed width for the printed tables.
pub fn cell(value: f64) -> String {
    if value.abs() >= 1000.0 {
        format!("{value:>10.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:>10.2}")
    } else {
        format!("{value:>10.4}")
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_widths_adapt_to_magnitude() {
        assert!(cell(12345.6).contains("12345.6"));
        assert!(cell(7.25159).contains("7.25"));
        assert!(cell(0.01234).contains("0.0123"));
        assert_eq!(cell(1.0).len(), 10);
    }
}
