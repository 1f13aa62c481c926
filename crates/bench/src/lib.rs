//! # scope-bench
//!
//! Benchmark harness for the SCOPe reproduction.
//!
//! Two kinds of targets live in this crate:
//!
//! * **Experiment binaries** (`src/bin/*.rs`, run with
//!   `cargo run --release -p scope-bench --bin <name>`): each regenerates
//!   one table or figure of the paper and prints the corresponding rows /
//!   series. The mapping from paper table/figure to binary is listed in
//!   `DESIGN.md` and `EXPERIMENTS.md`.
//! * **Criterion benches** (`benches/*.rs`, run with `cargo bench`): timing
//!   benchmarks backing the paper's performance claims (the optimizer runs
//!   in tens of milliseconds, scales linearly in the number of partitions,
//!   G-PART handles hundreds of query families, the codecs process MBs in
//!   milliseconds).
//!
//! This library holds what the targets share, each defined once: the
//! `*_bench` bins' command line and min-of-reps timers ([`harness`]), the
//! synthetic serving fixture of `serve_bench`, `chaos_bench` and
//! `recovery_bench` ([`serve_fixture`]), the billing benchmark fixture of
//! the `billing_bench` criterion bench and the `solver_bench` bin, and
//! small formatting helpers.

pub mod harness;
pub mod serve_fixture;

pub use harness::{min_seconds, time_min, time_min_try, BenchArgs};
pub use serve_fixture::ServeFixture;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scope_cloudsim::{
    billing::Placement, BillingEvent, BillingSimulator, ObjectSpec, PlacementSchedule, TierCatalog,
    TierId, DAYS_PER_MONTH,
};

/// Horizon of the billing benchmark fixture, in days.
pub const BILLING_HORIZON_DAYS: u32 = 6 * DAYS_PER_MONTH;

/// Object names of the billing fixture, `obj-0 .. obj-{n-1}`.
pub fn billing_object_names(n_objects: usize) -> Vec<String> {
    (0..n_objects).map(|i| format!("obj-{i}")).collect()
}

/// The day-granular billing benchmark fixture: `n_objects` objects on
/// lifecycle schedules (hot → cooler at a random period boundary) and a
/// day-stamped trace of `n_events` accesses, generated from a fixed seed so
/// every bench target replays the identical workload.
pub fn billing_fixture(n_objects: usize, n_events: usize) -> (BillingSimulator, Vec<BillingEvent>) {
    let catalog = TierCatalog::azure_adls_gen2();
    let n_tiers = catalog.len();
    let mut sim = BillingSimulator::new(catalog);
    let mut rng = SmallRng::seed_from_u64(42);
    for i in 0..n_objects {
        let size_gb = rng.gen_range(1.0..500.0);
        let start = TierId(rng.gen_range(0..n_tiers));
        let later = TierId(rng.gen_range(0..n_tiers));
        let mut schedule = PlacementSchedule::constant(Placement::uncompressed(start));
        if rng.gen_range(0..4) > 0 {
            let boundary = rng.gen_range(1..BILLING_HORIZON_DAYS / DAYS_PER_MONTH) * DAYS_PER_MONTH;
            schedule = schedule.with_transition(boundary, Placement::uncompressed(later));
        }
        sim.place_scheduled(
            ObjectSpec::new(format!("obj-{i}"), size_gb)
                .on_tier(start)
                .with_residency_days(rng.gen_range(0..120)),
            schedule,
        )
        .expect("valid placement");
    }
    let events = (0..n_events)
        .map(|_| {
            let object = format!("obj-{}", rng.gen_range(0..n_objects));
            let day = rng.gen_range(0..BILLING_HORIZON_DAYS);
            let volume = rng.gen_range(0.01..50.0);
            if rng.gen_range(0..10) == 0 {
                BillingEvent::write(object, day, volume)
            } else {
                BillingEvent::read(object, day, volume)
            }
        })
        .collect();
    (sim, events)
}

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
