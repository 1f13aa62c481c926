//! PR-4 benchmark suite: the cost-table engine vs the pre-table
//! model-driven solver paths, plus the interned billing accounting vs the
//! clone-per-event accounting it replaced.
//!
//! ```text
//! solver_bench [--json] [--quick] [--out PATH]
//! ```
//!
//! * `--json`  — also write the results as JSON (default path
//!   `BENCH_4.json` in the working directory; override with `--out`).
//! * `--quick` — small instances / single rep, for the CI smoke run.
//!
//! The solver section solves the **same instances** with both families —
//! `scope_optassign::reference` (every cost evaluation clones catalog +
//! topology into a fresh model, exactly the pre-PR-4 code path) and the
//! production table-driven solvers — asserts the results are identical,
//! and reports min-of-reps wall-clock per path. The headline numbers are
//! branch-and-bound and Hungarian matching at 1 000 partitions on the
//! merged 3-provider (12-tier) catalog.
//!
//! The billing section replays a 1 000-object day-granular fixture and
//! additionally micro-benchmarks the two per-event accounting schemes:
//! *before* — `ev.object.clone()` into a `HashMap<String, f64>` entry per
//! event (the allocation the engine used to pay); *after* — one interned-id
//! lookup and a `Vec` index (what `run_days` does now).

use scope_bench::{
    billing_fixture, billing_object_names, time_min, time_min_try, BenchArgs,
    BILLING_HORIZON_DAYS as HORIZON_DAYS,
};
use scope_cloudsim::ProviderCatalog;
use scope_optassign::reference::{
    solve_branch_and_bound_reference, solve_equal_size_matching_reference, solve_greedy_reference,
};
use scope_optassign::{
    solve_branch_and_bound, solve_equal_size_matching, solve_greedy, CompressionOption,
    OptAssignProblem, PartitionSpec,
};
use std::collections::HashMap;
use std::error::Error;

struct Config {
    args: BenchArgs,
    partitions: usize,
    reps: usize,
    billing_objects: usize,
    billing_events: usize,
}

impl Config {
    fn from_args() -> Result<Config, String> {
        let args = BenchArgs::parse("BENCH_4.json", &[])?;
        let quick = args.quick;
        Ok(Config {
            args,
            partitions: if quick { 200 } else { 1000 },
            reps: if quick { 1 } else { 3 },
            billing_objects: 1000,
            billing_events: if quick { 20_000 } else { 200_000 },
        })
    }
}

/// The greedy / branch-and-bound instance: `n` partitions with mixed sizes,
/// access rates, compression options, SLAs and residencies over the merged
/// 3-provider catalog (unbounded capacities — the paper's canonical case,
/// where solve time is pure cost evaluation).
fn merged_problem(n: usize) -> Result<OptAssignProblem, Box<dyn Error>> {
    let providers = ProviderCatalog::azure_s3_gcs();
    let azure_hot = providers.merged_tier_id("azure", "Hot")?;
    let parts: Vec<PartitionSpec> = (0..n)
        .map(|i| {
            let mut p =
                PartitionSpec::new(i, format!("p{i}"), 1.0 + (i % 97) as f64, (i % 31) as f64)
                    .with_compression_option(CompressionOption::new("gzip", 3.5, 4.0))
                    .with_compression_option(CompressionOption::new("snappy", 1.8, 0.4))
                    .with_current_tier(azure_hot)
                    .with_residency_days((i % 120) as u32);
            if i % 3 == 0 {
                p = p.with_latency_threshold(60.0); // excludes the slow archives
            }
            p
        })
        .collect();
    Ok(OptAssignProblem::multi_provider(&providers, parts, 6.0))
}

/// The matching instance: `n` equal-size no-compression partitions with
/// access rates spread continuously, every tier capacity-bounded to
/// `n / 2` copies so the reservations are real (no tier can hold more than
/// half the partitions) and the copy-expanded bipartite graph the
/// pre-table path builds is `n × 6n`. The model-driven reference pays both
/// `n·m` per-cell model evaluations *and* the dense Hungarian's
/// zero-cost-cycle prefix walks; the table path pays `n·L` lookups and the
/// collapsed-copy emulation.
fn matching_problem(n: usize) -> Result<OptAssignProblem, Box<dyn Error>> {
    let size = 10.0;
    let providers = ProviderCatalog::azure_s3_gcs();
    let parts: Vec<PartitionSpec> = (0..n)
        .map(|i| PartitionSpec::new(i, format!("p{i}"), size, (i as f64 * 7.31) % 3700.0))
        .collect();
    let mut problem = OptAssignProblem::multi_provider(&providers, parts, 6.0);
    let copies_per_tier = (n / 2).max(1);
    let names: Vec<String> = problem
        .catalog
        .iter()
        .map(|(_, t)| t.name.clone())
        .collect();
    for name in names {
        problem
            .catalog
            .set_capacity(&name, size * copies_per_tier as f64)?;
    }
    Ok(problem)
}

struct Comparison {
    model_s: f64,
    table_s: f64,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.model_s / self.table_s
    }
}

fn bench_greedy(cfg: &Config) -> Result<Comparison, Box<dyn Error>> {
    let problem = merged_problem(cfg.partitions)?;
    let (model_s, reference) = time_min_try(cfg.reps, || solve_greedy_reference(&problem))?;
    let (table_s, table) = time_min_try(cfg.reps, || solve_greedy(&problem))?;
    assert_eq!(table, reference, "greedy paths diverged");
    Ok(Comparison { model_s, table_s })
}

fn bench_branch_and_bound(cfg: &Config) -> Result<Comparison, Box<dyn Error>> {
    let problem = merged_problem(cfg.partitions)?;
    let budget = 1_000_000;
    let (model_s, reference) = time_min_try(cfg.reps, || {
        solve_branch_and_bound_reference(&problem, budget)
    })?;
    let (table_s, table) = time_min_try(cfg.reps, || solve_branch_and_bound(&problem, budget))?;
    assert_eq!(table, reference, "branch-and-bound paths diverged");
    Ok(Comparison { model_s, table_s })
}

fn bench_matching(cfg: &Config) -> Result<Comparison, Box<dyn Error>> {
    let problem = matching_problem(cfg.partitions)?;
    let (model_s, reference) =
        time_min_try(cfg.reps, || solve_equal_size_matching_reference(&problem))?;
    let (table_s, table) = time_min_try(cfg.reps, || solve_equal_size_matching(&problem))?;
    assert_eq!(table, reference, "matching paths diverged");
    Ok(Comparison { model_s, table_s })
}

struct BillingNumbers {
    run_days_s: f64,
    events_per_s: f64,
    accounting_before_s: f64,
    accounting_after_s: f64,
}

fn bench_billing(cfg: &Config) -> Result<BillingNumbers, Box<dyn Error>> {
    let (sim, events) = billing_fixture(cfg.billing_objects, cfg.billing_events);
    let (run_days_s, report) = time_min_try(cfg.reps, || sim.run_days(HORIZON_DAYS, &events))?;
    assert!(report.total() > 0.0);

    // Before/after microbench of the per-event accounting alone. "Before"
    // is the pre-PR-4 scheme run_days used: clone the object name into a
    // String-keyed map entry for every event. "After" is the interned
    // scheme: resolve the name to a dense id once per event (no allocation)
    // and bump a flat Vec slot.
    let names = billing_object_names(cfg.billing_objects);
    let reps = cfg.reps.max(3); // cheap enough to always rep
    let (accounting_before_s, before_map) = time_min(reps, || {
        let mut per_object: HashMap<String, f64> = HashMap::with_capacity(names.len());
        for ev in &events {
            *per_object.entry(ev.object.clone()).or_insert(0.0) += ev.volume_gb;
        }
        per_object
    });
    let name_ids: HashMap<&str, u32> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i as u32))
        .collect();
    let (accounting_after_s, totals) = time_min(reps, || {
        let mut totals = vec![0.0f64; names.len()];
        for ev in &events {
            if let Some(&id) = name_ids.get(ev.object.as_str()) {
                totals[id as usize] += ev.volume_gb;
            }
        }
        totals
    });
    // Same aggregate either way.
    let before_sum: f64 = before_map.values().sum();
    let after_sum: f64 = totals.iter().sum();
    assert!((before_sum - after_sum).abs() < 1e-6 * before_sum.abs().max(1.0));

    Ok(BillingNumbers {
        run_days_s,
        events_per_s: events.len() as f64 / run_days_s,
        accounting_before_s,
        accounting_after_s,
    })
}

fn main() -> Result<(), Box<dyn Error>> {
    let cfg = Config::from_args()?;
    println!(
        "solver_bench: {} partitions, merged 3-provider catalog (12 tiers), min of {} rep(s){}",
        cfg.partitions,
        cfg.reps,
        if cfg.args.quick { " [quick]" } else { "" }
    );

    let greedy = bench_greedy(&cfg)?;
    println!(
        "greedy            model-driven {:>9.4} s   table-driven {:>9.4} s   speedup {:>6.1}x",
        greedy.model_s,
        greedy.table_s,
        greedy.speedup()
    );
    let bnb = bench_branch_and_bound(&cfg)?;
    println!(
        "branch-and-bound  model-driven {:>9.4} s   table-driven {:>9.4} s   speedup {:>6.1}x",
        bnb.model_s,
        bnb.table_s,
        bnb.speedup()
    );
    let matching = bench_matching(&cfg)?;
    println!(
        "matching          model-driven {:>9.4} s   table-driven {:>9.4} s   speedup {:>6.1}x",
        matching.model_s,
        matching.table_s,
        matching.speedup()
    );

    let billing = bench_billing(&cfg)?;
    println!(
        "billing run_days  {:>9.4} s for {} events ({:.2} M events/s, {} objects)",
        billing.run_days_s,
        cfg.billing_events,
        billing.events_per_s / 1e6,
        cfg.billing_objects
    );
    println!(
        "event accounting  before (clone per event) {:>9.4} s   after (interned ids) {:>9.4} s   speedup {:>5.1}x",
        billing.accounting_before_s,
        billing.accounting_after_s,
        billing.accounting_before_s / billing.accounting_after_s
    );

    if cfg.args.json {
        let json = format!(
            "{{\n  \"issue\": 4,\n  \"quick\": {},\n  \"config\": {{\n    \"partitions\": {},\n    \"catalog\": \"azure+s3+gcs merged (12 tiers)\",\n    \"reps\": {},\n    \"billing_objects\": {},\n    \"billing_events\": {}\n  }},\n  \"solver\": {{\n    \"greedy\": {{ \"model_driven_s\": {:.6}, \"table_driven_s\": {:.6}, \"speedup\": {:.2} }},\n    \"branch_and_bound\": {{ \"model_driven_s\": {:.6}, \"table_driven_s\": {:.6}, \"speedup\": {:.2} }},\n    \"matching\": {{ \"model_driven_s\": {:.6}, \"table_driven_s\": {:.6}, \"speedup\": {:.2} }}\n  }},\n  \"billing\": {{\n    \"run_days_s\": {:.6},\n    \"events_per_s\": {:.0},\n    \"accounting_before_clone_per_event_s\": {:.6},\n    \"accounting_after_interned_s\": {:.6},\n    \"accounting_speedup\": {:.2},\n    \"note\": \"before = pre-PR-4 run_days accounting (ev.object.clone() into a HashMap<String,f64> entry per event); after = interned dense-id Vec indexing, the scheme run_days now uses — the engine's event loop is clone- and allocation-free per event\"\n  }}\n}}\n",
            cfg.args.quick,
            cfg.partitions,
            cfg.reps,
            cfg.billing_objects,
            cfg.billing_events,
            greedy.model_s,
            greedy.table_s,
            greedy.speedup(),
            bnb.model_s,
            bnb.table_s,
            bnb.speedup(),
            matching.model_s,
            matching.table_s,
            matching.speedup(),
            billing.run_days_s,
            billing.events_per_s,
            billing.accounting_before_s,
            billing.accounting_after_s,
            billing.accounting_before_s / billing.accounting_after_s,
        );
        std::fs::write(&cfg.args.out, &json)?;
        println!("wrote {}", cfg.args.out);
    }
    Ok(())
}
