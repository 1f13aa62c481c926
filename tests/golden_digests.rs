//! Digest pins for the scenarios whose settings are library constants: the
//! serving and chaos replays, the TPC-H scenario's inputs and
//! the multi-cloud outcome, each at its test options. A constant that
//! drifts from the value these were pinned at (an account count, a batch
//! count, a projection horizon, a re-tiering cadence) changes a digest even
//! when every self-consistency check of the scenario still holds.
//!
//! Each digest is `scope_wal::xxh64` of exact bytes: a checkpoint as the
//! engine wrote it, objective bits, or `{:?}` renderings, whose floats are
//! shortest-round-trip and so bit-level. Measured decompression speeds vary
//! run to run and are left out.

use scope::core::{
    run_chaos, run_multicloud, run_serving, tpch_scenario, ChaosOptions, EpochRecord,
    MultiCloudOptions, ScenarioOptions, ServingOptions,
};
use scope::workload::EnterpriseOptions;
use scope_wal::xxh64;

/// The serving scenario's test fleet: 60 datasets, a six-month window.
fn serving() -> ServingOptions {
    ServingOptions {
        workload: EnterpriseOptions {
            n_datasets: 60,
            history_months: 6,
            future_months: 6,
            seed: 11,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Digest of the per-epoch total objectives' bits, in replay order.
fn objective_digest(epochs: &[EpochRecord]) -> u64 {
    let bits: Vec<u8> = epochs
        .iter()
        .flat_map(|e| e.total_objective.to_bits().to_le_bytes())
        .collect();
    xxh64(&bits)
}

#[test]
fn serving_replay_digest_is_pinned() {
    let outcome = run_serving(&serving()).unwrap();
    assert_eq!(outcome.epochs.len(), 12);
    assert_eq!(xxh64(&outcome.final_checkpoint), 0x66817d624ce52fb2);
    assert_eq!(objective_digest(&outcome.epochs), 0x4f8eec20327ec4e6);
}

#[test]
fn chaos_replay_digest_is_pinned() {
    let outcome = run_chaos(&ChaosOptions {
        serving: serving(),
        ..Default::default()
    })
    .unwrap();
    assert_eq!(outcome.epochs.len(), 12);
    assert_eq!(xxh64(&outcome.final_checkpoint), 0xae156a5957fbd197);
    assert_eq!(objective_digest(&outcome.epochs), 0xa41f165fbd4e3406);
}

#[test]
fn tpch_scenario_inputs_digest_is_pinned() {
    let inputs = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 100.0,
        generator_scale: 0.05,
        queries_per_template: 4,
        total_files: 40,
    })
    .unwrap();
    // Sizes, file counts and compression ratios of every table, then every
    // query family's files and read count over the horizon.
    let mut rendered = format!("{:?}\n", inputs.horizon_months);
    for t in &inputs.tables {
        let ratios: Vec<f64> = t.options.iter().map(|o| o.ratio).collect();
        rendered.push_str(&format!(
            "{} {:?} {} {:?} {:?}\n",
            t.name, t.size_gb, t.n_files, ratios, t.latency_threshold_seconds
        ));
    }
    rendered.push_str(&format!("{:?}", inputs.families));
    assert_eq!(xxh64(rendered.as_bytes()), 0x5a7bba5417418486);
}

#[test]
fn multicloud_outcome_digest_is_pinned() {
    let outcome = run_multicloud(&MultiCloudOptions {
        workload: EnterpriseOptions {
            n_datasets: 100,
            history_months: 6,
            future_months: 6,
            seed: 42,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    assert_eq!(xxh64(format!("{outcome:?}").as_bytes()), 0x6092340821da62bc);
}
