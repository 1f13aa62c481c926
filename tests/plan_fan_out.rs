//! Who spawns threads under a batch plan, counted.
//!
//! A plan fans out in two places, once each: `build_examples` cuts its
//! samples by weight over at most `default_threads()` workers (and times
//! decompression on the calling thread afterwards), and `run_all_policies`
//! fans the table's rows out over the partitions it built once — nothing
//! underneath a row (the cost-table build, the solvers) fans out again at
//! a scenario's size. `scope_cloudsim::parallel::workers_spawned` counts
//! every worker the process spawns, so these tests live in a binary of
//! their own and take a lock: no other test's fan-out can move the counter
//! under them.

use std::collections::HashSet;
use std::sync::Mutex;

use scope_cloudsim::parallel::{
    default_threads, parallel_map_weighted_with_threads, workers_spawned,
};
use scope_compredict::predictor::build_examples;
use scope_compredict::{random_samples, FeatureExtractor, FeatureSet};
use scope_compress::CompressionScheme;
use scope_core::{run_all_policies, tpch_scenario, Policy, ScenarioOptions};
use scope_table::{DataLayout, Table, TpchGenerator, TpchOptions, TpchTable};

static COUNTER: Mutex<()> = Mutex::new(());

/// `count` equal-sized random samples of the orders table.
fn samples(count: usize) -> Vec<Table> {
    let orders = TpchGenerator::new(TpchOptions {
        scale_factor: 0.05,
        ..Default::default()
    })
    .expect("valid options")
    .generate(TpchTable::Orders);
    random_samples(&orders, count, 30, 5).expect("enough rows")
}

fn examples_of(samples: &[Table]) -> usize {
    let extractor = FeatureExtractor::new(FeatureSet::WeightedEntropy);
    build_examples(
        samples,
        CompressionScheme::Gzip,
        DataLayout::Columnar,
        &extractor,
    )
    .len()
}

#[test]
fn one_sample_spawns_no_worker() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let one = samples(1);
    let before = workers_spawned();
    assert_eq!(examples_of(&one), 1);
    assert_eq!(examples_of(&[]), 0);
    assert_eq!(workers_spawned(), before);
}

#[test]
fn many_samples_fan_out_exactly_once() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let many = samples(16);
    let before = workers_spawned();
    assert_eq!(examples_of(&many), 16);
    // Sixteen equal weights cut into exactly `default_threads()` (at most
    // 8) chunks; one fan-out, and the timed half spawns nothing.
    let expected = match default_threads() {
        1 => 0,
        threads => threads as u64,
    };
    assert_eq!(workers_spawned() - before, expected);
}

#[test]
fn the_policy_table_spawns_one_level_of_workers() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = tpch_scenario(&ScenarioOptions {
        nominal_total_gb: 100.0,
        generator_scale: 0.05,
        queries_per_template: 4,
        total_files: 40,
        ..Default::default()
    })
    .expect("valid scenario");
    let rows = Policy::table_rows().len();
    let before = workers_spawned();
    assert_eq!(run_all_policies(&inputs).expect("valid inputs").len(), rows);
    // The rows are cut by count: chunks of `ceil(rows / threads)`. A nested
    // fan-out under any row would add to this.
    let expected = match default_threads() {
        1 => 0,
        threads => rows.div_ceil(rows.div_ceil(threads)) as u64,
    };
    assert_eq!(workers_spawned() - before, expected);
}

#[test]
fn a_weight_cut_spawns_one_worker_per_chunk_and_none_on_one_thread() {
    let _alone = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let shapes: [&[u64]; 6] = [
        &[5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5],
        &[0, 0, 0, 0, 0, 0, 0],
        &[1000, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        &[1, 2, 3, 4, 5, 6, 7, 8, 9, 1000],
        &[3, 9],
        &[],
    ];
    for weights in shapes {
        for threads in 1..=13 {
            let before = workers_spawned();
            let ran_on = parallel_map_weighted_with_threads(
                weights,
                threads,
                |&w| w,
                |_, _| std::thread::current().id(),
            );
            let spawned = workers_spawned() - before;
            let chunks: HashSet<_> = ran_on.iter().collect();
            if threads.min(weights.len()) <= 1 {
                assert_eq!(spawned, 0, "{weights:?} over {threads}");
                assert!(ran_on.iter().all(|&id| id == std::thread::current().id()));
            } else {
                assert_eq!(spawned, chunks.len() as u64, "{weights:?} over {threads}");
                assert!(spawned <= threads as u64);
            }
        }
    }
}
