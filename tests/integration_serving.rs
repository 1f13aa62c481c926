//! End-to-end test of the serving scenario: a generated enterprise
//! account's day log is replayed epoch by epoch through the incremental
//! serving engine, threading workload → serve → optassign → cloudsim →
//! core in one pass, with every epoch differentially checked against the
//! preserved batch full-resolve.

use scope_core::{run_serving, ServingOptions};
use scope_workload::EnterpriseOptions;

fn options() -> ServingOptions {
    ServingOptions {
        workload: EnterpriseOptions {
            n_datasets: 80,
            history_months: 8,
            future_months: 6,
            seed: 7,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn serving_replay_stays_pinned_to_the_batch_reference() {
    let outcome = run_serving(&options()).unwrap();
    assert_eq!(outcome.objects, 80);
    assert_eq!(outcome.epochs.len(), 12);
    // Every epoch ran the cold reference solve and matched it bit-for-bit:
    // the incremental engine earns its speedup by skipping work, never by
    // approximating.
    for (i, e) in outcome.epochs.iter().enumerate() {
        assert!(e.matches_reference, "epoch {i}: {e:?}");
        assert!(e.total_objective.is_finite() && e.total_objective > 0.0);
    }
    // The trace fits the horizon, and the engine moved placements as the
    // datasets cooled.
    assert_eq!(outcome.dropped_events, 0);
    assert!(outcome.total_retier_decisions > 0, "{outcome:?}");
    // Steady state is a delta path: warm epochs re-evaluate only
    // re-bucketed rows, strictly less than the batch-equivalent work.
    let warm_rows: usize = outcome.epochs[1..].iter().map(|e| e.rows_patched).sum();
    assert!(warm_rows < (outcome.epochs.len() - 1) * outcome.objects);
}

#[test]
fn serving_outcome_is_independent_of_the_thread_count() {
    let sequential = run_serving(&ServingOptions {
        threads: 1,
        ..options()
    })
    .unwrap();
    let parallel = run_serving(&ServingOptions {
        threads: 8,
        ..options()
    })
    .unwrap();
    assert_eq!(sequential.epochs.len(), parallel.epochs.len());
    for (a, b) in sequential.epochs.iter().zip(&parallel.epochs) {
        assert_eq!(a.day, b.day);
        assert_eq!(a.rows_patched, b.rows_patched);
        assert_eq!(a.retier_decisions, b.retier_decisions);
        assert_eq!(
            a.total_objective.to_bits(),
            b.total_objective.to_bits(),
            "objective bits diverged at day {}",
            a.day
        );
    }
    assert_eq!(
        sequential.final_total_objective.to_bits(),
        parallel.final_total_objective.to_bits()
    );
}

#[test]
fn epoch_cadence_changes_work_but_not_correctness() {
    // A coarser cadence does fewer, larger epochs; every epoch still
    // matches the reference.
    let coarse = run_serving(&ServingOptions {
        epoch_days: 45,
        ..options()
    })
    .unwrap();
    assert_eq!(coarse.epochs.len(), 4);
    for e in &coarse.epochs {
        assert!(e.matches_reference, "{e:?}");
    }
}
