//! The plain serving replay: a generated enterprise account's day log
//! replayed epoch by epoch through the incremental [`scope_serve`] engine
//! by the [`crate::lockstep`] driver, every re-solve checked against the
//! batch reference. This module is the scenario's path and its pinned
//! tests; the code lives in [`crate::lockstep`].

pub use crate::lockstep::{run_serving, ServingOptions, ServingOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScopeError;
    use scope_workload::EnterpriseOptions;

    fn options() -> ServingOptions {
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

    #[test]
    fn serving_replay_matches_the_batch_reference_on_every_epoch() {
        let outcome = run_serving(&options()).unwrap();
        assert_eq!(outcome.objects, 60);
        assert_eq!(outcome.epochs.len(), 12); // 180 days / 15-day epochs
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(e.matches_reference, "epoch {i} diverged from reference");
        }
        // The first epoch is a cold build; the steady state is a delta
        // path that re-evaluates only re-bucketed rows.
        assert_eq!(outcome.epochs[0].rows_patched, outcome.objects);
        let warm_rows: usize = outcome.epochs[1..].iter().map(|e| e.rows_patched).sum();
        assert!(
            warm_rows < (outcome.epochs.len() - 1) * outcome.objects,
            "warm epochs patched {warm_rows} rows; not incremental"
        );
        // Cooling datasets make the engine move placements mid-stream.
        assert!(outcome.total_retier_decisions > 0, "{outcome:?}");
        // The replayed trace lies inside the configured horizon.
        assert_eq!(outcome.dropped_events, 0);
        assert!(outcome.final_total_objective.is_finite());
    }

    #[test]
    fn serving_options_are_validated() {
        let bad = ServingOptions {
            epoch_days: 0,
            ..options()
        };
        assert!(matches!(
            run_serving(&bad),
            Err(ScopeError::InvalidConfig(_))
        ));
        let bad = ServingOptions {
            accounts: 0,
            ..options()
        };
        assert!(matches!(
            run_serving(&bad),
            Err(ScopeError::InvalidConfig(_))
        ));
    }
}
