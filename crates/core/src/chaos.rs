//! The chaos replay: the serving loop under a seeded [`scope_faults`]
//! schedule — corrupt, torn, duplicated and reordered intake, per-shard
//! re-solve failures and deadline overruns, end-of-epoch crashes — run as
//! a three-engine lockstep by the [`crate::lockstep`] driver. This module
//! is the scenario's path and its pinned tests; the code and the
//! contracts live in [`crate::lockstep`].

pub use crate::lockstep::{run_chaos, ChaosOptions, ChaosOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::ServingOptions;
    use crate::ScopeError;
    use scope_faults::FaultRates;
    use scope_workload::EnterpriseOptions;

    fn options() -> ChaosOptions {
        ChaosOptions {
            serving: ServingOptions {
                workload: EnterpriseOptions {
                    n_datasets: 60,
                    history_months: 6,
                    future_months: 6,
                    seed: 11,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn assert_contracts(outcome: &ChaosOutcome) {
        assert!(outcome.recoveries_bit_identical);
        assert!(outcome.intake_matches_expected);
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(e.heat_matches_twin, "epoch {i} heat diverged from twin");
            assert!(
                e.matches_reference,
                "epoch {i} healthy shards diverged from reference"
            );
        }
    }

    #[test]
    fn chaos_replay_upholds_every_contract_under_light_faults() {
        let outcome = run_chaos(&options()).unwrap();
        assert_eq!(outcome.objects, 60);
        assert_eq!(outcome.epochs.len(), 12);
        assert_contracts(&outcome);
        // The light mix actually exercised something.
        assert!(outcome.quarantined_events > 0, "{outcome:?}");
        assert!(outcome.duplicate_batches > 0, "{outcome:?}");
        assert!(outcome.crashes > 0, "{outcome:?}");
        assert!(
            outcome.epochs.iter().any(|e| e.degraded_accounts > 0),
            "{outcome:?}"
        );
        assert!(outcome.final_total_objective.is_finite());
    }

    #[test]
    fn chaos_replay_under_heavy_faults_still_recovers() {
        let outcome = run_chaos(&ChaosOptions {
            rates: FaultRates::heavy(),
            seed: 7,
            ..options()
        })
        .unwrap();
        assert_contracts(&outcome);
        assert!(outcome.crashes > 0);
    }

    #[test]
    fn a_faultless_plan_reduces_to_the_serving_replay() {
        let outcome = run_chaos(&ChaosOptions {
            rates: FaultRates::none(),
            ..options()
        })
        .unwrap();
        assert_contracts(&outcome);
        assert_eq!(outcome.quarantined_events, 0);
        assert_eq!(outcome.duplicate_batches, 0);
        assert_eq!(outcome.crashes, 0);
        assert!(outcome.epochs.iter().all(|e| e.degraded_accounts == 0));
        // With no faults the chaos loop must reproduce the serving
        // scenario's replay exactly (same trace, same engine settings).
        let serving = crate::serving::run_serving(&options().serving).unwrap();
        assert_eq!(
            outcome.final_total_objective.to_bits(),
            serving.final_total_objective.to_bits()
        );
        assert_eq!(
            outcome.total_retier_decisions,
            serving.total_retier_decisions
        );
    }

    #[test]
    fn chaos_options_are_validated() {
        for bad in [
            ChaosOptions {
                serving: ServingOptions {
                    epoch_days: 0,
                    ..options().serving
                },
                ..options()
            },
            ChaosOptions {
                serving: ServingOptions {
                    accounts: 0,
                    ..options().serving
                },
                ..options()
            },
            ChaosOptions {
                serving: ServingOptions {
                    batches_per_epoch: 0,
                    ..options().serving
                },
                ..options()
            },
            ChaosOptions {
                rates: FaultRates {
                    crash: 1.5,
                    ..FaultRates::none()
                },
                ..options()
            },
        ] {
            assert!(matches!(run_chaos(&bad), Err(ScopeError::InvalidConfig(_))));
        }
    }
}
