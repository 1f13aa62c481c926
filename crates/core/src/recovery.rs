//! The crash-recovery replay: the journaled serving loop over
//! fault-injected storage, crashed at fuzzed step positions and recovered
//! by the single recovery protocol, pinned byte-for-byte against a
//! never-crashed twin by the [`crate::lockstep`] driver. This module is
//! the scenario's path and its pinned tests; the code and the contracts
//! live in [`crate::lockstep`].

pub use crate::lockstep::{run_recovery, RecoveryOptions, RecoveryOutcome};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::ServingOptions;
    use crate::ScopeError;
    use scope_faults::StorageFaultRates;
    use scope_workload::EnterpriseOptions;

    fn options() -> RecoveryOptions {
        RecoveryOptions {
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

    fn assert_contracts(outcome: &RecoveryOutcome) {
        assert!(outcome.checkpoints_bit_identical, "{outcome:?}");
        assert!(outcome.final_bit_identical, "{outcome:?}");
        for (i, e) in outcome.epochs.iter().enumerate() {
            assert!(
                e.checkpoint_matches_twin,
                "epoch {i} checkpoint diverged from twin"
            );
            assert!(
                e.objective_bits_match,
                "epoch {i} objective diverged from twin"
            );
        }
    }

    #[test]
    fn recovery_replay_is_bit_identical_under_light_storage_faults() {
        let outcome = run_recovery(&options()).unwrap();
        assert_eq!(outcome.objects, 60);
        assert_eq!(outcome.epochs.len(), 12);
        assert_contracts(&outcome);
        assert!(outcome.crashes >= 3, "{outcome:?}");
        assert_eq!(outcome.forced_crashes, 3);
        assert!(!outcome.fault_injection_capped, "{outcome:?}");
    }

    #[test]
    fn recovery_replay_survives_heavy_storage_faults() {
        let outcome = run_recovery(&RecoveryOptions {
            rates: StorageFaultRates::heavy(),
            seed: 7,
            ..options()
        })
        .unwrap();
        assert_contracts(&outcome);
        assert!(outcome.crashes > 3, "{outcome:?}");
        // The heavy mix actually corrupted storage somewhere.
        assert!(
            outcome.torn_crashes + outcome.bit_flip_crashes + outcome.injected_op_faults > 0,
            "{outcome:?}"
        );
    }

    #[test]
    fn a_faultless_plan_still_exercises_forced_fuzz_crashes() {
        let outcome = run_recovery(&RecoveryOptions {
            rates: StorageFaultRates::none(),
            ..options()
        })
        .unwrap();
        assert_contracts(&outcome);
        assert_eq!(outcome.crashes, 3, "only the forced fuzz crashes");
        assert_eq!(outcome.forced_crashes, 3);
        assert_eq!(outcome.injected_op_faults, 0);
        assert_eq!(outcome.torn_crashes, 0);
        assert_eq!(outcome.bit_flip_crashes, 0);
        assert_eq!(outcome.unrecoverable_resets, 0);
    }

    #[test]
    fn recovery_options_are_validated() {
        for bad in [
            RecoveryOptions {
                serving: ServingOptions {
                    epoch_days: 0,
                    ..options().serving
                },
                ..options()
            },
            RecoveryOptions {
                serving: ServingOptions {
                    accounts: 0,
                    ..options().serving
                },
                ..options()
            },
            RecoveryOptions {
                serving: ServingOptions {
                    batches_per_epoch: 0,
                    ..options().serving
                },
                ..options()
            },
            RecoveryOptions {
                rates: StorageFaultRates {
                    crash: -1.0,
                    ..StorageFaultRates::none()
                },
                ..options()
            },
        ] {
            assert!(matches!(
                run_recovery(&bad),
                Err(ScopeError::InvalidConfig(_))
            ));
        }
    }
}
