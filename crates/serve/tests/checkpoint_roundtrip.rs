//! Property test of the `SCPK` snapshot and of the state the engine keeps
//! pre-encoded for it.
//!
//! Any interleaving of `register`, `ingest_sequenced`, `advance`,
//! `resolve` under compute faults, `checkpoint` and `restore` must keep
//! two promises: a snapshot restores to an engine that writes the same bytes
//! again, and an engine that was restored along the way — losing its
//! cost tables, its chosen-entry mirror and re-deriving its static
//! section — stays byte for byte the engine that never was. Registering
//! *after* a snapshot was taken is the interesting case for the static
//! section: it is appended to, never rebuilt.
//!
//! The dynamic snapshot rides along: laid over a full snapshot taken
//! *earlier* — any number of epochs, deliveries and re-solves ago — it
//! must restore to the engine as it stands now, and a registration in
//! between (another static section) must be refused by digest, not
//! misread.

use proptest::prelude::*;
use scope_cloudsim::{AccessKind, EventColumns, TierCatalog, TierId};
use scope_serve::{
    CompressionOption, ServeConfig, ServeEngine, ServeError, ServeObject, Serving, ShardFault,
};

const HORIZON_DAYS: u32 = 400;
const ACCOUNTS: usize = 3;

fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("gzip", 3.5, 1.5),
        CompressionOption::new("zstd", 2.4, 0.35),
    ]
}

fn catalog() -> TierCatalog {
    TierCatalog::azure_hot_cool_archive()
}

fn engine(threads: usize) -> ServeEngine {
    let config = ServeConfig {
        horizon_days: HORIZON_DAYS,
        threads,
        ..ServeConfig::default()
    };
    ServeEngine::new(catalog(), schemes(), config).expect("valid config")
}

/// The `k`-th object ever registered, shaped by `arg`.
fn object(k: usize, arg: usize) -> ServeObject {
    let mut spec = ServeObject::new(
        format!("object-{k}-{}", "x".repeat(arg % 5)),
        format!("account-{}", arg % ACCOUNTS),
        0.5 + (arg % 97) as f64 * 0.31,
        TierId(arg % 3),
    )
    .with_compression(arg % 3)
    .with_residency_days((arg % 211) as u32);
    if arg % 4 == 0 {
        spec = spec.with_latency_threshold(2.0);
    }
    spec
}

/// A small batch on and after `day`: reads and writes over the `objects`
/// registered so far and one id past them, now and then a corrupt volume
/// for the quarantine ledger, and one batch in three torn — its last one
/// or two `volumes` and `kinds` lost, so a batch parked early is ragged
/// and the snapshot must carry it byte for byte.
fn batch(day: u32, objects: usize, arg: usize) -> EventColumns {
    let mut cols = EventColumns::default();
    let mut state = arg as u64 ^ 0x9e37_79b9_7f4a_7c15;
    for i in 0..(4 + arg % 24) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let draw = (state >> 33) as usize;
        let id = (draw % (objects + 1)) as u32;
        let kind = if draw % 5 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let volume = if draw % 29 == 0 {
            f64::NAN
        } else {
            0.1 + (draw % 50) as f64 / 40.0
        };
        cols.push_resolved(day + (i % 3) as u32, id, kind, volume);
    }
    if arg % 3 == 0 {
        let kept = cols.len() - 1 - (arg / 3) % 2;
        cols.volumes.truncate(kept);
        cols.kinds.truncate(kept);
    }
    cols
}

fn restore(bytes: &[u8]) -> ServeEngine {
    ServeEngine::restore(catalog(), schemes(), bytes).expect("an engine's own snapshot restores")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_interleaving_round_trips_and_equals_the_never_restored_twin(
        ops in proptest::collection::vec(0usize..6_000, 8..60),
    ) {
        // `live` is restored from its own snapshot whenever an op says
        // so (and so runs at `threads: 0` from then on); `twin` never is.
        let (mut live, mut twin) = (engine(2), engine(1));
        // The account of every registered object, by interned id.
        let mut owners: Vec<String> = Vec::new();
        let (mut seq, mut day) = (0u64, 0u32);
        let mut snapshots = 0usize;
        // A full snapshot from some way back, with the fleet size then.
        let mut earlier: Option<(Vec<u8>, usize)> = None;
        // Two objects up front so that the first re-solve has shards.
        for op in [0usize, 7, 1, 2].into_iter().chain(ops.iter().copied()) {
            let (kind, arg) = (op % 6, op / 6);
            match kind {
                // Register, possibly into a new account, possibly after
                // snapshots were taken.
                0 | 1 if owners.len() < 40 => {
                    let spec = object(owners.len(), arg);
                    owners.push(spec.account.clone());
                    prop_assert_eq!(live.register(spec.clone()).ok(), twin.register(spec).ok());
                    prop_assert_eq!(live.len(), owners.len());
                }
                // Deliver: in order, or early (parked), or a duplicate.
                0..=2 => {
                    let cols = batch(day, owners.len(), arg);
                    let deliver = match arg % 7 {
                        0 => seq + 1 + (arg % 3) as u64,
                        1 => seq.saturating_sub(1),
                        _ => seq,
                    };
                    let a = live.ingest_sequenced(deliver, &cols);
                    let b = twin.ingest_sequenced(deliver, &cols);
                    prop_assert_eq!(&a, &b);
                    prop_assert_eq!(live.next_seq(), twin.next_seq());
                    seq = live.next_seq();
                }
                3 => {
                    day = (day + 1 + (arg % 20) as u32).min(HORIZON_DAYS - 4);
                    live.advance(day);
                    twin.advance(day);
                }
                // Re-solve, some shards faulted: a degraded shard serves
                // (and a snapshot must carry) its incumbent.
                4 => {
                    let faults: Vec<Option<ShardFault>> = (0..ACCOUNTS)
                        .map(|shard| match (arg >> (2 * shard)) % 4 {
                            0 => Some(ShardFault::SolveFailure),
                            1 if arg % 3 == 0 => Some(ShardFault::DeadlineOverrun),
                            _ => None,
                        })
                        .collect();
                    let a = live.resolve(&faults).expect("servable");
                    let b = twin.resolve(&faults).expect("servable");
                    prop_assert_eq!(a.total_objective.to_bits(), b.total_objective.to_bits());
                    prop_assert_eq!(a.retier_decisions, b.retier_decisions);
                    prop_assert_eq!(a.degraded_accounts, b.degraded_accounts);
                    for (x, y) in a.accounts.iter().zip(&b.accounts) {
                        prop_assert_eq!(&x.assignment, &y.assignment);
                        prop_assert_eq!(x.stale, y.stale);
                    }
                    // What a shard serves is what is applied, degraded
                    // or not: the snapshot stores the choices once.
                    for acct in &a.accounts {
                        let ids = (0..owners.len()).filter(|&id| owners[id] == acct.account);
                        let applied: Vec<_> = ids.map(|id| live.placement(id as u32)).collect();
                        let served: Vec<_> =
                            acct.assignment.choices.iter().map(|&c| Some(c)).collect();
                        prop_assert_eq!(served, applied);
                    }
                }
                // Snapshot; every other one is also a crash.
                _ => {
                    let snapshot = live.checkpoint();
                    prop_assert_eq!(&twin.checkpoint(), &snapshot);
                    let mut restored = restore(&snapshot);
                    prop_assert_eq!(&restored.checkpoint(), &snapshot);
                    prop_assert_eq!(restored.config().threads, 0);
                    // The dynamic part over the earlier full snapshot is
                    // the engine as it stands — unless objects were
                    // registered since, which the digest refuses.
                    let dynamic = live.checkpoint_dynamic();
                    prop_assert_eq!(&twin.checkpoint_dynamic(), &dynamic);
                    prop_assert!(dynamic.len() < snapshot.len() || owners.is_empty());
                    let (full, objects) = earlier.get_or_insert((snapshot.clone(), owners.len()));
                    let over = ServeEngine::restore_dynamic(catalog(), schemes(), full, &dynamic);
                    if *objects == owners.len() {
                        restored = over.expect("same static section");
                        prop_assert_eq!(&restored.checkpoint(), &snapshot);
                        prop_assert_eq!(&restored.checkpoint_dynamic(), &dynamic);
                    } else {
                        let refused = matches!(
                            &over,
                            Err(ServeError::Checkpoint(why)) if why.contains("static digest mismatch")
                        );
                        prop_assert!(refused, "{:?}", over.map(|_| "restored"));
                    }
                    snapshots += 1;
                    if snapshots % 3 == 0 {
                        earlier = Some((snapshot, owners.len()));
                    }
                    if snapshots % 2 == 0 {
                        live = restored;
                    }
                }
            }
        }
        let last = live.checkpoint();
        prop_assert_eq!(&twin.checkpoint(), &last);
        prop_assert_eq!(restore(&last).checkpoint(), last);
        for id in 0..live.len() as u32 {
            prop_assert_eq!(live.placement(id), twin.placement(id));
        }
    }
}
