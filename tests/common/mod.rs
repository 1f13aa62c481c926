//! The small serving fleet and the hostile event stream the chaos and
//! recovery suites share.

use rand::rngs::SmallRng;
use rand::Rng;
use scope_cloudsim::{AccessKind, EventColumns, TierCatalog, TierId};
use scope_serve::{CompressionOption, ServeConfig, ServeEngine, ServeError, ServeObject};

pub const HORIZON_DAYS: u32 = 60;

pub fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("zstd", 2.4, 0.35),
    ]
}

/// `objects` objects round-robined over `accounts` accounts, on tier 0.
pub fn build_engine(objects: usize, accounts: usize) -> ServeEngine {
    let config = ServeConfig {
        horizon_days: HORIZON_DAYS,
        horizon_months: f64::from(HORIZON_DAYS) / 30.0,
        threads: 1,
        ..ServeConfig::default()
    };
    let mut engine =
        ServeEngine::new(TierCatalog::azure_hot_cool_archive(), schemes(), config).unwrap();
    for i in 0..objects {
        engine
            .register(ServeObject::new(
                format!("obj-{i}"),
                format!("acct-{}", i % accounts.max(1)),
                1.0 + i as f64 * 0.37,
                TierId(0),
            ))
            .unwrap();
    }
    engine
}

/// Restore a checkpoint of an engine [`build_engine`] made.
pub fn restore(checkpoint: &[u8]) -> Result<ServeEngine, ServeError> {
    ServeEngine::restore(TierCatalog::azure_hot_cool_archive(), schemes(), checkpoint)
}

/// A random event stream with everything the validating intake must
/// handle: out-of-horizon days, unknown object ids, NaN and negative
/// volumes, mixed reads and writes.
pub fn random_columns(rng: &mut SmallRng, n_events: usize, objects: usize) -> EventColumns {
    let mut cols = EventColumns::default();
    for _ in 0..n_events {
        let day = rng.gen_range(0..HORIZON_DAYS + 20);
        let id = rng.gen_range(0..objects as u32 + 3);
        let kind = if rng.gen_bool(0.2) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let volume = match rng.gen_range(0u32..10) {
            0 => f64::NAN,
            1 => -rng.gen_range(0.1f64..5.0),
            _ => rng.gen_range(0.01f64..3.0),
        };
        cols.push_resolved(day, id, kind, volume);
    }
    cols
}

pub fn heat_bits(engine: &ServeEngine) -> Vec<Option<u64>> {
    (0..engine.len() as u32)
        .map(|id| engine.heat(id).map(f64::to_bits))
        .collect()
}
