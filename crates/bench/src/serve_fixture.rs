//! The synthetic serving fixture of `serve_bench`, `chaos_bench` and
//! `recovery_bench`: one fleet, one skewed drifting trace, one scheme
//! list, so the three bins verify and time the same workload.

use scope_cloudsim::{AccessKind, EventColumns, TierCatalog, TierId};
use scope_core::lockstep::Fleet;
use scope_serve::{CompressionOption, ServeConfig, ServeObject};

/// Sizes of the fixture.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFixture {
    /// Objects in the fleet.
    pub objects: usize,
    /// Billing accounts the objects are round-robined into.
    pub accounts: usize,
    /// Epochs in the replay.
    pub epochs: u32,
    /// Days per epoch.
    pub epoch_days: u32,
    /// Events per day of the trace.
    pub events_per_day: usize,
}

/// The six compression schemes every fixture object may be stored under.
pub fn schemes() -> Vec<CompressionOption> {
    vec![
        CompressionOption::none(),
        CompressionOption::new("gzip", 3.5, 1.5),
        CompressionOption::new("zstd", 2.4, 0.35),
        CompressionOption::new("lz4", 2.1, 0.15),
        CompressionOption::new("snappy", 1.8, 0.08),
        CompressionOption::new("brotli", 3.9, 2.6),
    ]
}

impl ServeFixture {
    /// The 4 000-object configuration, or the 1 000-object CI smoke one.
    pub fn new(quick: bool) -> Self {
        ServeFixture {
            objects: if quick { 1000 } else { 4000 },
            accounts: 8,
            epochs: if quick { 6 } else { 10 },
            epoch_days: 15,
            events_per_day: if quick { 2400 } else { 6000 },
        }
    }

    /// Days the replay covers.
    pub fn horizon_days(&self) -> u32 {
        self.epochs * self.epoch_days
    }

    /// A fleet of distinct-size objects round-robined into the billing
    /// accounts; every third object carries a latency threshold that rules
    /// the archive tier out. `threads` is the re-solve fan-out (0 =
    /// default).
    pub fn fleet(&self, threads: usize) -> Fleet {
        let horizon_days = self.horizon_days();
        let config = ServeConfig {
            horizon_days,
            horizon_months: f64::from(horizon_days) / 30.0,
            threads,
            // Serving-tuned heat dynamics: a short memory window (heat
            // equilibrates within the cold epoch), coarse buckets, and a wide
            // hysteresis band keep steady-state heat inside its bucket unless
            // the access pattern genuinely shifts, which is what makes the
            // delta path a delta (the differential pass holds for ANY
            // setting; these only trade estimate freshness for patch volume).
            decay_per_day: 0.82,
            bucket_base: 3.0,
            bucket_hysteresis: 4.0,
            ..ServeConfig::default()
        };
        let objects = (0..self.objects)
            .map(|i| {
                let spec = ServeObject::new(
                    format!("obj-{i:06}"),
                    format!("account-{}", i % self.accounts),
                    0.5 + (i as f64) * 0.173,
                    TierId(i % 2),
                )
                .with_residency_days((i as u32 * 13) % 200);
                if i % 3 == 0 {
                    spec.with_latency_threshold(2.0)
                } else {
                    spec
                }
            })
            .collect();
        Fleet {
            catalog: TierCatalog::azure_hot_cool_archive(),
            schemes: schemes(),
            config,
            objects,
        }
    }

    /// Skewed deterministic trace over the fleet's interned ids (object
    /// `i` registers as id `i`): squared-uniform draws concentrate reads on
    /// a hot set that drifts by one object id per day (so each epoch a
    /// handful of objects genuinely change heat class while the rest stay
    /// put), ~10% writes, volumes in (0.02, 1.3) GB.
    pub fn trace(&self) -> EventColumns {
        let mut seed = 0x8eed_5e12_u64;
        let mut draw = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let n = self.objects as u32;
        let mut columns = EventColumns::default();
        for day in 0..self.horizon_days() {
            for _ in 0..self.events_per_day {
                let r = draw() % n;
                let id = ((u64::from(r) * u64::from(r) / u64::from(n)) as u32 + day) % n;
                let volume = 0.02 + f64::from(draw() % 128) / 100.0;
                let kind = if draw() % 10 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                columns.push_resolved(day, id, kind, volume);
            }
        }
        columns
    }
}
