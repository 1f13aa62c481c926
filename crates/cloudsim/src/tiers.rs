//! Storage tier definitions and the tier catalog.
//!
//! The numbers in [`TierCatalog::azure_adls_gen2`] reproduce Table I and
//! Table XII of the paper: four tiers (Premium, Hot, Cool, Archive) with a
//! clear trade-off between storage cost, read cost and time-to-first-byte.

use crate::error::CloudSimError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a tier inside a [`TierCatalog`].
///
/// Tier 0 is the lowest-latency (most expensive) tier and the highest id is
/// the archival tier, mirroring the paper's convention that "layer 0 denotes
/// the lowest latency layer and L-1 denotes the archival layer".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TierId(pub usize);

impl TierId {
    /// Index of this tier inside its catalog.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TierId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tier#{}", self.0)
    }
}

/// A single storage tier and its cost / latency parameters.
///
/// All costs are expressed in **cents** so that results can be compared
/// directly with the paper's tables. Sizes are in **GB** and latencies in
/// **seconds**.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tier {
    /// Human-readable tier name ("Premium", "Hot", "Cool", "Archive", ...).
    pub name: String,
    /// Storage cost in cents per GB per month (`C^s_l` in the paper).
    pub storage_cost_cents_per_gb_month: f64,
    /// Read cost in cents per GB read (`C^r_l`).
    pub read_cost_cents_per_gb: f64,
    /// Write cost in cents per GB written (`C^w_l = Delta_{-1,l}`).
    pub write_cost_cents_per_gb: f64,
    /// Read latency, measured as time-to-first-byte in seconds (`B_l`).
    pub ttfb_seconds: f64,
    /// Minimum residency before the object can be moved without an early
    /// deletion penalty, in days (e.g. 180 for Azure Archive).
    pub early_deletion_days: u32,
    /// Optional capacity reservation for this tier in GB (`S_l`). `None`
    /// means unbounded, which is the common "pay per usage" setting.
    pub capacity_gb: Option<f64>,
}

impl Tier {
    /// Create a tier with unbounded capacity and no early-deletion period.
    pub fn new(
        name: impl Into<String>,
        storage_cost_cents_per_gb_month: f64,
        read_cost_cents_per_gb: f64,
        write_cost_cents_per_gb: f64,
        ttfb_seconds: f64,
    ) -> Self {
        Tier {
            name: name.into(),
            storage_cost_cents_per_gb_month,
            read_cost_cents_per_gb,
            write_cost_cents_per_gb,
            ttfb_seconds,
            early_deletion_days: 0,
            capacity_gb: None,
        }
    }

    /// Builder-style setter for the early deletion period.
    pub fn with_early_deletion_days(mut self, days: u32) -> Self {
        self.early_deletion_days = days;
        self
    }
}

/// Ordered collection of storage tiers.
///
/// The ordering is significant: index 0 is the fastest/most expensive tier
/// and the last index is the archival tier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TierCatalog {
    tiers: Vec<Tier>,
    /// Interned name → index lookup, built once at construction so
    /// [`TierCatalog::tier_id`] is O(1) instead of a linear scan. Tier
    /// names never change after construction (`set_capacity` touches only
    /// capacities), so the index cannot go stale; catalogs built through [`TierCatalog::new`] — including
    /// merged multi-provider catalogs — always carry it.
    name_index: HashMap<String, usize>,
    /// Compute cost in cents per second (`C^c`), used to price
    /// decompression CPU time. Default follows Table XII (0.001 cents/s).
    pub compute_cost_cents_per_second: f64,
}

impl TierCatalog {
    /// Build a catalog from an ordered list of tiers.
    ///
    /// Returns an error if `tiers` is empty.
    pub fn new(tiers: Vec<Tier>) -> Result<Self, CloudSimError> {
        if tiers.is_empty() {
            return Err(CloudSimError::EmptyCatalog);
        }
        Ok(Self::from_tiers(tiers))
    }

    /// Infallible constructor for callers that guarantee a non-empty tier
    /// list (the shipped static catalogs, merges of validated catalogs).
    pub(crate) fn from_tiers(tiers: Vec<Tier>) -> Self {
        // First occurrence wins, matching the historical linear-scan
        // semantics for (pathological) duplicate-name catalogs.
        let mut name_index = HashMap::with_capacity(tiers.len());
        for (i, t) in tiers.iter().enumerate() {
            name_index.entry(t.name.clone()).or_insert(i);
        }
        TierCatalog {
            tiers,
            name_index,
            compute_cost_cents_per_second: 0.001,
        }
    }

    /// The Azure ADLS Gen2 tier catalog used throughout the paper.
    ///
    /// Parameters follow Table I (storage cost, early deletion) and
    /// Table XII (read cost per GB, TTFB, compute cost):
    ///
    /// | Tier    | storage c/GB/mo | read c/GB | TTFB (s) | early deletion |
    /// |---------|-----------------|-----------|----------|----------------|
    /// | Premium | 15.0            | 0.004659  | 0.0053   | 0 days         |
    /// | Hot     | 2.08            | 0.01331   | 0.0614   | 0 days         |
    /// | Cool    | 1.52            | 0.0333    | 0.0614   | 30 days        |
    /// | Archive | 0.099           | 16.64     | 3600     | 180 days       |
    ///
    /// Write costs are derived from the published per-10k-operation write
    /// prices normalised to cents/GB (4 MB operations), and are small
    /// compared to storage and read costs, matching the paper's treatment.
    pub fn azure_adls_gen2() -> Self {
        let tiers = vec![
            Tier::new("Premium", 15.0, 0.004659, 0.00932, 0.0053),
            Tier::new("Hot", 2.08, 0.01331, 0.01331, 0.0614),
            Tier::new("Cool", 1.52, 0.0333, 0.02662, 0.0614).with_early_deletion_days(30),
            Tier::new("Archive", 0.099, 16.64, 0.02662, 3600.0).with_early_deletion_days(180),
        ];
        TierCatalog::from_tiers(tiers)
    }

    /// An S3-style four-tier ladder (Standard, Standard-IA, Glacier-IR,
    /// Deep Archive) for the multi-provider experiments.
    ///
    /// The numbers are stylized from the published S3 price sheet the same
    /// way Table I/XII stylize ADLS Gen2: storage in cents/GB/month,
    /// per-GB retrieval charges folded into the read rate, and minimum
    /// storage durations as the early-deletion window.
    ///
    /// | Tier         | storage c/GB/mo | read c/GB | TTFB (s) | min. duration |
    /// |--------------|-----------------|-----------|----------|---------------|
    /// | Standard     | 2.3             | 0.0135    | 0.1      | 0 days        |
    /// | Standard-IA  | 1.25            | 1.0       | 0.1      | 30 days       |
    /// | Glacier-IR   | 0.4             | 3.0       | 0.1      | 90 days       |
    /// | Deep Archive | 0.099           | 5.0       | 43200    | 180 days      |
    pub(crate) fn aws_s3() -> Self {
        let tiers = vec![
            Tier::new("Standard", 2.3, 0.0135, 0.005, 0.1),
            Tier::new("Standard-IA", 1.25, 1.0, 0.01, 0.1).with_early_deletion_days(30),
            Tier::new("Glacier-IR", 0.4, 3.0, 0.02, 0.1).with_early_deletion_days(90),
            Tier::new("Deep-Archive", 0.099, 5.0, 0.05, 43200.0).with_early_deletion_days(180),
        ];
        TierCatalog::from_tiers(tiers)
    }

    /// A GCS-style four-tier ladder (Standard, Nearline, Coldline,
    /// Archive) for the multi-provider experiments.
    ///
    /// GCS's defining difference from the other ladders: every tier —
    /// including Archive — serves reads at millisecond time-to-first-byte,
    /// trading that for per-GB retrieval fees and long minimum storage
    /// durations on the cold tiers.
    ///
    /// | Tier     | storage c/GB/mo | read c/GB | TTFB (s) | min. duration |
    /// |----------|-----------------|-----------|----------|---------------|
    /// | Standard | 2.0             | 0.014     | 0.08     | 0 days        |
    /// | Nearline | 1.0             | 1.0       | 0.08     | 30 days       |
    /// | Coldline | 0.4             | 2.0       | 0.08     | 90 days       |
    /// | Archive  | 0.12            | 5.0       | 0.08     | 365 days      |
    pub(crate) fn gcp_gcs() -> Self {
        let tiers = vec![
            Tier::new("Standard", 2.0, 0.014, 0.005, 0.08),
            Tier::new("Nearline", 1.0, 1.0, 0.01, 0.08).with_early_deletion_days(30),
            Tier::new("Coldline", 0.4, 2.0, 0.02, 0.08).with_early_deletion_days(90),
            Tier::new("Archive", 0.12, 5.0, 0.05, 0.08).with_early_deletion_days(365),
        ];
        TierCatalog::from_tiers(tiers)
    }

    /// Catalog restricted to the Hot and Cool tiers, used for the
    /// Enterprise Data I experiments of Tables III and IV ("OptAssign
    /// (Hot, Cool)").
    pub fn azure_hot_cool() -> Self {
        let full = Self::azure_adls_gen2();
        let tiers = full
            .tiers
            .iter()
            .filter(|t| t.name == "Hot" || t.name == "Cool")
            .cloned()
            .collect();
        TierCatalog::from_tiers(tiers)
    }

    /// Catalog with Hot, Cool and Archive, used for the 6-month enterprise
    /// experiments where the archive layer is allowed.
    pub fn azure_hot_cool_archive() -> Self {
        let full = Self::azure_adls_gen2();
        let tiers = full
            .tiers
            .iter()
            .filter(|t| t.name != "Premium")
            .cloned()
            .collect();
        TierCatalog::from_tiers(tiers)
    }

    /// Catalog with Premium, Hot and Cool (no Archive), used for the
    /// TPC-H pipeline experiments of Tables IX–XI where Archive is excluded
    /// because of its 6-month early-deletion period.
    pub fn azure_premium_hot_cool() -> Self {
        let full = Self::azure_adls_gen2();
        let tiers = full
            .tiers
            .iter()
            .filter(|t| t.name != "Archive")
            .cloned()
            .collect();
        TierCatalog::from_tiers(tiers)
    }

    /// Number of tiers (`L` in the paper).
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// True if the catalog has no tiers (never true for a constructed catalog).
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// Iterate over `(TierId, &Tier)` pairs in order of increasing latency.
    pub fn iter(&self) -> impl Iterator<Item = (TierId, &Tier)> {
        self.tiers.iter().enumerate().map(|(i, t)| (TierId(i), t))
    }

    /// All tier ids in catalog order.
    pub fn tier_ids(&self) -> Vec<TierId> {
        (0..self.tiers.len()).map(TierId).collect()
    }

    /// Look up a tier by id.
    pub fn tier(&self, id: TierId) -> Result<&Tier, CloudSimError> {
        self.tiers
            .get(id.0)
            .ok_or_else(|| CloudSimError::UnknownTier(format!("{id}")))
    }

    /// Look up a tier id by (case-sensitive) name. O(1): resolved through
    /// the interned index built at construction, not a scan of the ladder —
    /// merged multi-provider catalogs resolve `provider:tier` names at the
    /// same constant cost as a four-tier ladder.
    pub fn tier_id(&self, name: &str) -> Result<TierId, CloudSimError> {
        self.name_index
            .get(name)
            .map(|&i| TierId(i))
            .ok_or_else(|| CloudSimError::UnknownTier(name.to_string()))
    }

    /// Apply a capacity reservation (in GB) to the named tier.
    ///
    /// This models "storage reservations on tiers" — the `S_l` bound of the
    /// OPTASSIGN capacity constraint.
    pub fn set_capacity(&mut self, name: &str, capacity_gb: f64) -> Result<(), CloudSimError> {
        if !capacity_gb.is_finite() || capacity_gb < 0.0 {
            return Err(CloudSimError::InvalidParameter {
                name: "capacity_gb",
                value: capacity_gb,
            });
        }
        let id = self.tier_id(name)?;
        self.tiers[id.0].capacity_gb = Some(capacity_gb);
        Ok(())
    }

    /// The lowest-latency tier id (index 0).
    pub fn fastest_tier(&self) -> TierId {
        TierId(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn azure_catalog_matches_paper_table1_and_table12() {
        let c = TierCatalog::azure_adls_gen2();
        assert_eq!(c.len(), 4);
        let premium = c.tier(c.tier_id("Premium").unwrap()).unwrap();
        let hot = c.tier(c.tier_id("Hot").unwrap()).unwrap();
        let cool = c.tier(c.tier_id("Cool").unwrap()).unwrap();
        let archive = c.tier(c.tier_id("Archive").unwrap()).unwrap();

        assert_eq!(premium.storage_cost_cents_per_gb_month, 15.0);
        assert_eq!(hot.storage_cost_cents_per_gb_month, 2.08);
        assert_eq!(cool.storage_cost_cents_per_gb_month, 1.52);
        assert_eq!(archive.storage_cost_cents_per_gb_month, 0.099);

        assert_eq!(premium.read_cost_cents_per_gb, 0.004659);
        assert_eq!(hot.read_cost_cents_per_gb, 0.01331);
        assert_eq!(cool.read_cost_cents_per_gb, 0.0333);
        assert_eq!(archive.read_cost_cents_per_gb, 16.64);

        assert_eq!(premium.ttfb_seconds, 0.0053);
        assert_eq!(archive.ttfb_seconds, 3600.0);
        assert_eq!(c.compute_cost_cents_per_second, 0.001);
    }

    #[test]
    fn tier_ordering_trades_storage_for_read_cost() {
        // The defining property of the tier ladder: as storage gets cheaper,
        // reads get more expensive and latency grows.
        let c = TierCatalog::azure_adls_gen2();
        let tiers: Vec<&Tier> = c.iter().map(|(_, t)| t).collect();
        for w in tiers.windows(2) {
            assert!(w[0].storage_cost_cents_per_gb_month > w[1].storage_cost_cents_per_gb_month);
            assert!(w[0].read_cost_cents_per_gb <= w[1].read_cost_cents_per_gb);
            assert!(w[0].ttfb_seconds <= w[1].ttfb_seconds);
        }
    }

    #[test]
    fn tier_id_lookup_and_unknown_tier() {
        let c = TierCatalog::azure_adls_gen2();
        assert_eq!(c.tier_id("Hot").unwrap(), TierId(1));
        assert!(matches!(
            c.tier_id("Glacier"),
            Err(CloudSimError::UnknownTier(_))
        ));
        assert!(matches!(
            c.tier(TierId(99)),
            Err(CloudSimError::UnknownTier(_))
        ));
    }

    #[test]
    fn restricted_catalogs_have_expected_tiers() {
        assert_eq!(TierCatalog::azure_hot_cool().len(), 2);
        assert_eq!(TierCatalog::azure_hot_cool_archive().len(), 3);
        assert_eq!(TierCatalog::azure_premium_hot_cool().len(), 3);
        assert!(TierCatalog::azure_premium_hot_cool()
            .tier_id("Archive")
            .is_err());
    }

    #[test]
    fn empty_catalog_rejected() {
        assert_eq!(
            TierCatalog::new(vec![]).unwrap_err(),
            CloudSimError::EmptyCatalog
        );
    }

    #[test]
    fn set_capacity_validates_and_applies() {
        let mut c = TierCatalog::azure_adls_gen2();
        c.set_capacity("Premium", 0.163).unwrap();
        let p = c.tier(c.tier_id("Premium").unwrap()).unwrap();
        assert_eq!(p.capacity_gb, Some(0.163));
        assert!(c.set_capacity("Premium", f64::NAN).is_err());
        assert!(c.set_capacity("Premium", -1.0).is_err());
    }

    #[test]
    fn archive_and_fastest_helpers() {
        let c = TierCatalog::azure_adls_gen2();
        assert_eq!(c.fastest_tier(), TierId(0));
        assert_eq!(c.tier(c.fastest_tier()).unwrap().name, "Premium");
    }

    #[test]
    fn s3_and_gcs_ladders_trade_storage_for_read_cost() {
        for catalog in [TierCatalog::aws_s3(), TierCatalog::gcp_gcs()] {
            assert_eq!(catalog.len(), 4);
            let tiers: Vec<&Tier> = catalog.iter().map(|(_, t)| t).collect();
            for w in tiers.windows(2) {
                assert!(
                    w[0].storage_cost_cents_per_gb_month > w[1].storage_cost_cents_per_gb_month
                );
                assert!(w[0].read_cost_cents_per_gb <= w[1].read_cost_cents_per_gb);
                assert!(w[0].ttfb_seconds <= w[1].ttfb_seconds);
                assert!(w[0].early_deletion_days <= w[1].early_deletion_days);
            }
        }
    }

    #[test]
    fn gcs_archive_is_fast_but_expensive_to_read() {
        let gcs = TierCatalog::gcp_gcs();
        let archive = gcs.tier(gcs.tier_id("Archive").unwrap()).unwrap();
        // The millisecond-latency archive is what makes cross-provider
        // placement interesting for latency-bounded cold data.
        assert!(archive.ttfb_seconds < 1.0);
        assert_eq!(archive.early_deletion_days, 365);
        let s3 = TierCatalog::aws_s3();
        let deep = s3.tier(s3.tier_id("Deep-Archive").unwrap()).unwrap();
        assert!(deep.ttfb_seconds > 3600.0);
    }

    #[test]
    fn interned_tier_id_agrees_with_a_linear_scan_on_merged_catalogs() {
        // Regression: `tier_id` used to be an O(n) `Vec::position` scan; the
        // interned index must resolve every name — including the
        // `provider:tier` names of a merged catalog — to exactly the id the
        // scan would have found, and reject unknown names the same way.
        use crate::providers::ProviderCatalog;
        let merged = ProviderCatalog::azure_s3_gcs().merged_catalog();
        for (id, tier) in merged.iter() {
            let scanned = merged
                .iter()
                .position(|(_, t)| t.name == tier.name)
                .map(TierId)
                .unwrap();
            assert_eq!(merged.tier_id(&tier.name).unwrap(), scanned);
            assert_eq!(merged.tier_id(&tier.name).unwrap(), id);
        }
        assert!(matches!(
            merged.tier_id("azure:Glacier"),
            Err(CloudSimError::UnknownTier(_))
        ));
        // Unqualified names do not resolve in the merged space.
        assert!(merged.tier_id("Hot").is_err());
        // The index survives capacity mutation (names are untouched).
        let mut c = TierCatalog::azure_adls_gen2();
        c.set_capacity("Cool", 10.0).unwrap();
        assert_eq!(c.tier_id("Cool").unwrap(), TierId(2));
    }

    #[test]
    fn early_deletion_periods() {
        let c = TierCatalog::azure_adls_gen2();
        assert_eq!(
            c.tier(c.tier_id("Hot").unwrap())
                .unwrap()
                .early_deletion_days,
            0
        );
        assert_eq!(
            c.tier(c.tier_id("Cool").unwrap())
                .unwrap()
                .early_deletion_days,
            30
        );
        assert_eq!(
            c.tier(c.tier_id("Archive").unwrap())
                .unwrap()
                .early_deletion_days,
            180
        );
    }
}
