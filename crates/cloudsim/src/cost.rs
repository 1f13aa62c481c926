//! Cost model mirroring the OPTASSIGN objective (Eq. 1 of the paper).
//!
//! For a partition `P_n` assigned to tier `l` with compression scheme `k`
//! the paper's objective charges
//!
//! ```text
//!   (alpha * C^s_l + gamma * Delta_{L(P_n),l}) * Sp(P_n) / R^k_n
//! + beta * rho(P_n) * (C^c * D^k_n + C^r_l * Sp(P_n) / R^k_n)
//! ```
//!
//! [`CostModel`] computes each of these terms; [`CostWeights`] carries the
//! `alpha`/`beta`/`gamma` hyper-parameters that the pipeline sweeps to obtain
//! the "latency focused" / "read+decompression focused" / "total cost
//! focused" variants of Tables IX–XI.

use crate::error::CloudSimError;
use crate::providers::ProviderTopology;
use crate::tiers::{Tier, TierCatalog, TierId};
use serde::{Deserialize, Serialize};

/// Sentinel returned by the pricing paths for a `TierId` minted by a
/// different catalog: every rate is NaN, so any cost computed against it
/// is NaN and fails the `<`/`is_finite` checks downstream instead of
/// silently pricing the plan — without panicking the serving loop.
static INVALID_TIER: Tier = Tier {
    name: String::new(),
    storage_cost_cents_per_gb_month: f64::NAN,
    read_cost_cents_per_gb: f64::NAN,
    write_cost_cents_per_gb: f64::NAN,
    ttfb_seconds: f64::NAN,
    early_deletion_days: 0,
    capacity_gb: None,
};

/// Description of a stored object (a data partition or whole dataset).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSpec {
    /// Stable identifier used in reports.
    pub name: String,
    /// Uncompressed size in GB (`Sp(P_n)`).
    pub size_gb: f64,
    /// Tier the object currently lives on, if it already exists.
    /// `None` models newly-ingested data (the paper's `L(P_i) = -1`).
    pub current_tier: Option<TierId>,
    /// Days the object has already resided on `current_tier` before the
    /// billing horizon starts. Early-deletion penalties are pro-rated by
    /// this: only the *unmet* remainder of the tier's minimum residency
    /// period is charged when the object is moved away.
    pub residency_days: u32,
}

impl ObjectSpec {
    /// Create a new (not-yet-placed) object of `size_gb` gigabytes.
    pub fn new(name: impl Into<String>, size_gb: f64) -> Self {
        ObjectSpec {
            name: name.into(),
            size_gb,
            current_tier: None,
            residency_days: 0,
        }
    }

    /// Builder-style setter recording the tier the object currently occupies.
    pub fn on_tier(mut self, tier: TierId) -> Self {
        self.current_tier = Some(tier);
        self
    }

    /// Builder-style setter recording how many days the object has already
    /// served on its current tier (counts against the tier's minimum
    /// residency period).
    pub fn with_residency_days(mut self, days: u32) -> Self {
        self.residency_days = days;
        self
    }

    /// Validate that the size is finite and non-negative.
    pub fn validate(&self) -> Result<(), CloudSimError> {
        if !self.size_gb.is_finite() || self.size_gb < 0.0 {
            return Err(CloudSimError::InvalidParameter {
                name: "size_gb",
                value: self.size_gb,
            });
        }
        Ok(())
    }
}

/// The `alpha`, `beta`, `gamma` weights of the OPTASSIGN objective.
///
/// * `alpha` scales the storage cost term,
/// * `beta` scales the (read + decompression-compute) term,
/// * `gamma` scales the tier-change / write cost term.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostWeights {
    /// Weight on storage cost.
    pub alpha: f64,
    /// Weight on read + decompression cost.
    pub beta: f64,
    /// Weight on tier-change (write) cost.
    pub gamma: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
        }
    }
}

impl CostWeights {
    /// Equal weights — the "total cost focused" configuration.
    pub fn total_cost_focused() -> Self {
        Self::default()
    }

    /// Latency-time focused configuration (`alpha = 0`): storage cost is
    /// ignored and the optimizer minimizes read + decompression latency
    /// cost, the adaptation of HCompress used as a baseline in the paper.
    pub fn latency_focused() -> Self {
        CostWeights {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
        }
    }

    /// Read + decompression cost focused configuration: the read/compute
    /// term dominates but storage still carries a small weight so that ties
    /// break towards cheaper storage.
    pub fn read_decomp_focused() -> Self {
        CostWeights {
            alpha: 0.05,
            beta: 1.0,
            gamma: 0.05,
        }
    }

    /// Custom weights.
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Self {
        CostWeights { alpha, beta, gamma }
    }
}

/// Breakdown of the cost of one placement decision (all values in cents).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Storage cost over the projection horizon.
    pub storage: f64,
    /// Read cost (per-GB read charges times expected volume read).
    pub read: f64,
    /// Write / tier-change cost.
    pub write: f64,
    /// Decompression compute cost.
    pub decompression: f64,
    /// Inter-provider egress cost (zero in single-provider models).
    pub egress: f64,
}

impl CostBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.storage + self.read + self.write + self.decompression + self.egress
    }

    /// Accumulate `other` into `self`.
    pub fn accumulate(&mut self, other: &CostBreakdown) {
        self.storage += other.storage;
        self.read += other.read;
        self.write += other.write;
        self.decompression += other.decompression;
        self.egress += other.egress;
    }
}

/// Where a placement's bytes come from, the source tier's spec already
/// resolved: what decides the intra-cloud price of moving them (see
/// [`CostModel::read_write_cost`]).
#[derive(Debug, Clone, Copy)]
pub enum Origin<'a> {
    /// Newly ingested data: only the write is paid.
    New,
    /// Already on the destination tier: nothing moves, nothing is paid.
    Resident,
    /// Another tier, read once on the way out.
    Tier(&'a Tier),
}

/// The rate expressions of one tier: what [`CostModel`]'s per-id methods
/// evaluate once they have looked the id up, and what a caller that
/// resolved the spec once ([`CostModel::tier_spec`]) calls directly.
impl Tier {
    /// Storage cost (cents) of keeping `size_gb` gigabytes here for
    /// `months` months.
    #[inline]
    pub fn storage_cost(&self, size_gb: f64, months: f64) -> f64 {
        self.storage_cost_cents_per_gb_month * size_gb * months
    }

    /// Read cost (cents) of reading `size_gb` gigabytes `accesses` times.
    #[inline]
    pub fn read_cost(&self, size_gb: f64, accesses: f64) -> f64 {
        self.read_cost_cents_per_gb * size_gb * accesses
    }

    /// Write cost (cents) of landing `size_gb` gigabytes here.
    #[inline]
    pub(crate) fn write_cost(&self, size_gb: f64) -> f64 {
        self.write_cost_cents_per_gb * size_gb
    }

    /// The intra-cloud half of moving `size_gb` gigabytes here from
    /// `origin`: the rule of [`CostModel::read_write_cost`], over specs.
    #[inline]
    pub fn read_write_cost(&self, origin: Origin<'_>, size_gb: f64) -> f64 {
        match origin {
            Origin::Resident => 0.0,
            Origin::Tier(from) => from.read_cost(size_gb, 1.0) + self.write_cost(size_gb),
            Origin::New => self.write_cost(size_gb),
        }
    }
}

/// Cost model over a [`TierCatalog`], optionally provider-aware.
///
/// With a [`ProviderTopology`] attached (via [`CostModel::with_topology`],
/// typically over a merged multi-provider catalog), tier changes that cross
/// providers additionally pay the egress rate of the source→destination
/// provider pair. Without one, every cost is identical to the historical
/// single-provider model.
#[derive(Debug, Clone)]
pub struct CostModel {
    catalog: TierCatalog,
    topology: Option<ProviderTopology>,
}

impl CostModel {
    /// Create a cost model for the given catalog (single-provider: no
    /// egress anywhere).
    pub fn new(catalog: TierCatalog) -> Self {
        CostModel {
            catalog,
            topology: None,
        }
    }

    /// Create a provider-aware cost model: `catalog` is a merged
    /// multi-provider catalog and `topology` its provider/egress companion
    /// (see [`ProviderCatalog`](crate::ProviderCatalog)).
    ///
    /// # Panics
    ///
    /// Panics if the topology does not cover the catalog tier-for-tier — a
    /// mismatched (catalog, topology) pair would otherwise silently price
    /// every uncovered tier's egress as zero.
    pub fn with_topology(catalog: TierCatalog, topology: ProviderTopology) -> Self {
        assert_eq!(
            topology.tier_count(),
            catalog.len(),
            "provider topology covers {} tiers but the catalog has {} — \
             catalog and topology must come from the same ProviderCatalog",
            topology.tier_count(),
            catalog.len()
        );
        CostModel {
            catalog,
            topology: Some(topology),
        }
    }

    /// The underlying tier catalog.
    pub fn catalog(&self) -> &TierCatalog {
        &self.catalog
    }

    /// The provider topology, if this model is provider-aware.
    pub fn topology(&self) -> Option<&ProviderTopology> {
        self.topology.as_ref()
    }

    /// The spec of `tier`, whose id the infallible pricing entry points
    /// expect to come from this model's own catalog (the only `TierId`s in
    /// circulation are minted by a catalog). A foreign id resolves to a
    /// spec whose every rate is NaN, so it prices as NaN — which every
    /// downstream comparison rejects — rather than panicking the serving
    /// loop on one malformed plan. A caller pricing many placements on one
    /// tier resolves it here once and prices through [`Tier`]'s rate
    /// methods, the expressions the per-id methods below evaluate.
    pub fn tier_spec(&self, tier: TierId) -> &Tier {
        self.catalog.tier(tier).unwrap_or(&INVALID_TIER)
    }

    /// Storage cost (cents) of keeping `size_gb` gigabytes on `tier` for
    /// `months` months.
    pub fn storage_cost(&self, tier: TierId, size_gb: f64, months: f64) -> f64 {
        self.tier_spec(tier).storage_cost(size_gb, months)
    }

    /// Read cost (cents) of reading `size_gb` gigabytes `accesses` times
    /// from `tier`.
    pub fn read_cost(&self, tier: TierId, size_gb: f64, accesses: f64) -> f64 {
        self.tier_spec(tier).read_cost(size_gb, accesses)
    }

    /// Write cost (cents) of landing `size_gb` gigabytes on `tier`
    /// (`Delta_{-1,l}` — used both for new ingests and as the write half of
    /// a tier change).
    pub fn write_cost(&self, tier: TierId, size_gb: f64) -> f64 {
        self.tier_spec(tier).write_cost(size_gb)
    }

    /// Inter-provider egress cost (cents) of moving `size_gb` GB from
    /// `from` to `to`: the source provider's egress rate towards the
    /// destination provider. Zero when the model has no topology, for new
    /// ingests (`from == None`), and for intra-provider moves.
    pub fn egress_cost(&self, from: Option<TierId>, to: TierId, size_gb: f64) -> f64 {
        match (&self.topology, from) {
            (Some(topo), Some(f)) if f != to => topo.tier_egress_rate(f, to) * size_gb,
            _ => 0.0,
        }
    }

    /// The intra-cloud half of a tier change `Delta_{u,v}`: a read off the
    /// source tier plus a write onto the destination (no egress). Moving
    /// data to the tier it already occupies is free; newly ingested data
    /// (`from == None`) only pays the write. A full tier change is this
    /// plus [`CostModel::egress_cost`], each on its own byte count — the
    /// source-resident bytes leave, which differ from `size_gb` when the
    /// move also changes compression. The billing engine, the OPTASSIGN
    /// objective and the schedule DP all compose the two that way.
    pub fn read_write_cost(&self, from: Option<TierId>, to: TierId, size_gb: f64) -> f64 {
        let origin = match from {
            Some(f) if f == to => Origin::Resident,
            Some(f) => Origin::Tier(self.tier_spec(f)),
            None => Origin::New,
        };
        self.tier_spec(to).read_write_cost(origin, size_gb)
    }

    /// Decompression compute cost (cents) for `accesses` accesses each
    /// paying `decompression_seconds` of CPU.
    pub fn decompression_cost(&self, decompression_seconds: f64, accesses: f64) -> f64 {
        self.catalog.compute_cost_cents_per_second * decompression_seconds * accesses
    }

    /// Early-deletion penalty (cents) for moving `size_gb` GB off `from`
    /// after `days_served` days of residency: the *unmet* remainder of the
    /// tier's minimum residency period, billed at the tier's storage rate
    /// (how Azure bills early deletion from Cool/Archive). Zero once the
    /// residency window is met. This is the single pricing rule shared by
    /// the billing engine, the OPTASSIGN objective and the schedule DP.
    pub fn early_deletion_penalty(
        &self,
        from: TierId,
        size_gb: f64,
        days_served: u32,
    ) -> Result<f64, CloudSimError> {
        let t = self.catalog.tier(from)?;
        if t.early_deletion_days > days_served {
            let unmet_days = t.early_deletion_days - days_served;
            Ok(t.storage_cost_cents_per_gb_month
                * size_gb
                * (unmet_days as f64 / crate::timeline::DAYS_PER_MONTH as f64))
        } else {
            Ok(0.0)
        }
    }

    /// Unweighted cost breakdown for placing `obj` on `tier` for `months`
    /// months with `accesses` expected full-object reads, stored at
    /// `compression_ratio` (>= 1, 1.0 = uncompressed) and paying
    /// `decompression_seconds` of CPU per access.
    pub fn total_cost(
        &self,
        obj: &ObjectSpec,
        tier: TierId,
        months: f64,
        accesses: f64,
        compression_ratio: f64,
        decompression_seconds: f64,
    ) -> CostBreakdown {
        let stored_gb = obj.size_gb / compression_ratio.max(f64::MIN_POSITIVE);
        let write = self.read_write_cost(obj.current_tier, tier, stored_gb);
        CostBreakdown {
            storage: self.storage_cost(tier, stored_gb, months),
            read: self.read_cost(tier, stored_gb, accesses),
            write,
            decompression: self.decompression_cost(decompression_seconds, accesses),
            // Egress covers the bytes leaving the source tier — the
            // object's current (uncompressed) size — matching how the
            // billing engine charges the move.
            egress: self.egress_cost(obj.current_tier, tier, obj.size_gb),
        }
    }

    /// The OPTASSIGN objective value (Eq. 1) for a single placement, i.e.
    /// the weighted combination of the breakdown computed by
    /// [`CostModel::total_cost`].
    #[allow(clippy::too_many_arguments)]
    pub fn objective(
        &self,
        obj: &ObjectSpec,
        tier: TierId,
        months: f64,
        accesses: f64,
        compression_ratio: f64,
        decompression_seconds: f64,
        weights: &CostWeights,
    ) -> f64 {
        let b = self.total_cost(
            obj,
            tier,
            months,
            accesses,
            compression_ratio,
            decompression_seconds,
        );
        weights.alpha * b.storage
            + weights.gamma * (b.write + b.egress)
            + weights.beta * (b.read + b.decompression)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(TierCatalog::azure_adls_gen2())
    }

    #[test]
    fn storage_cost_is_linear_in_size_and_months() {
        let m = model();
        let hot = m.catalog().tier_id("Hot").unwrap();
        let c1 = m.storage_cost(hot, 10.0, 1.0);
        let c2 = m.storage_cost(hot, 20.0, 1.0);
        let c3 = m.storage_cost(hot, 10.0, 3.0);
        assert!((c2 - 2.0 * c1).abs() < 1e-12);
        assert!((c3 - 3.0 * c1).abs() < 1e-12);
        assert!((c1 - 20.8).abs() < 1e-9); // 10 GB * 2.08 c/GB/mo
    }

    #[test]
    fn read_cost_uses_per_tier_rate() {
        let m = model();
        let premium = m.catalog().tier_id("Premium").unwrap();
        let archive = m.catalog().tier_id("Archive").unwrap();
        // Reading 1 GB once.
        assert!(m.read_cost(premium, 1.0, 1.0) < m.read_cost(archive, 1.0, 1.0));
        assert!((m.read_cost(archive, 1.0, 1.0) - 16.64).abs() < 1e-9);
    }

    #[test]
    fn foreign_tier_ids_price_as_nan_instead_of_panicking() {
        let m = model();
        let foreign = TierId(m.catalog().len() + 7);
        assert!(m.storage_cost(foreign, 10.0, 1.0).is_nan());
        assert!(m.read_cost(foreign, 1.0, 2.0).is_nan());
        assert!(m.write_cost(foreign, 1.0).is_nan());
        // A NaN price loses every `<` comparison, so no placement ever
        // selects the phantom tier.
        let hot = m.catalog().tier_id("Hot").unwrap();
        assert!(!(m.storage_cost(foreign, 10.0, 1.0) < m.storage_cost(hot, 10.0, 1.0)));
    }

    #[test]
    fn read_write_cost_same_tier_is_free_and_new_data_only_writes() {
        let m = model();
        let hot = m.catalog().tier_id("Hot").unwrap();
        let cool = m.catalog().tier_id("Cool").unwrap();
        assert_eq!(m.read_write_cost(Some(hot), hot, 100.0), 0.0);
        let new_ingest = m.read_write_cost(None, cool, 100.0);
        assert!((new_ingest - m.write_cost(cool, 100.0)).abs() < 1e-12);
        let change = m.read_write_cost(Some(hot), cool, 100.0);
        assert!(change > new_ingest, "a move pays a read plus the write");
    }

    #[test]
    fn compression_reduces_storage_and_read_but_adds_compute() {
        let m = model();
        let hot = m.catalog().tier_id("Hot").unwrap();
        let obj = ObjectSpec::new("d", 100.0);
        let plain = m.total_cost(&obj, hot, 6.0, 10.0, 1.0, 0.0);
        let compressed = m.total_cost(&obj, hot, 6.0, 10.0, 4.0, 2.0);
        assert!(compressed.storage < plain.storage);
        assert!(compressed.read < plain.read);
        assert_eq!(plain.decompression, 0.0);
        assert!(compressed.decompression > 0.0);
        assert!((compressed.storage * 4.0 - plain.storage).abs() < 1e-9);
    }

    #[test]
    fn objective_respects_weights() {
        let m = model();
        let hot = m.catalog().tier_id("Hot").unwrap();
        let obj = ObjectSpec::new("d", 50.0);
        let storage_only = m.objective(
            &obj,
            hot,
            6.0,
            10.0,
            1.0,
            0.0,
            &CostWeights::new(1.0, 0.0, 0.0),
        );
        let read_only = m.objective(
            &obj,
            hot,
            6.0,
            10.0,
            1.0,
            0.0,
            &CostWeights::new(0.0, 1.0, 0.0),
        );
        let b = m.total_cost(&obj, hot, 6.0, 10.0, 1.0, 0.0);
        assert!((storage_only - b.storage).abs() < 1e-12);
        assert!((read_only - (b.read + b.decompression)).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total_and_accumulate() {
        let a = CostBreakdown {
            storage: 1.0,
            read: 2.0,
            write: 3.0,
            decompression: 4.0,
            egress: 5.0,
        };
        let b = CostBreakdown {
            storage: 0.5,
            read: 0.5,
            write: 0.5,
            decompression: 0.5,
            egress: 0.5,
        };
        assert_eq!(a.total(), 15.0);
        let mut acc = a;
        acc.accumulate(&b);
        assert_eq!(acc.total(), 17.5);
    }

    #[test]
    #[should_panic(expected = "must come from the same ProviderCatalog")]
    fn mismatched_topology_is_rejected_at_construction() {
        use crate::providers::ProviderCatalog;
        // A topology for the 12-tier merged catalog paired with the 4-tier
        // azure catalog would silently price egress as zero for every tier
        // it does not cover; the constructor refuses the pair instead.
        let providers = ProviderCatalog::azure_s3_gcs();
        let _ = CostModel::with_topology(TierCatalog::azure_adls_gen2(), providers.topology());
    }

    #[test]
    fn topology_adds_egress_to_cross_provider_moves_only() {
        use crate::providers::ProviderCatalog;
        let providers = ProviderCatalog::azure_s3_gcs();
        let m = CostModel::with_topology(providers.merged_catalog(), providers.topology());
        let azure_hot = m.catalog().tier_id("azure:Hot").unwrap();
        let azure_cool = m.catalog().tier_id("azure:Cool").unwrap();
        let s3_ia = m.catalog().tier_id("s3:Standard-IA").unwrap();

        // Intra-provider: same as the topology-free model.
        let single = CostModel::new(TierCatalog::azure_adls_gen2());
        let hot = single.catalog().tier_id("Hot").unwrap();
        let cool = single.catalog().tier_id("Cool").unwrap();
        assert_eq!(
            m.read_write_cost(Some(azure_hot), azure_cool, 100.0),
            single.read_write_cost(Some(hot), cool, 100.0)
        );
        assert_eq!(m.egress_cost(Some(azure_hot), azure_cool, 100.0), 0.0);

        // Cross-provider: the azure→s3 rate (2.0 c/GB) on top of read+write.
        let rw = m.read_write_cost(Some(azure_hot), s3_ia, 100.0);
        let eg = m.egress_cost(Some(azure_hot), s3_ia, 100.0);
        assert!((eg - 2.0 * 100.0).abs() < 1e-9);
        // New ingests and stay-put moves never pay egress.
        assert_eq!(m.egress_cost(None, s3_ia, 100.0), 0.0);
        assert_eq!(m.egress_cost(Some(s3_ia), s3_ia, 100.0), 0.0);

        // The breakdown splits egress out of the write term, and the
        // objective charges it under gamma.
        let obj = ObjectSpec::new("d", 100.0).on_tier(azure_hot);
        let b = m.total_cost(&obj, s3_ia, 6.0, 0.0, 1.0, 0.0);
        assert!((b.egress - 200.0).abs() < 1e-9);
        assert!((b.write - rw).abs() < 1e-12);
        let gamma_only = m.objective(
            &obj,
            s3_ia,
            6.0,
            0.0,
            1.0,
            0.0,
            &CostWeights::new(0.0, 0.0, 1.0),
        );
        assert!((gamma_only - (b.write + b.egress)).abs() < 1e-12);
    }

    #[test]
    fn early_deletion_penalty_prorates_unmet_days() {
        let m = model();
        let cool = m.catalog().tier_id("Cool").unwrap();
        let hot = m.catalog().tier_id("Hot").unwrap();
        // Cool: 30-day window at 1.52 c/GB/month.
        let full = m.early_deletion_penalty(cool, 100.0, 0).unwrap();
        assert!((full - 1.52 * 100.0).abs() < 1e-9);
        let partial = m.early_deletion_penalty(cool, 100.0, 20).unwrap();
        assert!((partial - 1.52 * 100.0 * (10.0 / 30.0)).abs() < 1e-9);
        assert_eq!(m.early_deletion_penalty(cool, 100.0, 30).unwrap(), 0.0);
        assert_eq!(m.early_deletion_penalty(cool, 100.0, 300).unwrap(), 0.0);
        // Hot has no residency window at all.
        assert_eq!(m.early_deletion_penalty(hot, 100.0, 0).unwrap(), 0.0);
        // Unknown tiers error instead of silently costing nothing.
        assert!(m.early_deletion_penalty(TierId(99), 100.0, 0).is_err());
    }

    #[test]
    fn object_spec_validation() {
        assert!(ObjectSpec::new("ok", 1.0).validate().is_ok());
        assert!(ObjectSpec::new("neg", -1.0).validate().is_err());
        assert!(ObjectSpec::new("nan", f64::NAN).validate().is_err());
    }

    #[test]
    fn cheapest_tier_depends_on_access_frequency() {
        // The core economic trade-off the paper exploits: rarely-read data is
        // cheaper on Cool/Archive, hot data is cheaper on Hot even though its
        // storage rate is higher.
        let m = model();
        let hot = m.catalog().tier_id("Hot").unwrap();
        let archive = m.catalog().tier_id("Archive").unwrap();
        let obj = ObjectSpec::new("d", 1000.0);
        // 0 accesses over 6 months: archive wins.
        let cold_hot = m.total_cost(&obj, hot, 6.0, 0.0, 1.0, 0.0).total();
        let cold_arch = m.total_cost(&obj, archive, 6.0, 0.0, 1.0, 0.0).total();
        assert!(cold_arch < cold_hot);
        // 100 full reads over 6 months: hot wins.
        let busy_hot = m.total_cost(&obj, hot, 6.0, 100.0, 1.0, 0.0).total();
        let busy_arch = m.total_cost(&obj, archive, 6.0, 100.0, 1.0, 0.0).total();
        assert!(busy_hot < busy_arch);
    }
}
