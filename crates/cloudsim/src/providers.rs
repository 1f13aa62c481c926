//! Multi-provider tier catalogs and the inter-provider egress cost matrix.
//!
//! The paper optimizes placement inside a single provider's tier ladder
//! (Azure ADLS Gen2, Tables I/XII). SkyStore-style cross-cloud placement
//! adds a second axis: each provider ships its own ladder (with its own
//! storage/read rates, latencies and minimum-residency rules), and moving
//! data *between* providers pays an egress charge per GB billed by the
//! source provider. [`ProviderCatalog`] models that world:
//!
//! * a named list of providers, each carrying a [`TierCatalog`],
//! * a dense per-provider-pair egress matrix in **cents/GB** (zero on the
//!   diagonal — intra-provider moves only pay the usual read+write),
//! * [`ProviderCatalog::merged_catalog`] — the flattened "merged tier
//!   space": one [`TierCatalog`] concatenating every provider's ladder
//!   with `provider:tier` qualified names, so every existing solver
//!   (greedy, branch-and-bound, the schedule DP) can search
//!   across providers without modification,
//! * [`ProviderTopology`] — the companion mapping from merged [`TierId`]s
//!   back to providers plus the egress matrix; attached to a
//!   [`CostModel`](crate::CostModel) it makes `egress_cost` non-zero on
//!   cross-provider moves, and therefore the billing engine, the OPTASSIGN
//!   objective and the schedule DP egress aware.
//!
//! The shipped [`ProviderCatalog::azure_s3_gcs`] combines the Azure ladder
//! of Table I with the S3- and GCS-style ladders of
//! `TierCatalog::aws_s3` / `TierCatalog::gcp_gcs`. Its default egress
//! matrix models *discounted interconnect* rates (~2–2.5 cents/GB, the
//! committed-use / direct-peering pricing cross-cloud systems negotiate);
//! scale it with [`ProviderCatalog::with_egress_scale`] to study the
//! public-internet rates (~9–12 cents/GB, scale ≈ 5) where egress kills
//! most cross-provider moves.

use crate::error::CloudSimError;
use crate::tiers::{Tier, TierCatalog, TierId};
use serde::{Deserialize, Serialize};

/// Identifier of a provider inside a [`ProviderCatalog`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProviderId(pub usize);

impl ProviderId {
    /// Index of this provider inside its catalog.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ProviderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "provider#{}", self.0)
    }
}

/// One cloud provider: a name and its tier ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provider {
    /// Short provider name ("azure", "s3", "gcs", ...). Used as the prefix
    /// of qualified tier names in the merged catalog.
    pub name: String,
    /// The provider's tier ladder (ordered fastest to archival, like any
    /// [`TierCatalog`]).
    pub tiers: TierCatalog,
}

/// Provider identity for every tier of a merged catalog, plus the egress
/// matrix — everything a [`CostModel`](crate::CostModel) needs to price
/// cross-provider transitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderTopology {
    /// Provider of each merged tier, indexed by `TierId::index()`.
    provider_of: Vec<ProviderId>,
    /// Egress rates in cents/GB: `egress[from][to]`.
    egress_cents_per_gb: Vec<Vec<f64>>,
}

impl ProviderTopology {
    /// Number of merged tiers the topology covers — must equal the merged
    /// catalog's tier count for the pair to be used together.
    pub fn tier_count(&self) -> usize {
        self.provider_of.len()
    }

    /// The provider owning a merged tier, or `None` for out-of-range ids.
    pub fn provider_of(&self, tier: TierId) -> Option<ProviderId> {
        self.provider_of.get(tier.index()).copied()
    }

    /// Egress rate (cents/GB) for moving data from `from` to `to`: zero
    /// within a provider, the matrix rate across, and silently zero for
    /// out-of-range ids (callers validate ids at catalog construction).
    pub(crate) fn egress_rate(&self, from: ProviderId, to: ProviderId) -> f64 {
        if from == to {
            return 0.0;
        }
        self.egress_cents_per_gb
            .get(from.index())
            .and_then(|row| row.get(to.index()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Egress rate (cents/GB) between the providers of two *merged tiers*;
    /// zero when both tiers belong to the same provider.
    pub(crate) fn tier_egress_rate(&self, from: TierId, to: TierId) -> f64 {
        match (self.provider_of(from), self.provider_of(to)) {
            (Some(f), Some(t)) => self.egress_rate(f, t),
            _ => 0.0,
        }
    }

    /// True if the two merged tiers belong to different providers.
    pub fn crosses_providers(&self, from: TierId, to: TierId) -> bool {
        match (self.provider_of(from), self.provider_of(to)) {
            (Some(f), Some(t)) => f != t,
            _ => false,
        }
    }
}

/// A catalog of named providers with an inter-provider egress cost matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProviderCatalog {
    providers: Vec<Provider>,
    /// `egress_cents_per_gb[from][to]`, zero diagonal.
    egress_cents_per_gb: Vec<Vec<f64>>,
}

impl ProviderCatalog {
    /// Build a provider catalog. `egress_cents_per_gb[from][to]` must be a
    /// square matrix matching the provider count, with finite non-negative
    /// rates and a zero diagonal. Every provider must quote the same
    /// `compute_cost_cents_per_second` — the merged catalog carries a
    /// single compute rate, and silently picking one provider's would
    /// misprice decompression on the others' tiers.
    pub fn new(
        providers: Vec<Provider>,
        egress_cents_per_gb: Vec<Vec<f64>>,
    ) -> Result<Self, CloudSimError> {
        if providers.is_empty() {
            return Err(CloudSimError::EmptyCatalog);
        }
        let compute = providers[0].tiers.compute_cost_cents_per_second;
        for p in &providers {
            if p.tiers.compute_cost_cents_per_second != compute {
                return Err(CloudSimError::InvalidParameter {
                    name: "compute_cost_cents_per_second",
                    value: p.tiers.compute_cost_cents_per_second,
                });
            }
        }
        let n = providers.len();
        if egress_cents_per_gb.len() != n {
            return Err(CloudSimError::InvalidEgressMatrix(format!(
                "expected {n} rows, got {}",
                egress_cents_per_gb.len()
            )));
        }
        for (i, row) in egress_cents_per_gb.iter().enumerate() {
            if row.len() != n {
                return Err(CloudSimError::InvalidEgressMatrix(format!(
                    "row {i} has {} entries, expected {n}",
                    row.len()
                )));
            }
            for (j, &rate) in row.iter().enumerate() {
                if !rate.is_finite() || rate < 0.0 {
                    return Err(CloudSimError::InvalidEgressMatrix(format!(
                        "rate [{i}][{j}] = {rate} is not a finite non-negative number"
                    )));
                }
                if i == j && rate != 0.0 {
                    return Err(CloudSimError::InvalidEgressMatrix(format!(
                        "diagonal entry [{i}][{i}] = {rate} must be zero"
                    )));
                }
            }
        }
        Ok(ProviderCatalog {
            providers,
            egress_cents_per_gb,
        })
    }

    /// The shipped three-provider catalog: the Azure ADLS Gen2 ladder of
    /// Table I plus the S3- and GCS-style ladders, with a discounted
    /// interconnect egress matrix (cents/GB):
    ///
    /// | from \ to | azure | s3  | gcs |
    /// |-----------|-------|-----|-----|
    /// | azure     | 0     | 2.0 | 2.0 |
    /// | s3        | 2.1   | 0   | 2.1 |
    /// | gcs       | 2.5   | 2.5 | 0   |
    pub fn azure_s3_gcs() -> Self {
        let providers = vec![
            Provider {
                name: "azure".to_string(),
                tiers: TierCatalog::azure_adls_gen2(),
            },
            Provider {
                name: "s3".to_string(),
                tiers: TierCatalog::aws_s3(),
            },
            Provider {
                name: "gcs".to_string(),
                tiers: TierCatalog::gcp_gcs(),
            },
        ];
        let egress = vec![
            vec![0.0, 2.0, 2.0],
            vec![2.1, 0.0, 2.1],
            vec![2.5, 2.5, 0.0],
        ];
        // Static data satisfying every `ProviderCatalog::new` invariant
        // (square egress matrix, zero diagonal, shared compute rate);
        // constructed directly so the shipped catalog is panic-free.
        ProviderCatalog {
            providers,
            egress_cents_per_gb: egress,
        }
    }

    /// Scale every egress rate by `scale` (>= 0). `scale = 0` models free
    /// interconnect, the default 1 the discounted rates, and ~5 the public
    /// internet egress prices.
    pub fn with_egress_scale(mut self, scale: f64) -> Result<Self, CloudSimError> {
        if !scale.is_finite() || scale < 0.0 {
            return Err(CloudSimError::InvalidParameter {
                name: "egress_scale",
                value: scale,
            });
        }
        for row in &mut self.egress_cents_per_gb {
            for rate in row.iter_mut() {
                *rate *= scale;
            }
        }
        Ok(self)
    }

    /// Number of providers.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// True if the catalog has no providers (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }

    /// Iterate over `(ProviderId, &Provider)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProviderId, &Provider)> {
        self.providers
            .iter()
            .enumerate()
            .map(|(i, p)| (ProviderId(i), p))
    }

    /// Look up a provider by id.
    pub fn provider(&self, id: ProviderId) -> Result<&Provider, CloudSimError> {
        self.providers
            .get(id.0)
            .ok_or_else(|| CloudSimError::UnknownProvider(format!("{id}")))
    }

    /// Look up a provider id by (case-sensitive) name.
    pub fn provider_id(&self, name: &str) -> Result<ProviderId, CloudSimError> {
        self.providers
            .iter()
            .position(|p| p.name == name)
            .map(ProviderId)
            .ok_or_else(|| CloudSimError::UnknownProvider(name.to_string()))
    }

    /// The merged tier space: every provider's ladder concatenated into one
    /// [`TierCatalog`], tiers renamed to `provider:tier` ("azure:Hot",
    /// "s3:Deep-Archive", ...). Merged [`TierId`]s are dense: provider 0's
    /// tiers come first in ladder order, then provider 1's, and so on — so
    /// for the home provider at index 0 the merged ids coincide with its
    /// local ids. The merged compute rate is the one shared by every
    /// provider (enforced by [`ProviderCatalog::new`]).
    pub fn merged_catalog(&self) -> TierCatalog {
        let mut tiers: Vec<Tier> = Vec::new();
        for p in &self.providers {
            for (_, t) in p.tiers.iter() {
                let mut t = t.clone();
                t.name = format!("{}:{}", p.name, t.name);
                tiers.push(t);
            }
        }
        // All providers share one compute rate, validated at construction —
        // which also guarantees non-empty ladders, so the merge is direct.
        let compute = self.providers[0].tiers.compute_cost_cents_per_second;
        let mut merged = TierCatalog::from_tiers(tiers);
        merged.compute_cost_cents_per_second = compute;
        merged
    }

    /// The provider identity + egress companion of [`Self::merged_catalog`].
    pub fn topology(&self) -> ProviderTopology {
        let mut provider_of = Vec::new();
        for (id, p) in self.iter() {
            provider_of.extend(std::iter::repeat(id).take(p.tiers.len()));
        }
        ProviderTopology {
            provider_of,
            egress_cents_per_gb: self.egress_cents_per_gb.clone(),
        }
    }

    /// Index of a provider's first tier inside the merged catalog — the
    /// single source of truth for the "provider 0's tiers first, in ladder
    /// order" layout that [`Self::merged_catalog`] and [`Self::topology`]
    /// produce by concatenation.
    fn tier_offset(&self, id: ProviderId) -> Result<usize, CloudSimError> {
        if id.index() >= self.providers.len() {
            return Err(CloudSimError::UnknownProvider(format!("{id}")));
        }
        Ok(self.providers[..id.index()]
            .iter()
            .map(|p| p.tiers.len())
            .sum())
    }

    /// The merged [`TierId`]s belonging to one provider, in ladder order.
    pub fn provider_tier_ids(&self, id: ProviderId) -> Result<Vec<TierId>, CloudSimError> {
        let offset = self.tier_offset(id)?;
        let len = self.provider(id)?.tiers.len();
        Ok((offset..offset + len).map(TierId).collect())
    }

    /// The merged [`TierId`] of `tier_name` inside `provider_name`.
    pub fn merged_tier_id(
        &self,
        provider_name: &str,
        tier_name: &str,
    ) -> Result<TierId, CloudSimError> {
        let pid = self.provider_id(provider_name)?;
        let local = self.provider(pid)?.tiers.tier_id(tier_name)?;
        Ok(TierId(self.tier_offset(pid)? + local.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_catalog_merges_three_ladders() {
        let cat = ProviderCatalog::azure_s3_gcs();
        assert_eq!(cat.len(), 3);
        assert!(!cat.is_empty());
        let merged = cat.merged_catalog();
        assert_eq!(merged.len(), 12);
        // Qualified names resolve, and provider 0's merged ids coincide
        // with its local ids.
        assert_eq!(merged.tier_id("azure:Hot").unwrap(), TierId(1));
        assert_eq!(
            merged.tier_id("azure:Hot").unwrap(),
            cat.merged_tier_id("azure", "Hot").unwrap()
        );
        assert_eq!(
            merged.tier_id("s3:Deep-Archive").unwrap(),
            cat.merged_tier_id("s3", "Deep-Archive").unwrap()
        );
        assert_eq!(merged.tier_id("gcs:Archive").unwrap(), TierId(11));
        // Per-tier parameters survive the merge unchanged.
        let hot = merged.tier(TierId(1)).unwrap();
        assert_eq!(hot.storage_cost_cents_per_gb_month, 2.08);
        assert_eq!(merged.compute_cost_cents_per_second, 0.001);
    }

    #[test]
    fn topology_maps_merged_tiers_to_providers() {
        let cat = ProviderCatalog::azure_s3_gcs();
        let topo = cat.topology();
        assert_eq!(topo.provider_of(TierId(0)), Some(ProviderId(0)));
        assert_eq!(topo.provider_of(TierId(3)), Some(ProviderId(0)));
        assert_eq!(topo.provider_of(TierId(4)), Some(ProviderId(1)));
        assert_eq!(topo.provider_of(TierId(11)), Some(ProviderId(2)));
        assert_eq!(topo.provider_of(TierId(12)), None);
        // Egress: zero within a provider, the matrix rate across.
        assert_eq!(topo.tier_egress_rate(TierId(0), TierId(3)), 0.0);
        assert_eq!(topo.tier_egress_rate(TierId(1), TierId(4)), 2.0);
        assert_eq!(topo.tier_egress_rate(TierId(8), TierId(1)), 2.5);
        assert!(topo.crosses_providers(TierId(1), TierId(4)));
        assert!(!topo.crosses_providers(TierId(1), TierId(2)));
    }

    #[test]
    fn provider_tier_ids_partition_the_merged_space() {
        let cat = ProviderCatalog::azure_s3_gcs();
        let mut all: Vec<TierId> = Vec::new();
        for (id, _) in cat.iter() {
            all.extend(cat.provider_tier_ids(id).unwrap());
        }
        assert_eq!(all, cat.merged_catalog().tier_ids());
        assert!(cat.provider_tier_ids(ProviderId(9)).is_err());
    }

    #[test]
    fn name_lookups_and_unknown_names() {
        let cat = ProviderCatalog::azure_s3_gcs();
        assert_eq!(cat.provider_id("gcs").unwrap(), ProviderId(2));
        assert_eq!(cat.provider(ProviderId(0)).unwrap().name, "azure");
        assert!(matches!(
            cat.provider_id("oci"),
            Err(CloudSimError::UnknownProvider(_))
        ));
        assert!(cat.provider(ProviderId(7)).is_err());
        assert!(cat.merged_tier_id("azure", "Glacier-IR").is_err());
        assert!(cat.merged_tier_id("oci", "Hot").is_err());
    }

    #[test]
    fn egress_scaling() {
        let cat = ProviderCatalog::azure_s3_gcs();
        let scaled = cat.clone().with_egress_scale(5.0).unwrap().topology();
        assert_eq!(
            scaled.egress_rate(ProviderId(0), ProviderId(1)),
            5.0 * cat.topology().egress_rate(ProviderId(0), ProviderId(1))
        );
        assert_eq!(scaled.egress_rate(ProviderId(1), ProviderId(1)), 0.0);
        let free = cat.clone().with_egress_scale(0.0).unwrap().topology();
        assert_eq!(free.egress_rate(ProviderId(2), ProviderId(0)), 0.0);
        assert!(cat.with_egress_scale(f64::NAN).is_err());
    }

    #[test]
    fn malformed_catalogs_rejected() {
        let one = vec![Provider {
            name: "a".to_string(),
            tiers: TierCatalog::azure_adls_gen2(),
        }];
        assert!(matches!(
            ProviderCatalog::new(vec![], vec![]),
            Err(CloudSimError::EmptyCatalog)
        ));
        // Wrong shape.
        assert!(matches!(
            ProviderCatalog::new(one.clone(), vec![]),
            Err(CloudSimError::InvalidEgressMatrix(_))
        ));
        assert!(matches!(
            ProviderCatalog::new(one.clone(), vec![vec![0.0, 1.0]]),
            Err(CloudSimError::InvalidEgressMatrix(_))
        ));
        // Non-zero diagonal and negative rates.
        assert!(matches!(
            ProviderCatalog::new(one.clone(), vec![vec![1.0]]),
            Err(CloudSimError::InvalidEgressMatrix(_))
        ));
        let two = vec![
            Provider {
                name: "a".to_string(),
                tiers: TierCatalog::azure_adls_gen2(),
            },
            Provider {
                name: "b".to_string(),
                tiers: TierCatalog::aws_s3(),
            },
        ];
        assert!(matches!(
            ProviderCatalog::new(two, vec![vec![0.0, -1.0], vec![1.0, 0.0]]),
            Err(CloudSimError::InvalidEgressMatrix(_))
        ));
        // A valid single-provider catalog works and has zero egress.
        let solo = ProviderCatalog::new(one, vec![vec![0.0]]).unwrap();
        assert_eq!(
            solo.topology().egress_rate(ProviderId(0), ProviderId(0)),
            0.0
        );
        assert_eq!(solo.merged_catalog().len(), 4);
    }

    #[test]
    fn mismatched_compute_rates_are_rejected() {
        let mut cheap_compute = TierCatalog::aws_s3();
        cheap_compute.compute_cost_cents_per_second = 0.0005;
        let providers = vec![
            Provider {
                name: "a".to_string(),
                tiers: TierCatalog::azure_adls_gen2(),
            },
            Provider {
                name: "b".to_string(),
                tiers: cheap_compute,
            },
        ];
        // The merged catalog carries a single compute rate; divergent
        // per-provider rates would silently misprice decompression.
        assert!(matches!(
            ProviderCatalog::new(providers, vec![vec![0.0, 1.0], vec![1.0, 0.0]]),
            Err(CloudSimError::InvalidParameter {
                name: "compute_cost_cents_per_second",
                ..
            })
        ));
    }
}
