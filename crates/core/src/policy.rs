//! The policy catalog: every storage-management variant evaluated in
//! Tables IX–XI of the paper.
//!
//! A policy toggles the three SCOPe ingredients — access-aware partitioning
//! (G-PART), multi-tiering and compression — and fixes the objective
//! weights. The first rows are the standard approaches and adapted
//! baselines from the literature (Ares = compression only, Hermes =
//! tiering only, HCompress = latency-time focused); the last rows are the
//! SCOPe configurations.

use scope_cloudsim::CostWeights;
use scope_datapart::MergeConfig;

/// One storage-management policy (a row of Tables IX–XI).
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Row label, matching the paper's "Variants we can support" column.
    pub name: String,
    /// The closest baseline from the literature, if any ("Other methods we
    /// can adapt" column).
    pub adapted_from: Option<String>,
    /// Apply G-PART partitioning before assignment ("P" column).
    pub partition: bool,
    /// Allow multiple storage tiers ("T" column); when false everything
    /// stays on the premium (fastest) tier.
    pub tiering: bool,
    /// Allow compression schemes ("C" column).
    pub compression: bool,
    /// Objective weights used by OPTASSIGN.
    pub weights: CostWeights,
    /// Optional per-tier capacity reservations, expressed as fractions of
    /// the total uncompressed data volume (Table XII style). `None` means
    /// unbounded capacity (the greedy solver applies).
    pub capacity_fractions: Option<Vec<f64>>,
    /// G-PART constraints used when `partition` is true. The span threshold
    /// is expressed as a fraction of the total data volume.
    pub span_threshold_fraction: f64,
}

impl Policy {
    fn base(name: &str, partition: bool, tiering: bool, compression: bool) -> Policy {
        Policy {
            name: name.to_string(),
            adapted_from: None,
            partition,
            tiering,
            compression,
            weights: CostWeights::total_cost_focused(),
            capacity_fractions: None,
            // Freeze merged partitions once they reach 15% of the data
            // volume: large enough that hot query footprints coalesce, small
            // enough that hot and cold files end up in different partitions.
            span_threshold_fraction: 0.15,
        }
    }

    fn adapted(mut self, from: &str) -> Policy {
        self.adapted_from = Some(from.to_string());
        self
    }

    fn with_weights(mut self, weights: CostWeights) -> Policy {
        self.weights = weights;
        self
    }

    fn with_capacities(mut self, fractions: Vec<f64>) -> Policy {
        self.capacity_fractions = Some(fractions);
        self
    }

    /// The G-PART configuration for this policy, given the total data volume
    /// in GB.
    pub fn merge_config(&self, total_gb: f64) -> MergeConfig {
        MergeConfig {
            span_threshold: (self.span_threshold_fraction * total_gb).max(f64::MIN_POSITIVE),
        }
    }

    /// "Default (store on premium)": no partitioning, no tiering, no
    /// compression — the platform baseline.
    pub fn default_premium() -> Policy {
        Policy::base("Default (store on premium)", false, false, false)
    }

    /// "Compress & store on premium" — the Ares adaptation.
    pub fn compress_premium() -> Policy {
        Policy::base("Compress & store on premium", false, false, true).adapted("Ares")
    }

    /// "Multi-Tiering" — the Hermes adaptation.
    pub fn multi_tiering() -> Policy {
        Policy::base("Multi-Tiering", false, true, false).adapted("Hermes")
    }

    /// "Latency time focused" — the HCompress adaptation (α = 0).
    pub fn latency_focused() -> Policy {
        Policy::base("Latency time focused", false, true, true)
            .adapted("HCompress")
            .with_weights(CostWeights::latency_focused())
    }

    /// "Partition & store on premium".
    pub fn partition_premium() -> Policy {
        Policy::base("Partition & store on premium", true, false, false)
    }

    /// "Partitioning + Tiering" — Hermes + G-PART.
    pub fn partition_tiering() -> Policy {
        Policy::base("Partitioning + Tiering", true, true, false).adapted("Hermes + G-PART")
    }

    /// "Partitioning + Compression" — Ares + G-PART.
    pub fn partition_compression() -> Policy {
        Policy::base("Partitioning + Compression", true, false, true).adapted("Ares + G-PART")
    }

    /// "SCOPe (Latency time focused)" — HCompress + G-PART.
    pub(crate) fn scope_latency_focused() -> Policy {
        Policy::base("SCOPe (Latency time focused)", true, true, true)
            .adapted("HCompress + G-PART")
            .with_weights(CostWeights::latency_focused())
    }

    /// "SCOPe (No capacity constraint)".
    pub fn scope_no_capacity() -> Policy {
        Policy::base("SCOPe (No capacity constraint)", true, true, true)
    }

    /// "SCOPe (Read+Decomp. cost focused)".
    pub(crate) fn scope_read_decomp_focused() -> Policy {
        Policy::base("SCOPe (Read+Decomp. cost focused)", true, true, true)
            .with_weights(CostWeights::read_decomp_focused())
    }

    /// "SCOPe (Total cost focused)" — with the Table XII style capacity
    /// reservations (premium 16.3%, hot 32.6%, cool 48.91% of the data
    /// volume).
    pub(crate) fn scope_total_cost_focused() -> Policy {
        Policy::base("SCOPe (Total cost focused)", true, true, true)
            .with_capacities(vec![0.163, 0.326, 0.4891])
    }

    /// All eleven policies, in the row order of Tables IX–XI.
    pub fn table_rows() -> Vec<Policy> {
        vec![
            Policy::default_premium(),
            Policy::compress_premium(),
            Policy::multi_tiering(),
            Policy::latency_focused(),
            Policy::partition_premium(),
            Policy::partition_tiering(),
            Policy::partition_compression(),
            Policy::scope_latency_focused(),
            Policy::scope_no_capacity(),
            Policy::scope_read_decomp_focused(),
            Policy::scope_total_cost_focused(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_eleven_rows_in_paper_order() {
        let rows = Policy::table_rows();
        assert_eq!(rows.len(), 11);
        assert_eq!(rows[0].name, "Default (store on premium)");
        assert_eq!(rows[10].name, "SCOPe (Total cost focused)");
        // The flag pattern of the paper's P/T/C columns.
        let flags: Vec<(bool, bool, bool)> = rows
            .iter()
            .map(|p| (p.partition, p.tiering, p.compression))
            .collect();
        assert_eq!(flags[0], (false, false, false));
        assert_eq!(flags[1], (false, false, true));
        assert_eq!(flags[2], (false, true, false));
        assert_eq!(flags[3], (false, true, true));
        assert_eq!(flags[4], (true, false, false));
        assert_eq!(flags[5], (true, true, false));
        assert_eq!(flags[6], (true, false, true));
        for f in &flags[7..] {
            assert_eq!(*f, (true, true, true));
        }
    }

    #[test]
    fn adapted_baselines_are_labelled() {
        assert_eq!(
            Policy::compress_premium().adapted_from.as_deref(),
            Some("Ares")
        );
        assert_eq!(
            Policy::multi_tiering().adapted_from.as_deref(),
            Some("Hermes")
        );
        assert_eq!(
            Policy::latency_focused().adapted_from.as_deref(),
            Some("HCompress")
        );
        assert_eq!(
            Policy::scope_latency_focused().adapted_from.as_deref(),
            Some("HCompress + G-PART")
        );
        assert!(Policy::default_premium().adapted_from.is_none());
    }

    #[test]
    fn weights_and_capacities_follow_the_variants() {
        assert_eq!(Policy::latency_focused().weights.alpha, 0.0);
        assert_eq!(Policy::scope_no_capacity().capacity_fractions, None);
        let caps = Policy::scope_total_cost_focused()
            .capacity_fractions
            .unwrap();
        assert_eq!(caps.len(), 3);
        assert!((caps.iter().sum::<f64>() - 0.9781).abs() < 1e-9);
    }

    #[test]
    fn merge_config_scales_with_data_volume() {
        let p = Policy::scope_no_capacity();
        let small = p.merge_config(10.0);
        let large = p.merge_config(1000.0);
        assert!(large.span_threshold > small.span_threshold);
        assert_eq!(small.span_threshold, 1.5);
    }
}
