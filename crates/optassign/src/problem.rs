//! Problem definition and the cost model of the OPTASSIGN ILP (Eq. 1).
//!
//! For partition `P_n` assigned to tier `l` with compression scheme `k`
//! (ratio `R^k_n`, decompression time `D^k_n`), the objective charges
//!
//! ```text
//!   (α·C^s_l·horizon + γ·Δ_{L(P_n),l}) · Sp(P_n)/R^k_n
//! + β·(1−f)·ρ(P_n)·(C^c·D^k_n + C^r_l·Sp(P_n)·read_fraction/R^k_n)
//! ```
//!
//! subject to: every partition gets exactly one (tier, scheme); the stored
//! (compressed) bytes per tier respect the capacity reservation `S_l`; the
//! access latency `D^k_n + B_l` respects the partition's threshold
//! `T(P_n)`; and existing partitions keep their current compression scheme.
//! `f` is the fraction of queries that can be answered by computation
//! pushdown / directly on compressed data (0 when pushdown is unsupported).

use crate::error::OptAssignError;
use scope_cloudsim::{
    CostBreakdown, CostModel, CostWeights, Origin, ProviderCatalog, ProviderTopology, Tier,
    TierCatalog, TierId,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Index of the mandatory "no compression" option in every partition's
/// option list.
pub(crate) const NO_COMPRESSION: usize = 0;

/// One candidate compression scheme for a partition, with its (predicted or
/// measured) performance on that partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionOption {
    /// Scheme name ("none", "gzip", "snappy", "lz4", ...). Shared: cloning
    /// an option (one per partition of a fleet that offers the same
    /// schemes) copies a pointer, not the text.
    pub name: Arc<str>,
    /// Compression ratio `R^k_n` (>= 1 in practice; 1.0 for "none").
    pub ratio: f64,
    /// Decompression time `D^k_n` in seconds per access (0.0 for "none").
    pub decompress_seconds: f64,
}

impl CompressionOption {
    /// The mandatory "no compression" option.
    pub fn none() -> Self {
        CompressionOption {
            name: "none".into(),
            ratio: 1.0,
            decompress_seconds: 0.0,
        }
    }

    /// A named compression option.
    pub fn new(name: impl Into<Arc<str>>, ratio: f64, decompress_seconds: f64) -> Self {
        CompressionOption {
            name: name.into(),
            ratio,
            decompress_seconds,
        }
    }
}

/// A data partition (or whole dataset) to be placed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSpec {
    /// Dense id (index in the problem's partition list).
    pub id: usize,
    /// Human-readable name. Shared, so a caller that keys its own index
    /// by the name (the serving engine) holds the one copy.
    pub name: Arc<str>,
    /// Uncompressed size in GB (`Sp(P_n)`).
    pub size_gb: f64,
    /// Projected number of accesses over the horizon (`ρ(P_n)`).
    pub predicted_accesses: f64,
    /// Fraction of the partition read per access (1.0 = full scans).
    pub read_fraction: f64,
    /// Latency threshold `T(P_n)` in seconds.
    pub latency_threshold_seconds: f64,
    /// Tier the partition currently occupies (`None` = newly ingested,
    /// the paper's `L(P_i) = -1`).
    pub current_tier: Option<TierId>,
    /// Days the partition has already resided on `current_tier`. Moving it
    /// off a tier before that tier's minimum residency period is priced as
    /// an early-deletion penalty for the *unmet* days, so the objective
    /// sees the same charge the billing engine will levy.
    pub residency_days: u32,
    /// For existing partitions whose compression must not change: the index
    /// of the only allowed compression option (`K(P_n)`).
    pub fixed_compression: Option<usize>,
    /// Candidate compression options; index 0 must be the "no compression"
    /// option.
    pub compression_options: Vec<CompressionOption>,
}

impl PartitionSpec {
    /// Create a partition with only the "no compression" option and a
    /// best-effort latency threshold.
    pub fn new(
        id: usize,
        name: impl Into<Arc<str>>,
        size_gb: f64,
        predicted_accesses: f64,
    ) -> Self {
        PartitionSpec {
            id,
            name: name.into(),
            size_gb,
            predicted_accesses,
            read_fraction: 1.0,
            latency_threshold_seconds: f64::INFINITY,
            current_tier: None,
            residency_days: 0,
            fixed_compression: None,
            compression_options: vec![CompressionOption::none()],
        }
    }

    /// Builder-style setter for the latency threshold.
    pub fn with_latency_threshold(mut self, seconds: f64) -> Self {
        self.latency_threshold_seconds = seconds;
        self
    }

    /// Builder-style setter for the current tier.
    pub fn with_current_tier(mut self, tier: TierId) -> Self {
        self.current_tier = Some(tier);
        self
    }

    /// Builder-style setter for the days already served on the current tier.
    pub fn with_residency_days(mut self, days: u32) -> Self {
        self.residency_days = days;
        self
    }

    /// Builder-style setter for the read fraction.
    pub fn with_read_fraction(mut self, fraction: f64) -> Self {
        self.read_fraction = fraction;
        self
    }

    /// Builder-style addition of a compression option, returning its index.
    pub fn with_compression_option(mut self, option: CompressionOption) -> Self {
        self.compression_options.push(option);
        self
    }

    /// Validate the partition specification.
    pub fn validate(&self) -> Result<(), OptAssignError> {
        if !(self.size_gb >= 0.0) || !self.size_gb.is_finite() {
            return Err(OptAssignError::InvalidProblem(format!(
                "partition {} has invalid size {}",
                self.name, self.size_gb
            )));
        }
        if !(self.predicted_accesses >= 0.0) {
            return Err(OptAssignError::InvalidProblem(format!(
                "partition {} has invalid access count {}",
                self.name, self.predicted_accesses
            )));
        }
        if self.compression_options.is_empty()
            || self.compression_options[NO_COMPRESSION].ratio != 1.0
        {
            return Err(OptAssignError::InvalidProblem(format!(
                "partition {} must have the 'no compression' option at index 0",
                self.name
            )));
        }
        if let Some(k) = self.fixed_compression {
            if k >= self.compression_options.len() {
                return Err(OptAssignError::InvalidProblem(format!(
                    "partition {} fixes compression option {k} which does not exist",
                    self.name
                )));
            }
        }
        for opt in &self.compression_options {
            if !(opt.ratio > 0.0) || !(opt.decompress_seconds >= 0.0) {
                return Err(OptAssignError::InvalidProblem(format!(
                    "partition {} has an invalid compression option {}",
                    self.name, opt.name
                )));
            }
        }
        Ok(())
    }

    /// Stored size in GB under compression option `k`.
    pub fn stored_gb(&self, k: usize) -> f64 {
        self.size_gb / self.compression_options[k].ratio
    }
}

/// An OPTASSIGN problem instance.
#[derive(Debug, Clone)]
pub struct OptAssignProblem {
    /// The tier catalog (costs, latencies, capacities). For multi-provider
    /// instances this is a *merged* catalog (see
    /// [`ProviderCatalog::merged_catalog`]) and [`Self::topology`] carries
    /// the provider identity of every tier.
    pub catalog: TierCatalog,
    /// Provider identity + egress matrix for the tiers of a merged
    /// multi-provider catalog. `None` for the classic single-provider
    /// problem (no egress anywhere).
    pub topology: Option<ProviderTopology>,
    /// Partitions to place.
    pub partitions: Vec<PartitionSpec>,
    /// Objective weights (α, β, γ).
    pub weights: CostWeights,
    /// Projection horizon in months (storage is charged per month).
    pub horizon_months: f64,
    /// Fraction `f` of queries answered by pushdown / directly on compressed
    /// data (they pay neither read nor decompression cost).
    pub pushdown_fraction: f64,
}

impl OptAssignProblem {
    /// Create a problem with default weights, no pushdown.
    pub fn new(catalog: TierCatalog, partitions: Vec<PartitionSpec>, horizon_months: f64) -> Self {
        OptAssignProblem {
            catalog,
            topology: None,
            partitions,
            weights: CostWeights::default(),
            horizon_months,
            pushdown_fraction: 0.0,
        }
    }

    /// Create a problem over the merged tier space of a multi-provider
    /// catalog. Partition `current_tier`s use merged [`TierId`]s and every
    /// solver prices cross-provider moves with the catalog's egress matrix.
    pub fn multi_provider(
        providers: &ProviderCatalog,
        partitions: Vec<PartitionSpec>,
        horizon_months: f64,
    ) -> Self {
        OptAssignProblem {
            catalog: providers.merged_catalog(),
            topology: Some(providers.topology()),
            partitions,
            weights: CostWeights::default(),
            horizon_months,
            pushdown_fraction: 0.0,
        }
    }

    /// Builder-style setter for the provider topology (for callers that
    /// build the merged catalog themselves).
    pub fn with_topology(mut self, topology: ProviderTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Builder-style setter for the objective weights.
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// The cost model this problem prices placements with (egress-aware
    /// when a topology is attached).
    pub fn cost_model(&self) -> CostModel {
        match &self.topology {
            Some(t) => CostModel::with_topology(self.catalog.clone(), t.clone()),
            None => CostModel::new(self.catalog.clone()),
        }
    }

    /// Validate the whole problem.
    pub fn validate(&self) -> Result<(), OptAssignError> {
        if self.partitions.is_empty() {
            return Err(OptAssignError::InvalidProblem(
                "no partitions to place".to_string(),
            ));
        }
        if !(self.horizon_months > 0.0) {
            return Err(OptAssignError::InvalidProblem(format!(
                "horizon_months must be positive, got {}",
                self.horizon_months
            )));
        }
        if let Some(t) = &self.topology {
            if t.tier_count() != self.catalog.len() {
                return Err(OptAssignError::InvalidProblem(format!(
                    "provider topology covers {} tiers but the catalog has {} — \
                     catalog and topology must come from the same ProviderCatalog",
                    t.tier_count(),
                    self.catalog.len()
                )));
            }
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.id != i {
                return Err(OptAssignError::InvalidProblem(format!(
                    "partition ids must be dense indices: expected {i}, found {}",
                    p.id
                )));
            }
            p.validate()?;
            if let Some(from) = p.current_tier {
                self.catalog.tier(from).map_err(|e| {
                    OptAssignError::InvalidProblem(format!(
                        "partition {} has an unknown current tier: {e}",
                        p.name
                    ))
                })?;
            }
        }
        Ok(())
    }

    /// Number of tiers.
    pub fn n_tiers(&self) -> usize {
        self.catalog.len()
    }

    /// Effective accesses that pay read + decompression (the `(1-f)ρ` term).
    fn effective_accesses(&self, p: &PartitionSpec) -> f64 {
        (1.0 - self.pushdown_fraction) * p.predicted_accesses
    }

    /// Access latency of partition `p` on tier `tier` under option `k`.
    pub fn latency_seconds(&self, p: &PartitionSpec, tier: TierId, k: usize) -> f64 {
        self.ttfb_seconds(tier) + p.compression_options[k].decompress_seconds
    }

    /// Is the (tier, option) choice feasible for partition `p` with respect
    /// to the latency threshold and the fixed-compression constraint?
    /// (Capacity is a coupling constraint handled by the solvers.)
    pub fn is_feasible(&self, p: &PartitionSpec, tier: TierId, k: usize) -> bool {
        k < p.compression_options.len() && self.is_feasible_at(p, self.ttfb_seconds(tier), k)
    }

    /// Time to first byte of `tier` (infinite for a tier outside the
    /// catalog, which no threshold admits).
    pub(crate) fn ttfb_seconds(&self, tier: TierId) -> f64 {
        self.catalog
            .tier(tier)
            .map(|t| t.ttfb_seconds)
            .unwrap_or(f64::INFINITY)
    }

    /// [`Self::is_feasible`] for an existing option `k` on a tier whose
    /// time to first byte the caller already looked up — the single
    /// definition of the rule, so the cost-table row kernel can hoist the
    /// lookup out of its scheme loop.
    pub(crate) fn is_feasible_at(&self, p: &PartitionSpec, ttfb_seconds: f64, k: usize) -> bool {
        if let Some(fixed) = p.fixed_compression {
            if k != fixed {
                return false;
            }
        }
        ttfb_seconds + p.compression_options[k].decompress_seconds <= p.latency_threshold_seconds
    }

    /// Unweighted cost breakdown of placing partition `p` on `tier` with
    /// option `k` over the horizon.
    ///
    /// The write term carries the full intra-cloud price of the move: the
    /// tier-change read+write plus the early-deletion penalty for the unmet
    /// days of the current tier's minimum residency period (pro-rated by
    /// [`PartitionSpec::residency_days`]), so the objective matches what
    /// the billing engine charges for the move. In a multi-provider problem
    /// a cross-provider move additionally fills the egress term.
    ///
    /// Convenience form that builds a fresh [`CostModel`] (a catalog +
    /// topology clone) per call. Anything evaluating more than a handful of
    /// placements should build a [`CostTable`](crate::costtable::CostTable)
    /// once per solve, as every shipped solver does.
    pub fn cost_breakdown(&self, p: &PartitionSpec, tier: TierId, k: usize) -> CostBreakdown {
        self.cost_breakdown_with(&self.cost_model(), p, tier, k)
    }

    /// [`Self::cost_breakdown`] over a caller-hoisted [`CostModel`] — the
    /// per-solve entry point that avoids re-cloning catalog + topology on
    /// every evaluation. The model must come from [`Self::cost_model`] (or
    /// be built over the same catalog/topology); the arithmetic is
    /// identical to the per-call form.
    pub(crate) fn cost_breakdown_with(
        &self,
        model: &CostModel,
        p: &PartitionSpec,
        tier: TierId,
        k: usize,
    ) -> CostBreakdown {
        let terms = self.move_terms(model, p, self.source(model, p), tier);
        self.cost_breakdown_on(model, p, k, &terms)
    }

    /// Partition `p`'s current tier resolved against `model`: its spec and
    /// what leaving it costs, the same for every destination. `None` for a
    /// newly ingested partition.
    pub(crate) fn source<'m>(&self, model: &'m CostModel, p: &PartitionSpec) -> Option<Source<'m>> {
        p.current_tier.map(|tier| Source {
            tier,
            spec: model.tier_spec(tier),
            // Same rule the billing engine applies; `validate` checks
            // current tiers against the catalog, so lookup only fails for
            // an unvalidated problem — poison the breakdown with NaN
            // (rejected by every cost comparison) instead of panicking
            // mid-solve.
            early_deletion: model
                .early_deletion_penalty(tier, p.size_gb, p.residency_days)
                .unwrap_or(f64::NAN),
        })
    }

    /// The terms of moving partition `p` (whose [`Self::source`] is
    /// `source`) onto `tier` that no compression option changes: the
    /// destination's spec, and the egress and early-deletion charges, both
    /// on the partition's current, uncompressed size.
    pub(crate) fn move_terms<'m>(
        &self,
        model: &'m CostModel,
        p: &PartitionSpec,
        source: Option<Source<'m>>,
        tier: TierId,
    ) -> MoveTerms<'m> {
        let (origin, early_deletion) = match source {
            None => (Origin::New, None),
            Some(s) if s.tier == tier => (Origin::Resident, None),
            Some(s) => (Origin::Tier(s.spec), Some(s.early_deletion)),
        };
        MoveTerms {
            to: model.tier_spec(tier),
            origin,
            // Egress covers the bytes leaving the source tier, matching
            // the billing engine.
            egress: model.egress_cost(p.current_tier, tier, p.size_gb),
            early_deletion,
        }
    }

    /// The price of placing partition `p` with option `k` on the tier
    /// whose [`MoveTerms`] are `terms` — the one definition of a
    /// placement's price. The cost-table row kernel resolves the source
    /// once per row and the terms once per tier, then calls this per
    /// option; [`Self::cost_breakdown_with`] resolves both per call. Same
    /// expressions in the same order either way, so the two agree bit for
    /// bit.
    #[inline]
    pub(crate) fn cost_breakdown_on(
        &self,
        model: &CostModel,
        p: &PartitionSpec,
        k: usize,
        terms: &MoveTerms<'_>,
    ) -> CostBreakdown {
        let opt = &p.compression_options[k];
        // Storage and migration are charged on the full stored size; reads
        // only touch `read_fraction` of it.
        let stored_gb = p.stored_gb(k);
        let accesses = self.effective_accesses(p);
        let mut write = terms.to.read_write_cost(terms.origin, stored_gb);
        if let Some(penalty) = terms.early_deletion {
            write += penalty;
        }
        CostBreakdown {
            storage: terms.to.storage_cost(stored_gb, self.horizon_months),
            read: terms
                .to
                .read_cost(stored_gb * p.read_fraction.clamp(0.0, 1.0), accesses),
            write,
            decompression: model.decompression_cost(opt.decompress_seconds, accesses),
            egress: terms.egress,
        }
    }

    /// The weighted objective contribution (Eq. 1) of one placement. Egress
    /// is a transfer cost and is weighted with γ alongside the write term.
    ///
    /// Builds a fresh [`CostModel`] per call — see [`Self::cost_breakdown`]
    /// for when to hoist instead.
    pub fn placement_cost(&self, p: &PartitionSpec, tier: TierId, k: usize) -> f64 {
        self.placement_cost_with(&self.cost_model(), p, tier, k)
    }

    /// [`Self::placement_cost`] over a caller-hoisted [`CostModel`].
    pub(crate) fn placement_cost_with(
        &self,
        model: &CostModel,
        p: &PartitionSpec,
        tier: TierId,
        k: usize,
    ) -> f64 {
        self.weighted_objective(&self.cost_breakdown_with(model, p, tier, k))
    }

    /// Apply the problem's α/β/γ weights to an unweighted breakdown — the
    /// single definition of the Eq. 1 weighting, shared by the per-call
    /// pricing methods and the [`CostTable`](crate::costtable::CostTable)
    /// builder so the two can never drift.
    pub(crate) fn weighted_objective(&self, b: &CostBreakdown) -> f64 {
        self.weights.alpha * b.storage
            + self.weights.gamma * (b.write + b.egress)
            + self.weights.beta * (b.read + b.decompression)
    }

    /// The cheapest feasible placement cost for a partition ignoring
    /// capacity — used both by the greedy solver and as the branch-and-bound
    /// lower bound.
    ///
    /// This is the historical **model-driven** evaluation: every
    /// [`Self::placement_cost`] call clones the catalog (and topology) into
    /// a fresh model. It is kept as the reference path the cost-table
    /// engine is differential-tested (and benchmarked) against — hot paths
    /// use [`CostTable::min_feasible`](crate::costtable::CostTable) instead.
    pub fn min_feasible_cost(&self, p: &PartitionSpec) -> Option<(f64, TierId, usize)> {
        let mut best: Option<(f64, TierId, usize)> = None;
        for tier in self.catalog.tier_ids() {
            for k in 0..p.compression_options.len() {
                if !self.is_feasible(p, tier, k) {
                    continue;
                }
                let cost = self.placement_cost(p, tier, k);
                if improves_minimum(cost, best.map(|(c, _, _)| c)) {
                    best = Some((cost, tier, k));
                }
            }
        }
        best
    }
}

/// A partition's current tier, resolved once (see
/// [`OptAssignProblem::source`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Source<'m> {
    tier: TierId,
    spec: &'m Tier,
    /// Early-deletion penalty owed for leaving it now.
    early_deletion: f64,
}

/// The option-independent terms of moving a partition onto one tier (see
/// [`OptAssignProblem::move_terms`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MoveTerms<'m> {
    /// The destination tier's spec (its NaN sentinel for a foreign id).
    pub(crate) to: &'m Tier,
    /// Where the bytes come from.
    origin: Origin<'m>,
    /// Inter-provider egress charge (zero within a provider).
    egress: f64,
    /// Early-deletion penalty owed for leaving the current tier; `None`
    /// when the placement keeps the partition where it is (or it is newly
    /// ingested), so nothing is added to the write term.
    early_deletion: Option<f64>,
}

/// The first-minimum rule every feasible-cost scan shares: does `cost`
/// replace the running minimum `best`? A NaN price (an unvalidated
/// problem's foreign tier) never does — not even as the first candidate,
/// where `cost < best` alone would let it in and then never out again,
/// since nothing compares below NaN.
pub(crate) fn improves_minimum(cost: f64, best: Option<f64>) -> bool {
    match best {
        Some(best) => cost < best,
        None => !cost.is_nan(),
    }
}

/// The result of solving an OPTASSIGN instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Per-partition choice of (tier, compression option index), indexed by
    /// partition id.
    pub choices: Vec<(TierId, usize)>,
    /// Weighted objective value (Eq. 1).
    pub objective: f64,
    /// Unweighted total cost breakdown (cents over the horizon).
    pub breakdown: CostBreakdown,
}

impl Assignment {
    /// Build an assignment from explicit choices, recomputing costs.
    pub fn from_choices(
        problem: &OptAssignProblem,
        choices: Vec<(TierId, usize)>,
    ) -> Result<Self, OptAssignError> {
        if choices.len() != problem.partitions.len() {
            return Err(OptAssignError::InvalidProblem(format!(
                "expected {} choices, got {}",
                problem.partitions.len(),
                choices.len()
            )));
        }
        // One hoisted model for the whole assignment instead of a catalog +
        // topology clone per placement (2 clones per partition before).
        let model = problem.cost_model();
        let mut objective = 0.0;
        let mut breakdown = CostBreakdown::default();
        for (p, &(tier, k)) in problem.partitions.iter().zip(&choices) {
            objective += problem.placement_cost_with(&model, p, tier, k);
            breakdown.accumulate(&problem.cost_breakdown_with(&model, p, tier, k));
        }
        Ok(Assignment {
            choices,
            objective,
            breakdown,
        })
    }

    /// Number of partitions assigned to each tier — the "Tiering Scheme"
    /// column of Tables IX–XI.
    pub fn tier_histogram(&self, n_tiers: usize) -> Vec<usize> {
        let mut hist = vec![0usize; n_tiers];
        for &(tier, _) in &self.choices {
            if tier.index() < n_tiers {
                hist[tier.index()] += 1;
            }
        }
        hist
    }

    /// Expected decompression latency per access, averaged over accesses
    /// (the "Expected Decomp. Latency" column of Tables IX–XI), in seconds.
    pub fn expected_decompression_latency(&self, problem: &OptAssignProblem) -> f64 {
        let mut total_accesses = 0.0;
        let mut weighted = 0.0;
        for (p, &(_, k)) in problem.partitions.iter().zip(&self.choices) {
            weighted += p.predicted_accesses * p.compression_options[k].decompress_seconds;
            total_accesses += p.predicted_accesses;
        }
        if total_accesses > 0.0 {
            weighted / total_accesses
        } else {
            0.0
        }
    }

    /// Expected time-to-first-byte per access, averaged over accesses.
    pub fn expected_ttfb(&self, problem: &OptAssignProblem) -> f64 {
        let mut total_accesses = 0.0;
        let mut weighted = 0.0;
        for (p, &(tier, _)) in problem.partitions.iter().zip(&self.choices) {
            let ttfb = problem
                .catalog
                .tier(tier)
                .map(|t| t.ttfb_seconds)
                .unwrap_or(0.0);
            weighted += p.predicted_accesses * ttfb;
            total_accesses += p.predicted_accesses;
        }
        if total_accesses > 0.0 {
            weighted / total_accesses
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> TierCatalog {
        TierCatalog::azure_adls_gen2()
    }

    fn simple_partition(id: usize, size: f64, accesses: f64) -> PartitionSpec {
        PartitionSpec::new(id, format!("p{id}"), size, accesses)
            .with_compression_option(CompressionOption::new("gzip", 4.0, 10.0))
            .with_compression_option(CompressionOption::new("snappy", 2.0, 1.0))
    }

    #[test]
    fn validation_catches_malformed_problems() {
        let c = catalog();
        assert!(OptAssignProblem::new(c.clone(), vec![], 6.0)
            .validate()
            .is_err());
        let mut p = simple_partition(0, 10.0, 5.0);
        p.compression_options[0].ratio = 2.0; // index 0 must be "none" (ratio 1)
        assert!(OptAssignProblem::new(c.clone(), vec![p], 6.0)
            .validate()
            .is_err());
        let mut p = simple_partition(0, 10.0, 5.0);
        p.id = 5;
        assert!(OptAssignProblem::new(c.clone(), vec![p], 6.0)
            .validate()
            .is_err());
        let p = simple_partition(0, f64::NAN, 5.0);
        assert!(OptAssignProblem::new(c.clone(), vec![p], 6.0)
            .validate()
            .is_err());
        let p = simple_partition(0, 10.0, 5.0);
        assert!(OptAssignProblem::new(c.clone(), vec![p], 0.0)
            .validate()
            .is_err());
        let good = OptAssignProblem::new(c, vec![simple_partition(0, 10.0, 5.0)], 6.0);
        assert!(good.validate().is_ok());
    }

    #[test]
    fn latency_feasibility_excludes_archive_for_tight_thresholds() {
        let c = catalog();
        let archive = c.tier_id("Archive").unwrap();
        let hot = c.tier_id("Hot").unwrap();
        let p = simple_partition(0, 10.0, 5.0).with_latency_threshold(1.0);
        let problem = OptAssignProblem::new(c, vec![p], 6.0);
        let part = &problem.partitions[0];
        assert!(problem.is_feasible(part, hot, 0));
        assert!(!problem.is_feasible(part, archive, 0));
        // gzip adds 10 s of decompression: infeasible even on hot.
        assert!(!problem.is_feasible(part, hot, 1));
        // snappy adds 1 s: also infeasible at a 1 s threshold (0.06 + 1 > 1).
        assert!(!problem.is_feasible(part, hot, 2));
    }

    #[test]
    fn fixed_compression_restricts_choices() {
        let c = catalog();
        let hot = c.tier_id("Hot").unwrap();
        let mut p = simple_partition(0, 10.0, 5.0);
        p.fixed_compression = Some(1);
        let problem = OptAssignProblem::new(c, vec![p], 6.0);
        let part = &problem.partitions[0];
        assert!(!problem.is_feasible(part, hot, 0));
        assert!(problem.is_feasible(part, hot, 1));
        assert!(!problem.is_feasible(part, hot, 2));
    }

    #[test]
    fn compression_shrinks_storage_term_but_adds_compute() {
        let c = catalog();
        let hot = c.tier_id("Hot").unwrap();
        let p = simple_partition(0, 100.0, 20.0);
        let problem = OptAssignProblem::new(c, vec![p], 6.0);
        let part = &problem.partitions[0];
        let none = problem.cost_breakdown(part, hot, 0);
        let gzip = problem.cost_breakdown(part, hot, 1);
        assert!(gzip.storage < none.storage);
        assert!(gzip.read < none.read);
        assert!(gzip.decompression > none.decompression);
        assert_eq!(none.decompression, 0.0);
    }

    #[test]
    fn pushdown_fraction_reduces_read_and_decompression_costs() {
        let c = catalog();
        let hot = c.tier_id("Hot").unwrap();
        let p = simple_partition(0, 100.0, 20.0);
        let base = OptAssignProblem::new(c.clone(), vec![p.clone()], 6.0);
        let mut pushdown = OptAssignProblem::new(c, vec![p], 6.0);
        pushdown.pushdown_fraction = 0.5;
        let b0 = base.cost_breakdown(&base.partitions[0], hot, 1);
        let b1 = pushdown.cost_breakdown(&pushdown.partitions[0], hot, 1);
        assert!((b1.read - b0.read * 0.5).abs() < 1e-9);
        assert!((b1.decompression - b0.decompression * 0.5).abs() < 1e-9);
        assert_eq!(b1.storage, b0.storage);
    }

    #[test]
    fn placement_cost_respects_weights() {
        let c = catalog();
        let hot = c.tier_id("Hot").unwrap();
        let p = simple_partition(0, 100.0, 20.0);
        let storage_only = OptAssignProblem::new(c.clone(), vec![p.clone()], 6.0)
            .with_weights(CostWeights::new(1.0, 0.0, 0.0));
        let read_only =
            OptAssignProblem::new(c, vec![p], 6.0).with_weights(CostWeights::new(0.0, 1.0, 0.0));
        let part = &storage_only.partitions[0];
        let b = storage_only.cost_breakdown(part, hot, 0);
        assert!((storage_only.placement_cost(part, hot, 0) - b.storage).abs() < 1e-9);
        assert!(
            (read_only.placement_cost(&read_only.partitions[0], hot, 0)
                - (b.read + b.decompression))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn residency_penalty_prices_the_unmet_days_into_the_write_term() {
        let c = catalog();
        let cool = c.tier_id("Cool").unwrap();
        let hot = c.tier_id("Hot").unwrap();
        let fresh = PartitionSpec::new(0, "fresh", 100.0, 0.0).with_current_tier(cool);
        let served = PartitionSpec::new(0, "served", 100.0, 0.0)
            .with_current_tier(cool)
            .with_residency_days(20);
        let met = PartitionSpec::new(0, "met", 100.0, 0.0)
            .with_current_tier(cool)
            .with_residency_days(30);
        let problem = OptAssignProblem::new(c, vec![fresh.clone()], 6.0);
        let move_cost = |p: &PartitionSpec| problem.cost_breakdown(p, hot, 0).write;
        // Fresh data owes the full 30-day window, 20-day residency owes 10
        // days, a met window owes nothing beyond the change itself.
        let change = move_cost(&met);
        assert!((move_cost(&fresh) - (change + 1.52 * 100.0)).abs() < 1e-9);
        assert!((move_cost(&served) - (change + 1.52 * 100.0 * (10.0 / 30.0))).abs() < 1e-9);
        // Staying on the tier owes nothing at all.
        assert_eq!(problem.cost_breakdown(&fresh, cool, 0).write, 0.0);
    }

    #[test]
    fn multi_provider_problem_prices_egress_into_cross_provider_moves() {
        let providers = ProviderCatalog::azure_s3_gcs();
        let merged = providers.merged_catalog();
        let azure_hot = merged.tier_id("azure:Hot").unwrap();
        let azure_cool = merged.tier_id("azure:Cool").unwrap();
        let gcs_coldline = merged.tier_id("gcs:Coldline").unwrap();
        let p = PartitionSpec::new(0, "d", 100.0, 0.0).with_current_tier(azure_hot);
        let problem = OptAssignProblem::multi_provider(&providers, vec![p], 6.0);
        assert!(problem.validate().is_ok());
        // A topology that does not cover the catalog is rejected up front
        // (it would otherwise silently price uncovered tiers' egress as 0).
        let mismatched = OptAssignProblem::new(
            TierCatalog::azure_adls_gen2(),
            vec![PartitionSpec::new(0, "d", 1.0, 0.0)],
            6.0,
        )
        .with_topology(providers.topology());
        assert!(mismatched.validate().is_err());
        let part = &problem.partitions[0];
        // Intra-provider move: no egress.
        let intra = problem.cost_breakdown(part, azure_cool, 0);
        assert_eq!(intra.egress, 0.0);
        // Cross-provider move: azure→gcs at 2.0 c/GB.
        let cross = problem.cost_breakdown(part, gcs_coldline, 0);
        assert!((cross.egress - 200.0).abs() < 1e-9);
        // placement_cost charges egress under gamma: zeroing gamma removes
        // both the write and the egress terms.
        let gamma_free = OptAssignProblem::multi_provider(
            &providers,
            vec![PartitionSpec::new(0, "d", 100.0, 0.0).with_current_tier(azure_hot)],
            6.0,
        )
        .with_weights(CostWeights::new(0.0, 0.0, 1.0));
        let move_only = gamma_free.placement_cost(&gamma_free.partitions[0], gcs_coldline, 0);
        assert!((move_only - (cross.write + cross.egress)).abs() < 1e-9);
    }

    #[test]
    fn min_feasible_cost_finds_the_archive_for_cold_data() {
        let c = catalog();
        let archive = c.tier_id("Archive").unwrap();
        let p = PartitionSpec::new(0, "cold", 1000.0, 0.0);
        let problem = OptAssignProblem::new(c, vec![p], 6.0);
        let (cost, tier, k) = problem.min_feasible_cost(&problem.partitions[0]).unwrap();
        assert_eq!(tier, archive);
        assert_eq!(k, NO_COMPRESSION);
        assert!(cost > 0.0);
    }

    #[test]
    fn assignment_statistics() {
        let c = catalog();
        let hot = c.tier_id("Hot").unwrap();
        let cool = c.tier_id("Cool").unwrap();
        let parts = vec![
            simple_partition(0, 10.0, 5.0),
            simple_partition(1, 20.0, 1.0),
        ];
        let problem = OptAssignProblem::new(c, parts, 6.0);
        let a = Assignment::from_choices(&problem, vec![(hot, 1), (cool, 0)]).unwrap();
        assert_eq!(a.tier_histogram(4), vec![0, 1, 1, 0]);
        assert!(a.objective > 0.0);
        assert!(a.breakdown.total() > 0.0);
        assert!(a.expected_decompression_latency(&problem) > 0.0);
        assert!(a.expected_ttfb(&problem) > 0.0);
        // Wrong number of choices is rejected.
        assert!(Assignment::from_choices(&problem, vec![(hot, 0)]).is_err());
    }
}
