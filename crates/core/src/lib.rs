//! # scope-core
//!
//! SCOPe: Storage Cost Optimizer with Performance Guarantees — the unified
//! pipeline of §VII that combines the three modules built in the sibling
//! crates:
//!
//! 1. **G-PART** (`scope-datapart`) merges the file sets touched by query
//!    families into access-aware partitions,
//! 2. **COMPREDICT** (`scope-compredict`) predicts compression ratio and
//!    decompression speed per partition,
//! 3. **OPTASSIGN** (`scope-optassign`) assigns each partition a storage
//!    tier and compression scheme minimizing total cost under latency SLAs
//!    and capacity constraints.
//!
//! The crate also implements every *policy variant* the paper evaluates
//! against (Tables IX–XI rows: all-premium default, Ares-style
//! compression-only, Hermes-style tiering-only, HCompress-style
//! latency-focused, the partitioned versions of each, and the SCOPe
//! configurations), the Enterprise Data I experiments (Tables II–IV,
//! Fig 3), and the cost-vs-latency trade-off sweep of Fig 5.
//!
//! Entry points:
//!
//! * [`scenario`] — builders that generate the evaluation scenarios
//!   (TPC-H-like at several scales, Enterprise Data II) as
//!   [`PipelineInputs`],
//! * [`pipeline`] — [`run_policy`] executes one policy over the inputs and
//!   returns a [`PolicyOutcome`] (one row of Tables IX–XI),
//! * [`policy`] — the catalog of policies,
//! * [`enterprise`] — the Enterprise Data I experiment drivers,
//! * [`tradeoff`] — the Fig 5 predictor-impact sweep,
//! * [`lifecycle`] — the day-granular lifecycle scenario: datasets that
//!   cool over time are re-tiered at billing-period boundaries by the
//!   residency-aware schedule DP and replayed through the day-granular
//!   billing engine against frozen-placement baselines,
//! * [`multicloud`] — the cross-provider scenario: the same cooling
//!   account placed inside each single provider vs across the merged
//!   multi-provider tier space with egress-aware planning, reporting the
//!   egress-adjusted savings split,
//! * [`lockstep`] — the deployment loop, once: a generated account's day
//!   log laid out as one schedule of sequenced deliveries and epoch
//!   boundaries and replayed through the incremental serving engine
//!   (`scope-serve`) by one step loop. Two scenarios configure it, each
//!   pinned exactly: [`run_serving`] (every incremental re-solve equals
//!   the preserved batch path bit-for-bit) and [`run_chaos`] (under seeded
//!   intake, compute and crash faults, heat equals a fault-free twin's,
//!   the quarantine equals the independent intake reference, healthy
//!   shards equal the batch path, and a crash-and-restore engine stays
//!   byte-identical to one that never crashed).

#![warn(missing_docs)]

pub mod enterprise;
pub mod lifecycle;
pub mod lockstep;
pub mod multicloud;
pub mod pipeline;
pub mod policy;
pub mod scenario;
pub mod tradeoff;

pub use enterprise::{
    customer_benefit_table, predictor_confusion, tiering_baseline_comparison, BaselineRow,
    CustomerBenefit,
};
pub use lifecycle::{lifecycle_tradeoff, run_lifecycle, LifecycleOptions, LifecycleOutcome};
pub use lockstep::{
    run_chaos, run_serving, ChaosOptions, ChaosOutcome, EpochRecord, ServingOptions, ServingOutcome,
};
pub use multicloud::{
    multicloud_egress_sweep, run_multicloud, MultiCloudOptions, MultiCloudOutcome,
    SingleProviderOutcome,
};
pub use pipeline::{run_all_policies, run_policy, PolicyOutcome};
pub use policy::Policy;
pub use scenario::{
    enterprise2_scenario, tpch_scenario, PipelineInputs, ScenarioOptions, TableProfile,
};
pub use tradeoff::{tradeoff_sweep, PredictorVariant, TradeoffPoint};

// Every scenario bills workload months as cloudsim days: the two crates
// must agree on the month length, and the longest workload must replay.
const _: () = {
    use scope_cloudsim::{billing::MAX_HORIZON_DAYS, DAYS_PER_MONTH};
    use scope_workload::{daylog, enterprise::MAX_TOTAL_MONTHS};
    assert!(daylog::DAYS_PER_MONTH == DAYS_PER_MONTH);
    assert!(MAX_TOTAL_MONTHS * DAYS_PER_MONTH <= MAX_HORIZON_DAYS);
};

/// Errors produced by the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ScopeError {
    /// An underlying optimizer error.
    OptAssign(String),
    /// An underlying partitioning error.
    DataPart(String),
    /// An underlying prediction error.
    Compredict(String),
    /// A cloud-simulation error.
    CloudSim(String),
    /// A workload-generation error.
    Workload(String),
    /// A serving-engine error.
    Serving(String),
    /// Invalid pipeline configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for ScopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScopeError::OptAssign(m) => write!(f, "optassign: {m}"),
            ScopeError::DataPart(m) => write!(f, "datapart: {m}"),
            ScopeError::Compredict(m) => write!(f, "compredict: {m}"),
            ScopeError::CloudSim(m) => write!(f, "cloudsim: {m}"),
            ScopeError::Workload(m) => write!(f, "workload: {m}"),
            ScopeError::Serving(m) => write!(f, "serving: {m}"),
            ScopeError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
        }
    }
}

impl std::error::Error for ScopeError {}

impl From<scope_optassign::OptAssignError> for ScopeError {
    fn from(e: scope_optassign::OptAssignError) -> Self {
        ScopeError::OptAssign(e.to_string())
    }
}

impl From<scope_datapart::DataPartError> for ScopeError {
    fn from(e: scope_datapart::DataPartError) -> Self {
        ScopeError::DataPart(e.to_string())
    }
}

impl From<scope_compredict::CompredictError> for ScopeError {
    fn from(e: scope_compredict::CompredictError) -> Self {
        ScopeError::Compredict(e.to_string())
    }
}

impl From<scope_cloudsim::CloudSimError> for ScopeError {
    fn from(e: scope_cloudsim::CloudSimError) -> Self {
        ScopeError::CloudSim(e.to_string())
    }
}

impl From<scope_serve::ServeError> for ScopeError {
    fn from(e: scope_serve::ServeError) -> Self {
        ScopeError::Serving(e.to_string())
    }
}

impl From<scope_workload::WorkloadError> for ScopeError {
    fn from(e: scope_workload::WorkloadError) -> Self {
        ScopeError::Workload(e.to_string())
    }
}

impl From<scope_table::TableError> for ScopeError {
    fn from(e: scope_table::TableError) -> Self {
        ScopeError::Workload(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: ScopeError = scope_datapart::DataPartError::InvalidOption("x".into()).into();
        assert!(e.to_string().contains("datapart"));
        let e: ScopeError = scope_cloudsim::CloudSimError::EmptyCatalog.into();
        assert!(e.to_string().contains("cloudsim"));
        let e: ScopeError = scope_optassign::OptAssignError::InvalidProblem("bad".into()).into();
        assert!(e.to_string().contains("optassign"));
    }
}
