//! # scope-optassign
//!
//! OPTASSIGN (§IV of the paper): optimal assignment of storage tier and
//! compression scheme to data partitions with predicted access volumes,
//! subject to per-tier capacity reservations and per-partition latency
//! thresholds.
//!
//! The crate implements the full algorithm portfolio of the paper:
//!
//! * [`problem`] — the cost model of the ILP objective (Eq. 1) and the
//!   feasibility predicates (latency, fixed-compression and capacity
//!   constraints),
//! * [`greedy`] — the optimal polynomial algorithm for the *unbounded
//!   capacity* case (Theorem 3): per partition, pick the cheapest feasible
//!   (tier, scheme) pair,
//! * [`ilp`] — an exact branch-and-bound 0/1 solver for the general,
//!   capacity-constrained case (the problem is strongly NP-hard, Theorem 1,
//!   so exponential worst-case time is expected; the bound makes realistic
//!   instances fast),
//! * [`matching`] — the minimum-weight bipartite matching (Hungarian
//!   algorithm) specialisation for equal-sized partitions with no
//!   compression (Theorem 2),
//! * [`predictor`] — the Random-Forest tier predictor of §IV-C (features:
//!   dataset size, age, recent monthly reads/writes; labels: the
//!   cost-optimal tier) together with the caching/recency baselines of
//!   Table IV,
//! * [`schedule`] — per-billing-period tier schedules: a dynamic program
//!   that prices storage, accesses, transition costs and day-exact
//!   early-deletion (residency) penalties per period and finds the
//!   cost-optimal mid-horizon re-tiering plan, the objective the paper's
//!   per-billing-period tier changes call for.
//!
//! Every solver also searches **merged multi-provider tier spaces**: build
//! the problem with [`OptAssignProblem::multi_provider`] (or pass a
//! provider-aware `CostModel` to the schedule DP) and tier ids range over
//! every provider's ladder while cross-provider moves are priced with the
//! catalog's egress matrix — the SkyStore-style generalisation of the
//! paper's single-cloud OPTASSIGN.
//!
//! ## The cost-table engine ([`costtable`])
//!
//! Every solver's inner loop is pure cost evaluation, so each solve first
//! materialises a [`CostTable`]: the dense `[partition × tier ×
//! compression]` matrix of weighted objective values, unweighted
//! breakdowns and SLA-feasibility flags, evaluated **exactly once** with a
//! single hoisted cost model (egress-aware on merged catalogs) and — on
//! large instances — built in parallel with the deterministic fan-out of
//! [`scope_cloudsim::parallel`]. Layout: per-partition tier-major blocks
//! (`offset[n] + tier · K_n + k`), with per-partition column minima
//! precomputed for the greedy choice and the branch-and-bound lower bound.
//!
//! **When to use which path:** the solvers and `ideal_tier_labels` are
//! already table-driven — just call them. Use
//! [`plan_tier_schedule_with_model`] / `*_with`-suffixed problem methods
//! with a hoisted model when you price many placements yourself; the
//! per-call convenience methods ([`OptAssignProblem::placement_cost`] et
//! al.) clone the catalog per evaluation and are for one-off pricing. The
//! pre-table model-driven solvers survive in [`reference`] as differential
//! oracles and benchmark baselines — never as production paths.

#![warn(missing_docs)]

pub mod costtable;
pub mod error;
pub mod greedy;
pub mod ilp;
pub mod matching;
pub mod predictor;
pub mod problem;
pub mod reference;
pub mod schedule;

pub use costtable::CostTable;
pub use error::OptAssignError;
pub use greedy::solve_greedy;
pub use ilp::{
    solve_branch_and_bound, solve_branch_and_bound_on, solve_branch_and_bound_warm,
    BranchAndBoundStats,
};
pub use matching::solve_equal_size_matching;
pub use predictor::{
    ideal_tier_labels, ideal_tier_labels_multi, PredictorFeatures, TierPredictor, TieringBaseline,
};
pub use problem::{Assignment, CompressionOption, OptAssignProblem, PartitionSpec, NO_COMPRESSION};
pub use schedule::{
    ideal_tier_schedules, ideal_tier_schedules_with_model, placement_schedule_cost,
    placement_schedule_cost_with_model, plan_placement_schedule,
    plan_placement_schedule_with_model, plan_tier_schedule, plan_tier_schedule_with_model,
    schedule_cost, schedule_cost_with_model, PeriodAccess, PeriodUsage, PlacementPlan,
    ScheduleOptions, TierSchedule,
};
