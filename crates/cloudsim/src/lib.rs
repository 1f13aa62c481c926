//! # scope-cloudsim
//!
//! Cloud storage tier catalog, cost model and billing simulator.
//!
//! This crate is the *substrate* that replaces the real cloud (Azure ADLS
//! Gen2 in the paper) for the SCOPe reproduction. The optimizer in
//! `scope-optassign` never talks to a real cloud provider — it only needs
//! the per-tier cost/latency parameters (paper Table I and Table XII) and a
//! way of accounting costs over a billing horizon. Both are provided here.
//!
//! The main entry points are:
//!
//! * [`TierCatalog`] — the set of storage tiers with their storage cost,
//!   read cost, write cost, time-to-first-byte and early-deletion period.
//!   [`TierCatalog::azure_adls_gen2`] reproduces the numbers of the paper.
//! * [`CostModel`] — computes storage / read / write / tier-change /
//!   decompression-compute costs for an object of a given size over a
//!   projection horizon, exactly mirroring the terms of the OPTASSIGN
//!   objective (Eq. 1 of the paper).
//! * [`BillingSimulator`] — a day-granular, event-driven billing engine: it
//!   replays a day-stamped access trace against per-object
//!   [`PlacementSchedule`]s (mid-horizon tier transitions allowed),
//!   pro-rates storage by days, charges tier changes in the billing period
//!   they occur, and bills early deletion for the exact days of unmet
//!   minimum residency. [`BillingSimulator::run`] is the month-aligned
//!   compatibility path that reproduces the legacy whole-month replay
//!   (and the "% cost benefit" numbers of Tables II and IV) exactly.
//! * [`timeline`] — the day-granular time axis: [`BillingEvent`],
//!   [`PlacementSchedule`], schedule segments and day/period arithmetic.
//! * [`ProviderCatalog`] — multi-provider tier catalogs: named providers,
//!   each with its own tier ladder and residency rules, plus a
//!   per-provider-pair egress cost matrix. Its merged tier space (and the
//!   [`ProviderTopology`] companion) lets the cost model, the billing
//!   engine ([`BillingSimulator::multi_provider`]) and every optimizer in
//!   `scope-optassign` price cross-provider placement honestly.
//!
//! ## Shipped provider catalogs ([`ProviderCatalog::azure_s3_gcs`])
//!
//! | Provider | Tiers (storage c/GB/mo)                                                       | Residency rules (min. days) |
//! |----------|-------------------------------------------------------------------------------|-----------------------------|
//! | `azure`  | Premium (15.0), Hot (2.08), Cool (1.52), Archive (0.099)                       | Cool 30, Archive 180        |
//! | `s3`     | Standard (2.3), Standard-IA (1.25), Glacier-IR (0.4), Deep-Archive (0.099)     | IA 30, GIR 90, Deep 180     |
//! | `gcs`    | Standard (2.0), Nearline (1.0), Coldline (0.4), Archive (0.12) — all ms-latency | NL 30, CL 90, Archive 365   |
//!
//! Egress matrix (cents/GB, discounted interconnect rates; scale with
//! [`ProviderCatalog::with_egress_scale`] — ×5 approximates the public
//! internet prices):
//!
//! | from \ to | azure | s3  | gcs |
//! |-----------|-------|-----|-----|
//! | azure     | 0     | 2.0 | 2.0 |
//! | s3        | 2.1   | 0   | 2.1 |
//! | gcs       | 2.5   | 2.5 | 0   |
//!
//! ```
//! use scope_cloudsim::{TierCatalog, CostModel, ObjectSpec};
//!
//! let catalog = TierCatalog::azure_adls_gen2();
//! let model = CostModel::new(catalog.clone());
//! let obj = ObjectSpec::new("dataset-42", 100.0); // 100 GB
//! let hot = catalog.tier_id("Hot").unwrap();
//! let cool = catalog.tier_id("Cool").unwrap();
//! // Storing 100 GB for 6 months is cheaper on Cool, but reads are more
//! // expensive there than on Hot.
//! let cost_hot = model.total_cost(&obj, hot, 6.0, 50.0, 1.0, 0.0);
//! let cost_cool = model.total_cost(&obj, cool, 6.0, 50.0, 1.0, 0.0);
//! assert!(cost_hot.storage > cost_cool.storage);
//! assert!(cost_hot.read < cost_cool.read);
//! ```

#![warn(missing_docs)]

pub mod billing;
pub mod cost;
pub mod error;
pub mod parallel;
pub mod providers;
pub mod reference;
pub mod sla;
pub mod tiers;
pub mod timeline;

pub use billing::{
    AccessEvent, AccessKind, BillingReport, BillingSimulator, MonthlyCost, Placement,
};
pub use cost::{CostBreakdown, CostModel, CostWeights, ObjectSpec};
pub use error::CloudSimError;
pub use parallel::{parallel_map, parallel_map_mut_with_threads, parallel_map_with_threads};
pub use providers::{Provider, ProviderCatalog, ProviderId, ProviderTopology};
pub use sla::{LatencyEstimate, SlaPolicy};
pub use tiers::{Tier, TierCatalog, TierId};
pub use timeline::{
    events_from_monthly, BillingEvent, EventColumns, PlacementSchedule, ScheduleSegment,
    DAYS_PER_MONTH, UNKNOWN_OBJECT,
};
