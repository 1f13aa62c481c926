//! # scope-workload
//!
//! Workload substrate: enterprise access-log generation and query-family
//! workloads over TPC-H-like tables.
//!
//! The paper's evaluation rests on two kinds of workload:
//!
//! 1. **Enterprise Data Lake access logs** (Figs 1–2, Tables II–IV): hundreds
//!    of datasets whose access counts are heavily Zipf-skewed across
//!    datasets, decay with dataset age, and follow per-dataset trends
//!    (decreasing, roughly constant, periodic/seasonal, one-time activation
//!    spikes). The raw logs are proprietary, so [`enterprise`] generates a
//!    synthetic catalog + monthly access series with exactly those
//!    statistical shapes.
//! 2. **Query workloads** (Tables V–XI, Fig 7): TPC-H query templates (and a
//!    Zipf-skewed query distribution for Enterprise Data II) where each
//!    *query family* touches a specific set of files of specific tables.
//!    [`queries`] models templates, generates query instances and maps them
//!    to file-level footprints, which is the input both to DATAPART and to
//!    the query-based sampling used by COMPREDICT.

#![warn(missing_docs)]

pub mod access_log;
pub mod dataset;
pub mod daylog;
pub mod enterprise;
pub mod error;
pub mod patterns;
pub mod queries;

pub use access_log::{AccessSeries, MonthlyAccess};
pub use dataset::{DatasetCatalog, DatasetMeta};
pub use daylog::{DailyAccess, DailyAccessLog};
pub use enterprise::{EnterpriseOptions, EnterpriseWorkload};
pub use error::WorkloadError;
pub use patterns::AccessPattern;
pub use queries::{FileRef, QueryFamily, QueryWorkload, QueryWorkloadOptions};
