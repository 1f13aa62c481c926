//! # scope-table
//!
//! Tabular data substrate for the SCOPe reproduction.
//!
//! The paper's compression predictor (COMPREDICT, §V) is trained on *real
//! bytes*: TPC-H tables and enterprise tables serialized as CSV (row
//! layout) or Parquet (column layout), compressed with gzip/snappy/lz4.
//! This crate provides everything needed to regenerate that setting without
//! external data:
//!
//! * [`schema`] / [`column`](mod@column) — a typed, columnar in-memory table
//!   representation with projections, filters and sorting,
//! * [`format`](mod@format) — serialization to a row-oriented CSV layout and a
//!   simplified columnar ("parquet-like") layout with per-column dictionary
//!   and run-length encodings; these bytes are what `scope-compress` codecs
//!   compress,
//! * [`zipf`] — a Zipf/zeta sampler used for skewed data and workloads,
//! * [`tpch`] — a TPC-H-like generator producing all 8 tables at a given
//!   scale factor with either uniform or Zipf-skewed value distributions
//!   (the paper's "TPC-H 1GB / 100GB / 1TB / Skew" variants, scaled down).

#![warn(missing_docs)]

pub mod column;
pub mod error;
pub mod format;
pub mod schema;
pub mod tpch;
pub mod zipf;

pub use column::{ColumnData, Table};
pub use error::TableError;
pub use format::DataLayout;
pub use schema::{ColumnDef, ColumnType, Schema};
pub use tpch::{TpchGenerator, TpchOptions, TpchTable};
pub use zipf::Zipf;
