//! `scope-analyze`: a workspace invariant linter.
//!
//! The workspace promises more than the compiler checks: results must be
//! bit-reproducible (no hash-order or wall-clock leakage), every fast path
//! must keep a test-pinned reference oracle, the offline shims bound the
//! dependency surface, and CI's test-count floor must track reality. This
//! crate machine-checks those promises with a from-scratch lexer
//! ([`lexer`]), a workspace model (`source`) and a token-stream rule
//! engine ([`rules`]) — deliberately dependency-free so it builds before
//! anything else does.
//!
//! Run it as `cargo run -p scope-analyze -- --deny` (what `ci.sh` does) or
//! use [`analyze`] / [`analyze_rules`] directly from tests.

pub mod json;
pub mod lexer;
pub mod rules;
mod source;

pub use rules::{analyze, analyze_rules, Finding, Report, MAX_WAIVERS, RULE_NAMES};
