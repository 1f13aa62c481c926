//! A library crate whose public types, constants and `Default` knobs are
//! named (or not) from outside, or exposed by its own public signatures.

/// Negative: only a public fn's return type exposes it.
pub struct ExposedBySignature;

/// Negative: only a pub field's type exposes it.
pub enum ExposedByField {
    A,
}

/// Negative: only a public enum's variant payload exposes it.
pub struct ExposedByVariant(u8);

/// Negative: only a pub type's right-hand side exposes it.
pub struct ExposedByAlias;

/// Named by another crate.
pub type Alias = Vec<ExposedByAlias>;

/// Named by another crate.
pub fn make_exposed(seed: u8) -> ExposedBySignature {
    let _ = (seed, LIMIT, Holder::CAP, InternalOnly);
    ExposedBySignature
}

/// Named by another crate.
pub struct Holder {
    /// A field whose type the rule must see.
    pub field: ExposedByField,
}

impl Holder {
    /// Positive: an associated constant only this crate names.
    pub const CAP: u32 = 1;
}

/// Named by another crate.
pub enum Outcome {
    Done(ExposedByVariant),
}

/// Positive: only this crate names it.
pub struct InternalOnly;

/// Positive: only this crate names it.
pub const LIMIT: usize = 3;

/// Options with a hand-written `Default`: every `pub` field is a knob.
pub struct Options {
    /// Positive: only this crate's unit tests set it.
    pub unit_test_only: u32,
    /// Negative: another crate's integration tests set it.
    pub set_by_app_tests: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            unit_test_only: 1,
            set_by_app_tests: 2,
        }
    }
}

/// A derived `Default` is not the options convention: no knobs.
#[derive(Default)]
pub struct Derived {
    /// Set by nobody, yet not a finding.
    pub never_set: u32,
}

// scope-analyze: allow(dead-pub) — kept for callers outside the workspace
pub struct Waived;

/// Not public outside the crate: never a finding.
pub(crate) struct CrateOnly;

#[cfg(test)]
mod tests {
    pub struct TestOnly;

    #[test]
    fn turns_a_knob() {
        let _ = (super::CrateOnly, TestOnly);
        let o = super::Options {
            unit_test_only: 9,
            ..Default::default()
        };
        assert_eq!(o.unit_test_only, 9);
    }
}
