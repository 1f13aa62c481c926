//! A library crate whose public functions are named (or not) from every
//! kind of root the rule reads.

/// Positive: nothing anywhere names it, though this crate calls it.
pub fn unnamed_anywhere() -> u32 {
    7
}

/// Positive: only a comment in another crate mentions it.
pub fn only_in_a_comment() {}

/// Negative: another workspace crate calls it.
pub fn used_by_other_crate() -> u32 {
    unnamed_anywhere()
}

/// Negative: this crate's integration tests call it.
pub fn used_by_crate_tests() {}

/// Negative: a binary of this crate calls it.
pub fn used_by_bin() {}

/// Negative: the crate's `src/main.rs` calls it.
pub const fn used_by_main() -> u8 {
    1
}

/// Negative: a root example calls it.
pub fn used_by_example() {}

/// Negative: the read-only benchmark calls it.
pub fn used_by_benchmark() {}

// scope-analyze: allow(dead-pub) — kept for callers outside the workspace
pub fn kept_for_outside_callers() {}

/// Not public outside the crate: never a finding.
pub(crate) fn internal() {}

macro_rules! make {
    () => {
        pub fn from_a_macro() {}
    };
}

#[cfg(test)]
mod tests {
    pub fn test_helper() {}

    #[test]
    fn calls() {
        super::internal();
        test_helper();
    }
}
