//! Another crate: its calls count as callers of `scope-lib`.

/// Named by the root integration tests.
pub fn app_entry() -> u32 {
    // only_in_a_comment() would count if comments were code.
    scope_lib::used_by_other_crate()
}
