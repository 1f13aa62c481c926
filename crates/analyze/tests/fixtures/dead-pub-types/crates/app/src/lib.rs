//! Another crate: what it names counts as named outside `scope-lib`.

pub fn app_entry() -> usize {
    let _ = scope_lib::make_exposed(1);
    let _: Option<(scope_lib::Holder, scope_lib::Outcome, scope_lib::Alias)> = None;
    let _ = scope_lib::Derived::default();
    0
}
