#[test]
fn calls_the_library() {
    scope_lib::used_by_crate_tests();
}
