#[test]
fn drives_the_app() {
    assert_eq!(scope_app::app_entry(), 7);
}
