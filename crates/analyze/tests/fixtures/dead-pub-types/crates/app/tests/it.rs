#[test]
fn sets_a_knob() {
    let o = scope_lib::Options {
        set_by_app_tests: 5,
        ..Default::default()
    };
    assert_eq!(o.set_by_app_tests, 5);
    assert_eq!(scope_app::app_entry(), 0);
}
