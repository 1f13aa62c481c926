fn main() {
    let _ = scope_lib::used_by_main();
}
