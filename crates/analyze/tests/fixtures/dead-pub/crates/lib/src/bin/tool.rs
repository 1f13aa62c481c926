fn main() {
    scope_lib::used_by_bin();
}
