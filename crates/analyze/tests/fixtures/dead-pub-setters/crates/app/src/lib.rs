//! Another crate: what it sets, reads and names.

struct Other {
    named_elsewhere: u32,
}

fn app_entry() -> u32 {
    let _ = scope_lib::Weights::new(1.0);
    let set_by_shorthand = 8;
    let mut options = scope_lib::Options {
        set_in_literal: 9,
        set_by_shorthand,
        set_before_base: 10,
        ..Default::default()
    };
    options.set_by_assignment = 11;
    let scope_lib::Options { destructured, .. } = options;
    let other = Other { named_elsewhere: 12 };
    let _ = scope_lib::NamedOutside::build().part();
    options.read_only + destructured + other.named_elsewhere
}
