//! Another crate: what it sets, reads and names.

struct Other {
    named_elsewhere: u32,
    assigned_on_another: u32,
}

fn tune(options: &mut scope_lib::Options) {
    options.set_through_a_parameter = 13;
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
    tune(&mut options);
    let mut defaults = scope_lib::Options::default();
    defaults.set_on_a_default = 14;
    let scope_lib::Options { destructured, .. } = options;
    let mut other = Other {
        named_elsewhere: 12,
        assigned_on_another: 0,
    };
    other.assigned_on_another = 15;
    let _ = scope_lib::NamedOutside::build().part();
    options.read_only + destructured + other.named_elsewhere
}
