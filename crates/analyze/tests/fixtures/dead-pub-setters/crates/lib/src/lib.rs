//! A library crate whose `Default` knobs are judged by who sets them, and
//! whose types by who names them.

/// Options with a hand-written `Default`: every `pub` field is a knob.
pub struct Options {
    /// Positive: another crate names it only in another struct's literal.
    pub named_elsewhere: u32,
    /// Positive: another crate only reads it.
    pub read_only: u32,
    /// Positive: another crate only destructures it.
    pub destructured: u32,
    /// Negative: another crate sets it in an `Options { … }` literal.
    pub set_in_literal: u32,
    /// Negative: another crate sets it by the `field` shorthand.
    pub set_by_shorthand: u32,
    /// Negative: another crate sets it before an `..base` update.
    pub set_before_base: u32,
    /// Negative: another crate assigns it (`.field = …`) on a binding of
    /// an `Options` literal.
    pub set_by_assignment: u32,
    /// Negative: another crate assigns it on `Options::default()`.
    pub set_on_a_default: u32,
    /// Negative: another crate assigns it through an `&mut Options`.
    pub set_through_a_parameter: u32,
    /// Positive: another crate assigns a field of this name only on
    /// another struct.
    pub assigned_on_another: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            named_elsewhere: 1,
            read_only: 2,
            destructured: 3,
            set_in_literal: 4,
            set_by_shorthand: 5,
            set_before_base: 6,
            set_by_assignment: 7,
            set_on_a_default: 8,
            set_through_a_parameter: 9,
            assigned_on_another: 10,
        }
    }
}

/// Weights with a hand-written `Default` and a public constructor.
pub struct Weights {
    /// Negative: the public constructor takes it.
    pub alpha: f64,
    /// Positive: no constructor parameter, literal or assignment sets it.
    pub gamma: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            alpha: 1.0,
            gamma: 0.5,
        }
    }
}

impl Weights {
    /// Named by another crate.
    pub fn new(alpha: f64) -> Self {
        Weights {
            alpha,
            ..Weights::default()
        }
    }
}

/// Positive: only its own constructor exposes it.
pub struct SelfMade;

impl SelfMade {
    /// `build` is named by another crate (through `NamedOutside::build`).
    pub fn build() -> SelfMade {
        SelfMade
    }
}

/// Negative: the same shape, but another crate names the type.
pub struct NamedOutside;

impl NamedOutside {
    /// Named by another crate.
    pub fn build() -> NamedOutside {
        NamedOutside
    }

    /// Named by another crate.
    pub fn part(&self) -> Part {
        Part
    }
}

/// Negative: a method of a type named outside exposes it.
pub struct Part;
