//! Oracles belong to `oracle-discipline`, not to this rule.

pub fn oracle_nobody_calls() {}
