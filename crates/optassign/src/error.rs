//! Error type for the OPTASSIGN crate.

use std::fmt;
use std::sync::Arc;

/// Errors produced by the OPTASSIGN solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptAssignError {
    /// A partition has no feasible (tier, compression) choice under its
    /// latency threshold — the instance is infeasible as specified and the
    /// latency requirement must be relaxed (the paper's prescription).
    InfeasiblePartition {
        /// Id of the partition.
        partition: usize,
        /// Name of the partition (the spec's shared copy).
        name: Arc<str>,
    },
    /// The total capacity across tiers cannot hold all partitions.
    InfeasibleCapacity,
    /// The problem definition is malformed (empty partitions, bad sizes,
    /// missing "no compression" option, ...).
    InvalidProblem(String),
}

impl fmt::Display for OptAssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptAssignError::InfeasiblePartition { partition, name } => write!(
                f,
                "partition {partition} ({name}) has no feasible tier/compression choice; relax its latency threshold"
            ),
            OptAssignError::InfeasibleCapacity => {
                write!(f, "tier capacity reservations cannot hold all partitions")
            }
            OptAssignError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
        }
    }
}

impl std::error::Error for OptAssignError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = OptAssignError::InfeasiblePartition {
            partition: 3,
            name: "p3".into(),
        };
        assert!(e.to_string().contains("p3"));
        assert!(OptAssignError::InfeasibleCapacity
            .to_string()
            .contains("capacity"));
        assert!(OptAssignError::InvalidProblem("x".into())
            .to_string()
            .contains('x'));
    }
}
