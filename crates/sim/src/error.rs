//! Typed errors for scenario construction and topology edits.

use mwn_radio::Medium;

/// Why a scenario could not be built or a network edit was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A topology swap tried to add or remove nodes. Protocol state is
    /// indexed by [`mwn_graph::NodeId`], so the node count is fixed for
    /// the lifetime of a network.
    NodeCountMismatch {
        /// Node count the network was built with.
        expected: usize,
        /// Node count of the offered topology.
        got: usize,
    },
    /// [`crate::Scenario::build`] was called without a topology.
    MissingTopology,
    /// A configuration check rejected the scenario (protocol
    /// validation hook or event-driver parameters).
    InvalidConfig(String),
}

impl SimError {
    /// The rejection of a medium a driver cannot evaluate frame by
    /// frame: names the medium, what the `driver` needs of it, and its
    /// gated-contention status.
    pub(crate) fn unsupported_medium<M: Medium>(medium: &M, driver: &str, needs: &str) -> Self {
        let status = if medium.gated_contention() {
            "its gated-contention contract (statistical slot occupancy) \
             covers the round and event drivers only"
        } else {
            "it offers no gated-contention contract either"
        };
        SimError::InvalidConfig(format!(
            "medium `{}` cannot back the {driver}: {needs}, and {status}",
            medium.name()
        ))
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NodeCountMismatch { expected, got } => write!(
                f,
                "topology has {got} nodes but the network was built with {expected}: \
                 a network cannot add or remove nodes"
            ),
            SimError::MissingTopology => {
                write!(
                    f,
                    "scenario has no topology: call .topology(..) before .build()"
                )
            }
            SimError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_violation() {
        let e = SimError::NodeCountMismatch {
            expected: 4,
            got: 5,
        };
        assert!(e.to_string().contains("5 nodes"));
        assert!(e.to_string().contains("built with 4"));
        assert!(SimError::MissingTopology.to_string().contains("topology"));
        assert!(SimError::InvalidConfig("γ too small".into())
            .to_string()
            .contains("γ too small"));
    }
}
