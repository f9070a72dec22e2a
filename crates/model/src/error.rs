//! Error types for model violations.

use std::fmt;

/// Violations of the Node-Capacitated Clique contract detected by the engine.
///
/// In *strict* mode (the default for all algorithms in this repository) a
/// violation aborts the execution: the paper's algorithms are designed never
/// to exceed the caps w.h.p., so a violation is a protocol bug, not a runtime
/// condition. In *permissive* mode violations are counted in the statistics
/// instead (used by the failure-injection tests and by baselines that
/// deliberately overload nodes, e.g. naive star-broadcast in E16).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A node attempted to send more messages in one round than `cap_send`.
    SendCapExceeded {
        node: u32,
        round: u64,
        attempted: usize,
        cap: usize,
    },
    /// A payload declared a bit width above the `O(log n)` budget.
    PayloadTooWide {
        node: u32,
        round: u64,
        bits: u32,
        budget: u32,
    },
    /// A message was addressed outside `{0..n}`.
    BadDestination {
        node: u32,
        round: u64,
        dst: u32,
        n: usize,
    },
    /// The run exceeded its round limit without reaching quiescence.
    RoundLimitExceeded { limit: u64 },
    /// An event an algorithm's analysis guarantees w.h.p. did not happen,
    /// typically because a message it needed was dropped at a receive
    /// cap; `event` names it.
    WhpEventFailed { event: &'static str },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::SendCapExceeded {
                node,
                round,
                attempted,
                cap,
            } => write!(
                f,
                "node {node} attempted to send {attempted} messages in round {round} (cap {cap})"
            ),
            ModelError::PayloadTooWide {
                node,
                round,
                bits,
                budget,
            } => write!(
                f,
                "node {node} sent a {bits}-bit payload in round {round} (budget {budget} bits)"
            ),
            ModelError::BadDestination {
                node,
                round,
                dst,
                n,
            } => write!(
                f,
                "node {node} addressed non-existent node {dst} in round {round} (n = {n})"
            ),
            ModelError::RoundLimitExceeded { limit } => {
                write!(f, "execution did not quiesce within {limit} rounds")
            }
            ModelError::WhpEventFailed { event } => write!(f, "w.h.p. event failed: {event}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::SendCapExceeded {
            node: 3,
            round: 7,
            attempted: 99,
            cap: 80,
        };
        let s = e.to_string();
        assert!(s.contains("node 3"));
        assert!(s.contains("99"));
        assert!(s.contains("80"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = ModelError::RoundLimitExceeded { limit: 10 };
        let b = ModelError::RoundLimitExceeded { limit: 10 };
        assert_eq!(a, b);
    }
}
