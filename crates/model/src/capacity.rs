//! Per-node communication capacity (the defining constraint of the model).
//!
//! The paper allows each node to send and receive `O(log n)` messages of
//! `O(log n)` bits per round. Asymptotic statements hide constants, but a
//! simulator must pick them; [`Capacity`] makes the constants explicit and
//! the experiment harness reports the measured load so the hidden constants
//! can be audited (experiment E15).

use serde::{Deserialize, Serialize};

use crate::ilog2_ceil;

/// Per-round, per-node message budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Capacity {
    /// Maximum number of messages a node may send per round.
    pub send: usize,
    /// Maximum number of messages a node may receive per round; excess
    /// inbound messages are dropped by the network.
    pub recv: usize,
    /// Maximum payload width in bits (the `O(log n)` message-size budget).
    pub payload_bits: u32,
}

impl Capacity {
    /// Capacity scaled as `κ · ⌈log₂ n⌉` messages (minimum `κ` for tiny `n`)
    /// and `β · ⌈log₂ n⌉` payload bits (minimum 128, so a tagged machine
    /// word plus a group header always fits at tiny `n` — identifiers,
    /// weights and hash values in this codebase are machine words
    /// representing `O(log n)`-bit quantities, and the accounting rounds
    /// *up* to the machine-word width, never down).
    ///
    /// The defaults used across the repository are `κ = 8`, `β = 16`; the
    /// butterfly emulation needs `κ ≥ 5` (each emulated column touches at
    /// most `4(d+1) + O(1)` butterfly edges) and the measured loads stay
    /// well inside this budget (`exp15_capacity` prints the peak per-node
    /// load of every algorithm against it).
    pub fn log_scaled(n: usize, kappa: usize, beta: u32) -> Self {
        let logn = ilog2_ceil(n).max(1) as usize;
        // Saturating: callers may probe with `usize::MAX`-ish constants
        // (unbounded-capacity sweeps); a silent wrap here would turn an
        // "effectively infinite" budget into a tiny one.
        Capacity {
            send: kappa.saturating_mul(logn).max(kappa),
            recv: kappa.saturating_mul(logn).max(kappa),
            payload_bits: beta.saturating_mul(logn as u32).max(128),
        }
    }

    /// The repository-default capacity: `8·log₂n` messages, `24·log₂n` bits
    /// (the bit constant leaves room for a group header plus two packed
    /// `O(log n)`-bit words, e.g. the FindMin range multicasts of §3).
    pub fn default_for(n: usize) -> Self {
        Self::log_scaled(n, 8, 24)
    }

    /// An effectively-unlimited capacity, useful for baselines that model
    /// the *Congested Clique* (per-edge bandwidth, no node cap) or for
    /// isolating algorithmic round counts from capacity effects in tests.
    pub fn unbounded() -> Self {
        Capacity {
            send: usize::MAX,
            recv: usize::MAX,
            payload_bits: u32::MAX,
        }
    }

    /// A deliberately squeezed capacity, used by failure-injection tests to
    /// exercise the drop path.
    pub fn squeezed(send: usize, recv: usize) -> Self {
        Capacity {
            send,
            recv,
            payload_bits: u32::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_scaled_values() {
        let c = Capacity::log_scaled(1024, 8, 16);
        assert_eq!(c.send, 80);
        assert_eq!(c.recv, 80);
        assert_eq!(c.payload_bits, 160);
    }

    #[test]
    fn tiny_n_has_minimum_capacity() {
        let c = Capacity::log_scaled(1, 8, 16);
        assert_eq!(c.send, 8);
        assert_eq!(c.payload_bits, 128);
        let c2 = Capacity::log_scaled(2, 4, 16);
        assert_eq!(c2.send, 4);
    }

    #[test]
    fn default_capacity_values() {
        let c = Capacity::default_for(1024);
        assert_eq!(c.send, 80);
        assert_eq!(c.payload_bits, 240);
    }

    #[test]
    fn capacity_monotone_in_n() {
        let mut prev = 0;
        for k in 1..14 {
            let c = Capacity::default_for(1 << k);
            assert!(c.send >= prev);
            prev = c.send;
        }
    }

    #[test]
    fn unbounded_is_unbounded() {
        let c = Capacity::unbounded();
        assert_eq!(c.send, usize::MAX);
        assert_eq!(c.recv, usize::MAX);
    }

    #[test]
    fn log_scaled_saturates_instead_of_wrapping() {
        let c = Capacity::log_scaled(1 << 20, usize::MAX, u32::MAX);
        assert_eq!(c.send, usize::MAX);
        assert_eq!(c.recv, usize::MAX);
        assert_eq!(c.payload_bits, u32::MAX);
    }

    #[test]
    fn serde_roundtrip() {
        let c = Capacity::default_for(256);
        let s = serde_json::to_string(&c).unwrap();
        let back: Capacity = serde_json::from_str(&s).unwrap();
        assert_eq!(c, back);
    }
}
