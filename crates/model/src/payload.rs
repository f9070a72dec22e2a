//! Message payloads and envelopes.
//!
//! The model restricts messages to `O(log n)` bits. Rather than forcing every
//! protocol through a byte codec, payloads are ordinary Rust values that
//! *declare* their wire width via [`Payload::bit_size`]; the engine asserts
//! the declared width against the capacity budget. The helper functions in
//! this module compute the widths of the quantities that appear throughout
//! the paper (node identifiers: `log n` bits; edge identifiers: `2 log n`
//! bits; weights: `log W = O(log n)` bits; sketch masks: `Θ(log n)` bits).

use serde::{Deserialize, Serialize};

use crate::NodeId;

/// A value that can travel through the network.
///
/// `bit_size` is the number of bits the value would occupy on the wire; the
/// engine checks it against [`crate::Capacity::payload_bits`]. Implementors
/// should count the *information content* (e.g. a node id costs `⌈log₂ n⌉`
/// bits) rather than Rust's in-memory size.
pub trait Payload: Clone + Send + Sync + 'static {
    fn bit_size(&self) -> u32;
}

/// Machine words report their *minimal* width: protocol values are
/// semantically `O(log n)`-bit quantities (identifiers, weights, packed
/// sketch masks) stored in `u64`s, and the minimal encoding is what would
/// travel on the wire. The engine's budget check thus verifies that values
/// actually stay `O(log n)`-sized.
impl Payload for u64 {
    fn bit_size(&self) -> u32 {
        min_bits(*self)
    }
}

/// Same minimal-width accounting as `u64` (the value is what travels, not
/// the storage width).
impl Payload for u32 {
    fn bit_size(&self) -> u32 {
        min_bits(*self as u64)
    }
}

/// A flag is one bit on the wire.
impl Payload for bool {
    fn bit_size(&self) -> u32 {
        1
    }
}

impl Payload for () {
    fn bit_size(&self) -> u32 {
        0
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn bit_size(&self) -> u32 {
        self.0.bit_size() + self.1.bit_size()
    }
}

/// An optional value costs a presence bit plus the value when present —
/// the honest encoding of protocol fields like "my proposal, if any",
/// which message enums otherwise pack into sentinel `u64`s.
impl<P: Payload> Payload for Option<P> {
    fn bit_size(&self) -> u32 {
        1 + self.as_ref().map_or(0, Payload::bit_size)
    }
}

/// Fixed-size arrays sum their element widths (no length header: the
/// length is static protocol knowledge, exactly like a tuple's arity).
impl<P: Payload, const N: usize> Payload for [P; N] {
    fn bit_size(&self) -> u32 {
        self.iter().map(Payload::bit_size).sum()
    }
}

/// A routed message: source, destination, payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope<P> {
    pub src: NodeId,
    pub dst: NodeId,
    pub payload: P,
}

impl<P: Payload> Envelope<P> {
    pub fn new(src: NodeId, dst: NodeId, payload: P) -> Self {
        Envelope { src, dst, payload }
    }

    /// Wire width of the whole message: payload plus the destination header
    /// (`⌈log₂ n⌉` bits — the source is implicit on a point-to-point link
    /// but the paper's message format includes identifiers in the payload
    /// where needed, so we charge only the payload plus routing header).
    pub fn bit_size(&self, logn: u32) -> u32 {
        self.payload.bit_size() + logn
    }
}

/// Minimal binary width of a value — the honest wire size of a quantity
/// that is semantically `O(log n)` bits but stored in a machine word.
#[inline]
pub fn min_bits(x: u64) -> u32 {
    (64 - x.leading_zeros()).max(1)
}

/// Bit width of a node identifier in an `n`-node network.
#[inline]
pub fn id_bits(n: usize) -> u32 {
    crate::ilog2_ceil(n).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_payload_adds_sizes() {
        let p = (3u64, 4u64);
        assert_eq!(p.bit_size(), 2 + 3);
        assert_eq!(().bit_size(), 0);
    }

    #[test]
    fn u64_payload_minimal_width() {
        assert_eq!(0u64.bit_size(), 1);
        assert_eq!(1u64.bit_size(), 1);
        assert_eq!(255u64.bit_size(), 8);
        assert_eq!(u64::MAX.bit_size(), 64);
    }

    #[test]
    fn envelope_accounts_header() {
        let e = Envelope::new(0, 1, 7u64);
        assert_eq!(e.bit_size(10), 3 + 10);
    }

    #[test]
    fn u32_and_bool_widths() {
        assert_eq!(0u32.bit_size(), 1);
        assert_eq!(255u32.bit_size(), 8);
        assert_eq!(u32::MAX.bit_size(), 32);
        assert_eq!(true.bit_size(), 1);
        assert_eq!(false.bit_size(), 1);
    }

    #[test]
    fn option_charges_presence_bit() {
        assert_eq!(Option::<u64>::None.bit_size(), 1);
        assert_eq!(Some(255u64).bit_size(), 1 + 8);
        // nesting stays honest: Option<Option<u64>>
        assert_eq!(Some(Some(255u64)).bit_size(), 1 + 1 + 8);
        assert_eq!(Some(Option::<u64>::None).bit_size(), 2);
    }

    #[test]
    fn array_sums_elements_without_header() {
        assert_eq!([0u64; 0].bit_size(), 0);
        assert_eq!([1u64, 255, 3].bit_size(), 1 + 8 + 2);
        assert_eq!([true; 7].bit_size(), 7);
        // composes with tuples and options
        assert_eq!(([3u64, 4], Some(true)).bit_size(), (2 + 3) + 2);
    }

    #[test]
    fn id_bit_widths() {
        assert_eq!(id_bits(2), 1);
        assert_eq!(id_bits(1024), 10);
        // n = 1 still needs one bit to name a node
        assert_eq!(id_bits(1), 1);
    }
}
