//! Butterfly index arithmetic and column emulation.
//!
//! The `d`-dimensional butterfly (§2.2) has nodes `(i, α)` for levels
//! `i ∈ [d+1]` and columns `α ∈ [2^d]`, with *straight* edges
//! `(i,α)–(i+1,α)` and *cross* edges `(i,α)–(i+1,β)` where `α, β` differ
//! exactly at bit `i`. From level 0 there is a unique length-`d` path to any
//! level-`d` node: at level `i`, fix bit `i` of the column to the target's
//! bit `i` (bit-fixing routing).
//!
//! Emulation: NCC node `v < 2^d` emulates the whole column `v`; node
//! `v ≥ 2^d` attaches to *proxy* column `v − 2^d` (the paper's "identifier
//! differs only at the most significant bit"). Straight-edge traffic is
//! internal to one NCC node (free); cross-edge traffic is one NCC message.

use ncc_model::NodeId;

/// Butterfly geometry for an `n`-node network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Butterfly {
    n: usize,
    d: u32,
}

impl Butterfly {
    /// Builds the butterfly for `n ≥ 2` nodes: `d = ⌊log₂ n⌋`.
    pub fn for_n(n: usize) -> Self {
        assert!(n >= 2, "butterfly emulation needs at least two nodes");
        Butterfly {
            n,
            d: ncc_model::ilog2_floor(n),
        }
    }

    /// Dimension `d`.
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Number of columns, `2^d`.
    pub fn columns(&self) -> usize {
        1 << self.d
    }

    /// Network size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Does NCC node `v` emulate a column?
    #[inline]
    pub fn emulates(&self, v: NodeId) -> bool {
        (v as usize) < self.columns()
    }

    /// The column emulated by node `v` (caller must check [`Self::emulates`]).
    #[inline]
    pub fn column_of(&self, v: NodeId) -> u32 {
        debug_assert!(self.emulates(v));
        v
    }

    /// The NCC node that emulates column `α`.
    #[inline]
    pub fn emulator(&self, alpha: u32) -> NodeId {
        debug_assert!((alpha as usize) < self.columns());
        alpha
    }

    /// Proxy column for a non-emulating node `v ≥ 2^d`.
    #[inline]
    pub fn proxy_column(&self, v: NodeId) -> u32 {
        debug_assert!(!self.emulates(v));
        v - self.columns() as u32
    }

    /// The non-emulating node attached to column `α`, if any.
    #[inline]
    pub fn attached_node(&self, alpha: u32) -> Option<NodeId> {
        let v = alpha as usize + self.columns();
        if v < self.n {
            Some(v as NodeId)
        } else {
            None
        }
    }

    /// Whether the routing step at level `i` toward `target` crosses
    /// columns (i.e. costs an NCC message) from column `alpha`.
    #[inline]
    pub fn route_is_cross(&self, alpha: u32, i: u32, target: u32) -> bool {
        ((alpha ^ target) >> i) & 1 == 1
    }
}

/// Group identifiers used by the aggregation/multicast primitives.
///
/// The paper names groups by content — `A_{id(w)}`, `A_{id(w)∘i}` — so a
/// group identifier both *names* the group and *encodes its target*. We pack
/// `target` into the high 32 bits and a caller-chosen sub-identifier into
/// the low 32: the semantic width is `O(log n)` bits and the minimal-width
/// payload accounting in `ncc-model` sees exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

impl GroupId {
    /// Group named `target ∘ sub` (paper notation `A_{id(t)∘sub}`).
    #[inline]
    pub fn new(target: NodeId, sub: u32) -> Self {
        GroupId(((target as u64) << 32) | sub as u64)
    }

    /// The node this group's aggregate is destined for.
    #[inline]
    pub fn target(&self) -> NodeId {
        (self.0 >> 32) as NodeId
    }

    #[inline]
    pub fn sub(&self) -> u32 {
        self.0 as u32
    }

    #[inline]
    pub fn raw(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Butterfly {
        /// Next column on the unique path toward level-`d` column `target`,
        /// taken from level `i` (so bit `i` is fixed).
        fn route_step(&self, alpha: u32, i: u32, target: u32) -> u32 {
            debug_assert!(i < self.d);
            let bit = 1u32 << i;
            (alpha & !bit) | (target & bit)
        }
    }

    /// Walks the unique path from `(0, src)` to `(d, target)`, returning
    /// the sequence of columns visited (length `d + 1`).
    fn path_columns(b: &Butterfly, src: u32, target: u32) -> Vec<u32> {
        let mut cols = vec![src];
        for i in 0..b.d() {
            cols.push(b.route_step(*cols.last().unwrap(), i, target));
        }
        cols
    }

    #[test]
    fn dimensions() {
        let b = Butterfly::for_n(16);
        assert_eq!(b.d(), 4);
        assert_eq!(b.columns(), 16);
        let b = Butterfly::for_n(17);
        assert_eq!(b.d(), 4);
        assert_eq!(b.columns(), 16);
        let b = Butterfly::for_n(1024);
        assert_eq!(b.d(), 10);
    }

    #[test]
    fn emulation_mapping() {
        let b = Butterfly::for_n(20); // d = 4, 16 columns, 4 attached nodes
        assert!(b.emulates(0));
        assert!(b.emulates(15));
        assert!(!b.emulates(16));
        assert_eq!(b.proxy_column(16), 0);
        assert_eq!(b.proxy_column(19), 3);
        assert_eq!(b.attached_node(0), Some(16));
        assert_eq!(b.attached_node(3), Some(19));
        assert_eq!(b.attached_node(4), None);
    }

    #[test]
    fn bit_fixing_path_reaches_target() {
        let b = Butterfly::for_n(64); // d = 6
        for (src, dst) in [(0u32, 63u32), (5, 40), (63, 0), (21, 21)] {
            let p = path_columns(&b, src, dst);
            assert_eq!(p.len(), 7);
            assert_eq!(p[0], src);
            assert_eq!(*p.last().unwrap(), dst);
            // each step changes at most bit i
            for (i, w) in p.windows(2).enumerate() {
                let diff = w[0] ^ w[1];
                assert!(diff == 0 || diff == 1 << i, "step {i} changed {diff:b}");
            }
        }
    }

    #[test]
    fn route_step_cross_detection() {
        let b = Butterfly::for_n(16);
        // from column 0b0101 at level 1 toward target 0b0111: bit 1 differs
        assert!(b.route_is_cross(0b0101, 1, 0b0111));
        assert_eq!(b.route_step(0b0101, 1, 0b0111), 0b0111);
        // same bit: straight
        assert!(!b.route_is_cross(0b0101, 2, 0b0111));
        assert_eq!(b.route_step(0b0101, 2, 0b0111), 0b0101);
    }

    #[test]
    fn paths_unique_per_source_target() {
        // distinct sources reach the same target via distinct columns at
        // intermediate levels until bits merge — spot-check determinism
        let b = Butterfly::for_n(16);
        assert_eq!(path_columns(&b, 3, 9), path_columns(&b, 3, 9));
    }

    #[test]
    fn group_id_packing() {
        let g = GroupId::new(77, 5);
        assert_eq!(g.target(), 77);
        assert_eq!(g.sub(), 5);
        assert_eq!(GroupId(g.raw()), g);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_network_rejected() {
        let _ = Butterfly::for_n(1);
    }
}
