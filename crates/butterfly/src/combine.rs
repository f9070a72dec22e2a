//! Distributive aggregate functions (§2.1) — the one combiner surface every
//! aggregation-style primitive shares.
//!
//! An aggregate `f` is *distributive* when a function `g` combines partial
//! aggregates of any partition into the full aggregate — the property that
//! lets butterfly nodes merge colliding packets of the same group. In this
//! implementation `combine` *is* `g` and inputs are already singleton
//! aggregates, matching the paper's usage (MAX, MIN, SUM, XOR, …).
//!
//! [`Aggregate`] is consumed by Aggregate-and-Broadcast (Thm 2.2), the
//! Aggregation Algorithm (Thm 2.3) and Multi-Aggregation (Thm 2.6) alike;
//! there is exactly one combiner trait and one set of standard combiners.
//! (The historic `crate::aggregate` module path re-exports this module.)

use ncc_model::Payload;

/// A distributive aggregate over values of type `V`.
///
/// Laws the primitives rely on (checked by property tests):
/// associativity and commutativity — packets combine in arbitrary
/// collision order along the butterfly.
pub trait Aggregate<V: Payload>: Sync {
    fn combine(&self, a: &V, b: &V) -> V;
}

/// Minimum of `u64` values (used for BFS parents and MIS random values).
#[derive(Debug, Clone, Copy, Default)]
pub struct MinU64;
impl Aggregate<u64> for MinU64 {
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        *a.min(b)
    }
}

/// Maximum of `u64` values (used for `d*` computations in §4).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxU64;
impl Aggregate<u64> for MaxU64 {
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        *a.max(b)
    }
}

/// Sum of `u64` values (degree counting in §4 Stage 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct SumU64;
impl Aggregate<u64> for SumU64 {
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }
}

/// Bitwise XOR (the sketch aggregations of §3 and §4.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct XorU64;
impl Aggregate<u64> for XorU64 {
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a ^ b
    }
}

/// Pairwise XOR over `(u64, u64)` — used for FindMin's `(mask, key)`
/// sketch pair (§3).
#[derive(Debug, Clone, Copy, Default)]
pub struct XorPair;
impl Aggregate<(u64, u64)> for XorPair {
    fn combine(&self, a: &(u64, u64), b: &(u64, u64)) -> (u64, u64) {
        (a.0 ^ b.0, a.1 ^ b.1)
    }
}

/// `(XOR, SUM)` over `(u64, u64)` — the Identification Algorithm's combined
/// `(X'(i), x'(i))` aggregation (§4.1): first coordinate XORs edge ids,
/// second counts participants.
#[derive(Debug, Clone, Copy, Default)]
pub struct XorSum;
impl Aggregate<(u64, u64)> for XorSum {
    fn combine(&self, a: &(u64, u64), b: &(u64, u64)) -> (u64, u64) {
        (a.0 ^ b.0, a.1.wrapping_add(b.1))
    }
}

/// Coordinate-wise sum over `(u64, u64)` — used for `(Σ dᵢ(u), count)`
/// averages in §4 Stage 1 and for paired flag counting.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumPair;
impl Aggregate<(u64, u64)> for SumPair {
    fn combine(&self, a: &(u64, u64), b: &(u64, u64)) -> (u64, u64) {
        (a.0.wrapping_add(b.0), a.1.wrapping_add(b.1))
    }
}

/// Minimum by the first coordinate of a `(key, data)` pair, keeping the
/// winner's data — the annotated-minimum used by the matching algorithm's
/// random-neighbor selection (§5.3) and by leader election.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinByKey;
impl Aggregate<(u64, u64)> for MinByKey {
    fn combine(&self, a: &(u64, u64), b: &(u64, u64)) -> (u64, u64) {
        if a <= b {
            *a
        } else {
            *b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_semantics() {
        assert_eq!(MinU64.combine(&3, &5), 3);
        assert_eq!(MaxU64.combine(&3, &5), 5);
        assert_eq!(SumU64.combine(&3, &5), 8);
        assert_eq!(XorU64.combine(&0b101, &0b011), 0b110);
        assert_eq!(XorPair.combine(&(1, 2), &(3, 4)), (2, 6));
        assert_eq!(XorSum.combine(&(1, 2), &(3, 4)), (2, 6));
        assert_eq!(MinByKey.combine(&(2, 99), &(3, 1)), (2, 99));
        assert_eq!(MinByKey.combine(&(3, 1), &(2, 99)), (2, 99));
    }

    fn assoc_comm<V: Payload + PartialEq + std::fmt::Debug>(
        agg: &impl Aggregate<V>,
        a: V,
        b: V,
        c: V,
    ) {
        assert_eq!(
            agg.combine(&agg.combine(&a, &b), &c),
            agg.combine(&a, &agg.combine(&b, &c)),
            "associativity"
        );
        assert_eq!(agg.combine(&a, &b), agg.combine(&b, &a), "commutativity");
    }

    proptest! {
        #[test]
        fn u64_aggregates_are_assoc_comm(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            assoc_comm(&MinU64, a, b, c);
            assoc_comm(&MaxU64, a, b, c);
            assoc_comm(&SumU64, a, b, c);
            assoc_comm(&XorU64, a, b, c);
        }

        #[test]
        fn pair_aggregates_are_assoc_comm(
            a in any::<(u64, u64)>(), b in any::<(u64, u64)>(), c in any::<(u64, u64)>()
        ) {
            assoc_comm(&XorPair, a, b, c);
            assoc_comm(&XorSum, a, b, c);
            assoc_comm(&MinByKey, a, b, c);
            assoc_comm(&SumPair, a, b, c);
        }
    }
}
