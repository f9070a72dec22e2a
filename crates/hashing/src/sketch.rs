//! XOR sketches (the FindMin tool of §3): emptiness tests and one-element
//! recovery.
//!
//! The MST algorithm needs to decide, per component `C` and key range,
//! whether the set of `C`'s outgoing edges in the range is empty. Every
//! member XORs in the edges it is incident to, so an internal edge
//! appears twice and cancels. The paper hashes every identifier to one
//! bit and tests the mod-2 sum, repeated over `O(log n)` independent
//! functions so that a non-empty set hashes to zero with probability
//! `2^{−Θ(log n)}`.
//!
//! The same mask also recovers a one-element set, as King–Kutten–Thorup
//! do: beside the mask sum, XOR the elements themselves. For `S = {x}`
//! the element sum is `x` and `element_mask(x)` equals the mask sum; for
//! `|S| ≥ 2` the element sum is a point the mask sum is independent of,
//! so the two agree only with probability `2^{−t}`.
//!
//! [`XorSketch`] evaluates `t ≤ 64` independent trials at once and packs
//! them into a single `u64` **mask**; the sketch of a set is the XOR of its
//! element masks, which is exactly what a distributive XOR aggregation
//! computes. One mask is `t = Θ(log n)` bits — within the model's message
//! budget — so an entire equality test costs a single aggregation instead of
//! `Θ(log n)` sequential ones. This preserves both the failure probability
//! (`2^{−t}` per test) and Lemma 3.1's iteration bound.

use crate::poly::PolyHash;
use crate::shared::SharedRandomness;

/// A bank of `t ≤ 64` independent one-bit hash functions, evaluated
/// together into a packed trial mask.
#[derive(Debug, Clone)]
pub struct XorSketch {
    fns: Vec<PolyHash>,
}

impl XorSketch {
    /// Derives `t` trial functions (each k-wise independent) from shared
    /// randomness under `label`.
    pub fn derive(shared: &SharedRandomness, label: u64, t: usize, k: usize) -> Self {
        assert!((1..=64).contains(&t), "1..=64 packed trials supported");
        XorSketch {
            fns: shared.family(label, t, k),
        }
    }

    /// The packed mask of one element: bit `i` is `h_i(x) mod 2`.
    #[inline]
    pub fn element_mask(&self, x: u64) -> u64 {
        let mut m = 0u64;
        for (i, f) in self.fns.iter().enumerate() {
            m |= f.to_bit(x) << i;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sketch(t: usize) -> XorSketch {
        XorSketch::derive(&SharedRandomness::new(1234), 99, t, 8)
    }

    /// Sketch of a whole set: the XOR of its element masks, which is what
    /// an XOR aggregation over the set's members computes.
    fn set_mask(s: &XorSketch, xs: impl IntoIterator<Item = u64>) -> u64 {
        xs.into_iter().fold(0, |acc, x| acc ^ s.element_mask(x))
    }

    #[test]
    fn equal_sets_equal_masks_any_order() {
        let s = sketch(32);
        let a = set_mask(&s, [5u64, 9, 200, 7]);
        let b = set_mask(&s, [7u64, 200, 9, 5]);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_pairs_cancel() {
        // XOR semantics: an element appearing twice vanishes — exactly the
        // property FindMin uses (internal edges appear in both directions).
        let s = sketch(32);
        assert_eq!(set_mask(&s, [3u64, 3]), 0);
        assert_eq!(set_mask(&s, [3u64, 4, 3]), s.element_mask(4));
    }

    #[test]
    fn unequal_sets_differ_whp() {
        let s = sketch(64);
        let base: Vec<u64> = (0..50).collect();
        for extra in 1000..1100u64 {
            let mut other = base.clone();
            other.push(extra);
            assert_ne!(
                set_mask(&s, base.iter().copied()),
                set_mask(&s, other),
                "collision at {extra}"
            );
        }
    }

    #[test]
    fn single_trial_differs_about_half_the_time() {
        // per-trial distinguishing probability should be ≈ 1/2
        let shared = SharedRandomness::new(777);
        let mut distinguished = 0;
        let total = 400;
        for i in 0..total {
            let s = XorSketch::derive(&shared, 1000 + i, 1, 8);
            if s.element_mask(11) != s.element_mask(12) {
                distinguished += 1;
            }
        }
        assert!(
            (120..=280).contains(&distinguished),
            "got {distinguished}/{total}"
        );
    }

    /// One-element recovery at FindMin's `t = 40`: over 10⁴ seeded random
    /// sets, every singleton `{x}` decodes (`element_mask(⊕x) == ⊕mask`)
    /// and no set of 2–8 distinct elements does.
    #[test]
    fn singletons_decode_and_larger_sets_do_not() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let s = XorSketch::derive(&SharedRandomness::new(42), 7, 40, 12);
        let mut rng = SmallRng::seed_from_u64(2019);
        let decodes = |xs: &[u64]| {
            let key = xs.iter().fold(0, |acc, x| acc ^ x);
            s.element_mask(key) == set_mask(&s, xs.iter().copied())
        };
        for i in 0..10_000usize {
            let size = 1 + i % 8;
            // below 2⁶¹ − 1, where distinct inputs are distinct field points
            let mut xs: Vec<u64> = (0..size).map(|_| rng.gen::<u64>() >> 4).collect();
            xs.sort_unstable();
            xs.dedup();
            if xs.len() < size {
                continue;
            }
            assert_eq!(decodes(&xs), size == 1, "set {xs:?}");
        }
    }

    #[test]
    #[should_panic]
    fn too_many_trials_rejected() {
        let _ = sketch(65);
    }

    proptest! {
        #[test]
        fn mask_is_linear(xs in proptest::collection::vec(any::<u64>(), 0..20),
                          ys in proptest::collection::vec(any::<u64>(), 0..20)) {
            let s = sketch(16);
            let lhs = set_mask(&s, xs.iter().copied()) ^ set_mask(&s, ys.iter().copied());
            let both = set_mask(&s, xs.iter().chain(ys.iter()).copied());
            prop_assert_eq!(lhs, both);
        }

        #[test]
        fn symmetric_difference_decides_equality(shift in 1u64..1000) {
            // sets {x} and {x + shift} must differ in at least one of 64 trials
            let s = sketch(64);
            prop_assert_ne!(s.element_mask(42), s.element_mask(42 + shift));
        }
    }
}
