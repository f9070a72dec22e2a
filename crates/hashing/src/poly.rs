//! The degree-(k−1) polynomial hash family over GF(2⁶¹−1).
//!
//! A function `h(x) = c₀ + c₁x + … + c_{k−1}x^{k−1} mod p` with uniformly
//! random coefficients is **k-wise independent**: any k distinct inputs map
//! to independently uniform outputs. The paper (§2.2) requires exactly this
//! with `k = Θ(log n)` for its Chernoff arguments (Lemma 2.1), and charges
//! `Θ(log² n)` broadcast bits to agree on one function — each of the
//! `Θ(log n)` coefficients is a `Θ(log n)`-bit word. [`PolyHash::bits`]
//! reports that cost so protocols can account for it.

use rand::Rng;

use crate::field::{add, mul, reduce64, M61};

/// One member of the k-wise independent polynomial family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    /// Coefficients `c₀ … c_{k−1}`, each in `[0, p)`.
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Draws a fresh function with `k` coefficients (k-wise independence).
    pub fn random(k: usize, rng: &mut impl Rng) -> Self {
        assert!(k >= 1, "need at least one coefficient");
        let coeffs = (0..k).map(|_| rng.gen_range(0..M61)).collect();
        PolyHash { coeffs }
    }

    /// Independence degree of this function.
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// Number of shared-random bits needed to agree on this function —
    /// the quantity the paper broadcasts (`Θ(log² n)` for `k = Θ(log n)`).
    pub fn bits(&self) -> usize {
        self.coeffs.len() * 61
    }

    /// Evaluates the polynomial at `x` (reduced into the field first).
    /// Output is uniform on `[0, p)` over the choice of function.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let x = reduce64(x);
        // Horner's rule, highest coefficient first.
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = add(mul(acc, x), c);
        }
        acc
    }

    /// Hash into the range `[0, q)`.
    ///
    /// Uses widening multiplication rather than `%` to avoid modulo bias
    /// beyond the inherent `q/p` floor bias (negligible for `q ≪ 2⁶¹`).
    #[inline]
    pub fn to_range(&self, x: u64, q: u64) -> u64 {
        debug_assert!(q > 0);
        let v = self.eval(x);
        ((v as u128 * q as u128) >> 61) as u64
    }

    /// Hash to a single bit.
    #[inline]
    pub fn to_bit(&self, x: u64) -> u64 {
        self.eval(x) & 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn f(seed: u64, k: usize) -> PolyHash {
        PolyHash::random(k, &mut SmallRng::seed_from_u64(seed))
    }

    /// The function with explicit coefficients (reduced mod p).
    fn from_coeffs(coeffs: Vec<u64>) -> PolyHash {
        PolyHash {
            coeffs: coeffs.into_iter().map(reduce64).collect(),
        }
    }

    #[test]
    fn deterministic_for_fixed_coeffs() {
        let h = from_coeffs(vec![3, 5, 7]);
        // h(x) = 3 + 5x + 7x² mod p
        assert_eq!(h.eval(0), 3);
        assert_eq!(h.eval(1), 15);
        assert_eq!(h.eval(2), 3 + 10 + 28);
        assert_eq!(h.k(), 3);
        assert_eq!(h.bits(), 183);
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let (a, b) = (f(1, 4), f(2, 4));
        let same = (0..64u64).filter(|&x| a.eval(x) == b.eval(x)).count();
        assert!(
            same <= 1,
            "two random degree-3 polys agree on ≤3 points w.h.p."
        );
    }

    #[test]
    fn range_hash_in_bounds() {
        let h = f(7, 8);
        for q in [1u64, 2, 3, 10, 1000, 1 << 40] {
            for x in 0..200u64 {
                assert!(h.to_range(x, q) < q);
            }
        }
    }

    #[test]
    fn range_hash_roughly_uniform() {
        let h = f(11, 8);
        let q = 16u64;
        let mut counts = vec![0usize; q as usize];
        let samples = 16_000u64;
        for x in 0..samples {
            counts[h.to_range(x, q) as usize] += 1;
        }
        let expect = (samples / q) as f64;
        for (bucket, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.15, "bucket {bucket} off by {dev:.3}");
        }
    }

    #[test]
    fn bit_hash_balanced() {
        let h = f(13, 8);
        let ones: u64 = (0..10_000u64).map(|x| h.to_bit(x)).sum();
        assert!((4_500..5_500).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn pairwise_independence_smoke() {
        // For a 2-wise family, the joint distribution of (h(a), h(b) ) over
        // random h should be near-uniform on pairs of bits.
        let mut joint = [[0u32; 2]; 2];
        for seed in 0..4000u64 {
            let h = f(seed, 2);
            joint[h.to_bit(17) as usize][h.to_bit(99) as usize] += 1;
        }
        for row in joint {
            for c in row {
                assert!((800..1200).contains(&c), "joint cell {c}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_coefficients_rejected() {
        let _ = f(1, 0);
    }
}
