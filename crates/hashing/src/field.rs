//! Arithmetic modulo the Mersenne prime `p = 2⁶¹ − 1`.
//!
//! The Mersenne structure allows reduction with shifts and adds instead of
//! division, which matters because polynomial hashing sits on the hot path
//! of every sketch evaluation in the simulator.

/// The Mersenne prime `2⁶¹ − 1`.
pub const M61: u64 = (1 << 61) - 1;

/// Reduces a value `< 2·p` into `[0, p)`.
#[inline]
pub fn reduce_once(x: u64) -> u64 {
    debug_assert!(x < 2 * M61);
    if x >= M61 {
        x - M61
    } else {
        x
    }
}

/// Full reduction of an arbitrary `u64` into `[0, p)`.
#[inline]
pub fn reduce64(x: u64) -> u64 {
    // x = hi·2⁶¹ + lo ≡ hi + lo (mod p)
    let r = (x >> 61) + (x & M61);
    reduce_once(r)
}

/// Addition in GF(p).
#[inline]
pub fn add(a: u64, b: u64) -> u64 {
    debug_assert!(a < M61 && b < M61);
    reduce_once(a + b)
}

/// Subtraction in GF(p).
#[inline]
pub fn sub(a: u64, b: u64) -> u64 {
    debug_assert!(a < M61 && b < M61);
    reduce_once(a + M61 - b)
}

/// Multiplication in GF(p) via a 128-bit intermediate.
#[inline]
pub fn mul(a: u64, b: u64) -> u64 {
    debug_assert!(a < M61 && b < M61);
    let t = (a as u128) * (b as u128);
    // t = hi·2⁶¹ + lo, with hi < 2⁶¹ because a,b < 2⁶¹
    let lo = (t as u64) & M61;
    let hi = (t >> 61) as u64;
    reduce_once(reduce64(hi + lo))
}

/// Exponentiation by squaring in GF(p).
pub fn pow(mut base: u64, mut exp: u64) -> u64 {
    base %= M61;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Multiplicative inverse via Fermat's little theorem. `a` must be non-zero.
    fn inv(a: u64) -> u64 {
        assert!(!a.is_multiple_of(M61), "zero has no inverse");
        pow(a, M61 - 2)
    }

    #[test]
    fn small_identities() {
        assert_eq!(add(M61 - 1, 1), 0);
        assert_eq!(sub(0, 1), M61 - 1);
        assert_eq!(mul(2, 3), 6);
        assert_eq!(pow(5, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn two_pow_61_is_one() {
        // 2⁶¹ ≡ 1 (mod 2⁶¹−1)
        assert_eq!(pow(2, 61), 1);
    }

    #[test]
    fn fermat_inverse() {
        for a in [1u64, 2, 3, 12345, M61 - 1] {
            assert_eq!(mul(a, inv(a)), 1, "inverse failed for {a}");
        }
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn zero_inverse_panics() {
        inv(0);
    }

    proptest! {
        #[test]
        fn mul_matches_u128_reference(a in 0u64..M61, b in 0u64..M61) {
            let expect = ((a as u128 * b as u128) % (M61 as u128)) as u64;
            prop_assert_eq!(mul(a, b), expect);
        }

        #[test]
        fn add_matches_reference(a in 0u64..M61, b in 0u64..M61) {
            let expect = ((a as u128 + b as u128) % (M61 as u128)) as u64;
            prop_assert_eq!(add(a, b), expect);
        }

        #[test]
        fn sub_then_add_roundtrips(a in 0u64..M61, b in 0u64..M61) {
            prop_assert_eq!(add(sub(a, b), b), a);
        }

        #[test]
        fn reduce64_in_range(x in any::<u64>()) {
            prop_assert!(reduce64(x) < M61);
            prop_assert_eq!(reduce64(x) as u128, (x as u128) % (M61 as u128));
        }

        #[test]
        fn pow_is_repeated_mul(a in 0u64..M61, e in 0u64..32) {
            let mut acc = 1u64;
            for _ in 0..e { acc = mul(acc, a); }
            prop_assert_eq!(pow(a, e), acc);
        }
    }
}
