//! Content addressing for scenario specs: a stable hash of the canonical
//! serde JSON form of a [`ScenarioSpec`].
//!
//! The serve layer (`ncc-serve`) keys its build cache by this hash: two
//! requests whose specs name the same *scenario identity* must share one
//! built [`crate::Scenario`] artifact. Identity is everything the build
//! depends on — family + parameters, `n`, seed, weight range, capacity,
//! model, source — but **not** `threads`, which is execution layout: the
//! engine is deterministic for any thread count (property-tested since
//! PR 3), so caching across thread counts is exactly as safe as the
//! existing cross-thread byte-identity gates. The hash canonicalises
//! `threads` to 1 before serializing.
//!
//! The hash is FNV-1a over the canonical JSON bytes. serde's derive
//! serializes struct fields in declaration order and the vendored
//! `serde_json` emits no whitespace in compact mode, so the byte stream —
//! and therefore the hash — is stable across processes and runs. It is a
//! *cache key*, not a cryptographic digest: collisions are astronomically
//! unlikely at cache sizes (tens to thousands of entries) and at worst
//! cost a rebuild correctness check in debug builds, never silent reuse
//! (the cache stores the spec alongside the artifact and verifies identity
//! on hit).

use std::fmt;

use crate::ScenarioSpec;

/// A 64-bit content hash of a scenario spec's canonical JSON form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecHash(pub u64);

impl fmt::Display for SpecHash {
    /// Fixed-width lowercase hex — the form used in logs and cache stats.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// FNV-1a, 64-bit. Dependency-free and byte-order independent.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical JSON form the hash is computed over: the spec with
/// `threads` (execution layout, not identity) pinned to 1.
pub fn canonical_spec_json(spec: &ScenarioSpec) -> String {
    let mut canon = spec.clone();
    canon.threads = 1;
    serde_json::to_string(&canon).expect("ScenarioSpec serializes")
}

/// Content hash of a spec — the serve cache key. Equal for specs that
/// differ only in `threads`; different whenever any identity field moves.
pub fn spec_hash(spec: &ScenarioSpec) -> SpecHash {
    SpecHash(fnv1a64(canonical_spec_json(spec).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FamilySpec, ScenarioSpec};
    use ncc_model::ModelSpec;

    #[test]
    fn hash_is_stable_across_clones_and_calls() {
        let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.25 }, 64, 7);
        assert_eq!(spec_hash(&spec), spec_hash(&spec.clone()));
    }

    #[test]
    fn threads_are_not_identity() {
        let spec = ScenarioSpec::new(FamilySpec::Forests { k: 3 }, 128, 42);
        let t4 = spec.clone().with_threads(4);
        assert_ne!(spec.threads, t4.threads);
        assert_eq!(spec_hash(&spec), spec_hash(&t4));
        assert_eq!(canonical_spec_json(&spec), canonical_spec_json(&t4));
    }

    #[test]
    fn identity_fields_all_move_the_hash() {
        let base = ScenarioSpec::new(FamilySpec::Gnp { p: 0.25 }, 64, 7);
        let variants = [
            base.clone().with_seed(8),
            base.clone().with_weight_max(17),
            base.clone().with_source(3),
            base.clone().with_model(ModelSpec::KMachine {
                k: 8,
                link_capacity: 1,
            }),
            ScenarioSpec::new(FamilySpec::Gnp { p: 0.26 }, 64, 7),
            ScenarioSpec::new(FamilySpec::Gnp { p: 0.25 }, 65, 7),
            ScenarioSpec::new(FamilySpec::Tree, 64, 7),
        ];
        let h0 = spec_hash(&base);
        for v in &variants {
            assert_ne!(spec_hash(v), h0, "variant {} must rehash", v.label());
        }
    }

    #[test]
    fn display_is_fixed_width_hex() {
        let h = SpecHash(0xabc);
        assert_eq!(h.to_string(), "0000000000000abc");
        assert_eq!(h.to_string().len(), 16);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // canonical FNV-1a test vectors
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
