//! The content-addressed build cache: one built [`Scenario`] artifact per
//! canonical spec hash, with LRU eviction and hit/miss/eviction counters.
//!
//! Building a scenario — generating the graph, seeding the edge weights —
//! is the expensive, request-independent part of every run; the engine and
//! the algorithm execution are cheap by comparison and stay per-request.
//! The cache keys artifacts by [`spec_hash`] (the stable FNV-1a hash of
//! the spec's canonical JSON form, `threads` excluded) and stores the
//! canonical JSON alongside each artifact, so a hash collision can never
//! silently alias two different scenarios: on lookup the stored canonical
//! form is compared and a mismatch is handled as a miss that overwrites
//! the colliding entry.
//!
//! Concurrency: lookups and insertions take one short mutex; the build
//! itself runs *outside* the lock, so a slow cold build never serializes
//! the whole worker pool. Two workers missing on the same spec at the same
//! instant may both build — the artifacts are deterministic and identical,
//! the first insert wins, and both requests proceed; the wasted build is a
//! startup transient, not a correctness concern.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use ncc_runner::{canonical_spec_json, spec_hash, RunnerError, Scenario, ScenarioSpec, SpecHash};
use serde::{Deserialize, Serialize};

/// Counter snapshot of a [`BuildCache`] — part of the serve protocol's
/// `Stats` response and of `BENCH_serve.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Artifacts currently resident.
    pub entries: u64,
    /// Maximum resident artifacts before LRU eviction.
    pub capacity: u64,
    /// Lookups served from a resident artifact.
    pub hits: u64,
    /// Lookups that had to build (first sight, post-eviction, collision).
    pub misses: u64,
    /// Artifacts evicted to make room.
    pub evictions: u64,
}

struct Entry {
    /// Canonical JSON of the spec this artifact was built from — the
    /// collision guard (compared on every hit).
    canonical: String,
    scenario: Arc<Scenario>,
    /// Monotonic recency stamp; smallest = least recently used.
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Thread-safe content-addressed LRU cache of built scenarios.
pub struct BuildCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl BuildCache {
    /// A cache holding at most `capacity` built scenarios (floor 1).
    pub fn new(capacity: usize) -> Self {
        BuildCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The artifact for `spec`, building (and caching) it on a miss.
    /// Returns the shared artifact and whether this lookup was a cache
    /// hit. Unbuildable specs (`Provided` family, bad grid dimensions)
    /// return the runner's error and leave the cache untouched.
    pub fn get_or_build(&self, spec: &ScenarioSpec) -> Result<(Arc<Scenario>, bool), RunnerError> {
        let key = spec_hash(spec);
        let canonical = canonical_spec_json(spec);

        {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            let tick = {
                inner.tick += 1;
                inner.tick
            };
            let hit = match inner.map.get_mut(&key.0) {
                Some(e) if e.canonical == canonical => {
                    e.last_used = tick;
                    Some(e.scenario.clone())
                }
                // 64-bit collision between distinct canonical forms: treat
                // as a miss; the build below overwrites the stale entry.
                _ => None,
            };
            if let Some(scenario) = hit {
                inner.hits += 1;
                return Ok((scenario, true));
            }
            inner.misses += 1;
        }

        // Build outside the lock: cold builds are the expensive path and
        // must not serialize concurrent workers.
        let scenario = Arc::new(spec.build()?);

        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        // A racing worker may have inserted while we built; its artifact
        // is byte-identical (deterministic build), keep whichever is in.
        if let Some(e) = inner.map.get_mut(&key.0) {
            if e.canonical == canonical {
                e.last_used = tick;
                return Ok((e.scenario.clone(), false));
            }
            e.canonical = canonical;
            e.scenario = scenario.clone();
            e.last_used = tick;
            return Ok((scenario, false));
        }
        if inner.map.len() >= self.capacity {
            if let Some(&lru) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                inner.map.remove(&lru);
                inner.evictions += 1;
            }
        }
        inner.map.insert(
            key.0,
            Entry {
                canonical,
                scenario: scenario.clone(),
                last_used: tick,
            },
        );
        Ok((scenario, false))
    }

    /// Whether an artifact for `spec` is currently resident (test hook;
    /// does not touch recency or counters).
    pub fn contains(&self, spec: &ScenarioSpec) -> bool {
        let key = spec_hash(spec);
        let canonical = canonical_spec_json(spec);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner
            .map
            .get(&key.0)
            .is_some_and(|e| e.canonical == canonical)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            entries: inner.map.len() as u64,
            capacity: self.capacity as u64,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }

    /// The hash an artifact for `spec` is addressed by.
    pub fn key_of(spec: &ScenarioSpec) -> SpecHash {
        spec_hash(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_runner::FamilySpec;

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 32, seed)
    }

    #[test]
    fn miss_then_hit_shares_one_artifact() {
        let cache = BuildCache::new(4);
        let (a, hit_a) = cache.get_or_build(&spec(1)).unwrap();
        let (b, hit_b) = cache.get_or_build(&spec(1)).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the resident artifact");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn threads_do_not_split_the_cache() {
        let cache = BuildCache::new(4);
        let (_, h1) = cache.get_or_build(&spec(1)).unwrap();
        let (_, h2) = cache.get_or_build(&spec(1).with_threads(4)).unwrap();
        assert!(!h1);
        assert!(h2, "threads are execution layout, not cache identity");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = BuildCache::new(2);
        cache.get_or_build(&spec(1)).unwrap();
        cache.get_or_build(&spec(2)).unwrap();
        cache.get_or_build(&spec(1)).unwrap(); // refresh 1 → 2 is LRU
        cache.get_or_build(&spec(3)).unwrap(); // evicts 2
        assert!(cache.contains(&spec(1)));
        assert!(!cache.contains(&spec(2)));
        assert!(cache.contains(&spec(3)));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn eviction_then_rebuild_round_trips() {
        let cache = BuildCache::new(1);
        let (a, _) = cache.get_or_build(&spec(1)).unwrap();
        cache.get_or_build(&spec(2)).unwrap(); // evicts spec(1)
        let (b, hit) = cache.get_or_build(&spec(1)).unwrap(); // rebuild
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a, &b));
        // the rebuilt artifact is byte-identical in content
        assert_eq!(a.graph.n(), b.graph.n());
        assert_eq!(
            a.graph.edges().collect::<Vec<_>>(),
            b.graph.edges().collect::<Vec<_>>()
        );
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn unbuildable_specs_error_and_leave_no_entry() {
        let cache = BuildCache::new(4);
        let bad = ScenarioSpec::new(FamilySpec::Provided, 8, 1);
        assert!(cache.get_or_build(&bad).is_err());
        let s = cache.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.misses, 1);
    }

    /// A worker that panics while holding the lock poisons it; the
    /// counters it guards are still consistent, so the cache serves on.
    #[test]
    fn a_poisoned_lock_still_serves() {
        let cache = BuildCache::new(4);
        cache.get_or_build(&spec(1)).unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("worker panics holding the cache lock");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(cache.inner.is_poisoned());
        let (_, hit) = cache.get_or_build(&spec(1)).unwrap();
        assert!(hit);
        assert!(!cache.get_or_build(&spec(2)).unwrap().1);
        assert!(cache.contains(&spec(2)));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
    }
}
