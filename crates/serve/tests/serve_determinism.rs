//! The serve layer's load-bearing property: residency must be invisible in
//! results.
//!
//! * **Cache-hit byte-identity** — for arbitrary buildable specs and for
//!   engine thread counts 1 and 4, the record served from a warm cache
//!   (and a reset resident engine) is byte-for-byte the record a cold
//!   build produces, and byte-for-byte what the batch `run_record` path
//!   produces.
//! * **Eviction round-trip** — evicting an artifact and rebuilding it
//!   yields the same record again (the cache holds no state that matters).

use ncc_runner::{find_algorithm, run_record_threads, FamilySpec, ScenarioSpec};
use ncc_serve::{Coordinator, EngineSlots, Request, Response, ServeConfig};
use proptest::prelude::*;

fn family_strategy() -> impl Strategy<Value = FamilySpec> {
    // Buildable families only (no `Provided`), kept small for test speed.
    prop_oneof![
        Just(FamilySpec::Path),
        Just(FamilySpec::Cycle),
        Just(FamilySpec::Star),
        Just(FamilySpec::Tree),
        (1usize..4).prop_map(|k| FamilySpec::Forests { k }),
        (0.05f64..0.5).prop_map(|p| FamilySpec::Gnp { p }),
        (8usize..64).prop_map(|m| FamilySpec::Gnm { m }),
        (1usize..4).prop_map(|m| FamilySpec::Ba { m }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (family_strategy(), 16usize..40, 0u64..1_000)
        .prop_map(|(family, n, seed)| ScenarioSpec::new(family, n, seed))
}

/// Algorithms cheap enough to property-test; mix of weighted (mst),
/// rooted (bfs) and dissemination (broadcast) pipelines.
fn algo_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("broadcast"), Just("bfs"), Just("mst")]
}

fn run_line(id: u64, algorithm: &str, spec: &ScenarioSpec) -> String {
    serde_json::to_string(&Request::Run {
        id,
        algorithm: algorithm.into(),
        spec: spec.clone(),
    })
    .unwrap()
}

fn record_json(resp: Response) -> (bool, String) {
    match resp {
        Response::Record {
            cache_hit, record, ..
        } => (cache_hit, record.to_json()),
        other => panic!("expected record, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Cold build, then cache hit with a resident engine — both paths must
    /// produce byte-identical records, and they must equal the batch
    /// path's record.
    #[test]
    fn cache_hit_records_are_byte_identical(
        spec in spec_strategy(),
        algo in algo_strategy(),
    ) {
        let batch = run_record_threads(find_algorithm(algo).unwrap(), &spec, 1)
            .unwrap()
            .to_json();
        let coord = Coordinator::new(ServeConfig::with_thread_budget(1));
        let mut slots = EngineSlots::new(4);
        let line = run_line(1, algo, &spec);
        let (hit_cold, cold) = record_json(coord.handle_line(&line, &mut slots).unwrap());
        let (hit_warm, warm) = record_json(coord.handle_line(&line, &mut slots).unwrap());
        prop_assert!(!hit_cold);
        prop_assert!(hit_warm);
        prop_assert_eq!(&cold, &warm, "resident engine must replay exactly");
        prop_assert_eq!(&cold, &batch, "served record must equal batch record");
        prop_assert_eq!(coord.stats().engine_reuses, 1);
    }

    /// Evict an artifact by cycling the cache past capacity, then request
    /// the original spec again: the rebuilt artifact serves the same
    /// record, and the eviction is visible only in the counters.
    #[test]
    fn eviction_then_rebuild_round_trips(
        spec in spec_strategy(),
        filler_seed in 10_000u64..20_000,
    ) {
        let cfg = ServeConfig::with_thread_budget(1).with_cache_capacity(1);
        let coord = Coordinator::new(cfg);
        let mut slots = EngineSlots::new(4);
        let line = run_line(1, "broadcast", &spec);
        let (_, first) = record_json(coord.handle_line(&line, &mut slots).unwrap());
        // Capacity-1 cache: this run evicts the original artifact.
        let filler = ScenarioSpec::new(FamilySpec::Star, 16, filler_seed);
        coord.handle_line(&run_line(2, "broadcast", &filler), &mut slots).unwrap();
        let (hit, rebuilt) = record_json(coord.handle_line(&line, &mut slots).unwrap());
        prop_assert!(!hit, "post-eviction lookup must rebuild");
        prop_assert_eq!(first, rebuilt);
        prop_assert!(coord.stats().cache.evictions >= 1);
    }
}
