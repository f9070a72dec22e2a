//! Integration tests for the unified scenario/runner API:
//!
//! * `ScenarioSpec` survives a JSON round-trip for arbitrary specs
//!   (property-based — families, capacities, seeds, thread counts);
//! * every registered algorithm runs on a small `G(n,p)` scenario and its
//!   correctness verdict holds;
//! * `RunRecord` JSON is byte-identical across thread counts (execution
//!   layout must never leak into results).

use ncc_model::{Capacity, Engine, ModelSpec};
use ncc_runner::{
    algorithms, explain_text, find_algorithm, run_checked, run_named, run_record,
    run_record_threads, standard_grid, FamilySpec, Preparation, RunnerError, ScenarioSpec, Verdict,
};
use proptest::prelude::*;

fn family_strategy() -> impl Strategy<Value = FamilySpec> {
    prop_oneof![
        Just(FamilySpec::Path),
        Just(FamilySpec::Cycle),
        Just(FamilySpec::Star),
        Just(FamilySpec::Complete),
        Just(FamilySpec::Tree),
        Just(FamilySpec::Provided),
        (1usize..16).prop_map(|k| FamilySpec::Forests { k }),
        (0.001f64..0.999).prop_map(|p| FamilySpec::Gnp { p }),
        (1usize..2000).prop_map(|m| FamilySpec::Gnm { m }),
        (1usize..8).prop_map(|m| FamilySpec::Ba { m }),
        (0.01f64..0.9).prop_map(|radius| FamilySpec::Geometric { radius }),
        (1usize..16).prop_map(|edge_factor| FamilySpec::Rmat { edge_factor }),
        (0.55f64..1.5, 0.0f64..2.0).prop_map(|(alpha, c)| FamilySpec::Hyperbolic { alpha, c }),
        (1usize..32, 1usize..32).prop_map(|(rows, cols)| FamilySpec::Grid { rows, cols }),
        (1usize..32, 1usize..32).prop_map(|(rows, cols)| FamilySpec::TGrid { rows, cols }),
    ]
}

fn capacity_strategy() -> impl Strategy<Value = Capacity> {
    prop_oneof![
        (2usize..1024, 1usize..16, 1u32..64)
            .prop_map(|(n, kappa, beta)| Capacity::log_scaled(n, kappa, beta)),
        (1usize..64, 1usize..64).prop_map(|(s, r)| Capacity::squeezed(s, r)),
        Just(Capacity::unbounded()),
    ]
}

fn model_strategy() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        Just(ModelSpec::Ncc),
        (1usize..64).prop_map(|edge_cap| ModelSpec::CongestedClique { edge_cap }),
        (1usize..32, 1u64..8)
            .prop_map(|(k, link_capacity)| ModelSpec::KMachine { k, link_capacity }),
        (1usize..16).prop_map(|local_edge_cap| ModelSpec::HybridLocal { local_edge_cap }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = ScenarioSpec> {
    (
        family_strategy(),
        1usize..512,
        any::<u64>(),
        1u64..1_000_000,
        capacity_strategy(),
        model_strategy(),
        1usize..9,
        0u32..512,
    )
        .prop_map(
            |(family, n, seed, weight_max, capacity, model, threads, source)| {
                let mut spec = ScenarioSpec::new(family, n, seed)
                    .with_weight_max(weight_max)
                    .with_capacity(capacity)
                    .with_model(model)
                    .with_threads(threads)
                    .with_source(source);
                // grids derive n from their sides, like ScenarioSpec::grid
                if let FamilySpec::Grid { rows, cols } | FamilySpec::TGrid { rows, cols } =
                    spec.family
                {
                    spec.n = rows * cols;
                }
                spec
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// The spec is pure data: JSON round-trips losslessly, for both the
    /// compact and pretty forms, and re-serialization is byte-stable.
    #[test]
    fn scenario_spec_json_round_trips(spec in spec_strategy()) {
        let compact = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&compact).unwrap();
        prop_assert_eq!(&back, &spec);
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), compact);

        let pretty = serde_json::to_string_pretty(&spec).unwrap();
        let back2: ScenarioSpec = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&back2, &spec);
    }

    /// Buildable specs rebuild the *same* graph every time.
    #[test]
    fn buildable_specs_rebuild_identically(spec in spec_strategy()) {
        if let (Ok(a), Ok(b)) = (spec.build(), spec.build()) {
            prop_assert_eq!(a.graph.n(), b.graph.n());
            prop_assert_eq!(a.graph.m(), b.graph.m());
        }
    }
}

/// Every registered algorithm completes on a small `G(n,p)` scenario and
/// no correctness checker rejects its output.
#[test]
fn registry_smoke_every_algorithm_runs_verified() {
    let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.3 }, 32, 5);
    for algo in algorithms() {
        let rec =
            run_named(algo.name(), &spec).unwrap_or_else(|e| panic!("{} failed: {e}", algo.name()));
        assert_eq!(rec.algorithm, algo.name());
        assert_eq!(rec.scenario, spec, "{} must echo the spec", algo.name());
        assert!(rec.rounds > 0, "{} reported zero rounds", algo.name());
        assert!(
            rec.verdict.ok(),
            "{} verdict failed: {}",
            algo.name(),
            rec.summary
        );
        // the six §3–§5 algorithms have real checkers — require Verified
        if !matches!(algo.name(), "gossip" | "broadcast") {
            assert_eq!(
                rec.verdict,
                Verdict::Verified,
                "{} should be checkable",
                algo.name()
            );
        }
    }
}

/// Every algorithm runs down one path, and the record shape that path
/// assembles is pinned: `explain` reports the very record the batch path
/// gives; the stage rows open with exactly the declared preparation; the
/// metrics end with the §5 prep/main split (only for algorithms that build
/// the trees), then the plan echo; and the split adds up to the total.
#[test]
fn one_run_path_assembles_every_record() {
    let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 32, 3);
    let scn = spec.build().unwrap();
    for algo in algorithms() {
        let name = algo.name();
        let rec = run_record(*algo, &spec).unwrap();
        let mut eng = scn.engine();
        let (_, explained) = explain_text(*algo, &mut eng, &scn).unwrap();
        assert_eq!(
            explained.to_json(),
            rec.to_json(),
            "{name}: explain ran differently"
        );

        let prep: &[&str] = match algo.preparation() {
            Preparation::None => &[],
            Preparation::Seed => &["seed-agreement"],
            Preparation::SeedAndTrees => &["seed-agreement", "orientation+trees"],
        };
        let labels: Vec<&str> = rec.report.stages.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels.len(), prep.len() + 1, "{name}: {labels:?}");
        assert_eq!(&labels[..prep.len()], prep, "{name}: stage rows");

        let keys: Vec<&str> = rec.metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys[..2], ["peak_active", "sum_active"], "{name}");
        let mut tail = Vec::new();
        let split = algo.preparation() == Preparation::SeedAndTrees;
        if split {
            tail.extend(["rounds_prep", "rounds_main"]);
            let (p, m) = (rec.metric("rounds_prep"), rec.metric("rounds_main"));
            assert_eq!(p.unwrap() + m.unwrap(), rec.rounds, "{name}: split");
        }
        if rec.metric("dag_stages").is_some() {
            tail.extend([
                "dag_stages",
                "dag_lane_stages",
                "dag_max_lanes",
                "dag_budget",
                "dag_splits",
            ]);
        }
        assert!(keys.ends_with(&tail), "{name}: metric order {keys:?}");
        assert_eq!(
            keys.contains(&"rounds_prep"),
            split,
            "{name}: rounds_prep is the §5 split only"
        );
    }
}

/// A one-node spec is outside every graph algorithm's domain: the runner
/// says so with a typed error naming the bound instead of letting the
/// algorithm assert; the three primitives that are defined there still run.
#[test]
fn one_node_spec_is_a_typed_error_for_graph_algorithms() {
    let spec = ScenarioSpec::new(FamilySpec::Path, 1, 5);
    for algo in algorithms() {
        let name = algo.name();
        match run_record_threads(find_algorithm(name).unwrap(), &spec, 1) {
            Ok(rec) => {
                assert!(
                    matches!(name, "gossip" | "broadcast" | "butterfly-aggregation"),
                    "{name} is not defined at n = 1"
                );
                assert!(rec.verdict.ok(), "{name}: {}", rec.summary);
            }
            Err(RunnerError::Scenario(msg)) => {
                assert!(msg.contains(&format!("`{name}` needs n ≥ 2")), "{msg}");
            }
            Err(e) => panic!("{name}: expected a scenario error, got {e}"),
        }
    }
}

/// The k-machine count is a client's number: one far past `n` runs in
/// memory bounded by the graph and the round's messages, and one past
/// `u32::MAX` (machine ids are `u32`) is a typed error before any graph
/// is built.
#[test]
fn huge_machine_counts_run_or_are_refused() {
    let km = |k| {
        ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 32, 3).with_model(ModelSpec::KMachine {
            k,
            link_capacity: 1,
        })
    };
    let bfs = find_algorithm("bfs").unwrap();
    let rec = run_record_threads(bfs, &km(100_000), 1).unwrap();
    assert!(rec.verdict.ok(), "{}", rec.summary);
    match run_record_threads(bfs, &km(u32::MAX as usize + 1), 1) {
        Err(RunnerError::Scenario(msg)) => assert!(msg.contains("k = 4294967296"), "{msg}"),
        other => panic!("expected a scenario error, got {other:?}"),
    }
}

/// The typed refusal of a family parameter outside its generator's
/// domain, naming the parameter: a scenario error, never the generator's
/// assert.
fn assert_family_refused(family: FamilySpec, n: usize, named: &str) {
    let spec = ScenarioSpec::new(family, n, 3);
    match run_record_threads(find_algorithm("mst").unwrap(), &spec, 1) {
        Err(RunnerError::Scenario(msg)) => assert!(msg.contains(named), "{msg}"),
        other => panic!("expected a scenario error naming {named}, got {other:?}"),
    }
}

/// A gnp `p` outside [0, 1], NaN included, is refused by name.
#[test]
fn gnp_refuses_a_probability_outside_the_unit_interval() {
    for p in [4.0, -0.5, f64::NAN] {
        assert_family_refused(FamilySpec::Gnp { p }, 16, "p = ");
    }
}

/// A node count or edge count outside a generator's domain is refused by
/// name: a cycle below three nodes, R-MAT and hyperbolic below two, more
/// gnm edges than pairs, and BA arrivals with `m` edges but fewer than
/// `m + 1` nodes.
#[test]
fn generators_refuse_a_size_outside_their_domain() {
    let cases = [
        (FamilySpec::Cycle, 2, "n = 2"),
        (FamilySpec::Rmat { edge_factor: 8 }, 1, "n = 1"),
        (
            FamilySpec::Hyperbolic {
                alpha: 0.75,
                c: 1.0,
            },
            1,
            "n = 1",
        ),
        (FamilySpec::Gnm { m: 2 }, 2, "m = 2"),
        (FamilySpec::Ba { m: 5 }, 3, "m = 5"),
    ];
    for (family, n, named) in cases {
        assert_family_refused(family, n, named);
    }
}

/// A hyperbolic `alpha ≤ 0` (or NaN) is refused by name.
#[test]
fn hyperbolic_refuses_a_non_positive_alpha() {
    for alpha in [-3.0, 0.0, f64::NAN] {
        assert_family_refused(FamilySpec::Hyperbolic { alpha, c: 0.0 }, 16, "alpha = ");
    }
}

/// A hyperbolic disk of radius `2 ln n + c ≤ 0` is refused by name: at
/// n = 16, `2 ln 16 ≈ 5.55`.
#[test]
fn hyperbolic_refuses_a_non_positive_disk_radius() {
    for c in [-5.6, -100.0, f64::NAN] {
        assert_family_refused(FamilySpec::Hyperbolic { alpha: 0.75, c }, 16, "c = ");
    }
}

/// MST refuses, before round 0, weights its FindMin messages cannot carry.
/// At n = 64 the default payload is 144 bits and the widest message, a
/// range multicast hop, is 7 + (32 + 6) bits plus two keys of
/// `bits(w) + 12` and `bits(w + 1) + 12` bits: `w = 2³⁷ − 1` fits in
/// exactly 144, `2³⁷` does not. Without a payload bound the keys
/// themselves must fit a `u64`.
#[test]
fn mst_admits_exactly_the_weights_its_messages_carry() {
    let mst = find_algorithm("mst").unwrap();
    let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 64, 3);
    let largest = (1u64 << 37) - 1;
    assert_eq!(
        ncc_core::mst::max_weight(64, spec.capacity.payload_bits),
        largest
    );
    assert_eq!(ncc_core::mst::max_weight(64, u32::MAX), (1 << 52) - 2);

    let rec = run_record(mst, &spec.clone().with_weight_max(largest)).unwrap();
    assert_eq!(rec.verdict, Verdict::Verified, "{}", rec.summary);

    let unbounded = spec
        .clone()
        .with_model(ModelSpec::CongestedClique { edge_cap: 4 });
    for bad in [
        spec.with_weight_max(largest + 1),
        unbounded.with_weight_max(u64::MAX),
    ] {
        let scn = bad.build().unwrap();
        let mut eng = scn.engine();
        match run_checked(mst, &mut eng, &scn) {
            Err(RunnerError::Scenario(msg)) => {
                assert!(msg.contains("weight_max"), "{msg}");
                assert!(msg.contains(&bad.weight_max.to_string()), "{msg}");
                let fits = ncc_core::mst::max_weight(64, bad.capacity.payload_bits);
                assert!(msg.contains(&fits.to_string()), "{msg}");
            }
            other => panic!("weight_max {} admitted: {other:?}", bad.weight_max),
        }
        assert_eq!(eng.global_round(), 0, "a rejected spec runs no round");
    }
}

/// Per stage row of an `explain` plan: its `dropped`, `max_in` and
/// `max_edge_load` columns.
fn stage_loads(plan: &str) -> Vec<[u64; 3]> {
    let rows = plan.lines().filter(|l| l.starts_with("  stage "));
    rows.map(|row| {
        let words: Vec<&str> = row.split_whitespace().collect();
        ["dropped", "max_in", "max_edge_load"].map(|col| {
            let at = words.iter().position(|w| *w == col);
            let value = at.unwrap_or_else(|| panic!("no `{col}` in {row:?}")) + 1;
            words[value].parse().unwrap()
        })
    })
    .collect()
}

/// A fault-free run's plan shows every stage's loads, and no drop.
#[test]
fn explain_prints_each_stage_s_loads() {
    let scn = ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 32, 3)
        .build()
        .unwrap();
    let bfs = find_algorithm("bfs").unwrap();
    let (plan, rec) = explain_text(bfs, &mut scn.engine(), &scn).unwrap();
    let loads = stage_loads(&plan.unwrap());
    assert!(!loads.is_empty());
    assert_eq!(rec.dropped, 0);
    assert!(loads.iter().all(|[dropped, ..]| *dropped == 0), "{loads:?}");
    assert!(loads.iter().any(|[_, max_in, _]| *max_in > 0), "{loads:?}");
}

/// The suite's hybrid apsp record drops 221 messages: the stage rows
/// account for every one of them.
#[test]
fn explain_locates_every_drop_of_the_hybrid_apsp_record() {
    let scn = ScenarioSpec::new(FamilySpec::Gnp { p: 0.375 }, 64, 20190622)
        .with_model(ModelSpec::HybridLocal { local_edge_cap: 8 })
        .build()
        .unwrap();
    let apsp = find_algorithm("apsp").unwrap();
    let (plan, rec) = explain_text(apsp, &mut scn.engine(), &scn).unwrap();
    let loads = stage_loads(&plan.unwrap());
    assert_eq!(rec.dropped, 221);
    assert_eq!(loads.iter().map(|[dropped, ..]| dropped).sum::<u64>(), 221);
}

/// At small weights FindMin's widest message is a sketch packet, and
/// `min_payload_bits` sizes it exactly: at the minimum the run is
/// verified; one bit below it the spec is refused before round 0, and
/// run past admission it would have failed.
#[test]
fn mst_admits_exactly_the_payloads_its_sketches_fit() {
    let mst = find_algorithm("mst").unwrap();
    for n in [16, 32, 64] {
        let need = ncc_core::mst::min_payload_bits(n);
        let spec = |payload_bits| {
            let capacity = Capacity {
                payload_bits,
                ..Capacity::default_for(n)
            };
            ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, n, 3)
                .with_weight_max(1)
                .with_capacity(capacity)
        };
        let rec = run_record(mst, &spec(need)).unwrap();
        assert_eq!(rec.verdict, Verdict::Verified, "n = {n}: {}", rec.summary);

        let scn = spec(need - 1).build().unwrap();
        let mut eng = scn.engine();
        match run_checked(mst, &mut eng, &scn) {
            Err(RunnerError::Scenario(msg)) => {
                assert!(msg.contains(&format!("payload_bits ≥ {need}")), "{msg}")
            }
            other => panic!("n = {n}: payload_bits {} admitted: {other:?}", need - 1),
        }
        assert_eq!(eng.global_round(), 0, "a rejected spec runs no round");
        let past_admission = mst.run(&mut eng, &scn);
        assert!(past_admission.is_err(), "n = {n}: ran in {} bits", need - 1);
    }
}

/// Every algorithm that agrees on a seed refuses a payload its widest
/// seed chunk does not fit in, before round 0: at n = 64 a 60-bit
/// payload once ran into `node 0 sent a 65-bit payload in round 1`. At
/// the floor the seed agreement itself runs.
#[test]
fn seeded_algorithms_admit_only_payloads_the_seed_chunks_fit() {
    for n in [16, 64, 1024] {
        let need = ncc_core::prepare::min_payload_bits(n);
        let spec = |payload_bits| {
            let capacity = Capacity {
                payload_bits,
                ..Capacity::default_for(n)
            };
            ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, n, 3).with_capacity(capacity)
        };
        let scn = spec(need - 1).build().unwrap();
        // an algorithm whose own floor lies above the seed's (`mst`, and
        // `mis` and `matching` at some n) names that floor instead: see
        // `every_seeded_algorithm_runs_at_its_admitted_floor`
        for algo in algorithms() {
            if algo.preparation() == Preparation::None || algo.admits(&spec(need)).is_err() {
                continue;
            }
            let mut eng = scn.engine();
            match run_checked(*algo, &mut eng, &scn) {
                Err(RunnerError::Scenario(msg)) => {
                    let named = [format!("≥ {need}"), format!("= {}", need - 1)];
                    assert!(named.iter().all(|s| msg.contains(s)), "{msg}");
                    assert!(msg.contains("payload_bits"), "{msg}");
                }
                other => panic!(
                    "{} at n = {n}: {} bits admitted: {other:?}",
                    algo.name(),
                    need - 1
                ),
            }
            assert_eq!(eng.global_round(), 0, "a rejected spec runs no round");
        }
        let scn = spec(need).build().unwrap();
        assert!(
            ncc_core::prepare(&mut scn.engine(), 3, None).is_ok(),
            "n = {n}"
        );
    }
}

/// Admission is exact for every algorithm that agrees on a seed: at the
/// smallest payload it admits, the run ends in a verified record (`mis`
/// and `matching` were once admitted at the seed's floor and then sent
/// wider draws and ranked picks); one bit below, the spec is refused
/// before round 0.
#[test]
fn every_seeded_algorithm_runs_at_its_admitted_floor() {
    for n in [16, 64, 256] {
        let spec = |payload_bits| {
            let capacity = Capacity {
                payload_bits,
                ..Capacity::default_for(n)
            };
            ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, n, 3)
                .with_weight_max(16)
                .with_capacity(capacity)
        };
        for algo in algorithms() {
            if algo.preparation() == Preparation::None {
                continue;
            }
            let name = algo.name();
            let floor = (1..=256)
                .find(|&bits| algo.admits(&spec(bits)).is_ok())
                .unwrap_or_else(|| panic!("{name} at n = {n} admits no payload up to 256 bits"));
            let rec = run_record(*algo, &spec(floor))
                .unwrap_or_else(|e| panic!("{name} at n = {n}, {floor} bits: {e}"));
            assert_eq!(
                rec.verdict,
                Verdict::Verified,
                "{name} at n = {n}: {}",
                rec.summary
            );

            let scn = spec(floor - 1).build().unwrap();
            let mut eng = scn.engine();
            match run_checked(*algo, &mut eng, &scn) {
                Err(RunnerError::Scenario(msg)) => {
                    assert!(msg.contains(&format!("payload_bits ≥ {floor}")), "{msg}")
                }
                other => panic!("{name} at n = {n}: {} bits admitted: {other:?}", floor - 1),
            }
            assert_eq!(eng.global_round(), 0, "a rejected spec runs no round");
        }
    }
}

/// Gossip and broadcast schedule `min(send, recv, n)` messages per node per
/// round. A capacity that makes that 0 is refused before round 0: gossip
/// would spin to the engine's round limit, broadcast would inform nobody.
/// At one message a round both finish in exactly `n` rounds with nothing
/// lost, and a one-node spec needs no capacity at all.
#[test]
fn dissemination_admits_only_a_capacity_that_makes_progress() {
    let n = 64;
    let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, n, 3);
    for (name, messages) in [("gossip", n * (n - 1)), ("broadcast", n - 1)] {
        let algo = find_algorithm(name).unwrap();
        for (send, recv) in [(0, 8), (8, 0)] {
            let scn = spec
                .clone()
                .with_capacity(Capacity::squeezed(send, recv))
                .build()
                .unwrap();
            let mut eng = scn.engine();
            match run_checked(algo, &mut eng, &scn) {
                Err(RunnerError::Scenario(msg)) => {
                    assert!(msg.contains(&format!("send = {send}")), "{msg}");
                    assert!(msg.contains(&format!("recv = {recv}")), "{msg}");
                }
                other => panic!("{name} admitted send = {send}, recv = {recv}: {other:?}"),
            }
            assert_eq!(eng.global_round(), 0, "a rejected spec runs no round");
        }

        let one = spec.clone().with_capacity(Capacity::squeezed(1, 1));
        let total = run_record(algo, &one).unwrap().report.total;
        assert_eq!(
            total.rounds, n as u64,
            "{name}: rounds at one message a round"
        );
        assert_eq!(total.sent, messages as u64, "{name}: messages");
        assert_eq!(total.delivered, total.sent, "{name}: nothing lost");

        let single =
            ScenarioSpec::new(FamilySpec::Path, 1, 3).with_capacity(Capacity::squeezed(0, 0));
        let rec = run_record(algo, &single).unwrap_or_else(|e| panic!("{name} at n = 1: {e}"));
        assert!(rec.verdict.ok(), "{name} at n = 1: {}", rec.summary);
    }
}

/// Execution layout must never leak into results: the full RunRecord JSON
/// (scenario echo, stages, counters) is byte-identical whether the engine
/// steps sequentially or with 4 worker threads. `n` is chosen above the
/// engine's parallel threshold (128 active nodes) so threads really engage.
#[test]
fn run_record_json_identical_across_thread_counts() {
    let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.08 }, 160, 11);
    for name in ["bfs", "butterfly-aggregation"] {
        let seq = run_record_threads(find_algorithm(name).unwrap(), &spec, 1).unwrap();
        let par = run_record_threads(find_algorithm(name).unwrap(), &spec, 4).unwrap();
        assert_eq!(
            seq.to_json(),
            par.to_json(),
            "{name}: records diverged across thread counts"
        );
        assert_eq!(seq.to_json_pretty(), par.to_json_pretty());
    }
}

/// The registry lookup and the trait objects agree on names.
#[test]
fn find_algorithm_round_trips_names() {
    for algo in algorithms() {
        let found = find_algorithm(algo.name()).expect("registered name resolves");
        assert_eq!(found.name(), algo.name());
    }
}

/// Byte-identity oracle for the model refactor: on every Ncc cell of the
/// standard suite grid, the model-dispatched runner path produces exactly
/// the record an engine built the pre-refactor way (`Engine::new` on the
/// spec's `NetConfig`, no explicit model) produces. The Ncc model is the
/// default, so any divergence here means the pluggable-model layer leaked
/// into NCC semantics.
#[test]
fn ncc_suite_grid_identical_to_legacy_engine_construction() {
    for spec in standard_grid()
        .into_iter()
        .filter(|s| s.model == ModelSpec::Ncc)
    {
        let scn = spec.build().expect("buildable spec");
        for name in ["bfs", "gossip", "butterfly-aggregation"] {
            let algo = find_algorithm(name).unwrap();
            let via_runner = run_named(name, &spec).unwrap();
            let mut legacy_engine = Engine::new(spec.net_config());
            let via_legacy = algo.run(&mut legacy_engine, &scn).unwrap();
            assert_eq!(
                via_runner.to_json(),
                via_legacy.to_json(),
                "{name} on {} diverged from the pre-refactor engine path",
                spec.label()
            );
        }
    }
}

/// Model scenarios stay deterministic across thread counts too: the full
/// RunRecord JSON (km_rounds, edge loads, drops) is byte-identical for 1
/// and 4 workers under every execution model.
#[test]
fn model_records_identical_across_thread_counts() {
    let base = ScenarioSpec::new(FamilySpec::Gnp { p: 0.08 }, 160, 11);
    for model in [
        ModelSpec::CongestedClique { edge_cap: 4 },
        ModelSpec::KMachine {
            k: 8,
            link_capacity: 1,
        },
        ModelSpec::HybridLocal { local_edge_cap: 2 },
    ] {
        let spec = base.clone().with_model(model);
        for name in ["bfs", "gossip"] {
            let seq = run_record_threads(find_algorithm(name).unwrap(), &spec, 1).unwrap();
            let par = run_record_threads(find_algorithm(name).unwrap(), &spec, 4).unwrap();
            assert_eq!(
                seq.to_json(),
                par.to_json(),
                "{name} under {} diverged across thread counts",
                model.name()
            );
        }
    }
}

/// The scenario echo carries the model, and model-specific counters land
/// in the record: km_rounds under KMachine, max_edge_load under the
/// pairwise-budget models.
#[test]
fn model_counters_surface_in_records() {
    let base = ScenarioSpec::new(FamilySpec::Gnp { p: 0.1 }, 64, 3);
    let km = run_named(
        "bfs",
        &base.clone().with_model(ModelSpec::KMachine {
            k: 4,
            link_capacity: 1,
        }),
    )
    .unwrap();
    assert!(
        km.km_rounds >= km.rounds,
        "every round charges ≥ 1 km round"
    );
    assert_eq!(km.scenario.model.name(), "kmachine");

    let cc = run_named(
        "gossip",
        &base
            .clone()
            .with_model(ModelSpec::CongestedClique { edge_cap: 8 }),
    )
    .unwrap();
    assert_eq!(cc.km_rounds, 0);
    assert!(cc.report.total.max_edge_load >= 1);
    assert_eq!(cc.scenario.capacity, Capacity::unbounded());

    let ncc = run_named("gossip", &base).unwrap();
    assert_eq!(ncc.report.total.max_edge_load, 0, "ncc measures no edges");
}
