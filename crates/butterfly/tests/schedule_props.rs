//! Property tests for the DAG scheduler: declaring an antichain of
//! primitives as a [`Dag`] and letting the scheduler pack it must be
//! equivalent to hand-fusing the same lanes ([`common::run_fused`]) —
//! across thread counts and capacity regimes — and a lane budget narrower
//! than the antichain must split it into sequential stages without
//! changing any output. An A&B that depends on a barriered stage runs in
//! that stage's barrier slot: one barrier cheaper, same outputs. An
//! aggregation's delivery ends on the clock: padded to its bound, or its
//! pad carried by a dependent A&B.

mod common;

use ncc_butterfly::{
    ab_sub, aggregate_and_broadcast, aggregation_sub, multicast_setup_sub, run_alone, sync_barrier,
    AggregationSpec, Dag, GroupId, LaneSub, MaxU64, MulticastTrees, Owed, SumU64,
};
use ncc_hashing::{FxHashMap, SharedRandomness};
use ncc_model::{Capacity, Engine, NetConfig, NodeId};
use proptest::prelude::*;

fn engine(n: usize, seed: u64, threads: usize, unbounded: bool) -> Engine {
    let mut cfg = NetConfig::new(n, seed).with_threads(threads);
    if unbounded {
        cfg = cfg.with_capacity(Capacity::unbounded());
    }
    Engine::new(cfg)
}

fn sorted<V: Ord>(mut v: Vec<V>) -> Vec<V> {
    v.sort();
    v
}

/// Group `(t + sub) mod n` collects `u` from node `u` — a different
/// membership pattern per lane, seeded entirely by `(n, sub)`.
fn make_spec(n: usize, sub: u32) -> AggregationSpec<u64> {
    AggregationSpec {
        memberships: (0..n)
            .map(|u| vec![(GroupId::new((u as u32 + sub) % n as u32, sub), u as u64)])
            .collect(),
        ell2_hat: 1,
    }
}

/// Node `u` joins the group of node `u + 1` under `tag`.
fn ring_joins(n: usize, tag: u32) -> Vec<Vec<(GroupId, NodeId)>> {
    (0..n as u32)
        .map(|u| vec![(GroupId::new((u + 1) % n as u32, tag), u)])
        .collect()
}

/// The level-0 leaf sets of a multicast forest, per column.
type Leaves = Vec<FxHashMap<u64, Vec<NodeId>>>;

/// Per node that emulates a column, the number of trees with a leaf there.
fn leaf_counts(n: usize, trees: &MulticastTrees) -> Vec<Option<u64>> {
    (0..n)
        .map(|u| trees.leaves.get(u).map(|l| l.len() as u64))
        .collect()
}

fn ab_inputs(n: usize, seed: u64) -> Vec<Option<u64>> {
    (0..n as u64)
        .map(|u| Some(u.wrapping_mul(0x9E37_79B9) ^ seed))
        .collect()
}

/// Hand-fused baseline: all lanes installed into one
/// [`common::run_fused`] group. Returns (per-lane sorted deliveries, A&B
/// results, rounds).
type Deliveries = Vec<Vec<Vec<(GroupId, u64)>>>;

fn run_hand_fused(
    n: usize,
    seed: u64,
    threads: usize,
    unbounded: bool,
    k: usize,
) -> (Deliveries, Vec<Option<u64>>, u64) {
    let shared = SharedRandomness::new(seed ^ 0xF00D);
    let mut eng = engine(n, seed, threads, unbounded);
    let mut lanes: Vec<_> = (0..k as u32)
        .map(|sub| aggregation_sub(n, &shared, make_spec(n, sub), &SumU64, 40 + sub as u64))
        .collect();
    let mut ab = ab_sub(n, ab_inputs(n, seed), &MaxU64);
    let stats = {
        let mut refs: Vec<&mut dyn LaneSub> =
            lanes.iter_mut().map(|l| l as &mut dyn LaneSub).collect();
        refs.push(&mut ab);
        common::run_fused(&mut eng, &mut refs).stats
    };
    let deliveries = lanes
        .into_iter()
        .map(|l| l.into_results().into_iter().map(sorted).collect())
        .collect();
    (deliveries, ab.into_results(), stats.rounds)
}

/// The same lanes declared as a dependency-free [`Dag`] antichain, packed
/// by the scheduler under `budget` (`None` = the default budget).
fn run_dag(
    n: usize,
    seed: u64,
    threads: usize,
    unbounded: bool,
    k: usize,
    budget: Option<usize>,
) -> (
    Deliveries,
    Vec<Option<u64>>,
    u64,
    ncc_butterfly::SchedReport,
) {
    let shared = SharedRandomness::new(seed ^ 0xF00D);
    let mut eng = engine(n, seed, threads, unbounded);
    let mut dag = Dag::new();
    let aggs: Vec<_> = (0..k as u32)
        .map(|sub| {
            let shared = &shared;
            dag.proto(
                format!("agg{sub}"),
                &[],
                move |_| aggregation_sub(n, shared, make_spec(n, sub), &SumU64, 40 + sub as u64),
                |s| s.into_results(),
            )
        })
        .collect();
    let inputs = ab_inputs(n, seed);
    let ab = dag.proto(
        "ab",
        &[],
        move |_| ab_sub(n, inputs, &MaxU64),
        |s| s.into_results(),
    );
    let mut run = match budget {
        Some(b) => dag.run_budgeted(&mut eng, b).unwrap(),
        None => dag.run(&mut eng).unwrap(),
    };
    let deliveries = aggs
        .into_iter()
        .map(|h| run.outputs.take(h).into_iter().map(sorted).collect())
        .collect();
    (
        deliveries,
        run.outputs.take(ab),
        run.stats.rounds,
        run.report,
    )
}

/// One aggregation's sorted deliveries, per node.
type LaneDeliveries = Vec<Vec<(GroupId, u64)>>;

/// Per node, the sum of the values delivered to it (`None` if nothing
/// was): the node-local step between an aggregation and its consensus.
fn delivered_sums(deliveries: &[Vec<(GroupId, u64)>]) -> Vec<Option<u64>> {
    deliveries
        .iter()
        .map(|d| d.iter().map(|(_, v)| *v).reduce(|a, b| a + b))
        .collect()
}

/// Aggregation → compute → dependent A&B, one primitive at a time:
/// [`run_alone`] on the aggregation (a barrier after its combine, a pad
/// after its delivery), then [`aggregate_and_broadcast`] on its per-node
/// sums. Returns (sorted deliveries, A&B results, rounds).
fn run_chain_sequential(
    n: usize,
    seed: u64,
    unbounded: bool,
) -> (LaneDeliveries, Vec<Option<u64>>, u64) {
    let shared = SharedRandomness::new(seed ^ 0xF00D);
    let mut eng = engine(n, seed, 1, unbounded);
    let agg = aggregation_sub(n, &shared, make_spec(n, 0), &SumU64, 40);
    let (deliveries, agg_stats) = run_alone(&mut eng, agg, |s| s.into_results()).unwrap();
    let deliveries: Vec<_> = deliveries.into_iter().map(sorted).collect();
    let (ab, ab_stats) =
        aggregate_and_broadcast(&mut eng, delivered_sums(&deliveries), &SumU64).unwrap();
    (deliveries, ab, agg_stats.rounds + ab_stats.rounds)
}

/// The same chain declared as a [`Dag`]: the A&B carries the pad of the
/// aggregation's delivery.
fn run_chain_dag(
    n: usize,
    seed: u64,
    threads: usize,
    unbounded: bool,
) -> (
    LaneDeliveries,
    Vec<Option<u64>>,
    u64,
    ncc_butterfly::SchedReport,
) {
    let shared = SharedRandomness::new(seed ^ 0xF00D);
    let mut eng = engine(n, seed, threads, unbounded);
    let mut dag = Dag::new();
    let shared = &shared;
    let agg = dag.proto(
        "agg",
        &[],
        move |_| aggregation_sub(n, shared, make_spec(n, 0), &SumU64, 40),
        |s| s.into_results(),
    );
    let sums = dag.compute("sums", &[agg.into()], move |d| {
        delivered_sums(d.get(agg).as_slice())
    });
    let ab = dag.proto(
        "total",
        &[sums.into()],
        move |d| ab_sub(n, d.get(sums).clone(), &SumU64),
        |s| s.into_results(),
    );
    let mut run = dag.run(&mut eng).unwrap();
    let deliveries = run.outputs.take(agg).into_iter().map(sorted).collect();
    (
        deliveries,
        run.outputs.take(ab),
        run.stats.rounds,
        run.report,
    )
}

/// Tree setup → dependent tree setup → compute → dependent A&B, one
/// primitive at a time: [`run_alone`] on each setup (a barrier after
/// each), then [`aggregate_and_broadcast`] on the second forest's
/// per-column leaf counts. Returns (second forest's leaves, A&B results,
/// rounds).
fn run_setup_chain_sequential(
    n: usize,
    seed: u64,
    unbounded: bool,
) -> (Leaves, Vec<Option<u64>>, u64) {
    let shared = SharedRandomness::new(seed ^ 0xF00D);
    let mut eng = engine(n, seed, 1, unbounded);
    let mut rounds = 0;
    let mut trees = None;
    for tag in [1, 2] {
        let setup = multicast_setup_sub(n, &shared, ring_joins(n, tag), 40 + tag as u64);
        let (forest, stats) = run_alone(&mut eng, setup, |s| s.into_results()).unwrap();
        rounds += stats.rounds;
        trees = Some(forest);
    }
    let trees = trees.unwrap();
    let (ab, ab_stats) =
        aggregate_and_broadcast(&mut eng, leaf_counts(n, &trees), &SumU64).unwrap();
    (trees.leaves, ab, rounds + ab_stats.rounds)
}

/// The same chain declared as a [`Dag`]: the A&B carries the barrier of
/// the second setup.
fn run_setup_chain_dag(
    n: usize,
    seed: u64,
    threads: usize,
    unbounded: bool,
) -> (Leaves, Vec<Option<u64>>, u64, ncc_butterfly::SchedReport) {
    let shared = SharedRandomness::new(seed ^ 0xF00D);
    let mut eng = engine(n, seed, threads, unbounded);
    let mut dag = Dag::new();
    let shared = &shared;
    let first = dag.proto(
        "trees1",
        &[],
        move |_| multicast_setup_sub(n, shared, ring_joins(n, 1), 41),
        |s| s.into_results(),
    );
    let second = dag.proto(
        "trees2",
        &[first.into()],
        move |_| multicast_setup_sub(n, shared, ring_joins(n, 2), 42),
        |s| s.into_results(),
    );
    let counts = dag.compute("counts", &[second.into()], move |d| {
        leaf_counts(n, d.get(second))
    });
    let ab = dag.proto(
        "total",
        &[counts.into()],
        move |d| ab_sub(n, d.get(counts).clone(), &SumU64),
        |s| s.into_results(),
    );
    let mut run = dag.run(&mut eng).unwrap();
    let leaves = run.outputs.take(second).leaves;
    (leaves, run.outputs.take(ab), run.stats.rounds, run.report)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Scheduler-packed == hand-fused, bit-exactly: same deliveries, same
    /// A&B results, same round count — under every (threads, caps) cell.
    /// Tight caps make this a strong claim: drop decisions are keyed on
    /// the engine's global round, so equality requires the scheduler to
    /// reproduce the fused path's exact execution sequence.
    #[test]
    fn dag_antichain_matches_hand_fused(
        n in 16usize..48,
        k in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let mut reference = None;
        for threads in [1usize, 4] {
            for unbounded in [false, true] {
                let fused = run_hand_fused(n, seed, threads, unbounded, k);
                let (deliveries, ab, rounds, report) =
                    run_dag(n, seed, threads, unbounded, k, None);
                prop_assert_eq!(&deliveries, &fused.0, "deliveries diverge");
                prop_assert_eq!(&ab, &fused.1, "A&B results diverge");
                prop_assert_eq!(rounds, fused.2, "round counts diverge");
                prop_assert_eq!(report.splits(), 0, "antichain fits the default budget");
                // threads are an execution-layout knob: results must be
                // identical across thread counts (per capacity regime)
                match &reference {
                    None => reference = Some((deliveries, ab)),
                    Some((d, a)) if !unbounded => {
                        prop_assert_eq!(&deliveries, d, "thread count changed results");
                        prop_assert_eq!(&ab, a, "thread count changed A&B results");
                    }
                    Some(_) => {}
                }
            }
        }
    }

    /// An antichain wider than the lane budget must be split into
    /// sequential stages — and still produce the fused outputs. Unbounded
    /// caps keep outputs packing-independent (no drops), which is what
    /// makes the comparison well-defined across different stage counts.
    #[test]
    fn over_budget_antichain_splits_without_changing_outputs(
        n in 16usize..48,
        k in 3usize..6,
        seed in 0u64..1_000,
        budget in 1usize..3,
    ) {
        let fused = run_hand_fused(n, seed, 1, true, k);
        let (deliveries, ab, _, report) = run_dag(n, seed, 1, true, k, Some(budget));
        prop_assert_eq!(&deliveries, &fused.0, "split packing changed deliveries");
        prop_assert_eq!(&ab, &fused.1, "split packing changed A&B results");
        // k aggregations + 1 A&B vs a budget of 1–2 lanes: the scheduler
        // must defer the overflow into later stages
        prop_assert!(report.splits() > 0, "no split despite {} lanes under budget {}", k + 1, budget);
        prop_assert!(report.max_lanes() <= budget, "budget exceeded");
        prop_assert!(
            report.stages.len() >= (k + 1).div_ceil(budget),
            "too few stages for {} lanes at budget {}",
            k + 1,
            budget
        );
    }

    /// A dependent A&B runs in the barrier slot of the second setup:
    /// exactly one `sync_barrier` cheaper than paying that barrier and
    /// then running the A&B, with the same outputs (unbounded caps, so
    /// the shifted rounds cannot change a drop).
    #[test]
    fn dependent_ab_carries_the_barrier(
        n in 16usize..48,
        seed in 0u64..1_000,
    ) {
        let barrier = sync_barrier(&mut engine(n, seed, 1, true)).unwrap().rounds;
        let (want_d, want_ab, want_rounds) = run_setup_chain_sequential(n, seed, true);
        let (deliveries, ab, rounds, report) = run_setup_chain_dag(n, seed, 1, true);
        prop_assert_eq!(&deliveries, &want_d, "deliveries diverge");
        prop_assert_eq!(&ab, &want_ab, "A&B results diverge");
        prop_assert_eq!(rounds + barrier, want_rounds, "not exactly one barrier saved");
        prop_assert_eq!((report.barriers(), report.carried()), (1, 1));
        prop_assert!(report.stages.last().unwrap().carried);
    }

    /// Under tight caps the carried chain is still a function of the seed
    /// alone: identical outputs and rounds at 1 and 4 threads.
    #[test]
    fn carried_chain_is_thread_invariant(
        n in 16usize..48,
        seed in 0u64..1_000,
    ) {
        let (d1, ab1, r1, _) = run_setup_chain_dag(n, seed, 1, false);
        let (d4, ab4, r4, _) = run_setup_chain_dag(n, seed, 4, false);
        prop_assert_eq!(&d4, &d1, "thread count changed deliveries");
        prop_assert_eq!(&ab4, &ab1, "thread count changed A&B results");
        prop_assert_eq!(r4, r1, "thread count changed rounds");
    }

    /// An aggregation lane costs combine + barrier + delivery + pad to the
    /// delivery's bound `⌈ℓ̂₂/log n⌉ + 1` (or a second barrier, when that
    /// is sooner): in a DAG exactly as under [`common::run_fused`].
    #[test]
    fn aggregation_pads_its_delivery(
        n in 16usize..48,
        seed in 0u64..1_000,
        ell2_hat in 1usize..200,
    ) {
        let shared = SharedRandomness::new(seed ^ 0xF00D);
        let spec = || AggregationSpec { ell2_hat, ..make_spec(n, 0) };
        let mut eng = engine(n, seed, 1, true);
        let mut sub = aggregation_sub(n, &shared, spec(), &SumU64, 40);
        let fused = common::run_fused(&mut eng, &mut [&mut sub]).stats;

        let mut eng = engine(n, seed, 1, true);
        let mut dag = Dag::new();
        let shared = &shared;
        dag.proto("agg", &[], move |_| aggregation_sub(n, shared, spec(), &SumU64, 40), |s| {
            s.into_results()
        });
        let run = dag.run(&mut eng).unwrap();
        prop_assert_eq!(run.stats, fused);

        let barrier = sync_barrier(&mut engine(n, seed, 1, true)).unwrap().rounds;
        let bound = (ell2_hat as u64).div_ceil(ncc_model::ilog2_ceil(n) as u64) + 1;
        let st = &run.report.stages;
        prop_assert_eq!(st.len(), 2);
        prop_assert_eq!(st[0].sync, Owed::Barrier);
        let pad = bound - st[1].rounds();
        let sync = if pad > barrier {
            prop_assert_eq!(st[1].sync, Owed::Barrier);
            barrier
        } else {
            prop_assert_eq!(st[1].sync, Owed::Pad(pad));
            pad
        };
        prop_assert_eq!(run.stats.rounds, st[0].rounds() + barrier + st[1].rounds() + sync);
    }

    /// A dependent A&B runs in the pad slot of the aggregation's
    /// delivery: exactly the pad cheaper than paying it and then running
    /// the A&B, with the same outputs.
    #[test]
    fn dependent_ab_carries_the_pad(
        n in 16usize..48,
        seed in 0u64..1_000,
    ) {
        let (want_d, want_ab, want_rounds) = run_chain_sequential(n, seed, true);
        let (deliveries, ab, rounds, report) = run_chain_dag(n, seed, 1, true);
        prop_assert_eq!(&deliveries, &want_d, "deliveries diverge");
        prop_assert_eq!(&ab, &want_ab, "A&B results diverge");
        let st = &report.stages;
        prop_assert_eq!(st.len(), 3);
        // ℓ̂₂ = 1: the delivery is over within 2 rounds
        let pad = 2 - st[1].rounds();
        prop_assert_eq!(rounds + pad, want_rounds, "not exactly the pad saved");
        prop_assert!(st[1].sync == Owed::Nothing && st[2].carried);
        prop_assert_eq!((report.barriers(), report.carried(), report.padded()), (1, 1, 0));
    }

    /// Under tight caps a padded stage — its pad paid (an antichain of
    /// aggregations and an A&B) or carried (the aggregation chain) — is a
    /// function of the seed alone: identical outputs, rounds and plans at
    /// 1 and 4 threads.
    #[test]
    fn padded_stages_are_thread_invariant(
        n in 16usize..48,
        seed in 0u64..1_000,
    ) {
        prop_assert_eq!(run_dag(n, seed, 1, false, 2, None), run_dag(n, seed, 4, false, 2, None));
        prop_assert_eq!(run_chain_dag(n, seed, 1, false), run_chain_dag(n, seed, 4, false));
    }
}

/// A full lane budget of aggregations, each with `⌈log₂ n⌉` memberships
/// per node, under the default strict capacity: every lane would scatter
/// `⌈log₂ n⌉` packets in round 0, `budget · ⌈log₂ n⌉` in all, well over
/// the `8⌈log₂ n⌉` send cap. [`LaneSub::pace`] holds each lane to its
/// share, so the run completes without one send being refused or
/// truncated. Receive-side drops are not asserted: the packed scatters
/// still overfill some columns' receive caps.
#[test]
fn packed_heavy_aggregations_keep_the_send_cap() {
    for n in [64usize, 256, 1024] {
        let logn = ncc_model::ilog2_ceil(n);
        let k = ncc_butterfly::default_lane_budget(n);
        let shared = SharedRandomness::new(n as u64);
        let mut eng = Engine::new(NetConfig::new(n, 5));
        let cap = eng.config().capacity.send as u64;
        let mut dag = Dag::new();
        for sub in 0..k as u32 {
            let spec = AggregationSpec {
                memberships: (0..n as u32)
                    .map(|u| {
                        (0..logn)
                            .map(|j| (GroupId::new((u + j) % n as u32, sub), u64::from(u)))
                            .collect()
                    })
                    .collect(),
                ell2_hat: 64,
            };
            let shared = &shared;
            dag.proto(
                format!("agg{sub}"),
                &[],
                move |_| aggregation_sub(n, shared, spec, &SumU64, 40 + u64::from(sub)),
                |s| s.into_results(),
            );
        }
        let run = dag
            .run(&mut eng)
            .unwrap_or_else(|e| panic!("n = {n}, k = {k}: {e:?}"));
        assert_eq!(run.report.max_lanes(), k, "n = {n}: all lanes in one stage");
        assert_eq!(run.stats.truncated, 0, "n = {n}");
        assert_eq!(run.stats.send_cap_violations, 0, "n = {n}");
        assert!(
            run.stats.max_out <= cap,
            "n = {n}: {} > {cap}",
            run.stats.max_out
        );
    }
}
