//! The primitives' one pipeline, run as a lane under the hand-fused
//! driver and through the blocking wrappers, against closed-form
//! expectations — and heterogeneous lanes sharing rounds.

mod common;

use common::run_fused;
use ncc_butterfly::aggregation::aggregate;
use ncc_butterfly::{
    ab_sub, aggregation_sub, lane_seed, multi_aggregate, multi_aggregate_sub, multicast,
    multicast_setup, multicast_setup_sub, multicast_sub, AggregationSpec, Dag, GroupId, LaneSub,
    MaxU64, MinU64, SumU64,
};
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, NetConfig};

fn engine(n: usize, seed: u64) -> Engine {
    Engine::new(NetConfig::new(n, seed))
}

fn sorted<V: Ord + Clone>(mut v: Vec<V>) -> Vec<V> {
    v.sort();
    v
}

#[test]
fn fused_aggregation_matches_blocking_outputs() {
    let n = 64;
    let shared = SharedRandomness::new(7);
    // group t collects 10, 11, 12 from members {t, t+1, t+2 mod n}
    let mut memberships: Vec<Vec<(GroupId, u64)>> = vec![Vec::new(); n];
    for t in 0..n as u32 {
        for off in 0..3u32 {
            let member = ((t + off) % n as u32) as usize;
            memberships[member].push((GroupId::new(t, 1), 10 + off as u64));
        }
    }
    let spec = AggregationSpec {
        memberships,
        ell2_hat: 1,
    };

    let mut eng = engine(n, 3);
    let (blocking, blocking_stats) = aggregate(&mut eng, &shared, spec.clone(), &SumU64).unwrap();

    let mut eng = engine(n, 3);
    let mut sub = aggregation_sub(n, &shared, spec, &SumU64, 99);
    let rep = run_fused(&mut eng, &mut [&mut sub]);
    let fused = sub.into_deliveries();

    assert_eq!(rep.stages, 2, "aggregation is two stages");
    for t in 0..n {
        // every target receives exactly its own group's sum
        let want = vec![(GroupId::new(t as u32, 1), 10 + 11 + 12)];
        assert_eq!(fused[t], want, "lane, node {t}");
        assert_eq!(blocking[t], want, "wrapper, node {t}");
    }
    assert!(rep.stats.clean() && blocking_stats.clean());
}

#[test]
fn blocking_aggregate_equals_one_node_dag() {
    // the wrapper is the sub alone: a one-node DAG holding the same sub
    // with the same lane seed costs the same and delivers the same
    let n = 48;
    let shared = SharedRandomness::new(29);
    let spec = AggregationSpec {
        memberships: (0..n as u32)
            .map(|u| {
                (0..4u32)
                    .map(|j| (GroupId::new((u * 5 + j) % n as u32, j), (u + j) as u64))
                    .collect()
            })
            .collect(),
        ell2_hat: 8,
    };

    let mut eng = engine(n, 23);
    let (blocking, blocking_stats) = aggregate(&mut eng, &shared, spec.clone(), &SumU64).unwrap();

    let mut eng = engine(n, 23);
    let seed = lane_seed(&eng, 0x6167_6772, 0); // "aggr", the label `aggregate` keys its lane with
    let mut dag = Dag::new();
    let node = dag.proto(
        "agg",
        &[],
        |_| aggregation_sub(n, &shared, spec, &SumU64, seed),
        |sub| sub.into_deliveries(),
    );
    let mut run = dag.run(&mut eng).unwrap();

    assert_eq!(run.stats, blocking_stats);
    assert_eq!(run.outputs.take(node), blocking);
}

#[test]
fn fused_setup_and_multicast_match_blocking_deliveries() {
    let n = 48;
    let shared = SharedRandomness::new(21);
    // every node sources a group; node u joins groups of u−1, u+1 (ring)
    let mut joins = vec![Vec::new(); n];
    let mut messages: Vec<Option<(GroupId, u64)>> = vec![None; n];
    for u in 0..n {
        joins[u].push(GroupId::new(((u + n - 1) % n) as u32, 4));
        joins[u].push(GroupId::new(((u + 1) % n) as u32, 4));
        messages[u] = Some((GroupId::new(u as u32, 4), 1000 + u as u64));
    }

    let mut eng = engine(n, 11);
    let (trees, _) =
        multicast_setup(&mut eng, &shared, ncc_butterfly::self_joins(joins.clone())).unwrap();
    let (blocking, _) = multicast(&mut eng, &shared, &trees, messages.clone(), 2).unwrap();

    let mut eng = engine(n, 11);
    let mut setup = multicast_setup_sub(n, &shared, ncc_butterfly::self_joins(joins), 5);
    let setup_stats = run_fused(&mut eng, &mut [&mut setup]).stats;
    let fused_trees = setup.into_results();
    let mut mc = multicast_sub(n, &shared, &fused_trees, messages, 2, 6);
    let rep = run_fused(&mut eng, &mut [&mut mc]);
    let fused = mc.into_results();

    assert_eq!(rep.stages, 1, "multicast is one stage");
    for u in 0..n {
        // each member gets the packet of both ring neighbours, once
        let want = sorted(
            [(u + n - 1) % n, (u + 1) % n]
                .map(|s| (GroupId::new(s as u32, 4), 1000 + s as u64))
                .to_vec(),
        );
        assert_eq!(sorted(fused[u].clone()), want, "lane, node {u}");
        assert_eq!(sorted(blocking[u].clone()), want, "wrapper, node {u}");
    }
    assert!(setup_stats.clean() && rep.stats.clean());
}

#[test]
fn fused_multi_aggregation_matches_blocking_semantics() {
    // neighborhood min on a cycle, identity leaf map
    let n = 32;
    let shared = SharedRandomness::new(61);
    let value = |u: u32| 100 + ((u as u64 * 37) % 50);
    let mut joins = vec![Vec::new(); n];
    for u in 0..n as u32 {
        let l = (u + n as u32 - 1) % n as u32;
        let r = (u + 1) % n as u32;
        joins[l as usize].push(GroupId::new(u, 0));
        joins[r as usize].push(GroupId::new(u, 0));
    }
    let messages: Vec<Option<(GroupId, u64)>> = (0..n as u32)
        .map(|u| Some((GroupId::new(u, 0), value(u))))
        .collect();
    // node u hears from both neighbours and keeps the smaller value
    let want: Vec<Option<u64>> = (0..n as u32)
        .map(|u| Some(value((u + n as u32 - 1) % n as u32).min(value((u + 1) % n as u32))))
        .collect();

    let mut eng = engine(n, 5);
    let (trees, _) = multicast_setup(&mut eng, &shared, ncc_butterfly::self_joins(joins)).unwrap();
    let (blocking, blocking_stats) = multi_aggregate(
        &mut eng,
        &shared,
        &trees,
        messages.clone(),
        |_, _, _, v| *v,
        &MinU64,
    )
    .unwrap();

    let mut sub = multi_aggregate_sub(n, &shared, &trees, messages, |_, _, _, v| *v, &MinU64, 8);
    let rep = run_fused(&mut eng, &mut [&mut sub]);

    assert_eq!(rep.stages, 2, "multi-aggregation is two stages");
    assert_eq!(sub.into_results(), want, "lane");
    assert_eq!(blocking, want, "wrapper");
    assert!(rep.stats.clean() && blocking_stats.clean());
}

#[test]
fn heterogeneous_lanes_share_rounds() {
    // 4 aggregation lanes + one A&B lane in a single composition: every
    // lane's output is what it would produce alone, and the whole bundle
    // costs far less than running the five primitives back-to-back.
    let n = 64;
    let shared = SharedRandomness::new(13);
    let make_spec = |sub: u32| -> AggregationSpec<u64> {
        AggregationSpec {
            memberships: (0..n)
                .map(|u| vec![(GroupId::new((u as u32 + sub) % n as u32, sub), u as u64)])
                .collect(),
            ell2_hat: 1,
        }
    };

    // sequential baseline
    let mut eng = engine(n, 17);
    let mut seq_rounds = 0;
    let mut seq_out = Vec::new();
    for sub in 0..4u32 {
        let (out, s) = aggregate(&mut eng, &shared, make_spec(sub), &SumU64).unwrap();
        seq_rounds += s.rounds;
        seq_out.push(out);
    }
    let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
    let (ab_seq, s) =
        ncc_butterfly::aggregate_and_broadcast(&mut eng, inputs.clone(), &MaxU64).unwrap();
    seq_rounds += s.rounds;

    // composed
    let mut eng = engine(n, 17);
    let mut lanes: Vec<_> = (0..4u32)
        .map(|sub| aggregation_sub(n, &shared, make_spec(sub), &SumU64, 40 + sub as u64))
        .collect();
    let mut ab = ab_sub(n, inputs, &MaxU64);
    {
        let mut refs: Vec<&mut dyn LaneSub> =
            lanes.iter_mut().map(|l| l as &mut dyn LaneSub).collect();
        refs.push(&mut ab);
        let rep = run_fused(&mut eng, &mut refs);
        assert_eq!(rep.max_lanes, 5);
        assert_eq!(rep.stages, 2);
        assert!(
            rep.stats.rounds * 2 < seq_rounds,
            "composed {} rounds vs sequential {seq_rounds}",
            rep.stats.rounds
        );
    }
    assert_eq!(ab.into_results(), ab_seq);
    for (sub, lane) in lanes.into_iter().enumerate() {
        let got = lane.into_deliveries();
        // per-group sums must match the sequential run's (delivery order
        // within a node may differ)
        for u in 0..n {
            assert_eq!(
                sorted(got[u].clone()),
                sorted(seq_out[sub][u].clone()),
                "lane {sub} node {u}"
            );
        }
    }
}
