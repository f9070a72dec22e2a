//! The primitives' one pipeline, run as a lane under the hand-fused
//! driver and through the blocking wrappers, against closed-form
//! expectations — and heterogeneous lanes sharing rounds.

mod common;

use common::{run_fused, Fused};
use ncc_butterfly::aggregation::aggregate;
use ncc_butterfly::{
    ab_sub, aggregation_sub, lane_seed, multi_aggregate, multi_aggregate_sub, multicast,
    multicast_setup, multicast_setup_sub, multicast_sub, AggregationSpec, Dag, GroupId, LaneSub,
    MaxU64, MinU64, SumU64,
};
use ncc_hashing::SharedRandomness;
use ncc_model::{Capacity, Engine, ExecStats, NetConfig};

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
    let (mut comb, window, seed) = aggregation_sub(n, &shared, spec, &SumU64, 99);
    let mut rep = Fused::default();
    run_fused(&mut eng, &mut rep, &mut [&mut comb]);
    let mut handover = comb.into_results();
    let mut del = handover.deliver(window, seed);
    run_fused(&mut eng, &mut rep, &mut [&mut del]);
    let fused = handover.finish(del.into_results());

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
    // the wrapper is the combine alone: a DAG holding the same combine
    // chain with the same lane seed costs the same and delivers the same
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
    let node = dag.combine("agg", &[], |_| {
        aggregation_sub(n, &shared, spec, &SumU64, seed)
    });
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
    let mut setup_rep = Fused::default();
    run_fused(&mut eng, &mut setup_rep, &mut [&mut setup]);
    let setup_stats = setup_rep.stats;
    let fused_trees = setup.into_results();
    let mut mc = multicast_sub(n, &shared, &fused_trees, messages, 2, 6);
    let mut rep = Fused::default();
    run_fused(&mut eng, &mut rep, &mut [&mut mc]);
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

    let (mut comb, window, seed) =
        multi_aggregate_sub(n, &shared, &trees, messages, |_, _, _, v| *v, &MinU64, 8);
    let mut rep = Fused::default();
    run_fused(&mut eng, &mut rep, &mut [&mut comb]);
    let mut handover = comb.into_results();
    let mut del = handover.deliver(window, seed);
    run_fused(&mut eng, &mut rep, &mut [&mut del]);

    assert_eq!(rep.stages, 2, "multi-aggregation is two stages");
    assert_eq!(handover.finish(del.into_results()), want, "lane");
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
    let mut combs: Vec<_> = (0..4u32)
        .map(|sub| aggregation_sub(n, &shared, make_spec(sub), &SumU64, 40 + sub as u64))
        .collect();
    let mut ab = ab_sub(n, inputs, &MaxU64);
    let mut rep = Fused::default();
    let mut refs: Vec<&mut dyn LaneSub> = combs
        .iter_mut()
        .map(|(l, _, _)| l as &mut dyn LaneSub)
        .collect();
    refs.push(&mut ab);
    run_fused(&mut eng, &mut rep, &mut refs);
    // the deliveries, built from the combines' handovers
    let mut handovers: Vec<_> = combs
        .into_iter()
        .map(|(l, window, seed)| (l.into_results(), window, seed))
        .collect();
    let mut dels: Vec<_> = handovers
        .iter_mut()
        .map(|(h, window, seed)| h.deliver(*window, *seed))
        .collect();
    let mut refs: Vec<&mut dyn LaneSub> = dels.iter_mut().map(|l| l as &mut dyn LaneSub).collect();
    run_fused(&mut eng, &mut rep, &mut refs);
    assert_eq!(rep.max_lanes, 5);
    assert_eq!(rep.stages, 2);
    assert!(
        rep.stats.rounds * 2 < seq_rounds,
        "composed {} rounds vs sequential {seq_rounds}",
        rep.stats.rounds
    );
    assert_eq!(ab.into_results(), ab_seq);
    for (sub, (lane, (handover, ..))) in dels.into_iter().zip(handovers).enumerate() {
        let got = handover.finish(lane.into_results());
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

/// A random forest of components on `n` nodes: every node picks a leader
/// among about n/8 sources, every source's group is a tree of its
/// members, and every node holds one packet of its own.
struct Components {
    joins: Vec<Vec<GroupId>>,
    messages: Vec<Option<(GroupId, u64)>>,
    own: Vec<Vec<(GroupId, u64)>>,
}

impl Components {
    fn new(n: usize) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(n as u64);
        let sources: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.125)).collect();
        let leader: Vec<u32> = (0..n)
            .map(|_| sources[rng.gen_range(0..sources.len())])
            .collect();
        Components {
            joins: (0..n as u32)
                .map(|u| (leader[u as usize] != u).then(|| component(leader[u as usize])))
                .map(|g| g.into_iter().collect())
                .collect(),
            messages: (0..n as u32)
                .map(|u| sources.contains(&u).then(|| (component(u), packet(u))))
                .collect(),
            own: (0..n as u32)
                .map(|u| vec![(GroupId::new(u % 5, 9), u as u64)])
                .collect(),
        }
    }
}

/// Source `s`'s group and the packet it multicasts.
fn component(s: u32) -> GroupId {
    GroupId::new(s, 3)
}

fn packet(s: u32) -> u64 {
    7 + 13 * s as u64
}

/// A member fires one packet per bucket to its source, and one to a
/// target of its own choosing: its input, not the leaf's.
fn fire(me: u32, g: GroupId, v: &u64, out: &mut Vec<(GroupId, u64)>) {
    out.extend((0..3).map(|j| (GroupId::new(g.target(), 16 + j), v + me as u64 * j as u64)));
    out.push((GroupId::new(me / 4, 20), 1));
}

/// Per node, the copies it reported and what it received from the
/// member-fired combine over `trees`, the run's cost, and how many times
/// its member map ran (asserting it only runs on members).
type MemberFired = (Vec<(u32, Vec<(GroupId, u64)>)>, ExecStats, Vec<u32>);

fn run_member_fired(
    eng: &mut Engine,
    shared: &SharedRandomness,
    trees: &ncc_butterfly::MulticastTrees,
    comps: &Components,
) -> MemberFired {
    use std::sync::atomic::{AtomicU32, Ordering};
    let calls: Vec<AtomicU32> = comps.joins.iter().map(|_| AtomicU32::new(0)).collect();
    let counted = |me: u32, g: GroupId, v: &u64, out: &mut Vec<(GroupId, u64)>| {
        assert!(
            comps.joins[me as usize].contains(&g),
            "{g:?} fired on non-member {me}"
        );
        calls[me as usize].fetch_add(1, Ordering::SeqCst);
        fire(me, g, v, out);
    };
    let spec = AggregationSpec {
        memberships: comps.own.clone(),
        ell2_hat: 8,
    };
    let mut dag = Dag::new();
    let messages = comps.messages.clone();
    let node = dag.combine("mcagg", &[], move |_| {
        ncc_butterfly::multicast_aggregate_sub(shared, trees, messages, counted, spec, &SumU64, 4)
    });
    let mut run = dag.run(eng).unwrap();
    let (out, stats) = (run.outputs.take(node), run.stats);
    let calls: Vec<u32> = calls.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    (out, stats, calls)
}

/// The member-fired combine on random component trees, at n = 48 and
/// 100 (nodes 32–47 and 64–99 emulate no column, yet are members) and
/// n = 64. Each member's map runs exactly once per copy, on that member
/// (`me` is a node that joined the group), and the deliveries equal a
/// sequential oracle: every member's map output on its source's packet,
/// plus every node's own packets, summed per group. Threads 1 and 4
/// give the same bytes.
#[test]
fn member_fired_combine_matches_a_sequential_oracle() {
    for n in [48usize, 64, 100] {
        let comps = Components::new(n);
        let mut oracle: std::collections::BTreeMap<GroupId, u64> = Default::default();
        for u in 0..n as u32 {
            let mut fired = comps.own[u as usize].clone();
            for &g in &comps.joins[u as usize] {
                fire(u, g, &packet(g.target()), &mut fired);
            }
            for (g, v) in fired {
                *oracle.entry(g).or_default() += v;
            }
        }
        let run = |threads| {
            let shared = SharedRandomness::new(n as u64 ^ 0x5eed);
            let mut eng = Engine::new(NetConfig::new(n, 9).with_threads(threads));
            let joins = ncc_butterfly::self_joins(comps.joins.clone());
            let (trees, _) = multicast_setup(&mut eng, &shared, joins).unwrap();
            run_member_fired(&mut eng, &shared, &trees, &comps)
        };
        let (out, stats, calls) = run(1);
        assert!(stats.clean(), "n={n}");
        for u in 0..n {
            let copies = comps.joins[u].len() as u32;
            assert_eq!((out[u].0, calls[u]), (copies, copies), "n={n}, node {u}");
            let mine = oracle.range(GroupId::new(u as u32, 0)..GroupId::new(u as u32 + 1, 0));
            let want: Vec<_> = mine.map(|(&g, &v)| (g, v)).collect();
            assert_eq!(sorted(out[u].1.clone()), want, "n={n}, node {u}");
        }
        let again = run(4);
        assert_eq!(
            format!("{:?}", (&out, &stats, &calls)),
            format!("{again:?}"),
            "n={n}"
        );
    }
}

/// Under a squeezed receive cap the combine loses copies, and what its
/// front kept crosses the handover to the delivery intact: every node
/// reports exactly the copies its member map ran on, and some member
/// reports fewer than it joined — the count MST turns into a typed
/// failure instead of a silent zero contribution.
#[test]
fn member_fired_copy_counts_survive_lost_copies() {
    let n = 64;
    let comps = Components::new(n);
    let shared = SharedRandomness::new(n as u64 ^ 0x5eed);
    let joins = ncc_butterfly::self_joins(comps.joins.clone());
    let (trees, _) = multicast_setup(&mut engine(n, 9), &shared, joins).unwrap();
    let squeezed = Capacity {
        recv: 2,
        ..Capacity::default_for(n)
    };
    let mut eng = Engine::new(NetConfig::new(n, 9).with_capacity(squeezed));
    let (out, stats, calls) = run_member_fired(&mut eng, &shared, &trees, &comps);
    assert!(stats.dropped > 0, "the cap drops nothing");
    for u in 0..n {
        assert_eq!(out[u].0, calls[u], "node {u}");
    }
    let lost = (0..n).filter(|&u| out[u].0 < comps.joins[u].len() as u32);
    assert!(lost.count() > 0, "no member lost its copy");
}
