//! Minimum Spanning Tree (§3, Theorem 3.2): `O(log⁴ n)` rounds.
//!
//! Boruvka with Heads/Tails clustering. Each component keeps a leader and a
//! multicast tree (congestion `O(log n)` — components are disjoint); per
//! Boruvka phase:
//!
//! 1. the leader flips Heads/Tails and multicasts the coin;
//! 2. **FindMin** (King–Kutten–Thorup \[35\] adapted): the component finds its
//!    minimum outgoing edge by search over the `(weight ∘ edge id)` key
//!    space. Each step splits the live range into
//!    `B = default_lane_budget(n) − 1` buckets (`2⌈log₂ n⌉ − 1`, so 11 at
//!    n = 64) and asks, for all of them at once, "which outgoing edges
//!    does the component have with key in bucket `j`?" — one aggregation
//!    group per bucket and leader. Every member XORs, per bucket, the
//!    `(mask, key)` pairs of its incident edges (§3's XOR sketch, over
//!    `SKETCH_TRIALS` = 40 trials): an internal edge is fired by both of its
//!    endpoints and cancels, an outgoing edge survives. The leader takes
//!    the lowest non-empty bucket. When its key word `k` is one edge's
//!    key — `mask(k)` equals the mask word, as KKT recover a lone edge —
//!    the search is over at `k`; otherwise the leader descends into the
//!    bucket. A step cuts the range by a factor of `B`, not 2, so
//!    `find_steps = ⌈log_B range⌉` steps (`O(log n / log log n)` with
//!    `range = poly(n)`) cap the search; it ends sooner, once an
//!    Aggregate-and-Broadcast after a step hears no leader still
//!    searching. Every node is a member of at most `B` bucket groups per
//!    step and every leader the target of `B`, so by Theorem 2.3 with
//!    `ℓ₁ = ℓ̂₂ = B = Θ(log n)` a step's combine stays `O(L/n + log n)`
//!    rounds. Each step is **one fused stage**
//!    ([`multicast_aggregate_sub`]): the leader's range `[lo, hi)` goes
//!    down the component tree and each member, in the round its copy
//!    lands, makes one pass over its own edges and fires its `B` sketch
//!    pairs into the combine. Step 0 needs no multicast: its range is
//!    common knowledge, so every node fires from round 0, and the coin
//!    multicast rides beside it;
//! 3. the inside endpoint of the minimum outgoing edge joins the outside
//!    endpoint's multicast group and learns its component's coin and
//!    leader (Theorem 2.4 + 2.5);
//! 4. Tails components whose outgoing edge leads to a Heads component add
//!    the edge to the MST (**only the inside endpoint learns this**, as in
//!    the paper), adopt the Heads leader, and the trees are rebuilt.
//!
//! `O(log n)` phases merge everything w.h.p. \[23, 24\].
//!
//! Every execution group is declared as a protocol [`Dag`]: a FindMin
//! step is one node (plus the coin multicast at step 0), then the
//! leaders' local decision and the stop check, and the link/adopt chains
//! thread typed outputs (exchange inboxes) into downstream build
//! closures. Each FindMin delivery and the round-1 `adopt` exchange have
//! a length every node knows, so their stages end on the clock (a pad),
//! not a barrier, and the stop check runs in the delivery's pad slot; the
//! link trees, which the multicast after them borrows, go through a cell
//! that outlives the DAG.

use std::cell::OnceCell;

use ncc_butterfly::aggregation::{LevelMsg, McAggMsg};
use ncc_butterfly::{
    ab_sub, aggregate_and_broadcast, default_lane_budget, lane_seed, multicast_aggregate_sub,
    multicast_setup_sub, multicast_sub, AggregationSpec, Dag, GroupId, MaxU64, SchedReport,
    XorPair,
};
use ncc_graph::{NodeId, WeightedGraph};
use ncc_hashing::{SharedRandomness, XorSketch};
use ncc_model::{DynPayload, Engine, ModelError, Payload};
use rand::Rng;

use crate::report::AlgoReport;
use crate::support::{edge_id, node_id_bits, schedule_sub};

/// Sub-identifier namespaces for the MST's group families.
const COMP_SUB: u32 = 11; // component trees (target = leader)
const LINK_SUB: u32 = 13; // cross-component coin queries (target = outside endpoint)
const FIND_SUB: u32 = 12; // FindMin sketch aggregation (target = leader), ∘ bucket

/// Sketch trials per bucket: an emptiness test or a one-edge decode fails
/// with probability 2⁻⁴⁰, packed in one word and still `O(log n)` bits.
const SKETCH_TRIALS: usize = 40;

/// FindMin search arity on `n` nodes: the buckets one step probes,
/// `default_lane_budget(n) − 1 = 2⌈log₂ n⌉ − 1`. Every node is a member
/// of at most `B` bucket groups per step and every leader the target of
/// `B`, so with `ℓ₁ = ℓ̂₂ = B = Θ(log n)` Theorem 2.3 keeps the step's
/// combine at `O(L/n + log n)` rounds while each step cuts the range by
/// a factor of `B`, not 2.
fn find_buckets(n: usize) -> u64 {
    default_lane_budget(n) as u64 - 1
}

/// The group of bucket `j` of `leader`'s component. A group id per
/// bucket hashes each bucket to its own butterfly column; one id shared
/// by all `B` buckets would route a component's whole step through one
/// column.
fn bucket_group(leader: NodeId, j: usize) -> GroupId {
    GroupId::new(leader, FIND_SUB | ((j as u32) << 16))
}

/// Lane-seed labels for the composed sub-protocols.
const LS_TREES: u64 = 0x6d73_7401;
const LS_COIN: u64 = 0x6d73_7402;
const LS_FIND: u64 = 0x6d73_7404;
const LS_ANNOUNCE: u64 = 0x6d73_7405;
const LS_LINK_TREES: u64 = 0x6d73_7406;
const LS_LINK_MC: u64 = 0x6d73_7407;
const LS_ADOPT_MC: u64 = 0x6d73_7408;

/// Output of the distributed MST.
#[derive(Debug, Clone)]
pub struct MstResult {
    /// MST/MSF edges, canonical `(min, max)` — the union over nodes of the
    /// locally learned edges (each edge is known to exactly one endpoint).
    pub edges: Vec<(NodeId, NodeId)>,
    pub phases: u32,
    /// Total FindMin search steps across all phases (each step probes
    /// `findmin_buckets` buckets concurrently).
    pub findmin_steps: u32,
    /// FindMin's arity `B = default_lane_budget(n) − 1`.
    pub findmin_buckets: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across all phases.
    pub plan: SchedReport,
}

/// The FindMin search key of edge `{a, b}` of weight `w`: `w ∘ edge id`,
/// so keys order by weight, ties broken by the canonical `(min, max)` id
/// both endpoints agree on.
fn key_of(w: u64, a: NodeId, b: NodeId, idb: u32) -> u64 {
    (w << (2 * idb)) | edge_id(a, b, idb)
}

/// Per node, its incident edges in `weighted_neighbors` order as
/// `(key, mask)`: the edge's key beside its sketch mask. Neither ever
/// changes, so FindMin hashes every edge once per endpoint and run, not
/// once per bucket of every step.
fn edge_masks(wg: &WeightedGraph, sketch: &XorSketch, idb: u32) -> Vec<Vec<(u64, u64)>> {
    (0..wg.n() as NodeId)
        .map(|u| {
            wg.weighted_neighbors(u)
                .map(|(v, w)| {
                    let k = key_of(w, u, v, idb);
                    (k, sketch.element_mask(k))
                })
                .collect()
        })
        .collect()
}

/// The fewest payload bits FindMin's sketch packets need on `n` nodes:
/// a packet of the last leader's last bucket group carrying a full
/// `SKETCH_TRIALS`-bit mask and the widest key word at `W = 1`
/// (`1 + 2·idb` bits), in the combining network behind the
/// `McAggMsg::Agg` tag, under the lane header of step 0, where the coin
/// multicast rides beside FindMin. Sized by the wire types' own
/// `bit_size`; a larger `W` widens the key word ([`max_weight`]).
pub fn min_payload_bits(n: usize) -> u32 {
    let mask = (1u64 << SKETCH_TRIALS) - 1;
    let key = (1u64 << (1 + 2 * node_id_bits(n))) - 1;
    let group = bucket_group(n as NodeId - 1, find_buckets(n) as usize - 1);
    let packet = McAggMsg::<(u64, u64), _>::Agg(LevelMsg::of(group, (mask, key)));
    DynPayload::new(0, ncc_model::ilog2_ceil(2) as u8, packet).bit_size()
}

/// The largest `weight_max` whose FindMin messages fit in `payload_bits`
/// on an `n`-node network (§3 assumes `W = poly(n)`): the narrower of two
/// hops whose width grows with `W`. The range's butterfly hop down a
/// component tree carries a 1-bit message tag and a 6-bit level, the
/// group id `leader ∘ 32-bit sub`, and the pair `(lo, hi)` of keys,
/// `bits(W) + 2·idb` and `bits(W + 1) + 2·idb` bits wide at most (`hi`
/// may be the end of the key range, `(W + 1) ∘ 0…0`). That end must also
/// fit in a `u64`: `bits(W + 1) ≤ 64 − 2·idb`. The sketch hop's key word
/// is `bits(W) + 2·idb` bits, `bits(W) − 1` more than at
/// [`min_payload_bits`].
pub fn max_weight(n: usize, payload_bits: u32) -> u64 {
    let idb = node_id_bits(n);
    // the budget for bits(W) + bits(W + 1)
    let b = payload_bits
        .saturating_sub(7 + 32 + 5 * idb)
        .min(2 * 64u32.saturating_sub(2 * idb));
    // the largest W spending at most b: 2ᵏ − 1 spends 2k + 1, 2ᵏ − 2 spends 2k
    let range_hop = ((1u64 << (b / 2)) + (b % 2) as u64).saturating_sub(2);
    let key_bits = payload_bits.saturating_sub(min_payload_bits(n) - 1).min(64);
    range_hop.min(u64::MAX.checked_shr(64 - key_bits).unwrap_or(0))
}

/// FindMin steps until every live range inside `[0, range_hi)` has width
/// ≤ 1 under `b`-ary splits (the widest bucket of a width-`w` range is
/// `⌈w / b⌉` wide).
fn find_steps(range_hi: u64, b: u64) -> u32 {
    let mut steps = 0u32;
    let mut w = range_hi;
    while w > 1 {
        w = w.div_ceil(b);
        steps += 1;
    }
    steps
}

/// Bucket `j` of `[lo, hi)` split into at most `b` contiguous integer
/// buckets of near-equal width (every bucket non-empty), or `None` past
/// the last one. Computed alone, so a node asks for its lane's bucket in
/// O(1), not O(B); in `u128`, so `width · j` cannot overflow.
fn bucket(lo: u64, hi: u64, b: u64, j: u64) -> Option<(u64, u64)> {
    let (width, b, j) = (hi.saturating_sub(lo) as u128, b as u128, j as u128);
    let b = b.min(width);
    let at = |i: u128| lo + (width * i / b) as u64;
    (j < b).then(|| (at(j), at(j + 1)))
}

/// The index `j` of the bucket of `[lo, hi)` (split as by [`bucket`])
/// that holds `key`, or `None` outside the range: the largest `j` with
/// `⌊width · j / b⌋ ≤ key − lo`.
fn bucket_of(lo: u64, hi: u64, b: u64, key: u64) -> Option<usize> {
    let (width, b) = (hi.saturating_sub(lo) as u128, b as u128);
    let x = key.checked_sub(lo).filter(|_| key < hi)? as u128;
    Some((((x + 1) * b.min(width) - 1) / width) as usize)
}

/// A leader's range after a FindMin step on `[lo, hi)`, from its bucket
/// groups' `(mask, key)` sketches: the lowest non-empty bucket (an empty
/// set XORs to `(0, 0)`), narrowed to its one key when the key word
/// decodes as a lone edge, `(0, 0)` when no bucket holds an outgoing
/// edge. A range of width ≤ 1 is settled and stays.
fn narrow(
    sketch: &XorSketch,
    (lo, hi): (u64, u64),
    b: u64,
    sketches: &[(GroupId, (u64, u64))],
) -> (u64, u64) {
    if hi - lo <= 1 {
        return (lo, hi);
    }
    let fired = sketches.iter().filter(|(_, pair)| *pair != (0, 0));
    let lowest = fired.map(|&(g, pair)| ((g.sub() >> 16) as u64, pair)).min(); // bucket_group's j
    let Some((j, (mask, key))) = lowest else {
        return (0, 0);
    };
    let Some((blo, bhi)) = bucket(lo, hi, b, j) else {
        return (0, 0);
    };
    if (blo..bhi).contains(&key) && sketch.element_mask(key) == mask {
        (key, key + 1)
    } else {
        (blo, bhi)
    }
}

/// Runs the MST algorithm. Works on disconnected graphs (yields a forest).
pub fn mst(
    engine: &mut Engine,
    shared: &SharedRandomness,
    wg: &WeightedGraph,
) -> Result<MstResult, ModelError> {
    let n = engine.n();
    assert_eq!(n, wg.n());
    assert!(n >= 2, "MST needs n ≥ 2");
    let idb = node_id_bits(n);
    let arc_mask: u64 = (1u64 << (2 * idb)) - 1;
    let logn = ncc_model::ilog2_ceil(n).max(1);
    let mut report = AlgoReport::default();
    let mut plan = SchedReport::default();

    // agree on W (weights are {1..W}, W = poly(n))
    let inputs: Vec<Option<u64>> = (0..n)
        .map(|u| wg.weighted_neighbors(u as NodeId).map(|(_, w)| w).max())
        .collect();
    let (wmax, s) = aggregate_and_broadcast(engine, inputs, &MaxU64)?;
    report.push("agree-w", s);
    let w_max = wmax[0].unwrap_or(1);

    let range_hi: u64 = (w_max + 1) << (2 * idb);
    let buckets = find_buckets(n);
    let find_steps = find_steps(range_hi, buckets);

    let sketch = XorSketch::derive(
        shared,
        ncc_hashing::shared::labels::MST_SKETCH,
        SKETCH_TRIALS,
        SharedRandomness::k_for(n),
    );

    // One FindMin firing at node `u` of component `comp` on the live
    // range `[lo, hi)`: one pass over `u`'s own tabled edges XORs each
    // edge's `(mask, key)` into the sketch pair of the bucket holding its
    // key, and every non-zero pair (zero is the XOR identity) becomes a
    // packet of that bucket's group. A settled range (width ≤ 1) fires
    // nothing. A `Copy` closure, shared by the leaders' own firings and
    // the members' map.
    let masks = &edge_masks(wg, &sketch, idb);
    let fire = move |u: NodeId, comp: GroupId, &(lo, hi): &(u64, u64), out: &mut Vec<_>| {
        if hi - lo <= 1 {
            return;
        }
        let mut pairs = vec![(0u64, 0u64); buckets as usize];
        for &(k, mask) in &masks[u as usize] {
            if let Some(j) = bucket_of(lo, hi, buckets, k) {
                pairs[j] = (pairs[j].0 ^ mask, pairs[j].1 ^ k);
            }
        }
        let fired = pairs.into_iter().enumerate().filter(|&(_, p)| p != (0, 0));
        out.extend(fired.map(|(j, p)| (bucket_group(comp.target(), j), p)));
    };

    let mut leader: Vec<NodeId> = (0..n as NodeId).collect();
    let mut mst_edges: Vec<(NodeId, NodeId)> = Vec::new();
    let max_phases = 4 * logn + 16;
    let mut findmin_steps: u32 = 0;

    let mut phase: u32 = 0;
    loop {
        phase += 1;
        assert!(phase <= max_phases, "Boruvka did not converge");
        let pl = phase as u64;

        // ---- component trees (fused setup) ----------------------------------
        let joins: Vec<Vec<(GroupId, NodeId)>> = (0..n)
            .map(|u| {
                if leader[u] != u as NodeId {
                    vec![(GroupId::new(leader[u], COMP_SUB), u as NodeId)]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let trees_seed = lane_seed(engine, LS_TREES, pl);
        let mut dag = Dag::new();
        let trees_node = dag.proto(format!("p{phase}:trees"), &[], move |_| {
            multicast_setup_sub(n, shared, joins, trees_seed)
        });
        let mut run = report.run_dag(format!("p{phase}:trees"), dag, engine, &mut plan)?;
        let trees = run.take(trees_node);

        // ---- coin flips (multicast rides the step-0 FindMin stage) ----------
        let mut coin: Vec<bool> = vec![false; n]; // per node: its component's coin
        let mut coin_msgs: Vec<Option<(GroupId, u64)>> = vec![None; n];
        for u in 0..n {
            if leader[u] == u as NodeId {
                let mut rng = ncc_model::rng::node_rng(
                    engine.config().seed ^ 0x6d73_7400 ^ (pl << 32),
                    u as u32,
                );
                coin[u] = rng.gen_bool(0.5);
                coin_msgs[u] = Some((GroupId::new(u as NodeId, COMP_SUB), coin[u] as u64));
            }
        }

        // ---- FindMin: B-ary search over (weight ∘ edge id) keys -------------
        // One fused stage per step. Step 0's range is common knowledge, so
        // every node fires its own packets from round 0. After it, leaders
        // fire theirs and multicast their narrowed range [lo, hi) down the
        // component tree — settled ones too, so a lost copy still fails
        // typed — and each member fires on the round its copy lands;
        // (0, 0) encodes "no outgoing edge". Only leaders track their
        // range here: a member's lives in its copy. After every step but
        // the last, an A&B asks whether any leader is still searching.
        let mut range: Vec<(u64, u64)> = vec![(0, range_hi); n];
        for step in 0..find_steps {
            findmin_steps += 1;
            let mut own = vec![Vec::new(); n];
            let mut msgs: Vec<Option<(GroupId, (u64, u64))>> = vec![None; n];
            for u in 0..n {
                let comp = GroupId::new(leader[u], COMP_SUB);
                if step == 0 || leader[u] == u as NodeId {
                    fire(u as NodeId, comp, &range[u], &mut own[u]);
                }
                if step > 0 && leader[u] == u as NodeId {
                    msgs[u] = Some((comp, range[u]));
                }
            }
            let (trees, ranges, sketch) = (&trees, &range, &sketch);
            let seed = lane_seed(engine, LS_FIND, (pl << 16) | step as u64);
            let spec = AggregationSpec {
                memberships: own,
                ell2_hat: buckets as usize,
            };
            let (label, mut dag) = (format!("p{phase}:find{step}"), Dag::new());
            let find = dag.combine(format!("{label}:buckets"), &[], move |_| {
                multicast_aggregate_sub(shared, trees, msgs, fire, spec, &XorPair, seed)
            });
            // the coin multicast rides the step-0 stage
            let coin_node = (step == 0).then(|| {
                let coin_seed = lane_seed(engine, LS_COIN, pl);
                let msgs = std::mem::take(&mut coin_msgs);
                dag.proto(format!("p{phase}:find0:coin"), &[], move |_| {
                    multicast_sub(n, shared, trees, msgs, 1, coin_seed)
                })
            });
            // a member is the target of no bucket group: it settles at (0, 0)
            let decide = dag.compute(format!("{label}:decide"), &[find.into()], move |d| {
                let out = d.get(find).iter().zip(ranges);
                out.map(|((_, got), &r)| narrow(sketch, r, buckets, got))
                    .collect::<Vec<_>>()
            });
            let stop = (step + 1 < find_steps).then(|| {
                dag.proto(format!("{label}:searching"), &[decide.into()], move |d| {
                    let searching = d.get(decide).iter().map(|&(lo, hi)| hi - lo > 1);
                    ab_sub(n, searching.map(|s| s.then_some(1)).collect(), &MaxU64)
                })
            });
            let mut run = report.run_dag(label, dag, engine, &mut plan)?;
            let out = run.take(find);
            if let Some(coin_node) = coin_node {
                let coins_recv = run.take(coin_node);
                for u in 0..n {
                    if leader[u] != u as NodeId {
                        coin[u] = member_copy(&coins_recv[u], "a member gets its coin")? == 1;
                    }
                }
            }
            if (0..n).any(|u| step > 0 && leader[u] != u as NodeId && out[u].0 == 0) {
                let event = "a member gets its range";
                return Err(ModelError::WhpEventFailed { event });
            }
            range = run.take(decide);
            if stop.is_some_and(|stop| run.take(stop)[0].is_none()) {
                break;
            }
        }

        // leaders know the minimum outgoing key (width-1 range) or "none"
        let found_key = |&(lo, hi): &(u64, u64)| {
            debug_assert!(hi - lo <= 1, "search must converge to one key");
            (hi > lo).then_some(lo)
        };
        let mut found: Vec<Option<u64>> = range.iter().map(found_key).collect();

        // ---- announce the found key ∥ global termination check --------------
        let mut msgs: Vec<Option<(GroupId, u64)>> = vec![None; n];
        for u in 0..n {
            if leader[u] == u as NodeId {
                let code = found[u].map_or(0, |k| k + 1);
                msgs[u] = Some((GroupId::new(u as NodeId, COMP_SUB), code));
            }
        }
        // only leaders have found a key yet
        let done_inputs: Vec<Option<u64>> = found.iter().map(|k| k.map(|_| 1)).collect();
        let announce_seed = lane_seed(engine, LS_ANNOUNCE, pl);
        let trees_ref = &trees;
        let mut dag = Dag::new();
        let announce = dag.proto(format!("p{phase}:announce"), &[], move |_| {
            multicast_sub(n, shared, trees_ref, msgs, 1, announce_seed)
        });
        let done = dag.proto(format!("p{phase}:done"), &[], move |_| {
            ab_sub(n, done_inputs, &MaxU64)
        });
        let mut run = report.run_dag(format!("p{phase}:announce+done"), dag, engine, &mut plan)?;
        let keys_recv = run.take(announce);
        let still_merging = run.take(done)[0].is_some();
        for u in 0..n {
            if leader[u] != u as NodeId {
                let code = member_copy(&keys_recv[u], "a member gets the found key")?;
                found[u] = if code > 0 { Some(code - 1) } else { None };
            }
        }
        if !still_merging {
            break;
        }

        // ---- inside endpoints identify themselves ---------------------------
        // key decodes to arc (a, b); exactly one endpoint is in the component
        // and only component members received the key.
        let mut inside: Vec<Option<(NodeId, NodeId)>> = vec![None; n]; // u → (me, outside)
        for u in 0..n {
            if let Some(k) = found[u] {
                let arc = k & arc_mask;
                let a = (arc >> idb) as NodeId;
                let b = (arc & ((1 << idb) - 1)) as NodeId;
                if u as NodeId == a {
                    inside[u] = Some((a, b));
                } else if u as NodeId == b {
                    inside[u] = Some((b, a));
                }
            }
        }

        // ---- learn the neighbor component's coin and leader ------------------
        let joins: Vec<Vec<(GroupId, NodeId)>> = (0..n)
            .map(|u| match inside[u] {
                Some((_, y)) if !coin[u] => {
                    vec![(GroupId::new(y, LINK_SUB), u as NodeId)]
                }
                _ => Vec::new(),
            })
            .collect();
        let link_trees_seed = lane_seed(engine, LS_LINK_TREES, pl);
        let link_mc_seed = lane_seed(engine, LS_LINK_MC, pl);
        let info = |y: usize| (coin[y] as u64, leader[y] as u64);
        let messages: Vec<_> = (0..n)
            .map(|y| Some((GroupId::new(y as NodeId, LINK_SUB), info(y))))
            .collect();
        // The freshly recorded trees move into this cell, which outlives
        // the DAG, so the coin/leader multicast reads them in place (a
        // node's output lives only as long as a build closure's `Deps`
        // borrow).
        let recorded = OnceCell::new();
        let mut dag = Dag::new();
        let link_trees = dag.proto(format!("p{phase}:link-trees"), &[], move |_| {
            multicast_setup_sub(n, shared, joins, link_trees_seed)
        });
        let link_mc = dag.proto(format!("p{phase}:link-mc"), &[link_trees.into()], |d| {
            let trees = recorded.get_or_init(|| d.take(link_trees));
            multicast_sub(n, shared, trees, messages, 1, link_mc_seed)
        });
        let mut run = report.run_dag(format!("p{phase}:link"), dag, engine, &mut plan)?;
        let link_info = run.take(link_mc);

        // ---- merge decisions --------------------------------------------------
        // Tails component whose edge leads to Heads: record the MST edge at
        // the inside endpoint and ship the new leader to the old leader.
        let mut new_leader_msg: Vec<Vec<(u64, NodeId, u64)>> = vec![Vec::new(); n];
        let mut local_new_leader: Vec<Option<NodeId>> = vec![None; n];
        for u in 0..n {
            let Some((me, y)) = inside[u] else { continue };
            if coin[u] {
                continue; // Heads components don't move
            }
            let Some(&(_, (coin_y, leader_y))) = link_info[u].first() else {
                continue;
            };
            if coin_y == 1 {
                // Tails → Heads: edge joins the MST (only `me` learns this)
                mst_edges.push((me.min(y), me.max(y)));
                if leader[u] == u as NodeId {
                    local_new_leader[u] = Some(leader_y as NodeId);
                } else {
                    new_leader_msg[u].push((1, leader[u], leader_y));
                }
            }
        }
        let adopt_mc_seed = lane_seed(engine, LS_ADOPT_MC, pl);
        let mut dag = Dag::new();
        let adopt = dag.proto(format!("p{phase}:adopt"), &[], move |_| {
            schedule_sub(n, new_leader_msg, Some(1))
        });
        // leaders fold their inbox with the locally decided adoption and
        // broadcast the outcome (0 = unchanged) down the component trees
        let leader_c = leader.clone();
        let decide = dag.compute(format!("p{phase}:adopted"), &[adopt.into()], move |d| {
            let leader_inbox = d.get(adopt);
            let mut messages: Vec<Option<(GroupId, u64)>> = vec![None; n];
            let mut adopted: Vec<Option<NodeId>> = vec![None; n];
            for u in 0..n {
                if leader_c[u] == u as NodeId {
                    let nl = local_new_leader[u]
                        .or_else(|| leader_inbox[u].first().map(|&(_, nl)| nl as NodeId));
                    adopted[u] = nl;
                    messages[u] = Some((
                        GroupId::new(u as NodeId, COMP_SUB),
                        nl.map_or(0, |l| l as u64 + 1),
                    ));
                }
            }
            (adopted, messages)
        });
        let adopt_mc = dag.proto(format!("p{phase}:adopt-mc"), &[decide.into()], move |d| {
            let (_, messages) = d.get(decide);
            multicast_sub(n, shared, trees_ref, messages.clone(), 1, adopt_mc_seed)
        });
        let mut run = report.run_dag(format!("p{phase}:adopt"), dag, engine, &mut plan)?;
        let (adopted, _) = run.take(decide);
        let adopt_recv = run.take(adopt_mc);
        for u in 0..n {
            if leader[u] == u as NodeId {
                if let Some(nl) = adopted[u] {
                    leader[u] = nl;
                }
            } else {
                let code = member_copy(&adopt_recv[u], "a member hears the adoption")?;
                if code > 0 {
                    leader[u] = (code - 1) as NodeId;
                }
            }
        }
    }

    mst_edges.sort_unstable();
    mst_edges.dedup();
    Ok(MstResult {
        edges: mst_edges,
        phases: phase,
        findmin_steps,
        findmin_buckets: buckets as u32,
        report,
        plan,
    })
}

/// A member's copy of its component's multicast, or the typed failure of
/// the w.h.p. `event` that it arrives.
fn member_copy<V: Copy>(recv: &[(GroupId, V)], event: &'static str) -> Result<V, ModelError> {
    recv.first()
        .map(|&(_, v)| v)
        .ok_or(ModelError::WhpEventFailed { event })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_graph::{check, gen};
    use ncc_model::NetConfig;

    fn run(wg: &WeightedGraph, seed: u64) -> MstResult {
        let mut eng = Engine::new(NetConfig::new(wg.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0x357);
        mst(&mut eng, &shared, wg).unwrap()
    }

    fn assert_valid(wg: &WeightedGraph, r: &MstResult) {
        check::check_mst(wg, &r.edges).unwrap_or_else(|e| panic!("invalid MST: {e}"));
    }

    #[test]
    fn tiny_known_graph() {
        let wg = WeightedGraph::from_weighted_edges(
            4,
            [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 10), (0, 2, 9)],
        );
        let r = run(&wg, 1);
        assert_valid(&wg, &r);
        assert_eq!(r.edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn path_takes_all_edges() {
        let g = gen::path(20);
        let wg = gen::with_random_weights(&g, 100, 3);
        let r = run(&wg, 2);
        assert_valid(&wg, &r);
        assert_eq!(r.edges.len(), 19);
    }

    #[test]
    fn cycle_drops_heaviest() {
        let wg = WeightedGraph::from_weighted_edges(
            6,
            (0..6u32).map(|i| (i, (i + 1) % 6, if i == 3 { 50 } else { i as u64 + 1 })),
        );
        let r = run(&wg, 3);
        assert_valid(&wg, &r);
        assert!(
            !r.edges.contains(&(3, 4)),
            "heaviest edge kept: {:?}",
            r.edges
        );
    }

    #[test]
    fn random_graph_weight_matches_kruskal() {
        for seed in 0..3u64 {
            let g = gen::gnp(32, 0.2, seed);
            let wg = gen::with_random_weights(&g, 1000, seed + 10);
            let r = run(&wg, 20 + seed);
            assert_valid(&wg, &r);
        }
    }

    #[test]
    fn duplicate_weights_still_minimal() {
        // many equal weights: tie-break by edge id must stay consistent
        let g = gen::gnp(24, 0.3, 7);
        let wg = gen::with_random_weights(&g, 3, 8);
        let r = run(&wg, 9);
        assert_valid(&wg, &r);
    }

    #[test]
    fn unit_weights_split_ties_by_edge_id() {
        // W = 1: only the id part of the key separates edges
        let g = gen::gnp(24, 0.3, 7);
        let wg = gen::with_random_weights(&g, 1, 8);
        let r = run(&wg, 9);
        assert_valid(&wg, &r);
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        let wg = WeightedGraph::from_weighted_edges(
            10,
            [(0, 1, 1), (1, 2, 5), (4, 5, 2), (5, 6, 1), (8, 9, 9)],
        );
        let r = run(&wg, 4);
        assert_valid(&wg, &r);
        assert_eq!(r.edges.len(), 5);
    }

    #[test]
    fn star_with_distinct_weights() {
        let g = gen::star(30);
        let wg = gen::with_distinct_weights(&g, 5);
        let r = run(&wg, 6);
        assert_valid(&wg, &r);
        assert_eq!(r.edges.len(), 29);
    }

    #[test]
    fn phases_logarithmic() {
        let g = gen::gnp(64, 0.15, 11);
        let wg = gen::with_random_weights(&g, 10_000, 12);
        let r = run(&wg, 13);
        assert_valid(&wg, &r);
        assert!(r.phases <= 4 * 6 + 4, "phases {}", r.phases);
        // lane accounting: every phase ran multi-lane FindMin steps
        assert!(r.findmin_steps >= r.phases);
        assert!(r.plan.lane_stages() as u32 > r.findmin_steps);
    }

    #[test]
    fn findmin_stops_before_its_cap() {
        // W = 2¹⁶ caps a phase at 9 steps; most components settle in 2–3
        let g = gen::gnp(64, 0.1875, 3);
        let wg = gen::with_random_weights(&g, 1 << 16, 4);
        let r = run(&wg, 3);
        assert_valid(&wg, &r);
        let w_max = (0..64)
            .flat_map(|u| wg.weighted_neighbors(u).map(|(_, w)| w))
            .max();
        let range_hi = (w_max.unwrap() + 1) << (2 * node_id_bits(64));
        let cap = find_steps(range_hi, find_buckets(64));
        assert!(
            r.findmin_steps < r.phases * cap,
            "{} steps, {} phases",
            r.findmin_steps,
            r.phases
        );
    }

    #[test]
    fn narrow_decodes_a_lone_edge_and_descends_otherwise() {
        let sketch = XorSketch::derive(&SharedRandomness::new(5), 1, SKETCH_TRIALS, 12);
        let (lo, hi, b) = (0u64, 1100u64, 11u64); // buckets of width 100
        let pair = |keys: &[u64]| {
            keys.iter()
                .fold((0, 0), |(m, k), &x| (m ^ sketch.element_mask(x), k ^ x))
        };
        let at = |j: usize, keys: &[u64]| (bucket_group(3, j), pair(keys));
        // bucket 2 holds one edge, bucket 4 three, whose key word 451
        // lies in their bucket but is none of them: the lone edge wins
        let sketches = [at(4, &[400, 401, 450]), at(2, &[250]), at(7, &[])];
        assert_eq!(narrow(&sketch, (lo, hi), b, &sketches), (250, 251));
        // the lowest non-empty bucket holds three edges: descend into it
        assert_eq!(narrow(&sketch, (lo, hi), b, &sketches[..1]), (400, 500));
        // nothing outgoing, and a settled range stays
        assert_eq!(narrow(&sketch, (lo, hi), b, &sketches[2..]), (0, 0));
        assert_eq!(narrow(&sketch, (250, 251), b, &[]), (250, 251));
    }

    proptest::proptest! {
        /// The mask table holds, per node and in `weighted_neighbors`
        /// order, the key of every incident edge — the same key at both
        /// endpoints — beside exactly the mask the sketch gives that key,
        /// and a key is its own hashed argument (`k & id_mask | w ∘ 0…0 ==
        /// k`, the id part naming the edge's `(min, max)` endpoints).
        #[test]
        fn mask_table_matches_the_sketch(seed in proptest::prelude::any::<u64>(), n in 2usize..40) {
            let g = gen::gnp(n, 0.3, seed);
            let wg = gen::with_random_weights(&g, (n * n) as u64, seed ^ 1);
            let sketch = XorSketch::derive(
                &SharedRandomness::new(seed ^ 2),
                ncc_hashing::shared::labels::MST_SKETCH,
                SKETCH_TRIALS,
                SharedRandomness::k_for(n),
            );
            let idb = node_id_bits(n);
            let id_mask = (1u64 << (2 * idb)) - 1;
            let table = edge_masks(&wg, &sketch, idb);
            proptest::prop_assert_eq!(table.len(), n);
            for (u, edges) in table.iter().enumerate() {
                let u = u as NodeId;
                proptest::prop_assert_eq!(edges.len(), wg.degree(u));
                for (&(k, m), (v, w)) in edges.iter().zip(wg.weighted_neighbors(u)) {
                    proptest::prop_assert_eq!(k, key_of(w, u, v, idb));
                    let at_v = wg.weighted_neighbors(v).position(|(x, _)| x == u).unwrap();
                    proptest::prop_assert_eq!(table[v as usize][at_v], (k, m));
                    proptest::prop_assert_eq!(m, sketch.element_mask(k));
                    proptest::prop_assert_eq!(k & id_mask | (w << (2 * idb)), k);
                    let ends = ((k & id_mask) >> idb, k & ((1 << idb) - 1));
                    proptest::prop_assert_eq!(ends, (u.min(v) as u64, u.max(v) as u64));
                }
            }
        }
    }

    #[test]
    fn buckets_partition_the_range() {
        let ranges = [
            (0u64, 1u64),
            (0, 7),
            (5, 6),
            (10, 100),
            (0, 1 << 40),
            (3, u64::MAX),
        ];
        for ((lo, hi), k) in ranges
            .into_iter()
            .zip([4, 11, 19, 4, 11, 19].into_iter().cycle())
        {
            let b: Vec<_> = (0..k).map_while(|j| bucket(lo, hi, k, j)).collect();
            assert_eq!(b.len() as u64, k.min(hi - lo));
            assert_eq!(b[0].0, lo);
            assert_eq!(b.last().unwrap().1, hi);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0, "buckets must be contiguous");
            }
            assert!(b.iter().all(|&(a, z)| z > a), "no empty buckets");
            // `bucket_of` finds the bucket holding each key, at and
            // beside every boundary
            let keys = b.iter().flat_map(|&(a, z)| [a, a + (z - a) / 2, z - 1]);
            for key in keys {
                let j = bucket_of(lo, hi, k, key).expect("a key in range has a bucket");
                assert!((b[j].0..b[j].1).contains(&key), "{key} in {:?}", b[j]);
            }
            assert_eq!(bucket_of(lo, hi, k, hi), None);
            assert_eq!(bucket_of(lo, hi, k, lo.wrapping_sub(1)), None);
        }
        assert_eq!(bucket(3, 3, 4, 0), None);
    }
}
