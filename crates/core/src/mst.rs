//! Minimum Spanning Tree (§3, Theorem 3.2): `O(log⁴ n)` rounds.
//!
//! Boruvka with Heads/Tails clustering. Each component keeps a leader and a
//! multicast tree (congestion `O(log n)` — components are disjoint); per
//! Boruvka phase:
//!
//! 1. the leader flips Heads/Tails and multicasts the coin;
//! 2. **FindMin** (King–Kutten–Thorup \[35\] adapted): the component finds its
//!    minimum outgoing edge by search over the combined `(weight ∘ arc id)`
//!    key space. Each step splits the live range into
//!    `B = default_lane_budget(n) − 1` buckets (`2⌈log₂ n⌉ − 1`, so 11 at
//!    n = 64) and asks, for all of them at once, "does the component have
//!    an outgoing arc with key in bucket `j`?" — one aggregation group per
//!    bucket and leader. A bucket's answer compares the XOR sketches
//!    `h↑(C)` and `h↓(C)` (§3): internal edges contribute the same arc ids
//!    to both sums and cancel; outgoing arcs survive. The leader descends
//!    into the smallest non-empty bucket, so the search takes
//!    `⌈log_B range⌉` steps instead of `⌈log₂ range⌉` — with
//!    `range = poly(n)`, `O(log n / log log n)` steps per phase instead of
//!    `O(log n)`. Every node is a member of at most `B` bucket groups per
//!    step and every leader the target of `B`, so by Theorem 2.3 with
//!    `ℓ₁ = ℓ̂₂ = B = Θ(log n)` a step's combine stays `O(L/n + log n)`
//!    rounds. Each step is **one fused stage**
//!    ([`multicast_aggregate_sub`]): the leader's range `[lo, hi)` goes
//!    down the component tree and each member, in the round its copy
//!    lands, makes one pass over its own arcs and fires its `B` sketch
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
//! step is one node (plus the coin multicast at step 0), and the
//! link/adopt chains thread typed outputs (exchange inboxes) into
//! downstream build closures. Each FindMin delivery and the round-1
//! `adopt` exchange have a length every node knows, so their stages end
//! on the clock (a pad), not a barrier; the link trees, which the
//! multicast after them borrows, go through a cell that outlives the DAG.

use std::cell::OnceCell;

use ncc_butterfly::{
    ab_sub, aggregate_and_broadcast, default_lane_budget, lane_seed, multicast_aggregate_sub,
    multicast_setup_sub, multicast_sub, AggregationSpec, Dag, GroupId, MaxU64, SchedReport,
    XorPair,
};
use ncc_graph::{NodeId, WeightedGraph};
use ncc_hashing::{SharedRandomness, XorSketch};
use ncc_model::{Engine, ModelError};
use rand::Rng;

use crate::report::AlgoReport;
use crate::support::{arc_id, node_id_bits, schedule_sub};

/// Sub-identifier namespaces for the MST's group families.
const COMP_SUB: u32 = 11; // component trees (target = leader)
const LINK_SUB: u32 = 13; // cross-component coin queries (target = outside endpoint)
const FIND_SUB: u32 = 12; // FindMin sketch aggregation (target = leader), ∘ bucket

/// Sketch trials per probe: failure 2⁻⁴⁰ per probe, packed in one word and
/// still `O(log n)` bits.
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
    /// Total lane-stages executed by composed (multiplexed) runs — the
    /// per-lane accounting echoed into `RunRecord.metrics`.
    pub lane_stages: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across all phases.
    pub plan: SchedReport,
}

/// The FindMin search key of arc `a → b` of weight `w`: `w ∘ arc id`, so
/// keys order by weight, ties broken by arc id.
fn key_of(w: u64, a: NodeId, b: NodeId, idb: u32) -> u64 {
    (w << (2 * idb)) | arc_id(a, b, idb)
}

/// Per node, its incident arcs in `weighted_neighbors` order as
/// `(k_up, mask_up, k_dn, mask_dn)`: the keys of the arc leaving the node
/// and of the arc entering it, each beside its sketch mask. Neither ever
/// changes, so FindMin hashes every arc once per run, not once per bucket
/// of every step.
fn arc_masks(wg: &WeightedGraph, sketch: &XorSketch, idb: u32) -> Vec<Vec<(u64, u64, u64, u64)>> {
    (0..wg.n() as NodeId)
        .map(|u| {
            wg.weighted_neighbors(u)
                .map(|(v, w)| {
                    let (up, dn) = (key_of(w, u, v, idb), key_of(w, v, u, idb));
                    (up, sketch.element_mask(up), dn, sketch.element_mask(dn))
                })
                .collect()
        })
        .collect()
}

/// The largest `weight_max` whose FindMin messages fit in `payload_bits`
/// on an `n`-node network (§3 assumes `W = poly(n)`). The widest one is
/// the range's butterfly hop down a component tree: a 1-bit message tag
/// and a 6-bit level, the group id `leader ∘ 32-bit sub`, and the pair
/// `(lo, hi)` of keys, `bits(W) + 2·idb` and `bits(W + 1) + 2·idb` bits
/// wide at most (`hi` may be the end of the key range, `(W + 1) ∘ 0…0`).
/// That end must also fit in a `u64`: `bits(W + 1) ≤ 64 − 2·idb`.
pub fn max_weight(n: usize, payload_bits: u32) -> u64 {
    let idb = node_id_bits(n);
    // the budget for bits(W) + bits(W + 1)
    let b = payload_bits
        .saturating_sub(7 + 32 + 5 * idb)
        .min(2 * 64u32.saturating_sub(2 * idb));
    // the largest W spending at most b: 2ᵏ − 1 spends 2k + 1, 2ᵏ − 2 spends 2k
    ((1u64 << (b / 2)) + (b % 2) as u64).saturating_sub(2)
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
    // range `[lo, hi)`: one pass over `u`'s own tabled arcs XORs each
    // arc's masks into the sketch pair of the bucket holding its keys,
    // and every non-zero pair (zero is the XOR identity) becomes a packet
    // of that bucket's group. A `Copy` closure, shared by the leaders'
    // own firings and the members' map.
    let masks = &arc_masks(wg, &sketch, idb);
    let fire = move |u: NodeId, comp: GroupId, &(lo, hi): &(u64, u64), out: &mut Vec<_>| {
        let mut pairs = vec![(0u64, 0u64); buckets as usize];
        for &(k_up, mask_up, k_dn, mask_dn) in &masks[u as usize] {
            if let Some(j) = bucket_of(lo, hi, buckets, k_up) {
                pairs[j].0 ^= mask_up;
            }
            if let Some(j) = bucket_of(lo, hi, buckets, k_dn) {
                pairs[j].1 ^= mask_dn;
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
        let trees_node = dag.proto(
            format!("p{phase}:trees"),
            &[],
            move |_| multicast_setup_sub(n, shared, joins, trees_seed),
            |s| s.into_results(),
        );
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

        // ---- FindMin: B-ary search over (weight ∘ arc id) keys --------------
        // One fused stage per step. Step 0's range is common knowledge, so
        // every node fires its own packets from round 0. After it, leaders
        // fire theirs and multicast their narrowed range [lo, hi) down the
        // component tree, and each member fires on the round its copy
        // lands; (0, 0) encodes "no outgoing edge". Only leaders track
        // their range here: a member's lives in its copy.
        let mut lo: Vec<u64> = vec![0; n];
        let mut hi: Vec<u64> = vec![range_hi; n];
        for step in 0..find_steps {
            findmin_steps += 1;
            let mut own = vec![Vec::new(); n];
            let mut msgs: Vec<Option<(GroupId, (u64, u64))>> = vec![None; n];
            for u in 0..n {
                let comp = GroupId::new(leader[u], COMP_SUB);
                if step == 0 || leader[u] == u as NodeId {
                    fire(u as NodeId, comp, &(lo[u], hi[u]), &mut own[u]);
                }
                if step > 0 && leader[u] == u as NodeId {
                    msgs[u] = Some((comp, (lo[u], hi[u])));
                }
            }
            let trees = &trees;
            let seed = lane_seed(engine, LS_FIND, (pl << 16) | step as u64);
            let spec = AggregationSpec {
                memberships: own,
                ell2_hat: buckets as usize,
            };
            let mut dag = Dag::new();
            let find = dag.proto(
                format!("p{phase}:find{step}:buckets"),
                &[],
                move |_| multicast_aggregate_sub(shared, trees, msgs, fire, spec, &XorPair, seed),
                |s| s.into_results(),
            );
            // the coin multicast rides the step-0 stage
            let coin_node = (step == 0).then(|| {
                let coin_seed = lane_seed(engine, LS_COIN, pl);
                let msgs = std::mem::take(&mut coin_msgs);
                dag.proto(
                    format!("p{phase}:find0:coin"),
                    &[],
                    move |_| multicast_sub(n, shared, trees, msgs, 1, coin_seed),
                    |s| s.into_results(),
                )
            });
            let mut run = report.run_dag(format!("p{phase}:find{step}"), dag, engine, &mut plan)?;
            let out = run.take(find);
            if let Some(coin_node) = coin_node {
                let coins_recv = run.take(coin_node);
                for u in 0..n {
                    if leader[u] != u as NodeId {
                        coin[u] = member_copy(&coins_recv[u], "a member gets its coin")? == 1;
                    }
                }
            }
            // leaders descend into the smallest bucket whose sketches
            // differ (up ≠ down), or to (0, 0) when the live range has no
            // outgoing arc
            for (u, (copies, sketches)) in out.iter().enumerate() {
                if leader[u] != u as NodeId {
                    if step > 0 && *copies == 0 {
                        let event = "a member gets its range";
                        return Err(ModelError::WhpEventFailed { event });
                    }
                    continue;
                }
                let differ = sketches.iter().filter(|(_, (up, down))| up != down);
                let hit = differ.map(|(g, _)| (g.sub() >> 16) as u64).min(); // bucket_group's j
                let narrowed = hit.and_then(|j| bucket(lo[u], hi[u], buckets, j));
                (lo[u], hi[u]) = narrowed.unwrap_or((0, 0));
            }
        }

        // leaders know the minimum outgoing key (width-1 range) or "none"
        let mut found: Vec<Option<u64>> = vec![None; n];
        for u in 0..n {
            if leader[u] == u as NodeId && hi[u] > lo[u] {
                debug_assert_eq!(hi[u] - lo[u], 1, "search must converge to one key");
                found[u] = Some(lo[u]);
            }
        }

        // ---- announce the found key ∥ global termination check --------------
        let mut msgs: Vec<Option<(GroupId, u64)>> = vec![None; n];
        for u in 0..n {
            if leader[u] == u as NodeId {
                let code = found[u].map_or(0, |k| k + 1);
                msgs[u] = Some((GroupId::new(u as NodeId, COMP_SUB), code));
            }
        }
        let done_inputs: Vec<Option<u64>> = (0..n)
            .map(|u| {
                if leader[u] == u as NodeId && found[u].is_some() {
                    Some(1)
                } else {
                    None
                }
            })
            .collect();
        let announce_seed = lane_seed(engine, LS_ANNOUNCE, pl);
        let trees_ref = &trees;
        let mut dag = Dag::new();
        let announce = dag.proto(
            format!("p{phase}:announce"),
            &[],
            move |_| multicast_sub(n, shared, trees_ref, msgs, 1, announce_seed),
            |s| s.into_results(),
        );
        let done = dag.proto(
            format!("p{phase}:done"),
            &[],
            move |_| ab_sub(n, done_inputs, &MaxU64),
            |s| s.into_results(),
        );
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
        let messages: Vec<Option<(GroupId, (u64, u64))>> = (0..n)
            .map(|y| {
                Some((
                    GroupId::new(y as NodeId, LINK_SUB),
                    (coin[y] as u64, leader[y] as u64),
                ))
            })
            .collect();
        // The freshly recorded trees outlive the DAG in this cell, so the
        // coin/leader multicast reads them in place (a node's output lives
        // only as long as a build closure's `Deps` borrow).
        let recorded = OnceCell::new();
        let mut dag = Dag::new();
        let link_trees = dag.proto(
            format!("p{phase}:link-trees"),
            &[],
            move |_| multicast_setup_sub(n, shared, joins, link_trees_seed),
            |s| recorded.set(s.into_results()).expect("recorded once"),
        );
        let link_mc = dag.proto(
            format!("p{phase}:link-mc"),
            &[link_trees.into()],
            |_| {
                let trees = recorded.get().expect("link-trees finished first");
                multicast_sub(n, shared, trees, messages, 1, link_mc_seed)
            },
            |s| s.into_results(),
        );
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
        let adopt = dag.proto(
            format!("p{phase}:adopt"),
            &[],
            move |_| schedule_sub(n, new_leader_msg, Some(1)),
            |s| s.into_results(),
        );
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
        let adopt_mc = dag.proto(
            format!("p{phase}:adopt-mc"),
            &[decide.into()],
            move |d| {
                let (_, messages) = d.get(decide);
                multicast_sub(n, shared, trees_ref, messages.clone(), 1, adopt_mc_seed)
            },
            |s| s.into_results(),
        );
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
        lane_stages: plan.lane_stages() as u32,
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
        // many equal weights: tie-break by arc id must stay consistent
        let g = gen::gnp(24, 0.3, 7);
        let wg = gen::with_random_weights(&g, 3, 8);
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
        assert!(r.lane_stages > r.findmin_steps);
    }

    proptest::proptest! {
        /// The mask table holds, per node and in `weighted_neighbors`
        /// order, both keys of every incident arc beside exactly the mask
        /// the sketch gives that key — and a key is its own hashed
        /// argument (`k & arc_mask | w ∘ 0…0 == k`).
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
            let arc_mask = (1u64 << (2 * idb)) - 1;
            let table = arc_masks(&wg, &sketch, idb);
            proptest::prop_assert_eq!(table.len(), n);
            for (u, arcs) in table.iter().enumerate() {
                let u = u as NodeId;
                proptest::prop_assert_eq!(arcs.len(), wg.degree(u));
                for (&(k_up, m_up, k_dn, m_dn), (v, w)) in arcs.iter().zip(wg.weighted_neighbors(u)) {
                    proptest::prop_assert_eq!((k_up, k_dn), (key_of(w, u, v, idb), key_of(w, v, u, idb)));
                    proptest::prop_assert_eq!(m_up, sketch.element_mask(k_up));
                    proptest::prop_assert_eq!(m_dn, sketch.element_mask(k_dn));
                    for k in [k_up, k_dn] {
                        proptest::prop_assert_eq!(k & arc_mask | (w << (2 * idb)), k);
                    }
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
