//! Small supporting protocols used inside the §4/§5 algorithms.
//!
//! Each is a [`Lane`], or two chained ones,
//! declared as nodes of the algorithm's protocol
//! [`Dag`](ncc_butterfly::Dag):
//!
//! * [`gather_sub`] then [`broadcast_sub`] — the "high-degree
//!   identifiers" pattern of §4 Stage 2: a sparse set of nodes sends their
//!   identifiers to node 0 over the butterfly's binomial tree (queued,
//!   smallest-first) and node 0 broadcasts them back pipelined, with the
//!   seed agreement's [`TreeBroadcast`]. `O(k + log n)` rounds for `k`
//!   values.
//! * [`schedule_sub`] — point-to-point sends at node-chosen rounds
//!   (the "pick a uniform round in {1..T}" load-smoothing idiom used by §4
//!   Stage 2's `R_u` responses and several §5 steps).
//! * [`rendezvous_sub`] — §4 Stage 3: both endpoints of an edge hash to a
//!   common `(node, round)`; the rendezvous node answers both senders when
//!   two identical edge identifiers collide.

use std::collections::BTreeSet;

use ncc_butterfly::{
    send_due, Butterfly, Lane, ScheduleProgram, ScheduleState, StageEnd, TreeBroadcast,
};
use ncc_hashing::FxHashMap;
use ncc_model::{Ctx, Envelope, ModelError, NodeId, NodeProgram};

// ---------------------------------------------------------------------------
// Gather-and-broadcast of a sparse identifier set
// ---------------------------------------------------------------------------

/// Per-node gather state.
#[derive(Debug, Default, Clone)]
pub struct GatherState {
    /// Pending values to forward toward the root (sorted, min first).
    queue: BTreeSet<u64>,
    /// At node 0: everything collected.
    collected: Vec<u64>,
}

/// The gather toward node 0 over the butterfly's binomial tree, queued
/// smallest-first.
pub struct GatherProgram {
    bf: Butterfly,
}

impl GatherProgram {
    fn parent(&self, alpha: u32) -> u32 {
        alpha & (alpha - 1) // clear lowest set bit
    }

    /// A node that emulates no column injects its values into its proxy
    /// column, one per round.
    fn inject(&self, st: &mut GatherState, ctx: &mut Ctx<'_, u64>) {
        if let Some(v) = st.queue.pop_first() {
            let proxy = self.bf.emulator(self.bf.proxy_column(ctx.id));
            ctx.send(proxy, v);
        }
        if !st.queue.is_empty() {
            ctx.stay_awake();
        }
    }
}

impl NodeProgram for GatherProgram {
    type State = GatherState;
    type Payload = u64;

    fn init(&self, st: &mut GatherState, ctx: &mut Ctx<'_, u64>) {
        if !self.bf.emulates(ctx.id) {
            self.inject(st, ctx);
        } else if !st.queue.is_empty() {
            ctx.stay_awake();
        }
    }

    fn round(&self, st: &mut GatherState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        if !self.bf.emulates(ctx.id) {
            return self.inject(st, ctx);
        }
        let alpha = self.bf.column_of(ctx.id);
        for env in inbox {
            if alpha == 0 {
                st.collected.push(env.payload);
            } else {
                st.queue.insert(env.payload);
            }
        }
        if alpha != 0 {
            if let Some(&v) = st.queue.iter().next() {
                st.queue.remove(&v);
                ctx.send(self.bf.emulator(self.parent(alpha)), v);
            }
            if !st.queue.is_empty() {
                ctx.stay_awake();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Edge rendezvous (§4 Stage 3)
// ---------------------------------------------------------------------------

/// Wire format of the rendezvous.
#[derive(Debug, Clone)]
pub enum RdvMsg {
    /// Edge-message: canonical edge id, sent by an endpoint.
    Probe(u64),
    /// Response: both endpoints sent the same id this round.
    Match(u64),
}

impl ncc_model::Payload for RdvMsg {
    fn bit_size(&self) -> u32 {
        match self {
            RdvMsg::Probe(v) | RdvMsg::Match(v) => 1 + ncc_model::payload::min_bits(*v),
        }
    }
}

/// Per-node rendezvous state.
#[derive(Debug, Default, Clone)]
pub struct RdvState {
    /// `(round, rendezvous node, edge id)`, sorted by round.
    probes: Vec<(u64, NodeId, u64)>,
    /// Edge ids confirmed to have both endpoints probing.
    matched: Vec<u64>,
}

/// The rendezvous program (§4 Stage 3).
pub struct RdvProgram {
    /// Extracts the two endpoints from a canonical edge id.
    id_bits: u32,
}

impl RdvProgram {
    fn endpoints(&self, edge_id: u64) -> (NodeId, NodeId) {
        (
            (edge_id >> self.id_bits) as NodeId,
            (edge_id & ((1 << self.id_bits) - 1)) as NodeId,
        )
    }
}

impl NodeProgram for RdvProgram {
    type State = RdvState;
    type Payload = RdvMsg;

    fn init(&self, st: &mut RdvState, ctx: &mut Ctx<'_, RdvMsg>) {
        st.probes.sort_by_key(|&(r, d, v)| (r, d, v));
        send_due(&mut st.probes, ctx, RdvMsg::Probe);
    }

    fn round(&self, st: &mut RdvState, inbox: &[Envelope<RdvMsg>], ctx: &mut Ctx<'_, RdvMsg>) {
        // count same-round probes per edge id
        let mut seen: FxHashMap<u64, u32> = FxHashMap::default();
        for env in inbox {
            match env.payload {
                RdvMsg::Probe(id) => *seen.entry(id).or_insert(0) += 1,
                RdvMsg::Match(id) => st.matched.push(id),
            }
        }
        for (id, count) in seen {
            if count >= 2 {
                let (a, b) = self.endpoints(id);
                ctx.send(a, RdvMsg::Match(id));
                ctx.send(b, RdvMsg::Match(id));
            }
        }
        send_due(&mut st.probes, ctx, RdvMsg::Probe);
    }
}

/// Per-node received `(source, value)` pairs from a scheduled exchange.
pub type ReceivedPerNode = Vec<Vec<(NodeId, u64)>>;

// ---------------------------------------------------------------------------
// The lanes (nodes of the algorithms' protocol DAGs)
// ---------------------------------------------------------------------------

/// A scheduled point-to-point exchange as a composable lane: one stage on
/// the engine's own randomness stream (the program draws none). Read the
/// per-node `(src, value)` pairs with [`Lane::into_results`].
pub type ScheduleSub = Lane<ScheduleProgram<u64>, ReceivedPerNode>;

/// Builds the scheduled-exchange sub-protocol: node `u` sends `value` to
/// `dst` in its chosen `round` for every `(round, dst, value)` in
/// `schedules[u]`; the result lists per node the `(src, value)` pairs
/// received. The caller is responsible for schedules that respect the
/// capacity bound w.h.p. (uniform rounds over a window ≥ load/log n).
///
/// `window: Some(w)` declares that every send is scheduled in rounds
/// `1..=w`, a window every node knows: the last message lands by round
/// `w`, so the stage runs at most `w + 1` rounds and ends on the clock
/// ([`StageEnd::Within`] that bound), not on a barrier. Panics on a round
/// outside the window. `None` ends the stage on a barrier.
pub fn schedule_sub(
    n: usize,
    schedules: Vec<Vec<(u64, NodeId, u64)>>,
    window: Option<u64>,
) -> ScheduleSub {
    assert_eq!(schedules.len(), n);
    let mut end = StageEnd::Barrier;
    if let Some(w) = window {
        for &(r, _, _) in schedules.iter().flatten() {
            assert!(
                (1..=w).contains(&r),
                "round {r} lies outside the window 1..={w}"
            );
        }
        end = StageEnd::Within(w + 1);
    }
    let states = schedules
        .into_iter()
        .map(|to_send| ScheduleState {
            to_send,
            received: Vec::new(),
        })
        .collect();
    let prog = ScheduleProgram {
        draw: None,
        key: |&v| v,
    };
    Lane::new(prog, states, |st| {
        st.into_iter().map(|s| s.received).collect()
    })
    .ending(end)
}

/// The §4 Stage 3 rendezvous as a composable lane: one stage. Read the
/// per-node matched edge ids with [`Lane::into_results`].
pub type RdvSub = Lane<RdvProgram, Vec<Vec<u64>>>;

/// Builds the rendezvous sub-protocol: each participating node probes
/// `(round, node)` pairs derived from shared hashes of its candidate edge
/// ids; when both endpoints of an edge probe the same node in the same
/// round, both get a `Match`. The result lists per node the matched edge
/// ids.
pub fn rendezvous_sub(n: usize, probes: Vec<Vec<(u64, NodeId, u64)>>, id_bits: u32) -> RdvSub {
    assert_eq!(probes.len(), n);
    let states = probes
        .into_iter()
        .map(|p| RdvState {
            probes: p,
            matched: Vec::new(),
        })
        .collect();
    Lane::new(RdvProgram { id_bits }, states, |st| {
        st.into_iter().map(|s| s.matched).collect()
    })
}

/// The gather toward node 0 as a composable lane: the `Some` values climb
/// the butterfly's binomial tree, queued smallest-first, and node 0 sorts
/// and dedups what it collected (node-local). Read node 0's list with
/// [`Lane::into_results`] and hand it to [`broadcast_sub`]. Together the
/// two are the gather-and-broadcast of §4 Stage 2: `O(k + log n)` rounds
/// for `k` values.
pub type GatherSub = Lane<GatherProgram, Vec<u64>>;

/// Builds the gather of the `Some` values toward node 0.
pub fn gather_sub(n: usize, values: Vec<Option<u64>>) -> GatherSub {
    assert!(n >= 2 && values.len() == n);
    let states = values
        .into_iter()
        .map(|v| GatherState {
            queue: v.into_iter().collect(),
            collected: Vec::new(),
        })
        .collect();
    Lane::new(
        GatherProgram {
            bf: Butterfly::for_n(n),
        },
        states,
        |mut st| {
            let root = std::mem::take(&mut st[0]);
            let mut collected = root.collected;
            collected.extend(root.queue);
            collected.sort_unstable();
            collected.dedup();
            collected
        },
    )
}

/// The pipelined broadcast of node 0's `list` back to every node, as a
/// composable lane over the seed agreement's [`TreeBroadcast`]. Read the
/// list with [`Lane::into_results`]: a node that missed a value — a
/// receive cap dropped its copy — fails it with
/// [`ModelError::WhpEventFailed`].
pub type BcastSub = Lane<TreeBroadcast<u64>, Result<Vec<u64>, ModelError>>;

/// Builds the broadcast of `list` from node 0.
pub fn broadcast_sub(n: usize, list: Vec<u64>) -> BcastSub {
    Lane::new(
        TreeBroadcast::new(n, list),
        vec![Vec::new(); n],
        |mut st| {
            for held in &mut st {
                held.sort_unstable();
            }
            match st.iter().all(|held| *held == st[0]) {
                true => Ok(st.swap_remove(0)),
                false => Err(ModelError::WhpEventFailed {
                    event: "every node hears the U_high broadcast",
                }),
            }
        },
    )
}

/// Canonical undirected edge id: `min ∘ max` packed with `id_bits` per node.
#[inline]
pub fn edge_id(u: NodeId, v: NodeId, id_bits: u32) -> u64 {
    let (a, b) = (u.min(v), u.max(v));
    ((a as u64) << id_bits) | b as u64
}

/// Directed arc id: `u ∘ v` packed with `id_bits` per endpoint.
#[inline]
pub fn arc_id(u: NodeId, v: NodeId, id_bits: u32) -> u64 {
    ((u as u64) << id_bits) | v as u64
}

/// Bits needed per node id in arc/edge encodings.
#[inline]
pub fn node_id_bits(n: usize) -> u32 {
    ncc_model::ilog2_ceil(n).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_butterfly::{run_alone, LaneSub};
    use ncc_model::{Capacity, Engine, ExecStats, NetConfig};

    /// The gather and then the broadcast: every node's list and the
    /// rounds of both.
    fn gather(eng: &mut Engine, values: Vec<Option<u64>>) -> (Vec<u64>, ExecStats) {
        let (list, mut stats) = run_alone(eng, gather_sub(eng.n(), values)).unwrap();
        let (got, bstats) = run_alone(eng, broadcast_sub(eng.n(), list)).unwrap();
        stats.merge(&bstats);
        (got.unwrap(), stats)
    }

    #[test]
    fn gather_broadcast_collects_sparse_set() {
        for n in [8usize, 21, 64] {
            let mut eng = Engine::new(NetConfig::new(n, 3));
            let mut values = vec![None; n];
            values[1] = Some(100);
            values[n - 1] = Some(7);
            values[n / 2] = Some(55);
            let (list, stats) = gather(&mut eng, values);
            assert_eq!(list, vec![7, 55, 100], "n={n}");
            assert!(stats.clean());
        }
    }

    #[test]
    fn gather_broadcast_includes_node_zero() {
        let n = 16;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let mut values = vec![None; n];
        values[0] = Some(42);
        let (list, _) = gather(&mut eng, values);
        assert_eq!(list, vec![42]);
    }

    #[test]
    fn gather_broadcast_empty() {
        let n = 16;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let (list, _) = gather(&mut eng, vec![None; n]);
        assert!(list.is_empty());
    }

    /// A send cap below the root's `d + 1` tree children and attached node
    /// truncates copies of every value, while the gather and the barriers
    /// still get through: the broadcast fails, typed, in every build,
    /// instead of handing on a partial list.
    #[test]
    fn a_broadcast_that_loses_a_value_fails_typed() {
        let n = 48;
        let cap = Capacity {
            send: 2,
            ..Capacity::default_for(n)
        };
        let mut eng = Engine::new(NetConfig::new(n, 42).with_capacity(cap).permissive());
        let mut values = vec![None; n];
        values[0] = Some(42);
        values[n - 1] = Some(7);
        let (list, _) = run_alone(&mut eng, gather_sub(n, values)).unwrap();
        assert_eq!(list, vec![7, 42]);
        match run_alone(&mut eng, broadcast_sub(n, list)).unwrap().0 {
            Err(ModelError::WhpEventFailed { event }) => {
                assert_eq!(event, "every node hears the U_high broadcast")
            }
            other => panic!("a broadcast that lost copies returned {other:?}"),
        }
    }

    #[test]
    fn gather_rounds_linear_in_k_plus_log() {
        let n = 128;
        let k = 30;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let mut values = vec![None; n];
        for i in 0..k {
            values[i * 4] = Some(i as u64);
        }
        let (list, stats) = gather(&mut eng, values);
        assert_eq!(list.len(), k);
        assert!(stats.rounds <= (k as u64) + 60, "rounds {}", stats.rounds);
    }

    #[test]
    fn schedule_sub_delivers() {
        let n = 16;
        let mut eng = Engine::new(NetConfig::new(n, 9));
        let mut schedules = vec![Vec::new(); n];
        schedules[3] = vec![(1, 7, 33), (2, 8, 34)];
        schedules[5] = vec![(1, 7, 55)];
        let sub = schedule_sub(n, schedules, None);
        let (recv, stats) = run_alone(&mut eng, sub).unwrap();
        let mut at7 = recv[7].clone();
        at7.sort_unstable();
        assert_eq!(at7, vec![(3, 33), (5, 55)]);
        assert_eq!(recv[8], vec![(3, 34)]);
        assert!(stats.clean());
    }

    #[test]
    fn within_declares_the_window_as_the_stage_bound() {
        let n = 16;
        let mut schedules = vec![Vec::new(); n];
        schedules[3] = vec![(1, 7, 33), (2, 8, 34)];
        assert_eq!(
            schedule_sub(n, schedules.clone(), None).stage_end(),
            StageEnd::Barrier
        );
        let sub = schedule_sub(n, schedules, Some(2));
        assert_eq!(sub.stage_end(), StageEnd::Within(3));
        // the last message lands in round 2: three rounds, the bound
        let eng = &mut Engine::new(NetConfig::new(n, 9));
        let (_, stats) = run_alone(eng, sub).unwrap();
        assert_eq!(stats.rounds, 3);
    }

    #[test]
    #[should_panic(expected = "round 2 lies outside the window 1..=1")]
    fn within_rejects_a_round_outside_the_window() {
        let mut schedules = vec![Vec::new(); 8];
        schedules[5] = vec![(1, 2, 9), (2, 3, 9)];
        let _ = schedule_sub(8, schedules, Some(1));
    }

    /// How each single-stage primitive's lane ends.
    #[test]
    fn single_stage_lanes_pin_their_stage_end() {
        use ncc_butterfly::{
            ab_sub, multicast_setup_sub, multicast_sub, GroupId, MinU64, MulticastTrees,
        };
        use ncc_hashing::SharedRandomness;
        let n = 8;
        let shared = SharedRandomness::new(1);
        let trees = MulticastTrees {
            d: 3,
            n,
            leaves: Vec::new(),
            in_edges: Vec::new(),
        };
        let sends = || vec![vec![(2, 1, 9)]; n];
        let table = [
            (
                "ab",
                ab_sub(n, vec![Some(1u64); n], &MinU64).stage_end(),
                StageEnd::SelfSync,
            ),
            (
                "multicast",
                multicast_sub::<u64>(n, &shared, &trees, vec![None; n], 1, 7).stage_end(),
                StageEnd::Barrier,
            ),
            (
                "tree setup",
                multicast_setup_sub(n, &shared, vec![vec![(GroupId::new(0, 0), 0)]; n], 7)
                    .stage_end(),
                StageEnd::Barrier,
            ),
            (
                "rendezvous",
                rendezvous_sub(n, sends(), 3).stage_end(),
                StageEnd::Barrier,
            ),
            (
                "schedule",
                schedule_sub(n, sends(), None).stage_end(),
                StageEnd::Barrier,
            ),
            (
                "schedule within 2",
                schedule_sub(n, sends(), Some(2)).stage_end(),
                StageEnd::Within(3),
            ),
        ];
        for (name, got, want) in table {
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn rendezvous_matches_pairs_only() {
        let n = 32;
        let idb = node_id_bits(n);
        let mut eng = Engine::new(NetConfig::new(n, 13));
        let mut probes = vec![Vec::new(); n];
        // edge {2, 9}: both endpoints probe node 20 in round 1 → match
        let e29 = edge_id(2, 9, idb);
        probes[2].push((1, 20, e29));
        probes[9].push((1, 20, e29));
        // edge {4, 11}: only node 4 probes → no match
        let e411 = edge_id(4, 11, idb);
        probes[4].push((1, 21, e411));
        // edge {5, 6}: endpoints probe the same node in DIFFERENT rounds → no match
        let e56 = edge_id(5, 6, idb);
        probes[5].push((1, 22, e56));
        probes[6].push((2, 22, e56));
        let sub = rendezvous_sub(n, probes, idb);
        let (matched, _) = run_alone(&mut eng, sub).unwrap();
        assert_eq!(matched[2], vec![e29]);
        assert_eq!(matched[9], vec![e29]);
        assert!(matched[4].is_empty());
        assert!(matched[5].is_empty());
        assert!(matched[6].is_empty());
    }

    #[test]
    fn edge_and_arc_ids() {
        let idb = node_id_bits(100);
        assert_eq!(edge_id(9, 2, idb), edge_id(2, 9, idb));
        assert_ne!(arc_id(9, 2, idb), arc_id(2, 9, idb));
        let e = edge_id(2, 9, idb);
        assert_eq!((e >> idb) as u32, 2);
        assert_eq!((e & ((1 << idb) - 1)) as u32, 9);
    }
}
