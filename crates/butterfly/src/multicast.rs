//! The Multicast Algorithm (Theorem 2.5, Appendix B.4).
//!
//! With multicast trees already set up (Theorem 2.4), every source `s_i`
//! delivers its packet `p_i` to all members of its group `A_i` in
//! `O(C + ℓ̂/log n + log n)` rounds, where `C` is the tree congestion and
//! `ℓ̂` a known bound on group memberships per node:
//!
//! 1. each source sends `p_i` directly to the root `h(i)` (one NCC message);
//! 2. **spreading** — packets travel down the recorded tree edges from
//!    level `d` to level 0 (the reverse of the combining-phase routing,
//!    under the same contention rule: see [`RouteQueue`]); a packet is
//!    *copied* onto every recorded child edge;
//! 3. leaves `l(i, u)` deliver `p_i` to their members `u` in rounds chosen
//!    uniformly from the `⌈ℓ̂/log n⌉` rounds after the packet reached them.
//!
//! All three run in the same rounds of one program — the [`MulticastSub`]
//! lane, one stage and one [`sync_barrier`](crate::aggregation::sync_barrier).
//! [`multicast`] drives that lane alone; algorithms pack it next to others
//! in a [`Dag`](crate::compose::Dag). The spread has one implementation,
//! `TreeSpread`, shared with two fronts of the combining pipeline:
//! Multi-Aggregation's [`SpreadFront`](crate::aggregation::SpreadFront),
//! where each leaf arrival is re-keyed and scattered instead of
//! delivered, and the member-fired combine's
//! [`MulticastFront`](crate::aggregation::MulticastFront), which runs
//! spread *and* delivery as here and lets each member fire on its copy.
//! All of them borrow the [`MulticastTrees`] and read a column's recorded
//! edges and leaves there, so starting a multicast copies none of it.

use ncc_hashing::SharedRandomness;
use ncc_model::{Ctx, Engine, Envelope, ExecStats, ModelError, NodeId, NodeProgram, Payload};
use rand::Rng;

use crate::aggregation::{delivery_window, GroupedDeliveries, LevelMsg, PacketMsg, RouteHashes};
use crate::compose::{lane_seed, Lane};
use crate::mctree::MulticastTrees;
use crate::queue::{LevelOrder, Route, RouteQueue};
use crate::schedule::run_alone;
use crate::topology::{Butterfly, GroupId};

// ---------------------------------------------------------------------------
// Spreading phase (shared with multi-aggregation)
// ---------------------------------------------------------------------------

/// Per-node state for the downward spreading phase. The column's share of
/// the recorded forest is not copied here: the spreading programs hold the
/// [`MulticastTrees`] and read column `α`'s maps there.
pub struct SpreadState<V> {
    /// Packets waiting at level `i + 1` (queue level `i`, so levels
    /// `1..=d`) to traverse the down-edge to the straight (`dir` 0) or
    /// cross (`dir` 1) child.
    pub(crate) queue: RouteQueue<V>,
    /// `(group, member, value)` reaching level-0 leaves here.
    pub(crate) at_leaves: Vec<(u64, NodeId, V)>,
    /// If this node is a source: packet to fire at the root in round 0.
    pub(crate) source_packet: Option<(u64, V)>,
}

/// A packet arrives at `(level, α)`: copy it onto every recorded child
/// edge, or register leaf arrivals at level 0 (pushed to `at_leaves`).
pub(crate) fn spread_arrive<V: Payload>(
    trees: &MulticastTrees,
    st: &mut SpreadState<V>,
    alpha: u32,
    level: u32,
    group: u64,
    route: Route,
    value: V,
) {
    if level == 0 {
        if let Some(members) = trees.leaves[alpha as usize].get(&group) {
            for &m in members {
                st.at_leaves.push((group, m, value.clone()));
            }
        }
        return;
    }
    let Some(&(straight, cross)) = trees.in_edges[alpha as usize][level as usize - 1].get(&group)
    else {
        return; // no members below this tree node
    };
    let newer = |waiting: &mut V, new: V| *waiting = new;
    if straight {
        st.queue
            .insert(level - 1, 0, route, group, value.clone(), newer);
    }
    if cross {
        st.queue.insert(level - 1, 1, route, group, value, newer);
    }
}

/// One spreading step at column `alpha`: forward one packet per down-edge
/// (levels bottom-up, see [`LevelOrder`]); cross-edge traffic goes through
/// `emit`. Each emitted message debits `budget`; once it hits zero the
/// remaining queues wait for the next round (pass `usize::MAX` for the
/// unpaced solo-instance behaviour).
pub(crate) fn spread_step<V: Payload>(
    bf: &Butterfly,
    trees: &MulticastTrees,
    st: &mut SpreadState<V>,
    alpha: u32,
    budget: &mut usize,
    emit: &mut impl FnMut(NodeId, LevelMsg<V>),
) {
    for (below, dir) in st.queue.waiting(LevelOrder::Ascending) {
        if *budget == 0 {
            return;
        }
        let (route, group, value) = st.queue.pop_min(below, dir).expect("a waiting queue pops");
        if dir == 0 {
            spread_arrive(trees, st, alpha, below, group, route, value);
        } else {
            *budget -= 1;
            emit(
                bf.emulator(alpha ^ (1 << below)),
                LevelMsg {
                    level: below as u8,
                    group,
                    route,
                    value,
                },
            );
        }
    }
}

/// Per-node spreading states: empty queues, and the sources' packets.
pub(crate) fn spread_states<V: Payload>(
    messages: Vec<Option<(GroupId, V)>>,
) -> Vec<SpreadState<V>> {
    messages
        .into_iter()
        .map(|msg| SpreadState {
            queue: RouteQueue::default(),
            at_leaves: Vec::new(),
            source_packet: msg.map(|(g, v)| (g.raw(), v)),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Spread and leaf delivery (shared with the member-fired combine)
// ---------------------------------------------------------------------------

/// Per-node state of a spread that delivers at its leaves.
pub struct SpreadDeliverState<V, R> {
    pub(crate) spread: SpreadState<V>,
    /// `(due round, member, group, value)` — leaf deliveries in flight.
    scheduled: Vec<(u64, NodeId, u64, V)>,
    /// What this node got as a member: the copies themselves (the
    /// multicast), or how many copies it fired on (the member-fired
    /// combine).
    pub(crate) got: R,
}

impl<V, R> SpreadDeliverState<V, R> {
    /// `true` while packets wait to spread or deliveries are due.
    pub(crate) fn busy(&self) -> bool {
        !self.spread.queue.is_empty() || !self.scheduled.is_empty()
    }
}

/// Per-node spread-and-deliver states: empty queues, the sources'
/// packets, nothing got yet.
pub(crate) fn spread_deliver_states<V: Payload, R: Default>(
    messages: Vec<Option<(GroupId, V)>>,
) -> Vec<SpreadDeliverState<V, R>> {
    spread_states(messages)
        .into_iter()
        .map(|spread| SpreadDeliverState {
            spread,
            scheduled: Vec::new(),
            got: R::default(),
        })
        .collect()
}

/// The tree spread of Theorem 2.5 at one node, for every program that
/// spreads down the recorded trees: the multicast, Multi-Aggregation's
/// [`SpreadFront`](crate::aggregation::SpreadFront) and the member-fired
/// combine's [`MulticastFront`](crate::aggregation::MulticastFront).
#[derive(Clone, Copy)]
pub(crate) struct TreeSpread<'a> {
    pub(crate) bf: Butterfly,
    pub(crate) trees: &'a MulticastTrees,
}

impl TreeSpread<'_> {
    /// Round 0: a source sends its packet to its tree's root `h(group)`
    /// on level `d` (step 1 of Theorem 2.5), wrapped for the wire by
    /// `wrap`; a node that sources no group sends nothing.
    pub(crate) fn fire<V: Payload, M: Payload>(
        &self,
        hashes: &RouteHashes,
        st: &mut SpreadState<V>,
        ctx: &mut Ctx<'_, M>,
        wrap: fn(LevelMsg<V>) -> M,
    ) {
        if let Some((group, value)) = st.source_packet.take() {
            let (route, level) = (hashes.route(group), self.bf.d() as u8);
            let msg = LevelMsg {
                level,
                group,
                route,
                value,
            };
            ctx.send(self.bf.emulator(route.target), wrap(msg));
        }
    }

    /// A spreading packet arrives at node `me`'s column.
    pub(crate) fn arrive<V: Payload>(&self, st: &mut SpreadState<V>, me: NodeId, m: &LevelMsg<V>) {
        debug_assert!(self.bf.emulates(me), "routing reaches emulators only");
        let (alpha, level, value) = (self.bf.column_of(me), m.level as u32, m.value.clone());
        spread_arrive(self.trees, st, alpha, level, m.group, m.route, value);
    }

    /// One spreading step at an emulator's column ([`spread_step`]), its
    /// cross-edge sends wrapped by `wrap`.
    pub(crate) fn spread<V: Payload, M: Payload>(
        &self,
        st: &mut SpreadState<V>,
        budget: &mut usize,
        ctx: &mut Ctx<'_, M>,
        wrap: fn(LevelMsg<V>) -> M,
    ) {
        let alpha = self.bf.column_of(ctx.id);
        let mut emit = |dst, msg| ctx.send(dst, wrap(msg));
        spread_step(&self.bf, self.trees, st, alpha, budget, &mut emit);
    }

    /// One round of spread and delivery at an emulator's column, streamed:
    /// spread one packet per down-edge, schedule every fresh leaf arrival
    /// for delivery in a uniformly random round of the next
    /// `window = ⌈ℓ̂/log n⌉` rounds — the paper's load-smoothing rule, with
    /// no barrier between spreading and delivery — and send the due
    /// deliveries in scheduling order (deterministic). Every send debits
    /// `budget`; a due delivery that finds it spent waits a round.
    pub(crate) fn deliver<V: Payload, R, M: Payload>(
        &self,
        st: &mut SpreadDeliverState<V, R>,
        window: u64,
        budget: &mut usize,
        ctx: &mut Ctx<'_, M>,
        route: fn(LevelMsg<V>) -> M,
        deliver: fn(PacketMsg<V>) -> M,
    ) {
        self.spread(&mut st.spread, budget, ctx, route);
        // delay 1 = this round's send
        for (group, member, value) in st.spread.at_leaves.drain(..) {
            let due = ctx.round + ctx.rng().gen_range(1..=window) - 1;
            st.scheduled.push((due, member, group, value));
        }
        // one O(k) pass: sends move out, survivors are re-collected in order
        let now = ctx.round;
        let pending = std::mem::take(&mut st.scheduled);
        st.scheduled = pending
            .into_iter()
            .filter_map(|(due, member, group, value)| {
                if due <= now && *budget > 0 {
                    *budget -= 1;
                    ctx.send(member, deliver(PacketMsg { group, value }));
                    None
                } else {
                    Some((due, member, group, value))
                }
            })
            .collect();
    }
}

// ---------------------------------------------------------------------------
// The multicast program and its lane-composable sub-protocol
// ---------------------------------------------------------------------------

/// Wire format of the multicast pipeline: tree routing + leaf delivery
/// in one program.
#[derive(Debug, Clone)]
pub enum McMsg<V> {
    /// A packet spreading down its tree.
    Route(LevelMsg<V>),
    /// A leaf delivering a packet to a member.
    Deliver(PacketMsg<V>),
}

impl<V: Payload> Payload for McMsg<V> {
    fn bit_size(&self) -> u32 {
        1 + match self {
            McMsg::Route(m) => m.bit_size(),
            McMsg::Deliver(m) => m.bit_size(),
        }
    }
}

/// The Multicast pipeline (Theorem 2.5, streamed): sources fire at the
/// roots in round 0, then `TreeSpread::deliver` spreads and delivers;
/// a member keeps its copies.
pub struct SpreadDeliverProgram<'a, V> {
    spread: TreeSpread<'a>,
    hashes: RouteHashes,
    window: u64,
    _pd: std::marker::PhantomData<V>,
}

/// Per-node state of the multicast: the copies a member received.
type McState<V> = SpreadDeliverState<V, Vec<(GroupId, V)>>;

impl<V: Payload> NodeProgram for SpreadDeliverProgram<'_, V> {
    type State = McState<V>;
    type Payload = McMsg<V>;

    fn init(&self, st: &mut McState<V>, ctx: &mut Ctx<'_, McMsg<V>>) {
        self.spread
            .fire(&self.hashes, &mut st.spread, ctx, McMsg::Route);
    }

    fn round(
        &self,
        st: &mut McState<V>,
        inbox: &[Envelope<McMsg<V>>],
        ctx: &mut Ctx<'_, McMsg<V>>,
    ) {
        for env in inbox {
            match &env.payload {
                McMsg::Deliver(p) => st.got.push((GroupId(p.group), p.value.clone())),
                McMsg::Route(m) => self.spread.arrive(&mut st.spread, ctx.id, m),
            }
        }
        if !self.spread.bf.emulates(ctx.id) {
            return; // members only ever receive Deliver messages
        }
        let mut unpaced = usize::MAX;
        let (route, deliver) = (McMsg::Route, McMsg::Deliver);
        self.spread
            .deliver(st, self.window, &mut unpaced, ctx, route, deliver);
        if st.busy() {
            ctx.stay_awake();
        }
    }
}

/// Multicast as a composable lane: one stage (spread + smoothed leaf
/// delivery) on its own randomness stream. Build with [`multicast_sub`],
/// run with [`run_alone`] or as a DAG node, read the per-node
/// `(group, payload)` deliveries with [`Lane::into_results`].
pub type MulticastSub<'a, V> = Lane<SpreadDeliverProgram<'a, V>, GroupedDeliveries<V>>;

/// Builds the multicast sub-protocol over previously set-up trees.
/// Arguments mirror [`multicast`]; `lane_seed` keys the lane's private
/// randomness stream (delivery-round draws).
pub fn multicast_sub<'a, V: Payload>(
    n: usize,
    shared: &SharedRandomness,
    trees: &'a MulticastTrees,
    messages: Vec<Option<(GroupId, V)>>,
    ell_hat: usize,
    lane_seed: u64,
) -> MulticastSub<'a, V> {
    assert_eq!(messages.len(), n);
    let bf = Butterfly::for_n(n);
    let prog = SpreadDeliverProgram {
        spread: TreeSpread { bf, trees },
        hashes: RouteHashes::new(shared, &bf, n),
        window: delivery_window(n, ell_hat),
        _pd: std::marker::PhantomData,
    };
    Lane::new(prog, spread_deliver_states(messages), |st| {
        st.into_iter().map(|s| s.got).collect()
    })
    .seeded(lane_seed)
}

/// Runs the Multicast Algorithm over previously set-up trees.
///
/// `messages[u]` is `Some((group, payload))` iff node `u` is the source of
/// `group`. `ell_hat` is the known bound on group memberships per node.
/// Returns, per node, the multicast packets it received as a member.
///
/// Blocking wrapper: one [`MulticastSub`] under [`run_alone`].
pub fn multicast<V: Payload>(
    engine: &mut Engine,
    shared: &SharedRandomness,
    trees: &MulticastTrees,
    messages: Vec<Option<(GroupId, V)>>,
    ell_hat: usize,
) -> Result<(GroupedDeliveries<V>, ExecStats), ModelError> {
    let seed = lane_seed(engine, 0x6d63_7374 /* "mcst" */, 0);
    let sub = multicast_sub(engine.n(), shared, trees, messages, ell_hat, seed);
    run_alone(engine, sub, MulticastSub::into_results)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index several parallel per-node arrays
mod tests {
    use super::*;
    use crate::mctree::{multicast_setup, self_joins};
    use ncc_model::NetConfig;

    fn run(
        n: usize,
        joins: Vec<Vec<GroupId>>,
        messages: Vec<Option<(GroupId, u64)>>,
        ell_hat: usize,
    ) -> (Vec<Vec<(GroupId, u64)>>, ExecStats) {
        let mut eng = Engine::new(NetConfig::new(n, 17));
        let shared = SharedRandomness::new(23);
        let (trees, _) = multicast_setup(&mut eng, &shared, self_joins(joins)).unwrap();
        multicast(&mut eng, &shared, &trees, messages, ell_hat).unwrap()
    }

    #[test]
    fn one_source_many_members() {
        let n = 64;
        let g = GroupId::new(7, 0);
        let members = [2usize, 9, 31, 40, 63];
        let mut joins = vec![Vec::new(); n];
        for &m in &members {
            joins[m].push(g);
        }
        let mut messages = vec![None; n];
        messages[7] = Some((g, 0xCAFE));
        let (out, stats) = run(n, joins, messages, 1);
        for v in 0..n {
            if members.contains(&v) {
                assert_eq!(out[v], vec![(g, 0xCAFE)], "node {v}");
            } else {
                assert!(out[v].is_empty(), "node {v} got {:?}", out[v]);
            }
        }
        assert!(stats.clean());
    }

    #[test]
    fn many_concurrent_multicasts() {
        // every node sources a group; node u joins groups of u−1, u+1 (ring)
        let n = 32;
        let mut joins = vec![Vec::new(); n];
        let mut messages = vec![None; n];
        for u in 0..n {
            let left = GroupId::new(((u + n - 1) % n) as u32, 4);
            let right = GroupId::new(((u + 1) % n) as u32, 4);
            joins[u].push(left);
            joins[u].push(right);
            messages[u] = Some((GroupId::new(u as u32, 4), 1000 + u as u64));
        }
        let (out, stats) = run(n, joins, messages, 2);
        for u in 0..n {
            let mut got = out[u].clone();
            got.sort_by_key(|(g, _)| g.raw());
            let l = ((u + n - 1) % n) as u32;
            let r = ((u + 1) % n) as u32;
            let mut expect = vec![
                (GroupId::new(l, 4), 1000 + l as u64),
                (GroupId::new(r, 4), 1000 + r as u64),
            ];
            expect.sort_by_key(|(g, _)| g.raw());
            assert_eq!(got, expect, "node {u}");
        }
        assert!(stats.clean());
    }

    #[test]
    fn source_without_members_delivers_nothing() {
        let n = 16;
        let g = GroupId::new(0, 1);
        let joins = vec![Vec::new(); n];
        let mut messages = vec![None; n];
        messages[0] = Some((g, 5));
        let (out, _) = run(n, joins, messages, 1);
        assert!(out.iter().all(Vec::is_empty));
    }

    #[test]
    fn rounds_scale_with_congestion_plus_log() {
        // broadcast-tree-like load: n/8 groups of 8 members each
        let n = 128;
        let mut joins = vec![Vec::new(); n];
        let mut messages = vec![None; n];
        for u in 0..n {
            joins[u].push(GroupId::new((u % (n / 8)) as u32, 0));
        }
        for s in 0..(n / 8) as u32 {
            messages[s as usize] = Some((GroupId::new(s, 0), s as u64));
        }
        let (out, stats) = run(n, joins, messages, 1);
        let delivered: usize = out.iter().map(Vec::len).sum();
        assert_eq!(delivered, n);
        // C = O(log n) here, so total O(log n); allow a generous constant
        assert!(stats.rounds < 30 * 7, "rounds {}", stats.rounds);
        assert!(stats.clean());
    }
}
