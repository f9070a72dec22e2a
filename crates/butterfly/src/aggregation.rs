//! The Aggregation Algorithm (Theorem 2.3, Appendix B.2).
//!
//! Aggregates the inputs of arbitrary *aggregation groups* to their targets
//! in `O(L/n + (ℓ₁ + ℓ̂₂)/log n + log n)` rounds w.h.p., where `L` is the
//! global load (total memberships), `ℓ₁` the maximum memberships per node
//! and `ℓ̂₂` a known bound on targets per node.
//!
//! One pipeline, run as two chained lanes ([`Dag::combine`]), each stage
//! followed by one synchronisation:
//!
//! 1. **Scatter + combine** — every node sends its packets
//!    `(group, value)` in batches of `⌈log n⌉` per round to uniformly
//!    random level-0 columns, and in the same rounds the random-rank
//!    routing protocol of Aleliunas/Upfal \[1, 57\] moves the packets that
//!    already landed level by level toward `h(group)` on the bottom level
//!    (bit-fixing paths; the routing analysis covers continuous injection).
//!    Packets of the same group that collide on a butterfly node
//!    **combine** via the distributive aggregate; packets of different
//!    groups contending for one butterfly edge wait in the column's
//!    [`RouteQueue`], which holds the contention rule.
//!    No node can tell locally that the combine is done, so the stage
//!    ends on a [`sync_barrier`] (App. B.1 synchronisation). Its lane
//!    hands each node's finished aggregates to the next ([`Handover`]).
//! 2. **Postprocessing** — each level-`d` node delivers every finished
//!    group aggregate to its target in a round chosen uniformly from
//!    `{1..⌈ℓ̂₂/log n⌉}`, smoothing the receive load
//!    ([`ScheduleProgram`], the program of `ncc-core`'s scheduled
//!    exchange too). Every node knows from ℓ̂₂ and `n` when the last
//!    delivery lands, so the stage ends on the clock
//!    ([`StageEnd::Within`]): a pad of idle rounds to that bound, or the
//!    barrier when it is sooner.
//!
//! [`aggregate`] declares that chain alone in a [`Dag`]; algorithms
//! declare the same chain next to other lanes in a larger one.
//!
//! Multi-Aggregation (Theorem 2.6, [`multi_aggregate`]) runs the same
//! combining network, and so does the member-fired combine
//! ([`multicast_aggregate_sub`]). All three build one [`CombineLane`]:
//! one program, generic over its [`Front`], what feeds the scatter
//! besides a node's own memberships. Aggregation's front is `()`,
//! nothing; Multi-Aggregation's is the tree spreading of
//! [`multicast`](mod@crate::multicast) ([`SpreadFront`]), whose leaf
//! arrivals are re-keyed to their members and scattered in the same
//! rounds; the member-fired combine's is the whole multicast
//! ([`MulticastFront`]), whose members fire on their copies. Besides the
//! front, only the delivery window (`⌈ℓ̂₂/log n⌉` rounds; one for
//! Multi-Aggregation) and the output shape ([`Front::Out`]) differ. There
//! is no second implementation. Front, scatter and combine share the
//! lane's send budget ([`Lane::paced`]), so packed lanes never overdraw
//! the node capacity.
//!
//! Group targets are encoded in the group identifier ([`GroupId`]), mirroring
//! the paper's content-addressed group names (`A_{id(w)∘i}`).
//!
//! This module also hosts **Aggregate-and-Broadcast** (Theorem 2.2) — the
//! `O(log n)` whole-network aggregate whose execution doubles as the
//! [`sync_barrier`] between stages — so every aggregation-style entry
//! point lives behind one path.

use std::collections::BTreeMap;

use ncc_hashing::shared::labels;
use ncc_hashing::{PolyHash, SharedRandomness};
use ncc_model::rng::derive_seed;
use ncc_model::{Ctx, Engine, Envelope, ExecStats, ModelError, NodeId, NodeProgram, Payload};
use rand::Rng;

use crate::combine::{Aggregate, MinU64};
use crate::compose::{lane_seed, Built, Dag, Dep, Deps, Lane, ProtoNode, StageEnd};
use crate::mctree::MulticastTrees;
use crate::multicast::{
    spread_deliver_states, spread_states, SpreadDeliverState, SpreadState, TreeSpread,
};
use crate::queue::{LevelOrder, Route, RouteQueue};
use crate::topology::{Butterfly, GroupId};

/// Per-node delivery lists: for each node, the `(group, value)` pairs it
/// received as a target/member.
pub type GroupedDeliveries<V> = Vec<Vec<(GroupId, V)>>;

/// Inputs to one aggregation run.
#[derive(Debug, Clone)]
pub struct AggregationSpec<V> {
    /// Per node: `(group, input)` for every group the node is a member of.
    pub memberships: Vec<Vec<(GroupId, V)>>,
    /// Known upper bound `ℓ̂₂` on the number of groups any node is target of.
    pub ell2_hat: usize,
}

/// Hash plumbing shared by the routing programs (derived from the agreed
/// shared randomness, so every node computes identical values locally).
#[derive(Debug, Clone)]
pub struct RouteHashes {
    target_fn: PolyHash,
    rank_fn: PolyHash,
    pub(crate) columns: u64,
    /// Random-rank contention (the paper's protocol). `false` degrades to a
    /// static priority (rank ≡ 0, ties by group id) — the E17 ablation.
    pub(crate) random_ranks: bool,
}

impl RouteHashes {
    pub(crate) fn new(shared: &SharedRandomness, bf: &Butterfly, n: usize) -> Self {
        let k = SharedRandomness::k_for(n);
        RouteHashes {
            target_fn: shared.poly(labels::AGG_TARGET, 0, k),
            rank_fn: shared.poly(labels::AGG_RANK, 0, k),
            columns: bf.columns() as u64,
            random_ranks: true,
        }
    }

    /// Evaluates group `g`'s [`Route`]: two degree-`Θ(log n)` polynomials.
    /// Called once per packet, where it enters the butterfly (level-0
    /// insert, scatter, source injection); every later hop reads the pair
    /// the packet carries.
    pub(crate) fn route(&self, g: u64) -> Route {
        Route {
            target: self.target_fn.to_range(g, self.columns) as u32,
            rank: if self.random_ranks {
                self.rank_fn.to_range(g, 1 << 32) as u32 // < 2³²: lossless
            } else {
                0
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Wire formats
// ---------------------------------------------------------------------------

/// A packet delivered point to point: a group id and its value.
#[derive(Debug, Clone)]
pub struct PacketMsg<V> {
    pub(crate) group: u64,
    pub(crate) value: V,
}

impl<V: Payload> Payload for PacketMsg<V> {
    fn bit_size(&self) -> u32 {
        2 + ncc_model::payload::min_bits(self.group) + self.value.bit_size()
    }
}

/// A packet on a butterfly edge: the combining network's wire format, and
/// the tree spread's.
#[derive(Debug, Clone)]
pub struct LevelMsg<V> {
    /// Level of the butterfly node this packet is arriving at.
    pub(crate) level: u8,
    pub(crate) group: u64,
    /// `group`'s route, carried uncharged (see [`Route`]).
    pub(crate) route: Route,
    pub(crate) value: V,
}

impl<V> LevelMsg<V> {
    /// A packet of `group` carrying `value`. Its [`Payload::bit_size`] is
    /// what each of its hops costs, so admission sizes messages with it.
    pub fn of(group: GroupId, value: V) -> Self {
        let route = Route { target: 0, rank: 0 };
        LevelMsg {
            level: 0,
            group: group.raw(),
            route,
            value,
        }
    }
}

impl<V: Payload> Payload for LevelMsg<V> {
    fn bit_size(&self) -> u32 {
        6 + ncc_model::payload::min_bits(self.group) + self.value.bit_size()
    }
}

// ---------------------------------------------------------------------------
// The combine lane: scatter + combine (random-rank routing with in-network combining)
// ---------------------------------------------------------------------------

pub(crate) struct CombineState<V> {
    /// Packets waiting at `(i, α)` to traverse the edge to level `i+1`;
    /// same-group packets that meet combine.
    pub queue: RouteQueue<V>,
    /// Finished aggregates at level `d` (this column is `h(group)`).
    pub arrived: BTreeMap<u64, V>,
}

impl<V> Default for CombineState<V> {
    fn default() -> Self {
        CombineState {
            queue: RouteQueue::default(),
            arrived: BTreeMap::new(),
        }
    }
}

/// Inserts `value` under `key`, combining with the entry already there.
fn merge_into<V: Payload, A: Aggregate<V>>(
    map: &mut BTreeMap<u64, V>,
    key: u64,
    value: V,
    agg: &A,
) {
    map.entry(key)
        .and_modify(|there| *there = agg.combine(there, &value))
        .or_insert(value);
}

/// Inserts a packet at `(level, α)`, combining with a same-group packet
/// already queued there.
#[allow(clippy::too_many_arguments)] // mirrors the packet coordinates
pub(crate) fn combine_insert<V: Payload, A: Aggregate<V>>(
    bf: &Butterfly,
    agg: &A,
    st: &mut CombineState<V>,
    alpha: u32,
    level: u32,
    group: u64,
    route: Route,
    value: V,
) {
    if level == bf.d() {
        merge_into(&mut st.arrived, group, value, agg);
        return;
    }
    let dir = bf.route_is_cross(alpha, level, route.target) as usize;
    st.queue
        .insert(level, dir, route, group, value, |waiting, new| {
            *waiting = agg.combine(waiting, &new)
        });
}

/// One routing step at column `alpha`: every queue forwards its
/// minimum-rank packet (levels top-down, see [`LevelOrder`]); cross-edge
/// traffic goes through `emit`.
pub(crate) fn combine_step<V: Payload, A: Aggregate<V>>(
    bf: &Butterfly,
    agg: &A,
    st: &mut CombineState<V>,
    alpha: u32,
    budget: &mut usize,
    emit: &mut impl FnMut(ncc_model::NodeId, LevelMsg<V>),
) {
    for (level, dir) in st.queue.waiting(LevelOrder::Descending) {
        if *budget == 0 {
            return;
        }
        let (route, group, value) = st.queue.pop_min(level, dir).expect("a waiting queue pops");
        if dir == 0 {
            // straight edge: stays on this node
            combine_insert(bf, agg, st, alpha, level + 1, group, route, value);
        } else {
            *budget -= 1;
            emit(
                bf.emulator(alpha ^ (1 << level)),
                LevelMsg {
                    level: (level + 1) as u8,
                    group,
                    route,
                    value,
                },
            );
        }
    }
}

/// What feeds a combining pipeline's scatter besides a node's own
/// memberships. Aggregation has nothing in front (`()`, wire type
/// [`LevelMsg<W>`]); Multi-Aggregation has the tree spread, re-keyed at
/// the leaves ([`SpreadFront`], wire type [`MaMsg<V, W>`]); the
/// member-fired combine has the whole multicast, fired at the members
/// ([`MulticastFront`], wire type [`McAggMsg<V, W>`]).
pub trait Front<W>: Sync {
    /// Per-node state of the front.
    type State: Send + 'static;
    /// The pipeline's wire type: combining packets plus the front's own.
    type Msg: Payload;
    /// What the lane hands back per node.
    type Out: Send + 'static;
    /// What a node keeps of its front's final state for its output.
    type Kept: Send + 'static;
    /// Takes what a node keeps of its front's final state for the
    /// [`Handover`], as the combine lane is collected (the rest is freed
    /// then).
    fn keep(st: Self::State) -> Self::Kept;
    /// Shapes a node's output from what its front kept and what it
    /// received in the delivery, as the delivery lane is collected.
    fn out(kept: Self::Kept, received: Vec<(GroupId, W)>) -> Self::Out;
    /// Wraps a combining packet for the wire.
    fn agg(m: LevelMsg<W>) -> Self::Msg;
    /// Takes an arrival at node `me`, emulator or not: keeps the front's
    /// own traffic (packets `me` fires go to its scatter queue,
    /// `to_send`), hands back a combining packet.
    fn arrive<'m>(
        &self,
        st: &mut Self::State,
        me: NodeId,
        m: &'m Self::Msg,
        to_send: &mut Vec<(GroupId, W)>,
    ) -> Option<&'m LevelMsg<W>>;
    /// Round 0 on every node, before its first scatter. Default: nothing.
    fn init(&self, _: &mut Self::State, _: &RouteHashes, _: &mut Ctx<'_, Self::Msg>) {}
    /// One step at an emulator's column, before the scatter: every send
    /// debits `budget`, and packets to scatter are pushed to `to_send`.
    /// Default: nothing.
    fn step(
        &self,
        _: &mut Self::State,
        _: &mut usize,
        _: &mut Vec<(GroupId, W)>,
        _: &mut Ctx<'_, Self::Msg>,
    ) {
    }
    /// `true` while the front has traffic queued. Default: never.
    fn busy(_st: &Self::State) -> bool {
        false
    }
}

impl<W: Payload> Front<W> for () {
    type State = ();
    type Msg = LevelMsg<W>;
    type Out = Vec<(GroupId, W)>;
    type Kept = ();

    fn keep(_: ()) {}

    fn out(_: (), received: Vec<(GroupId, W)>) -> Self::Out {
        received
    }

    fn agg(m: LevelMsg<W>) -> LevelMsg<W> {
        m
    }

    fn arrive<'m>(
        &self,
        _: &mut (),
        _: NodeId,
        m: &'m LevelMsg<W>,
        _: &mut Vec<(GroupId, W)>,
    ) -> Option<&'m LevelMsg<W>> {
        Some(m)
    }
}

/// The combine lane's program: injection and combining in the same
/// rounds. Each node scatters its packets — its own memberships, and what
/// its front hands it — in batches of `⌈log n⌉` as level-0 arrivals at
/// uniformly random columns, while the random-rank routing already moves
/// earlier packets toward `h(group)`: the streamed form of Thm 2.3's
/// first two phases (the routing analysis \[1, 57\] covers continuous
/// injection).
pub struct CombinePipeline<'a, W, A, Fr> {
    bf: Butterfly,
    hashes: RouteHashes,
    agg: &'a A,
    front: Fr,
    batch: usize,
    /// Per-node, per-round send ceiling across the whole pipeline (front,
    /// scatter and combine): the lane's send share of the node capacity
    /// ([`LaneSub::pace`](crate::compose::LaneSub::pace)). `usize::MAX` =
    /// unpaced.
    send_budget: usize,
    _pd: std::marker::PhantomData<W>,
}

/// Per-node state of a [`CombinePipeline`].
pub struct PipeState<S, W> {
    front: S,
    to_send: Vec<(GroupId, W)>,
    comb: CombineState<W>,
}

impl<W: Payload, A: Aggregate<W>, Fr: Front<W>> CombinePipeline<'_, W, A, Fr> {
    fn scatter(
        &self,
        st: &mut PipeState<Fr::State, W>,
        budget: &mut usize,
        ctx: &mut Ctx<'_, Fr::Msg>,
    ) {
        let take = st.to_send.len().min(self.batch).min(*budget);
        *budget -= take;
        for (group, value) in st.to_send.drain(..take) {
            let col = ctx.rng().gen_range(0..self.bf.columns() as u32);
            ctx.send(
                self.bf.emulator(col),
                Fr::agg(LevelMsg {
                    level: 0,
                    group: group.raw(),
                    route: self.hashes.route(group.raw()),
                    value,
                }),
            );
        }
    }
}

impl<W: Payload, A: Aggregate<W>, Fr: Front<W>> NodeProgram for CombinePipeline<'_, W, A, Fr> {
    type State = PipeState<Fr::State, W>;
    type Payload = Fr::Msg;

    fn init(&self, st: &mut PipeState<Fr::State, W>, ctx: &mut Ctx<'_, Fr::Msg>) {
        self.front.init(&mut st.front, &self.hashes, ctx);
        let mut budget = self.send_budget;
        self.scatter(st, &mut budget, ctx);
        if !st.to_send.is_empty() {
            ctx.stay_awake();
        }
    }

    fn round(
        &self,
        st: &mut PipeState<Fr::State, W>,
        inbox: &[Envelope<Fr::Msg>],
        ctx: &mut Ctx<'_, Fr::Msg>,
    ) {
        let (bf, mut budget) = (&self.bf, self.send_budget);
        // every node takes its arrivals, but only emulators route: a
        // node that emulates no column only fires and scatters
        let col = bf.emulates(ctx.id).then(|| bf.column_of(ctx.id));
        for env in inbox {
            let arrived = self
                .front
                .arrive(&mut st.front, ctx.id, &env.payload, &mut st.to_send);
            if let Some(m) = arrived {
                let alpha = col.expect("combining packets reach emulators only");
                let (comb, level, value) = (&mut st.comb, m.level as u32, m.value.clone());
                combine_insert(bf, self.agg, comb, alpha, level, m.group, m.route, value);
            }
        }
        if col.is_some() {
            self.front
                .step(&mut st.front, &mut budget, &mut st.to_send, ctx);
        }
        self.scatter(st, &mut budget, ctx);
        if let Some(alpha) = col {
            let mut emit = |dst, msg| ctx.send(dst, Fr::agg(msg));
            combine_step(bf, self.agg, &mut st.comb, alpha, &mut budget, &mut emit);
        }
        if Fr::busy(&st.front) || !st.to_send.is_empty() || !st.comb.queue.is_empty() {
            ctx.stay_awake();
        }
    }
}

// ---------------------------------------------------------------------------
// The delivery lane: postprocessing (randomized delivery rounds)
// ---------------------------------------------------------------------------

/// Per-node state of a [`ScheduleProgram`].
#[derive(Debug, Clone)]
pub struct ScheduleState<P> {
    /// `(round ≥ 1, dst, message)` — the sends this node owes.
    pub to_send: Vec<(u64, NodeId, P)>,
    /// `(src, message)` received.
    pub received: Vec<(NodeId, P)>,
}

/// Point-to-point sends at chosen rounds: every node sends each
/// `(round, dst, message)` of its list in local round `round − 1`, in
/// `(round, dst, key(message))` order, and keeps what it receives. With
/// `draw: Some(w)` the rounds are drawn uniformly from `1..=w` in round
/// 0: the combine's postprocessing (Theorem 2.3), where each level-`d`
/// node delivers every finished aggregate to its target in a random
/// round of `⌈ℓ̂₂/log n⌉`, smoothing the receive load. With `None` they
/// are the senders' own (`ncc-core`'s scheduled exchange).
pub struct ScheduleProgram<P> {
    /// `Some(w)`: draw every send's round from `1..=w` in round 0.
    pub draw: Option<u64>,
    /// Orders the sends of one round to one destination.
    pub key: fn(&P) -> u64,
}

/// Sends every entry of `to_send` (sorted by round; rounds count from 1)
/// that is due in this round, wrapped for the wire by `wrap`, and stays
/// awake while any is left.
pub fn send_due<P, M: Payload>(
    to_send: &mut Vec<(u64, NodeId, P)>,
    ctx: &mut Ctx<'_, M>,
    wrap: fn(P) -> M,
) {
    let now = ctx.round + 1;
    let due = to_send.partition_point(|(r, _, _)| *r <= now);
    for (_, dst, msg) in to_send.drain(..due) {
        ctx.send(dst, wrap(msg));
    }
    if !to_send.is_empty() {
        ctx.stay_awake();
    }
}

impl<P: Payload> NodeProgram for ScheduleProgram<P> {
    type State = ScheduleState<P>;
    type Payload = P;

    fn init(&self, st: &mut ScheduleState<P>, ctx: &mut Ctx<'_, P>) {
        if let Some(w) = self.draw {
            for slot in st.to_send.iter_mut() {
                slot.0 = ctx.rng().gen_range(1..=w);
            }
        }
        st.to_send.sort_by_key(|(r, d, m)| (*r, *d, (self.key)(m)));
        send_due(&mut st.to_send, ctx, |m| m);
    }

    fn round(&self, st: &mut ScheduleState<P>, inbox: &[Envelope<P>], ctx: &mut Ctx<'_, P>) {
        for env in inbox {
            st.received.push((env.src, env.payload.clone()));
        }
        send_due(&mut st.to_send, ctx, |m| m);
    }
}

// ---------------------------------------------------------------------------
// The combine as two chained lanes, and its blocking entry point
// ---------------------------------------------------------------------------

/// What a combine hands its delivery: per node, what its front kept
/// ([`Front::keep`]) and the deliveries it owes as a level-`d` node, with
/// [`Front::out`] to shape the output once they landed.
pub struct Handover<W, K, O> {
    kept: Vec<K>,
    deliveries: Vec<ScheduleState<PacketMsg<W>>>,
    out: fn(K, Vec<(GroupId, W)>) -> O,
}

/// A combine's scatter+combine lane behind front `Fr`; its output is the
/// [`Handover`] to the delivery.
pub type CombineLane<'a, W, A, Fr> =
    Lane<CombinePipeline<'a, W, A, Fr>, Handover<W, <Fr as Front<W>>::Kept, <Fr as Front<W>>::Out>>;

/// A combine as its builders return it: the scatter+combine lane, the
/// delivery window (delivery rounds are drawn from `1..=window`) and the
/// lane seed the delivery's seed derives from. Declare it with
/// [`Dag::combine`].
pub type Combine<'a, W, A, Fr> = (CombineLane<'a, W, A, Fr>, u64, u64);

/// The delivery lane of a combine, whose output is the delivery states.
pub type DeliveryLane<W> = Lane<ScheduleProgram<PacketMsg<W>>, Vec<ScheduleState<PacketMsg<W>>>>;

/// The combine lane around one combining pipeline, per-node states given.
fn combine_sub<'a, W: Payload, A: Aggregate<W>, Fr: Front<W>>(
    n: usize,
    shared: &SharedRandomness,
    front: Fr,
    agg: &'a A,
    states: Vec<PipeState<Fr::State, W>>,
    window: u64,
    lane_seed: u64,
) -> Combine<'a, W, A, Fr> {
    assert!(n >= 2, "a combine needs n ≥ 2");
    let bf = Butterfly::for_n(n);
    let pipe = CombinePipeline {
        bf,
        hashes: RouteHashes::new(shared, &bf, n),
        agg,
        front,
        batch: ncc_model::ilog2_ceil(n).max(1) as usize,
        send_budget: usize::MAX,
        _pd: std::marker::PhantomData,
    };
    let lane = Lane::new(pipe, states, hand_over::<W, Fr>)
        .seeded(derive_seed(&[lane_seed, 0]))
        .paced(|pipe, (send, _)| pipe.send_budget = send);
    (lane, window, lane_seed)
}

/// Each finished aggregate owes its target one delivery.
fn hand_over<W: Payload, Fr: Front<W>>(
    pipe: Vec<PipeState<Fr::State, W>>,
) -> Handover<W, Fr::Kept, Fr::Out> {
    let at = |(group, value)| (0, GroupId(group).target(), PacketMsg { group, value });
    let (kept, deliveries) = pipe
        .into_iter()
        .map(|s| {
            let to_send = s.comb.arrived.into_iter().map(at).collect();
            let received = Vec::new();
            (Fr::keep(s.front), ScheduleState { to_send, received })
        })
        .unzip();
    Handover {
        kept,
        deliveries,
        out: Fr::out,
    }
}

impl<W: Payload, K, O> Handover<W, K, O> {
    /// The delivery lane, on the seed `derive_seed(lane_seed, 1)`. It
    /// takes the delivery states; what the fronts kept stays for
    /// [`Handover::finish`].
    pub fn deliver(&mut self, window: u64, lane_seed: u64) -> DeliveryLane<W> {
        let prog = ScheduleProgram {
            draw: Some(window),
            key: |p: &PacketMsg<W>| p.group,
        };
        // deliveries leave in local rounds `0..window` and the last lands
        // in round `window`: the stage is over within `window + 1` rounds
        Lane::new(prog, std::mem::take(&mut self.deliveries), |states| states)
            .seeded(derive_seed(&[lane_seed, 1]))
            .ending(StageEnd::Within(window + 1))
    }

    /// Per node, its [`Front::Out`] from what its front kept and the
    /// final state of its delivery.
    pub fn finish(self, delivered: Vec<ScheduleState<PacketMsg<W>>>) -> Vec<O> {
        let got = |s: ScheduleState<PacketMsg<W>>| {
            let received = s.received.into_iter();
            received.map(|(_, p)| (GroupId(p.group), p.value)).collect()
        };
        let kept = self.kept.into_iter().zip(delivered);
        kept.map(|(k, s)| (self.out)(k, got(s))).collect()
    }
}

impl<'a> Dag<'a> {
    /// Declares a combine as two chained nodes, both labelled `label`:
    /// the scatter+combine lane `build` makes from `deps` (it ends on a
    /// barrier), and right after it the delivery lane, built from the
    /// combine's [`Handover`] (it ends on the clock). The handle is the
    /// delivery's: per node, its [`Front::Out`].
    pub fn combine<W, A, Fr, B>(
        &mut self,
        label: impl Into<String>,
        deps: &[Dep],
        build: B,
    ) -> ProtoNode<Vec<Fr::Out>>
    where
        W: Payload,
        A: Aggregate<W> + 'a,
        Fr: Front<W> + 'a,
        B: FnOnce(&mut Deps<'_>) -> Combine<'a, W, A, Fr> + 'a,
    {
        let label = label.into();
        let comb = self.built(label.clone(), deps, move |d| {
            let (lane, window, seed) = build(d);
            let finish = move |lane: CombineLane<'a, W, A, Fr>| (lane.into_results(), window, seed);
            Built { lane, finish }
        });
        self.built(label, &[comb.into()], move |d| {
            let (mut handover, window, seed) = d.take(comb);
            let lane = handover.deliver(window, seed);
            let finish = move |lane: DeliveryLane<W>| handover.finish(lane.into_results());
            Built { lane, finish }
        })
    }
}

/// Delivery rounds for at most `ell` deliveries per node at `⌈log₂ n⌉`
/// per round: `⌈ell/⌈log₂ n⌉⌉`, at least one.
pub(crate) fn delivery_window(n: usize, ell: usize) -> u64 {
    ell.div_ceil(ncc_model::ilog2_ceil(n).max(1) as usize)
        .max(1) as u64
}

/// Builds the aggregation combine: the combining network with nothing in
/// front. Arguments mirror [`aggregate`]; `lane_seed` keys the lanes'
/// private randomness (scatter columns, delivery rounds). Needs n ≥ 2.
pub fn aggregation_sub<'a, V: Payload, A: Aggregate<V>>(
    n: usize,
    shared: &SharedRandomness,
    spec: AggregationSpec<V>,
    agg: &'a A,
    lane_seed: u64,
) -> Combine<'a, V, A, ()> {
    assert_eq!(spec.memberships.len(), n);
    let states = spec
        .memberships
        .into_iter()
        .map(|to_send| PipeState {
            front: (),
            to_send,
            comb: CombineState::default(),
        })
        .collect();
    let window = delivery_window(n, spec.ell2_hat);
    combine_sub(n, shared, (), agg, states, window, lane_seed)
}

impl<V: Payload, A: Aggregate<V>> CombineLane<'_, V, A, ()> {
    /// Replaces the random-rank contention rule with a static priority
    /// (rank ≡ 0, ties by group id) — ablation E17: the outputs are
    /// rank-independent, but Theorem B.2's delay bound only holds for
    /// random ranks. Call before the lane is installed.
    pub fn static_priority(mut self) -> Self {
        self.program().hashes.random_ranks = false;
        self
    }
}

/// Runs the full Aggregation Algorithm. Every group's inputs are combined
/// with `agg` and delivered to the group's target; the per-node output lists
/// the `(group, aggregate)` pairs that node received as a target.
///
/// Blocking wrapper: the [`aggregation_sub`] combine alone in a
/// [`Dag::combine`] chain. On one node, it combines locally.
/// Round complexity (Theorem 2.3): `O(L/n + (ℓ₁ + ℓ̂₂)/log n + log n)` w.h.p.
pub fn aggregate<V: Payload, A: Aggregate<V>>(
    engine: &mut Engine,
    shared: &SharedRandomness,
    spec: AggregationSpec<V>,
    agg: &A,
) -> Result<(GroupedDeliveries<V>, ExecStats), ModelError> {
    let n = engine.n();
    if n == 1 {
        // trivial network: the one node combines locally, no stage to run
        let mut by_group = BTreeMap::new();
        for (g, v) in spec.memberships.into_iter().flatten() {
            merge_into(&mut by_group, g.raw(), v, agg);
        }
        let out = by_group.into_iter().map(|(g, v)| (GroupId(g), v));
        return Ok((vec![out.collect()], ExecStats::default()));
    }
    let seed = lane_seed(engine, 0x6167_6772 /* "aggr" */, 0);
    let mut dag = Dag::new();
    let node = dag.combine("alone", &[], move |_| {
        aggregation_sub(n, shared, spec, agg, seed)
    });
    dag.run_one(engine, node)
}

// ---------------------------------------------------------------------------
// Multi-Aggregation (Theorem 2.6, Appendix B.5)
// ---------------------------------------------------------------------------

/// Sub-identifier namespace for the re-keyed member groups: a leaf
/// scatters its member `u`'s packet to group `(id(u), MA_SUB)`.
pub const MA_SUB: u32 = 0x4D41;

/// Wire format of the Multi-Aggregation pipeline: tree spreading
/// (payload `V`) and re-keyed aggregation routing (payload `W`) share the
/// rounds.
#[derive(Debug, Clone)]
pub enum MaMsg<V, W> {
    /// A packet spreading down its tree.
    Spread(LevelMsg<V>),
    /// A re-keyed packet in the combining network.
    Agg(LevelMsg<W>),
}

impl<V: Payload, W: Payload> Payload for MaMsg<V, W> {
    fn bit_size(&self) -> u32 {
        1 + match self {
            MaMsg::Spread(m) => m.bit_size(),
            MaMsg::Agg(m) => m.bit_size(),
        }
    }
}

/// Multi-Aggregation's [`Front`] (Theorem 2.6, streamed): sources fire at
/// the roots in round 0, packets spread down the trees, and each leaf
/// arrival is re-keyed through `leaf_map` (with the lane's private
/// randomness — the §5.3 annotation hook) to its member's group
/// `(id(u), MA_SUB)` and scattered in the same round.
pub struct SpreadFront<'a, V, F> {
    spread: TreeSpread<'a>,
    leaf_map: F,
    _pd: std::marker::PhantomData<V>,
}

impl<V, W, F> Front<W> for SpreadFront<'_, V, F>
where
    V: Payload,
    W: Payload,
    F: Fn(&mut rand::rngs::SmallRng, GroupId, ncc_model::NodeId, &V) -> W + Sync,
{
    type State = SpreadState<V>;
    type Msg = MaMsg<V, W>;
    type Out = Option<W>;
    type Kept = ();

    fn keep(_: SpreadState<V>) {}

    /// A node is target of at most one re-keyed group, its own.
    fn out(_: (), received: Vec<(GroupId, W)>) -> Option<W> {
        received.into_iter().next().map(|(_, v)| v)
    }

    fn agg(m: LevelMsg<W>) -> MaMsg<V, W> {
        MaMsg::Agg(m)
    }

    fn arrive<'m>(
        &self,
        st: &mut SpreadState<V>,
        me: NodeId,
        m: &'m MaMsg<V, W>,
        _: &mut Vec<(GroupId, W)>,
    ) -> Option<&'m LevelMsg<W>> {
        match m {
            MaMsg::Spread(m) => self.spread.arrive(st, me, m),
            MaMsg::Agg(m) => return Some(m),
        }
        None
    }

    fn init(&self, st: &mut SpreadState<V>, hashes: &RouteHashes, ctx: &mut Ctx<'_, Self::Msg>) {
        self.spread.fire(hashes, st, ctx, MaMsg::Spread);
    }

    fn step(
        &self,
        st: &mut SpreadState<V>,
        budget: &mut usize,
        to_send: &mut Vec<(GroupId, W)>,
        ctx: &mut Ctx<'_, MaMsg<V, W>>,
    ) {
        self.spread.spread(st, budget, ctx, MaMsg::Spread);
        // re-key fresh leaf arrivals and queue them for scattering
        for (group, member, value) in st.at_leaves.drain(..) {
            let mapped = (self.leaf_map)(ctx.rng(), GroupId(group), member, &value);
            to_send.push((GroupId::new(member, MA_SUB), mapped));
        }
    }

    fn busy(st: &SpreadState<V>) -> bool {
        !st.queue.is_empty()
    }
}

/// Builds the multi-aggregation combine: the combining network behind
/// the tree spread. Arguments mirror [`multi_aggregate`]; `lane_seed`
/// keys the lanes' private randomness (leaf-map draws, scatter columns,
/// delivery rounds). Needs n ≥ 2.
pub fn multi_aggregate_sub<'a, V, W, A, F>(
    n: usize,
    shared: &SharedRandomness,
    trees: &'a MulticastTrees,
    messages: Vec<Option<(GroupId, V)>>,
    leaf_map: F,
    agg: &'a A,
    lane_seed: u64,
) -> Combine<'a, W, A, SpreadFront<'a, V, F>>
where
    V: Payload,
    W: Payload,
    A: Aggregate<W>,
    F: Fn(&mut rand::rngs::SmallRng, GroupId, ncc_model::NodeId, &V) -> W + Sync,
{
    assert_eq!(messages.len(), n);
    let front = SpreadFront {
        spread: TreeSpread {
            bf: Butterfly::for_n(n),
            trees,
        },
        leaf_map,
        _pd: std::marker::PhantomData,
    };
    let states = spread_states(messages)
        .into_iter()
        .map(|front| PipeState {
            front,
            to_send: Vec::new(),
            comb: CombineState::default(),
        })
        .collect();
    // each node is target of ≤ 1 re-keyed group: a one-round delivery
    combine_sub(n, shared, front, agg, states, 1, lane_seed)
}

/// Runs Multi-Aggregation (Theorem 2.6): every source `s_i` multicasts
/// `p_i` down its tree; each leaf `l(i, u)` re-keys its packet to
/// `(id(u), map(p_i))` — optionally transforming it with leaf-local
/// randomness, which is how the matching algorithm of §5.3 annotates
/// packets with uniform ranks — then the re-keyed packets are scattered,
/// aggregated toward `h(id(u))` exactly as in the Aggregation Algorithm,
/// and delivered to `u`. Runs in `O(C + log n)` rounds over trees of
/// congestion `C`.
///
/// `messages[u] = Some((group, payload))` iff `u` sources `group`; `agg`
/// combines the mapped packets per destination. Returns per node `u` the
/// aggregate `f({map(p_i) | u ∈ A_i})`, or `None` if no group reaches `u`.
///
/// Blocking wrapper: the [`multi_aggregate_sub`] combine alone in a
/// [`Dag::combine`] chain.
pub fn multi_aggregate<V, W, A, F>(
    engine: &mut Engine,
    shared: &SharedRandomness,
    trees: &MulticastTrees,
    messages: Vec<Option<(GroupId, V)>>,
    leaf_map: F,
    agg: &A,
) -> Result<(Vec<Option<W>>, ExecStats), ModelError>
where
    V: Payload,
    W: Payload,
    A: Aggregate<W>,
    F: Fn(&mut rand::rngs::SmallRng, GroupId, ncc_model::NodeId, &V) -> W + Sync,
{
    let (n, seed) = (engine.n(), lane_seed(engine, 0x6d61_6767 /* "magg" */, 0));
    let mut dag = Dag::new();
    let node = dag.combine("alone", &[], move |_| {
        multi_aggregate_sub(n, shared, trees, messages, leaf_map, agg, seed)
    });
    dag.run_one(engine, node)
}

// ---------------------------------------------------------------------------
// The member-fired combine: a multicast in front of the combine
// ---------------------------------------------------------------------------

/// Wire format of the member-fired combine: the multicast's tree spread
/// and leaf deliveries (payload `V`) and the combine (payload `W`) share
/// the rounds. The tags are prefix-free, `0`, `10` and `11`, so the
/// spread hop, the widest message, keeps the multicast's 1-bit tag.
#[derive(Debug, Clone)]
pub enum McAggMsg<V, W> {
    /// A packet spreading down its tree.
    Spread(LevelMsg<V>),
    /// A leaf delivering a packet to a member.
    Deliver(PacketMsg<V>),
    /// A packet in the combining network.
    Agg(LevelMsg<W>),
}

impl<V: Payload, W: Payload> Payload for McAggMsg<V, W> {
    fn bit_size(&self) -> u32 {
        match self {
            McAggMsg::Spread(m) => 1 + m.bit_size(),
            McAggMsg::Deliver(m) => 2 + m.bit_size(),
            McAggMsg::Agg(m) => 2 + m.bit_size(),
        }
    }
}

/// The member-fired combine's [`Front`]: the multicast itself in front
/// of the combine. Sources fire at their roots in round 0, packets spread
/// down the recorded trees, and leaves deliver to the members in the
/// multicast's smoothed window, by the same code as the multicast lane. A
/// **member**, in the round its copy lands, runs
/// `member_map(me, group, copy, to_send)`, which pushes the member's own
/// `(group, value)` packets onto its own scatter queue; they are
/// scattered and combined in the same rounds. The re-key happens at the
/// member, not at the leaf as in [`SpreadFront`]: the leaf `l(i, u)` is a
/// column emulator and does not hold `u`'s input.
///
/// # Soundness: one stage, one barrier
///
/// Let the stage start at a round `t₀` every node agrees on. Run as two
/// stages, the same work would be a multicast, a barrier, then a combine
/// whose members built their packets from the copies they received.
///
/// * A member's packets depend only on its own copy of the source's
///   packet and its own input: the map runs on the member, with `me` the
///   member, and reads nothing else. Firing in the round the copy lands
///   therefore pushes exactly the packets it would push after the
///   multicast's barrier, only earlier.
/// * The stage cannot go quiet before every member has fired. A column
///   with packets left to spread or a delivery due stays awake
///   ([`Front::busy`]); a delivery in flight wakes its member in the next
///   round; a member whose scatter queue is not empty stays awake; and a
///   combining packet in flight or queued keeps its column awake. So at
///   quiescence every copy that was not dropped has been delivered, fired
///   on, scattered and combined, and the one barrier after the stage
///   certifies what the two barriers of the two-stage run did.
/// * The combining network's analysis \[1, 57\] covers continuous
///   injection, so packets that enter while others already route cost no
///   more than the streamed scatter of Theorem 2.3. With `B` packets per
///   member (`ℓ₁ = B`) and each leader the target of `B` groups
///   (`ℓ̂₂ = B`), the combine stays `O(L/n + (ℓ₁ + ℓ̂₂)/log n + log n)`.
///   The delivery stage after it ends on the clock: its window is
///   `⌈ℓ̂₂/⌈log₂ n⌉⌉ = ⌈B/⌈log₂ n⌉⌉` rounds.
/// * Leaves deliver in a window of one round: here each member is in
///   one tree (`ℓ̂ = 1`).
/// * A copy lost to a drop is visible at its member. The front keeps its
///   count of copies fired on from its final state ([`Front::keep`]), so
///   the output reports it per node, and a caller turns a missing copy
///   into a typed failure instead of a silent zero contribution.
pub struct MulticastFront<'a, V, F> {
    spread: TreeSpread<'a>,
    /// Leaf deliveries leave in a uniform round of this many.
    window: u64,
    member_map: F,
    _pd: std::marker::PhantomData<V>,
}

impl<V, W, F> Front<W> for MulticastFront<'_, V, F>
where
    V: Payload,
    W: Payload,
    F: Fn(NodeId, GroupId, &V, &mut Vec<(GroupId, W)>) + Sync,
{
    /// The spread and its leaf deliveries, and the copies a member fired
    /// on.
    type State = SpreadDeliverState<V, u32>;
    type Msg = McAggMsg<V, W>;
    /// Per node: the copies it fired on, and the aggregates it received
    /// as a target.
    type Out = (u32, Vec<(GroupId, W)>);
    type Kept = u32;

    fn keep(st: Self::State) -> u32 {
        st.got
    }

    fn out(copies: u32, received: Vec<(GroupId, W)>) -> Self::Out {
        (copies, received)
    }

    fn agg(m: LevelMsg<W>) -> McAggMsg<V, W> {
        McAggMsg::Agg(m)
    }

    fn arrive<'m>(
        &self,
        st: &mut Self::State,
        me: NodeId,
        m: &'m McAggMsg<V, W>,
        to_send: &mut Vec<(GroupId, W)>,
    ) -> Option<&'m LevelMsg<W>> {
        match m {
            McAggMsg::Spread(m) => self.spread.arrive(&mut st.spread, me, m),
            McAggMsg::Deliver(p) => {
                (self.member_map)(me, GroupId(p.group), &p.value, to_send);
                st.got += 1;
            }
            McAggMsg::Agg(m) => return Some(m),
        }
        None
    }

    fn init(&self, st: &mut Self::State, hashes: &RouteHashes, ctx: &mut Ctx<'_, Self::Msg>) {
        self.spread
            .fire(hashes, &mut st.spread, ctx, McAggMsg::Spread);
    }

    fn step(
        &self,
        st: &mut Self::State,
        budget: &mut usize,
        _: &mut Vec<(GroupId, W)>,
        ctx: &mut Ctx<'_, McAggMsg<V, W>>,
    ) {
        let (route, deliver) = (McAggMsg::Spread, McAggMsg::Deliver);
        self.spread
            .deliver(st, self.window, budget, ctx, route, deliver);
    }

    fn busy(st: &Self::State) -> bool {
        st.busy()
    }
}

/// Builds the member-fired combine, one stage and one barrier before the
/// delivery: every source `s_i` multicasts `p_i` down its tree in
/// `trees`, every member `u` of `A_i` runs `member_map(u, i, p_i, out)`
/// on its copy and scatters what it pushed to `out`, and every node
/// scatters its own `spec.memberships` from round 0. All packets are
/// combined with `agg` and delivered to their targets, each of which is
/// target of at most `spec.ell2_hat` groups. `messages[u] = Some((group,
/// payload))` iff `u` sources `group`; `lane_seed` keys the lane's
/// private randomness (delivery rounds, scatter columns). Leaves deliver
/// in the round a copy reaches them, the multicast's window for `ℓ̂ = 1`:
/// sized for trees in which a node is a member of one group, such as a
/// partition into components.
pub fn multicast_aggregate_sub<'a, V, W, A, F>(
    shared: &SharedRandomness,
    trees: &'a MulticastTrees,
    messages: Vec<Option<(GroupId, V)>>,
    member_map: F,
    spec: AggregationSpec<W>,
    agg: &'a A,
    lane_seed: u64,
) -> Combine<'a, W, A, MulticastFront<'a, V, F>>
where
    V: Payload,
    W: Payload,
    A: Aggregate<W>,
    F: Fn(NodeId, GroupId, &V, &mut Vec<(GroupId, W)>) + Sync,
{
    let n = messages.len();
    assert_eq!(spec.memberships.len(), n);
    let front = MulticastFront {
        spread: TreeSpread {
            bf: Butterfly::for_n(n),
            trees,
        },
        window: 1,
        member_map,
        _pd: std::marker::PhantomData,
    };
    let states = spread_deliver_states(messages)
        .into_iter()
        .zip(spec.memberships)
        .map(|(front, to_send)| PipeState {
            front,
            to_send,
            comb: CombineState::default(),
        })
        .collect();
    let window = delivery_window(n, spec.ell2_hat);
    combine_sub(n, shared, front, agg, states, window, lane_seed)
}

// ---------------------------------------------------------------------------
// Aggregate-and-Broadcast (Theorem 2.2, Appendix B.1)
// ---------------------------------------------------------------------------
//
// Given a distributive aggregate `f` and a set `A ⊆ V` of nodes holding one
// input each, every node learns `f(inputs of A)` in
// `O(log n / log log n)` rounds, the spread bound of §1:
//
// 1. non-emulating nodes inject their inputs into their proxy level-0
//    butterfly nodes;
// 2. *aggregation sweep* (rounds `1..=m`, `m = ⌈d/s⌉`): round `j` fixes
//    the block of column bits `[(j−1)s, min(js, d))` to 0 — every live
//    column whose bits below the block are 0 and whose block is not sends
//    its partial aggregate to the column with the block cleared, so after
//    round `m` the root column 0 holds the full aggregate;
// 3. *broadcast sweep* (rounds `m+1..=2m`): the blocks from the top down,
//    every column whose bits below the block's top are 0 pushes the
//    result to its `2^w − 1` block children (`w` the block's width);
// 4. a final round informs the attached non-emulating nodes.
//
// The radix `2^s` is the fan-in: a column combines up to `2^s − 1`
// partials a round, and the receive share bounds that (Vyavahare et al.:
// a node combines only as fast as its in-capacity allows). [`radix_bits`]
// picks `s` from `n` and the share, spending up to half the share; at
// `s = 1` the sweeps are the binomial tree, fixing one bit a round. The
// same execution doubles as the paper's synchronisation barrier
// ([`sync_barrier`]) — the token-passing variant of App. B.1 condensed
// to its round cost.
//
// `AbProgram` is one plain program. [`aggregate_and_broadcast`], and with
// it every barrier, hands it straight to `Engine::execute` at the
// engine's whole capacity: no mux, no lane header, the nodes' own RNG
// streams, and the engine's recycled buffers, so a barrier on a warm
// engine allocates only its input, state and result vectors. [`ab_sub`]
// is the same program as a lane, for the DAG stages that run an A&B
// beside other protocols, paced to its share of the capacity; a
// one-lane mux charges zero header bits and borrows the node's stream,
// so both paths cost the same rounds, messages, bits and drops.

/// Wire format of Aggregate-and-Broadcast. Discriminant + payload; levels
/// are implied by the round.
#[derive(Debug, Clone)]
pub enum AbMsg<V> {
    /// A partial aggregate toward the root: a non-emulating node's input
    /// to its proxy column (round 0), or a column's across its block.
    Partial(V),
    /// The aggregate away from the root: to a block child, or from a
    /// level-0 column to its attached non-emulating node.
    Result(V),
}

impl<V: Payload> Payload for AbMsg<V> {
    fn bit_size(&self) -> u32 {
        let (AbMsg::Partial(v) | AbMsg::Result(v)) = self;
        1 + v.bit_size()
    }
}

/// Per-node Aggregate-and-Broadcast state.
#[derive(Debug, Clone)]
pub struct AbState<V> {
    /// The node's input, then the partial aggregate its column holds.
    acc: Option<V>,
    /// The broadcast result once known; the driver reads this field.
    pub result: Option<V>,
}

/// The Aggregate-and-Broadcast program (Theorem 2.2), the program of an
/// [`AbSub`].
pub struct AbProgram<'a, V, A> {
    bf: Butterfly,
    /// Column bits a sweep round fixes ([`radix_bits`]).
    s: u32,
    agg: &'a A,
    _pd: std::marker::PhantomData<V>,
}

impl<V: Payload, A: Aggregate<V>> NodeProgram for AbProgram<'_, V, A> {
    type State = AbState<V>;
    type Payload = AbMsg<V>;

    fn init(&self, st: &mut AbState<V>, ctx: &mut Ctx<'_, AbMsg<V>>) {
        if self.bf.emulates(ctx.id) {
            ctx.stay_awake();
        } else if let Some(v) = st.acc.take() {
            let proxy = self.bf.emulator(self.bf.proxy_column(ctx.id));
            ctx.send(proxy, AbMsg::Partial(v));
        }
    }

    fn round(
        &self,
        st: &mut AbState<V>,
        inbox: &[Envelope<AbMsg<V>>],
        ctx: &mut Ctx<'_, AbMsg<V>>,
    ) {
        for env in inbox {
            match &env.payload {
                AbMsg::Partial(v) => {
                    let acc = st.acc.take();
                    st.acc = Some(acc.map_or_else(|| v.clone(), |a| self.agg.combine(&a, v)));
                }
                AbMsg::Result(v) => st.result = Some(v.clone()),
            }
        }
        // non-emulating nodes only ever receive the final result
        if !self.bf.emulates(ctx.id) {
            return;
        }
        let (d, alpha) = (self.bf.d(), self.bf.column_of(ctx.id));
        let m = d.div_ceil(self.s) as u64;
        // the block of column bits fixed in sweep round `j`, as the masks
        // of the bits below it and of the bits up to its top
        let block = |j: u64| {
            let lo = (j as u32 - 1) * self.s;
            ((1u32 << lo) - 1, (1u32 << (lo + self.s).min(d)) - 1)
        };
        let r = ctx.round;
        if r <= m {
            // aggregation sweep: clear block r
            let (below, upto) = block(r);
            if let Some(v) = st.acc.take_if(|_| alpha & below == 0 && alpha & upto != 0) {
                ctx.send(self.bf.emulator(alpha & !upto), AbMsg::Partial(v));
            }
            ctx.stay_awake();
        } else if r <= 2 * m {
            // broadcast sweep: round m + j fills block m + 1 − j
            if r == m + 1 && alpha == 0 {
                st.result = st.acc.clone();
            }
            let (below, upto) = block(2 * m + 1 - r);
            if let (true, Some(v)) = (alpha & upto == 0, &st.result) {
                for child in (below + 1..=upto).step_by(below as usize + 1) {
                    ctx.send(self.bf.emulator(alpha | child), AbMsg::Result(v.clone()));
                }
            }
            ctx.stay_awake();
        } else if r == 2 * m + 1 {
            // inform the attached non-emulating node, if any
            if let (Some(v), Some(node)) = (&st.result, self.bf.attached_node(alpha)) {
                ctx.send(node, AbMsg::Result(v.clone()));
            }
        }
    }
}

/// Column bits one Aggregate-and-Broadcast sweep round fixes on `n` nodes
/// when a node may take `share` messages a round: the largest `s` with
/// `2^s − 1 ≤ max(1, ⌊share/2⌋)`, within `[1, ⌊log₂ n⌋]`. A column then
/// takes at most half its share in partials a round, so packed lanes
/// keep every node within half the cap, and the sweeps run
/// `⌈⌊log₂ n⌋ / s⌉` rounds each — `O(log n / log log n)` at the default
/// capacity, the binomial `⌊log₂ n⌋` once the share is 5 or less.
pub(crate) fn radix_bits(n: usize, share: usize) -> u32 {
    ncc_model::ilog2_floor((share / 2).max(1) + 1).clamp(1, ncc_model::ilog2_floor(n).max(1))
}

/// Runs Aggregate-and-Broadcast: each node optionally holds one input;
/// afterwards every node knows the aggregate (or `None` if no node held an
/// input). Takes `2⌈d/s⌉ + 2` rounds on `2^d` nodes and one more
/// otherwise, where the sweeps fix `s` column bits a round: the largest
/// `s ≤ d` with `2^s − 1 ≤ ⌊min(send, recv)/2⌋` at the engine's
/// capacity, and at least 1 (Theorem 2.2).
pub fn aggregate_and_broadcast<V: Payload, A: Aggregate<V>>(
    engine: &mut Engine,
    inputs: Vec<Option<V>>,
    agg: &A,
) -> Result<(Vec<Option<V>>, ExecStats), ModelError> {
    let n = engine.n();
    assert_eq!(inputs.len(), n);
    if n == 1 {
        // degenerate network: the aggregate is the node's own input
        return Ok((inputs, ExecStats::default()));
    }
    ab_sub(n, inputs, agg).execute(engine)
}

/// Aggregate-and-Broadcast as a composable lane: a single stage that rides
/// alongside heavier lanes (the paper's ubiquitous "agree on a global
/// value" step, at zero extra stage cost when composed). It ends
/// [`StageEnd::SelfSync`]: A&B ends with everyone knowing the result — it
/// *is* the barrier primitive (App. B.1), so a stage made only of A&B
/// lanes needs no trailing [`sync_barrier`], matching
/// [`aggregate_and_broadcast`]'s cost. Per node, the output is the
/// broadcast aggregate (`None` iff no node held an input).
pub type AbSub<'a, V, A> = Lane<AbProgram<'a, V, A>, Vec<Option<V>>>;

/// Builds the Aggregate-and-Broadcast sub-protocol. Arguments mirror
/// [`aggregate_and_broadcast`] (the same program run alone). Its radix
/// follows the smaller of the send and receive shares its stage hands it
/// ([`Lane::paced`]).
pub fn ab_sub<'a, V: Payload, A: Aggregate<V>>(
    n: usize,
    inputs: Vec<Option<V>>,
    agg: &'a A,
) -> AbSub<'a, V, A> {
    assert_eq!(inputs.len(), n);
    assert!(n >= 2, "composable A&B needs n ≥ 2");
    let prog = AbProgram {
        bf: Butterfly::for_n(n),
        s: 1,
        agg,
        _pd: std::marker::PhantomData,
    };
    let states = inputs
        .into_iter()
        .map(|acc| AbState { acc, result: None })
        .collect();
    Lane::new(prog, states, |states| {
        states.into_iter().map(|s| s.result).collect()
    })
    .ending(StageEnd::SelfSync)
    .paced(|prog, (send, recv)| prog.s = radix_bits(prog.bf.n(), send.min(recv)))
}

/// Rounds one [`sync_barrier`] takes on `n` nodes when none of its
/// messages is dropped and a node may take `share` messages a round:
/// `2⌈d/s⌉ + 2` on `2^d` nodes ([`radix_bits`] gives `s`), one more to
/// inform the attached nodes otherwise, and none on one node.
pub(crate) fn barrier_rounds(n: usize, share: usize) -> u64 {
    match n {
        0 | 1 => 0,
        _ => {
            let m = ncc_model::ilog2_floor(n).div_ceil(radix_bits(n, share));
            2 * m as u64 + 2 + !n.is_power_of_two() as u64
        }
    }
}

/// The synchronisation barrier used between phases of larger primitives:
/// an Aggregate-and-Broadcast of a constant at the engine's capacity.
/// Costs the [`aggregate_and_broadcast`] rounds: the `O(log n)` the paper
/// charges for its token-based synchronisation (App. B.1), and
/// `O(log n / log log n)` at the default capacity. A node that never
/// learns the constant — a receive cap dropped its copy — fails the
/// barrier with [`ModelError::WhpEventFailed`].
pub fn sync_barrier(engine: &mut Engine) -> Result<ExecStats, ModelError> {
    let n = engine.n();
    let (results, stats) = aggregate_and_broadcast(engine, vec![Some(1); n], &MinU64)?;
    match results.iter().all(|r| *r == Some(1)) {
        true => Ok(stats),
        false => Err(ModelError::WhpEventFailed {
            event: "every node learns the barrier",
        }),
    }
}

#[cfg(test)]
mod ab_tests {
    use super::*;
    use crate::combine::{MaxU64, SumU64};
    use ncc_model::NetConfig;

    fn engine(n: usize) -> Engine {
        Engine::new(NetConfig::new(n, 42))
    }

    fn capped(n: usize, cap: ncc_model::Capacity) -> Engine {
        Engine::new(NetConfig::new(n, 42).with_capacity(cap))
    }

    #[test]
    fn sum_over_all_nodes() {
        for n in [2usize, 3, 4, 7, 8, 16, 33, 100, 128] {
            let mut eng = engine(n);
            let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
            let (res, stats) = aggregate_and_broadcast(&mut eng, inputs, &SumU64).unwrap();
            let expect = (n as u64 * (n as u64 - 1)) / 2;
            for (v, r) in res.iter().enumerate() {
                assert_eq!(*r, Some(expect), "node {v} at n={n}");
            }
            assert!(stats.clean(), "drops at n={n}");
        }
    }

    #[test]
    fn partial_input_set() {
        let n = 20;
        let mut eng = engine(n);
        // only nodes 3, 17 (non-emulating for d=4), 9 hold inputs
        let mut inputs: Vec<Option<u64>> = vec![None; n];
        inputs[3] = Some(30);
        inputs[17] = Some(5);
        inputs[9] = Some(12);
        let (res, _) = aggregate_and_broadcast(&mut eng, inputs, &MaxU64).unwrap();
        assert!(res.iter().all(|r| *r == Some(30)));
    }

    #[test]
    fn empty_input_set_gives_none() {
        let n = 16;
        let mut eng = engine(n);
        let inputs: Vec<Option<u64>> = vec![None; n];
        let (res, _) = aggregate_and_broadcast(&mut eng, inputs, &MinU64).unwrap();
        assert!(res.iter().all(|r| r.is_none()));
    }

    /// The share a lone run on `eng` hands the program.
    fn rate(eng: &Engine) -> usize {
        let cap = eng.config().capacity;
        cap.send.min(cap.recv)
    }

    #[test]
    fn rounds_logarithmic() {
        // Theorem 2.2, at the §1 spread bound: 2⌈d/s⌉ + 2 rounds on 2^d nodes.
        for k in [3u32, 5, 8, 10] {
            let n = 1usize << k;
            let mut eng = engine(n);
            let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
            let (_, stats) = aggregate_and_broadcast(&mut eng, inputs, &SumU64).unwrap();
            assert_eq!(stats.rounds, barrier_rounds(n, rate(&eng)), "n=2^{k}");
        }
    }

    /// A column takes `2^s − 1` partials a round and a down-sweep sender
    /// sends as many: 31 at n = 256 (`s = 5`, half the default share of
    /// 64 is 32), and at most the binomial sweep's 2 at a share of 2.
    #[test]
    fn per_round_load_constant() {
        use ncc_model::Capacity;
        let n = 256;
        let load = |cap| {
            let mut eng = capped(n, cap);
            let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
            let (_, stats) = aggregate_and_broadcast(&mut eng, inputs, &SumU64).unwrap();
            assert!(stats.clean());
            (stats.max_in, stats.max_out)
        };
        assert_eq!(load(Capacity::default_for(n)), (31, 31));
        let (max_in, max_out) = load(Capacity::squeezed(2, 2));
        assert!(max_in <= 2 && max_out <= 2, "({max_in}, {max_out})");
    }

    /// The radix rule on every size class and capacity: `s` grows with the
    /// share up to `2^s − 1 ≤ ⌊share/2⌋` and stays 1 when the share is 5
    /// or less. In every case each node learns the aggregate, a lone run
    /// takes exactly `barrier_rounds(n, share)`, no node goes over half
    /// its share (or the binomial sweep's 2), and the one-lane mux run is
    /// the same execution.
    #[test]
    fn radix_rule_on_every_size_and_capacity() {
        use crate::compose::Dag;
        use ncc_model::Capacity;
        for n in [2usize, 3, 5, 16, 17, 48, 64, 65, 100, 256, 1024, 1100] {
            let inputs: Vec<Option<u64>> = (0..n as u64).map(|v| Some(v + 1)).collect();
            let want = Some(n as u64 * (n as u64 + 1) / 2);
            for cap in [
                Capacity::default_for(n),
                Capacity::squeezed(1, 1),
                Capacity::squeezed(2, 2),
                Capacity::squeezed(64, 3),
                Capacity::log_scaled(n, 1, 24),
                Capacity::unbounded(),
            ] {
                let mut direct = capped(n, cap);
                let share = rate(&direct);
                let s = radix_bits(n, share);
                assert!((1 << s) - 1 <= (share / 2).max(1), "n={n} {cap:?}: s={s}");
                let (got, stats) =
                    aggregate_and_broadcast(&mut direct, inputs.clone(), &SumU64).unwrap();
                assert!(got.iter().all(|r| *r == want), "n={n} {cap:?}");
                assert!(stats.clean(), "n={n} {cap:?}");
                assert_eq!(stats.rounds, barrier_rounds(n, share), "n={n} {cap:?}");
                assert!(stats.peak_load() <= share as u64, "n={n} {cap:?}");
                assert!(
                    stats.peak_load() <= (share as u64 / 2).max(2),
                    "n={n} {cap:?}"
                );
                let mut muxed = capped(n, cap);
                let mut dag = Dag::new();
                let lane_inputs = inputs.clone();
                let node = dag.proto("ab", &[], move |_| ab_sub(n, lane_inputs, &SumU64));
                let mut run = dag.run(&mut muxed).unwrap();
                assert_eq!(run.stats, stats, "n={n} {cap:?}");
                assert_eq!(run.outputs.take(node), got, "n={n} {cap:?}");
            }
        }
    }

    /// Packed A&B lanes split the capacity: each takes its share's radix,
    /// so 1, 2 or a full budget of them stay within the cap and drop
    /// nothing at the default capacity.
    #[test]
    fn packed_ab_lanes_stay_within_capacity() {
        use crate::compose::Dag;
        use crate::schedule::default_lane_budget;
        for n in [64usize, 100, 1024] {
            for lanes in [1, 2, default_lane_budget(n)] {
                let mut eng = engine(n);
                let cap = rate(&eng) as u64;
                let mut dag = Dag::new();
                let nodes: Vec<_> = (0..lanes as u64)
                    .map(|j| {
                        let inputs = (0..n as u64).map(|v| Some(v ^ j)).collect();
                        dag.proto(format!("ab{j}"), &[], move |_| ab_sub(n, inputs, &MaxU64))
                    })
                    .collect();
                let mut run = dag.run(&mut eng).unwrap();
                assert_eq!(run.report.stages.len(), 1, "n={n}, {lanes} lanes");
                let stats = run.stats;
                assert!(stats.clean(), "n={n}, {lanes} lanes: {stats:?}");
                assert!(stats.peak_load() <= cap, "n={n}, {lanes} lanes: {stats:?}");
                for (j, node) in nodes.into_iter().enumerate() {
                    let want = (0..n as u64).map(|v| v ^ j as u64).max();
                    assert!(run.outputs.take(node).iter().all(|r| *r == want));
                }
            }
        }
    }

    #[test]
    fn non_power_of_two_includes_attached_nodes() {
        let n = 21; // d = 4, columns 0..16, attached 16..21
        let mut eng = engine(n);
        let inputs: Vec<Option<u64>> = (0..n as u64).map(|v| Some(v + 100)).collect();
        let (res, _) = aggregate_and_broadcast(&mut eng, inputs, &MaxU64).unwrap();
        // max input is node 20's (120); node 20 is non-emulating
        assert!(res.iter().all(|r| *r == Some(120)));
    }

    #[test]
    fn sync_barrier_costs_log_rounds() {
        let n = 64;
        let mut eng = engine(n);
        let stats = sync_barrier(&mut eng).unwrap();
        assert!(
            stats.rounds >= 6 && stats.rounds <= 16,
            "rounds {}",
            stats.rounds
        );
    }

    #[test]
    fn barrier_rounds_is_the_barrier_length() {
        for n in [1usize, 2, 3, 4, 7, 48, 64, 100, 128, 256, 1024] {
            let mut eng = engine(n);
            let stats = sync_barrier(&mut eng).unwrap();
            assert_eq!(barrier_rounds(n, rate(&eng)), stats.rounds, "n = {n}");
        }
        // at the default capacity, half the share fixes 4, 5 and 5 column
        // bits a round: 6 rounds at n = 64, 256 and 1024 (the binomial
        // sweep took 14, 18 and 22), and 7 at n = 96
        let lone = |n| barrier_rounds(n, rate(&engine(n)));
        assert_eq!([64, 96, 256, 1024].map(lone), [6, 7, 6, 6]);
    }

    /// A barrier whose copies a receive cap drops is a typed failure in
    /// every build, not an `Ok` over nodes that never learned it.
    #[test]
    fn a_barrier_that_loses_its_broadcast_fails_typed() {
        use ncc_model::Capacity;
        let n = 48;
        let cap = Capacity {
            recv: 0,
            ..Capacity::default_for(n)
        };
        let mut eng = Engine::new(NetConfig::new(n, 42).with_capacity(cap).permissive());
        match sync_barrier(&mut eng) {
            Err(ModelError::WhpEventFailed { event }) => {
                assert_eq!(event, "every node learns the barrier")
            }
            other => panic!("a barrier that reached nobody returned {other:?}"),
        }
        assert!(sync_barrier(&mut engine(n)).unwrap().clean());
    }

    /// `aggregate_and_broadcast` executes `AbProgram` directly; a one-node
    /// `Dag` holding `ab_sub` runs the same program as the only lane of a
    /// mux. They must be one execution, bit for bit: stats (drops and bits
    /// included), results and the engine's global round. A&B delivers at
    /// most one message per node-round, so a receive cap of 1 drops
    /// nothing; a cap of 0 drops every message.
    #[test]
    fn direct_barrier_matches_a_one_lane_mux() {
        use crate::compose::Dag;
        use ncc_model::Capacity;
        for n in [2usize, 3, 48, 100] {
            let inputs: Vec<Option<u64>> = (0..n as u64)
                .map(|v| (v % 3 != 1).then_some(v * 7 + 5))
                .collect();
            let recv = |recv| {
                let cap = Capacity {
                    recv,
                    ..Capacity::default_for(n)
                };
                NetConfig::new(n, 42).with_capacity(cap).permissive()
            };
            let configs = [
                (NetConfig::new(n, 42), false),
                (recv(1), false),
                (recv(0), true),
            ];
            for (cfg, drops) in configs {
                let mut direct = Engine::new(cfg.clone());
                let (want, want_stats) =
                    aggregate_and_broadcast(&mut direct, inputs.clone(), &SumU64).unwrap();
                let mut muxed = Engine::new(cfg);
                let mut dag = Dag::new();
                let lane_inputs = inputs.clone();
                let node = dag.proto("ab", &[], move |_| ab_sub(n, lane_inputs, &SumU64));
                let mut run = dag.run(&mut muxed).unwrap();
                assert_eq!(want_stats.dropped > 0, drops, "n={n}");
                assert_eq!(run.stats, want_stats, "n={n}");
                assert_eq!(run.outputs.take(node), want, "n={n}");
                assert_eq!(muxed.global_round(), direct.global_round(), "n={n}");
            }
        }
    }

    #[test]
    fn single_node_trivial() {
        let mut eng = engine(1);
        let (res, stats) = aggregate_and_broadcast(&mut eng, vec![Some(9u64)], &SumU64).unwrap();
        assert_eq!(res, vec![Some(9)]);
        assert_eq!(stats.rounds, 0);
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index several parallel per-node arrays
pub(crate) mod tests {
    use super::*;
    use crate::combine::{MinU64, SumU64, XorU64};
    use ncc_model::NetConfig;

    fn run_sum(
        n: usize,
        memberships: Vec<Vec<(GroupId, u64)>>,
        ell2: usize,
    ) -> (Vec<Vec<(GroupId, u64)>>, ExecStats) {
        let mut eng = Engine::new(NetConfig::new(n, 7));
        let shared = SharedRandomness::new(99);
        aggregate(
            &mut eng,
            &shared,
            AggregationSpec {
                memberships,
                ell2_hat: ell2,
            },
            &SumU64,
        )
        .unwrap()
    }

    #[test]
    fn single_group_sums_all_inputs() {
        let n = 32;
        let g = GroupId::new(5, 0);
        let memberships: Vec<Vec<(GroupId, u64)>> = (0..n).map(|v| vec![(g, v as u64)]).collect();
        let (out, stats) = run_sum(n, memberships, 1);
        for (v, res) in out.iter().enumerate() {
            if v == 5 {
                assert_eq!(res.as_slice(), &[(g, (0..32u64).sum())]);
            } else {
                assert!(res.is_empty(), "node {v} got {res:?}");
            }
        }
        assert!(stats.clean());
    }

    #[test]
    fn many_groups_to_distinct_targets() {
        // group t collects from members {t, t+1, t+2 mod n}, for every t
        let n = 64;
        let mut memberships: Vec<Vec<(GroupId, u64)>> = vec![Vec::new(); n];
        for t in 0..n as u32 {
            for off in 0..3u32 {
                let member = ((t + off) % n as u32) as usize;
                memberships[member].push((GroupId::new(t, 1), 10 + off as u64));
            }
        }
        let (out, stats) = run_sum(n, memberships, 1);
        for t in 0..n {
            assert_eq!(out[t].len(), 1, "node {t}: {:?}", out[t]);
            let (g, v) = out[t][0];
            assert_eq!(g, GroupId::new(t as u32, 1));
            assert_eq!(v, 33);
        }
        assert!(stats.clean());
    }

    #[test]
    fn min_aggregate_and_multiple_groups_per_target() {
        let n = 40;
        let mut memberships: Vec<Vec<(GroupId, u64)>> = vec![Vec::new(); n];
        // two groups target node 3, members everywhere
        for v in 0..n {
            memberships[v].push((GroupId::new(3, 0), (v as u64) + 100));
            memberships[v].push((GroupId::new(3, 1), 1000 - v as u64));
        }
        let mut eng = Engine::new(NetConfig::new(n, 7));
        let shared = SharedRandomness::new(99);
        let (out, _) = aggregate(
            &mut eng,
            &shared,
            AggregationSpec {
                memberships,
                ell2_hat: 2,
            },
            &MinU64,
        )
        .unwrap();
        let mut got = out[3].clone();
        got.sort_by_key(|(g, _)| *g);
        assert_eq!(
            got,
            vec![(GroupId::new(3, 0), 100), (GroupId::new(3, 1), 1000 - 39)]
        );
    }

    /// A node `≥ 2^d` emulates no column but still scatters its own
    /// memberships, batch after batch: node 18 of 20 (`d = 4`, batches of
    /// `⌈log₂ 20⌉ = 5`) holds three batches.
    #[test]
    fn non_emulating_member_scatters_every_batch() {
        let n = 20;
        let mut memberships: Vec<Vec<(GroupId, u64)>> = vec![Vec::new(); n];
        memberships[18] = (0..12)
            .map(|t| (GroupId::new(t, 2), 100 + t as u64))
            .collect();
        let (out, stats) = run_sum(n, memberships, 1);
        for t in 0..n {
            let want: Vec<_> = (t < 12)
                .then(|| (GroupId::new(t as u32, 2), 100 + t as u64))
                .into_iter()
                .collect();
            assert_eq!(out[t], want, "node {t}");
        }
        assert!(stats.clean());
    }

    #[test]
    fn xor_cancellation_across_members() {
        let n = 16;
        let g = GroupId::new(0, 7);
        let mut memberships: Vec<Vec<(GroupId, u64)>> = vec![Vec::new(); n];
        memberships[2].push((g, 0xAA));
        memberships[9].push((g, 0xAA));
        memberships[12].push((g, 0x55));
        let mut eng = Engine::new(NetConfig::new(n, 1));
        let shared = SharedRandomness::new(5);
        let (out, _) = aggregate(
            &mut eng,
            &shared,
            AggregationSpec {
                memberships,
                ell2_hat: 1,
            },
            &XorU64,
        )
        .unwrap();
        assert_eq!(out[0], vec![(g, 0x55)]);
    }

    #[test]
    fn empty_spec_is_cheap() {
        let n = 16;
        let (out, stats) = run_sum(n, vec![Vec::new(); n], 1);
        assert!(out.iter().all(Vec::is_empty));
        // the combine's barrier and the delivery's pad still run: O(log n)
        assert!(stats.rounds < 40, "rounds {}", stats.rounds);
    }

    #[test]
    fn single_node_combines_locally() {
        let (a, b) = (GroupId::new(0, 1), GroupId::new(0, 2));
        let (out, stats) = run_sum(1, vec![vec![(b, 5), (a, 1), (b, 7)]], 2);
        assert_eq!(out, vec![vec![(a, 1), (b, 12)]]);
        assert_eq!(stats, ExecStats::default(), "no network, no rounds");
    }

    #[test]
    fn rounds_follow_theorem_bound() {
        // Theorem 2.3: O(L/n + (ℓ₁+ℓ̂₂)/log n + log n). With L = n·ℓ₁ and
        // small ℓ₁, rounds should stay O(log n)-ish, far below L.
        let n = 128;
        let ell1 = 8;
        let mut memberships: Vec<Vec<(GroupId, u64)>> = vec![Vec::new(); n];
        for v in 0..n as u32 {
            for j in 0..ell1 {
                let target = (v.wrapping_mul(31).wrapping_add(j)) % n as u32;
                memberships[v as usize].push((GroupId::new(target, j), 1));
            }
        }
        let (out, stats) = run_sum(n, memberships, 2 * ell1 as usize + 8);
        let total: u64 = out.iter().flatten().map(|(_, v)| v).sum();
        assert_eq!(total, (n * ell1 as usize) as u64, "no packet lost");
        let logn = 7;
        let bound = 40 * logn; // generous constant on O(L/n + ℓ/logn + logn) = O(logn) here
        assert!(
            (stats.rounds as usize) < bound,
            "rounds {} exceed c·log n = {bound}",
            stats.rounds
        );
        assert!(stats.clean());
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 32;
        let g = GroupId::new(1, 0);
        let mems: Vec<Vec<(GroupId, u64)>> = (0..n).map(|v| vec![(g, v as u64)]).collect();
        let a = run_sum(n, mems.clone(), 1);
        let b = run_sum(n, mems, 1);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    /// What a node would compute locally for `group` — the pair a packet
    /// must be carrying wherever it is.
    pub(crate) fn fresh_route(
        shared: &SharedRandomness,
        bf: &Butterfly,
        n: usize,
        fifo: bool,
        group: u64,
    ) -> Route {
        let k = SharedRandomness::k_for(n);
        let target = shared.poly(labels::AGG_TARGET, 0, k);
        let rank = shared.poly(labels::AGG_RANK, 0, k);
        Route {
            target: target.to_range(group, bf.columns() as u64) as u32,
            rank: if fifo {
                0
            } else {
                u32::try_from(rank.to_range(group, 1 << 32)).expect("ranks fit 32 bits")
            },
        }
    }

    proptest::proptest! {
        /// Carried route ≡ recomputed route on the combining path: a packet
        /// injected at any level-0 column shows the freshly hashed
        /// `(target, rank)` in its queue key at every level and in every
        /// cross-edge message, and ends at level `d` of column `h(group)`
        /// after exactly `d` steps — with and without random ranks.
        #[test]
        fn carried_route_matches_fresh_hash_on_every_combining_hop(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..700,
            node in proptest::prelude::any::<u32>(),
            sub in proptest::prelude::any::<u32>(),
            start in proptest::prelude::any::<u32>(),
            fifo in proptest::prelude::any::<bool>(),
        ) {
            let shared = SharedRandomness::new(seed);
            let bf = Butterfly::for_n(n);
            let group = GroupId::new(node % n as u32, sub).raw();
            let fresh = fresh_route(&shared, &bf, n, fifo, group);
            let mut hashes = RouteHashes::new(&shared, &bf, n);
            hashes.random_ranks = !fifo;
            let mut states: Vec<CombineState<u64>> =
                (0..bf.columns()).map(|_| CombineState::default()).collect();
            let mut col = start % bf.columns() as u32;
            // the packet enters the butterfly at (0, col): its route is evaluated here
            combine_insert(&bf, &SumU64, &mut states[col as usize], col, 0, group, hashes.route(group), 1);
            for level in 0..bf.d() {
                let st = &mut states[col as usize];
                let queued = st.queue.keys_at(level);
                proptest::prop_assert_eq!(queued.len(), 1, "one packet, at level {}", level);
                proptest::prop_assert_eq!(queued[0], (fresh, group), "queued at level {}", level);
                let (mut crossed, mut unpaced) = (None, usize::MAX);
                combine_step(&bf, &SumU64, st, col, &mut unpaced, &mut |dst, msg| {
                    crossed = Some((dst, msg));
                });
                if let Some((dst, m)) = crossed {
                    proptest::prop_assert_eq!(m.route, fresh, "sent from level {}", level);
                    proptest::prop_assert_eq!((m.level as u32, m.group), (level + 1, group));
                    col = bf.column_of(dst);
                    combine_insert(
                        &bf,
                        &SumU64,
                        &mut states[col as usize],
                        col,
                        m.level as u32,
                        m.group,
                        m.route,
                        m.value,
                    );
                }
            }
            proptest::prop_assert_eq!(col, fresh.target);
            proptest::prop_assert_eq!(states[col as usize].arrived.get(&group), Some(&1));
        }
    }

    /// The one combining pipeline keeps the layouts of the two programs
    /// it replaced: per-node stage-1 state 72 B behind `()` and 144 B
    /// behind the tree spread, and Aggregation's wire type `LevelMsg`
    /// (32 B), so its `bits` carry no front tag. Per-node state is what
    /// peak RSS scales with: a stage-1 state that grew to 80 B once
    /// raised `dag_mst` `peak_rss_mb` by 31 % (CHANGES.md, the
    /// `RouteQueue` entry). Every lane of a packed stage rides the mux
    /// wire type, 24 B per envelope because the lane tag sits inside the
    /// payload's one allocation, not beside its pointer.
    #[test]
    fn pipeline_layouts_are_pinned() {
        type Leaf = fn(&mut rand::rngs::SmallRng, GroupId, ncc_model::NodeId, &u64) -> u64;
        type Agg = CombinePipeline<'static, u64, SumU64, ()>;
        type Multi = CombinePipeline<'static, u64, MinU64, SpreadFront<'static, u64, Leaf>>;
        fn wire<P: NodeProgram<Payload = LevelMsg<u64>>>() {}
        wire::<Agg>();
        assert_eq!(std::mem::size_of::<<Agg as NodeProgram>::State>(), 72);
        assert_eq!(std::mem::size_of::<<Multi as NodeProgram>::State>(), 144);
        assert_eq!(std::mem::size_of::<LevelMsg<u64>>(), 32);
        use ncc_model::{DynPayload, Envelope};
        assert_eq!(std::mem::size_of::<Envelope<DynPayload>>(), 24);
    }
}
