//! The Aggregation Algorithm (Theorem 2.3, Appendix B.2).
//!
//! Aggregates the inputs of arbitrary *aggregation groups* to their targets
//! in `O(L/n + (ℓ₁ + ℓ̂₂)/log n + log n)` rounds w.h.p., where `L` is the
//! global load (total memberships), `ℓ₁` the maximum memberships per node
//! and `ℓ̂₂` a known bound on targets per node.
//!
//! One pipeline — the [`AggregationSub`] lane, two stages, each followed
//! by one synchronisation:
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
//!    ends on a [`sync_barrier`] (App. B.1 synchronisation).
//! 2. **Postprocessing** — each level-`d` node delivers every finished
//!    group aggregate to its target in a round chosen uniformly from
//!    `{1..⌈ℓ̂₂/log n⌉}`, smoothing the receive load
//!    ([`ScheduleProgram`], the program of `ncc-core`'s scheduled
//!    exchange too). Every node knows from ℓ̂₂ and `n` when the last
//!    delivery lands, so the stage ends on the clock
//!    ([`StageEnd::Within`]): a pad of idle rounds to that bound, or the
//!    barrier when it is sooner.
//!
//! [`aggregate`] builds that lane and runs it alone, a one-node
//! [`Dag`](crate::compose::Dag) ([`run_alone`]); algorithms put the same
//! lane next to others in a larger one.
//!
//! Multi-Aggregation (Theorem 2.6, [`multi_aggregate`]) runs the same
//! combining network, and so does the member-fired combine
//! ([`multicast_aggregate_sub`]). All three are one [`CombineSub`] lane
//! whose stage 1 is one program, generic over its [`Front`]: what feeds
//! the scatter besides a node's own memberships. Aggregation's front is
//! `()`, nothing; Multi-Aggregation's is the tree spreading of
//! [`multicast`](mod@crate::multicast) ([`SpreadFront`]), whose leaf
//! arrivals are re-keyed to their members and scattered in the same
//! rounds; the member-fired combine's is the whole multicast
//! ([`MulticastFront`]), whose members fire on their copies. Besides the
//! front, only the delivery window (`⌈ℓ̂₂/log n⌉` rounds; one for
//! Multi-Aggregation) and the output shape ([`Front::Out`]) differ. There
//! is no second implementation. Front, scatter and combine share the
//! lane's send budget ([`LaneSub::pace`]), so packed lanes never overdraw
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
use ncc_model::{Ctx, Engine, Envelope, ExecStats, ModelError, NodeId, NodeProgram, Payload};
use rand::Rng;

use crate::combine::Aggregate;
use crate::compose::{lane_seed, Lane, LaneSub, Stage, StageEnd};
use crate::mctree::MulticastTrees;
use crate::multicast::{
    spread_deliver_states, spread_states, SpreadDeliverState, SpreadState, TreeSpread,
};
use crate::queue::{LevelOrder, Route, RouteQueue};
use crate::schedule::run_alone;
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

    pub(crate) fn with_fifo(mut self) -> Self {
        self.random_ranks = false;
        self
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

impl<V: Payload> Payload for LevelMsg<V> {
    fn bit_size(&self) -> u32 {
        6 + ncc_model::payload::min_bits(self.group) + self.value.bit_size()
    }
}

// ---------------------------------------------------------------------------
// Stage 1: scatter + combine (random-rank routing with in-network combining)
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
    /// Takes what a node keeps of its front's final state, as stage 1's
    /// states are collected (the rest is freed then).
    fn keep(st: Self::State) -> Self::Kept;
    /// Shapes a node's output from what its front kept and what it
    /// received in the delivery stage, as that stage's states are
    /// collected.
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

/// Stage 1 of both aggregations: injection and combining in the same
/// rounds. Each node scatters its packets — its own memberships, and what
/// its front hands it — in batches of `⌈log n⌉` as level-0 arrivals at
/// uniformly random columns, while the random-rank routing already moves
/// earlier packets toward `h(group)`: the streamed form of Thm 2.3's
/// first two phases (the routing analysis \[1, 57\] covers continuous
/// injection).
pub(crate) struct CombinePipeline<'a, W, A, Fr> {
    bf: Butterfly,
    hashes: RouteHashes,
    agg: &'a A,
    front: Fr,
    batch: usize,
    /// Per-node, per-round send ceiling across the whole pipeline (front,
    /// scatter and combine): the lane's share of the node capacity
    /// ([`LaneSub::pace`]). `usize::MAX` = unpaced.
    send_budget: usize,
    _pd: std::marker::PhantomData<W>,
}

pub(crate) struct PipeState<S, W> {
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
// Stage 2: postprocessing (randomized delivery rounds)
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
// The sub-protocol and its blocking entry points
// ---------------------------------------------------------------------------

/// The combining network as a composable lane: stage 1 is the
/// scatter+combine pipeline behind front `Fr`, stage 2 the randomized
/// delivery. Used as [`AggregationSub`] and [`MultiAggSub`]; run with
/// [`run_alone`] or as a DAG node.
pub struct CombineSub<'a, W, A, Fr: Front<W>> {
    stage: usize,
    lane_seed: u64,
    /// Delivery rounds are drawn from `1..=window`.
    window: u64,
    pipe: Stage<CombinePipeline<'a, W, A, Fr>, PipeState<Fr::State, W>>,
    /// What the fronts kept, from stage 1's collect to stage 2's.
    fronts: Vec<Fr::Kept>,
    del: Stage<ScheduleProgram<PacketMsg<W>>, ScheduleState<PacketMsg<W>>>,
    out: Option<Vec<Fr::Out>>,
}

/// The Aggregation Algorithm as a composable lane: the combining network
/// with nothing in front. Build with [`aggregation_sub`], read with
/// [`AggregationSub::into_results`].
pub type AggregationSub<'a, V, A> = CombineSub<'a, V, A, ()>;

/// Multi-Aggregation as a composable lane: the combining network behind
/// the tree spread. Build with [`multi_aggregate_sub`], read with
/// [`MultiAggSub::into_results`].
pub type MultiAggSub<'a, V, W, A, F> = CombineSub<'a, W, A, SpreadFront<'a, V, F>>;

/// The lane around one combining pipeline, per-node states given.
fn combine_sub<'a, W, A, Fr: Front<W>>(
    n: usize,
    shared: &SharedRandomness,
    front: Fr,
    agg: &'a A,
    states: Vec<PipeState<Fr::State, W>>,
    window: u64,
    lane_seed: u64,
) -> CombineSub<'a, W, A, Fr> {
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
    CombineSub {
        stage: 0,
        lane_seed,
        window,
        pipe: Some((pipe, states)),
        fronts: Vec::new(),
        del: None,
        out: None,
    }
}

/// Delivery rounds for at most `ell` deliveries per node at `⌈log₂ n⌉`
/// per round: `⌈ell/⌈log₂ n⌉⌉`, at least one.
pub(crate) fn delivery_window(n: usize, ell: usize) -> u64 {
    ell.div_ceil(ncc_model::ilog2_ceil(n).max(1) as usize)
        .max(1) as u64
}

/// Builds the aggregation sub-protocol. Arguments mirror [`aggregate`];
/// `lane_seed` keys the lane's private randomness (scatter columns,
/// delivery rounds).
pub fn aggregation_sub<'a, V: Payload, A: Aggregate<V>>(
    n: usize,
    shared: &SharedRandomness,
    spec: AggregationSpec<V>,
    agg: &'a A,
    lane_seed: u64,
) -> AggregationSub<'a, V, A> {
    assert_eq!(spec.memberships.len(), n);
    if n == 1 {
        // trivial network: the one node combines locally, no stage to run
        let mut by_group = BTreeMap::new();
        for (g, v) in spec.memberships.into_iter().flatten() {
            merge_into(&mut by_group, g.raw(), v, agg);
        }
        let out = vec![by_group.into_iter().map(|(g, v)| (GroupId(g), v)).collect()];
        return CombineSub {
            stage: 0,
            lane_seed,
            window: 1,
            pipe: None,
            fronts: Vec::new(),
            del: None,
            out: Some(out),
        };
    }
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

impl<V: Payload, A: Aggregate<V>> AggregationSub<'_, V, A> {
    /// Replaces the random-rank contention rule with a static priority
    /// (rank ≡ 0, ties by group id) — ablation E17: the outputs are
    /// rank-independent, but Theorem B.2's delay bound only holds for
    /// random ranks. Call before the lane is installed.
    pub fn static_priority(mut self) -> Self {
        self.pipe = self.pipe.map(|(mut prog, states)| {
            prog.hashes = prog.hashes.with_fifo();
            (prog, states)
        });
        self
    }
}

impl<W, A, Fr: Front<W>> CombineSub<'_, W, A, Fr> {
    /// Per node, its output ([`Front::Out`]): Aggregation's
    /// `(group, aggregate)` deliveries; Multi-Aggregation's aggregate over
    /// the packets multicast to the node, `None` if no group reached it;
    /// the member-fired combine's fired copies beside its deliveries.
    /// Panics before the composition ran to completion.
    pub fn into_results(self) -> Vec<Fr::Out> {
        self.out.expect("combining sub-protocol not finished")
    }
}

impl<'a, W, A, Fr> LaneSub<'a> for CombineSub<'a, W, A, Fr>
where
    W: Payload,
    A: Aggregate<W>,
    Fr: Front<W> + 'a,
{
    fn pace(&mut self, send_budget: usize) {
        if let Some((prog, _)) = self.pipe.as_mut() {
            prog.send_budget = send_budget;
        }
    }

    fn install(&mut self, b: &mut ncc_model::MuxBuilder<'a>) -> Option<ncc_model::LaneId> {
        let seed = ncc_model::rng::derive_seed(&[self.lane_seed, self.stage as u64]);
        match self.stage {
            0 => {
                let (prog, states) = self.pipe.take()?;
                Some(b.lane_seeded(prog, states, seed))
            }
            1 => {
                let (prog, states) = self.del.take()?;
                Some(b.lane_seeded(prog, states, seed))
            }
            _ => None,
        }
    }

    fn collect(&mut self, lane: ncc_model::LaneId, states: &mut [ncc_model::MuxState]) {
        match self.stage {
            0 => {
                let pipe: Vec<PipeState<Fr::State, W>> = ncc_model::take_lane_states(states, lane);
                // each finished aggregate owes its target one delivery
                let deliveries = |s: PipeState<Fr::State, W>| {
                    let at =
                        |(group, value)| (0, GroupId(group).target(), PacketMsg { group, value });
                    let to_send = s.comb.arrived.into_iter().map(at).collect();
                    (
                        Fr::keep(s.front),
                        ScheduleState {
                            to_send,
                            received: Vec::new(),
                        },
                    )
                };
                let del;
                (self.fronts, del) = pipe.into_iter().map(deliveries).unzip();
                let draw = Some(self.window);
                self.del = Some((
                    ScheduleProgram {
                        draw,
                        key: |p| p.group,
                    },
                    del,
                ));
            }
            _ => {
                let del: Vec<ScheduleState<PacketMsg<W>>> =
                    ncc_model::take_lane_states(states, lane);
                let fronts = std::mem::take(&mut self.fronts).into_iter();
                let got = |s: ScheduleState<PacketMsg<W>>| {
                    s.received
                        .into_iter()
                        .map(|(_, p)| (GroupId(p.group), p.value))
                        .collect()
                };
                self.out = Some(fronts.zip(del).map(|(f, s)| Fr::out(f, got(s))).collect());
            }
        }
        self.stage += 1;
    }

    fn is_done(&self) -> bool {
        self.out.is_some()
    }

    fn stage_end(&self) -> StageEnd {
        // deliveries leave in local rounds `0..window` and the last lands
        // in round `window`: the stage is over within `window + 1` rounds
        match &self.del {
            Some(_) => StageEnd::Within(self.window + 1),
            None => StageEnd::Barrier,
        }
    }
}

/// Runs the full Aggregation Algorithm. Every group's inputs are combined
/// with `agg` and delivered to the group's target; the per-node output lists
/// the `(group, aggregate)` pairs that node received as a target.
///
/// Blocking wrapper: one [`AggregationSub`] under [`run_alone`].
/// Round complexity (Theorem 2.3): `O(L/n + (ℓ₁ + ℓ̂₂)/log n + log n)` w.h.p.
pub fn aggregate<V: Payload, A: Aggregate<V>>(
    engine: &mut Engine,
    shared: &SharedRandomness,
    spec: AggregationSpec<V>,
    agg: &A,
) -> Result<(GroupedDeliveries<V>, ExecStats), ModelError> {
    let seed = lane_seed(engine, 0x6167_6772 /* "aggr" */, 0);
    let sub = aggregation_sub(engine.n(), shared, spec, agg, seed);
    run_alone(engine, sub, AggregationSub::into_results)
}

// ---------------------------------------------------------------------------
// Multi-Aggregation (Theorem 2.6, Appendix B.5)
// ---------------------------------------------------------------------------

/// Sub-identifier namespace for the re-keyed member groups.
const MA_SUB: u32 = 0x4D41;

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

/// Builds the multi-aggregation sub-protocol. Arguments mirror
/// [`multi_aggregate`]; `lane_seed` keys the lane's private randomness
/// (leaf-map draws, scatter columns).
pub fn multi_aggregate_sub<'a, V, W, A, F>(
    n: usize,
    shared: &SharedRandomness,
    trees: &'a MulticastTrees,
    messages: Vec<Option<(GroupId, V)>>,
    leaf_map: F,
    agg: &'a A,
    lane_seed: u64,
) -> MultiAggSub<'a, V, W, A, F>
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
/// Blocking wrapper: one [`MultiAggSub`] under [`run_alone`].
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
    let seed = lane_seed(engine, 0x6d61_6767 /* "magg" */, 0);
    let sub = multi_aggregate_sub(engine.n(), shared, trees, messages, leaf_map, agg, seed);
    run_alone(engine, sub, MultiAggSub::into_results)
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

/// The member-fired combine as a composable lane: the combining network
/// behind a multicast whose members fire. Build with
/// [`multicast_aggregate_sub`], read with [`CombineSub::into_results`].
pub type McAggSub<'a, V, W, A, F> = CombineSub<'a, W, A, MulticastFront<'a, V, F>>;

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
) -> McAggSub<'a, V, W, A, F>
where
    V: Payload,
    W: Payload,
    A: Aggregate<W>,
    F: Fn(NodeId, GroupId, &V, &mut Vec<(GroupId, W)>) + Sync,
{
    let n = messages.len();
    assert!(n >= 2 && spec.memberships.len() == n);
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
// input each, every node learns `f(inputs of A)` in `O(log n)` rounds:
//
// 1. non-emulating nodes inject their inputs into their proxy level-0
//    butterfly nodes;
// 2. *aggregation sweep* (rounds `1..=d`): at round `r`, bit `r−1` of the
//    column index is fixed to 0 — every live column with that bit set
//    forwards its partial aggregate across the corresponding cross edge,
//    so after round `d` the root column 0 holds the full aggregate at
//    level `d`;
// 3. *broadcast sweep* (rounds `d+1..=2d`): the reverse binomial tree
//    pushes the result back to every column;
// 4. a final round informs the attached non-emulating nodes.
//
// Every node sends and receives `O(1)` messages per round here. The same
// execution doubles as the paper's synchronisation barrier
// ([`sync_barrier`]) — the token-passing variant of App. B.1 condensed to
// its round cost.
//
// `AbProgram` is one plain program. [`aggregate_and_broadcast`], and with
// it every barrier, hands it straight to `Engine::execute`: no mux, no
// lane header, the nodes' own RNG streams, and the engine's recycled
// buffers, so a barrier on a warm engine allocates only its input, state
// and result vectors. [`ab_sub`] wraps the same program as a lane, for the
// DAG stages that run an A&B beside other protocols; a one-lane mux
// charges zero header bits and borrows the node's stream, so both paths
// cost the same rounds, messages, bits and drops.

/// Wire format of Aggregate-and-Broadcast. Discriminant + payload; levels
/// are implied by the round.
#[derive(Debug, Clone)]
pub enum AbMsg<V> {
    /// Non-emulating node → proxy column (round 0).
    Inject(V),
    /// Aggregation sweep, cross edge toward the root.
    Down(V),
    /// Broadcast sweep, cross edge away from the root.
    Up(V),
    /// Level-0 column → attached non-emulating node.
    Result(V),
}

impl<V: Payload> Payload for AbMsg<V> {
    fn bit_size(&self) -> u32 {
        let inner = match self {
            AbMsg::Inject(v) | AbMsg::Down(v) | AbMsg::Up(v) | AbMsg::Result(v) => v.bit_size(),
        };
        2 + inner
    }
}

/// Per-node Aggregate-and-Broadcast state.
#[derive(Debug, Clone)]
pub struct AbState<V> {
    input: Option<V>,
    acc: Option<V>,
    /// The broadcast result once known; the driver reads this field.
    pub result: Option<V>,
}

/// The Aggregate-and-Broadcast program (Theorem 2.2), the program of an
/// [`AbSub`].
pub struct AbProgram<'a, V, A> {
    bf: Butterfly,
    agg: &'a A,
    _pd: std::marker::PhantomData<V>,
}

impl<V: Payload, A: Aggregate<V>> AbProgram<'_, V, A> {
    fn absorb(&self, st: &mut AbState<V>, inbox: &[Envelope<AbMsg<V>>]) {
        for env in inbox {
            let v = match &env.payload {
                AbMsg::Inject(v) | AbMsg::Down(v) => v,
                AbMsg::Up(v) | AbMsg::Result(v) => {
                    st.result = Some(v.clone());
                    continue;
                }
            };
            st.acc = Some(match st.acc.take() {
                None => v.clone(),
                Some(a) => self.agg.combine(&a, v),
            });
        }
    }
}

impl<V: Payload, A: Aggregate<V>> NodeProgram for AbProgram<'_, V, A> {
    type State = AbState<V>;
    type Payload = AbMsg<V>;

    fn init(&self, st: &mut AbState<V>, ctx: &mut Ctx<'_, AbMsg<V>>) {
        if self.bf.emulates(ctx.id) {
            st.acc = st.input.clone();
            ctx.stay_awake();
        } else if let Some(v) = st.input.clone() {
            let proxy = self.bf.emulator(self.bf.proxy_column(ctx.id));
            ctx.send(proxy, AbMsg::Inject(v));
        }
    }

    fn round(
        &self,
        st: &mut AbState<V>,
        inbox: &[Envelope<AbMsg<V>>],
        ctx: &mut Ctx<'_, AbMsg<V>>,
    ) {
        let d = self.bf.d();
        let r = ctx.round;
        if !self.bf.emulates(ctx.id) {
            // non-emulating nodes only ever receive the final Result
            self.absorb(st, inbox);
            return;
        }
        let alpha = self.bf.column_of(ctx.id);
        self.absorb(st, inbox);

        if r <= d as u64 {
            // aggregation sweep: fix bit r−1
            let bit = 1u32 << (r - 1);
            let low_mask = bit - 1;
            if alpha & low_mask == 0 && alpha & bit != 0 {
                if let Some(v) = st.acc.take() {
                    ctx.send(self.bf.emulator(alpha & !bit), AbMsg::Down(v));
                }
            }
            ctx.stay_awake();
        } else if r <= 2 * d as u64 {
            // broadcast sweep: step j = r − d sends across bit d − j
            let j = (r - d as u64) as u32;
            if j == 1 && alpha == 0 {
                st.result = st.acc.clone();
            }
            let bit = 1u32 << (d - j);
            let low_mask = (bit << 1) - 1;
            if alpha & low_mask == 0 {
                if let Some(v) = st.result.clone() {
                    ctx.send(self.bf.emulator(alpha | bit), AbMsg::Up(v));
                }
            }
            ctx.stay_awake();
        } else if r == 2 * d as u64 + 1 {
            // inform the attached non-emulating node, if any
            if let Some(v) = st.result.clone() {
                if let Some(node) = self.bf.attached_node(alpha) {
                    ctx.send(node, AbMsg::Result(v));
                }
            }
        }
    }
}

/// Runs Aggregate-and-Broadcast: each node optionally holds one input;
/// afterwards every node knows the aggregate (or `None` if no node held an
/// input). Takes `O(log n)` rounds (Theorem 2.2).
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
    let (prog, mut states) = ab_program(inputs, agg);
    let stats = engine.execute(&prog, &mut states)?;
    Ok((ab_results(states), stats))
}

/// The Aggregate-and-Broadcast program over `inputs.len()` nodes and its
/// initial per-node states.
fn ab_program<V: Payload, A: Aggregate<V>>(
    inputs: Vec<Option<V>>,
    agg: &A,
) -> (AbProgram<'_, V, A>, Vec<AbState<V>>) {
    let prog = AbProgram {
        bf: Butterfly::for_n(inputs.len()),
        agg,
        _pd: std::marker::PhantomData,
    };
    let states = inputs
        .into_iter()
        .map(|input| AbState {
            input,
            acc: None,
            result: None,
        })
        .collect();
    (prog, states)
}

fn ab_results<V>(states: Vec<AbState<V>>) -> Vec<Option<V>> {
    states.into_iter().map(|s| s.result).collect()
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
/// [`aggregate_and_broadcast`] (the same program run alone).
pub fn ab_sub<'a, V: Payload, A: Aggregate<V>>(
    n: usize,
    inputs: Vec<Option<V>>,
    agg: &'a A,
) -> AbSub<'a, V, A> {
    assert_eq!(inputs.len(), n);
    assert!(n >= 2, "composable A&B needs n ≥ 2");
    let (prog, states) = ab_program(inputs, agg);
    Lane::new(prog, states, ab_results).ending(StageEnd::SelfSync)
}

/// Rounds one [`sync_barrier`] takes on `n` nodes when none of its
/// messages is dropped: `2d + 2` on `2^d` nodes, one more to inform the
/// attached nodes otherwise, and none on one node.
pub(crate) fn barrier_rounds(n: usize) -> u64 {
    match n {
        0 | 1 => 0,
        _ => 2 * ncc_model::ilog2_floor(n) as u64 + 2 + !n.is_power_of_two() as u64,
    }
}

/// The synchronisation barrier used between phases of larger primitives:
/// an Aggregate-and-Broadcast of a constant. Costs the `O(log n)` rounds
/// the paper charges for its token-based synchronisation (App. B.1).
pub fn sync_barrier(engine: &mut Engine) -> Result<ExecStats, ModelError> {
    let n = engine.n();
    let inputs: Vec<Option<u64>> = vec![Some(1); n];
    let (results, stats) = aggregate_and_broadcast(engine, inputs, &crate::combine::MinU64)?;
    debug_assert!(results.iter().all(|r| *r == Some(1)));
    Ok(stats)
}

#[cfg(test)]
mod ab_tests {
    use super::*;
    use crate::combine::{MaxU64, MinU64, SumU64};
    use ncc_model::NetConfig;

    fn engine(n: usize) -> Engine {
        Engine::new(NetConfig::new(n, 42))
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

    #[test]
    fn rounds_logarithmic() {
        // Theorem 2.2: O(log n) rounds. Measure the constant: 2d + O(1).
        for k in [3u32, 5, 8, 10] {
            let n = 1usize << k;
            let mut eng = engine(n);
            let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
            let (_, stats) = aggregate_and_broadcast(&mut eng, inputs, &SumU64).unwrap();
            assert!(
                stats.rounds <= 2 * k as u64 + 3,
                "n=2^{k}: {} rounds > 2d+3",
                stats.rounds
            );
        }
    }

    #[test]
    fn per_round_load_constant() {
        let n = 256;
        let mut eng = engine(n);
        let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
        let (_, stats) = aggregate_and_broadcast(&mut eng, inputs, &SumU64).unwrap();
        assert!(stats.max_in <= 2, "max in-degree {}", stats.max_in);
        assert!(stats.max_out <= 2, "max out-degree {}", stats.max_out);
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
        for n in [1usize, 2, 3, 4, 7, 48, 64, 100, 128] {
            let stats = sync_barrier(&mut engine(n)).unwrap();
            assert_eq!(barrier_rounds(n), stats.rounds, "n = {n}");
        }
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
                let node = dag.proto(
                    "ab",
                    &[],
                    move |_| ab_sub(n, lane_inputs, &SumU64),
                    |s| s.into_results(),
                );
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
            let hashes = RouteHashes::new(&shared, &bf, n);
            let hashes = if fifo { hashes.with_fifo() } else { hashes };
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
