//! Lane-multiplexed concurrent protocol composition.
//!
//! The paper's round bounds come from running *many* primitive instances
//! concurrently under the shared per-node `O(log n)` budget — §2's
//! Aggregation Algorithm explicitly runs "O(log n) instances in parallel",
//! and Theorems 2.3–2.6 charge one shared capacity budget for all of them.
//! A [`Mux`] makes that composition executable: it is itself a
//! [`NodeProgram`] whose payload is a [`DynPayload`] (lane id + type-erased
//! inner payload), and it drives any number of *lanes* — independent
//! sub-programs with their own per-node state — inside one engine
//! execution, so the lanes **share rounds** instead of queuing behind each
//! other.
//!
//! ## Capacity-sharing invariant
//!
//! All lanes draw from one per-node send/receive budget, exactly as if they
//! were a single hand-written program: the mux concatenates the lanes'
//! sends **lane-round-robin** (first send of every lane, then the second of
//! every lane, …), so under permissive truncation no lane can starve the
//! others, and the engine's receive-cap drop sampling sees one combined
//! inbox per node — the paper's "the union of the instances still obeys the
//! node capacity" argument (§2.2), made checkable. The lane id travels in
//! the payload and is charged honestly: `⌈log₂ k⌉` bits for `k` lanes,
//! zero bits for a single lane, so a one-lane mux is **bit-identical** to
//! running the inner program directly (same sends, same bits, same drops,
//! same rounds).
//!
//! ## Per-lane quiescence
//!
//! Each lane keeps its own awake flag and only steps when it received a
//! message of its own lane or asked to stay awake — precisely the engine's
//! node-activity rule, applied per lane. A lane that quiesces early simply
//! stops being stepped (its state frozen) while other lanes keep running;
//! the execution ends when every lane of every node is quiet, which is the
//! synchronisation point the paper's phase barriers provide.
//!
//! ## Buffer ownership: a node-round allocates nothing
//!
//! The mux owns no per-round buffers. Everything a node-round needs —
//! each lane's typed inbox, its typed out-buffer, its type-erased
//! out-buffer and the inner program's own scratch slot — lives in a
//! `MuxScratch` parked in the stepping worker's `Ctx::scratch` slot,
//! which the engine keeps beside that worker's `out` buffer and recycles
//! across executions. A node-round takes the scratch out of the slot,
//! delivers the combined inbox straight into the lanes' typed inboxes (one
//! pass, no erased intermediate), steps the active lanes, interleaves
//! their sends by cursor, clears every buffer it filled — cleared, never
//! dropped, so capacity is retained — and puts the scratch back. The
//! contract, pinned by `tests/alloc_mux.rs` on a resident `threads = 1`
//! replay: a node-round that neither receives nor sends performs **zero**
//! heap allocations, and a message costs at most one — the `Arc` of
//! [`DynPayload::new`] that erases its type for the shared wire format and
//! holds its lane tag.
//!
//! ## Determinism
//!
//! Lanes are stepped in lane order within a node, the interleave is
//! positional, and lane randomness comes either from the node's engine
//! stream (single-lane adapters) or from a dedicated stream keyed by
//! `(lane seed, node)` ([`MuxBuilder::lane_seeded`]), seeded on its first
//! draw like the engine's own streams — so a lane's behavior
//! is independent of what it is composed with, and executions are
//! bit-identical across 1/2/4/8 worker threads like every other program.

use std::any::Any;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::payload::{Envelope, Payload};
use crate::program::{Ctx, NodeProgram, ProgScratch, Stream};
use crate::NodeId;

// ---------------------------------------------------------------------------
// Type-erased payloads
// ---------------------------------------------------------------------------

/// Object-safe view of a [`Payload`] value, so lanes with different payload
/// types can share one wire type.
trait ErasedPayload: Send + Sync {
    fn bits(&self) -> u32;
    fn as_any(&self) -> &dyn Any;
}

impl<P: Payload> ErasedPayload for P {
    fn bits(&self) -> u32 {
        self.bit_size()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// What a [`DynPayload`] points at: the lane tag beside the inner value,
/// in the one allocation that erases the value's type.
struct Wire<T: ?Sized> {
    lane: u32,
    lane_bits: u8,
    inner: T,
}

/// The wire format of a [`Mux`] execution: a lane-tagged, type-erased
/// payload behind a cheap-to-clone pointer, so an envelope stays 24 bytes
/// whatever the lanes carry.
///
/// `lane_bits` is the header width the active composition needs to name a
/// lane (`⌈log₂ k⌉` for `k` lanes — zero for a single lane, so one-lane
/// executions charge exactly the inner payload's bits).
#[derive(Clone)]
pub struct DynPayload(std::sync::Arc<Wire<dyn ErasedPayload>>);

impl DynPayload {
    pub fn new<P: Payload>(lane: u32, lane_bits: u8, inner: P) -> Self {
        DynPayload(std::sync::Arc::new(Wire {
            lane,
            lane_bits,
            inner,
        }))
    }

    /// The lane this payload belongs to.
    pub fn lane(&self) -> u32 {
        self.0.lane
    }

    /// The inner value, if it has type `P`.
    pub fn downcast_ref<P: Payload>(&self) -> Option<&P> {
        self.0.inner.as_any().downcast_ref::<P>()
    }
}

impl std::fmt::Debug for DynPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DynPayload(lane {}, {} bits)",
            self.0.lane,
            self.bit_size()
        )
    }
}

impl Payload for DynPayload {
    fn bit_size(&self) -> u32 {
        self.0.lane_bits as u32 + self.0.inner.bits()
    }
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// The `Ctx` a [`Mux`] node-round runs in.
type MuxCtx<'a> = Ctx<'a, DynPayload>;

/// Identifier of a lane within one [`Mux`] (index into the lane table).
pub type LaneId = usize;

/// Per-node, per-lane slot: the lane's state plus its activity bookkeeping.
pub struct LaneSlot {
    state: Box<dyn Any + Send>,
    /// Dedicated RNG stream keyed by `(seed, node)` when `seeded`
    /// (`lane_seeded`), valid once `stale` is clear; otherwise unused and
    /// the lane borrows the node's engine stream (the transparent
    /// single-lane mode).
    rng: SmallRng,
    seed: u64,
    stale: bool,
    seeded: bool,
    /// The lane asked to run next round even without mail.
    awake: bool,
    /// Rounds in which this lane actually stepped (init included).
    pub active_rounds: u64,
    /// Messages this lane sent.
    pub sent: u64,
}

/// Per-node state of a [`Mux`]: one [`LaneSlot`] per lane.
pub struct MuxState {
    lanes: Vec<LaneSlot>,
}

/// Summed per-lane accounting over all nodes — the "who used the shared
/// rounds" breakdown the runner echoes into `RunRecord.metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Total node-rounds in which the lane stepped.
    pub node_rounds: u64,
    /// Total messages the lane sent.
    pub sent: u64,
}

/// One lane's reusable buffers inside a [`MuxScratch`]. Between
/// node-rounds every buffer is empty; only capacity survives.
struct LaneScratch {
    /// The lane's typed buffers, a [`LaneBufs`] of its payload type behind
    /// `Any` (lanes of one mux differ in payload type). A unit placeholder
    /// — or the buffers of whichever lane of an earlier mux held this
    /// index — until this lane first touches it.
    typed: Box<dyn Any + Send>,
    /// Messages delivered into the typed inbox this node-round.
    mail: usize,
    /// This node-round's sends, type-erased for the interleave, which
    /// takes each one out of its slot (so nothing is cloned) before the
    /// buffer is cleared.
    out: Vec<Option<(NodeId, DynPayload)>>,
}

impl Default for LaneScratch {
    fn default() -> Self {
        LaneScratch {
            typed: Box::new(()), // zero-sized: no allocation
            mail: 0,
            out: Vec::new(),
        }
    }
}

/// The typed half of a [`LaneScratch`]: what the inner program's `Ctx`
/// and inbox slice borrow for one step.
struct LaneBufs<P: Payload> {
    inbox: Vec<Envelope<P>>,
    out: Vec<(NodeId, P)>,
    /// The inner program's own scratch slot (a lane may itself be a mux).
    scratch: ProgScratch,
}

/// `typed` as this lane's [`LaneBufs`], replacing whatever else is there.
fn lane_bufs<P: Payload>(typed: &mut Box<dyn Any + Send>) -> &mut LaneBufs<P> {
    if !typed.is::<LaneBufs<P>>() {
        *typed = Box::new(LaneBufs::<P> {
            inbox: Vec::new(),
            out: Vec::new(),
            scratch: None,
        });
    }
    typed
        .downcast_mut()
        .expect("just checked or installed this type")
}

/// The per-worker scratch of every [`Mux`] execution (see the module docs,
/// "Buffer ownership"): one [`LaneScratch`] per lane index, grown to the
/// widest mux this worker has stepped and never shrunk.
#[derive(Default)]
struct MuxScratch {
    lanes: Vec<LaneScratch>,
}

/// Object-safe driver interface for one lane's inner program.
trait ErasedLane<'a>: Sync {
    /// Appends one delivered message to the lane's typed inbox.
    fn deliver(&self, sc: &mut LaneScratch, src: NodeId, dst: NodeId, payload: &DynPayload);

    /// Steps the inner program on the inbox `deliver` filled (empty on
    /// init), leaving its sends in `sc.out`, tagged `(lane, lane_bits)`,
    /// and the inbox cleared. The lane's `Ctx` is the node's, `node`, with
    /// the lane's own buffers and its own stream if it has one.
    fn step(
        &self,
        tag: (u32, u8),
        slot: &mut LaneSlot,
        sc: &mut LaneScratch,
        is_init: bool,
        node: &mut MuxCtx,
    );
    /// Boxes `states` back out (used by [`take_lane_states`]).
    fn type_name(&self) -> &'static str;
}

struct LaneEntry<Prog> {
    prog: Prog,
}

impl<'a, Prog> ErasedLane<'a> for LaneEntry<Prog>
where
    Prog: NodeProgram + 'a,
    Prog::State: 'static,
{
    fn deliver(&self, sc: &mut LaneScratch, src: NodeId, dst: NodeId, payload: &DynPayload) {
        let inner = payload
            .downcast_ref::<Prog::Payload>()
            .expect("lane payload type mismatch")
            .clone();
        lane_bufs::<Prog::Payload>(&mut sc.typed)
            .inbox
            .push(Envelope::new(src, dst, inner));
        sc.mail += 1;
    }

    fn step(
        &self,
        (lane, lane_bits): (u32, u8),
        slot: &mut LaneSlot,
        sc: &mut LaneScratch,
        is_init: bool,
        node: &mut MuxCtx,
    ) {
        let state = slot
            .state
            .downcast_mut::<Prog::State>()
            .expect("lane state type mismatch");
        let bufs = lane_bufs::<Prog::Payload>(&mut sc.typed);
        let mut awake = false;
        {
            let stream = if slot.seeded {
                Stream::new(&mut slot.rng, &mut slot.stale, slot.seed)
            } else {
                node.stream.reborrow()
            };
            let mut ctx = Ctx {
                id: node.id,
                n: node.n,
                round: node.round,
                stream,
                out: &mut bufs.out,
                awake: &mut awake,
                scratch: &mut bufs.scratch,
            };
            if is_init {
                self.prog.init(state, &mut ctx);
            } else {
                self.prog.round(state, &bufs.inbox, &mut ctx);
            }
        }
        bufs.inbox.clear();
        sc.mail = 0;
        slot.awake = awake;
        slot.active_rounds += 1;
        slot.sent += bufs.out.len() as u64;
        sc.out.extend(
            bufs.out
                .drain(..)
                .map(|(dst, p)| Some((dst, DynPayload::new(lane, lane_bits, p)))),
        );
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<Prog::State>()
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Assembles a [`Mux`] and its per-node states from typed lanes.
pub struct MuxBuilder<'a> {
    n: usize,
    lanes: Vec<Box<dyn ErasedLane<'a> + 'a>>,
    /// `slots[lane][node]`, transposed to `[node][lane]` in [`Self::build`].
    slots: Vec<Vec<LaneSlot>>,
    /// Hard cap on the number of lanes (the per-node parallel-instance
    /// budget a scheduler promised to respect). `None` = unbounded.
    budget: Option<usize>,
}

impl<'a> MuxBuilder<'a> {
    pub fn new(n: usize) -> Self {
        MuxBuilder {
            n,
            lanes: Vec::new(),
            slots: Vec::new(),
            budget: None,
        }
    }

    /// Declares a hard lane budget: the per-node number of concurrent
    /// protocol instances this mux may host (the paper's `O(log n)`
    /// parallel-instances cap, §2). Adding a lane beyond the budget
    /// panics — the hook that keeps an automatic scheduler honest.
    pub fn with_lane_budget(mut self, budget: usize) -> Self {
        assert!(budget >= 1, "a mux needs room for at least one lane");
        self.budget = Some(budget);
        self
    }

    /// Number of lanes added so far.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    fn push<Prog>(&mut self, prog: Prog, states: Vec<Prog::State>, seed: Option<u64>) -> LaneId
    where
        Prog: NodeProgram + 'a,
        Prog::State: 'static,
    {
        assert_eq!(states.len(), self.n, "one state per node required");
        if let Some(budget) = self.budget {
            assert!(
                self.lanes.len() < budget,
                "lane budget exceeded: {budget} lanes already installed"
            );
        }
        let id = self.lanes.len();
        // A placeholder until the first draw seeds the stream.
        let unseeded = SmallRng::seed_from_u64(0);
        self.slots.push(
            states
                .into_iter()
                .map(|st| LaneSlot {
                    state: Box::new(st),
                    rng: unseeded.clone(),
                    seed: seed.unwrap_or(0),
                    stale: true,
                    seeded: seed.is_some(),
                    awake: false,
                    active_rounds: 0,
                    sent: 0,
                })
                .collect(),
        );
        self.lanes.push(Box::new(LaneEntry { prog }));
        id
    }

    /// Adds a lane that draws randomness from the node's own engine stream.
    ///
    /// With exactly one such lane, the mux execution is bit-identical to
    /// `engine.execute(&prog, &mut states)`. Lanes that draw no randomness
    /// of their own (Aggregate-and-Broadcast, scheduled exchanges) use it;
    /// the primitives' lanes use [`MuxBuilder::lane_seeded`].
    pub fn lane<Prog>(&mut self, prog: Prog, states: Vec<Prog::State>) -> LaneId
    where
        Prog: NodeProgram + 'a,
        Prog::State: 'static,
    {
        self.push(prog, states, None)
    }

    /// Adds a lane with a dedicated per-node RNG stream keyed by
    /// `(lane_seed, node)` — the composition mode: the lane behaves
    /// identically whether it runs alone (on an engine seeded `lane_seed`)
    /// or multiplexed with arbitrary other lanes.
    pub fn lane_seeded<Prog>(
        &mut self,
        prog: Prog,
        states: Vec<Prog::State>,
        lane_seed: u64,
    ) -> LaneId
    where
        Prog: NodeProgram + 'a,
        Prog::State: 'static,
    {
        self.push(prog, states, Some(lane_seed))
    }

    /// Finalizes into the program + per-node states pair for
    /// `engine.execute`.
    pub fn build(self) -> (Mux<'a>, Vec<MuxState>) {
        assert!(!self.lanes.is_empty(), "a mux needs at least one lane");
        let lane_bits = crate::ilog2_ceil(self.lanes.len()) as u8;
        let mut per_node: Vec<MuxState> = (0..self.n)
            .map(|_| MuxState {
                lanes: Vec::with_capacity(self.lanes.len()),
            })
            .collect();
        for lane_slots in self.slots {
            for (node, slot) in lane_slots.into_iter().enumerate() {
                per_node[node].lanes.push(slot);
            }
        }
        (
            Mux {
                lanes: self.lanes,
                lane_bits,
            },
            per_node,
        )
    }
}

/// Extracts lane `lane`'s per-node states back out of a finished execution.
///
/// Panics if `S` is not the lane's state type.
pub fn take_lane_states<S: Send + 'static>(states: &mut [MuxState], lane: LaneId) -> Vec<S> {
    states
        .iter_mut()
        .map(|ms| {
            let slot = &mut ms.lanes[lane];
            let boxed = std::mem::replace(&mut slot.state, Box::new(()));
            *boxed.downcast::<S>().unwrap_or_else(|_| {
                panic!("lane {lane} state is not a {}", std::any::type_name::<S>())
            })
        })
        .collect()
}

/// Per-lane accounting summed over all nodes.
pub fn lane_stats(states: &[MuxState]) -> Vec<LaneStats> {
    let lanes = states.first().map_or(0, |s| s.lanes.len());
    let mut out = vec![LaneStats::default(); lanes];
    for ms in states {
        for (i, slot) in ms.lanes.iter().enumerate() {
            out[i].node_rounds += slot.active_rounds;
            out[i].sent += slot.sent;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The multiplexer program
// ---------------------------------------------------------------------------

/// The lane multiplexer: a [`NodeProgram`] over [`DynPayload`]s that
/// interleaves any number of sub-programs in the same rounds. See the
/// module docs for the capacity-sharing and quiescence semantics.
pub struct Mux<'a> {
    lanes: Vec<Box<dyn ErasedLane<'a> + 'a>>,
    lane_bits: u8,
}

impl Mux<'_> {
    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// One node-round: delivers `inbox` to the lanes, steps the active
    /// ones in lane order and interleaves their sends into `ctx`.
    fn node_round(
        &self,
        st: &mut MuxState,
        inbox: &[Envelope<DynPayload>],
        is_init: bool,
        ctx: &mut MuxCtx,
    ) {
        debug_assert_eq!(st.lanes.len(), self.lanes.len());
        // Take the worker's scratch out of its slot for the node-round (a
        // pointer move), so the buffers and `ctx` can be borrowed side by
        // side; the first mux node-round on a worker builds it.
        let mut scratch: Box<MuxScratch> = ctx
            .scratch
            .take()
            .and_then(|b| b.downcast().ok())
            .unwrap_or_default();
        if scratch.lanes.len() < self.lanes.len() {
            scratch
                .lanes
                .resize_with(self.lanes.len(), LaneScratch::default);
        }
        let bufs = &mut scratch.lanes[..self.lanes.len()];

        // Partition the combined inbox by lane, preserving arrival order.
        for env in inbox {
            let lane = env.payload.lane() as usize;
            let sc = bufs.get_mut(lane).expect("message for unknown lane");
            self.lanes[lane].deliver(sc, env.src, env.dst, &env.payload);
        }

        let mut any_awake = false;
        let mut longest = 0;
        let lanes = self.lanes.iter().zip(&mut st.lanes).zip(bufs.iter_mut());
        for (i, ((lane, slot), sc)) in lanes.enumerate() {
            // Engine activity rule, per lane: step on init, on mail, or when
            // the lane asked to stay awake last round.
            if is_init || sc.mail > 0 || slot.awake {
                slot.awake = false;
                lane.step((i as u32, self.lane_bits), slot, sc, is_init, ctx);
                longest = longest.max(sc.out.len());
            }
            any_awake |= slot.awake;
        }

        // Lane-round-robin interleave: position j of every lane before
        // position j+1 of any lane, so all lanes share the send budget (and
        // permissive truncation) fairly and deterministically. A cursor
        // walks the lanes' out-buffers in place; the buffers are cleared
        // afterwards and keep their capacity.
        for j in 0..longest {
            for sc in bufs.iter_mut() {
                if let Some(slot) = sc.out.get_mut(j) {
                    let (dst, payload) = slot.take().expect("each send is interleaved once");
                    ctx.send(dst, payload);
                }
            }
        }
        if longest > 0 {
            for sc in bufs.iter_mut() {
                sc.out.clear();
            }
        }
        if any_awake {
            ctx.stay_awake();
        }
        *ctx.scratch = Some(scratch);
    }
}

impl<'a> NodeProgram for Mux<'a> {
    type State = MuxState;
    type Payload = DynPayload;

    fn init(&self, st: &mut MuxState, ctx: &mut MuxCtx) {
        self.node_round(st, &[], true, ctx);
    }

    fn round(&self, st: &mut MuxState, inbox: &[Envelope<DynPayload>], ctx: &mut MuxCtx) {
        self.node_round(st, inbox, false, ctx);
    }
}

impl std::fmt::Debug for Mux<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.lanes.iter().map(|l| l.type_name()).collect();
        write!(f, "Mux({} lanes: {names:?})", self.lanes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, NetConfig};

    impl MuxBuilder<'_> {
        /// Lanes still admissible under the declared budget
        /// (`usize::MAX` when unbounded).
        fn remaining_budget(&self) -> usize {
            self.budget
                .map_or(usize::MAX, |b| b.saturating_sub(self.lanes.len()))
        }
    }

    /// Every node sends one message to (id+1) mod n for `hops` rounds.
    struct RingRelay {
        hops: u64,
        base: u64,
    }
    #[derive(Default, Clone, PartialEq, Debug)]
    struct RelayState {
        received: Vec<u64>,
    }
    impl NodeProgram for RingRelay {
        type State = RelayState;
        type Payload = u64;
        fn init(&self, _st: &mut RelayState, ctx: &mut Ctx<'_, u64>) {
            ctx.send((ctx.id + 1) % ctx.n as u32, self.base);
        }
        fn round(&self, st: &mut RelayState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            for e in inbox {
                st.received.push(e.payload);
            }
            if ctx.round < self.hops {
                ctx.send((ctx.id + 1) % ctx.n as u32, self.base + ctx.round);
            }
        }
    }

    /// Uses `ctx.rng()`: sends a random value to a fixed neighbor each round.
    struct RngScatter {
        rounds: u64,
    }
    impl NodeProgram for RngScatter {
        type State = Vec<u64>;
        type Payload = u64;
        fn init(&self, _st: &mut Vec<u64>, ctx: &mut Ctx<'_, u64>) {
            use rand::Rng;
            let v: u64 = ctx.rng().gen();
            ctx.send((ctx.id + 1) % ctx.n as u32, v);
        }
        fn round(&self, st: &mut Vec<u64>, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            use rand::Rng;
            for e in inbox {
                st.push(e.payload);
            }
            if ctx.round < self.rounds {
                let v: u64 = ctx.rng().gen();
                ctx.send((ctx.id + 2) % ctx.n as u32, v);
            }
        }
    }

    /// `MuxBuilder` allocates `n` of these per lane per stage, and at
    /// small n their size decides which allocator bins the per-stage
    /// requests land in: 8 more bytes per slot once moved `dag_mst`'s peak
    /// RSS by 29 %. A lane's lazily seeded stream must fit in the 80 bytes
    /// the eagerly seeded `Option<SmallRng>` took.
    #[test]
    fn lane_slot_stays_eighty_bytes() {
        assert_eq!(std::mem::size_of::<LaneSlot>(), 80);
    }

    #[test]
    fn tagged_bit_size_charges_lane_header() {
        // k = 4 lanes: a 2-bit header on top of the inner bits
        let t = DynPayload::new(3, 2, 255u64);
        assert_eq!((t.lane(), t.bit_size()), (3, 2 + 8));
        // a single lane: no header, exactly the inner payload's bits
        let solo = DynPayload::new(0, 0, 255u64);
        assert_eq!((solo.lane(), solo.bit_size()), (0, 8));
        // k = 2 lanes over a composite payload
        let pair = DynPayload::new(1, 1, (3u64, true));
        assert_eq!(pair.bit_size(), 1 + 2 + 1);
    }

    #[test]
    fn dyn_payload_downcasts() {
        let p = DynPayload::new(0, 0, 42u64);
        assert_eq!(p.downcast_ref::<u64>(), Some(&42));
        assert!(p.downcast_ref::<bool>().is_none());
        assert_eq!(p.bit_size(), 6);
    }

    #[test]
    fn single_lane_mux_is_bit_identical_to_direct_execution() {
        let n = 32;
        // direct
        let mut eng = Engine::new(NetConfig::new(n, 77));
        let mut direct = vec![RelayState::default(); n];
        let s1 = eng
            .execute(&RingRelay { hops: 5, base: 10 }, &mut direct)
            .unwrap();
        // one-lane mux on a fresh engine with the same seed
        let mut eng = Engine::new(NetConfig::new(n, 77));
        let mut b = MuxBuilder::new(n);
        let id = b.lane(
            RingRelay { hops: 5, base: 10 },
            vec![RelayState::default(); n],
        );
        let (mux, mut states) = b.build();
        let s2 = eng.execute(&mux, &mut states).unwrap();
        let muxed: Vec<RelayState> = take_lane_states(&mut states, id);
        assert_eq!(s1, s2, "stats must match exactly (incl. bits)");
        assert_eq!(direct, muxed);
    }

    #[test]
    fn single_lane_rng_passthrough_matches_direct() {
        let n = 16;
        let run_direct = || {
            let mut eng = Engine::new(NetConfig::new(n, 5));
            let mut st = vec![Vec::new(); n];
            let s = eng.execute(&RngScatter { rounds: 4 }, &mut st).unwrap();
            (s, st)
        };
        let run_mux = || {
            let mut eng = Engine::new(NetConfig::new(n, 5));
            let mut b = MuxBuilder::new(n);
            let id = b.lane(RngScatter { rounds: 4 }, vec![Vec::new(); n]);
            let (mux, mut states) = b.build();
            let s = eng.execute(&mux, &mut states).unwrap();
            (s, take_lane_states::<Vec<u64>>(&mut states, id))
        };
        assert_eq!(run_direct(), run_mux());
    }

    #[test]
    fn lanes_share_rounds_not_queue() {
        // Two 6-round relays as lanes finish in ~6 rounds, not ~12.
        let n = 16;
        let mut eng = Engine::new(NetConfig::new(n, 9));
        let mut b = MuxBuilder::new(n);
        let a = b.lane_seeded(
            RingRelay { hops: 5, base: 100 },
            vec![RelayState::default(); n],
            1,
        );
        let c = b.lane_seeded(
            RingRelay { hops: 5, base: 200 },
            vec![RelayState::default(); n],
            2,
        );
        let (mux, mut states) = b.build();
        let stats = eng.execute(&mux, &mut states).unwrap();
        assert_eq!(stats.rounds, 6, "lanes must interleave, not queue");
        assert_eq!(stats.sent, 2 * 16 * 5);
        let sa: Vec<RelayState> = take_lane_states(&mut states, a);
        let sc: Vec<RelayState> = take_lane_states(&mut states, c);
        assert!(sa.iter().all(|s| s.received.iter().all(|&v| v < 200)));
        assert!(sc.iter().all(|s| s.received.iter().all(|&v| v >= 200)));
    }

    #[test]
    fn seeded_lane_matches_isolated_run_with_same_seed() {
        let n = 24;
        // isolated: engine seeded with the lane seed, so node streams match
        let mut eng = Engine::new(NetConfig::new(n, 4242));
        let mut isolated = vec![Vec::new(); n];
        eng.execute(&RngScatter { rounds: 6 }, &mut isolated)
            .unwrap();
        // muxed beside an unrelated lane, on a different engine seed
        let mut eng = Engine::new(NetConfig::new(n, 1));
        let mut b = MuxBuilder::new(n);
        let id = b.lane_seeded(RngScatter { rounds: 6 }, vec![Vec::new(); n], 4242);
        let _ = b.lane_seeded(
            RingRelay { hops: 3, base: 7 },
            vec![RelayState::default(); n],
            9,
        );
        let (mux, mut states) = b.build();
        eng.execute(&mux, &mut states).unwrap();
        let muxed: Vec<Vec<u64>> = take_lane_states(&mut states, id);
        assert_eq!(isolated, muxed);
    }

    #[test]
    fn mux_deterministic_across_threads() {
        let n = 600; // above the parallel threshold
        let run = |threads: usize| {
            let mut eng = Engine::new(NetConfig::new(n, 31).with_threads(threads));
            let mut b = MuxBuilder::new(n);
            let a = b.lane_seeded(RngScatter { rounds: 7 }, vec![Vec::new(); n], 11);
            let c = b.lane_seeded(
                RingRelay { hops: 6, base: 50 },
                vec![RelayState::default(); n],
                12,
            );
            let (mux, mut states) = b.build();
            let stats = eng.execute(&mux, &mut states).unwrap();
            let sa: Vec<Vec<u64>> = take_lane_states(&mut states, a);
            let sc: Vec<RelayState> = take_lane_states(&mut states, c);
            (stats, sa, sc)
        };
        let base = run(1);
        for t in [2, 4, 8] {
            assert_eq!(run(t), base, "threads={t}");
        }
    }

    #[test]
    fn lane_stats_account_activity() {
        let n = 8;
        let mut eng = Engine::new(NetConfig::new(n, 2));
        let mut b = MuxBuilder::new(n);
        let _ = b.lane_seeded(
            RingRelay { hops: 1, base: 0 },
            vec![RelayState::default(); n],
            1,
        );
        let _ = b.lane_seeded(
            RingRelay { hops: 4, base: 0 },
            vec![RelayState::default(); n],
            2,
        );
        let (mux, mut states) = b.build();
        eng.execute(&mux, &mut states).unwrap();
        let stats = lane_stats(&states);
        assert_eq!(stats[0].sent, 8);
        assert_eq!(stats[1].sent, 8 * 4);
        assert!(stats[1].node_rounds > stats[0].node_rounds);
    }

    #[test]
    fn lane_budget_admits_up_to_budget() {
        let n = 4;
        let mut b = MuxBuilder::new(n).with_lane_budget(2);
        assert_eq!(b.remaining_budget(), 2);
        let _ = b.lane_seeded(
            RingRelay { hops: 1, base: 0 },
            vec![RelayState::default(); n],
            1,
        );
        assert_eq!(b.remaining_budget(), 1);
        let _ = b.lane_seeded(
            RingRelay { hops: 1, base: 0 },
            vec![RelayState::default(); n],
            2,
        );
        assert_eq!(b.remaining_budget(), 0);
    }

    #[test]
    #[should_panic(expected = "lane budget exceeded")]
    fn lane_budget_rejects_overflow() {
        let n = 4;
        let mut b = MuxBuilder::new(n).with_lane_budget(1);
        let _ = b.lane_seeded(
            RingRelay { hops: 1, base: 0 },
            vec![RelayState::default(); n],
            1,
        );
        let _ = b.lane_seeded(
            RingRelay { hops: 1, base: 0 },
            vec![RelayState::default(); n],
            2,
        );
    }

    #[test]
    #[should_panic(expected = "message for unknown lane")]
    fn message_for_unknown_lane_is_a_named_panic() {
        use rand::SeedableRng;
        let n = 2;
        let mut b = MuxBuilder::new(n);
        b.lane(
            RingRelay { hops: 1, base: 0 },
            vec![RelayState::default(); n],
        );
        let (mux, mut states) = b.build();
        let stray = Envelope::new(1, 0, DynPayload::new(3, 0, 9u64));
        let (mut rng, mut stale) = (SmallRng::seed_from_u64(1), false);
        let mut ctx = Ctx {
            id: 0,
            n,
            round: 1,
            stream: Stream::new(&mut rng, &mut stale, 0),
            out: &mut Vec::new(),
            awake: &mut false,
            scratch: &mut None,
        };
        mux.round(&mut states[0], &[stray], &mut ctx);
    }

    #[test]
    #[should_panic(expected = "state is not a")]
    fn take_lane_states_checks_type() {
        let n = 2;
        let mut b = MuxBuilder::new(n);
        let id = b.lane(
            RingRelay { hops: 1, base: 0 },
            vec![RelayState::default(); n],
        );
        let (_mux, mut states) = b.build();
        let _: Vec<u64> = take_lane_states(&mut states, id);
    }
}
