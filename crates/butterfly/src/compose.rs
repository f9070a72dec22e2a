//! Composing primitives as concurrent mux lanes.
//!
//! The paper's complexity arguments run *many* primitive instances in the
//! same rounds (§2: "run O(log n) instances of the Aggregation Algorithm in
//! parallel"), sharing the per-node `O(log n)` budget. This module declares
//! that style of composition over [`ncc_model::Mux`]:
//!
//! * a primitive decomposed for composition is a chain of [`Lane`]s, each
//!   one stage: an ordinary `NodeProgram`, its per-node states, how the
//!   stage ends ([`StageEnd`]) and a finisher that turns the collected
//!   states into the lane's output;
//! * a [`Dag`] declares which lanes run and what depends on what. Its
//!   scheduler ([`crate::schedule`]) packs the ready lanes into one mux
//!   execution, so concurrent primitives share rounds, capacity and drop
//!   sampling exactly as one program — then settles **one sync per
//!   stage** for the whole stage (instead of one per primitive, the cost
//!   model of App. B.1's phase synchronisation): a [`sync_barrier`],
//!   nothing when every lane is its own barrier, or a *pad* of idle
//!   rounds to a bound every node knows (see [`StageEnd`]), unless an
//!   all-A&B stage carries it.
//!
//! Each primitive has exactly one implementation and one driver. Most are
//! one lane (Aggregate-and-Broadcast, tree setup, multicast, and
//! `ncc-core`'s scheduled exchange and rendezvous). A primitive with two
//! stages is two lanes chained in the DAG, the second built from the
//! first one's output: the combining pipeline and its delivery
//! ([`Dag::combine`]), and `ncc-core`'s gather-and-broadcast. The
//! blocking entry points (`aggregate`, `multicast_setup`, `multicast`,
//! `multi_aggregate`) declare that lane or that chain alone in a [`Dag`]
//! ([`run_alone`](crate::schedule::run_alone) for one lane).
//! Aggregate-and-Broadcast is the exception: it is one plain program and
//! its own barrier, so
//! [`aggregate_and_broadcast`](crate::aggregation::aggregate_and_broadcast)
//! and [`sync_barrier`] hand it to `Engine::execute` without a mux.
//!
//! [`sync_barrier`]: crate::aggregation::sync_barrier

use ncc_model::{Engine, ExecStats, LaneId, ModelError, MuxBuilder, MuxState, NodeProgram};

/// How every node learns that a lane's stage is over, and so what the
/// stage owes before the next one may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageEnd {
    /// No node can tell locally: the stage owes a
    /// [`sync_barrier`](crate::aggregation::sync_barrier).
    Barrier,
    /// The stage ends with every node knowing it ended: it is its own
    /// phase barrier (an Aggregate-and-Broadcast *is* the barrier
    /// primitive of App. B.1), so it owes nothing.
    SelfSync,
    /// The stage is over within this many rounds of its start, a bound
    /// every node computes from common knowledge (ℓ̂₂ and `n`, or a
    /// declared window): the nodes learn the end from the clock, and the
    /// stage owes a pad of idle rounds up to the bound.
    Within(u64),
}

/// A driver's view of a [`Lane`], object-safe so that one stage can hold
/// lanes of different programs: the driver installs the lane into a
/// shared mux execution and, once that execution quiesced, collects it
/// with the same lane id.
pub trait LaneSub<'a> {
    /// Installs the program and its per-node states as a mux lane. A
    /// lane installs once.
    fn install(&mut self, b: &mut MuxBuilder<'a>) -> LaneId;

    /// Collects the states installed under `lane` into the lane's output
    /// (node-local work only — no communication).
    fn collect(&mut self, lane: LaneId, states: &mut [MuxState]);

    /// How every node learns that the lane's stage is over. A stage whose
    /// lanes are all [`StageEnd::SelfSync`] owes nothing, matching the
    /// cost of `aggregate_and_broadcast`, and when it follows a stage
    /// that owes a sync it runs in that sync's slot and carries it. A
    /// stage whose lanes are all [`StageEnd::Within`] owes a pad to the
    /// largest bound.
    fn stage_end(&self) -> StageEnd;

    /// Asks the lane to keep its per-node traffic within `share` — its
    /// [`Share`] of the node capacity when a scheduler packs it next to
    /// other lanes (§2's parallel-instances argument: `k` concurrent
    /// instances each slow down by the factor `k`, they do not overdraw
    /// the budget). The scheduler calls it before [`LaneSub::install`].
    ///
    /// A lane honours it through its [`Lane::paced`] hook. The combining
    /// pipeline has one and holds its sends to the send share in every
    /// round, round 0 included: its load is `Θ(log n)` per round.
    /// Aggregate-and-Broadcast has one and sizes its fan-in by the
    /// smaller of the two shares, which bounds its receives as well as
    /// its sends. The other lanes have none, because their per-round load
    /// is `O(1)` by construction — except the combine's delivery and the
    /// multicast and tree-setup lanes, whose `Θ(log n)` load stays
    /// unpaced.
    fn pace(&mut self, share: Share);
}

/// A lane's share of the per-node capacity: `(send, recv)` messages a
/// round ([`LaneSub::pace`]).
pub type Share = (usize, usize);

/// One stage of a primitive as data: one program, its per-node states,
/// how the stage ends, and a capture-free `finish` that turns the
/// collected states into the output. Every lane is a `Lane`; read it with
/// [`Lane::into_results`].
pub struct Lane<P: NodeProgram, T> {
    stage: Option<(P, Vec<P::State>)>,
    seed: Option<u64>,
    end: StageEnd,
    pace: Option<fn(&mut P, Share)>,
    finish: fn(Vec<P::State>) -> T,
    out: Option<T>,
}

impl<P: NodeProgram, T> Lane<P, T> {
    /// A lane on the nodes' own randomness streams
    /// ([`MuxBuilder::lane`]) that ends on a [`StageEnd::Barrier`] and is
    /// not paced.
    pub fn new(prog: P, states: Vec<P::State>, finish: fn(Vec<P::State>) -> T) -> Self {
        Lane {
            stage: Some((prog, states)),
            seed: None,
            end: StageEnd::Barrier,
            pace: None,
            finish,
            out: None,
        }
    }

    /// Gives the lane a private randomness stream keyed by `seed`
    /// ([`MuxBuilder::lane_seeded`]).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets how every node learns that the stage is over.
    pub fn ending(mut self, end: StageEnd) -> Self {
        self.end = end;
        self
    }

    /// Gives the lane its [`LaneSub::pace`]: `hook` holds the program to
    /// a per-node [`Share`].
    pub fn paced(mut self, hook: fn(&mut P, Share)) -> Self {
        self.pace = Some(hook);
        self
    }

    /// The program, before the lane is installed.
    pub(crate) fn program(&mut self) -> &mut P {
        &mut self.stage.as_mut().expect("lane already installed").0
    }

    /// Runs the lane by itself, without a mux, on the nodes' own streams
    /// and paced to the engine's whole capacity, and finishes it.
    pub(crate) fn execute(mut self, engine: &mut Engine) -> Result<(T, ExecStats), ModelError> {
        let cap = engine.config().capacity;
        if let Some(hook) = self.pace {
            hook(self.program(), (cap.send, cap.recv));
        }
        let (prog, mut states) = self.stage.take().expect("a lane installs once");
        let stats = engine.execute(&prog, &mut states)?;
        Ok(((self.finish)(states), stats))
    }

    /// The finished output. Panics before the lane was collected.
    pub fn into_results(self) -> T {
        self.out.expect("lane not finished")
    }
}

impl<'a, P, T> LaneSub<'a> for Lane<P, T>
where
    P: NodeProgram + 'a,
    P::State: 'static,
{
    fn install(&mut self, b: &mut MuxBuilder<'a>) -> LaneId {
        let (prog, states) = self.stage.take().expect("a lane installs once");
        match self.seed {
            Some(seed) => b.lane_seeded(prog, states, seed),
            None => b.lane(prog, states),
        }
    }

    fn collect(&mut self, lane: LaneId, states: &mut [MuxState]) {
        self.out = Some((self.finish)(ncc_model::take_lane_states(states, lane)));
    }

    fn stage_end(&self) -> StageEnd {
        self.end
    }

    fn pace(&mut self, share: Share) {
        if let Some(hook) = self.pace {
            hook(self.program(), share);
        }
    }
}

/// Derives a deterministic lane seed from the engine seed and a composition
/// label — so composed lanes have reproducible, composition-independent
/// randomness streams keyed by `(engine seed, label, index)`.
pub fn lane_seed(engine: &Engine, label: u64, index: u64) -> u64 {
    ncc_model::rng::derive_seed(&[
        engine.config().seed,
        0x6c61_6e65, /* "lane" */
        label,
        index,
    ])
}

// ---------------------------------------------------------------------------
// Declarative protocol DAGs
// ---------------------------------------------------------------------------

use std::any::Any;
use std::marker::PhantomData;

/// Typed handle to a declared DAG node: names the node in dependency lists
/// and retrieves its output (of type `T`) from [`Deps`] / [`DagOutputs`].
pub struct ProtoNode<T> {
    pub(crate) idx: usize,
    _pd: PhantomData<fn() -> T>,
}

impl<T> Clone for ProtoNode<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ProtoNode<T> {}

impl<T> std::fmt::Debug for ProtoNode<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ProtoNode(#{})", self.idx)
    }
}

/// Untyped dependency edge: any [`ProtoNode`] converts into one, so a
/// node's `deps` list can mix handles of different output types.
#[derive(Debug, Clone, Copy)]
pub struct Dep(pub(crate) usize);

impl<T> From<ProtoNode<T>> for Dep {
    fn from(h: ProtoNode<T>) -> Dep {
        Dep(h.idx)
    }
}

/// View of upstream outputs, handed to a node's build/run closure once
/// all of its dependencies completed.
pub struct Deps<'v> {
    pub(crate) outputs: &'v mut [Option<Box<dyn Any>>],
}

impl Deps<'_> {
    /// The output of an upstream node. Panics if `h` was not declared as a
    /// dependency of the requesting node (its output may not exist yet).
    pub fn get<T: 'static>(&self, h: ProtoNode<T>) -> &T {
        self.outputs[h.idx]
            .as_ref()
            .expect("dependency not finished — was it declared in `deps`?")
            .downcast_ref::<T>()
            .expect("dependency output type mismatch")
    }

    /// Moves an upstream output out, for the one node that consumes it.
    /// Panics, as [`Deps::get`] does, and on a second take.
    pub fn take<T: 'static>(&mut self, h: ProtoNode<T>) -> T {
        *self.outputs[h.idx]
            .take()
            .expect("dependency not finished, or already taken")
            .downcast::<T>()
            .expect("dependency output type mismatch")
    }
}

/// Outputs of a completed [`Dag::run`], keyed by node handle.
pub struct DagOutputs {
    pub(crate) outputs: Vec<Option<Box<dyn Any>>>,
}

impl DagOutputs {
    /// Takes ownership of a node's output. Panics on a second take.
    pub fn take<T: 'static>(&mut self, h: ProtoNode<T>) -> T {
        *self.outputs[h.idx]
            .take()
            .expect("node output already taken (or node never ran)")
            .downcast::<T>()
            .expect("node output type mismatch")
    }
}

/// A built protocol node: its lane and the finisher that turns the
/// collected lane into the node's output.
pub(crate) struct Built<L, F> {
    pub(crate) lane: L,
    pub(crate) finish: F,
}

/// A [`Built`] node with its types erased, so the scheduler holds every
/// node in one table.
pub(crate) trait Running<'a> {
    fn stage_end(&self) -> StageEnd;
    /// Paces the lane to `share` and installs it.
    fn install(&mut self, share: Share, b: &mut MuxBuilder<'a>) -> LaneId;
    /// Collects the lane and finishes it into the node's boxed output.
    fn finish(self: Box<Self>, id: LaneId, states: &mut [MuxState]) -> Box<dyn Any>;
}

impl<'a, L: LaneSub<'a>, T: 'static, F: FnOnce(L) -> T> Running<'a> for Built<L, F> {
    fn stage_end(&self) -> StageEnd {
        self.lane.stage_end()
    }
    fn install(&mut self, share: Share, b: &mut MuxBuilder<'a>) -> LaneId {
        self.lane.pace(share);
        self.lane.install(b)
    }
    fn finish(self: Box<Self>, id: LaneId, states: &mut [MuxState]) -> Box<dyn Any> {
        let Built { mut lane, finish } = *self;
        lane.collect(id, states);
        Box::new(finish(lane))
    }
}

/// Deferred construction of a protocol node from its dependencies.
pub(crate) type BuildFn<'a> = Box<dyn FnOnce(&mut Deps<'_>) -> Box<dyn Running<'a> + 'a> + 'a>;
/// Deferred node-local computation from its dependencies.
pub(crate) type ComputeFn<'a> = Box<dyn FnOnce(&Deps<'_>) -> Box<dyn Any> + 'a>;

pub(crate) enum NodeState<'a> {
    /// Waiting on dependencies; `build` turns their outputs into a lane.
    Pending(BuildFn<'a>),
    /// Node-local computation (no communication): runs as soon as its
    /// dependencies are done, producing its output immediately.
    PendingCompute(ComputeFn<'a>),
    /// Built; its lane runs in the next stage that has room for it.
    Running(Box<dyn Running<'a> + 'a>),
    /// Finished; output stored in the outputs table.
    Done,
}

pub(crate) struct DagNode<'a> {
    pub(crate) label: String,
    pub(crate) deps: Vec<usize>,
    pub(crate) state: NodeState<'a>,
}

/// A declared dependency DAG of sub-protocol invocations.
///
/// Algorithms *declare* what runs and what depends on what; the scheduler
/// ([`Dag::run`], implemented in [`crate::schedule`]) decides what runs
/// *together* — it packs every antichain of ready protocols into shared
/// [`ncc_model::Mux`] executions under the per-node `O(log n)` instance
/// budget, with at most one shared sync per packed stage (a
/// [`sync_barrier`](crate::aggregation::sync_barrier), carried or paid,
/// or a pad to a known bound). See the [`crate::schedule`] module docs for
/// the scheduling rules and the paper mapping.
///
/// Two node kinds:
/// * [`Dag::proto`] — a communicating sub-protocol: a [`Lane`] built from
///   its dependencies' outputs by a closure ([`Dag::combine`] declares
///   two chained ones);
/// * [`Dag::compute`] — free node-local computation (the model's "local
///   computation is free"), used to transform upstream outputs without
///   burning a stage.
#[derive(Default)]
pub struct Dag<'a> {
    pub(crate) nodes: Vec<DagNode<'a>>,
}

impl<'a> Dag<'a> {
    pub fn new() -> Self {
        Dag { nodes: Vec::new() }
    }

    /// Number of declared nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes were declared.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn add<T>(&mut self, label: String, deps: &[Dep], state: NodeState<'a>) -> ProtoNode<T> {
        let idx = self.nodes.len();
        for d in deps {
            assert!(d.0 < idx, "dependency on a node declared later");
        }
        self.nodes.push(DagNode {
            label,
            deps: deps.iter().map(|d| d.0).collect(),
            state,
        });
        ProtoNode {
            idx,
            _pd: PhantomData,
        }
    }

    /// Declares a protocol node. `build` receives the outputs of `deps`
    /// and constructs the node's [`Lane`]; once the lane ran, its output
    /// ([`Lane::into_results`]) is the node's. A lane that borrows an
    /// upstream output moves it into a cell that outlives the DAG
    /// ([`Deps::take`]), since a build's view of its dependencies ends
    /// with the build.
    ///
    /// Declaration order is the scheduler's tie-breaker: independent nodes
    /// that become ready together are packed into one stage in declaration
    /// order (first-declared gets a lane first if the budget binds).
    pub fn proto<P, T, B>(
        &mut self,
        label: impl Into<String>,
        deps: &[Dep],
        build: B,
    ) -> ProtoNode<T>
    where
        P: NodeProgram + 'a,
        P::State: 'static,
        T: 'static,
        B: FnOnce(&mut Deps<'_>) -> Lane<P, T> + 'a,
    {
        self.built(label.into(), deps, move |d| Built {
            lane: build(d),
            finish: Lane::into_results,
        })
    }

    /// Declares a protocol node whose `build` also picks the finisher
    /// that turns its collected lane into the node's output.
    pub(crate) fn built<L, T, F, B>(
        &mut self,
        label: String,
        deps: &[Dep],
        build: B,
    ) -> ProtoNode<T>
    where
        L: LaneSub<'a> + 'a,
        T: 'static,
        F: FnOnce(L) -> T + 'a,
        B: FnOnce(&mut Deps<'_>) -> Built<L, F> + 'a,
    {
        let build: BuildFn<'a> = Box::new(move |d| Box::new(build(d)));
        self.add(label, deps, NodeState::Pending(build))
    }

    /// Declares a node-local computation node: `run` maps upstream outputs
    /// to this node's output without any communication (free in the
    /// model). It never occupies a lane or a stage.
    pub fn compute<T, R>(&mut self, label: impl Into<String>, deps: &[Dep], run: R) -> ProtoNode<T>
    where
        T: 'static,
        R: FnOnce(&Deps<'_>) -> T + 'a,
    {
        self.add(
            label.into(),
            deps,
            NodeState::PendingCompute(Box::new(move |deps| Box::new(run(deps)))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_model::{Ctx, Envelope, NetConfig, NodeProgram};

    fn keep(states: Vec<u64>) -> Vec<u64> {
        states
    }

    /// Stage 1 of a two-lane chain: relays a token around the ring
    /// `hops` times; every node counts what it received.
    struct Relay {
        hops: u64,
    }
    impl NodeProgram for Relay {
        type State = u64;
        type Payload = u64;
        fn init(&self, _st: &mut u64, ctx: &mut Ctx<'_, u64>) {
            ctx.send((ctx.id + 1) % ctx.n as u32, 1);
        }
        fn round(&self, st: &mut u64, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            *st += inbox.len() as u64;
            if ctx.round < self.hops {
                ctx.send((ctx.id + 1) % ctx.n as u32, 1);
            }
        }
    }

    /// Stage 2: every node reports its state to node 0.
    struct Report;
    impl NodeProgram for Report {
        type State = u64;
        type Payload = u64;
        fn init(&self, st: &mut u64, ctx: &mut Ctx<'_, u64>) {
            ctx.send(0, *st);
        }
        fn round(&self, st: &mut u64, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            if ctx.id == 0 {
                *st += inbox.iter().map(|e| e.payload).sum::<u64>();
            }
        }
    }

    #[test]
    fn composed_stages_share_barriers() {
        let n = 16;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let mut dag = Dag::new();
        // two chains of two lanes: the report starts from node 0's count
        let [a, c] = [4, 9].map(|hops| {
            let relay = dag.proto(format!("relay{hops}"), &[], move |_| {
                Lane::new(Relay { hops }, vec![0u64; n], keep).seeded(1)
            });
            let report = dag.proto(format!("report{hops}"), &[relay.into()], move |d| {
                Lane::new(Report, vec![d.get(relay)[0]; n], keep).seeded(2)
            });
            (relay, report)
        });
        let mut run = dag.run(&mut eng).unwrap();
        assert_eq!(run.report.stages.len(), 2, "stages align across lanes");
        assert_eq!(run.report.max_lanes(), 2);
        assert_eq!(run.report.lane_stages(), 4);
        // node 0's counter starts at its own count and absorbs every
        // node's report (its own included)
        for (hops, (relay, report)) in [(4, a), (9, c)] {
            assert_eq!(run.outputs.take(relay)[0], hops);
            assert_eq!(run.outputs.take(report)[0], hops + hops * n as u64);
        }
        // stage 1 is bounded by the slowest lane, not the sum
        assert!(
            run.stats.rounds < (10 + 2) + 2 * 20,
            "rounds {}",
            run.stats.rounds
        );
    }

    /// Every node draws one number in round 0 and keeps it.
    struct Draw;
    impl NodeProgram for Draw {
        type State = u64;
        type Payload = u64;
        fn init(&self, st: &mut u64, ctx: &mut Ctx<'_, u64>) {
            *st = rand::Rng::gen(ctx.rng());
        }
        fn round(&self, _st: &mut u64, _inbox: &[Envelope<u64>], _ctx: &mut Ctx<'_, u64>) {}
    }

    #[test]
    fn lane_installs_once_and_finishes_on_collect() {
        let n = 8;
        let mut lane = Lane::new(Relay { hops: 3 }, vec![0u64; n], keep);
        let mut b = MuxBuilder::new(n);
        let id = lane.install(&mut b);
        let (mux, mut states) = b.build();
        Engine::new(NetConfig::new(n, 5))
            .execute(&mux, &mut states)
            .unwrap();
        lane.collect(id, &mut states);
        assert_eq!(lane.into_results(), vec![3u64; n]);
    }

    #[test]
    #[should_panic(expected = "a lane installs once")]
    fn a_second_install_panics() {
        let mut lane = Lane::new(Draw, vec![0u64; 4], keep);
        lane.install(&mut MuxBuilder::new(4));
        lane.install(&mut MuxBuilder::new(4));
    }

    #[test]
    fn paced_lane_hands_its_share_to_the_hook() {
        let relay = |hops| Lane::new(Relay { hops }, vec![0u64; 4], keep);
        let mut paced = relay(9).paced(|prog, (send, _)| prog.hops = send as u64);
        paced.pace((2, 3));
        assert_eq!(paced.program().hops, 2);
        let mut unpaced = relay(9);
        unpaced.pace((2, 3));
        assert_eq!(unpaced.program().hops, 9);
    }

    #[test]
    fn lane_reports_its_end_before_install() {
        let lane = || Lane::new(Draw, vec![0u64; 4], keep);
        assert_eq!(lane().stage_end(), StageEnd::Barrier);
        for end in [StageEnd::SelfSync, StageEnd::Within(7)] {
            assert_eq!(lane().ending(end).stage_end(), end);
        }
    }

    #[test]
    fn seeded_lane_alone_matches_the_bare_program() {
        let (n, seed) = (16, 0x5eed);
        let lane = Lane::new(Draw, vec![0u64; n], keep).seeded(seed);
        let mut eng = Engine::new(NetConfig::new(n, 1));
        let (alone, _) = crate::schedule::run_alone(&mut eng, lane).unwrap();
        let mut bare = vec![0u64; n];
        Engine::new(NetConfig::new(n, seed))
            .execute(&Draw, &mut bare)
            .unwrap();
        assert_eq!(alone, bare);
    }

    #[test]
    fn lane_seed_is_engine_and_label_keyed() {
        let eng_a = Engine::new(NetConfig::new(4, 1));
        let eng_b = Engine::new(NetConfig::new(4, 2));
        assert_ne!(lane_seed(&eng_a, 7, 0), lane_seed(&eng_b, 7, 0));
        assert_ne!(lane_seed(&eng_a, 7, 0), lane_seed(&eng_a, 7, 1));
        assert_ne!(lane_seed(&eng_a, 7, 0), lane_seed(&eng_a, 8, 0));
        assert_eq!(lane_seed(&eng_a, 7, 0), lane_seed(&eng_a, 7, 0));
    }
}
