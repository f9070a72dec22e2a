//! Composing primitives as concurrent mux lanes.
//!
//! The paper's complexity arguments run *many* primitive instances in the
//! same rounds (§2: "run O(log n) instances of the Aggregation Algorithm in
//! parallel"), sharing the per-node `O(log n)` budget. This module declares
//! that style of composition over [`ncc_model::Mux`]:
//!
//! * a primitive decomposed for composition is a [`LaneSub`]: a sequence of
//!   *stages*, each an ordinary `NodeProgram` plus a node-local transition
//!   that carries its per-node states into the next stage;
//! * a [`Dag`] declares which sub-protocols run and what depends on what.
//!   Its scheduler ([`crate::schedule`]) aligns the current stages of all
//!   ready subs as lanes of one mux execution, so concurrent primitives
//!   share rounds, capacity and drop sampling exactly as one program —
//!   then settles **one sync per stage** for the whole stage (instead of
//!   one per primitive, the cost model of App. B.1's phase
//!   synchronisation): a [`sync_barrier`], nothing when every lane is its
//!   own barrier, or a *pad* of idle rounds to a bound every node knows
//!   (see [`StageEnd`]), unless an all-A&B stage carries it;
//! * sub-protocols with fewer stages simply contribute nothing to the later
//!   executions; outputs are collected from the final states.
//!
//! Each primitive has exactly one implementation, its [`LaneSub`], and one
//! driver. A single-stage primitive's `LaneSub` is data, not a type of its
//! own: a [`Lane`] holds its program, per-node states, [`StageEnd`] and a
//! finisher (Aggregate-and-Broadcast, tree setup, multicast, and
//! `ncc-core`'s scheduled exchange and rendezvous). Only the two-stage
//! lanes are hand-written: the combining pipeline's
//! [`CombineSub`](crate::aggregation::CombineSub) and `ncc-core`'s
//! gather-and-broadcast. The blocking entry points (`aggregate`,
//! `multicast_setup`, `multicast`, `multi_aggregate`) build that sub and
//! hand it to [`run_alone`](crate::schedule::run_alone), a one-node
//! [`Dag`].
//! Aggregate-and-Broadcast is the exception: it is one plain program and
//! its own barrier, so
//! [`aggregate_and_broadcast`](crate::aggregation::aggregate_and_broadcast)
//! and [`sync_barrier`] hand it to `Engine::execute` without a mux.
//!
//! [`sync_barrier`]: crate::aggregation::sync_barrier

use ncc_model::{Engine, LaneId, MuxBuilder, MuxState, NodeProgram};

/// How every node learns that a lane's current stage is over, and so what
/// the stage owes before the next one may start.
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

/// A primitive decomposed into mux-lane stages.
///
/// The scheduler repeatedly calls [`LaneSub::install`] (returning `None` once
/// the protocol is finished) and, after the shared execution quiesces,
/// [`LaneSub::collect`] with the same lane id so the protocol can pull its
/// states back out and perform its node-local stage transition.
pub trait LaneSub<'a> {
    /// Installs the current stage's program and per-node states as a mux
    /// lane, or `None` if all stages are done.
    fn install(&mut self, b: &mut MuxBuilder<'a>) -> Option<LaneId>;

    /// Collects the states of the stage installed under `lane` and advances
    /// to the next stage (node-local work only — no communication).
    fn collect(&mut self, lane: LaneId, states: &mut [MuxState]);

    /// `true` once every stage has been installed and collected.
    ///
    /// This is a side-effect-free probe (unlike [`LaneSub::install`], which
    /// moves the pending stage into the builder): schedulers use it to
    /// decide whether a protocol still needs lanes *before* committing
    /// builder space. Invariant: `!is_done()` implies the next `install`
    /// returns `Some`.
    fn is_done(&self) -> bool;

    /// How every node learns that the stage the next
    /// [`LaneSub::install`] runs is over — query it before `install`.
    /// Default [`StageEnd::Barrier`]. A stage whose lanes are all
    /// [`StageEnd::SelfSync`] owes nothing, matching the cost of
    /// `aggregate_and_broadcast`, and when it follows a stage that owes a
    /// sync it runs in that sync's slot and carries it. A stage whose
    /// lanes are all [`StageEnd::Within`] owes a pad to the largest bound.
    fn stage_end(&self) -> StageEnd {
        StageEnd::Barrier
    }

    /// Asks the lane to keep its per-node sends within `send_budget`
    /// messages per round — its *share* of the node capacity when a
    /// scheduler packs it next to other lanes (§2's parallel-instances
    /// argument: `k` concurrent instances each slow down by the factor
    /// `k`, they do not overdraw the budget). The scheduler calls it
    /// before every [`LaneSub::install`].
    ///
    /// Both combining lanes, Aggregation and Multi-Aggregation (one
    /// [`CombineSub`](crate::aggregation::CombineSub)), honour it in
    /// every round of their scatter+combine stage, round 0 included:
    /// their load there is `Θ(log n)` per round. Default: no-op, meant
    /// for lanes whose per-round load is `O(1)` by construction. Some
    /// lanes keep the no-op with a `Θ(log n)` load: the combining lanes'
    /// delivery stage, and the multicast and tree-setup [`Lane`]s (a
    /// `Lane` never paces).
    fn pace(&mut self, _send_budget: usize) {}
}

/// A pending stage of a sub-protocol: its program plus per-node states,
/// consumed by [`LaneSub::install`].
pub(crate) type Stage<Prog, St> = Option<(Prog, Vec<St>)>;

/// A single-stage primitive as data: one program, its per-node states,
/// how the stage ends, and a capture-free `finish` that turns the
/// collected states into the output. Every single-stage lane
/// (Aggregate-and-Broadcast, tree setup, multicast, `ncc-core`'s scheduled
/// exchange and rendezvous) is a `Lane`; read it with
/// [`Lane::into_results`].
pub struct Lane<P: NodeProgram, T> {
    stage: Stage<P, P::State>,
    seed: Option<u64>,
    end: StageEnd,
    finish: fn(Vec<P::State>) -> T,
    out: Option<T>,
}

impl<P: NodeProgram, T> Lane<P, T> {
    /// A lane on the nodes' own randomness streams
    /// ([`MuxBuilder::lane`]) that ends on a [`StageEnd::Barrier`].
    pub fn new(prog: P, states: Vec<P::State>, finish: fn(Vec<P::State>) -> T) -> Self {
        Lane {
            stage: Some((prog, states)),
            seed: None,
            end: StageEnd::Barrier,
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

    /// The finished output. Panics before the composition finished.
    pub fn into_results(self) -> T {
        self.out.expect("lane not finished")
    }
}

impl<'a, P, T> LaneSub<'a> for Lane<P, T>
where
    P: NodeProgram + 'a,
    P::State: 'static,
{
    fn install(&mut self, b: &mut MuxBuilder<'a>) -> Option<LaneId> {
        let (prog, states) = self.stage.take()?;
        Some(match self.seed {
            Some(seed) => b.lane_seeded(prog, states, seed),
            None => b.lane(prog, states),
        })
    }

    fn collect(&mut self, lane: LaneId, states: &mut [MuxState]) {
        self.out = Some((self.finish)(ncc_model::take_lane_states(states, lane)));
    }

    fn is_done(&self) -> bool {
        self.out.is_some()
    }

    fn stage_end(&self) -> StageEnd {
        self.end
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

/// Read-only view of upstream outputs, handed to a node's build/run
/// closure once all of its dependencies completed.
pub struct Deps<'v> {
    pub(crate) outputs: &'v [Option<Box<dyn Any>>],
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

/// Object-safe driver view of one protocol node's lane: a [`LaneSub`] plus
/// its typed finisher, erased so the scheduler can hold heterogeneous
/// nodes in one table.
pub(crate) trait DynLane<'a> {
    fn pace(&mut self, send_budget: usize);
    fn install(&mut self, b: &mut MuxBuilder<'a>) -> Option<LaneId>;
    fn collect(&mut self, lane: LaneId, states: &mut [MuxState]);
    fn is_done(&self) -> bool;
    fn stage_end(&self) -> StageEnd;
    /// Consumes the finished sub-protocol into its boxed output.
    fn finish(&mut self) -> Box<dyn Any>;
}

/// A running sub-protocol and its finisher, taken together by `finish`.
struct ProtoRun<'a, S: LaneSub<'a> + 'a, T, F: FnOnce(S) -> T> {
    run: Option<(S, F)>,
    _pd: PhantomData<&'a ()>,
}

impl<'a, S: LaneSub<'a> + 'a, T, F: FnOnce(S) -> T> ProtoRun<'a, S, T, F> {
    fn sub(&mut self) -> &mut S {
        &mut self.run.as_mut().expect("lane already finished").0
    }
}

impl<'a, S: LaneSub<'a> + 'a, T: 'static, F: FnOnce(S) -> T> DynLane<'a> for ProtoRun<'a, S, T, F> {
    fn pace(&mut self, send_budget: usize) {
        self.sub().pace(send_budget);
    }
    fn install(&mut self, b: &mut MuxBuilder<'a>) -> Option<LaneId> {
        self.sub().install(b)
    }
    fn collect(&mut self, lane: LaneId, states: &mut [MuxState]) {
        self.sub().collect(lane, states);
    }
    fn is_done(&self) -> bool {
        self.run.as_ref().is_none_or(|(s, _)| s.is_done())
    }
    fn stage_end(&self) -> StageEnd {
        self.run
            .as_ref()
            .map_or(StageEnd::Barrier, |(s, _)| s.stage_end())
    }
    fn finish(&mut self) -> Box<dyn Any> {
        let (sub, fin) = self.run.take().expect("lane finished twice");
        Box::new(fin(sub))
    }
}

/// Deferred construction of a protocol node's lane from its dependencies.
pub(crate) type BuildFn<'a> = Box<dyn FnOnce(&Deps<'_>) -> Box<dyn DynLane<'a> + 'a> + 'a>;
/// Deferred node-local computation from its dependencies.
pub(crate) type ComputeFn<'a> = Box<dyn FnOnce(&Deps<'_>) -> Box<dyn Any> + 'a>;

pub(crate) enum NodeState<'a> {
    /// Waiting on dependencies; `build` turns their outputs into a live
    /// sub-protocol.
    Pending(BuildFn<'a>),
    /// Node-local computation (no communication): runs as soon as its
    /// dependencies are done, producing its output immediately.
    PendingCompute(ComputeFn<'a>),
    /// Built; its current stage is installed as a mux lane each scheduler
    /// stage until [`DynLane::is_done`].
    Running(Box<dyn DynLane<'a> + 'a>),
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
/// * [`Dag::proto`] — a communicating sub-protocol ([`LaneSub`]), built
///   from its dependencies' outputs by a closure, finished into a typed
///   output by another;
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

    /// Declares a sub-protocol node. `build` receives the outputs of
    /// `deps` and constructs the [`LaneSub`]; once every stage of the sub
    /// has run, `finish` converts it into the node's typed output.
    ///
    /// Declaration order is the scheduler's tie-breaker: independent nodes
    /// that become ready together are packed into one stage in declaration
    /// order (first-declared gets a lane first if the budget binds).
    pub fn proto<S, T, B, F>(
        &mut self,
        label: impl Into<String>,
        deps: &[Dep],
        build: B,
        finish: F,
    ) -> ProtoNode<T>
    where
        S: LaneSub<'a> + 'a,
        T: 'static,
        B: FnOnce(&Deps<'_>) -> S + 'a,
        F: FnOnce(S) -> T + 'a,
    {
        self.add(
            label.into(),
            deps,
            NodeState::Pending(Box::new(move |deps| {
                Box::new(ProtoRun {
                    run: Some((build(deps), finish)),
                    _pd: PhantomData,
                })
            })),
        )
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

    /// Minimal 2-stage sub-protocol for driver tests: stage 1 relays a token
    /// around the ring `hops` times, stage 2 broadcasts a completion flag to
    /// node 0.
    struct TwoStage {
        n: usize,
        hops: u64,
        stage: usize,
        seen: u64,
        done_count: Option<u64>,
    }

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

    impl<'a> LaneSub<'a> for TwoStage {
        fn install(&mut self, b: &mut MuxBuilder<'a>) -> Option<LaneId> {
            match self.stage {
                0 => Some(b.lane_seeded(Relay { hops: self.hops }, vec![0u64; self.n], 1)),
                1 => Some(b.lane_seeded(Report, vec![self.seen; self.n], 2)),
                _ => None,
            }
        }
        fn collect(&mut self, lane: LaneId, states: &mut [MuxState]) {
            let st: Vec<u64> = ncc_model::take_lane_states(states, lane);
            match self.stage {
                0 => self.seen = st[0],
                _ => self.done_count = Some(st[0]),
            }
            self.stage += 1;
        }

        fn is_done(&self) -> bool {
            self.stage > 1
        }
    }

    #[test]
    fn composed_stages_share_barriers() {
        let n = 16;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let mut dag = Dag::new();
        let [a, c] = [4, 9].map(|hops| {
            let sub = TwoStage {
                n,
                hops,
                stage: 0,
                seen: 0,
                done_count: None,
            };
            dag.proto(
                format!("relay{hops}"),
                &[],
                move |_| sub,
                |s| (s.seen, s.done_count),
            )
        });
        let mut run = dag.run(&mut eng).unwrap();
        assert_eq!(run.report.stages.len(), 2, "stages align across lanes");
        assert_eq!(run.report.max_lanes(), 2);
        assert_eq!(run.report.lane_stages(), 4);
        // node 0's counter starts at its own count and absorbs every
        // node's report (its own included)
        assert_eq!(run.outputs.take(a), (4, Some(4 + 4 * n as u64)));
        assert_eq!(run.outputs.take(c), (9, Some(9 + 9 * n as u64)));
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

    fn keep(states: Vec<u64>) -> Vec<u64> {
        states
    }

    #[test]
    fn lane_installs_once_and_is_done_after_collect() {
        let n = 8;
        let mut lane = Lane::new(Relay { hops: 3 }, vec![0u64; n], keep);
        assert!(!lane.is_done());
        let mut b = MuxBuilder::new(n);
        let id = lane.install(&mut b).expect("the one stage installs");
        assert!(lane.install(&mut MuxBuilder::new(n)).is_none());
        assert!(!lane.is_done(), "installed but not collected");
        let (mux, mut states) = b.build();
        Engine::new(NetConfig::new(n, 5))
            .execute(&mux, &mut states)
            .unwrap();
        lane.collect(id, &mut states);
        assert!(lane.is_done());
        assert_eq!(lane.into_results(), vec![3u64; n]);
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
        let (alone, _) = crate::schedule::run_alone(&mut eng, lane, Lane::into_results).unwrap();
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
