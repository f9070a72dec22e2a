//! The antichain-packing scheduler for declared protocol [`Dag`]s.
//!
//! # Paper mapping: §2's parallel-instances argument, executable
//!
//! The round bounds of §2 rest on one observation: because every primitive
//! touches each node with `O(log n)` messages per round, **`O(log n)`
//! independent instances can run in the same rounds** under the shared
//! per-node capacity budget ("we run O(log n) instances of the Aggregation
//! Algorithm in parallel", §2; the union-of-instances capacity argument of
//! §2.2). PR 5 exploited this by hand: algorithms fused specific primitive
//! sets into [`ncc_model::Mux`] lanes. This module turns the argument into
//! a *scheduler* so algorithms only declare data dependencies:
//!
//! * the nodes of a [`Dag`] whose dependencies are satisfied form the
//!   current **antichain** — no order constraints among them, exactly the
//!   "independent instances" of §2;
//! * each scheduler stage packs that antichain (in declaration order) into
//!   one mux execution, up to the **instance budget** `O(log n)`
//!   ([`default_lane_budget`]) — the cap under which §2.2's capacity union
//!   argument holds. A wider antichain is *split*: the overflow runs in the
//!   next stage (sequential composition, the same fallback the paper uses
//!   when more than `O(log n)` instances are needed);
//! * each packed stage *owes* one shared sync, decided by how its lanes
//!   end ([`StageEnd`], asked of each lane before it is installed):
//!   - every lane [`StageEnd::SelfSync`]: nothing (Aggregate-and-Broadcast
//!     *is* the barrier primitive, so a stage of A&B lanes ends
//!     synchronised for free, matching the cost of
//!     `aggregate_and_broadcast` run alone);
//!   - every lane [`StageEnd::Within`]: a **pad** of idle rounds up to the
//!     largest bound `R` (see below), or a barrier if the pad would be
//!     the longer of the two;
//!   - any other stage, a mix of `SelfSync` and `Within` lanes included:
//!     one shared [`sync_barrier`] (App. B.1's phase synchronisation,
//!     paid once for the whole stage rather than once per primitive);
//! * an owed sync is paid just before the next packed stage — unless
//!   that stage is all self-synchronizing, in which case it runs in the
//!   sync's slot and **carries** it (see below). A sync still owed when
//!   the DAG finishes is paid at the end;
//! * multi-stage primitives (Aggregation's combine→deliver, …) keep
//!   contributing lanes stage after stage until done, so their internal
//!   phases also share barriers with whatever else is in flight.
//!
//! The result: a hand-fused composition and the equivalent DAG declaration
//! execute the *same* lane/stage/barrier sequence — bit-identical rounds,
//! drops and outputs — while the DAG form deletes the bespoke lane
//! plumbing (see `crates/butterfly/tests/schedule_props.rs` for the
//! property-level equivalence proof against a test-only fused driver).
//! The scheduler is the only driver: a sub-protocol run by itself is a
//! one-node DAG ([`run_alone`]), so its stages are settled by the same
//! code as every packed stage.
//!
//! # The pad: a stage of known length ends on the clock
//!
//! The paper pays for a synchronisation only when a phase's length is
//! unknown. Some stages' lengths are known in advance: aggregation's
//! delivery sends in rounds drawn from `{1..⌈ℓ̂₂/log n⌉}`, and a scheduled
//! exchange declared to send only inside a window (`schedule_sub`'s
//! `window` in `ncc-core`) is over when the window is. Such lanes end
//! [`StageEnd::Within`] their bound. Let such a stage start at round `t₀`,
//! quiesce `rounds` rounds later, and let `R` be the largest bound of its
//! lanes:
//!
//! * the stage starts at a round `t₀` all nodes agree on (the previous
//!   stage ended synchronised);
//! * `R` comes from common knowledge (ℓ̂₂ and `n`, or the declared
//!   window), so every node knows at `t₀ + R` that the stage is over,
//!   with no communication. The scheduler asserts `rounds ≤ R`, naming
//!   the stage's labels, and charges `R − rounds` idle rounds
//!   ([`Engine::idle_rounds`]: no node stepped, no message sent);
//! * when that pad is longer than a barrier of `B` rounds, the barrier is
//!   paid instead, so every node learns the end at
//!   `min(t₀ + R, quiescence + B)` — never later than before;
//! * asymptotics are unchanged: the pad is at most the barrier's
//!   `O(log n)`.
//!
//! # The carried sync
//!
//! The per-phase consensus of most algorithms (bfs/mis/coloring/apsp's
//! `check`, orientation's aggregates) is an A&B whose input is final once
//! the stage before it is quiescent. Paying that stage's barrier and then
//! the consensus runs two back-to-back A&Bs where one suffices. Let the
//! stage quiesce at round `t` and let `B` be the A&B's length:
//!
//! * quiescence at round `t` is unchanged;
//! * before: the barrier ran in rounds `t+1…t+B`, the consensus in
//!   `t+B+1…t+2B`;
//! * after: the consensus runs in rounds `t+1…t+B`. Its inputs are outputs
//!   of DAG nodes that were already done at quiescence, so they are final
//!   when the barrier would have started;
//! * every node still learns "the stage finished" at round `t+B` — the
//!   consensus is an A&B, so it ends synchronised exactly like the barrier
//!   — and it learns the consensus value `B` rounds earlier than before;
//! * asymptotics are unchanged: still one `O(log n)` synchronisation per
//!   phase where one is needed.
//!
//! An owed pad is carried the same way: the consensus starts right after
//! quiescence and ends synchronised `B` rounds later, exactly as when it
//! carried the barrier the pad replaced.
//!
//! # Packing plan introspection
//!
//! Every run returns a [`SchedReport`]: the budget, and per stage the
//! packed lanes (with per-lane [`LaneStats`]), any deferred (budget-split)
//! nodes, the rounds spent, the sync charged after it ([`Owed`]) and
//! whether it carried the sync of the stage before it. The runner
//! echoes its headline numbers into `RunRecord.metrics`, and
//! `ncc-cli explain <algo>` prints it as a table.

use ncc_model::{lane_stats, Engine, ExecStats, LaneStats, ModelError, MuxBuilder};

use crate::aggregation::{barrier_rounds, sync_barrier};
use crate::compose::{Dag, DagOutputs, Deps, LaneSub, NodeState, StageEnd};

/// The default per-node parallel-instance budget: `2·⌈log₂ n⌉`, floored at
/// 6 so degenerate tiny networks still pack a useful antichain. `O(log n)`,
/// as §2 requires. MST's FindMin sizes its arity by it: `B = budget − 1`
/// buckets per step, all in one fused lane, so every node is a member of
/// and every leader the target of at most `B = Θ(log n)` groups
/// (Theorem 2.3 with `ℓ₁ = ℓ̂₂ = B`).
pub fn default_lane_budget(n: usize) -> usize {
    (2 * ncc_model::ilog2_ceil(n) as usize).max(6)
}

/// One lane of a packed stage: which node ran, and its share of the
/// stage's traffic ([`LaneStats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneRecord {
    /// The DAG node's label.
    pub label: String,
    /// Node-rounds / messages this lane used within the shared execution.
    pub stats: LaneStats,
}

/// One packed stage of a schedule: the maximal (budget-capped) antichain
/// that shared one mux execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStage {
    /// Lanes that ran, in install (= declaration) order.
    pub lanes: Vec<LaneRecord>,
    /// Ready nodes deferred to a later stage because the budget was full —
    /// non-empty exactly when the scheduler split an antichain.
    pub deferred: Vec<String>,
    /// Statistics of the shared execution (barrier excluded).
    pub stats: ExecStats,
    /// The sync charged after this stage: [`Owed::Nothing`] when every
    /// lane was self-synchronizing or the next stage carried the sync,
    /// [`Owed::Pad`]`(k)` when the stage ended at its known bound and `k`
    /// idle rounds were charged (`0` when it used the whole bound).
    pub sync: Owed,
    /// Whether this all-A&B stage ran in the sync slot of the stage
    /// before it, carrying that stage's barrier or pad.
    pub carried: bool,
}

impl PackedStage {
    /// Rounds of the shared execution (barrier excluded).
    pub fn rounds(&self) -> u64 {
        self.stats.rounds
    }
}

/// The packing plan of one or more [`Dag::run`] calls: what ran together,
/// what was split, and what each stage cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedReport {
    /// The lane budget the schedule respected.
    pub budget: usize,
    /// Stages in execution order.
    pub stages: Vec<PackedStage>,
}

impl SchedReport {
    /// Folds another report's stages into this one (multi-DAG algorithms
    /// accumulate one plan across phases).
    pub fn merge(&mut self, other: SchedReport) {
        self.budget = self.budget.max(other.budget);
        self.stages.extend(other.stages);
    }

    /// Widest stage (lanes that actually ran concurrently).
    pub fn max_lanes(&self) -> usize {
        self.stages.iter().map(|s| s.lanes.len()).max().unwrap_or(0)
    }

    /// Total lane-stages of work across all stages.
    pub fn lane_stages(&self) -> usize {
        self.stages.iter().map(|s| s.lanes.len()).sum()
    }

    /// Stages that had to defer ready work because the budget was full.
    pub fn splits(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| !s.deferred.is_empty())
            .count()
    }

    /// Stages that charged a trailing barrier.
    pub fn barriers(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.sync == Owed::Barrier)
            .count()
    }

    /// Stages that carried the sync of the stage before them.
    pub fn carried(&self) -> usize {
        self.stages.iter().filter(|s| s.carried).count()
    }

    /// Stages that ended on the clock, padded to their bound.
    pub fn padded(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| matches!(s.sync, Owed::Pad(_)))
            .count()
    }
}

/// Result of one [`Dag::run`]: typed outputs, total engine statistics
/// (executions + barriers), and the packing plan.
pub struct DagRun {
    /// Outputs of every node, retrieved by handle.
    pub outputs: DagOutputs,
    /// Total cost: every stage execution plus every charged barrier and
    /// pad.
    pub stats: ExecStats,
    /// The packing plan the scheduler chose.
    pub report: SchedReport,
}

impl<'a> Dag<'a> {
    /// Runs the DAG under the [`default_lane_budget`].
    pub fn run(self, engine: &mut Engine) -> Result<DagRun, ModelError> {
        let budget = default_lane_budget(engine.n());
        self.run_budgeted(engine, budget)
    }

    /// Runs the DAG with an explicit lane budget (tests use tiny budgets
    /// to exercise antichain splitting).
    pub fn run_budgeted(self, engine: &mut Engine, budget: usize) -> Result<DagRun, ModelError> {
        assert!(budget >= 1, "scheduler needs room for at least one lane");
        let n = engine.n();
        let mut nodes = self.nodes;
        let mut outputs: Vec<Option<Box<dyn std::any::Any>>> =
            (0..nodes.len()).map(|_| None).collect();
        let mut total = ExecStats::default();
        let mut report = SchedReport {
            budget,
            stages: Vec::new(),
        };
        // What the last stage pushed still owes.
        let mut owed = Owed::Nothing;

        loop {
            // Settle to a fixpoint: finish quiesced lanes, run ready
            // compute nodes, build ready protocols. Each transition can
            // unlock more (a compute feeding a proto feeding a compute…),
            // all without touching the network — local computation is free.
            loop {
                let mut changed = false;
                for i in 0..nodes.len() {
                    let ready = nodes[i].deps.iter().all(|&d| outputs[d].is_some());
                    match &nodes[i].state {
                        NodeState::Pending(_) | NodeState::PendingCompute(_) if ready => {
                            let state = std::mem::replace(&mut nodes[i].state, NodeState::Done);
                            let deps = Deps { outputs: &outputs };
                            match state {
                                NodeState::Pending(build) => {
                                    nodes[i].state = NodeState::Running(build(&deps));
                                }
                                NodeState::PendingCompute(run) => {
                                    outputs[i] = Some(run(&deps));
                                    // state stays Done
                                }
                                _ => unreachable!(),
                            }
                            changed = true;
                        }
                        NodeState::Running(lane) if lane.is_done() => {
                            let NodeState::Running(mut lane) =
                                std::mem::replace(&mut nodes[i].state, NodeState::Done)
                            else {
                                unreachable!()
                            };
                            outputs[i] = Some(lane.finish());
                            changed = true;
                        }
                        _ => {}
                    }
                }
                if !changed {
                    break;
                }
            }

            // Pack the ready antichain: every Running node contributes its
            // current stage as a lane, declaration order, budget-capped.
            // Each packed lane gets an even share of the per-node send
            // capacity (§2's parallel-instances argument: k instances run
            // together iff each throttles to cap/k messages per round).
            let width = nodes
                .iter()
                .filter(|nd| matches!(nd.state, NodeState::Running(_)))
                .count()
                .min(budget)
                .max(1);
            let share = match engine.config().capacity.send {
                usize::MAX => usize::MAX,
                cap => (cap / width).max(1),
            };
            let mut b = MuxBuilder::new(n).with_lane_budget(budget);
            let mut installed: Vec<(usize, ncc_model::LaneId)> = Vec::new();
            let mut deferred: Vec<String> = Vec::new();
            let mut end: Option<StageEnd> = None;
            for i in 0..nodes.len() {
                if let NodeState::Running(lane) = &mut nodes[i].state {
                    if installed.len() >= budget {
                        deferred.push(nodes[i].label.clone());
                        continue;
                    }
                    let lane_end = lane.stage_end();
                    end = Some(end.map_or(lane_end, |e| e.join(lane_end)));
                    lane.pace(share);
                    let id = lane
                        .install(&mut b)
                        .expect("LaneSub invariant: !is_done() but install returned None");
                    installed.push((i, id));
                }
            }

            let Some(end) = end else {
                let stuck: Vec<&str> = nodes
                    .iter()
                    .filter(|nd| !matches!(nd.state, NodeState::Done))
                    .map(|nd| nd.label.as_str())
                    .collect();
                assert!(
                    stuck.is_empty(),
                    "DAG deadlock: nodes {stuck:?} can never become ready"
                );
                break;
            };

            // The previous stage's sync: an all-A&B stage runs in its
            // slot and carries it, any other stage waits for it.
            let carried = owed != Owed::Nothing && end == StageEnd::SelfSync;
            if !carried {
                settle(owed, engine, &mut total, &mut report)?;
            }

            // One shared execution for the whole antichain...
            let (mux, mut states) = b.build();
            let stats = engine.execute(&mux, &mut states)?;
            total.merge(&stats);
            let per_lane = lane_stats(&states);
            let mut lanes = Vec::with_capacity(installed.len());
            for (k, (i, id)) in installed.iter().enumerate() {
                let NodeState::Running(lane) = &mut nodes[*i].state else {
                    unreachable!()
                };
                lane.collect(*id, &mut states);
                lanes.push(LaneRecord {
                    label: nodes[*i].label.clone(),
                    stats: per_lane[k],
                });
            }
            let labels = || format!("{:?}", lanes.iter().map(|l| &l.label).collect::<Vec<_>>());
            // ...which owes one shared sync, by how its lanes end.
            owed = Owed::after(end, stats.rounds, n, labels);
            report.stages.push(PackedStage {
                lanes,
                deferred,
                stats,
                sync: Owed::Nothing,
                carried,
            });
        }
        // A sync still owed when the DAG finishes is paid here.
        settle(owed, engine, &mut total, &mut report)?;

        Ok(DagRun {
            outputs: DagOutputs { outputs },
            stats: total,
            report,
        })
    }
}

/// Runs one sub-protocol by itself and converts it into its output with
/// `finish`: a one-node [`Dag`], so its stages are settled by the same
/// code as every packed stage. The blocking entry points (`aggregate`,
/// `multicast_setup`, `multicast`, `multi_aggregate`) are this call on
/// their sub.
pub fn run_alone<'a, S, T, F>(
    engine: &mut Engine,
    sub: S,
    finish: F,
) -> Result<(T, ExecStats), ModelError>
where
    S: LaneSub<'a> + 'a,
    T: 'static,
    F: FnOnce(S) -> T + 'a,
{
    // Exactly its one node: the default growth to four would request the
    // size of one of the forest tables `tests/alloc_hop.rs` checks a
    // `multicast` never requests.
    let mut dag = Dag {
        nodes: Vec::with_capacity(1),
    };
    let node = dag.proto("alone", &[], move |_| sub, finish);
    let mut run = dag.run(engine)?;
    Ok((run.outputs.take(node), run.stats))
}

impl StageEnd {
    /// The end of a stage whose lanes end as `self` and `other`: all
    /// self-synchronizing stays self-synchronizing, all fixed-duration
    /// ends at the largest bound, and any other mix needs a barrier.
    fn join(self, other: StageEnd) -> StageEnd {
        match (self, other) {
            (StageEnd::SelfSync, StageEnd::SelfSync) => StageEnd::SelfSync,
            (StageEnd::Within(a), StageEnd::Within(b)) => StageEnd::Within(a.max(b)),
            _ => StageEnd::Barrier,
        }
    }
}

/// What a finished stage owes before the next one may start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owed {
    /// Nothing.
    Nothing,
    /// This many idle rounds bring the clock to the stage's bound.
    Pad(u64),
    /// A [`sync_barrier`].
    Barrier,
}

impl Owed {
    /// The debt of a stage on `n` nodes that ended as `end` after `rounds`
    /// rounds. A pad longer than a barrier is paid as the barrier, so no
    /// node learns the end later than it would have. Panics, naming the
    /// stage's lanes by `labels()`, if a fixed-duration stage overran its
    /// bound.
    fn after(end: StageEnd, rounds: u64, n: usize, labels: impl Fn() -> String) -> Owed {
        match end {
            StageEnd::SelfSync => Owed::Nothing,
            StageEnd::Barrier => Owed::Barrier,
            StageEnd::Within(bound) => {
                assert!(
                    rounds <= bound,
                    "stage {} ran {rounds} rounds, past its declared bound of {bound}",
                    labels()
                );
                match bound - rounds {
                    pad if pad > barrier_rounds(n) => Owed::Barrier,
                    pad => Owed::Pad(pad),
                }
            }
        }
    }
}

/// Pays what the last stage of `report` owes, and records it there.
fn settle(
    owed: Owed,
    engine: &mut Engine,
    total: &mut ExecStats,
    report: &mut SchedReport,
) -> Result<(), ModelError> {
    if let Some(last) = report.stages.last_mut() {
        last.sync = owed;
    }
    total.merge(&match owed {
        Owed::Nothing => ExecStats::default(),
        Owed::Pad(k) => engine.idle_rounds(k),
        Owed::Barrier => sync_barrier(engine)?,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{ab_sub, aggregate_and_broadcast, aggregation_sub, AggregationSpec};
    use crate::combine::{MaxU64, MinU64, SumU64};
    use crate::compose::Dep;
    use crate::mctree::multicast_setup_sub;
    use crate::topology::GroupId;
    use ncc_hashing::SharedRandomness;
    use ncc_model::{LaneId, MuxState, NetConfig, NodeId};

    fn engine(n: usize) -> Engine {
        Engine::new(NetConfig::new(n, 77))
    }

    /// Node `u` sends `u` to group `u mod 4`: a lane whose combine stage
    /// ends on a barrier and whose delivery ends on the clock.
    fn agg_spec(n: usize) -> AggregationSpec<u64> {
        AggregationSpec {
            memberships: (0..n as u32)
                .map(|u| vec![(GroupId::new(u % 4, 0), u as u64)])
                .collect(),
            ell2_hat: 1,
        }
    }

    /// Node `u` joins the group of node `u + 1`: a one-stage tree setup,
    /// which ends on a barrier.
    fn ring_joins(n: usize, tag: u32) -> Vec<Vec<(GroupId, NodeId)>> {
        (0..n as u32)
            .map(|u| vec![(GroupId::new((u + 1) % n as u32, tag), u)])
            .collect()
    }

    /// Runs `S` but claims each of its stages is over within `.1` rounds.
    struct Claims<S>(S, u64);

    impl<'a, S: LaneSub<'a>> LaneSub<'a> for Claims<S> {
        fn install(&mut self, b: &mut MuxBuilder<'a>) -> Option<LaneId> {
            self.0.install(b)
        }
        fn collect(&mut self, lane: LaneId, states: &mut [MuxState]) {
            self.0.collect(lane, states)
        }
        fn is_done(&self) -> bool {
            self.0.is_done()
        }
        fn stage_end(&self) -> StageEnd {
            StageEnd::Within(self.1)
        }
    }

    #[test]
    fn solo_ab_node_matches_blocking_adapter() {
        let n = 48;
        // blocking path
        let mut eng = engine(n);
        let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
        let (want, blocking_stats) =
            aggregate_and_broadcast(&mut eng, inputs.clone(), &MaxU64).unwrap();
        let blocking_round = eng.total.rounds;
        // DAG path: one A&B node, nothing else
        let mut eng = engine(n);
        let mut dag = Dag::new();
        let node = dag.proto(
            "max",
            &[],
            move |_| ab_sub(n, inputs, &MaxU64),
            |s| s.into_results(),
        );
        let mut run = dag.run(&mut eng).unwrap();
        assert_eq!(run.outputs.take(node), want);
        // self-synchronizing ⇒ no barrier charged: identical cost to the
        // blocking adapter, down to the engine's global round counter.
        assert_eq!(run.stats, blocking_stats);
        assert_eq!(eng.total.rounds, blocking_round);
        assert_eq!(run.report.stages.len(), 1);
        assert_ne!(run.report.stages[0].sync, Owed::Barrier);
    }

    #[test]
    fn outputs_thread_through_dependencies() {
        let n = 32;
        let mut eng = engine(n);
        let mut dag = Dag::new();
        // sum of 0..n, then a dependent A&B that broadcasts sum+1, plus a
        // compute node in between — typed outputs flow through closures.
        let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
        let sum = dag.proto(
            "sum",
            &[],
            move |_| ab_sub(n, inputs, &SumU64),
            |s| s.into_results(),
        );
        let bumped = dag.compute("bump", &[sum.into()], move |d| d.get(sum)[0].map(|v| v + 1));
        let rebroadcast = dag.proto(
            "rebroadcast",
            &[bumped.into()],
            move |d| {
                let v = *d.get(bumped);
                ab_sub(n, vec![v; n], &MinU64)
            },
            |s| s.into_results(),
        );
        let mut run = dag.run(&mut eng).unwrap();
        let expect = (n as u64 * (n as u64 - 1)) / 2 + 1;
        assert_eq!(run.outputs.take(bumped), Some(expect));
        assert!(run
            .outputs
            .take(rebroadcast)
            .iter()
            .all(|r| *r == Some(expect)));
        // two protocol stages (sum, then rebroadcast), sequential because
        // of the dependency chain.
        assert_eq!(run.report.stages.len(), 2);
        assert_eq!(run.report.max_lanes(), 1);
    }

    #[test]
    fn independent_nodes_pack_into_one_stage() {
        let n = 32;
        let mut eng = engine(n);
        let mut dag = Dag::new();
        for j in 0..4u64 {
            let inputs: Vec<Option<u64>> = (0..n as u64).map(|v| Some(v + 100 * j)).collect();
            dag.proto(
                format!("max{j}"),
                &[],
                move |_| ab_sub(n, inputs, &MaxU64),
                |s| s.into_results(),
            );
        }
        let run = dag.run(&mut eng).unwrap();
        assert_eq!(run.report.stages.len(), 1, "antichain packs together");
        assert_eq!(run.report.stages[0].lanes.len(), 4);
        assert_eq!(run.report.splits(), 0);
        // per-lane stats are recorded for every packed lane
        assert!(run.report.stages[0].lanes.iter().all(|l| l.stats.sent > 0));
    }

    #[test]
    fn budget_overflow_splits_antichain() {
        let n = 32;
        let mut eng = engine(n);
        let mut dag = Dag::new();
        let mut handles = Vec::new();
        for j in 0..5u64 {
            let inputs: Vec<Option<u64>> = (0..n as u64).map(|v| Some(v * (j + 1))).collect();
            handles.push((
                j,
                dag.proto(
                    format!("sum{j}"),
                    &[],
                    move |_| ab_sub(n, inputs, &SumU64),
                    |s| s.into_results(),
                ),
            ));
        }
        let mut run = dag.run_budgeted(&mut eng, 2).unwrap();
        // 5 ready nodes, budget 2 → stages of 2/2/1, deferrals recorded
        assert_eq!(run.report.stages.len(), 3);
        assert_eq!(run.report.max_lanes(), 2);
        assert_eq!(run.report.splits(), 2);
        assert_eq!(run.report.stages[0].deferred.len(), 3);
        let base: u64 = (0..n as u64).sum();
        for (j, h) in handles {
            assert!(run
                .outputs
                .take(h)
                .iter()
                .all(|r| *r == Some(base * (j + 1))));
        }
    }

    #[test]
    #[should_panic(expected = "dependency on a node declared later")]
    fn forward_dependency_rejected_at_declaration() {
        // Cycles (and thus deadlocks) are unrepresentable: a dep list may
        // only name already-declared nodes, checked when the node is added.
        let mut dag = Dag::new();
        let b = dag.compute("b", &[], |_| 2u64);
        let _ = dag.compute("c", &[Dep(b.idx + 1)], |_| 3u64);
    }

    #[test]
    fn trailing_barrier_is_still_paid() {
        let n = 32;
        let shared = SharedRandomness::new(5);
        let mut eng = engine(n);
        let mut alone = ExecStats::default();
        for tag in [1, 2] {
            let sub = multicast_setup_sub(n, &shared, ring_joins(n, tag), 9 + tag as u64);
            alone.merge(&run_alone(&mut eng, sub, |s| s.into_results()).unwrap().1);
        }
        let mut eng = engine(n);
        let mut dag = Dag::new();
        let shared = &shared;
        let first = dag.proto(
            "trees1",
            &[],
            move |_| multicast_setup_sub(n, shared, ring_joins(n, 1), 10),
            |s| s.into_results(),
        );
        dag.proto(
            "trees2",
            &[first.into()],
            move |_| multicast_setup_sub(n, shared, ring_joins(n, 2), 11),
            |s| s.into_results(),
        );
        let run = dag.run(&mut eng).unwrap();
        // each setup charges a barrier; nothing carries the last one, so
        // the chain pays it exactly as each setup run alone does
        assert_eq!(run.report.stages.len(), 2);
        assert!(run
            .report
            .stages
            .iter()
            .all(|s| s.sync == Owed::Barrier && !s.carried));
        assert_eq!(run.stats, alone);
    }

    /// One message, delivered in a round drawn from `1..=⌈ℓ̂₂/log n⌉`.
    fn one_message(n: usize, ell2_hat: usize) -> AggregationSpec<u64> {
        let mut memberships = vec![Vec::new(); n];
        memberships[3] = vec![(GroupId::new(7, 0), 1u64)];
        AggregationSpec {
            memberships,
            ell2_hat,
        }
    }

    #[test]
    fn aggregation_delivery_is_padded_to_its_bound() {
        let n = 32;
        let shared = SharedRandomness::new(5);
        let mut eng = engine(n);
        let mut dag = Dag::new();
        let shared = &shared;
        dag.proto(
            "agg",
            &[],
            move |_| aggregation_sub(n, shared, one_message(n, 25), &SumU64, 9),
            |s| s.into_results(),
        );
        let run = dag.run(&mut eng).unwrap();
        // combine + barrier + delivery + pad to the bound ⌈25/5⌉ + 1 = 6
        let st = &run.report.stages;
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].sync, Owed::Barrier);
        assert!(st[1].rounds() < 6, "the draw leaves part of the bound idle");
        assert_eq!(st[1].sync, Owed::Pad(6 - st[1].rounds()));
        assert_eq!((run.report.barriers(), run.report.padded()), (1, 1));
        let barrier = barrier_rounds(n);
        assert_eq!(run.stats.rounds, st[0].rounds() + barrier + 6);
    }

    #[test]
    fn pad_longer_than_a_barrier_pays_the_barrier() {
        let n = 32;
        let shared = SharedRandomness::new(5);
        let mut eng = engine(n);
        let mut dag = Dag::new();
        let shared = &shared;
        dag.proto(
            "agg",
            &[],
            move |_| aggregation_sub(n, shared, one_message(n, 5000), &SumU64, 9),
            |s| s.into_results(),
        );
        let run = dag.run(&mut eng).unwrap();
        let st = &run.report.stages;
        let barrier = sync_barrier(&mut engine(n)).unwrap().rounds;
        // the bound is ⌈5000/5⌉ + 1 = 1001
        assert!(1001 - st[1].rounds() > barrier, "the pad is the longer");
        assert_eq!(st[1].sync, Owed::Barrier);
        let executed = st[0].rounds() + st[1].rounds();
        assert_eq!(run.stats.rounds, executed + 2 * barrier);
    }

    #[test]
    #[should_panic(expected = "stage [\"liar\"] ran")]
    fn overrunning_its_bound_panics_with_the_stage_label() {
        let n = 16;
        let mut dag = Dag::new();
        dag.proto(
            "liar",
            &[],
            move |_| Claims(ab_sub(n, vec![Some(1); n], &MaxU64), 3),
            |s| s.0.into_results(),
        );
        let _ = dag.run(&mut engine(n));
    }

    #[test]
    fn self_sync_and_within_lanes_together_pay_a_barrier() {
        let n = 16;
        let mut dag = Dag::new();
        dag.proto(
            "ab",
            &[],
            move |_| ab_sub(n, vec![Some(1); n], &MaxU64),
            |s| s.into_results(),
        );
        dag.proto(
            "timed",
            &[],
            move |_| Claims(ab_sub(n, vec![Some(2); n], &MaxU64), 1000),
            |s| s.0.into_results(),
        );
        let run = dag.run(&mut engine(n)).unwrap();
        let st = &run.report.stages;
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].sync, Owed::Barrier);
        assert_eq!(run.stats.rounds, st[0].rounds() + barrier_rounds(n));
    }

    #[test]
    fn split_ab_antichain_carries_the_barrier_once() {
        let n = 32;
        let shared = SharedRandomness::new(5);
        let mut eng = engine(n);
        let mut dag = Dag::new();
        let shared = &shared;
        let agg = dag.proto(
            "agg",
            &[],
            move |_| aggregation_sub(n, shared, agg_spec(n), &SumU64, 9),
            |s| s.into_results(),
        );
        for j in 0..3u64 {
            dag.proto(
                format!("check{j}"),
                &[agg.into()],
                move |_| ab_sub(n, vec![Some(j); n], &MaxU64),
                |s| s.into_results(),
            );
        }
        let run = dag.run_budgeted(&mut eng, 2).unwrap();
        // combine (barrier), deliver (barrier carried), checks 0–1
        // (carry it, check2 deferred), check2 (nothing owed)
        let st = &run.report.stages;
        assert_eq!(st.len(), 4);
        assert_eq!(
            st.iter()
                .map(|s| (s.sync == Owed::Barrier, s.carried))
                .collect::<Vec<_>>(),
            [(true, false), (false, false), (false, true), (false, false)]
        );
        assert_eq!(st[2].deferred, ["check2"]);
        assert_eq!((run.report.barriers(), run.report.carried()), (1, 1));
    }

    #[test]
    fn compute_only_dag_runs_without_network() {
        let mut eng = engine(8);
        let round0 = eng.total.rounds;
        let mut dag = Dag::new();
        let a = dag.compute("a", &[], |_| 21u64);
        let b = dag.compute("b", &[a.into()], move |d| d.get(a) * 2);
        let mut run = dag.run(&mut eng).unwrap();
        assert_eq!(run.outputs.take(b), 42);
        assert_eq!(run.stats, ExecStats::default());
        assert_eq!(eng.total.rounds, round0, "local computation is free");
        assert!(run.report.stages.is_empty());
    }
}
