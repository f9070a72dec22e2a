//! # ncc-kmachine — Appendix A: the k-machine model
//!
//! The k-machine model \[36\] has `k` fully-interconnected machines; each of
//! the `k(k−1)/2` links carries `O(log n)` bits (a constant number of
//! messages) per round. Theorem A.1 / Corollary 2: randomly partition the
//! `n` NCC nodes over the machines and replay the NCC execution — because
//! an NCC round moves at most `Õ(n)` messages and every node sends at most
//! `O(log n)` of them (`∆′ = O(log n)`), the expected per-link load per NCC
//! round is `Õ(n/k²)`, so a `T`-round NCC execution costs `Õ(n·T/k²)`
//! k-machine rounds.
//!
//! [`KMachineModel`] is the **execution model**: plugged into the engine
//! via [`Engine::with_model`](ncc_model::Engine::with_model) (or a runner
//! `ScenarioSpec` with `ModelSpec::KMachine`), it routes every delivered
//! message through the machine partition, enforces the per-link capacity by
//! charging `⌈bottleneck link load / link_capacity⌉` k-machine rounds per
//! engine round, and reports the charge as `km_rounds` in
//! [`ExecStats`](ncc_model::ExecStats) — links operate in parallel, so the
//! bottleneck pair dominates, and messages between co-hosted nodes are
//! free, as in the model.

use std::any::Any;

use ncc_model::rng::derive_seed;
use ncc_model::{Capacity, NetworkModel, NodeId, RecvPolicy, TraceEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random vertex partition: node → machine, each machine drawn uniformly
/// (the "random vertex partitioning" of Theorem A.1).
pub fn random_assignment(n: usize, k: usize, seed: u64) -> Vec<u32> {
    assert!(k >= 1);
    let mut rng = SmallRng::seed_from_u64(derive_seed(&[seed, 0x6b6d, k as u64]));
    (0..n).map(|_| rng.gen_range(0..k as u32)).collect()
}

/// Summary of a conversion so far: the model's running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KMachineReport {
    pub k: usize,
    /// Charged k-machine rounds.
    pub km_rounds: u64,
    /// Observed NCC rounds.
    pub ncc_rounds: u64,
    /// Messages crossing machine boundaries.
    pub cross_messages: u64,
    /// Messages staying inside one machine (free).
    pub local_messages: u64,
    /// Peak single-pair load in any NCC round.
    pub max_pair_load: u64,
}

/// The k-machine model as a first-class [`NetworkModel`].
///
/// NCC node caps apply unchanged — the model *simulates* the NCC execution
/// (Theorem A.1) — but every delivered message is routed through the
/// machine partition and the per-link capacity is enforced by time
/// dilation: an engine round whose bottleneck link carries `L` messages is
/// charged `⌈L / link_capacity⌉` k-machine rounds, reported as
/// `km_rounds` in the execution stats. After a run, downcast
/// [`Engine::model`](ncc_model::Engine::model) via `as_any` to read the
/// full [`KMachineReport`] (cross-machine traffic, bottleneck loads).
#[derive(Debug, Clone)]
pub struct KMachineModel {
    assignment: Vec<u32>,
    /// Messages per link per k-machine round (the `O(log n)`-bits budget in
    /// message units; 1 = one `O(log n)`-bit message per link per round).
    link_capacity: u64,
    totals: KMachineReport,
    /// One round's cross-machine `(source machine, destination machine)`
    /// pairs as `ms << 32 | md` keys, reused across rounds: sorting bins
    /// them in O(messages), whatever `k` is.
    keys: Vec<u64>,
}

impl KMachineModel {
    /// Random vertex partition of `n` nodes over `k` machines, keyed by
    /// `seed` (the Theorem A.1 setup).
    pub fn new(n: usize, k: usize, seed: u64, link_capacity: u64) -> Self {
        Self::from_assignment(random_assignment(n, k, seed), k, link_capacity)
    }

    /// Explicit node → machine assignment.
    pub fn from_assignment(assignment: Vec<u32>, k: usize, link_capacity: u64) -> Self {
        assert!(link_capacity >= 1);
        assert!(assignment.iter().all(|&m| (m as usize) < k));
        KMachineModel {
            assignment,
            link_capacity,
            totals: KMachineReport {
                k,
                ..KMachineReport::default()
            },
            keys: Vec::new(),
        }
    }

    pub fn report(&self) -> KMachineReport {
        self.totals
    }
}

impl NetworkModel for KMachineModel {
    fn name(&self) -> &'static str {
        "kmachine"
    }

    fn recv_policy(&self, cap: &Capacity) -> RecvPolicy {
        // NCC semantics underneath: the k-machine model replays the NCC
        // execution, so receive-cap drops are identical to the Ncc model.
        RecvPolicy::NodeCap { recv: cap.recv }
    }

    fn wants_delivered_pairs(&self) -> bool {
        true
    }

    /// Bins one engine round's delivered messages by (source machine,
    /// destination machine), updates the running totals, and returns the
    /// k-machine rounds this engine round costs:
    /// `max(1, ⌈bottleneck pair load / link_capacity⌉)` (an empty round
    /// still costs one synchronised k-machine round).
    fn charge_round(&mut self, _round: u64, delivered: &[TraceEvent]) -> u64 {
        let machine = |v: NodeId| self.assignment[v as usize] as u64;
        self.keys.clear();
        for ev in delivered {
            let (ms, md) = (machine(ev.src), machine(ev.dst));
            if ms != md {
                self.keys.push((ms << 32) | md);
            }
        }
        self.keys.sort_unstable();
        let max_load = self
            .keys
            .chunk_by(|a, b| a == b)
            .map(|run| run.len() as u64)
            .max()
            .unwrap_or(0);
        let t = &mut self.totals;
        t.ncc_rounds += 1;
        t.cross_messages += self.keys.len() as u64;
        t.local_messages += (delivered.len() - self.keys.len()) as u64;
        t.max_pair_load = t.max_pair_load.max(max_load);
        let charge = max_load.div_ceil(self.link_capacity).max(1);
        t.km_rounds += charge;
        charge
    }

    /// Zeroes every running counter while keeping the partition and link
    /// capacity: the machine assignment is scenario identity, the counters
    /// are per-run state.
    fn reset(&mut self) {
        self.totals = KMachineReport {
            k: self.totals.k,
            ..KMachineReport::default()
        };
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nodes hosted per machine.
    fn machine_sizes(model: &KMachineModel) -> Vec<usize> {
        let mut sizes = vec![0usize; model.totals.k];
        for &m in &model.assignment {
            sizes[m as usize] += 1;
        }
        sizes
    }

    #[test]
    fn reset_zeroes_counters_but_keeps_partition() {
        let mut model = KMachineModel::from_assignment(vec![0, 1, 0, 1], 2, 1);
        let evs = [
            TraceEvent { src: 0, dst: 1 },
            TraceEvent { src: 2, dst: 3 },
            TraceEvent { src: 0, dst: 2 },
        ];
        let charge1 = model.charge_round(0, &evs);
        assert!(model.report().km_rounds > 0);
        assert_eq!(model.report().cross_messages, 2);
        model.reset();
        let fresh = model.report();
        assert_eq!(fresh.km_rounds, 0);
        assert_eq!(fresh.ncc_rounds, 0);
        assert_eq!(fresh.cross_messages, 0);
        assert_eq!(fresh.local_messages, 0);
        assert_eq!(fresh.max_pair_load, 0);
        // the partition is identity, not state: the recharge is identical
        let charge2 = model.charge_round(0, &evs);
        assert_eq!(charge1, charge2);
        assert_eq!(machine_sizes(&model), vec![2, 2]);
    }

    #[test]
    fn assignment_is_balanced_and_deterministic() {
        let a = random_assignment(1000, 8, 7);
        assert_eq!(a, random_assignment(1000, 8, 7));
        let sizes = machine_sizes(&KMachineModel::from_assignment(a, 8, 1));
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        for &s in &sizes {
            assert!((80..=175).contains(&s), "unbalanced machine: {s}");
        }
    }

    #[test]
    fn local_messages_are_free() {
        // all nodes on one machine of k = 2: everything local
        let mut model = KMachineModel::from_assignment(vec![0; 10], 2, 1);
        let evs: Vec<TraceEvent> = (0..9).map(|i| TraceEvent { src: i, dst: i + 1 }).collect();
        model.charge_round(0, &evs);
        let rep = model.report();
        assert_eq!(rep.cross_messages, 0);
        assert_eq!(rep.local_messages, 9);
        assert_eq!(rep.km_rounds, 1); // sync round only
    }

    #[test]
    fn bottleneck_pair_dominates() {
        // nodes 0..5 on machine 0, nodes 5..10 on machine 1
        let assignment: Vec<u32> = (0..10).map(|v| (v >= 5) as u32).collect();
        let mut model = KMachineModel::from_assignment(assignment, 2, 1);
        // 7 messages 0→1 direction, 2 messages 1→0
        let mut evs = Vec::new();
        for i in 0..7u32 {
            evs.push(TraceEvent {
                src: i % 5,
                dst: 5 + (i % 5),
            });
        }
        evs.push(TraceEvent { src: 6, dst: 1 });
        evs.push(TraceEvent { src: 7, dst: 2 });
        model.charge_round(0, &evs);
        let rep = model.report();
        assert_eq!(rep.cross_messages, 9);
        assert_eq!(rep.km_rounds, 7);
        assert_eq!(rep.max_pair_load, 7);
    }

    #[test]
    fn link_capacity_divides_cost() {
        let assignment: Vec<u32> = (0..10).map(|v| (v >= 5) as u32).collect();
        let mut model = KMachineModel::from_assignment(assignment.clone(), 2, 4);
        let evs: Vec<TraceEvent> = (0..8u32)
            .map(|i| TraceEvent { src: i % 5, dst: 5 })
            .collect();
        model.charge_round(0, &evs);
        assert_eq!(model.report().km_rounds, 2); // ⌈8/4⌉

        let mut model1 = KMachineModel::from_assignment(assignment, 2, 1);
        model1.charge_round(0, &evs);
        assert_eq!(model1.report().km_rounds, 8);
    }

    #[test]
    fn more_machines_cost_less_on_uniform_traffic() {
        // synthetic uniform traffic: n random messages per round
        let n = 512u32;
        let mut rng = SmallRng::seed_from_u64(42);
        let mut rounds_for = |k: usize| {
            let mut model = KMachineModel::new(n as usize, k, 1, 1);
            for r in 0..50 {
                let evs: Vec<TraceEvent> = (0..n)
                    .map(|_| TraceEvent {
                        src: rng.gen_range(0..n),
                        dst: rng.gen_range(0..n),
                    })
                    .collect();
                model.charge_round(r, &evs);
            }
            model.report().km_rounds
        };
        let (r2, r8) = (rounds_for(2), rounds_for(8));
        // Corollary 2: cost scales like n/k² — k: 2→8 should give ≈ 16×;
        // accept anything beyond 6× (variance, max-vs-mean effects)
        assert!(r2 >= 6 * r8, "r2 = {r2}, r8 = {r8}");
    }

    #[test]
    fn empty_rounds_cost_one() {
        let mut model = KMachineModel::from_assignment(vec![0, 1], 2, 1);
        model.charge_round(0, &[]);
        model.charge_round(1, &[]);
        assert_eq!(model.report().km_rounds, 2);
        assert_eq!(model.report().ncc_rounds, 2);
    }

    #[test]
    fn charge_round_returns_per_round_charge() {
        let assignment: Vec<u32> = (0..10).map(|v| (v >= 5) as u32).collect();
        let mut model = KMachineModel::from_assignment(assignment, 2, 2);
        let evs: Vec<TraceEvent> = (0..6u32)
            .map(|i| TraceEvent { src: i % 5, dst: 5 })
            .collect();
        assert_eq!(model.charge_round(0, &evs), 3); // ⌈6/2⌉
        assert_eq!(model.charge_round(1, &[]), 1);
        assert_eq!(model.report().km_rounds, 4);
    }

    #[test]
    fn machine_count_past_the_nodes_costs_no_dense_table() {
        // k = u32::MAX machines over 32 nodes: a per-pair table of k² slots
        // could never be allocated; the bins are O(messages)
        let k = u32::MAX as usize;
        let mut model = KMachineModel::new(32, k, 5, 1);
        let evs: Vec<TraceEvent> = (0..32u32).map(|i| TraceEvent { src: i, dst: 0 }).collect();
        assert!(model.charge_round(0, &evs) >= 1);
        let rep = model.report();
        assert_eq!(rep.k, k);
        assert_eq!(rep.cross_messages + rep.local_messages, 32);
    }

    mod model {
        use super::super::*;
        use ncc_model::{Ctx, Engine, Envelope, NetConfig, NodeProgram};

        /// Every node relays one token around the ring for `hops` rounds.
        struct RingRelay;
        impl NodeProgram for RingRelay {
            type State = ();
            type Payload = u64;
            fn init(&self, _st: &mut (), ctx: &mut Ctx<'_, u64>) {
                ctx.send((ctx.id + 1) % ctx.n as u32, 1);
            }
            fn round(&self, _st: &mut (), inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
                if ctx.round < 4 {
                    for e in inbox {
                        ctx.send((ctx.id + 1) % ctx.n as u32, e.payload);
                    }
                }
            }
        }

        #[test]
        fn engine_charges_km_rounds_in_stats() {
            let n = 64;
            let model = KMachineModel::new(n, 4, 9, 1);
            let mut eng = Engine::with_model(NetConfig::new(n, 7), Box::new(model));
            let mut states = vec![(); n];
            let stats = eng.execute(&RingRelay, &mut states).unwrap();
            // every engine round is charged at least one k-machine round
            assert!(stats.km_rounds >= stats.rounds, "{stats:?}");
            // ring traffic crosses machine boundaries, so some rounds cost
            // more than the sync floor
            assert!(stats.km_rounds > stats.rounds);
            let km = eng
                .model()
                .as_any()
                .downcast_ref::<KMachineModel>()
                .expect("kmachine model");
            let rep = km.report();
            assert_eq!(rep.km_rounds, stats.km_rounds);
            assert_eq!(rep.ncc_rounds, stats.rounds);
            assert_eq!(
                rep.cross_messages + rep.local_messages,
                stats.delivered,
                "every delivered message is either local or cross-machine"
            );
        }

        #[test]
        fn idle_rounds_are_charged_like_empty_rounds() {
            let n = 16;
            let model = KMachineModel::new(n, 4, 9, 1);
            let mut eng = Engine::with_model(NetConfig::new(n, 7), Box::new(model));
            let ran = eng.execute(&RingRelay, &mut vec![(); n]).unwrap();
            let idle = eng.idle_rounds(5);
            // one sync round each, as for an executed round with no mail
            assert_eq!((idle.rounds, idle.km_rounds, idle.sent), (5, 5, 0));
            assert_eq!(eng.global_round(), ran.rounds + 5);
            assert_eq!(eng.total.km_rounds, ran.km_rounds + 5);
            let km = eng.model().as_any().downcast_ref::<KMachineModel>();
            let rep = km.expect("kmachine model").report();
            assert_eq!(
                (rep.ncc_rounds, rep.km_rounds),
                (ran.rounds + 5, ran.km_rounds + 5)
            );
        }

        #[test]
        fn km_execution_matches_ncc_deliveries_exactly() {
            // the k-machine model replays the NCC execution: everything but
            // km_rounds must be identical to the default-model run
            let n = 48;
            let run = |model: Option<KMachineModel>| {
                let cfg = NetConfig::new(n, 21);
                let mut eng = match model {
                    Some(m) => Engine::with_model(cfg, Box::new(m)),
                    None => Engine::new(cfg),
                };
                let mut states = vec![(); n];
                eng.execute(&RingRelay, &mut states).unwrap()
            };
            let ncc = run(None);
            let km = run(Some(KMachineModel::new(n, 8, 3, 1)));
            assert_eq!(ncc.rounds, km.rounds);
            assert_eq!(ncc.sent, km.sent);
            assert_eq!(ncc.delivered, km.delivered);
            assert_eq!(ncc.dropped, km.dropped);
            assert_eq!(ncc.km_rounds, 0);
            assert!(km.km_rounds > 0);
        }
    }
}
