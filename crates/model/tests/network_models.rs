//! Cross-model property tests: the conservation laws and determinism
//! guarantees must hold for **every** [`NetworkModel`], not just the
//! default NCC — and the NCC model itself must stay pinned to the
//! pre-refactor engine semantics.
//!
//! * conservation: `delivered + dropped == sent`, with send-side
//!   `truncated` disjoint, for every model × thread count;
//! * thread-count independence: bit-identical stats and states for 1 and 4
//!   workers under every model;
//! * the unbounded-capacity regression of the cap-arithmetic audit: a
//!   protocol at `Capacity::unbounded()` (`usize::MAX` caps) through the
//!   batched router, sequential and forced-parallel, loses nothing and
//!   wraps nothing.

mod oracle;

use ncc_model::rng::network_rng;
use ncc_model::{
    Capacity, CongestedClique, Ctx, Engine, Envelope, HybridLocal, Ncc, NetConfig, NetworkModel,
    NodeProgram, RecvPolicy, Router,
};
use oracle::reference_route;
use proptest::prelude::*;
use rand::Rng;

/// A randomized scatter program: for `waves` rounds, every node sends
/// `fanout` messages, mixing ring-neighbour destinations (local edges
/// under the hybrid model) with uniform random ones.
struct Scatter {
    waves: u64,
    fanout: usize,
}

#[derive(Debug, Clone, Default)]
struct ScatterState {
    received: u64,
    checksum: u64,
}

impl Scatter {
    fn emit(&self, ctx: &mut Ctx<'_, u64>) {
        for f in 0..self.fanout {
            let dst = if f % 3 == 0 {
                (ctx.id + 1) % ctx.n as u32 // ring neighbour: hybrid-local
            } else {
                let n = ctx.n as u32;
                ctx.rng().gen_range(0..n)
            };
            ctx.send(dst, ctx.id as u64);
        }
    }
}

impl NodeProgram for Scatter {
    type State = ScatterState;
    type Payload = u64;

    fn init(&self, _st: &mut ScatterState, ctx: &mut Ctx<'_, u64>) {
        self.emit(ctx);
        if self.waves > 1 {
            ctx.stay_awake();
        }
    }

    fn round(&self, st: &mut ScatterState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        for env in inbox {
            st.received += 1;
            st.checksum = st.checksum.wrapping_mul(31).wrapping_add(env.payload);
        }
        if ctx.round < self.waves {
            self.emit(ctx);
            if ctx.round + 1 < self.waves {
                ctx.stay_awake();
            }
        }
    }
}

/// The ring adjacency the scatter program's neighbour sends travel on.
fn ring_model(n: usize, local_edge_cap: usize) -> HybridLocal {
    HybridLocal::from_edges(
        n,
        (0..n as u32).map(|u| (u, (u + 1) % n as u32)),
        local_edge_cap,
    )
}

/// Every model under test, freshly built for network size `n`. The
/// kmachine crate sits above ncc-model in the workspace, so the "wants
/// delivered pairs + charges rounds" trait surface is exercised here with
/// [`ChargingModel`]; the real `KMachineModel` is covered by
/// `ncc-kmachine`'s own engine tests.
fn all_models(n: usize) -> Vec<Box<dyn NetworkModel>> {
    vec![
        Box::new(Ncc),
        Box::new(CongestedClique::new(2)),
        Box::new(ChargingModel::default()),
        Box::new(ring_model(n, 1)),
    ]
}

/// Minimal cost-accounting model: NCC semantics, charges one extra round
/// per 10 delivered messages, and tallies what `charge_round` is shown.
#[derive(Default)]
struct ChargingModel {
    /// Delivered pairs seen across every round.
    pairs: u64,
    /// Rounds whose pairs were not in ascending destination order.
    unsorted_rounds: u64,
}

impl NetworkModel for ChargingModel {
    fn name(&self) -> &'static str {
        "charging-stub"
    }
    fn recv_policy(&self, cap: &Capacity) -> RecvPolicy {
        RecvPolicy::NodeCap { recv: cap.recv }
    }
    fn wants_delivered_pairs(&self) -> bool {
        true
    }
    fn charge_round(&mut self, _round: u64, delivered: &[ncc_model::TraceEvent]) -> u64 {
        self.pairs += delivered.len() as u64;
        self.unsorted_rounds += !delivered.is_sorted_by_key(|ev| ev.dst) as u64;
        1 + delivered.len() as u64 / 10
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

fn run_model(
    model: Box<dyn NetworkModel>,
    n: usize,
    seed: u64,
    recv_cap: usize,
    waves: u64,
    fanout: usize,
    threads: usize,
) -> (ncc_model::ExecStats, Vec<(u64, u64)>, Engine) {
    let cfg = NetConfig::new(n, seed)
        .with_capacity(Capacity::squeezed(64, recv_cap))
        .permissive()
        .with_threads(threads);
    let mut eng = Engine::with_model(cfg, model);
    let mut states = vec![ScatterState::default(); n];
    let stats = eng
        .execute(&Scatter { waves, fanout }, &mut states)
        .unwrap();
    let sums = states.iter().map(|s| (s.received, s.checksum)).collect();
    (stats, sums, eng)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Conservation for every model × threads ∈ {1, 4}: each sent message
    /// is delivered or dropped, never both or neither; truncation stays on
    /// the send side (disjoint from drops); node inboxes account exactly
    /// for the delivered total, and so do the pairs a model's
    /// `charge_round` is shown, ascending by destination.
    #[test]
    fn cross_model_conservation(
        n in 8usize..160,
        fanout in 1usize..10,
        waves in 1u64..5,
        recv_cap in 1usize..24,
        seed in any::<u64>(),
    ) {
        for threads in [1usize, 4] {
            for model in all_models(n) {
                let name = model.name();
                let (stats, sums, eng) =
                    run_model(model, n, seed, recv_cap, waves, fanout, threads);
                prop_assert_eq!(
                    stats.delivered + stats.dropped,
                    stats.sent,
                    "conservation violated under {} at {} threads", name, threads
                );
                // truncated messages were never sent: the sum of inbox
                // sizes equals delivered exactly
                let received: u64 = sums.iter().map(|&(r, _)| r).sum();
                prop_assert_eq!(received, stats.delivered, "model {}", name);
                prop_assert_eq!(stats.lost(), stats.dropped + stats.truncated);
                if let Some(c) = eng.model().as_any().downcast_ref::<ChargingModel>() {
                    prop_assert_eq!(c.pairs, stats.delivered, "at {} threads", threads);
                    prop_assert_eq!(c.unsorted_rounds, 0, "at {} threads", threads);
                }
            }
        }
    }

    /// Bit-identical execution across thread counts, for every model.
    #[test]
    fn cross_model_parallel_equivalence(
        n in 130usize..300,
        fanout in 1usize..6,
        recv_cap in 2usize..16,
        seed in any::<u64>(),
    ) {
        for (a, b) in all_models(n).into_iter().zip(all_models(n)) {
            let name = a.name();
            let (s1, r1, _) = run_model(a, n, seed, recv_cap, 3, fanout, 1);
            let (s4, r4, _) = run_model(b, n, seed, recv_cap, 3, fanout, 4);
            prop_assert_eq!(s1, s4, "stats diverged under {}", name);
            prop_assert_eq!(r1, r4, "states diverged under {}", name);
        }
    }

    /// Byte-identity oracle: the engine under an *explicit* `Ncc` model
    /// reproduces the default-construction engine (the pre-refactor path)
    /// exactly, and its routing matches the naive per-envelope delivery of
    /// the test-side `reference_route`.
    #[test]
    fn ncc_model_pins_pre_refactor_semantics(
        n in 4usize..150,
        fanout in 1usize..8,
        recv_cap in 1usize..16,
        seed in any::<u64>(),
    ) {
        let (s_default, r_default) = {
            let cfg = NetConfig::new(n, seed)
                .with_capacity(Capacity::squeezed(64, recv_cap))
                .permissive();
            let mut eng = Engine::new(cfg);
            let mut states = vec![ScatterState::default(); n];
            let stats = eng.execute(&Scatter { waves: 3, fanout }, &mut states).unwrap();
            (stats, states.iter().map(|s| s.checksum).collect::<Vec<_>>())
        };
        let (s_explicit, r_explicit, _) =
            run_model(Box::new(Ncc), n, seed, recv_cap, 3, fanout, 1);
        prop_assert_eq!(s_default, s_explicit);
        prop_assert_eq!(r_default, r_explicit.iter().map(|&(_, c)| c).collect::<Vec<_>>());

        // router-level: NodeCap policy ≡ the seed engine's delivery phase
        let mut gen = network_rng(seed ^ 0x0a11, 0, 0);
        let sends: Vec<Envelope<u64>> = (0..500)
            .map(|i| {
                Envelope::new(
                    gen.gen_range(0..n as u32),
                    gen.gen_range(0..n as u32) % (1 + n as u32 / 4),
                    i as u64,
                )
            })
            .collect();
        let policy = RecvPolicy::NodeCap { recv: recv_cap };
        let want = reference_route(&sends, n, policy, &Ncc, seed, 7);
        let mut router: Router<u64> = Router::new(n, seed, 1);
        let mut batch = sends.clone();
        let report = router.route_model(&mut batch, 7, policy, &Ncc);
        prop_assert_eq!(report, want.report);
        for d in 0..n as u32 {
            prop_assert_eq!(router.inbox(d), want.inboxes[d as usize].as_slice());
        }
    }
}

/// Cap-arithmetic audit regression: `Capacity::unbounded()` pushes
/// `usize::MAX` through the send-cap comparison, the counting sort, and
/// the sample phase — nothing may wrap, nothing may drop, on both the
/// sequential and the forced-parallel batched router.
#[test]
fn unbounded_capacity_through_batched_router() {
    let n = 96;
    for threads in [1usize, 4] {
        let cfg = NetConfig::new(n, 11)
            .with_capacity(Capacity::unbounded())
            .with_threads(threads);
        let mut eng = Engine::with_model(cfg, Box::new(Ncc));
        let mut states = vec![ScatterState::default(); n];
        let stats = eng
            .execute(
                &Scatter {
                    waves: 3,
                    fanout: 40,
                },
                &mut states,
            )
            .unwrap();
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.truncated, 0);
        assert_eq!(stats.delivered, stats.sent);
        assert_eq!(stats.sent, 3 * n as u64 * 40); // send waves 0..3, nothing cut
        assert!(stats.clean());
    }

    // Router-level, recv = usize::MAX and an over-concentrated destination.
    let mut router: Router<u64> = Router::new(8, 3, 1);
    let mut sends: Vec<Envelope<u64>> = (0..1000u32)
        .map(|i| Envelope::new(i % 8, 0, i as u64))
        .collect();
    let report = router.route(&mut sends, 0, usize::MAX);
    assert_eq!(report.delivered, 1000);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.max_in, 1000);
    assert_eq!(router.inbox(0).len(), 1000);

    // Congested-Clique with an unbounded edge cap must not wrap either.
    let cc = CongestedClique::new(usize::MAX);
    let mut router: Router<u64> = Router::new(8, 3, 1);
    let mut sends: Vec<Envelope<u64>> = (0..1000u32)
        .map(|i| Envelope::new(i % 8, 0, i as u64))
        .collect();
    let report = router.route_model(&mut sends, 0, cc.recv_policy(&Capacity::unbounded()), &cc);
    assert_eq!(report.delivered, 1000);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.max_edge_load, 125); // 1000 sends / 8 senders
}

/// Hybrid local messages bypass the node send cap: a node may saturate its
/// global budget and still reach every graph neighbour.
#[test]
fn hybrid_local_lane_bypasses_send_cap() {
    struct LocalPlusGlobal;
    impl NodeProgram for LocalPlusGlobal {
        type State = u64;
        type Payload = u64;
        fn init(&self, _st: &mut u64, ctx: &mut Ctx<'_, u64>) {
            if ctx.id == 0 {
                // 2 global sends (the full node budget) + 1 local send
                ctx.send(2, 100);
                ctx.send(3, 101);
                ctx.send(1, 102); // ring neighbour: local lane
            }
        }
        fn round(&self, st: &mut u64, inbox: &[Envelope<u64>], _ctx: &mut Ctx<'_, u64>) {
            *st += inbox.len() as u64;
        }
    }
    let n = 6;
    let cfg = NetConfig::new(n, 1).with_capacity(Capacity::squeezed(2, 8));
    // strict mode: 3 sends against a send cap of 2 would abort under NCC…
    let mut ncc = Engine::new(cfg.clone());
    let mut states = vec![0u64; n];
    assert!(ncc.execute(&LocalPlusGlobal, &mut states).is_err());
    // …but under the hybrid model the neighbour send rides the local edge.
    let mut hybrid = Engine::with_model(cfg, Box::new(ring_model(n, 1)));
    let mut states = vec![0u64; n];
    let stats = hybrid.execute(&LocalPlusGlobal, &mut states).unwrap();
    assert_eq!(stats.sent, 3);
    assert_eq!(stats.delivered, 3);
    assert_eq!(states[1], 1);
    assert_eq!(states[2], 1);
    assert_eq!(states[3], 1);
}

/// `Engine::reset` restores the just-constructed state exactly: a second
/// execution after reset is byte-identical to the first (and to a fresh
/// engine), for every model — the residency contract `ncc-serve` leans on.
/// Without the reset, the advanced node RNGs and the drop-sampling round
/// key make the rerun diverge, which is also asserted so the test would
/// catch a reset that silently became unnecessary (or a no-op).
#[test]
fn reset_restores_byte_identical_execution() {
    let n = 96;
    let prog = Scatter {
        waves: 3,
        fanout: 6,
    };
    for model_fresh in all_models(n) {
        let name = model_fresh.name();
        let cfg = NetConfig::new(n, 17)
            .with_capacity(Capacity::squeezed(64, 5))
            .permissive();
        let mut eng = Engine::with_model(cfg, model_fresh);

        let mut first = vec![ScatterState::default(); n];
        let s1 = eng.execute(&prog, &mut first).unwrap();
        let sums1: Vec<(u64, u64)> = first.iter().map(|s| (s.received, s.checksum)).collect();
        assert_eq!(eng.total, s1, "cumulative totals mirror the single run");

        // a rerun *without* reset diverges (advanced RNG streams + round key)
        let mut stale = vec![ScatterState::default(); n];
        let s_stale = eng.execute(&prog, &mut stale).unwrap();
        let sums_stale: Vec<(u64, u64)> = stale.iter().map(|s| (s.received, s.checksum)).collect();
        assert!(
            s_stale != s1 || sums_stale != sums1,
            "{name}: reuse without reset should diverge — if this starts \
             passing, the engine stopped carrying cross-run state and reset \
             may be droppable"
        );

        // after reset, the rerun is byte-identical to the first
        eng.reset();
        assert_eq!(eng.global_round(), 0);
        assert_eq!(eng.total, ncc_model::ExecStats::default());
        let mut again = vec![ScatterState::default(); n];
        let s2 = eng.execute(&prog, &mut again).unwrap();
        let sums2: Vec<(u64, u64)> = again.iter().map(|s| (s.received, s.checksum)).collect();
        assert_eq!(s1, s2, "{name}: stats must survive reset");
        assert_eq!(sums1, sums2, "{name}: states must survive reset");
    }
}
