//! Property tests for the engine itself: conservation laws, determinism,
//! sequential ≡ parallel equivalence under randomized programs, the
//! scheduler's contract as seen by a node, and equivalence of the batched
//! router with the naive reference delivery (`oracle`) for every receive
//! policy on every route it can take.

mod oracle;

use std::sync::atomic::{AtomicU64, Ordering};

use ncc_model::rng::network_rng;
use ncc_model::{
    Capacity, Ctx, Engine, Envelope, HybridLocal, NetConfig, NodeProgram, RecvPolicy, Router,
};
use oracle::reference_route;
use proptest::prelude::*;
use rand::Rng;

/// A randomized scatter program: for `waves` rounds, every node sends
/// `fanout` messages to destinations drawn from its private stream.
struct Scatter {
    waves: u64,
    fanout: usize,
}

#[derive(Debug, Clone, Default)]
struct ScatterState {
    received: u64,
    checksum: u64,
}

impl NodeProgram for Scatter {
    type State = ScatterState;
    type Payload = u64;

    fn init(&self, _st: &mut ScatterState, ctx: &mut Ctx<'_, u64>) {
        for _ in 0..self.fanout {
            let n = ctx.n as u32;
            let dst = ctx.rng().gen_range(0..n);
            ctx.send(dst, ctx.id as u64);
        }
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
            for _ in 0..self.fanout {
                let n = ctx.n as u32;
                let dst = ctx.rng().gen_range(0..n);
                ctx.send(dst, ctx.id as u64);
            }
            if ctx.round + 1 < self.waves {
                ctx.stay_awake();
            }
        }
    }
}

/// The scheduler's contract, witnessed from inside a program: a node is
/// stepped after round 0 exactly when it has mail or asked, one round
/// earlier, to stay awake. Every node sends once at `init` (a dense
/// round); after that a stepped node pings a random node with probability
/// ¼ and asks to stay awake with probability ¼, so activity halves each
/// round and the tail is sparse.
struct Witness {
    horizon: u64,
    /// Messages sent in each round, so the test can tell which rounds the
    /// router saw as dense and which as sparse.
    sent_in_round: Vec<AtomicU64>,
}

#[derive(Debug, Clone, Default)]
struct WitnessState {
    steps: u64,
    read: u64,
    /// The round in which the node last asked to stay awake, until the
    /// step that request buys.
    asked_at: Option<u64>,
}

impl Witness {
    fn ping(&self, ctx: &mut Ctx<'_, u64>) {
        let n = ctx.n as u32;
        let dst = ctx.rng().gen_range(0..n);
        ctx.send(dst, ctx.id as u64);
        self.sent_in_round[ctx.round as usize].fetch_add(1, Ordering::Relaxed);
    }
}

impl NodeProgram for Witness {
    type State = WitnessState;
    type Payload = u64;

    fn init(&self, st: &mut WitnessState, ctx: &mut Ctx<'_, u64>) {
        st.steps += 1;
        self.ping(ctx);
    }

    fn round(&self, st: &mut WitnessState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        match st.asked_at.take() {
            Some(r) => assert_eq!(r + 1, ctx.round, "node {} asked in round {r}", ctx.id),
            None => assert!(
                !inbox.is_empty(),
                "node {} stepped in round {} with no mail and no request",
                ctx.id,
                ctx.round
            ),
        }
        st.steps += 1;
        st.read += inbox.len() as u64;
        if ctx.round < self.horizon {
            if ctx.rng().gen_range(0..4) == 0 {
                self.ping(ctx);
            }
            if ctx.rng().gen_range(0..4) == 0 {
                ctx.stay_awake();
                st.asked_at = Some(ctx.round);
            }
        }
    }
}

/// A seeded send batch that loads every policy: a few ring edges hit
/// repeatedly (local under the ring hybrid model, over any small edge
/// budget), a few senders onto a few hot destinations (over the node cap
/// and the edge cap), and uniform pairs.
fn send_batch(n: usize, msgs: usize, seed: u64) -> Vec<Envelope<u64>> {
    let mut gen = network_rng(seed ^ 0xba7c4, 0, 0);
    let n = n as u32;
    (0..msgs)
        .map(|i| {
            let (src, dst) = if i % 5 == 0 {
                let u = gen.gen_range(0..n.min(8));
                (u, (u + 1) % n)
            } else if i % 7 == 0 {
                (gen.gen_range(0..n.min(4)), gen.gen_range(0..1 + n / 256))
            } else {
                (gen.gen_range(0..n), gen.gen_range(0..n))
            };
            Envelope::new(src, dst, i as u64)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Conservation: every sent message is delivered or dropped, never both
    /// or neither — under arbitrary capacity squeezes.
    #[test]
    fn message_conservation(
        n in 4usize..200,
        fanout in 1usize..12,
        waves in 1u64..6,
        recv_cap in 1usize..32,
        seed in any::<u64>(),
    ) {
        let cfg = NetConfig::new(n, seed)
            .with_capacity(Capacity::squeezed(64, recv_cap))
            .permissive();
        let mut eng = Engine::new(cfg);
        let mut states = vec![ScatterState::default(); n];
        let stats = eng.execute(&Scatter { waves, fanout: fanout.min(63) }, &mut states).unwrap();
        prop_assert_eq!(stats.delivered + stats.dropped, stats.sent);
        let received_total: u64 = states.iter().map(|s| s.received).sum();
        prop_assert_eq!(received_total, stats.delivered);
        // per-node receive cap held every round
        prop_assert!(states.iter().all(|s| s.received <= recv_cap as u64 * (waves + 1)));
    }

    /// With unbounded capacity nothing is ever dropped.
    #[test]
    fn unbounded_never_drops(
        n in 4usize..150,
        fanout in 1usize..10,
        seed in any::<u64>(),
    ) {
        let cfg = NetConfig::new(n, seed).with_capacity(Capacity::unbounded());
        let mut eng = Engine::new(cfg);
        let mut states = vec![ScatterState::default(); n];
        let stats = eng.execute(&Scatter { waves: 3, fanout }, &mut states).unwrap();
        prop_assert_eq!(stats.dropped, 0);
        prop_assert_eq!(stats.delivered, stats.sent);
    }

    /// Bit-identical execution across thread counts, including under drops.
    /// Covers both executor phases: the chunked step and the partitioned
    /// counting-sort route.
    #[test]
    fn parallel_equivalence(
        n in 150usize..400,
        fanout in 1usize..6,
        recv_cap in 2usize..16,
        seed in any::<u64>(),
    ) {
        let run = |threads: usize| {
            let cfg = NetConfig::new(n, seed)
                .with_capacity(Capacity::squeezed(32, recv_cap))
                .permissive()
                .with_threads(threads);
            let mut eng = Engine::new(cfg);
            let mut states = vec![ScatterState::default(); n];
            let stats = eng.execute(&Scatter { waves: 3, fanout }, &mut states).unwrap();
            let sums: Vec<(u64, u64)> = states.iter().map(|s| (s.received, s.checksum)).collect();
            (stats, sums)
        };
        let (s1, r1) = run(1);
        for threads in [2usize, 4, 8] {
            let (st, rt) = run(threads);
            prop_assert_eq!(s1, st, "stats diverged at {} threads", threads);
            prop_assert_eq!(&r1, &rt, "states diverged at {} threads", threads);
        }
    }

    /// The batched router reproduces the reference delivery exactly — every
    /// inbox, `drops()`, `occupied()` and the whole report — for every
    /// receive policy, on every route: a small world whose rounds are
    /// mostly dense, and a large one routed dense, sparse (over enough
    /// distinct destinations for the radix sort), empty and dense again on
    /// one router, so state carried between rounds is checked too.
    #[test]
    fn router_matches_reference_semantics(
        kind in 0usize..4,
        recv in 1usize..24,
        edge_cap in 1usize..4,
        seed in any::<u64>(),
        round in 0u64..1000,
        small_n in 2usize..300,
        small_msgs in 0usize..6000,
        large_n in 2048usize..8192,
        dense_extra in 0usize..6000,
        sparse_share in 0.65f64..1.0,
    ) {
        let policy = [
            RecvPolicy::NodeCap { recv },
            RecvPolicy::Unlimited,
            RecvPolicy::EdgeCap { edge_cap },
            RecvPolicy::Hybrid { recv, local_edge_cap: edge_cap },
        ][kind];
        // sends × 8 < n is the router's sparse rule
        let sparse_msgs = ((large_n - 1) / 8) as f64 * sparse_share;
        let sparse = send_batch(large_n, sparse_msgs as usize, seed ^ 1);
        let mut touched: Vec<u32> = sparse.iter().map(|e| e.dst).collect();
        touched.sort_unstable();
        touched.dedup();
        prop_assert!(sparse.len() * 8 < large_n && touched.len() > 64);
        let dense = send_batch(large_n, large_n.div_ceil(8) + dense_extra, seed ^ 2);
        let worlds = [
            (small_n, vec![send_batch(small_n, small_msgs, seed)]),
            (large_n, vec![dense.clone(), sparse, Vec::new(), dense]),
        ];
        for (n, batches) in worlds {
            let ring = HybridLocal::from_edges(n, (0..n as u32).map(|u| (u, (u + 1) % n as u32)), 1);
            let rounds: Vec<u64> = (round..).take(batches.len()).collect();
            let want: Vec<_> = batches
                .iter()
                .zip(&rounds)
                .map(|(b, &r)| reference_route(b, n, policy, &ring, seed, r))
                .collect();
            let mut router: Router<u64> = Router::new(n, seed, 1);
            for ((batch, &r), want) in batches.iter().zip(&rounds).zip(&want) {
                let at = format!("{policy:?} n={n} sends={} seed={seed} round={r}", batch.len());
                let mut sends = batch.clone();
                let report = router.route_model(&mut sends, r, policy, &ring);
                prop_assert!(sends.is_empty(), "sends not drained: {}", at);
                prop_assert_eq!(report, want.report, "report diverged: {}", at);
                prop_assert_eq!(
                    report.delivered + report.dropped,
                    batch.len() as u64,
                    "conservation failed: {}", at
                );
                prop_assert_eq!(router.drops(), want.drops.as_slice(), "drops diverged: {}", at);
                prop_assert_eq!(
                    router.occupied(),
                    want.occupied.as_slice(),
                    "occupied diverged: {}", at
                );
                for d in 0..n as u32 {
                    prop_assert_eq!(
                        router.inbox(d),
                        want.inboxes[d as usize].as_slice(),
                        "inbox {} diverged: {}", d, at
                    );
                }
            }
        }
    }

    /// The scheduler steps a node exactly when it has mail or asked to stay
    /// awake — no node is skipped, none is stepped for nothing — through
    /// dense early rounds and a sparse tail, sequential and threaded, with
    /// and without receive-cap drops. Every delivered message is read by
    /// the node it was delivered to, and `node_rounds` is the number of
    /// steps the nodes themselves counted.
    #[test]
    fn scheduler_steps_exactly_the_nodes_with_mail_or_a_request(
        n in 2048usize..6000,
        recv_cap in 1usize..6,
        seed in any::<u64>(),
    ) {
        for threads in [1usize, 4] {
            let horizon = 40;
            let prog = Witness {
                horizon,
                sent_in_round: (0..horizon).map(|_| AtomicU64::new(0)).collect(),
            };
            let cfg = NetConfig::new(n, seed)
                .with_capacity(Capacity::squeezed(64, recv_cap))
                .with_threads(threads);
            let mut eng = Engine::new(cfg);
            let mut states = vec![WitnessState::default(); n];
            let stats = eng.execute(&prog, &mut states).unwrap();

            let read: u64 = states.iter().map(|s| s.read).sum();
            let steps: u64 = states.iter().map(|s| s.steps).sum();
            prop_assert_eq!(read, stats.delivered, "mail left unread, threads={}", threads);
            prop_assert_eq!(steps, stats.node_rounds, "threads={}", threads);
            prop_assert!(
                states.iter().all(|s| s.asked_at.is_none()),
                "a stay-awake request was never honoured, threads={}", threads
            );
            // the run crossed the router's dispatch (sends × 8 < n is sparse)
            let sent: Vec<u64> = prog.sent_in_round.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            prop_assert_eq!(sent.iter().sum::<u64>(), stats.sent);
            let first_sparse = sent.iter().position(|&s| s * 8 < n as u64).unwrap();
            prop_assert!(first_sparse >= 2, "early rounds route dense: {:?}", sent);
            prop_assert!(sent[first_sparse] > 64, "the tail routes sparse: {:?}", sent);
        }
    }

    /// Determinism: the same seed reproduces stats and states exactly;
    /// max_in/max_out are consistent with the caps.
    #[test]
    fn deterministic_and_bounded(
        n in 4usize..120,
        fanout in 1usize..8,
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut eng = Engine::new(NetConfig::new(n, seed).permissive());
            let mut states = vec![ScatterState::default(); n];
            let stats = eng.execute(&Scatter { waves: 2, fanout }, &mut states).unwrap();
            (stats, states.iter().map(|s| s.checksum).collect::<Vec<_>>())
        };
        let (s1, c1) = run();
        let (s2, c2) = run();
        prop_assert_eq!(s1, s2);
        prop_assert_eq!(c1, c2);
        prop_assert!(s1.max_out <= fanout as u64);
    }
}
