//! Gossip and broadcast — the intro's capacity-bound demonstrations.
//!
//! §1: *"the gossip problem … requires at least `Ω(n/log n)` rounds in the
//! Node-Capacitated Clique model. Even the simple broadcast problem …
//! already takes time `Ω(log n / log log n)`."*
//!
//! Both protocols here are round-optimal up to constants, so measuring them
//! (experiment E13) traces out exactly those curves:
//!
//! * **gossip** — rotation schedule: in round `t`, node `u` sends its token
//!   to nodes `u + t·cap + 1 … u + (t+1)·cap (mod n)`. Every node sends and
//!   receives exactly `cap` messages per round; `⌈(n−1)/cap⌉` rounds total.
//! * **broadcast** — `cap`-ary information dissemination tree over the
//!   identifiers: node `u`'s children are `cap·u + 1 … cap·u + cap`. Depth
//!   `⌈log n / log cap⌉ = Θ(log n / log log n)` for `cap = Θ(log n)`.

use ncc_model::{Capacity, Ctx, Engine, Envelope, ExecStats, ModelError, NodeId, NodeProgram};

/// The messages per node per round both schedules use: `min(send, recv, n)`
/// (batches beyond `n − 1` are pointless, and the bound keeps the schedule
/// arithmetic overflow-safe). On `n ≥ 2` nodes a cap of 0 makes no
/// progress — gossip spins to the round limit, broadcast informs nobody —
/// so the runner refuses such a capacity before round 0.
pub fn round_cap(capacity: &Capacity, n: usize) -> usize {
    capacity.send.min(capacity.recv).min(n)
}

// ---------------------------------------------------------------------------
// Gossip
// ---------------------------------------------------------------------------

struct GossipProgram {
    n: u64,
    cap: u64,
}

#[derive(Debug, Clone, Default)]
struct GossipState {
    token: u64,
    received_count: u64,
    received_sum: u64,
}

impl GossipProgram {
    fn send_batch(&self, st: &GossipState, ctx: &mut Ctx<'_, u64>) {
        let start = ctx.round * self.cap + 1;
        if start >= self.n {
            return;
        }
        let end = (start + self.cap - 1).min(self.n - 1);
        for off in start..=end {
            let dst = ((ctx.id as u64 + off) % self.n) as NodeId;
            ctx.send(dst, st.token);
        }
        if end < self.n - 1 {
            ctx.stay_awake();
        }
    }
}

impl NodeProgram for GossipProgram {
    type State = GossipState;
    type Payload = u64;

    fn init(&self, st: &mut GossipState, ctx: &mut Ctx<'_, u64>) {
        self.send_batch(st, ctx);
    }

    fn round(&self, st: &mut GossipState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        for env in inbox {
            st.received_count += 1;
            st.received_sum = st.received_sum.wrapping_add(env.payload);
        }
        self.send_batch(st, ctx);
    }
}

/// All-to-all token exchange. Returns the statistics; panics (in debug) if
/// any node missed a token. Rounds: `⌈(n−1)/cap⌉ + 1`.
pub fn gossip_all(engine: &mut Engine) -> Result<ExecStats, ModelError> {
    let n = engine.n();
    let cap = round_cap(&engine.config().capacity, n) as u64;
    let prog = GossipProgram { n: n as u64, cap };
    let mut states: Vec<GossipState> = (0..n as u64)
        .map(|u| GossipState {
            token: 1000 + u,
            ..GossipState::default()
        })
        .collect();
    let stats = engine.execute(&prog, &mut states)?;
    let total: u64 = (0..n as u64).map(|u| 1000 + u).sum();
    for (u, st) in states.iter().enumerate() {
        debug_assert_eq!(st.received_count, n as u64 - 1, "node {u} missed tokens");
        debug_assert_eq!(
            st.received_sum,
            total - (1000 + u as u64),
            "node {u} token checksum"
        );
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

struct BroadcastProgram {
    n: u64,
    fanout: u64,
}

#[derive(Debug, Clone, Default)]
struct BroadcastState {
    value: Option<u64>,
}

impl BroadcastProgram {
    /// Sends `value` to node `id`'s children, `fanout·id + 1 ..= fanout·id +
    /// fanout` cut at `n − 1`, in ascending order. Only children that exist
    /// are visited: a leaf — most nodes — costs one comparison.
    fn relay(&self, id: NodeId, value: u64, ctx: &mut Ctx<'_, u64>) {
        let base = self.fanout * id as u64;
        for child in base + 1..=(base + self.fanout).min(self.n - 1) {
            ctx.send(child as NodeId, value);
        }
    }
}

impl NodeProgram for BroadcastProgram {
    type State = BroadcastState;
    type Payload = u64;

    fn init(&self, st: &mut BroadcastState, ctx: &mut Ctx<'_, u64>) {
        if ctx.id == 0 {
            let v = st.value.expect("source holds the value");
            self.relay(0, v, ctx);
        }
    }

    fn round(&self, st: &mut BroadcastState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        if let Some(env) = inbox.first() {
            if st.value.is_none() {
                st.value = Some(env.payload);
                self.relay(ctx.id, env.payload, ctx);
            }
        }
    }
}

/// One-to-all broadcast over the `cap`-ary id tree. Returns the statistics;
/// rounds = tree depth = `Θ(log n / log cap)`.
pub fn broadcast_all(engine: &mut Engine, value: u64) -> Result<ExecStats, ModelError> {
    let n = engine.n();
    let prog = BroadcastProgram {
        n: n as u64,
        fanout: round_cap(&engine.config().capacity, n) as u64,
    };
    let mut states: Vec<BroadcastState> = vec![BroadcastState::default(); n];
    states[0].value = Some(value);
    let stats = engine.execute(&prog, &mut states)?;
    for (u, st) in states.iter().enumerate() {
        debug_assert_eq!(st.value, Some(value), "node {u} not informed");
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_model::NetConfig;

    #[test]
    fn gossip_completes_and_is_clean() {
        for n in [8usize, 64, 200] {
            let mut eng = Engine::new(NetConfig::new(n, 5));
            let stats = gossip_all(&mut eng).unwrap();
            assert!(stats.clean(), "n={n}");
            let cap = eng.config().capacity.send as u64;
            let expect = (n as u64 - 1).div_ceil(cap);
            assert!(
                stats.rounds >= expect && stats.rounds <= expect + 2,
                "n={n}: rounds {} vs expected ≈{expect}",
                stats.rounds
            );
        }
    }

    #[test]
    fn gossip_rounds_scale_linearly_in_n() {
        let rounds = |n: usize| {
            let mut eng = Engine::new(NetConfig::new(n, 5));
            gossip_all(&mut eng).unwrap().rounds
        };
        let (r256, r1024) = (rounds(256), rounds(1024));
        // n/log n scaling: quadrupling n with cap growing by 10/8 →
        // rounds grow ≈ 3.2×; certainly more than 2×
        assert!(r1024 >= 2 * r256, "r256={r256}, r1024={r1024}");
    }

    #[test]
    fn broadcast_completes_fast() {
        for n in [8usize, 64, 512, 4096] {
            let mut eng = Engine::new(NetConfig::new(n, 6));
            let stats = broadcast_all(&mut eng, 42).unwrap();
            assert!(stats.clean());
            let cap = eng.config().capacity.send as f64;
            let depth = ((n as f64).ln() / cap.ln()).ceil() as u64 + 2;
            assert!(
                stats.rounds <= depth + 2,
                "n={n}: rounds {} vs depth bound {depth}",
                stats.rounds
            );
        }
    }

    /// The relay before it computed the child range: every one of the
    /// `fanout` slots is tested against `n`, so a leaf pays `fanout`
    /// failed tests. Kept as the reference `relay` must match.
    struct AllSlotsBroadcast(BroadcastProgram);

    impl AllSlotsBroadcast {
        fn relay(&self, id: NodeId, value: u64, ctx: &mut Ctx<'_, u64>) {
            let BroadcastProgram { n, fanout } = self.0;
            for c in 1..=fanout {
                let child = fanout * id as u64 + c;
                if child < n {
                    ctx.send(child as NodeId, value);
                }
            }
        }
    }

    impl NodeProgram for AllSlotsBroadcast {
        type State = BroadcastState;
        type Payload = u64;

        fn init(&self, st: &mut BroadcastState, ctx: &mut Ctx<'_, u64>) {
            if ctx.id == 0 {
                self.relay(0, st.value.unwrap(), ctx);
            }
        }

        fn round(&self, st: &mut BroadcastState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            if let (Some(env), None) = (inbox.first(), st.value) {
                st.value = Some(env.payload);
                self.relay(ctx.id, env.payload, ctx);
            }
        }
    }

    /// Runs `prog` from node 0 holding `value` on a fresh engine; returns
    /// the statistics, the engine's round counter and the final states.
    fn run_from_source<P>(
        prog: &P,
        cfg: NetConfig,
        value: u64,
    ) -> (ExecStats, u64, Vec<Option<u64>>)
    where
        P: NodeProgram<State = BroadcastState, Payload = u64>,
    {
        let mut eng = Engine::new(cfg);
        let mut states = vec![BroadcastState::default(); eng.n()];
        states[0].value = Some(value);
        let stats = eng.execute(prog, &mut states).unwrap();
        let values = states.into_iter().map(|s| s.value).collect();
        (stats, eng.global_round(), values)
    }

    #[test]
    fn relay_sends_exactly_what_the_all_slots_loop_sends() {
        for label in ["1", "2", "3", "7", "default", "unbounded"] {
            let capacity = |n: usize| match label {
                "default" => Capacity::default_for(n),
                "unbounded" => Capacity::unbounded(),
                f => Capacity::squeezed(f.parse().unwrap(), f.parse().unwrap()),
            };
            // the tree's shape changes at f, f + 1, f² + f and f² + f + 1
            // nodes; 600 stands for "no more than that fits"
            let f = round_cap(&capacity(600), 600);
            let mut sizes: Vec<usize> = [1, 2, 3, f, f + 1, f * f + f, f * f + f + 1, 600]
                .into_iter()
                .map(|n| n.min(600))
                .collect();
            sizes.sort_unstable();
            sizes.dedup();
            for n in sizes {
                let cfg = NetConfig::new(n, 9).with_capacity(capacity(n));
                let fanout = round_cap(&cfg.capacity, n) as u64;
                let n64 = n as u64;
                let fast = run_from_source(&BroadcastProgram { n: n64, fanout }, cfg.clone(), 77);
                let slow = run_from_source(
                    &AllSlotsBroadcast(BroadcastProgram { n: n64, fanout }),
                    cfg,
                    77,
                );
                assert_eq!(fast.0, slow.0, "fanout {label}, n = {n}: stats");
                assert_eq!(fast.1, slow.1, "fanout {label}, n = {n}: global round");
                assert!(
                    fast.2.iter().all(|v| *v == Some(77)),
                    "fanout {label}, n = {n}: a node was not informed"
                );
                assert_eq!(
                    fast.0.sent,
                    n64 - 1,
                    "fanout {label}, n = {n}: one message per edge"
                );
            }
        }
    }

    #[test]
    fn broadcast_slower_than_constant() {
        // Ω(log n / log log n): at n = 4096 with cap 96 this is ≥ 2 levels
        let mut eng = Engine::new(NetConfig::new(4096, 7));
        let stats = broadcast_all(&mut eng, 1).unwrap();
        assert!(stats.rounds >= 2, "rounds {}", stats.rounds);
    }
}
