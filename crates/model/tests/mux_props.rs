//! Property tests for the lane multiplexer: running `k` random programs as
//! lanes of one [`Mux`] is equivalent to `k` isolated sequential
//! `engine.execute` runs (per-lane RNG streams keyed by `(lane seed,
//! node)`), across thread counts and capacity regimes; and mux executions
//! are bit-identical for 1/2/4/8 worker threads.

use ncc_model::{
    take_lane_states, Capacity, Ctx, Engine, Envelope, MuxBuilder, NetConfig, NodeProgram,
};
use proptest::prelude::*;
use rand::Rng;

/// A randomized program family: every node relays for `waves` rounds,
/// sending `fanout` messages to destinations drawn from its private
/// stream, and folds received payloads into a checksum. Parameters vary
/// per proptest case, so lanes in one mux run different programs.
#[derive(Debug, Clone)]
struct RandomProto {
    waves: u64,
    fanout: usize,
    salt: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ProtoState {
    received: u64,
    checksum: u64,
}

impl RandomProto {
    fn burst(&self, st: &ProtoState, ctx: &mut Ctx<'_, u64>) {
        for _ in 0..self.fanout {
            let n = ctx.n as u32;
            let dst = ctx.rng().gen_range(0..n);
            let val: u64 = ctx.rng().gen();
            ctx.send(dst, val ^ self.salt ^ st.checksum);
        }
    }
}

impl NodeProgram for RandomProto {
    type State = ProtoState;
    type Payload = u64;

    fn init(&self, st: &mut ProtoState, ctx: &mut Ctx<'_, u64>) {
        self.burst(st, ctx);
        if self.waves > 1 {
            ctx.stay_awake();
        }
    }

    fn round(&self, st: &mut ProtoState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        for env in inbox {
            st.received += 1;
            st.checksum = st.checksum.wrapping_mul(31).wrapping_add(env.payload);
        }
        if ctx.round < self.waves {
            self.burst(st, ctx);
            if ctx.round + 1 < self.waves {
                ctx.stay_awake();
            }
        }
    }
}

/// Isolated baseline: each program on its own engine whose master seed is
/// the lane seed, so `node_rng(lane_seed, node)` matches the mux's
/// per-lane streams. Unbounded caps keep the runs clean (no drops), which
/// is what makes exact state equivalence well-defined.
fn run_isolated(n: usize, threads: usize, prog: &RandomProto, lane_seed: u64) -> Vec<ProtoState> {
    let cfg = NetConfig::new(n, lane_seed)
        .with_capacity(Capacity::unbounded())
        .with_threads(threads);
    let mut eng = Engine::new(cfg);
    let mut states = vec![ProtoState::default(); n];
    eng.execute(prog, &mut states).unwrap();
    states
}

fn run_muxed(
    n: usize,
    threads: usize,
    engine_seed: u64,
    capacity: Capacity,
    protos: &[(RandomProto, u64)],
) -> (ncc_model::ExecStats, Vec<Vec<ProtoState>>) {
    let cfg = NetConfig::new(n, engine_seed)
        .with_capacity(capacity)
        .with_threads(threads)
        .permissive();
    let mut eng = Engine::new(cfg);
    let mut b = MuxBuilder::new(n);
    let ids: Vec<_> = protos
        .iter()
        .map(|(p, seed)| b.lane_seeded(p.clone(), vec![ProtoState::default(); n], *seed))
        .collect();
    let (mux, mut states) = b.build();
    let stats = eng.execute(&mux, &mut states).unwrap();
    let lanes = ids
        .into_iter()
        .map(|id| take_lane_states::<ProtoState>(&mut states, id))
        .collect();
    (stats, lanes)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// k lanes of one mux ≡ k isolated executions, for threads {1, 4} and
    /// capacities {tight (the default Θ(log n) budget), unbounded}. The
    /// tight runs stay clean because each lane's per-round fanout is small;
    /// cleanliness is asserted, as drops would (legitimately) break exact
    /// equivalence.
    #[test]
    fn mux_lanes_equal_isolated_runs(
        n in 8usize..96,
        k in 2usize..5,
        waves in 1u64..5,
        engine_seed in any::<u64>(),
        base_seed in any::<u64>(),
    ) {
        let protos: Vec<(RandomProto, u64)> = (0..k)
            .map(|i| {
                (
                    RandomProto {
                        waves,
                        fanout: 1 + i % 2,
                        salt: base_seed ^ (i as u64),
                    },
                    base_seed.wrapping_add(1 + i as u64),
                )
            })
            .collect();
        let isolated: Vec<Vec<ProtoState>> = protos
            .iter()
            .map(|(p, seed)| run_isolated(n, 1, p, *seed))
            .collect();
        for threads in [1usize, 4] {
            for capacity in [Capacity::default_for(n), Capacity::unbounded()] {
                let (stats, lanes) = run_muxed(n, threads, engine_seed, capacity, &protos);
                prop_assert_eq!(stats.dropped, 0, "tight run must stay clean");
                prop_assert_eq!(stats.truncated, 0);
                for (lane, iso) in lanes.iter().zip(isolated.iter()) {
                    prop_assert_eq!(lane, iso, "threads={} cap={:?}", threads, capacity);
                }
            }
        }
    }

    /// Mux executions are bit-identical across 1/2/4/8 worker threads:
    /// same statistics (incl. bits and drop counts) and same final states.
    #[test]
    fn mux_deterministic_across_threads(
        n in 130usize..300, // above the parallel step threshold
        k in 1usize..4,
        waves in 1u64..4,
        engine_seed in any::<u64>(),
        base_seed in any::<u64>(),
    ) {
        let protos: Vec<(RandomProto, u64)> = (0..k)
            .map(|i| {
                (
                    RandomProto { waves, fanout: 2, salt: i as u64 },
                    base_seed.wrapping_add(i as u64),
                )
            })
            .collect();
        let baseline = run_muxed(n, 1, engine_seed, Capacity::default_for(n), &protos);
        for threads in [2usize, 4, 8] {
            let got = run_muxed(n, threads, engine_seed, Capacity::default_for(n), &protos);
            prop_assert_eq!(&got.0, &baseline.0, "stats diverge at threads={}", threads);
            prop_assert_eq!(&got.1, &baseline.1, "states diverge at threads={}", threads);
        }
    }
}
