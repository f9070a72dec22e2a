//! Steady-state allocation regression: a resident engine replaying the
//! same execution after [`Engine::reset`] must perform **zero** heap
//! allocations once every buffer has grown to its high-water capacity.
//! This is the executable form of the SoA/recycled-buffer memory model:
//! send buffer, inbox arena, per-worker out vectors, router tables,
//! radix scratch, and the activity lists are all retained across resets,
//! so the only remaining work is moves through pre-sized storage.
//!
//! The harness is a counting `#[global_allocator]`; the file holds a
//! single test so no concurrent test can pollute the counter. The
//! contract is pinned for `threads = 1` — the resident-replay
//! configuration — because the parallel step/route paths allocate scoped
//! thread handles each round by design.

use ncc_model::{Ctx, Engine, Envelope, NetConfig, NodeProgram};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// A replay workload that exercises every steady-state path: round 0
/// floods node 0 (setting the arena and sample-permutation high-water
/// and triggering receive-cap drops), then 100 nodes stay awake for
/// `ticks` rounds each sending one message to scattered distinct
/// destinations — 100 touched destinations, which crosses the router's
/// radix gate on the sparse path.
struct ReplayLoad {
    ticks: u32,
}

impl NodeProgram for ReplayLoad {
    type State = u32;
    type Payload = u64;

    fn init(&self, st: &mut u32, ctx: &mut Ctx<'_, u64>) {
        if ctx.id != 0 {
            ctx.send(0, ctx.id as u64);
        }
        if ctx.id < 100 {
            *st = self.ticks;
            ctx.stay_awake();
        }
    }

    fn round(&self, st: &mut u32, _inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        if ctx.id < 100 && *st > 0 {
            *st -= 1;
            // 19 is odd, hence invertible mod the power-of-two n: the 100
            // destinations are distinct every round
            ctx.send(
                (ctx.id.wrapping_mul(19).wrapping_add(ctx.round as u32 * 7)) % ctx.n as u32,
                *st as u64,
            );
            if *st > 0 {
                ctx.stay_awake();
            }
        }
    }
}

#[test]
fn resident_replay_allocates_nothing_in_steady_state() {
    let n = 2048;
    let prog = ReplayLoad { ticks: 40 };
    let mut eng = Engine::new(NetConfig::new(n, 7));
    let mut states = vec![0u32; n];

    // Baseline + warmup: three reset/execute cycles grow every buffer to
    // its high-water capacity.
    let baseline = eng.execute(&prog, &mut states).expect("replay runs");
    let baseline_states = states.clone();
    for _ in 0..2 {
        eng.reset();
        states.fill(0);
        let stats = eng.execute(&prog, &mut states).expect("warmup replay runs");
        assert_eq!(stats, baseline, "reset replays must be byte-identical");
    }

    let footprint = eng.resident_bytes();
    assert!(footprint.total() > 0, "warm engine holds resident state");

    // Steady state: five more replays, zero allocations allowed.
    let before = common::allocs();
    for _ in 0..5 {
        eng.reset();
        states.fill(0);
        let stats = eng.execute(&prog, &mut states).expect("steady replay runs");
        assert_eq!(stats.rounds, baseline.rounds);
        assert_eq!(stats.dropped, baseline.dropped);
    }
    let after = common::allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state resident replay must not touch the allocator"
    );

    // The replays above really did the work: results match the baseline
    // and the footprint did not grow past its high-water mark.
    assert_eq!(states, baseline_states);
    assert_eq!(eng.resident_bytes().total(), footprint.total());
}
