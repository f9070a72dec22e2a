//! Steady-state allocations under [`Mux`]: the buffer-ownership contract
//! of `mux.rs` on a resident `threads = 1` replay of a three-lane mux.
//!
//! * A node-round that neither receives nor sends touches the allocator
//!   **zero** times, however many lanes it steps.
//! * A message costs at most one allocation — the `Arc` of
//!   `DynPayload::new` — so allocations ≤ messages.
//!
//! Same harness and the same one-test-per-file rule as
//! `alloc_regression.rs`: a counting `#[global_allocator]`, and no second
//! test whose allocations could land in the counted window. What a replay
//! builds outside the engine (lane states, the mux itself) is built before
//! the window opens.

use ncc_model::{Ctx, Engine, Envelope, Mux, MuxBuilder, MuxState, NetConfig, NodeProgram};

mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// A lane that stays awake for `ticks` rounds and, when `talk` is set,
/// sends one message per round to a node `stride` away. The lanes of one
/// mux differ in payload type, like the lanes of a real composition.
struct Ticker<P> {
    ticks: u32,
    talk: bool,
    stride: u32,
    word: P,
}

impl<P: ncc_model::Payload> Ticker<P> {
    fn tick(&self, left: &mut u32, ctx: &mut Ctx<'_, P>) {
        if *left == 0 {
            return;
        }
        *left -= 1;
        if self.talk {
            ctx.send((ctx.id + self.stride) % ctx.n as u32, self.word.clone());
        }
        ctx.stay_awake();
    }
}

impl<P: ncc_model::Payload> NodeProgram for Ticker<P> {
    type State = u32;
    type Payload = P;

    fn init(&self, left: &mut u32, ctx: &mut Ctx<'_, P>) {
        *left = self.ticks;
        self.tick(left, ctx);
    }

    fn round(&self, left: &mut u32, _inbox: &[Envelope<P>], ctx: &mut Ctx<'_, P>) {
        self.tick(left, ctx);
    }
}

const N: usize = 256;
const TICKS: u32 = 50;

fn three_lanes(talk: bool) -> (Mux<'static>, Vec<MuxState>) {
    let mut b = MuxBuilder::new(N);
    b.lane_seeded(
        Ticker {
            ticks: TICKS,
            talk,
            stride: 1,
            word: 7u64,
        },
        vec![0; N],
        1,
    );
    b.lane_seeded(
        Ticker {
            ticks: TICKS,
            talk,
            stride: 5,
            word: (3u64, true),
        },
        vec![0; N],
        2,
    );
    b.lane_seeded(
        Ticker {
            ticks: TICKS,
            talk,
            stride: 11,
            word: [1u32, 2],
        },
        vec![0; N],
        3,
    );
    b.build()
}

/// Allocations and messages of one replay, after two warm-up replays have
/// grown every buffer to its high-water capacity.
fn steady_replay(eng: &mut Engine, talk: bool) -> (u64, u64) {
    for _ in 0..2 {
        let (mux, mut states) = three_lanes(talk);
        eng.reset();
        eng.execute(&mux, &mut states).expect("warm-up replay runs");
    }
    let (mux, mut states) = three_lanes(talk);
    eng.reset();
    let before = common::allocs();
    let stats = eng.execute(&mux, &mut states).expect("steady replay runs");
    let allocs = common::allocs() - before;
    assert_eq!(stats.rounds, TICKS as u64 + 1);
    assert_eq!(stats.dropped, 0);
    (allocs, stats.sent)
}

#[test]
fn mux_node_round_allocates_at_most_once_per_message() {
    let mut eng = Engine::new(NetConfig::new(N, 7));

    // (i) three lanes awake on every node for TICKS rounds, no mail
    let (allocs, sent) = steady_replay(&mut eng, false);
    assert_eq!(sent, 0);
    assert_eq!(
        allocs, 0,
        "a mux node-round without mail must not touch the allocator"
    );

    // (ii) every node sends one message per lane per round
    let (allocs, sent) = steady_replay(&mut eng, true);
    assert_eq!(sent, 3 * N as u64 * TICKS as u64);
    assert!(
        allocs <= sent,
        "{allocs} allocations for {sent} messages: more than the one Arc per message"
    );
}
