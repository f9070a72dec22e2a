//! Node and lane RNG streams are seeded on their first draw, not when the
//! engine or the lane is built. These tests pin the contract that makes the
//! laziness invisible: whatever a previous program drew, a stream's first
//! draw after `Engine::reset` (or after a lane's build) yields what a fresh
//! engine's first draw yields — on the sequential step path and on the
//! parallel one, which carves the stale-flag column per worker.

use ncc_model::{
    take_lane_states, Ctx, Engine, Envelope, ExecStats, MuxBuilder, NetConfig, NodeProgram,
};
use rand::Rng;

/// Above the engine's parallel-step threshold, so four threads carve the
/// node columns into chunks.
const N: usize = 256;

/// Every node stays awake for rounds `0..=last`; in rounds `first..=last`
/// the nodes it picks draw one value, keep it and send it to their ring
/// successor.
struct Draws {
    odd_only: bool,
    first: u64,
    last: u64,
}

#[derive(Clone, Debug, Default, PartialEq)]
struct Drawn {
    drawn: Vec<u64>,
    heard: Vec<u64>,
}

impl Draws {
    fn step(&self, st: &mut Drawn, ctx: &mut Ctx<'_, u64>) {
        let picked = !self.odd_only || ctx.id % 2 == 1;
        if picked && (self.first..=self.last).contains(&ctx.round) {
            let v: u64 = ctx.rng().gen();
            st.drawn.push(v);
            ctx.send((ctx.id + 1) % ctx.n as u32, v);
        }
        if ctx.round < self.last {
            ctx.stay_awake();
        }
    }
}

impl NodeProgram for Draws {
    type State = Drawn;
    type Payload = u64;

    fn init(&self, st: &mut Drawn, ctx: &mut Ctx<'_, u64>) {
        self.step(st, ctx);
    }

    fn round(&self, st: &mut Drawn, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        st.heard.extend(inbox.iter().map(|e| e.payload));
        self.step(st, ctx);
    }
}

/// Program A draws on the odd nodes only, so at reset half the streams are
/// advanced and half were never seeded.
const ODD_DRAWS: Draws = Draws {
    odd_only: true,
    first: 0,
    last: 2,
};

fn engine(threads: usize) -> Engine {
    Engine::new(NetConfig::new(N, 0x5eed).with_threads(threads))
}

/// Runs `prog` on an engine that first ran [`ODD_DRAWS`] and was reset.
fn after_reset<T>(threads: usize, prog: impl FnOnce(&mut Engine) -> T) -> T {
    let mut eng = engine(threads);
    eng.execute(&ODD_DRAWS, &mut vec![Drawn::default(); N])
        .unwrap();
    eng.reset();
    prog(&mut eng)
}

fn every_node_draws(eng: &mut Engine) -> (ExecStats, Vec<Drawn>) {
    let prog = Draws {
        odd_only: false,
        first: 0,
        last: 3,
    };
    let mut states = vec![Drawn::default(); N];
    let stats = eng.execute(&prog, &mut states).unwrap();
    (stats, states)
}

#[test]
fn reset_engine_draws_what_a_fresh_engine_draws() {
    for threads in [1, 4] {
        let fresh = every_node_draws(&mut engine(threads));
        let reset = after_reset(threads, every_node_draws);
        assert_eq!(reset, fresh, "threads={threads}");
        assert!(fresh.1.iter().all(|s| s.drawn.len() == 4));
    }
}

/// A `lane_seeded` lane whose first draw is in round 2, muxed beside a lane
/// on the node's engine stream that draws from round 0.
fn seeded_lane_drawing_late(eng: &mut Engine) -> (ExecStats, Vec<Drawn>, Vec<Drawn>) {
    let mut b = MuxBuilder::new(N);
    let late = b.lane_seeded(
        Draws {
            odd_only: false,
            first: 2,
            last: 4,
        },
        vec![Drawn::default(); N],
        4242,
    );
    let early = b.lane(
        Draws {
            odd_only: false,
            first: 0,
            last: 1,
        },
        vec![Drawn::default(); N],
    );
    let (mux, mut states) = b.build();
    let stats = eng.execute(&mux, &mut states).unwrap();
    let late = take_lane_states(&mut states, late);
    let early = take_lane_states(&mut states, early);
    (stats, late, early)
}

#[test]
fn seeded_lane_first_drawn_in_round_two_matches_a_fresh_engine() {
    // Alone on an engine seeded with the lane seed, the late lane's
    // streams are the engine's own.
    let mut isolated = Engine::new(NetConfig::new(N, 4242));
    let mut alone = vec![Drawn::default(); N];
    let late = Draws {
        odd_only: false,
        first: 2,
        last: 4,
    };
    isolated.execute(&late, &mut alone).unwrap();
    for threads in [1, 4] {
        let fresh = seeded_lane_drawing_late(&mut engine(threads));
        let reset = after_reset(threads, seeded_lane_drawing_late);
        assert_eq!(reset, fresh, "threads={threads}");
        assert_eq!(fresh.1, alone, "threads={threads}");
        assert!(fresh.1.iter().all(|s| s.drawn.len() == 3));
    }
}
