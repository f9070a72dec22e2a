//! The two plain node programs the model-layer probes execute. They are
//! the benchmark's own: the gossip program of `ncc-baselines` is private
//! to its crate, and the mux-tax probe needs the same program twice,
//! once bare and once as the single lane of a `Mux`.

use ncc_model::{Ctx, Envelope, NodeId, NodeProgram};

/// The rotation gossip schedule of `ncc_baselines::gossip_all`: in round
/// `t` node `u` sends its token to the next `cap` nodes after `u + t·cap`,
/// so every node sends and receives exactly `cap` messages per round.
#[derive(Clone, Copy)]
pub struct GossipShaped {
    pub n: u64,
    pub cap: u64,
}

impl GossipShaped {
    fn send_batch(&self, token: u64, ctx: &mut Ctx<'_, u64>) {
        let start = ctx.round * self.cap + 1;
        if start >= self.n {
            return;
        }
        let end = (start + self.cap - 1).min(self.n - 1);
        for off in start..=end {
            ctx.send(((ctx.id as u64 + off) % self.n) as NodeId, token);
        }
        if end < self.n - 1 {
            ctx.stay_awake();
        }
    }

    /// Messages one full execution sends: every ordered pair once.
    pub fn messages(&self) -> u64 {
        self.n * (self.n - 1)
    }
}

impl NodeProgram for GossipShaped {
    /// Sum of the tokens received (the token of node `u` is `u`).
    type State = u64;
    type Payload = u64;

    fn init(&self, _sum: &mut u64, ctx: &mut Ctx<'_, u64>) {
        self.send_batch(ctx.id as u64, ctx);
    }

    fn round(&self, sum: &mut u64, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        for env in inbox {
            *sum = sum.wrapping_add(env.payload);
        }
        self.send_batch(ctx.id as u64, ctx);
    }
}

/// One node stays awake for `ticks` rounds and nobody sends: a round of
/// this program is the engine's fixed per-round cost and nothing else.
pub struct LoneWalker {
    pub ticks: u32,
}

impl NodeProgram for LoneWalker {
    type State = u32;
    type Payload = u64;

    fn init(&self, left: &mut u32, ctx: &mut Ctx<'_, u64>) {
        if ctx.id == 0 {
            *left = self.ticks;
            ctx.stay_awake();
        }
    }

    fn round(&self, left: &mut u32, _inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        if ctx.id == 0 && *left > 0 {
            *left -= 1;
            if *left > 0 {
                ctx.stay_awake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_model::{Engine, MuxBuilder, NetConfig};

    #[test]
    fn gossip_shape_delivers_every_token_bare_and_muxed() {
        let n = 64usize;
        let mut eng = Engine::new(NetConfig::new(n, 5));
        let cap = eng.config().capacity.send.min(eng.config().capacity.recv) as u64;
        let prog = GossipShaped { n: n as u64, cap };
        let mut sums = vec![0u64; n];
        let plain = eng.execute(&prog, &mut sums).unwrap();
        assert_eq!(plain.sent, prog.messages());
        assert_eq!(plain.delivered, plain.sent);
        let all: u64 = (0..n as u64).sum();
        assert!(sums.iter().enumerate().all(|(u, s)| *s == all - u as u64));

        eng.reset();
        let mut b = MuxBuilder::new(n);
        b.lane(prog, vec![0u64; n]);
        let (mux, mut states) = b.build();
        let muxed = eng.execute(&mux, &mut states).unwrap();
        assert_eq!((muxed.rounds, muxed.sent), (plain.rounds, plain.sent));
    }

    #[test]
    fn lone_walker_sends_nothing_and_keeps_one_node_awake() {
        let mut eng = Engine::new(NetConfig::new(128, 5));
        let mut st = vec![0u32; 128];
        let stats = eng.execute(&LoneWalker { ticks: 50 }, &mut st).unwrap();
        assert_eq!(stats.sent, 0);
        assert_eq!(stats.peak_active, 128); // the init round wakes everyone
        assert!(stats.rounds >= 50);
        assert!(stats.node_rounds <= 128 + stats.rounds);
    }
}
