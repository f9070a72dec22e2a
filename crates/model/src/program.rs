//! The node-program abstraction: protocols as per-node state machines.
//!
//! A [`NodeProgram`] is the *code* every node runs (shared, immutable); each
//! node owns a `State` value (mutable, private). The engine calls
//! [`NodeProgram::init`] once at round 0 and then [`NodeProgram::round`]
//! every round in which the node is *active* — i.e. it received at least one
//! message, or it asked to stay awake via [`Ctx::stay_awake`]. Execution
//! ends when no messages are in flight and no node is awake (quiescence).
//!
//! This mirrors how the paper specifies algorithms: nodes react to incoming
//! messages, synchronous rounds, local computation free.

use std::any::Any;

use rand::rngs::SmallRng;

use crate::payload::{Envelope, Payload};
use crate::rng::node_rng;
use crate::NodeId;

/// A step worker's program-scratch slot: reusable buffers a program may
/// park between node-rounds instead of rebuilding them (the [`crate::Mux`]
/// keeps its per-lane inboxes and out-buffers here). The engine owns one
/// slot per step worker next to that worker's `out` buffer and recycles it
/// across executions; a program finds whatever the previous node-round on
/// this worker left, so the contents must be pure scratch — empty of
/// messages between node-rounds and never an input to a result.
pub(crate) type ProgScratch = Option<Box<dyn Any + Send>>;

/// A private randomness stream, seeded the first time it is drawn from:
/// while `stale` is set, `rng` holds nothing yet and the stream is
/// `node_rng(seed, id)` of the stepping node. The engine's node streams
/// and a [`crate::MuxBuilder::lane_seeded`] lane's streams start stale,
/// so a stream that is never drawn from is never seeded.
pub(crate) struct Stream<'a> {
    rng: &'a mut SmallRng,
    stale: &'a mut bool,
    seed: u64,
}

impl<'a> Stream<'a> {
    pub(crate) fn new(rng: &'a mut SmallRng, stale: &'a mut bool, seed: u64) -> Self {
        Stream { rng, stale, seed }
    }

    /// The same stream, borrowed for a shorter scope.
    pub(crate) fn reborrow(&mut self) -> Stream<'_> {
        Stream::new(self.rng, self.stale, self.seed)
    }
}

/// Per-node, per-round interface to the network: the node's identity, its
/// sends, its stay-awake request and its private randomness, [`Ctx::rng`].
pub struct Ctx<'a, P: Payload> {
    /// This node's identifier.
    pub id: NodeId,
    /// Network size; identifiers of all nodes (`0..n`) are common knowledge.
    pub n: usize,
    /// Rounds elapsed since this program execution started (0 = init round).
    pub round: u64,
    pub(crate) stream: Stream<'a>,
    pub(crate) out: &'a mut Vec<(NodeId, P)>,
    pub(crate) awake: &'a mut bool,
    pub(crate) scratch: &'a mut ProgScratch,
}

impl<P: Payload> Ctx<'_, P> {
    /// This node's private randomness stream, keyed by `(seed, id)`: the
    /// engine's seed, or the lane seed of a
    /// [`crate::MuxBuilder::lane_seeded`] lane. It is seeded on the first
    /// draw after `Engine::new`, `Engine::reset` or the lane's build, so it
    /// starts in the same state whenever that draw comes.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        let s = &mut self.stream;
        if *s.stale {
            *s.rng = node_rng(s.seed, self.id);
            *s.stale = false;
        }
        s.rng
    }

    /// Queues a message for delivery at the beginning of the next round.
    /// Subject to the send cap; exceeding it is a model violation.
    #[inline]
    pub fn send(&mut self, dst: NodeId, payload: P) {
        self.out.push((dst, payload));
    }

    /// Requests that this node's `round` function be invoked next round even
    /// if no message arrives. Without this, a node sleeps until woken by a
    /// message.
    #[inline]
    pub fn stay_awake(&mut self) {
        *self.awake = true;
    }

    /// Number of messages queued so far this round (to respect the cap).
    #[inline]
    pub fn queued(&self) -> usize {
        self.out.len()
    }
}

/// A distributed protocol: shared immutable code plus per-node mutable state.
///
/// Programs must be written so nodes act only on locally available
/// information: their own state, their id, `n`, received messages, and
/// private randomness. The engine provides no other channel.
pub trait NodeProgram: Sync {
    type State: Send;
    type Payload: Payload;

    /// Called once for every node at the start of the execution (round 0).
    fn init(&self, state: &mut Self::State, ctx: &mut Ctx<'_, Self::Payload>);

    /// Called for every *active* node each round, with the messages
    /// delivered to it this round (possibly a capped subset, if the network
    /// dropped excess messages).
    fn round(
        &self,
        state: &mut Self::State,
        inbox: &[Envelope<Self::Payload>],
        ctx: &mut Ctx<'_, Self::Payload>,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_send_queues_messages() {
        let mut out: Vec<(NodeId, u64)> = Vec::new();
        let mut awake = false;
        let (mut rng, mut stale) = (SmallRng::seed_from_u64(1), false);
        let mut ctx = Ctx {
            id: 0,
            n: 4,
            round: 0,
            stream: Stream::new(&mut rng, &mut stale, 0),
            out: &mut out,
            awake: &mut awake,
            scratch: &mut None,
        };
        assert_eq!(ctx.queued(), 0);
        ctx.send(1, 42);
        ctx.send(2, 43);
        assert_eq!(ctx.queued(), 2);
        assert!(!awake);
        assert_eq!(out, vec![(1, 42), (2, 43)]);
    }

    #[test]
    fn rng_seeds_a_stale_stream_on_first_draw_only() {
        use crate::rng::node_rng;
        use rand::Rng;
        let mut out: Vec<(NodeId, u64)> = Vec::new();
        let (mut rng, mut stale) = (SmallRng::seed_from_u64(1), true);
        let mut ctx = Ctx {
            id: 3,
            n: 4,
            round: 0,
            stream: Stream::new(&mut rng, &mut stale, 9),
            out: &mut out,
            awake: &mut false,
            scratch: &mut None,
        };
        let mut want = node_rng(9, 3);
        let drawn: Vec<u64> = (0..3).map(|_| ctx.rng().gen()).collect();
        let expected: Vec<u64> = (0..3).map(|_| want.gen()).collect();
        assert_eq!(drawn, expected);
        assert!(!stale);
    }

    #[test]
    fn ctx_stay_awake_sets_flag() {
        let mut out: Vec<(NodeId, u64)> = Vec::new();
        let mut awake = false;
        let (mut rng, mut stale) = (SmallRng::seed_from_u64(1), false);
        let mut ctx = Ctx {
            id: 3,
            n: 4,
            round: 5,
            stream: Stream::new(&mut rng, &mut stale, 0),
            out: &mut out,
            awake: &mut awake,
            scratch: &mut None,
        };
        ctx.stay_awake();
        assert!(awake);
    }
}
