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
use crate::NodeId;

/// A step worker's program-scratch slot: reusable buffers a program may
/// park between node-rounds instead of rebuilding them (the [`crate::Mux`]
/// keeps its per-lane inboxes and out-buffers here). The engine owns one
/// slot per step worker next to that worker's `out` buffer and recycles it
/// across executions; a program finds whatever the previous node-round on
/// this worker left, so the contents must be pure scratch — empty of
/// messages between node-rounds and never an input to a result.
pub(crate) type ProgScratch = Option<Box<dyn Any + Send>>;

/// Per-node, per-round interface to the network.
pub struct Ctx<'a, P: Payload> {
    /// This node's identifier.
    pub id: NodeId,
    /// Network size; identifiers of all nodes (`0..n`) are common knowledge.
    pub n: usize,
    /// Rounds elapsed since this program execution started (0 = init round).
    pub round: u64,
    /// This node's private randomness stream.
    pub rng: &'a mut SmallRng,
    pub(crate) out: &'a mut Vec<(NodeId, P)>,
    pub(crate) awake: &'a mut bool,
    pub(crate) scratch: &'a mut ProgScratch,
}

impl<P: Payload> Ctx<'_, P> {
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

/// Blanket helper: drive a program where state construction is uniform.
pub fn make_states<Prog, F>(n: usize, f: F) -> Vec<Prog::State>
where
    Prog: NodeProgram,
    F: FnMut(NodeId) -> Prog::State,
{
    (0..n as NodeId).map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_send_queues_messages() {
        let mut out: Vec<(NodeId, u64)> = Vec::new();
        let mut awake = false;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx {
            id: 0,
            n: 4,
            round: 0,
            rng: &mut rng,
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
    fn ctx_stay_awake_sets_flag() {
        let mut out: Vec<(NodeId, u64)> = Vec::new();
        let mut awake = false;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ctx = Ctx {
            id: 3,
            n: 4,
            round: 5,
            rng: &mut rng,
            out: &mut out,
            awake: &mut awake,
            scratch: &mut None,
        };
        ctx.stay_awake();
        assert!(awake);
    }
}
