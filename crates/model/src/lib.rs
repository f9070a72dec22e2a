//! # ncc-model — the Node-Capacitated Clique substrate
//!
//! This crate implements the communication model of *Distributed Computation
//! in Node-Capacitated Networks* (Augustine et al., SPAA 2019) as an
//! executable, measurable substrate:
//!
//! * `n` nodes with identifiers `0..n` form a logical clique — any node may
//!   address any other node directly.
//! * Time proceeds in **synchronous rounds**. Messages sent in round `t` are
//!   delivered at the beginning of round `t + 1`.
//! * Per round, every node may **send at most `cap_send` messages** and
//!   **receive at most `cap_recv` messages**, each of `O(log n)` bits. Both
//!   caps default to `Θ(log n)`. If more than `cap_recv` messages are
//!   addressed to a node, an *arbitrary* subset of `cap_recv` of them is
//!   delivered and the rest are **dropped by the network** (we instantiate
//!   "arbitrary" as a seeded-random subset and count every drop).
//! * Local computation is free, as in the model.
//!
//! Protocols are written against the [`NodeProgram`] trait: a per-node state
//! machine invoked once per round with the messages delivered that round.
//! The [`Engine`] drives programs either sequentially or with a deterministic
//! multi-threaded executor (results are bit-identical — see
//! [`engine::Engine::execute`]).
//!
//! ## Pluggable network models
//!
//! The communication semantics themselves — who may talk to whom, the
//! per-round budgets, the drop rules, and the cost accounting — live
//! behind the [`NetworkModel`] trait (see [`network`]): the default [`Ncc`]
//! per-node-cap clique, the per-edge-bandwidth [`CongestedClique`], the
//! k-machine cost model (crate `ncc-kmachine`), and the §1
//! [`HybridLocal`] local+global setting all drive the same engine and the
//! same batched delivery pipeline. [`ModelSpec`] is the serializable
//! description a scenario carries.
//!
//! ## Concurrent composition
//!
//! The [`mux`] module multiplexes any number of independent programs
//! (*lanes*) into one execution: [`Mux`] is itself a [`NodeProgram`] over
//! lane-tagged [`DynPayload`]s, with per-lane state, per-lane quiescence and
//! a deterministic lane-round-robin send interleave, so composed
//! protocols share the per-node capacity budget and drop sampling exactly
//! as one program — the paper's "run `O(log n)` instances in parallel"
//! argument (§2), made executable. A one-lane mux is bit-identical to
//! running the inner program directly.
//!
//! ## Delivery as batched routing
//!
//! The per-round delivery phase is the [`router::Router`]: one counting
//! sort of the round's flat send buffer into a reusable per-destination
//! inbox arena — count, prefix-sum, scatter, then per-bucket receive-cap
//! sampling keyed by `(seed, round, destination)`. All routing state (the
//! arena, offset and cursor tables, sampling scratch) is owned by the
//! router and recycled, so in the steady state of an execution the
//! delivery phase performs **no heap allocation** and envelopes are moved,
//! never cloned. The router runs on the calling thread; only the step
//! phase runs on the deterministic parallel executor, and results are
//! bit-identical for any thread count.
//!
//! Every execution produces [`stats::ExecStats`]: rounds, message and bit
//! counters, maximum per-node in/out load, and drop counts. The benchmark
//! harness uses these to validate the paper's round-complexity theorems and
//! the capacity-compliance claims (Lemma 4.11).
//!
//! # Example: a two-round echo protocol
//!
//! ```
//! use ncc_model::{Ctx, Engine, Envelope, NetConfig, NodeProgram};
//!
//! /// Every node pings its successor; the successor echoes back.
//! struct PingPong;
//! impl NodeProgram for PingPong {
//!     type State = u64; // echoes received
//!     type Payload = u64;
//!     fn init(&self, _st: &mut u64, ctx: &mut Ctx<'_, u64>) {
//!         ctx.send((ctx.id + 1) % ctx.n as u32, 7);
//!     }
//!     fn round(&self, st: &mut u64, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
//!         for env in inbox {
//!             if ctx.round == 1 {
//!                 ctx.send(env.src, env.payload); // echo
//!             } else {
//!                 *st += 1; // count echoes
//!             }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(NetConfig::new(8, 42));
//! let mut states = vec![0u64; 8];
//! let stats = engine.execute(&PingPong, &mut states).unwrap();
//! assert_eq!(stats.rounds, 3);            // send, echo, absorb
//! assert!(states.iter().all(|&s| s == 1)); // everyone got their echo
//! assert!(stats.clean());                  // no drops, caps respected
//! ```

pub mod capacity;
pub mod engine;
pub mod error;
pub mod mux;
pub mod network;
pub mod payload;
pub mod program;
pub mod rng;
pub mod router;
pub mod stats;

pub use capacity::Capacity;
pub use engine::{Engine, NetConfig};
pub use error::ModelError;
pub use mux::{
    lane_stats, take_lane_states, DynPayload, LaneId, LaneStats, Mux, MuxBuilder, MuxState,
};
pub use network::{
    CongestedClique, HybridLocal, Lane, ModelSpec, Ncc, NetworkModel, RecvPolicy, TraceEvent,
};
pub use payload::{Envelope, Payload};
pub use program::{Ctx, NodeProgram};
pub use router::{RouteReport, Router, RouterScratch};
pub use stats::{ExecStats, MemoryFootprint, RoundStats};

/// Node identifier. The model fixes identifiers to `{0, 1, ..., n-1}`
/// (§1.1: identifiers are common knowledge, so w.l.o.g. they are dense).
pub type NodeId = u32;

/// Ceiling of log₂(n), with `ilog2_ceil(0) == 0` and `ilog2_ceil(1) == 0`.
#[inline]
pub fn ilog2_ceil(n: usize) -> u32 {
    if n <= 1 {
        0
    } else {
        usize::BITS - (n - 1).leading_zeros()
    }
}

/// Floor of log₂(n). `n` must be ≥ 1.
#[inline]
pub fn ilog2_floor(n: usize) -> u32 {
    debug_assert!(n >= 1);
    usize::BITS - 1 - n.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilog2_ceil_small_values() {
        assert_eq!(ilog2_ceil(0), 0);
        assert_eq!(ilog2_ceil(1), 0);
        assert_eq!(ilog2_ceil(2), 1);
        assert_eq!(ilog2_ceil(3), 2);
        assert_eq!(ilog2_ceil(4), 2);
        assert_eq!(ilog2_ceil(5), 3);
        assert_eq!(ilog2_ceil(1024), 10);
        assert_eq!(ilog2_ceil(1025), 11);
    }

    #[test]
    fn ilog2_floor_small_values() {
        assert_eq!(ilog2_floor(1), 0);
        assert_eq!(ilog2_floor(2), 1);
        assert_eq!(ilog2_floor(3), 1);
        assert_eq!(ilog2_floor(4), 2);
        assert_eq!(ilog2_floor(1023), 9);
        assert_eq!(ilog2_floor(1024), 10);
    }

    #[test]
    fn floor_le_ceil() {
        for n in 1..2000usize {
            assert!(ilog2_floor(n) <= ilog2_ceil(n));
            assert!(ilog2_ceil(n) - ilog2_floor(n) <= 1);
        }
    }
}
