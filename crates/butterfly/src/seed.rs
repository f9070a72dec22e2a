//! Shared-randomness agreement (§2.2).
//!
//! *"To agree on such hash functions, all nodes have to learn Θ(log² n)
//! random bits. This can be done by letting the node with identifier 0
//! broadcast Θ(log n) messages, each consisting of log n bits, to all other
//! nodes using the butterfly."*
//!
//! [`broadcast_seed`] implements exactly that: node 0 chops the required bit
//! volume into machine-word chunks and pushes them down the binomial
//! broadcast tree of the butterfly, **pipelined** — a column relays each
//! chunk to all of its tree children in the round after receiving it, so the
//! total time is `O(#chunks + log n)` and per-round load stays `O(log n)`.
//!
//! Semantically the nodes only need to agree on a 64-bit master seed (the
//! expansion to hash functions is deterministic, see
//! `ncc_hashing::SharedRandomness`); the remaining chunks carry real —
//! deterministically derived — bits so the protocol pays the full
//! communication cost the paper charges.

use ncc_hashing::SharedRandomness;
use ncc_model::{Ctx, Engine, Envelope, ExecStats, ModelError, NodeProgram, Payload};

use crate::topology::Butterfly;

/// One chunk of seed material.
#[derive(Debug, Clone)]
pub struct SeedChunk {
    pub index: u32,
    pub word: u64,
}

impl Payload for SeedChunk {
    fn bit_size(&self) -> u32 {
        // chunk index (small) + one word of seed material
        ncc_model::payload::min_bits(self.index as u64) + 64
    }
}

#[derive(Debug, Clone, Default)]
pub struct SeedState {
    /// Chunks received so far (only chunk 0 carries the master seed).
    pub words: Vec<(u32, u64)>,
}

struct SeedProgram {
    bf: Butterfly,
    master: u64,
    chunks: u32,
}

impl SeedProgram {
    /// Sends `chunk` to the children of column α in the binomial broadcast
    /// tree — α | 2^b for every bit position b below α's lowest set bit
    /// (all of 0..d for the root) — and to the attached non-emulating node.
    fn relay(&self, alpha: u32, chunk: &SeedChunk, ctx: &mut Ctx<'_, SeedChunk>) {
        let limit = if alpha == 0 {
            self.bf.d()
        } else {
            alpha.trailing_zeros()
        };
        for b in 0..limit {
            ctx.send(self.bf.emulator(alpha | (1 << b)), chunk.clone());
        }
        if let Some(attached) = self.bf.attached_node(alpha) {
            ctx.send(attached, chunk.clone());
        }
    }

    fn word_for(&self, index: u32) -> u64 {
        if index == 0 {
            self.master
        } else {
            // deterministic filler: real bits on the wire, derived content
            ncc_model::rng::splitmix64(self.master ^ (0x5eed_c0de ^ index as u64))
        }
    }
}

impl NodeProgram for SeedProgram {
    type State = SeedState;
    type Payload = SeedChunk;

    fn init(&self, st: &mut SeedState, ctx: &mut Ctx<'_, SeedChunk>) {
        if ctx.id == 0 {
            st.words = (0..self.chunks).map(|i| (i, self.word_for(i))).collect();
            ctx.stay_awake();
        }
    }

    fn round(
        &self,
        st: &mut SeedState,
        inbox: &[Envelope<SeedChunk>],
        ctx: &mut Ctx<'_, SeedChunk>,
    ) {
        if !self.bf.emulates(ctx.id) {
            for env in inbox {
                st.words.push((env.payload.index, env.payload.word));
            }
            return;
        }
        let alpha = self.bf.column_of(ctx.id);
        if ctx.id == 0 {
            // the root injects one chunk per round, pipelined
            let index = (ctx.round - 1) as u32;
            if index < self.chunks {
                let word = self.word_for(index);
                self.relay(alpha, &SeedChunk { index, word }, ctx);
                if index + 1 < self.chunks {
                    ctx.stay_awake();
                }
            }
        }
        // relay newly received chunks, in arrival order
        for env in inbox {
            st.words.push((env.payload.index, env.payload.word));
            self.relay(alpha, &env.payload, ctx);
        }
    }
}

/// The chunks [`broadcast_seed`] chops `total_bits` of seed material
/// into: one machine word each, at least one.
pub fn chunk_count(total_bits: usize) -> u32 {
    total_bits.div_ceil(64).max(1) as u32
}

/// Broadcasts `total_bits` of shared randomness from node 0 and returns the
/// agreed-upon [`SharedRandomness`]. Rounds: `O(total_bits/64 + log n)`.
///
/// Use [`SharedRandomness::bits_required`] to size `total_bits` for the hash
/// functions a protocol needs (`Θ(log² n)` per function of `Θ(log n)`-wise
/// independence).
pub fn broadcast_seed(
    engine: &mut Engine,
    master: u64,
    total_bits: usize,
) -> Result<(SharedRandomness, ExecStats), ModelError> {
    let n = engine.n();
    if n == 1 {
        return Ok((SharedRandomness::new(master), ExecStats::default()));
    }
    let bf = Butterfly::for_n(n);
    let chunks = chunk_count(total_bits);
    let prog = SeedProgram { bf, master, chunks };
    let mut states = vec![SeedState::default(); n];
    let stats = engine.execute(&prog, &mut states)?;
    if cfg!(debug_assertions) {
        // verify agreement: every node's chunk-0 word is the master seed
        for (v, st) in states.iter().enumerate() {
            let got = st.words.iter().find(|(i, _)| *i == 0).map(|(_, w)| *w);
            assert_eq!(got, Some(master), "node {v} missed the seed");
            let received: std::collections::BTreeSet<u32> =
                st.words.iter().map(|(i, _)| *i).collect();
            assert_eq!(received.len() as u32, chunks, "node {v} missed chunks");
        }
    }
    Ok((SharedRandomness::new(master), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_model::NetConfig;

    #[test]
    fn all_nodes_learn_all_chunks() {
        for n in [2usize, 5, 16, 37, 64] {
            let mut eng = Engine::new(NetConfig::new(n, 1));
            let (shared, stats) = broadcast_seed(&mut eng, 0xABCD, 700).unwrap();
            assert_eq!(shared, SharedRandomness::new(0xABCD));
            assert!(stats.clean(), "drops at n={n}");
        }
    }

    #[test]
    fn rounds_scale_with_chunks_plus_depth() {
        let n = 256; // d = 8
        let bits = 64 * 40; // 40 chunks
        let mut eng = Engine::new(NetConfig::new(n, 1));
        let (_, stats) = broadcast_seed(&mut eng, 7, bits).unwrap();
        // pipelined: ≈ chunks + d, certainly below chunks·d
        assert!(stats.rounds >= 40, "rounds {}", stats.rounds);
        assert!(stats.rounds <= 40 + 8 + 4, "rounds {}", stats.rounds);
    }

    #[test]
    fn load_stays_logarithmic() {
        let n = 512;
        let mut eng = Engine::new(NetConfig::new(n, 1));
        let (_, stats) = broadcast_seed(&mut eng, 7, 64 * 30).unwrap();
        let cap = eng.config().capacity.send as u64;
        assert!(
            stats.max_out <= cap,
            "max_out {} > cap {cap}",
            stats.max_out
        );
        assert!(stats.clean());
    }

    #[test]
    fn typical_bits_volume_for_log_squared() {
        let n = 1024;
        let k = SharedRandomness::k_for(n);
        let bits = SharedRandomness::bits_required(n, 2 * 10, k);
        let mut eng = Engine::new(NetConfig::new(n, 1));
        let (_, stats) = broadcast_seed(&mut eng, 3, bits).unwrap();
        // Θ(log² n)-ish bits at n=1024 → order 10² rounds, not order n
        assert!(stats.rounds < 200, "rounds {}", stats.rounds);
    }
}
