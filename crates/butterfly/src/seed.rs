//! Shared-randomness agreement (§2.2).
//!
//! *"To agree on such hash functions, all nodes have to learn Θ(log² n)
//! random bits. This can be done by letting the node with identifier 0
//! broadcast Θ(log n) messages, each consisting of log n bits, to all other
//! nodes using the butterfly."*
//!
//! [`TreeBroadcast`] is that protocol: node 0 pushes a list of items one a
//! round down the binomial broadcast tree of the butterfly, **pipelined** —
//! a column relays each item to all of its tree children in the round
//! after receiving it. On `2^d ≤ n` columns `k` items take `k + d + 1`
//! rounds — one per item, `d` hops down the tree, and the round that hears
//! the last of them — and a node sends at most `d + 1` messages a round,
//! so no round moves more than `n` messages. [`broadcast_seed`] runs it
//! bare on the seed material: node 0 chops the required bit volume into
//! machine words and packs as many consecutive words into a packet as the
//! payload budget holds (`w`, at least one), `⌈words/w⌉ + d + 1` rounds.
//! `ncc-core` runs it as a lane for §4 Stage 2's broadcast of the `U_high`
//! identifiers.
//!
//! Semantically the nodes only need to agree on a 64-bit master seed (the
//! expansion to hash functions is deterministic, see
//! `ncc_hashing::SharedRandomness`); the remaining words carry real —
//! deterministically derived — bits so the protocol pays the full
//! communication cost the paper charges.

use std::sync::Arc;

use ncc_hashing::SharedRandomness;
use ncc_model::payload::min_bits;
use ncc_model::{Ctx, Engine, Envelope, ExecStats, ModelError, NodeProgram, Payload};

use crate::topology::Butterfly;

/// One packet of seed material: consecutive words, the first of them word
/// `index`. The words sit behind a thin pointer, so a relay copies no
/// words and an envelope stays 24 bytes.
#[derive(Debug, Clone)]
pub struct SeedChunk {
    pub index: u32,
    pub words: Arc<Vec<u64>>,
}

impl Payload for SeedChunk {
    fn bit_size(&self) -> u32 {
        // the first word's index + 64 bits per word of seed material
        min_bits(self.index as u64) + 64 * self.words.len() as u32
    }
}

/// Node 0's pipelined broadcast of `items` down the butterfly's binomial
/// tree: node 0 injects item `r − 1` in round `r`, and every column relays
/// each item it gets to its tree children and its attached node in the
/// next round. A node's state is the items it holds — those it received
/// and, at the root, those it sent.
pub struct TreeBroadcast<P: Payload> {
    bf: Butterfly,
    items: Vec<P>,
}

impl<P: Payload> TreeBroadcast<P> {
    /// Node 0's broadcast of `items` to all `n` nodes.
    pub fn new(n: usize, items: Vec<P>) -> Self {
        TreeBroadcast {
            bf: Butterfly::for_n(n),
            items,
        }
    }

    /// Sends `item` to the children of column α in the binomial broadcast
    /// tree — α | 2^b for every bit position b below α's lowest set bit
    /// (all of 0..d for the root) — and to the attached non-emulating node.
    fn relay(&self, alpha: u32, item: &P, ctx: &mut Ctx<'_, P>) {
        let limit = if alpha == 0 {
            self.bf.d()
        } else {
            alpha.trailing_zeros()
        };
        for b in 0..limit {
            ctx.send(self.bf.emulator(alpha | (1 << b)), item.clone());
        }
        if let Some(attached) = self.bf.attached_node(alpha) {
            ctx.send(attached, item.clone());
        }
    }
}

impl<P: Payload> NodeProgram for TreeBroadcast<P> {
    /// The items a node holds.
    type State = Vec<P>;
    type Payload = P;

    fn init(&self, _: &mut Vec<P>, ctx: &mut Ctx<'_, P>) {
        if ctx.id == 0 && !self.items.is_empty() {
            ctx.stay_awake();
        }
    }

    fn round(&self, held: &mut Vec<P>, inbox: &[Envelope<P>], ctx: &mut Ctx<'_, P>) {
        held.extend(inbox.iter().map(|env| env.payload.clone()));
        if !self.bf.emulates(ctx.id) {
            return;
        }
        let alpha = self.bf.column_of(ctx.id);
        // the root injects one item per round, pipelined
        let next = (ctx.round - 1) as usize;
        if let Some(item) = self.items.get(next).filter(|_| ctx.id == 0) {
            self.relay(alpha, item, ctx);
            held.push(item.clone());
            if next + 1 < self.items.len() {
                ctx.stay_awake();
            }
        }
        // relay newly received items, in arrival order
        for env in inbox {
            self.relay(alpha, &env.payload, ctx);
        }
    }
}

/// The machine words [`broadcast_seed`] chops `total_bits` of seed
/// material into, at least one.
pub fn word_count(total_bits: usize) -> u32 {
    total_bits.div_ceil(64).max(1) as u32
}

/// Words per packet when `words` words go out in `payload_bits`-bit
/// payloads: as many as fit beside the widest index, at least one.
fn words_per_packet(words: u32, payload_bits: u32) -> u32 {
    (payload_bits.saturating_sub(min_bits(words as u64 - 1)) / 64).clamp(1, words)
}

/// Broadcasts `total_bits` of shared randomness from node 0 and returns the
/// agreed-upon [`SharedRandomness`]. Rounds: `⌈words/w⌉ + d + 1`,
/// `O(total_bits / payload_bits + log n)`. A node that misses a word — a
/// receive cap dropped its copy — fails the agreement with
/// [`ModelError::WhpEventFailed`].
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
    // deterministic filler after the master: real bits on the wire,
    // derived content
    let words: Vec<u64> = (0..word_count(total_bits) as u64)
        .map(|i| match i {
            0 => master,
            _ => ncc_model::rng::splitmix64(master ^ (0x5eed_c0de ^ i)),
        })
        .collect();
    let w = words_per_packet(words.len() as u32, engine.config().capacity.payload_bits) as usize;
    let packets = words
        .chunks(w)
        .enumerate()
        .map(|(i, words)| SeedChunk {
            index: (i * w) as u32,
            words: Arc::new(words.to_vec()),
        })
        .collect();
    let prog = TreeBroadcast::new(n, packets);
    let mut states = vec![Vec::new(); n];
    let stats = engine.execute(&prog, &mut states)?;
    // every node holds every packet (the root those it sent)
    let holds_all = |held: &Vec<SeedChunk>| {
        let mut got: Vec<u32> = held.iter().map(|c| c.index).collect();
        got.sort_unstable();
        got.iter().eq(prog.items.iter().map(|c| &c.index))
    };
    match states.iter().all(holds_all) {
        true => Ok((SharedRandomness::new(master), stats)),
        false => Err(ModelError::WhpEventFailed {
            event: "every node learns the seed",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_model::{Capacity, NetConfig};

    /// The seed volume the §5 preamble agrees on: MST's `O(log n)`
    /// functions of `Θ(log n)` coefficients.
    fn volume(n: usize) -> usize {
        let logn = ncc_model::ilog2_ceil(n).max(1) as usize;
        SharedRandomness::bits_required(n, 2 * logn, SharedRandomness::k_for(n))
    }

    /// The rounds the module doc states: one per packet, `d` hops down
    /// the tree and one to hear the last of them.
    fn seed_rounds(n: usize, total_bits: usize, payload_bits: u32) -> u64 {
        let words = word_count(total_bits);
        let packets = words.div_ceil(words_per_packet(words, payload_bits));
        (packets + Butterfly::for_n(n).d() + 1) as u64
    }

    #[test]
    fn all_nodes_learn_all_chunks() {
        for n in [2usize, 5, 16, 37, 64] {
            let mut eng = Engine::new(NetConfig::new(n, 1));
            let (shared, stats) = broadcast_seed(&mut eng, 0xABCD, 700).unwrap();
            assert_eq!(shared, SharedRandomness::new(0xABCD));
            assert!(stats.clean(), "drops at n={n}");
        }
    }

    /// 40 words at n = 256 under the default 192-bit payload: two words a
    /// packet, so 20 packets and the 8 hops of the tree.
    #[test]
    fn rounds_scale_with_chunks_plus_depth() {
        let n = 256; // d = 8
        let bits = 64 * 40; // 40 words
        let mut eng = Engine::new(NetConfig::new(n, 1));
        let (_, stats) = broadcast_seed(&mut eng, 7, bits).unwrap();
        assert_eq!(words_per_packet(40, eng.config().capacity.payload_bits), 2);
        assert_eq!(stats.rounds, 20 + 8 + 1);
    }

    /// Every size class against payloads from the one-word floor to
    /// unbounded: every node holds every word (else `broadcast_seed`
    /// fails), the strict engine saw no payload over its budget, the
    /// rounds are the module doc's, and no node sends or receives more
    /// than its `d` tree children and attached node.
    #[test]
    fn packets_fill_the_payload_on_every_size_and_width() {
        for n in [2usize, 3, 16, 64, 100, 1024] {
            let total = volume(n);
            let words = word_count(total);
            let floor = min_bits(words as u64 - 1) + 64;
            let default = Capacity::default_for(n);
            for payload_bits in [
                floor,
                floor + 63,
                floor + 64,
                default.payload_bits,
                u32::MAX,
            ] {
                let cap = Capacity {
                    payload_bits,
                    ..default
                };
                let mut eng = Engine::new(NetConfig::new(n, 3).with_capacity(cap));
                let (_, stats) = broadcast_seed(&mut eng, 11, total)
                    .unwrap_or_else(|e| panic!("n={n} payload_bits={payload_bits}: {e}"));
                assert!(stats.clean(), "n={n} payload_bits={payload_bits}");
                let d = Butterfly::for_n(n).d() as u64;
                assert_eq!(stats.rounds, seed_rounds(n, total, payload_bits), "n={n}");
                assert!(
                    stats.peak_load() <= d + 1,
                    "n={n} payload_bits={payload_bits}"
                );
            }
            // one word a packet at the floor and one bit above the next
            assert_eq!(words_per_packet(words, floor), 1);
            assert_eq!(words_per_packet(words, floor + 63), 1);
            assert_eq!(words_per_packet(words, floor + 64), 2.min(words));
            assert_eq!(words_per_packet(words, u32::MAX), words);
        }
    }

    /// At n = 1024 the default 240-bit payload holds three of the 63
    /// words: 21 packets and 32 rounds (one word a packet took 74). The
    /// chunk is an index and a thin pointer, so its envelope stays 24
    /// bytes, and one packet a round leaves the engine's payload buffers
    /// no larger than one word a packet did.
    #[test]
    fn three_words_a_packet_at_1024_in_buffers_as_small() {
        assert_eq!(std::mem::size_of::<Envelope<SeedChunk>>(), 24);
        let n = 1024;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let (_, stats) = broadcast_seed(&mut eng, 5, volume(n)).unwrap();
        assert_eq!(word_count(volume(n)), 63);
        assert_eq!(stats.rounds, 32);
        assert_eq!(stats.sent, 21 * (n as u64 - 1));
        // one word a packet left 52 344 bytes of send buffer and arena
        let bufs = eng.resident_bytes().payload_bufs;
        assert!(bufs <= 52_344, "payload_bufs {bufs}");
    }

    /// A receive cap that drops every copy fails the agreement, typed, in
    /// every build; the default capacity agrees.
    #[test]
    fn an_agreement_that_loses_a_packet_fails_typed() {
        let n = 48;
        let cap = Capacity {
            recv: 0,
            ..Capacity::default_for(n)
        };
        let mut eng = Engine::new(NetConfig::new(n, 42).with_capacity(cap).permissive());
        match broadcast_seed(&mut eng, 9, volume(n)) {
            Err(ModelError::WhpEventFailed { event }) => {
                assert_eq!(event, "every node learns the seed")
            }
            other => panic!("an agreement that reached nobody returned {other:?}"),
        }
        let mut eng = Engine::new(NetConfig::new(n, 42));
        assert!(broadcast_seed(&mut eng, 9, volume(n)).unwrap().1.clean());
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
