//! The shared preamble (§2.2, §4, Lemma 5.1) as one value.
//!
//! Every §5 algorithm starts the same way: the nodes agree on shared
//! randomness by a seed broadcast from node 0 (§2.2), orient the graph with
//! outdegree `O(a)` (§4) and build the broadcast trees of Lemma 5.1 on that
//! orientation. MST (§3) and the orientation itself start from the seed
//! agreement alone. [`prepare`] runs either preamble on the engine, charging
//! every round, and returns what it built together with its cost.

use ncc_butterfly::broadcast_seed;
use ncc_butterfly::seed::{word_count, SeedChunk};
use ncc_graph::Graph;
use ncc_hashing::SharedRandomness;
use ncc_model::{ilog2_ceil, Engine, ModelError, Payload};

use crate::broadcast_trees::{build_broadcast_trees, BroadcastTrees};
use crate::report::AlgoReport;

/// What the preamble built, and what it cost. [`Prepared::default`] is the
/// preparation of an algorithm that needs none: no randomness, no trees,
/// no stages.
#[derive(Debug, Default)]
pub struct Prepared {
    shared: Option<SharedRandomness>,
    trees: Option<BroadcastTrees>,
    /// One stage per preamble step: `seed-agreement`, then
    /// `orientation+trees` when the trees were built.
    pub report: AlgoReport,
}

impl Prepared {
    /// The agreed shared randomness.
    ///
    /// # Panics
    /// If [`prepare`] did not run.
    pub fn shared(&self) -> &SharedRandomness {
        self.shared
            .as_ref()
            .expect("prepared without seed agreement")
    }

    /// The broadcast trees.
    ///
    /// # Panics
    /// If [`prepare`] was not asked to build them.
    pub fn trees(&self) -> &BroadcastTrees {
        self.trees
            .as_ref()
            .expect("prepared without broadcast trees")
    }
}

/// Agrees on shared randomness derived from `seed`, then, when `trees_over`
/// is given, orients that graph and builds its broadcast trees.
///
/// The seed broadcast carries enough bits for the largest hash-function
/// budget of any consumer: MST's `O(log n)` functions of `Θ(log n)`
/// coefficients (§3).
pub fn prepare(
    engine: &mut Engine,
    seed: u64,
    trees_over: Option<&Graph>,
) -> Result<Prepared, ModelError> {
    let (shared, stats) = broadcast_seed(engine, seed ^ 0x5eed, seed_bits(engine.n()))?;
    let mut report = AlgoReport::default();
    report.push("seed-agreement", stats);
    let trees = match trees_over {
        Some(g) => {
            let (bt, rep) = build_broadcast_trees(engine, &shared, g)?;
            report.push("orientation+trees", rep.total);
            Some(bt)
        }
        None => None,
    };
    Ok(Prepared {
        shared: Some(shared),
        trees,
        report,
    })
}

/// The bits of shared randomness [`prepare`] agrees on over `n` nodes:
/// MST's `O(log n)` functions of `Θ(log n)` coefficients (§3).
fn seed_bits(n: usize) -> usize {
    let k = SharedRandomness::k_for(n);
    SharedRandomness::bits_required(n, 2 * ilog2_ceil(n).max(1) as usize, k)
}

/// The fewest payload bits the seed agreement needs on `n` nodes: its
/// widest one-word packet, the last [`SeedChunk`], sized by the wire
/// type's own `bit_size`. Every algorithm that [`prepare`]s refuses a
/// payload below.
pub fn min_payload_bits(n: usize) -> u32 {
    let index = word_count(seed_bits(n)) - 1;
    let words = std::sync::Arc::new(vec![0]);
    SeedChunk { index, words }.bit_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_graph::gen;
    use ncc_model::NetConfig;

    #[test]
    fn prepare_pipeline_runs() {
        let g = gen::forest_union(32, 2, 1);
        let mut eng = Engine::new(NetConfig::new(32, 2));
        let prep = prepare(&mut eng, 3, Some(&g)).unwrap();
        assert!(prep.report.total.rounds > 0);
        assert!(prep.trees().a_hat >= 1);
        assert!(prep.report.total.clean());
        let labels: Vec<&str> = prep.report.stages.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["seed-agreement", "orientation+trees"]);
        // the seed alone is one stage and leaves no trees behind
        let mut eng = Engine::new(NetConfig::new(32, 2));
        let seed_only = prepare(&mut eng, 3, None).unwrap();
        assert_eq!(seed_only.report.stages.len(), 1);
        assert!(seed_only.trees.is_none());
        assert_eq!(seed_only.shared(), prep.shared());
    }

    #[test]
    fn threaded_engine_matches_sequential() {
        let g = gen::forest_union(32, 2, 1);
        let run = |threads| {
            let mut eng = Engine::new(NetConfig::new(32, 2).with_threads(threads));
            prepare(&mut eng, 3, Some(&g)).unwrap().report.total
        };
        assert_eq!(run(1), run(4));
    }
}
