//! Broadcast trees (§5 preamble, Lemma 5.1).
//!
//! For every node `u` a multicast tree for the group `A_{id(u)} = N(u)`,
//! enabling neighborhood multicasts. The naive setup (every node joins every
//! neighbor's group) costs `Θ(Δ)` injections at high-degree nodes — a star
//! center would need `Θ(n/log n)` rounds. Instead the graph is first
//! oriented with outdegree `O(a)` (§4); then each node registers itself in
//! its out-neighbors' groups *and registers each out-neighbor in its own
//! group* — `O(a)` injections per node, so the setup and the resulting tree
//! congestion are `O(a + log n)` (Lemma 5.1).
//!
//! Corollary 1 (the §5 workhorse) follows by running Multi-Aggregation over
//! these trees: any source set `S` reaches all neighborhoods in
//! `O(Σ_{u∈S} d(u)/n + log n)` rounds.

use ncc_butterfly::{lane_seed, multicast_setup_sub, run_alone, GroupId, MulticastTrees};
use ncc_graph::Graph;
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, ModelError, NodeId};

use crate::orientation::{orient, OrientationResult};
use crate::report::AlgoReport;

/// Sub-identifier of the neighborhood groups `A_{id(u)} = N(u)`.
pub const NEIGHBORHOOD_SUB: u32 = 0;

/// The neighborhood multicast group of node `u`.
#[inline]
pub fn neighborhood_group(u: NodeId) -> GroupId {
    GroupId::new(u, NEIGHBORHOOD_SUB)
}

/// Broadcast trees plus the orientation they were built from.
#[derive(Debug, Clone)]
pub struct BroadcastTrees {
    pub trees: MulticastTrees,
    pub orientation: OrientationResult,
    /// Common-knowledge `O(a)` bound (`d*` from the orientation).
    pub a_hat: usize,
    /// Maximum degree Δ, agreed via Aggregate-and-Broadcast at build time.
    /// A node is a member of one neighborhood group per neighbor, so Δ is
    /// the honest `ℓ̂` bound for multicasts over these trees.
    pub max_degree: usize,
}

impl BroadcastTrees {
    /// The `ℓ̂` bound (memberships per node) for neighborhood multicasts.
    pub fn ell_hat(&self) -> usize {
        self.max_degree.max(1)
    }
}

/// Builds the broadcast trees: orientation (§4) + registration-based
/// multicast tree setup (Lemma 5.1). Also agrees on the maximum degree
/// (used as the `ℓ̂` bound by multicasts over these trees).
pub fn build_broadcast_trees(
    engine: &mut Engine,
    shared: &SharedRandomness,
    g: &Graph,
) -> Result<(BroadcastTrees, AlgoReport), ModelError> {
    let mut report = AlgoReport::default();

    let orientation = orient(engine, shared, g)?;
    report.push("orientation", orientation.report.total);

    // registrations: u joins A_{id(v)} for each out-neighbor v, and
    // registers v into A_{id(u)} — 2·outdeg(u) = O(a) injections per node.
    let joins: Vec<Vec<(GroupId, NodeId)>> = orientation
        .out_neighbors
        .iter()
        .enumerate()
        .map(|(u, outs)| {
            let mut regs = Vec::with_capacity(2 * outs.len());
            for &v in outs {
                regs.push((neighborhood_group(v), u as NodeId));
                regs.push((neighborhood_group(u as NodeId), v));
            }
            regs
        })
        .collect();
    let setup = multicast_setup_sub(g.n(), shared, joins, lane_seed(engine, 0x6274_7265, 0));
    let (trees, s) = run_alone(engine, setup)?;
    report.push("tree-setup", s);

    // Δ (the ℓ̂ bound for neighborhood multicasts) was already agreed
    // in-model during the orientation's first composed stage.
    let max_degree = orientation.max_degree;
    let a_hat = orientation.d_star;
    Ok((
        BroadcastTrees {
            trees,
            orientation,
            a_hat,
            max_degree,
        },
        report,
    ))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index several parallel per-node arrays
mod tests {
    use super::*;
    use ncc_graph::gen;
    use ncc_model::NetConfig;

    fn build(g: &Graph, seed: u64) -> (Engine, SharedRandomness, BroadcastTrees, AlgoReport) {
        let mut eng = Engine::new(NetConfig::new(g.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0x5555);
        let (bt, rep) = build_broadcast_trees(&mut eng, &shared, g).unwrap();
        (eng, shared, bt, rep)
    }

    #[test]
    fn star_trees_cover_all_neighbors() {
        // the star is the motivating adversary: naive setup would be Θ(n/log n)
        let g = gen::star(64);
        let (mut eng, shared, bt, _) = build(&g, 3);
        // multicast from the center must reach every leaf
        let mut messages = vec![None; 64];
        messages[0] = Some((neighborhood_group(0), 7u64));
        let (got, stats) =
            ncc_butterfly::multicast(&mut eng, &shared, &bt.trees, messages, bt.ell_hat()).unwrap();
        for v in 1..64 {
            assert_eq!(got[v], vec![(neighborhood_group(0), 7)], "leaf {v}");
        }
        assert!(got[0].is_empty());
        assert!(stats.clean());
    }

    #[test]
    fn leaf_multicast_reaches_center() {
        let g = gen::star(32);
        let (mut eng, shared, bt, _) = build(&g, 5);
        let mut messages = vec![None; 32];
        messages[9] = Some((neighborhood_group(9), 99u64));
        let (got, _) =
            ncc_butterfly::multicast(&mut eng, &shared, &bt.trees, messages, bt.ell_hat()).unwrap();
        assert_eq!(got[0], vec![(neighborhood_group(9), 99)]);
        for v in 1..32 {
            assert!(got[v].is_empty(), "leaf {v}");
        }
    }

    #[test]
    fn congestion_bounded_by_a_plus_log() {
        let g = gen::forest_union(128, 3, 9);
        let (_, _, bt, _) = build(&g, 7);
        let c = bt.trees.congestion();
        // Lemma 5.1: O(a + log n); generous constant
        assert!(c <= 8 * (3 + 7), "congestion {c}");
    }

    #[test]
    fn every_neighborhood_covered_on_random_graph() {
        let g = gen::gnp(48, 0.1, 11);
        let (mut eng, shared, bt, _) = build(&g, 11);
        // every node multicasts; every node must receive from each neighbor
        let messages: Vec<Option<(GroupId, u64)>> = (0..48)
            .map(|u| Some((neighborhood_group(u as NodeId), 1000 + u as u64)))
            .collect();
        let (got, _) =
            ncc_butterfly::multicast(&mut eng, &shared, &bt.trees, messages, bt.ell_hat()).unwrap();
        for u in 0..48u32 {
            let mut senders: Vec<u32> = got[u as usize].iter().map(|(g, _)| g.target()).collect();
            senders.sort_unstable();
            let mut expect: Vec<u32> = g.neighbors(u).to_vec();
            expect.sort_unstable();
            assert_eq!(senders, expect, "node {u}");
        }
    }
}
