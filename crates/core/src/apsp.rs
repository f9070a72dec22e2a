//! Landmark distance sketches — approximate all-pairs shortest paths in
//! `O((a + D + log n) log n)` rounds (§5.1 applied `Θ(log n)` times *in
//! parallel*).
//!
//! §5.1 builds one BFS tree in `O((a + D + log n) log n)` rounds and §2
//! observes that `O(log n)` instances of such a primitive can share the
//! network's per-node budget. This algorithm exercises exactly that claim:
//! `L = Θ(log n)` landmarks — agreed from shared randomness, zero
//! communication — run the frontier search of [`bfs`](mod@crate::bfs)
//! from all of them at once, one frontier-spread Multi-Aggregation per
//! landmark per phase, which the scheduler packs into one mux within the
//! `O(log n)` lane budget.
//!
//! Every node ends with its exact distance to every landmark, i.e. an
//! `L`-entry distance sketch. Two sketches give the classic landmark
//! estimate `d̂(u, v) = min_ℓ d(u, ℓ) + d(ℓ, v)` — an upper bound on the
//! true distance that is exact whenever some landmark lies on a shortest
//! `u`–`v` path, and a `2`-approximation of eccentric pairs in practice.

use ncc_butterfly::SchedReport;
use ncc_graph::Graph;
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, ModelError, NodeId};

use crate::bfs::{search, UNREACHABLE};
use crate::broadcast_trees::BroadcastTrees;
use crate::report::AlgoReport;

/// Shared-randomness label for the landmark choice.
const LANDMARK_LABEL: u64 = 0x6170_7370; // "apsp"

/// Output of the landmark-sketch computation.
#[derive(Debug, Clone)]
pub struct ApspResult {
    /// The agreed landmarks (distinct node ids, common knowledge).
    pub landmarks: Vec<NodeId>,
    /// `dist[l][u]` = exact hop distance from `landmarks[l]` to `u`
    /// ([`UNREACHABLE`] across components).
    pub dist: Vec<Vec<u32>>,
    /// Number of frontier phases executed (`≤ max eccentricity + 1`).
    pub phases: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across all phases.
    pub plan: SchedReport,
}

impl ApspResult {
    /// The landmark upper bound `min_ℓ d(u, ℓ) + d(ℓ, v)` on the true
    /// distance ([`UNREACHABLE`] if no landmark reaches both endpoints).
    pub fn estimate(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        let mut best = UNREACHABLE;
        for d in &self.dist {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                best = best.min(du + dv);
            }
        }
        best
    }
}

/// Picks `count` distinct landmarks from shared randomness — common
/// knowledge, so the agreement costs zero communication.
fn choose_landmarks(shared: &SharedRandomness, n: usize, count: usize) -> Vec<NodeId> {
    let h = shared.poly(LANDMARK_LABEL, 0, SharedRandomness::k_for(n));
    let mut picked = Vec::with_capacity(count);
    let mut j = 0u64;
    while picked.len() < count {
        let cand = h.to_range(j, n as u64) as NodeId;
        if !picked.contains(&cand) {
            picked.push(cand);
        }
        j += 1;
    }
    picked
}

/// Computes distance sketches toward `Θ(log n)` shared-randomness landmarks
/// (or `num_landmarks`, if given) over prebuilt broadcast trees.
pub fn landmark_apsp(
    engine: &mut Engine,
    shared: &SharedRandomness,
    bt: &BroadcastTrees,
    g: &Graph,
    num_landmarks: Option<usize>,
) -> Result<ApspResult, ModelError> {
    let n = engine.n();
    let logn = ncc_model::ilog2_ceil(n).max(1) as usize;
    let landmarks = choose_landmarks(shared, n, num_landmarks.unwrap_or(logn).clamp(1, n));
    let s = search(
        engine,
        shared,
        bt,
        g,
        &landmarks,
        0x6170_7301,
        |phase, l| phase << 16 | l,
    )?;
    Ok(ApspResult {
        landmarks,
        dist: s.dist,
        phases: s.phases,
        report: s.report,
        plan: s.plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast_trees::build_broadcast_trees;
    use ncc_butterfly::Owed;
    use ncc_graph::{analysis, gen};
    use ncc_model::NetConfig;

    fn run(g: &Graph, seed: u64, count: Option<usize>) -> ApspResult {
        let mut eng = Engine::new(NetConfig::new(g.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0xA5);
        let (bt, _) = build_broadcast_trees(&mut eng, &shared, g).unwrap();
        landmark_apsp(&mut eng, &shared, &bt, g, count).unwrap()
    }

    fn assert_sketches_exact(g: &Graph, r: &ApspResult) {
        for (l, &lm) in r.landmarks.iter().enumerate() {
            let reference = analysis::bfs_distances(g, lm);
            assert_eq!(r.dist[l], reference, "landmark {lm} sketch mismatch");
        }
    }

    #[test]
    fn sketches_match_reference_bfs() {
        for (i, g) in [
            gen::grid(6, 6),
            gen::gnp(48, 0.1, 5),
            gen::random_tree(40, 3),
        ]
        .iter()
        .enumerate()
        {
            let r = run(g, 10 + i as u64, None);
            assert_sketches_exact(g, &r);
        }
    }

    #[test]
    fn landmarks_distinct_and_agreed() {
        let g = gen::gnp(32, 0.15, 2);
        let r = run(&g, 3, None);
        let mut seen = r.landmarks.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), r.landmarks.len(), "landmarks must be distinct");
        assert_eq!(r.landmarks.len(), 5); // ⌈log₂ 32⌉
    }

    #[test]
    fn estimate_upper_bounds_true_distance() {
        let g = gen::gnp(40, 0.12, 9);
        let r = run(&g, 4, None);
        for u in 0..g.n() as NodeId {
            let reference = analysis::bfs_distances(&g, u);
            for v in 0..g.n() as NodeId {
                let est = r.estimate(u, v);
                let truth = reference[v as usize];
                if truth == UNREACHABLE {
                    assert_eq!(est, UNREACHABLE);
                } else {
                    assert!(est >= truth, "estimate below true distance");
                    assert!(est != UNREACHABLE, "landmark reaches both in one component");
                }
            }
        }
    }

    #[test]
    fn estimate_exact_through_landmark() {
        // on a path every node lies on the unique shortest path, so any
        // estimate through an interior landmark is exact for its endpoints
        let g = gen::path(16);
        let r = run(&g, 6, Some(1));
        let lm = r.landmarks[0];
        let a = 0u32;
        let b = 15u32;
        let expected = lm.abs_diff(a) + lm.abs_diff(b);
        assert_eq!(r.estimate(a, b), expected);
    }

    #[test]
    fn disconnected_components_unreachable() {
        let g = Graph::from_edges(12, [(0, 1), (1, 2), (4, 5), (6, 7)]);
        let r = run(&g, 7, None);
        assert_sketches_exact(&g, &r);
    }

    #[test]
    fn deterministic_given_seeds() {
        let g = gen::gnp(36, 0.14, 8);
        let a = run(&g, 42, None);
        let b = run(&g, 42, None);
        assert_eq!(a.dist, b.dist);
        assert_eq!(a.report.total, b.report.total);
    }

    #[test]
    fn plan_packs_spreads_into_shared_stages() {
        // phase 1: all L spreads are an antichain within the lane budget →
        // exactly 3 stages (spread ×2, then the check in their barrier slot)
        let g = gen::gnp(64, 0.2, 3);
        let r = run(&g, 11, None);
        let l = r.landmarks.len();
        let first = &r.plan.stages[0];
        assert_eq!(first.lanes.len(), l, "all spreads must share one mux");
        assert_eq!(first.sync, Owed::Barrier);
        assert!(r.plan.max_lanes() <= r.plan.budget);
        // one charged barrier per phase: the check stages carry the
        // second spread stage's barrier and pay none
        let phases = r.plan.stages.len() / 3;
        assert_eq!(r.plan.stages.len(), 3 * phases);
        assert_eq!(r.plan.barriers(), phases);
        assert_eq!(r.plan.carried(), phases);
        for ph in r.plan.stages.chunks(3) {
            assert!(ph[0].sync == Owed::Barrier && ph[1].sync != Owed::Barrier);
            assert!(ph[2].carried, "A&B check must carry the spread's barrier");
            assert_ne!(
                ph[2].sync,
                Owed::Barrier,
                "A&B check must not pay a barrier"
            );
        }
    }
}
