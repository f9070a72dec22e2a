//! Landmark distance sketches — approximate all-pairs shortest paths in
//! `O((a + D + log n) log n)` rounds (§5.1 applied `Θ(log n)` times *in
//! parallel*).
//!
//! §5.1 builds one BFS tree in `O((a + D + log n) log n)` rounds and §2
//! observes that `O(log n)` instances of such a primitive can share the
//! network's per-node budget. This algorithm exercises exactly that claim:
//! `L = Θ(log n)` landmarks — agreed from shared randomness, zero
//! communication — run their layer-synchronous BFS *simultaneously*, one
//! frontier-spread Multi-Aggregation per landmark per phase. The per-phase
//! spreads are mutually independent, so they are declared as `L` root
//! nodes of a protocol [`Dag`] and the scheduler packs them into one mux
//! automatically, within the `O(log n)` lane budget; the termination
//! consensus hangs off the combine step as a solo A&B stage that runs in
//! the spreads' barrier slot.
//!
//! Every node ends with its exact distance to every landmark, i.e. an
//! `L`-entry distance sketch. Two sketches give the classic landmark
//! estimate `d̂(u, v) = min_ℓ d(u, ℓ) + d(ℓ, v)` — an upper bound on the
//! true distance that is exact whenever some landmark lies on a shortest
//! `u`–`v` path, and a `2`-approximation of eccentric pairs in practice.
//!
//! The whole algorithm is *declared*: no lane ids, no install/collect
//! plumbing, no manual packing — the scheduler reproduces the paper's
//! parallel-instances argument from the DAG shape alone.

use ncc_butterfly::{ab_sub, lane_seed, multi_aggregate_sub, Dag, MaxU64, MinU64, SchedReport};
use ncc_graph::Graph;
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, ModelError, NodeId};

use crate::bfs::UNREACHABLE;
use crate::broadcast_trees::{neighborhood_group, BroadcastTrees};
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
    assert_eq!(n, g.n());
    let logn = ncc_model::ilog2_ceil(n).max(1) as usize;
    let count = num_landmarks.unwrap_or(logn).clamp(1, n);
    let landmarks = choose_landmarks(shared, n, count);
    let mut report = AlgoReport::default();
    let mut plan = SchedReport::default();

    let mut dist: Vec<Vec<u32>> = vec![vec![UNREACHABLE; n]; count];
    let mut frontiers: Vec<Vec<NodeId>> = Vec::with_capacity(count);
    for (l, &lm) in landmarks.iter().enumerate() {
        dist[l][lm as usize] = 0;
        frontiers.push(vec![lm]);
    }

    let mut phase: u32 = 0;
    while frontiers.iter().any(|f| !f.is_empty()) {
        phase += 1;
        // hoist the per-landmark lane seeds (engine-independent of the DAG)
        let seeds: Vec<u64> = (0..count)
            .map(|l| lane_seed(engine, 0x6170_7301, ((phase as u64) << 16) | l as u64))
            .collect();

        let mut dag = Dag::new();
        let trees = &bt.trees;
        // one frontier spread per landmark still expanding — mutually
        // independent, so the scheduler packs them into one mux
        let mut spreads = Vec::with_capacity(count);
        for l in 0..count {
            if frontiers[l].is_empty() {
                spreads.push(None);
                continue;
            }
            let mut messages: Vec<Option<(ncc_butterfly::GroupId, u64)>> = vec![None; n];
            for &u in &frontiers[l] {
                messages[u as usize] = Some((neighborhood_group(u), u as u64));
            }
            let seed = seeds[l];
            spreads.push(Some(dag.proto(
                format!("p{phase}:spread{l}"),
                &[],
                move |_| {
                    multi_aggregate_sub(n, shared, trees, messages, |_, _, _, v| *v, &MinU64, seed)
                },
                |s| s.into_results(),
            )));
        }
        // combine: each landmark's newly reached nodes form its next
        // frontier; any progress at all keeps the loop alive
        let deps: Vec<ncc_butterfly::Dep> = spreads.iter().flatten().map(|&s| s.into()).collect();
        let known = dist.clone();
        let combine_spreads = spreads.clone();
        let combine = dag.compute(format!("p{phase}:combine"), &deps, move |d| {
            let mut dist = known;
            let mut next: Vec<Vec<NodeId>> = vec![Vec::new(); dist.len()];
            for (l, spread) in combine_spreads.iter().enumerate() {
                let Some(spread) = spread else { continue };
                let mins = d.get(*spread);
                for v in 0..n {
                    if dist[l][v] == UNREACHABLE && mins[v].is_some() {
                        dist[l][v] = phase;
                        next[l].push(v as NodeId);
                    }
                }
            }
            let newly: Vec<Option<u64>> = (0..n)
                .map(|v| next.iter().any(|f| f.contains(&(v as NodeId))).then_some(1))
                .collect();
            (dist, next, newly)
        });
        // termination consensus (self-synchronizing: carries the spreads'
        // barrier)
        let check = dag.proto(
            format!("p{phase}:check"),
            &[combine.into()],
            move |d| {
                let (_, _, newly) = d.get(combine);
                ab_sub(n, newly.clone(), &MaxU64)
            },
            |s| s.into_results(),
        );

        let mut run = report.run_dag(format!("phase{phase}"), dag, engine, &mut plan)?;
        let (new_dist, next, _) = run.take(combine);
        let any_new = run.take(check);

        dist = new_dist;
        frontiers = next;
        if any_new[0].is_none() {
            break;
        }
    }

    Ok(ApspResult {
        landmarks,
        dist,
        phases: phase,
        report,
        plan,
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
