//! BFS trees (§5.1, Theorem 5.2): `O((a + D + log n) log n)` rounds, and
//! the one frontier search that `bfs` and the landmark sketches of
//! [`crate::apsp`] both run.
//!
//! Layer-synchronous BFS over the broadcast trees: in phase `i` the nodes
//! at distance `i − 1` multicast their identifiers to their neighborhoods
//! (Multi-Aggregation with MIN, Corollary 1); a node receiving its first
//! message fixes `δ(u) = i − 1 + 1` and `π(u)` = the smallest identifier
//! received — the paper's tie-breaking rule. An Aggregate-and-Broadcast per
//! phase decides termination, after at most `D + 1` phases.
//!
//! `search` runs that BFS from a slice of sources at once (§2's parallel
//! instances). Each phase is *declared* as one protocol [`Dag`]: one
//! frontier spread per source still expanding (mutually independent, so
//! the scheduler packs them into one mux), one node-local compute that
//! marks a node new if it heard the frontier of a source that had not
//! reached it, and the termination check. The check is an A&B, so it
//! self-synchronises and runs in the sync slot of the spreads' delivery:
//! the phase pays one barrier (after the spreads' combine) and the check.

use ncc_butterfly::{
    ab_sub, lane_seed, multi_aggregate_sub, Dag, Dep, MaxU64, MinU64, SchedReport,
};
use ncc_graph::Graph;
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, ModelError, NodeId};

use crate::broadcast_trees::{neighborhood_group, BroadcastTrees};
use crate::report::AlgoReport;

/// Distance marker for unreachable nodes (matches `ncc_graph::analysis`).
pub const UNREACHABLE: u32 = u32::MAX;

/// Output of the distributed BFS.
#[derive(Debug, Clone)]
pub struct BfsResult {
    pub dist: Vec<u32>,
    pub parent: Vec<Option<NodeId>>,
    /// Number of frontier phases executed (`≤ D + 1`).
    pub phases: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across all phases.
    pub plan: SchedReport,
}

/// Runs BFS from `src` over prebuilt broadcast trees.
pub fn bfs(
    engine: &mut Engine,
    shared: &SharedRandomness,
    bt: &BroadcastTrees,
    g: &Graph,
    src: NodeId,
) -> Result<BfsResult, ModelError> {
    let mut s = search(engine, shared, bt, g, &[src], 0x6266_7301, |phase, _| phase)?;
    Ok(BfsResult {
        dist: s.dist.remove(0),
        parent: s.parent.remove(0),
        phases: s.phases,
        report: s.report,
        plan: s.plan,
    })
}

/// Output of a [`search`]: per source, in the order given.
pub(crate) struct Search {
    /// `dist[i][v]`: hops from source `i` to `v` ([`UNREACHABLE`] across
    /// components).
    pub dist: Vec<Vec<u32>>,
    /// `parent[i][v]`: the smallest neighbor of `v` one hop closer to
    /// source `i`.
    pub parent: Vec<Vec<Option<NodeId>>>,
    /// Frontier phases executed (`≤` the largest eccentricity `+ 1`).
    pub phases: u32,
    pub report: AlgoReport,
    pub plan: SchedReport,
}

/// The layer-synchronous search from every source in `sources` at once.
/// Source `i`'s spread in `phase` draws on the lane stream
/// `lane_seed(engine, label, stream(phase, i))`: the caller names it.
pub(crate) fn search(
    engine: &mut Engine,
    shared: &SharedRandomness,
    bt: &BroadcastTrees,
    g: &Graph,
    sources: &[NodeId],
    label: u64,
    stream: fn(u64, u64) -> u64,
) -> Result<Search, ModelError> {
    let n = engine.n();
    assert_eq!(n, g.n());
    let mut report = AlgoReport::default();
    let mut plan = SchedReport::default();
    let mut dist = vec![vec![UNREACHABLE; n]; sources.len()];
    let mut parent = vec![vec![None; n]; sources.len()];
    let mut frontiers: Vec<Vec<NodeId>> = sources.iter().map(|&s| vec![s]).collect();
    for (d, &s) in dist.iter_mut().zip(sources) {
        d[s as usize] = 0;
    }

    let mut phase: u32 = 0;
    while frontiers.iter().any(|f| !f.is_empty()) {
        phase += 1;
        let mut dag = Dag::new();
        let trees = &bt.trees;
        // per source still expanding, its frontier multicasts identifiers;
        // MIN keeps the smallest sender per receiving node (§5.1's π
        // tie-break)
        let spreads: Vec<_> = (0..sources.len())
            .filter(|&i| !frontiers[i].is_empty())
            .map(|i| {
                let mut messages = vec![None; n];
                for &u in &frontiers[i] {
                    messages[u as usize] = Some((neighborhood_group(u), u as u64));
                }
                let seed = lane_seed(engine, label, stream(phase as u64, i as u64));
                let spread = dag.combine(format!("p{phase}:spread{i}"), &[], move |_| {
                    multi_aggregate_sub(n, shared, trees, messages, |_, _, _, v| *v, &MinU64, seed)
                });
                (i, spread)
            })
            .collect();
        // a node is new iff it heard the frontier of a source that had not
        // reached it
        let deps: Vec<Dep> = spreads.iter().map(|&(_, s)| s.into()).collect();
        let (heard, known) = (spreads.clone(), &dist);
        let newly = dag.compute(format!("p{phase}:next"), &deps, move |d| {
            let mut newly = vec![None; n];
            for &(i, s) in &heard {
                for (v, min) in d.get(s).iter().enumerate() {
                    if min.is_some() && known[i][v] == UNREACHABLE {
                        newly[v] = Some(1u64);
                    }
                }
            }
            newly
        });
        // termination consensus (carries the spreads' barrier)
        let check = dag.proto(format!("p{phase}:check"), &[newly.into()], move |d| {
            ab_sub(n, d.get(newly).clone(), &MaxU64)
        });

        let mut run = report.run_dag(format!("phase{phase}"), dag, engine, &mut plan)?;
        for (i, s) in spreads {
            frontiers[i].clear();
            for (v, min) in run.take(s).into_iter().enumerate() {
                if let (Some(m), UNREACHABLE) = (min, dist[i][v]) {
                    dist[i][v] = phase;
                    parent[i][v] = Some(m as NodeId);
                    frontiers[i].push(v as NodeId);
                }
            }
        }
        if run.take(check)[0].is_none() {
            break;
        }
    }

    Ok(Search {
        dist,
        parent,
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
    use ncc_graph::{check, gen};
    use ncc_model::NetConfig;

    fn run(g: &Graph, src: NodeId, seed: u64) -> BfsResult {
        let mut eng = Engine::new(NetConfig::new(g.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0xBF5);
        let (bt, _) = build_broadcast_trees(&mut eng, &shared, g).unwrap();
        bfs(&mut eng, &shared, &bt, g, src).unwrap()
    }

    fn assert_valid(g: &Graph, src: NodeId, r: &BfsResult) {
        check::check_bfs(g, src, &r.dist, &r.parent).unwrap_or_else(|e| panic!("invalid BFS: {e}"));
    }

    #[test]
    fn path_graph_distances() {
        let g = gen::path(24);
        let r = run(&g, 0, 1);
        assert_valid(&g, 0, &r);
        assert_eq!(r.dist[23], 23);
        assert_eq!(r.phases as usize, 24); // D + 1
    }

    #[test]
    fn star_from_center_and_leaf() {
        let g = gen::star(48);
        let r = run(&g, 0, 2);
        assert_valid(&g, 0, &r);
        assert!(r.dist[1..].iter().all(|&d| d == 1));
        let r = run(&g, 5, 3);
        assert_valid(&g, 5, &r);
        assert_eq!(r.dist[0], 1);
        assert_eq!(r.dist[7], 2);
        assert_eq!(r.parent[7], Some(0));
    }

    #[test]
    fn grid_distances_and_parents() {
        let g = gen::grid(6, 6);
        let r = run(&g, 0, 4);
        assert_valid(&g, 0, &r);
        assert_eq!(r.dist[35], 10);
    }

    #[test]
    fn disconnected_marks_unreachable() {
        let g = Graph::from_edges(12, [(0, 1), (1, 2), (4, 5)]);
        let r = run(&g, 0, 5);
        assert_valid(&g, 0, &r);
        assert_eq!(r.dist[2], 2);
        assert_eq!(r.dist[4], UNREACHABLE);
        assert_eq!(r.dist[11], UNREACHABLE);
    }

    #[test]
    fn random_graph_matches_reference() {
        let g = gen::gnp(40, 0.12, 7);
        let r = run(&g, 3, 6);
        assert_valid(&g, 3, &r);
    }

    #[test]
    fn tree_parents_are_tree_edges() {
        let g = gen::random_tree(32, 8);
        let r = run(&g, 0, 7);
        assert_valid(&g, 0, &r);
        // in a tree, the parent is the unique neighbor toward the root
        for v in 1..32u32 {
            let p = r.parent[v as usize].unwrap();
            assert!(g.has_edge(v, p));
        }
    }

    #[test]
    fn plan_packs_check_without_barrier() {
        // every phase: spread pipeline (2 stages) then the A&B check, which
        // runs in the second spread stage's barrier slot — one charged
        // barrier per phase
        let g = gen::grid(4, 4);
        let r = run(&g, 0, 9);
        assert_eq!(r.plan.stages.len() as u32, 3 * r.phases);
        assert_eq!(r.plan.barriers() as u32, r.phases);
        assert_eq!(r.plan.carried() as u32, r.phases);
        for ph in r.plan.stages.chunks(3) {
            assert!(ph[0].sync == Owed::Barrier && ph[1].sync != Owed::Barrier);
            assert!(ph[2].carried, "A&B check must carry the spread's barrier");
            assert_ne!(
                ph[2].sync,
                Owed::Barrier,
                "A&B check must not pay a barrier"
            );
            assert_eq!(ph[2].lanes.len(), 1);
        }
    }
}
