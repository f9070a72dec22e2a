//! Solution checkers for every problem the paper solves.
//!
//! Each checker returns `Ok(())` or a human-readable reason. Experiments
//! certify *every* distributed output with these before reporting round
//! counts — a fast wrong answer reproduces nothing.

use crate::analysis::{self, UNREACHABLE};
use crate::dsu::Dsu;
use crate::graph::{Graph, WeightedGraph};
use crate::{NodeId, Weight};

/// Result type for all checkers.
pub type CheckResult = Result<(), String>;

/// Reference MST weight via Kruskal. Works on disconnected graphs
/// (produces a minimum spanning forest).
pub fn kruskal_mst_weight(g: &WeightedGraph) -> Weight {
    let mut edges: Vec<(Weight, NodeId, NodeId)> =
        g.weighted_edges().map(|(u, v, w)| (w, u, v)).collect();
    edges.sort_unstable();
    let mut dsu = Dsu::new(g.n());
    let mut total = 0;
    for (w, u, v) in edges {
        if dsu.union(u, v) {
            total += w;
        }
    }
    total
}

/// Verifies that `edges` is a minimum spanning forest of `g`:
/// spanning (connects exactly what `g` connects), acyclic, and of minimum
/// total weight (compared against Kruskal).
pub fn check_mst(g: &WeightedGraph, edges: &[(NodeId, NodeId)]) -> CheckResult {
    let comps = analysis::connected_components(g.graph());
    let expected_edges = g.n() - comps.count;
    if edges.len() != expected_edges {
        return Err(format!(
            "spanning forest must have {expected_edges} edges, got {}",
            edges.len()
        ));
    }
    let mut dsu = Dsu::new(g.n());
    let mut total: Weight = 0;
    for &(u, v) in edges {
        let w = g
            .weight_of(u, v)
            .ok_or_else(|| format!("edge ({u},{v}) not in graph"))?;
        if !dsu.union(u, v) {
            return Err(format!("edge ({u},{v}) creates a cycle"));
        }
        total += w;
    }
    let reference = kruskal_mst_weight(g);
    if total != reference {
        return Err(format!(
            "weight {total} differs from MST weight {reference}"
        ));
    }
    Ok(())
}

/// Verifies BFS output: distances and parents (§5.1 semantics — parent is a
/// neighbor at distance one less; unreachable nodes are marked).
pub fn check_bfs(g: &Graph, src: NodeId, dist: &[u32], parent: &[Option<NodeId>]) -> CheckResult {
    if dist.len() != g.n() || parent.len() != g.n() {
        return Err("wrong output length".into());
    }
    let reference = analysis::bfs_distances(g, src);
    for v in 0..g.n() {
        if dist[v] != reference[v] {
            return Err(format!(
                "node {v}: distance {} but true distance {}",
                dist[v], reference[v]
            ));
        }
    }
    for v in 0..g.n() as NodeId {
        match parent[v as usize] {
            None => {
                if v != src && dist[v as usize] != UNREACHABLE {
                    return Err(format!("reachable node {v} has no parent"));
                }
            }
            Some(p) => {
                if v == src {
                    return Err("source has a parent".into());
                }
                if !g.has_edge(v, p) {
                    return Err(format!("parent edge ({v},{p}) not in graph"));
                }
                if dist[p as usize] + 1 != dist[v as usize] {
                    return Err(format!(
                        "parent {p} of {v} is not one hop closer ({} vs {})",
                        dist[p as usize], dist[v as usize]
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Verifies a maximal independent set.
pub fn check_mis(g: &Graph, in_set: &[bool]) -> CheckResult {
    if in_set.len() != g.n() {
        return Err("wrong output length".into());
    }
    for (u, v) in g.edges() {
        if in_set[u as usize] && in_set[v as usize] {
            return Err(format!("adjacent nodes {u},{v} both in set"));
        }
    }
    for v in 0..g.n() as NodeId {
        if !in_set[v as usize] && !g.neighbors(v).iter().any(|&u| in_set[u as usize]) {
            return Err(format!("node {v} could be added (not maximal)"));
        }
    }
    Ok(())
}

/// Verifies a maximal matching, given as a per-node partner assignment.
pub fn check_matching(g: &Graph, mate: &[Option<NodeId>]) -> CheckResult {
    if mate.len() != g.n() {
        return Err("wrong output length".into());
    }
    for v in 0..g.n() as NodeId {
        if let Some(u) = mate[v as usize] {
            if mate[u as usize] != Some(v) {
                return Err(format!("matching not symmetric at ({v},{u})"));
            }
            if u == v {
                return Err(format!("node {v} matched to itself"));
            }
            if !g.has_edge(u, v) {
                return Err(format!("matched pair ({v},{u}) not an edge"));
            }
        }
    }
    for (u, v) in g.edges() {
        if mate[u as usize].is_none() && mate[v as usize].is_none() {
            return Err(format!("edge ({u},{v}) could be added (not maximal)"));
        }
    }
    Ok(())
}

/// Verifies a proper coloring and that it uses at most `palette` colors
/// (colors are `0..palette`).
pub fn check_coloring(g: &Graph, colors: &[u32], palette: u32) -> CheckResult {
    if colors.len() != g.n() {
        return Err("wrong output length".into());
    }
    for (v, &c) in colors.iter().enumerate() {
        if c >= palette {
            return Err(format!("node {v} uses color {c} ≥ palette {palette}"));
        }
    }
    for (u, v) in g.edges() {
        if colors[u as usize] == colors[v as usize] {
            return Err(format!(
                "adjacent nodes {u},{v} share color {}",
                colors[u as usize]
            ));
        }
    }
    Ok(())
}

/// Verifies an orientation: every edge directed exactly once, maximum
/// outdegree at most `bound` (the §4 guarantee is `O(a)`; callers pass the
/// concrete bound they claim).
pub fn check_orientation(g: &Graph, directed: &[(NodeId, NodeId)], bound: usize) -> CheckResult {
    if directed.len() != g.m() {
        return Err(format!(
            "need {} directed edges, got {}",
            g.m(),
            directed.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    let mut outdeg = vec![0usize; g.n()];
    for &(u, v) in directed {
        if !g.has_edge(u, v) {
            return Err(format!("({u},{v}) not an edge"));
        }
        if !seen.insert((u.min(v), u.max(v))) {
            return Err(format!("edge {{{u},{v}}} directed twice"));
        }
        outdeg[u as usize] += 1;
    }
    let max = outdeg.iter().copied().max().unwrap_or(0);
    if max > bound {
        return Err(format!("max outdegree {max} exceeds bound {bound}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Reference MST edge set via Kruskal with (weight, edge) tie-breaking.
    fn kruskal_mst_edges(g: &WeightedGraph) -> Vec<(NodeId, NodeId)> {
        let mut edges: Vec<(Weight, NodeId, NodeId)> =
            g.weighted_edges().map(|(u, v, w)| (w, u, v)).collect();
        edges.sort_unstable();
        let mut dsu = Dsu::new(g.n());
        let mut out = Vec::new();
        for (_, u, v) in edges {
            if dsu.union(u, v) {
                out.push((u, v));
            }
        }
        out
    }

    fn diamond() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn kruskal_on_known_graph() {
        let g =
            WeightedGraph::from_weighted_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 10)]);
        assert_eq!(kruskal_mst_weight(&g), 6);
        let edges = kruskal_mst_edges(&g);
        assert_eq!(edges.len(), 3);
        assert!(check_mst(&g, &edges).is_ok());
    }

    #[test]
    fn mst_checker_rejects_cycle_and_wrong_weight() {
        let g =
            WeightedGraph::from_weighted_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 10)]);
        // cycle
        let bad = vec![(0, 1), (1, 2), (0, 3)];
        assert!(check_mst(&g, &bad).unwrap_err().contains("weight"));
        let cyc = vec![(0, 1), (1, 2), (0, 2)];
        let err = check_mst(
            &WeightedGraph::from_weighted_edges(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]),
            &cyc,
        )
        .unwrap_err();
        assert!(err.contains("cycle"), "{err}");
    }

    #[test]
    fn mst_checker_on_disconnected_graph() {
        let g = WeightedGraph::from_weighted_edges(5, [(0, 1, 1), (2, 3, 5)]);
        assert!(check_mst(&g, &[(0, 1), (2, 3)]).is_ok());
        assert!(check_mst(&g, &[(0, 1)]).is_err());
    }

    #[test]
    fn bfs_checker_accepts_reference() {
        let g = diamond();
        let (dist, parent) = analysis::tests::bfs_tree(&g, 0);
        assert!(check_bfs(&g, 0, &dist, &parent).is_ok());
    }

    #[test]
    fn bfs_checker_rejects_wrong_distance() {
        let g = diamond();
        let (mut dist, parent) = analysis::tests::bfs_tree(&g, 0);
        dist[3] = 1;
        assert!(check_bfs(&g, 0, &dist, &parent).is_err());
    }

    #[test]
    fn bfs_checker_rejects_bad_parent() {
        let g = diamond();
        let (dist, mut parent) = analysis::tests::bfs_tree(&g, 0);
        parent[3] = Some(0); // 0 is not adjacent to 3
        assert!(check_bfs(&g, 0, &dist, &parent).is_err());
    }

    #[test]
    fn mis_checker() {
        let g = diamond();
        assert!(check_mis(&g, &[true, false, false, true]).is_ok());
        // not independent
        assert!(check_mis(&g, &[true, true, false, false]).is_err());
        // not maximal
        assert!(check_mis(&g, &[false, true, false, false]).is_err());
    }

    #[test]
    fn matching_checker() {
        let g = diamond();
        let mut mate = vec![None; 4];
        mate[0] = Some(1);
        mate[1] = Some(0);
        mate[2] = Some(3);
        mate[3] = Some(2);
        assert!(check_matching(&g, &mate).is_ok());
        // asymmetric
        let mut bad = vec![None; 4];
        bad[0] = Some(1);
        assert!(check_matching(&g, &bad).is_err());
        // not maximal: nothing matched
        assert!(check_matching(&g, &[None; 4]).is_err());
        // non-edge
        let mut ne = vec![None; 4];
        ne[0] = Some(3);
        ne[3] = Some(0);
        assert!(check_matching(&g, &ne).is_err());
    }

    #[test]
    fn coloring_checker() {
        let g = diamond();
        assert!(check_coloring(&g, &[0, 1, 1, 0], 2).is_ok());
        assert!(check_coloring(&g, &[0, 0, 1, 1], 2).is_err()); // improper
        assert!(check_coloring(&g, &[0, 1, 2, 0], 2).is_err()); // over palette
    }

    #[test]
    fn orientation_checker() {
        let g = gen::star(5);
        let all_in: Vec<_> = (1..5).map(|v| (v as NodeId, 0)).collect();
        assert!(check_orientation(&g, &all_in, 1).is_ok());
        // all-out violates bound 1
        let all_out: Vec<_> = (1..5).map(|v| (0, v as NodeId)).collect();
        assert!(check_orientation(&g, &all_out, 1).is_err());
        assert!(check_orientation(&g, &all_out, 4).is_ok());
        // duplicate edge
        let dup = vec![(1, 0), (0, 1), (2, 0), (3, 0)];
        assert!(check_orientation(&g, &dup, 4).is_err());
        // missing edge
        assert!(check_orientation(&g, &all_in[1..], 4).is_err());
    }
}
