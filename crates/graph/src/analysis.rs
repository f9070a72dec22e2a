//! Structural analyses: components, BFS, diameter, degeneracy, arboricity.
//!
//! These are *centralised reference computations* used to characterise
//! workloads (which `a`, which `D` a generated graph actually has) and to
//! verify distributed outputs — they are never run inside the simulated
//! network.

use crate::dsu::Dsu;
use crate::graph::Graph;
use crate::NodeId;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Component labelling.
pub struct Components {
    /// `label[v]` = smallest node id in v's component.
    pub label: Vec<NodeId>,
    /// Number of connected components.
    pub count: usize,
}

/// Labels connected components.
pub fn connected_components(g: &Graph) -> Components {
    let mut dsu = Dsu::new(g.n());
    for (u, v) in g.edges() {
        dsu.union(u, v);
    }
    let mut label = vec![0 as NodeId; g.n()];
    let mut mins: Vec<NodeId> = (0..g.n() as NodeId).collect();
    for v in 0..g.n() as NodeId {
        let r = dsu.find(v) as usize;
        mins[r] = mins[r].min(v);
    }
    for v in 0..g.n() as NodeId {
        label[v as usize] = mins[dsu.find(v) as usize];
    }
    Components {
        label,
        count: dsu.component_count(),
    }
}

/// BFS distances from `src`, `UNREACHABLE` where disconnected.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = std::collections::VecDeque::new();
    dist[src as usize] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Exact diameter of the (connected part of the) graph by running BFS from
/// every node. Quadratic — fine at simulator scales.
pub fn diameter(g: &Graph) -> u32 {
    let mut best = 0;
    for src in 0..g.n() as NodeId {
        let d = bfs_distances(g, src);
        for &x in &d {
            if x != UNREACHABLE {
                best = best.max(x);
            }
        }
    }
    best
}

/// Degeneracy and a degeneracy ordering (iterated minimum-degree peeling,
/// linear time via bucket queues).
///
/// Degeneracy `d` sandwiches arboricity: `a ≤ d ≤ 2a − 1`.
pub fn degeneracy(g: &Graph) -> (usize, Vec<NodeId>) {
    let n = g.n();
    if n == 0 {
        return (0, Vec::new());
    }
    let mut degree: Vec<usize> = (0..n as NodeId).map(|v| g.degree(v)).collect();
    let maxd = degree.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); maxd + 1];
    for v in 0..n as NodeId {
        buckets[degree[v as usize]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        // find the lowest non-empty bucket with a live node
        let mut d = cursor.min(maxd);
        loop {
            while d <= maxd && buckets[d].is_empty() {
                d += 1;
            }
            if d > maxd {
                unreachable!("ran out of nodes");
            }
            let v = *buckets[d].last().unwrap();
            if removed[v as usize] || degree[v as usize] != d {
                buckets[d].pop();
                continue;
            }
            break;
        }
        let v = buckets[d].pop().unwrap();
        removed[v as usize] = true;
        degeneracy = degeneracy.max(d);
        order.push(v);
        for &w in g.neighbors(v) {
            if !removed[w as usize] {
                let dw = degree[w as usize];
                degree[w as usize] = dw - 1;
                buckets[dw - 1].push(w);
            }
        }
        cursor = d.saturating_sub(1);
    }
    (degeneracy, order)
}

/// Lower and upper bounds on the arboricity.
///
/// * lower: Nash-Williams density of the whole graph, `⌈m / (n − 1)⌉`
///   (the maximising subgraph only helps, so this is always a valid lower
///   bound), and at least 1 if any edge exists;
/// * upper: the degeneracy (any graph with degeneracy d has arboricity ≤ d,
///   by orienting edges along the peeling order).
pub fn arboricity_bounds(g: &Graph) -> (usize, usize) {
    if g.m() == 0 {
        return (0, 0);
    }
    let comps = connected_components(g);
    // Nash-Williams over each connected component (denser component gives a
    // better bound than the whole graph when disconnected).
    let mut nodes = vec![0usize; g.n()];
    let mut edges = vec![0usize; g.n()];
    for v in 0..g.n() as NodeId {
        nodes[comps.label[v as usize] as usize] += 1;
    }
    for (u, _) in g.edges() {
        edges[comps.label[u as usize] as usize] += 1;
    }
    let mut lo = 1;
    for v in 0..g.n() {
        if nodes[v] >= 2 {
            lo = lo.max(edges[v].div_ceil(nodes[v] - 1));
        }
    }
    let (hi, _) = degeneracy(g);
    (lo, hi.max(1))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gen;

    /// BFS tree: `(distance, parent)` where the parent is the smallest-id
    /// neighbor on a shortest path (the paper's tie-breaking rule, §5.1).
    pub(crate) fn bfs_tree(g: &Graph, src: NodeId) -> (Vec<u32>, Vec<Option<NodeId>>) {
        let dist = bfs_distances(g, src);
        let mut parent = vec![None; g.n()];
        for v in 0..g.n() as NodeId {
            if v == src || dist[v as usize] == UNREACHABLE {
                continue;
            }
            parent[v as usize] = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| dist[u as usize] + 1 == dist[v as usize])
                .min();
        }
        (dist, parent)
    }

    /// A greedy `d`-orientation from the degeneracy ordering: every edge points
    /// from the endpoint peeled earlier to the one peeled later, giving
    /// outdegree ≤ degeneracy. Used as the *reference* orientation quality
    /// against which the distributed Orientation Algorithm (§4) is compared.
    fn degeneracy_orientation(g: &Graph) -> Vec<(NodeId, NodeId)> {
        let (_, order) = degeneracy(g);
        let mut pos = vec![0u32; g.n()];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i as u32;
        }
        g.edges()
            .map(|(u, v)| {
                if pos[u as usize] < pos[v as usize] {
                    (u, v)
                } else {
                    (v, u)
                }
            })
            .collect()
    }

    #[test]
    fn components_of_disjoint_paths() {
        let mut edges = Vec::new();
        edges.extend([(0, 1), (1, 2)]); // component {0,1,2}
        edges.extend([(3, 4)]); // component {3,4}
        let g = Graph::from_edges(6, edges); // node 5 isolated
        let c = connected_components(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.label[0], 0);
        assert_eq!(c.label[2], 0);
        assert_eq!(c.label[4], 3);
        assert_eq!(c.label[5], 5);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = gen::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn bfs_tree_parents_minimal() {
        // diamond: 0-1, 0-2, 1-3, 2-3 — node 3 has two shortest-path
        // parents; rule picks the smaller id (1).
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (dist, parent) = bfs_tree(&g, 0);
        assert_eq!(dist, vec![0, 1, 1, 2]);
        assert_eq!(parent[3], Some(1));
        assert_eq!(parent[0], None);
    }

    #[test]
    fn diameter_of_shapes() {
        assert_eq!(diameter(&gen::path(10)), 9);
        assert_eq!(diameter(&gen::star(10)), 2);
        assert_eq!(diameter(&gen::cycle(10)), 5);
        assert_eq!(diameter(&gen::grid(4, 6)), 8);
        assert_eq!(diameter(&gen::complete(5)), 1);
    }

    #[test]
    fn degeneracy_of_known_graphs() {
        assert_eq!(degeneracy(&gen::path(10)).0, 1);
        assert_eq!(degeneracy(&gen::star(10)).0, 1);
        assert_eq!(degeneracy(&gen::cycle(10)).0, 2);
        assert_eq!(degeneracy(&gen::complete(6)).0, 5);
        assert_eq!(degeneracy(&gen::grid(5, 5)).0, 2);
    }

    #[test]
    fn degeneracy_order_is_permutation() {
        let g = gen::gnp(80, 0.1, 3);
        let (_, order) = degeneracy(&g);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..80).collect::<Vec<_>>());
    }

    #[test]
    fn arboricity_bounds_sane() {
        // tree: exactly 1
        let (lo, hi) = arboricity_bounds(&gen::random_tree(50, 1));
        assert_eq!((lo, hi), (1, 1));
        // complete graph K6: arboricity 3 (= ceil(15/5)); degeneracy 5
        let (lo, hi) = arboricity_bounds(&gen::complete(6));
        assert_eq!(lo, 3);
        assert_eq!(hi, 5);
        // empty
        assert_eq!(arboricity_bounds(&Graph::empty(5)), (0, 0));
        // lower ≤ upper always
        for seed in 0..5 {
            let g = gen::gnp(60, 0.15, seed);
            let (lo, hi) = arboricity_bounds(&g);
            assert!(lo <= hi, "lo {lo} hi {hi}");
        }
    }

    #[test]
    fn degeneracy_orientation_outdegree_bounded() {
        let g = gen::gnp(100, 0.08, 9);
        let (d, _) = degeneracy(&g);
        let orient = degeneracy_orientation(&g);
        let mut outdeg = vec![0usize; g.n()];
        for &(u, _) in &orient {
            outdeg[u as usize] += 1;
        }
        assert!(
            outdeg.iter().all(|&x| x <= d),
            "outdegree exceeded degeneracy {d}"
        );
        assert_eq!(orient.len(), g.m());
    }

    #[test]
    fn star_orientation_outdegree_one() {
        // a star has degeneracy 1, so the orientation has outdegree ≤ 1
        // everywhere (the center keeps at most the edge to the node peeled
        // after it)
        let g = gen::star(8);
        let orient = degeneracy_orientation(&g);
        let mut outdeg = vec![0usize; 8];
        for &(u, _) in &orient {
            outdeg[u as usize] += 1;
        }
        assert!(outdeg.iter().all(|&x| x <= 1), "outdegrees {outdeg:?}");
        assert_eq!(orient.len(), 7);
    }
}
