//! CSR graph storage.
//!
//! Simple undirected graphs (no self-loops, no parallel edges) in compressed
//! sparse row form: neighbor lists are contiguous and sorted, so
//! `neighbors(u)` is a slice and adjacency tests are binary searches.

use serde::{Deserialize, Serialize};

use crate::{NodeId, Weight};

/// An undirected simple graph on nodes `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    n: usize,
    offsets: Vec<u32>,
    adj: Vec<NodeId>,
}

/// Incrementally collects edges, then freezes into a [`Graph`].
/// Duplicate edges and self-loops are discarded.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge endpoint out of range"
        );
        if u != v {
            self.edges.push((u.min(v), u.max(v)));
        }
        self
    }

    pub fn extend_edges<I: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, it: I) -> &mut Self {
        for (u, v) in it {
            self.add_edge(u, v);
        }
        self
    }

    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        Graph::from_canonical(self.n, &self.edges)
    }
}

impl Graph {
    /// Freezes a *canonical* edge list — sorted ascending, deduplicated,
    /// every pair `(u, v)` with `u < v < n` — into CSR form.
    ///
    /// One cursor-scatter pass over the sorted list fills every neighbour
    /// slice already sorted: a node w's list receives first the endpoints
    /// u < w of edges (u, w) — in ascending u, because the list is sorted
    /// by first endpoint — and then the endpoints v > w of edges (w, v),
    /// in ascending v; every value of the first kind is < w < every value
    /// of the second kind, so the whole slice is ascending.
    pub(crate) fn from_canonical(n: usize, edges: &[(NodeId, NodeId)]) -> Graph {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "not canonical");
        debug_assert!(edges.iter().all(|&(u, v)| u < v && (v as usize) < n));
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut adj = vec![0 as NodeId; 2 * edges.len()];
        for &(u, v) in edges {
            adj[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adj[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        debug_assert!(
            (0..n).all(|u| { adj[offsets[u] as usize..offsets[u + 1] as usize].is_sorted() })
        );
        Graph { n, offsets, adj }
    }

    /// Merges pre-sorted canonicalised edge runs into one canonical list
    /// and freezes the CSR — the streaming back half of the parallel
    /// generators. Each run must be sorted ascending with `u < v` pairs;
    /// duplicates within and across runs are dropped during the merge, so
    /// the result is identical to concatenating the runs through
    /// [`GraphBuilder`] — without a second full-list sort.
    pub fn from_sorted_runs(n: usize, runs: Vec<Vec<(NodeId, NodeId)>>) -> Graph {
        let mut runs: Vec<Vec<(NodeId, NodeId)>> =
            runs.into_iter().filter(|r| !r.is_empty()).collect();
        debug_assert!(runs.iter().all(|r| r.is_sorted()));
        if runs.len() == 1 {
            let mut run = runs.pop().expect("one run");
            run.dedup();
            return Graph::from_canonical(n, &run);
        }
        // Small-k tournament-free merge: with a handful of worker runs a
        // linear min-scan per element beats a heap.
        let total: usize = runs.iter().map(Vec::len).sum();
        let mut merged: Vec<(NodeId, NodeId)> = Vec::with_capacity(total);
        let mut idx = vec![0usize; runs.len()];
        loop {
            let mut best: Option<(usize, (NodeId, NodeId))> = None;
            for (r, run) in runs.iter().enumerate() {
                if idx[r] < run.len() {
                    let e = run[idx[r]];
                    if best.is_none_or(|(_, be)| e < be) {
                        best = Some((r, e));
                    }
                }
            }
            let Some((r, e)) = best else { break };
            idx[r] += 1;
            if merged.last() != Some(&e) {
                merged.push(e);
            }
        }
        Graph::from_canonical(n, &merged)
    }

    /// Builds a graph directly from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = GraphBuilder::new(n);
        b.extend_edges(edges);
        b.build()
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph::from_edges(n, std::iter::empty())
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.adj[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n as NodeId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    pub fn max_degree(&self) -> usize {
        (0..self.n as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }
}

/// Serialize graphs as `(n, edge list)` — stable and compact.
impl Serialize for Graph {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        let edges: Vec<(NodeId, NodeId)> = self.edges().collect();
        (self.n as u64, edges).serialize(ser)
    }
}

impl<'de> Deserialize<'de> for Graph {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        let (n, edges): (u64, Vec<(NodeId, NodeId)>) = Deserialize::deserialize(de)?;
        Ok(Graph::from_edges(n as usize, edges))
    }
}

/// A graph with integral edge weights in `{1..W}` (§3's MST setting).
///
/// Weights are stored per directed adjacency slot so that
/// `weight_of(u, v)` is a binary search away from either endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedGraph {
    graph: Graph,
    /// Parallel to the CSR adjacency array.
    weights: Vec<Weight>,
}

impl WeightedGraph {
    /// Builds from `(u, v, w)` triples. Duplicate edges keep the first
    /// weight encountered (after canonicalisation and sorting).
    pub fn from_weighted_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, Weight)>,
    ) -> Self {
        let mut canon: Vec<((NodeId, NodeId), Weight)> = edges
            .into_iter()
            .filter(|&(u, v, _)| u != v)
            .map(|(u, v, w)| ((u.min(v), u.max(v)), w))
            .collect();
        canon.sort_unstable_by_key(|&(e, _)| e);
        canon.dedup_by_key(|&mut (e, _)| e);
        let graph = Graph::from_edges(n, canon.iter().map(|&(e, _)| e));
        let mut weights = vec![0 as Weight; graph.adj.len()];
        for &((u, v), w) in &canon {
            let iu = graph.offsets[u as usize] as usize
                + graph.neighbors(u).binary_search(&v).expect("edge present");
            let iv = graph.offsets[v as usize] as usize
                + graph.neighbors(v).binary_search(&u).expect("edge present");
            weights[iu] = w;
            weights[iv] = w;
        }
        WeightedGraph { graph, weights }
    }

    /// Attaches weights to an already-frozen graph, one per canonical
    /// edge in [`Graph::edges`] order. The same cursor-scatter argument
    /// that sorts the adjacency lists places each weight in both directed
    /// slots in a single pass — no binary searches, which is what makes
    /// weighting a 10⁷-node graph affordable.
    pub fn from_graph_and_weights(graph: Graph, edge_weights: Vec<Weight>) -> Self {
        assert_eq!(edge_weights.len(), graph.m(), "one weight per edge");
        let mut cursor: Vec<u32> = graph.offsets[..graph.n].to_vec();
        let mut weights = vec![0 as Weight; graph.adj.len()];
        for ((u, v), w) in graph.edges().zip(edge_weights) {
            weights[cursor[u as usize] as usize] = w;
            cursor[u as usize] += 1;
            weights[cursor[v as usize] as usize] = w;
            cursor[v as usize] += 1;
        }
        WeightedGraph { graph, weights }
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    pub fn n(&self) -> usize {
        self.graph.n()
    }

    pub fn m(&self) -> usize {
        self.graph.m()
    }

    pub fn degree(&self, u: NodeId) -> usize {
        self.graph.degree(u)
    }

    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.graph.neighbors(u)
    }

    /// Neighbors of `u` with the corresponding edge weights.
    pub fn weighted_neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.graph.offsets[u as usize] as usize;
        let hi = self.graph.offsets[u as usize + 1] as usize;
        self.graph.adj[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    pub fn weight_of(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let lo = self.graph.offsets[u as usize] as usize;
        self.graph
            .neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| self.weights[lo + i])
    }

    /// Iterates each weighted edge once, `(u, v, w)` with `u < v`.
    pub fn weighted_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.graph
            .edges()
            .map(move |(u, v)| (u, v, self.weight_of(u, v).expect("edge exists")))
    }

    pub fn max_weight(&self) -> Weight {
        self.weights.iter().copied().max().unwrap_or(0)
    }

    /// Total weight of an edge set (e.g. a spanning tree).
    pub fn total_weight(&self, edges: &[(NodeId, NodeId)]) -> Weight {
        edges
            .iter()
            .map(|&(u, v)| self.weight_of(u, v).expect("edge in graph"))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn builder_dedups_and_drops_loops() {
        let g = Graph::from_edges(4, [(0, 1), (1, 0), (2, 2), (1, 3), (1, 3)]);
        assert_eq!(g.m(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(3, 1));
        assert!(!g.has_edge(2, 2));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = Graph::from_edges(5, [(3, 1), (3, 0), (3, 4), (3, 2)]);
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        for v in 0..3 {
            assert!(g.has_edge(v, 3));
            assert!(g.has_edge(3, v));
        }
        assert_eq!(g.degree(3), 4);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn one_pass_build_yields_sorted_adjacency() {
        // adversarial insert order + duplicates across a denser graph: the
        // cursor-scatter over the sorted canonical edge list must produce
        // every neighbour slice already sorted (no per-list re-sort).
        let n = 97u32;
        let edges = (0..n * 4).map(|i| {
            let u = (i * 31 + 7) % n;
            let v = (i * 17 + 3) % n;
            (u, v)
        });
        let g = Graph::from_edges(n as usize, edges);
        for u in 0..n {
            let nb = g.neighbors(u);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "unsorted list at {u}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 3);
    }

    #[test]
    fn weighted_graph_lookup_both_directions() {
        let g = WeightedGraph::from_weighted_edges(4, [(0, 1, 10), (1, 2, 20), (2, 3, 30)]);
        assert_eq!(g.weight_of(0, 1), Some(10));
        assert_eq!(g.weight_of(1, 0), Some(10));
        assert_eq!(g.weight_of(2, 3), Some(30));
        assert_eq!(g.weight_of(0, 3), None);
        assert_eq!(g.max_weight(), 30);
    }

    #[test]
    fn weighted_edges_canonical() {
        let g = WeightedGraph::from_weighted_edges(3, [(2, 1, 5), (1, 0, 3)]);
        let e: Vec<_> = g.weighted_edges().collect();
        assert_eq!(e, vec![(0, 1, 3), (1, 2, 5)]);
        assert_eq!(g.total_weight(&[(0, 1), (1, 2)]), 8);
    }

    #[test]
    fn weighted_neighbors_pairs() {
        let g = WeightedGraph::from_weighted_edges(4, [(1, 0, 7), (1, 2, 8), (1, 3, 9)]);
        let wn: Vec<_> = g.weighted_neighbors(1).collect();
        assert_eq!(wn, vec![(0, 7), (2, 8), (3, 9)]);
    }

    #[test]
    fn graph_serde_roundtrip() {
        let g = triangle();
        let s = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&s).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn weighted_serde_roundtrip() {
        let g = WeightedGraph::from_weighted_edges(4, [(0, 1, 10), (1, 2, 20)]);
        let s = serde_json::to_string(&g).unwrap();
        let back: WeightedGraph = serde_json::from_str(&s).unwrap();
        assert_eq!(g, back);
    }
}
