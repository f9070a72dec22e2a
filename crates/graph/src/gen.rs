//! Seeded graph generators.
//!
//! The paper's bounds are parameterised by arboricity `a` and diameter `D`;
//! the generator set is chosen to sweep both independently:
//!
//! | generator | arboricity | diameter | notes |
//! |---|---|---|---|
//! | `path`, `cycle` | 1 | Θ(n) | worst-case D |
//! | `star` | 1 | 2 | worst-case Δ at a = 1 — the adversary for naive algorithms |
//! | `random_tree`, `balanced_tree` | 1 | Θ(log n)…Θ(n) | |
//! | `grid`, `triangulated_grid` | ≤ 2 / ≤ 3 | Θ(√n) | planar |
//! | `forest_union(k)` | ≤ k (≈ k) | small | direct arboricity dial |
//! | `gnp`, `gnm` | ≈ m/n | Θ(log n) | density dial |
//! | `barabasi_albert(m)` | ≤ m | Θ(log n) | heavy-tailed degrees, "social network" |
//! | `rmat(m)` | ≈ m/n | small | Graph500 recursive matrix; huge-n power law with communities |
//! | `hyperbolic(α, c)` | heavy-tailed | Θ(log n) | Krioukov disk; power-law exponent 2α+1, strong clustering |
//! | `complete` | ⌈n/2⌉ | 1 | max arboricity |
//!
//! All generators take explicit seeds — reruns are reproducible.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, GraphBuilder, WeightedGraph};
use crate::{NodeId, Weight};

/// Path 0–1–…–(n−1). Arboricity 1, diameter n−1.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n as NodeId).map(|v| (v - 1, v)))
}

/// Cycle on n nodes (n ≥ 3). Arboricity 2 (just barely), diameter ⌊n/2⌋.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3);
    Graph::from_edges(n, (0..n as NodeId).map(|v| (v, (v + 1) % n as NodeId)))
}

/// Star with center 0. Arboricity 1, maximum degree n−1 — the motivating
/// adversary for node-capacitated communication (§2.2, §5).
pub fn star(n: usize) -> Graph {
    Graph::from_edges(n, (1..n as NodeId).map(|v| (0, v)))
}

/// Complete graph. Arboricity ⌈n/2⌉.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as NodeId {
        for v in (u + 1)..n as NodeId {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Complete `arity`-ary tree with n nodes (node v's parent is (v−1)/arity).
pub fn balanced_tree(n: usize, arity: usize) -> Graph {
    assert!(arity >= 1);
    Graph::from_edges(
        n,
        (1..n as NodeId).map(move |v| ((v - 1) / arity as NodeId, v)),
    )
}

/// Uniform-attachment random tree: node v picks a parent uniformly from
/// `0..v`. Arboricity 1, expected diameter Θ(log n).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    Graph::from_edges(n, (1..n as NodeId).map(|v| (rng.gen_range(0..v), v)))
}

/// Union of `k` independent uniform-attachment spanning trees (deduplicated).
/// Arboricity ≤ k by Nash-Williams (edges partition into k forests) and
/// ≈ k for k ≪ n — the direct dial for the `a` parameter in experiments.
pub fn forest_union(n: usize, k: usize, seed: u64) -> Graph {
    let mut b = GraphBuilder::new(n);
    for t in 0..k {
        let mut rng = SmallRng::seed_from_u64(seed ^ (0x5eed_0000 + t as u64));
        // offset the root per tree so the unions overlap less
        for v in 1..n as NodeId {
            let p = rng.gen_range(0..v);
            b.add_edge(p, v);
        }
    }
    b.build()
}

/// `rows × cols` grid. Planar, arboricity ≤ 2, diameter rows+cols−2.
pub fn grid(rows: usize, cols: usize) -> Graph {
    mesh(rows, cols, false)
}

/// Grid plus one diagonal per cell: still planar (a triangulation-like
/// mesh), arboricity ≤ 3 — the "planar graph" family from §1.3/§2.1.
pub fn triangulated_grid(rows: usize, cols: usize) -> Graph {
    mesh(rows, cols, true)
}

/// The `rows × cols` grid, with one diagonal per cell when `diagonals`.
fn mesh(rows: usize, cols: usize, diagonals: bool) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    let at = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(at(r, c), at(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(at(r, c), at(r + 1, c));
            }
            if diagonals && r + 1 < rows && c + 1 < cols {
                b.add_edge(at(r, c), at(r + 1, c + 1));
            }
        }
    }
    b.build()
}

/// Erdős–Rényi G(n, p).
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if p >= 1.0 {
        return complete(n);
    }
    if p > 0.0 {
        // geometric skipping for sparse p
        let log1mp = (1.0 - p).ln();
        let total = n * (n - 1) / 2;
        let mut i: i64 = -1;
        loop {
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            let skip = (r.ln() / log1mp).floor() as i64 + 1;
            i += skip;
            if i >= total as i64 {
                break;
            }
            let (u, v) = unrank_pair(i as usize, n);
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// G(n, m): exactly `m` distinct uniform edges (m ≤ n(n−1)/2).
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let total = n * (n - 1) / 2;
    assert!(m <= total, "too many edges requested");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < m {
        chosen.insert(rng.gen_range(0..total));
    }
    Graph::from_edges(n, chosen.into_iter().map(|i| unrank_pair(i, n)))
}

/// Barabási–Albert preferential attachment: each new node attaches to
/// `m` existing nodes with probability proportional to degree.
/// Degeneracy ≤ m, hence arboricity ≤ m; degrees are heavy-tailed —
/// the "social network" input from the paper's introduction.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1 && n > m);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // repeated-endpoint list implements preferential attachment
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    // seed clique on the first m+1 nodes
    for u in 0..=(m as NodeId) {
        for v in (u + 1)..=(m as NodeId) {
            b.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (m as NodeId + 1)..n as NodeId {
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            targets.insert(t);
        }
        for &t in &targets {
            b.add_edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// R-MAT recursive-matrix graph (Chakrabarti–Zhan–Faloutsos; the
/// Graph500 generator): `m` edge samples drawn by recursively descending
/// a 2^scale × 2^scale adjacency matrix with the standard quadrant
/// probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05). Produces the
/// heavy-tailed, community-structured topology of real P2P/social
/// overlays — the paper's "millions of users" regime (§1) — at any n,
/// in O(m log n) time and O(m) memory.
///
/// `scale = ⌈log₂ n⌉`; samples landing on an endpoint ≥ n (when n is not
/// a power of two) or on the diagonal are rejected and redrawn, so all
/// `m` samples land on valid pairs. Duplicate pairs are deduplicated by
/// the CSR freeze, so the final edge count is ≤ `m` (duplicates are
/// exactly the multi-edges RMAT naturally produces).
///
/// Sampling is *block-seeded*: the `m` accepted samples are split into
/// fixed blocks of [`RMAT_BLOCK`] draws, block `k` running its own RNG
/// stream derived from `(seed, k)`. Block 0's stream is the plain
/// `seed_from_u64(seed)` stream, so every graph with `m ≤ RMAT_BLOCK`
/// is bit-for-bit the graph earlier single-stream revisions produced.
/// Because a block's samples depend only on `(seed, k)` — never on which
/// thread ran it — the canonical edge list is byte-identical at every
/// thread count.
pub fn rmat(n: usize, m: usize, seed: u64) -> Graph {
    rmat_threads(n, m, seed, 1)
}

/// Accepted R-MAT samples per independently seeded block. Each block is
/// a unit of deterministic parallel work; see [`rmat`].
pub const RMAT_BLOCK: usize = 1 << 20;

/// [`rmat`] with edge sampling fanned out over `threads` scoped workers,
/// at most one per core. The result is byte-identical to
/// `rmat(n, m, seed)` for every `threads` value — parallelism is
/// execution layout, never identity.
pub fn rmat_threads(n: usize, m: usize, seed: u64, threads: usize) -> Graph {
    rmat_blocked(n, m, seed, threads, RMAT_BLOCK)
}

/// Test hook: [`rmat_threads`] with an explicit block size, so identity
/// proptests can cross block boundaries without 2²⁰-sample graphs.
#[doc(hidden)]
pub fn rmat_blocked(n: usize, m: usize, seed: u64, threads: usize, block: usize) -> Graph {
    assert!(n >= 2);
    assert!(block >= 1, "block size must be positive");
    let scale = usize::BITS - (n - 1).leading_zeros(); // ⌈log₂ n⌉ for n ≥ 2
    let nblocks = m.div_ceil(block).max(1);
    let workers = worker_count(threads, nblocks);
    // contiguous block ranges per worker; each worker samples its blocks
    // in order and sorts its run once, so the merge in `from_sorted_runs`
    // sees `workers` pre-sorted streams.
    let per = nblocks.div_ceil(workers);
    let sample_blocks = |lo: usize, hi: usize| -> Vec<(NodeId, NodeId)> {
        let mut run: Vec<(NodeId, NodeId)> =
            Vec::with_capacity(hi.saturating_sub(lo) * block.min(m));
        for k in lo..hi {
            let quota = block.min(m - k * block);
            rmat_sample_block(n, scale, quota, rmat_block_seed(seed, k), &mut run);
        }
        run.sort_unstable();
        run
    };
    let runs: Vec<Vec<(NodeId, NodeId)>> = if workers == 1 {
        vec![sample_blocks(0, nblocks)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let sample_blocks = &sample_blocks;
                    s.spawn(move || {
                        sample_blocks((w * per).min(nblocks), ((w + 1) * per).min(nblocks))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rmat worker panicked"))
                .collect()
        })
    };
    Graph::from_sorted_runs(n, runs)
}

/// Scoped workers a parallel generator spawns for `units` units of work
/// when asked for `threads`: at least one, at most one per unit, and no
/// more than the machine has cores — a request's thread count is not
/// trusted to be sane, and one OS thread per unit can exhaust the process.
/// Output never depends on the count.
fn worker_count(threads: usize, units: usize) -> usize {
    if threads <= 1 {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    threads.min(cores).clamp(1, units)
}

/// Block `k`'s RNG seed. Block 0 keeps the plain seed (byte-compat with
/// the single-stream revisions for m ≤ block); later blocks mix the
/// block index through the splitmix64 increment.
fn rmat_block_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Draws exactly `quota` accepted canonical pairs from one block's
/// stream, appending to `out`.
fn rmat_sample_block(
    n: usize,
    scale: u32,
    quota: usize,
    seed: u64,
    out: &mut Vec<(NodeId, NodeId)>,
) {
    // standard Graph500 quadrant split: a | b / c | d
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut drawn = 0usize;
    while drawn < quota {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.gen();
            if r < A {
                // top-left: neither bit set
            } else if r < A + B {
                v |= 1;
            } else if r < A + B + C {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u == v || u >= n as u64 || v >= n as u64 {
            continue; // rejected; redraw with fresh randomness
        }
        out.push((u.min(v) as NodeId, u.max(v) as NodeId));
        drawn += 1;
    }
}

/// Random hyperbolic graph (Krioukov et al.): `n` points in a hyperbolic
/// disk of radius `R = 2 ln n + c`, radial density `∝ sinh(αr)` (sampled
/// by inverse CDF), angle uniform; two points connect iff their
/// hyperbolic distance is ≤ R. Degrees follow a power law with exponent
/// `γ = 2α + 1` and the graph has strong clustering — the geometric
/// model of internet/P2P topologies. Larger `c` means sparser (expected
/// degree scales with `e^{-c/2}`).
///
/// Candidate search is band-bucketed: points are grouped into unit-width
/// radial bands sorted by angle, and for each (point, band) pair only the
/// angular window that could possibly satisfy the distance condition at
/// the band's inner radius is scanned — near-linear work for α > ½
/// instead of the naive O(n²) all-pairs test, which is what makes
/// n = 10⁶ feasible.
pub fn hyperbolic(n: usize, alpha: f64, c: f64, seed: u64) -> Graph {
    hyperbolic_threads(n, alpha, c, seed, 1)
}

/// [`hyperbolic`] with the angular-window pass fanned out over `threads`
/// scoped workers, at most one per core. Point sampling stays a single
/// RNG stream (it is cheap and pins the geometry); the RNG-free candidate
/// scan is partitioned by source node `i`. Every qualifying pair is
/// emitted exactly once, from its smaller endpoint, so `i`-range chunks
/// produce disjoint sorted runs and the merged edge list is
/// byte-identical at every thread count.
pub fn hyperbolic_threads(n: usize, alpha: f64, c: f64, seed: u64, threads: usize) -> Graph {
    assert!(n >= 2);
    assert!(alpha > 0.0, "alpha must be positive");
    let r_max = 2.0 * (n as f64).ln() + c;
    assert!(r_max > 0.0, "c too negative: disk radius must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    // inverse CDF of the ∝ sinh(αr) radial density on [0, R]
    let denom = (alpha * r_max).cosh() - 1.0;
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            let r = ((1.0 + denom * u).acosh() / alpha).max(1e-12);
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            (r, theta)
        })
        .collect();
    let cosh_r: Vec<f64> = pts.iter().map(|p| p.0.cosh()).collect();
    let sinh_r: Vec<f64> = pts.iter().map(|p| p.0.sinh()).collect();
    let cosh_rmax = r_max.cosh();

    // unit-width radial bands, each sorted by angle
    let nbands = r_max.ceil() as usize;
    let mut bands: Vec<Vec<(f64, u32)>> = vec![Vec::new(); nbands.max(1)];
    for (i, &(r, theta)) in pts.iter().enumerate() {
        let bi = (r as usize).min(nbands.saturating_sub(1));
        bands[bi].push((theta, i as u32));
    }
    for band in &mut bands {
        band.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    // Scans sources `lo_i..hi_i` against every band and returns the
    // sorted run of canonical pairs they own. RNG-free: safe to run on
    // any partition of the i-range without touching determinism.
    let scan_sources = |lo_i: usize, hi_i: usize| -> Vec<(NodeId, NodeId)> {
        let mut out: Vec<(NodeId, NodeId)> = Vec::new();
        for i in lo_i..hi_i {
            let (_, theta_i) = pts[i];
            for (bi, band) in bands.iter().enumerate() {
                if band.is_empty() {
                    continue;
                }
                // widest angular window vs any point in this band: evaluated at
                // the band's inner radius (the condition is monotone in r_j)
                let rb = (bi as f64).max(1e-12);
                let thresh = (cosh_r[i] * rb.cosh() - cosh_rmax) / (sinh_r[i] * rb.sinh());
                if thresh > 1.0 {
                    continue; // no point in this band can be close enough
                }
                // scans this band's candidates with angle in [lo, hi] (no
                // wraparound inside one call; wrapped windows are split
                // into two calls below)
                let mut scan = |lo: f64, hi: f64| {
                    let from = band.partition_point(|&(t, _)| t < lo);
                    for &(theta_j, j) in &band[from..] {
                        if theta_j > hi {
                            break;
                        }
                        let j = j as usize;
                        if j <= i {
                            continue; // the pair is found from its smaller endpoint
                        }
                        let dtheta = (pts[i].1 - theta_j).abs();
                        let dtheta = dtheta.min(std::f64::consts::TAU - dtheta);
                        let cosh_d = cosh_r[i] * cosh_r[j] - sinh_r[i] * sinh_r[j] * dtheta.cos();
                        if cosh_d <= cosh_rmax {
                            out.push((i as NodeId, j as NodeId));
                        }
                    }
                };
                if thresh <= -1.0 {
                    // every angle qualifies as a candidate
                    scan(f64::NEG_INFINITY, f64::INFINITY);
                    continue;
                }
                let w = thresh.acos();
                let (lo, hi) = (theta_i - w, theta_i + w);
                scan(lo.max(0.0), hi);
                if lo < 0.0 {
                    scan(lo + std::f64::consts::TAU, f64::INFINITY);
                }
                if hi > std::f64::consts::TAU {
                    scan(f64::NEG_INFINITY, hi - std::f64::consts::TAU);
                }
            }
        }
        out.sort_unstable();
        out
    };

    let workers = worker_count(threads, n);
    let chunk = n.div_ceil(workers);
    let runs: Vec<Vec<(NodeId, NodeId)>> = if workers == 1 {
        vec![scan_sources(0, n)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let scan_sources = &scan_sources;
                    s.spawn(move || scan_sources(w * chunk, ((w + 1) * chunk).min(n)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("hyperbolic worker panicked"))
                .collect()
        })
    };
    Graph::from_sorted_runs(n, runs)
}

/// Random geometric graph (unit-disk model): `n` points uniform in the
/// unit square, edges between pairs within distance `radius`. The standard
/// model for ad-hoc wireless meshes — the "cheap links" of the paper's
/// hybrid-network motivation (§1). Connectivity threshold is around
/// `radius ≈ √(ln n / (π n))`.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let r2 = radius * radius;
    // grid bucketing: only compare points in neighboring cells
    let cell = radius.max(1e-9);
    let cells = (1.0 / cell).ceil() as i64;
    let mut buckets: std::collections::BTreeMap<(i64, i64), Vec<u32>> =
        std::collections::BTreeMap::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let key = ((x / cell) as i64, (y / cell) as i64);
        buckets.entry(key).or_default().push(i as u32);
    }
    let mut b = GraphBuilder::new(n);
    for (&(cx, cy), members) in &buckets {
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                let (nx, ny) = (cx + dx, cy + dy);
                if nx < 0 || ny < 0 || nx > cells || ny > cells {
                    continue;
                }
                if let Some(others) = buckets.get(&(nx, ny)) {
                    for &u in members {
                        for &v in others {
                            if u < v {
                                let (x1, y1) = pts[u as usize];
                                let (x2, y2) = pts[v as usize];
                                let d2 = (x1 - x2).powi(2) + (y1 - y2).powi(2);
                                if d2 <= r2 {
                                    b.add_edge(u, v);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Random bipartite graph between parts `{0..a}` and `{a..a+b}`.
pub fn bipartite(a: usize, b_count: usize, p: f64, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = a + b_count;
    let mut g = GraphBuilder::new(n);
    for u in 0..a as NodeId {
        for v in a as NodeId..n as NodeId {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g.build()
}

/// Maps a linear index in `[0, n(n−1)/2)` to the corresponding unordered
/// pair, row-major over u < v.
fn unrank_pair(mut i: usize, n: usize) -> (NodeId, NodeId) {
    for u in 0..n - 1 {
        let row = n - 1 - u;
        if i < row {
            return (u as NodeId, (u + 1 + i) as NodeId);
        }
        i -= row;
    }
    unreachable!("index out of range");
}

/// Assigns uniform random integer weights in `{1..=w_max}` to a graph's
/// edges (the §3 MST input regime, `W = poly(n)`).
///
/// Weights are drawn in canonical [`Graph::edges`] order — the same
/// stream the original triple-based path consumed — and scattered into
/// the already-frozen CSR, so the result is byte-identical to rebuilding
/// from `(u, v, w)` triples at a fraction of the cost.
pub fn with_random_weights(g: &Graph, w_max: Weight, seed: u64) -> WeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let weights: Vec<Weight> = (0..g.m()).map(|_| rng.gen_range(1..=w_max)).collect();
    WeightedGraph::from_graph_and_weights(g.clone(), weights)
}

/// Assigns *distinct* weights (a random permutation of `1..=m`), which makes
/// the MST unique — convenient for exact edge-set comparisons in tests.
pub fn with_distinct_weights(g: &Graph, seed: u64) -> WeightedGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = g.m();
    let mut perm: Vec<Weight> = (1..=m as Weight).collect();
    // Fisher-Yates
    for i in (1..m).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    WeightedGraph::from_graph_and_weights(g.clone(), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    #[test]
    fn worker_count_is_capped_by_units_and_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(worker_count(0, 10), 1);
        assert_eq!(worker_count(8, 1), 1);
        assert_eq!(worker_count(usize::MAX, usize::MAX), cores);
    }

    #[test]
    fn path_cycle_star_shapes() {
        assert_eq!(path(5).m(), 4);
        assert_eq!(cycle(5).m(), 5);
        let s = star(6);
        assert_eq!(s.m(), 5);
        assert_eq!(s.degree(0), 5);
        assert_eq!(s.degree(3), 1);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete(7);
        assert_eq!(g.m(), 21);
        assert_eq!(g.max_degree(), 6);
    }

    #[test]
    fn trees_are_trees() {
        for (name, g) in [
            ("balanced", balanced_tree(30, 3)),
            ("random", random_tree(30, 5)),
        ] {
            assert_eq!(g.m(), 29, "{name} edge count");
            assert_eq!(
                analysis::connected_components(&g).count,
                1,
                "{name} connectivity"
            );
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 3 * 5); // horizontal + vertical
        let tg = triangulated_grid(4, 5);
        assert_eq!(tg.m(), g.m() + 3 * 4);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).m(), 0);
        assert_eq!(gnp(10, 1.0, 1).m(), 45);
    }

    #[test]
    fn gnp_density_close_to_expectation() {
        let n = 200;
        let p = 0.1;
        let g = gnp(n, p, 42);
        let expect = (n * (n - 1) / 2) as f64 * p;
        let got = g.m() as f64;
        assert!(
            (got - expect).abs() < 0.2 * expect,
            "m = {got}, expect ≈ {expect}"
        );
    }

    #[test]
    fn gnm_exact_count() {
        let g = gnm(50, 100, 9);
        assert_eq!(g.m(), 100);
    }

    #[test]
    fn unrank_pair_covers_all() {
        let n = 7;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..n * (n - 1) / 2 {
            let (u, v) = unrank_pair(i, n);
            assert!(u < v && (v as usize) < n);
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    fn ba_graph_degeneracy_bounded() {
        let g = barabasi_albert(200, 3, 7);
        let (degeneracy, _) = analysis::degeneracy(&g);
        assert!(degeneracy <= 3 + 3, "BA(m=3) degeneracy was {degeneracy}");
        assert!(g.max_degree() > 8, "should be heavy-tailed");
    }

    #[test]
    fn forest_union_arboricity_bounded() {
        let g = forest_union(100, 4, 11);
        let (lo, hi) = analysis::arboricity_bounds(&g);
        assert!(hi <= 8, "upper bound {hi}");
        assert!(lo >= 2, "lower bound {lo}");
    }

    #[test]
    fn bipartite_has_no_intra_part_edges() {
        let g = bipartite(10, 15, 0.5, 3);
        for (u, v) in g.edges() {
            assert!((u < 10) != (v < 10), "edge inside one part: {u}-{v}");
        }
    }

    #[test]
    fn distinct_weights_are_distinct() {
        let g = gnm(40, 80, 5);
        let wg = with_distinct_weights(&g, 6);
        let mut ws: Vec<_> = wg.weighted_edges().map(|(_, _, w)| w).collect();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), 80);
    }

    #[test]
    fn random_weights_in_range() {
        let g = gnm(30, 60, 5);
        let wg = with_random_weights(&g, 100, 6);
        for (_, _, w) in wg.weighted_edges() {
            assert!((1..=100).contains(&w));
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gnp(50, 0.2, 7), gnp(50, 0.2, 7));
        assert_ne!(gnp(50, 0.2, 7), gnp(50, 0.2, 8));
        assert_eq!(barabasi_albert(60, 2, 1), barabasi_albert(60, 2, 1));
        assert_eq!(random_tree(60, 2), random_tree(60, 2));
        assert_eq!(random_geometric(60, 0.2, 3), random_geometric(60, 0.2, 3));
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let g = rmat(500, 2000, 7); // n not a power of two: exercises rejection
        assert_eq!(g.n(), 500);
        assert!(g.m() <= 2000);
        assert!(g.m() > 1000, "dedup should not collapse most samples");
        assert_eq!(g, rmat(500, 2000, 7));
        assert_ne!(g, rmat(500, 2000, 8));
        // recursive-matrix skew concentrates degree on low ids
        let low: usize = (0..50).map(|v| g.degree(v)).sum();
        let high: usize = (450..500).map(|v| g.degree(v as NodeId)).sum();
        assert!(
            low > 4 * high,
            "expected heavy low-id degree mass, got {low} vs {high}"
        );
    }

    #[test]
    fn hyperbolic_matches_brute_force() {
        // the band-bucketed candidate search must find exactly the pairs
        // within hyperbolic distance R
        let n = 300;
        let (alpha, c, seed) = (0.75, -1.0, 11);
        let g = hyperbolic(n, alpha, c, seed);
        let r_max = 2.0 * (n as f64).ln() + c;
        // rebuild points with the same stream to brute-force distances
        let mut rng = SmallRng::seed_from_u64(seed);
        let denom = (alpha * r_max).cosh() - 1.0;
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                let r = ((1.0 + denom * u).acosh() / alpha).max(1e-12);
                (r, rng.gen::<f64>() * std::f64::consts::TAU)
            })
            .collect();
        let mut expect = 0;
        for u in 0..n {
            for v in u + 1..n {
                let dtheta = (pts[u].1 - pts[v].1).abs();
                let dtheta = dtheta.min(std::f64::consts::TAU - dtheta);
                let cosh_d = pts[u].0.cosh() * pts[v].0.cosh()
                    - pts[u].0.sinh() * pts[v].0.sinh() * dtheta.cos();
                if cosh_d <= r_max.cosh() {
                    expect += 1;
                    assert!(g.has_edge(u as NodeId, v as NodeId), "missing edge {u}-{v}");
                }
            }
        }
        assert_eq!(g.m(), expect);
        assert!(expect > 0, "test graph should not be empty");
    }

    #[test]
    fn hyperbolic_deterministic_and_heavy_tailed() {
        let g = hyperbolic(800, 0.75, 0.0, 3);
        assert_eq!(g, hyperbolic(800, 0.75, 0.0, 3));
        assert_ne!(g, hyperbolic(800, 0.75, 0.0, 4));
        // power-law degrees: the max degree dwarfs the mean
        let mean = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(
            g.max_degree() as f64 > 5.0 * mean,
            "max {} vs mean {mean}",
            g.max_degree()
        );
        // larger c → sparser
        let sparser = hyperbolic(800, 0.75, 2.0, 3);
        assert!(sparser.m() < g.m());
    }

    #[test]
    fn geometric_graph_matches_brute_force() {
        // the grid-bucketed implementation must find exactly the pairs
        // within the radius
        let n = 80;
        let r = 0.18;
        let g = random_geometric(n, r, 9);
        // rebuild points with the same stream to brute-force distances
        let mut rng = SmallRng::seed_from_u64(9);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut expect = 0;
        for u in 0..n {
            for v in u + 1..n {
                let d2 = (pts[u].0 - pts[v].0).powi(2) + (pts[u].1 - pts[v].1).powi(2);
                if d2 <= r * r {
                    expect += 1;
                    assert!(g.has_edge(u as NodeId, v as NodeId), "missing edge {u}-{v}");
                }
            }
        }
        assert_eq!(g.m(), expect);
    }

    #[test]
    fn geometric_density_scales_with_radius() {
        let sparse = random_geometric(200, 0.05, 4);
        let dense = random_geometric(200, 0.2, 4);
        assert!(dense.m() > 4 * sparse.m());
    }
}
