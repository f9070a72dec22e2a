//! # ncc-core — the paper's algorithms (§3–§5)
//!
//! Every algorithm here runs *on the Node-Capacitated Clique*: all
//! inter-node information flow goes through `ncc-model`'s capacity-limited
//! engine, composed from the `ncc-butterfly` primitives exactly as the
//! paper composes them. Local computation is free (as in the model); nodes
//! only ever act on their own state, their neighborhood in the input graph
//! `G`, received messages, and shared randomness agreed via an in-model
//! seed broadcast.
//!
//! | algorithm | paper | bound |
//! |---|---|---|
//! | [`mst::mst`] | §3, Thm 3.2 | `O(log⁴ n)` |
//! | [`orientation::orient`] | §4, Thm 4.12 | `O((a + log n) log n)`, outdegree `O(a)` |
//! | [`broadcast_trees::build_broadcast_trees`] | §5, Lemma 5.1 | `O(a + log n)`, congestion `O(a + log n)` |
//! | [`bfs::bfs`] | §5.1, Thm 5.2 | `O((a + D + log n) log n)` |
//! | [`mis::mis`] | §5.2, Thm 5.3 | `O((a + log n) log n)` |
//! | [`matching::maximal_matching`] | §5.3, Thm 5.4 | `O((a + log n) log n)` |
//! | [`coloring::coloring`] | §5.4, Thm 5.5 | `O(a)` colors in `O((a + log n) log^{3/2} n)` |
//! | [`apsp::landmark_apsp`] | §5.1 × §2 parallel instances | `O((a + D + log n) log n)` for `Θ(log n)` sketches |
//!
//! Each driver returns its output *and* an [`report::AlgoReport`] with
//! per-stage round/message statistics, which the benchmark harness compares
//! against the theorem bounds. The preamble they share — seed agreement,
//! then orientation and broadcast trees for §5 — is [`prepare()`],
//! whose [`Prepared`] value every caller starts from.
//!
//! # Example: MST under node capacities
//!
//! ```
//! use ncc_core::mst;
//! use ncc_graph::{check, gen};
//! use ncc_hashing::SharedRandomness;
//! use ncc_model::{Engine, NetConfig};
//!
//! let g = gen::gnp(32, 0.25, 1);
//! let wg = gen::with_random_weights(&g, 100, 2);
//! let mut engine = Engine::new(NetConfig::new(32, 3));
//! let shared = SharedRandomness::new(4);
//!
//! let result = mst(&mut engine, &shared, &wg).unwrap();
//! check::check_mst(&wg, &result.edges).unwrap(); // weight == Kruskal
//! assert!(engine.total.clean());                 // capacity respected
//! ```

pub mod apsp;
pub mod bfs;
pub mod broadcast_trees;
pub mod coloring;
pub mod matching;
pub mod mis;
pub mod mst;
pub mod orientation;
pub mod prepare;
pub mod report;
pub mod support;

pub use apsp::{landmark_apsp, ApspResult};
pub use bfs::{bfs, BfsResult};
pub use broadcast_trees::{build_broadcast_trees, BroadcastTrees};
pub use coloring::{coloring, ColoringResult};
pub use matching::{maximal_matching, MatchingResult};
pub use mis::{mis, MisResult};
pub use mst::{mst, MstResult};
pub use orientation::{orient, LevelClass, OrientationResult};
pub use prepare::{prepare, Prepared};
pub use report::AlgoReport;
