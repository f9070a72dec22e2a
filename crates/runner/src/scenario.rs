//! Scenario specifications: the data that names one cell of the paper's
//! result matrix.
//!
//! Every result in the paper is a point in
//! `{algorithm} × {graph family} × {n} × {capacity} × {seed}`; a
//! [`ScenarioSpec`] is exactly that point, minus the algorithm, as a plain
//! serializable value. The spec alone deterministically reconstructs the
//! input graph, its edge weights, and a configured [`Engine`] — so a JSON
//! file (or a literal in an experiment binary) fully describes a run, and
//! adding a scenario is a data change, not a new hand-rolled entrypoint.

use std::sync::OnceLock;

use ncc_graph::{gen, Graph, WeightedGraph};
use ncc_kmachine::KMachineModel;
use ncc_model::{
    Capacity, CongestedClique, Engine, HybridLocal, ModelSpec, Ncc, NetConfig, NetworkModel, NodeId,
};
use serde::{Deserialize, Serialize};

use crate::RunnerError;

/// A named graph family plus its parameters (§1.1's "input graph").
///
/// The `seed` and `n` of the owning [`ScenarioSpec`] are shared by all
/// randomized families, so the family value carries only family-specific
/// parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FamilySpec {
    Path,
    Cycle,
    Star,
    Complete,
    /// `rows × cols` grid; the spec's `n` must equal `rows * cols`.
    Grid {
        rows: usize,
        cols: usize,
    },
    /// Triangulated `rows × cols` grid (planar, arboricity ≤ 3).
    TGrid {
        rows: usize,
        cols: usize,
    },
    /// Uniform random spanning tree.
    Tree,
    /// Union of `k` random forests (arboricity ≤ `k`) — the Table-1
    /// bounded-arboricity workload.
    Forests {
        k: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        p: f64,
    },
    /// Erdős–Rényi `G(n, m)`.
    Gnm {
        m: usize,
    },
    /// Barabási–Albert preferential attachment, `m` edges per arrival.
    Ba {
        m: usize,
    },
    /// Random geometric graph on the unit square.
    Geometric {
        radius: f64,
    },
    /// R-MAT recursive-matrix graph (Graph500 quadrant probabilities):
    /// `edge_factor * n` edge samples. The huge-n power-law family.
    Rmat {
        edge_factor: usize,
    },
    /// Random hyperbolic graph (Krioukov disk, `R = 2 ln n + c`):
    /// power-law exponent `2·alpha + 1`; larger `c` is sparser.
    Hyperbolic {
        alpha: f64,
        c: f64,
    },
    /// The graph is supplied out of band (e.g. `ncc-cli run --graph file`);
    /// such a spec cannot rebuild its graph and exists only as an echo.
    Provided,
}

impl FamilySpec {
    /// Short lowercase family name, matching the `ncc-cli` vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            FamilySpec::Path => "path",
            FamilySpec::Cycle => "cycle",
            FamilySpec::Star => "star",
            FamilySpec::Complete => "complete",
            FamilySpec::Grid { .. } => "grid",
            FamilySpec::TGrid { .. } => "tgrid",
            FamilySpec::Tree => "tree",
            FamilySpec::Forests { .. } => "forests",
            FamilySpec::Gnp { .. } => "gnp",
            FamilySpec::Gnm { .. } => "gnm",
            FamilySpec::Ba { .. } => "ba",
            FamilySpec::Geometric { .. } => "geometric",
            FamilySpec::Rmat { .. } => "rmat",
            FamilySpec::Hyperbolic { .. } => "hyperbolic",
            FamilySpec::Provided => "provided",
        }
    }
}

/// Serializable description of one scenario: graph family + parameters,
/// node count, weight range, capacity, seed, and execution layout.
///
/// `threads` is *execution layout*, not scenario identity: the engine is
/// deterministic for any thread count, so two specs differing only in
/// `threads` produce bit-identical results (property-tested in
/// `tests/runner_api.rs`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    pub family: FamilySpec,
    /// Number of nodes (and network size — the model puts the input graph
    /// and the clique on the same node set).
    pub n: usize,
    /// Master seed: graph generation, edge weights, and the engine's
    /// randomness are all derived from it.
    pub seed: u64,
    /// Edge weights for weighted algorithms are uniform in `1..=weight_max`.
    pub weight_max: u64,
    /// Per-node, per-round communication budget.
    pub capacity: Capacity,
    /// The network model the scenario executes under (NCC, Congested
    /// Clique, k-machine, hybrid local+global). Part of scenario identity:
    /// two specs differing only in `model` are different experiments.
    pub model: ModelSpec,
    /// Worker threads for the engine (results are identical for any value).
    pub threads: usize,
    /// Source node for rooted algorithms (BFS).
    pub source: NodeId,
}

impl ScenarioSpec {
    /// A spec with the repository defaults: `Θ(log n)` capacity, weights up
    /// to `n²`, sequential execution, source 0.
    pub fn new(family: FamilySpec, n: usize, seed: u64) -> Self {
        ScenarioSpec {
            family,
            n,
            seed,
            weight_max: (n.saturating_mul(n)).max(1) as u64,
            capacity: Capacity::default_for(n),
            model: ModelSpec::Ncc,
            threads: 1,
            source: 0,
        }
    }

    /// Convenience constructor for grids (`n` is derived from the sides).
    pub fn grid(rows: usize, cols: usize, seed: u64) -> Self {
        Self::new(FamilySpec::Grid { rows, cols }, rows * cols, seed)
    }

    pub fn with_capacity(mut self, c: Capacity) -> Self {
        self.capacity = c;
        self
    }

    pub fn with_weight_max(mut self, w: u64) -> Self {
        self.weight_max = w.max(1);
        self
    }

    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_source(mut self, src: NodeId) -> Self {
        self.source = src;
        self
    }

    /// Selects the execution model. For
    /// [`ModelSpec::CongestedClique`] the node capacity is switched to
    /// [`Capacity::unbounded`] in the same stroke — the Congested Clique
    /// has no node caps, and capacity-adaptive protocols must see that.
    pub fn with_model(mut self, model: ModelSpec) -> Self {
        if matches!(model, ModelSpec::CongestedClique { .. }) {
            self.capacity = Capacity::unbounded();
        }
        self.model = model;
        self
    }

    /// One-line label for tables: `gnp n=256 seed=7` (non-default models
    /// append `model=...`).
    pub fn label(&self) -> String {
        let mut l = format!("{} n={} seed={}", self.family.name(), self.n, self.seed);
        if self.model != ModelSpec::Ncc {
            l.push_str(&format!(" model={}", self.model.name()));
        }
        l
    }

    /// Deterministically regenerates the input graph from the spec, or
    /// refuses a family parameter its generator is not defined on.
    pub fn build_graph(&self) -> Result<Graph, RunnerError> {
        let n = self.n;
        let seed = self.seed;
        let positive = |x: f64| x > 0.0; // NaN is not
        let refuse = |need: String| {
            let family = self.family.name();
            Err(RunnerError::Scenario(format!("`{family}` needs {need}")))
        };
        let least = match self.family {
            FamilySpec::Cycle => 3,
            FamilySpec::Rmat { .. } | FamilySpec::Hyperbolic { .. } => 2,
            _ => 0,
        };
        if n < least {
            return refuse(format!("n ≥ {least}, the spec has n = {n}"));
        }
        let g = match &self.family {
            FamilySpec::Gnm { m } if *m > n.saturating_mul(n.saturating_sub(1)) / 2 => {
                return refuse(format!("m ≤ n(n − 1)/2, the spec has n = {n}, m = {m}"))
            }
            FamilySpec::Ba { m } if (*m).max(1) >= n => {
                return refuse(format!("m < n, the spec has n = {n}, m = {m}"))
            }
            FamilySpec::Gnp { p } if !(0.0..=1.0).contains(p) => {
                return refuse(format!("0 ≤ p ≤ 1, the spec has p = {p}"))
            }
            FamilySpec::Hyperbolic { alpha, .. } if !positive(*alpha) => {
                return refuse(format!("alpha > 0, the spec has alpha = {alpha}"))
            }
            FamilySpec::Hyperbolic { c, .. } if !positive(2.0 * (n as f64).ln() + c) => {
                return refuse(format!("2 ln n + c > 0, the spec has n = {n}, c = {c}"))
            }
            FamilySpec::Path => gen::path(n),
            FamilySpec::Cycle => gen::cycle(n),
            FamilySpec::Star => gen::star(n),
            FamilySpec::Complete => gen::complete(n),
            FamilySpec::Grid { rows, cols } | FamilySpec::TGrid { rows, cols } => {
                if rows * cols != n {
                    return Err(RunnerError::Scenario(format!(
                        "grid {rows}x{cols} has {} nodes but spec says n={n}",
                        rows * cols
                    )));
                }
                match &self.family {
                    FamilySpec::Grid { .. } => gen::grid(*rows, *cols),
                    _ => gen::triangulated_grid(*rows, *cols),
                }
            }
            FamilySpec::Tree => gen::random_tree(n, seed),
            FamilySpec::Forests { k } => gen::forest_union(n, (*k).max(1), seed),
            FamilySpec::Gnp { p } => gen::gnp(n, *p, seed),
            FamilySpec::Gnm { m } => gen::gnm(n, *m, seed),
            FamilySpec::Ba { m } => gen::barabasi_albert(n, (*m).max(1), seed),
            FamilySpec::Geometric { radius } => gen::random_geometric(n, *radius, seed),
            // The huge-n families generate on the spec's thread layout.
            // `threads` stays execution layout, not identity: the parallel
            // generators are byte-identical for any thread count
            // (property-tested in `crates/graph/tests/gen_parallel.rs`).
            FamilySpec::Rmat { edge_factor } => gen::rmat_threads(
                n,
                n.saturating_mul((*edge_factor).max(1)),
                seed,
                self.threads.max(1),
            ),
            FamilySpec::Hyperbolic { alpha, c } => {
                gen::hyperbolic_threads(n, *alpha, *c, seed, self.threads.max(1))
            }
            FamilySpec::Provided => {
                return Err(RunnerError::Scenario(
                    "family `provided` carries no generator; use Scenario::from_graph".into(),
                ))
            }
        };
        Ok(g)
    }

    /// Instantiates the full scenario (graph + weights), after
    /// [`Self::check_model`].
    pub fn build(&self) -> Result<Scenario, RunnerError> {
        self.check_model()?;
        let graph = self.build_graph()?;
        Ok(Scenario::from_graph(self.clone(), graph))
    }

    /// Refuses a model no engine can be built for: a k-machine count past
    /// `u32::MAX` (machine ids are `u32`).
    pub fn check_model(&self) -> Result<(), RunnerError> {
        match self.model {
            ModelSpec::KMachine { k, .. } if k > u32::MAX as usize => {
                Err(RunnerError::Scenario(format!(
                    "KMachine k = {k} exceeds the largest machine count, {}",
                    u32::MAX
                )))
            }
            _ => Ok(()),
        }
    }

    /// The engine configuration this spec describes.
    pub fn net_config(&self) -> NetConfig {
        NetConfig::new(self.n, self.seed)
            .with_capacity(self.capacity)
            .with_threads(self.threads.max(1))
    }
}

/// A materialised scenario: the spec plus the graph and weighted graph it
/// deterministically generates. Algorithms read their input from here.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub spec: ScenarioSpec,
    pub graph: Graph,
    /// Lazily weighted copy of the graph — see [`Scenario::weighted`].
    /// Unweighted algorithms (the majority) never pay the second O(n + m)
    /// graph, which matters at n = 10⁷.
    weighted: OnceLock<WeightedGraph>,
}

impl Scenario {
    /// Wraps an externally supplied graph (graph files, custom topologies).
    /// The spec's `n` is forced to the graph's node count so the engine and
    /// the input stay on the same node set.
    pub fn from_graph(mut spec: ScenarioSpec, graph: Graph) -> Self {
        spec.n = graph.n();
        Scenario {
            spec,
            graph,
            weighted: OnceLock::new(),
        }
    }

    /// The graph with seeded random weights in `1..=weight_max` (used by
    /// weighted algorithms; derived from `seed ^ 1` like the CLI always
    /// did). Built on first use and cached; the weight stream depends only
    /// on the spec, so laziness cannot change any result.
    pub fn weighted(&self) -> &WeightedGraph {
        self.weighted.get_or_init(|| {
            gen::with_random_weights(&self.graph, self.spec.weight_max.max(1), self.spec.seed ^ 1)
        })
    }

    /// Instantiates the spec's [`ModelSpec`] into a live network model.
    /// Deterministic: the k-machine partition is keyed by the spec seed and
    /// the hybrid adjacency is the scenario's own input graph.
    pub fn build_model(&self) -> Box<dyn NetworkModel> {
        match self.spec.model {
            ModelSpec::Ncc => Box::new(Ncc),
            ModelSpec::CongestedClique { edge_cap } => Box::new(CongestedClique::new(edge_cap)),
            ModelSpec::KMachine { k, link_capacity } => Box::new(KMachineModel::new(
                self.spec.n,
                k.max(1),
                self.spec.seed,
                link_capacity.max(1),
            )),
            ModelSpec::HybridLocal { local_edge_cap } => Box::new(HybridLocal::from_edges(
                self.spec.n,
                self.graph.edges(),
                local_edge_cap,
            )),
        }
    }

    /// A fresh engine configured per the spec (capacity, seed, threads,
    /// network model). Each call returns an identical engine, so repeated
    /// runs reproduce exactly.
    pub fn engine(&self) -> Engine {
        Engine::with_model(self.spec.net_config(), self.build_model())
    }

    /// Like [`Self::engine`] but with the thread count overridden — an
    /// execution-layout knob that by construction cannot change results
    /// (and is therefore *not* echoed into [`crate::RunRecord`]s).
    pub fn engine_with_threads(&self, threads: usize) -> Engine {
        Engine::with_model(
            self.spec.net_config().with_threads(threads.max(1)),
            self.build_model(),
        )
    }

    /// Clamped BFS source (a spec written for a larger `n` stays usable).
    pub fn source(&self) -> NodeId {
        self.spec
            .source
            .min(self.graph.n().saturating_sub(1) as NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builds_deterministic_graph() {
        let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 64, 7);
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.graph.n(), 64);
        assert_eq!(a.graph.m(), b.graph.m());
        assert_eq!(a.weighted().m(), a.graph.m());
        // lazy weights are deterministic too
        assert_eq!(a.weighted(), b.weighted());
    }

    #[test]
    fn huge_family_specs_build_and_round_trip() {
        for family in [
            FamilySpec::Rmat { edge_factor: 8 },
            FamilySpec::Hyperbolic {
                alpha: 0.75,
                c: 0.0,
            },
        ] {
            let spec = ScenarioSpec::new(family, 256, 13);
            let scn = spec.build().unwrap();
            assert_eq!(scn.graph.n(), 256);
            assert!(scn.graph.m() > 0, "{} generated no edges", spec.label());
            let json = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back);
            // deterministic rebuild
            assert_eq!(scn.graph, spec.build().unwrap().graph);
        }
    }

    #[test]
    fn grid_spec_validates_node_count() {
        let mut spec = ScenarioSpec::grid(4, 8, 1);
        assert_eq!(spec.n, 32);
        assert!(spec.build().is_ok());
        spec.n = 33;
        assert!(matches!(spec.build(), Err(RunnerError::Scenario(_))));
    }

    #[test]
    fn provided_family_cannot_regenerate() {
        let spec = ScenarioSpec::new(FamilySpec::Provided, 8, 1);
        assert!(spec.build_graph().is_err());
        let scn = Scenario::from_graph(spec, gen::path(8));
        assert_eq!(scn.graph.n(), 8);
        assert_eq!(scn.spec.n, 8);
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = ScenarioSpec::new(FamilySpec::Forests { k: 3 }, 128, 42)
            .with_weight_max(1000)
            .with_threads(4)
            .with_source(5);
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn engines_from_same_spec_are_identical() {
        let spec = ScenarioSpec::new(FamilySpec::Star, 32, 9);
        let scn = spec.build().unwrap();
        assert_eq!(scn.engine().config().seed, 9);
        assert_eq!(scn.engine_with_threads(8).config().threads, 8);
        assert_eq!(scn.engine_with_threads(8).config().seed, 9);
    }

    #[test]
    fn model_field_instantiates_every_model() {
        let base = ScenarioSpec::new(FamilySpec::Gnp { p: 0.1 }, 32, 4);
        for (model, name) in [
            (ModelSpec::Ncc, "ncc"),
            (
                ModelSpec::CongestedClique { edge_cap: 4 },
                "congested-clique",
            ),
            (
                ModelSpec::KMachine {
                    k: 4,
                    link_capacity: 1,
                },
                "kmachine",
            ),
            (ModelSpec::HybridLocal { local_edge_cap: 2 }, "hybrid"),
        ] {
            let spec = base.clone().with_model(model);
            let scn = spec.build().unwrap();
            assert_eq!(scn.build_model().name(), name);
            assert_eq!(scn.engine().model().name(), name);
        }
    }

    #[test]
    fn congested_clique_model_unbinds_capacity() {
        let spec = ScenarioSpec::new(FamilySpec::Path, 16, 1)
            .with_model(ModelSpec::CongestedClique { edge_cap: 8 });
        assert_eq!(spec.capacity, Capacity::unbounded());
        assert!(spec.label().contains("model=congested-clique"));
        // Ncc specs keep the default capacity and an unsuffixed label
        let ncc = ScenarioSpec::new(FamilySpec::Path, 16, 1);
        assert_eq!(ncc.capacity, Capacity::default_for(16));
        assert!(!ncc.label().contains("model="));
    }

    #[test]
    fn hybrid_model_uses_scenario_adjacency() {
        let spec = ScenarioSpec::new(FamilySpec::Path, 8, 2)
            .with_model(ModelSpec::HybridLocal { local_edge_cap: 1 });
        let scn = spec.build().unwrap();
        let model = scn.build_model();
        let hybrid = model
            .as_any()
            .downcast_ref::<HybridLocal>()
            .expect("hybrid model");
        assert_eq!(hybrid.local_edges(), scn.graph.m());
        assert!(hybrid.is_local(0, 1));
        assert!(!hybrid.is_local(0, 7));
    }

    #[test]
    fn spec_with_model_json_round_trips() {
        let spec = ScenarioSpec::new(FamilySpec::Tree, 64, 7).with_model(ModelSpec::KMachine {
            k: 8,
            link_capacity: 2,
        });
        let json = serde_json::to_string(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
