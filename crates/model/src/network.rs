//! The pluggable network-model layer: *which* communication model the
//! engine executes.
//!
//! The paper's headline contrast (§1) is between communication **models**:
//! the Node-Capacitated Clique moves `Θ̃(n)` messages per round under
//! per-node caps, the Congested Clique moves `Θ̃(n²)` under per-edge
//! bandwidth, Appendix A prices executions in the k-machine model, and the
//! §1 hybrid setting combines CONGEST-style local edges with the global
//! NCC. A [`NetworkModel`] captures everything that differs between them —
//! who may talk to whom, the per-round send/receive/bandwidth budgets, the
//! drop rules, and the cost accounting — so "which model" is one more
//! scenario dimension instead of a hardcoded engine property.
//!
//! Four implementations ship with the repository:
//!
//! | model                          | node caps        | pairwise budget      | extra accounting            |
//! |--------------------------------|------------------|----------------------|-----------------------------|
//! | [`Ncc`]                        | send + recv      | —                    | —                           |
//! | [`CongestedClique`]            | none             | per-edge `edge_cap`  | `max_edge_load`             |
//! | `KMachineModel` (ncc-kmachine) | send + recv      | per-link charge      | `km_rounds` in `ExecStats`  |
//! | [`HybridLocal`]                | global msgs only | per-local-edge cap   | `max_edge_load` (local)     |
//!
//! The engine's batched delivery pipeline (count → prefix → scatter →
//! sample, see [`crate::router`]) is shared by every model: a model never
//! installs a slow path, it only parameterises the sample phase through a
//! [`RecvPolicy`] and (for lane-splitting models) a per-message [`Lane`]
//! classification. The default [`Ncc`] model reproduces the pre-refactor
//! engine bit for bit.

use std::any::Any;

use serde::{Deserialize, Serialize};

use crate::capacity::Capacity;
use crate::NodeId;

/// One delivered message, as [`NetworkModel::charge_round`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    pub src: NodeId,
    pub dst: NodeId,
}

/// Which kind of link a message travels in models that distinguish the
/// input graph's *local* edges from the *global* clique (the §1 hybrid
/// setting). Models without local edges classify everything as `Global`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// A CONGEST-style edge of the input graph: bypasses the node-level
    /// send/receive caps, but is budgeted per edge per round.
    Local,
    /// The global network: subject to the model's node-level caps.
    Global,
}

/// How the router's sample phase treats each destination's inbox bucket.
///
/// Every variant slots into the same batched pipeline — the policy only
/// decides which messages of an over-full bucket survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvPolicy {
    /// NCC semantics: at most `recv` messages per destination per round; an
    /// over-cap destination receives a seeded-random subset (keyed by
    /// `(seed, round, destination)` — byte-identical to the pre-refactor
    /// engine).
    NodeCap { recv: usize },
    /// No destination-side limit (the pairwise budgets, if any, are the
    /// only constraint). Used by cost-accounting models that deliver
    /// everything and charge rounds instead.
    Unlimited,
    /// Congested-Clique semantics: each ordered edge `(src, dst)` carries at
    /// most `edge_cap` messages per round; the first `edge_cap` arrivals per
    /// sender survive, the rest are dropped by the network. Per-edge loads
    /// are measured honestly (`max_edge_load`).
    EdgeCap { edge_cap: usize },
    /// Hybrid semantics: *local* arrivals (input-graph edges) are budgeted
    /// `local_edge_cap` per directed edge per round; *global* arrivals are
    /// sampled under the NCC receive cap `recv` (seeded exactly like
    /// [`RecvPolicy::NodeCap`], over the global arrivals only).
    Hybrid { recv: usize, local_edge_cap: usize },
}

/// A communication model, pluggable into the engine.
///
/// Implementations must be cheap to consult: `send_cap`/`recv_policy` are
/// called once per round, `lane` once per message but only when
/// [`NetworkModel::uniform_lanes`] is `false`, and `charge_round` once per
/// round but only when [`NetworkModel::wants_delivered_pairs`] is `true` —
/// the default `Ncc` path performs no per-message virtual dispatch at all.
pub trait NetworkModel: Send + Sync {
    /// Short lowercase model name (`ncc`, `congested-clique`, `kmachine`,
    /// `hybrid`).
    fn name(&self) -> &'static str;

    /// Node-level send budget under the configured capacity. The engine
    /// truncates (permissive) or rejects (strict) send batches beyond this;
    /// `usize::MAX` means sends are only pairwise-budgeted.
    fn send_cap(&self, cap: &Capacity) -> usize {
        cap.send
    }

    /// How the route phase treats each destination's bucket.
    fn recv_policy(&self, cap: &Capacity) -> RecvPolicy;

    /// `true` when every message counts against the node-level send cap.
    /// Lane-splitting models return `false` and implement
    /// [`NetworkModel::lane`].
    fn uniform_lanes(&self) -> bool {
        true
    }

    /// Classifies one message. Only consulted when
    /// [`NetworkModel::uniform_lanes`] is `false`.
    fn lane(&self, _src: NodeId, _dst: NodeId) -> Lane {
        Lane::Global
    }

    /// `true` when the model needs the round's delivered `(src, dst)` pairs
    /// for cost accounting; the engine then calls
    /// [`NetworkModel::charge_round`] with them (from a reusable buffer —
    /// no steady-state allocation).
    fn wants_delivered_pairs(&self) -> bool {
        false
    }

    /// Cost accounting over one round's *delivered* messages (dropped ones
    /// are not part of the realized communication). Returns the number of
    /// model rounds this engine round is charged (recorded as `km_rounds`
    /// in [`crate::stats::RoundStats`]); models without extra accounting
    /// return 0.
    ///
    /// Pairs arrive grouped by destination — ascending destination, and
    /// within a destination in `(sender, send order)` — mirroring the
    /// router's inbox arena layout.
    fn charge_round(&mut self, _round: u64, _delivered: &[TraceEvent]) -> u64 {
        0
    }

    /// Clears any accumulated cost-accounting state, returning the model to
    /// its just-constructed condition. Called by [`crate::Engine::reset`]
    /// so a resident engine can be reused across runs with byte-identical
    /// results (the serve layer's cache-hit path). Stateless models keep
    /// the default no-op; models with running counters (the k-machine
    /// charge) must zero them here.
    fn reset(&mut self) {}

    /// Downcast access for callers that need model-specific reports after an
    /// execution (e.g. the k-machine link-load summary).
    fn as_any(&self) -> &dyn Any;
}

// ---------------------------------------------------------------------------
// Ncc — the default model

/// The Node-Capacitated Clique: per-node send/receive caps, seeded-random
/// receive-cap drops. This is the paper's model and the engine default; its
/// executions are byte-identical to the pre-refactor engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ncc;

impl NetworkModel for Ncc {
    fn name(&self) -> &'static str {
        "ncc"
    }

    fn recv_policy(&self, cap: &Capacity) -> RecvPolicy {
        RecvPolicy::NodeCap { recv: cap.recv }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// CongestedClique

/// The Congested Clique: no node-level caps; every ordered edge `(u, v)`
/// carries at most `edge_cap` messages of `O(log n)` bits per round —
/// `Θ̃(n²)` network-wide, against the NCC's `Θ̃(n)`. Excess messages on an
/// edge are dropped by the network (counted per destination), and the
/// per-edge load is measured honestly (`max_edge_load` in the stats) —
/// replacing the old `Capacity::unbounded()` approximation that did no
/// per-edge accounting at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestedClique {
    /// Messages per ordered edge per round (the `Θ̃(1)` bandwidth constant).
    pub edge_cap: usize,
}

impl CongestedClique {
    pub fn new(edge_cap: usize) -> Self {
        CongestedClique {
            edge_cap: edge_cap.max(1),
        }
    }

    /// The repository-default edge bandwidth: `8·⌈log₂ n⌉` messages per
    /// edge per round — the same `Θ̃(1)` constant the NCC uses per node, so
    /// any NCC-legal round is also CC-legal.
    pub fn default_for(n: usize) -> Self {
        Self::new(Capacity::default_for(n).send)
    }
}

impl NetworkModel for CongestedClique {
    fn name(&self) -> &'static str {
        "congested-clique"
    }

    fn send_cap(&self, _cap: &Capacity) -> usize {
        usize::MAX
    }

    fn recv_policy(&self, _cap: &Capacity) -> RecvPolicy {
        RecvPolicy::EdgeCap {
            edge_cap: self.edge_cap,
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// HybridLocal

/// The §1 hybrid setting: nodes own cheap CONGEST-style links along the
/// edges of the *input graph* (each directed edge carries `local_edge_cap`
/// messages per round, outside the node caps) **plus** membership in the
/// global NCC (node-capped as usual). Messages between graph neighbours
/// automatically ride the local edge; everything else pays the global
/// budget.
///
/// The adjacency is stored as its own CSR copy (sorted neighbour slices,
/// binary-search membership) so the model layer stays independent of the
/// graph crate.
#[derive(Debug, Clone)]
pub struct HybridLocal {
    n: usize,
    offsets: Vec<u32>,
    adj: Vec<NodeId>,
    /// Messages per directed local edge per round (CONGEST budget).
    pub local_edge_cap: usize,
}

impl HybridLocal {
    /// Builds the model from an undirected edge list over nodes `0..n`.
    /// Self-loops and duplicates are ignored.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
        local_edge_cap: usize,
    ) -> Self {
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        for (u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "hybrid edge endpoint out of range"
            );
            if u != v {
                pairs.push((u, v));
                pairs.push((v, u));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(u, _) in &pairs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let adj = pairs.into_iter().map(|(_, v)| v).collect();
        HybridLocal {
            n,
            offsets,
            adj,
            local_edge_cap: local_edge_cap.max(1),
        }
    }

    /// Whether `{u, v}` is a local (input-graph) edge.
    #[inline]
    pub fn is_local(&self, u: NodeId, v: NodeId) -> bool {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.adj[lo..hi].binary_search(&v).is_ok()
    }

    /// Number of undirected local edges.
    pub fn local_edges(&self) -> usize {
        self.adj.len() / 2
    }

    pub fn n(&self) -> usize {
        self.n
    }
}

impl NetworkModel for HybridLocal {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn recv_policy(&self, cap: &Capacity) -> RecvPolicy {
        RecvPolicy::Hybrid {
            recv: cap.recv,
            local_edge_cap: self.local_edge_cap,
        }
    }

    fn uniform_lanes(&self) -> bool {
        false
    }

    fn lane(&self, src: NodeId, dst: NodeId) -> Lane {
        if self.is_local(src, dst) {
            Lane::Local
        } else {
            Lane::Global
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

// ---------------------------------------------------------------------------
// ModelSpec — the serializable description

/// Serializable description of a network model: the data a
/// `ScenarioSpec` carries so a JSON file fully names the execution model.
/// Instantiation into a live [`NetworkModel`] happens one layer up (the
/// runner), which owns the input graph (hybrid adjacency) and the node
/// count / seed (k-machine partition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Per-node caps (the paper's model; the default).
    #[default]
    Ncc,
    /// Per-edge bandwidth, no node caps. Scenarios under this model usually
    /// pair it with [`Capacity::unbounded`] so adaptive protocols see the
    /// missing node cap.
    CongestedClique {
        /// Messages per ordered edge per round.
        edge_cap: usize,
    },
    /// NCC execution priced in the k-machine model (Appendix A): random
    /// vertex partition over `k` machines, each inter-machine link carrying
    /// `link_capacity` messages per round; charged rounds appear as
    /// `km_rounds` in the stats.
    KMachine { k: usize, link_capacity: u64 },
    /// CONGEST-style budgets on the input graph's edges plus the global
    /// NCC (§1 hybrid setting).
    HybridLocal {
        /// Messages per directed local edge per round.
        local_edge_cap: usize,
    },
}

impl ModelSpec {
    /// Short lowercase model name, matching the `ncc-cli --model` vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            ModelSpec::Ncc => "ncc",
            ModelSpec::CongestedClique { .. } => "congested-clique",
            ModelSpec::KMachine { .. } => "kmachine",
            ModelSpec::HybridLocal { .. } => "hybrid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncc_policy_mirrors_capacity() {
        let cap = Capacity::default_for(256);
        assert_eq!(Ncc.send_cap(&cap), cap.send);
        assert_eq!(
            Ncc.recv_policy(&cap),
            RecvPolicy::NodeCap { recv: cap.recv }
        );
        assert!(Ncc.uniform_lanes());
        assert!(!Ncc.wants_delivered_pairs());
        assert_eq!(Ncc.charge_round(0, &[]), 0);
    }

    #[test]
    fn congested_clique_unbinds_node_caps() {
        let cap = Capacity::default_for(256);
        let cc = CongestedClique::default_for(256);
        assert_eq!(cc.edge_cap, cap.send);
        assert_eq!(cc.send_cap(&cap), usize::MAX);
        assert_eq!(
            cc.recv_policy(&cap),
            RecvPolicy::EdgeCap { edge_cap: cap.send }
        );
    }

    #[test]
    fn hybrid_classifies_lanes_by_adjacency() {
        let h = HybridLocal::from_edges(5, [(0, 1), (1, 2), (2, 2), (1, 0)], 2);
        assert_eq!(h.local_edges(), 2);
        assert!(h.is_local(0, 1));
        assert!(h.is_local(1, 0));
        assert!(!h.is_local(0, 2));
        assert_eq!(h.lane(1, 2), Lane::Local);
        assert_eq!(h.lane(0, 3), Lane::Global);
        assert!(!h.uniform_lanes());
        let cap = Capacity::default_for(5);
        assert_eq!(
            h.recv_policy(&cap),
            RecvPolicy::Hybrid {
                recv: cap.recv,
                local_edge_cap: 2
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hybrid_rejects_out_of_range_edges() {
        HybridLocal::from_edges(3, [(0, 3)], 1);
    }

    #[test]
    fn model_spec_serde_round_trips() {
        for spec in [
            ModelSpec::Ncc,
            ModelSpec::CongestedClique { edge_cap: 48 },
            ModelSpec::KMachine {
                k: 8,
                link_capacity: 2,
            },
            ModelSpec::HybridLocal { local_edge_cap: 4 },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ModelSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "{json}");
        }
        assert_eq!(ModelSpec::default(), ModelSpec::Ncc);
        assert_eq!(
            ModelSpec::KMachine {
                k: 4,
                link_capacity: 1
            }
            .name(),
            "kmachine"
        );
    }
}
