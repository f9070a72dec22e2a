//! The Orientation Algorithm (§4): an `O(a)`-orientation in
//! `O((a + log n) log n)` rounds (Theorem 4.12).
//!
//! The algorithm peels the graph Nash-Williams-style (following Barenboim–
//! Elkin \[4\]): in each phase, nodes whose *residual degree* `dᵢ(u)` (edges
//! to non-inactive neighbors) is at most twice the average become **active**,
//! direct all their still-undirected edges away from themselves, and turn
//! **inactive**; at least half of the remaining nodes retire per phase
//! (Lemma 4.1), and residual averages stay ≤ 2a, so outdegrees are `O(a)`.
//!
//! The distributed difficulty is that an activating node must learn *which
//! of its neighbors are already inactive* without touching each edge — that
//! is §4.1's **Identification Algorithm**, a peeling sketch (an invertible-
//! Bloom-lookup-style structure built from `(XOR of arc ids, count)` pairs
//! per random trial) computed with one Aggregation run. Per phase:
//!
//! * **Stage 1** — inactive nodes report themselves to their out-neighbors
//!   (Aggregation, SUM); everyone computes `dᵢ(u)`, the average `d̄ᵢ` and the
//!   maximum `d*ᵢ` over active nodes (two Aggregate-and-Broadcasts).
//! * **Stage 2, step 1** — Identification with `s = c` trials-per-arc and
//!   `q = 4ecd*log n` trial buckets: every active node peels red (non-
//!   inactive) arcs out of the sketch; w.h.p. at most `log n` per node
//!   survive (Lemma 4.4).
//! * **Stage 2, step 2** — unsuccessful nodes with many inactive neighbors
//!   (`U_high`) broadcast their ids (gather-and-broadcast) and get direct
//!   responses from their active/waiting neighbors in randomised rounds;
//!   the remaining `U_low` nodes narrow the players' candidate sets with a
//!   multicast and re-run Identification with `s = c log n`,
//!   `q = 4ec log² n` (Lemma 4.5). We iterate this step until an
//!   Aggregate-and-Broadcast confirms global success — a small-`n`
//!   robustness guard; the paper's w.h.p. analysis gives one iteration.
//! * **Stage 3** — red edges rendezvous at `h(id(e))` in round `r(id(e))`;
//!   edges whose both endpoints probe are active–active (same level), the
//!   rest lead to waiting (higher-level) neighbors.
//!
//! Besides the orientation itself, the result records each node's **level**
//! and per-neighbor level classification (lower/same/higher), which §5.4's
//! coloring consumes.
//!
//! Each phase is declared as a handful of protocol [`Dag`]s whose antichains
//! the scheduler packs: the phase-1 Δ agreement rides stage 1's
//! aggregation, the d* agreement rides the identification, and every
//! consensus (`avg`, `flags`, `continue`) hangs off a compute node so it
//! runs as a solo A&B stage in the barrier slot of the stage before it —
//! one barrier fewer per consensus than the old blocking calls.

use std::cell::OnceCell;

use ncc_butterfly::{
    ab_sub, aggregation_sub, lane_seed, multicast_setup_sub, multicast_sub, AggregationSpec, Dag,
    GroupId, MaxU64, SchedReport, SumPair, SumU64, XorSum,
};
use ncc_graph::Graph;
use ncc_hashing::{FxHashMap, FxHashSet, PolyHash, SharedRandomness};
use ncc_model::{Engine, ModelError, NodeId};
use rand::Rng;

use crate::report::AlgoReport;
use crate::support::{
    arc_id, broadcast_sub, edge_id, gather_sub, node_id_bits, rendezvous_sub, schedule_sub,
};

/// Where a neighbor sits relative to a node's own level (§5.4 needs this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelClass {
    /// Neighbor became inactive in an earlier phase (edge points here).
    Lower,
    /// Neighbor activated in the same phase (direction by identifier).
    Same,
    /// Neighbor was still waiting (edge points away from this node).
    Higher,
}

/// Output of the Orientation Algorithm.
#[derive(Debug, Clone)]
pub struct OrientationResult {
    /// Per node: neighbors its edges point *to* (outdegree = `O(a)`).
    pub out_neighbors: Vec<Vec<NodeId>>,
    /// Per node: the phase in which it retired (1-based level index).
    pub levels: Vec<u32>,
    /// Per node: level classification of each neighbor, learned during the
    /// node's active phase.
    pub neighbor_class: Vec<FxHashMap<NodeId, LevelClass>>,
    /// Number of phases executed (Lemma 4.1: `O(log n)`).
    pub phases: u32,
    /// `d* = maxᵢ d*ᵢ = O(a)` — the residual-degree bound all later stages
    /// use as their common-knowledge `O(a)` estimate.
    pub d_star: usize,
    /// Maximum degree Δ, agreed in-model at the start (the honest bound on
    /// sketch groups per learner that keys the identification delivery
    /// windows; consumers like the broadcast-tree setup reuse it as `ℓ̂`).
    pub max_degree: usize,
    /// Total lane-stages executed by composed (multiplexed) runs.
    pub lane_stages: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across all phases.
    pub plan: SchedReport,
}

impl OrientationResult {
    /// Flattens into a directed edge list (each input edge exactly once).
    pub fn directed_edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for (u, nbrs) in self.out_neighbors.iter().enumerate() {
            for &v in nbrs {
                out.push((u as NodeId, v));
            }
        }
        out
    }

    /// Maximum outdegree of the computed orientation.
    pub fn max_outdegree(&self) -> usize {
        self.out_neighbors.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Identification constant `c` (> the paper's requirement of small
/// constants; governs trial counts).
const C_IDENT: usize = 6;
/// Euler's constant rounded up, used in the `q = 4ec·…` bucket counts.
const E_UP: usize = 3;
/// Robustness cap on step-2 re-identification iterations.
const MAX_REIDENT: usize = 6;

#[derive(Debug, Clone, Default)]
struct NodeState {
    inactive: bool,
    level: u32,
    out: Vec<NodeId>,
    class: FxHashMap<NodeId, LevelClass>,
    /// Potentially-learning out-neighbors while playing (the Higher-class
    /// neighbors recorded at activation).
    pl: Vec<NodeId>,
}

/// Runs the Orientation Algorithm on input graph `g` (the engine's `n`
/// must equal `g.n()`).
pub fn orient(
    engine: &mut Engine,
    shared: &SharedRandomness,
    g: &Graph,
) -> Result<OrientationResult, ModelError> {
    let n = engine.n();
    assert_eq!(n, g.n(), "input graph must live on the network's node set");
    assert!(n >= 2, "orientation needs n ≥ 2");
    let idb = node_id_bits(n);
    let logn = ncc_model::ilog2_ceil(n).max(1) as usize;
    let k = SharedRandomness::k_for(n);

    let mut report = AlgoReport::default();
    let mut plan = SchedReport::default();
    let mut nodes: Vec<NodeState> = vec![NodeState::default(); n];
    let mut d_star_global: usize = 0;
    let mut delta: usize = 0; // Δ, agreed during phase 1's first composition
    let max_phases = 2 * logn as u32 + 10;

    let mut phase: u32 = 0;
    loop {
        phase += 1;
        if phase > max_phases {
            return Err(ModelError::RoundLimitExceeded {
                limit: max_phases as u64,
            });
        }
        let pl = phase as u64;

        // =================== Stage 1: residual degrees ====================
        // Inactive nodes report a 1 to every out-neighbor. In phase 1, the
        // Δ agreement (max degree — every node's input is local) rides the
        // same rounds as an extra lane; the residual-average consensus hangs
        // off the residual compute node as a barrier-free solo stage.
        let memberships: Vec<Vec<(GroupId, u64)>> = nodes
            .iter()
            .map(|st| {
                if st.inactive {
                    st.out.iter().map(|&w| (GroupId::new(w, 0), 1u64)).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let counts_seed = lane_seed(engine, 0x6f72_6901, pl);
        let inactive: Vec<bool> = nodes.iter().map(|st| st.inactive).collect();

        let mut dag = Dag::new();
        let counts = dag.proto(
            format!("p{phase}:counts"),
            &[],
            move |_| {
                aggregation_sub(
                    n,
                    shared,
                    AggregationSpec {
                        memberships,
                        ell2_hat: 1,
                    },
                    &SumU64,
                    counts_seed,
                )
            },
            |s| s.into_results(),
        );
        let delta_node = (phase == 1).then(|| {
            let delta_inputs: Vec<Option<u64>> =
                (0..n).map(|u| Some(g.degree(u as NodeId) as u64)).collect();
            dag.proto(
                format!("p{phase}:delta"),
                &[],
                move |_| ab_sub(n, delta_inputs, &MaxU64),
                |s| s.into_results(),
            )
        });
        let di_inactive = inactive.clone();
        let di_node = dag.compute(format!("p{phase}:residuals"), &[counts.into()], move |d| {
            let counts = d.get(counts);
            let mut di: Vec<usize> = vec![0; n];
            for u in 0..n {
                if di_inactive[u] {
                    continue;
                }
                let inactive_nbrs: u64 = counts[u].iter().map(|(_, v)| *v).sum();
                di[u] = g.degree(u as NodeId) - inactive_nbrs as usize;
            }
            di
        });
        // Average over nodes with positive residual degree.
        let avg = dag.proto(
            format!("p{phase}:avg"),
            &[di_node.into()],
            move |d| {
                let di = d.get(di_node);
                let inputs: Vec<Option<(u64, u64)>> = (0..n)
                    .map(|u| {
                        if !inactive[u] && di[u] > 0 {
                            Some((di[u] as u64, 1))
                        } else {
                            None
                        }
                    })
                    .collect();
                ab_sub(n, inputs, &SumPair)
            },
            |s| s.into_results(),
        );
        let mut run = report.run_dag(format!("p{phase}:stage1"), dag, engine, &mut plan)?;
        let di = run.take(di_node);
        if let Some(dn) = delta_node {
            delta = run.take(dn)[0].unwrap_or(0) as usize;
        }
        let avg = run.take(avg)[0]; // identical at every node

        // Nodes whose residual degree hit zero retire immediately: all their
        // edges are already directed (toward them), so they know everything.
        for u in 0..n {
            if !nodes[u].inactive && di[u] == 0 {
                let st = &mut nodes[u];
                st.inactive = true;
                st.level = phase;
                for &v in g.neighbors(u as NodeId) {
                    st.class.insert(v, LevelClass::Lower);
                }
            }
        }
        let Some((sum_di, cnt)) = avg else {
            // no node with positive residual degree remains — done
            report.push(format!("p{phase}:done"), Default::default());
            break;
        };

        // Status: active iff dᵢ(u) ≤ 2·d̄ᵢ  ⇔  dᵢ(u)·cnt ≤ 2·Σdᵢ.
        let is_active: Vec<bool> = (0..n)
            .map(|u| !nodes[u].inactive && di[u] > 0 && (di[u] as u64) * cnt <= 2 * sum_di)
            .collect();

        // The exact d*ᵢ = max residual degree among active nodes is still
        // agreed in-model (stage-3 windows and the exported `d_star` use
        // it), but the identification below no longer *waits* for it: the
        // trial-bucket count is keyed by the already-known upper bound
        // `min(2·d̄ᵢ, Δ) ≥ d*ᵢ` (active ⇒ dᵢ ≤ 2·d̄ᵢ), so the d* agreement
        // runs as a lane of the identification's own rounds.
        let d_bound = {
            let avg_bound = (2 * sum_di).div_ceil(cnt).max(1) as usize;
            avg_bound.min(delta.max(1))
        };
        let dstar_inputs: Vec<Option<u64>> = (0..n)
            .map(|u| {
                if is_active[u] {
                    Some(di[u] as u64)
                } else {
                    None
                }
            })
            .collect();

        // ============ Stage 2 step 1: constant-trial identification ========
        // The d* agreement rides the identification's rounds as a second
        // lane; the learner-side peeling is a compute node, and the
        // high/low rescue-flag consensus hangs off it barrier-free.
        let s1 = C_IDENT;
        let q1 = (4 * E_UP * s1 * d_bound * logn).max(16);
        let trial_fns: Vec<PolyHash> = shared.family(
            ncc_hashing::shared::labels::IDENT_TRIALS ^ ((phase as u64) << 20),
            s1,
            k,
        );
        // arc `a`'s trials under `fns`, ascending and distinct, into `out`
        let trials_of = |a: u64, fns: &[PolyHash], q: usize, out: &mut Vec<u32>| {
            out.clear();
            out.extend(fns.iter().map(|f| f.to_range(a, q as u64) as u32));
            out.sort_unstable();
            out.dedup();
        };

        let memberships: Vec<Vec<(GroupId, (u64, u64))>> = nodes
            .iter()
            .enumerate()
            .map(|(v, st)| {
                if !st.inactive {
                    return Vec::new();
                }
                let (mut ms, mut trials) = (Vec::new(), Vec::new());
                for &w in &st.pl {
                    let a = arc_id(w, v as NodeId, idb);
                    trials_of(a, &trial_fns, q1, &mut trials);
                    ms.extend(trials.iter().map(|&t| (GroupId::new(w, t), (a, 1u64))));
                }
                ms
            })
            .collect();
        // Honest delivery bound: a learner `w` is target of at most
        // `s₁ · deg(w) ≤ s₁ · Δ` distinct trial groups (and never more
        // than q₁) — far tighter than q₁ when Δ ≪ d*·log n, which is what
        // keeps the randomized delivery window short.
        let ell2_ident1 = q1.min(s1 * delta.max(1)).max(1);
        let ident_seed = lane_seed(engine, 0x6f72_6902, pl);

        let mut dag = Dag::new();
        let ident = dag.proto(
            format!("p{phase}:ident1"),
            &[],
            move |_| {
                aggregation_sub(
                    n,
                    shared,
                    AggregationSpec {
                        memberships,
                        ell2_hat: ell2_ident1,
                    },
                    &XorSum,
                    ident_seed,
                )
            },
            |s| s.into_results(),
        );
        let dstar = dag.proto(
            format!("p{phase}:dstar"),
            &[],
            move |_| ab_sub(n, dstar_inputs, &MaxU64),
            |s| s.into_results(),
        );
        let peel_active = is_active.clone();
        let peel_di = di.clone();
        let peel_fns = trial_fns;
        let peeled = dag.compute(format!("p{phase}:peel"), &[ident.into()], move |d| {
            let sketches = d.get(ident);
            let mut red: Vec<FxHashSet<NodeId>> = vec![FxHashSet::default(); n];
            let mut unsuccessful: Vec<bool> = vec![false; n];
            for u in 0..n {
                if !peel_active[u] {
                    continue;
                }
                let arcs: Vec<(u64, NodeId)> = g
                    .neighbors(u as NodeId)
                    .iter()
                    .map(|&v| (arc_id(u as NodeId, v, idb), v))
                    .collect();
                let blues: FxHashMap<u32, (u64, u64)> =
                    sketches[u].iter().map(|(gid, v)| (gid.sub(), *v)).collect();
                let found = peel(&arcs, &blues, |a, out| trials_of(a, &peel_fns, q1, out));
                for v in found {
                    red[u].insert(v);
                }
                if red[u].len() < peel_di[u] {
                    unsuccessful[u] = true;
                }
            }
            (red, unsuccessful)
        });
        // Global flags: does anyone need the high/low-degree rescue paths?
        let flags_active = is_active.clone();
        let flags_di = di.clone();
        let flags = dag.proto(
            format!("p{phase}:flags"),
            &[peeled.into()],
            move |d| {
                let (_, unsuccessful) = d.get(peeled);
                let inputs: Vec<Option<(u64, u64)>> = (0..n)
                    .map(|u| {
                        if flags_active[u] && unsuccessful[u] {
                            let high = g.degree(u as NodeId) - flags_di[u] > n / logn;
                            Some((high as u64, (!high) as u64))
                        } else {
                            None
                        }
                    })
                    .collect();
                ab_sub(n, inputs, &SumPair)
            },
            |s| s.into_results(),
        );
        let mut run = report.run_dag(format!("p{phase}:ident1+dstar"), dag, engine, &mut plan)?;
        // the active set is non-empty when Σdᵢ > 0, unless drops lost it
        let d_star_i = run.take(dstar)[0].ok_or(ModelError::WhpEventFailed {
            event: "the d* agreement hears an active node",
        })? as usize;
        debug_assert!(d_star_i <= d_bound, "bound must dominate the exact d*");
        d_star_global = d_star_global.max(d_star_i);
        let (mut red, mut unsuccessful) = run.take(peeled);
        let (any_high, any_low) =
            run.take(flags)[0].map_or((false, false), |(h, l)| (h > 0, l > 0));

        // ============ Stage 2 step 2a: high-degree broadcast path ==========
        // Declared as gather∥broadcast → response schedule (a compute node
        // seeded by the broadcast ids) → scheduled exchange.
        if any_high {
            let high_nodes: Vec<bool> = (0..n)
                .map(|u| {
                    is_active[u] && unsuccessful[u] && g.degree(u as NodeId) - di[u] > n / logn
                })
                .collect();
            let values: Vec<Option<u64>> = (0..n)
                .map(|u| if high_nodes[u] { Some(u as u64) } else { None })
                .collect();
            let eseed = engine.config().seed;
            let sched_inactive: Vec<bool> = nodes.iter().map(|st| st.inactive).collect();

            let mut dag = Dag::new();
            let gathered = dag.proto(
                format!("p{phase}:uhigh-gather"),
                &[],
                move |_| gather_sub(n, values),
                |s| s.into_results(),
            );
            let gb = dag.proto(
                format!("p{phase}:uhigh-bcast"),
                &[gathered.into()],
                move |d| broadcast_sub(n, d.get(gathered).clone()),
                |s| s.into_results(),
            );
            // every active-or-waiting node responds to its U_high neighbors
            // in rounds uniform over {1..max(|R_u|, d*ᵢ)}
            let sched = dag.compute(format!("p{phase}:uhigh-sched"), &[gb.into()], move |d| {
                let high_ids = d.get(gb);
                let high_set: FxHashSet<NodeId> = high_ids.iter().map(|&v| v as NodeId).collect();
                let mut schedules: Vec<Vec<(u64, NodeId, u64)>> = vec![Vec::new(); n];
                for u in 0..n {
                    if sched_inactive[u] {
                        continue;
                    }
                    let ru: Vec<NodeId> = g
                        .neighbors(u as NodeId)
                        .iter()
                        .copied()
                        .filter(|v| high_set.contains(v))
                        .collect();
                    if ru.is_empty() {
                        continue;
                    }
                    let window = ru.len().max(d_star_i).max(1) as u64;
                    let mut rng = ncc_model::rng::node_rng(
                        eseed ^ 0x7568_6967 ^ ((phase as u64) << 32),
                        u as u32,
                    );
                    for v in ru {
                        schedules[u].push((rng.gen_range(1..=window), v, 1));
                    }
                }
                schedules
            });
            let resp = dag.proto(
                format!("p{phase}:uhigh-resp"),
                &[sched.into()],
                move |d| schedule_sub(n, d.get(sched).clone(), None),
                |s| s.into_results(),
            );
            let mut run = report.run_dag(format!("p{phase}:uhigh"), dag, engine, &mut plan)?;
            let responses = run.take(resp);
            for u in 0..n {
                if high_nodes[u] {
                    red[u] = responses[u].iter().map(|&(src, _)| src).collect();
                    unsuccessful[u] = false;
                    debug_assert_eq!(red[u].len(), di[u], "U_high node {u} red-set mismatch");
                }
            }
        }

        // ============ Stage 2 step 2b: low-degree re-identification ========
        if any_low {
            // narrow the players' candidate sets: inactive nodes join the
            // multicast group of every potentially-learning out-neighbor;
            // U_low nodes announce themselves down those trees.
            let joins: Vec<Vec<(GroupId, NodeId)>> = nodes
                .iter()
                .enumerate()
                .map(|(v, st)| {
                    if st.inactive {
                        st.pl
                            .iter()
                            .map(|&w| (GroupId::new(w, 1), v as NodeId))
                            .collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let trees_seed = lane_seed(engine, 0x6f72_6903, pl);
            let mc_seed = lane_seed(engine, 0x6f72_6904, pl);
            let messages: Vec<Option<(GroupId, u64)>> = (0..n)
                .map(|u| {
                    if is_active[u] && unsuccessful[u] {
                        Some((GroupId::new(u as u32, 1), 1))
                    } else {
                        None
                    }
                })
                .collect();
            let ell_hat = d_star_global.max(1);

            // The freshly built trees outlive the DAG in this cell, so the
            // announcement reads them in place (a node's output lives only
            // as long as a build closure's `Deps` borrow).
            let recorded = OnceCell::new();
            let mut dag = Dag::new();
            let trees = dag.proto(
                format!("p{phase}:ulow-trees"),
                &[],
                move |_| multicast_setup_sub(n, shared, joins, trees_seed),
                |s| recorded.set(s.into_results()).expect("recorded once"),
            );
            let flagged = dag.proto(
                format!("p{phase}:ulow-mc"),
                &[trees.into()],
                |_| {
                    let trees = recorded.get().expect("ulow-trees finished first");
                    multicast_sub(n, shared, trees, messages, ell_hat, mc_seed)
                },
                |s| s.into_results(),
            );
            let mut run = report.run_dag(format!("p{phase}:ulow"), dag, engine, &mut plan)?;
            let flagged = run.take(flagged);
            let narrowed: Vec<Vec<NodeId>> = flagged
                .iter()
                .map(|f| f.iter().map(|(gid, _)| gid.target()).collect())
                .collect();

            // iterate the log n-trial identification until global success
            let s2 = C_IDENT * logn;
            let q2 = (4 * E_UP * s2 * logn).max(64);
            for iter in 0..MAX_REIDENT {
                let fns: Vec<PolyHash> = shared.family(
                    ncc_hashing::shared::labels::IDENT_TRIALS
                        ^ ((phase as u64) << 20)
                        ^ ((iter as u64 + 1) << 44),
                    s2,
                    k,
                );
                let memberships: Vec<Vec<(GroupId, (u64, u64))>> = (0..n)
                    .map(|v| {
                        if !nodes[v].inactive {
                            return Vec::new();
                        }
                        let (mut ms, mut trials) = (Vec::new(), Vec::new());
                        for &w in &narrowed[v] {
                            // only play for still-unsuccessful learners
                            if !unsuccessful[w as usize] {
                                continue;
                            }
                            let a = arc_id(w, v as NodeId, idb);
                            trials_of(a, &fns, q2, &mut trials);
                            ms.extend(trials.iter().map(|&t| (GroupId::new(w, t), (a, 1u64))));
                        }
                        ms
                    })
                    .collect();
                let ell2_ident2 = q2.min(s2 * delta.max(1)).max(1);
                let re_seed = lane_seed(engine, 0x6f72_6905, (pl << 8) | iter as u64);

                let mut dag = Dag::new();
                let re = dag.proto(
                    format!("p{phase}:ident2.{iter}"),
                    &[],
                    move |_| {
                        aggregation_sub(
                            n,
                            shared,
                            AggregationSpec {
                                memberships,
                                ell2_hat: ell2_ident2,
                            },
                            &XorSum,
                            re_seed,
                        )
                    },
                    |s| s.into_results(),
                );
                let peel_active = is_active.clone();
                let peel_di = di.clone();
                let peel_red = red.clone();
                let peel_unsucc = unsuccessful.clone();
                let peeled =
                    dag.compute(format!("p{phase}:repeel.{iter}"), &[re.into()], move |d| {
                        let sketches = d.get(re);
                        let mut red = peel_red;
                        let mut unsuccessful = peel_unsucc;
                        for u in 0..n {
                            if !peel_active[u] || !unsuccessful[u] {
                                continue;
                            }
                            let arcs: Vec<(u64, NodeId)> = g
                                .neighbors(u as NodeId)
                                .iter()
                                .filter(|&&v| !red[u].contains(&v))
                                .map(|&v| (arc_id(u as NodeId, v, idb), v))
                                .collect();
                            let blues: FxHashMap<u32, (u64, u64)> =
                                sketches[u].iter().map(|(gid, v)| (gid.sub(), *v)).collect();
                            let found = peel(&arcs, &blues, |a, out| trials_of(a, &fns, q2, out));
                            for v in found {
                                red[u].insert(v);
                            }
                            if red[u].len() == peel_di[u] {
                                unsuccessful[u] = false;
                            }
                        }
                        (red, unsuccessful)
                    });
                let check_active = is_active.clone();
                let check = dag.proto(
                    format!("p{phase}:ident2-check.{iter}"),
                    &[peeled.into()],
                    move |d| {
                        let (_, unsuccessful) = d.get(peeled);
                        let inputs: Vec<Option<u64>> = (0..n)
                            .map(|u| {
                                if check_active[u] && unsuccessful[u] {
                                    Some(1)
                                } else {
                                    None
                                }
                            })
                            .collect();
                        ab_sub(n, inputs, &MaxU64)
                    },
                    |s| s.into_results(),
                );
                let mut run =
                    report.run_dag(format!("p{phase}:ident2.{iter}"), dag, engine, &mut plan)?;
                (red, unsuccessful) = run.take(peeled);
                let still = run.take(check);
                if still[0].is_none() {
                    break;
                }
                if iter + 1 == MAX_REIDENT {
                    return Err(ModelError::WhpEventFailed {
                        event: "identification converges",
                    });
                }
            }
        }

        // ===================== Stage 3: edge rendezvous ====================
        let h_node = shared.poly(
            ncc_hashing::shared::labels::STAGE3_NODE ^ ((phase as u64) << 20),
            0,
            k,
        );
        let h_round = shared.poly(
            ncc_hashing::shared::labels::STAGE3_ROUND ^ ((phase as u64) << 20),
            0,
            k,
        );
        let window = d_star_i.max(1) as u64;
        let probes: Vec<Vec<(u64, NodeId, u64)>> = (0..n)
            .map(|u| {
                if !is_active[u] {
                    return Vec::new();
                }
                red[u]
                    .iter()
                    .map(|&v| {
                        let e = edge_id(u as NodeId, v, idb);
                        let node = h_node.to_range(e, n as u64) as NodeId;
                        let round = h_round.to_range(e, window) + 1;
                        (round, node, e)
                    })
                    .collect()
            })
            .collect();
        // The finish-phase edge directing is a compute node on the matched
        // edges, and the continue consensus hangs off it barrier-free — the
        // whole stage is one declared chain: rendezvous → finish → continue.
        let mut dag = Dag::new();
        let rdv = dag.proto(
            format!("p{phase}:stage3"),
            &[],
            move |_| rendezvous_sub(n, probes, idb),
            |s| s.into_results(),
        );
        let finish_nodes = nodes.clone();
        let finish_active = is_active.clone();
        let finish_red = red;
        let finish = dag.compute(format!("p{phase}:finish"), &[rdv.into()], move |d| {
            let matched = d.get(rdv);
            let mut nodes = finish_nodes;
            // ================ finish phase: direct edges ==================
            for u in 0..n {
                if !finish_active[u] {
                    continue;
                }
                let matched_set: FxHashSet<u64> = matched[u].iter().copied().collect();
                let st = &mut nodes[u];
                st.inactive = true;
                st.level = phase;
                let mut pl = Vec::new();
                for &v in g.neighbors(u as NodeId) {
                    if !finish_red[u].contains(&v) {
                        st.class.insert(v, LevelClass::Lower);
                    } else if matched_set.contains(&edge_id(u as NodeId, v, idb)) {
                        st.class.insert(v, LevelClass::Same);
                        if (u as NodeId) < v {
                            st.out.push(v);
                        }
                    } else {
                        st.class.insert(v, LevelClass::Higher);
                        st.out.push(v);
                        pl.push(v);
                    }
                }
                st.pl = pl;
            }
            nodes
        });
        // ================== continue? (barrier + decision) ================
        let cont = dag.proto(
            format!("p{phase}:continue"),
            &[finish.into()],
            move |d| {
                let nodes = d.get(finish);
                let inputs: Vec<Option<u64>> = (0..n)
                    .map(|u| if nodes[u].inactive { None } else { Some(1) })
                    .collect();
                ab_sub(n, inputs, &MaxU64)
            },
            |s| s.into_results(),
        );
        let mut run = report.run_dag(format!("p{phase}:stage3"), dag, engine, &mut plan)?;
        nodes = run.take(finish);
        if run.take(cont)[0].is_none() {
            break;
        }
    }

    // No trailing barrier: both exit paths end with an Aggregate-and-
    // Broadcast (the avg / continue consensus), which already leaves the
    // network quiescent and every node synchronised.
    Ok(OrientationResult {
        out_neighbors: nodes.iter().map(|s| s.out.clone()).collect(),
        levels: nodes.iter().map(|s| s.level).collect(),
        neighbor_class: nodes.into_iter().map(|s| s.class).collect(),
        phases: phase,
        d_star: d_star_global.max(1),
        max_degree: delta,
        lane_stages: plan.lane_stages() as u32,
        report,
        plan,
    })
}

/// The learner-side peeling of §4.1: given the learner's unresolved arcs,
/// the received `(X'(t), x'(t))` blue sketches, and the trial map, identify
/// red arcs by repeatedly extracting trials whose red-count is exactly one.
/// Returns the identified red neighbors.
///
/// `trials_of(a, out)` overwrites `out` with arc `a`'s distinct trials; it
/// is called once per arc (each call evaluates the trial hash functions).
fn peel<F: Fn(u64, &mut Vec<u32>)>(
    arcs: &[(u64, NodeId)],
    blues: &FxHashMap<u32, (u64, u64)>,
    trials_of: F,
) -> Vec<NodeId> {
    // D(t) = X(t) ⊕ X'(t), c(t) = x(t) − x'(t): XOR and count of *red* arcs
    // participating in trial t.
    let mut d: FxHashMap<u32, u64> = FxHashMap::default();
    let mut c: FxHashMap<u32, i64> = FxHashMap::default();
    // arc → (neighbor, index k); arc k's trials are `trials[starts[k]..starts[k + 1]]`
    let mut arc_nbr: FxHashMap<u64, (NodeId, usize)> = FxHashMap::default();
    let (mut trials, mut starts, mut one) = (Vec::new(), vec![0], Vec::new());
    for (k, &(a, v)) in arcs.iter().enumerate() {
        arc_nbr.insert(a, (v, k));
        trials_of(a, &mut one);
        for &t in &one {
            *d.entry(t).or_insert(0) ^= a;
            *c.entry(t).or_insert(0) += 1;
        }
        trials.extend_from_slice(&one);
        starts.push(trials.len());
    }
    for (&t, &(x, cnt)) in blues {
        *d.entry(t).or_insert(0) ^= x;
        *c.entry(t).or_insert(0) -= cnt as i64;
    }
    let mut work: Vec<u32> = c
        .iter()
        .filter(|&(_, &v)| v == 1)
        .map(|(&t, _)| t)
        .collect();
    let mut found = Vec::new();
    while let Some(t) = work.pop() {
        if c.get(&t).copied() != Some(1) {
            continue;
        }
        let a = d[&t];
        // a miss is sketch noise (possible only on hash failure) — stop
        // peeling this trial; other trials may still resolve.
        let Some((nbr, k)) = arc_nbr.remove(&a) else {
            continue;
        };
        found.push(nbr);
        for &t2 in &trials[starts[k]..starts[k + 1]] {
            *d.get_mut(&t2).unwrap() ^= a;
            let slot = c.get_mut(&t2).unwrap();
            *slot -= 1;
            if *slot == 1 {
                work.push(t2);
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_graph::{check, gen};
    use ncc_model::NetConfig;

    fn run(g: &Graph, seed: u64) -> OrientationResult {
        let mut eng = Engine::new(NetConfig::new(g.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0xABCD);
        orient(&mut eng, &shared, g).unwrap()
    }

    fn assert_valid(g: &Graph, res: &OrientationResult, bound: usize) {
        let directed = res.directed_edges();
        check::check_orientation(g, &directed, bound)
            .unwrap_or_else(|e| panic!("invalid orientation: {e}"));
    }

    #[test]
    fn star_orients_with_outdegree_constant() {
        let g = gen::star(32);
        let res = run(&g, 1);
        assert_valid(&g, &res, 2);
        assert!(res.max_outdegree() <= 2, "outdeg {}", res.max_outdegree());
    }

    #[test]
    fn path_and_cycle() {
        for g in [gen::path(40), gen::cycle(40)] {
            let res = run(&g, 2);
            assert_valid(&g, &res, 4 * 2);
        }
    }

    #[test]
    fn tree_low_outdegree() {
        let g = gen::random_tree(64, 5);
        let res = run(&g, 3);
        // arboricity 1 → O(a) with our constants means ≤ 2·d̄ ≤ 4
        assert_valid(&g, &res, 4);
        assert!(res.phases <= 14, "phases {}", res.phases);
    }

    #[test]
    fn grid_planar() {
        let g = gen::grid(8, 8);
        let res = run(&g, 4);
        assert_valid(&g, &res, 8); // a ≤ 2 → 4a = 8
    }

    #[test]
    fn forest_union_scaled_arboricity() {
        let g = gen::forest_union(64, 4, 7);
        let res = run(&g, 5);
        // a ≤ 4 → d* ≤ 4a = 16
        assert_valid(&g, &res, 16);
        assert!(res.d_star <= 16, "d* = {}", res.d_star);
    }

    #[test]
    fn gnp_random_graph() {
        let g = gen::gnp(48, 0.15, 11);
        let res = run(&g, 6);
        let (_, degeneracy_hi) = ncc_graph::analysis::arboricity_bounds(&g);
        assert_valid(&g, &res, 4 * degeneracy_hi.max(1));
    }

    #[test]
    fn empty_graph_trivially_oriented() {
        let g = Graph::empty(16);
        let res = run(&g, 7);
        assert_eq!(res.directed_edges().len(), 0);
        assert_eq!(res.max_outdegree(), 0);
        assert!(res.phases <= 2);
    }

    #[test]
    fn levels_and_classes_consistent() {
        let g = gen::forest_union(48, 3, 9);
        let res = run(&g, 8);
        for u in 0..g.n() as NodeId {
            for &v in g.neighbors(u) {
                let cu = res.neighbor_class[u as usize][&v];
                let (lu, lv) = (res.levels[u as usize], res.levels[v as usize]);
                match cu {
                    LevelClass::Lower => assert!(lv < lu, "{v}@{lv} not lower than {u}@{lu}"),
                    LevelClass::Same => assert_eq!(lv, lu),
                    LevelClass::Higher => assert!(lv > lu),
                }
            }
        }
    }

    #[test]
    fn phase_count_logarithmic() {
        let g = gen::gnp(128, 0.06, 13);
        let res = run(&g, 10);
        // Lemma 4.1: O(log n) phases; generous constant
        assert!(res.phases <= 2 * 7 + 4, "phases {}", res.phases);
    }

    #[test]
    fn deterministic_given_seeds() {
        let g = gen::gnp(40, 0.12, 3);
        let a = run(&g, 42);
        let b = run(&g, 42);
        assert_eq!(a.out_neighbors, b.out_neighbors);
        assert_eq!(a.report.total, b.report.total);
    }

    #[test]
    fn peel_recovers_reds_directly() {
        // unit test of the sketch peeling, independent of the network
        let arcs: Vec<(u64, NodeId)> = (0..20u64).map(|i| (1000 + i * 7, i as NodeId)).collect();
        let trials_of = |a: u64| {
            vec![
                (a % 31) as u32,
                ((a / 31) % 31) as u32,
                ((a / 961) % 31) as u32,
            ]
        };
        // blues = arcs 5..20; reds = arcs 0..5
        let mut blues: FxHashMap<u32, (u64, u64)> = FxHashMap::default();
        for &(a, _) in &arcs[5..] {
            let mut ts = trials_of(a);
            ts.sort_unstable();
            ts.dedup();
            for t in ts {
                let e = blues.entry(t).or_insert((0, 0));
                e.0 ^= a;
                e.1 += 1;
            }
        }
        let dedup_trials = |a: u64, out: &mut Vec<u32>| {
            *out = trials_of(a);
            out.sort_unstable();
            out.dedup();
        };
        let mut found = peel(&arcs, &blues, dedup_trials);
        found.sort_unstable();
        assert_eq!(found, vec![0, 1, 2, 3, 4]);
    }
}
