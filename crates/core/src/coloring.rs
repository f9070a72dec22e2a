//! `O(a)`-Coloring (§5.4, Theorem 5.5): `O((a + log n) log^{3/2} n)`.
//!
//! Following Barenboim–Elkin \[4\], nodes are colored level by level along
//! the §4 orientation partition `L_1 … L_T`, highest level first, running
//! the Color-Random procedure of Kothapalli et al. \[42\] within each level:
//!
//! * every uncolored node of the current level picks a candidate uniformly
//!   from its palette (initially `[2(1+ε)â]`) and announces it to its
//!   **in-neighbors** through the `N_in` multicast trees;
//! * a node that does not hear its own candidate from any same-level
//!   out-neighbor keeps the color permanently and informs its in-neighbors
//!   (Multicast) and out-neighbors (Aggregation over groups
//!   `A_{id(v) ∘ c}`), who strike the color from their palettes;
//! * `O(√log n)` repetitions per level suffice w.h.p. \[42\].
//!
//! Because a node's already-colored neighbors are exactly its `≤ â`
//! higher-level out-neighbors plus `≤ â` same-level neighbors, palettes
//! never empty; the implementation pads the palette to `2â + ⌈â/2⌉ + 2` so
//! the guarantee is non-vacuous at `â = 1` as well.

//!
//! The setup agreements and every repetition are declared as protocol
//! [`Dag`]s: the â/T consensus rides the `N_in` tree build as a packed
//! antichain, and within a repetition the permanent in-neighbor multicast
//! and out-neighbor aggregation (both depending only on the keep decision)
//! are packed into one mux by the scheduler.

use ncc_butterfly::{
    ab_sub, aggregation_sub, lane_seed, multicast_setup_sub, multicast_sub, AggregationSpec, Dag,
    GroupId, MaxU64, MulticastSub, MulticastTrees, SchedReport, SumU64,
};
use ncc_graph::Graph;
use ncc_hashing::{FxHashSet, SharedRandomness};
use ncc_model::{Engine, ModelError, NodeId};
use rand::Rng;

use crate::orientation::{LevelClass, OrientationResult};
use crate::report::AlgoReport;

/// Sub-identifier for the `N_in(u)` multicast groups.
const IN_SUB: u32 = 7;

/// Output of the distributed coloring.
#[derive(Debug, Clone)]
pub struct ColoringResult {
    pub colors: Vec<u32>,
    /// Palette size used — `O(â) = O(a)`.
    pub palette: u32,
    pub levels_processed: u32,
    pub repetitions_total: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across setup and all repetitions.
    pub plan: SchedReport,
}

/// Runs the level-by-level coloring, consuming a §4 orientation.
pub fn coloring(
    engine: &mut Engine,
    shared: &SharedRandomness,
    orientation: &OrientationResult,
    g: &Graph,
) -> Result<ColoringResult, ModelError> {
    let n = engine.n();
    assert_eq!(n, g.n());
    let logn = ncc_model::ilog2_ceil(n).max(1);
    let mut report = AlgoReport::default();
    let mut plan = SchedReport::default();

    // --- setup, declared as one DAG: the â and T agreements and the N_in
    // tree build all depend only on the finished orientation, so they are
    // an antichain the scheduler packs into one execution.
    let ahat_inputs: Vec<Option<u64>> = (0..n)
        .map(|u| {
            let d_l = orientation.neighbor_class[u]
                .values()
                .filter(|c| **c == LevelClass::Same)
                .count();
            let d_out = orientation.out_neighbors[u].len();
            Some(d_l.max(d_out) as u64)
        })
        .collect();
    let level_inputs: Vec<Option<u64>> =
        (0..n).map(|u| Some(orientation.levels[u] as u64)).collect();
    let joins: Vec<Vec<(GroupId, NodeId)>> = orientation
        .out_neighbors
        .iter()
        .enumerate()
        .map(|(u, outs)| {
            outs.iter()
                .map(|&v| (GroupId::new(v, IN_SUB), u as NodeId))
                .collect()
        })
        .collect();
    let trees_seed = lane_seed(engine, 0x636c_7201, 0);
    let mut dag = Dag::new();
    let trees = dag.proto(
        "setup:in-trees",
        &[],
        move |_| multicast_setup_sub(n, shared, joins, trees_seed),
        |s| s.into_results(),
    );
    let ahat = dag.proto(
        "setup:ahat",
        &[],
        move |_| ab_sub(n, ahat_inputs, &MaxU64),
        |s| s.into_results(),
    );
    let level = dag.proto(
        "setup:levels",
        &[],
        move |_| ab_sub(n, level_inputs, &MaxU64),
        |s| s.into_results(),
    );
    let mut run = report.run_dag("in-trees+agree", dag, engine, &mut plan)?;
    let in_trees = run.take(trees);
    let a_hat = run.take(ahat)[0].unwrap_or(0) as usize;
    let t_max = run.take(level)[0].unwrap_or(0) as u32;

    // palette [2(1+ε)â] with ε = ¼, padded so â = 1 stays feasible
    let palette = (2 * a_hat + a_hat.div_ceil(2) + 2) as u32;

    let mut colors: Vec<Option<u32>> = vec![None; n];
    let mut forbidden: Vec<FxHashSet<u32>> = vec![FxHashSet::default(); n];
    let mut reps_total: u32 = 0;

    // levels processed from the top (last activated) down, per §5.4
    for (li, level) in (1..=t_max).rev().enumerate() {
        let mut rep: u32 = 0;
        loop {
            rep += 1;
            reps_total += 1;
            assert!(
                rep <= 6 * logn + 20,
                "level {level} did not color in {rep} repetitions"
            );

            // --- candidates + tentative announcement ----------------------
            let mut cand: Vec<Option<u32>> = vec![None; n];
            let mut messages: Vec<Option<(GroupId, u64)>> = vec![None; n];
            for u in 0..n {
                if orientation.levels[u] == level && colors[u].is_none() {
                    let allowed: Vec<u32> =
                        (0..palette).filter(|c| !forbidden[u].contains(c)).collect();
                    assert!(
                        !allowed.is_empty(),
                        "palette exhausted at node {u} (â = {a_hat})"
                    );
                    let mut rng = ncc_model::rng::node_rng(
                        engine.config().seed
                            ^ 0x434c_5200
                            ^ ((level as u64) << 32)
                            ^ ((rep as u64) << 48),
                        u as u32,
                    );
                    let c = allowed[rng.gen_range(0..allowed.len())];
                    cand[u] = Some(c);
                    messages[u] = Some((GroupId::new(u as u32, IN_SUB), c as u64));
                }
            }
            let tent_seed = lane_seed(engine, 0x636c_7202, ((level as u64) << 16) | rep as u64);
            let perm_in_seed = lane_seed(engine, 0x636c_7203, ((level as u64) << 16) | rep as u64);
            let perm_out_seed = lane_seed(engine, 0x636c_7204, ((level as u64) << 16) | rep as u64);
            let in_trees = &in_trees;
            let levels = &orientation.levels;
            let outs = &orientation.out_neighbors;

            let mut dag = Dag::new();
            let tent = dag.proto(
                format!("l{li}:r{rep}:tentative"),
                &[],
                move |_| in_multicast_sub(n, shared, in_trees, messages, a_hat, tent_seed),
                |s| s.into_results(),
            );
            // u defers iff some same-level uncolored out-neighbor announced
            // u's own candidate (u receives announcements of all x with
            // u ∈ N_in(x), i.e. of its out-neighbors)
            let keep_cand = cand.clone();
            let keep_colors = colors.clone();
            let keeps = dag.compute(format!("l{li}:r{rep}:keep"), &[tent.into()], move |d| {
                let heard = d.get(tent);
                (0..n)
                    .map(|u| {
                        keep_cand[u].is_some_and(|c| {
                            !heard[u].iter().any(|&(src_group, col)| {
                                let x = src_group.target();
                                col as u32 == c
                                    && levels[x as usize] == level
                                    && keep_colors[x as usize].is_none()
                            })
                        })
                    })
                    .collect::<Vec<bool>>()
            });
            // --- permanent announcements: to in-neighbors by multicast, to
            // out-neighbors by aggregation over groups A_{id(v) ∘ c}. Both
            // depend only on `keeps`, so they are an antichain the scheduler
            // packs into one mux.
            let perm_in_cand = cand.clone();
            let perm_in = dag.proto(
                format!("l{li}:r{rep}:perm-mc"),
                &[keeps.into()],
                move |d| {
                    let keeps = d.get(keeps);
                    let messages: Vec<Option<(GroupId, u64)>> = (0..n)
                        .map(|u| {
                            keeps[u].then(|| {
                                (
                                    GroupId::new(u as u32, IN_SUB),
                                    perm_in_cand[u].unwrap() as u64,
                                )
                            })
                        })
                        .collect();
                    in_multicast_sub(n, shared, in_trees, messages, a_hat, perm_in_seed)
                },
                |s| s.into_results(),
            );
            let perm_out_cand = cand.clone();
            let perm_out = dag.proto(
                format!("l{li}:r{rep}:perm-agg"),
                &[keeps.into()],
                move |d| {
                    let keeps = d.get(keeps);
                    let memberships: Vec<Vec<(GroupId, u64)>> = (0..n)
                        .map(|u| {
                            if keeps[u] {
                                let c = perm_out_cand[u].unwrap();
                                outs[u]
                                    .iter()
                                    .map(|&v| (GroupId::new(v, 100 + c), 1u64))
                                    .collect()
                            } else {
                                Vec::new()
                            }
                        })
                        .collect();
                    aggregation_sub(
                        n,
                        shared,
                        AggregationSpec {
                            memberships,
                            ell2_hat: palette as usize,
                        },
                        &SumU64,
                        perm_out_seed,
                    )
                },
                |s| s.into_results(),
            );
            // --- is this level done? The check consumes the keep decision
            // but must run after the announcements (the deps serialise it,
            // exactly like the hand-fused sequence did).
            let check_colors = colors.clone();
            let check = dag.proto(
                format!("l{li}:r{rep}:check"),
                &[keeps.into(), perm_in.into(), perm_out.into()],
                move |d| {
                    let keeps = d.get(keeps);
                    let inputs: Vec<Option<u64>> = (0..n)
                        .map(|u| {
                            (levels[u] == level && check_colors[u].is_none() && !keeps[u])
                                .then_some(1)
                        })
                        .collect();
                    ab_sub(n, inputs, &MaxU64)
                },
                |s| s.into_results(),
            );

            let mut run = report.run_dag(format!("l{li}:r{rep}"), dag, engine, &mut plan)?;
            let keeps = run.take(keeps);
            let perm_in = run.take(perm_in);
            let perm_out = run.take(perm_out);
            let remaining = run.take(check);

            // apply: winners fix their colors; everyone strikes heard colors
            for u in 0..n {
                if keeps[u] {
                    colors[u] = cand[u];
                }
                for &(gid, c) in &perm_in[u] {
                    let _ = gid;
                    forbidden[u].insert(c as u32);
                }
                for &(gid, _count) in &perm_out[u] {
                    forbidden[u].insert(gid.sub() - 100);
                }
            }
            if remaining[0].is_none() {
                break;
            }
        }
    }

    Ok(ColoringResult {
        colors: colors.into_iter().map(|c| c.unwrap_or(0)).collect(),
        palette: palette.max(1),
        levels_processed: t_max,
        repetitions_total: reps_total,
        report,
        plan,
    })
}

/// Multicast lane over the `N_in` trees: thin wrapper fixing the `ℓ̂`
/// bound (members per node ≤ outdegree ≤ â).
fn in_multicast_sub<'a>(
    n: usize,
    shared: &SharedRandomness,
    in_trees: &'a MulticastTrees,
    messages: Vec<Option<(GroupId, u64)>>,
    a_hat: usize,
    seed: u64,
) -> MulticastSub<'a, u64> {
    multicast_sub(n, shared, in_trees, messages, a_hat.max(1), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::orient;
    use ncc_graph::{check, gen};
    use ncc_model::NetConfig;

    fn run(g: &Graph, seed: u64) -> ColoringResult {
        let mut eng = Engine::new(NetConfig::new(g.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0xC01);
        let o = orient(&mut eng, &shared, g).unwrap();
        coloring(&mut eng, &shared, &o, g).unwrap()
    }

    fn assert_valid(g: &Graph, r: &ColoringResult) {
        check::check_coloring(g, &r.colors, r.palette)
            .unwrap_or_else(|e| panic!("invalid coloring: {e}"));
    }

    #[test]
    fn path_few_colors() {
        let g = gen::path(32);
        let r = run(&g, 1);
        assert_valid(&g, &r);
        assert!(r.palette <= 8, "palette {}", r.palette);
    }

    #[test]
    fn star_constant_palette() {
        // star has a = 1 but Δ = n−1: palette must stay O(1)
        let g = gen::star(48);
        let r = run(&g, 2);
        assert_valid(&g, &r);
        assert!(r.palette <= 10, "palette {}", r.palette);
    }

    #[test]
    fn tree_coloring() {
        let g = gen::random_tree(64, 3);
        let r = run(&g, 3);
        assert_valid(&g, &r);
        assert!(r.palette <= 10);
    }

    #[test]
    fn grid_planar_coloring() {
        let g = gen::grid(7, 7);
        let r = run(&g, 4);
        assert_valid(&g, &r);
        // a ≤ 2 → d* ≤ 8ish → palette O(a)
        assert!(r.palette <= 24, "palette {}", r.palette);
    }

    #[test]
    fn forest_union_palette_scales_with_a() {
        let g = gen::forest_union(64, 4, 5);
        let r = run(&g, 5);
        assert_valid(&g, &r);
        // â ≤ 4a = 16 → palette ≤ 2.5·16 + 2
        assert!(r.palette <= 44, "palette {}", r.palette);
    }

    #[test]
    fn random_graph_coloring() {
        let g = gen::gnp(40, 0.1, 6);
        let r = run(&g, 6);
        assert_valid(&g, &r);
    }

    #[test]
    fn empty_graph_trivial() {
        let g = Graph::empty(10);
        let r = run(&g, 7);
        assert_valid(&g, &r);
    }
}
