//! Maximal Independent Set (§5.2, Theorem 5.3): `O((a + log n) log n)`.
//!
//! The algorithm of Métivier, Robson, Saheb-Djahromi and Zemmari \[48\] run
//! over the broadcast trees: each phase, every active node draws a random
//! value and multicasts it to its neighborhood (Multi-Aggregation, MIN);
//! a node strictly below all active neighbors joins the MIS and announces
//! it with a second Multi-Aggregation, deactivating its neighborhood.
//! `O(log n)` phases suffice w.h.p. \[48\]; each phase is `O(a + log n)` by
//! Corollary 1.
//!
//! Each phase is declared as a protocol [`Dag`] — draw → join decision →
//! announce → termination check — and the scheduler serialises the chain
//! (every node depends on its predecessor). The check is an A&B, so it
//! runs in the barrier slot of the announce stage before it.

use ncc_butterfly::{
    ab_sub, lane_seed, multi_aggregate_sub, Dag, GroupId, MaxU64, MinU64, SchedReport,
};
use ncc_graph::Graph;
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, ModelError, NodeId};
use rand::Rng;

use crate::broadcast_trees::{neighborhood_group, BroadcastTrees};
use crate::report::AlgoReport;

/// Output of the distributed MIS.
#[derive(Debug, Clone)]
pub struct MisResult {
    pub in_mis: Vec<bool>,
    pub phases: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across all phases.
    pub plan: SchedReport,
}

/// Runs the MIS algorithm over prebuilt broadcast trees.
pub fn mis(
    engine: &mut Engine,
    shared: &SharedRandomness,
    bt: &BroadcastTrees,
    g: &Graph,
) -> Result<MisResult, ModelError> {
    let n = engine.n();
    assert_eq!(n, g.n());
    let logn = ncc_model::ilog2_ceil(n).max(1);
    let idb = crate::support::node_id_bits(n);
    let mut report = AlgoReport::default();
    let mut plan = SchedReport::default();

    let mut in_mis = vec![false; n];
    let mut active = vec![true; n];
    let max_phases = 8 * logn + 24;

    let mut phase: u32 = 0;
    loop {
        phase += 1;
        assert!(
            phase <= max_phases,
            "MIS did not converge in {max_phases} phases"
        );

        // --- step 1: active nodes draw and multicast random values --------
        // r(u) ∈ [0,1] realised as a 2·log n-bit integer with the node id as
        // tie-break (values are then distinct, as the analysis assumes).
        let mut rvals: Vec<u64> = vec![0; n];
        let mut messages: Vec<Option<(GroupId, u64)>> = vec![None; n];
        for u in 0..n {
            if active[u] {
                let mut rng = ncc_model::rng::node_rng(
                    engine.config().seed ^ 0x4d49_5300 ^ ((phase as u64) << 32),
                    u as u32,
                );
                let r: u64 = rng.gen_range(0..(1u64 << (2 * logn).min(40)));
                rvals[u] = (r << idb) | u as u64;
                messages[u] = Some((neighborhood_group(u as NodeId), rvals[u]));
            }
        }
        let draw_seed = lane_seed(engine, 0x6d69_7301, phase as u64);
        let announce_seed = lane_seed(engine, 0x6d69_7302, phase as u64);
        let trees = &bt.trees;

        let mut dag = Dag::new();
        let draw = dag.proto(
            format!("p{phase}:draw"),
            &[],
            move |_| {
                multi_aggregate_sub(
                    n,
                    shared,
                    trees,
                    messages,
                    |_, _, _, v| *v,
                    &MinU64,
                    draw_seed,
                )
            },
            |s| s.into_results(),
        );
        // a node joins if strictly below the minimum over its *active*
        // neighbors (only active nodes sent, so the delivered MIN is it)
        let pick_active = active.clone();
        let pick_rvals = rvals.clone();
        let pick = dag.compute(format!("p{phase}:pick"), &[draw.into()], move |d| {
            let mins = d.get(draw);
            (0..n)
                .map(|u| {
                    pick_active[u]
                        && match mins[u] {
                            None => true, // no active neighbor left
                            Some(m) => pick_rvals[u] < m,
                        }
                })
                .collect::<Vec<bool>>()
        });
        // --- step 2: joiners announce, neighborhoods deactivate -----------
        let announce = dag.proto(
            format!("p{phase}:announce"),
            &[pick.into()],
            move |d| {
                let joined = d.get(pick);
                let messages: Vec<Option<(GroupId, u64)>> = (0..n)
                    .map(|u| joined[u].then(|| (neighborhood_group(u as NodeId), 1)))
                    .collect();
                multi_aggregate_sub(
                    n,
                    shared,
                    trees,
                    messages,
                    |_, _, _, v| *v,
                    &MaxU64,
                    announce_seed,
                )
            },
            |s| s.into_results(),
        );
        // --- termination consensus ----------------------------------------
        let flag_active = active.clone();
        let flag = dag.compute(
            format!("p{phase}:flag"),
            &[pick.into(), announce.into()],
            move |d| {
                let joined = d.get(pick);
                let hit = d.get(announce);
                (0..n)
                    .map(|u| (flag_active[u] && !joined[u] && hit[u].is_none()).then_some(1u64))
                    .collect::<Vec<Option<u64>>>()
            },
        );
        let check = dag.proto(
            format!("p{phase}:check"),
            &[flag.into()],
            move |d| ab_sub(n, d.get(flag).clone(), &MaxU64),
            |s| s.into_results(),
        );

        let mut run = report.run_dag(format!("phase{phase}"), dag, engine, &mut plan)?;
        let joined = run.take(pick);
        let hit = run.take(announce);
        let any = run.take(check);

        for u in 0..n {
            if joined[u] {
                in_mis[u] = true;
                active[u] = false;
            } else if active[u] && hit[u].is_some() {
                active[u] = false;
            }
        }
        if any[0].is_none() {
            break;
        }
    }

    Ok(MisResult {
        in_mis,
        phases: phase,
        report,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast_trees::build_broadcast_trees;
    use ncc_graph::{check, gen};
    use ncc_model::NetConfig;

    fn run(g: &Graph, seed: u64) -> MisResult {
        let mut eng = Engine::new(NetConfig::new(g.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0x415);
        let (bt, _) = build_broadcast_trees(&mut eng, &shared, g).unwrap();
        mis(&mut eng, &shared, &bt, g).unwrap()
    }

    fn assert_valid(g: &Graph, r: &MisResult) {
        check::check_mis(g, &r.in_mis).unwrap_or_else(|e| panic!("invalid MIS: {e}"));
    }

    #[test]
    fn star_mis() {
        let g = gen::star(48);
        let r = run(&g, 1);
        assert_valid(&g, &r);
        // either the center alone, or all leaves
        if r.in_mis[0] {
            assert_eq!(r.in_mis.iter().filter(|&&b| b).count(), 1);
        } else {
            assert_eq!(r.in_mis.iter().filter(|&&b| b).count(), 47);
        }
    }

    #[test]
    fn path_mis() {
        let g = gen::path(30);
        let r = run(&g, 2);
        assert_valid(&g, &r);
    }

    #[test]
    fn empty_graph_everyone_in() {
        let g = Graph::empty(16);
        let r = run(&g, 3);
        assert_valid(&g, &r);
        assert!(r.in_mis.iter().all(|&b| b));
        assert_eq!(r.phases, 1);
    }

    #[test]
    fn complete_graph_single_winner() {
        let g = gen::complete(24);
        let r = run(&g, 4);
        assert_valid(&g, &r);
        assert_eq!(r.in_mis.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn random_graphs_valid_and_fast() {
        for seed in 0..3 {
            let g = gen::gnp(64, 0.1, seed);
            let r = run(&g, 10 + seed);
            assert_valid(&g, &r);
            assert!(r.phases <= 30, "phases {}", r.phases);
        }
    }

    #[test]
    fn bounded_arboricity_graph() {
        let g = gen::forest_union(96, 3, 5);
        let r = run(&g, 6);
        assert_valid(&g, &r);
    }
}
