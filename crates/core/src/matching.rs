//! Maximal Matching (§5.3, Theorem 5.4): `O((a + log n) log n)`.
//!
//! Israeli–Itai \[31\] over the primitives, phase by phase:
//!
//! 1. every unmatched node multicasts a pick-me packet over its broadcast
//!    tree; the Multi-Aggregation leaves annotate each delivered copy with
//!    a uniform random rank, and the annotated-minimum aggregate leaves
//!    each receiver with a **uniformly random unmatched neighbor** — the
//!    paper's modified Multi-Aggregation, verbatim;
//! 2. nodes chosen by several neighbors accept one (Aggregation, MIN over
//!    chooser ids) and notify the accepted chooser directly — the result is
//!    a collection of paths and cycles;
//! 3. every node on a path/cycle proposes to one of its ≤ 2 incident
//!    chain edges at random; mutual proposals join the matching.
//!
//! `O(log n)` phases suffice w.h.p. (Corollary 3.5 of \[31\] + Chernoff).
//!
//! Each phase is declared as two protocol [`Dag`]s (the second is skipped
//! once the termination consensus comes back empty): pick → accept ∥ check,
//! where the accept Aggregation and the termination A&B are an antichain the
//! scheduler packs into one mux — the same fusion the hand-wired lane code
//! did explicitly — then notify → propose over round-1 scheduled
//! exchanges, whose stages end on the clock (a pad) instead of a barrier.

use ncc_butterfly::{
    ab_sub, aggregation_sub, lane_seed, multi_aggregate_sub, AggregationSpec, Dag, GroupId, MaxU64,
    MinByKey, MinU64, SchedReport,
};
use ncc_graph::Graph;
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, ModelError, NodeId};
use rand::Rng;

use crate::broadcast_trees::{neighborhood_group, BroadcastTrees};
use crate::report::AlgoReport;
use crate::support::schedule_sub;

/// Output of the distributed maximal matching.
#[derive(Debug, Clone)]
pub struct MatchingResult {
    /// `mate[u]` is `Some(v)` iff edge `{u, v}` is in the matching.
    pub mate: Vec<Option<NodeId>>,
    pub phases: u32,
    pub report: AlgoReport,
    /// The scheduler's packing plan across all phases.
    pub plan: SchedReport,
}

/// Runs Israeli–Itai maximal matching over prebuilt broadcast trees.
pub fn maximal_matching(
    engine: &mut Engine,
    shared: &SharedRandomness,
    bt: &BroadcastTrees,
    g: &Graph,
) -> Result<MatchingResult, ModelError> {
    let n = engine.n();
    assert_eq!(n, g.n());
    let logn = ncc_model::ilog2_ceil(n).max(1);
    let mut report = AlgoReport::default();
    let mut plan = SchedReport::default();

    let mut mate: Vec<Option<NodeId>> = vec![None; n];
    let max_phases = 8 * logn + 24;

    let mut phase: u32 = 0;
    loop {
        phase += 1;
        assert!(
            phase <= max_phases,
            "matching did not converge in {max_phases} phases"
        );

        // --- step 1: random unmatched neighbor via annotated-min ----------
        let mut messages: Vec<Option<(GroupId, u64)>> = vec![None; n];
        for u in 0..n {
            if mate[u].is_none() {
                messages[u] = Some((neighborhood_group(u as NodeId), u as u64));
            }
        }
        let pick_seed = lane_seed(engine, 0x6d6d_0001, phase as u64);
        let accept_seed = lane_seed(engine, 0x6d6d_0002, phase as u64);
        let trees = &bt.trees;

        let mut dag = Dag::new();
        let picks = dag.proto(
            format!("p{phase}:pick"),
            &[],
            // the leaf l(i,u) annotates with r ∈ [0,1] (here: 24 random
            // bits), exactly as §5.3 prescribes
            move |_| {
                multi_aggregate_sub(
                    n,
                    shared,
                    trees,
                    messages,
                    |rng, _g, _member, v| ((rng.gen::<u64>() >> 40), *v),
                    &MinByKey,
                    pick_seed,
                )
            },
            |s| s.into_results(),
        );
        // pick(u): a uniformly random unmatched neighbor (None if no
        // unmatched neighbor remains). Matched nodes ignore deliveries.
        let choose_mate = mate.clone();
        let choose = dag.compute(format!("p{phase}:choose"), &[picks.into()], move |d| {
            let picks = d.get(picks);
            (0..n)
                .map(|u| {
                    if choose_mate[u].is_none() {
                        picks[u].map(|(_, v)| v as NodeId)
                    } else {
                        None
                    }
                })
                .collect::<Vec<Option<NodeId>>>()
        });
        // --- step 2 ∥ termination: accept one chooser (MIN id) while the
        // "anyone still pairable?" consensus rides the same rounds — both
        // depend only on `choose`, so they are an antichain the scheduler
        // packs into one mux. When the check comes back empty the accept
        // output is empty too (no picks, no memberships) and the phase ends.
        let accept = dag.proto(
            format!("p{phase}:accept"),
            &[choose.into()],
            move |d| {
                let pick = d.get(choose);
                let memberships: Vec<Vec<(GroupId, u64)>> = (0..n)
                    .map(|u| match pick[u] {
                        Some(v) => vec![(GroupId::new(v, 9), u as u64)],
                        None => Vec::new(),
                    })
                    .collect();
                aggregation_sub(
                    n,
                    shared,
                    AggregationSpec {
                        memberships,
                        ell2_hat: 1,
                    },
                    &MinU64,
                    accept_seed,
                )
            },
            |s| s.into_results(),
        );
        let check = dag.proto(
            format!("p{phase}:check"),
            &[choose.into()],
            move |d| {
                let pick = d.get(choose);
                let inputs: Vec<Option<u64>> = (0..n)
                    .map(|u| if pick[u].is_some() { Some(1) } else { None })
                    .collect();
                ab_sub(n, inputs, &MaxU64)
            },
            |s| s.into_results(),
        );
        let mut run = report.run_dag(format!("phase{phase}:select"), dag, engine, &mut plan)?;
        let pick = run.take(choose);
        let accepted_in = run.take(accept);
        let still_pairable = run.take(check)[0].is_some();
        if !still_pairable {
            break;
        }
        // acc(v): the chooser v accepts (only meaningful for unmatched v)
        let acc: Vec<Option<NodeId>> = (0..n)
            .map(|v| {
                if mate[v].is_none() {
                    accepted_in[v].first().map(|&(_, u)| u as NodeId)
                } else {
                    None
                }
            })
            .collect();

        // --- step 3 as a second DAG: notify the accepted chooser, then the
        // chain nodes propose to one incident chain edge at random ---------
        let eseed = engine.config().seed;
        let notify_acc = acc.clone();
        let mut dag = Dag::new();
        // v → acc(v); receiver u learns its pick was accepted, i.e. the
        // chain edge (u → pick(u)) exists
        let notify = dag.proto(
            format!("p{phase}:notify"),
            &[],
            move |_| {
                let schedules: Vec<Vec<(u64, NodeId, u64)>> = (0..n)
                    .map(|v| match notify_acc[v] {
                        Some(u) => vec![(1, u, 1)],
                        None => Vec::new(),
                    })
                    .collect();
                schedule_sub(n, schedules, Some(1))
            },
            |s| s.into_results(),
        );
        // chain neighbors of x: `out` = pick(x) if accepted, `in` = acc(x)
        let chain_pick = pick.clone();
        let chain = dag.compute(format!("p{phase}:chain"), &[notify.into()], move |d| {
            let notifs = d.get(notify);
            let mut chain: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            for x in 0..n {
                if notifs[x].iter().any(|&(src, _)| Some(src) == chain_pick[x]) {
                    chain[x].push(chain_pick[x].unwrap());
                }
                if let Some(c) = acc[x] {
                    if !chain[x].contains(&c) {
                        chain[x].push(c);
                    }
                }
            }
            let schedules: Vec<Vec<(u64, NodeId, u64)>> = (0..n)
                .map(|x| {
                    if chain[x].is_empty() {
                        return Vec::new();
                    }
                    let mut rng = ncc_model::rng::node_rng(
                        eseed ^ 0x4d4d_5000 ^ ((phase as u64) << 32),
                        x as u32,
                    );
                    let t = chain[x][rng.gen_range(0..chain[x].len())];
                    vec![(1, t, 2)]
                })
                .collect();
            // remember who we proposed to (local knowledge)
            let proposed: Vec<Option<NodeId>> = schedules
                .iter()
                .map(|s| s.first().map(|&(_, t, _)| t))
                .collect();
            (schedules, proposed)
        });
        let propose = dag.proto(
            format!("p{phase}:propose"),
            &[chain.into()],
            move |d| {
                let (schedules, _) = d.get(chain);
                schedule_sub(n, schedules.clone(), Some(1))
            },
            |s| s.into_results(),
        );
        let mut run = report.run_dag(format!("phase{phase}:resolve"), dag, engine, &mut plan)?;
        let (_, proposed) = run.take(chain);
        let props = run.take(propose);

        for x in 0..n {
            if let Some(y) = proposed[x] {
                // mutual proposal ⇒ matched
                if props[x].iter().any(|&(src, _)| src == y) {
                    mate[x] = Some(y);
                }
            }
        }
    }

    Ok(MatchingResult {
        mate,
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

    fn run(g: &Graph, seed: u64) -> MatchingResult {
        let mut eng = Engine::new(NetConfig::new(g.n(), seed));
        let shared = SharedRandomness::new(seed ^ 0x99A);
        let (bt, _) = build_broadcast_trees(&mut eng, &shared, g).unwrap();
        maximal_matching(&mut eng, &shared, &bt, g).unwrap()
    }

    fn assert_valid(g: &Graph, r: &MatchingResult) {
        check::check_matching(g, &r.mate).unwrap_or_else(|e| panic!("invalid matching: {e}"));
    }

    #[test]
    fn single_edge() {
        let g = Graph::from_edges(8, [(2, 5)]);
        let r = run(&g, 1);
        assert_valid(&g, &r);
        assert_eq!(r.mate[2], Some(5));
        assert_eq!(r.mate[5], Some(2));
    }

    #[test]
    fn star_matches_exactly_one_leaf() {
        let g = gen::star(32);
        let r = run(&g, 2);
        assert_valid(&g, &r);
        assert!(r.mate[0].is_some());
        let matched = r.mate.iter().filter(|m| m.is_some()).count();
        assert_eq!(matched, 2);
    }

    #[test]
    fn path_matching_maximal() {
        let g = gen::path(25);
        let r = run(&g, 3);
        assert_valid(&g, &r);
    }

    #[test]
    fn complete_graph_perfect_matching() {
        let g = gen::complete(16);
        let r = run(&g, 4);
        assert_valid(&g, &r);
        // maximal on K_16 is perfect
        assert!(r.mate.iter().all(Option::is_some));
    }

    #[test]
    fn random_graphs_valid() {
        for seed in 0..3 {
            let g = gen::gnp(48, 0.12, seed);
            let r = run(&g, 20 + seed);
            assert_valid(&g, &r);
            assert!(r.phases <= 40, "phases {}", r.phases);
        }
    }

    #[test]
    fn empty_graph_trivial() {
        let g = Graph::empty(12);
        let r = run(&g, 5);
        assert_valid(&g, &r);
        assert!(r.mate.iter().all(Option::is_none));
        assert_eq!(r.phases, 1);
    }

    #[test]
    fn bounded_arboricity_graph() {
        let g = gen::forest_union(64, 4, 6);
        let r = run(&g, 7);
        assert_valid(&g, &r);
    }
}
