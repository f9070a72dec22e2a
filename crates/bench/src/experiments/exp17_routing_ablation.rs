//! E17 — ablation of the random-rank contention rule (Appendix B.2).
//!
//! Theorem B.2's delay bound holds for *random* ranks; replacing them with
//! a static priority (rank ≡ 0, ties by group id) lets an unlucky group be
//! starved behind every lower-id group along its path. The effect shows as
//! a growing gap in combining-phase rounds as group contention rises.

use crate::{engine, f2, Table, SEED};
use ncc_butterfly::{aggregation_sub, lane_seed, AggregationSpec, Dag, GroupId, SumU64};
use ncc_hashing::SharedRandomness;

fn rounds(n: usize, l1: usize, random_ranks: bool) -> u64 {
    let shared = SharedRandomness::new(SEED);
    let memberships: Vec<Vec<(GroupId, u64)>> = (0..n)
        .map(|u| {
            (0..l1)
                .map(|j| {
                    // adversarial: many distinct groups, targets clustered on
                    // few columns so rank order matters on shared edges
                    let target = ((j * 7) % 16) as u32;
                    (GroupId::new(target, (u / 2 + j * n) as u32), 1u64)
                })
                .collect()
        })
        .collect();
    let mut eng = engine(n, SEED + l1 as u64 + random_ranks as u64);
    let spec = AggregationSpec {
        memberships,
        ell2_hat: n * l1 / 16 + 16,
    };
    let seed = lane_seed(&eng, 17, 0);
    let mut dag = Dag::new();
    let agg = dag.combine("e17", &[], |_| {
        let (lane, window, seed) = aggregation_sub(n, &shared, spec, &SumU64, seed);
        let lane = if random_ranks {
            lane
        } else {
            lane.static_priority()
        };
        (lane, window, seed)
    });
    let mut run = dag.run(&mut eng).expect("aggregation");
    let (deliveries, stats) = (run.outputs.take(agg), run.stats);
    let delivered: u64 = deliveries.iter().flatten().map(|(_, v)| v).sum();
    assert_eq!(delivered, (n * l1) as u64, "no packet may be lost");
    assert!(stats.clean());
    stats.rounds
}

pub fn run() -> Vec<ncc_runner::RunRecord> {
    println!("# E17 — routing ablation: random ranks (paper) vs static priority");
    let n = 512usize;
    let mut t = Table::new(&["l1", "random_ranks", "static_prio", "static/random"]);
    for l1 in [2usize, 4, 8, 16, 32] {
        let rr = rounds(n, l1, true);
        let st = rounds(n, l1, false);
        t.row(vec![
            l1.to_string(),
            rr.to_string(),
            st.to_string(),
            f2(st as f64 / rr as f64),
        ]);
    }
    t.print();
    println!("\nexpected: both complete (correctness is rank-independent), but the");
    println!("static-priority column trends upward relative to random ranks as");
    println!("contention grows — the Theorem B.2 delay-sequence effect.");
    Vec::new()
}
