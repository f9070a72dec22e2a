//! E10 — Theorem 5.3: MIS in `O((a + log n) log n)` rounds.
//!
//! Declarative scenario sweep: arboricity at fixed `n`, then `n` at fixed
//! `a`. Validity is checked inside the registry run; the MIS size is
//! reported next to the sequential greedy baseline's.

use crate::experiments::{arboricity_grid, sweep};
use ncc_runner::RunRecord;

pub fn run() -> Vec<RunRecord> {
    let grid = arboricity_grid(3, 5);

    println!("# E10 — Theorem 5.3 (MIS): rounds vs (a + log n)·log n");
    let headers = ["n", "a", "phases", "|MIS|", "|greedy|"];
    let records = sweep("mis", &grid, &headers, |_, scn, rec, bound| {
        let greedy = ncc_baselines::greedy_mis(&scn.graph)
            .iter()
            .filter(|&&b| b)
            .count();
        vec![
            scn.spec.n.to_string(),
            bound.a.unwrap_or(0).to_string(),
            rec.phases.unwrap_or(0).to_string(),
            rec.metric("mis_size").unwrap_or(0).to_string(),
            greedy.to_string(),
        ]
    });
    println!("\nexpected: flat ratio; MIS size comparable to the greedy baseline.");
    records
}
