//! E11 — Theorem 5.4: Maximal Matching in `O((a + log n) log n)` rounds.
//!
//! Declarative scenario sweep through the runner registry; matching size
//! reported next to the sequential greedy baseline's.

use crate::experiments::{arboricity_grid, sweep};
use ncc_runner::RunRecord;

pub fn run() -> Vec<RunRecord> {
    let grid = arboricity_grid(5, 6);

    println!("# E11 — Theorem 5.4 (Maximal Matching): rounds vs (a + log n)·log n");
    let headers = ["n", "a", "phases", "|M|", "|greedy|"];
    let records = sweep("matching", &grid, &headers, |_, scn, rec, bound| {
        let greedy = ncc_baselines::greedy_matching(&scn.graph)
            .iter()
            .filter(|m| m.is_some())
            .count()
            / 2;
        vec![
            scn.spec.n.to_string(),
            bound.a.unwrap_or(0).to_string(),
            rec.phases.unwrap_or(0).to_string(),
            rec.metric("pairs").unwrap_or(0).to_string(),
            greedy.to_string(),
        ]
    });
    println!("\nexpected: flat ratio; matching size comparable to greedy.");
    records
}
