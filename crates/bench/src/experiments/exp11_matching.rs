//! E11 — Theorem 5.4: Maximal Matching in `O((a + log n) log n)` rounds.
//!
//! Declarative scenario sweep through the runner registry; matching size
//! reported next to the sequential greedy baseline's.

use crate::experiments::{arboricity_grid, sweep};
use crate::{f2, lg, spec_graph};
use ncc_runner::RunRecord;

pub fn run() -> Vec<RunRecord> {
    let grid = arboricity_grid(5, 6);

    println!("# E11 — Theorem 5.4 (Maximal Matching): rounds vs (a + log n)·log n");
    let headers = [
        "n", "a", "phases", "|M|", "|greedy|", "rounds", "bound", "ratio", "ok",
    ];
    let records = sweep("matching", &grid, &headers, |a, spec, rec| {
        let greedy = ncc_baselines::greedy_matching(&spec_graph(spec))
            .iter()
            .filter(|m| m.is_some())
            .count()
            / 2;
        let bound = (*a as f64 + lg(spec.n)) * lg(spec.n);
        vec![
            spec.n.to_string(),
            a.to_string(),
            rec.phases.unwrap_or(0).to_string(),
            rec.metric("pairs").unwrap_or(0).to_string(),
            greedy.to_string(),
            rec.rounds.to_string(),
            f2(bound),
            f2(rec.rounds as f64 / bound),
            rec.verdict.ok().to_string(),
        ]
    });
    println!("\nexpected: flat ratio; matching size comparable to greedy.");
    records
}
