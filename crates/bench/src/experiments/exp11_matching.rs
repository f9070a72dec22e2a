//! E11 — Theorem 5.4: Maximal Matching in `O((a + log n) log n)` rounds.
//!
//! Declarative scenario sweep through the runner registry; matching size
//! reported next to the sequential greedy baseline's.

use crate::{experiments::sweep, f2, lg, spec_graph, SEED};
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    let mut grid: Vec<(usize, ScenarioSpec)> = Vec::new();
    for &a in &[1usize, 2, 4, 8, 16] {
        grid.push((
            a,
            ScenarioSpec::new(FamilySpec::Forests { k: a }, 256, SEED + a as u64 * 5),
        ));
    }
    for &n in &[64usize, 128, 256, 512] {
        grid.push((
            3,
            ScenarioSpec::new(FamilySpec::Forests { k: 3 }, n, SEED + 6),
        ));
    }

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
