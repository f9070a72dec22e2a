//! E10 — Theorem 5.3: MIS in `O((a + log n) log n)` rounds.
//!
//! Declarative scenario sweep: arboricity at fixed `n`, then `n` at fixed
//! `a`. Validity is checked inside the registry run; the MIS size is
//! reported next to the sequential greedy baseline's.

use crate::{experiments::sweep, f2, lg, spec_graph, SEED};
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    let mut grid: Vec<(usize, ScenarioSpec)> = Vec::new();
    for &a in &[1usize, 2, 4, 8, 16] {
        grid.push((
            a,
            ScenarioSpec::new(FamilySpec::Forests { k: a }, 256, SEED + a as u64 * 3),
        ));
    }
    for &n in &[64usize, 128, 256, 512] {
        grid.push((
            3,
            ScenarioSpec::new(FamilySpec::Forests { k: 3 }, n, SEED + 5),
        ));
    }

    println!("# E10 — Theorem 5.3 (MIS): rounds vs (a + log n)·log n");
    let headers = [
        "n", "a", "phases", "|MIS|", "|greedy|", "rounds", "bound", "ratio", "ok",
    ];
    let records = sweep("mis", &grid, &headers, |a, spec, rec| {
        let greedy = ncc_baselines::greedy_mis(&spec_graph(spec))
            .iter()
            .filter(|&&b| b)
            .count();
        let bound = (*a as f64 + lg(spec.n)) * lg(spec.n);
        vec![
            spec.n.to_string(),
            a.to_string(),
            rec.phases.unwrap_or(0).to_string(),
            rec.metric("mis_size").unwrap_or(0).to_string(),
            greedy.to_string(),
            rec.rounds.to_string(),
            f2(bound),
            f2(rec.rounds as f64 / bound),
            rec.verdict.ok().to_string(),
        ]
    });
    println!("\nexpected: flat ratio; MIS size comparable to the greedy baseline.");
    records
}
