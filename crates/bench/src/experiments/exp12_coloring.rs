//! E12 — Theorem 5.5: `O(a)`-coloring in `O((a + log n) log^{3/2} n)`
//! rounds. The palette must scale with `a` (not with Δ — the star row is
//! the discriminating case) and every coloring must be proper.
//!
//! Declarative scenario sweep through the runner registry.

use crate::experiments::{arboricity_grid, sweep};
use crate::SEED;
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    let mut grid: Vec<(&str, ScenarioSpec)> = arboricity_grid(7, 11)
        .into_iter()
        .map(|(_, spec)| ("forests", spec))
        .collect();
    // after the a sweep: the palette-vs-Δ discriminator (a = 1 but
    // Δ = n−1), then a grid
    let star = ("star", ScenarioSpec::new(FamilySpec::Star, 256, SEED));
    let mesh = ("grid", ScenarioSpec::grid(16, 16, SEED));
    grid.splice(5..5, [star, mesh]);

    println!("# E12 — Theorem 5.5 (O(a)-Coloring): palette O(a), rounds vs (a+log n)·log^1.5 n");
    let headers = ["graph", "n", "a", "deg_max", "palette", "used", "greedy"];
    let records = sweep("coloring", &grid, &headers, |name, scn, rec, bound| {
        let (_, greedy_used) = ncc_baselines::greedy_coloring(&scn.graph);
        vec![
            (*name).into(),
            scn.spec.n.to_string(),
            bound.a.unwrap_or(0).to_string(),
            scn.graph.max_degree().to_string(),
            rec.metric("palette").unwrap_or(0).to_string(),
            rec.metric("colors_used").unwrap_or(0).to_string(),
            greedy_used.to_string(),
        ]
    });
    println!("\nexpected: palette tracks a (star stays constant!); ratio flat.");
    records
}
