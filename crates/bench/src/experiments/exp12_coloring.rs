//! E12 — Theorem 5.5: `O(a)`-coloring in `O((a + log n) log^{3/2} n)`
//! rounds. The palette must scale with `a` (not with Δ — the star row is
//! the discriminating case) and every coloring must be proper.
//!
//! Declarative scenario sweep through the runner registry.

use crate::{experiments::sweep, f2, lg, spec_graph, SEED};
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    let mut grid: Vec<((&str, usize), ScenarioSpec)> = Vec::new();
    for &a in &[1usize, 2, 4, 8, 16] {
        grid.push((
            ("forests", a),
            ScenarioSpec::new(FamilySpec::Forests { k: a }, 256, SEED + a as u64 * 7),
        ));
    }
    // the palette-vs-Δ discriminator: a = 1 but Δ = n−1
    grid.push((("star", 1), ScenarioSpec::new(FamilySpec::Star, 256, SEED)));
    grid.push((("grid", 2), ScenarioSpec::grid(16, 16, SEED)));
    for &n in &[64usize, 128, 256, 512] {
        grid.push((
            ("forests", 3),
            ScenarioSpec::new(FamilySpec::Forests { k: 3 }, n, SEED + 11),
        ));
    }

    println!("# E12 — Theorem 5.5 (O(a)-Coloring): palette O(a), rounds vs (a+log n)·log^1.5 n");
    let headers = [
        "graph", "n", "a", "deg_max", "palette", "used", "greedy", "rounds", "bound", "ratio", "ok",
    ];
    let records = sweep("coloring", &grid, &headers, |(name, a), spec, rec| {
        let g = spec_graph(spec);
        let (_, greedy_used) = ncc_baselines::greedy_coloring(&g);
        let bound = (*a as f64 + lg(spec.n)) * lg(spec.n).powf(1.5);
        vec![
            (*name).into(),
            spec.n.to_string(),
            a.to_string(),
            g.max_degree().to_string(),
            rec.metric("palette").unwrap_or(0).to_string(),
            rec.metric("colors_used").unwrap_or(0).to_string(),
            greedy_used.to_string(),
            rec.rounds.to_string(),
            f2(bound),
            f2(rec.rounds as f64 / bound),
            rec.verdict.ok().to_string(),
        ]
    });
    println!("\nexpected: palette tracks a (star stays constant!); ratio flat.");
    records
}
