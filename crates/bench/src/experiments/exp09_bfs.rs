//! E9 — Theorem 5.2: BFS trees in `O((a + D + log n) log n)` rounds.
//!
//! The bound has two regimes: diameter-dominated (grids, paths) and
//! log-dominated (G(n,p), stars). The declarative scenario grid covers
//! both; every output is validated against the centralised BFS inside the
//! registry run.

use crate::{experiments::sweep, f2, lg, spec_graph, SEED};
use ncc_graph::analysis;
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    let grid: Vec<(&str, ScenarioSpec)> = vec![
        // diameter-dominated regime
        ("path", ScenarioSpec::new(FamilySpec::Path, 128, SEED)),
        ("grid 8x32", ScenarioSpec::grid(8, 32, SEED)),
        ("grid 16x16", ScenarioSpec::grid(16, 16, SEED)),
        ("grid 23x23", ScenarioSpec::grid(23, 23, SEED)),
        // log-dominated regime
        ("star", ScenarioSpec::new(FamilySpec::Star, 256, SEED)),
        (
            "gnp(0.05)",
            ScenarioSpec::new(FamilySpec::Gnp { p: 0.05 }, 256, SEED),
        ),
        ("tree(rand)", ScenarioSpec::new(FamilySpec::Tree, 256, SEED)),
        // n sweep on grids (D = Θ(√n))
        ("grid 8x8", ScenarioSpec::grid(8, 8, SEED)),
        ("grid 12x12", ScenarioSpec::grid(12, 12, SEED)),
        ("grid 20x20", ScenarioSpec::grid(20, 20, SEED)),
    ];

    println!("# E9 — Theorem 5.2 (BFS Tree): rounds vs (a + D + log n)·log n");
    let headers = [
        "graph", "n", "D", "phases", "rounds", "bound", "ratio", "ok",
    ];
    let records = sweep("bfs", &grid, &headers, |name, spec, rec| {
        let g = spec_graph(spec);
        let d = analysis::diameter(&g) as f64;
        let (alo, _) = analysis::arboricity_bounds(&g);
        let bound = (alo as f64 + d + lg(spec.n)) * lg(spec.n);
        vec![
            (*name).into(),
            spec.n.to_string(),
            (d as u64).to_string(),
            rec.phases.unwrap_or(0).to_string(),
            rec.rounds.to_string(),
            f2(bound),
            f2(rec.rounds as f64 / bound),
            rec.verdict.ok().to_string(),
        ]
    });
    println!("\nexpected: ratio flat across both regimes (D-dominated and log-dominated).");
    records
}
