//! E8 — Theorem 4.12 + Lemmas 4.1/4.11: the Orientation Algorithm computes
//! an `O(a)`-orientation in `O((a + log n) log n)` rounds, `O(log n)`
//! phases, and `O(log n)` per-node load.
//!
//! Declarative [`ScenarioSpec`] sweep through the runner registry:
//! arboricity via unions of `a` random forests at fixed `n`, then `n` at
//! fixed `a`.

use crate::{experiments::sweep, f2, lg, SEED};
use ncc_graph::analysis;
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};

/// One titled sub-sweep over `grid`, keyed by the swept value.
fn sub_sweep(title: &str, grid: &[(usize, ScenarioSpec)]) -> Vec<RunRecord> {
    println!("\n## {title}");
    let headers = [
        "n",
        "a",
        "phases",
        "ph/logn",
        "outdeg",
        "outdeg/a",
        "peak_load",
    ];
    sweep("orientation", grid, &headers, |_, scn, rec, _| {
        let n = scn.spec.n;
        let (alo, ahi) = analysis::arboricity_bounds(&scn.graph);
        let outdeg = rec.metric("max_outdegree").unwrap_or(0);
        let phases = rec.phases.unwrap_or(0);
        vec![
            n.to_string(),
            format!("[{alo},{ahi}]"),
            phases.to_string(),
            f2(phases as f64 / lg(n)),
            outdeg.to_string(),
            f2(outdeg as f64 / alo.max(1) as f64),
            rec.max_load.to_string(),
        ]
    })
}

pub fn run() -> Vec<RunRecord> {
    println!("# E8 — Theorem 4.12 (O(a)-Orientation)");
    let forests = |k, n, seed| ScenarioSpec::new(FamilySpec::Forests { k }, n, seed);
    let by_a = [1usize, 2, 4, 8, 16].map(|a| (a, forests(a, 256, SEED + a as u64)));
    let by_n = [64usize, 128, 256, 512].map(|n| (n, forests(4, n, SEED + 4)));
    let mut records = sub_sweep("arboricity sweep at n = 256", &by_a);
    records.extend(sub_sweep("n sweep at a = 4", &by_n));
    println!("\nexpected: phases ≲ 2·log n; outdeg/a ≤ 4; round ratio flat; peak_load = O(log n).");
    records
}
