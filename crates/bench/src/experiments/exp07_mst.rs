//! E7 — Theorem 3.2: MST in `O(log⁴ n)` rounds.
//!
//! A declarative sweep over [`ScenarioSpec`]s through the runner registry:
//! `n` over sparse `G(n,p)`, weight ranges `W = n, n², n³` at fixed `n`,
//! and a structure sweep. Every output is verified against Kruskal inside
//! the registry run.

use crate::{experiments::sweep, SEED};
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    // The whole experiment is this grid — adding a row is a data change.
    let mut grid: Vec<(&str, ScenarioSpec)> = Vec::new();
    for &n in &[32usize, 64, 128, 256, 512] {
        grid.push((
            "gnp",
            ScenarioSpec::new(FamilySpec::Gnp { p: 24.0 / n as f64 }, n, SEED + n as u64),
        ));
    }
    // weight-range sweep at fixed n (Lemma 3.1's log W factor folds into
    // the key width, which caps FindMin's steps; with W = poly(n) the
    // bound is unchanged)
    let n = 128usize;
    for w in [n as u64, (n * n) as u64, (n * n * n) as u64] {
        grid.push((
            "gnp",
            ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, n, SEED + 1).with_weight_max(w),
        ));
    }
    // structure sweep
    grid.push((
        "grid",
        ScenarioSpec::grid(16, 16, SEED).with_weight_max(1000),
    ));
    grid.push((
        "star",
        ScenarioSpec::new(FamilySpec::Star, 256, SEED).with_weight_max(1000),
    ));
    grid.push((
        "forests(8)",
        ScenarioSpec::new(FamilySpec::Forests { k: 8 }, 256, SEED).with_weight_max(1000),
    ));

    println!("# E7 — Theorem 3.2 (MST): rounds vs log⁴ n");
    let headers = ["graph", "n", "W", "phases"];
    let records = sweep("mst", &grid, &headers, |name, scn, rec, _| {
        vec![
            (*name).into(),
            scn.spec.n.to_string(),
            scn.spec.weight_max.to_string(),
            rec.phases.unwrap_or(0).to_string(),
        ]
    });
    println!("\nexpected: ratio flat in n and in W (FindMin stops early), none in structure.");
    records
}
