//! E13 — the §1 capacity-bound demonstrations: gossip needs `Θ(n/log n)`
//! rounds; broadcast takes `Θ(log n / log log n)`.
//!
//! Both protocols are round-optimal up to constants, so the measured curves
//! trace the bounds: `gossip·log n / n` and `broadcast·log log n / log n`
//! must stay flat. Declarative scenario sweep through the runner registry
//! (the dissemination baselines run on the clique itself, so the input
//! graph family is a cheap placeholder).

use crate::{f2, lg, Table, SEED};
use ncc_runner::{run_named, FamilySpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    let grid: Vec<ScenarioSpec> = [6u32, 8, 10, 12]
        .iter()
        .map(|&k| ScenarioSpec::new(FamilySpec::Path, 1usize << k, SEED))
        .collect();

    println!("# E13 — gossip Θ(n/log n) and broadcast Θ(log n/log log n)");
    let mut t = Table::new(&[
        "n",
        "cap",
        "gossip",
        "n/cap",
        "g-ratio",
        "bcast",
        "log/loglog",
        "b-ratio",
    ]);
    let mut records = Vec::new();
    for spec in &grid {
        let n = spec.n;
        let cap = spec.capacity.send;
        let g = run_named("gossip", spec).expect("gossip");
        let b = run_named("broadcast", &spec.clone().with_seed(SEED + 1)).expect("broadcast");
        let g_bound = n as f64 / cap as f64;
        let b_bound = (lg(n) / lg(n).log2()).max(1.0);
        t.row(vec![
            n.to_string(),
            cap.to_string(),
            g.rounds.to_string(),
            f2(g_bound),
            f2(g.rounds as f64 / g_bound),
            b.rounds.to_string(),
            f2(b_bound),
            f2(b.rounds as f64 / b_bound),
        ]);
        records.push(g);
        records.push(b);
    }
    t.print();
    println!("\nexpected: both ratio columns flat — the intro's bounds are tight for");
    println!("these protocols (gossip saturates Θ̃(n) bits/round; broadcast fans out Θ(log n)).");
    records
}
