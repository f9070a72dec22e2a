//! E20 (supplementary) — the same protocols across all four execution
//! models.
//!
//! §1 contrasts the models: the Congested Clique moves `Θ̃(n²)` bits per
//! round (per-edge bandwidth, no node cap), the NCC only `Θ̃(n)`; Appendix
//! A prices executions in the k-machine model; and the hybrid setting adds
//! CONGEST-style local edges. This experiment is a declarative sweep over
//! the algorithm registry × the model registry: each cell is a
//! `ScenarioSpec` with a `model` field, dispatched through the runner —
//! no per-model engine hacks (the old version faked the Congested Clique
//! with `Capacity::unbounded()` and no per-edge accounting at all).
//!
//! Expected shape: gossip pays Θ(n/log n)× for the node cap (the §1
//! separation) and collapses under the per-edge Congested Clique, while
//! the butterfly primitives barely change — they never relied on more than
//! `O(log n)` messages per node, which is the design point of the paper.
//! The k-machine column charges `km_rounds` honestly, and the hybrid
//! column reports the local-edge load it actually used. Every cell's
//! record echoes its model.

use crate::{f2, Table, SEED};
use ncc_runner::{run_record, ModelSpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    println!(
        "# E20 — protocols across execution models (ncc / congested-clique / kmachine / hybrid)"
    );
    let mut t = Table::new(&[
        "protocol",
        "n",
        "model",
        "rounds",
        "vs ncc",
        "km_rounds",
        "edge_load",
        "drops",
    ]);
    let mut records: Vec<RunRecord> = Vec::new();

    for &algo in &["gossip", "broadcast", "butterfly-aggregation", "mis"] {
        for &n in &[256usize, 1024] {
            let base =
                ScenarioSpec::new(ncc_runner::FamilySpec::Gnp { p: 16.0 / n as f64 }, n, SEED);
            let models = std::iter::once(ModelSpec::Ncc)
                .chain(ncc_runner::standard_models(n))
                .collect::<Vec<_>>();
            let mut ncc_rounds = 0u64;
            for model in models {
                let spec = base.clone().with_model(model);
                let rec = run_record(ncc_runner::find_algorithm(algo).expect("registered"), &spec)
                    .unwrap_or_else(|e| panic!("{algo} under {}: {e}", model.name()));
                if model == ModelSpec::Ncc {
                    ncc_rounds = rec.rounds;
                }
                t.row(vec![
                    algo.into(),
                    n.to_string(),
                    model.name().into(),
                    rec.rounds.to_string(),
                    f2(rec.rounds as f64 / ncc_rounds.max(1) as f64),
                    rec.km_rounds.to_string(),
                    rec.report.total.max_edge_load.to_string(),
                    rec.dropped.to_string(),
                ]);
                records.push(rec);
            }
        }
    }
    t.print();
    println!("\nexpected: gossip collapses under the congested clique (per-edge Θ̃(n²) bits");
    println!("vs the node cap's Θ̃(n)); butterfly primitives pay ≈1× everywhere — they are");
    println!("already node-capacity-optimal; kmachine charges Õ(n·T/k²) km_rounds on top.");
    records
}
