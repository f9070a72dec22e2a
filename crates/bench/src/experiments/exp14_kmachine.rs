//! E14 — Appendix A / Corollary 2: an NCC algorithm running `T` rounds
//! costs `Õ(n·T/k²)` k-machine rounds under random vertex partitioning.
//!
//! Runs BFS through the runner registry under the first-class `KMachine`
//! execution model for a sweep of `k`: the engine routes every delivery
//! through the machine partition and charges per-link capacity, so
//! `km_rounds` lands in the `ExecStats` (and the RunRecord).
//! `km_rounds · k² / (n · T)` must stay roughly
//! flat (up to the Õ(·) log factors and the max-vs-mean gap on the
//! bottleneck link).
//!
//! The records' scenario echo carries the model, so the perf-trajectory
//! history sees the k-machine dimension.

use crate::{f2, Table, SEED};
use ncc_kmachine::KMachineModel;
use ncc_runner::{find_algorithm, FamilySpec, ModelSpec, RunRecord, ScenarioSpec};

pub fn run() -> Vec<RunRecord> {
    println!("# E14 — Corollary 2 (k-machine conversion of a full NCC execution)");
    let n = 256usize;
    let bfs = find_algorithm("bfs").expect("bfs registered");
    let mut t = Table::new(&[
        "k",
        "ncc_rounds",
        "km_rounds",
        "cross_msgs",
        "n*T/k^2",
        "ratio",
        "max_pair",
    ]);
    let mut records: Vec<RunRecord> = Vec::new();
    for k in [2usize, 4, 8, 16, 32] {
        let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.05 }, n, SEED).with_model(
            ModelSpec::KMachine {
                k,
                link_capacity: 1,
            },
        );
        let scn = spec.build().expect("buildable spec");
        let mut eng = scn.engine();
        let record = bfs.run(&mut eng, &scn).expect("bfs");
        let km = eng
            .model()
            .as_any()
            .downcast_ref::<KMachineModel>()
            .expect("kmachine model")
            .report();
        assert_eq!(km.km_rounds, record.km_rounds, "stats and model agree");
        let bound = (n as u64 * record.rounds) as f64 / (k * k) as f64;
        t.row(vec![
            k.to_string(),
            record.rounds.to_string(),
            record.km_rounds.to_string(),
            km.cross_messages.to_string(),
            f2(bound),
            f2(record.km_rounds as f64 / bound),
            km.max_pair_load.to_string(),
        ]);
        records.push(record);
    }
    t.print();
    println!("\nexpected: km_rounds falls ≈ k²-fold as k doubles (until the T·sync floor");
    println!("dominates at large k); ratio bounded by a polylog factor (the Õ).");
    records
}
