//! E19 (supplementary) — round-budget breakdown: where do the rounds of
//! each algorithm actually go?
//!
//! Folds the per-stage reports by stage kind (FindMin multicasts vs
//! aggregations vs tree rebuilds vs termination checks …). This is the
//! ablation view behind the hidden constants of `exp01_table1`'s ratios:
//! synchronisation barriers and the Identification Algorithm's delivery
//! spread dominate, exactly as the per-primitive analyses predict.

use crate::{arboricity_workload, engine, SEED};
use ncc_core::prepare;
use ncc_graph::gen;

pub fn run() -> Vec<ncc_runner::RunRecord> {
    let n = 256usize;
    println!("# E19 — round-budget breakdowns at n = {n}\n");

    {
        println!("## MST (gnp, W = n²)");
        let g = gen::gnp(n, 24.0 / n as f64, SEED);
        let wg = gen::with_random_weights(&g, (n * n) as u64, SEED + 1);
        let mut eng = engine(n, SEED + 2);
        let prep = prepare(&mut eng, SEED + 3, None).expect("seed agreement");
        let r = ncc_core::mst(&mut eng, prep.shared(), &wg).expect("mst");
        println!("{}", r.report.breakdown_table());
    }

    {
        println!("## Orientation (forests, a = 8)");
        let g = arboricity_workload(n, 8, SEED);
        let mut eng = engine(n, SEED + 4);
        let shared = ncc_hashing::SharedRandomness::new(SEED);
        let r = ncc_core::orient(&mut eng, &shared, &g).expect("orientation");
        println!("{}", r.report.breakdown_table());
    }

    {
        println!("## MIS (forests, a = 3, including setup)");
        let g = arboricity_workload(n, 3, SEED);
        let mut eng = engine(n, SEED + 5);
        let prep = prepare(&mut eng, SEED + 6, Some(&g)).expect("prepare");
        let r = ncc_core::mis(&mut eng, prep.shared(), prep.trees(), &g).expect("mis");
        println!("### setup\n{}", prep.report.breakdown_table());
        println!("### mis\n{}", r.report.breakdown_table());
    }
    Vec::new()
}
