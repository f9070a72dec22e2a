//! E15 — Lemma 4.11 / model compliance: across every algorithm, no node
//! ever sends or receives more than `O(log n)` messages per round, and the
//! default capacity constants produce **zero drops**.
//!
//! Prints peak per-node per-round load, the configured cap, and the ratio
//! `peak / log₂ n` — the hidden constant of the `O(log n)` claim.

use crate::{arboricity_workload, engine, f2, lg, Table, SEED};
use ncc_core::prepare;
use ncc_graph::gen;

pub fn run() -> Vec<ncc_runner::RunRecord> {
    println!("# E15 — Lemma 4.11: peak per-node load is O(log n), zero drops");
    let n = 256usize;
    let g = arboricity_workload(n, 4, SEED);
    let mut t = Table::new(&[
        "algorithm",
        "n",
        "peak_load",
        "cap",
        "peak/log2n",
        "drops",
        "violations",
    ]);

    // MST pipeline
    {
        let wg = gen::with_random_weights(&g, (n * n) as u64, SEED);
        let mut eng = engine(n, SEED);
        let prep = prepare(&mut eng, SEED, None).expect("seed agreement");
        let r = ncc_core::mst(&mut eng, prep.shared(), &wg).expect("mst");
        let mut total = prep.report.total;
        total.merge(&r.report.total);
        add(&mut t, "MST", n, eng.config().capacity.send, total);
    }

    // §5 pipeline + each algorithm
    let mut eng = engine(n, SEED + 1);
    let cap = eng.config().capacity.send;
    let prep = prepare(&mut eng, SEED + 2, Some(&g)).expect("prepare");
    let (shared, bt) = (prep.shared(), prep.trees());
    fn add(t: &mut Table, name: &str, n: usize, cap: usize, total: ncc_model::ExecStats) {
        t.row(vec![
            name.into(),
            n.to_string(),
            total.peak_load().to_string(),
            cap.to_string(),
            f2(total.peak_load() as f64 / lg(n)),
            total.dropped.to_string(),
            total.send_cap_violations.to_string(),
        ]);
    }
    add(&mut t, "orientation+trees", n, cap, prep.report.total);
    let r = ncc_core::bfs(&mut eng, shared, bt, &g, 0).expect("bfs");
    add(&mut t, "BFS", n, cap, r.report.total);
    let r = ncc_core::mis(&mut eng, shared, bt, &g).expect("mis");
    add(&mut t, "MIS", n, cap, r.report.total);
    let r = ncc_core::maximal_matching(&mut eng, shared, bt, &g).expect("mm");
    add(&mut t, "Matching", n, cap, r.report.total);
    let r = ncc_core::coloring(&mut eng, shared, &bt.orientation, &g).expect("col");
    add(&mut t, "Coloring", n, cap, r.report.total);

    t.print();
    println!("\nexpected: drops = 0 and violations = 0 everywhere; peak/log2(n) ≤ κ = 8.");
    Vec::new()
}
