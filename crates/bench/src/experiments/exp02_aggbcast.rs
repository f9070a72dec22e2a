//! E2 — Theorem 2.2: Aggregate-and-Broadcast runs in `O(log n)` rounds.
//!
//! Sweeps `n`, measures rounds and per-round load; `rounds / log₂ n` must
//! stay bounded by a small constant (ours is ≈ 2: one aggregation sweep +
//! one broadcast sweep).

use crate::{engine, f2, lg, Table, SEED};
use ncc_butterfly::{aggregate_and_broadcast, SumU64};

pub fn run() -> Vec<ncc_runner::RunRecord> {
    println!("# E2 — Theorem 2.2 (Aggregate-and-Broadcast): rounds vs log n");
    let mut t = Table::new(&[
        "n",
        "rounds",
        "log2(n)",
        "rounds/log2(n)",
        "max_load",
        "clean",
    ]);
    for k in [4u32, 6, 8, 10, 12, 13] {
        let n = 1usize << k;
        let mut eng = engine(n, SEED);
        let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
        let (res, stats) = aggregate_and_broadcast(&mut eng, inputs, &SumU64).expect("a&b");
        assert!(res.iter().all(|r| r.is_some()));
        t.row(vec![
            n.to_string(),
            stats.rounds.to_string(),
            f2(lg(n)),
            f2(stats.rounds as f64 / lg(n)),
            stats.peak_load().to_string(),
            stats.clean().to_string(),
        ]);
    }
    t.print();
    println!("\nexpected: rounds ≈ 2·log2(n) + O(1); per-round load O(1).");
    Vec::new()
}
