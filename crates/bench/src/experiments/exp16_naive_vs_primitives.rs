//! E16 — ablation: the primitive stack vs naive direct communication.
//!
//! §2.2's motivating example: on a star, a node that talks to each neighbor
//! directly needs `Θ(n/log n)` rounds per wave, while the butterfly
//! primitives finish neighborhood exchanges in `O(a + log n)`. Both BFS
//! variants are *correct* (the naive one is TDMA-scheduled, so nothing is
//! dropped) — the difference is purely rounds, and it widens linearly in n.

use crate::{engine, f2, Table, SEED};
use ncc_core::prepare;
use ncc_graph::{check, gen};

pub fn run() -> Vec<ncc_runner::RunRecord> {
    println!("# E16 — naive direct-send BFS vs primitive-stack BFS (star graphs)");
    let mut t = Table::new(&[
        "n",
        "naive_rounds",
        "stack_rounds",
        "stack(setup)",
        "stack(bfs)",
        "speedup",
    ]);
    for &n in &[256usize, 1024, 2048, 4096] {
        let g = gen::star(n);

        let mut eng = engine(n, SEED);
        let naive = ncc_baselines::naive_bfs(&mut eng, &g, 0).expect("naive bfs");
        check::check_bfs(&g, 0, &naive.dist, &naive.parent).expect("naive bfs valid");

        let mut eng = engine(n, SEED + 1);
        let prep = prepare(&mut eng, SEED + 2, Some(&g)).expect("prepare");
        let r = ncc_core::bfs(&mut eng, prep.shared(), prep.trees(), &g, 0).expect("bfs");
        check::check_bfs(&g, 0, &r.dist, &r.parent).expect("stack bfs valid");
        let stack_total = prep.report.total.rounds + r.report.total.rounds;

        t.row(vec![
            n.to_string(),
            naive.stats.rounds.to_string(),
            stack_total.to_string(),
            prep.report.total.rounds.to_string(),
            r.report.total.rounds.to_string(),
            f2(naive.stats.rounds as f64 / stack_total as f64),
        ]);
    }
    t.print();
    println!("\nexpected: the naive TDMA schedule costs Θ((n/log n)²) on a star (slot wait");
    println!("× batch count), the stack stays polylog — small n favors naive constants,");
    println!("with the crossover near n ≈ 2–4k justifying the paper's machinery.");
    Vec::new()
}
