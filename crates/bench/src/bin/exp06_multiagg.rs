//! E6 — Theorem 2.6 + Corollary 1: Multi-Aggregation in `O(C + log n)`;
//! over broadcast trees, a source set `S` costs
//! `O(Σ_{u∈S} d(u)/n + log n)`.
//!
//! Runs neighborhood multi-aggregations on structurally different graphs
//! (star, cycle, G(n,p), union of forests) with everyone as source, and
//! with small source subsets, validating the Corollary-1 form.

use ncc_bench::{engine, f2, lg, Table, SEED};
use ncc_butterfly::{multi_aggregate, MinU64};
use ncc_core::broadcast_trees::neighborhood_group;
use ncc_core::prepare;
use ncc_graph::{gen, Graph};

fn run(name: &str, g: &Graph, frac: usize, t: &mut Table) {
    let n = g.n();
    let mut eng = engine(n, SEED + 77);
    let prep = prepare(&mut eng, SEED + 78, Some(g)).expect("prepare");
    let sources: Vec<usize> = (0..n).filter(|u| u % frac == 0).collect();
    let messages: Vec<Option<(ncc_butterfly::GroupId, u64)>> = (0..n)
        .map(|u| {
            if u % frac == 0 {
                Some((neighborhood_group(u as u32), 100 + u as u64))
            } else {
                None
            }
        })
        .collect();
    let (out, stats) = multi_aggregate(
        &mut eng,
        prep.shared(),
        &prep.trees().trees,
        messages,
        |_, _, _, v| *v,
        &MinU64,
    )
    .expect("multi-agg");
    assert!(stats.clean());
    let degree_sum: usize = sources.iter().map(|&u| g.degree(u as u32)).sum();
    let reached = out.iter().filter(|o| o.is_some()).count();
    let bound = degree_sum as f64 / n as f64 + lg(n);
    t.row(vec![
        name.into(),
        n.to_string(),
        format!("1/{frac}"),
        degree_sum.to_string(),
        stats.rounds.to_string(),
        f2(bound),
        f2(stats.rounds as f64 / bound),
        reached.to_string(),
        stats.clean().to_string(),
    ]);
}

fn main() {
    println!("# E6 — Theorem 2.6 / Corollary 1 (Multi-Aggregation over broadcast trees)");
    let mut t = Table::new(&[
        "graph", "n", "sources", "sum_deg", "rounds", "bound", "ratio", "reached", "clean",
    ]);
    let n = 512;
    run("star", &gen::star(n), 1, &mut t);
    run("star", &gen::star(n), 8, &mut t);
    run("cycle", &gen::cycle(n), 1, &mut t);
    run("gnp(0.02)", &gen::gnp(n, 0.02, SEED), 1, &mut t);
    run("gnp(0.02)", &gen::gnp(n, 0.02, SEED), 8, &mut t);
    run("forests(4)", &gen::forest_union(n, 4, SEED), 1, &mut t);
    t.print();
    println!("\nexpected: ratio flat; the star row is the paper's capacity adversary.");
}
