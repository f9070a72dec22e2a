//! E1 — **Table 1 of the paper**: round complexity of all five problems.
//!
//! For each `n`, runs MST, BFS Tree, MIS, Maximal Matching and
//! O(a)-Coloring on a bounded-arboricity workload (union of 3 random
//! forests, `a ≈ 3`), verifies every output against the centralised
//! checkers, and prints measured rounds next to the paper's bound with the
//! ratio `rounds / bound`. A flat ratio column across `n` reproduces the
//! table's asymptotic claims.
//!
//! With `--json <path>` the same records are also written as a JSON
//! document (see `bench.sh`, which snapshots them to `BENCH_exp01.json`
//! for the perf-trajectory history, and `bench_compare`, which gates CI on
//! the deterministic fields: rounds, drops, max_load, verified).
//! `--threads <t>` runs the deterministic parallel executor; every number
//! in the table is identical for any thread count.

use ncc_bench::{
    arboricity_workload, cli_json, cli_threads, describe, engine_threaded, f2, lg, Table, SEED,
};
use ncc_core::prepare;
use ncc_graph::{analysis, check, gen};
use ncc_model::ExecStats;

#[derive(serde::Serialize)]
struct Record {
    problem: String,
    n: usize,
    a: usize,
    rounds: u64,
    drops: u64,
    max_load: u64,
    bound: f64,
    ratio: f64,
    verified: bool,
}

#[derive(serde::Serialize)]
struct Output {
    experiment: String,
    seed: u64,
    records: Vec<Record>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = cli_json(&args);
    let threads = cli_threads(&args);

    println!("# E1 — Table 1: problem / measured rounds / paper bound / ratio");
    let mut table = Table::new(&[
        "problem", "n", "a", "rounds", "drops", "load", "bound", "ratio", "verified",
    ]);
    let mut records: Vec<Record> = Vec::new();

    let mut emit = |problem: &str, n: usize, a: usize, total: &ExecStats, bound: f64, ok: bool| {
        let rounds = total.rounds;
        let ratio = rounds as f64 / bound;
        table.row(vec![
            problem.into(),
            n.to_string(),
            a.to_string(),
            rounds.to_string(),
            total.dropped.to_string(),
            total.peak_load().to_string(),
            f2(bound),
            f2(ratio),
            ok.to_string(),
        ]);
        records.push(Record {
            problem: problem.into(),
            n,
            a,
            rounds,
            drops: total.dropped,
            max_load: total.peak_load(),
            bound,
            ratio,
            verified: ok,
        });
    };

    for &n in &[64usize, 128, 256] {
        let a = 3usize;
        let g = arboricity_workload(n, a, SEED);
        let (lo, hi) = analysis::arboricity_bounds(&g);
        let a_real = ((lo + hi) / 2).max(1) as f64;
        let d = analysis::diameter(&g) as f64;
        println!("\n## workload: {}", describe(&g));

        // ---- MST (Thm 3.2: O(log⁴ n)) -------------------------------------
        {
            let wg = gen::with_random_weights(&g, (n * n) as u64, SEED + 1);
            let mut eng = engine_threaded(n, SEED + 2, threads);
            let prep = prepare(&mut eng, SEED + 3, None).expect("seed agreement");
            let r = ncc_core::mst(&mut eng, prep.shared(), &wg).expect("mst");
            let ok = check::check_mst(&wg, &r.edges).is_ok();
            let mut total = prep.report.total;
            total.merge(&r.report.total);
            let bound = lg(n).powi(4);
            emit("MST", n, a, &total, bound, ok);
        }

        // ---- shared §5 pipeline --------------------------------------------
        let mut eng = engine_threaded(n, SEED + 4, threads);
        let prep = prepare(&mut eng, SEED + 5, Some(&g)).expect("prepare");
        let (shared, bt) = (prep.shared(), prep.trees());

        // ---- BFS (Thm 5.2: O((a + D + log n) log n)) -----------------------
        {
            let r = ncc_core::bfs(&mut eng, shared, bt, &g, 0).expect("bfs");
            let ok = check::check_bfs(&g, 0, &r.dist, &r.parent).is_ok();
            let mut total = prep.report.total;
            total.merge(&r.report.total);
            let bound = (a_real + d + lg(n)) * lg(n);
            emit("BFS Tree", n, a, &total, bound, ok);
        }

        // ---- MIS (Thm 5.3: O((a + log n) log n)) ---------------------------
        {
            let r = ncc_core::mis(&mut eng, shared, bt, &g).expect("mis");
            let ok = check::check_mis(&g, &r.in_mis).is_ok();
            let mut total = prep.report.total;
            total.merge(&r.report.total);
            let bound = (a_real + lg(n)) * lg(n);
            emit("MIS", n, a, &total, bound, ok);
        }

        // ---- Maximal Matching (Thm 5.4: O((a + log n) log n)) ---------------
        {
            let r = ncc_core::maximal_matching(&mut eng, shared, bt, &g).expect("mm");
            let ok = check::check_matching(&g, &r.mate).is_ok();
            let mut total = prep.report.total;
            total.merge(&r.report.total);
            let bound = (a_real + lg(n)) * lg(n);
            emit("Matching", n, a, &total, bound, ok);
        }

        // ---- O(a)-Coloring (Thm 5.5: O((a + log n) log^{3/2} n)) ------------
        {
            let r = ncc_core::coloring(&mut eng, shared, &bt.orientation, &g).expect("coloring");
            let ok = check::check_coloring(&g, &r.colors, r.palette).is_ok();
            let mut total = prep.report.total;
            total.merge(&r.report.total);
            let bound = (a_real + lg(n)) * lg(n).powf(1.5);
            emit("Coloring", n, a, &total, bound, ok);
        }
    }

    println!();
    table.print();
    println!("\nratio columns should stay roughly flat across n (same hidden constant).");

    if let Some(path) = json_path {
        let out = Output {
            experiment: "exp01_table1".into(),
            seed: SEED,
            records,
        };
        let json = serde_json::to_string_pretty(&out).expect("serialize records");
        std::fs::write(&path, json + "\n").expect("write JSON output");
        println!("wrote {path}");
    }
}
