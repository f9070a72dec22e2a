//! E1 — **Table 1 of the paper**: round complexity of all five problems.
//!
//! For each `n`, runs MST, BFS Tree, MIS, Maximal Matching and
//! O(a)-Coloring on a bounded-arboricity workload (union of 3 random
//! forests, `a ≈ 3`), verifies every output against the centralised
//! checkers, and prints measured rounds next to the paper's bound
//! ([`ncc_runner::Algorithm::bound`]) with the ratio `rounds / bound`. A flat ratio
//! column across `n` reproduces the table's asymptotic claims.
//!
//! Each row is the registry's main stage ([`ncc_runner::Algorithm::run_main`]) behind
//! its admission check, on engines and preparations this binary seeds:
//! MST on an engine of its own, the four §5 problems one after another on
//! a shared engine and one shared preparation, as the paper's §5 pipeline
//! runs them.
//!
//! With `--json <path>` the same records are also written as a JSON
//! document (see `bench.sh`, which snapshots them to `BENCH_exp01.json`
//! for the perf-trajectory history, and `bench_compare`, which gates CI on
//! the deterministic fields: rounds, drops, max_load, verified).
//! `--threads <t>` runs the deterministic parallel executor; every number
//! in the table is identical for any thread count.

use ncc_bench::experiments::table1_grid;
use ncc_bench::{cli, describe, f2, write_json, Table, SEED};
use ncc_model::Engine;
use ncc_runner::find_algorithm;

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

const USAGE: &str = "usage: exp01_table1 [--threads <t>] [--json <path>]";

/// A row's engine seed and preparation seed.
type Seeds = (u64, u64);

/// The rows of one workload: printed name, registry name, and the seeds
/// of a new engine and preparation. The §5 rows share the bfs row's.
const ROWS: [(&str, &str, Option<Seeds>); 5] = [
    ("MST", "mst", Some((SEED + 2, SEED + 3))),
    ("BFS Tree", "bfs", Some((SEED + 4, SEED + 5))),
    ("MIS", "mis", None),
    ("Matching", "matching", None),
    ("Coloring", "coloring", None),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cli = cli(USAGE, &["json", "threads"]);

    println!("# E1 — Table 1: problem / measured rounds / paper bound / ratio");
    let mut table = Table::new(&[
        "problem", "n", "a", "rounds", "drops", "load", "bound", "ratio", "verified",
    ]);
    let mut records: Vec<Record> = Vec::new();

    for (a, spec) in table1_grid() {
        let scn = spec.with_threads(cli.threads).build()?;
        let n = scn.spec.n;
        println!("\n## workload: {}", describe(&scn.graph));
        let mut shared = None;
        for (problem, name, seeds) in ROWS {
            let algo = find_algorithm(name).expect("registered");
            algo.admits(&scn.spec)?;
            if let Some((eng_seed, prep_seed)) = seeds {
                let mut eng = Engine::new(scn.spec.clone().with_seed(eng_seed).net_config());
                let prep = algo.preparation().run(&mut eng, prep_seed, &scn.graph)?;
                shared = Some((eng, prep));
            }
            let (eng, prep) = shared.as_mut().expect("a row with seeds comes first");
            let out = algo.run_main(eng, &scn, prep)?;
            let mut total = prep.report.total;
            total.merge(&out.stats);
            let bound = algo.bound(&scn).expect("a Table-1 bound").value;
            let ratio = total.rounds as f64 / bound;
            table.row(vec![
                problem.into(),
                n.to_string(),
                a.to_string(),
                total.rounds.to_string(),
                total.dropped.to_string(),
                total.peak_load().to_string(),
                f2(bound),
                f2(ratio),
                out.verdict.ok().to_string(),
            ]);
            records.push(Record {
                problem: problem.into(),
                n,
                a,
                rounds: total.rounds,
                drops: total.dropped,
                max_load: total.peak_load(),
                bound,
                ratio,
                verified: out.verdict.ok(),
            });
        }
    }

    println!();
    table.print();
    println!("\nratio columns should stay roughly flat across n (same hidden constant).");

    if let Some(path) = cli.json {
        let out = Output {
            experiment: "exp01_table1".into(),
            seed: SEED,
            records,
        };
        write_json(&path, &out);
    }
    Ok(())
}
