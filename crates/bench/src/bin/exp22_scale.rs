//! exp22 — scale sweep: the huge-graph families at n up to 10⁷, plus the
//! sparse-tail micro-benchmark that certifies the O(active) round loop.
//!
//! Three parts:
//!
//! 1. **Family sweep** — flooding broadcast on R-MAT and random
//!    hyperbolic graphs at n ∈ {10⁴, 10⁵, 10⁶}, an R-MAT broadcast row
//!    at n = 10⁷ (the paper's §1 "millions of users" regime,
//!    end-to-end: generate + run), plus full tree-based BFS at 10⁴
//!    (BFS is a multi-thousand-round protocol whose wall-clock is
//!    dominated by the algorithm, not the engine — one size pins it
//!    without hour-long sweeps), timing graph generation and the
//!    algorithm run separately and recording the warm engine's
//!    resident bytes per node. `--smoke` (the CI scale-smoke job) runs
//!    BFS only at 10⁴ so every emitted record is checkable and the job
//!    can gate on all-`Verified`.
//! 2. **Generation identity smoke** (`--smoke` only) — one R-MAT
//!    instance whose sample count crosses the parallel generator's
//!    block boundary, generated at 1 and 4 threads and asserted
//!    byte-identical, so the CI job guards the parallel generators,
//!    not just the BFS cells.
//! 3. **Sparse tail** — one node stays awake for thousands of rounds on
//!    an n = 10⁵ network while everyone else sleeps. `sum_active` — the
//!    node-rounds the engine stepped, n for round 0 plus one or two per
//!    tail round — is the deterministic certificate that a round costs
//!    O(active), not O(n); `sparse_ms` is what that costs in wall-clock.
//!
//! Wall-clock numbers are machine-dependent, so the snapshot sets
//! `"wall_clock": true` and `bench_compare` reports it without gating —
//! while the embedded `RunRecord`s (rounds, sent, verdicts) stay fully
//! deterministic and are still checked for `Failed` verdicts.
//!
//! ```text
//! exp22_scale [--smoke] [--threads t] [--json BENCH_scale.json]
//! ```

use std::time::Instant;

use ncc_bench::{cli, f2, write_json, Table, SEED};
use ncc_graph::gen;
use ncc_model::{Ctx, Engine, Envelope, ExecStats, NetConfig, NodeProgram};
use ncc_runner::{find_algorithm, FamilySpec, RunRecord, ScenarioSpec};
use serde::Serialize;

/// One sweep cell: deterministic record plus its wall-clock costs and
/// the warm engine's memory footprint.
#[derive(Serialize)]
struct ScaleCell {
    family: String,
    n: usize,
    algorithm: String,
    /// Edges of the generated graph (deterministic for the seed).
    edges: usize,
    /// Graph generation wall time (wall_clock — tracked so the
    /// generation-vs-run ratio stays visible in the trajectory).
    gen_wall_ms: f64,
    run_ms: f64,
    /// Resident engine bytes per node after the run (capacity-based
    /// estimate from `Engine::resident_bytes`; wall-clock-adjacent in
    /// that allocator growth policies may vary, so not gated).
    resident_bytes_per_node: f64,
    record: RunRecord,
}

/// The sparse-tail measurement. `sum_active` against `tail_rounds × n` is
/// the acceptance quantity.
#[derive(Serialize)]
struct SparseTail {
    n: usize,
    tail_rounds: u64,
    sum_active: u64,
    sparse_ms: f64,
}

/// The `BENCH_scale.json` schema. `wall_clock: true` keys
/// `bench_compare`'s report-only mode.
#[derive(Serialize)]
struct ScaleBench {
    experiment: String,
    seed: u64,
    wall_clock: bool,
    threads: usize,
    smoke: bool,
    /// Set in smoke mode after the parallel-vs-sequential R-MAT
    /// generation identity assertion passed.
    gen_identity_checked: bool,
    cells: Vec<ScaleCell>,
    sparse_tail: SparseTail,
}

/// Sparse-tail workload: node 0 counts down via `stay_awake`, pinging a
/// far node every few ticks; all other nodes idle after round 0, so each
/// tail round steps one or two nodes.
struct LoneWalker {
    ticks: u32,
}

impl NodeProgram for LoneWalker {
    type State = u32;
    type Payload = u64;
    fn init(&self, st: &mut u32, ctx: &mut Ctx<'_, u64>) {
        if ctx.id == 0 {
            *st = self.ticks;
            ctx.stay_awake();
        }
    }
    fn round(&self, st: &mut u32, _inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
        if ctx.id == 0 && *st > 0 {
            *st -= 1;
            if (*st).is_multiple_of(16) {
                ctx.send((ctx.n as u32) / 2, *st as u64);
            }
            if *st > 0 {
                ctx.stay_awake();
            }
        }
    }
}

fn run_tail(n: usize, ticks: u32) -> (ExecStats, f64) {
    let mut eng = Engine::new(NetConfig::new(n, SEED));
    let mut states = vec![0u32; n];
    let start = Instant::now();
    let stats = eng
        .execute(&LoneWalker { ticks }, &mut states)
        .expect("sparse tail executes");
    (stats, start.elapsed().as_secs_f64() * 1000.0)
}

fn sparse_tail_bench(smoke: bool) -> SparseTail {
    let n = 100_000;
    let ticks: u32 = if smoke { 1_000 } else { 4_000 };
    // Untimed warmup so allocator behavior doesn't pollute the timed run.
    let _ = run_tail(n, ticks.min(100));
    let (stats, sparse_ms) = run_tail(n, ticks);
    SparseTail {
        n,
        tail_rounds: stats.rounds - 1,
        sum_active: stats.node_rounds,
        sparse_ms,
    }
}

/// Smoke-mode guard for the parallel generators: one R-MAT instance
/// whose sample count crosses the `gen::RMAT_BLOCK` boundary (so the
/// multi-block seeding path is exercised, not just the byte-compatible
/// single-block prefix), generated sequentially and at 4 threads, and
/// asserted byte-identical. The full proptest lives in
/// `crates/graph/tests/gen_parallel.rs`; this one cell makes the CI
/// scale-smoke job fail fast if determinism regresses.
fn gen_identity_smoke() {
    let n = 10_000;
    let m = gen::RMAT_BLOCK + gen::RMAT_BLOCK / 2;
    let start = Instant::now();
    let sequential = gen::rmat_threads(n, m, SEED, 1);
    let parallel = gen::rmat_threads(n, m, SEED, 4);
    assert_eq!(
        sequential, parallel,
        "parallel R-MAT generation must be byte-identical to sequential"
    );
    println!(
        "gen identity: rmat n={n} m={m} · 1 vs 4 threads byte-identical ({} edges, {} ms)",
        sequential.m(),
        f2(start.elapsed().as_secs_f64() * 1000.0)
    );
}

/// Generates one (family, n) scenario, runs `name` on it, prints the
/// table row, and pushes the JSON cell.
fn run_cell(
    family: &FamilySpec,
    n: usize,
    name: &str,
    threads: usize,
    table: &mut Table,
    cells: &mut Vec<ScaleCell>,
) {
    let spec = ScenarioSpec::new(family.clone(), n, SEED).with_threads(threads);
    let gen_start = Instant::now();
    let scn = spec.build().expect("huge families build at any n");
    let gen_wall_ms = gen_start.elapsed().as_secs_f64() * 1000.0;
    let algo = find_algorithm(name).expect("registered algorithm");
    let mut eng = scn.engine_with_threads(threads);
    let run_start = Instant::now();
    let record = algo
        .run(&mut eng, &scn)
        .unwrap_or_else(|e| panic!("{name} on {} failed: {e}", spec.label()));
    let run_ms = run_start.elapsed().as_secs_f64() * 1000.0;
    let resident_bytes_per_node = eng.resident_bytes().per_node(n);
    assert!(
        record.verdict.ok(),
        "{name} on {} failed verification",
        spec.label()
    );
    table.row(vec![
        family.name().to_string(),
        n.to_string(),
        name.to_string(),
        scn.graph.m().to_string(),
        f2(gen_wall_ms),
        f2(run_ms),
        f2(resident_bytes_per_node),
        record.rounds.to_string(),
        record.metric("peak_active").unwrap_or(0).to_string(),
        record.metric("sum_active").unwrap_or(0).to_string(),
        format!("{:?}", record.verdict),
    ]);
    cells.push(ScaleCell {
        family: family.name().to_string(),
        n,
        algorithm: name.to_string(),
        edges: scn.graph.m(),
        gen_wall_ms,
        run_ms,
        resident_bytes_per_node,
        record,
    });
}

const USAGE: &str = "usage: exp22_scale [--smoke] [--threads <t>] [--json <path>]";

fn main() {
    let cli = cli(USAGE, &["smoke", "threads", "json"]);
    let (smoke, threads) = (cli.smoke, cli.threads);
    let ns: &[usize] = if smoke {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let families = [
        FamilySpec::Rmat { edge_factor: 8 },
        FamilySpec::Hyperbolic {
            alpha: 0.75,
            c: 0.0,
        },
    ];

    let mut table = Table::new(&[
        "family", "n", "algo", "edges", "gen ms", "run ms", "B/node", "rounds", "peak_act",
        "sum_act", "verdict",
    ]);
    let mut cells = Vec::new();
    for &n in ns {
        for family in &families {
            // broadcast scales to every size; the multi-thousand-round
            // BFS protocol is pinned at the smallest cell only. Smoke mode
            // (the CI scale-smoke job) runs just the checkable protocol so
            // the job can gate on "every record Verified" — broadcast is a
            // checker-less baseline whose verdict is Unchecked by design.
            let algos: &[&str] = if smoke {
                &["bfs"]
            } else if n <= 10_000 {
                &["bfs", "broadcast"]
            } else {
                &["broadcast"]
            };
            for &name in algos {
                run_cell(family, n, name, threads, &mut table, &mut cells);
            }
        }
    }
    if !smoke {
        // The n = 10⁷ rung: R-MAT only — the hyperbolic angular scan's
        // constant factor makes it an hours-long cell at this size on a
        // single core, while 8·10⁷ R-MAT samples stream in seconds.
        run_cell(
            &FamilySpec::Rmat { edge_factor: 8 },
            10_000_000,
            "broadcast",
            threads,
            &mut table,
            &mut cells,
        );
    }
    table.print();

    if smoke {
        gen_identity_smoke();
    }

    let tail = sparse_tail_bench(smoke);
    println!(
        "\nsparse tail (n={}, {} quiescent-tail rounds, sum_active={}):",
        tail.n, tail.tail_rounds, tail.sum_active
    );
    println!("  {} ms", f2(tail.sparse_ms));

    if let Some(path) = cli.json {
        let bench = ScaleBench {
            experiment: "exp22_scale".into(),
            seed: SEED,
            wall_clock: true,
            threads,
            smoke,
            gen_identity_checked: smoke,
            cells,
            sparse_tail: tail,
        };
        write_json(&path, &bench);
    }
}
