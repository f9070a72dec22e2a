//! `ncc-cli` — command-line driver for the Node-Capacitated Clique stack.
//!
//! ```text
//! ncc-cli gen <family> --n <N> [--param <x>] [--seed <s>] [--out <file>]
//! ncc-cli run <algo> (--graph <file> | --family <f> --n <N> [--param <x>])
//!               [--seed <s>] [--weights <W>] [--src <v>] [--threads <t>]
//!               [--model <m>] [--edge-cap <c>] [--machines <k>]
//!               [--link-cap <c>] [--local-cap <c>] [--json <file>]
//! ncc-cli suite [--out <file>] [--threads <t>] [--model <m>]
//!               [--filter <algo-substring>] [--family <scenario-substring>]
//! ncc-cli explain <algo> [--family <f> --n <N> --param <x> --seed <s>]
//! ncc-cli serve [--stdio | --listen <addr>] [--workers <N>] [--cache <N>]
//! ncc-cli list
//! ncc-cli info --n <N>
//! ```
//!
//! Every algorithm dispatches through the `ncc-runner` registry: `run`
//! builds a [`ScenarioSpec`] from the flags, looks the algorithm up by
//! name, and prints the typed [`RunRecord`] (optionally as JSON). `--model`
//! selects the execution model (`ncc` default, `cc`/`congested-clique`,
//! `kmachine`, `hybrid`). `suite` runs the whole registry over the
//! standard scenario grid — which includes a model dimension — and writes
//! `BENCH_suite.json`, the deterministic snapshot the CI bench gate diffs;
//! `suite --model <m>` re-runs the full family × n sweep under one model
//! instead. `explain` prints the scheduler's packing plan for a
//! DAG-declared algorithm — which primitive lanes share which mux stage,
//! and how that sits against the per-node lane budget. `serve` runs the
//! resident daemon of `docs/serving.md`. A flag the command does not take,
//! or a flag value that does not parse, is a usage error (exit 2) naming
//! the flag, never a panic.

use ncc::graph::{analysis, io};
use ncc::model::{Capacity, ModelSpec, NetConfig};
use ncc::runner::flags::{flag, parse_args, Flags};
use ncc::runner::{
    algorithms, explain_text, filter_grid, find_algorithm, run_checked, run_suite_filtered,
    standard_grid, standard_grid_for_model, suggest_algorithm, FamilySpec, RunRecord, RunnerError,
    Scenario, ScenarioSpec,
};
use ncc::serve::{serve_stdio, ServeConfig, Server};

/// The flags every scenario takes, whether generated or read from a file.
const SPEC_FLAGS: &str =
    "n param seed src threads weights model edge-cap machines link-cap local-cap";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit(None);
    }
    let cmd = args[0].as_str();
    let accepted = match cmd {
        "gen" => format!("{SPEC_FLAGS} out"),
        "run" => format!("{SPEC_FLAGS} graph family json"),
        "suite" => "out threads model edge-cap machines link-cap local-cap filter family".into(),
        "explain" => format!("{SPEC_FLAGS} family"),
        "serve" => "stdio listen workers cache".into(),
        "info" => "n".into(),
        "list" | "help" | "-h" | "--help" => String::new(),
        other => usage_and_exit(Some(&format!("unknown command '{other}'"))),
    };
    let accepted: Vec<&str> = accepted.split_whitespace().collect();
    let (positional, flags) = or_usage(parse_args(&args[1..], &accepted));

    match cmd {
        "gen" => cmd_gen(&positional, &flags),
        "run" => cmd_run(&positional, &flags),
        "suite" => cmd_suite(&flags),
        "explain" => cmd_explain(&positional, &flags),
        "serve" => cmd_serve(&flags),
        "list" => cmd_list(),
        "info" => cmd_info(&flags),
        _ => usage_and_exit(None),
    }
}

fn usage_and_exit(err: Option<&str>) -> ! {
    if let Some(e) = err {
        eprintln!("error: {e}\n");
    }
    let algo_names: Vec<&str> = algorithms().iter().map(|a| a.name()).collect();
    eprintln!(
        "ncc-cli — Node-Capacitated Clique driver

USAGE:
  ncc-cli gen <family> --n <N> [--param <x>] [--seed <s>] [--out <file>]
  ncc-cli run <algo> (--graph <file> | --family <f> --n <N> [--param <x>])
                [--seed <s>] [--weights <W>] [--src <v>] [--threads <t>]
                [--model <m>] [--edge-cap <c>] [--machines <k>]
                [--link-cap <c>] [--local-cap <c>] [--json <file>]
  ncc-cli suite [--out <file>] [--threads <t>] [--model <m>]
                [--filter <algo-substring>] [--family <scenario-substring>]
  ncc-cli explain <algo> [--family <f> --n <N> --param <x> --seed <s>]
  ncc-cli serve [--stdio | --listen <addr>] [--workers <N>] [--cache <N>]
  ncc-cli list
  ncc-cli info --n <N>

FAMILIES   path cycle star complete grid tgrid tree forests gnp gnm ba geometric
           rmat hyperbolic
MODELS     ncc (default) · cc|congested-clique [--edge-cap <msgs>]
           · kmachine [--machines <k>] [--link-cap <msgs>]
           · hybrid [--local-cap <msgs>]
ALGORITHMS {}

EXAMPLES
  ncc-cli gen gnp --n 256 --param 0.05 --seed 7 --out g.txt
  ncc-cli run mst --graph g.txt --weights 1000
  ncc-cli run mis --family ba --n 256 --param 3
  ncc-cli run bfs --family grid --n 256 --src 0 --json bfs.json
  ncc-cli run bfs --family gnp --n 256 --model kmachine --machines 16
  ncc-cli run gossip --family gnp --n 256 --model cc
  ncc-cli suite --out BENCH_suite.json
  ncc-cli explain apsp --family gnp --n 128
  ncc-cli serve --listen 127.0.0.1:7070 --workers 8",
        algo_names.join(" ")
    );
    std::process::exit(if err.is_some() { 2 } else { 0 });
}

/// A flag error or a bad scenario as a usage error (exit 2).
fn or_usage<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| usage_and_exit(Some(&e)))
}

/// Maps the CLI family vocabulary onto a [`FamilySpec`].
fn family_spec(family: &str, n: usize, flags: &Flags) -> Result<(FamilySpec, usize), String> {
    // an absent `--param` (or NaN) takes the family's default
    let p = flag::<f64>(flags, "param")?.filter(|p| !p.is_nan());
    let (real, count) = (|d| p.unwrap_or(d), |d| p.map_or(d, |p| p as usize));
    let side = (n as f64).sqrt().round().max(1.0) as usize;
    let (rows, cols) = (side, side);
    let fam = match family {
        "path" => FamilySpec::Path,
        "cycle" => FamilySpec::Cycle,
        "star" => FamilySpec::Star,
        "complete" => FamilySpec::Complete,
        "grid" => return Ok((FamilySpec::Grid { rows, cols }, side * side)),
        "tgrid" => return Ok((FamilySpec::TGrid { rows, cols }, side * side)),
        "tree" => FamilySpec::Tree,
        "forests" => FamilySpec::Forests { k: count(1).max(1) },
        "gnp" => FamilySpec::Gnp { p: real(0.05) },
        "gnm" => FamilySpec::Gnm { m: count(n).max(n) },
        "ba" => FamilySpec::Ba { m: count(1).max(1) },
        "geometric" => FamilySpec::Geometric { radius: real(0.15) },
        // --param is the edge factor (sampled edges per node); default 8
        "rmat" => FamilySpec::Rmat {
            edge_factor: count(8).max(1),
        },
        // --param is alpha (power-law exponent 2α+1); disk offset c fixed 0
        "hyperbolic" => FamilySpec::Hyperbolic {
            alpha: real(0.75),
            c: 0.0,
        },
        other => return Err(format!("unknown family '{other}'")),
    };
    Ok((fam, n))
}

/// Maps the `--model` vocabulary (plus its parameter flags) onto a
/// [`ModelSpec`]. `None` when no `--model` flag was given (NCC default).
fn model_from_flags(n: usize, flags: &Flags) -> Result<Option<ModelSpec>, String> {
    let Some(name) = flags.get("model") else {
        return Ok(None);
    };
    Ok(Some(match name.as_str() {
        "" | "ncc" => ModelSpec::Ncc,
        "cc" | "clique" | "congested-clique" => ModelSpec::CongestedClique {
            edge_cap: flag(flags, "edge-cap")?.unwrap_or(Capacity::default_for(n).send),
        },
        "kmachine" | "k-machine" => ModelSpec::KMachine {
            k: flag(flags, "machines")?.unwrap_or(8usize).max(1),
            link_capacity: flag(flags, "link-cap")?.unwrap_or(1u64).max(1),
        },
        "hybrid" => ModelSpec::HybridLocal {
            local_edge_cap: flag(flags, "local-cap")?.unwrap_or(8usize).max(1),
        },
        other => return Err(format!("unknown model '{other}'")),
    }))
}

/// Builds the scenario spec described by the `run` flags for a generated
/// family.
fn spec_from_flags(family: &str, flags: &Flags) -> Result<ScenarioSpec, String> {
    let (fam, n) = family_spec(family, flag(flags, "n")?.unwrap_or(64), flags)?;
    spec_over(fam, n, flags)
}

/// The spec over `family` at `n` nodes with the flags every scenario takes
/// — seed, source, threads, weights, model — whether the graph is generated
/// or read from a `--graph` file.
fn spec_over(family: FamilySpec, n: usize, flags: &Flags) -> Result<ScenarioSpec, String> {
    let mut spec = ScenarioSpec::new(family, n, flag(flags, "seed")?.unwrap_or(1))
        .with_source(flag(flags, "src")?.unwrap_or(0))
        .with_threads(flag(flags, "threads")?.unwrap_or(1));
    if let Some(w) = flag(flags, "weights")? {
        spec = spec.with_weight_max(w);
    }
    if let Some(model) = model_from_flags(n, flags)? {
        spec = spec.with_model(model);
    }
    spec.check_model().map_err(|e| e.to_string())?;
    Ok(spec)
}

fn cmd_gen(positional: &[String], flags: &Flags) {
    let family = positional.first().map(String::as_str).unwrap_or_else(|| {
        usage_and_exit(Some("gen needs a family"));
    });
    let spec = or_usage(spec_from_flags(family, flags));
    let g = spec.build_graph().unwrap_or_else(|e| {
        usage_and_exit(Some(&e.to_string()));
    });
    let text = io::write_graph(&g);
    match flags.get("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, text).expect("write graph file");
            eprintln!("wrote {} ({} nodes, {} edges)", path, g.n(), g.m());
        }
        _ => print!("{text}"),
    }
}

/// "unknown algorithm" error text, with a "did you mean" hint when a
/// registry name is a close match.
fn unknown_algorithm(name: &str) -> String {
    match suggest_algorithm(name) {
        Some(s) => format!("unknown algorithm '{name}' — did you mean '{s}'? (try `ncc-cli list`)"),
        None => format!("unknown algorithm '{name}' (try `ncc-cli list`)"),
    }
}

fn cmd_run(positional: &[String], flags: &Flags) {
    let algo_name = positional.first().map(String::as_str).unwrap_or_else(|| {
        usage_and_exit(Some("run needs an algorithm"));
    });
    let Some(algo) = find_algorithm(algo_name) else {
        usage_and_exit(Some(&unknown_algorithm(algo_name)));
    };

    // Scenario: either an on-disk graph (echoed as family `provided`) or a
    // generated family.
    let scn = if let Some(path) = flags.get("graph") {
        let g = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| io::read_graph(&text).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| usage_and_exit(Some(&format!("--graph '{path}': {e}"))));
        Scenario::from_graph(or_usage(spec_over(FamilySpec::Provided, g.n(), flags)), g)
    } else if let Some(f) = flags.get("family") {
        or_usage(spec_from_flags(f, flags).and_then(|s| s.build().map_err(|e| e.to_string())))
    } else {
        usage_and_exit(Some("run needs --graph <file> or --family <name>"));
    };

    let (alo, ahi) = analysis::arboricity_bounds(&scn.graph);
    eprintln!(
        "graph: n = {}, m = {}, Δ = {}, arboricity ∈ [{alo},{ahi}]",
        scn.graph.n(),
        scn.graph.m(),
        scn.graph.max_degree()
    );

    let mut eng = scn.engine();
    let record = run_checked(algo, &mut eng, &scn).unwrap_or_else(|e| fail(algo_name, e));
    print_record(&record, eng.config().capacity.send);

    if let Some(path) = flags.get("json") {
        let path = if path.is_empty() {
            format!("{algo_name}.json")
        } else {
            path.clone()
        };
        std::fs::write(&path, record.to_json_pretty() + "\n").expect("write JSON record");
        eprintln!("wrote {path}");
    }
    if record.verdict == ncc::runner::Verdict::Failed {
        std::process::exit(1);
    }
}

fn print_record(r: &RunRecord, send_cap: usize) {
    let verdict = match r.verdict {
        ncc::runner::Verdict::Verified => "verified ✓",
        ncc::runner::Verdict::Unchecked => "completed (no checker)",
        ncc::runner::Verdict::Failed => "VERIFICATION FAILED ✗",
    };
    println!("{}: {} — {verdict}", r.algorithm, r.summary);
    let cap_str = if send_cap == usize::MAX {
        "unbounded".to_string()
    } else {
        send_cap.to_string()
    };
    println!(
        "totals: {} rounds, {} msgs, peak load {}/{cap_str} per node-round, {} drops, {} truncated",
        r.rounds, r.sent, r.max_load, r.dropped, r.truncated
    );
    // Only the counters the active model actually produces: km charge for
    // the k-machine conversion, per-edge loads for the pairwise-budget
    // models.
    match r.scenario.model {
        ModelSpec::Ncc => {}
        ModelSpec::KMachine { .. } => {
            println!(
                "model {}: {} charged k-machine rounds",
                r.scenario.model.name(),
                r.km_rounds
            );
        }
        ModelSpec::CongestedClique { .. } | ModelSpec::HybridLocal { .. } => {
            println!(
                "model {}: peak edge load {}",
                r.scenario.model.name(),
                r.report.total.max_edge_load
            );
        }
    }
    for (label, s) in &r.report.stages {
        println!(
            "  stage {label:<24} {:>6} rounds {:>9} msgs",
            s.rounds, s.sent
        );
    }
}

fn cmd_suite(flags: &Flags) {
    let threads = or_usage(flag(flags, "threads")).unwrap_or(1);
    // `--family <substring>` restricts the scenario axis, `--filter
    // <substring>` the algorithm axis — the fast-iteration path when
    // tuning one algorithm without regenerating the full snapshot.
    let given = |key| flags.get(key).map(String::as_str).filter(|f| !f.is_empty());
    let (family_filter, algo_filter) = (given("family"), given("filter"));
    let partial = family_filter.is_some() || algo_filter.is_some();
    let out_path = match flags.get("out") {
        Some(p) if !p.is_empty() => p.clone(),
        // a filtered run is not a full snapshot: never overwrite the
        // CI-gated default file with a partial record set
        _ if partial => "BENCH_suite.partial.json".to_string(),
        _ => "BENCH_suite.json".to_string(),
    };
    // Default: the standard grid, which already carries a model dimension.
    // `--model <m>` instead re-runs the whole family × n sweep under one
    // model, resolving defaulted model parameters (e.g. the
    // congested-clique edge cap) against each cell's own n.
    let grid: Vec<ScenarioSpec> = if flags.contains_key("model") {
        standard_grid_for_model(ModelSpec::Ncc)
            .into_iter()
            .map(|s| {
                let model = or_usage(model_from_flags(s.n, flags)).expect("--model present");
                s.with_model(model)
            })
            .collect()
    } else {
        standard_grid()
    };
    let grid = filter_grid(grid, family_filter);
    if grid.is_empty() {
        usage_and_exit(Some(&format!(
            "--family '{}' matches no scenario",
            family_filter.unwrap_or_default()
        )));
    }
    if partial && !flags.contains_key("out") {
        eprintln!(
            "note: partial suite (--filter/--family) — not a full snapshot; writing {out_path}"
        );
    }
    eprintln!(
        "suite: {} algorithms × {} scenarios",
        algo_filter.map_or(algorithms().len(), |f| {
            algorithms()
                .iter()
                .filter(|a| a.name().contains(&f.to_lowercase()))
                .count()
        }),
        grid.len()
    );
    let out = run_suite_filtered(&grid, threads, algo_filter)
        .unwrap_or_else(|e| panic!("suite failed: {e}"));
    for rec in &out.records {
        println!(
            "{:<24} {:<22} {:>7} rounds  {:>4} load  {:>3} drops  {}",
            rec.algorithm,
            rec.scenario.label(),
            rec.rounds,
            rec.max_load,
            rec.dropped,
            if rec.verdict.ok() { "ok" } else { "FAIL" }
        );
    }
    let failed = out.records.iter().filter(|r| !r.verdict.ok()).count();
    out.write(&out_path).expect("write suite JSON");
    eprintln!("wrote {out_path} ({} records)", out.records.len());
    if failed > 0 {
        eprintln!("{failed} record(s) FAILED verification");
        std::process::exit(1);
    }
}

/// `explain <algo>` — run the algorithm once and print the scheduler's
/// packing plan of its declared DAG instead of the results, then that
/// run's activity and resources.
fn cmd_explain(positional: &[String], flags: &Flags) {
    let algo_name = positional.first().map(String::as_str).unwrap_or_else(|| {
        usage_and_exit(Some("explain needs an algorithm"));
    });
    let Some(algo) = find_algorithm(algo_name) else {
        usage_and_exit(Some(&unknown_algorithm(algo_name)));
    };
    let family = flags.get("family").map(String::as_str).unwrap_or("gnp");
    let gen_start = std::time::Instant::now();
    let scn =
        or_usage(spec_from_flags(family, flags).and_then(|s| s.build().map_err(|e| e.to_string())));
    let gen_ms = gen_start.elapsed().as_secs_f64() * 1000.0;
    print!("{}", explain(algo, &scn, gen_ms));
}

/// The `explain` body, separated from process concerns so tests can call
/// it: the packing plan (or a note that there is none), then a one-line
/// activity-sparsity summary — how wide the widest round was and what
/// fraction of the naive `rounds × n` node-rounds the run actually stepped
/// (the engine's per-round cost is O(active), so this ratio is the real
/// step-phase work) — and the engine's resident footprint after the run.
fn explain(algo: &'static dyn ncc::runner::Algorithm, scn: &Scenario, gen_ms: f64) -> String {
    let mut eng = scn.engine();
    let (plan, rec) = explain_text(algo, &mut eng, scn).unwrap_or_else(|e| fail(algo.name(), e));
    let plan = plan.unwrap_or_else(|| {
        format!(
            "{} is not declared as a protocol DAG — no packing plan to show\n",
            algo.name()
        )
    });
    let (peak, sum) = (
        rec.metric("peak_active").unwrap_or(0),
        rec.metric("sum_active").unwrap_or(0),
    );
    let naive = rec.rounds.saturating_mul(scn.spec.n as u64).max(1);
    let footprint = eng.resident_bytes();
    format!(
        "{plan}activity: peak_active {} / n {} · sum_active {} ({:.1}% of rounds × n)\n\
         resources: gen {:.2} ms · resident {:.1} B/node ({} B engine state)\n",
        peak,
        scn.spec.n,
        sum,
        100.0 * sum as f64 / naive as f64,
        gen_ms,
        footprint.per_node(scn.spec.n),
        footprint.total()
    )
}

/// A spec the algorithm is not defined on is the user's error (usage, like
/// any other bad scenario, exit 2). A typed failure mid-run — an engine
/// rejection, or a w.h.p. event that the flags provoked — is one
/// `error:` line and exit 1, never a panic.
fn fail(algo_name: &str, e: RunnerError) -> ! {
    match e {
        RunnerError::Model(e) => {
            eprintln!("error: {algo_name} failed: {e}");
            std::process::exit(1)
        }
        e => usage_and_exit(Some(&e.to_string())),
    }
}

/// `serve` — run the resident scenario coordinator (see `docs/serving.md`).
/// Default is the stdio front (`--stdio`); `--listen <addr>` binds a local
/// TCP socket instead and runs until a `Shutdown` request lands.
fn cmd_serve(flags: &Flags) {
    let cfg = or_usage(serve_config(flags));
    match flags.get("listen") {
        Some(addr) if !addr.is_empty() => {
            let server = Server::spawn(cfg, addr).unwrap_or_else(|e| {
                usage_and_exit(Some(&format!("cannot bind {addr}: {e}")));
            });
            eprintln!(
                "serving on {} ({} workers, cache {})",
                server.addr(),
                cfg.workers,
                cfg.cache_capacity
            );
            while !server.coordinator().is_shutdown() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            server.shutdown_and_join();
        }
        Some(_) => usage_and_exit(Some("--listen needs an address (e.g. 127.0.0.1:7070)")),
        None => {
            if let Err(e) = serve_stdio(cfg) {
                usage_and_exit(Some(&e.to_string()));
            }
        }
    }
}

/// The pool shape the `serve` flags ask for; the two fronts exclude each
/// other.
fn serve_config(flags: &Flags) -> Result<ServeConfig, String> {
    if flags.contains_key("stdio") && flags.contains_key("listen") {
        return Err("--stdio and --listen are mutually exclusive".into());
    }
    let mut cfg = ServeConfig::default();
    if let Some(w) = flag(flags, "workers")? {
        cfg = cfg.with_workers(w);
    }
    if let Some(c) = flag(flags, "cache")? {
        cfg = cfg.with_cache_capacity(c);
    }
    Ok(cfg)
}

fn cmd_list() {
    println!("registered algorithms:");
    for a in algorithms() {
        println!("  {:<22} {}", a.name(), a.description());
    }
}

fn cmd_info(flags: &Flags) {
    let n = or_usage(flag(flags, "n")).unwrap_or(64);
    let cfg = NetConfig::new(n, 0);
    let c = cfg.capacity;
    println!("Node-Capacitated Clique, n = {n}:");
    println!(
        "  send/recv cap : {} messages per node per round (κ=8 · ⌈log₂ n⌉)",
        c.send
    );
    println!(
        "  payload budget: {} bits per message (β=24 · ⌈log₂ n⌉, floor 128)",
        c.payload_bits
    );
    println!(
        "  butterfly     : d = {} ({} columns)",
        ncc::model::ilog2_floor(n.max(2)),
        1usize << ncc::model::ilog2_floor(n.max(2))
    );
    println!(
        "  network budget: ≈ {} messages per round network-wide",
        n.saturating_mul(c.send)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn family_spec_covers_cli_vocabulary() {
        let flags = HashMap::new();
        for fam in [
            "path",
            "cycle",
            "star",
            "complete",
            "grid",
            "tgrid",
            "tree",
            "forests",
            "gnp",
            "gnm",
            "ba",
            "geometric",
            "rmat",
            "hyperbolic",
        ] {
            let (spec, n) = family_spec(fam, 64, &flags).unwrap();
            assert!(n >= 1);
            let spec = ScenarioSpec::new(spec, n, 1);
            assert!(spec.build().is_ok(), "family {fam} must build");
        }
    }

    #[test]
    fn spec_from_flags_threads_and_weights() {
        let mut flags = HashMap::new();
        flags.insert("n".to_string(), "32".to_string());
        flags.insert("threads".to_string(), "4".to_string());
        flags.insert("weights".to_string(), "100".to_string());
        let spec = spec_from_flags("gnp", &flags).unwrap();
        assert_eq!(spec.n, 32);
        assert_eq!(spec.threads, 4);
        assert_eq!(spec.weight_max, 100);
        assert_eq!(spec.model, ModelSpec::Ncc);
    }

    #[test]
    fn model_flags_cover_the_vocabulary() {
        let with = |pairs: &[(&str, &str)]| -> HashMap<String, String> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(model_from_flags(64, &with(&[])), Ok(None));
        assert_eq!(
            model_from_flags(64, &with(&[("model", "ncc")])),
            Ok(Some(ModelSpec::Ncc))
        );
        assert_eq!(
            model_from_flags(64, &with(&[("model", "cc"), ("edge-cap", "5")])),
            Ok(Some(ModelSpec::CongestedClique { edge_cap: 5 }))
        );
        // default edge cap tracks the NCC per-node constant at that n
        assert_eq!(
            model_from_flags(64, &with(&[("model", "congested-clique")])),
            Ok(Some(ModelSpec::CongestedClique {
                edge_cap: Capacity::default_for(64).send
            }))
        );
        assert_eq!(
            model_from_flags(
                64,
                &with(&[("model", "kmachine"), ("machines", "16"), ("link-cap", "2")])
            ),
            Ok(Some(ModelSpec::KMachine {
                k: 16,
                link_capacity: 2
            }))
        );
        assert_eq!(
            model_from_flags(64, &with(&[("model", "hybrid"), ("local-cap", "3")])),
            Ok(Some(ModelSpec::HybridLocal { local_edge_cap: 3 }))
        );
    }

    #[test]
    fn suite_filters_restrict_grid_and_registry() {
        // --family restricts the scenario axis through filter_grid
        let grid = standard_grid();
        let only_gnp = filter_grid(grid.clone(), Some("gnp"));
        assert!(!only_gnp.is_empty());
        assert!(only_gnp.iter().all(|s| s.label().contains("gnp")));
        // --filter restricts the algorithm axis through run_suite_filtered;
        // a tiny grid keeps the test fast
        let small = vec![ScenarioSpec::new(FamilySpec::Path, 8, 1)];
        let out = run_suite_filtered(&small, 1, Some("gossip")).unwrap();
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].algorithm, "gossip");
        // the CLI treats an empty flag value as "no filter"
        let mut flags = HashMap::new();
        flags.insert("filter".to_string(), String::new());
        let algo_filter = flags
            .get("filter")
            .map(String::as_str)
            .filter(|f| !f.is_empty());
        assert_eq!(algo_filter, None);
    }

    #[test]
    fn explain_renders_the_packing_plan() {
        let mut flags = HashMap::new();
        flags.insert("n".to_string(), "32".to_string());
        flags.insert("seed".to_string(), "3".to_string());
        let scn = spec_from_flags("gnp", &flags).unwrap().build().unwrap();
        // a DAG-declared algorithm gets a stage-by-stage plan with budget use
        let text = explain(find_algorithm("apsp").unwrap(), &scn, 0.0);
        assert!(text.contains("packing plan for `apsp`"));
        assert!(text.contains("lane budget"));
        assert!(text.contains("stage    1"));
        assert!(text.contains("spread"), "lane labels must be listed");
        assert!(text.contains("total:"));
        assert!(text.contains("activity: peak_active"));
        // matching's round-1 exchanges end on the clock: `pad k` stages
        let text = explain(find_algorithm("matching").unwrap(), &scn, 0.0);
        assert!(text.contains("  pad "), "padded stages are marked");
        assert!(text.contains(" padded ("), "the totals count them");
        // a baseline has no DAG and therefore no plan, but still an activity line
        let text = explain(find_algorithm("gossip").unwrap(), &scn, 0.0);
        assert!(text.starts_with("gossip is not declared as a protocol DAG"));
        assert!(text.contains("activity: peak_active"));
    }

    #[test]
    fn spec_from_flags_applies_model() {
        let mut flags = HashMap::new();
        flags.insert("n".to_string(), "32".to_string());
        flags.insert("model".to_string(), "kmachine".to_string());
        let spec = spec_from_flags("gnp", &flags).unwrap();
        assert_eq!(
            spec.model,
            ModelSpec::KMachine {
                k: 8,
                link_capacity: 1
            }
        );
        // cc switches the node capacity off in the same stroke
        flags.insert("model".to_string(), "cc".to_string());
        let spec = spec_from_flags("gnp", &flags).unwrap();
        assert_eq!(spec.capacity, Capacity::unbounded());
    }

    #[test]
    fn bad_flag_values_are_errors_naming_the_flag() {
        for (key, value) in [("n", "x"), ("weights", "-1"), ("param", "abc")] {
            let flags = HashMap::from([(key.to_string(), value.to_string())]);
            let err = spec_from_flags("gnp", &flags).unwrap_err();
            assert!(
                err.contains(&format!("--{key} ")) && err.contains(&format!("'{value}'")),
                "{err}"
            );
        }
        let flags = HashMap::from([("workers".to_string(), "many".to_string())]);
        assert!(serve_config(&flags).unwrap_err().contains("--workers"));
        let fronts = HashMap::from([
            ("stdio".to_string(), String::new()),
            ("listen".to_string(), "127.0.0.1:0".to_string()),
        ]);
        assert!(serve_config(&fronts)
            .unwrap_err()
            .contains("mutually exclusive"));
    }
}
