//! # ncc-bench — the experiment harness
//!
//! One binary per experiment under `src/bin/` (its module header names the
//! paper claim it tests); each prints a table in the shape of the paper's results (round counts next to the
//! theorem bound, plus the bound *ratio*, which should stay flat across the
//! sweep if the asymptotic shape holds). Criterion benches in `benches/`
//! cover wall-clock performance of the simulator itself.
//!
//! Everything is seeded; rerunning a binary reproduces its table exactly.

use ncc_graph::Graph;
use ncc_model::{Engine, NetConfig};

/// Standard experiment seed, the SPAA'19 conference date; the suite's
/// `ncc_runner::SUITE_SEED` is the same value.
pub const SEED: u64 = 20190622;

/// log₂-style helper used in bound formulas.
pub fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// Prints a fixed-width table.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            widths: headers.iter().map(|s| s.len()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    pub fn print(&self) {
        let line = |cells: &[String], widths: &[usize]| {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                s.push_str(&format!("| {c:>w$} "));
            }
            s.push('|');
            println!("{s}");
        };
        line(&self.headers, &self.widths);
        let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
        line(&sep, &self.widths);
        for r in &self.rows {
            line(r, &self.widths);
        }
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Builds an engine with the repository-default capacity.
pub fn engine(n: usize, seed: u64) -> Engine {
    Engine::new(NetConfig::new(n, seed))
}

/// Builds an engine with the repository-default capacity and `threads`
/// worker threads for the step and route phases. Results are bit-identical
/// to `threads = 1`.
pub fn engine_threaded(n: usize, seed: u64, threads: usize) -> Engine {
    Engine::new(NetConfig::new(n, seed).with_threads(threads))
}

/// Parses `--threads <t>` from a raw argument list (default 1), so every
/// experiment binary plumbs the deterministic parallel executor the same
/// way.
pub fn cli_threads(args: &[String]) -> usize {
    cli_value(args, "--threads")
        .map(|v| v.parse().expect("--threads needs an integer"))
        .unwrap_or(1)
}

/// Parses `--json <path>` from a raw argument list.
pub fn cli_json(args: &[String]) -> Option<String> {
    cli_value(args, "--json").map(str::to_string)
}

/// Value of `flag`, if present. A `--`-prefixed next token is another flag,
/// not a value (`--json --threads 4` must not read `--threads` as the json
/// path); a flag without a value is an error.
fn cli_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => v.as_str(),
            _ => panic!("{flag} needs a value"),
        })
}

/// The bounded-arboricity workload family used across Table-1 experiments.
pub fn arboricity_workload(n: usize, a: usize, seed: u64) -> Graph {
    ncc_graph::gen::forest_union(n, a, seed)
}

/// Describes a graph in one line (for table captions).
pub fn describe(g: &Graph) -> String {
    let (lo, hi) = ncc_graph::analysis::arboricity_bounds(g);
    format!(
        "n={} m={} deg_max={} arboricity∈[{lo},{hi}]",
        g.n(),
        g.m(),
        g.max_degree()
    )
}

/// Rebuilds a spec's input graph for post-hoc analysis (diameter,
/// arboricity, sequential baselines). Deterministic, so the analysed graph
/// is exactly the one the run saw.
pub fn spec_graph(spec: &ncc_runner::ScenarioSpec) -> Graph {
    spec.build_graph()
        .unwrap_or_else(|e| panic!("unbuildable spec {}: {e}", spec.label()))
}

/// Writes a migrated experiment's records as JSON (the `BENCH_*.json`
/// schema shared with `ncc-cli suite`), so every sweep leaves a
/// machine-readable trail for the perf-trajectory history.
pub fn write_records_json(path: &str, experiment: &str, records: &[ncc_runner::RunRecord]) {
    ncc_runner::SuiteOutput::new(experiment, SEED, records.to_vec())
        .write(path)
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["n", "rounds", "ratio"]);
        t.row(vec!["64".into(), "120".into(), f2(1.25)]);
        t.print();
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    fn lg_monotone() {
        assert!(lg(1024) > lg(256));
        assert!((lg(1024) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cli_flags_parse() {
        let args: Vec<String> = ["--json", "out.json", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(cli_threads(&args), 4);
        assert_eq!(cli_json(&args).as_deref(), Some("out.json"));
        assert_eq!(cli_threads(&[]), 1);
        assert_eq!(cli_json(&[]), None);
    }

    #[test]
    #[should_panic(expected = "--json needs a value")]
    fn cli_json_rejects_flag_as_value() {
        // the old parser silently returned "--threads" as the json path
        let args: Vec<String> = ["--json", "--threads", "4"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let _ = cli_json(&args);
    }

    #[test]
    fn spec_graph_matches_run_input() {
        let spec = ncc_runner::ScenarioSpec::new(ncc_runner::FamilySpec::Gnp { p: 0.2 }, 32, 5);
        let g = spec_graph(&spec);
        assert_eq!(g.n(), 32);
        assert_eq!(g.m(), spec.build().unwrap().graph.m());
    }
}
