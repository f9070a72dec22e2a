//! # ncc-bench — the experiment harness
//!
//! One binary, `ncc-bench <experiment>`, runs the paper's experiments from
//! the static table in [`experiments`] (each module header names the paper
//! claim it tests); `exp01_table1`, `exp21_serve_load` and `exp22_scale`
//! keep binaries of their own because their harness differs, and
//! `bench_compare` diffs `BENCH_*.json` snapshots. Each experiment prints
//! a table in the shape of the paper's results (round counts next to the
//! theorem bound, plus the bound *ratio*, which should stay flat across the
//! sweep if the asymptotic shape holds). Criterion benches in `benches/`
//! cover wall-clock performance of the simulator itself.
//!
//! Everything is seeded; rerunning an experiment reproduces its table
//! exactly.

use ncc_graph::Graph;
use ncc_model::{Engine, NetConfig};
use ncc_runner::flags::{flag, parse_args, value};

pub mod experiments;

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

/// An experiment binary's command line, read by the shared parser of
/// [`ncc_runner::flags`].
pub struct Cli {
    pub positional: Vec<String>,
    /// `--json <path>`: where to write the records.
    pub json: Option<String>,
    /// `--threads <t>`, default 1.
    pub threads: usize,
    /// `--smoke`: the short variant CI runs.
    pub smoke: bool,
}

/// Parses this process's arguments, accepting only the flag names in
/// `accepted` (some of `json`, `threads`, `smoke`). A misspelt flag, a
/// `--json` without a path or a `--threads` that is not a number is a
/// usage error naming it, raised before any work starts.
pub fn cli(usage: &str, accepted: &[&str]) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_args(&args, accepted).and_then(|(positional, flags)| {
        Ok(Cli {
            json: value(&flags, "json")?.map(str::to_string),
            threads: flag(&flags, "threads")?.unwrap_or(1),
            smoke: flags.contains_key("smoke"),
            positional,
        })
    });
    parsed.unwrap_or_else(|e| usage_exit(usage, &e))
}

/// A usage error: the message and the usage to stderr, exit 2.
pub fn usage_exit(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{usage}");
    std::process::exit(2)
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

/// Writes an experiment's records as JSON (the `BENCH_*.json`
/// schema shared with `ncc-cli suite`), so every sweep leaves a
/// machine-readable trail for the perf-trajectory history.
pub fn write_records_json(path: &str, experiment: &str, records: &[ncc_runner::RunRecord]) {
    write_json(
        path,
        &ncc_runner::SuiteOutput::new(experiment, SEED, records.to_vec()),
    );
}

/// Writes `value` to `path` as pretty JSON with a trailing newline, and
/// says so on stdout.
pub fn write_json(path: &str, value: &impl serde::Serialize) {
    let json = serde_json::to_string_pretty(value).expect("serializable") + "\n";
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
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
    fn spec_graph_matches_run_input() {
        let spec = ncc_runner::ScenarioSpec::new(ncc_runner::FamilySpec::Gnp { p: 0.2 }, 32, 5);
        let g = spec_graph(&spec);
        assert_eq!(g.n(), 32);
        assert_eq!(g.m(), spec.build().unwrap().graph.m());
    }
}
