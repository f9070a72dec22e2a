//! `ncc-bench` — runs the paper's experiments from one static table.
//!
//! ```text
//! ncc-bench <experiment> [--json <path>]
//! ncc-bench all
//! ```
//!
//! `<experiment>` is a name from [`EXPERIMENTS`] (`exp02_aggbcast` …
//! `exp20_model_comparison`); `all` runs every one in table order.
//! `--json <path>` writes the experiment's records in the `BENCH_*.json`
//! schema, its name as the `experiment` field. Exits 1 if any record's
//! verdict is `Failed`, 101 if an experiment's in-body assert fails, 2 on
//! a usage error.

use ncc_bench::experiments::EXPERIMENTS;
use ncc_bench::{cli, usage_exit, write_records_json};
use ncc_runner::Verdict;

const USAGE: &str = "usage: ncc-bench <experiment> [--json <path>]\n       ncc-bench all";

fn main() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let usage = format!("{USAGE}\n\nEXPERIMENTS {}", names.join(" "));
    let cli = cli(&usage, &["json"]);
    let selected: Vec<_> = match cli.positional.as_slice() {
        [all] if all == "all" && cli.json.is_none() => EXPERIMENTS.iter().collect(),
        [name] => EXPERIMENTS.iter().filter(|(n, _)| n == name).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        usage_exit(&usage, "one experiment name (or `all`, without --json)");
    }
    let mut failed = 0;
    for (name, run) in selected {
        let records = run();
        if let Some(path) = &cli.json {
            write_records_json(path, name, &records);
        }
        for r in records.iter().filter(|r| r.verdict == Verdict::Failed) {
            eprintln!(
                "{name}: {} on {} FAILED verification",
                r.algorithm,
                r.scenario.label()
            );
            failed += 1;
        }
    }
    if failed > 0 {
        std::process::exit(1);
    }
}
