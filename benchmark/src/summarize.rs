//! `repeat.sh`'s table: the same benchmark run `k` times on one seed,
//! one row per workload and end-to-end metric, gated on the spread.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::manifest::Manifest;
use crate::report::PROBE;
use crate::stats::{median, spread};

/// Counts that are a function of the seed alone: on one seed they must
/// repeat bit for bit, whatever the host does.
pub const EXACT: [&str; 16] = [
    "rounds",
    "graph.edges",
    "runner.record_json_bytes",
    "butterfly.agg_rounds",
    "butterfly.dag_stages",
    "butterfly.dag_lane_stages",
    "butterfly.dag_splits",
    "core.prep_rounds",
    "core.main_rounds",
    "core.prep_share",
    "core.mst_findmin_rounds",
    "model.mux.allocs_per_msg",
    "serve.response_bytes",
    "serve.hit_ratio",
    "serve.engine_reuse_ratio",
    "serve.errors",
];

/// Parses one `workload/metric value unit (samples=N)` line.
pub fn parse_line(line: &str) -> Option<(&str, &str, f64)> {
    let mut parts = line.split(' ');
    let (workload, metric) = parts.next()?.split_once('/')?;
    let value = parts.next()?.parse().ok()?;
    (parts.next().is_some() && line.ends_with(')')).then_some((workload, metric, value))
}

/// What a row's values must do for `repeat.sh` to pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// A count: every run reads the same. Not a spread of 0: quartiles
    /// do not see one run in ten that differs.
    Exact,
    /// A measurement: the spread stays within this share of the median,
    /// the metric's bound. That is the driver's rule for accepting a
    /// benchmark; it also wants the spread under a third of the bound,
    /// which the table marks and does not gate.
    Within(f64),
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub values: Vec<f64>,
    /// `None` for a metric that is only shown.
    pub gate: Option<Gate>,
}

impl Row {
    pub fn spread(&self) -> f64 {
        spread(&self.values)
    }

    pub fn ok(&self) -> bool {
        match self.gate {
            None => true,
            Some(Gate::Exact) => self.values.iter().all(|v| *v == self.values[0]),
            Some(Gate::Within(limit)) => self.spread() <= limit,
        }
    }
}

/// One row per workload and metric, in manifest order, from the text of
/// `k` runs; the fixed probes' metrics follow as one more workload.
/// End-to-end metrics are gated at their bound, exact counts on
/// equality. `rounds` is both, and exactness wins: on one seed it must
/// not move.
pub fn rows(outputs: &[String], manifest: &Manifest) -> Vec<Row> {
    let mut seen: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for text in outputs {
        for (w, m, v) in text.lines().filter_map(parse_line) {
            seen.entry((w.to_string(), m.to_string()))
                .or_default()
                .push(v);
        }
    }
    let mut out = Vec::new();
    for w in manifest.workloads.iter().map(String::as_str).chain([PROBE]) {
        for d in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            let Some(values) = seen.remove(&(w.to_string(), d.name.clone())) else {
                continue;
            };
            let gate = if EXACT.contains(&d.name.as_str()) {
                Some(Gate::Exact)
            } else {
                d.bound.map(Gate::Within)
            };
            out.push(Row {
                workload: w.to_string(),
                metric: d.name.clone(),
                values,
                gate,
            });
        }
    }
    out
}

pub fn main(files: &[String], manifest: &Manifest) -> ExitCode {
    let mut outputs = Vec::new();
    for f in files {
        match std::fs::read_to_string(f) {
            Ok(text) => outputs.push(text),
            Err(e) => {
                eprintln!("{f}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let rows = rows(&outputs, manifest);
    if rows.is_empty() {
        eprintln!("no metric lines in {} file(s)", files.len());
        return ExitCode::from(2);
    }
    println!("| workload | metric | median | spread | limit | runs |");
    println!("|---|---|---|---|---|---|");
    let mut bad = 0;
    for r in &rows {
        // ungated per-layer rows would drown the table
        let Some(gate) = r.gate else { continue };
        bad += usize::from(!r.ok());
        let (limit, steady) = match gate {
            Gate::Exact => ("exact".to_string(), true),
            Gate::Within(limit) => (format!("{:.1} %", 100.0 * limit), r.spread() <= limit / 3.0),
        };
        let verdict = match (r.ok(), steady) {
            (false, _) => " **over**",
            (true, false) => " (over a third)",
            (true, true) => "",
        };
        let runs: Vec<String> = r.values.iter().map(|v| format!("{v:.4}")).collect();
        println!(
            "| {} | {} | {:.4} | {:.2} %{verdict} | {limit} | {} |",
            r.workload,
            r.metric,
            median(&r.values),
            100.0 * r.spread(),
            runs.join(" ")
        );
    }
    if bad > 0 {
        eprintln!("{bad} cell(s) spread further than their bound, or an exact count moved");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_metric_lines_and_nothing_else() {
        assert_eq!(
            parse_line("dag_bfs/op_ms 351.25 ms (samples=24)"),
            Some(("dag_bfs", "op_ms", 351.25))
        );
        assert_eq!(parse_line("# dag_bfs seed=7"), None);
        assert_eq!(parse_line("{\"correct\":true}"), None);
        assert_eq!(parse_line("dag_bfs/op_ms fast ms (samples=1)"), None);
        assert_eq!(parse_line(""), None);
    }

    #[test]
    fn gates_timings_at_the_bound_and_counts_on_equality() {
        let m = Manifest::load();
        let bound = |name: &str| {
            let d = m.end_to_end.iter().find(|d| d.name == name).unwrap();
            d.bound.unwrap()
        };
        let limit = bound("op_ms");
        let run = |op: f64, rounds: f64| {
            format!("# x\ndag_bfs/op_ms {op} ms (samples=9)\ndag_bfs/rounds {rounds} rounds (samples=9)\n")
        };
        // quartiles of [100 - d, 100, 100 + d] are the ends: spread 2d %
        let three = |d: f64| {
            [
                run(100.0 - d, 870.0),
                run(100.0, 870.0),
                run(100.0 + d, 870.0),
            ]
        };
        let steady = rows(&three(0.8 * 50.0 * limit), &m);
        assert_eq!(steady.len(), 2);
        assert_eq!(steady[0].metric, "op_ms");
        assert_eq!(steady[0].gate, Some(Gate::Within(limit)));
        assert!(steady.iter().all(Row::ok));
        let noisy = rows(&three(1.2 * 50.0 * limit), &m);
        assert!(!noisy[0].ok() && noisy[1].ok());
        let drifted = rows(&[run(100.0, 870.0), run(100.0, 871.0)], &m);
        assert_eq!(
            drifted[1].gate,
            Some(Gate::Exact),
            "rounds is bounded and exact"
        );
        assert!(drifted[0].ok() && !drifted[1].ok());
        // a count that is 0 on every run but one has not repeated,
        // though its quartiles have
        let errs = |e: u32| format!("probe/serve.errors {e} count (samples=12)\n");
        let mut ten = vec![errs(0); 10];
        ten[2] = errs(1);
        let once = rows(&ten, &m);
        assert_eq!((once.len(), once[0].gate), (1, Some(Gate::Exact)));
        assert_eq!(once[0].spread(), 0.0);
        assert!(!once[0].ok());
        assert!(rows(&[errs(0), errs(0)], &m)[0].ok());
    }
}
