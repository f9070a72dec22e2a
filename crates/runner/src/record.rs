//! Typed run results: what one `(algorithm, scenario)` cell produced.
//!
//! A [`RunRecord`] carries only *deterministic* quantities — round and
//! message counters, the correctness verdict, the per-stage breakdown —
//! never wall-clock. That makes the JSON form byte-stable across reruns,
//! thread counts, and machines, which is what lets `bench_compare` gate CI
//! on whole suite snapshots instead of a single hand-instrumented binary.

use ncc_core::AlgoReport;
use serde::{Deserialize, Serialize};

use crate::ScenarioSpec;

/// Outcome of the centralised correctness check for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Output validated against the centralised reference checker.
    Verified,
    /// The algorithm has no reference checker (e.g. pure dissemination
    /// baselines); the run completed and the model invariants held.
    Unchecked,
    /// The checker rejected the output — always a bug.
    Failed,
}

impl Verdict {
    /// `true` unless the checker rejected the output.
    pub fn ok(&self) -> bool {
        !matches!(self, Verdict::Failed)
    }

    /// From a checker result: `Ok → Verified`, `Err → Failed`.
    pub fn from_check(res: Result<(), String>) -> Self {
        match res {
            Ok(()) => Verdict::Verified,
            Err(_) => Verdict::Failed,
        }
    }
}

/// The typed result of running one algorithm on one scenario.
///
/// Top-level counter fields duplicate `report.total` so JSON consumers
/// (plots, the CI gate) can read the headline numbers without digging
/// through stages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Registry name of the algorithm (`mst`, `bfs`, ...).
    pub algorithm: String,
    /// Echo of the scenario that produced this record. `threads` echoes the
    /// spec as written — never an execution-time override — so records are
    /// byte-identical for any actual thread count.
    pub scenario: ScenarioSpec,
    /// Total communication rounds, including in-model setup (seed
    /// agreement, orientation, broadcast trees) where the algorithm uses it.
    pub rounds: u64,
    pub sent: u64,
    pub dropped: u64,
    pub truncated: u64,
    /// Peak per-node per-round load (the Lemma 4.11 quantity).
    pub max_load: u64,
    /// Model rounds charged by the scenario's network model (k-machine
    /// rounds under `ModelSpec::KMachine`; 0 for models that charge
    /// nothing beyond the engine rounds themselves).
    pub km_rounds: u64,
    /// Algorithm phases (Boruvka / peeling / frontier), where meaningful.
    pub phases: Option<u32>,
    pub verdict: Verdict,
    /// One-line human description of the output (edge counts, colors, ...).
    pub summary: String,
    /// Algorithm-specific named outputs (`mis_size`, `palette`, ...), so
    /// sweeps can tabulate results without parsing summaries.
    pub metrics: Vec<(String, u64)>,
    /// Per-stage statistics in execution order.
    pub report: AlgoReport,
}

impl RunRecord {
    /// Assembles a record, headline fields mirrored from `report.total`.
    /// The registry's one run path is the caller; it appends each
    /// algorithm's metrics after the two universal ones.
    pub fn new(
        algorithm: &str,
        spec: &ScenarioSpec,
        report: AlgoReport,
        verdict: Verdict,
        phases: Option<u32>,
        summary: String,
    ) -> Self {
        let t = report.total;
        RunRecord {
            algorithm: algorithm.to_string(),
            scenario: spec.clone(),
            rounds: t.rounds,
            sent: t.sent,
            dropped: t.dropped,
            truncated: t.truncated,
            max_load: t.peak_load(),
            km_rounds: t.km_rounds,
            phases,
            verdict,
            summary,
            // Activity-sparsity metrics are universal: every record shows
            // how wide its widest round was and how many node-rounds of
            // step work the run actually cost (the O(active) quantity —
            // compare against rounds × n to see the sparsity win).
            metrics: vec![
                ("peak_active".to_string(), t.peak_active),
                ("sum_active".to_string(), t.node_rounds),
            ],
            report,
        }
    }

    /// Looks a named output up.
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Compact JSON form (`serde_json::to_string`).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("RunRecord serializes")
    }

    /// Pretty JSON form, for files meant to be read by humans and diffed.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("RunRecord serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FamilySpec;
    use ncc_model::ExecStats;

    fn sample() -> RunRecord {
        let mut report = AlgoReport::default();
        report.push(
            "setup",
            ExecStats {
                rounds: 5,
                sent: 40,
                delivered: 40,
                max_out: 3,
                ..ExecStats::default()
            },
        );
        report.push(
            "main",
            ExecStats {
                rounds: 7,
                sent: 10,
                delivered: 9,
                dropped: 1,
                max_in: 6,
                ..ExecStats::default()
            },
        );
        let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.25 }, 32, 3);
        let mut rec = RunRecord::new(
            "demo",
            &spec,
            report,
            Verdict::Verified,
            Some(2),
            "demo output".into(),
        );
        rec.metrics.push(("size".to_string(), 17));
        rec
    }

    #[test]
    fn headline_fields_mirror_report_total() {
        let r = sample();
        assert_eq!(r.rounds, 12);
        assert_eq!(r.sent, 50);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.max_load, 6);
        assert!(r.verdict.ok());
    }

    #[test]
    fn record_json_round_trips() {
        let r = sample();
        let back: RunRecord = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(back.algorithm, "demo");
        assert_eq!(back.scenario, r.scenario);
        assert_eq!(back.rounds, r.rounds);
        assert_eq!(back.report.stages.len(), 2);
        assert_eq!(back.report.total, r.report.total);
        assert_eq!(back.verdict, Verdict::Verified);
        assert_eq!(back.metric("size"), Some(17));
        assert_eq!(back.metric("missing"), None);
        // and the JSON itself is stable
        assert_eq!(back.to_json(), r.to_json());
    }

    #[test]
    fn activity_metrics_are_always_present() {
        let r = sample();
        assert_eq!(r.metric("peak_active"), Some(r.report.total.peak_active));
        assert_eq!(r.metric("sum_active"), Some(r.report.total.node_rounds));
    }

    #[test]
    fn verdict_from_check() {
        assert_eq!(Verdict::from_check(Ok(())), Verdict::Verified);
        assert_eq!(Verdict::from_check(Err("bad".into())), Verdict::Failed);
        assert!(!Verdict::Failed.ok());
        assert!(Verdict::Unchecked.ok());
    }
}
