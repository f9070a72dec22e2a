//! Per-stage execution reports.
//!
//! The paper's theorems bound *total rounds*; understanding where rounds go
//! (tree setup vs. FindMin vs. synchronisation) is what the ablation
//! experiments need, so every algorithm driver labels its stages.

use ncc_butterfly::{Dag, DagOutputs, SchedReport};
use ncc_model::{Engine, ExecStats, ModelError};
use serde::{Deserialize, Serialize};

/// Accumulated statistics with labelled stages.
///
/// Serializes structurally (stages as `[label, stats]` pairs), so
/// `RunRecord` JSON needs no hand-rolled mirror structs.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AlgoReport {
    pub total: ExecStats,
    /// `(stage label, stats)` in execution order. Repeated labels are fine
    /// (e.g. one entry per Boruvka phase).
    pub stages: Vec<(String, ExecStats)>,
}

impl AlgoReport {
    /// Records a stage and folds it into the total.
    pub fn push(&mut self, label: impl Into<String>, stats: ExecStats) {
        self.total.merge(&stats);
        self.stages.push((label.into(), stats));
    }

    /// Runs `dag` on `engine` as the stage `label`: records its stats here
    /// and merges its packing plan into `plan`. Returns the nodes' outputs.
    pub fn run_dag(
        &mut self,
        label: impl Into<String>,
        dag: Dag<'_>,
        engine: &mut Engine,
        plan: &mut SchedReport,
    ) -> Result<DagOutputs, ModelError> {
        let run = dag.run(engine)?;
        self.push(label, run.stats);
        plan.merge(run.report);
        Ok(run.outputs)
    }

    /// Groups stages by *kind* (the label suffix after the last `:`, so the
    /// per-phase labels like `p3:ident1` and `p4:ident1` fold together) and
    /// returns `(kind, occurrences, total rounds)` sorted by rounds,
    /// descending. This is the round-budget breakdown used to see where an
    /// algorithm's time actually goes (synchronisation vs routing vs
    /// delivery).
    pub fn breakdown(&self) -> Vec<(String, usize, u64)> {
        let mut by_kind: std::collections::BTreeMap<String, (usize, u64)> = Default::default();
        for (label, s) in &self.stages {
            let kind = label.rsplit(':').next().unwrap_or(label).to_string();
            // strip trailing iteration indices like "ident2.3" → "ident2"
            let kind = kind.split('.').next().unwrap_or(&kind).to_string();
            let e = by_kind.entry(kind).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.rounds;
        }
        let mut rows: Vec<(String, usize, u64)> =
            by_kind.into_iter().map(|(k, (c, r))| (k, c, r)).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }

    /// Renders [`Self::breakdown`] as an aligned text table.
    pub fn breakdown_table(&self) -> String {
        let rows = self.breakdown();
        let mut out = String::from("stage                     runs     rounds\n");
        for (kind, runs, rounds) in rows {
            out.push_str(&format!("{kind:<24} {runs:>5} {rounds:>10}\n"));
        }
        out.push_str(&format!(
            "{:<24} {:>5} {:>10}\n",
            "TOTAL",
            self.stages.len(),
            self.total.rounds
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rounds: u64) -> ExecStats {
        ExecStats {
            rounds,
            ..ExecStats::default()
        }
    }

    #[test]
    fn push_accumulates_total() {
        let mut r = AlgoReport::default();
        r.push("setup", stats(5));
        r.push("phase", stats(7));
        r.push("phase", stats(9));
        assert_eq!(r.total.rounds, 21);
    }

    #[test]
    fn serde_round_trip_preserves_stages_and_total() {
        let mut r = AlgoReport::default();
        r.push("setup", stats(5));
        r.push("phase", stats(7));
        let json = serde_json::to_string(&r).unwrap();
        let back: AlgoReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.total, r.total);
        assert_eq!(back.stages.len(), 2);
        assert_eq!(back.stages[0].0, "setup");
        assert_eq!(back.stages[1].1.rounds, 7);
    }

    #[test]
    fn breakdown_folds_phase_labels() {
        let mut r = AlgoReport::default();
        r.push("p1:ident1", stats(10));
        r.push("p2:ident1", stats(20));
        r.push("p1:ident2.0", stats(5));
        r.push("p2:ident2.1", stats(5));
        r.push("trees", stats(3));
        let rows = r.breakdown();
        assert_eq!(rows[0], ("ident1".to_string(), 2, 30));
        assert_eq!(rows[1], ("ident2".to_string(), 2, 10));
        assert_eq!(rows[2], ("trees".to_string(), 1, 3));
        let table = r.breakdown_table();
        assert!(table.contains("ident1"));
        assert!(table.contains("TOTAL"));
        assert!(table.contains("43"));
    }
}
