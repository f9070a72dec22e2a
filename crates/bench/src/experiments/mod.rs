//! The experiments `ncc-bench <name>` runs, one module per paper claim, in
//! one static table. Each `run` prints its tables and returns the
//! [`RunRecord`]s it produced: the registry sweeps return one per row, the
//! primitive-level experiments drive the blocking entry points directly,
//! assert in-body and return none.

use crate::Table;
use ncc_runner::{run_named, RunRecord, ScenarioSpec};

pub mod exp02_aggbcast;
pub mod exp03_aggregation;
pub mod exp04_mcsetup;
pub mod exp05_multicast;
pub mod exp06_multiagg;
pub mod exp07_mst;
pub mod exp08_orientation;
pub mod exp09_bfs;
pub mod exp10_mis;
pub mod exp11_matching;
pub mod exp12_coloring;
pub mod exp13_gossip_broadcast;
pub mod exp14_kmachine;
pub mod exp15_capacity;
pub mod exp16_naive_vs_primitives;
pub mod exp17_routing_ablation;
pub mod exp18_contacts;
pub mod exp19_round_budget;
pub mod exp20_model_comparison;

/// An experiment's body: prints its tables, returns its records.
pub type Run = fn() -> Vec<RunRecord>;

/// Every experiment by name, in the order `ncc-bench all` runs them.
pub static EXPERIMENTS: &[(&str, Run)] = &[
    ("exp02_aggbcast", exp02_aggbcast::run),
    ("exp03_aggregation", exp03_aggregation::run),
    ("exp04_mcsetup", exp04_mcsetup::run),
    ("exp05_multicast", exp05_multicast::run),
    ("exp06_multiagg", exp06_multiagg::run),
    ("exp07_mst", exp07_mst::run),
    ("exp08_orientation", exp08_orientation::run),
    ("exp09_bfs", exp09_bfs::run),
    ("exp10_mis", exp10_mis::run),
    ("exp11_matching", exp11_matching::run),
    ("exp12_coloring", exp12_coloring::run),
    ("exp13_gossip_broadcast", exp13_gossip_broadcast::run),
    ("exp14_kmachine", exp14_kmachine::run),
    ("exp15_capacity", exp15_capacity::run),
    ("exp16_naive_vs_primitives", exp16_naive_vs_primitives::run),
    ("exp17_routing_ablation", exp17_routing_ablation::run),
    ("exp18_contacts", exp18_contacts::run),
    ("exp19_round_budget", exp19_round_budget::run),
    ("exp20_model_comparison", exp20_model_comparison::run),
];

/// The registry sweep: runs `algo` on every spec of `grid`, prints one
/// table row per record under `headers` (`row` builds it from the grid
/// key, the spec and the record), and returns the records in grid order.
pub fn sweep<K>(
    algo: &str,
    grid: &[(K, ScenarioSpec)],
    headers: &[&str],
    row: impl Fn(&K, &ScenarioSpec, &RunRecord) -> Vec<String>,
) -> Vec<RunRecord> {
    let (mut t, mut records) = (Table::new(headers), Vec::new());
    for (key, spec) in grid {
        let rec = run_named(algo, spec).unwrap_or_else(|e| panic!("{algo}: {e}"));
        t.row(row(key, spec, &rec));
        records.push(rec);
    }
    t.print();
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_names_are_unique_and_ordered() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }
}
