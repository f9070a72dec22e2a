//! The experiments `ncc-bench <name>` runs, one module per paper claim, in
//! one static table. Each `run` prints its tables and returns the
//! [`RunRecord`]s it produced: the registry sweeps return one per row, the
//! primitive-level experiments drive the blocking entry points directly,
//! assert in-body and return none.

use crate::{f2, Table, SEED};
use ncc_runner::{
    find_algorithm, run_checked, Bound, FamilySpec, RunRecord, Scenario, ScenarioSpec,
};

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

/// The registry sweep: builds each spec of `grid` once, runs `algo` on it
/// behind admission ([`run_checked`]) and prints one table row per record:
/// `row`'s cells under `headers` (built from the grid key, the scenario,
/// the record and the algorithm's [`Bound`]), then `rounds | bound | ratio
/// | ok`. Returns the records in grid order.
pub fn sweep<K>(
    algo: &str,
    grid: &[(K, ScenarioSpec)],
    headers: &[&str],
    row: impl Fn(&K, &Scenario, &RunRecord, &Bound) -> Vec<String>,
) -> Vec<RunRecord> {
    let alg = find_algorithm(algo).unwrap_or_else(|| panic!("`{algo}` is not registered"));
    let headers = [headers, &["rounds", "bound", "ratio", "ok"]].concat();
    let (mut t, mut records) = (Table::new(&headers), Vec::new());
    for (key, spec) in grid {
        let scn = spec.build().unwrap_or_else(|e| panic!("{algo}: {e}"));
        let rec =
            run_checked(alg, &mut scn.engine(), &scn).unwrap_or_else(|e| panic!("{algo}: {e}"));
        let bound = alg.bound(&scn).expect("a swept algorithm has a bound");
        let mut cells = row(key, &scn, &rec, &bound);
        cells.extend([
            rec.rounds.to_string(),
            f2(bound.value),
            f2(rec.rounds as f64 / bound.value),
            rec.verdict.ok().to_string(),
        ]);
        t.row(cells);
        records.push(rec);
    }
    t.print();
    records
}

/// The §5 arboricity sweep, keyed by `a`: forests of `a ∈ {1, 2, 4, 8,
/// 16}` at n = 256 (seed `SEED + a·a_step`), then `a = 3` at n ∈ {64,
/// 128, 256, 512} (seed `SEED + n_step`).
pub fn arboricity_grid(a_step: u64, n_step: u64) -> Vec<(usize, ScenarioSpec)> {
    let forests = |k, n, seed| (k, ScenarioSpec::new(FamilySpec::Forests { k }, n, seed));
    let by_a = [1usize, 2, 4, 8, 16].map(|a| forests(a, 256, SEED + a as u64 * a_step));
    let by_n = [64usize, 128, 256, 512].map(|n| forests(3, n, SEED + n_step));
    by_a.into_iter().chain(by_n).collect()
}

/// exp01's Table-1 workloads, keyed by `a`: unions of 3 random forests at
/// n ∈ {64, 128, 256}, seed [`SEED`].
pub fn table1_grid() -> Vec<(usize, ScenarioSpec)> {
    let forests = |n| (3, ScenarioSpec::new(FamilySpec::Forests { k: 3 }, n, SEED));
    [64, 128, 256].map(forests).into()
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

    /// The bounds' `a` is the Nash-Williams lower end: never above the
    /// forest count `k`, and equal to it up to k = 8. At k = 16 the
    /// duplicate edges of 16 forests on 256 nodes leave 3 609–3 662
    /// edges, so the lower end is ⌈m / 255⌉ = 15.
    #[test]
    fn bound_a_is_the_forest_count_up_to_eight() {
        let specs = [
            arboricity_grid(3, 5),
            arboricity_grid(5, 6),
            arboricity_grid(7, 11),
            table1_grid(),
        ];
        let mis = find_algorithm("mis").unwrap();
        for (k, spec) in specs.concat() {
            let a = mis.bound(&spec.build().unwrap()).unwrap().a.unwrap();
            match k {
                16 => assert_eq!(a, 15, "{}", spec.label()),
                _ => assert_eq!(a, k, "{}", spec.label()),
            }
        }
    }
}
