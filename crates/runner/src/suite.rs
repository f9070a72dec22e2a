//! Whole-registry sweeps and their JSON snapshot format.
//!
//! `ncc-cli suite` (and any experiment binary that wants a JSON trail)
//! funnels through [`run_suite`]: every registered algorithm over a grid of
//! [`ScenarioSpec`]s, each run on a fresh engine, collected into a
//! [`SuiteOutput`] whose JSON form is fully deterministic — `bench_compare`
//! diffs committed snapshots against fresh runs in CI.

use serde::{Deserialize, Serialize};

use crate::{algorithms, Algorithm, RunRecord, RunnerError, ScenarioSpec};

/// The standard experiment seed (shared with `ncc-bench::SEED`).
pub const SUITE_SEED: u64 = 20190622;

/// A JSON-serializable batch of run records — the schema of
/// `BENCH_suite.json` and of every migrated experiment's `--json` output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteOutput {
    /// Which sweep produced this (e.g. `suite`, `exp10_mis`).
    pub experiment: String,
    /// Base seed of the sweep (individual specs may derive offsets).
    pub seed: u64,
    pub records: Vec<RunRecord>,
}

impl SuiteOutput {
    pub fn new(experiment: &str, seed: u64, records: Vec<RunRecord>) -> Self {
        SuiteOutput {
            experiment: experiment.to_string(),
            seed,
            records,
        }
    }

    /// Pretty JSON, trailing newline included (file-diff friendly).
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("SuiteOutput serializes") + "\n"
    }

    /// Writes the pretty JSON form to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_pretty())
    }
}

/// The non-NCC execution models of the standard grid, at network size `n`:
/// Congested Clique (per-edge bandwidth, honest per-edge counters),
/// k-machine (Appendix A cost conversion), and the §1 hybrid local+global
/// setting.
pub fn standard_models(n: usize) -> Vec<ncc_model::ModelSpec> {
    vec![
        ncc_model::ModelSpec::CongestedClique {
            edge_cap: ncc_model::Capacity::default_for(n).send,
        },
        ncc_model::ModelSpec::KMachine {
            k: 8,
            link_capacity: 1,
        },
        ncc_model::ModelSpec::HybridLocal { local_edge_cap: 8 },
    ]
}

/// The default scenario grid for `ncc-cli suite`: the Table-1
/// bounded-arboricity workload plus a sparse `G(n,p)`, at two sizes — small
/// enough to gate CI, broad enough that every algorithm sees both a
/// hub-free and a random topology — followed by a **model dimension**: the
/// `n = 64` `G(n,p)` scenario re-run under every non-NCC model of
/// [`standard_models`], so the snapshot pins all four execution models —
/// and finally two small cells of the huge-graph families (R-MAT and
/// hyperbolic), so the scale-sweep topologies are gated at CI size too.
pub fn standard_grid() -> Vec<ScenarioSpec> {
    let mut grid = Vec::new();
    for &n in &[64usize, 128] {
        grid.push(ScenarioSpec::new(
            crate::FamilySpec::Gnp { p: 24.0 / n as f64 },
            n,
            SUITE_SEED,
        ));
        grid.push(ScenarioSpec::new(
            crate::FamilySpec::Forests { k: 3 },
            n,
            SUITE_SEED + 1,
        ));
    }
    let model_base = grid[0].clone();
    for model in standard_models(model_base.n) {
        grid.push(model_base.clone().with_model(model));
    }
    // huge-graph family dimension (appended so earlier snapshot records
    // keep their identity): small cells of the scale-sweep generators,
    // so every algorithm exercises the power-law topologies in CI
    grid.push(ScenarioSpec::new(
        crate::FamilySpec::Rmat { edge_factor: 8 },
        96,
        SUITE_SEED + 2,
    ));
    grid.push(ScenarioSpec::new(
        crate::FamilySpec::Hyperbolic {
            alpha: 0.75,
            c: 0.0,
        },
        96,
        SUITE_SEED + 3,
    ));
    grid
}

/// The standard grid restricted to one model: NCC keeps the Ncc rows,
/// any other model re-runs the full family × n sweep under it.
pub fn standard_grid_for_model(model: ncc_model::ModelSpec) -> Vec<ScenarioSpec> {
    standard_grid()
        .into_iter()
        .filter(|s| s.model == ncc_model::ModelSpec::Ncc)
        .map(|s| match model {
            ncc_model::ModelSpec::Ncc => s,
            m => s.with_model(m),
        })
        .collect()
}

/// Runs one algorithm on one spec with a fresh engine. The `threads`
/// override changes execution layout only; the record is identical for any
/// value (the engine is deterministic and the spec echo is never mutated).
pub fn run_record_threads(
    algo: &dyn Algorithm,
    spec: &ScenarioSpec,
    threads: usize,
) -> Result<RunRecord, RunnerError> {
    let scn = spec.build()?;
    let mut eng = scn.engine_with_threads(threads);
    crate::run_checked(algo, &mut eng, &scn)
}

/// Runs one algorithm on one spec with the spec's own thread count.
pub fn run_record(algo: &dyn Algorithm, spec: &ScenarioSpec) -> Result<RunRecord, RunnerError> {
    run_record_threads(algo, spec, spec.threads)
}

/// Registry dispatch by name.
pub fn run_named(name: &str, spec: &ScenarioSpec) -> Result<RunRecord, RunnerError> {
    run_named_threads(name, spec, spec.threads)
}

/// Registry dispatch by name with a thread-count override.
pub fn run_named_threads(
    name: &str,
    spec: &ScenarioSpec,
    threads: usize,
) -> Result<RunRecord, RunnerError> {
    let algo = crate::find_algorithm(name)
        .ok_or_else(|| RunnerError::UnknownAlgorithm(name.to_string()))?;
    run_record_threads(algo, spec, threads)
}

/// Every registered algorithm over every spec in `grid`, each on a fresh
/// engine. Record order is `grid-major, registry-minor`, so the output is
/// stable under registry growth per scenario block.
pub fn run_suite(grid: &[ScenarioSpec], threads: usize) -> Result<SuiteOutput, RunnerError> {
    run_suite_filtered(grid, threads, None)
}

/// [`run_suite`] restricted to algorithms whose registry name contains
/// `algo_filter` (case-insensitive) — `ncc-cli suite --filter`, the
/// fast-iteration path when tuning one algorithm against the grid.
/// Returns [`RunnerError::UnknownAlgorithm`] if nothing matches.
pub fn run_suite_filtered(
    grid: &[ScenarioSpec],
    threads: usize,
    algo_filter: Option<&str>,
) -> Result<SuiteOutput, RunnerError> {
    let selected: Vec<&'static dyn Algorithm> = match algo_filter {
        None => algorithms().to_vec(),
        Some(pat) => {
            let pat = pat.to_lowercase();
            let hits: Vec<_> = algorithms()
                .iter()
                .copied()
                .filter(|a| a.name().contains(&pat))
                .collect();
            if hits.is_empty() {
                return Err(RunnerError::UnknownAlgorithm(pat));
            }
            hits
        }
    };
    let mut records = Vec::with_capacity(grid.len() * selected.len());
    for spec in grid {
        for algo in &selected {
            records.push(run_record_threads(*algo, spec, threads)?);
        }
    }
    Ok(SuiteOutput::new("suite", SUITE_SEED, records))
}

/// Restricts a grid to scenarios whose [`ScenarioSpec::label`] contains
/// `family_filter` (case-insensitive) — `ncc-cli suite --family`. Matches
/// the family name, `n=…`, and `model=…` fragments alike.
pub fn filter_grid(grid: Vec<ScenarioSpec>, family_filter: Option<&str>) -> Vec<ScenarioSpec> {
    match family_filter {
        None => grid,
        Some(pat) => {
            let pat = pat.to_lowercase();
            grid.into_iter()
                .filter(|s| s.label().to_lowercase().contains(&pat))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_grid_is_well_formed() {
        let grid = standard_grid();
        // 4 Ncc cells + one cell per non-NCC model + 2 huge-family cells
        assert_eq!(grid.len(), 4 + standard_models(64).len() + 2);
        for spec in &grid {
            assert!(spec.build().is_ok(), "unbuildable spec {}", spec.label());
        }
        // the model dimension covers all four execution models
        let mut models: Vec<&str> = grid.iter().map(|s| s.model.name()).collect();
        models.sort_unstable();
        models.dedup();
        assert_eq!(
            models,
            vec!["congested-clique", "hybrid", "kmachine", "ncc"]
        );
        // the Ncc prefix of the grid is unchanged by the model dimension
        assert!(grid[..4]
            .iter()
            .all(|s| s.model == ncc_model::ModelSpec::Ncc));
    }

    #[test]
    fn grid_for_model_rebinds_every_cell() {
        let km = ncc_model::ModelSpec::KMachine {
            k: 4,
            link_capacity: 1,
        };
        let grid = standard_grid_for_model(km);
        assert_eq!(grid.len(), 6); // 4 classic Ncc cells + 2 huge-family cells
        assert!(grid.iter().all(|s| s.model == km));
        let ncc = standard_grid_for_model(ncc_model::ModelSpec::Ncc);
        assert!(ncc.iter().all(|s| s.model == ncc_model::ModelSpec::Ncc));
    }

    #[test]
    fn suite_filter_selects_matching_algorithms() {
        let grid = vec![ScenarioSpec::new(crate::FamilySpec::Path, 16, 2)];
        let out = run_suite_filtered(&grid, 1, Some("cast")).unwrap();
        // "broadcast" and "butterfly-aggregation"? only names *containing*
        // "cast": broadcast. (gossip doesn't match, multicast isn't an algo)
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.records[0].algorithm, "broadcast");
        let out = run_suite_filtered(&grid, 1, Some("M")).unwrap();
        // case-insensitive: mst, mis, matching
        let names: Vec<&str> = out.records.iter().map(|r| r.algorithm.as_str()).collect();
        assert!(names.contains(&"mst") && names.contains(&"matching"));
        match run_suite_filtered(&grid, 1, Some("nope")) {
            Err(RunnerError::UnknownAlgorithm(_)) => {}
            other => panic!("expected UnknownAlgorithm, got {other:?}"),
        }
    }

    #[test]
    fn family_filter_restricts_the_grid() {
        let grid = standard_grid();
        let forests = filter_grid(grid.clone(), Some("forests"));
        assert!(!forests.is_empty() && forests.len() < grid.len());
        assert!(forests.iter().all(|s| s.label().contains("forests")));
        let n128 = filter_grid(grid.clone(), Some("n=128"));
        assert!(n128.iter().all(|s| s.n == 128));
        let km = filter_grid(grid.clone(), Some("kmachine"));
        assert_eq!(km.len(), 1);
        assert!(filter_grid(grid.clone(), Some("zzz")).is_empty());
        assert_eq!(filter_grid(grid.clone(), None).len(), grid.len());
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        let spec = ScenarioSpec::new(crate::FamilySpec::Path, 8, 1);
        match run_named("nope", &spec) {
            Err(RunnerError::UnknownAlgorithm(name)) => assert_eq!(name, "nope"),
            other => panic!("expected UnknownAlgorithm, got {other:?}"),
        }
    }

    #[test]
    fn suite_output_json_round_trips() {
        let spec = ScenarioSpec::new(crate::FamilySpec::Star, 16, 2);
        let rec = run_named("broadcast", &spec).unwrap();
        let out = SuiteOutput::new("mini", 2, vec![rec]);
        let text = out.to_json_pretty();
        let back: SuiteOutput = serde_json::from_str(&text).unwrap();
        assert_eq!(back.experiment, "mini");
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.to_json_pretty(), text);
    }
}
