//! # ncc-runner — the unified scenario/runner API
//!
//! The paper's results form a matrix `{algorithm} × {graph family} × {n} ×
//! {capacity} × {seed}`. This crate is the one typed entrypoint into that
//! matrix for every caller — the CLI, the `ncc-bench` experiments, the
//! suite snapshot, and the examples:
//!
//! * [`ScenarioSpec`] — a serde-serializable value (graph family + params,
//!   `n`, weight range, [`Capacity`](ncc_model::Capacity), seed, threads,
//!   and the execution [`ModelSpec`] — NCC, Congested Clique, k-machine,
//!   or hybrid local+global) that deterministically rebuilds its input
//!   [`Scenario`] (graph + weights) and a configured engine under that
//!   model;
//! * [`Algorithm`] — an object-safe trait implemented by every paper
//!   algorithm (mst, orientation, bfs, mis, matching, coloring, apsp,
//!   gossip, broadcast, butterfly-aggregation). An algorithm declares the
//!   [`Preparation`] it starts from and owns only its main stage and the
//!   centralised correctness check; the runner builds the preparation
//!   (one [`ncc_core::prepare()`] call) and assembles every record, so all
//!   ten share one run path;
//! * [`algorithms()`] / [`find_algorithm`] — the static registry, so callers
//!   dispatch by name instead of matching on per-algorithm signatures;
//! * [`RunRecord`] — the typed, JSON-serializable result: scenario echo,
//!   per-stage [`AlgoReport`](ncc_core::AlgoReport), drop/load counters and
//!   the correctness [`Verdict`]. Deterministic by construction (no
//!   wall-clock), so snapshots diff byte-for-byte in CI;
//! * [`run_suite`] / [`standard_grid`] — the whole registry over a scenario
//!   grid, producing `BENCH_suite.json`.
//! * [`flags`] — the one command-line flag parser every binary of the
//!   workspace uses; a flag the command does not take is an error naming it.
//!
//! # Example: one scenario, two call styles
//!
//! ```
//! use ncc_runner::{run_named, FamilySpec, ScenarioSpec, Verdict};
//!
//! // A scenario is data. Serialize it, store it, sweep over it.
//! let spec = ScenarioSpec::new(FamilySpec::Gnp { p: 0.25 }, 32, 7);
//!
//! // Registry dispatch by name — same call shape for every algorithm.
//! let record = run_named("mst", &spec).unwrap();
//! assert_eq!(record.verdict, Verdict::Verified);
//! assert!(record.rounds > 0);
//!
//! // The record echoes the spec, so results are self-describing.
//! assert_eq!(record.scenario, spec);
//! ```

pub mod algorithms;
pub mod flags;
pub mod hash;
pub mod record;
pub mod scenario;
pub mod suite;

pub use algorithms::{
    algorithm_names, algorithms, explain_text, find_algorithm, run_checked, suggest_algorithm,
    Algorithm, Outcome, Preparation,
};
pub use hash::{canonical_spec_json, spec_hash, SpecHash};
pub use ncc_model::ModelSpec;
pub use record::{RunRecord, Verdict};
pub use scenario::{FamilySpec, Scenario, ScenarioSpec};
pub use suite::{
    filter_grid, run_named, run_record, run_record_threads, run_suite, run_suite_filtered,
    standard_grid, standard_grid_for_model, standard_models, SuiteOutput, SUITE_SEED,
};

use std::fmt;

/// Errors from scenario construction or registry dispatch.
#[derive(Debug)]
pub enum RunnerError {
    /// The name is not in the registry.
    UnknownAlgorithm(String),
    /// The spec cannot build a scenario (bad params, `Provided` family).
    Scenario(String),
    /// The engine rejected the execution (cap violation, round limit, ...).
    Model(ncc_model::ModelError),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::UnknownAlgorithm(name) => {
                write!(
                    f,
                    "unknown algorithm `{name}` (see ncc_runner::algorithms())"
                )
            }
            RunnerError::Scenario(msg) => write!(f, "invalid scenario: {msg}"),
            RunnerError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<ncc_model::ModelError> for RunnerError {
    fn from(e: ncc_model::ModelError) -> Self {
        RunnerError::Model(e)
    }
}
