//! The algorithm registry: one object-safe trait, one implementation per
//! paper algorithm, one static table to dispatch by name.
//!
//! Callers (the CLI, experiment sweeps, the suite) never match on
//! algorithm names to pick an entrypoint signature; they look the name up
//! with [`find_algorithm`] and call [`Algorithm::run`], which owns the full
//! in-model pipeline for that algorithm — seed agreement, any §5 setup
//! (orientation + broadcast trees), the algorithm itself, and the
//! centralised correctness check — and returns a typed [`RunRecord`].

use ncc_baselines::{broadcast_all, gossip_all};
use ncc_butterfly::{aggregate_and_broadcast, broadcast_seed, MinU64, SchedReport};
use ncc_core::{AlgoReport, BroadcastTrees};
use ncc_graph::{analysis, check};
use ncc_hashing::SharedRandomness;
use ncc_model::{ilog2_ceil, Engine, ModelError};

use crate::{RunRecord, RunnerError, Scenario, Verdict};

/// An algorithm runnable on any [`Scenario`] through the registry.
///
/// Implementations are unit structs, so the trait is object-safe and the
/// registry is a static table of `&'static dyn Algorithm`.
pub trait Algorithm: Sync {
    /// Registry name (`ncc-cli run <name>` vocabulary).
    fn name(&self) -> &'static str;

    /// One-line description, shown in `ncc-cli help` and the README.
    fn description(&self) -> &'static str;

    /// Smallest network the algorithm is defined on. The graph algorithms
    /// (§3–§5) orient, peel and build trees over a butterfly, which takes
    /// two nodes; [`run_checked`] turns a smaller spec into a typed error
    /// before any of them can assert.
    fn min_n(&self) -> usize {
        2
    }

    /// Runs the full pipeline on `eng` and reports what happened. Callers
    /// holding a spec they did not write go through [`run_checked`].
    ///
    /// The engine is expected to be freshly built from the scenario (see
    /// [`crate::run_record`]); all randomness beyond the engine's own is
    /// agreed *in model* from `scn.spec.seed`, so the record is a pure
    /// function of `(algorithm, spec)`.
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError>;

    /// The scheduler's packing plan for this algorithm on `scn` — how the
    /// declared protocol DAG was packed into mux lanes. `None` for
    /// algorithms that are not DAG-declared (the baselines).
    fn plan(&self, _eng: &mut Engine, _scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        Ok(None)
    }
}

/// Rejects a scenario below the algorithm's node bound, naming the bound.
fn admit(algo: &dyn Algorithm, scn: &Scenario) -> Result<(), RunnerError> {
    if scn.spec.n < algo.min_n() {
        return Err(RunnerError::Scenario(format!(
            "`{}` needs n ≥ {}, the spec has n = {}",
            algo.name(),
            algo.min_n(),
            scn.spec.n
        )));
    }
    Ok(())
}

/// [`Algorithm::run`] behind the admission check — the one entry every
/// front end (`run_record*`, `ncc-cli`, `ncc-serve`) shares, so a spec the
/// algorithm is not defined on costs an error value, not a panic.
pub fn run_checked(
    algo: &dyn Algorithm,
    eng: &mut Engine,
    scn: &Scenario,
) -> Result<RunRecord, RunnerError> {
    admit(algo, scn)?;
    Ok(algo.run(eng, scn)?)
}

/// Echoes the scheduler's packing plan into a record's metrics, so sweeps
/// can see budget usage without re-running the algorithm.
fn with_plan_metrics(rec: RunRecord, plan: &SchedReport) -> RunRecord {
    rec.with_metric("dag_stages", plan.stages.len() as u64)
        .with_metric("dag_lane_stages", plan.lane_stages() as u64)
        .with_metric("dag_max_lanes", plan.max_lanes() as u64)
        .with_metric("dag_budget", plan.budget as u64)
        .with_metric("dag_splits", plan.splits() as u64)
}

/// Renders a packing plan for human eyes (`ncc-cli explain`): one line per
/// packed stage — lanes vs budget, barrier, rounds, lane labels — plus a
/// totals line. `None` when the algorithm is not DAG-declared.
pub fn explain_text(
    algo: &dyn Algorithm,
    eng: &mut Engine,
    scn: &Scenario,
) -> Result<Option<String>, RunnerError> {
    use std::fmt::Write;
    admit(algo, scn)?;
    let Some(plan) = algo.plan(eng, scn)? else {
        return Ok(None);
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "packing plan for `{}` on {} (lane budget {}):",
        algo.name(),
        scn.spec.label(),
        plan.budget
    );
    for (i, st) in plan.stages.iter().enumerate() {
        let labels: Vec<&str> = st.lanes.iter().map(|l| l.label.as_str()).collect();
        let _ = writeln!(
            out,
            "  stage {:>4}  {:>2}/{} lanes  {}  {:>5} rounds  {}{}",
            i + 1,
            st.lanes.len(),
            plan.budget,
            if st.barrier { "barrier" } else { "       " },
            st.rounds(),
            labels.join(" "),
            if st.deferred.is_empty() {
                String::new()
            } else {
                format!("  (deferred: {})", st.deferred.join(" "))
            }
        );
    }
    let _ = writeln!(
        out,
        "total: {} stages, {} lane-stages, max {}/{} lanes, {} barriers, {} budget splits",
        plan.stages.len(),
        plan.lane_stages(),
        plan.max_lanes(),
        plan.budget,
        plan.barriers(),
        plan.splits()
    );
    Ok(Some(out))
}

/// Agrees on shared randomness in model (charged rounds) and records the
/// cost. Mirrors the §2.2 seed-broadcast budget used across the harness.
fn agree(
    eng: &mut Engine,
    report: &mut AlgoReport,
    seed: u64,
) -> Result<SharedRandomness, ModelError> {
    let n = eng.n();
    let k = SharedRandomness::k_for(n);
    let bits = SharedRandomness::bits_required(n, 2 * ilog2_ceil(n).max(1) as usize, k);
    let (shared, stats) = broadcast_seed(eng, seed ^ 0x5eed, bits)?;
    report.push("seed-agreement", stats);
    Ok(shared)
}

/// Rounds spent before the algorithm proper (seed agreement + §5 prep) —
/// echoed into `RunRecord.metrics` so sweeps can split prep from main.
fn prep_rounds(report: &AlgoReport) -> u64 {
    report.stage_total("seed-agreement").rounds + report.stage_total("orientation+trees").rounds
}

/// The shared §5 preparation pipeline: seed agreement + orientation +
/// broadcast trees, all charged into the report.
fn prepare(
    eng: &mut Engine,
    scn: &Scenario,
    report: &mut AlgoReport,
) -> Result<(SharedRandomness, BroadcastTrees), ModelError> {
    let shared = agree(eng, report, scn.spec.seed)?;
    let (bt, rep) = ncc_core::build_broadcast_trees(eng, &shared, &scn.graph)?;
    report.push("orientation+trees", rep.total);
    Ok((shared, bt))
}

// ---------------------------------------------------------------------------
// §3 — MST

struct Mst;

impl Algorithm for Mst {
    fn name(&self) -> &'static str {
        "mst"
    }
    fn description(&self) -> &'static str {
        "minimum spanning forest, Boruvka + sketch FindMin (§3, O(log⁴ n))"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let shared = agree(eng, &mut report, scn.spec.seed)?;
        let r = ncc_core::mst(eng, &shared, scn.weighted())?;
        // per-phase accounting: where the lane-composed rounds went
        let rounds_findmin: u64 = r
            .report
            .stages
            .iter()
            .filter(|(l, _)| l.contains(":find"))
            .map(|(_, s)| s.rounds)
            .sum();
        report.push("mst", r.report.total);
        let verdict = Verdict::from_check(check::check_mst(scn.weighted(), &r.edges));
        let weight = scn.weighted().total_weight(&r.edges);
        let summary = format!(
            "{} edges, weight {weight}, {} Boruvka phases",
            r.edges.len(),
            r.phases
        );
        let rec = RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            verdict,
            Some(r.phases),
            summary,
        )
        .with_metric("edges", r.edges.len() as u64)
        .with_metric("weight", weight)
        .with_metric("findmin_steps", r.findmin_steps as u64)
        .with_metric("rounds_findmin", rounds_findmin)
        .with_metric("lane_stages", r.lane_stages as u64);
        Ok(with_plan_metrics(rec, &r.plan))
    }
    fn plan(&self, eng: &mut Engine, scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        let mut report = AlgoReport::default();
        let shared = agree(eng, &mut report, scn.spec.seed)?;
        Ok(Some(ncc_core::mst(eng, &shared, scn.weighted())?.plan))
    }
}

// ---------------------------------------------------------------------------
// §4 — O(a)-Orientation

struct Orientation;

impl Algorithm for Orientation {
    fn name(&self) -> &'static str {
        "orientation"
    }
    fn description(&self) -> &'static str {
        "O(a)-orientation by iterated peeling (§4, O((a+log n)·log n))"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let shared = agree(eng, &mut report, scn.spec.seed)?;
        let r = ncc_core::orient(eng, &shared, &scn.graph)?;
        report.push("orientation", r.report.total);
        let (_, ahi) = analysis::arboricity_bounds(&scn.graph);
        let verdict = Verdict::from_check(check::check_orientation(
            &scn.graph,
            &r.directed_edges(),
            4 * ahi.max(1),
        ));
        let summary = format!(
            "max outdegree {} (d* = {}), {} phases",
            r.max_outdegree(),
            r.d_star,
            r.phases
        );
        let rec = RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            verdict,
            Some(r.phases),
            summary,
        )
        .with_metric("max_outdegree", r.max_outdegree() as u64)
        .with_metric("d_star", r.d_star as u64)
        .with_metric("delta", r.max_degree as u64)
        .with_metric("lane_stages", r.lane_stages as u64);
        Ok(with_plan_metrics(rec, &r.plan))
    }
    fn plan(&self, eng: &mut Engine, scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        let mut report = AlgoReport::default();
        let shared = agree(eng, &mut report, scn.spec.seed)?;
        Ok(Some(ncc_core::orient(eng, &shared, &scn.graph)?.plan))
    }
}

// ---------------------------------------------------------------------------
// §5 — BFS / MIS / Matching / Coloring (share the preparation pipeline)

struct Bfs;

impl Algorithm for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }
    fn description(&self) -> &'static str {
        "BFS tree by layered multicast (§5.1, O((a+D+log n)·log n))"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        let src = scn.source();
        let r = ncc_core::bfs(eng, &shared, &bt, &scn.graph, src)?;
        report.push("bfs", r.report.total);
        let prep = prep_rounds(&report);
        let main = report.stage_total("bfs").rounds;
        let verdict = Verdict::from_check(check::check_bfs(&scn.graph, src, &r.dist, &r.parent));
        let reached = r.dist.iter().filter(|&&d| d != u32::MAX).count();
        let summary = format!(
            "source {src}: {reached}/{} reached, {} frontier phases",
            scn.graph.n(),
            r.phases
        );
        let rec = RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            verdict,
            Some(r.phases),
            summary,
        )
        .with_metric("reached", reached as u64)
        .with_metric("rounds_prep", prep)
        .with_metric("rounds_main", main);
        Ok(with_plan_metrics(rec, &r.plan))
    }
    fn plan(&self, eng: &mut Engine, scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        Ok(Some(
            ncc_core::bfs(eng, &shared, &bt, &scn.graph, scn.source())?.plan,
        ))
    }
}

struct Mis;

impl Algorithm for Mis {
    fn name(&self) -> &'static str {
        "mis"
    }
    fn description(&self) -> &'static str {
        "maximal independent set, Luby over broadcast trees (§5.2)"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        let r = ncc_core::mis(eng, &shared, &bt, &scn.graph)?;
        report.push("mis", r.report.total);
        let prep = prep_rounds(&report);
        let main = report.stage_total("mis").rounds;
        let verdict = Verdict::from_check(check::check_mis(&scn.graph, &r.in_mis));
        let size = r.in_mis.iter().filter(|&&b| b).count();
        let summary = format!("{size} nodes in the set, {} phases", r.phases);
        let rec = RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            verdict,
            Some(r.phases),
            summary,
        )
        .with_metric("mis_size", size as u64)
        .with_metric("rounds_prep", prep)
        .with_metric("rounds_main", main);
        Ok(with_plan_metrics(rec, &r.plan))
    }
    fn plan(&self, eng: &mut Engine, scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        Ok(Some(ncc_core::mis(eng, &shared, &bt, &scn.graph)?.plan))
    }
}

struct Matching;

impl Algorithm for Matching {
    fn name(&self) -> &'static str {
        "matching"
    }
    fn description(&self) -> &'static str {
        "maximal matching by random proposals (§5.3)"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        let r = ncc_core::maximal_matching(eng, &shared, &bt, &scn.graph)?;
        report.push("matching", r.report.total);
        let prep = prep_rounds(&report);
        let main = report.stage_total("matching").rounds;
        let verdict = Verdict::from_check(check::check_matching(&scn.graph, &r.mate));
        let pairs = r.mate.iter().filter(|m| m.is_some()).count() / 2;
        let summary = format!("{pairs} pairs, {} phases", r.phases);
        let rec = RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            verdict,
            Some(r.phases),
            summary,
        )
        .with_metric("pairs", pairs as u64)
        .with_metric("rounds_prep", prep)
        .with_metric("rounds_main", main);
        Ok(with_plan_metrics(rec, &r.plan))
    }
    fn plan(&self, eng: &mut Engine, scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        Ok(Some(
            ncc_core::maximal_matching(eng, &shared, &bt, &scn.graph)?.plan,
        ))
    }
}

struct Coloring;

impl Algorithm for Coloring {
    fn name(&self) -> &'static str {
        "coloring"
    }
    fn description(&self) -> &'static str {
        "O(a)-coloring via orientation classes (§5.4)"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        let r = ncc_core::coloring(eng, &shared, &bt.orientation, &scn.graph)?;
        report.push("coloring", r.report.total);
        let prep = prep_rounds(&report);
        let main = report.stage_total("coloring").rounds;
        let verdict = Verdict::from_check(check::check_coloring(&scn.graph, &r.colors, r.palette));
        let used = r.colors.iter().max().map_or(0, |c| c + 1);
        let summary = format!("{used} colors used (palette {})", r.palette);
        let rec = RunRecord::new(self.name(), &scn.spec, report, verdict, None, summary)
            .with_metric("colors_used", used as u64)
            .with_metric("palette", r.palette as u64)
            .with_metric("rounds_prep", prep)
            .with_metric("rounds_main", main);
        Ok(with_plan_metrics(rec, &r.plan))
    }
    fn plan(&self, eng: &mut Engine, scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        Ok(Some(
            ncc_core::coloring(eng, &shared, &bt.orientation, &scn.graph)?.plan,
        ))
    }
}

struct Apsp;

impl Algorithm for Apsp {
    fn name(&self) -> &'static str {
        "apsp"
    }
    fn description(&self) -> &'static str {
        "landmark distance sketches: Θ(log n) parallel BFS instances (§5.1 × §2)"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        let r = ncc_core::landmark_apsp(eng, &shared, &bt, &scn.graph, None)?;
        report.push("apsp", r.report.total);
        let prep = prep_rounds(&report);
        let main = report.stage_total("apsp").rounds;
        // every sketch must equal the centralised BFS oracle exactly
        let exact = r
            .landmarks
            .iter()
            .enumerate()
            .all(|(l, &lm)| analysis::bfs_distances(&scn.graph, lm) == r.dist[l]);
        let verdict = if exact {
            Verdict::Verified
        } else {
            Verdict::Failed
        };
        let summary = format!(
            "{} landmark sketches, {} frontier phases",
            r.landmarks.len(),
            r.phases
        );
        let rec = RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            verdict,
            Some(r.phases),
            summary,
        )
        .with_metric("landmarks", r.landmarks.len() as u64)
        .with_metric("rounds_prep", prep)
        .with_metric("rounds_main", main);
        Ok(with_plan_metrics(rec, &r.plan))
    }
    fn plan(&self, eng: &mut Engine, scn: &Scenario) -> Result<Option<SchedReport>, ModelError> {
        let mut report = AlgoReport::default();
        let (shared, bt) = prepare(eng, scn, &mut report)?;
        Ok(Some(
            ncc_core::landmark_apsp(eng, &shared, &bt, &scn.graph, None)?.plan,
        ))
    }
}

// ---------------------------------------------------------------------------
// §1 baselines — gossip and broadcast (capacity-bound demonstrations)

struct Gossip;

impl Algorithm for Gossip {
    fn name(&self) -> &'static str {
        "gossip"
    }
    fn min_n(&self) -> usize {
        1
    }
    fn description(&self) -> &'static str {
        "all-to-all token gossip baseline (§1, Θ(n/log n) rounds)"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let stats = gossip_all(eng)?;
        report.push("gossip", stats);
        let summary = format!("{} rounds, {} messages", stats.rounds, stats.sent);
        Ok(RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            Verdict::Unchecked,
            None,
            summary,
        ))
    }
}

struct Broadcast;

impl Algorithm for Broadcast {
    fn name(&self) -> &'static str {
        "broadcast"
    }
    fn min_n(&self) -> usize {
        1
    }
    fn description(&self) -> &'static str {
        "single-source flooding broadcast baseline (§1, Θ(log n/log log n))"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        let stats = broadcast_all(eng, scn.spec.seed ^ 42)?;
        report.push("broadcast", stats);
        let summary = format!("{} rounds, {} messages", stats.rounds, stats.sent);
        Ok(RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            Verdict::Unchecked,
            None,
            summary,
        ))
    }
}

// ---------------------------------------------------------------------------
// §2.2 — butterfly Aggregate-and-Broadcast

struct ButterflyAggregation;

impl Algorithm for ButterflyAggregation {
    fn name(&self) -> &'static str {
        "butterfly-aggregation"
    }
    fn min_n(&self) -> usize {
        1
    }
    fn description(&self) -> &'static str {
        "global min via butterfly aggregate-and-broadcast (Thm 2.2, O(log n))"
    }
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        let mut report = AlgoReport::default();
        // One seeded value per node; the oracle minimum is computable
        // locally, which gives this primitive a real correctness check.
        let inputs: Vec<Option<u64>> = (0..scn.spec.n as u64)
            .map(|i| Some((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ scn.spec.seed) >> 16))
            .collect();
        let oracle = inputs.iter().flatten().copied().min();
        let (results, stats) = aggregate_and_broadcast(eng, inputs, &MinU64)?;
        report.push("aggregate-and-broadcast", stats);
        let verdict = if results.iter().all(|r| *r == oracle) {
            Verdict::Verified
        } else {
            Verdict::Failed
        };
        let summary = format!("global min {:?} agreed by all {} nodes", oracle, scn.spec.n);
        Ok(RunRecord::new(
            self.name(),
            &scn.spec,
            report,
            verdict,
            None,
            summary,
        ))
    }
}

// ---------------------------------------------------------------------------
// registry

static MST: Mst = Mst;
static ORIENTATION: Orientation = Orientation;
static BFS: Bfs = Bfs;
static MIS: Mis = Mis;
static MATCHING: Matching = Matching;
static COLORING: Coloring = Coloring;
static APSP: Apsp = Apsp;
static GOSSIP: Gossip = Gossip;
static BROADCAST: Broadcast = Broadcast;
static BUTTERFLY_AGG: ButterflyAggregation = ButterflyAggregation;

static REGISTRY: [&dyn Algorithm; 10] = [
    &MST,
    &ORIENTATION,
    &BFS,
    &MIS,
    &MATCHING,
    &COLORING,
    &APSP,
    &GOSSIP,
    &BROADCAST,
    &BUTTERFLY_AGG,
];

/// Every registered algorithm, in canonical (paper) order.
pub fn algorithms() -> &'static [&'static dyn Algorithm] {
    &REGISTRY
}

/// Looks an algorithm up by its registry name. Matching is
/// case-insensitive (the same label-match convention `suite --filter`
/// uses); registry names are all lowercase, so exact names still hit.
pub fn find_algorithm(name: &str) -> Option<&'static dyn Algorithm> {
    let name = name.to_lowercase();
    REGISTRY.iter().copied().find(|a| a.name() == name)
}

/// The closest registry name to a failed lookup — the "did you mean"
/// suggestion for CLI error paths. Prefers a substring match in either
/// direction (`agg` → `butterfly-aggregation`, `mst-v2` → `mst`), then
/// falls back to the smallest edit distance when it is small enough to be
/// a plausible typo. `None` when nothing is close.
pub fn suggest_algorithm(name: &str) -> Option<&'static str> {
    let q = name.to_lowercase();
    if q.is_empty() {
        return None;
    }
    if let Some(a) = REGISTRY
        .iter()
        .find(|a| a.name().contains(&q) || q.contains(a.name()))
    {
        return Some(a.name());
    }
    REGISTRY
        .iter()
        .map(|a| (edit_distance(&q, a.name()), a.name()))
        .min_by_key(|(d, n)| (*d, std::cmp::Reverse(common_prefix(&q, n))))
        .filter(|(d, _)| *d <= 3)
        .map(|(_, n)| n)
}

/// Length of the shared prefix — the tie-break between equally distant
/// candidates (`bsf` is as far from `mst` as from `bfs`; the leading `b`
/// decides).
fn common_prefix(a: &str, b: &str) -> usize {
    a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count()
}

/// Levenshtein distance over bytes (registry names are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The registry vocabulary as one space-separated line (for usage text).
pub fn algorithm_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|a| a.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_complete() {
        let names = algorithm_names();
        assert!(names.len() >= 8, "paper matrix needs ≥ 8 algorithms");
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        for expected in [
            "mst",
            "orientation",
            "bfs",
            "mis",
            "matching",
            "coloring",
            "apsp",
            "gossip",
            "broadcast",
            "butterfly-aggregation",
        ] {
            assert!(
                find_algorithm(expected).is_some(),
                "{expected} missing from registry"
            );
        }
        assert!(find_algorithm("no-such-algo").is_none());
    }

    #[test]
    fn find_algorithm_is_case_insensitive() {
        assert_eq!(find_algorithm("MST").unwrap().name(), "mst");
        assert_eq!(find_algorithm("Apsp").unwrap().name(), "apsp");
        assert_eq!(
            find_algorithm("Butterfly-Aggregation").unwrap().name(),
            "butterfly-aggregation"
        );
    }

    #[test]
    fn suggestions_cover_typos_and_fragments() {
        // substring in either direction
        assert_eq!(suggest_algorithm("agg"), Some("butterfly-aggregation"));
        assert_eq!(suggest_algorithm("mst-v2"), Some("mst"));
        assert_eq!(suggest_algorithm("ORIENT"), Some("orientation"));
        // small edit distance (mts is 1 edit from mis, 2 from mst)
        assert_eq!(suggest_algorithm("mts"), Some("mis"));
        assert_eq!(suggest_algorithm("colouring"), Some("coloring"));
        assert_eq!(suggest_algorithm("bsf"), Some("bfs"));
        // hopeless inputs get no suggestion
        assert_eq!(suggest_algorithm("quicksort"), None);
        assert_eq!(suggest_algorithm(""), None);
    }

    #[test]
    fn plans_exist_exactly_for_dag_algorithms() {
        use crate::scenario::{FamilySpec, ScenarioSpec};
        let scn = ScenarioSpec::new(FamilySpec::Gnp { p: 0.2 }, 32, 3)
            .build()
            .unwrap();
        for name in [
            "mst",
            "orientation",
            "bfs",
            "mis",
            "matching",
            "coloring",
            "apsp",
        ] {
            let algo = find_algorithm(name).unwrap();
            let mut eng = scn.engine();
            let plan = algo.plan(&mut eng, &scn).unwrap();
            let plan = plan.unwrap_or_else(|| panic!("{name} should expose a packing plan"));
            assert!(!plan.stages.is_empty(), "{name} plan has no stages");
            assert!(
                plan.max_lanes() <= plan.budget,
                "{name} exceeds lane budget"
            );
            let mut eng = scn.engine();
            let text = explain_text(algo, &mut eng, &scn).unwrap().unwrap();
            assert!(text.contains("packing plan"), "{name} render misses header");
            assert!(text.contains("total:"), "{name} render misses totals");
        }
        for name in ["gossip", "broadcast", "butterfly-aggregation"] {
            let algo = find_algorithm(name).unwrap();
            let mut eng = scn.engine();
            assert!(
                algo.plan(&mut eng, &scn).unwrap().is_none(),
                "{name} is not DAG-declared"
            );
        }
    }

    #[test]
    fn descriptions_are_nonempty() {
        for a in algorithms() {
            assert!(
                !a.description().is_empty(),
                "{} lacks a description",
                a.name()
            );
        }
    }
}
