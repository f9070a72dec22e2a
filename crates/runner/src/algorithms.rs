//! The algorithm registry: one object-safe trait, one implementation per
//! paper algorithm, one static table to dispatch by name.
//!
//! Callers (the CLI, experiment sweeps, the suite) never match on
//! algorithm names to pick an entrypoint signature; they look the name up
//! with [`find_algorithm`] and call [`Algorithm::run`]. Every algorithm
//! runs down the same path, and the runner owns both ends of it: it builds
//! the preamble the algorithm declares ([`Algorithm::preparation`], one
//! [`ncc_core::prepare()`] call), hands the [`Prepared`] value to
//! [`Algorithm::run_main`], and assembles the typed [`RunRecord`] from the
//! preparation and the returned [`Outcome`]. An implementation owns only
//! its main stage: the in-model run, the centralised correctness check,
//! its summary and its own metrics.

use ncc_baselines::{broadcast_all, gossip_all, round_cap};
use ncc_butterfly::{aggregate_and_broadcast, MinU64, Owed, SchedReport};
use ncc_core::Prepared;
use ncc_graph::{analysis, check, Graph};
use ncc_model::{Engine, ExecStats, ModelError};

use crate::{RunRecord, RunnerError, Scenario, ScenarioSpec, Verdict};

/// The engine's error unless another is named, as in `std::io::Result`.
type Result<T, E = ModelError> = std::result::Result<T, E>;

/// The preamble an algorithm starts from, built by the runner before its
/// main stage and charged into its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preparation {
    /// None: the baselines and the butterfly primitive run on the bare
    /// engine.
    None,
    /// Shared randomness by seed broadcast (§2.2): MST and the orientation.
    Seed,
    /// The seed, then the `O(a)`-orientation (§4) and the broadcast trees of
    /// Lemma 5.1: every §5 algorithm. Their records split `rounds_prep`
    /// from `rounds_main`.
    SeedAndTrees,
}

impl Preparation {
    /// Builds this preamble on `eng` from `seed` — the one
    /// [`ncc_core::prepare()`] call of every run path; the orientation and
    /// the trees are built on `graph`.
    pub fn run(self, eng: &mut Engine, seed: u64, graph: &Graph) -> Result<Prepared> {
        match self {
            Preparation::None => Ok(Prepared::default()),
            Preparation::Seed => ncc_core::prepare(eng, seed, None),
            Preparation::SeedAndTrees => ncc_core::prepare(eng, seed, Some(graph)),
        }
    }
}

/// An algorithm's paper round bound (Table 1) on one scenario: its value,
/// the arboricity `a` and diameter `D` it read, and the formula with the
/// theorem it comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub value: f64,
    pub a: Option<usize>,
    pub d: Option<usize>,
    pub formula: &'static str,
}

impl Bound {
    /// A bound `value(a, log n)`. `a` is the Nash-Williams lower end of
    /// [`analysis::arboricity_bounds`], a certified lower bound on the
    /// scenario graph's arboricity.
    fn in_a(scn: &Scenario, formula: &'static str, value: impl Fn(f64, f64) -> f64) -> Bound {
        let (a, _) = analysis::arboricity_bounds(&scn.graph);
        Bound {
            value: value(a as f64, lg(scn.spec.n)),
            a: Some(a),
            d: None,
            formula,
        }
    }
}

/// `log₂ n`, floored at `n = 2`: the `log n` of every bound formula.
pub fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// `(a + log n)·log n`: the bound of the orientation (Thm 4.12), MIS
/// (Thm 5.3) and matching (Thm 5.4).
fn peeling(a: f64, lg_n: f64) -> f64 {
    (a + lg_n) * lg_n
}

/// What an algorithm's main stage produced: everything in its
/// [`RunRecord`] that the preparation does not decide.
#[derive(Debug)]
pub struct Outcome {
    /// Label of the main stage's row: the algorithm's name, or the
    /// primitive it runs (`aggregate-and-broadcast`).
    pub stage: &'static str,
    pub stats: ExecStats,
    pub verdict: Verdict,
    /// Algorithm phases (Boruvka / peeling / frontier), where meaningful.
    pub phases: Option<u32>,
    /// One-line human description of the output.
    pub summary: String,
    /// The algorithm's own named outputs, in record order.
    pub metrics: Vec<(&'static str, u64)>,
    /// The scheduler's packing plan — how the declared protocol DAG was
    /// packed into mux lanes. `None` when the algorithm is not DAG-declared.
    pub plan: Option<SchedReport>,
}

/// An algorithm runnable on any [`Scenario`] through the registry.
///
/// Implementations are unit structs, so the trait is object-safe and the
/// registry is a static table of `&'static dyn Algorithm`.
pub trait Algorithm: Sync {
    /// Registry name (`ncc-cli run <name>` vocabulary).
    fn name(&self) -> &'static str;

    /// One-line description, shown in `ncc-cli help` and the README.
    fn description(&self) -> &'static str;

    /// Whether the algorithm is defined on `spec`, and if not, why.
    /// [`run_checked`] asks before round 0, so a spec the algorithm cannot
    /// run is a typed error, never an assert or an engine abort. The
    /// default asks what the seed agreement of the graph algorithms
    /// (§3–§5) needs: two nodes for its butterfly, and payloads its seed
    /// chunks fit in ([`ncc_core::prepare::min_payload_bits`]).
    fn admits(&self, spec: &ScenarioSpec) -> Result<(), String> {
        needs_seed_and(self.name(), spec, |_| 0)
    }

    /// The preamble the main stage needs.
    fn preparation(&self) -> Preparation;

    /// Runs the main stage on an engine the runner has already taken
    /// through [`Algorithm::preparation`], and checks its output.
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome>;

    /// The paper's round bound on `scn`, citing its theorem; `None` for an
    /// algorithm Table 1 does not list.
    fn bound(&self, _scn: &Scenario) -> Option<Bound> {
        None
    }

    /// Runs the preparation and the main stage and reports what happened.
    /// Callers holding a spec they did not write go through
    /// [`run_checked`].
    ///
    /// The engine is expected to be freshly built from the scenario (see
    /// [`crate::run_record`]); all randomness beyond the engine's own is
    /// agreed *in model* from `scn.spec.seed`, so the record is a pure
    /// function of `(algorithm, spec)`.
    fn run(&self, eng: &mut Engine, scn: &Scenario) -> Result<RunRecord, ModelError> {
        run_planned(self, eng, scn).map(|(rec, _)| rec)
    }
}

/// The one run path: prepares, runs the main stage and assembles the
/// record, returning the packing plan beside it.
///
/// Record order, which every snapshot pins: the preparation's stage rows,
/// then the main stage's; `peak_active` and `sum_active`, then the
/// algorithm's own metrics, then `rounds_prep`/`rounds_main` for the §5
/// algorithms, then the `dag_*` echo of the plan.
fn run_planned<A: Algorithm + ?Sized>(
    algo: &A,
    eng: &mut Engine,
    scn: &Scenario,
) -> Result<(RunRecord, Option<SchedReport>)> {
    let prep = algo.preparation().run(eng, scn.spec.seed, &scn.graph)?;
    let out = algo.run_main(eng, scn, &prep)?;
    let mut metrics = out.metrics;
    if algo.preparation() == Preparation::SeedAndTrees {
        metrics.push(("rounds_prep", prep.report.total.rounds));
        metrics.push(("rounds_main", out.stats.rounds));
    }
    if let Some(plan) = &out.plan {
        metrics.extend([
            ("dag_stages", plan.stages.len() as u64),
            ("dag_lane_stages", plan.lane_stages() as u64),
            ("dag_max_lanes", plan.max_lanes() as u64),
            ("dag_budget", plan.budget as u64),
            ("dag_splits", plan.splits() as u64),
        ]);
    }
    let mut report = prep.report;
    report.push(out.stage, out.stats);
    let mut rec = RunRecord::new(
        algo.name(),
        &scn.spec,
        report,
        out.verdict,
        out.phases,
        out.summary,
    );
    rec.metrics
        .extend(metrics.into_iter().map(|(k, v)| (k.to_string(), v)));
    Ok((rec, out.plan))
}

/// The floors of [`Algorithm::admits`], `nodes` nodes and `payload_bits`
/// bits a message, naming the one `spec` is below.
fn needs(name: &str, spec: &ScenarioSpec, nodes: usize, payload_bits: u32) -> Result<(), String> {
    let (n, bits) = (spec.n, spec.capacity.payload_bits);
    if n < nodes {
        Err(format!("`{name}` needs n ≥ {nodes}, the spec has n = {n}"))
    } else if bits < payload_bits {
        Err(format!(
            "`{name}` needs payload_bits ≥ {payload_bits} at n = {n}, the spec has payload_bits = {bits}"
        ))
    } else {
        Ok(())
    }
}

/// [`needs`] of an algorithm that agrees on a seed and whose main stage's
/// widest message takes `main(n)` bits: two nodes, then payloads both fit.
fn needs_seed_and(
    name: &str,
    spec: &ScenarioSpec,
    main: impl Fn(usize) -> u32,
) -> Result<(), String> {
    needs(name, spec, 2, 0)?;
    let seed = ncc_core::prepare::min_payload_bits(spec.n);
    needs(name, spec, 2, main(spec.n).max(seed))
}

/// [`Algorithm::run`] behind [`Algorithm::admits`] — the one entry every
/// front end (`run_record*`, `ncc-cli`, `ncc-serve`) shares, so a spec the
/// algorithm is not defined on costs an error value, not a panic.
pub fn run_checked(
    algo: &dyn Algorithm,
    eng: &mut Engine,
    scn: &Scenario,
) -> Result<RunRecord, RunnerError> {
    algo.admits(&scn.spec).map_err(RunnerError::Scenario)?;
    Ok(algo.run(eng, scn)?)
}

/// [`run_checked`] that also renders the run's packing plan for human eyes
/// (`ncc-cli explain`): one line per packed stage — lanes vs budget,
/// sync (`barrier` charged, `pad k` idle rounds to a known bound, or
/// `carries` for an all-A&B stage run in the previous stage's sync
/// slot), rounds, the messages its execution dropped, its peak receive
/// load and its peak per-edge load, lane labels — plus a totals line. The text is `None`
/// when the algorithm is not DAG-declared; the record is the one
/// [`run_checked`] returns.
pub fn explain_text(
    algo: &dyn Algorithm,
    eng: &mut Engine,
    scn: &Scenario,
) -> Result<(Option<String>, RunRecord), RunnerError> {
    use std::fmt::Write;
    algo.admits(&scn.spec).map_err(RunnerError::Scenario)?;
    let (rec, plan) = run_planned(algo, eng, scn)?;
    let Some(plan) = plan else {
        return Ok((None, rec));
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
            "  stage {:>4}  {:>2}/{} lanes  {:<7}  {:>5} rounds  dropped {:>3}  max_in {:>3}  max_edge_load {:>3}  {}{}",
            i + 1,
            st.lanes.len(),
            plan.budget,
            match (st.sync, st.carried) {
                (Owed::Barrier, _) => "barrier".to_string(),
                (Owed::Pad(k), _) => format!("pad {k}"),
                (_, true) => "carries".to_string(),
                _ => String::new(),
            },
            st.rounds(),
            st.stats.dropped,
            st.stats.max_in,
            st.stats.max_edge_load,
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
        "total: {} stages, {} lane-stages, max {}/{} lanes, {} barriers charged, {} carried, {} padded ({} idle rounds), {} budget splits",
        plan.stages.len(),
        plan.lane_stages(),
        plan.max_lanes(),
        plan.budget,
        plan.barriers(),
        plan.carried(),
        plan.padded(),
        plan.stages
            .iter()
            .map(|s| if let Owed::Pad(k) = s.sync { k } else { 0 })
            .sum::<u64>(),
        plan.splits()
    );
    Ok((Some(out), rec))
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
    /// Two nodes, payloads the seed chunks and FindMin's sketch packets
    /// fit in — whose key word is `bits(W) − 1` bits wider than at
    /// `W = 1` — and weights its range messages can carry (§3 assumes
    /// `W = poly(n)`).
    fn admits(&self, spec: &ScenarioSpec) -> Result<(), String> {
        let key_growth = 63 - spec.weight_max.max(1).leading_zeros();
        needs_seed_and(self.name(), spec, |n| {
            ncc_core::mst::min_payload_bits(n) + key_growth
        })?;
        let fits = ncc_core::mst::max_weight(spec.n, spec.capacity.payload_bits);
        if spec.weight_max > fits {
            return Err(format!(
                "`mst` carries weight_max ≤ {fits} in {}-bit payloads at n = {}, the spec has weight_max = {}",
                spec.capacity.payload_bits, spec.n, spec.weight_max
            ));
        }
        Ok(())
    }
    fn preparation(&self) -> Preparation {
        Preparation::Seed
    }
    fn bound(&self, scn: &Scenario) -> Option<Bound> {
        Some(Bound {
            value: lg(scn.spec.n).powi(4),
            a: None,
            d: None,
            formula: "log⁴ n (Thm 3.2)",
        })
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome> {
        let r = ncc_core::mst(eng, prep.shared(), scn.weighted())?;
        // per-phase accounting: where the lane-composed rounds went
        let rounds_findmin: u64 = r
            .report
            .stages
            .iter()
            .filter(|(l, _)| l.contains(":find"))
            .map(|(_, s)| s.rounds)
            .sum();
        let weight = scn.weighted().total_weight(&r.edges);
        Ok(Outcome {
            stage: "mst",
            stats: r.report.total,
            verdict: Verdict::from_check(check::check_mst(scn.weighted(), &r.edges)),
            phases: Some(r.phases),
            summary: format!(
                "{} edges, weight {weight}, {} Boruvka phases",
                r.edges.len(),
                r.phases
            ),
            metrics: vec![
                ("edges", r.edges.len() as u64),
                ("weight", weight),
                ("findmin_steps", r.findmin_steps as u64),
                ("findmin_buckets", r.findmin_buckets as u64),
                ("rounds_findmin", rounds_findmin),
                ("lane_stages", r.plan.lane_stages() as u64),
            ],
            plan: Some(r.plan),
        })
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
    fn preparation(&self) -> Preparation {
        Preparation::Seed
    }
    fn bound(&self, scn: &Scenario) -> Option<Bound> {
        Some(Bound::in_a(scn, "(a + log n)·log n (Thm 4.12)", peeling))
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome> {
        let r = ncc_core::orient(eng, prep.shared(), &scn.graph)?;
        let (_, ahi) = analysis::arboricity_bounds(&scn.graph);
        let directed = r.directed_edges();
        Ok(Outcome {
            stage: "orientation",
            stats: r.report.total,
            verdict: Verdict::from_check(check::check_orientation(
                &scn.graph,
                &directed,
                4 * ahi.max(1),
            )),
            phases: Some(r.phases),
            summary: format!(
                "max outdegree {} (d* = {}), {} phases",
                r.max_outdegree(),
                r.d_star,
                r.phases
            ),
            metrics: vec![
                ("max_outdegree", r.max_outdegree() as u64),
                ("d_star", r.d_star as u64),
                ("delta", r.max_degree as u64),
                ("lane_stages", r.plan.lane_stages() as u64),
            ],
            plan: Some(r.plan),
        })
    }
}

// ---------------------------------------------------------------------------
// §5 — BFS / MIS / Matching / Coloring / APSP (start from the broadcast trees)

struct Bfs;

impl Algorithm for Bfs {
    fn name(&self) -> &'static str {
        "bfs"
    }
    fn description(&self) -> &'static str {
        "BFS tree by layered multicast (§5.1, O((a+D+log n)·log n))"
    }
    fn preparation(&self) -> Preparation {
        Preparation::SeedAndTrees
    }
    fn bound(&self, scn: &Scenario) -> Option<Bound> {
        let d = analysis::diameter(&scn.graph) as usize;
        let value = |a: f64, lg_n: f64| (a + d as f64 + lg_n) * lg_n;
        let mut bound = Bound::in_a(scn, "(a + D + log n)·log n (Thm 5.2)", value);
        bound.d = Some(d);
        Some(bound)
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome> {
        let src = scn.source();
        let r = ncc_core::bfs(eng, prep.shared(), prep.trees(), &scn.graph, src)?;
        let reached = r.dist.iter().filter(|&&d| d != u32::MAX).count();
        Ok(Outcome {
            stage: "bfs",
            stats: r.report.total,
            verdict: Verdict::from_check(check::check_bfs(&scn.graph, src, &r.dist, &r.parent)),
            phases: Some(r.phases),
            summary: format!(
                "source {src}: {reached}/{} reached, {} frontier phases",
                scn.graph.n(),
                r.phases
            ),
            metrics: vec![("reached", reached as u64)],
            plan: Some(r.plan),
        })
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
    /// Two nodes, and payloads the seed chunks and the draws fit in.
    fn admits(&self, spec: &ScenarioSpec) -> Result<(), String> {
        needs_seed_and(self.name(), spec, ncc_core::mis::min_payload_bits)
    }
    fn preparation(&self) -> Preparation {
        Preparation::SeedAndTrees
    }
    fn bound(&self, scn: &Scenario) -> Option<Bound> {
        Some(Bound::in_a(scn, "(a + log n)·log n (Thm 5.3)", peeling))
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome> {
        let r = ncc_core::mis(eng, prep.shared(), prep.trees(), &scn.graph)?;
        let size = r.in_mis.iter().filter(|&&b| b).count();
        Ok(Outcome {
            stage: "mis",
            stats: r.report.total,
            verdict: Verdict::from_check(check::check_mis(&scn.graph, &r.in_mis)),
            phases: Some(r.phases),
            summary: format!("{size} nodes in the set, {} phases", r.phases),
            metrics: vec![("mis_size", size as u64)],
            plan: Some(r.plan),
        })
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
    /// Two nodes, and payloads the seed chunks and the ranked picks fit in.
    fn admits(&self, spec: &ScenarioSpec) -> Result<(), String> {
        needs_seed_and(self.name(), spec, ncc_core::matching::min_payload_bits)
    }
    fn preparation(&self) -> Preparation {
        Preparation::SeedAndTrees
    }
    fn bound(&self, scn: &Scenario) -> Option<Bound> {
        Some(Bound::in_a(scn, "(a + log n)·log n (Thm 5.4)", peeling))
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome> {
        let r = ncc_core::maximal_matching(eng, prep.shared(), prep.trees(), &scn.graph)?;
        let pairs = r.mate.iter().filter(|m| m.is_some()).count() / 2;
        Ok(Outcome {
            stage: "matching",
            stats: r.report.total,
            verdict: Verdict::from_check(check::check_matching(&scn.graph, &r.mate)),
            phases: Some(r.phases),
            summary: format!("{pairs} pairs, {} phases", r.phases),
            metrics: vec![("pairs", pairs as u64)],
            plan: Some(r.plan),
        })
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
    fn preparation(&self) -> Preparation {
        Preparation::SeedAndTrees
    }
    fn bound(&self, scn: &Scenario) -> Option<Bound> {
        let value = |a: f64, lg_n: f64| (a + lg_n) * lg_n.powf(1.5);
        Some(Bound::in_a(scn, "(a + log n)·log^{3/2} n (Thm 5.5)", value))
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome> {
        let orientation = &prep.trees().orientation;
        let r = ncc_core::coloring(eng, prep.shared(), orientation, &scn.graph)?;
        let used = r.colors.iter().max().map_or(0, |c| c + 1);
        Ok(Outcome {
            stage: "coloring",
            stats: r.report.total,
            verdict: Verdict::from_check(check::check_coloring(&scn.graph, &r.colors, r.palette)),
            phases: None,
            summary: format!("{used} colors used (palette {})", r.palette),
            metrics: vec![("colors_used", used as u64), ("palette", r.palette as u64)],
            plan: Some(r.plan),
        })
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
    fn preparation(&self) -> Preparation {
        Preparation::SeedAndTrees
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, prep: &Prepared) -> Result<Outcome> {
        let r = ncc_core::landmark_apsp(eng, prep.shared(), prep.trees(), &scn.graph, None)?;
        // every sketch must equal the centralised BFS oracle exactly
        let exact = r
            .landmarks
            .iter()
            .enumerate()
            .all(|(l, &lm)| analysis::bfs_distances(&scn.graph, lm) == r.dist[l]);
        Ok(Outcome {
            stage: "apsp",
            stats: r.report.total,
            verdict: if exact {
                Verdict::Verified
            } else {
                Verdict::Failed
            },
            phases: Some(r.phases),
            summary: format!(
                "{} landmark sketches, {} frontier phases",
                r.landmarks.len(),
                r.phases
            ),
            metrics: vec![("landmarks", r.landmarks.len() as u64)],
            plan: Some(r.plan),
        })
    }
}

// ---------------------------------------------------------------------------
// §1 baselines — gossip and broadcast (capacity-bound demonstrations)

/// The outcome of an unchecked baseline whose summary is its own cost.
fn baseline(stage: &'static str, stats: ExecStats) -> Outcome {
    Outcome {
        stage,
        stats,
        verdict: Verdict::Unchecked,
        phases: None,
        summary: format!("{} rounds, {} messages", stats.rounds, stats.sent),
        metrics: Vec::new(),
        plan: None,
    }
}

/// The admission rule of the two baselines: defined from one node up, and
/// on two or more only if [`round_cap`] lets a node send and receive at
/// least one message a round — at 0 gossip never finishes and broadcast
/// informs nobody.
fn needs_round_cap(name: &str, spec: &ScenarioSpec) -> Result<(), String> {
    needs(name, spec, 1, 0)?;
    if spec.n >= 2 && round_cap(&spec.capacity, spec.n) == 0 {
        return Err(format!(
            "`{name}` needs a capacity of send ≥ 1 and recv ≥ 1 at n = {}, the spec has send = {}, recv = {}",
            spec.n, spec.capacity.send, spec.capacity.recv
        ));
    }
    Ok(())
}

struct Gossip;

impl Algorithm for Gossip {
    fn name(&self) -> &'static str {
        "gossip"
    }
    fn admits(&self, spec: &ScenarioSpec) -> Result<(), String> {
        needs_round_cap(self.name(), spec)
    }
    fn description(&self) -> &'static str {
        "all-to-all token gossip baseline (§1, Θ(n/log n) rounds)"
    }
    fn preparation(&self) -> Preparation {
        Preparation::None
    }
    fn run_main(&self, eng: &mut Engine, _: &Scenario, _: &Prepared) -> Result<Outcome> {
        Ok(baseline("gossip", gossip_all(eng)?))
    }
}

struct Broadcast;

impl Algorithm for Broadcast {
    fn name(&self) -> &'static str {
        "broadcast"
    }
    fn admits(&self, spec: &ScenarioSpec) -> Result<(), String> {
        needs_round_cap(self.name(), spec)
    }
    fn description(&self) -> &'static str {
        "single-source flooding broadcast baseline (§1, Θ(log n/log log n))"
    }
    fn preparation(&self) -> Preparation {
        Preparation::None
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, _: &Prepared) -> Result<Outcome> {
        Ok(baseline(
            "broadcast",
            broadcast_all(eng, scn.spec.seed ^ 42)?,
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
    fn admits(&self, spec: &ScenarioSpec) -> Result<(), String> {
        needs(self.name(), spec, 1, 0)
    }
    fn description(&self) -> &'static str {
        "global min via butterfly aggregate-and-broadcast (Thm 2.2, O(log n))"
    }
    fn preparation(&self) -> Preparation {
        Preparation::None
    }
    fn run_main(&self, eng: &mut Engine, scn: &Scenario, _: &Prepared) -> Result<Outcome> {
        // One seeded value per node; the oracle minimum is computable
        // locally, which gives this primitive a real correctness check.
        let inputs: Vec<Option<u64>> = (0..scn.spec.n as u64)
            .map(|i| Some((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ scn.spec.seed) >> 16))
            .collect();
        let oracle = inputs.iter().flatten().copied().min();
        let (results, stats) = aggregate_and_broadcast(eng, inputs, &MinU64)?;
        Ok(Outcome {
            stage: "aggregate-and-broadcast",
            stats,
            verdict: if results.iter().all(|r| *r == oracle) {
                Verdict::Verified
            } else {
                Verdict::Failed
            },
            phases: None,
            summary: format!("global min {:?} agreed by all {} nodes", oracle, scn.spec.n),
            metrics: Vec::new(),
            plan: None,
        })
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
            let (text, rec) = explain_text(algo, &mut eng, &scn).unwrap();
            let text = text.unwrap_or_else(|| panic!("{name} should expose a packing plan"));
            assert!(text.contains("packing plan"), "{name} render misses header");
            assert!(text.contains("total:"), "{name} render misses totals");
            // the same run's plan is echoed into the record
            let metric = |k: &str| rec.metric(k).unwrap_or_else(|| panic!("{name} lacks {k}"));
            assert!(metric("dag_stages") > 0, "{name} plan has no stages");
            assert!(
                metric("dag_max_lanes") <= metric("dag_budget"),
                "{name} exceeds lane budget"
            );
        }
        for name in ["gossip", "broadcast", "butterfly-aggregation"] {
            let algo = find_algorithm(name).unwrap();
            let mut eng = scn.engine();
            let (text, rec) = explain_text(algo, &mut eng, &scn).unwrap();
            assert!(text.is_none(), "{name} is not DAG-declared");
            assert_eq!(rec.metric("dag_stages"), None, "{name} has no plan echo");
        }
    }

    /// Geometric graphs are locally dense: their degeneracy lies far above
    /// the Nash-Williams lower end (at n = 1 024 the lower end is 16 and
    /// the midpoint 18), so an `a` read from the midpoint or the upper end
    /// fails here.
    #[test]
    fn bounds_exist_exactly_for_the_table_1_algorithms() {
        use crate::scenario::{FamilySpec, ScenarioSpec};
        let bounded = ["mst", "orientation", "bfs", "mis", "matching", "coloring"];
        for n in [2, 3, 64, 1024] {
            for family in [
                FamilySpec::Gnp {
                    p: (8.0 / n as f64).min(1.0),
                },
                FamilySpec::Forests { k: 3 },
                FamilySpec::Geometric { radius: 0.1 },
            ] {
                let scn = ScenarioSpec::new(family, n, 5).build().unwrap();
                let (alo, _) = analysis::arboricity_bounds(&scn.graph);
                for algo in algorithms() {
                    let (name, label) = (algo.name(), scn.spec.label());
                    let Some(b) = algo.bound(&scn) else {
                        assert!(!bounded.contains(&name), "{name} on {label} has no bound");
                        continue;
                    };
                    assert!(bounded.contains(&name), "{name} has a bound");
                    assert!(
                        b.value.is_finite() && b.value > 0.0,
                        "{name} on {label}: {b:?}"
                    );
                    let a = if name == "mst" { None } else { Some(alo) };
                    assert_eq!(b.a, a, "{name} on {label}");
                    assert_eq!(b.d.is_some(), name == "bfs", "{name} on {label}");
                }
            }
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
