//! What every workload shares: the op sample, the batch a timed loop
//! returns, the end-to-end metrics computed from it, and the in-process
//! session (an op is `Engine::reset` + `Algorithm::run`).

use std::time::Instant;

use ncc_model::Engine;
use ncc_runner::{find_algorithm, Algorithm, RunRecord, Scenario, ScenarioSpec};
use ncc_serve::ServeStats;

use crate::rss::peak_rss_mb;
use crate::stats::{mean, percentile};
use crate::trace::Tracer;

/// One timed op and the deterministic work its record reports.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Ops on the same spec share a group.
    pub group: usize,
    pub ms: f64,
    pub rounds: u64,
    pub sent: u64,
    pub node_rounds: u64,
}

/// What one timed loop produced.
pub struct Batch {
    /// Ops started, whether or not they produced a sample.
    pub attempted: u64,
    pub ops: Vec<OpSample>,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// `VmHWM` when the loop ended, before any after-the-loop checking.
    pub peak_rss_mb: f64,
    /// Server counters accrued by the (latest) loop's requests (serve
    /// only).
    pub served: Option<ServeStats>,
}

/// The percentile of a run that `op_ms` and `ops_per_s` report. The host
/// is a shared guest that runs 1.2–1.6× slow for 10–50 s at a time; a
/// median follows such a stretch as soon as it covers half the run, the
/// fast decile only when it covers nine tenths of it.
const FAST: f64 = 10.0;

/// `ops_per_s` averages inside each of this many consecutive parts of
/// the run before it takes the fast decile across them.
const SLICES: usize = 16;

impl Batch {
    /// Each op's wall-clock per simulated round. Per round, because the
    /// specs of a pool differ in rounds by up to ±20 % but hardly in time
    /// per round: dividing first keeps a pool of unequal specs from
    /// reading as noise.
    fn ms_per_round(&self) -> Vec<f64> {
        (self.ops.iter())
            .map(|o| o.ms / o.rounds.max(1) as f64)
            .collect()
    }

    /// The *mean* time per round inside each slice of the run: up to
    /// `SLICES` runs of consecutive ops, equal in op count. A slow stretch
    /// of the host takes whole slices; what the program does to every
    /// k-th op is in all of them.
    fn slice_ms_per_round(&self) -> Vec<f64> {
        (self.ops.chunks(self.ops.len().div_ceil(SLICES).max(1)))
            .map(|slice| {
                let ms: f64 = slice.iter().map(|o| o.ms).sum();
                let rounds: u64 = slice.iter().map(|o| o.rounds.max(1)).sum();
                ms / rounds as f64
            })
            .collect()
    }

    /// Wall-clock of one op when the host is not in the way: the pool's
    /// mean rounds times the fast decile of the ops' time per round.
    pub fn op_ms(&self) -> f64 {
        self.rounds() * percentile(&self.ms_per_round(), FAST)
    }

    /// Ops per second of op time, closed loop, one op in flight, from the
    /// slices' means: a change that stalls every k-th op leaves `op_ms`
    /// where it was and shows here.
    pub fn ops_per_s(&self) -> f64 {
        1e3 / (self.rounds() * percentile(&self.slice_ms_per_round(), FAST))
    }

    /// Simulated rounds of one op, as the mean over the pool's specs:
    /// each spec counts once, however often the loop reached it.
    pub fn rounds(&self) -> f64 {
        let groups = self.ops.iter().map(|o| o.group).max().map_or(0, |g| g + 1);
        let mut sums = vec![(0.0, 0u32); groups];
        for o in &self.ops {
            sums[o.group].0 += o.rounds as f64;
            sums[o.group].1 += 1;
        }
        let per_spec: Vec<f64> = (sums.iter())
            .filter(|(_, visits)| *visits > 0)
            .map(|(rounds, visits)| rounds / *visits as f64)
            .collect();
        mean(&per_spec)
    }

    /// Appends a later loop of the same session.
    pub fn absorb(&mut self, later: Batch) {
        self.attempted += later.attempted;
        self.ops.extend(later.ops);
        self.failures.extend(later.failures);
        self.peak_rss_mb = later.peak_rss_mb;
        self.served = later.served.or(self.served);
    }
}

/// A workload that is set up and can run timed ops.
pub trait Session {
    /// Runs ops round-robin over the pool until `seconds` have passed
    /// and every spec has been visited, then checks them.
    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Batch;

    /// Frees the workload, stopping every thread it started.
    fn close(self: Box<Self>) {}
}

/// The checks every record must pass, whichever way it was produced.
pub fn record_faults(rec: &RunRecord, spec: &ScenarioSpec) -> Option<String> {
    let t = &rec.report.total;
    if !rec.verdict.ok() {
        Some(format!("verdict {:?}", rec.verdict))
    } else if t.delivered + t.dropped != t.sent {
        Some(format!(
            "delivered {} + dropped {} != sent {}",
            t.delivered, t.dropped, t.sent
        ))
    } else if rec.scenario != *spec {
        Some("record echoes another spec".to_string())
    } else {
        None
    }
}

pub fn sample(group: usize, ms: f64, rec: &RunRecord) -> OpSample {
    OpSample {
        group,
        ms,
        rounds: rec.rounds,
        sent: rec.sent,
        node_rounds: rec.report.total.node_rounds,
    }
}

/// One pool spec, built, with its engine and the record of its first run.
pub struct Cell {
    pub scn: Scenario,
    pub eng: Engine,
    pub record: RunRecord,
    /// `record.to_json()`: what every later op on this spec must equal.
    pub reference: String,
}

impl Cell {
    /// `ncc_runner::run_record` taken apart, one span per layer call:
    /// generate, wrap, build the engine, run.
    pub fn build(
        algo: &dyn Algorithm,
        spec: &ScenarioSpec,
        tr: &mut Tracer,
    ) -> Result<Cell, String> {
        let graph = tr
            .span("graph.gen", || spec.build_graph())
            .map_err(|e| format!("{}: {e}", spec.label()))?;
        let scn = tr.span("runner.build", || Scenario::from_graph(spec.clone(), graph));
        let mut eng = tr.span("runner.engine_new", || scn.engine_with_threads(1));
        let record = tr
            .span("runner.run", || algo.run(&mut eng, &scn))
            .map_err(|e| format!("{} on {}: {e}", algo.name(), spec.label()))?;
        if let Some(fault) = record_faults(&record, spec) {
            return Err(format!("{} on {}: {fault}", algo.name(), spec.label()));
        }
        let reference = record.to_json();
        Ok(Cell {
            scn,
            eng,
            record,
            reference,
        })
    }
}

pub fn algorithm(name: &str) -> &'static dyn Algorithm {
    find_algorithm(name).unwrap_or_else(|| panic!("`{name}` is not a registered algorithm"))
}

pub struct InProcess {
    algo: &'static dyn Algorithm,
    pub cells: Vec<Cell>,
}

impl InProcess {
    /// Builds every pool spec and runs `warmups` ops on each; the first
    /// of them yields the spec's reference record.
    pub fn setup(
        algorithm_name: &str,
        specs: &[ScenarioSpec],
        warmups: usize,
        tr: &mut Tracer,
    ) -> Result<InProcess, String> {
        let algo = algorithm(algorithm_name);
        let mut cells = Vec::with_capacity(specs.len());
        for spec in specs {
            cells.push(Cell::build(algo, spec, tr)?);
        }
        let mut session = InProcess { algo, cells };
        for _ in 1..warmups {
            for i in 0..session.cells.len() {
                let (_, fault) = session.op(i, tr);
                if let Some(fault) = fault {
                    return Err(format!("warm-up: {fault}"));
                }
            }
        }
        Ok(session)
    }

    /// One op on cell `i`: its sample, and what was wrong with it if
    /// anything was.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> (Option<OpSample>, Option<String>) {
        let cell = &mut self.cells[i];
        let start = Instant::now();
        tr.span("runner.reset", || cell.eng.reset());
        let result = tr.span("runner.run", || self.algo.run(&mut cell.eng, &cell.scn));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let label = cell.scn.spec.label();
        let rec = match result {
            Ok(rec) => rec,
            Err(e) => return (None, Some(format!("{label}: run failed: {e}"))),
        };
        let json = tr.span("runner.record_json", || rec.to_json());
        let fault = record_faults(&rec, &cell.scn.spec)
            .or_else(|| (json != cell.reference).then(|| "record differs from warm-up".into()))
            .map(|f| format!("{label}: {f}"));
        (Some(sample(i, ms, &rec)), fault)
    }
}

impl Session for InProcess {
    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Batch {
        let mut ops = Vec::new();
        let mut failures = Vec::new();
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < seconds || i < self.cells.len() {
            tr.set_op(i as u64 + 1);
            let span = tr.enter("op");
            let (op, fault) = self.op(i % self.cells.len(), tr);
            tr.exit(span);
            ops.extend(op);
            failures.extend(fault);
            i += 1;
        }
        tr.set_op(0);
        Batch {
            attempted: i as u64,
            ops,
            failures,
            peak_rss_mb: peak_rss_mb(),
            served: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(group: usize, ms: f64, rounds: u64) -> OpSample {
        OpSample {
            group,
            ms,
            rounds,
            sent: 0,
            node_rounds: 0,
        }
    }

    fn batch(ops: Vec<OpSample>) -> Batch {
        Batch {
            attempted: ops.len() as u64,
            ops,
            failures: vec![],
            peak_rss_mb: 1.0,
            served: None,
        }
    }

    #[test]
    fn op_ms_is_rounds_times_the_fast_decile_and_rounds_count_each_spec_once() {
        // time per round .20 .19 … .10 on two specs of 100 and 300 rounds,
        // the first visited six times and the second five
        let b = batch(
            (0..11)
                .map(|i| {
                    let rounds = if i % 2 == 0 { 100 } else { 300 };
                    op(i % 2, (20 - i) as f64 * rounds as f64 / 100.0, rounds)
                })
                .collect(),
        );
        assert_eq!(b.rounds(), 200.0);
        // eleven values: the fast decile is the second fastest, .11
        assert!((b.op_ms() - 22.0).abs() < 1e-9, "{}", b.op_ms());
    }

    #[test]
    fn a_slow_stretch_moves_neither_timing_and_a_periodic_stall_moves_ops_per_s() {
        let run = |ms: fn(usize) -> f64| batch((0..64).map(|i| op(0, ms(i), 100)).collect());
        let near = |x: f64, want: f64| (x - want).abs() < 1e-9;
        let calm = run(|_| 10.0);
        assert!(near(calm.op_ms(), 10.0) && near(calm.ops_per_s(), 100.0));
        // the host runs 1.5x slow through the middle half of the run
        let burst = run(|i| if (16..48).contains(&i) { 15.0 } else { 10.0 });
        assert!(near(burst.op_ms(), 10.0) && near(burst.ops_per_s(), 100.0));
        // the program stalls on every fourth op: in every slice's mean
        let stall = run(|i| if i % 4 == 3 { 30.0 } else { 10.0 });
        assert!(near(stall.op_ms(), 10.0), "{}", stall.op_ms());
        assert!(near(stall.ops_per_s(), 1e3 / 15.0), "{}", stall.ops_per_s());
    }

    #[test]
    fn in_process_session_checks_every_op_against_its_warm_up() {
        let w = crate::workloads::find("dag_mst").unwrap();
        let specs: Vec<ScenarioSpec> = (0..2)
            .map(|i| {
                let mut s = w.spec(7, i);
                s.n = 16;
                s
            })
            .collect();
        let mut tr = Tracer::new(true);
        let mut s = InProcess::setup("mst", &specs, 2, &mut tr).unwrap();
        let batch = s.timed(0.0, &mut tr);
        assert_eq!(batch.ops.len(), 2, "every spec is visited once");
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert_eq!(batch.ops[0].rounds, s.cells[0].record.rounds);
        // a record that differs from the warm-up's is a failed op
        s.cells[1].reference.push(' ');
        let batch = s.timed(0.0, &mut tr);
        assert_eq!(batch.failures.len(), 1);
        assert!(batch.failures[0].contains("differs from warm-up"));
        assert_eq!(tr.durations_ms("graph.gen").len(), 2);
        assert_eq!(tr.durations_ms("runner.reset").len(), 2 + 2 + 2);
    }
}
