//! The two kinds of run: end to end (tracing off, the bounded
//! metrics) and traced (spans on, the per-layer metrics).

use std::time::Instant;

use ncc_runner::Scenario;

use crate::harness::{algorithm, Cell, InProcess, OpSample, Session};
use crate::probes;
use crate::report::Metrics;
use crate::serve::Serve;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{Kind, Workload};

pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Lines for the reader, printed before the metrics.
    pub notes: Vec<String>,
    /// The trace document, when the run was traced.
    pub trace: Option<String>,
}

/// Sets a workload up over `pool` specs and returns it with the seconds
/// that took.
fn setup(
    w: &Workload,
    seed: u64,
    pool: usize,
    tr: &mut Tracer,
) -> Result<(Box<dyn Session>, f64), String> {
    let t = Instant::now();
    let session: Box<dyn Session> = match w.kind {
        Kind::InProcess => Box::new(InProcess::setup(
            w.algorithm,
            &w.pool_specs(seed, pool),
            w.warmups,
            tr,
        )?),
        Kind::Serve { .. } => Box::new(Serve::setup(w, seed, pool, tr)?),
    };
    Ok((session, t.elapsed().as_secs_f64()))
}

/// Tracing off: set up, run timed ops for `seconds`, then set up again
/// until `setup_reps` set-ups have been timed. The repeats come after the
/// loop so that peak RSS, read when the loop ends, is of one set-up:
/// every extra server leaves its threads' malloc arenas behind, which
/// moved `serve_warm`'s peak between 16.2 and 17.4 MB on one seed.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tr = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(w.setup_reps);
    let (mut live, s) = setup(w, seed, w.pool, &mut tr)?;
    setup_s.push(s);
    let batch = live.timed(seconds, &mut tr);
    live.close();
    for _ in 1..w.setup_reps {
        let (again, s) = setup(w, seed, w.pool, &mut tr)?;
        setup_s.push(s);
        again.close();
    }
    if batch.ops.is_empty() {
        return Err(format!("no op completed: {:?}", batch.failures));
    }

    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), setup_s.len());
    metrics.put("op_ms", batch.op_ms(), batch.ops.len());
    metrics.put("ops_per_s", batch.ops_per_s(), batch.ops.len());
    metrics.put("rounds", batch.rounds(), batch.ops.len());
    metrics.put("peak_rss_mb", batch.peak_rss_mb, 1);
    Ok(Outcome {
        metrics,
        attempted: batch.attempted,
        failures: batch.failures,
        notes: Vec::new(),
        trace: None,
    })
}

/// A traced run keeps at most this many pool specs: it spends its time
/// on layers, not on averaging seeds.
const TRACE_POOL: usize = 2;

/// Pairs of (spans off, spans on) timed loops in a traced run.
const TRACE_LOOPS: usize = 4;

fn put_span(out: &mut Metrics, tr: &Tracer, span: &str, metric: &str, scale: f64) {
    let ms = tr.durations_ms(span);
    out.put(metric, median(&ms) * scale, ms.len());
}

/// Tracing on: one set-up, timed ops with spans off then on (their
/// ratio is the tracing overhead), a walk through the runner's layers
/// on spec 0, and the fixed layer probes.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut tr = Tracer::new(true);
    let mut out = Metrics::default();
    let root = tr.enter("workload");
    let pool = w.pool.min(TRACE_POOL);

    let span = tr.enter("setup");
    let (mut live, setup_s) = setup(w, seed, pool, &mut tr)?;
    let setup_ms = setup_s * 1e3;
    tr.exit(span);

    // Timed ops with spans off and on, in alternating loops so that
    // host drift falls on both alike.
    let mut plain = live.timed(0.0, &mut Tracer::new(false));
    let span = tr.enter("timed");
    let mut batch = live.timed(0.0, &mut tr);
    let each = seconds / (4 * TRACE_LOOPS) as f64;
    for _ in 1..TRACE_LOOPS {
        tr.set_enabled(false);
        plain.absorb(live.timed(each, &mut tr));
        tr.set_enabled(true);
        batch.absorb(live.timed(each, &mut tr));
    }
    tr.exit(span);
    live.close();
    if batch.ops.is_empty() || plain.ops.is_empty() {
        return Err(format!("no op completed: {:?}", batch.failures));
    }
    out.put(
        "trace.overhead_pct",
        100.0 * (batch.op_ms() / plain.op_ms() - 1.0),
        batch.ops.len(),
    );

    // The spread inside the run, which `op_ms`'s fast decile leaves out.
    let all_ms: Vec<f64> = plain.ops.iter().chain(&batch.ops).map(|o| o.ms).collect();
    let tail = tail_percentile(all_ms.len()).unwrap_or(50.0);
    out.put("op.median_ms", median(&all_ms), all_ms.len());
    out.put("op.tail_ms", percentile(&all_ms, tail), all_ms.len());
    out.put("op.tail_pct", tail, all_ms.len());
    out.put("op.max_ms", percentile(&all_ms, 100.0), all_ms.len());
    let per = |f: fn(&OpSample) -> u64| -> f64 {
        let v: Vec<f64> = batch.ops.iter().map(|o| o.ms / f(o) as f64).collect();
        median(&v)
    };
    out.put("runner.ns_per_msg", per(|o| o.sent) * 1e6, batch.ops.len());
    out.put(
        "runner.ns_per_node_round",
        per(|o| o.node_rounds) * 1e6,
        batch.ops.len(),
    );
    out.put(
        "runner.us_per_round",
        per(|o| o.rounds) * 1e3,
        batch.ops.len(),
    );

    // The runner's layers, one call each, on spec 0.
    let span = tr.enter("walk");
    let spec = w.spec(seed, 0);
    let mut cell = Cell::build(algorithm(w.algorithm), &spec, &mut tr)?;
    tr.span("runner.reset", || cell.eng.reset());
    let json = tr.span("runner.record_json", || cell.record.to_json());
    let unweighted = Scenario::from_graph(spec, cell.scn.graph.clone());
    tr.span("graph.weights", || {
        unweighted.weighted();
    });
    tr.exit(span);
    let edges = cell.scn.graph.m() as f64;
    put_span(&mut out, &tr, "graph.gen", "graph.gen_ms", 1.0);
    let gen_ms = out.get("graph.gen_ms").expect("just put");
    out.put("graph.gen_ns_per_edge", gen_ms * 1e6 / edges, 1);
    out.put("graph.edges", edges, 1);
    put_span(&mut out, &tr, "graph.weights", "graph.weights_ms", 1.0);
    put_span(&mut out, &tr, "runner.build", "runner.build_ms", 1.0);
    put_span(
        &mut out,
        &tr,
        "runner.engine_new",
        "runner.engine_new_ms",
        1.0,
    );
    put_span(&mut out, &tr, "runner.reset", "runner.reset_us", 1e3);
    put_span(
        &mut out,
        &tr,
        "runner.record_json",
        "runner.record_json_us",
        1e3,
    );
    out.put("runner.record_json_bytes", json.len() as f64, 1);
    out.put(
        "model.engine.resident_bytes_per_node",
        cell.eng.resident_bytes().per_node(w.n),
        1,
    );
    drop((cell, unweighted));

    // a serve workload reports its own server's counters
    if let Some(own) = &batch.served {
        out.put_served(own);
    }
    // From here on the numbers are the same whatever the workload: the
    // driver wants every per-layer metric from every traced run.
    out.fixed_probes();
    probes::engine(seed, &mut tr, &mut out);
    probes::mux(seed, &mut tr, &mut out);
    probes::router(seed, &mut tr, &mut out);
    probes::bfs_pipeline(seed, &mut tr, &mut out);
    probes::mst_pipeline(seed, &mut tr, &mut out);
    let probe_served = probes::serve(seed, &mut tr, &mut out);
    if batch.served.is_none() {
        out.put_served(&probe_served);
    }
    tr.exit(root);

    // The interaction equations of the README, checked on this run.
    let spec0_ms = median(
        &(batch.ops.iter())
            .filter(|o| o.group == 0)
            .map(|o| o.ms)
            .collect::<Vec<_>>(),
    );
    let get = |name: &str| out.get(name).expect("probe metric");
    let span_ms = |name: &str| median(&tr.durations_ms(name));
    let (what, measured, modelled) = match w.name {
        "dag_bfs" => (
            "dag_bfs/op_ms (spec 0) = core.prep_ms + core.bfs_main_ms + graph.check_bfs_ms",
            spec0_ms,
            get("core.prep_ms") + get("core.bfs_main_ms") + get("graph.check_bfs_ms"),
        ),
        "dag_mst" => (
            "dag_mst/op_ms (spec 0) = seed + core.mst_ms + graph.check_mst_ms",
            spec0_ms,
            span_ms("butterfly.seed.mst") + get("core.mst_ms") + get("graph.check_mst_ms"),
        ),
        "scale_broadcast" => (
            "scale_broadcast/setup (ms) = graph.gen_ms + runner.build_ms + runner.engine_new_ms + warm-ups x op_ms",
            setup_ms,
            gen_ms
                + get("runner.build_ms")
                + get("runner.engine_new_ms")
                + w.warmups as f64 * spec0_ms,
        ),
        _ => (
            "serve_warm/op_ms = serve.wire_ms + serve.handle_ms",
            median(&batch.ops.iter().map(|o| o.ms).collect::<Vec<_>>()),
            get("serve.wire_ms") + get("serve.handle_ms"),
        ),
    };
    let notes = vec![format!(
        "# model {what}: measured {measured:.3}, from layers {modelled:.3} ({:+.1} %)",
        100.0 * (modelled - measured) / measured
    )];

    let mut failures = plain.failures;
    failures.extend(batch.failures);
    Ok(Outcome {
        metrics: out,
        attempted: plain.attempted + batch.attempted,
        failures,
        notes,
        trace: Some(tr.to_json(w.name, seed)),
    })
}
