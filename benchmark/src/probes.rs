//! Fixed-size probes of single layers, run only in a traced run.
//!
//! The spans around a workload's ops cannot see inside `Algorithm::run`
//! or past the TCP socket, so each probe calls one layer's public
//! functions directly, the way the layer above it does, on inputs shaped
//! like the workloads': the gossip-shaped program at n = 8192 (67 M
//! messages, the dense router), the BFS and MST pipelines on spec 0 of `dag_bfs` and `dag_mst`,
//! the serve path on `serve_warm`'s specs. Every traced run executes all
//! of them, so any workload's trace carries the whole layer profile.

use std::time::Instant;

use ncc_butterfly::{aggregate_and_broadcast, broadcast_seed, MinU64};
use ncc_graph::check;
use ncc_hashing::SharedRandomness;
use ncc_model::{
    ilog2_ceil, Capacity, Engine, Envelope, ExecStats, MuxBuilder, NetConfig, NodeId, Router,
};
use ncc_runner::Scenario;
use ncc_serve::{
    parse_request, BuildCache, Coordinator, EngineSlots, Request, ServeConfig, ServeStats,
};

use crate::alloc::count_allocs;
use crate::harness::{algorithm, Cell, Session};
use crate::programs::{GossipShaped, LoneWalker};
use crate::report::Metrics;
use crate::serve::{request_line, Serve};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{find, splitmix64};

/// Nodes of the gossip-shaped program: every node sends and receives its
/// capacity for 80 rounds, so the engine step and the dense router do all
/// the work.
const GOSSIP_N: usize = 8192;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` `reps` times after one untimed call; milliseconds each.
fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut last = f();
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        last = std::hint::black_box(f());
        ms.push(ms_since(t));
    }
    (ms, last)
}

fn gossip_on(eng: &Engine) -> GossipShaped {
    let cap = eng.config().capacity;
    GossipShaped {
        n: eng.n() as u64,
        cap: cap.send.min(cap.recv) as u64,
    }
}

/// `model.engine.*`: the engine alone under a plain program.
pub fn engine(seed: u64, tr: &mut Tracer, out: &mut Metrics) {
    let span = tr.enter("probe.model.engine");
    let n = GOSSIP_N;
    let mut eng = Engine::new(NetConfig::new(n, seed));
    let prog = gossip_on(&eng);
    let mut sums = vec![0u64; n];
    let mut run = |eng: &mut Engine| -> ExecStats {
        eng.reset();
        sums.fill(0);
        eng.execute(&prog, &mut sums).expect("gossip executes")
    };
    run(&mut eng);
    let reps = 3;
    let mut ms = Vec::with_capacity(reps);
    let (stats, allocs) = count_allocs(|| {
        let mut stats = ExecStats::default();
        for _ in 0..reps {
            let t = Instant::now();
            stats = run(&mut eng);
            ms.push(ms_since(t));
        }
        stats
    });
    assert_eq!(stats.sent, prog.messages());
    let ns = median(&ms) * 1e6;
    out.put("model.engine.exec_ns_per_msg", ns / stats.sent as f64, reps);
    out.put(
        "model.engine.exec_ns_per_node_round",
        ns / stats.node_rounds as f64,
        reps,
    );
    out.put(
        "model.engine.allocs_per_round",
        allocs as f64 / (reps as u64 * stats.rounds) as f64,
        reps,
    );

    // The fixed cost of a round: one node awake, nothing sent. The init
    // round wakes all n nodes, so the cost of a round is the slope
    // between two tick counts, which must not depend on n.
    for (name, n) in [
        ("model.engine.empty_round_ns", 128usize),
        ("model.engine.empty_round_big_ns", 1_000_000),
    ] {
        let mut eng = Engine::new(NetConfig::new(n, seed));
        let mut left = vec![0u32; n];
        let mut walk = |ticks: u32| {
            let reps = 3;
            let (ms, stats) = timed_reps(reps, || {
                eng.reset();
                eng.execute(&LoneWalker { ticks }, &mut left)
                    .expect("lone walker executes")
            });
            (median(&ms) * 1e6, stats.rounds, reps)
        };
        let (short_ns, short_rounds, _) = walk(50_000);
        let (long_ns, long_rounds, reps) = walk(450_000);
        let slope = (long_ns - short_ns) / (long_rounds - short_rounds) as f64;
        out.put(name, slope, reps);
    }
    tr.exit(span);
}

/// `model.mux.*`: the same program bare and as the only lane of a mux.
pub fn mux(seed: u64, tr: &mut Tracer, out: &mut Metrics) {
    let span = tr.enter("probe.model.mux");
    let n = 512;
    let mut eng = Engine::new(NetConfig::new(n, seed));
    let prog = gossip_on(&eng);
    let reps = 3;
    let (plain_ms, plain) = timed_reps(reps, || {
        eng.reset();
        eng.execute(&prog, &mut vec![0u64; n]).expect("plain")
    });
    let mut allocs = 0;
    let (muxed_ms, muxed) = timed_reps(reps, || {
        eng.reset();
        let mut b = MuxBuilder::new(n);
        b.lane(prog, vec![0u64; n]);
        let (mux, mut states) = b.build();
        let (stats, a) = count_allocs(|| eng.execute(&mux, &mut states).expect("muxed"));
        allocs = a;
        stats
    });
    assert_eq!((plain.sent, plain.rounds), (muxed.sent, muxed.rounds));
    let msgs = plain.sent as f64;
    out.put(
        "model.mux.tax_ns_per_msg",
        (median(&muxed_ms) - median(&plain_ms)) * 1e6 / msgs,
        reps,
    );
    out.put("model.mux.allocs_per_msg", allocs as f64 / msgs, 1);
    tr.exit(span);
}

/// `model.router.*`: `Router::route` replayed on two batch shapes.
pub fn router(seed: u64, tr: &mut Tracer, out: &mut Metrics) {
    let span = tr.enter("probe.model.router");
    let reps = 20;
    let replay = |n: usize, batch: &[Envelope<u64>], recv: usize| -> f64 {
        let mut router: Router<u64> = Router::new(n, seed, 1);
        let mut sends = Vec::with_capacity(batch.len());
        let mut ms = Vec::with_capacity(reps);
        for round in 0..=reps as u64 {
            sends.extend_from_slice(batch);
            let t = Instant::now();
            let report = router.route(&mut sends, round, recv);
            if round > 0 {
                ms.push(ms_since(t));
            }
            assert_eq!(report.delivered + report.dropped, batch.len() as u64);
        }
        median(&ms) * 1e6 / batch.len() as f64
    };

    // dense: one gossip round, every node sends `cap` and receives `cap`
    let n = GOSSIP_N;
    let cap = Capacity::default_for(n).send;
    let dense: Vec<Envelope<u64>> = (0..n)
        .flat_map(|u| {
            (1..=cap).map(move |off| Envelope::new(u as NodeId, ((u + off) % n) as NodeId, 1))
        })
        .collect();
    out.put(
        "model.router.dense_ns_per_msg",
        replay(n, &dense, cap),
        reps,
    );

    // sparse: n/64 sends between random pairs at n = 10^6
    let n = 1_000_000;
    let sparse: Vec<Envelope<u64>> = (0..n as u64 / 64)
        .map(|i| {
            let r = splitmix64(seed ^ i);
            let (src, dst) = (r % n as u64, (r >> 32) % n as u64);
            Envelope::new(src as NodeId, dst as NodeId, i)
        })
        .collect();
    let recv = Capacity::default_for(n).recv;
    out.put(
        "model.router.sparse_ns_per_msg",
        replay(n, &sparse, recv),
        reps,
    );
    tr.exit(span);
}

/// Seed agreement exactly as the runner's `agree` sizes it.
fn agree(eng: &mut Engine, seed: u64) -> (SharedRandomness, ExecStats) {
    let n = eng.n();
    let k = SharedRandomness::k_for(n);
    let bits = SharedRandomness::bits_required(n, 2 * ilog2_ceil(n).max(1) as usize, k);
    broadcast_seed(eng, seed ^ 0x5eed, bits).expect("seed agreement")
}

/// Builds spec 0 of `workload` and checks the hand-run pipeline against
/// the record `Algorithm::run` gives, so the probe cannot drift from the
/// runner it imitates.
fn pipeline_cell(workload: &str, seed: u64) -> Cell {
    let w = find(workload).expect("workload");
    let mut off = Tracer::new(false);
    Cell::build(algorithm(w.algorithm), &w.spec(seed, 0), &mut off).expect("pipeline spec runs")
}

/// `butterfly.seed_ms`, `butterfly.agg_*`, `core.prep_*`, `core.bfs_*`,
/// `graph.check_bfs_ms`: the BFS pipeline of the runner, call by call.
pub fn bfs_pipeline(seed: u64, tr: &mut Tracer, out: &mut Metrics) {
    let span = tr.enter("probe.core.bfs");
    let mut cell = pipeline_cell("dag_bfs", seed);
    let (scn, eng): (&Scenario, &mut Engine) = (&cell.scn, &mut cell.eng);
    let src = scn.source();
    let reps = 3;
    let (mut prep_rounds, mut main_rounds) = (0, 0);
    for _ in 0..reps {
        eng.reset();
        let (shared, seed_stats) = tr.span("butterfly.seed", || agree(eng, scn.spec.seed));
        let (bt, trees) = tr
            .span("core.trees", || {
                ncc_core::build_broadcast_trees(eng, &shared, &scn.graph)
            })
            .expect("broadcast trees");
        let r = tr
            .span("core.bfs", || {
                ncc_core::bfs(eng, &shared, &bt, &scn.graph, src)
            })
            .expect("bfs");
        tr.span("graph.check_bfs", || {
            check::check_bfs(&scn.graph, src, &r.dist, &r.parent)
        })
        .expect("bfs output verifies");
        prep_rounds = seed_stats.rounds + trees.total.rounds;
        main_rounds = r.report.total.rounds;
    }
    assert_eq!(
        (Some(prep_rounds), Some(main_rounds)),
        (
            cell.record.metric("rounds_prep"),
            cell.record.metric("rounds_main")
        ),
        "the probe runs the runner's pipeline"
    );
    let med = |name: &str| median(&tr.durations_ms(name));
    let (seed_ms, trees_ms, bfs_ms) = (med("butterfly.seed"), med("core.trees"), med("core.bfs"));
    out.put("butterfly.seed_ms", seed_ms, reps);
    out.put("core.prep_ms", seed_ms + trees_ms, reps);
    out.put("core.bfs_main_ms", bfs_ms, reps);
    out.put("graph.check_bfs_ms", med("graph.check_bfs"), reps);
    out.put("core.prep_rounds", prep_rounds as f64, 1);
    out.put("core.main_rounds", main_rounds as f64, 1);
    out.put(
        "core.prep_share",
        100.0 * prep_rounds as f64 / (prep_rounds + main_rounds) as f64,
        1,
    );

    let n = eng.n();
    let reps = 5;
    let (agg_ms, agg) = timed_reps(reps, || {
        eng.reset();
        let inputs = (0..n as u64).map(|i| Some(splitmix64(i) >> 16)).collect();
        let (mins, stats) = aggregate_and_broadcast(eng, inputs, &MinU64).expect("aggregation");
        assert!(mins.iter().all(|m| *m == mins[0]));
        stats
    });
    out.put("butterfly.agg_us", median(&agg_ms) * 1e3, reps);
    out.put("butterfly.agg_rounds", agg.rounds as f64, 1);
    tr.exit(span);
}

/// `core.mst_*`, `butterfly.dag_*`, `graph.check_mst_ms`: the MST
/// pipeline of the runner, call by call.
pub fn mst_pipeline(seed: u64, tr: &mut Tracer, out: &mut Metrics) {
    let span = tr.enter("probe.core.mst");
    let mut cell = pipeline_cell("dag_mst", seed);
    let (scn, eng) = (&cell.scn, &mut cell.eng);
    let reps = 3;
    let mut last = None;
    for _ in 0..reps {
        eng.reset();
        let (shared, _) = tr.span("butterfly.seed.mst", || agree(eng, scn.spec.seed));
        let r = tr
            .span("core.mst", || ncc_core::mst(eng, &shared, scn.weighted()))
            .expect("mst");
        tr.span("graph.check_mst", || {
            check::check_mst(scn.weighted(), &r.edges)
        })
        .expect("mst output verifies");
        last = Some(r);
    }
    let r = last.expect("at least one rep");
    let findmin: u64 = r
        .report
        .stages
        .iter()
        .filter(|(label, _)| label.contains(":find"))
        .map(|(_, s)| s.rounds)
        .sum();
    assert_eq!(
        (Some(findmin), Some(r.plan.stages.len() as u64)),
        (
            cell.record.metric("rounds_findmin"),
            cell.record.metric("dag_stages")
        ),
        "the probe runs the runner's pipeline"
    );
    let mst_ms = median(&tr.durations_ms("core.mst"));
    out.put("core.mst_ms", mst_ms, reps);
    out.put("core.mst_findmin_rounds", findmin as f64, 1);
    out.put(
        "graph.check_mst_ms",
        median(&tr.durations_ms("graph.check_mst")),
        reps,
    );
    let stages = r.plan.stages.len();
    out.put("butterfly.dag_stages", stages as f64, 1);
    out.put("butterfly.dag_lane_stages", r.plan.lane_stages() as f64, 1);
    out.put("butterfly.dag_splits", r.plan.splits() as f64, 1);
    out.put("butterfly.us_per_stage", mst_ms * 1e3 / stages as f64, reps);
    tr.exit(span);
}

/// `serve.*`: the serve path layer by layer on `serve_warm`'s specs —
/// parse, cache, `handle_line` in process, then the same requests over
/// TCP. Returns the counters the TCP leg's server accrued.
pub fn serve(seed: u64, tr: &mut Tracer, out: &mut Metrics) -> ServeStats {
    let span = tr.enter("probe.serve");
    let w = find("serve_warm").expect("workload");
    let specs = w.pool_specs(seed, 4);
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            request_line(&Request::Run {
                id: i as u64,
                algorithm: w.algorithm.to_string(),
                spec: spec.clone(),
            })
        })
        .collect();

    let reps = 200;
    let (parse_ms, parsed) = timed_reps(reps, || parse_request(lines[0].trim_end()));
    parsed.expect("request parses");
    out.put("serve.parse_us", median(&parse_ms) * 1e3, reps);

    let cache = BuildCache::new(specs.len());
    let miss_ms: Vec<f64> = specs
        .iter()
        .map(|spec| {
            let t = Instant::now();
            let (_, hit) = cache.get_or_build(spec).expect("spec builds");
            assert!(!hit);
            ms_since(t)
        })
        .collect();
    out.put("serve.cache_miss_ms", median(&miss_ms), miss_ms.len());
    let (hit_ms, looked_up) = timed_reps(reps, || cache.get_or_build(&specs[0]));
    assert!(looked_up.expect("resident spec").1);
    out.put("serve.cache_hit_us", median(&hit_ms) * 1e3, reps);

    // The same runs twice: directly (reset + run on a resident engine,
    // no serve layer at all) and through the coordinator's `handle_line`
    // in process. Taken in turns, so that host drift cancels in the
    // difference.
    let algo = algorithm(w.algorithm);
    let mut off = Tracer::new(false);
    let mut cells: Vec<Cell> = specs
        .iter()
        .map(|spec| Cell::build(algo, spec, &mut off).expect("spec runs"))
        .collect();
    let cfg = ServeConfig::with_thread_budget(1).with_cache_capacity(16);
    let coordinator = Coordinator::new(cfg);
    let mut slots = EngineSlots::new(16);
    for line in &lines {
        coordinator.handle_line(line, &mut slots).expect("answered");
    }
    let rounds = 3;
    let (mut handle_ms, mut extra_ms) = (Vec::new(), Vec::new());
    let mut response = None;
    for _ in 0..rounds {
        for (cell, line) in cells.iter_mut().zip(&lines) {
            let t = Instant::now();
            cell.eng.reset();
            let rec = algo.run(&mut cell.eng, &cell.scn).expect("direct run");
            let direct = ms_since(t);
            assert_eq!(rec.to_json(), cell.reference);
            let t = Instant::now();
            response = coordinator.handle_line(line, &mut slots);
            handle_ms.push(ms_since(t));
            extra_ms.push(handle_ms[handle_ms.len() - 1] - direct);
        }
    }
    let response = response.expect("answered");
    let handle = median(&handle_ms);
    out.put("serve.handle_ms", handle, handle_ms.len());
    out.put("serve.overhead_us", median(&extra_ms) * 1e3, extra_ms.len());
    let (to_line_ms, line) = timed_reps(reps, || response.to_line());
    out.put("serve.to_line_us", median(&to_line_ms) * 1e3, reps);
    out.put("serve.response_bytes", line.len() as f64 + 1.0, 1);

    // wire: what TCP, the queue hop and the socket writes add on top
    let mut session = Serve::setup(w, seed, specs.len(), &mut off).expect("probe server");
    let mut tcp_ms = Vec::new();
    let mut served = ServeStats::default();
    for _ in 0..rounds {
        let batch = session.timed(0.0, &mut off);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        tcp_ms.extend(batch.ops.iter().map(|o| o.ms));
        served = batch.served.expect("server stats");
    }
    session.shutdown();
    out.put("serve.wire_ms", median(&tcp_ms) - handle, tcp_ms.len());
    tr.exit(span);
    served
}
