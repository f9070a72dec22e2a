//! exp21 — serve-layer load: sustained scenarios/sec through `ncc-serve`.
//!
//! Spawns the resident coordinator in process (8 workers, TCP front on an
//! ephemeral local port), then drives it with 8 concurrent closed-loop
//! clients over a fixed spec mix — verified algorithms (mst, bfs, mis,
//! coloring, matching, orientation) across four graph families. Reports
//! sustained throughput and per-request latency percentiles, checks every
//! record against its peers (same spec ⇒ byte-identical record, whichever
//! worker and whichever cache state served it), and snapshots the result
//! as `BENCH_serve.json`.
//!
//! Unlike every other `BENCH_*.json`, this snapshot carries wall-clock
//! numbers, so its top level sets `"wall_clock": true` and `bench_compare`
//! reports it without gating (timing depends on the machine; the verdicts
//! inside are still checked).
//!
//! ```text
//! exp21_serve_load [--smoke] [--json BENCH_serve.json]
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ncc_bench::{cli, f2, write_json, Table, SEED};
use ncc_runner::{FamilySpec, RunRecord, ScenarioSpec};
use ncc_serve::{Request, Response, ServeConfig, ServeStats, Server};
use serde::Serialize;

const CLIENTS: usize = 8;

/// The spec mix: verified algorithms across structurally distinct
/// families. Every client walks the same mix, so each entry is requested
/// `CLIENTS × per_client / mix.len()` times — the cache sees heavy reuse.
fn spec_mix(n: usize) -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        (
            "mst",
            ScenarioSpec::new(FamilySpec::Gnp { p: 16.0 / n as f64 }, n, SEED),
        ),
        (
            "bfs",
            ScenarioSpec::new(FamilySpec::Forests { k: 3 }, n, SEED + 1),
        ),
        ("mis", ScenarioSpec::new(FamilySpec::Tree, n, SEED + 2)),
        (
            "coloring",
            ScenarioSpec::new(FamilySpec::Ba { m: 3 }, n, SEED + 3),
        ),
        (
            "matching",
            ScenarioSpec::new(FamilySpec::Gnp { p: 12.0 / n as f64 }, n, SEED + 4),
        ),
        (
            "orientation",
            ScenarioSpec::new(FamilySpec::Forests { k: 2 }, n, SEED + 5),
        ),
    ]
}

/// One served response a client observed: which mix entry, the record, and
/// the request latency.
struct Observation {
    mix_idx: usize,
    record: RunRecord,
    cache_hit: bool,
    latency_us: u64,
}

/// Closed-loop client: one request in flight at a time; concurrency comes
/// from running `CLIENTS` of these against the pool simultaneously.
fn client(
    addr: std::net::SocketAddr,
    mix: &[(&'static str, ScenarioSpec)],
    per_client: usize,
    client_id: usize,
    barrier: &Barrier,
) -> Vec<Observation> {
    let mut stream = TcpStream::connect(addr).expect("connect to ncc-serve");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut observations = Vec::with_capacity(per_client);
    barrier.wait(); // release all clients at once
    for i in 0..per_client {
        // stagger the walk so clients hit different mix entries at once
        let mix_idx = (client_id + i) % mix.len();
        let (algorithm, spec) = &mix[mix_idx];
        let line = serde_json::to_string(&Request::Run {
            id: (client_id * 100_000 + i) as u64,
            algorithm: (*algorithm).into(),
            spec: spec.clone(),
        })
        .expect("request serializes");
        let start = Instant::now();
        writeln!(stream, "{line}").expect("send request");
        stream.flush().expect("flush request");
        let mut resp_line = String::new();
        reader.read_line(&mut resp_line).expect("read response");
        let latency_us = start.elapsed().as_micros() as u64;
        match Response::from_line(&resp_line).expect("parse response") {
            Response::Record {
                record, cache_hit, ..
            } => {
                assert!(
                    record.verdict.ok(),
                    "client {client_id}: {algorithm} verdict {:?}",
                    record.verdict
                );
                observations.push(Observation {
                    mix_idx,
                    record,
                    cache_hit,
                    latency_us,
                });
            }
            other => panic!("client {client_id}: expected record, got {other:?}"),
        }
    }
    observations
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1000.0
}

/// Headline latency numbers, in milliseconds.
#[derive(Serialize)]
struct LatencyMs {
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
}

/// The `BENCH_serve.json` schema. `wall_clock: true` is the marker
/// `bench_compare` keys its report-only mode on.
#[derive(Serialize)]
struct ServeBench {
    experiment: String,
    seed: u64,
    wall_clock: bool,
    clients: usize,
    requests: usize,
    n: usize,
    scenarios_per_sec: f64,
    latency_ms: LatencyMs,
    serve_stats: ServeStats,
    /// One canonical record per mix entry (all clients observed these
    /// exact bytes; deterministic, unlike the timing above).
    records: Vec<RunRecord>,
}

const USAGE: &str = "usage: exp21_serve_load [--smoke] [--json <path>]";

fn main() {
    let cli = cli(USAGE, &["smoke", "json"]);
    let (n, per_client) = if cli.smoke { (32, 6) } else { (64, 12) };
    let mix = spec_mix(n);

    let cfg = ServeConfig::with_thread_budget(CLIENTS).with_cache_capacity(16);
    let server = Server::spawn(cfg, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();
    println!(
        "exp21: {CLIENTS} clients x {per_client} requests over {} specs (n={n}) \
         against {addr} ({} workers)",
        mix.len(),
        cfg.workers
    );

    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let mix = mix.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            client(addr, &mix, per_client, c, &barrier)
        }));
    }
    barrier.wait();
    let load_start = Instant::now();
    let observations: Vec<Observation> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = load_start.elapsed();

    // Byte-identity across the fleet: every observation of a mix entry
    // must carry the exact record bytes, whichever worker / cache state
    // served it.
    let mut canonical: Vec<Option<RunRecord>> = vec![None; mix.len()];
    for obs in &observations {
        let json = obs.record.to_json();
        match &canonical[obs.mix_idx] {
            Some(first) => assert_eq!(
                first.to_json(),
                json,
                "record for {} diverged across requests",
                mix[obs.mix_idx].1.label()
            ),
            None => canonical[obs.mix_idx] = Some(obs.record.clone()),
        }
    }
    let records: Vec<RunRecord> = canonical.into_iter().map(|r| r.expect("served")).collect();

    let total = observations.len();
    let hits = observations.iter().filter(|o| o.cache_hit).count();
    let mut latencies: Vec<u64> = observations.iter().map(|o| o.latency_us).collect();
    latencies.sort_unstable();
    let scenarios_per_sec = total as f64 / elapsed.as_secs_f64();
    let latency = LatencyMs {
        p50: percentile(&latencies, 50.0),
        p90: percentile(&latencies, 90.0),
        p99: percentile(&latencies, 99.0),
        max: percentile(&latencies, 100.0),
    };

    let mut table = Table::new(&["algorithm", "scenario", "rounds", "verdict"]);
    for (i, rec) in records.iter().enumerate() {
        table.row(vec![
            rec.algorithm.clone(),
            mix[i].1.label(),
            rec.rounds.to_string(),
            format!("{:?}", rec.verdict),
        ]);
    }
    table.print();

    let serve_stats = server.coordinator().stats();
    println!(
        "\nthroughput: {total} scenarios in {:.2}s = {} scenarios/sec \
         ({hits} cache hits, {} engine reuses)",
        elapsed.as_secs_f64(),
        f2(scenarios_per_sec),
        serve_stats.engine_reuses
    );
    println!(
        "latency ms: p50={} p90={} p99={} max={}",
        f2(latency.p50),
        f2(latency.p90),
        f2(latency.p99),
        f2(latency.max)
    );
    println!(
        "cache: {} entries, {} hits / {} misses, {} evictions",
        serve_stats.cache.entries,
        serve_stats.cache.hits,
        serve_stats.cache.misses,
        serve_stats.cache.evictions
    );
    assert!(
        serve_stats.cache.hits > 0,
        "a repeated mix must hit the cache"
    );
    assert_eq!(serve_stats.errors, 0, "load mix must serve cleanly");

    server.shutdown_and_join();

    if let Some(path) = cli.json {
        let bench = ServeBench {
            experiment: "exp21_serve_load".into(),
            seed: SEED,
            wall_clock: true,
            clients: CLIENTS,
            requests: total,
            n,
            scenarios_per_sec,
            latency_ms: latency,
            serve_stats,
            records,
        };
        write_json(&path, &bench);
    }
}
