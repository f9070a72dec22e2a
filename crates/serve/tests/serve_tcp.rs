//! End-to-end daemon test over the TCP front: 8 concurrent clients fire
//! simultaneously (a barrier releases them together, so at least 8
//! requests are in flight at once against an 8-worker pool), every request
//! gets its typed response, records for the same `(algorithm, spec)` are
//! byte-identical across clients regardless of which worker served them,
//! and the coordinator's counters add up. A second test pins the wire
//! discipline of a response: one newline-terminated write per response.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex};

use ncc_runner::{FamilySpec, ScenarioSpec, Verdict};
use ncc_serve::{
    Coordinator, Job, Request, Response, ResponseSink, ServeConfig, Server, WorkerPool,
};

fn send_line(stream: &mut TcpStream, line: &str) {
    writeln!(stream, "{line}").unwrap();
    stream.flush().unwrap();
}

fn run_line(id: u64, algorithm: &str, spec: &ScenarioSpec) -> String {
    serde_json::to_string(&Request::Run {
        id,
        algorithm: algorithm.into(),
        spec: spec.clone(),
    })
    .unwrap()
}

#[test]
fn eight_concurrent_clients_get_identical_verified_records() {
    const CLIENTS: usize = 8;
    let cfg = ServeConfig::with_thread_budget(CLIENTS).with_cache_capacity(8);
    let server = Server::spawn(cfg, "127.0.0.1:0").expect("bind ephemeral port");
    let addr = server.addr();

    // Every client runs the same shared spec (exercising the cache under
    // contention) plus one client-specific spec (exercising misses).
    let shared = ScenarioSpec::new(FamilySpec::Gnp { p: 0.3 }, 32, 11);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        let shared = shared.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let own = ScenarioSpec::new(FamilySpec::Tree, 24, 100 + c as u64);
            barrier.wait(); // release all clients at once: ≥8 in flight
            send_line(&mut stream, &run_line(1, "mst", &shared));
            send_line(&mut stream, &run_line(2, "bfs", &own));
            let mut shared_json = None;
            let mut own_ok = false;
            let reader = BufReader::new(stream.try_clone().unwrap());
            for line in reader.lines().take(2) {
                let resp = Response::from_line(&line.unwrap()).unwrap();
                match resp {
                    Response::Record {
                        id,
                        record,
                        cache_hit,
                        spec_hash,
                    } => {
                        assert!(!spec_hash.is_empty());
                        match id {
                            1 => {
                                assert_eq!(record.verdict, Verdict::Verified);
                                // hit or miss depends on scheduling; the
                                // record must not depend on it either way
                                let _ = cache_hit;
                                shared_json = Some(record.to_json());
                            }
                            2 => {
                                assert_eq!(record.verdict, Verdict::Verified);
                                own_ok = true;
                            }
                            other => panic!("unexpected id {other}"),
                        }
                    }
                    other => panic!("expected record, got {other:?}"),
                }
            }
            assert!(own_ok, "client {c} never saw its own record");
            shared_json.expect("client never saw the shared record")
        }));
    }
    let records: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(records.len(), CLIENTS);
    for r in &records[1..] {
        assert_eq!(
            r, &records[0],
            "same spec must serve byte-identical records on every worker"
        );
    }

    // Counters: 2 requests per client served, the shared spec built at
    // most a few times (racing cold misses), then all hits.
    let stats = server.coordinator().stats();
    assert_eq!(stats.served, 2 * CLIENTS as u64);
    assert_eq!(stats.errors, 0);
    assert!(stats.cache.hits + stats.cache.misses >= 2 * CLIENTS as u64);
    assert!(
        stats.cache.hits > 0,
        "shared spec must hit the cache under contention: {stats:?}"
    );

    // Malformed input over the wire gets a typed error, not a hangup.
    let mut stream = TcpStream::connect(addr).unwrap();
    send_line(&mut stream, "definitely not json");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::from_line(&line).unwrap() {
        Response::Error { id, error } => {
            assert_eq!(id, None);
            assert!(error.contains("malformed"), "{error}");
        }
        other => panic!("expected error, got {other:?}"),
    }

    // A spec the algorithm is not defined on (every graph algorithm needs
    // n ≥ 2) costs one typed error carrying the request id — the worker
    // lives on and serves the next request on the same connection.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let lone = ScenarioSpec::new(FamilySpec::Path, 1, 3);
    send_line(&mut stream, &run_line(60, "bfs", &lone));
    send_line(&mut stream, &run_line(61, "bfs", &shared));
    for want in [60, 61] {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("a reply, not a dead worker");
        match (want, Response::from_line(&line).unwrap()) {
            (60, Response::Error { id, error }) => {
                assert_eq!(id, Some(60));
                assert!(error.contains("`bfs` needs n ≥ 2"), "{error}");
            }
            (61, Response::Record { id, record, .. }) => {
                assert_eq!(id, 61);
                assert_eq!(record.verdict, Verdict::Verified);
            }
            (_, other) => panic!("request {want}: unexpected {other:?}"),
        }
    }

    // Stats and shutdown over the wire.
    send_line(
        &mut stream,
        &serde_json::to_string(&Request::Stats { id: 50 }).unwrap(),
    );
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Response::from_line(&line).unwrap() {
        Response::Stats { id, stats } => {
            assert_eq!(id, 50);
            assert_eq!(stats.workers, CLIENTS as u64);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    send_line(
        &mut stream,
        &serde_json::to_string(&Request::Shutdown { id: 51 }).unwrap(),
    );
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(matches!(
        Response::from_line(&line).unwrap(),
        Response::Shutdown { id: 51 }
    ));
    server.shutdown_and_join();
}

/// A response sink that records every `write` call it receives.
struct CountingSink(Arc<Mutex<Vec<Vec<u8>>>>);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// On a raw `TcpStream` every `write` is a segment, and a response split
/// into "line" + "\n" stalls on the client's delayed ACK. Timing-free
/// form of that bug: the worker hands each response to its sink — the
/// record of a run and the error of a malformed line alike — as exactly
/// one newline-terminated write.
#[test]
fn a_response_reaches_its_sink_in_one_write() {
    let coordinator = Arc::new(Coordinator::new(ServeConfig::default().with_workers(1)));
    let pool = WorkerPool::spawn(Arc::clone(&coordinator));
    let writes = Arc::new(Mutex::new(Vec::new()));
    let out: ResponseSink = Arc::new(Mutex::new(Box::new(CountingSink(Arc::clone(&writes)))));
    let spec = ScenarioSpec::new(FamilySpec::Tree, 24, 3);
    for line in [run_line(1, "bfs", &spec), "definitely not json".into()] {
        assert!(pool.submit(Job {
            line,
            out: Arc::clone(&out),
        }));
    }
    pool.join(); // drains the queue: both responses are written

    let writes = writes.lock().unwrap();
    let responses: Vec<Response> = writes
        .iter()
        .map(|w| {
            let text = std::str::from_utf8(w).expect("utf-8 response");
            let line = text.strip_suffix('\n').expect("newline-terminated");
            Response::from_line(line).expect("a whole response, and only it, per write")
        })
        .collect();
    assert!(
        matches!(
            responses[..],
            [
                Response::Record { id: 1, .. },
                Response::Error { id: None, .. }
            ]
        ),
        "one write per response, in queue order: {responses:?}"
    );
}
