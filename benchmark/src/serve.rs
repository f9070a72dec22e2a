//! The serve workload: an `ncc-serve` in this process behind a loopback
//! TCP socket, one worker, one closed-loop client.
//!
//! The client is well-behaved on purpose. A request goes out as **one**
//! `write_all` on a socket with `TCP_NODELAY` set; `writeln!` on a raw
//! `TcpStream` is two writes, and with Nagle on the second waits for a
//! delayed ACK, which would measure the load generator. What stall is
//! left on the wire is the server's own and stays measured.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use ncc_runner::{run_record, RunRecord, ScenarioSpec};
use ncc_serve::{Request, Response, ServeConfig, ServeStats, Server};

use crate::harness::{algorithm, record_faults, sample, Batch, Session};
use crate::rss::peak_rss_mb;
use crate::trace::Tracer;
use crate::workloads::{splitmix64, Kind, Workload};

/// The wire form of a request: one line, newline included.
pub fn request_line(req: &Request) -> String {
    let mut line = serde_json::to_string(req).expect("request serializes");
    line.push('\n');
    line
}

/// Sends one request line with a single write call.
pub fn send_line<W: Write>(out: &mut W, line: &str) -> io::Result<()> {
    debug_assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
    out.write_all(line.as_bytes())
}

pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// One closed-loop exchange: a single write, a single `read_line`.
    pub fn exchange(&mut self, line: &str) -> io::Result<String> {
        send_line(&mut self.stream, line)?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(resp)
    }

    pub fn stats(&mut self) -> Result<ServeStats, String> {
        let line = request_line(&Request::Stats { id: u64::MAX });
        match self.exchange(&line).map(|l| Response::from_line(&l)) {
            Ok(Ok(Response::Stats { stats, .. })) => Ok(stats),
            other => Err(format!("stats request: {other:?}")),
        }
    }
}

/// The kernel's timer tick. The server's response stalls until a
/// delayed-ACK timer fires (see README, "First finding"), which it does on
/// a tick; a client that sends the moment the last answer arrived starts
/// every request in phase with the tick, and its latencies come in steps
/// of one tick — 4 % of a warm request. So the client thinks for a
/// seed-drawn part of a tick before each timed request.
const TICK_S: f64 = 0.004;

/// Busy-waits: a sleep would itself end on a tick.
fn spin(seconds: f64) {
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds {
        std::hint::spin_loop();
    }
}

/// A request that was answered, kept for checking after the loop.
struct Exchange {
    spec: ScenarioSpec,
    /// Pool index.
    index: usize,
    ms: f64,
    response: String,
}

pub struct Serve {
    workload: Workload,
    seed: u64,
    server: Server,
    client: Client,
    pool: Vec<ScenarioSpec>,
    requests: u64,
    /// `run_record(..).to_json()` of each pool spec, computed on first use.
    references: Vec<Option<String>>,
}

fn delta(after: ServeStats, before: ServeStats) -> ServeStats {
    let mut d = after;
    d.cache.hits -= before.cache.hits;
    d.cache.misses -= before.cache.misses;
    d.cache.evictions -= before.cache.evictions;
    d.served -= before.served;
    d.errors -= before.errors;
    d.engine_reuses -= before.engine_reuses;
    d
}

impl Serve {
    /// Starts the server, connects, and sends the warm-up requests:
    /// `warmups` per pool spec, the first of them the spec's cache miss.
    pub fn setup(w: &Workload, seed: u64, pool: usize, tr: &mut Tracer) -> Result<Serve, String> {
        let Kind::Serve { cache_capacity } = w.kind else {
            panic!("{} is not a serve workload", w.name);
        };
        let cfg = ServeConfig::with_thread_budget(1).with_cache_capacity(cache_capacity);
        let server = tr
            .span("serve.spawn", || Server::spawn(cfg, "127.0.0.1:0"))
            .map_err(|e| format!("spawn server: {e}"))?;
        let client = tr
            .span("serve.connect", || Client::connect(server.addr()))
            .map_err(|e| format!("connect: {e}"))?;
        let mut s = Serve {
            workload: *w,
            seed,
            server,
            client,
            pool: w.pool_specs(seed, pool),
            requests: 0,
            references: (0..pool).map(|_| None).collect(),
        };
        let mut warm = Vec::with_capacity(pool * w.warmups);
        for i in 0..pool * w.warmups {
            warm.push(s.request(i, tr).map_err(|e| format!("warm-up: {e}"))?);
        }
        // Warm-ups are checked like ops, but a bad one is fatal.
        for x in &warm {
            let fault = match parse_record(x) {
                Ok((rec, _)) => record_faults(&rec, &x.spec),
                Err(e) => Some(e),
            };
            if let Some(fault) = fault {
                return Err(format!("warm-up {}: {fault}", x.spec.label()));
            }
        }
        Ok(s)
    }

    /// Sends request number `i` of a loop and waits for its answer.
    fn request(&mut self, i: usize, tr: &mut Tracer) -> Result<Exchange, String> {
        let index = i % self.pool.len();
        let spec = self.pool[index].clone();
        self.requests += 1;
        let line = request_line(&Request::Run {
            id: self.requests,
            algorithm: self.workload.algorithm.to_string(),
            spec: spec.clone(),
        });
        let start = Instant::now();
        let response = tr
            .span("serve.request", || self.client.exchange(&line))
            .map_err(|e| format!("{}: {e}", spec.label()))?;
        Ok(Exchange {
            spec,
            index,
            ms: start.elapsed().as_secs_f64() * 1e3,
            response,
        })
    }

    /// What `ncc_runner::run_record` gives for the spec of `x`, as JSON.
    fn reference(&mut self, x: &Exchange) -> Result<String, String> {
        if self.references[x.index].is_none() {
            let rec = run_record(algorithm(self.workload.algorithm), &x.spec)
                .map_err(|e| format!("reference run: {e}"))?;
            self.references[x.index] = Some(rec.to_json());
        }
        Ok(self.references[x.index].clone().expect("just computed"))
    }

    /// Asks the server to stop, and waits until its threads have ended.
    pub fn shutdown(self) {
        let Serve {
            server, mut client, ..
        } = self;
        let _ = client.exchange(&request_line(&Request::Shutdown { id: 0 }));
        drop(client);
        server.shutdown_and_join();
    }
}

fn parse_record(x: &Exchange) -> Result<(RunRecord, bool), String> {
    match Response::from_line(x.response.trim_end()) {
        Ok(Response::Record {
            record, cache_hit, ..
        }) => Ok((record, cache_hit)),
        Ok(other) => Err(format!("expected a record, got {other:?}")),
        Err(e) => Err(format!("unparseable response: {e}")),
    }
}

impl Session for Serve {
    fn close(self: Box<Self>) {
        self.shutdown();
    }

    fn timed(&mut self, seconds: f64, tr: &mut Tracer) -> Batch {
        let visits = self.pool.len();
        let stats_before = self.client.stats();
        let mut exchanges = Vec::new();
        let mut failures = Vec::new();
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed().as_secs_f64() < seconds || i < visits {
            let think = splitmix64(self.seed ^ self.requests) as f64 / u64::MAX as f64;
            spin(think * TICK_S);
            tr.set_op(i as u64 + 1);
            let span = tr.enter("op");
            match self.request(i, tr) {
                Ok(x) => exchanges.push(x),
                Err(e) => failures.push(e),
            }
            tr.exit(span);
            i += 1;
        }
        tr.set_op(0);
        let peak_rss_mb = peak_rss_mb();
        let stats_after = self.client.stats();
        let served = match (stats_before, stats_after) {
            (Ok(b), Ok(a)) => Some(delta(a, b)),
            (b, a) => {
                failures.extend(b.err().into_iter().chain(a.err()));
                None
            }
        };

        // After the loop: every response is checked, against the spec's
        // reference record where one is computed.
        let mut ops = Vec::with_capacity(exchanges.len());
        for x in &exchanges {
            let (rec, cache_hit) = match tr.span("client.parse", || parse_record(x)) {
                Ok(parsed) => parsed,
                Err(e) => {
                    failures.push(format!("{}: {e}", x.spec.label()));
                    continue;
                }
            };
            let fault = record_faults(&rec, &x.spec)
                .or_else(|| (!cache_hit).then(|| "not a cache hit".to_string()))
                .or_else(|| match self.reference(x) {
                    Ok(want) if want == rec.to_json() => None,
                    Ok(_) => Some("record differs from ncc_runner::run_record".into()),
                    Err(e) => Some(e),
                });
            failures.extend(fault.map(|f| format!("{}: {f}", x.spec.label())));
            ops.push(sample(x.index, x.ms, &rec));
        }
        if let Some(d) = &served {
            if (d.cache.hits, d.cache.misses) != (exchanges.len() as u64, 0) || d.errors != 0 {
                failures.push(format!(
                    "server counted {} hits, {} misses, {} errors over {} requests",
                    d.cache.hits,
                    d.cache.misses,
                    d.errors,
                    exchanges.len()
                ));
            }
        }
        Batch {
            attempted: i as u64,
            ops,
            failures,
            peak_rss_mb,
            served,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the size of every `write` call it receives.
    #[derive(Default)]
    struct WriteLog {
        calls: Vec<usize>,
        bytes: Vec<u8>,
    }

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_line_reaches_the_socket_in_a_single_write() {
        let w = crate::workloads::find("serve_warm").unwrap();
        let line = request_line(&Request::Run {
            id: 9,
            algorithm: "bfs".into(),
            spec: w.spec(7, 0),
        });
        let mut log = WriteLog::default();
        send_line(&mut log, &line).unwrap();
        assert_eq!(log.calls, vec![line.len()], "one write, the whole line");
        assert_eq!(log.bytes.last(), Some(&b'\n'));
        assert_eq!(log.bytes.iter().filter(|b| **b == b'\n').count(), 1);
        // and the two-write shape this client avoids
        let mut log = WriteLog::default();
        writeln!(log, "{}", line.trim_end()).unwrap();
        assert!(
            log.calls.len() > 1,
            "writeln! splits the line from its newline"
        );
    }

    fn small(name: &str, n: usize, pool: usize) -> Workload {
        let mut w = *crate::workloads::find(name).unwrap();
        w.n = n;
        w.pool = pool;
        w
    }

    #[test]
    fn warm_stream_hits_every_time_and_a_miss_is_a_failed_op() {
        let mut tr = Tracer::new(false);
        let w = small("serve_warm", 32, 3);
        let mut s = Serve::setup(&w, 7, w.pool, &mut tr).unwrap();
        let batch = s.timed(0.0, &mut tr);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert_eq!(batch.ops.len(), 3);
        let d = batch.served.unwrap();
        assert_eq!((d.cache.hits, d.cache.misses, d.engine_reuses), (3, 0, 3));
        assert!(s.references.iter().all(Option::is_some));
        s.shutdown();

        // a cache too small for the pool evicts, and every miss fails
        let mut w = small("serve_warm", 32, 3);
        w.kind = Kind::Serve { cache_capacity: 2 };
        let mut s = Serve::setup(&w, 7, w.pool, &mut tr).unwrap();
        let batch = s.timed(0.0, &mut tr);
        assert!(batch.failures.iter().any(|f| f.contains("not a cache hit")));
        assert!(batch.failures.iter().any(|f| f.contains("misses")));
        Box::new(s).close();
    }
}
