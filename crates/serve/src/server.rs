//! The coordinator: request execution, worker-local engine residency, the
//! bounded worker pool, and the stdio / TCP fronts.
//!
//! One [`Coordinator`] owns the shared state (build cache, counters,
//! shutdown flag); N worker threads pull request lines off one bounded
//! queue and execute them against the coordinator. Each worker keeps its
//! own [`EngineSlots`] — resident engines it restores with
//! [`Engine::reset`] between runs of the same spec — because engines are
//! deliberately *not* shared across threads: residency is per worker, and
//! the byte-identity contract (a served record equals a cold batch run's
//! record, for any worker count) is what makes that residency safe to use
//! at all.
//!
//! Every worker runs its engines on one thread:
//! [`ServeConfig::with_thread_budget`] turns a thread budget into that many
//! workers — the serving workload is many small scenarios, not one large
//! one. A spec's own `threads` reaches graph generation only, capped at
//! the machine's cores.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ncc_model::Engine;
use ncc_runner::{
    canonical_spec_json, find_algorithm, run_checked, spec_hash, suggest_algorithm, Scenario,
    ScenarioSpec,
};

use crate::cache::BuildCache;
use crate::protocol::{parse_request, Request, Response, ServeStats};

/// Shape of a serving daemon: worker count, build-cache capacity and queue
/// depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads pulling requests off the queue (concurrent in-flight
    /// requests).
    pub workers: usize,
    /// Build-cache capacity (resident scenario artifacts).
    pub cache_capacity: usize,
    /// Bounded job-queue depth; enqueueing past it blocks the fronts
    /// (backpressure instead of unbounded memory).
    pub queue_depth: usize,
}

impl ServeConfig {
    /// Spends a global thread budget on request concurrency: every
    /// budgeted thread becomes a worker, and each worker runs its engines
    /// on one thread. A serving workload is many small independent
    /// scenarios; parallelism across requests beats parallelism inside one.
    pub fn with_thread_budget(budget: usize) -> Self {
        let workers = budget.max(1);
        ServeConfig {
            workers,
            cache_capacity: 64,
            queue_depth: 4 * workers,
        }
    }

    pub fn with_workers(mut self, w: usize) -> Self {
        self.workers = w.max(1);
        self.queue_depth = self.queue_depth.max(4 * self.workers);
        self
    }

    pub fn with_cache_capacity(mut self, c: usize) -> Self {
        self.cache_capacity = c.max(1);
        self
    }
}

impl Default for ServeConfig {
    /// One worker per available core, sequential engines.
    fn default() -> Self {
        let budget = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        Self::with_thread_budget(budget)
    }
}

/// Per-worker engine residency: engines keyed by spec hash, restored with
/// [`Engine::reset`] on reuse, LRU-evicted past `cap`. Never shared across
/// threads — each worker owns its slots outright.
pub struct EngineSlots {
    slots: HashMap<u64, Slot>,
    tick: u64,
    cap: usize,
}

struct Slot {
    /// Collision guard, same discipline as the build cache: the canonical
    /// spec JSON the engine was built for.
    canonical: String,
    engine: Engine,
    last_used: u64,
}

impl EngineSlots {
    pub fn new(cap: usize) -> Self {
        EngineSlots {
            slots: HashMap::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// Removes and returns the resident engine for `(hash, canonical)`, if
    /// any. The caller runs it and hands it back with [`Self::put`].
    fn take(&mut self, hash: u64, canonical: &str) -> Option<Engine> {
        match self.slots.get(&hash) {
            Some(s) if s.canonical == canonical => {
                Some(self.slots.remove(&hash).expect("slot present").engine)
            }
            _ => None,
        }
    }

    /// Parks an engine for later reuse, evicting the least recently used
    /// slot when full.
    fn put(&mut self, hash: u64, canonical: String, engine: Engine) {
        self.tick += 1;
        let tick = self.tick;
        if !self.slots.contains_key(&hash) && self.slots.len() >= self.cap {
            if let Some(&lru) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k)
            {
                self.slots.remove(&lru);
            }
        }
        self.slots.insert(
            hash,
            Slot {
                canonical,
                engine,
                last_used: tick,
            },
        );
    }

    /// Resident engine count (test hook).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The shared daemon state: cache, counters, shutdown flag. One per
/// server; workers and fronts hold it behind an [`Arc`].
pub struct Coordinator {
    cfg: ServeConfig,
    cache: BuildCache,
    served: AtomicU64,
    errors: AtomicU64,
    engine_reuses: AtomicU64,
    shutdown: AtomicBool,
}

impl Coordinator {
    pub fn new(cfg: ServeConfig) -> Self {
        Coordinator {
            cfg,
            cache: BuildCache::new(cfg.cache_capacity),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            engine_reuses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn cache(&self) -> &BuildCache {
        &self.cache
    }

    /// Whether a shutdown request has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown out of band (fronts use this on fatal IO errors).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            cache: self.cache.stats(),
            served: self.served.load(Ordering::SeqCst),
            errors: self.errors.load(Ordering::SeqCst),
            workers: self.cfg.workers as u64,
            engine_reuses: self.engine_reuses.load(Ordering::SeqCst),
        }
    }

    /// Parses and executes one wire line. `None` for blank lines (ignored,
    /// no response). Counter updates happen here, so every front and test
    /// that goes through this path is counted.
    pub fn handle_line(&self, line: &str, slots: &mut EngineSlots) -> Option<Response> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let resp = match parse_request(line) {
            Ok(req) => self.handle_request(req, slots),
            Err(e) => Response::Error { id: None, error: e },
        };
        match &resp {
            Response::Record { .. } => {
                self.served.fetch_add(1, Ordering::SeqCst);
            }
            Response::Error { .. } => {
                self.errors.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
        Some(resp)
    }

    /// Executes one parsed request.
    pub fn handle_request(&self, req: Request, slots: &mut EngineSlots) -> Response {
        match req {
            Request::Run {
                id,
                algorithm,
                spec,
            } => self.execute(id, &algorithm, &spec, slots),
            Request::Stats { id } => Response::Stats {
                id,
                stats: self.stats(),
            },
            Request::Shutdown { id } => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::Shutdown { id }
            }
        }
    }

    /// One run: registry lookup → cached scenario build → resident (or
    /// fresh) engine → algorithm pipeline → typed record.
    fn execute(
        &self,
        id: u64,
        algorithm: &str,
        spec: &ScenarioSpec,
        slots: &mut EngineSlots,
    ) -> Response {
        let Some(algo) = find_algorithm(algorithm) else {
            let hint = suggest_algorithm(algorithm)
                .map(|s| format!("; did you mean `{s}`?"))
                .unwrap_or_default();
            return Response::Error {
                id: Some(id),
                error: format!("unknown algorithm `{algorithm}`{hint}"),
            };
        };
        let (scenario, cache_hit) = match self.cache.get_or_build(spec) {
            Ok(pair) => pair,
            Err(e) => {
                return Response::Error {
                    id: Some(id),
                    error: format!("cannot build scenario: {e}"),
                }
            }
        };
        let hash = spec_hash(spec);
        let canonical = canonical_spec_json(spec);
        let mut engine = match slots.take(hash.0, &canonical) {
            Some(mut eng) => {
                // Residency: restore just-constructed state instead of
                // rebuilding; `Engine::reset` guarantees byte-identical
                // execution (property-tested in ncc-model).
                eng.reset();
                self.engine_reuses.fetch_add(1, Ordering::SeqCst);
                eng
            }
            None => scenario.engine_with_threads(1),
        };
        let result = run_checked(algo, &mut engine, &scenario);
        slots.put(hash.0, canonical, engine);
        match result {
            Ok(record) => Response::Record {
                id,
                cache_hit,
                spec_hash: hash.to_string(),
                record,
            },
            Err(e) => Response::Error {
                id: Some(id),
                error: format!("run failed: {e}"),
            },
        }
    }

    /// Convenience: build a [`Scenario`] through the cache (used by load
    /// generators that want warm artifacts without a run).
    pub fn warm(&self, spec: &ScenarioSpec) -> Result<Arc<Scenario>, ncc_runner::RunnerError> {
        self.cache.get_or_build(spec).map(|(s, _)| s)
    }
}

/// Where a worker writes its responses. Shared per connection, so
/// responses from concurrent requests interleave by *line*, never by byte.
pub type ResponseSink = Arc<Mutex<Box<dyn Write + Send>>>;

/// One queued request line plus the sink its response goes to.
pub struct Job {
    pub line: String,
    pub out: ResponseSink,
}

/// The bounded worker pool: N threads pulling [`Job`]s off one queue.
pub struct WorkerPool {
    tx: Option<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `cfg.workers` threads against the coordinator. The queue is
    /// bounded at `cfg.queue_depth`: fronts block on submit when the pool
    /// is saturated.
    pub fn spawn(coordinator: Arc<Coordinator>) -> Self {
        let cfg = *coordinator.config();
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let rx = Arc::clone(&rx);
            let coordinator = Arc::clone(&coordinator);
            handles.push(std::thread::spawn(move || {
                worker_loop(&coordinator, &rx);
            }));
        }
        WorkerPool {
            tx: Some(tx),
            handles,
        }
    }

    /// A sender handle for a front to submit jobs with.
    pub fn sender(&self) -> SyncSender<Job> {
        self.tx.as_ref().expect("pool not joined").clone()
    }

    /// Submits one job, blocking when the queue is full. `false` when the
    /// pool has shut down.
    pub fn submit(&self, job: Job) -> bool {
        match &self.tx {
            Some(tx) => tx.send(job).is_ok(),
            None => false,
        }
    }

    /// Drops the queue and joins every worker. Queued jobs are drained
    /// first (workers exit on disconnect-or-shutdown, not mid-queue).
    pub fn join(mut self) {
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker body: drain the queue, checking the shutdown flag between jobs.
/// Exits when the queue disconnects or when shutdown is set and the queue
/// is empty — in-flight and queued requests always get their response.
fn worker_loop(coordinator: &Coordinator, rx: &Arc<Mutex<Receiver<Job>>>) {
    let cfg = *coordinator.config();
    let mut slots = EngineSlots::new(cfg.cache_capacity.clamp(1, 16));
    loop {
        let job = {
            let rx = rx.lock().expect("worker queue lock");
            match rx.try_recv() {
                Ok(job) => Some(job),
                Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => {
                    if coordinator.is_shutdown() {
                        return;
                    }
                    match rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(job) => Some(job),
                        Err(RecvTimeoutError::Timeout) => None,
                        Err(RecvTimeoutError::Disconnected) => return,
                    }
                }
            }
        };
        let Some(job) = job else { continue };
        if let Some(resp) = coordinator.handle_line(&job.line, &mut slots) {
            // Line and terminator leave in one write: on a raw `TcpStream`
            // a separate write of the `\n` is a second segment, which the
            // kernel holds back until the client acknowledges the first.
            let mut line = resp.to_line();
            line.push('\n');
            let mut out = job.out.lock().expect("response sink lock");
            let _ = out.write_all(line.as_bytes());
            let _ = out.flush();
        }
    }
}

/// A running in-process server: TCP front + worker pool, used by
/// `ncc-cli serve --listen`, the load generator, and the integration tests.
pub struct Server {
    coordinator: Arc<Coordinator>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port), spawns the
    /// worker pool and the accept loop, and returns immediately.
    pub fn spawn(cfg: ServeConfig, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let coordinator = Arc::new(Coordinator::new(cfg));
        let pool = WorkerPool::spawn(Arc::clone(&coordinator));
        let tx = pool.sender();
        let accept_coord = Arc::clone(&coordinator);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_coord, &tx));
        Ok(Server {
            coordinator,
            addr,
            accept: Some(accept),
            pool: Some(pool),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn coordinator(&self) -> &Arc<Coordinator> {
        &self.coordinator
    }

    /// Stops accepting, drains the queue, joins the pool. Idempotent with
    /// a `Shutdown` request already in flight.
    pub fn shutdown_and_join(mut self) {
        self.coordinator.request_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

/// Accept loop: non-blocking accept polled against the shutdown flag, one
/// detached reader thread per connection feeding the shared job queue.
fn accept_loop(listener: &TcpListener, coordinator: &Arc<Coordinator>, tx: &SyncSender<Job>) {
    loop {
        if coordinator.is_shutdown() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // responses are whole lines written at once; never wait
                // to coalesce them with a later one
                let _ = stream.set_nodelay(true);
                let tx = tx.clone();
                std::thread::spawn(move || connection_reader(stream, &tx));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

/// Per-connection reader: lines in, jobs out. The write half is shared by
/// every in-flight response for this connection (line-atomic interleaving).
fn connection_reader(stream: TcpStream, tx: &SyncSender<Job>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out: ResponseSink = Arc::new(Mutex::new(Box::new(write_half)));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        if tx
            .send(Job {
                line,
                out: Arc::clone(&out),
            })
            .is_err()
        {
            return;
        }
    }
}

/// The stdio front: requests on stdin (one per line, to EOF), responses on
/// stdout, executed by the same bounded pool. Returns when stdin closes or
/// a `Shutdown` request lands.
pub fn serve_stdio(cfg: ServeConfig) -> io::Result<()> {
    let coordinator = Arc::new(Coordinator::new(cfg));
    let pool = WorkerPool::spawn(Arc::clone(&coordinator));
    let out: ResponseSink = Arc::new(Mutex::new(Box::new(io::stdout())));
    let stdin = io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if !pool.submit(Job {
            line,
            out: Arc::clone(&out),
        }) {
            break;
        }
        if coordinator.is_shutdown() {
            break;
        }
    }
    coordinator.request_shutdown();
    pool.join();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncc_runner::FamilySpec;

    impl Coordinator {
        /// Runs one full request/response cycle against a scratch
        /// [`EngineSlots`].
        fn handle_line_once(&self, line: &str) -> Option<Response> {
            let mut slots = EngineSlots::new(4);
            self.handle_line(line, &mut slots)
        }
    }

    fn run_line(id: u64, algorithm: &str, spec: &ScenarioSpec) -> String {
        serde_json::to_string(&Request::Run {
            id,
            algorithm: algorithm.into(),
            spec: spec.clone(),
        })
        .unwrap()
    }

    fn spec(seed: u64) -> ScenarioSpec {
        ScenarioSpec::new(FamilySpec::Gnp { p: 0.25 }, 32, seed)
    }

    #[test]
    fn executes_a_run_request() {
        let coord = Coordinator::new(ServeConfig::with_thread_budget(1));
        let resp = coord
            .handle_line_once(&run_line(1, "broadcast", &spec(3)))
            .unwrap();
        match resp {
            Response::Record {
                id,
                cache_hit,
                record,
                ..
            } => {
                assert_eq!(id, 1);
                assert!(!cache_hit);
                assert_eq!(record.algorithm, "broadcast");
                assert!(record.rounds > 0);
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn unknown_algorithm_gets_typed_error_with_suggestion() {
        let coord = Coordinator::new(ServeConfig::with_thread_budget(1));
        let resp = coord
            .handle_line_once(&run_line(2, "MTS", &spec(3)))
            .unwrap();
        match resp {
            Response::Error { id, error } => {
                assert_eq!(id, Some(2));
                assert!(error.contains("unknown algorithm"), "{error}");
                assert!(error.contains("did you mean"), "{error}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(coord.stats().errors, 1);
    }

    #[test]
    fn malformed_line_gets_error_without_id() {
        let coord = Coordinator::new(ServeConfig::with_thread_budget(1));
        let resp = coord.handle_line_once("this is not json").unwrap();
        match resp {
            Response::Error { id, error } => {
                assert_eq!(id, None);
                assert!(error.contains("malformed"), "{error}");
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert!(coord.handle_line_once("").is_none(), "blank lines ignored");
    }

    #[test]
    fn cache_hit_record_is_byte_identical_to_cold_record() {
        let coord = Coordinator::new(ServeConfig::with_thread_budget(1));
        let mut slots = EngineSlots::new(4);
        let line = run_line(1, "mst", &spec(7));
        let cold = coord.handle_line(&line, &mut slots).unwrap();
        let warm = coord.handle_line(&line, &mut slots).unwrap();
        let (cold_rec, cold_hit) = match cold {
            Response::Record {
                record, cache_hit, ..
            } => (record, cache_hit),
            other => panic!("{other:?}"),
        };
        let (warm_rec, warm_hit) = match warm {
            Response::Record {
                record, cache_hit, ..
            } => (record, cache_hit),
            other => panic!("{other:?}"),
        };
        assert!(!cold_hit);
        assert!(warm_hit);
        assert_eq!(cold_rec.to_json(), warm_rec.to_json());
        // the warm run also reused the resident engine
        assert_eq!(coord.stats().engine_reuses, 1);
    }

    #[test]
    fn engine_slots_reuse_evict_and_guard_collisions() {
        let mut slots = EngineSlots::new(2);
        let a = spec(1).build().unwrap();
        let b = spec(2).build().unwrap();
        let c = spec(3).build().unwrap();
        slots.put(1, "a".into(), a.engine());
        slots.put(2, "b".into(), b.engine());
        assert!(slots.take(1, "other").is_none(), "collision guard");
        assert!(slots.take(1, "a").is_some());
        assert_eq!(slots.len(), 1);
        slots.put(1, "a".into(), a.engine());
        slots.put(3, "c".into(), c.engine()); // evicts LRU (hash 2)
        assert_eq!(slots.len(), 2);
        assert!(slots.take(2, "b").is_none());
        assert!(slots.take(3, "c").is_some());
    }

    #[test]
    fn shutdown_request_flips_the_flag() {
        let coord = Coordinator::new(ServeConfig::with_thread_budget(1));
        assert!(!coord.is_shutdown());
        let resp = coord.handle_line_once("{\"Shutdown\":{\"id\":9}}").unwrap();
        assert!(matches!(resp, Response::Shutdown { id: 9 }));
        assert!(coord.is_shutdown());
    }

    #[test]
    fn stats_report_pool_shape_and_cache() {
        let cfg = ServeConfig::with_thread_budget(3).with_cache_capacity(5);
        let coord = Coordinator::new(cfg);
        coord.handle_line_once(&run_line(1, "gossip", &spec(1)));
        let stats = coord.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.cache.capacity, 5);
        assert_eq!(stats.cache.misses, 1);
    }
}
