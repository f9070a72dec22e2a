//! The synchronous round engine.
//!
//! [`Engine::execute`] drives a [`NodeProgram`] to quiescence:
//!
//! ```text
//! round r:  1. every *active* node runs its step function
//!              (active = received a message, or asked to stay awake;
//!               at round 0 every node runs `init`)
//!           2. send cap and payload width are enforced per node
//!           3. the batched router counting-sorts the round's flat send
//!              buffer into a per-destination inbox arena; destinations
//!              over their receive cap get a seeded-random subset and the
//!              rest are dropped (counted per destination)
//!           4. arena buckets become the inboxes of round r + 1
//! ```
//!
//! Delivery is a *batched routing problem*, not per-message dispatch: the
//! whole round's traffic is one counting sort into a reusable flat arena
//! (see [`crate::router`]), so the steady state of an execution performs no
//! heap allocation in the delivery phase at all.
//!
//! ## A round costs O(active + messages), not O(n)
//!
//! The paper's target regime (§1) is huge overlays where most nodes idle
//! most rounds. The engine never scans all `n` nodes after round 0: the
//! next active set is the merge of the nodes that kept themselves awake
//! (a subset of the current active set, walked in order) with the
//! router's ascending occupied-destination list — the router already
//! knows exactly who got mail. Both inputs are sorted and duplicate-free,
//! so the merge is the sorted, deduplicated active set in
//! O(active + occupied) time; that merge is the scheduler. A model's
//! per-round cost accounting likewise walks only occupied buckets, and a
//! round whose sends are far below `n` is routed over its touched
//! destinations only (see [`crate::router`]).
//!
//! The engine persists across program executions (its global round counter
//! and cumulative statistics keep running), so a high-level algorithm that
//! invokes many primitive protocols in sequence — the way §3–§5 of the paper
//! compose Aggregation / Multicast / Aggregate-and-Broadcast — accumulates
//! an honest total round count.
//!
//! ## Determinism
//!
//! Executions are reproducible for a fixed `(seed, n)` regardless of the
//! number of worker threads: per-node RNG streams are keyed by node id, the
//! network's drop choices are keyed by `(seed, global round, destination)`,
//! and message ordering is fixed by (sending node id, send order). The
//! multi-threaded step phase partitions the active set into contiguous
//! chunks and concatenates the per-chunk outputs in chunk order, which
//! reproduces the sequential order exactly. The route phase always runs on
//! the calling thread. Property tests assert sequential ≡ parallel for 1,
//! 2, 4 and 8 threads on random programs.

use std::any::{Any, TypeId};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::capacity::Capacity;
use crate::error::ModelError;
use crate::network::{Lane, Ncc, NetworkModel, TraceEvent};
use crate::payload::{Envelope, Payload};
use crate::program::{Ctx, NodeProgram, ProgScratch, Stream};
use crate::router::{reserve_bounded, Router, RouterScratch};
use crate::stats::{ExecStats, MemoryFootprint, RoundStats};
use crate::NodeId;

/// Active-set size below which the step phase stays sequential even with
/// worker threads configured: thread-scope overhead beats stepping a small
/// set in parallel. Results are identical either way.
const PAR_MIN_ACTIVE: usize = 128;

/// Static parameters of a simulated network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of nodes.
    pub n: usize,
    /// Per-node, per-round communication budget.
    pub capacity: Capacity,
    /// Master seed for all randomness (node streams + network choices).
    pub seed: u64,
    /// Strict mode: cap/payload violations abort with an error. Permissive
    /// mode: violations are counted and excess sends are truncated.
    pub strict: bool,
    /// Worker threads for the step phase. `1` = sequential. The step
    /// phase runs at most as many as the machine has cores.
    pub threads: usize,
    /// Abort if a single program execution exceeds this many rounds.
    pub max_rounds: u64,
}

impl NetConfig {
    /// Default configuration: strict, sequential, default `Θ(log n)` caps.
    pub fn new(n: usize, seed: u64) -> Self {
        NetConfig {
            n,
            capacity: Capacity::default_for(n),
            seed,
            strict: true,
            threads: 1,
            max_rounds: 2_000_000,
        }
    }

    pub fn with_capacity(mut self, c: Capacity) -> Self {
        self.capacity = c;
        self
    }

    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t.max(1);
        self
    }

    pub fn permissive(mut self) -> Self {
        self.strict = false;
        self
    }
}

/// The simulated network: `n` synchronous nodes driven under a pluggable
/// [`NetworkModel`] (the Node-Capacitated Clique by default).
pub struct Engine {
    cfg: NetConfig,
    /// Threads the step phase runs: `cfg.threads` capped at the cores,
    /// asked once here. A count past the cores buys nothing and, large
    /// enough, exhausts the OS.
    step_threads: usize,
    /// Per-node private streams, each seeded by its first draw (see
    /// [`Ctx::rng`]); `rng_stale[i]` marks node `i`'s as not seeded yet.
    node_rngs: Vec<SmallRng>,
    rng_stale: Vec<bool>,
    global_round: u64,
    /// Cumulative statistics across every execution on this engine.
    pub total: ExecStats,
    model: Box<dyn NetworkModel>,
    scratch: EngineScratch,
}

/// Cross-execution scratch: the router's payload-independent tables plus
/// the engine's own per-round lists and the recycled payload-typed
/// buffers. Owned by the engine so that repeat executions — the
/// multi-phase algorithm pipelines, and resident-engine replays after
/// [`Engine::reset`] — allocate nothing in the steady state. Pure
/// scratch: contents never influence results, so `reset()` leaves it
/// alone.
///
/// Node state is held struct-of-arrays style: parallel columns indexed
/// by position (ascending activity lists, per-worker buffers) instead of
/// per-node structs. The old O(n) awake bool column is gone — a node's
/// stay-awake flag lives on the stepping worker's stack and is collected
/// into an ascending id list, so an execution's footprint beyond the
/// router tables is O(active), not O(n).
#[derive(Default)]
struct EngineScratch {
    router: RouterScratch,
    active: Vec<NodeId>,
    next_active: Vec<NodeId>,
    /// Ascending ids of nodes that kept themselves awake this round —
    /// a subset of `active`, rebuilt every round.
    awake: Vec<NodeId>,
    /// Per-worker awake lists for the parallel step phase, concatenated
    /// into `awake` in chunk order.
    awake_locals: Vec<Vec<NodeId>>,
    trace_buf: Vec<TraceEvent>,
    /// Recycled payload-typed buffer sets, keyed by payload `TypeId`.
    /// Linear scan: an engine sees a handful of payload types, ever.
    typed: Vec<(TypeId, Box<dyn RecycledBufs>)>,
}

impl EngineScratch {
    /// The recycled buffers for payload type `P`, installed empty the
    /// first time `P` executes on this engine. An execution takes them out
    /// and puts them back grown.
    fn bufs<P: Payload>(&mut self) -> &mut PayloadBufs<P> {
        let key = TypeId::of::<P>();
        let i = match self.typed.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.typed.push((key, Box::<PayloadBufs<P>>::default()));
                self.typed.len() - 1
            }
        };
        self.typed[i]
            .1
            .as_any_mut()
            .downcast_mut()
            .expect("entry keyed by payload TypeId")
    }
}

/// Type-erased face of [`PayloadBufs`], so one scratch can hold recycled
/// buffers for several payload types at once.
trait RecycledBufs: Send {
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn resident_bytes(&self) -> usize;
}

/// Every payload-typed buffer one execution needs: the flat send buffer,
/// the router's inbox arena, and the step phase's per-worker out/send
/// vectors and program-scratch slots. Retained across executions (and
/// [`Engine::reset`]) so a steady-state replay performs no heap
/// allocation at all once each buffer has grown to its high-water
/// capacity.
struct PayloadBufs<P: Payload> {
    sends: Vec<Envelope<P>>,
    arena: Vec<Envelope<P>>,
    /// Per-worker `Ctx::out` buffers (index 0 doubles as the sequential
    /// path's buffer).
    outs: Vec<Vec<(NodeId, P)>>,
    /// Per-worker `Ctx::scratch` slots, parallel to `outs`. Opaque to the
    /// engine (the stepping program owns the contents), hence absent from
    /// [`Engine::resident_bytes`].
    scratches: Vec<ProgScratch>,
    /// Per-worker send-buffer shards for the parallel step phase.
    locals: Vec<Vec<Envelope<P>>>,
}

impl<P: Payload> Default for PayloadBufs<P> {
    fn default() -> Self {
        PayloadBufs {
            sends: Vec::new(),
            arena: Vec::new(),
            outs: Vec::new(),
            scratches: Vec::new(),
            locals: Vec::new(),
        }
    }
}

impl<P: Payload> RecycledBufs for PayloadBufs<P> {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.sends.capacity() + self.arena.capacity()) * size_of::<Envelope<P>>()
            + self
                .outs
                .iter()
                .map(|o| o.capacity() * size_of::<(NodeId, P)>())
                .sum::<usize>()
            + self
                .locals
                .iter()
                .map(|l| l.capacity() * size_of::<Envelope<P>>())
                .sum::<usize>()
    }
}

impl Engine {
    /// An engine under the default [`Ncc`] model (per-node caps; the
    /// paper's setting). Executions are byte-identical to the pre-model
    /// engine for any `(seed, n, capacity)`.
    pub fn new(cfg: NetConfig) -> Self {
        Self::with_model(cfg, Box::new(Ncc))
    }

    /// An engine under an explicit network model (Congested Clique,
    /// k-machine, hybrid local+global, or anything user-provided).
    pub fn with_model(cfg: NetConfig, model: Box<dyn NetworkModel>) -> Self {
        let step_threads = match cfg.threads {
            0 | 1 => 1,
            t => t.min(std::thread::available_parallelism().map_or(1, |p| p.get())),
        };
        Engine {
            node_rngs: vec![SmallRng::seed_from_u64(0); cfg.n],
            rng_stale: vec![true; cfg.n],
            cfg,
            step_threads,
            global_round: 0,
            total: ExecStats::default(),
            model,
            scratch: EngineScratch::default(),
        }
    }

    /// Returns the engine to its just-constructed state: every node's RNG
    /// stream is marked stale, so its next draw reseeds it from the config
    /// seed (`n` flag writes, not `n` generators), the global round counter
    /// and the cumulative totals are zeroed, and the network model clears
    /// its accumulated cost accounting ([`NetworkModel::reset`]).
    ///
    /// After `reset()`, an execution sequence is byte-identical to the same
    /// sequence on a freshly built engine — drop sampling is keyed by
    /// `(seed, global_round, dst)` and per-node randomness by
    /// `(seed, node)`, and both are restored exactly. This is what lets a
    /// resident service (`ncc-serve`) keep an engine alive across requests
    /// instead of rebuilding it, without forking the deterministic record
    /// history (gated the same way thread-count invariance is).
    ///
    /// The engine's reusable scratch (router tables, activity lists) is
    /// deliberately *not* cleared: it is pure cost-side state that never
    /// influences results, and keeping it is what makes resident-engine
    /// replays allocate nothing O(n) in the steady state.
    pub fn reset(&mut self) {
        self.rng_stale.fill(true);
        self.global_round = 0;
        self.total = ExecStats::default();
        self.model.reset();
    }

    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The active network model (downcast via
    /// [`NetworkModel::as_any`] for model-specific post-run reports).
    pub fn model(&self) -> &dyn NetworkModel {
        &*self.model
    }

    pub fn n(&self) -> usize {
        self.cfg.n
    }

    /// Rounds elapsed across all executions on this engine.
    pub fn global_round(&self) -> u64 {
        self.global_round
    }

    /// Runs `prog` to quiescence (no messages in flight, no node awake).
    /// Returns the statistics of this execution alone; the engine's
    /// cumulative totals are updated as a side effect.
    pub fn execute<Prog: NodeProgram>(
        &mut self,
        prog: &Prog,
        states: &mut [Prog::State],
    ) -> Result<ExecStats, ModelError> {
        assert_eq!(states.len(), self.cfg.n, "one state per node required");
        let Engine {
            cfg,
            step_threads,
            node_rngs,
            rng_stale,
            global_round,
            total,
            model,
            scratch,
        } = self;
        let n = cfg.n;
        let cap = cfg.capacity;
        let send_cap = model.send_cap(&cap);
        let recv_policy = model.recv_policy(&cap);
        let wants_pairs = model.wants_delivered_pairs();

        // The router adopts the engine's reusable tables and the recycled
        // payload buffers for the duration of this execution and hands
        // them back below, so repeat executions allocate nothing.
        let PayloadBufs {
            mut sends,
            arena,
            mut outs,
            mut scratches,
            mut locals,
        } = std::mem::take(scratch.bufs::<Prog::Payload>());
        if outs.is_empty() {
            // worker 0's buffers: the sequential step phase uses them too
            outs.push(Vec::new());
            scratches.push(None);
        }
        let mut router: Router<Prog::Payload> =
            Router::with_recycled(n, cfg.seed, std::mem::take(&mut scratch.router), arena);
        let EngineScratch {
            active,
            next_active,
            awake,
            awake_locals,
            trace_buf,
            ..
        } = scratch;
        // Round 0 runs `init` on every node. Between executions the awake
        // list is empty: each round drains exactly what its step pushed,
        // and the error path below sweeps the rest.
        active.clear();
        active.extend(0..n as NodeId);
        debug_assert!(awake.is_empty());
        let mut local_round: u64 = 0;

        let result = (|| -> Result<ExecStats, ModelError> {
            let mut stats = ExecStats::default();
            loop {
                let mut round_stats = RoundStats {
                    active_nodes: active.len() as u64,
                    ..RoundStats::default()
                };
                sends.clear();

                // ---- step phase ---------------------------------------------
                let step = Step {
                    prog,
                    router: &router,
                    cfg,
                    local_round,
                    send_cap,
                    model: &**model,
                };
                let violation = if *step_threads > 1 && active.len() >= PAR_MIN_ACTIVE {
                    step_parallel(
                        &step,
                        *step_threads,
                        active,
                        states,
                        (node_rngs, rng_stale),
                        awake,
                        awake_locals,
                        &mut sends,
                        &mut outs,
                        &mut scratches,
                        &mut locals,
                    )
                } else {
                    let (out, scratch) = (&mut outs[0], &mut scratches[0]);
                    let rngs = (&mut node_rngs[..], &mut rng_stale[..]);
                    step_chunk(
                        &step, active, 0, states, rngs, out, scratch, awake, &mut sends,
                    )
                };

                // ---- cap / payload enforcement ------------------------------
                // `sends` is ordered by (node order within `active`, send
                // order), so per-node runs are contiguous.
                if let Some((node, attempted)) = violation.send_over {
                    if cfg.strict {
                        return Err(ModelError::SendCapExceeded {
                            node,
                            round: *global_round,
                            attempted,
                            cap: send_cap,
                        });
                    }
                }
                if let Some((node, bits)) = violation.payload_over {
                    if cfg.strict {
                        return Err(ModelError::PayloadTooWide {
                            node,
                            round: *global_round,
                            bits,
                            budget: cap.payload_bits,
                        });
                    }
                }
                if let Some((node, dst)) = violation.bad_dst {
                    return Err(ModelError::BadDestination {
                        node,
                        round: *global_round,
                        dst,
                        n,
                    });
                }
                round_stats.send_cap_violations = violation.violations;
                round_stats.max_out = violation.max_out;
                round_stats.sent = sends.len() as u64;
                round_stats.bits = violation.bits;
                round_stats.truncated = violation.truncated;

                // ---- route + deliver ----------------------------------------
                let report = router.route_model(&mut sends, *global_round, recv_policy, &**model);
                round_stats.delivered = report.delivered;
                round_stats.dropped = report.dropped;
                round_stats.max_in = report.max_in;
                round_stats.over_cap_dsts = report.over_cap_dsts;
                round_stats.max_edge_load = report.max_edge_load;

                // ---- model cost accounting ----------------------------------
                // Only the occupied buckets hold mail, and the occupied list
                // is ascending, so this walk sees exactly the events a full
                // 0..n scan would — in O(messages), not O(n).
                if wants_pairs {
                    trace_buf.clear();
                    for &d in router.occupied() {
                        for e in router.inbox(d) {
                            trace_buf.push(TraceEvent { src: e.src, dst: d });
                        }
                    }
                    round_stats.km_rounds = model.charge_round(*global_round, trace_buf);
                }

                // ---- next active set ----------------------------------------
                // The awake list is ascending and duplicate-free (each
                // stepped node pushes at most once, `active` is ascending,
                // and parallel chunks concatenate in order), as is the
                // router's occupied list, so a two-pointer merge-dedup of
                // the two is the sorted next active set, in
                // O(active + occupied).
                next_active.clear();
                let occ = router.occupied();
                let (mut ai, mut oi) = (0, 0);
                while ai < awake.len() && oi < occ.len() {
                    let (a, o) = (awake[ai], occ[oi]);
                    next_active.push(a.min(o));
                    ai += (a <= o) as usize;
                    oi += (o <= a) as usize;
                }
                next_active.extend_from_slice(&awake[ai..]);
                next_active.extend_from_slice(&occ[oi..]);
                awake.clear();

                stats.absorb_round(&round_stats);
                total.absorb_round(&round_stats);
                *global_round += 1;
                local_round += 1;

                if next_active.is_empty() {
                    break;
                }
                if local_round >= cfg.max_rounds {
                    return Err(ModelError::RoundLimitExceeded {
                        limit: cfg.max_rounds,
                    });
                }
                std::mem::swap(active, next_active);
            }
            Ok(stats)
        })();

        if result.is_err() {
            // An abort mid-round can leave the round's awake pushes in
            // place; drain them so they never leak into a later execution
            // on this engine.
            awake.clear();
        }
        let (router_sc, arena) = router.into_recycled();
        scratch.router = router_sc;
        *scratch.bufs() = PayloadBufs {
            sends,
            arena,
            outs,
            scratches,
            locals,
        };
        result
    }

    /// Lets `k` rounds pass with no node stepped and no message sent: a
    /// stage padded to a bound every node knows ends on the clock. Each
    /// round advances [`Engine::global_round`] and is charged like an
    /// empty executed round ([`NetworkModel::charge_round`] with no
    /// deliveries, when the model wants them). Allocates nothing.
    pub fn idle_rounds(&mut self, k: u64) -> ExecStats {
        let mut stats = ExecStats::default();
        for _ in 0..k {
            let mut round = RoundStats::default();
            if self.model.wants_delivered_pairs() {
                round.km_rounds = self.model.charge_round(self.global_round, &[]);
            }
            stats.absorb_round(&round);
            self.total.absorb_round(&round);
            self.global_round += 1;
        }
        stats
    }

    /// Estimated resident heap footprint of the engine's long-lived
    /// state, by component — what a resident scenario service pays per
    /// node to keep this engine warm. Capacity-based (what is held, not
    /// what is momentarily in use) and never part of a deterministic
    /// snapshot.
    pub fn resident_bytes(&self) -> MemoryFootprint {
        use std::mem::size_of;
        let sc = &self.scratch;
        let activity_lists = (sc.active.capacity()
            + sc.next_active.capacity()
            + sc.awake.capacity()
            + sc.awake_locals.iter().map(|v| v.capacity()).sum::<usize>())
            * size_of::<NodeId>()
            + sc.trace_buf.capacity() * size_of::<TraceEvent>();
        MemoryFootprint {
            node_rngs: self.node_rngs.capacity() * size_of::<SmallRng>()
                + self.rng_stale.capacity(),
            activity_lists,
            router_tables: sc.router.resident_bytes(),
            payload_bufs: sc.typed.iter().map(|(_, b)| b.resident_bytes()).sum(),
        }
    }
}

/// What every node step of one round reads.
struct Step<'a, Prog: NodeProgram> {
    prog: &'a Prog,
    router: &'a Router<Prog::Payload>,
    cfg: &'a NetConfig,
    local_round: u64,
    send_cap: usize,
    model: &'a dyn NetworkModel,
}

/// Steps the nodes of `chunk` in order — `init` at round 0, `round` on the
/// node's inbox after — collecting stay-awake requests into `awake` and
/// what the nodes sent, less what the send-side budgets cut, into `sends`.
/// The one place a node is stepped: the sequential step phase is one call
/// over the whole active list, the parallel one a call per worker.
///
/// `states` and `rngs` (the node streams and their stale flags) hold the
/// entries of nodes `base..base + len`, which must cover the chunk's ids.
#[allow(clippy::too_many_arguments)]
fn step_chunk<Prog: NodeProgram>(
    step: &Step<'_, Prog>,
    chunk: &[NodeId],
    base: usize,
    states: &mut [Prog::State],
    rngs: (&mut [SmallRng], &mut [bool]),
    out: &mut Vec<(NodeId, Prog::Payload)>,
    scratch: &mut ProgScratch,
    awake: &mut Vec<NodeId>,
    sends: &mut Vec<Envelope<Prog::Payload>>,
) -> Violation {
    let &Step {
        prog,
        router,
        cfg,
        local_round,
        send_cap,
        model,
    } = step;
    let mut v = Violation::default();
    let (gens, stale) = rngs;
    for &node in chunk {
        let i = node as usize - base;
        // `out` is empty here: `Violation::account` drains it.
        // The stay-awake flag is a stack local, not an O(n) column:
        // nodes that set it are collected into the ascending awake list.
        let mut stay = false;
        let mut ctx = Ctx {
            id: node,
            n: cfg.n,
            round: local_round,
            stream: Stream::new(&mut gens[i], &mut stale[i], cfg.seed),
            out,
            awake: &mut stay,
            scratch,
        };
        if local_round == 0 {
            prog.init(&mut states[i], &mut ctx);
        } else {
            prog.round(&mut states[i], router.inbox(node), &mut ctx);
        }
        if stay {
            awake.push(node);
        }
        v.account(node, out, cfg, send_cap, model, sends);
    }
    v
}

/// Detaches entries `lo..hi` from the front of `rest`, whose first entry
/// has index `base`; `rest` keeps what lies from `hi` on.
fn carve<'a, T>(rest: &mut &'a mut [T], base: usize, lo: usize, hi: usize) -> &'a mut [T] {
    let (front, tail) = std::mem::take(rest).split_at_mut(hi - base);
    *rest = tail;
    &mut front[lo - base..]
}

#[allow(clippy::too_many_arguments)]
fn step_parallel<Prog: NodeProgram>(
    step: &Step<'_, Prog>,
    threads: usize,
    active: &[NodeId],
    states: &mut [Prog::State],
    (node_rngs, rng_stale): (&mut [SmallRng], &mut [bool]),
    awake: &mut Vec<NodeId>,
    awake_locals: &mut Vec<Vec<NodeId>>,
    sends: &mut Vec<Envelope<Prog::Payload>>,
    outs: &mut Vec<Vec<(NodeId, Prog::Payload)>>,
    scratches: &mut Vec<ProgScratch>,
    locals: &mut Vec<Vec<Envelope<Prog::Payload>>>,
) -> Violation {
    let threads = threads.min(active.len());
    let chunk = active.len().div_ceil(threads);
    let nchunks = active.len().div_ceil(chunk);
    while outs.len() < nchunks {
        outs.push(Vec::new());
        scratches.push(None);
    }
    while locals.len() < nchunks {
        locals.push(Vec::new());
    }
    while awake_locals.len() < nchunks {
        awake_locals.push(Vec::new());
    }

    let violations: Vec<Violation> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nchunks);
        let worker_bufs = outs[..nchunks]
            .iter_mut()
            .zip(scratches[..nchunks].iter_mut())
            .zip(locals[..nchunks].iter_mut())
            .zip(awake_locals[..nchunks].iter_mut());
        // The active list is ascending and duplicate-free (engine
        // invariant), so successive chunks cover disjoint, ascending id
        // ranges and each worker can own its range of `states`,
        // `node_rngs` and `rng_stale` outright.
        let (mut rest_states, mut rest_rngs, mut base) = (states, node_rngs, 0);
        let mut rest_stale = rng_stale;
        for (slice, (((out, scratch), local), awl)) in active.chunks(chunk).zip(worker_bufs) {
            let (lo, hi) = (slice[0] as usize, slice[slice.len() - 1] as usize + 1);
            let states = carve(&mut rest_states, base, lo, hi);
            let rngs = (
                carve(&mut rest_rngs, base, lo, hi),
                carve(&mut rest_stale, base, lo, hi),
            );
            base = hi;
            handles.push(scope.spawn(move || {
                local.clear();
                awl.clear();
                step_chunk(step, slice, lo, states, rngs, out, scratch, awl, local)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut v = Violation::default();
    for cv in violations {
        v.merge(cv);
    }
    // Chunk-order concatenation reproduces the sequential order exactly —
    // for the send buffer and for the ascending awake list alike.
    reserve_bounded(sends, locals[..nchunks].iter().map(Vec::len).sum());
    for local in &mut locals[..nchunks] {
        sends.append(local);
    }
    for awl in &mut awake_locals[..nchunks] {
        awake.extend_from_slice(awl);
        awl.clear();
    }
    v
}

/// Per-round cap bookkeeping shared by both step drivers.
#[derive(Default)]
struct Violation {
    /// First node (in step order) that exceeded the send cap, with count.
    send_over: Option<(NodeId, usize)>,
    /// First payload-width violation.
    payload_over: Option<(NodeId, u32)>,
    /// First out-of-range destination.
    bad_dst: Option<(NodeId, NodeId)>,
    violations: u64,
    max_out: u64,
    bits: u64,
    /// Messages cut by permissive-mode send-cap truncation (never queued,
    /// hence disjoint from the network's receive-cap drops).
    truncated: u64,
}

impl Violation {
    /// Applies the model's send-side budgets to one node's outgoing
    /// messages and moves the survivors into the flat send buffer,
    /// leaving `out` empty.
    ///
    /// `send_cap` is the model's node-level budget; in lane-splitting
    /// models (`!model.uniform_lanes()`) only `Lane::Global` messages count
    /// against it — local-edge messages always reach the network and are
    /// budgeted there (per edge, in the route phase). Under a uniform-lane
    /// model this reduces exactly to the pre-model positional truncation:
    /// the first `send_cap` messages survive.
    fn account<P: Payload>(
        &mut self,
        node: NodeId,
        out: &mut Vec<(NodeId, P)>,
        cfg: &NetConfig,
        send_cap: usize,
        model: &dyn NetworkModel,
        sends: &mut Vec<Envelope<P>>,
    ) {
        let cap = &cfg.capacity;
        let attempted = out.len();
        self.max_out = self.max_out.max(attempted as u64);
        let uniform = model.uniform_lanes();
        // One pass: classify each message's lane exactly once, admitting
        // the first `send_cap` cap-counted messages and tallying the rest
        // as truncated (recorded after the loop).
        let mut counted = 0usize;
        let mut taken = 0usize;
        reserve_bounded(sends, attempted);
        for (dst, p) in out.drain(..) {
            let global = uniform || model.lane(node, dst) == Lane::Global;
            if global {
                counted += 1;
                if taken >= send_cap {
                    continue; // over the node budget: truncated
                }
                taken += 1;
            }
            if (dst as usize) >= cfg.n {
                if self.bad_dst.is_none() {
                    self.bad_dst = Some((node, dst));
                }
                continue;
            }
            let bits = p.bit_size();
            if bits > cap.payload_bits {
                self.violations += 1;
                if self.payload_over.is_none() {
                    self.payload_over = Some((node, bits));
                }
                if cfg.strict {
                    // strict mode aborts anyway; skip queuing
                    continue;
                }
            }
            self.bits += bits as u64;
            sends.push(Envelope::new(node, dst, p));
        }
        if counted > send_cap {
            self.violations += 1;
            self.truncated += (counted - send_cap) as u64;
            if self.send_over.is_none() {
                self.send_over = Some((node, counted));
            }
        }
    }

    fn merge(&mut self, other: Violation) {
        // Chunks are processed in node order, so "first" merges left-to-right.
        if self.send_over.is_none() {
            self.send_over = other.send_over;
        }
        if self.payload_over.is_none() {
            self.payload_over = other.payload_over;
        }
        if self.bad_dst.is_none() {
            self.bad_dst = other.bad_dst;
        }
        self.violations += other.violations;
        self.max_out = self.max_out.max(other.max_out);
        self.bits += other.bits;
        self.truncated += other.truncated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node sends one message to (id+1) mod n for `hops` rounds.
    struct RingRelay {
        hops: u64,
    }
    #[derive(Default, Clone)]
    struct RelayState {
        received: u64,
    }
    impl NodeProgram for RingRelay {
        type State = RelayState;
        type Payload = u64;
        fn init(&self, _st: &mut RelayState, ctx: &mut Ctx<'_, u64>) {
            ctx.send((ctx.id + 1) % ctx.n as u32, 1);
        }
        fn round(&self, st: &mut RelayState, inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            st.received += inbox.len() as u64;
            if ctx.round < self.hops {
                ctx.send((ctx.id + 1) % ctx.n as u32, 1);
            }
        }
    }

    #[test]
    fn ring_relay_runs_expected_rounds() {
        let mut eng = Engine::new(NetConfig::new(8, 7));
        let mut states = vec![RelayState::default(); 8];
        let stats = eng.execute(&RingRelay { hops: 5 }, &mut states).unwrap();
        // waves are sent in rounds 0..=4 (init + rounds where round < hops);
        // round 5 receives the last wave, sends nothing, and the run stops
        assert_eq!(stats.rounds, 6);
        assert_eq!(stats.sent, 8 * 5);
        assert_eq!(stats.dropped, 0);
        assert!(stats.clean());
        for st in &states {
            assert_eq!(st.received, 5);
        }
    }

    /// All nodes flood node 0 — must trigger receive-cap drops.
    struct Flood;
    impl NodeProgram for Flood {
        type State = ();
        type Payload = u64;
        fn init(&self, _st: &mut (), ctx: &mut Ctx<'_, u64>) {
            if ctx.id != 0 {
                ctx.send(0, ctx.id as u64);
            }
        }
        fn round(&self, _st: &mut (), _inbox: &[Envelope<u64>], _ctx: &mut Ctx<'_, u64>) {}
    }

    #[test]
    fn receive_cap_drops_excess() {
        let n = 512;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let cap = eng.config().capacity.recv;
        let mut states = vec![(); n];
        let stats = eng.execute(&Flood, &mut states).unwrap();
        assert_eq!(stats.sent, (n - 1) as u64);
        assert_eq!(stats.delivered, cap as u64);
        assert_eq!(stats.dropped, (n - 1 - cap) as u64);
        assert_eq!(stats.max_in, (n - 1) as u64);
        assert_eq!(stats.over_cap_dsts, 1);
        assert_eq!(stats.truncated, 0);
        assert_eq!(stats.lost(), stats.dropped);
    }

    /// A node that oversends must abort in strict mode.
    struct OverSend;
    impl NodeProgram for OverSend {
        type State = ();
        type Payload = u64;
        fn init(&self, _st: &mut (), ctx: &mut Ctx<'_, u64>) {
            if ctx.id == 3 {
                for d in 0..ctx.n as u32 {
                    ctx.send(d, 0);
                }
            }
        }
        fn round(&self, _st: &mut (), _inbox: &[Envelope<u64>], _ctx: &mut Ctx<'_, u64>) {}
    }

    #[test]
    fn strict_mode_rejects_oversend() {
        let n = 256;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let mut states = vec![(); n];
        let err = eng.execute(&OverSend, &mut states).unwrap_err();
        match err {
            ModelError::SendCapExceeded {
                node, attempted, ..
            } => {
                assert_eq!(node, 3);
                assert_eq!(attempted, n);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn permissive_mode_truncates_oversend() {
        let n = 256;
        let mut eng = Engine::new(NetConfig::new(n, 3).permissive());
        let cap = eng.config().capacity.send;
        let mut states = vec![(); n];
        let stats = eng.execute(&OverSend, &mut states).unwrap();
        assert_eq!(stats.sent, cap as u64);
        assert_eq!(stats.send_cap_violations, 1);
        // truncated and dropped are disjoint: the cut messages were never
        // sent, and nothing here hits the receive cap.
        assert_eq!(stats.truncated, (n - cap) as u64);
        assert_eq!(stats.dropped, 0);
        assert_eq!(stats.lost(), stats.truncated);
        assert_eq!(stats.delivered + stats.dropped, stats.sent);
    }

    #[test]
    fn engine_accumulates_across_executions() {
        let mut eng = Engine::new(NetConfig::new(8, 7));
        let mut states = vec![RelayState::default(); 8];
        let s1 = eng.execute(&RingRelay { hops: 2 }, &mut states).unwrap();
        let before = eng.global_round();
        let mut states2 = vec![RelayState::default(); 8];
        let s2 = eng.execute(&RingRelay { hops: 2 }, &mut states2).unwrap();
        assert_eq!(s1.rounds, s2.rounds);
        assert_eq!(eng.global_round(), before + s2.rounds);
        assert_eq!(eng.total.rounds, s1.rounds + s2.rounds);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let n = 600; // above the parallel threshold
        let run = |threads: usize| {
            let mut eng = Engine::new(NetConfig::new(n, 99).with_threads(threads));
            let mut states = vec![RelayState::default(); n];
            let stats = eng.execute(&RingRelay { hops: 9 }, &mut states).unwrap();
            (stats, states.iter().map(|s| s.received).collect::<Vec<_>>())
        };
        let (s1, r1) = run(1);
        let (s4, r4) = run(4);
        assert_eq!(s1, s4);
        assert_eq!(r1, r4);
    }

    #[test]
    fn trace_sink_sees_drops() {
        let n = 512;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let cap = eng.config().capacity.recv;
        let mut states = vec![(); n];
        let stats = eng.execute(&Flood, &mut states).unwrap();
        assert_eq!(stats.dropped, (n - 1 - cap) as u64);
    }

    /// Quiescence: a program that never sends ends after the init round.
    struct Silent;
    impl NodeProgram for Silent {
        type State = ();
        type Payload = ();
        fn init(&self, _st: &mut (), _ctx: &mut Ctx<'_, ()>) {}
        fn round(&self, _st: &mut (), _inbox: &[Envelope<()>], _ctx: &mut Ctx<'_, ()>) {}
    }

    #[test]
    fn silent_program_quiesces_immediately() {
        let mut eng = Engine::new(NetConfig::new(16, 0));
        let mut states = vec![(); 16];
        let stats = eng.execute(&Silent, &mut states).unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.sent, 0);
    }

    #[test]
    fn step_threads_are_capped_at_the_cores() {
        // Round 0 steps all 10⁵ nodes; one thread per chunk of one node
        // each would exhaust the OS and abort the process.
        let n = 100_000;
        let mut eng = Engine::new(NetConfig::new(n, 0).with_threads(n));
        let stats = eng.execute(&Silent, &mut vec![(); n]).unwrap();
        assert_eq!(stats.rounds, 1);
        assert_eq!(eng.config().threads, n, "the configured count stays as set");
    }

    /// stay_awake keeps a node running without messages.
    struct CountDown;
    impl NodeProgram for CountDown {
        type State = u32;
        type Payload = ();
        fn init(&self, st: &mut u32, ctx: &mut Ctx<'_, ()>) {
            *st = 5;
            ctx.stay_awake();
        }
        fn round(&self, st: &mut u32, _inbox: &[Envelope<()>], ctx: &mut Ctx<'_, ()>) {
            *st -= 1;
            if *st > 0 {
                ctx.stay_awake();
            }
        }
    }

    #[test]
    fn stay_awake_drives_rounds() {
        let mut eng = Engine::new(NetConfig::new(4, 0));
        let mut states = vec![0u32; 4];
        let stats = eng.execute(&CountDown, &mut states).unwrap();
        assert_eq!(stats.rounds, 6);
        assert!(states.iter().all(|&s| s == 0));
    }

    /// Only node 0 does anything after round 0: it counts down via
    /// stay_awake and occasionally pings a far-away node.
    struct LoneWalker {
        ticks: u32,
    }
    impl NodeProgram for LoneWalker {
        type State = u32;
        type Payload = u64;
        fn init(&self, st: &mut u32, ctx: &mut Ctx<'_, u64>) {
            if ctx.id == 0 {
                *st = self.ticks;
                ctx.stay_awake();
            }
        }
        fn round(&self, st: &mut u32, _inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            if ctx.id == 0 && *st > 0 {
                *st -= 1;
                if (*st).is_multiple_of(7) {
                    ctx.send((ctx.n as u32) / 2, *st as u64);
                }
                if *st > 0 {
                    ctx.stay_awake();
                }
            }
        }
    }

    #[test]
    fn quiescent_tail_costs_o_active_not_o_n() {
        // One active node on n=10⁵ for a 500-round tail. With the dirty-set
        // scheduler each tail round costs O(1); `node_rounds` (sum_active)
        // certifies the engine stepped n + ticks nodes, not rounds × n.
        let n = 100_000;
        let ticks = 500u32;
        let mut eng = Engine::new(NetConfig::new(n, 7));
        let mut states = vec![0u32; n];
        let stats = eng.execute(&LoneWalker { ticks }, &mut states).unwrap();
        assert_eq!(stats.peak_active, n as u64);
        // Round 0 steps all n; each later round steps node 0 plus at most
        // one ping recipient.
        assert!(stats.rounds > ticks as u64);
        assert!(stats.node_rounds < n as u64 + 2 * ticks as u64 + 2);
        assert_eq!(states[0], 0);
    }

    #[test]
    fn peak_active_tracks_widest_round() {
        let mut eng = Engine::new(NetConfig::new(64, 3));
        let mut states = vec![0u32; 64];
        let stats = eng.execute(&LoneWalker { ticks: 10 }, &mut states).unwrap();
        assert_eq!(stats.peak_active, 64); // round 0 inits everyone
        assert!(stats.node_rounds < 64 + 2 * 10 + 2);
    }

    #[test]
    fn scratch_reuse_matches_fresh_engines_across_programs() {
        // One engine reused across heterogeneous executions (different
        // payload types, different n is impossible — cfg pins n — but
        // programs and activity shapes vary) must match fresh engines.
        let mut reused = Engine::new(NetConfig::new(64, 11));
        let mut s1 = vec![RelayState::default(); 64];
        let r1 = reused.execute(&RingRelay { hops: 3 }, &mut s1).unwrap();
        let mut s2 = vec![0u32; 64];
        let r2 = reused.execute(&CountDown, &mut s2).unwrap();
        let mut s3 = vec![0u32; 64];
        let r3 = reused.execute(&LoneWalker { ticks: 9 }, &mut s3).unwrap();

        let mut f1 = Engine::new(NetConfig::new(64, 11));
        let mut t1 = vec![RelayState::default(); 64];
        assert_eq!(r1, f1.execute(&RingRelay { hops: 3 }, &mut t1).unwrap());
        // Fresh-engine comparisons for later runs need the same global
        // round offset, which only replay affects drop sampling; CountDown
        // and LoneWalker drop nothing, so stats must match exactly.
        let mut f2 = Engine::new(NetConfig::new(64, 11));
        let mut t2 = vec![0u32; 64];
        let fr2 = f2.execute(&CountDown, &mut t2).unwrap();
        assert_eq!(r2.rounds, fr2.rounds);
        assert_eq!(r2.sent, fr2.sent);
        assert_eq!(s2, t2);
        let mut f3 = Engine::new(NetConfig::new(64, 11));
        let mut t3 = vec![0u32; 64];
        let fr3 = f3.execute(&LoneWalker { ticks: 9 }, &mut t3).unwrap();
        assert_eq!(r3.rounds, fr3.rounds);
        assert_eq!(r3.node_rounds, fr3.node_rounds);
        assert_eq!(s3, t3);
    }

    #[test]
    fn error_exit_leaves_no_stale_awake_bits() {
        // A strict-mode abort happens mid-round, after step set awake bits
        // but before the round cleared them. The next execution on the same
        // engine must not see ghosts of that activity.
        struct AwakeThenOversend;
        impl NodeProgram for AwakeThenOversend {
            type State = ();
            type Payload = u64;
            fn init(&self, _st: &mut (), ctx: &mut Ctx<'_, u64>) {
                ctx.stay_awake();
                if ctx.id == 1 {
                    for d in 0..ctx.n as u32 {
                        ctx.send(d, 0);
                    }
                }
            }
            fn round(&self, _st: &mut (), _i: &[Envelope<u64>], _ctx: &mut Ctx<'_, u64>) {}
        }
        let n = 64;
        let mut eng = Engine::new(NetConfig::new(n, 3));
        let mut states = vec![(); n];
        eng.execute(&AwakeThenOversend, &mut states).unwrap_err();
        let mut silent_states = vec![(); n];
        let stats = eng.execute(&Silent, &mut silent_states).unwrap();
        assert_eq!(stats.rounds, 1, "stale awake bits leaked across executes");
    }

    #[test]
    fn round_limit_enforced() {
        struct Forever;
        impl NodeProgram for Forever {
            type State = ();
            type Payload = ();
            fn init(&self, _st: &mut (), ctx: &mut Ctx<'_, ()>) {
                ctx.stay_awake();
            }
            fn round(&self, _st: &mut (), _i: &[Envelope<()>], ctx: &mut Ctx<'_, ()>) {
                ctx.stay_awake();
            }
        }
        let mut cfg = NetConfig::new(2, 0);
        cfg.max_rounds = 50;
        let mut eng = Engine::new(cfg);
        let mut states = vec![(); 2];
        let err = eng.execute(&Forever, &mut states).unwrap_err();
        assert_eq!(err, ModelError::RoundLimitExceeded { limit: 50 });
    }

    /// At local round r every node sends r + 1 messages, for `rounds`
    /// rounds: a send volume that climbs through several buffer growths.
    struct Ramp {
        rounds: u64,
    }
    impl NodeProgram for Ramp {
        type State = ();
        type Payload = u64;
        fn init(&self, st: &mut (), ctx: &mut Ctx<'_, u64>) {
            self.round(st, &[], ctx);
        }
        fn round(&self, _st: &mut (), _inbox: &[Envelope<u64>], ctx: &mut Ctx<'_, u64>) {
            if ctx.round < self.rounds {
                for i in 0..=ctx.round {
                    ctx.send((ctx.id + 1 + i as u32) % ctx.n as u32, i);
                }
                ctx.stay_awake();
            }
        }
    }

    /// The flat send buffer and the inbox arena grow by a factor of at
    /// most 1.125, not by doubling: after a run whose busiest round
    /// carries k messages each holds at most k + k/8 + one node's sends
    /// (doubling would hold 1 024 slots for the 576 here), and a replay
    /// keeps them as they are.
    #[test]
    fn send_buffers_grow_boundedly() {
        for (n, threads) in [(64, 1), (256, 2)] {
            let rounds = 9u64;
            let (k, per_node) = (n * rounds as usize, rounds as usize);
            let mut eng = Engine::new(NetConfig::new(n, 5).with_threads(threads));
            let mut states = vec![(); n];
            let stats = eng.execute(&Ramp { rounds }, &mut states).unwrap();
            assert_eq!(stats.max_out, per_node as u64);
            let bufs = eng.scratch.bufs::<u64>();
            let caps = (bufs.sends.capacity(), bufs.arena.capacity());
            for cap in [caps.0, caps.1] {
                assert!(cap >= k, "n={n}: {cap} slots, busiest round {k}");
                assert!(cap <= k + k / 8 + per_node, "n={n}: {cap} slots for {k}");
            }
            eng.execute(&Ramp { rounds }, &mut states).unwrap();
            let bufs = eng.scratch.bufs::<u64>();
            assert_eq!((bufs.sends.capacity(), bufs.arena.capacity()), caps);
        }
    }
}
