//! Batched message routing: the delivery phase of the round engine.
//!
//! Delivery is one counting sort over the round's flat send buffer, and
//! every round of every model runs the same four steps:
//!
//! 1. **count** — one pass over the sends builds the per-destination
//!    in-degree table (this is also the `max_in` measurement);
//! 2. **prefix** — an exclusive prefix sum turns counts into bucket offsets
//!    into a single flat inbox arena;
//! 3. **scatter** — each envelope is moved (not cloned) into its bucket
//!    slot; within a bucket, arrival order is exactly global send order,
//!    i.e. `(sender, send order)`, preserving the documented ordering
//!    contract;
//! 4. **settle** — the active [`NetworkModel`]'s [`RecvPolicy`] decides
//!    which messages of each bucket survive: [`RecvPolicy::NodeCap`] keeps
//!    a seeded-random subset of an over-full bucket (partial Fisher–Yates
//!    keyed by `(seed, round, destination)`), [`RecvPolicy::EdgeCap`] keeps
//!    the first `edge_cap` arrivals per sender (Congested-Clique edge
//!    bandwidth), [`RecvPolicy::Hybrid`] budgets local-edge arrivals per
//!    sender and samples the global remainder under the node cap, and
//!    [`RecvPolicy::Unlimited`] delivers everything. Buckets are compacted
//!    in place, keeping survivor arrival order. One routine applies the
//!    policy to one bucket; nothing else in the router knows the variants.
//!
//! ## One dispatch, decided from the round itself
//!
//! The steps walk a **destination sequence**, and the round's send volume
//! alone picks it:
//!
//! * `sends × 8 < n` — a *sparse* round walks only its distinct
//!   destinations (collected on first touch, then sorted), so it costs
//!   O(sends · log sends) and never scans a full table;
//! * otherwise the round walks `0..n`, the classic dense counting sort.
//!
//! Every round runs on the calling thread. The route is a memory-bound
//! counting sort, and the only registered algorithms that route a large
//! round every round (`broadcast`, `gossip`) ran slower with a
//! partitioned one, so there is none.
//!
//! The router maintains an **occupied-destination list** (ascending ids of
//! the buckets that kept at least one message) and two cross-round
//! invariants: the count table is all zeros between rounds, and a bucket
//! length is non-zero only for occupied destinations. Clearing a round is
//! therefore O(occupied) — an empty round is O(1). Consumers
//! ([`Router::occupied`]) get the same list to drive the engine's activity
//! scheduling.
//!
//! ## Steady-state zero allocation
//!
//! All buffers — the inbox arena, the offset/length/count/cursor tables,
//! and the settle scratch (Fisher–Yates permutations, per-sender stamp
//! counters, survivor index lists) — are owned by the `Router` and reused
//! across rounds. After the high-water round of an execution, routing
//! performs **no heap allocation at all**; `route` only clears and refills
//! what it owns. (The arena grows to the largest round's send volume and
//! stays there.) The payload-independent tables live in a detachable
//! [`RouterScratch`], so a long-lived owner (the engine) can recycle them
//! across whole executions too.
//!
//! ## Determinism
//!
//! Survivor choices depend only on `(seed, round, destination)` and bucket
//! content. A test-side reference implementation checks every policy
//! against the sparse and dense routes.

use rand::Rng;

use crate::network::{Lane, Ncc, NetworkModel, RecvPolicy};
use crate::payload::{Envelope, Payload};
use crate::rng::network_rng;
use crate::NodeId;

/// A round is sparse — it walks its touched destinations, not `0..n` —
/// when `sends × SPARSE_FACTOR < n`: below that, collecting and sorting the
/// ≤ `sends` distinct destinations costs far less than three O(n) table
/// passes. At or above it, the straight-line scans win.
const SPARSE_FACTOR: usize = 8;

/// What the network did with one round's sends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteReport {
    /// Messages placed into inboxes.
    pub delivered: u64,
    /// Messages dropped by the receive policy (node-cap sampling or
    /// pairwise edge budgets).
    pub dropped: u64,
    /// Largest pre-drop in-degree of any destination.
    pub max_in: u64,
    /// Destinations that lost at least one message this round.
    pub over_cap_dsts: u64,
    /// Largest per-ordered-edge load (only measured by pairwise policies;
    /// 0 under [`RecvPolicy::NodeCap`] / [`RecvPolicy::Unlimited`]).
    pub max_edge_load: u64,
}

/// Settle scratch: everything the settle step needs to apply a receive
/// policy to a bucket. Reused across rounds.
#[derive(Default)]
struct SampleScratch {
    /// Fisher–Yates permutation buffer (node-cap sampling).
    perm: Vec<u32>,
    /// Survivor bucket indices, ascending (pairwise policies).
    keep: Vec<u32>,
    /// Global-lane bucket indices (hybrid policy).
    globals: Vec<u32>,
    /// Stamped per-sender arrival counters (pairwise policies); lazily
    /// sized to `n` the first time a pairwise policy routes.
    edge_stamp: Vec<u64>,
    edge_cnt: Vec<u32>,
    stamp: u64,
}

impl SampleScratch {
    fn ensure_edges(&mut self, n: usize) {
        if self.edge_stamp.len() < n {
            self.edge_stamp.resize(n, 0);
            self.edge_cnt.resize(n, 0);
        }
    }

    /// Counts one more arrival from `src` in the current bucket and returns
    /// the running per-sender total (saturating — `u32::MAX` arrivals from
    /// one sender are beyond any real round, but unbounded caps must never
    /// wrap the counter).
    #[inline]
    fn bump(&mut self, src: NodeId) -> u32 {
        let s = src as usize;
        if self.edge_stamp[s] != self.stamp {
            self.edge_stamp[s] = self.stamp;
            self.edge_cnt[s] = 0;
        }
        self.edge_cnt[s] = self.edge_cnt[s].saturating_add(1);
        self.edge_cnt[s]
    }
}

/// Every payload-independent routing table a [`Router`] owns: the
/// per-destination offset/length/count/cursor tables, the settle scratch,
/// the drop list, and the occupied-destination list.
///
/// [`Router<P>`] is generic over the payload (its inbox arena holds
/// `Envelope<P>`), but these tables — the O(n) part of a router's memory —
/// are not. Splitting them out lets a non-generic owner (the `Engine`)
/// keep them alive across `execute` calls of *different* programs:
/// [`Router::with_recycled`] adopts them, [`Router::into_recycled`] hands
/// them back, and steady-state replays (`ncc-serve` resident engines)
/// stop paying an O(n) allocation per execution.
///
/// Between rounds the tables hold two invariants the sparse walk relies
/// on: `counts` is all zeros, and `len[d] != 0` only for `d ∈ occupied`.
/// Every route restores both before returning.
#[derive(Default)]
pub struct RouterScratch {
    /// Pre-drop bucket offsets into the arena (exclusive prefix of
    /// `counts` over the round's destinations).
    start: Vec<u32>,
    /// Post-drop bucket lengths.
    len: Vec<u32>,
    /// Pre-drop per-destination in-degrees; all zeros between rounds.
    counts: Vec<u32>,
    /// Scatter cursors: each destination's next free arena slot.
    cursor: Vec<u32>,
    sample: SampleScratch,
    /// `(destination, dropped)` for every lossy destination this round,
    /// ascending by destination.
    drops: Vec<(NodeId, u32)>,
    /// Destinations with a non-empty inbox after the last routed round,
    /// ascending — the delivery half of the engine's next active set.
    occupied: Vec<NodeId>,
    /// A sparse round's distinct destinations.
    touched: Vec<NodeId>,
    /// Radix histogram for the touched-destination sort (257 slots: one
    /// per high-byte bucket plus the classic +1 prefix offset).
    radix_counts: Vec<u32>,
    /// Radix scatter buffer, sized to the touched list being sorted.
    radix_buf: Vec<NodeId>,
}

impl RouterScratch {
    /// Grows the tables to cover `n` destinations and clears any bucket
    /// state left over from a previous owner. Growth-only: adopting a
    /// smaller-`n` router keeps the larger tables (the occupied list
    /// bounds every non-zero `len` entry, so stale tails are harmless).
    fn ensure(&mut self, n: usize) {
        if self.start.len() < n {
            self.start.resize(n, 0);
            self.len.resize(n, 0);
            self.counts.resize(n, 0);
            self.cursor.resize(n, 0);
        }
        // A completed execution ends quiescent (nothing delivered in its
        // final round), but an aborted one may leave buckets filled.
        for &d in &self.occupied {
            self.len[d as usize] = 0;
        }
        self.occupied.clear();
        self.drops.clear();
    }

    /// Bytes of heap the tables currently hold — the payload-independent
    /// part of a resident engine's per-node memory footprint.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let sample = &self.sample;
        (self.start.capacity()
            + self.len.capacity()
            + self.counts.capacity()
            + self.cursor.capacity()
            + self.radix_counts.capacity()
            + sample.perm.capacity()
            + sample.keep.capacity()
            + sample.globals.capacity()
            + sample.edge_cnt.capacity())
            * size_of::<u32>()
            + sample.edge_stamp.capacity() * size_of::<u64>()
            + self.drops.capacity() * size_of::<(NodeId, u32)>()
            + (self.occupied.capacity() + self.touched.capacity() + self.radix_buf.capacity())
                * size_of::<NodeId>()
    }
}

/// Minimum touched-list length before the radix path pays for itself;
/// below it a plain `sort_unstable` wins on constants.
const RADIX_MIN: usize = 64;

/// Sorts the round's distinct destinations ascending. For long lists this
/// is a two-pass radix bucket — histogram on the high byte of the id
/// range, scatter into `buf`, then an in-place `sort_unstable` per bucket
/// — which turns the full-list comparison sort into 256 cache-resident
/// small sorts. Output is identical to `sort_unstable` (the ids are
/// distinct, so equal-key order cannot matter).
fn sort_touched(touched: &mut [NodeId], n: usize, counts: &mut Vec<u32>, buf: &mut Vec<NodeId>) {
    if touched.len() < RADIX_MIN {
        touched.sort_unstable();
        return;
    }
    // high byte of the largest possible id: bucket b covers ids with
    // `id >> shift == b`, so buckets partition the range in order
    let bits = usize::BITS - (n - 1).leading_zeros();
    let shift = bits.saturating_sub(8);
    counts.clear();
    counts.resize(257, 0);
    for &d in touched.iter() {
        counts[(d >> shift) as usize + 1] += 1;
    }
    for b in 0..256 {
        counts[b + 1] += counts[b];
    }
    buf.clear();
    buf.resize(touched.len(), 0);
    for &d in touched.iter() {
        let b = (d >> shift) as usize;
        buf[counts[b] as usize] = d;
        counts[b] += 1;
    }
    // after the scatter `counts[b]` is bucket b's *end* offset
    let mut lo = 0usize;
    for b in 0..256 {
        let hi = counts[b] as usize;
        buf[lo..hi].sort_unstable();
        lo = hi;
    }
    touched.copy_from_slice(buf);
}

/// Reusable batched router: owns the flat inbox arena and every piece of
/// scratch the delivery phase needs. One `Router` lives for the duration of
/// an [`crate::Engine::execute`] call and is recycled every round.
pub struct Router<P> {
    n: usize,
    seed: u64,
    /// Flat inbox arena; bucket `d` occupies `start[d] .. start[d] + len[d]`.
    arena: Vec<Envelope<P>>,
    /// All payload-independent tables (see [`RouterScratch`]).
    sc: RouterScratch,
}

impl<P: Payload> Router<P> {
    /// A router for `n` destinations whose drop choices are keyed by
    /// `seed`. The third argument is ignored: every round is routed on
    /// the calling thread. It stays only so existing callers compile.
    pub fn new(n: usize, seed: u64, _threads: usize) -> Self {
        Self::with_recycled(n, seed, RouterScratch::default(), Vec::new())
    }

    /// Builds a router around previously used tables and a previously used
    /// inbox arena of the same payload type, so a long-lived owner (the
    /// engine) pays neither the O(n) table allocation nor the O(messages)
    /// arena allocation on repeat executions. The tables are grown to `n`
    /// and their bucket state cleared; the arena is cleared but keeps its
    /// capacity. Recover both with [`Router::into_recycled`] when the
    /// execution finishes.
    pub fn with_recycled(
        n: usize,
        seed: u64,
        mut sc: RouterScratch,
        mut arena: Vec<Envelope<P>>,
    ) -> Self {
        sc.ensure(n);
        arena.clear();
        Router { n, seed, arena, sc }
    }

    /// Releases the tables (reusable by a router of any payload type) and
    /// the typed inbox arena, the counterpart of [`Router::with_recycled`].
    pub fn into_recycled(self) -> (RouterScratch, Vec<Envelope<P>>) {
        (self.sc, self.arena)
    }

    /// The messages delivered to `node` in the last routed round, in
    /// `(sender, send order)` order.
    #[inline]
    pub fn inbox(&self, node: NodeId) -> &[Envelope<P>] {
        let d = node as usize;
        let l = self.sc.len[d] as usize;
        if l == 0 {
            // `start` may be stale after an empty round; never index with it.
            return &[];
        }
        let s = self.sc.start[d] as usize;
        &self.arena[s..s + l]
    }

    /// `(destination, dropped count)` pairs of the last routed round,
    /// ascending by destination.
    #[inline]
    pub fn drops(&self) -> &[(NodeId, u32)] {
        &self.sc.drops
    }

    /// Destinations that received at least one message in the last routed
    /// round, ascending. These buckets hold *all* of the round's mail, so
    /// consumers (next-active construction, tracing, cost accounting) can
    /// skip the other `n - occupied().len()` nodes without looking at them.
    #[inline]
    pub fn occupied(&self) -> &[NodeId] {
        &self.sc.occupied
    }

    /// Routes one round's flat send buffer with NCC semantics: at most
    /// `recv` messages per destination, seeded-random drops. Equivalent to
    /// [`Router::route_model`] with [`RecvPolicy::NodeCap`] and the
    /// default [`Ncc`] model.
    pub fn route(&mut self, sends: &mut Vec<Envelope<P>>, round: u64, recv: usize) -> RouteReport {
        self.route_model(sends, round, RecvPolicy::NodeCap { recv }, &Ncc)
    }

    /// Routes one round's flat send buffer into the inbox arena under the
    /// given receive policy. Drains `sends`; envelopes are moved, never
    /// cloned. Drop choices are keyed by `(seed, round, destination)`.
    /// `model` is consulted only by the [`RecvPolicy::Hybrid`] policy, for
    /// per-message lane classification.
    ///
    /// A sparse round walks only its distinct destinations, sorted —
    /// O(sends · log sends), no O(n) scan; a dense round walks `0..n`. The
    /// sorted touched list visits the same non-empty destinations in the
    /// same ascending order as the full walk, so bucket layout, drop
    /// choices, the occupied list and the report do not depend on which
    /// sequence was walked.
    pub fn route_model(
        &mut self,
        sends: &mut Vec<Envelope<P>>,
        round: u64,
        policy: RecvPolicy,
        model: &dyn NetworkModel,
    ) -> RouteReport {
        let total = sends.len();
        // Hard assert: the scatter's raw writes land at u32 prefix sums,
        // and a wrap there would mean out-of-bounds writes. One comparison
        // per round is free next to the routing work itself.
        assert!(
            total <= u32::MAX as usize,
            "round send volume overflows u32 offsets"
        );
        let sc = &mut self.sc;
        // Clear the previous round's buckets. The occupied list names every
        // destination with a non-zero length, so this is O(occupied) — an
        // empty round costs O(1), not O(n).
        for &d in &sc.occupied {
            sc.len[d as usize] = 0;
        }
        sc.occupied.clear();
        sc.drops.clear();
        if total == 0 {
            self.arena.clear();
            return RouteReport::default();
        }
        let rule = Rule {
            policy,
            model,
            n: self.n,
            seed: self.seed,
            round,
        };
        // `counts` is all zeros on entry (router invariant)
        if total.saturating_mul(SPARSE_FACTOR) >= self.n {
            for e in sends.iter() {
                sc.counts[e.dst as usize] += 1;
            }
            return self.place(0..self.n, sends, rule);
        }
        // detached so that the walk can borrow it beside the router
        let mut touched = std::mem::take(&mut sc.touched);
        touched.clear();
        for e in sends.iter() {
            let d = e.dst as usize;
            // first touch ⟺ count still zero
            if sc.counts[d] == 0 {
                touched.push(e.dst);
            }
            sc.counts[d] += 1;
        }
        sort_touched(
            &mut touched,
            self.n,
            &mut sc.radix_counts,
            &mut sc.radix_buf,
        );
        let report = self.place(touched.iter().map(|&d| d as usize), sends, rule);
        self.sc.touched = touched;
        report
    }

    /// Prefix, scatter and settle over `dsts`: ascending, and covering
    /// every destination with a non-zero count. Generic so that each
    /// sequence gets its own straight-line loops.
    ///
    /// The settle applies the rule to each bucket, records the post-drop
    /// length, and re-zeroes the visited counts (restoring the router's
    /// counts-all-zero invariant); `drops` and `occupied` come out
    /// ascending because `dsts` is.
    fn place(
        &mut self,
        dsts: impl Iterator<Item = usize> + Clone,
        sends: &mut Vec<Envelope<P>>,
        rule: Rule<'_>,
    ) -> RouteReport {
        let Router { arena, sc, .. } = self;

        // prefix
        let mut run = 0u32;
        for d in dsts.clone() {
            sc.start[d] = run;
            sc.cursor[d] = run;
            run += sc.counts[d];
        }
        debug_assert_eq!(run as usize, sends.len());

        // scatter (every send's destination is in the sequence, so every
        // cursor it reads was initialised by the prefix above)
        scatter(arena, &mut sc.cursor, sends);

        // settle
        let mut report = RouteReport::default();
        for d in dsts {
            let c = sc.counts[d] as usize;
            sc.counts[d] = 0;
            if c == 0 {
                continue;
            }
            let s = sc.start[d] as usize;
            // a bucket the policy keeps whole is never located, let alone read
            let out = rule.settle_bucket(c, d as NodeId, &mut sc.sample, || &mut arena[s..s + c]);
            sc.len[d] = out.kept as u32;
            report.max_in = report.max_in.max(c as u64);
            report.delivered += out.kept as u64;
            report.max_edge_load = report.max_edge_load.max(out.max_edge);
            if out.kept > 0 {
                sc.occupied.push(d as NodeId);
            }
            if out.kept < c {
                report.dropped += (c - out.kept) as u64;
                report.over_cap_dsts += 1;
                sc.drops.push((d as NodeId, (c - out.kept) as u32));
            }
        }
        report
    }
}

/// Makes room for `more` pushes, growing the capacity to at most
/// `max(len + more, 1.125 · capacity)` instead of doubling it. The engine's
/// flat send buffer and the router's arena live as long as their engine
/// and keep the capacity of its busiest round, so doubling would hold up
/// to twice that round's messages for good; a 1.125 factor still
/// amortises, and a replay of the same rounds grows nothing.
pub(crate) fn reserve_bounded<T>(v: &mut Vec<T>, more: usize) {
    let need = v.len() + more;
    if v.capacity() < need {
        v.reserve_exact(need.max(v.capacity() + v.capacity() / 8) - v.len());
    }
}

/// Moves one round's sends into the arena at the slots named by `cursor`
/// (each destination's cursor advances as its bucket fills). The cursor
/// table must hold an exclusive prefix over the sends' destinations.
fn scatter<P: Payload>(
    arena: &mut Vec<Envelope<P>>,
    cursor: &mut [u32],
    sends: &mut Vec<Envelope<P>>,
) {
    let total = sends.len();
    arena.clear();
    reserve_bounded(arena, total);
    let base = arena.as_mut_ptr();
    for e in sends.drain(..) {
        let pos = cursor[e.dst as usize];
        cursor[e.dst as usize] = pos + 1;
        // SAFETY: `pos` < `total` ≤ reserved capacity, and the exclusive
        // prefix guarantees each slot is written exactly once;
        // `ptr::write` takes ownership of `e` without dropping the slot.
        unsafe { std::ptr::write(base.add(pos as usize), e) };
    }
    // SAFETY: all `total` slots were initialised by the scatter above.
    unsafe { arena.set_len(total) };
}

/// The network's receive rule for one round: the policy with everything
/// its survivor choices are keyed by.
#[derive(Clone, Copy)]
struct Rule<'a> {
    policy: RecvPolicy,
    /// Consulted by [`RecvPolicy::Hybrid`] only, to classify lanes.
    model: &'a dyn NetworkModel,
    n: usize,
    seed: u64,
    round: u64,
}

/// What the rule left of one bucket.
struct Settled {
    /// Survivors, now at the front of the bucket in arrival order.
    kept: usize,
    /// Largest per-sender arrival count (pairwise policies; else 0).
    max_edge: u64,
}

impl Rule<'_> {
    /// Applies the receive policy to one destination bucket, in place —
    /// the one place a policy variant is told apart. Survivors end at the
    /// front of the bucket, in arrival order.
    ///
    /// `c` is the bucket's length; `bucket` fetches it, and is only called
    /// when the policy has to look inside. Inlined into the settle loop:
    /// most buckets of most rounds are kept whole, and for those this is a
    /// comparison.
    #[inline]
    fn settle_bucket<'b, P: 'b>(
        &self,
        c: usize,
        dst: NodeId,
        sc: &mut SampleScratch,
        bucket: impl FnOnce() -> &'b mut [Envelope<P>],
    ) -> Settled {
        let whole = Settled {
            kept: c,
            max_edge: 0,
        };
        match self.policy {
            RecvPolicy::Unlimited => whole,
            RecvPolicy::NodeCap { recv } if c <= recv => whole,
            RecvPolicy::NodeCap { recv } => {
                sample_survivors(&mut sc.perm, c, recv, self.seed, self.round, dst);
                compact_bucket(bucket(), &sc.perm[..recv]);
                Settled {
                    kept: recv,
                    max_edge: 0,
                }
            }
            RecvPolicy::EdgeCap { edge_cap } => {
                self.budget_edges(bucket(), dst, sc, edge_cap, usize::MAX, false)
            }
            RecvPolicy::Hybrid {
                recv,
                local_edge_cap,
            } => self.budget_edges(bucket(), dst, sc, local_edge_cap, recv, true),
        }
    }

    /// The pairwise policies. Edge-budgeted arrivals — all of them, or with
    /// `split_lanes` the [`Lane::Local`] ones — keep the **first**
    /// `edge_cap` messages per sender (a deterministic choice: edge
    /// bandwidth is a FIFO pipe, not a lottery); the global arrivals are
    /// sampled under `recv` with the same seeded partial Fisher–Yates as
    /// the node cap, applied to the global sub-sequence of the bucket.
    fn budget_edges<P>(
        &self,
        bucket: &mut [Envelope<P>],
        dst: NodeId,
        sc: &mut SampleScratch,
        edge_cap: usize,
        recv: usize,
        split_lanes: bool,
    ) -> Settled {
        sc.ensure_edges(self.n);
        sc.keep.clear();
        sc.globals.clear();
        sc.stamp += 1;
        let mut max_edge = 0u64;
        for (i, e) in bucket.iter().enumerate() {
            let local = !split_lanes || self.model.lane(e.src, dst) == Lane::Local;
            if local {
                let cnt = sc.bump(e.src);
                max_edge = max_edge.max(cnt as u64);
                if (cnt as usize) <= edge_cap {
                    sc.keep.push(i as u32);
                }
            } else {
                sc.globals.push(i as u32);
            }
        }
        let g = sc.globals.len();
        if g > recv {
            sample_survivors(&mut sc.perm, g, recv, self.seed, self.round, dst);
            for &gi in &sc.perm[..recv] {
                sc.keep.push(sc.globals[gi as usize]);
            }
        } else {
            sc.keep.extend_from_slice(&sc.globals);
        }
        sc.keep.sort_unstable();
        let kept = sc.keep.len();
        if kept < bucket.len() {
            compact_bucket(bucket, &sc.keep);
        }
        Settled { kept, max_edge }
    }
}

/// Selects `recv` survivors out of `c` arrivals with the partial
/// Fisher–Yates of the seed engine (same RNG keying, same call sequence,
/// hence the same survivor set), then sorts them into arrival order so the
/// in-place compaction preserves the ordering contract.
fn sample_survivors(
    perm: &mut Vec<u32>,
    c: usize,
    recv: usize,
    seed: u64,
    round: u64,
    dst: NodeId,
) {
    perm.clear();
    perm.extend(0..c as u32);
    let mut rng = network_rng(seed, round, dst);
    for i in 0..recv {
        let j = rng.gen_range(i..c);
        perm.swap(i, j);
    }
    perm[..recv].sort_unstable();
}

/// Moves the survivors (ascending arrival indices) to the front of the
/// bucket, preserving their relative order. Standard swap compaction: when
/// the `w`-th survivor sits at index `r ≥ w`, positions `< w` already hold
/// earlier survivors and no earlier swap touched index `r`.
fn compact_bucket<P>(bucket: &mut [Envelope<P>], survivors: &[u32]) {
    for (w, &r) in survivors.iter().enumerate() {
        let r = r as usize;
        if w != r {
            bucket.swap(w, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{CongestedClique, HybridLocal};

    impl<P: Payload> Router<P> {
        /// Whether `node` received at least one message in the last routed round.
        #[inline]
        fn has_mail(&self, node: NodeId) -> bool {
            self.sc.len[node as usize] > 0
        }
    }

    fn env(src: NodeId, dst: NodeId, payload: u64) -> Envelope<u64> {
        Envelope::new(src, dst, payload)
    }

    #[test]
    fn routes_to_buckets_in_send_order() {
        let mut r: Router<u64> = Router::new(4, 7, 1);
        let mut sends = vec![env(0, 2, 10), env(1, 0, 11), env(2, 2, 12), env(3, 0, 13)];
        let rep = r.route(&mut sends, 0, 100);
        assert!(sends.is_empty());
        assert_eq!(rep.delivered, 4);
        assert_eq!(rep.dropped, 0);
        assert_eq!(rep.max_in, 2);
        assert_eq!(r.inbox(0), &[env(1, 0, 11), env(3, 0, 13)]);
        assert_eq!(r.inbox(1), &[]);
        assert_eq!(r.inbox(2), &[env(0, 2, 10), env(2, 2, 12)]);
        assert!(r.has_mail(0) && !r.has_mail(1));
    }

    #[test]
    fn receive_cap_drops_and_preserves_survivor_order() {
        let n = 8;
        let mut r: Router<u64> = Router::new(n, 99, 1);
        let mut sends: Vec<_> = (0..32).map(|i| env(i % n as u32, 5, i as u64)).collect();
        let rep = r.route(&mut sends, 3, 4);
        assert_eq!(rep.delivered, 4);
        assert_eq!(rep.dropped, 28);
        assert_eq!(rep.over_cap_dsts, 1);
        assert_eq!(r.drops(), &[(5, 28)]);
        let delivered: Vec<u64> = r.inbox(5).iter().map(|e| e.payload).collect();
        // survivors keep arrival order
        let mut sorted = delivered.clone();
        sorted.sort_unstable();
        assert_eq!(delivered, sorted);
        assert_eq!(delivered.len(), 4);
    }

    #[test]
    fn empty_round_clears_state() {
        let mut r: Router<u64> = Router::new(4, 7, 1);
        let mut sends = vec![env(0, 1, 5)];
        r.route(&mut sends, 0, 8);
        assert!(r.has_mail(1));
        let rep = r.route(&mut Vec::new(), 1, 8);
        assert_eq!(rep, RouteReport::default());
        assert!(!r.has_mail(1));
        assert_eq!(r.inbox(1), &[]);
    }

    #[test]
    fn edge_cap_keeps_first_per_sender_and_measures_load() {
        let n = 4;
        let cc = CongestedClique::new(2);
        let mut r: Router<u64> = Router::new(n, 7, 1);
        // node 0 sends 4 to dst 1; node 2 sends 1 to dst 1; node 3 sends 3 to dst 3
        let mut sends = vec![
            env(0, 1, 10),
            env(0, 1, 11),
            env(2, 1, 20),
            env(0, 1, 12),
            env(0, 1, 13),
            env(3, 3, 30),
            env(3, 3, 31),
            env(3, 3, 32),
        ];
        let rep = r.route_model(
            &mut sends,
            0,
            cc.recv_policy(&crate::Capacity::unbounded()),
            &cc,
        );
        // dst 1: first two of node 0 + node 2's single message survive
        assert_eq!(r.inbox(1), &[env(0, 1, 10), env(0, 1, 11), env(2, 1, 20)]);
        // dst 3: first two of node 3
        assert_eq!(r.inbox(3), &[env(3, 3, 30), env(3, 3, 31)]);
        assert_eq!(rep.delivered, 5);
        assert_eq!(rep.dropped, 3);
        assert_eq!(rep.over_cap_dsts, 2);
        assert_eq!(rep.max_edge_load, 4);
        assert_eq!(rep.delivered + rep.dropped, 8);
        assert_eq!(r.drops(), &[(1, 2), (3, 1)]);
    }

    #[test]
    fn hybrid_budgets_local_edges_and_samples_globals() {
        let n = 6;
        // local edges: 0-1, 1-2
        let h = HybridLocal::from_edges(n, [(0, 1), (1, 2)], 1);
        let recv = 2;
        let policy = RecvPolicy::Hybrid {
            recv,
            local_edge_cap: 1,
        };
        let mut r: Router<u64> = Router::new(n, 5, 1);
        // dst 1 gets: 2 local from 0 (one over the edge budget), 1 local
        // from 2, and 4 globals from 3/4/5/3 (two over the recv cap).
        let mut sends = vec![
            env(0, 1, 1),
            env(0, 1, 2),
            env(2, 1, 3),
            env(3, 1, 4),
            env(4, 1, 5),
            env(5, 1, 6),
            env(3, 1, 7),
        ];
        let rep = r.route_model(&mut sends, 0, policy, &h);
        // locals: first from 0, the one from 2; globals: exactly `recv`
        let inbox = r.inbox(1);
        assert_eq!(inbox.len(), 2 + recv);
        let locals: Vec<u64> = inbox
            .iter()
            .filter(|e| h.is_local(e.src, 1))
            .map(|e| e.payload)
            .collect();
        assert_eq!(locals, vec![1, 3]);
        // arrival order is preserved overall
        let payloads: Vec<u64> = inbox.iter().map(|e| e.payload).collect();
        let mut sorted = payloads.clone();
        sorted.sort_unstable();
        assert_eq!(payloads, sorted);
        assert_eq!(rep.delivered, 4);
        assert_eq!(rep.dropped, 3);
        assert_eq!(rep.max_edge_load, 2);
        assert_eq!(rep.delivered + rep.dropped, 7);
    }

    #[test]
    fn radix_touched_sort_matches_sort_unstable() {
        // adversarial distinct-id distributions at and around the radix
        // gate: clustered in one bucket, spread across all buckets,
        // reversed, and LCG-scrambled.
        let n = 1 << 20;
        let cases: Vec<Vec<NodeId>> = vec![
            (0..RADIX_MIN as u32).rev().collect(), // just at the gate
            (0..300u32).rev().collect(),           // single low bucket
            (0..300u32).map(|i| i * 4096 % (n as u32)).collect(), // every bucket
            (0..4000u32)
                .map(|i| (i.wrapping_mul(2654435761)) % (n as u32))
                .collect(), // scrambled
            (0..90u32).map(|i| (n as u32) - 1 - i).collect(), // top bucket only
        ];
        for mut ids in cases {
            ids.sort_unstable();
            ids.dedup();
            // un-sort deterministically so the sort has work to do
            ids.reverse();
            let mut expect = ids.clone();
            expect.sort_unstable();
            let mut counts = Vec::new();
            let mut buf = Vec::new();
            sort_touched(&mut ids, n, &mut counts, &mut buf);
            assert_eq!(ids, expect);
        }
    }

    #[test]
    fn recycled_arena_reused_across_routers() {
        let n = 256;
        let route_once = |r: &mut Router<u64>, round: u64| {
            let mut sends: Vec<_> = (0..96u32).map(|i| env(i % 5, i % 96, i as u64)).collect();
            r.route(&mut sends, round, 8);
            (r.occupied().to_vec(), r.inbox(7).to_vec())
        };
        let mut fresh: Router<u64> = Router::new(n, 11, 1);
        let expect = route_once(&mut fresh, 0);

        let mut r: Router<u64> = Router::new(n, 11, 1);
        let _ = route_once(&mut r, 0);
        let (sc, arena) = r.into_recycled();
        let cap_before = arena.capacity();
        assert!(cap_before >= 96, "arena should retain capacity");
        let mut r2: Router<u64> = Router::with_recycled(n, 11, sc, arena);
        let got = route_once(&mut r2, 0);
        assert_eq!(got, expect, "recycled router must be bit-identical");
        let (_, arena) = r2.into_recycled();
        assert_eq!(
            arena.capacity(),
            cap_before,
            "no reallocation in steady state"
        );
    }

    #[test]
    fn occupied_lists_nonempty_buckets_ascending() {
        let n = 64;
        let mut r: Router<u64> = Router::new(n, 7, 1);
        // 8 sends on 64 nodes: a dense round
        let mut sends: Vec<_> = [50, 3, 50, 17, 3, 17, 50, 3]
            .iter()
            .enumerate()
            .map(|(i, &dst)| env(i as u32, dst, i as u64))
            .collect();
        r.route(&mut sends, 0, 8);
        assert_eq!(r.occupied(), &[3, 17, 50]);
        for d in 0..n as u32 {
            assert_eq!(r.has_mail(d), r.occupied().contains(&d));
        }
        // empty round clears the occupied list
        r.route(&mut Vec::new(), 1, 8);
        assert!(r.occupied().is_empty());
        assert!(!r.has_mail(50));
    }

    #[test]
    fn occupied_excludes_fully_dropped_buckets() {
        // recv = 0 drops every arrival: the bucket ends empty and must not
        // appear in occupied (has_mail is false — the node stays asleep).
        let mut r: Router<u64> = Router::new(1024, 3, 1);
        let mut sends = vec![env(0, 5, 1), env(1, 5, 2)];
        let rep = r.route(&mut sends, 0, 0);
        assert_eq!(rep.dropped, 2);
        assert!(r.occupied().is_empty());
        assert!(!r.has_mail(5));
    }

    #[test]
    fn scratch_survives_across_routers_and_payload_types() {
        let mut r: Router<u64> = Router::new(8, 1, 1);
        let mut sends = vec![env(0, 1, 5), env(2, 1, 6)];
        r.route(&mut sends, 0, 8);
        assert_eq!(r.inbox(1).len(), 2);
        let (sc, _) = r.into_recycled();
        // adopt the tables for a different payload type; previous bucket
        // state must not leak through
        let mut r2: Router<(u32, u32)> = Router::with_recycled(8, 1, sc, Vec::new());
        assert!(!r2.has_mail(1));
        assert!(r2.occupied().is_empty());
        let mut sends2 = vec![Envelope::new(3, 2, (7u32, 9u32))];
        r2.route(&mut sends2, 1, 8);
        assert_eq!(r2.inbox(2), &[Envelope::new(3, 2, (7u32, 9u32))]);
        assert_eq!(r2.occupied(), &[2]);
        // and a smaller-n adoption still clears correctly
        let (sc, _) = r2.into_recycled();
        let r3: Router<u64> = Router::with_recycled(4, 1, sc, Vec::new());
        assert!(!r3.has_mail(2));
        assert!(r3.occupied().is_empty());
    }

    #[test]
    fn sparse_round_is_never_offered_to_the_threads() {
        // `Router::new` ignores its thread argument: a router built with
        // 4 ends a sparse round (2¹⁶ sends on 2²⁰ nodes) holding the same
        // tables as one built with 1 — no O(n) table per thread.
        let n = 1 << 20;
        let tables_after_round = |threads: usize| {
            let mut r: Router<u64> = Router::new(n, 7, threads);
            let mut sends: Vec<_> = (0..1u32 << 16)
                .map(|i| env(i, i.wrapping_mul(2654435761) % n as u32, i as u64))
                .collect();
            let rep = r.route(&mut sends, 0, 8);
            assert_eq!(rep.delivered + rep.dropped, 1 << 16);
            r.into_recycled().0.resident_bytes()
        };
        assert_eq!(tables_after_round(4), tables_after_round(1));
    }

    #[test]
    fn unlimited_policy_never_drops_even_at_usize_max_counts() {
        let n = 8;
        let mut r: Router<u64> = Router::new(n, 1, 1);
        let mut sends: Vec<_> = (0..512).map(|i| env(i % 8, 0, i as u64)).collect();
        let rep = r.route_model(&mut sends, 0, RecvPolicy::Unlimited, &Ncc);
        assert_eq!(rep.delivered, 512);
        assert_eq!(rep.dropped, 0);
        assert_eq!(r.inbox(0).len(), 512);
    }
}
