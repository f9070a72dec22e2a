//! The router's oracle: one round of delivery written the naive way, for
//! every [`RecvPolicy`].
//!
//! Each destination gets its own `Vec` of arrivals in send order, and the
//! policy is applied to that `Vec` with per-arrival keep flags — no
//! counting sort, no shared arena, no in-place compaction, no stamped
//! counters. For [`RecvPolicy::NodeCap`] this is the seed engine's delivery
//! loop (same RNG keying, same call sequence); the pairwise policies follow
//! their definitions in `ncc_model::network`. The production router must
//! match it bit for bit on every route it can take.

use std::collections::BTreeMap;

use ncc_model::rng::network_rng;
use ncc_model::{Envelope, Lane, NetworkModel, NodeId, Payload, RecvPolicy, RouteReport};
use rand::Rng;

/// Everything a routed round exposes: `Router::inbox` for every node,
/// `drops()`, `occupied()` and the report.
pub struct Routed<P> {
    pub inboxes: Vec<Vec<Envelope<P>>>,
    pub drops: Vec<(NodeId, u32)>,
    pub occupied: Vec<NodeId>,
    pub report: RouteReport,
}

pub fn reference_route<P: Payload>(
    sends: &[Envelope<P>],
    n: usize,
    policy: RecvPolicy,
    model: &dyn NetworkModel,
    seed: u64,
    round: u64,
) -> Routed<P> {
    let mut arrivals: Vec<Vec<Envelope<P>>> = (0..n).map(|_| Vec::new()).collect();
    for e in sends {
        arrivals[e.dst as usize].push(e.clone());
    }
    let mut out = Routed {
        inboxes: Vec::with_capacity(n),
        drops: Vec::new(),
        occupied: Vec::new(),
        report: RouteReport::default(),
    };
    for (dst, bucket) in arrivals.into_iter().enumerate() {
        let dst = dst as NodeId;
        let everyone: Vec<usize> = (0..bucket.len()).collect();
        let mut keep = vec![true; bucket.len()];
        let mut max_edge = 0;
        match policy {
            RecvPolicy::Unlimited => {}
            RecvPolicy::NodeCap { recv } => {
                sample_survivors(&mut keep, &everyone, recv, seed, round, dst);
            }
            RecvPolicy::EdgeCap { edge_cap } => {
                max_edge = first_per_sender(&bucket, &mut keep, &everyone, edge_cap);
            }
            RecvPolicy::Hybrid {
                recv,
                local_edge_cap,
            } => {
                let (locals, globals): (Vec<usize>, Vec<usize>) = everyone
                    .iter()
                    .partition(|&&i| model.lane(bucket[i].src, dst) == Lane::Local);
                max_edge = first_per_sender(&bucket, &mut keep, &locals, local_edge_cap);
                sample_survivors(&mut keep, &globals, recv, seed, round, dst);
            }
        }
        let inbox: Vec<Envelope<P>> = bucket
            .iter()
            .zip(&keep)
            .filter(|&(_, &k)| k)
            .map(|(e, _)| e.clone())
            .collect();
        let dropped = bucket.len() - inbox.len();
        out.report.delivered += inbox.len() as u64;
        out.report.dropped += dropped as u64;
        out.report.max_in = out.report.max_in.max(bucket.len() as u64);
        out.report.max_edge_load = out.report.max_edge_load.max(max_edge);
        if dropped > 0 {
            out.report.over_cap_dsts += 1;
            out.drops.push((dst, dropped as u32));
        }
        if !inbox.is_empty() {
            out.occupied.push(dst);
        }
        out.inboxes.push(inbox);
    }
    out
}

/// The node cap over the arrivals `among` (bucket indices, ascending): if
/// there are more than `recv`, a partial Fisher–Yates keyed by
/// `(seed, round, dst)` picks the `recv` that stay.
fn sample_survivors(
    keep: &mut [bool],
    among: &[usize],
    recv: usize,
    seed: u64,
    round: u64,
    dst: NodeId,
) {
    let c = among.len();
    if c <= recv {
        return;
    }
    let mut idx: Vec<usize> = (0..c).collect();
    let mut rng = network_rng(seed, round, dst);
    for i in 0..recv {
        let j = rng.gen_range(i..c);
        idx.swap(i, j);
    }
    for &i in &idx[recv..] {
        keep[among[i]] = false;
    }
}

/// The edge budget over the arrivals `among`: the first `cap` from each
/// sender stay. Returns the largest number any one sender sent.
fn first_per_sender<P>(
    bucket: &[Envelope<P>],
    keep: &mut [bool],
    among: &[usize],
    cap: usize,
) -> u64 {
    let mut from: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &i in among {
        let sent = from.entry(bucket[i].src).or_insert(0);
        *sent += 1;
        if *sent > cap {
            keep[i] = false;
        }
    }
    from.values().max().map_or(0, |&m| m as u64)
}
