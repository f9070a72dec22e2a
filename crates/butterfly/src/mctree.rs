//! Multicast Tree Setup (Theorem 2.4, Appendix B.3).
//!
//! For multicast groups `A_1..A_N` (each node source of at most one group),
//! builds a multicast tree `T_i` per group inside the butterfly: the root is
//! the uniform level-`d` column `h(i)`, and each member `u ∈ A_i` owns a
//! random level-0 leaf `l(i, u)`. The trees are the union of the paths the
//! members' join-packets take during an aggregation run (same routing, same
//! [`RouteQueue`] contention rule, unit payload) — every butterfly node
//! records, per group, along which in-edges packets arrived.
//!
//! One program does both halves in the same rounds — the [`McSetupSub`]
//! lane, one stage and one [`sync_barrier`](crate::aggregation::sync_barrier);
//! [`multicast_setup`] drives that lane alone, algorithms pack it next to
//! others in a [`Dag`](crate::compose::Dag).
//!
//! Setup time `O(L/n + ℓ/log n + log n)`; the resulting trees have
//! congestion `O(L/n + log n)` w.h.p. (number of trees sharing a butterfly
//! node), which is measured by [`MulticastTrees::congestion`] and validated
//! in experiment E4.

use ncc_hashing::{FxHashMap, SharedRandomness};
use ncc_model::{Ctx, Engine, Envelope, ExecStats, ModelError, NodeId, NodeProgram};
use rand::Rng;

use crate::aggregation::RouteHashes;
use crate::compose::{lane_seed, Lane};
use crate::queue::{LevelOrder, Route, RouteQueue};
use crate::schedule::run_alone;
use crate::topology::{Butterfly, GroupId};

/// The recorded forest of multicast trees, indexed by column.
///
/// Each NCC node holds (and during multicast, uses) only its own column's
/// slice; the aggregate structure exists driver-side for analysis and for
/// constructing per-node multicast states.
#[derive(Debug, Clone)]
pub struct MulticastTrees {
    pub d: u32,
    pub n: usize,
    /// `leaves[α]`: groups whose leaf for some members is column α's level-0
    /// node, with those members.
    pub leaves: Vec<FxHashMap<u64, Vec<NodeId>>>,
    /// `in_edges[α][i]` for `i ∈ 1..=d` (index `i−1`): per group, whether a
    /// packet arrived at `(i, α)` via the straight edge and/or the cross
    /// edge from level `i−1`.
    pub in_edges: Vec<Vec<FxHashMap<u64, (bool, bool)>>>,
}

impl MulticastTrees {
    /// Maximum number of distinct trees sharing one butterfly node — the
    /// congestion `C` of Theorems 2.4–2.6.
    pub fn congestion(&self) -> usize {
        let mut best = 0;
        for alpha in 0..self.leaves.len() {
            // level 0: leaf sets; levels 1..=d (the roots on level d)
            best = best.max(self.leaves[alpha].len());
            for lvl in &self.in_edges[alpha] {
                best = best.max(lvl.len());
            }
        }
        best
    }
}

/// Per-node recording state for the tree-building routing run.
struct RecordState {
    /// Routing queue as in the combining phase, value = unit (join packets
    /// carry no data; combining just merges paths).
    queue: RouteQueue<()>,
    leaves: FxHashMap<u64, Vec<NodeId>>,
    in_edges: Vec<FxHashMap<u64, (bool, bool)>>,
}

impl RecordState {
    fn new(d: u32) -> Self {
        RecordState {
            queue: RouteQueue::default(),
            leaves: FxHashMap::default(),
            in_edges: (0..d).map(|_| FxHashMap::default()).collect(),
        }
    }
}

impl RecordScatterProgram {
    /// A registration lands on `(0, α)`: the join packet enters the
    /// butterfly here, so this is where its route is evaluated.
    fn inject(&self, st: &mut RecordState, alpha: u32, group: u64) {
        self.insert(st, alpha, 0, group, self.hashes.route(group), false);
    }

    /// Inserts a join packet at `(level, α)`, recording the in-edge
    /// (`via_cross`) it used; `level == d` records the root.
    fn insert(
        &self,
        st: &mut RecordState,
        alpha: u32,
        level: u32,
        group: u64,
        route: Route,
        via_cross: bool,
    ) {
        let d = self.bf.d();
        if level > 0 {
            let e = st.in_edges[level as usize - 1]
                .entry(group)
                .or_insert((false, false));
            if via_cross {
                e.1 = true;
            } else {
                e.0 = true;
            }
            if level == d {
                // packets stop at level d — the root absorbs them
                return;
            }
        }
        let dir = self.bf.route_is_cross(alpha, level, route.target) as usize;
        st.queue.insert(level, dir, route, group, (), |(), ()| {});
    }

    /// One recording-routing step at column `alpha`; cross-edge traffic
    /// goes through `emit` as `(next level, group, route)`.
    fn step(
        &self,
        st: &mut RecordState,
        alpha: u32,
        emit: &mut impl FnMut(NodeId, u8, u64, Route),
    ) {
        for (level, dir) in st.queue.waiting(LevelOrder::Descending) {
            let (route, group, ()) = st.queue.pop_min(level, dir).expect("a waiting queue pops");
            if dir == 0 {
                self.insert(st, alpha, level + 1, group, route, false);
            } else {
                let next_col = alpha ^ (1 << level);
                emit(self.bf.emulator(next_col), (level + 1) as u8, group, route);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The setup pipeline and its lane-composable sub-protocol
// ---------------------------------------------------------------------------

/// Wire format of the tree setup: join-packet scattering and recording
/// routing share the rounds.
#[derive(Debug, Clone)]
pub enum SetupMsg {
    /// A registration landing on a random level-0 column.
    Join { group: u64, member: u64 },
    /// A join packet climbing the butterfly (recorded as a tree edge);
    /// `route` is `group`'s, carried uncharged (see [`Route`]).
    Route { level: u8, group: u64, route: Route },
}

impl ncc_model::Payload for SetupMsg {
    fn bit_size(&self) -> u32 {
        1 + match self {
            SetupMsg::Join { group, member } => {
                ncc_model::payload::min_bits(*group) + ncc_model::payload::min_bits(*member)
            }
            SetupMsg::Route { group, .. } => 6 + ncc_model::payload::min_bits(*group),
        }
    }
}

/// Per-node state of the tree setup: registrations still to scatter, and
/// the column's recording.
pub struct RecordScatterState {
    to_send: Vec<(u64, u64)>,
    rec: RecordState,
}

/// Multicast Tree Setup (Theorem 2.4, streamed): registrations scatter to
/// random level-0 columns in batches of `⌈log n⌉` — the landing columns
/// become the leaves `l(i, u)` — while earlier join packets already route
/// toward their roots, recording in-edges.
pub struct RecordScatterProgram {
    bf: Butterfly,
    hashes: RouteHashes,
    batch: usize,
}

impl RecordScatterProgram {
    fn scatter(&self, st: &mut RecordScatterState, ctx: &mut Ctx<'_, SetupMsg>) {
        let take = st.to_send.len().min(self.batch);
        for (group, member) in st.to_send.drain(..take) {
            let col = ctx.rng().gen_range(0..self.bf.columns() as u32);
            ctx.send(col, SetupMsg::Join { group, member });
        }
        if !st.to_send.is_empty() {
            ctx.stay_awake();
        }
    }
}

impl NodeProgram for RecordScatterProgram {
    type State = RecordScatterState;
    type Payload = SetupMsg;

    fn init(&self, st: &mut RecordScatterState, ctx: &mut Ctx<'_, SetupMsg>) {
        self.scatter(st, ctx);
    }

    fn round(
        &self,
        st: &mut RecordScatterState,
        inbox: &[Envelope<SetupMsg>],
        ctx: &mut Ctx<'_, SetupMsg>,
    ) {
        if self.bf.emulates(ctx.id) {
            let alpha = self.bf.column_of(ctx.id);
            for env in inbox {
                match env.payload {
                    SetupMsg::Join { group, member } => {
                        st.rec
                            .leaves
                            .entry(group)
                            .or_default()
                            .push(member as NodeId);
                        self.inject(&mut st.rec, alpha, group);
                    }
                    SetupMsg::Route {
                        level,
                        group,
                        route,
                    } => {
                        self.insert(&mut st.rec, alpha, level as u32, group, route, true);
                    }
                }
            }
            self.scatter(st, ctx);
            self.step(&mut st.rec, alpha, &mut |dst, level, group, route| {
                ctx.send(
                    dst,
                    SetupMsg::Route {
                        level,
                        group,
                        route,
                    },
                )
            });
            if !st.rec.queue.is_empty() {
                ctx.stay_awake();
            }
        } else {
            // non-emulating nodes only scatter registrations
            self.scatter(st, ctx);
        }
    }
}

/// Multicast Tree Setup as a composable lane: one stage
/// (scatter + recording routing) on its own randomness stream. Build with
/// [`multicast_setup_sub`], run with [`run_alone`] or as a DAG node, read
/// the recorded forest with [`Lane::into_results`].
pub type McSetupSub = Lane<RecordScatterProgram, MulticastTrees>;

/// Builds the tree-setup sub-protocol. Arguments mirror
/// [`multicast_setup`]; `lane_seed` keys the lane's private randomness
/// (leaf columns).
pub fn multicast_setup_sub(
    n: usize,
    shared: &SharedRandomness,
    joins: Vec<Vec<(GroupId, NodeId)>>,
    lane_seed: u64,
) -> McSetupSub {
    assert_eq!(joins.len(), n);
    assert!(n >= 2, "multicast trees need n ≥ 2");
    let bf = Butterfly::for_n(n);
    let hashes = RouteHashes::new(shared, &bf, n);
    let logn = ncc_model::ilog2_ceil(n).max(1) as usize;
    let states: Vec<RecordScatterState> = joins
        .into_iter()
        .map(|gs| RecordScatterState {
            to_send: gs.into_iter().map(|(g, m)| (g.raw(), m as u64)).collect(),
            rec: RecordState::new(bf.d()),
        })
        .collect();
    let prog = RecordScatterProgram {
        bf,
        hashes,
        batch: logn,
    };
    Lane::new(prog, states, |st| {
        let (n, d) = (st.len(), Butterfly::for_n(st.len()).d());
        let (leaves, in_edges) = st
            .into_iter()
            .map(|s| (s.rec.leaves, s.rec.in_edges))
            .unzip();
        MulticastTrees {
            d,
            n,
            leaves,
            in_edges,
        }
    })
    .seeded(lane_seed)
}

/// Sets up multicast trees from explicit *registrations*: node `u`'s list
/// `joins[u]` contains `(group, member)` pairs — usually `member == u`
/// ("u joins group g", see [`self_joins`]), but a node may also register
/// *another* node into a group, which is how the broadcast-tree
/// construction of §5 lets each node inject packets for its out-neighbors
/// (Lemma 5.1) instead of forcing high-degree nodes to inject `Θ(Δ)`
/// packets themselves.
///
/// Blocking wrapper: one [`McSetupSub`] under [`run_alone`].
pub fn multicast_setup(
    engine: &mut Engine,
    shared: &SharedRandomness,
    joins: Vec<Vec<(GroupId, NodeId)>>,
) -> Result<(MulticastTrees, ExecStats), ModelError> {
    let seed = lane_seed(engine, 0x6d63_7375 /* "mcsu" */, 0);
    let sub = multicast_setup_sub(engine.n(), shared, joins, seed);
    run_alone(engine, sub, McSetupSub::into_results)
}

/// Convenience: turns per-node group lists into self-registrations
/// (`joins[u] = [g…]` ⇒ node `u` joins each `g` itself).
pub fn self_joins(joins: Vec<Vec<GroupId>>) -> Vec<Vec<(GroupId, NodeId)>> {
    joins
        .into_iter()
        .enumerate()
        .map(|(u, gs)| gs.into_iter().map(|g| (g, u as NodeId)).collect())
        .collect()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // tests index several parallel per-node arrays
mod tests {
    use super::*;
    use ncc_model::NetConfig;

    fn setup(n: usize, joins: Vec<Vec<GroupId>>) -> (MulticastTrees, ExecStats, RouteHashes) {
        let mut eng = Engine::new(NetConfig::new(n, 11));
        let shared = SharedRandomness::new(31);
        let (trees, stats) = multicast_setup(&mut eng, &shared, self_joins(joins)).unwrap();
        let bf = Butterfly::for_n(n);
        let hashes = RouteHashes::new(&shared, &bf, n);
        (trees, stats, hashes)
    }

    /// Walk down from the root of `group` and collect the members reachable
    /// through recorded edges — must equal the joining set.
    fn reachable_members(trees: &MulticastTrees, hashes: &RouteHashes, group: u64) -> Vec<NodeId> {
        let root = hashes.route(group).target;
        let d = trees.d;
        let mut stack = vec![(d, root)];
        let mut members = Vec::new();
        while let Some((level, alpha)) = stack.pop() {
            if level == 0 {
                if let Some(ms) = trees.leaves[alpha as usize].get(&group) {
                    members.extend_from_slice(ms);
                }
                continue;
            }
            if let Some(&(straight, cross)) =
                trees.in_edges[alpha as usize][level as usize - 1].get(&group)
            {
                if straight {
                    stack.push((level - 1, alpha));
                }
                if cross {
                    stack.push((level - 1, alpha ^ (1 << (level - 1))));
                }
            }
        }
        members.sort_unstable();
        members
    }

    #[test]
    fn tree_spans_all_members() {
        let n = 64;
        let g = GroupId::new(3, 0);
        let members: Vec<usize> = vec![1, 5, 17, 33, 60, 63];
        let mut joins = vec![Vec::new(); n];
        for &m in &members {
            joins[m].push(g);
        }
        let (trees, stats, hashes) = setup(n, joins);
        let got = reachable_members(&trees, &hashes, g.raw());
        assert_eq!(
            got,
            members.iter().map(|&m| m as NodeId).collect::<Vec<_>>()
        );
        assert!(stats.clean());
    }

    #[test]
    fn every_node_in_some_group() {
        // n groups, node u joins group (u mod 8): trees for 8 groups
        let n = 32;
        let mut joins = vec![Vec::new(); n];
        for u in 0..n {
            joins[u].push(GroupId::new((u % 8) as u32, 2));
        }
        let (trees, _, hashes) = setup(n, joins);
        for t in 0..8u32 {
            let g = GroupId::new(t, 2);
            let expect: Vec<NodeId> = (0..n as u32).filter(|u| u % 8 == t).collect();
            assert_eq!(reachable_members(&trees, &hashes, g.raw()), expect);
        }
    }

    #[test]
    fn congestion_near_load_over_n_plus_log() {
        // L = n memberships over N = n/4 groups: congestion O(L/n + log n) = O(log n)
        let n = 256;
        let mut joins = vec![Vec::new(); n];
        for u in 0..n {
            joins[u].push(GroupId::new((u % (n / 4)) as u32, 0));
        }
        let (trees, stats, _) = setup(n, joins);
        let c = trees.congestion();
        let logn = 8;
        assert!(c <= 6 * logn, "congestion {c} too high");
        assert!(c >= 1);
        assert!(stats.clean());
    }

    #[test]
    fn member_of_multiple_groups() {
        let n = 16;
        let mut joins = vec![Vec::new(); n];
        // node 2 joins three groups
        for s in 0..3u32 {
            joins[2].push(GroupId::new(s, 9));
            joins[(s as usize) + 5].push(GroupId::new(s, 9));
        }
        let (trees, _, hashes) = setup(n, joins);
        for s in 0..3u32 {
            let g = GroupId::new(s, 9);
            let got = reachable_members(&trees, &hashes, g.raw());
            let mut expect = vec![2 as NodeId, s + 5];
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    proptest::proptest! {
        /// Carried route ≡ recomputed route on the tree paths: one join
        /// packet climbs from a level-0 leaf to its root, and the
        /// multicast packet then descends the recorded tree; every queue
        /// key and every cross-edge message on the way up and on the way
        /// down shows the freshly hashed `(target, rank)`.
        #[test]
        fn carried_route_matches_fresh_hash_up_and_down_the_tree(
            seed in proptest::prelude::any::<u64>(),
            n in 2usize..700,
            node in proptest::prelude::any::<u32>(),
            sub in proptest::prelude::any::<u32>(),
            leaf in proptest::prelude::any::<u32>(),
        ) {
            use crate::aggregation::tests::fresh_route;
            use crate::multicast::{spread_arrive, spread_states, spread_step};

            let shared = SharedRandomness::new(seed);
            let bf = Butterfly::for_n(n);
            let d = bf.d();
            let member = node % n as u32;
            let gid = GroupId::new(member, sub);
            let group = gid.raw();
            let fresh = fresh_route(&shared, &bf, n, false, group);
            let record = RecordScatterProgram {
                bf,
                hashes: RouteHashes::new(&shared, &bf, n),
                batch: 1,
            };

            // up: the join packet records the path leaf → root
            let mut rec: Vec<RecordState> = (0..n).map(|_| RecordState::new(d)).collect();
            let leaf = leaf % bf.columns() as u32;
            let mut col = leaf;
            rec[col as usize].leaves.entry(group).or_default().push(member);
            record.inject(&mut rec[col as usize], col, group);
            for level in 0..d {
                let st = &mut rec[col as usize];
                let queued = st.queue.keys_at(level);
                proptest::prop_assert_eq!(queued.len(), 1, "one packet, at level {}", level);
                proptest::prop_assert_eq!(queued[0], (fresh, group), "queued at level {}", level);
                let mut crossed = None;
                record.step(st, col, &mut |dst, lvl, g, route| crossed = Some((dst, lvl, g, route)));
                if let Some((dst, lvl, g, route)) = crossed {
                    proptest::prop_assert_eq!(route, fresh, "sent from level {}", level);
                    proptest::prop_assert_eq!((lvl as u32, g), (level + 1, group));
                    col = bf.column_of(dst);
                    record.insert(&mut rec[col as usize], col, lvl as u32, g, route, true);
                }
            }
            proptest::prop_assert_eq!(col, fresh.target);

            // down: the source's packet retraces it root → leaf
            let (leaves, in_edges) = rec.into_iter().map(|s| (s.leaves, s.in_edges)).unzip();
            let trees = MulticastTrees { d, n, leaves, in_edges };
            let mut messages = vec![None; n];
            messages[member as usize] = Some((gid, 7u64));
            let mut spread = spread_states(messages);
            spread_arrive(&trees, &mut spread[col as usize], col, d, group, record.hashes.route(group), 7);
            for level in (1..=d).rev() {
                let st = &mut spread[col as usize];
                let queued = st.queue.keys_at(level - 1);
                proptest::prop_assert_eq!(queued.len(), 1, "one packet, at level {}", level);
                proptest::prop_assert_eq!(queued[0], (fresh, group), "queued at level {}", level);
                let (mut crossed, mut unpaced) = (None, usize::MAX);
                spread_step(&bf, &trees, st, col, &mut unpaced, &mut |dst, msg| {
                    crossed = Some((dst, msg));
                });
                if let Some((dst, m)) = crossed {
                    proptest::prop_assert_eq!(m.route, fresh, "sent from level {}", level);
                    col = bf.column_of(dst);
                    spread_arrive(&trees, &mut spread[col as usize], col, m.level as u32, m.group, m.route, m.value);
                }
            }
            proptest::prop_assert_eq!(col, leaf);
            proptest::prop_assert_eq!(&spread[col as usize].at_leaves, &vec![(group, member, 7u64)]);
        }
    }

    #[test]
    fn empty_joins_no_trees() {
        let n = 16;
        let (trees, _, _) = setup(n, vec![Vec::new(); n]);
        assert_eq!(trees.congestion(), 0);
    }
}
