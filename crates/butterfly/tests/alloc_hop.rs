//! What one butterfly hop may allocate, on a resident `threads = 1`
//! engine after warm-up, over multicast trees built beforehand:
//!
//! * A `multi_aggregate` allocates one `Arc` per message plus a fixed
//!   allowance **per node** (lane states, each column's routing queue
//!   growing to its high-water mark, the result lists) — nothing per
//!   packet routed: groups of eight members in place of one (four times
//!   the messages) must fit the same allowance.
//! * A `multicast` reads the recorded forest through the
//!   [`MulticastTrees`] it is handed: it allocates no hash table — zero
//!   requests of the sizes the forest's own maps have.
//! * A `sync_barrier` is a plain program on the engine's recycled
//!   buffers: it allocates its input, state and result vectors and
//!   nothing else — the same count at n = 64 and n = 1024, whatever the
//!   number of messages.
//!
//! Same harness and the same one-test-per-file rule as the engine's
//! `alloc_regression.rs` and `alloc_mux.rs`, whose counting allocator this
//! file shares.

use ncc_butterfly::{
    multi_aggregate, multicast, multicast_setup, self_joins, sync_barrier, GroupId, MinU64,
    MulticastSub, MulticastTrees,
};
use ncc_hashing::{FxHashMap, SharedRandomness};
use ncc_model::{Engine, NetConfig, NodeId};

#[path = "../../model/tests/common/mod.rs"]
mod common;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

const N: usize = 64;

/// Allocations a `multi_aggregate` may make beyond one per message, per
/// node: 14.3 (light) and 17.6 (heavy) here — eight of them the mux's
/// lane-state boxes over the call's four executions — against 29.8 and
/// 51.7 when every waiting packet cost a B-tree leaf and every node a
/// copy of its share of the forest.
const PER_NODE: u64 = 20;

/// Every node sources one group; node `u` joins the groups of the
/// `members` nodes after it on the ring.
fn ring_trees(eng: &mut Engine, shared: &SharedRandomness, members: usize) -> MulticastTrees {
    let joins = (0..N)
        .map(|u| {
            (1..=members)
                .map(|k| GroupId::new(((u + k) % N) as u32, 0))
                .collect()
        })
        .collect();
    multicast_setup(eng, shared, self_joins(joins)).unwrap().0
}

fn messages() -> Vec<Option<(GroupId, u64)>> {
    (0..N as u32)
        .map(|u| Some((GroupId::new(u, 0), 1000 + u as u64)))
        .collect()
}

/// `(allocations, messages sent)` of one counted `multi_aggregate`, after two uncounted ones grew the engine's buffers.
fn counted_multi_aggregate(
    eng: &mut Engine,
    shared: &SharedRandomness,
    trees: &MulticastTrees,
) -> (u64, u64) {
    let run = |eng: &mut Engine, msgs| {
        multi_aggregate(eng, shared, trees, msgs, |_, _, _, v: &u64| *v, &MinU64).unwrap()
    };
    for _ in 0..2 {
        run(eng, messages());
    }
    let msgs = messages();
    let before = common::allocs();
    let (out, stats) = run(eng, msgs);
    let allocs = common::allocs() - before;
    assert!(stats.clean() && out.iter().all(Option::is_some));
    (allocs, stats.sent)
}

/// `(allocations, messages sent)` of one counted `sync_barrier` on `eng`,
/// after two uncounted ones grew its buffers.
fn counted_barrier(eng: &mut Engine) -> (u64, u64) {
    for _ in 0..2 {
        sync_barrier(eng).unwrap();
    }
    let before = common::allocs();
    let stats = sync_barrier(eng).unwrap();
    (common::allocs() - before, stats.sent)
}

/// The sizes of the hash tables the forest holds: each distinct non-empty
/// map is rebuilt once and the request it makes observed.
fn forest_table_sizes(trees: &MulticastTrees) -> Vec<usize> {
    fn observe<T>(build: impl FnOnce() -> T, sizes: &mut Vec<usize>) {
        let before: Vec<u64> = (0..common::SIZED_BELOW)
            .map(common::allocs_of_size)
            .collect();
        let table = build();
        let hit: Vec<usize> = (0..common::SIZED_BELOW)
            .filter(|&s| common::allocs_of_size(s) > before[s])
            .collect();
        drop(table);
        assert_eq!(hit.len(), 1, "one table, one request: {hit:?}");
        sizes.extend(hit);
    }
    let mut sizes = Vec::new();
    for column in &trees.in_edges {
        for map in column.iter().filter(|m| !m.is_empty()) {
            observe(|| map.clone(), &mut sizes);
        }
    }
    for map in trees.leaves.iter().filter(|m| !m.is_empty()) {
        // same buckets as a clone's table, without cloning the member lists
        let same_buckets = || {
            FxHashMap::<u64, Vec<NodeId>>::with_capacity_and_hasher(
                map.capacity(),
                Default::default(),
            )
        };
        observe(same_buckets, &mut sizes);
    }
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[test]
fn a_hop_allocates_for_the_message_and_nothing_else() {
    let shared = SharedRandomness::new(23);
    let mut eng = Engine::new(NetConfig::new(N, 17));
    let light = ring_trees(&mut eng, &shared, 1);
    let heavy = ring_trees(&mut eng, &shared, 8);

    let (light_allocs, light_sent) = counted_multi_aggregate(&mut eng, &shared, &light);
    let (heavy_allocs, heavy_sent) = counted_multi_aggregate(&mut eng, &shared, &heavy);
    assert!(heavy_sent > 4 * light_sent, "{heavy_sent} vs {light_sent}");
    for (allocs, sent) in [(light_allocs, light_sent), (heavy_allocs, heavy_sent)] {
        assert!(
            allocs <= sent + PER_NODE * N as u64,
            "{allocs} allocations for {sent} messages"
        );
    }

    // the forest is read, not copied: a second multicast requests none of
    // the forest's table sizes but the two boxes `run_alone`'s one-node
    // DAG makes of the sub itself (its build closure and its running lane)
    let sizes = forest_table_sizes(&heavy);
    assert!(!sizes.is_empty());
    let sub_boxes = |size| 2 * (size == std::mem::size_of::<MulticastSub<u64>>()) as u64;
    multicast(&mut eng, &shared, &heavy, messages(), 8).unwrap();
    let msgs = messages();
    let before: Vec<u64> = sizes.iter().map(|&s| common::allocs_of_size(s)).collect();
    let (out, _) = multicast(&mut eng, &shared, &heavy, msgs, 8).unwrap();
    let after: Vec<u64> = sizes
        .iter()
        .map(|&s| common::allocs_of_size(s) - sub_boxes(s))
        .collect();
    assert!(out.iter().all(|got| got.len() == 8));
    assert_eq!(
        after, before,
        "requests of the forest's table sizes {sizes:?}"
    );

    // the barrier: its three vectors, at any n
    let (small_allocs, small_sent) = counted_barrier(&mut eng);
    let (big_allocs, big_sent) = counted_barrier(&mut Engine::new(NetConfig::new(1024, 17)));
    assert!(big_sent > 10 * small_sent, "{big_sent} vs {small_sent}");
    assert!(small_allocs <= 4, "{small_allocs} allocations at n = {N}");
    assert_eq!(big_allocs, small_allocs, "n = 1024 vs n = {N}");
}
