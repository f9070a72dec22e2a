//! Differential test of [`RouteQueue`] against the structure it replaced:
//! one `BTreeMap` per `(level, dir)`, walked by the routing steps in full
//! (`pop_first` on every map, levels descending for combining/recording,
//! ascending for spreading, straight before cross). The model lives here
//! and nowhere else. After every operation the two must agree on what was
//! popped and in which order, on `is_empty()`, on which queues are
//! occupied, and on every surviving packet.

use std::collections::BTreeMap;

use ncc_butterfly::queue::{LevelOrder, Route, RouteQueue};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// What happens when a packet meets one of its own group in a queue: the
/// three rules of Aggregation, spreading and tree recording.
#[derive(Debug, Clone, Copy)]
enum Meet {
    Combine,
    Overwrite,
    Keep,
}

impl Meet {
    fn apply(self, waiting: &mut u64, new: u64) {
        match self {
            Meet::Combine => *waiting = waiting.wrapping_add(new),
            Meet::Overwrite => *waiting = new,
            Meet::Keep => {}
        }
    }
}

/// `model[level][dir]`: `(rank, group) → value`.
type Model = Vec<[BTreeMap<(u32, u64), u64>; 2]>;

/// `(level, dir, rank, group, value)`.
type Packet = (u32, usize, u32, u64, u64);

/// A handful of ranks over many groups, so rank ties are the rule; rank ≡ 0
/// is the static-priority ablation (`static_priority()`).
fn route(group: u64, fifo: bool) -> Route {
    Route {
        target: group as u32,
        rank: if fifo { 0 } else { (group * 7 % 5) as u32 },
    }
}

fn insert_both(
    q: &mut RouteQueue<u64>,
    model: &mut Model,
    (level, dir): (u32, usize),
    (route, group): (Route, u64),
    value: u64,
    meet: Meet,
) {
    q.insert(level, dir, route, group, value, |w, n| meet.apply(w, n));
    model[level as usize][dir]
        .entry((route.rank, group))
        .and_modify(|w| meet.apply(w, value))
        .or_insert(value);
}

/// Where a packet forwarded along the straight edge of `level` lands, if
/// it stays in the queues at all; the direction there is a fixed function
/// of the group, like a bit of its target column.
fn straight_hop(level: u32, d: u32, order: LevelOrder, group: u64) -> Option<(u32, usize)> {
    let next = match order {
        LevelOrder::Descending => level + 1,
        LevelOrder::Ascending => level.checked_sub(1)?,
    };
    (next < d).then_some((next, (group >> next & 1) as usize))
}

/// One routing step on both sides; returns what each popped, in order.
fn step_both(
    q: &mut RouteQueue<u64>,
    model: &mut Model,
    d: u32,
    order: LevelOrder,
    meet: Meet,
) -> (Vec<Packet>, Vec<Packet>) {
    let mut got = Vec::new();
    for (level, dir) in q.waiting(order) {
        let (route, group, v) = q.pop_min(level, dir).expect("a waiting queue pops");
        got.push((level, dir, route.rank, group, v));
        if let (0, Some((next, ndir))) = (dir, straight_hop(level, d, order, group)) {
            q.insert(next, ndir, route, group, v, |w, n| meet.apply(w, n));
        }
    }
    let mut want = Vec::new();
    let levels: Vec<u32> = match order {
        LevelOrder::Descending => (0..d).rev().collect(),
        LevelOrder::Ascending => (0..d).collect(),
    };
    for level in levels {
        for dir in 0..2 {
            let Some(((rank, group), v)) = model[level as usize][dir].pop_first() else {
                continue;
            };
            want.push((level, dir, rank, group, v));
            if let (0, Some((next, ndir))) = (dir, straight_hop(level, d, order, group)) {
                model[next as usize][ndir]
                    .entry((rank, group))
                    .and_modify(|w| meet.apply(w, v))
                    .or_insert(v);
            }
        }
    }
    (got, want)
}

/// `is_empty()`, the occupied queues in both visiting orders, and every
/// surviving packet (drained from a copy, so in `pop_min` order).
fn assert_same_contents(q: &RouteQueue<u64>, model: &Model, d: u32) {
    let survivors: Vec<Packet> = (0..d)
        .flat_map(|level| (0..2).map(move |dir| (level, dir)))
        .flat_map(|(level, dir)| {
            model[level as usize][dir]
                .iter()
                .map(move |(&(rank, group), &v)| (level, dir, rank, group, v))
        })
        .collect();
    assert_eq!(q.is_empty(), survivors.is_empty());

    let mut occupied: Vec<(u32, usize)> = survivors.iter().map(|p| (p.0, p.1)).collect();
    occupied.dedup();
    let ascending: Vec<_> = q.waiting(LevelOrder::Ascending).collect();
    assert_eq!(ascending, occupied);
    occupied.sort_by_key(|&(level, dir)| (std::cmp::Reverse(level), dir));
    let descending: Vec<_> = q.waiting(LevelOrder::Descending).collect();
    assert_eq!(descending, occupied);

    let mut copy = q.clone();
    let mut drained = Vec::new();
    for level in 0..d {
        for dir in 0..2 {
            while let Some((route, group, v)) = copy.pop_min(level, dir) {
                drained.push((level, dir, route.rank, group, v));
            }
        }
    }
    assert_eq!(drained, survivors);
    assert!(copy.is_empty());
}

proptest! {
    #[test]
    fn random_interleavings_match_the_btree_model(
        seed in any::<u64>(),
        d in 1u32..=12,
        groups in 1u64..40,
        fifo in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut q = RouteQueue::default();
        let mut model: Model = (0..d).map(|_| Default::default()).collect();
        for _ in 0..300 {
            let meet = [Meet::Combine, Meet::Overwrite, Meet::Keep][rng.gen_range(0..3)];
            let order = [LevelOrder::Ascending, LevelOrder::Descending][rng.gen_range(0..2)];
            let at = (rng.gen_range(0..d), rng.gen_range(0..2usize));
            match rng.gen_range(0..10) {
                // few groups over few slots: same-key inserts are common
                0..=5 => {
                    let group = rng.gen_range(0..groups);
                    insert_both(&mut q, &mut model, at, (route(group, fifo), group), rng.gen(), meet);
                }
                6..=7 => {
                    let got = q.pop_min(at.0, at.1).map(|(route, g, v)| (route.rank, g, v));
                    let want = model[at.0 as usize][at.1].pop_first().map(|((r, g), v)| (r, g, v));
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let (got, want) = step_both(&mut q, &mut model, d, order, meet);
                    prop_assert_eq!(got, want);
                }
            }
            assert_same_contents(&q, &model, d);
        }
        // with no new packets every step forwards the head of every
        // occupied queue, so the column quiesces — in either direction
        let order = if fifo { LevelOrder::Ascending } else { LevelOrder::Descending };
        for _ in 0..d * 300 {
            if q.is_empty() {
                break;
            }
            let (got, want) = step_both(&mut q, &mut model, d, order, Meet::Combine);
            prop_assert_eq!(got, want);
            assert_same_contents(&q, &model, d);
        }
        prop_assert!(q.is_empty(), "every packet left within its hop budget");
    }
}

#[test]
fn same_group_packets_meet_in_place_under_each_rule() {
    for (meet, survivor) in [
        (Meet::Combine, (1..=100).sum::<u64>()),
        (Meet::Overwrite, 100),
        (Meet::Keep, 1),
    ] {
        let mut q = RouteQueue::default();
        for v in 1..=100 {
            q.insert(3, 1, route(9, false), 9, v, |w, n| meet.apply(w, n));
        }
        let (_, group, v) = q.pop_min(3, 1).expect("one packet waits");
        assert_eq!((group, v), (9, survivor), "{meet:?}");
        assert_eq!(q.pop_min(3, 1), None, "a hundred inserts, one packet");
        assert!(q.is_empty());
    }
}

#[test]
fn the_smaller_rank_wins_and_ties_go_to_the_smaller_group() {
    let mut q = RouteQueue::default();
    for (rank, group) in [(5, 1), (2, 8), (2, 3), (7, 0)] {
        q.insert(0, 0, Route { target: 0, rank }, group, group, |_, _| {});
    }
    let order: Vec<u64> = std::iter::from_fn(|| q.pop_min(0, 0).map(|(_, _, v)| v)).collect();
    assert_eq!(order, [3, 8, 1, 0]);
    // rank ≡ 0 (static priority): the group id alone decides
    for group in [4, 2, 6] {
        q.insert(1, 1, route(group, true), group, group, |_, _| {});
    }
    let order: Vec<u64> = std::iter::from_fn(|| q.pop_min(1, 1).map(|(_, _, v)| v)).collect();
    assert_eq!(order, [2, 4, 6]);
}
