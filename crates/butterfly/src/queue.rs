//! The routing queue of one butterfly column — the contention rule of the
//! random-rank routing protocol (App. B.2) in one place.
//!
//! A column `α` holds, per level `i` and direction (`0` straight, `1`
//! cross), the packets waiting to traverse that butterfly edge. Per round
//! one packet crosses each edge: the one with the smallest
//! `(rank, group)` — random ranks `ρ(group)`, ties broken by group id —
//! and the rest wait (Theorem B.2 bounds the total delay). Two packets of
//! one group that meet in a queue become one; *how* is the caller's rule
//! (Aggregation combines the values, spreading keeps the newer copy, tree
//! recording keeps either).
//!
//! A column rarely holds more than a handful of packets, so all `2d`
//! queues of a column are **one** `Vec` sorted by
//! `(slot = 2·level + dir, rank, group)`: [`RouteQueue::is_empty`] is one
//! word, a routing step visits only the occupied slots — read off the
//! entries into a `u64` mask, `2d ≤ 64` ([`RouteQueue::waiting`]) — and a
//! column that routes a thousand packets allocates for its first few, not
//! for every hop. Nothing is stored beside the entries, so there is no
//! second copy of the occupancy to keep in step with them.

/// Where a group's packets go and who yields to whom: a pure function of
/// the group id under the agreed hash functions.
///
/// It travels with the packet — beside it while it waits in a
/// [`RouteQueue`], and in the level and tree-setup messages while it
/// crosses an edge — as simulator-side metadata that `bit_size` does
/// **not** charge: every node holds the shared hash functions and could
/// recompute the pair from the group id for free (local computation costs
/// nothing in the model), so carrying it saves the simulator `Θ(log n)`
/// field multiplications per hop and changes no bit, drop, round or
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Intermediate target `h(group)`: a uniform level-`d` column.
    pub target: u32,
    /// Routing rank `ρ(group)` (ties broken by group id, as in App. B.2);
    /// 0 under the static-priority ablation.
    pub rank: u32,
}

/// The order in which a routing step visits a column's levels. Either
/// way a packet forwarded along a straight edge lands on a level the step
/// has already passed, so it cannot advance twice in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelOrder {
    /// Packets move toward level 0 (spreading down the trees).
    Ascending,
    /// Packets move toward level `d` (combining, tree recording).
    Descending,
}

/// A waiting packet, ordered by `key = (slot, rank, group)`. The target
/// column rides along outside the order (it is a function of the group,
/// so packets with equal keys agree on it).
#[derive(Debug, Clone)]
struct Entry<V> {
    key: (u8, u32, u64),
    target: u32,
    value: V,
}

/// All routing queues of one column: see the [module docs](self).
#[derive(Debug, Clone)]
pub struct RouteQueue<V> {
    /// Sorted by `(slot, rank, group)`; at most one entry per `(slot, group)`.
    entries: Vec<Entry<V>>,
}

impl<V> Default for RouteQueue<V> {
    fn default() -> Self {
        RouteQueue {
            entries: Vec::new(),
        }
    }
}

fn slot_of(level: u32, dir: usize) -> u8 {
    debug_assert!(level < 32 && dir < 2, "a column has 2d ≤ 64 queues");
    (2 * level) as u8 + dir as u8
}

impl<V> RouteQueue<V> {
    /// `true` iff no packet waits at this column.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queues a packet of `group` on the `dir` edge of `level`. If one of
    /// the same group already waits there, `meet(waiting, new)` decides
    /// what the one remaining packet carries.
    pub fn insert(
        &mut self,
        level: u32,
        dir: usize,
        route: Route,
        group: u64,
        value: V,
        meet: impl FnOnce(&mut V, V),
    ) {
        let slot = slot_of(level, dir);
        let key = (slot, route.rank, group);
        let at = self.entries.partition_point(|e| e.key < key);
        match self.entries.get_mut(at) {
            Some(e) if e.key == key => meet(&mut e.value, value),
            _ => {
                let target = route.target;
                self.entries.insert(at, Entry { key, target, value });
            }
        }
    }

    /// Takes the contention winner of one queue: its smallest
    /// `(rank, group)`.
    pub fn pop_min(&mut self, level: u32, dir: usize) -> Option<(Route, u64, V)> {
        let slot = slot_of(level, dir);
        let at = self.entries.partition_point(|e| e.key.0 < slot);
        if self.entries.get(at)?.key.0 != slot {
            return None;
        }
        let Entry { key, target, value } = self.entries.remove(at);
        let (_, rank, group) = key;
        Some((Route { target, rank }, group, value))
    }

    /// The `(level, dir)` queues holding a packet *now*, levels in
    /// `order`, straight before cross. The iterator is a snapshot: it
    /// does not borrow the queue, and packets inserted while it is
    /// walked (onto levels already passed) are not visited.
    pub fn waiting(&self, order: LevelOrder) -> impl Iterator<Item = (u32, usize)> {
        let mut mask = self
            .entries
            .iter()
            .fold(0u64, |mask, e| mask | 1 << e.key.0);
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let level = match order {
                LevelOrder::Ascending => mask.trailing_zeros() / 2,
                LevelOrder::Descending => (63 - mask.leading_zeros()) / 2,
            };
            let dir = usize::from(mask >> (2 * level) & 1 == 0);
            mask &= !(1 << (2 * level + dir as u32));
            Some((level, dir))
        })
    }
}

#[cfg(test)]
impl<V> RouteQueue<V> {
    /// The `(route, group)` of every packet waiting at one level, both
    /// directions.
    pub(crate) fn keys_at(&self, level: u32) -> Vec<(Route, u64)> {
        self.entries
            .iter()
            .filter(|e| u32::from(e.key.0) / 2 == level)
            .map(|e| {
                let (_, rank, group) = e.key;
                let target = e.target;
                (Route { target, rank }, group)
            })
            .collect()
    }
}
