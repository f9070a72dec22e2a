//! E4 — Theorem 2.4: Multicast Tree Setup in `O(L/n + ℓ/log n + log n)`
//! rounds with tree congestion `O(L/n + log n)`.
//!
//! Sweeps the global load `L` (members per group × group count) and prints
//! setup rounds and measured congestion against both bounds.

use crate::{engine, f2, lg, Table, SEED};
use ncc_butterfly::{multicast_setup, self_joins, GroupId};
use ncc_hashing::SharedRandomness;

pub fn run() -> Vec<ncc_runner::RunRecord> {
    let n = 1024usize;
    let shared = SharedRandomness::new(SEED);
    println!("# E4 — Theorem 2.4 (Multicast Tree Setup), n = {n}");
    let mut t = Table::new(&[
        "groups",
        "members",
        "L",
        "rounds",
        "r-bound",
        "r-ratio",
        "congestion",
        "c-bound",
        "c-ratio",
    ]);
    for (groups, members) in [
        (n / 64, 64usize),
        (n / 16, 16),
        (n / 4, 4),
        (n, 2),
        (n, 8),
        (n, 32),
    ] {
        let mut joins: Vec<Vec<GroupId>> = vec![Vec::new(); n];
        for gi in 0..groups {
            for m in 0..members {
                let member = (gi * 7919 + m * 104729) % n;
                joins[member].push(GroupId::new(gi as u32, 21));
            }
        }
        let load: usize = joins.iter().map(Vec::len).sum();
        let ell = joins.iter().map(Vec::len).max().unwrap_or(0);
        let mut eng = engine(n, SEED + groups as u64 + members as u64);
        let (trees, stats) = multicast_setup(&mut eng, &shared, self_joins(joins)).expect("setup");
        let c = trees.congestion();
        let r_bound = load as f64 / n as f64 + ell as f64 / lg(n) + lg(n);
        let c_bound = load as f64 / n as f64 + lg(n);
        t.row(vec![
            groups.to_string(),
            members.to_string(),
            load.to_string(),
            stats.rounds.to_string(),
            f2(r_bound),
            f2(stats.rounds as f64 / r_bound),
            c.to_string(),
            f2(c_bound),
            f2(c as f64 / c_bound),
        ]);
        assert!(stats.clean());
    }
    t.print();
    println!("\nexpected: both ratio columns flat (Theorem 2.4).");
    Vec::new()
}
