//! E5 — Theorem 2.5: Multicast in `O(C + ℓ̂/log n + log n)` rounds.
//!
//! Builds tree families of increasing congestion `C` and measures the
//! delivery rounds of a full multicast against the bound.

use crate::{engine, f2, lg, Table, SEED};
use ncc_butterfly::{multicast, multicast_setup, self_joins, GroupId};
use ncc_hashing::SharedRandomness;

pub fn run() -> Vec<ncc_runner::RunRecord> {
    let n = 1024usize;
    let shared = SharedRandomness::new(SEED);
    println!("# E5 — Theorem 2.5 (Multicast), n = {n}");
    let mut t = Table::new(&[
        "groups",
        "members",
        "C",
        "l_hat",
        "rounds",
        "bound",
        "ratio",
        "delivered",
        "clean",
    ]);
    for (groups, members) in [(n / 8, 8usize), (n / 2, 4), (n, 4), (n, 16), (n, 64)] {
        let mut joins: Vec<Vec<GroupId>> = vec![Vec::new(); n];
        for gi in 0..groups {
            for m in 0..members {
                let member = (gi * 7919 + m * 104729 + 13) % n;
                joins[member].push(GroupId::new(gi as u32, 22));
            }
        }
        let ell = joins.iter().map(Vec::len).max().unwrap_or(1);
        let mut eng = engine(n, SEED + (groups * members) as u64);
        let (trees, _) = multicast_setup(&mut eng, &shared, self_joins(joins)).expect("setup");
        let c = trees.congestion();

        let messages: Vec<Option<(GroupId, u64)>> = (0..n)
            .map(|u| {
                if u < groups {
                    Some((GroupId::new(u as u32, 22), 5000 + u as u64))
                } else {
                    None
                }
            })
            .collect();
        let (out, stats) = multicast(&mut eng, &shared, &trees, messages, ell).expect("multicast");
        let delivered: usize = out.iter().map(Vec::len).sum();
        assert_eq!(delivered, groups * members, "one packet per membership");
        assert!(stats.clean());
        let bound = c as f64 + ell as f64 / lg(n) + lg(n);
        t.row(vec![
            groups.to_string(),
            members.to_string(),
            c.to_string(),
            ell.to_string(),
            stats.rounds.to_string(),
            f2(bound),
            f2(stats.rounds as f64 / bound),
            delivered.to_string(),
            stats.clean().to_string(),
        ]);
    }
    t.print();
    println!("\nexpected: ratio flat; delivered counts duplicates-free per membership.");
    Vec::new()
}
