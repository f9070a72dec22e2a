//! E3 — Theorem 2.3: Aggregation runs in
//! `O(L/n + (ℓ₁ + ℓ̂₂)/log n + log n)` rounds.
//!
//! Two sweeps at fixed `n`: (a) memberships-per-node `ℓ₁` (which scales
//! `L = n·ℓ₁` too), (b) a target-concentration sweep that scales `ℓ₂`.
//! The bound-ratio column must stay flat.

use crate::{engine, f2, lg, Table, SEED};
use ncc_butterfly::aggregation::aggregate;
use ncc_butterfly::{AggregationSpec, GroupId, SumU64};
use ncc_hashing::SharedRandomness;

pub fn run() -> Vec<ncc_runner::RunRecord> {
    let n = 1024usize;
    let shared = SharedRandomness::new(SEED);
    println!("# E3 — Theorem 2.3 (Aggregation), n = {n}");

    println!("\n## sweep (a): ℓ₁ = memberships per node (L = n·ℓ₁, spread targets)");
    let mut t = Table::new(&["l1", "L", "rounds", "bound", "ratio", "clean"]);
    for l1 in [1usize, 2, 4, 8, 16, 32, 64] {
        let memberships: Vec<Vec<(GroupId, u64)>> = (0..n)
            .map(|u| {
                (0..l1)
                    .map(|j| {
                        let target = ((u * 31 + j * 977) % n) as u32;
                        (GroupId::new(target, j as u32), 1u64)
                    })
                    .collect()
            })
            .collect();
        let ell2 = 4 * l1 + 16; // generous known bound on targets per node
        let mut eng = engine(n, SEED + l1 as u64);
        let (out, stats) = aggregate(
            &mut eng,
            &shared,
            AggregationSpec {
                memberships,
                ell2_hat: ell2,
            },
            &SumU64,
        )
        .expect("aggregation");
        let delivered: u64 = out.iter().flatten().map(|(_, v)| v).sum();
        assert_eq!(delivered as usize, n * l1, "no packet may be lost");
        let load = (n * l1) as f64;
        let bound = load / n as f64 + (l1 + ell2) as f64 / lg(n) + lg(n);
        t.row(vec![
            l1.to_string(),
            (n * l1).to_string(),
            stats.rounds.to_string(),
            f2(bound),
            f2(stats.rounds as f64 / bound),
            stats.clean().to_string(),
        ]);
    }
    t.print();

    println!("\n## sweep (b): target concentration (ℓ₂ grows, L = 8n fixed)");
    let mut t = Table::new(&["targets", "l2", "rounds", "bound", "ratio", "clean"]);
    for targets in [1024usize, 256, 64, 16, 4] {
        let l1 = 8usize;
        let memberships: Vec<Vec<(GroupId, u64)>> = (0..n)
            .map(|u| {
                (0..l1)
                    .map(|j| {
                        let target = ((u + j * 131) % targets) as u32;
                        (GroupId::new(target, (u % 4) as u32 * 64 + j as u32), 1u64)
                    })
                    .collect()
            })
            .collect();
        // each target node owns ≤ 4·64 = 256 sub-groups at full concentration
        let ell2 = (n * l1 / targets / 2).clamp(16, 4 * 64);
        let mut eng = engine(n, SEED + targets as u64);
        let (_, stats) = aggregate(
            &mut eng,
            &shared,
            AggregationSpec {
                memberships,
                ell2_hat: ell2,
            },
            &SumU64,
        )
        .expect("aggregation");
        let bound = (n * l1) as f64 / n as f64 + (l1 + ell2) as f64 / lg(n) + lg(n);
        t.row(vec![
            targets.to_string(),
            ell2.to_string(),
            stats.rounds.to_string(),
            f2(bound),
            f2(stats.rounds as f64 / bound),
            stats.clean().to_string(),
        ]);
    }
    t.print();
    println!("\nexpected: ratio flat in both sweeps (Theorem 2.3's three-term bound).");
    Vec::new()
}
