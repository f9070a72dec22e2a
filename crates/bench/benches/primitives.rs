//! Criterion wall-clock benches for the communication primitives
//! (Theorems 2.2–2.6). Round counts are covered by the `expNN` binaries;
//! these benches track simulator throughput so performance regressions in
//! the engine or the routing queues are caught.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncc_bench::SEED;
use ncc_butterfly::aggregation::aggregate;
use ncc_butterfly::queue::{LevelOrder, Route, RouteQueue};
use ncc_butterfly::{
    aggregate_and_broadcast, multicast, multicast_setup, self_joins, AggregationSpec, GroupId,
    MinU64, SumU64,
};
use ncc_hashing::shared::labels;
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, NetConfig};

fn bench_aggregate_and_broadcast(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate_and_broadcast");
    for &n in &[256usize, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut eng = Engine::new(NetConfig::new(n, SEED));
                let inputs: Vec<Option<u64>> = (0..n as u64).map(Some).collect();
                aggregate_and_broadcast(&mut eng, inputs, &SumU64).unwrap()
            });
        });
    }
    group.finish();
}

/// Times the streamed scatter+combine pipeline. The id says so: histories
/// recorded under `aggregation_l1_8` timed the phase-separated programs
/// (one more barrier; E3's ℓ₁ = 8 row went 100 → 76 rounds) and are not
/// comparable.
#[allow(clippy::needless_range_loop)]
fn bench_aggregation(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregation_pipeline_l1_8");
    for &n in &[256usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let shared = SharedRandomness::new(SEED);
            b.iter(|| {
                let memberships: Vec<Vec<(GroupId, u64)>> = (0..n)
                    .map(|u| {
                        (0..8u32)
                            .map(|j| {
                                (
                                    GroupId::new(((u * 31 + j as usize * 977) % n) as u32, j),
                                    1u64,
                                )
                            })
                            .collect()
                    })
                    .collect();
                let mut eng = Engine::new(NetConfig::new(n, SEED));
                aggregate(
                    &mut eng,
                    &shared,
                    AggregationSpec {
                        memberships,
                        ell2_hat: 48,
                    },
                    &SumU64,
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

/// Times the streamed setup and spread+deliver pipelines; renamed from
/// `multicast_setup_plus_send` for the same reason as above.
fn bench_multicast_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("multicast_pipeline_setup_plus_send");
    for &n in &[256usize, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let shared = SharedRandomness::new(SEED);
            b.iter(|| {
                let joins: Vec<Vec<GroupId>> = (0..n)
                    .map(|u| vec![GroupId::new((u % (n / 8)) as u32, 0)])
                    .collect();
                let mut eng = Engine::new(NetConfig::new(n, SEED));
                let (trees, _) = multicast_setup(&mut eng, &shared, self_joins(joins)).unwrap();
                let messages: Vec<Option<(GroupId, u64)>> = (0..n)
                    .map(|u| {
                        if u < n / 8 {
                            Some((GroupId::new(u as u32, 0), u as u64))
                        } else {
                            None
                        }
                    })
                    .collect();
                multicast(&mut eng, &shared, &trees, messages, 1).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_min_aggregate(c: &mut Criterion) {
    c.bench_function("agg_bcast_min_4096", |b| {
        b.iter(|| {
            let mut eng = Engine::new(NetConfig::new(4096, SEED));
            let inputs: Vec<Option<u64>> = (0..4096u64).map(|v| Some(v * 7 % 997)).collect();
            aggregate_and_broadcast(&mut eng, inputs, &MinU64).unwrap()
        });
    });
}

/// The hashing bill of routing one packet over its `d = log₂ n` hops
/// (§2.2): the target `h(group)` and the rank `ρ(group)` are
/// `2⌈log₂ n⌉`-coefficient polynomials. `per_hop` re-evaluates both at
/// every hop, as the routing programs did before packets carried their
/// route; `carried` evaluates them once and reads the pair `d` times.
fn bench_route_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_hashes");
    for &n in &[1024usize, 65536] {
        let d = n.ilog2();
        let k = SharedRandomness::k_for(n);
        let shared = SharedRandomness::new(SEED);
        let target = shared.poly(labels::AGG_TARGET, 0, k);
        let rank = shared.poly(labels::AGG_RANK, 0, k);
        let route = |g: u64| (target.to_range(g, n as u64), rank.to_range(g, 1 << 32));
        let groups: Vec<u64> = (0..256u32).map(|t| GroupId::new(t, 7).raw()).collect();
        group.bench_with_input(BenchmarkId::new("per_hop", n), &groups, |b, groups| {
            b.iter(|| {
                let mut acc = 0u64;
                for &g in groups {
                    for _hop in 0..d {
                        let (t, r) = route(black_box(g));
                        acc = acc.wrapping_add(t ^ r);
                    }
                }
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("carried", n), &groups, |b, groups| {
            b.iter(|| {
                let mut acc = 0u64;
                for &g in groups {
                    let carried = route(black_box(g));
                    for _hop in 0..d {
                        let (t, r) = black_box(carried);
                        acc = acc.wrapping_add(t ^ r);
                    }
                }
                acc
            });
        });
    }
    group.finish();
}

/// One column's routing state at `d = 10`: fill it to `occupancy` packets
/// spread over its `2d` queues, then run routing steps (every occupied
/// queue pops its winner) until it is empty. Occupancy 1–4 is what a
/// `bfs` column holds; 32 is a congested aggregation.
fn bench_route_queue(c: &mut Criterion) {
    const D: u32 = 10;
    let mut group = c.benchmark_group("route_queue");
    for &occupancy in &[1u64, 4, 32] {
        group.bench_with_input(
            BenchmarkId::new("insert_pop", occupancy),
            &occupancy,
            |b, &occupancy| {
                let mut queue = RouteQueue::default();
                b.iter(|| {
                    for g in 0..occupancy {
                        let mixed = g.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        let route = Route {
                            target: (mixed >> 40) as u32,
                            rank: (mixed >> 8) as u32,
                        };
                        let (level, dir) = ((mixed % D as u64) as u32, (mixed >> 63) as usize);
                        queue.insert(level, dir, black_box(route), g, g, |w, n| *w += n);
                    }
                    let mut acc = 0u64;
                    while !queue.is_empty() {
                        for (level, dir) in queue.waiting(LevelOrder::Descending) {
                            acc += queue.pop_min(level, dir).map_or(0, |(_, _, v)| v);
                        }
                    }
                    acc
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_aggregate_and_broadcast, bench_aggregation, bench_multicast_roundtrip, bench_min_aggregate, bench_route_hashes, bench_route_queue
}
criterion_main!(benches);
