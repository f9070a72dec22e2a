//! bench_router — delivery-phase throughput of the batched counting-sort
//! router.
//!
//! `batched` routes a seeded, skewed dense batch at n ∈ {1e3, 1e4, 1e5}
//! (8 messages per node, one in four aimed at a hot 1% of destinations so
//! the receive-cap sampling path is exercised). `sparse` routes 2¹⁶ sends
//! on 2²⁰ nodes, a sparse round (`sends × 8 < n`) that walks only its
//! touched destinations. Every arm reuses one [`Router`] across
//! iterations, i.e. the steady state of an execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncc_bench::SEED;
use ncc_model::rng::network_rng;
use ncc_model::{Capacity, Envelope, Router};
use rand::Rng;

const PER_NODE: usize = 8;

/// Seeded skewed send batch: `8n` messages, 25% aimed at the hottest 1% of
/// destinations so several buckets exceed the receive cap every round.
fn make_sends(n: usize) -> Vec<Envelope<u64>> {
    let mut rng = network_rng(SEED, 0, 0);
    let hot = (n / 100).max(1) as u32;
    (0..n * PER_NODE)
        .map(|i| {
            let src = (i / PER_NODE) as u32;
            let dst = if i % 4 == 0 {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..n as u32)
            };
            Envelope::new(src, dst, i as u64)
        })
        .collect()
}

fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_delivery");
    group.sample_size(10);
    // routes `template` once per iteration on one long-lived router
    let mut arm = |name: &str, n: usize, template: &[Envelope<u64>]| {
        let recv = Capacity::default_for(n).recv;
        group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
            let mut router: Router<u64> = Router::new(n, SEED, 1);
            let mut batch: Vec<Envelope<u64>> = Vec::with_capacity(template.len());
            b.iter(|| {
                batch.clear();
                batch.extend_from_slice(template);
                router.route(&mut batch, 1, recv)
            });
        });
    };
    for &n in &[1_000usize, 10_000, 100_000] {
        let template = make_sends(n);
        arm("batched", n, &template);
    }
    let n = 1 << 20;
    let mut rng = network_rng(SEED, 1, 0);
    let sparse: Vec<Envelope<u64>> = (0..1u32 << 16)
        .map(|i| Envelope::new(i, rng.gen_range(0..n as u32), i as u64))
        .collect();
    arm("sparse", n, &sparse);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_router
}
criterion_main!(benches);
