//! Criterion bench for the Appendix-A conversion: the overhead of the
//! k-machine model's per-round charge over the plain NCC model.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncc_baselines::gossip_all;
use ncc_bench::SEED;
use ncc_kmachine::KMachineModel;
use ncc_model::{Engine, NetConfig};

fn bench_conversion_overhead(c: &mut Criterion) {
    let n = 1024usize;
    let mut group = c.benchmark_group("kmachine_model");
    group.sample_size(10);
    for &k in &[0usize, 8] {
        // k = 0 → the plain NCC model (baseline)
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| {
                let cfg = NetConfig::new(n, SEED);
                let mut eng = match k {
                    0 => Engine::new(cfg),
                    k => Engine::with_model(cfg, Box::new(KMachineModel::new(n, k, SEED, 1))),
                };
                gossip_all(&mut eng).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conversion_overhead);
criterion_main!(benches);
