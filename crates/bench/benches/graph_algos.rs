//! Criterion benches for the §4/§5 graph algorithms (Table 1 rows 2–5 +
//! the orientation): wall-clock of full pipelines at fixed sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ncc_bench::{arboricity_workload, SEED};
use ncc_hashing::SharedRandomness;
use ncc_model::{Engine, NetConfig};

fn bench_orientation(c: &mut Criterion) {
    let mut group = c.benchmark_group("orientation");
    for &n in &[128usize, 256] {
        let g = arboricity_workload(n, 4, SEED);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let shared = SharedRandomness::new(SEED);
            b.iter(|| {
                let mut eng = Engine::new(NetConfig::new(n, SEED));
                ncc_core::orient(&mut eng, &shared, &g).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    // full §5 prep: orientation + broadcast trees
    let mut group = c.benchmark_group("prepare_pipeline");
    for &n in &[128usize, 256] {
        let g = arboricity_workload(n, 3, SEED);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut eng = Engine::new(NetConfig::new(n, SEED));
                ncc_core::prepare(&mut eng, SEED, Some(&g)).unwrap()
            });
        });
    }
    group.finish();
}

fn bench_mis_phase(c: &mut Criterion) {
    let n = 256;
    let g = arboricity_workload(n, 3, SEED);
    c.bench_function("mis_full_256", |b| {
        b.iter(|| {
            let mut eng = Engine::new(NetConfig::new(n, SEED));
            let prep = ncc_core::prepare(&mut eng, SEED, Some(&g)).unwrap();
            ncc_core::mis(&mut eng, prep.shared(), prep.trees(), &g).unwrap()
        });
    });
}

fn bench_bfs(c: &mut Criterion) {
    let g = ncc_graph::gen::grid(12, 12);
    let n = g.n();
    c.bench_function("bfs_grid_144", |b| {
        b.iter(|| {
            let mut eng = Engine::new(NetConfig::new(n, SEED));
            let prep = ncc_core::prepare(&mut eng, SEED, Some(&g)).unwrap();
            ncc_core::bfs(&mut eng, prep.shared(), prep.trees(), &g, 0).unwrap()
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_orientation, bench_pipeline, bench_mis_phase, bench_bfs
}
criterion_main!(benches);
