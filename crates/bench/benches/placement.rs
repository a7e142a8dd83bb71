//! Criterion benchmarks for the end-to-end mapping pipeline (the paper's
//! headline cost: toposort + Hilbert + FD).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use snnmap_core::{hsc_placement, toposort, Mapper};
use snnmap_hw::Mesh;
use snnmap_model::generators::random_pcn;

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("placement");
    g.sample_size(10);
    for clusters in [1024u32, 4096] {
        let pcn = random_pcn(clusters, 4.0, 9).unwrap();
        let mesh = Mesh::square_for(clusters as u64).unwrap();
        g.bench_with_input(BenchmarkId::new("toposort", clusters), &clusters, |b, _| {
            b.iter(|| toposort(black_box(&pcn)))
        });
        g.bench_with_input(BenchmarkId::new("hsc_init", clusters), &clusters, |b, _| {
            b.iter(|| hsc_placement(black_box(&pcn), mesh, None, 1).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("full_mapper", clusters), &clusters, |b, _| {
            b.iter(|| Mapper::builder().build().map(black_box(&pcn), mesh).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
