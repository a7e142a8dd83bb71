//! Criterion benchmarks for the §3.3 metric evaluations.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use snnmap_core::hsc_placement;
use snnmap_hw::{CostModel, Mesh};
use snnmap_metrics::{average_latency, congestion_map, energy, evaluate};
use snnmap_model::generators::random_pcn;

fn bench_metrics(c: &mut Criterion) {
    let cost = CostModel::paper_target();
    let mut g = c.benchmark_group("metrics");
    for clusters in [1024u32, 4096] {
        let pcn = random_pcn(clusters, 4.0, 5).unwrap();
        let mesh = Mesh::square_for(clusters as u64).unwrap();
        let p = hsc_placement(&pcn, mesh, None, 1).unwrap();
        g.bench_with_input(BenchmarkId::new("energy", clusters), &clusters, |b, _| {
            b.iter(|| energy(black_box(&pcn), black_box(&p), cost).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("avg_latency", clusters), &clusters, |b, _| {
            b.iter(|| average_latency(black_box(&pcn), black_box(&p), cost).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("congestion_map", clusters), &clusters, |b, _| {
            b.iter(|| congestion_map(black_box(&pcn), black_box(&p)).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("evaluate_all", clusters), &clusters, |b, _| {
            b.iter(|| evaluate(black_box(&pcn), black_box(&p), cost).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
