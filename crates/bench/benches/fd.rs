//! Criterion benchmarks for the Force-Directed engine.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use snnmap_core::{force_directed, hsc_placement, random_placement, FdConfig, FdRunOpts, FdStats};
use snnmap_hw::{Mesh, Placement};
use snnmap_model::generators::random_pcn;
use snnmap_model::Pcn;
use snnmap_trace::NoopSink;

/// FD to convergence with the default configuration.
fn converge(pcn: &Pcn, p: &mut Placement) -> FdStats {
    let mut opts = FdRunOpts::default();
    force_directed(pcn, p, &FdConfig::default(), None, None, &mut opts, &mut NoopSink).unwrap()
}

fn bench_fd_convergence(c: &mut Criterion) {
    let mut g = c.benchmark_group("fd_converge");
    g.sample_size(10);
    for clusters in [256u32, 1024, 4096] {
        let pcn = random_pcn(clusters, 4.0, 7).unwrap();
        let mesh = Mesh::square_for(clusters as u64).unwrap();
        let init = hsc_placement(&pcn, mesh, None, 1).unwrap();
        g.bench_with_input(BenchmarkId::new("from_hsc", clusters), &clusters, |b, _| {
            b.iter_batched(
                || init.clone(),
                |mut p| converge(&pcn, &mut p),
                BatchSize::LargeInput,
            )
        });
        let rnd = random_placement(&pcn, mesh, 3, None).unwrap();
        g.bench_with_input(BenchmarkId::new("from_random", clusters), &clusters, |b, _| {
            b.iter_batched(
                || rnd.clone(),
                |mut p| converge(&pcn, &mut p),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fd_convergence);
criterion_main!(benches);
