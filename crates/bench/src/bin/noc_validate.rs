//! Extension experiment: cross-validate the analytic §3.3 metrics
//! against the cycle-driven NoC simulator.
//!
//! For each small benchmark and for both a random and the proposed
//! placement, injects PCN-derived spike traffic into the simulated mesh
//! (random minimal routing, matching the `Expe` congestion model) and
//! compares simulated mean latency and per-router traversal statistics
//! against the analytic predictions.

use snnmap_bench::args::{Options, Scale};
use snnmap_bench::comparison::suite_at_scale;
use snnmap_bench::methods::Method;
use snnmap_bench::table::{fmt_value, Table};
use snnmap_hw::{CostModel, Mesh};
use snnmap_metrics::{congestion_map, evaluate, evaluate_with, EvalOptions};
use snnmap_noc::{NocConfig, NocSim, PcnTraffic, Routing};

fn main() {
    let mut options = Options::from_env();
    // This experiment is meaningful at small scale only: the simulator
    // models every router cycle.
    if !matches!(options.scale, Scale::Small) {
        eprintln!("[noc_validate] forcing --scale small (cycle-level simulation)");
        options.scale = Scale::Small;
    }
    let cost = CostModel::paper_target();
    let cycles = 2_000u64;

    let mut t = Table::new(&[
        "Benchmark",
        "Method",
        "AvgLat (analytic)",
        "AvgLat (simulated)",
        "Cong corr",
        "Delivered",
    ]);
    let (mut fewest, mut most) = (u64::MAX, 0u64);
    for bench in suite_at_scale(&options) {
        let pcn = bench.pcn(options.seed).expect("benchmark builds");
        let mesh = Mesh::square_for(pcn.num_clusters() as u64).expect("fits");
        // Scale injection so the aggregate offered load is ~0.01 packets
        // per router per cycle (the analytic model is contention-free, so
        // the comparison belongs in the uncongested regime).
        let scale = 0.01 * mesh.len() as f64 / pcn.total_traffic().max(1e-12);
        for method in [Method::Random, Method::Proposed] {
            let run = method.run(&pcn, mesh, None, options.seed).expect("fits");
            let analytic = if pcn.num_connections() > options.congestion_sample {
                evaluate_with(
                    &pcn,
                    &run.placement,
                    cost,
                    EvalOptions { congestion_sample: Some((options.congestion_sample, 0)) },
                )
            } else {
                evaluate(&pcn, &run.placement, cost)
            }
            .expect("placed");

            let mut sim = NocSim::new(
                mesh,
                NocConfig {
                    routing: Routing::RandomMinimal,
                    seed: options.seed,
                    queue_capacity: 16,
                },
            );
            let mut traffic = PcnTraffic::new(&pcn, &run.placement, scale, options.seed);
            traffic.run(&mut sim, cycles);
            let stats = sim.stats();
            fewest = fewest.min(stats.delivered);
            most = most.max(stats.delivered);

            // Pearson correlation between analytic Con(x,y) and simulated
            // per-router traversals.
            let acc = congestion_map(&pcn, &run.placement).expect("placed");
            let corr = pearson(acc.map(), &stats.traversals);

            t.row(&[
                bench.row.name.to_string(),
                method.name().to_string(),
                fmt_value(analytic.avg_latency),
                fmt_value(stats.average_latency()),
                format!("{corr:.3}"),
                format!("{}/{}", stats.delivered, stats.injected),
            ]);
        }
    }
    println!("\nNoC cross-validation (random-minimal routing, {cycles} injection cycles)\n");
    t.print();
    println!(
        "\nAnalytic latency is eq. 10, the traffic-weighted mean of (d+1)·L_r + d·L_w over d-hop\n\
         uncontended routes (L_r = {l_r}, L_w = {l_w}). The simulator counts d+1 router cycles per\n\
         uncontended packet, with no wire delay, plus any queueing, which is rare at this load.\n\
         Its mean is a sample of only the delivered packets ({fewest} to {most} per row), so it\n\
         can land above or below the analytic value: neither side bounds the other. `Cong corr`\n\
         is the Pearson correlation between the Expe congestion map (eq. 13) and simulated router\n\
         traversals.",
        l_r = cost.l_r,
        l_w = cost.l_w,
    );
}

fn pearson(a: &[f64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let (ma, mb) = (
        a.iter().sum::<f64>() / n,
        b.iter().map(|&x| x as f64).sum::<f64>() / n,
    );
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let (dx, dy) = (x - ma, y as f64 - mb);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}
