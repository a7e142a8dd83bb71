//! Integration tests validating the analytic metrics (§3.3) against the
//! cycle-level NoC simulator.

use snnmap::io::render_placement;
use snnmap::metrics::congestion_map;
use snnmap::noc::{NocConfig, NocSim, PcnTraffic, Routing};
use snnmap::prelude::*;
use snnmap::trace::{sha256_hex, NoopSink};

#[test]
fn simulated_latency_matches_analytic_at_low_load() {
    let (_, cost) = snnmap::hw::presets::paper_target();
    let pcn = snnmap::model::generators::random_pcn(64, 4.0, 11).expect("builds");
    let mesh = Mesh::new(8, 8).expect("mesh");
    let placement = Mapper::builder().build().map(&pcn, mesh).expect("maps").placement;
    let analytic = evaluate(&pcn, &placement, cost).expect("eval");

    let scale = 0.01 * mesh.len() as f64 / pcn.total_traffic();
    let mut sim = NocSim::new(
        mesh,
        NocConfig { routing: Routing::RandomMinimal, seed: 5, queue_capacity: 16 },
    );
    let mut traffic = PcnTraffic::new(&pcn, &placement, scale, 5);
    traffic.run(&mut sim, 5_000);
    let s = sim.stats();
    assert!(s.delivered > 100, "need a meaningful sample, got {}", s.delivered);
    // L_w = 0.01 per hop separates the models by under 1%; queueing at
    // this load adds a similarly small amount.
    let rel = (s.average_latency() - analytic.avg_latency).abs() / analytic.avg_latency;
    assert!(
        rel < 0.10,
        "simulated {} vs analytic {} ({:.1}% off)",
        s.average_latency(),
        analytic.avg_latency,
        rel * 100.0
    );
}

#[test]
fn expe_congestion_map_correlates_with_simulated_traversals() {
    let pcn = snnmap::model::generators::random_pcn(100, 4.0, 13).expect("builds");
    let mesh = Mesh::new(10, 10).expect("mesh");
    let placement = Mapper::builder().build().map(&pcn, mesh).expect("maps").placement;

    let analytic = congestion_map(&pcn, &placement).expect("eval");
    let scale = 0.02 * mesh.len() as f64 / pcn.total_traffic();
    let mut sim = NocSim::new(
        mesh,
        NocConfig { routing: Routing::RandomMinimal, seed: 3, queue_capacity: 16 },
    );
    let mut traffic = PcnTraffic::new(&pcn, &placement, scale, 3);
    traffic.run(&mut sim, 10_000);
    let sim_map = &sim.stats().traversals;

    // Pearson correlation between analytic Con(x, y) and simulated
    // traversal counts.
    let a = analytic.map();
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = sim_map.iter().map(|&x| x as f64).sum::<f64>() / n;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(sim_map) {
        let (dx, dy) = (x - ma, y as f64 - mb);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    let corr = cov / (va.sqrt() * vb.sqrt());
    assert!(corr > 0.9, "congestion correlation too weak: {corr}");
}

#[test]
fn xy_and_random_minimal_deliver_identical_payload_counts() {
    let pcn = snnmap::model::generators::random_pcn(36, 3.0, 17).expect("builds");
    let mesh = Mesh::new(6, 6).expect("mesh");
    let placement = Mapper::builder().build().map(&pcn, mesh).expect("maps").placement;
    let scale = 0.05 * mesh.len() as f64 / pcn.total_traffic();

    let deliver = |routing| {
        let mut sim = NocSim::new(mesh, NocConfig { routing, seed: 7, queue_capacity: 32 });
        // Same traffic seed: identical injection sequence as long as no
        // rejections occur (large queues at low load).
        let mut traffic = PcnTraffic::new(&pcn, &placement, scale, 9);
        traffic.run(&mut sim, 2_000);
        assert_eq!(sim.stats().rejected, 0, "load should be below rejection");
        sim.stats().delivered
    };
    assert_eq!(deliver(Routing::Xy), deliver(Routing::RandomMinimal));
}

/// The placement of [`sim_in_the_loop_placement_is_pinned`].
const SIM_IN_THE_LOOP: &str = "a547ba136270d992b456ff4abaeb361b4e1b00e84b8cc27aa3d89879cd196459";

/// Sim-in-the-loop refinement, pinned: the composite objective at
/// λc = 4 with a `NocReweighter` replay every 2 sweeps, 12 sweeps of a
/// 300-cluster PCN on 20×20. The release-mode `pareto_*` digests cover
/// the Table 3 workloads; this one runs in the debug test suite.
#[test]
fn sim_in_the_loop_placement_is_pinned() {
    use snnmap::core::{
        force_directed, hsc_placement, FdConfig, FdRunOpts, Objective, RunBudget,
    };
    use snnmap::noc::NocReweighter;

    let pcn = snnmap::model::generators::random_pcn(300, 4.0, 7).expect("builds");
    let mesh = Mesh::new(20, 20).expect("mesh");
    let wmax = pcn.iter_edges().map(|(_, _, w)| f64::from(w)).fold(0.0, f64::max);
    for threads in [1, 2] {
        let mut p = hsc_placement(&pcn, mesh, None, threads).expect("HSC");
        let config = FdConfig {
            objective: Objective::Composite { lambda_c: 4.0, lambda_t: 0.0 },
            reweight_every: Some(2),
            threads,
            ..FdConfig::default()
        };
        let mut noc = NocReweighter::new(&pcn, 0.25 / wmax, 256, 42);
        let mut opts = FdRunOpts {
            reweighter: Some(&mut noc),
            budget: RunBudget { max_sweeps: Some(12), ..RunBudget::default() },
            ..FdRunOpts::default()
        };
        let stats = force_directed(&pcn, &mut p, &config, None, None, &mut opts, &mut NoopSink)
            .expect("FD");
        assert_eq!((stats.iterations, stats.swaps), (12, 472), "threads {threads}");
        assert_eq!(sha256_hex(render_placement(&p).as_bytes()), SIM_IN_THE_LOOP, "threads {threads}");
    }
}
