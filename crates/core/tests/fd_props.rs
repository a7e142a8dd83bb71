//! Property tests on the Force-Directed engine's convergence contract.

use proptest::prelude::*;
use snnmap_core::{
    force_directed, hsc_placement, random_placement, toposort, CoreError, FdConfig, FdRunOpts,
    FdStats, Potential,
};
use snnmap_hw::{CostModel, Mesh, Placement};
use snnmap_metrics::energy;
use snnmap_model::generators::random_pcn;
use snnmap_model::Pcn;
use snnmap_trace::NoopSink;

/// FD with no hardware restriction, run options or tracing.
fn fd(pcn: &Pcn, p: &mut Placement, cfg: &FdConfig) -> Result<FdStats, CoreError> {
    force_directed(pcn, p, cfg, None, None, &mut FdRunOpts::default(), &mut NoopSink)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FD is idempotent: re-running on a converged placement performs no
    /// further swaps (the converged state has no positive tension).
    #[test]
    fn fd_is_idempotent(seed in 0u64..500, lambda_pct in 1u32..10) {
        let pcn = random_pcn(36, 4.0, seed).unwrap();
        let mesh = Mesh::new(6, 6).unwrap();
        let cfg = FdConfig { lambda: lambda_pct as f64 / 10.0, ..FdConfig::default() };
        let mut p = random_placement(&pcn, mesh, seed, None).unwrap();
        let first = fd(&pcn, &mut p, &cfg).unwrap();
        prop_assert!(first.converged);
        let second = fd(&pcn, &mut p, &cfg).unwrap();
        prop_assert_eq!(second.swaps, 0, "second run must find nothing to do");
        prop_assert_eq!(second.iterations, 0);
    }

    /// The HSC+FD pipeline never loses to HSC alone, under any potential,
    /// measured by that potential's own objective *and* by M_ec when
    /// using the energy-model potential.
    #[test]
    fn pipeline_dominates_initialization(seed in 0u64..500) {
        let cost = CostModel::paper_target();
        let pcn = random_pcn(49, 4.0, seed).unwrap();
        let mesh = Mesh::new(7, 7).unwrap();
        let init = hsc_placement(&pcn, mesh, None, 1).unwrap();
        let e_init = energy(&pcn, &init, cost).unwrap();
        let mut p = init.clone();
        let cfg = FdConfig { potential: Potential::energy_model(cost), ..FdConfig::default() };
        fd(&pcn, &mut p, &cfg).unwrap();
        let e_fd = energy(&pcn, &p, cost).unwrap();
        prop_assert!(e_fd <= e_init + 1e-9, "{} > {}", e_fd, e_init);
    }

    /// FD statistics are internally consistent: energy delta equals the
    /// initial minus final report, and zero swaps implies equal energies.
    #[test]
    fn fd_stats_consistent(seed in 0u64..500) {
        let pcn = random_pcn(25, 3.0, seed).unwrap();
        let mesh = Mesh::new(5, 5).unwrap();
        let mut p = random_placement(&pcn, mesh, seed ^ 1, None).unwrap();
        let stats = fd(&pcn, &mut p, &FdConfig::default()).unwrap();
        prop_assert!(stats.final_energy <= stats.initial_energy + 1e-9);
        if stats.swaps == 0 {
            prop_assert!((stats.final_energy - stats.initial_energy).abs() < 1e-9);
        }
    }

    /// Toposort respects every edge of a DAG (layered construction).
    #[test]
    fn toposort_respects_random_dags(
        edges in prop::collection::vec((0u32..30, 0u32..30), 1..80)
    ) {
        // Orient every pair forward to guarantee a DAG.
        let mut b = snnmap_model::PcnBuilder::new();
        for _ in 0..30 {
            b.add_cluster(1, 1);
        }
        for (a, t) in edges {
            if a != t {
                b.add_edge(a.min(t), a.max(t), 1.0).unwrap();
            }
        }
        let pcn = b.build().unwrap();
        let order = toposort(&pcn);
        let pos: std::collections::HashMap<u32, usize> =
            order.iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for (f, t, _) in pcn.iter_edges() {
            prop_assert!(pos[&f] < pos[&t], "edge {}->{} violated", f, t);
        }
    }
}
