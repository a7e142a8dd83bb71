//! Workspace-level property-based tests on the core invariants.

use proptest::prelude::*;
use snnmap::core::{force_directed, hsc_placement, toposort, FdConfig, FdRunOpts, Potential};
use snnmap::curves::{Gilbert, Hilbert, Serpentine, SpaceFillingCurve, Spiral};
use snnmap::metrics::{energy, evaluate};
use snnmap::model::generators::random_pcn;
use snnmap::model::partition;
use snnmap::prelude::*;
use snnmap::trace::NoopSink;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serpentine and spiral traversals are continuous permutations on
    /// any mesh; the generalized Hilbert curve is a permutation with at
    /// most one diagonal junction.
    #[test]
    fn curves_are_continuous_permutations(rows in 1u16..40, cols in 1u16..40) {
        let mesh = Mesh::new(rows, cols).unwrap();
        for curve in [&Serpentine as &dyn SpaceFillingCurve, &Spiral] {
            let order = curve.traversal(mesh).unwrap();
            snnmap::curves::assert_valid_continuous_traversal(mesh, &order);
        }
        let order = Gilbert.traversal(mesh).unwrap();
        snnmap::curves::assert_valid_traversal_with_jumps(mesh, &order, 2, 1);
    }

    /// Hilbert d2xy/xy2d are inverse bijections on pow2 squares.
    #[test]
    fn hilbert_bijection(k in 0u32..6, d in 0u64..4096) {
        let side = 1u32 << k;
        let d = d % (side as u64 * side as u64);
        let (x, y) = Hilbert::d2xy(side, d);
        prop_assert!(x < side && y < side);
        prop_assert_eq!(Hilbert::xy2d(side, x, y), d);
    }

    /// Partitioning preserves neurons and traffic and respects CON_npc.
    #[test]
    fn partition_invariants(
        l1 in 1u32..40, l2 in 1u32..40, l3 in 1u32..40, npc in 1u32..64
    ) {
        let snn = DnnSpec::new(&[l1 as u64, l2 as u64, l3 as u64]).unwrap().build(0).unwrap();
        let pcn = partition(&snn, CoreConstraints::new(npc, u64::MAX).unwrap()).unwrap();
        prop_assert_eq!(pcn.total_neurons(), (l1 + l2 + l3) as u64);
        for c in 0..pcn.num_clusters() {
            prop_assert!(pcn.neurons_in(c) <= npc);
        }
        let total = pcn.total_traffic() + pcn.intra_traffic();
        prop_assert!((total - snn.total_traffic()).abs() < 1e-6 * snn.total_traffic().max(1.0));
    }

    /// Toposort is a permutation respecting DAG edges for layered nets.
    #[test]
    fn toposort_respects_layered_edges(seed in 0u64..500) {
        let pcn = random_pcn(60, 3.0, seed).unwrap();
        let order = toposort(&pcn);
        let mut seen = vec![false; 60];
        for &c in &order {
            prop_assert!(!seen[c as usize]);
            seen[c as usize] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// FD never increases energy and leaves a consistent placement, for
    /// every potential and random graph.
    #[test]
    fn fd_descends_energy(seed in 0u64..200, pot in 0usize..4) {
        let (_, cost) = snnmap::hw::presets::paper_target();
        let potential = [
            Potential::L1,
            Potential::L1Squared,
            Potential::L2Squared,
            Potential::energy_model(cost),
        ][pot];
        let pcn = random_pcn(49, 4.0, seed).unwrap();
        let mesh = Mesh::new(7, 7).unwrap();
        let mut placement = hsc_placement(&pcn, mesh, None, 1).unwrap();
        let before = energy(&pcn, &placement, cost).unwrap();
        let cfg = FdConfig { potential, ..FdConfig::default() };
        let mut opts = FdRunOpts::default();
        let stats =
            force_directed(&pcn, &mut placement, &cfg, None, None, &mut opts, &mut NoopSink)
                .unwrap();
        prop_assert!(stats.final_energy <= stats.initial_energy + 1e-9);
        placement.check_consistency().unwrap();
        if matches!(potential, Potential::EnergyModel { .. }) {
            let after = energy(&pcn, &placement, cost).unwrap();
            prop_assert!(after <= before + 1e-9);
        }
    }

    /// Metric sanity on arbitrary placements: avg <= max, congestion
    /// coverage is 1 for exact evaluation, and metrics scale linearly in
    /// edge weights.
    #[test]
    fn metric_sanity(seed in 0u64..200) {
        let (_, cost) = snnmap::hw::presets::paper_target();
        let pcn = random_pcn(30, 3.0, seed).unwrap();
        let mesh = Mesh::new(6, 6).unwrap();
        let placement = hsc_placement(&pcn, mesh, None, 1).unwrap();
        let r = evaluate(&pcn, &placement, cost).unwrap();
        prop_assert!(r.avg_latency <= r.max_latency + 1e-12);
        prop_assert!(r.avg_congestion <= r.max_congestion + 1e-12);
        prop_assert_eq!(r.congestion_coverage, 1.0);
    }
}
