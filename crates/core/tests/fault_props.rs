//! Property tests for fault-aware placement and Force-Directed
//! refinement: on any mesh up to 32×32 with up to 10% injected faults,
//! placement either completes while touching zero faulty cores or fails
//! with the typed [`CoreError::InsufficientCores`], and FD preserves
//! injectivity, occupancy consistency, and fault avoidance while never
//! increasing energy.

use proptest::prelude::*;
use snnmap_core::{
    force_directed, hsc_placement, random_placement, CoreError, FdConfig, FdRunOpts, RunBudget,
};
use snnmap_hw::{FaultInjector, FaultMap, FaultPattern, Mesh, Placement};
use snnmap_model::generators::random_pcn;
use snnmap_model::Pcn;
use snnmap_trace::NoopSink;

fn inject(mesh: Mesh, rate: f64, seed: u64) -> FaultMap {
    let pattern = FaultPattern::Uniform { core_rate: rate, link_rate: 0.0 };
    FaultInjector::new(seed).inject(mesh, &pattern).expect("valid rate")
}

/// Asserts the outcome contract shared by every masked placement entry
/// point: complete, injective, fault-avoiding — or the typed
/// insufficiency error with accurate counts.
fn check_outcome(
    result: Result<Placement, CoreError>,
    pcn: &Pcn,
    mesh: Mesh,
    fm: &FaultMap,
) -> Result<(), TestCaseError> {
    let n = pcn.num_clusters();
    let healthy = mesh.len() - fm.num_dead_cores() as usize;
    match result {
        Ok(p) => {
            prop_assert!(n as usize <= healthy, "placement succeeded without room");
            prop_assert_eq!(p.placed_count(), n);
            prop_assert!(p.check_consistency().is_ok(), "{:?}", p.check_consistency());
            for (_, coord) in p.iter_placed() {
                prop_assert!(!fm.is_dead(coord), "cluster placed on dead core {coord}");
            }
        }
        Err(CoreError::InsufficientCores { clusters, healthy: h, total }) => {
            prop_assert!(n as usize > healthy, "spurious insufficiency error");
            prop_assert_eq!(clusters, n);
            prop_assert_eq!(h, healthy);
            prop_assert_eq!(total, mesh.len());
        }
        Err(e) => prop_assert!(false, "unexpected error: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Masked Hilbert and random placements on meshes up to 32×32 with up
    /// to 10% dead cores: either every cluster lands on a distinct
    /// healthy core, or the typed insufficiency error reports the exact
    /// shortfall.
    #[test]
    fn masked_placement_avoids_faults_or_reports_insufficiency(
        rows in 2u16..=32,
        cols in 2u16..=32,
        rate in 0.0f64..0.10,
        load in 0.05f64..1.0,
        seed in 0u64..1000,
    ) {
        let mesh = Mesh::new(rows, cols).unwrap();
        let fm = inject(mesh, rate, seed);
        let n = ((mesh.len() as f64 * load).ceil() as u32).max(1);
        let pcn = random_pcn(n, (n - 1).min(2) as f64, seed).unwrap();
        check_outcome(hsc_placement(&pcn, mesh, Some(&fm), 1), &pcn, mesh, &fm)?;
        check_outcome(random_placement(&pcn, mesh, seed, Some(&fm)), &pcn, mesh, &fm)?;
    }

    /// The masked random placement is a pure function of its seed.
    #[test]
    fn masked_random_placement_is_deterministic_per_seed(
        side in 3u16..=16,
        rate in 0.0f64..0.10,
        seed in 0u64..1000,
    ) {
        let mesh = Mesh::new(side, side).unwrap();
        let fm = inject(mesh, rate, seed);
        let healthy = mesh.len() - fm.num_dead_cores() as usize;
        let n = (healthy as u32 / 2).max(1);
        let pcn = random_pcn(n, 1.0, seed).unwrap();
        let a = random_placement(&pcn, mesh, seed, Some(&fm)).unwrap();
        let b = random_placement(&pcn, mesh, seed, Some(&fm)).unwrap();
        for c in 0..n {
            prop_assert_eq!(a.coord_of(c), b.coord_of(c));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Force-Directed refinement under a fault mask keeps the placement
    /// injective and consistent, never moves a cluster onto a dead core,
    /// and never increases system energy.
    #[test]
    fn fd_swaps_preserve_invariants_under_fault_masks(
        side in 4u16..=10,
        rate in 0.0f64..0.10,
        seed in 0u64..500,
    ) {
        let mesh = Mesh::new(side, side).unwrap();
        let fm = inject(mesh, rate, seed);
        let healthy = mesh.len() - fm.num_dead_cores() as usize;
        let n = ((healthy * 3 / 4) as u32).max(4);
        let pcn = random_pcn(n, 2.0, seed).unwrap();
        let mut p = hsc_placement(&pcn, mesh, Some(&fm), 1).unwrap();
        let config = FdConfig::default();
        let budget = RunBudget { max_sweeps: Some(25), ..RunBudget::default() };
        let mut opts = FdRunOpts { budget, ..FdRunOpts::default() };
        let stats =
            force_directed(&pcn, &mut p, &config, Some(&fm), None, &mut opts, &mut NoopSink)
                .unwrap();
        prop_assert!(
            stats.final_energy <= stats.initial_energy + 1e-9,
            "energy rose: {} -> {}",
            stats.initial_energy,
            stats.final_energy
        );
        prop_assert_eq!(p.placed_count(), n);
        prop_assert!(p.check_consistency().is_ok(), "{:?}", p.check_consistency());
        for (_, coord) in p.iter_placed() {
            prop_assert!(!fm.is_dead(coord), "FD moved a cluster onto dead core {coord}");
        }
    }
}
