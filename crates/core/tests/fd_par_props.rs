//! Determinism property tests for the parallel Force-Directed engine:
//! on random PCNs over meshes up to 64×64 — including the fault-masked
//! path — `force_directed` must produce an **identical placement and
//! identical [`FdStats`]** for `threads = 1, 2, 4, 8`. Parallelism may
//! only change wall-clock time, never a single coordinate or statistic
//! (energies are compared via their bit patterns, not a tolerance).

use proptest::prelude::*;
use snnmap_core::{
    force_directed, hsc_placement, CoreError, FdConfig, FdRunOpts, FdStats, IncrementalCongestion,
    Objective, Potential, RunBudget,
};
use snnmap_hw::{CostModel, FaultInjector, FaultMap, FaultPattern, Mesh, Placement};
use snnmap_model::generators::random_pcn;
use snnmap_model::Pcn;
use snnmap_trace::{JsonlSink, NoopSink};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Run options that stop FD after `cap` sweeps (`None`: at convergence).
fn capped(cap: Option<u64>) -> FdRunOpts<'static> {
    let budget = RunBudget { max_sweeps: cap, ..RunBudget::default() };
    FdRunOpts { budget, ..FdRunOpts::default() }
}

/// FD with no hardware restriction or tracing, stopped after `cap` sweeps.
fn fd(
    pcn: &Pcn,
    p: &mut Placement,
    cfg: &FdConfig,
    cap: Option<u64>,
) -> Result<FdStats, CoreError> {
    force_directed(pcn, p, cfg, None, None, &mut capped(cap), &mut NoopSink)
}

/// Bitwise comparison of two stats records: `PartialEq` on the floats
/// would already fail on any rounding difference, but comparing bits also
/// distinguishes `-0.0` from `0.0` and documents the guarantee we make.
fn assert_stats_bits_equal(a: &FdStats, b: &FdStats, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.iterations, b.iterations, "iterations diverged: {}", ctx);
    prop_assert_eq!(a.swaps, b.swaps, "swaps diverged: {}", ctx);
    prop_assert_eq!(
        a.initial_energy.to_bits(),
        b.initial_energy.to_bits(),
        "initial energy bits diverged: {}",
        ctx
    );
    prop_assert_eq!(
        a.final_energy.to_bits(),
        b.final_energy.to_bits(),
        "final energy bits diverged: {}",
        ctx
    );
    prop_assert_eq!(a.converged, b.converged, "convergence flag diverged: {}", ctx);
    Ok(())
}

fn potential_from(idx: u8) -> Potential {
    match idx % 4 {
        0 => Potential::L2Squared,
        1 => Potential::L1,
        2 => Potential::L1Squared,
        _ => Potential::energy_model(CostModel::paper_target()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault-free path: HSC init + capped FD agree across thread counts
    /// on meshes from 8×8 to 64×64.
    #[test]
    fn fd_is_thread_count_invariant(
        side_idx in 0usize..4,
        fill_pct in 60u32..=100,
        pot_idx in 0u8..4,
        seed in 0u64..1000,
    ) {
        let side = [8u16, 16, 32, 64][side_idx];
        let cores = side as u32 * side as u32;
        let clusters = (cores * fill_pct / 100).max(4);
        let pcn = random_pcn(clusters, 4.0, seed).unwrap();
        let mesh = Mesh::new(side, side).unwrap();
        // Larger meshes get a sweep cap so the suite stays fast; the cap
        // cannot hide divergence (every sweep is compared end-state).
        let cap = if side >= 32 { Some(12) } else { None };

        let init = hsc_placement(&pcn, mesh, None, 1).unwrap();
        let mut reference = None;
        for threads in THREADS {
            prop_assert_eq!(
                &hsc_placement(&pcn, mesh, None, threads).unwrap(),
                &init,
                "initial placement diverged at threads={}",
                threads
            );
            let potential = potential_from(pot_idx);
            let cfg = FdConfig { potential, threads, ..FdConfig::default() };
            let mut p = init.clone();
            let stats = fd(&pcn, &mut p, &cfg, cap).unwrap();
            match &reference {
                None => reference = Some((p, stats)),
                Some((rp, rs)) => {
                    prop_assert_eq!(&p, rp, "placement diverged at threads={}", threads);
                    assert_stats_bits_equal(&stats, rs, &format!("threads={threads}"))?;
                }
            }
        }
    }

    /// Fault-masked path: dead cores constrain both the compacted Hilbert
    /// init and the FD swap moves; the thread count still changes nothing.
    #[test]
    fn masked_fd_is_thread_count_invariant(
        side_idx in 0usize..3,
        rate_pct in 1u32..=8,
        seed in 0u64..1000,
    ) {
        let side = [16u16, 32, 64][side_idx];
        let mesh = Mesh::new(side, side).unwrap();
        let pattern = FaultPattern::Uniform {
            core_rate: rate_pct as f64 / 100.0,
            link_rate: 0.0,
        };
        let fm: FaultMap = FaultInjector::new(seed).inject(mesh, &pattern).unwrap();
        let healthy = mesh.len() - fm.num_dead_cores() as usize;
        // Leave a little slack so the placement always fits.
        let clusters = (healthy as u32 * 9 / 10).max(4);
        let pcn = random_pcn(clusters, 4.0, seed ^ 0xA5A5).unwrap();
        let cap = if side >= 32 { Some(10) } else { None };

        let init = hsc_placement(&pcn, mesh, Some(&fm), 1).unwrap();
        let mut reference = None;
        for threads in THREADS {
            prop_assert_eq!(
                &hsc_placement(&pcn, mesh, Some(&fm), threads).unwrap(),
                &init,
                "masked initial placement diverged at threads={}",
                threads
            );
            let cfg = FdConfig { threads, ..FdConfig::default() };
            let mut p = init.clone();
            let mut opts = capped(cap);
            let stats =
                force_directed(&pcn, &mut p, &cfg, Some(&fm), None, &mut opts, &mut NoopSink)
                    .unwrap();
            for (_, coord) in p.iter_placed() {
                prop_assert!(!fm.is_dead(coord), "swap onto dead core {}", coord);
            }
            match &reference {
                None => reference = Some((p, stats)),
                Some((rp, rs)) => {
                    prop_assert_eq!(&p, rp, "masked placement diverged at threads={}", threads);
                    assert_stats_bits_equal(&stats, rs, &format!("masked threads={threads}"))?;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The delta-maintained congestion map must bit-equal a from-scratch
    /// rebuild after *any* sequence of swap moves — the invariant that
    /// lets the engine pay O(edges-touched) instead of O(network) per
    /// swap. The fixed-point cells make "bit-equal" meaningful: no
    /// tolerance, `i64` equality.
    #[test]
    fn incremental_congestion_bit_equals_a_rebuild_after_random_swaps(
        clusters in 4u32..=48,
        moves in proptest::collection::vec((0u32..48, 0u32..48), 1..40),
        seed in 0u64..1000,
    ) {
        let pcn = random_pcn(clusters, 4.0, seed).unwrap();
        let (rows, cols) = (8u16, 8u16);
        let mut coords: Vec<(u16, u16)> =
            (0..clusters).map(|c| ((c as u16) / cols, (c as u16) % cols)).collect();
        let mut inc = IncrementalCongestion::build(&pcn, &coords, rows, cols);
        // The full directed edge list, enumerated once (the same edges
        // `build` folds in).
        let edges: Vec<(u32, u32, f64)> = (0..clusters)
            .flat_map(|s| pcn.out_edges(s).map(move |(t, w)| (s, t, f64::from(w))))
            .collect();
        for &(i, j) in &moves {
            let (a, b) = (i % clusters, j % clusters);
            if a == b {
                continue;
            }
            // A swap move, maintained as deltas: peel every edge that
            // touches a moved endpoint, move, re-add at the new coords.
            for &(s, t, w) in &edges {
                if s == a || s == b || t == a || t == b {
                    inc.remove_edge(coords[s as usize], coords[t as usize], w);
                }
            }
            coords.swap(a as usize, b as usize);
            for &(s, t, w) in &edges {
                if s == a || s == b || t == a || t == b {
                    inc.add_edge(coords[s as usize], coords[t as usize], w);
                }
            }
        }
        let rebuilt = IncrementalCongestion::build(&pcn, &coords, rows, cols);
        prop_assert_eq!(inc.map(), rebuilt.map(), "delta map diverged from rebuild");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Composite refinement keeps both halves of the objective contract:
    /// the per-sweep objective breakdown (and the final placement/stats)
    /// is byte-identical across thread counts, and the composite total
    /// never rises sweep over sweep — Exact tension applies only swaps
    /// whose recomputed composite delta is positive.
    #[test]
    fn composite_fd_is_thread_invariant_and_descends_monotonically(
        fill_pct in 50u32..=95,
        lc_idx in 0usize..4,
        lt_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mesh = Mesh::new(12, 12).unwrap();
        let clusters = (144 * fill_pct / 100).max(8);
        let pcn = random_pcn(clusters, 4.0, seed).unwrap();
        let objective = Objective::Composite {
            lambda_c: [0.5, 1.0, 2.0, 4.0][lc_idx],
            lambda_t: [0.0, 0.1, 0.5][lt_idx],
        };
        let init = hsc_placement(&pcn, mesh, None, 1).unwrap();
        let mut reference = None;
        for threads in THREADS {
            let cfg = FdConfig { objective, threads, ..FdConfig::default() };
            let mut p = init.clone();
            let mut sink = JsonlSink::new(Vec::new()).with_timing(false);
            let mut opts = capped(Some(10));
            let stats =
                force_directed(&pcn, &mut p, &cfg, None, None, &mut opts, &mut sink).unwrap();
            let trace = String::from_utf8(sink.finish().unwrap()).unwrap();
            // The raw JSON tokens of the per-sweep composite totals:
            // compared as *bytes* across threads, parsed for descent.
            let series: Vec<String> = trace
                .lines()
                .filter(|l| l.contains("\"event\":\"objective\""))
                .map(|l| {
                    l.split("\"composite\":")
                        .nth(1)
                        .expect("objective event carries a composite field")
                        .split([',', '}'])
                        .next()
                        .unwrap()
                        .to_string()
                })
                .collect();
            prop_assert_eq!(
                series.len() as u64,
                stats.iterations,
                "one objective event per sweep (threads={})",
                threads
            );
            let mut prev = f64::INFINITY;
            for (i, tok) in series.iter().enumerate() {
                let v: f64 = tok.parse().expect("composite is a finite number");
                // Tiny slack for re-summation noise: the composite is
                // re-accumulated from blocks each sweep, while descent
                // is guaranteed on the exact per-swap deltas.
                prop_assert!(
                    v <= prev + prev.abs().max(1.0) * 1e-9,
                    "sweep {}: composite rose {} -> {} (threads={})",
                    i + 1,
                    prev,
                    v,
                    threads
                );
                prev = v;
            }
            match &reference {
                None => reference = Some((p, stats, series)),
                Some((rp, rs, rseries)) => {
                    prop_assert_eq!(&p, rp, "placement diverged at threads={}", threads);
                    assert_stats_bits_equal(&stats, rs, &format!("composite threads={threads}"))?;
                    prop_assert_eq!(
                        &series,
                        rseries,
                        "objective breakdown bytes diverged at threads={}",
                        threads
                    );
                }
            }
        }
    }
}

/// Sim-in-the-loop self-reweighting (no external hook): the engine folds
/// its own congestion heat into the weight field every 3 sweeps. The
/// reweight boundary is serial by design, so the thread count must still
/// change nothing — placement and stats bits included.
#[test]
fn hookless_reweighting_is_thread_count_invariant() {
    let pcn = random_pcn(180, 4.0, 13).unwrap();
    let mesh = Mesh::new(16, 16).unwrap();
    let init = hsc_placement(&pcn, mesh, None, 1).unwrap();
    let mut reference = None;
    for threads in THREADS {
        let cfg = FdConfig {
            objective: Objective::Congestion { lambda_c: 2.0 },
            reweight_every: Some(3),
            threads,
            ..FdConfig::default()
        };
        let mut p = init.clone();
        let stats = fd(&pcn, &mut p, &cfg, Some(12)).unwrap();
        match &reference {
            None => reference = Some((p, stats)),
            Some((rp, rs)) => {
                assert_eq!(&p, rp, "placement diverged at threads={threads}");
                assert_eq!(stats.iterations, rs.iterations, "threads={threads}");
                assert_eq!(stats.swaps, rs.swaps, "threads={threads}");
                assert_eq!(
                    stats.final_energy.to_bits(),
                    rs.final_energy.to_bits(),
                    "energy bits diverged at threads={threads}"
                );
            }
        }
    }
}

/// Every potential kernel, one fixed mid-size workload, all thread
/// counts: a deterministic sweep over the monomorphized kernel set so a
/// regression in any single kernel's SoA hot path (f64 or f32 build)
/// fails by name rather than only under proptest sampling.
#[test]
fn every_kernel_is_thread_count_invariant() {
    let pcn = random_pcn(200, 4.0, 11).unwrap();
    let mesh = Mesh::new(16, 16).unwrap();
    let init = hsc_placement(&pcn, mesh, None, 1).unwrap();
    for potential in [
        Potential::L1,
        Potential::L1Squared,
        Potential::L2Squared,
        Potential::energy_model(CostModel::paper_target()),
    ] {
        let mut reference = None;
        for threads in THREADS {
            let cfg = FdConfig { potential, threads, ..FdConfig::default() };
            let mut p = init.clone();
            let stats = fd(&pcn, &mut p, &cfg, Some(15)).unwrap();
            match &reference {
                None => reference = Some((p, stats)),
                Some((rp, rs)) => {
                    assert_eq!(&p, rp, "{potential:?}: placement diverged at threads={threads}");
                    assert_eq!(stats.swaps, rs.swaps, "{potential:?} threads={threads}");
                    assert_eq!(
                        stats.final_energy.to_bits(),
                        rs.final_energy.to_bits(),
                        "{potential:?}: energy bits diverged at threads={threads}"
                    );
                }
            }
        }
    }
}

/// One deterministic full-convergence run (no caps): the strongest form
/// of the guarantee on a mid-size mesh, exercised every test run rather
/// than under proptest shrinking.
#[test]
fn full_convergence_is_thread_count_invariant() {
    let pcn = random_pcn(240, 4.0, 7).unwrap();
    let mesh = Mesh::new(16, 16).unwrap();
    let init = hsc_placement(&pcn, mesh, None, 1).unwrap();
    let mut reference = None;
    for threads in THREADS {
        let cfg = FdConfig { threads, ..FdConfig::default() };
        let mut p = init.clone();
        let stats = fd(&pcn, &mut p, &cfg, None).unwrap();
        assert!(stats.converged, "threads={threads} failed to converge");
        match &reference {
            None => reference = Some((p, stats)),
            Some((rp, rs)) => {
                assert_eq!(&p, rp, "placement diverged at threads={threads}");
                assert_eq!(stats.iterations, rs.iterations);
                assert_eq!(stats.swaps, rs.swaps);
                assert_eq!(stats.final_energy.to_bits(), rs.final_energy.to_bits());
            }
        }
    }
}
