//! Whole-chip-loss property tests: on random multi-chip boards with
//! random per-core capacity vectors, killing a random chip under a live
//! board-aware placement and running the incremental repair must
//!
//! * never leave a cluster on the dead chip, on any dead core, or over
//!   any surviving core's capacity — the only violation a repaired
//!   placement may carry is `Unplaced`, and exactly for the clusters the
//!   typed [`DegradedPlacement`] lists;
//! * be **thread-count invariant**: the repaired placement, the repair
//!   report, and the degraded outcome are identical for
//!   `threads = 1, 2, 4` (the serve daemon and every CLI invocation may
//!   run with different parallelism yet must agree byte-for-byte);
//! * degrade deterministically: repeating the same repair on the same
//!   inputs reproduces the same typed shortfall, never an error or a
//!   panic.

use proptest::prelude::*;
use snnmap_core::{validate_board, Mapper, RunBudget, Violation};
use snnmap_hw::{Board, CoreConstraints, FaultMap, Placement};
use snnmap_model::{Pcn, PcnBuilder};
use snnmap_trace::NoopSink;

const THREADS: [usize; 3] = [1, 2, 4];

/// The serve daemon's fixed online-repair knobs (`REPAIR_RADIUS`,
/// `REPAIR_SWEEPS` in `snnmap-serve`): the properties hold for any
/// values, but testing the deployed ones pins the deployed behaviour.
const REPAIR_RADIUS: u16 = 2;
const REPAIR_SWEEPS: u64 = 16;

/// A random board (2–9 chips of 4–16 cores each), a PCN whose every
/// cluster fits one core, and a chip to kill. Dependent values (cluster
/// sizes bounded by the sampled capacities, edge endpoints bounded by
/// the cluster count) come off the proptest RNG directly, the same
/// reproducible-shrinking idiom as `metric_props`.
fn board_workload() -> impl Strategy<Value = (Board, Pcn, u32)> {
    ((1u16..=3, 2u16..=3, 2u16..=4, 2u16..=4), (4u32..=16, 64u64..=1024)).prop_perturb(
        |((gr, gc, cr, cc), (npc, spc)), mut rng| {
            let board = Board::uniform(
                gr,
                gc,
                cr,
                cc,
                CoreConstraints::new(npc, spc).expect("nonzero caps"),
            )
            .expect("board dims fit u16");
            let cores = board.mesh().len() as u32;
            // 30–85% core fill: the healthy map always fits, chip loss
            // sometimes does not — both repair outcomes get exercised.
            let fill = 30 + rng.next_u32() % 56;
            let clusters = (cores * fill / 100).max(2);
            let mut b = PcnBuilder::new();
            for _ in 0..clusters {
                let n = 1 + rng.next_u32() % npc;
                let s = 1 + rng.next_u64() % spc;
                b.add_cluster(n, s);
            }
            let num_edges = 1 + (rng.next_u32() as usize) % (clusters as usize * 2);
            for _ in 0..num_edges {
                let from = rng.next_u32() % clusters;
                let to = rng.next_u32() % clusters;
                let w = 0.1 + (rng.next_u32() % 800) as f32 / 100.0;
                b.add_edge(from, to, w).expect("endpoints in range");
            }
            let chip = rng.next_u32() % board.num_chips();
            (board, b.build().expect("PCN builds"), chip)
        },
    )
}

/// Runs map → kill-chip → repair at one thread count.
fn map_and_repair(
    board: &Board,
    pcn: &Pcn,
    chip: u32,
    threads: usize,
) -> (Placement, snnmap_core::RepairReport, FaultMap) {
    let mapper = Mapper::builder().threads(threads).board(board.clone()).build();
    let healthy = mapper.map(pcn, board.mesh()).expect("healthy board map").placement;
    let previous = FaultMap::new(board.mesh());
    let mut current = previous.clone();
    current.kill_chip(board, chip).expect("chip on board");
    let mut repaired = healthy;
    let report = mapper
        .repair_incremental_traced(
            pcn,
            &mut repaired,
            &previous,
            &current,
            REPAIR_RADIUS,
            RunBudget { max_sweeps: Some(REPAIR_SWEEPS), ..RunBudget::default() },
            &mut NoopSink,
        )
        .expect("repair returns Ok even when degraded");
    (repaired, report, current)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any whole-chip loss, the repaired placement carries no
    /// dead-chip, dead-core, or capacity violation — only the typed
    /// degraded report's clusters may be unplaced, and all of them are.
    #[test]
    fn repair_never_violates_capacity_or_lands_on_dead_chips(
        (board, pcn, chip) in board_workload(),
    ) {
        let (repaired, report, faults) = map_and_repair(&board, &pcn, chip, 1);
        let validation = validate_board(&pcn, &repaired, Some(&faults), &board).unwrap();
        let expected_unplaced: Vec<u32> =
            report.degraded.as_ref().map(|d| d.unplaced.clone()).unwrap_or_default();
        let mut unplaced = Vec::new();
        for v in validation.violations() {
            match *v {
                Violation::Unplaced { cluster } => unplaced.push(cluster),
                ref other => prop_assert!(
                    false,
                    "repaired placement still violates the board: {other} (chip {chip} of {})",
                    board
                ),
            }
        }
        prop_assert_eq!(
            unplaced, expected_unplaced,
            "validator and degraded report disagree on who is unplaced"
        );
        if report.degraded.is_none() {
            prop_assert!(validation.is_ok());
        }
    }

    /// The whole map → kill → repair pipeline is identical at 1, 2 and
    /// 4 threads: same placement, same moves, same degraded outcome.
    #[test]
    fn chip_repair_is_thread_count_invariant(
        (board, pcn, chip) in board_workload(),
    ) {
        let (ref_placement, ref_report, _) = map_and_repair(&board, &pcn, chip, THREADS[0]);
        for &threads in &THREADS[1..] {
            let (placement, report, _) = map_and_repair(&board, &pcn, chip, threads);
            prop_assert!(
                placement == ref_placement,
                "threads={} repaired placement diverged from threads={}",
                threads, THREADS[0]
            );
            prop_assert_eq!(
                &report.evicted, &ref_report.evicted,
                "eviction moves diverged at threads={}", threads
            );
            prop_assert_eq!(report.moved, ref_report.moved);
            prop_assert_eq!(report.region_cores, ref_report.region_cores);
            prop_assert_eq!(
                &report.degraded, &ref_report.degraded,
                "degraded outcome diverged at threads={}", threads
            );
        }
    }

    /// Degraded mode is deterministic data, never a crash: repeating the
    /// identical repair reproduces the identical typed report, and its
    /// shortfall accounting matches the PCN's own totals.
    #[test]
    fn degraded_outcome_is_deterministic_and_accounts_for_demand(
        (board, pcn, chip) in board_workload(),
    ) {
        let (first_placement, first, _) = map_and_repair(&board, &pcn, chip, 1);
        let (second_placement, second, _) = map_and_repair(&board, &pcn, chip, 1);
        prop_assert!(first_placement == second_placement, "repair is not reproducible");
        prop_assert_eq!(&first.degraded, &second.degraded);
        if let Some(d) = &first.degraded {
            prop_assert!(!d.unplaced.is_empty());
            prop_assert!(d.unplaced.windows(2).all(|w| w[0] < w[1]), "unplaced not sorted");
            let (n, s) = d.unplaced.iter().fold((0u64, 0u64), |(n, s), &c| {
                (n + u64::from(pcn.neurons_in(c)), s + pcn.synapses_in(c))
            });
            prop_assert_eq!(d.demand_neurons, n);
            prop_assert_eq!(d.demand_synapses, s);
        }
    }
}
