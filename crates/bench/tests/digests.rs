//! The committed placement digests, regenerated and pinned.
//!
//! Every placement here is pinned as `sha256_hex(render_placement(p))`:
//! the sha256 of the exact bytes `snnmap map --out` writes, the same
//! convention `snnbench` and `snnmap-serve` report. Next to each digest
//! sit the counts the docs quote (swaps, evictions, moves), so a change
//! to FD, repair, multilevel or the composite objective that moves any
//! placement fails here. EXPERIMENTS.md maps the older FNV digests onto
//! these values.
//!
//! The tests take seconds each in release and far longer in debug, so
//! all of them are `#[ignore]`d:
//!
//! ```text
//! cargo test --release -p snnmap-bench --test digests -- \
//!     --ignored --skip multicore_fd_reference_runs_faster_on_two_threads
//! ```
//!
//! The skipped multicore gate also asserts a 2-thread FD speedup, which
//! only means something on a runner with two real CPUs; run it alone with
//! `-- --ignored --exact multicore_fd_reference_runs_faster_on_two_threads`.

use std::time::{Duration, Instant};

use snnmap_core::{
    force_directed, hsc_placement, validate_board, FdCheckpoint, FdConfig, FdRunOpts, FdStats,
    InitialPlacement, Mapper, MultilevelConfig, Objective, Potential, RepairReport, RunBudget,
    StopReason,
};
use snnmap_hw::{Board, FaultMap, Mesh, Placement};
use snnmap_io::render_placement;
use snnmap_model::generators::{random_pcn, scramble_pcn, table3_suite};
use snnmap_model::{Pcn, PcnBuilder};
use snnmap_noc::NocReweighter;
use snnmap_trace::{sha256_hex, MemorySink, NoopSink, TraceEvent};

/// HSC + 40 FD sweeps on the 60k reference PCN over 256×256
/// (FNV `4d2a1d74b5c33567` before the sha256 convention).
const FD_REFERENCE: &str = "98f171ea3ce34f6b18bc6332a6210aa07d0a8023b66987732121baf2e9453e6a";
/// The reference PCN mapped with a 6-sweep budget, flat or on the 8×8
/// board (the board's capacities never bind, so both land here).
const HEALTHY_6_SWEEPS: &str = "8611cc11bde2be8facbe373f9364c4ae2454696e6d06d7de2be5b589001b0ef6";

fn digest(p: &Placement) -> String {
    sha256_hex(render_placement(p).as_bytes())
}

/// 60,000 clusters, degree 4, seed 42: the workload behind every
/// 256×256 record.
fn reference_pcn() -> Pcn {
    random_pcn(60_000, 4.0, 42).expect("reference PCN")
}

fn square(side: u16) -> Mesh {
    Mesh::new(side, side).expect("mesh")
}

fn capped<'h>(sweeps: u64) -> FdRunOpts<'h> {
    FdRunOpts {
        budget: RunBudget { max_sweeps: Some(sweeps), ..RunBudget::default() },
        ..FdRunOpts::default()
    }
}

/// Clusters whose core differs between two placements.
fn moved(a: &Placement, b: &Placement, clusters: u32) -> u64 {
    (0..clusters).filter(|&c| a.coord_of(c) != b.coord_of(c)).count() as u64
}

fn repair(
    mapper: &Mapper,
    pcn: &Pcn,
    placement: &mut Placement,
    current: &FaultMap,
    sweeps: u64,
) -> RepairReport {
    let previous = FaultMap::new(current.mesh());
    let budget = RunBudget { max_sweeps: Some(sweeps), ..RunBudget::default() };
    mapper
        .repair_incremental_traced(pcn, placement, &previous, current, 2, budget, &mut NoopSink)
        .expect("repair")
}

/// HSC + 40 capped FD sweeps; returns the FD wall time too.
fn fd_reference(pcn: &Pcn, threads: usize) -> (Placement, FdStats, Duration) {
    let mut p = hsc_placement(pcn, square(256), None, threads).expect("HSC");
    let config = FdConfig { threads, ..FdConfig::default() };
    let start = Instant::now();
    let stats = force_directed(pcn, &mut p, &config, None, None, &mut capped(40), &mut NoopSink)
        .expect("FD");
    (p, stats, start.elapsed())
}

#[test]
#[ignore = "release-mode digest suite"]
fn fd_reference_is_thread_count_invariant() {
    let pcn = reference_pcn();
    for threads in [1, 2, 4] {
        let (p, stats, _) = fd_reference(&pcn, threads);
        assert_eq!((stats.iterations, stats.swaps), (40, 608_081), "threads={threads}");
        assert_eq!(digest(&p), FD_REFERENCE, "threads={threads}");
    }
}

#[test]
#[ignore = "release-mode digest suite"]
fn tracing_leaves_the_reference_pipeline_unchanged() {
    let pcn = reference_pcn();
    let mapper = Mapper::builder().max_iterations(40).threads(4).build();
    let plain = mapper.map(&pcn, square(256)).expect("untraced map");
    let mut sink = MemorySink::new();
    let traced = mapper.map_traced(&pcn, square(256), &mut sink).expect("traced map");
    assert_eq!(digest(&plain.placement), FD_REFERENCE);
    assert_eq!(digest(&traced.placement), FD_REFERENCE);
    let counts = |s: &FdStats| (s.iterations, s.swaps);
    assert_eq!(plain.fd_stats.as_ref().map(counts), Some((40, 608_081)));
    assert_eq!(traced.fd_stats.as_ref().map(counts), Some((40, 608_081)));
    let sweeps = sink.events().iter().filter(|e| matches!(e, TraceEvent::FdSweep(_))).count();
    assert_eq!(sweeps, 40, "one fd_sweep event per sweep");
}

#[test]
#[ignore = "release-mode digest suite"]
fn chip_loss_evacuation_beats_a_full_remap() {
    let board = Board::parse("8x8/32x32@4096,65536").expect("board");
    let pcn = reference_pcn();
    let mut dead = FaultMap::new(board.mesh());
    assert_eq!(dead.kill_chip(&board, 27).expect("chip 27"), 1024);
    let mut healthy = None;
    for threads in [1, 2, 4] {
        let mapper = Mapper::builder().threads(threads).board(board.clone()).build();
        let map = mapper
            .map_budgeted_traced(&pcn, board.mesh(), &mut capped(6), &mut NoopSink)
            .expect("healthy map")
            .placement;
        validate_board(&pcn, &map, None, &board).expect("healthy map is capacity-valid");
        assert_eq!(digest(&map), HEALTHY_6_SWEEPS, "threads={threads}");

        let mut repaired = map.clone();
        let report = repair(&mapper, &pcn, &mut repaired, &dead, 16);
        assert!(report.degraded.is_none(), "63 chips absorb one chip's load");
        validate_board(&pcn, &repaired, Some(&dead), &board).expect("repair is valid");
        assert_eq!(
            (report.evicted.len(), report.moved, report.region_cores),
            (1024, 1478, 2713),
            "threads={threads}"
        );
        assert_eq!(
            digest(&repaired),
            "15b2d1f8eb69b58cc91734e3462eab41678ae6a395bc5fd396af32b80385918b",
            "threads={threads}"
        );
        healthy = Some(map);
    }

    let remapper = Mapper::builder().board(board.clone()).fault_map(dead.clone()).build();
    let remap = remapper
        .map_budgeted_traced(&pcn, board.mesh(), &mut capped(6), &mut NoopSink)
        .expect("full remap")
        .placement;
    validate_board(&pcn, &remap, Some(&dead), &board).expect("remap is valid");
    assert_eq!(moved(&healthy.expect("mapped"), &remap, pcn.num_clusters()), 58_039);
    assert_eq!(digest(&remap), "135407f82e59625ccc42b038a0693e158a34fca7df5645ba78fa0229f44ee01c");
}

#[test]
#[ignore = "release-mode digest suite"]
fn chip_loss_beyond_capacity_degrades_deterministically() {
    // Four 1-neuron clusters fill both 1-neuron chips; losing one leaves
    // two clusters nowhere to go.
    let board = Board::parse("1x2/1x2@1,64").expect("board");
    let mut b = PcnBuilder::new();
    for _ in 0..4 {
        b.add_cluster(1, 1);
    }
    b.add_edge(0, 1, 1.0).expect("edge");
    b.add_edge(2, 3, 1.0).expect("edge");
    let pcn = b.build().expect("PCN");
    let mapper = Mapper::builder().board(board.clone()).build();
    let healthy = mapper.map(&pcn, board.mesh()).expect("map").placement;
    let mut dead = FaultMap::new(board.mesh());
    dead.kill_chip(&board, 1).expect("chip 1");
    let degrade = || {
        let mut p = healthy.clone();
        repair(&mapper, &pcn, &mut p, &dead, 16).degraded.expect("typed shortfall")
    };
    let first = degrade();
    assert_eq!((first.unplaced.len(), first.demand_neurons, first.spare_neurons), (2, 2, 0));
    assert_eq!(first, degrade());
}

#[test]
#[ignore = "release-mode digest suite"]
fn resume_from_any_kill_offset_matches_the_uninterrupted_run() {
    let pcn = reference_pcn();
    let mesh = square(256);
    for threads in [1, 4] {
        let mapper = Mapper::builder().threads(threads).build();
        let full = mapper.map_budgeted_traced(&pcn, mesh, &mut capped(6), &mut NoopSink);
        assert_eq!(digest(&full.expect("full run").placement), HEALTHY_6_SWEEPS);
        for kill in [1, 3, 5] {
            let mut slot: Option<FdCheckpoint> = None;
            let mut keep = |cp: &FdCheckpoint| -> Result<(), String> {
                slot = Some(cp.clone());
                Ok(())
            };
            let mut opts = capped(kill);
            opts.on_checkpoint = Some(&mut keep);
            let killed = mapper.map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink);
            drop(opts);
            let stop = killed.expect("killed run").fd_stats.expect("FD ran").stop;
            assert_eq!(stop, StopReason::SweepCapReached);
            let checkpoint = slot.expect("a budgeted stop flushes a checkpoint");
            assert_eq!(checkpoint.sweeps, kill);

            let mut opts = capped(6);
            opts.resume = Some(checkpoint);
            let resumed = mapper
                .map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink)
                .expect("resumed run");
            assert_eq!(resumed.fd_stats.expect("FD ran").iterations, 6);
            assert_eq!(
                digest(&resumed.placement),
                HEALTHY_6_SWEEPS,
                "threads={threads}, killed at sweep {kill}"
            );
        }
    }
}

#[test]
#[ignore = "release-mode digest suite"]
fn repairing_twelve_dead_cores_moves_122_clusters() {
    let pcn = reference_pcn();
    let mesh = square(256);
    let mapper = Mapper::builder().threads(1).build();
    let live = mapper
        .map_budgeted_traced(&pcn, mesh, &mut capped(6), &mut NoopSink)
        .expect("live map")
        .placement;
    let mut dead = FaultMap::new(mesh);
    for k in 0..12 {
        dead.kill_core(live.coord_of(k * 5_000).expect("placed")).expect("in mesh");
    }
    let mut repaired = live.clone();
    let report = repair(&mapper, &pcn, &mut repaired, &dead, 6);
    assert_eq!((report.evicted.len(), report.moved, report.region_cores), (12, 122, 228));
    assert_eq!(
        digest(&repaired),
        "c296087462fa82f9477e986a3d2b21ff7216d6caae4731301347ab8a40d06873"
    );

    let remapper = Mapper::builder().threads(1).fault_map(dead).build();
    let remap = remapper.map_budgeted_traced(&pcn, mesh, &mut capped(6), &mut NoopSink);
    assert_eq!(moved(&live, &remap.expect("full remap").placement, pcn.num_clusters()), 58_373);
}

/// The multilevel walk at `side`²: about 90% occupancy (exactly the 60k
/// reference at 256²), cluster ids scrambled so HSC cannot read the
/// communication geometry off the id order, 5 finest-level sweeps.
fn multilevel_walk(side: u16, threads: &[usize], swaps: u64, want: &str) {
    let clusters = if side == 256 { 60_000 } else { u32::from(side).pow(2) * 9 / 10 };
    let pcn = random_pcn(clusters, 4.0, 42).expect("PCN");
    let pcn = scramble_pcn(&pcn, 1234).expect("scramble");
    let multilevel = MultilevelConfig { final_sweeps: Some(5), ..MultilevelConfig::default() };
    for &threads in threads {
        let mapper = Mapper::builder().multilevel(multilevel.clone()).threads(threads).build();
        let out = mapper.map(&pcn, square(side)).expect("multilevel map");
        let stats = out.fd_stats.expect("finest-level FD");
        assert_eq!((stats.iterations, stats.swaps), (5, swaps), "{side}², threads={threads}");
        assert_eq!(digest(&out.placement), want, "{side}², threads={threads}");
    }
}

#[test]
#[ignore = "release-mode digest suite"]
fn multilevel_walk_64_to_256() {
    multilevel_walk(
        64,
        &[1, 2, 4],
        4_736,
        "52ae8304e07e0cd16ead8e73d403bb86d272ad6581c518fa0348927f491a0f85",
    );
    multilevel_walk(
        128,
        &[1, 2, 4],
        19_904,
        "b0811823978bf81aaa7ac5781d4b60a8eb79f98f1ebfed1fc9c367a8e6a3be26",
    );
    multilevel_walk(
        256,
        &[1, 2, 4],
        82_161,
        "d3b558e5eb958a49797cecd5d9ac3728cfb7db01936e769405e2065a9a881192",
    );
}

#[test]
#[ignore = "release-mode digest suite"]
fn multilevel_walk_512() {
    multilevel_walk(
        512,
        &[2],
        327_006,
        "1afe2f2171bb959d64dab0873feb2293dd971f7d9eb80990cf39319c747e746f",
    );
}

#[test]
#[ignore = "release-mode digest suite"]
fn multilevel_walk_1024() {
    multilevel_walk(
        1024,
        &[2],
        1_318_323,
        "d408c101f582482d09a3c2c42005405c09d50bb0bebb45db623d82fb8656524c",
    );
}

/// One (λc, sweeps, swaps, digest) point of the congestion sweep.
type ParetoPoint = (f64, u64, u64, &'static str);

/// Runs a Table 3 workload at each λc: the energy objective at λc = 0,
/// the composite objective with a NoC reweight every 4 sweeps above it,
/// 64 sweeps at most, at threads 1 and 2.
fn pareto(workload: &str, points: &[ParetoPoint]) {
    let bench = table3_suite().into_iter().find(|b| b.row.name == workload).expect("Table 3");
    let pcn = bench.pcn(42).expect("Table 3 PCN");
    let mesh = square(bench.row.mesh_side);
    // The hottest connection injects with probability 1/4 per cycle.
    let wmax = (0..pcn.num_clusters())
        .flat_map(|c| pcn.out_edges(c).map(|(_, w)| f64::from(w)))
        .fold(0.0, f64::max);
    for &(lambda_c, sweeps, swaps, want) in points {
        let composite = lambda_c > 0.0;
        for threads in [1, 2] {
            let mut p = hsc_placement(&pcn, mesh, None, threads).expect("HSC");
            let config = FdConfig {
                objective: if composite {
                    Objective::Composite { lambda_c, lambda_t: 0.0 }
                } else {
                    Objective::Energy
                },
                reweight_every: composite.then_some(4),
                threads,
                ..FdConfig::default()
            };
            let mut noc = NocReweighter::new(&pcn, 0.25 / wmax, 256, 42);
            let mut opts = capped(64);
            if composite {
                opts.reweighter = Some(&mut noc);
            }
            let stats = force_directed(&pcn, &mut p, &config, None, None, &mut opts, &mut NoopSink)
                .expect("FD");
            let at = format!("{workload} λc={lambda_c} threads={threads}");
            assert_eq!((stats.iterations, stats.swaps), (sweeps, swaps), "{at}");
            assert_eq!(digest(&p), want, "{at}");
        }
    }
}

#[test]
#[ignore = "release-mode digest suite"]
fn pareto_lenet_imagenet() {
    pareto(
        "LeNet-ImageNet",
        &[
            (0.0, 47, 801, "270b527e0f72ef27cb8dcf29d1ba231b8744cbc8964747f1c4f9c31ecb55a6fb"),
            (0.5, 64, 936, "feca71c947481f92812b3d6b32cbb3cfdab96f55a2ecfd7663a456c854c48366"),
            (1.0, 64, 1057, "3a3dc6153c245a947a34a7b5e7d401f91032773aec5a6dcde7ab78bd70373b09"),
            (2.0, 64, 997, "40b3377decfaa0aa59a5c70a7b831cb302e49c5ae8645f03d75ea4c41ae1815f"),
            (4.0, 64, 1151, "1eee1b8b27d805dbe12ca88f5012ac367423b1415e5f5798f422103e06fe41aa"),
        ],
    );
}

#[test]
#[ignore = "release-mode digest suite"]
fn pareto_alexnet() {
    pareto(
        "AlexNet",
        &[
            (0.0, 37, 714, "8687828813bc0237d708357bbcf6e1436be1f9084f7a6a98c82bbe19ba9d6e47"),
            (0.5, 43, 765, "123b82ac91ba7d66c3371bad74601d5226904db1a2a76e1e0cbeba95f2c7c1e7"),
            (1.0, 64, 881, "c001dfd18cbf8e1295c230e085a4e14eb775cb3b68068e58ff1caa614cc01e0a"),
            (2.0, 63, 864, "9c1f2214b1f16a40ded4e6e78abc8a9690721cda7f67636e05e0806f94d7f1c3"),
            (4.0, 64, 981, "1473b0834a18d8b92ca50119439a1040c567bfddf9fdbb97a74c6276a4407c00"),
        ],
    );
}

/// The placements `snnmap-serve` must return for eight 4000-cluster
/// jobs (seeds 100–107, 64×64, 200 sweeps): the offline mapper with the
/// job defaults. The daemon's own tests check served == offline.
#[test]
#[ignore = "release-mode digest suite"]
fn serve_offline_twins() {
    const WANT: [&str; 8] = [
        "44524c534604c91a4eeae6069d71b0fafb1dd79ee52d9e01f44e0b7e77611908",
        "02f653f0c502951734b79720a6bc3a830d58c702d7e4cbdd89bc275c238dce22",
        "fc6c38a4a01a2bf413ec1afdc78d69ca10a01c8a348ed34eddaa1659aafc1ca6",
        "d9cdb6b0fe51e8f16ae793bd11539a5744778e1c30e3911bd4308b7288d98a0d",
        "e8ad5e0b95105d27cda41a5ea68c0e9c2ffd80495c3b0c79b226927c071d23cc",
        "0fff91f8dfdc9458aede1b04ccb4de3b8ea536355a62aba9f9ca25bfa01bf9de",
        "bbd5b2e5934da5f39da4d95625a091b6bf8b33f466849257be0a176d1b142ce5",
        "e4e406ebfde5e6124fbfe7a1d297a61d481b7bcfba956e3240e1c926f0355ee5",
    ];
    let mapper = Mapper::builder()
        .initial_placement(InitialPlacement::Hilbert)
        .potential(Potential::L2Squared)
        .lambda(0.3)
        .threads(1)
        .build();
    for (seed, want) in (100..).zip(WANT) {
        let pcn = random_pcn(4_000, 4.0, seed).expect("PCN");
        let out = mapper
            .map_budgeted_traced(&pcn, square(64), &mut capped(200), &mut NoopSink)
            .expect("offline run");
        let stats = out.fd_stats.expect("FD ran");
        assert_eq!((stats.iterations, stats.stop), (200, StopReason::SweepCapReached));
        assert_eq!(digest(&out.placement), want, "seed {seed}");
    }
}

/// The CI multicore job's gate: on a runner with at least two CPUs, the
/// FD reference lands on its digest at threads 1 and 2, and the 2-thread
/// FD pass takes at most 0.9× the serial wall time.
#[test]
#[ignore = "multicore runner only"]
fn multicore_fd_reference_runs_faster_on_two_threads() {
    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    assert!(cpus >= 2, "this gate needs two CPUs, the runner has {cpus}");
    let pcn = reference_pcn();
    let (serial, dual) = (fd_reference(&pcn, 1), fd_reference(&pcn, 2));
    for (threads, (p, stats, _)) in [(1, &serial), (2, &dual)] {
        assert_eq!(stats.swaps, 608_081, "threads={threads}");
        assert_eq!(digest(p), FD_REFERENCE, "threads={threads}");
    }
    let (t1, t2) = (serial.2.as_secs_f64(), dual.2.as_secs_f64());
    println!("FD serial {t1:.3}s, 2 threads {t2:.3}s, speedup {:.2}x", t1 / t2);
    assert!(t2 <= 0.9 * t1, "2-thread FD ({t2:.3}s) is not below 0.9x serial ({t1:.3}s)");
}
