//! Pins the placement every public placement entry point produces on
//! small instances, by sha256 of the placement's coordinate table.
//!
//! The digests are the equivalence proof for API refactors of the two
//! placement phases — the Hilbert initial placement (`P_init = Hilbert ∘
//! Seq`, eq. 17) and FD refinement (Algorithm 3): a change of call syntax
//! must leave every digest here byte-identical. The incremental repair
//! (eviction to the nearest free core, then FD inside the dirty region)
//! is pinned the same way, so a faster repair must make the same moves.

use snnmap_core::{
    force_directed, hsc_placement, hsc_placement_board, random_placement, sequence_placement,
    FdConfig, FdRunOpts, Mapper, Potential, RepairReport, RunBudget,
};
use snnmap_curves::ZigZag;
use snnmap_hw::{Board, Coord, CoreConstraints, FaultMap, Mesh, Placement};
use snnmap_model::generators::random_pcn;
use snnmap_model::Pcn;
use snnmap_trace::{NoopSink, Sha256};

/// sha256 over the mesh shape and every cluster's coordinate (`u16`
/// little-endian `x`, `y`; `0xFFFF, 0xFFFF` for an unplaced cluster).
fn digest(p: &Placement) -> String {
    let mut h = Sha256::new();
    h.update(&p.mesh().rows().to_le_bytes());
    h.update(&p.mesh().cols().to_le_bytes());
    for c in 0..p.len() {
        let coord = p.coord_of(c).unwrap_or(Coord::new(u16::MAX, u16::MAX));
        h.update(&coord.x.to_le_bytes());
        h.update(&coord.y.to_le_bytes());
    }
    h.finalize_hex()
}

/// A deterministic scatter of dead cores: every `stride`-th core along
/// a diagonal-ish walk.
fn dead_cores(mesh: Mesh, count: u16, stride: u16) -> FaultMap {
    let mut fm = FaultMap::new(mesh);
    for i in 0..count {
        let x = (i * stride) % mesh.rows();
        let y = (i * 7 + 3) % mesh.cols();
        fm.kill_core(Coord::new(x, y)).unwrap();
    }
    fm
}

/// A 2x2-chip board of 8x8 cores where every third core of chip row 0
/// holds at most 2048 neurons, so the capacity filter has something to
/// reject for `random_pcn`'s 1..=4096-neuron clusters.
fn tight_board() -> Board {
    let mut board = Board::parse("2x2/8x8@4096,65536").unwrap();
    let small = CoreConstraints::new(2048, 65_536).unwrap();
    for x in 0..8u16 {
        for y in 0..16u16 {
            if (x + y) % 3 == 0 {
                board.set_constraints(Coord::new(x, y), small).unwrap();
            }
        }
    }
    board
}

/// HSC on a `2^k` square (parallel Hilbert) and on a non-`2^k` mesh
/// (serial Gilbert), with and without dead cores, at every thread count.
#[test]
fn hsc_serial_and_threaded() {
    let (square, rect) = (Mesh::new(64, 64).unwrap(), Mesh::new(12, 10).unwrap());
    let cases = [
        (random_pcn(3000, 4.0, 1).unwrap(), square, None),
        (random_pcn(100, 4.0, 2).unwrap(), rect, None),
        (random_pcn(3000, 4.0, 3).unwrap(), square, Some(dead_cores(square, 60, 5))),
        (random_pcn(100, 4.0, 2).unwrap(), rect, Some(dead_cores(rect, 9, 5))),
    ];
    let wants = [
        "6f688b2412c69a194747b07598b1bb6a3eb9e3937e2ce096845815f8551d86b8",
        "3e29ee625aa834e265a5986cfd35c1e75270a97646a6127e5facf971982c6943",
        "5c7d4ea850ccd212b47fa3a2b1976a62682dafd346c4872888b42e65419b5bcd",
        "edb91de90826246d5ae5729046bfa03197e54f09099c48825fe0cc82c308dc0f",
    ];
    for ((pcn, mesh, fm), want) in cases.iter().zip(wants) {
        for threads in [1, 2, 4, 8] {
            let p = hsc_placement(pcn, *mesh, fm.as_ref(), threads).unwrap();
            assert_eq!(digest(&p), want, "{mesh} faults={} threads={threads}", fm.is_some());
        }
    }
}

#[test]
fn hsc_on_a_board() {
    let board = tight_board();
    let pcn = random_pcn(200, 4.0, 4).unwrap();
    let want = "7b2ca8711b82a3fbd8800be9b7ab44da90cbfa650c93d7f84280c80a48dbc3a5";
    for threads in [1, 2] {
        let p = hsc_placement_board(&pcn, &board, None, threads).unwrap();
        assert_eq!(digest(&p), want, "threads={threads}");
    }
    let fm = dead_cores(board.mesh(), 12, 3);
    let p = hsc_placement_board(&pcn, &board, Some(&fm), 1).unwrap();
    assert_eq!(digest(&p), "ee87afbf4c5f889783cb74856a2dc38af25e7379ffdd8404ccab6b980a975ec0");
}

#[test]
fn zigzag_sequence_with_and_without_faults() {
    let order: Vec<u32> = (0..90u32).map(|i| (i * 37) % 90).collect();
    let mesh = Mesh::new(10, 12).unwrap();
    let p = sequence_placement(&order, &ZigZag, mesh, None).unwrap();
    assert_eq!(digest(&p), "9c5215b5363ababe21a0f89f52329e98d91d2c13e5d2938e49e1289a75d559cb");
    let fm = dead_cores(mesh, 11, 3);
    let p = sequence_placement(&order, &ZigZag, mesh, Some(&fm)).unwrap();
    assert_eq!(digest(&p), "bf16dbc3567e22b6bd1b9a37dffb6ed0c8356e1c40d4eb8b935f7a3186c5d2b7");
}

#[test]
fn random_with_and_without_faults() {
    let pcn = random_pcn(150, 4.0, 5).unwrap();
    let mesh = Mesh::new(16, 16).unwrap();
    let p = random_placement(&pcn, mesh, 9, None).unwrap();
    assert_eq!(digest(&p), "d60ef7900ce02e6318435fff5d59ccf90eaec6172faaa93980f824088347e3e0");
    let fm = dead_cores(mesh, 20, 3);
    let p = random_placement(&pcn, mesh, 9, Some(&fm)).unwrap();
    assert_eq!(digest(&p), "fe650d31d6bc2b19421aa74f800564faec971081a4dca428b7d8329a5bb660f3");
}

#[test]
fn fd_plain_and_with_faults() {
    let pcn = random_pcn(200, 4.0, 6).unwrap();
    let mesh = Mesh::new(16, 16).unwrap();
    let want = "d83c0e905cb5179b377e3ac7d175cd50d2e479ea8a9708f55737084df3317dec";
    for threads in [1, 2] {
        let mut p = random_placement(&pcn, mesh, 1, None).unwrap();
        let mut opts = FdRunOpts::default();
        let cfg = FdConfig { threads, ..FdConfig::default() };
        force_directed(&pcn, &mut p, &cfg, None, None, &mut opts, &mut NoopSink).unwrap();
        assert_eq!(digest(&p), want, "threads={threads}");
    }
    let fm = dead_cores(mesh, 20, 3);
    let want = "a37742e85002ba9e5541f74c5dcb945293271fd8355be2232ebb274e3950b5fa";
    for threads in [1, 2] {
        let mut p = hsc_placement(&pcn, mesh, Some(&fm), 1).unwrap();
        let mut opts = FdRunOpts::default();
        let cfg = FdConfig { potential: Potential::L1, threads, ..FdConfig::default() };
        force_directed(&pcn, &mut p, &cfg, Some(&fm), None, &mut opts, &mut NoopSink).unwrap();
        assert_eq!(digest(&p), want, "threads={threads}");
    }
}

#[test]
fn fd_with_a_board_capacity_filter() {
    let board = tight_board();
    let pcn = random_pcn(200, 4.0, 4).unwrap();
    let fm = dead_cores(board.mesh(), 12, 3);
    let cases = [
        (None, "007e6a741276127f1e18b3e9af28cd6412900d1131c5465d6fccc3995b157416"),
        (Some(&fm), "946f5165006bb771b3a899b74bda7844fc01882307bd655b7ac8e8b399144ed7"),
    ];
    for (faults, want) in cases {
        let mut p = hsc_placement_board(&pcn, &board, faults, 1).unwrap();
        let mut opts = FdRunOpts::default();
        let cfg = FdConfig { threads: 2, ..FdConfig::default() };
        force_directed(&pcn, &mut p, &cfg, faults, Some(&board), &mut opts, &mut NoopSink).unwrap();
        for (c, coord) in p.iter_placed() {
            assert!(board.admits(coord, pcn.neurons_in(c), pcn.synapses_in(c)));
        }
        assert_eq!(digest(&p), want, "faults={}", faults.is_some());
    }
}

#[test]
fn fd_region_restricted() {
    let pcn = random_pcn(200, 4.0, 7).unwrap();
    let mesh = Mesh::new(16, 16).unwrap();
    let region: Vec<bool> = mesh.iter().map(|c| (4..12).contains(&c.x)).collect();
    let mut p = random_placement(&pcn, mesh, 2, None).unwrap();
    let before = p.clone();
    let mut opts = FdRunOpts { region: Some(region), ..FdRunOpts::default() };
    let cfg = FdConfig { threads: 1, ..FdConfig::default() };
    force_directed(&pcn, &mut p, &cfg, None, None, &mut opts, &mut NoopSink).unwrap();
    for c in 0..pcn.num_clusters() {
        let was = before.coord_of(c).unwrap();
        if !(4..12).contains(&was.x) {
            assert_eq!(p.coord_of(c), Some(was), "cluster {c} outside the region moved");
        }
    }
    assert_eq!(digest(&p), "88c44a89a8bd938e7f35cfa6be700c77cc88415a46295a95bd208071b378a208");
}

/// Repairs `mapped`, made on healthy hardware, after the faults in
/// `current`, with the serve daemon's knobs: radius 2, at most 16 sweeps.
fn repair(
    mapper: &Mapper,
    pcn: &Pcn,
    mapped: &Placement,
    current: &FaultMap,
) -> (Placement, RepairReport) {
    let mut p = mapped.clone();
    let previous = FaultMap::new(current.mesh());
    let budget = RunBudget { max_sweeps: Some(16), ..RunBudget::default() };
    let report = mapper
        .repair_incremental_traced(pcn, &mut p, &previous, current, 2, budget, &mut NoopSink)
        .unwrap();
    (p, report)
}

#[test]
fn repair_incremental_on_a_flat_mesh() {
    let pcn = random_pcn(200, 4.0, 8).unwrap();
    let mesh = Mesh::new(16, 16).unwrap();
    let mapper = Mapper::builder().threads(1).build();
    let mapped = mapper.map(&pcn, mesh).unwrap().placement;
    // Dead cores under three clusters and on the free corners, plus one
    // failed link on the mesh edge.
    let mut current = FaultMap::new(mesh);
    for c in [0, 57, 133] {
        current.kill_core(mapped.coord_of(c).unwrap()).unwrap();
    }
    for corner in [Coord::new(0, 0), Coord::new(15, 15)] {
        if mapped.cluster_at(corner).is_none() {
            current.kill_core(corner).unwrap();
        }
    }
    current.fail_link(Coord::new(0, 7), Coord::new(0, 8)).unwrap();
    let (p, report) = repair(&mapper, &pcn, &mapped, &current);
    assert_eq!(report.evicted.len(), 3);
    assert!(report.degraded.is_none());
    assert_eq!(digest(&p), "a0ec715d7956abccb0430b42a202e6c5e71ee8c051f8a8e71026a51d9efa06ab");
}

/// Whole-chip loss on a board whose small cores were tightened after
/// mapping: the repair evacuates the chip and also moves the clusters
/// that now overload a live core, freeing that core for later evictions.
#[test]
fn repair_incremental_after_a_chip_loss() {
    let board = tight_board();
    let pcn = random_pcn(150, 4.0, 4).unwrap();
    let uniform = Board::parse("2x2/8x8@4096,65536").unwrap();
    let mapped = Mapper::builder().threads(1).board(uniform).build();
    let mapped = mapped.map(&pcn, board.mesh()).unwrap().placement;
    let mut current = FaultMap::new(board.mesh());
    current.kill_chip(&board, 1).unwrap();
    let mapper = Mapper::builder().threads(1).board(board).build();
    let (p, report) = repair(&mapper, &pcn, &mapped, &current);
    assert!(report.degraded.is_none());
    assert_eq!(report.evicted.len(), 76);
    assert_eq!(digest(&p), "d6751fe1e249d4273b50719453cc64ada91d46fdbc2580b882ad7749002a2604");
}

#[test]
fn repair_incremental_degrades_when_the_large_clusters_do_not_fit() {
    let board = tight_board();
    let pcn = random_pcn(188, 4.0, 4).unwrap();
    let mut current = FaultMap::new(board.mesh());
    current.kill_chip(&board, 2).unwrap();
    let mapper = Mapper::builder().threads(1).board(board.clone()).build();
    let mapped = mapper.map(&pcn, board.mesh()).unwrap().placement;
    let (p, report) = repair(&mapper, &pcn, &mapped, &current);
    assert!(report.fd_stats.is_none());
    // The free cores left are small ones; the four large stragglers do
    // not fit them.
    let degraded = report.degraded.expect("the surviving cores cannot hold the load");
    assert_eq!(degraded.unplaced, [179, 180, 182, 183]);
    let d = &degraded;
    let totals = (d.demand_neurons, d.demand_synapses, d.spare_neurons, d.spare_synapses);
    assert_eq!(totals, (12576, 154671, 16384, 524288));
    assert_eq!(digest(&p), "5a171f5da83cf9df9285bdfafb02be5bd6c04a127c4a0c9519754854e98412f5");
}
