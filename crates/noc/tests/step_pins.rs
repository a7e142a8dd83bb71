//! Pinned simulator outcomes: every `NocStats` field, the cycle count and
//! `drain`'s return value of seeded runs over plain, faulty and board
//! networks, at queue capacities 1, 2 and 8, under both routing
//! policies. The values were recorded with the full-scan `NocSim::step`
//! that visited every router every cycle; the busy-router scan must
//! reproduce them exactly, down to the per-router traversal counts.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snnmap_core::SweepReweighter;
use snnmap_hw::{Board, Coord, FaultMap, Mesh, Placement};
use snnmap_model::generators::random_pcn;
use snnmap_noc::{NocConfig, NocReweighter, NocSim, NocStats, PcnTraffic, Routing};
use snnmap_trace::sha256_hex;

/// Every field of a run, with the traversal map as a sha256 prefix.
fn fingerprint(sim: &NocSim, drained: bool) -> String {
    let NocStats {
        delivered,
        injected,
        rejected,
        total_latency,
        max_latency,
        detour_hops,
        traversals,
        interchip_traversals,
    } = sim.stats();
    let map = sha256_hex(format!("{traversals:?}").as_bytes());
    format!(
        "cycles={} drained={drained} delivered={delivered} injected={injected} \
         rejected={rejected} total_latency={total_latency} max_latency={max_latency} \
         detour_hops={detour_hops} interchip={interchip_traversals} traversals={}",
        sim.cycle(),
        &map[..16]
    )
}

/// Injects `per_cycle` random packets a cycle for `cycles` cycles (pairs
/// a faulty network refuses are skipped), then drains.
fn burst(mut sim: NocSim, seed: u64, cycles: u32, per_cycle: u32) -> String {
    let mesh = sim.mesh();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pick = |rng: &mut ChaCha8Rng| {
        Coord::new(rng.gen_range(0..mesh.rows()), rng.gen_range(0..mesh.cols()))
    };
    for _ in 0..cycles {
        for _ in 0..per_cycle {
            let (src, dst) = (pick(&mut rng), pick(&mut rng));
            let _ = sim.inject(src, dst);
        }
        sim.step();
    }
    let drained = sim.drain(20_000);
    fingerprint(&sim, drained)
}

fn config(routing: Routing, queue_capacity: usize) -> NocConfig {
    NocConfig { queue_capacity, routing, seed: 7 }
}

/// Compares each named run's fingerprint with its pinned value.
fn check(runs: &[(String, String)], want: &[&str]) {
    assert_eq!(runs.len(), want.len(), "{runs:#?}");
    for ((name, got), want) in runs.iter().zip(want) {
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn plain_mesh_runs_are_pinned() {
    let mesh = Mesh::new(8, 8).unwrap();
    let mut runs = Vec::new();
    for routing in [Routing::Xy, Routing::RandomMinimal] {
        for cap in [1, 2, 8] {
            let sim = NocSim::new(mesh, config(routing, cap));
            runs.push((format!("{routing:?} cap {cap}"), burst(sim, 11, 300, 6)));
        }
    }
    check(
        &runs,
        &[
            "cycles=311 drained=true delivered=1697 injected=1697 rejected=103 total_latency=12537 max_latency=24 detour_hops=0 interchip=0 traversals=9213fa855a60a91d",
            "cycles=307 drained=true delivered=1799 injected=1799 rejected=1 total_latency=11775 max_latency=17 detour_hops=0 interchip=0 traversals=2495594580b20b21",
            "cycles=307 drained=true delivered=1800 injected=1800 rejected=0 total_latency=11782 max_latency=17 detour_hops=0 interchip=0 traversals=fd03a6285d7a67ab",
            "cycles=311 drained=true delivered=1702 injected=1702 rejected=98 total_latency=14004 max_latency=25 detour_hops=0 interchip=0 traversals=4988c169db934362",
            "cycles=307 drained=true delivered=1799 injected=1799 rejected=1 total_latency=12013 max_latency=17 detour_hops=0 interchip=0 traversals=77c2a58fc68415a4",
            "cycles=307 drained=true delivered=1800 injected=1800 rejected=0 total_latency=12055 max_latency=19 detour_hops=0 interchip=0 traversals=70db701ff4906d28",
        ],
    );
}

#[test]
fn faulty_mesh_runs_are_pinned() {
    let mesh = Mesh::new(8, 8).unwrap();
    let mut fm = FaultMap::new(mesh);
    for c in [Coord::new(2, 2), Coord::new(2, 3), Coord::new(5, 6), Coord::new(6, 1)] {
        fm.kill_core(c).unwrap();
    }
    fm.fail_link(Coord::new(0, 0), Coord::new(0, 1)).unwrap();
    fm.fail_link(Coord::new(4, 4), Coord::new(5, 4)).unwrap();
    let mut runs = Vec::new();
    for cap in [1, 2, 8] {
        let sim = NocSim::with_faults(mesh, config(Routing::Xy, cap), &fm).unwrap();
        runs.push((format!("faults cap {cap}"), burst(sim, 12, 300, 6)));
    }
    check(
        &runs,
        &[
            "cycles=317 drained=false delivered=549 injected=681 rejected=876 total_latency=5655 max_latency=74 detour_hops=84 interchip=0 traversals=c953158e659b955e",
            "cycles=309 drained=true delivered=1556 injected=1556 rejected=1 total_latency=10860 max_latency=19 detour_hops=234 interchip=0 traversals=0e2137b89ddf3fae",
            "cycles=309 drained=true delivered=1557 injected=1557 rejected=0 total_latency=10850 max_latency=18 detour_hops=234 interchip=0 traversals=60edbc41c9686735",
        ],
    );
}

#[test]
fn board_runs_are_pinned() {
    let board = Board::parse("2x2/4x4").unwrap();
    let mesh = board.mesh();
    let mut fm = FaultMap::new(mesh);
    fm.kill_core(Coord::new(3, 5)).unwrap();
    fm.fail_link(Coord::new(1, 3), Coord::new(1, 4)).unwrap();
    let mut runs = Vec::new();
    for cap in [1, 2, 8] {
        let healthy = NocSim::with_board(mesh, config(Routing::Xy, cap), None, &board).unwrap();
        runs.push((format!("board cap {cap}"), burst(healthy, 13, 300, 6)));
        let faulty =
            NocSim::with_board(mesh, config(Routing::Xy, cap), Some(&fm), &board).unwrap();
        runs.push((format!("faulty board cap {cap}"), burst(faulty, 14, 300, 6)));
    }
    check(
        &runs,
        &[
            "cycles=312 drained=true delivered=1684 injected=1684 rejected=116 total_latency=12076 max_latency=23 detour_hops=0 interchip=1690 traversals=9ca0f8ba266bd6e4",
            "cycles=336 drained=true delivered=1321 injected=1321 rejected=418 total_latency=20675 max_latency=177 detour_hops=26 interchip=1376 traversals=4523e93e4703db4c",
            "cycles=312 drained=true delivered=1799 injected=1799 rejected=1 total_latency=11654 max_latency=17 detour_hops=0 interchip=1813 traversals=97ff53cc14edf5fd",
            "cycles=309 drained=true delivered=1733 injected=1733 rejected=6 total_latency=11811 max_latency=18 detour_hops=32 interchip=1779 traversals=5c8e950f76e3bd15",
            "cycles=312 drained=true delivered=1800 injected=1800 rejected=0 total_latency=11666 max_latency=16 detour_hops=0 interchip=1815 traversals=87486773b344309b",
            "cycles=309 drained=true delivered=1739 injected=1739 rejected=0 total_latency=11843 max_latency=17 detour_hops=32 interchip=1789 traversals=00adc68f3790a23e",
        ],
    );
}

/// `PcnTraffic` replays and `NocReweighter` heat. These rows were
/// re-recorded when `PcnTraffic` moved from a Bernoulli draw per flow
/// per cycle to geometric gaps: the same traffic model, another stream.
#[test]
fn pcn_replays_and_reweight_heat_are_pinned() {
    let pcn = random_pcn(120, 4.0, 5).unwrap();
    let mesh = Mesh::new(12, 12).unwrap();
    let coords: Vec<Coord> = mesh.iter().take(120).collect();
    let placement = Placement::from_coords(mesh, &coords).unwrap();
    let mut runs = Vec::new();
    for routing in [Routing::Xy, Routing::RandomMinimal] {
        let mut sim = NocSim::new(mesh, config(routing, 8));
        PcnTraffic::new(&pcn, &placement, 0.05, 3).run(&mut sim, 256);
        runs.push((format!("{routing:?} replay"), fingerprint(&sim, sim.in_flight() == 0)));
    }
    let heat = NocReweighter::new(&pcn, 0.05, 256, 42).reweight(4, &coords, mesh).heat;
    runs.push(("reweight heat".to_owned(), sha256_hex(format!("{heat:?}").as_bytes())));
    check(
        &runs,
        &[
            "cycles=463 drained=true delivered=9545 injected=9545 rejected=21729 total_latency=741456 max_latency=431 detour_hops=0 interchip=0 traversals=9d523109966d1841",
            "cycles=351 drained=false delivered=4741 injected=7621 rejected=23653 total_latency=214461 max_latency=263 detour_hops=0 interchip=0 traversals=40423dcde78c8fc7",
            "dcd54a20f2140625e53b9808d2b4dac2965afc7abd6ed5fb49eaf4c4dec2033a",
        ],
    );
}

/// A saturated random-minimal network at queue capacity 1: seed 0
/// drains, seeds 4 and 11 deadlock and `drain` gives up after its stall
/// window, returning `false`.
#[test]
fn drain_stall_return_is_pinned() {
    let mesh = Mesh::new(4, 4).unwrap();
    let mut runs = Vec::new();
    for seed in [0, 4, 11] {
        let config = NocConfig { queue_capacity: 1, routing: Routing::RandomMinimal, seed };
        let sim = NocSim::new(mesh, config);
        runs.push((format!("seed {seed}"), burst(sim, seed, 60, 16)));
    }
    check(
        &runs,
        &[
            "cycles=68 drained=true delivered=257 injected=257 rejected=703 total_latency=2452 max_latency=40 detour_hops=0 interchip=0 traversals=f56242818f0d2433",
            "cycles=78 drained=false delivered=272 injected=287 rejected=673 total_latency=2136 max_latency=35 detour_hops=0 interchip=0 traversals=f28f474f03096ef6",
            "cycles=82 drained=false delivered=220 injected=246 rejected=714 total_latency=2125 max_latency=43 detour_hops=0 interchip=0 traversals=26efe30ea8566f24",
        ],
    );
}
