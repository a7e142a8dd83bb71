//! Oracle tests for the repair's two searches: the free-core index that
//! [`repair`] and [`repair_board`] evict into, and the dirty region that
//! [`Mapper::repair_incremental_traced`] refines inside.
//!
//! The oracles are the obvious implementations: a full-mesh scan for the
//! nearest free healthy core that admits the cluster (Manhattan distance,
//! then row-major index), and a region that tests every core against
//! every seed. The repairs must agree with them exactly: same moves, same
//! degraded outcome, same placement, on random meshes and boards with
//! heterogeneous per-core capacities, dead cores, dead chips, masked
//! cores, clusters that overload a live core, and radii 0–4 around
//! faults on the mesh's edges and corners.

use proptest::prelude::*;
use snnmap_core::{
    force_directed, random_placement, repair, repair_board, validate, validate_board, CoreError,
    DegradedPlacement, FdRunOpts, Mapper, RepairMove, RepairOutcome, RunBudget, Violation,
};
use snnmap_hw::{Board, Coord, CoreConstraints, FaultMap, Mesh, Placement};
use snnmap_model::{Pcn, PcnBuilder};
use snnmap_trace::NoopSink;

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The free healthy core nearest to `anchor` that `admits` accepts, by a
/// scan of the whole mesh.
fn oracle_nearest(
    p: &Placement,
    faults: Option<&FaultMap>,
    anchor: Coord,
    admits: impl Fn(Coord) -> bool,
) -> Option<Coord> {
    let mesh = p.mesh();
    mesh.iter()
        .filter(|&c| {
            p.cluster_at(c).is_none()
                && !p.is_masked(c)
                && faults.map_or(true, |fm| !fm.is_dead(c))
                && admits(c)
        })
        .min_by_key(|&c| (c.manhattan(anchor), mesh.index_of(c)))
}

/// Where an unplaced cluster goes: next to its heaviest-traffic placed
/// neighbour, or the mesh centre.
fn oracle_anchor(pcn: &Pcn, p: &Placement, cluster: u32) -> Coord {
    let mut best: Option<(f64, Coord)> = None;
    for (k, w) in pcn.out_edges(cluster).chain(pcn.in_edges(cluster)) {
        if let Some(c) = p.coord_of(k) {
            if best.map_or(true, |(bw, _)| f64::from(w) > bw) {
                best = Some((f64::from(w), c));
            }
        }
    }
    best.map_or(Coord::new(p.mesh().rows() / 2, p.mesh().cols() / 2), |(_, c)| c)
}

/// [`repair`] by full-mesh scans; `None` when a cluster has nowhere to go.
fn oracle_repair(
    pcn: &Pcn,
    placement: &mut Placement,
    faults: Option<&FaultMap>,
    constraints: Option<&CoreConstraints>,
) -> Option<RepairOutcome> {
    let report = validate(pcn, placement, faults, constraints).unwrap();
    let mut staged = placement.clone();
    let mut outcome = RepairOutcome::default();
    for v in report.violations() {
        match *v {
            Violation::OnDeadCore { cluster, coord } => {
                let to = oracle_nearest(&staged, faults, coord, |_| true)?;
                staged.unplace(cluster).unwrap();
                staged.place(cluster, to).unwrap();
                outcome.moved.push(RepairMove { cluster, from: Some(coord), to });
            }
            Violation::Unplaced { cluster } => {
                let anchor = oracle_anchor(pcn, &staged, cluster);
                let to = oracle_nearest(&staged, faults, anchor, |_| true)?;
                staged.place(cluster, to).unwrap();
                outcome.moved.push(RepairMove { cluster, from: None, to });
            }
            Violation::CapacityExceeded { cluster, neurons, synapses, .. } => {
                let coord = staged.coord_of(cluster).unwrap();
                outcome.unrepaired.push(Violation::CapacityExceeded {
                    cluster,
                    coord,
                    neurons,
                    synapses,
                });
            }
            other => panic!("validate reported {other}"),
        }
    }
    *placement = staged;
    Some(outcome)
}

/// [`repair_board`] by full-mesh scans.
fn oracle_repair_board(
    pcn: &Pcn,
    placement: &mut Placement,
    faults: Option<&FaultMap>,
    board: &Board,
) -> (RepairOutcome, Option<DegradedPlacement>) {
    let report = validate_board(pcn, placement, faults, board).unwrap();
    let mut staged = placement.clone();
    let mut outcome = RepairOutcome::default();
    let mut unplaced = Vec::new();
    let mut handled = vec![false; placement.len() as usize];
    for v in report.violations() {
        let (cluster, from) = match *v {
            Violation::Unplaced { cluster } => (cluster, None),
            Violation::OnDeadCore { cluster, coord }
            | Violation::OnDeadChip { cluster, coord, .. }
            | Violation::CapacityExceeded { cluster, coord, .. } => (cluster, Some(coord)),
            other => panic!("validate_board reported {other}"),
        };
        if std::mem::replace(&mut handled[cluster as usize], true) {
            continue;
        }
        let (n, s) = (pcn.neurons_in(cluster), pcn.synapses_in(cluster));
        let anchor = from.unwrap_or_else(|| oracle_anchor(pcn, &staged, cluster));
        let to = oracle_nearest(&staged, faults, anchor, |c| board.admits(c, n, s));
        if from.is_some() {
            staged.unplace(cluster).unwrap();
        }
        match to {
            Some(to) => {
                staged.place(cluster, to).unwrap();
                outcome.moved.push(RepairMove { cluster, from, to });
            }
            None => {
                unplaced.push(cluster);
                outcome.unrepaired.push(*v);
            }
        }
    }
    let degraded = (!unplaced.is_empty()).then(|| {
        unplaced.sort_unstable();
        let mut d = DegradedPlacement { unplaced, ..DegradedPlacement::default() };
        for &c in &d.unplaced {
            d.demand_neurons += u64::from(pcn.neurons_in(c));
            d.demand_synapses += pcn.synapses_in(c);
        }
        for c in board.mesh().iter() {
            if staged.cluster_at(c).is_none()
                && !staged.is_masked(c)
                && faults.map_or(true, |fm| !fm.is_dead(c))
            {
                d.spare_neurons += u64::from(board.constraints_at(c).neurons_per_core);
                d.spare_synapses += board.constraints_at(c).synapses_per_core;
            }
        }
        d
    });
    *placement = staged;
    (outcome, degraded)
}

/// The cores within Manhattan distance `radius` of some seed.
fn oracle_region(mesh: Mesh, seeds: &[Coord], radius: u16) -> Vec<bool> {
    mesh.iter().map(|c| seeds.iter().any(|&s| s.manhattan(c) <= u32::from(radius))).collect()
}

/// What [`Mapper::repair_incremental_traced`] should produce: the
/// oracle eviction, the oracle region, then FD restricted to it.
struct OracleIncremental {
    placement: Placement,
    evicted: Vec<RepairMove>,
    region_cores: u64,
    degraded: Option<DegradedPlacement>,
    final_energy: Option<f64>,
}

fn oracle_incremental(
    mapper: &Mapper,
    pcn: &Pcn,
    placement: &Placement,
    previous: &FaultMap,
    current: &FaultMap,
    radius: u16,
    budget: RunBudget,
) -> Option<OracleIncremental> {
    let delta = current.diff(previous).unwrap();
    let mut p = placement.clone();
    let (outcome, degraded) = match mapper.board() {
        Some(board) => oracle_repair_board(pcn, &mut p, Some(current), board),
        None => (oracle_repair(pcn, &mut p, Some(current), None)?, None),
    };
    let mut seeds: Vec<Coord> = Vec::new();
    for mv in &outcome.moved {
        seeds.extend(mv.from);
        seeds.push(mv.to);
    }
    seeds.extend_from_slice(&delta.new_dead_cores);
    for &(a, b) in &delta.new_failed_links {
        seeds.extend([a, b]);
    }
    let region = oracle_region(p.mesh(), &seeds, radius);
    let region_cores = region.iter().filter(|&&r| r).count() as u64;
    let mut final_energy = None;
    if let Some(cfg) = mapper.fd_config() {
        if region_cores > 0 && degraded.is_none() {
            let mut opts = FdRunOpts { budget, region: Some(region), ..FdRunOpts::default() };
            let stats = force_directed(
                pcn,
                &mut p,
                cfg,
                Some(current),
                mapper.board(),
                &mut opts,
                &mut NoopSink,
            )
            .unwrap();
            final_energy = Some(stats.final_energy);
        }
    }
    Some(OracleIncremental {
        placement: p,
        evicted: outcome.moved,
        region_cores,
        degraded,
        final_energy,
    })
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

fn below(rng: &mut prop::TestRng, bound: u32) -> u32 {
    rng.next_u32() % bound
}

fn random_coord(rng: &mut prop::TestRng, mesh: Mesh) -> Coord {
    Coord::new(below(rng, u32::from(mesh.rows())) as u16, below(rng, u32::from(mesh.cols())) as u16)
}

/// A PCN of `clusters` clusters of at most `max_neurons` neurons and
/// `max_synapses` synapses, with random weighted edges.
fn random_pcn(rng: &mut prop::TestRng, clusters: u32, max_neurons: u32, max_synapses: u64) -> Pcn {
    let mut b = PcnBuilder::new();
    for _ in 0..clusters {
        b.add_cluster(1 + below(rng, max_neurons), 1 + rng.next_u64() % max_synapses);
    }
    for _ in 0..clusters * 2 {
        let (from, to) = (below(rng, clusters), below(rng, clusters));
        b.add_edge(from, to, 0.5 + below(rng, 64) as f32 / 8.0).unwrap();
    }
    b.build().unwrap()
}

/// Dead cores drawn from the corners, the edges and the interior.
fn kill_some(rng: &mut prop::TestRng, fm: &mut FaultMap, count: u32) {
    let mesh = fm.mesh();
    let (r, c) = (mesh.rows() - 1, mesh.cols() - 1);
    for _ in 0..count {
        let coord = match below(rng, 3) {
            0 => [Coord::new(0, 0), Coord::new(0, c), Coord::new(r, 0), Coord::new(r, c)]
                [below(rng, 4) as usize],
            1 => {
                let at = random_coord(rng, mesh);
                [Coord::new(0, at.y), Coord::new(r, at.y), Coord::new(at.x, 0), Coord::new(at.x, c)]
                    [below(rng, 4) as usize]
            }
            _ => random_coord(rng, mesh),
        };
        fm.kill_core(coord).unwrap();
    }
}

/// Fails up to `count` links, most of them on the mesh boundary.
fn fail_some_links(rng: &mut prop::TestRng, fm: &mut FaultMap, count: u32) {
    let mesh = fm.mesh();
    for _ in 0..count {
        let mut a = random_coord(rng, mesh);
        if below(rng, 4) != 0 {
            a.x = if below(rng, 2) == 0 { 0 } else { mesh.rows() - 1 };
        }
        if let Some(b) = mesh.neighbors(a).nth(below(rng, 2) as usize) {
            fm.fail_link(a, b).unwrap();
        }
    }
}

/// A random placement of `pcn` that avoids the `mask` fault map's dead
/// cores (masked, so repair may never use them), with a few clusters
/// taken off the mesh.
fn masked_placement(rng: &mut prop::TestRng, pcn: &Pcn, mask: &FaultMap) -> Placement {
    let mut p = random_placement(pcn, mask.mesh(), rng.next_u64(), Some(mask)).unwrap();
    for _ in 0..below(rng, 4) {
        let _ = p.unplace(below(rng, pcn.num_clusters()));
    }
    p
}

/// The current fault map's starting point: the mask's dead cores, or a
/// clean map, so that masked cores are sometimes alive and only the
/// placement's mask keeps repair off them.
fn masked_or_forgotten(rng: &mut prop::TestRng, mask: &FaultMap) -> FaultMap {
    if below(rng, 2) == 0 {
        mask.clone()
    } else {
        FaultMap::new(mask.mesh())
    }
}

/// A flat mesh, a PCN, a placement masked by earlier faults, the current
/// fault map and optional uniform per-core constraints.
fn mesh_workload() -> impl Strategy<Value = (Pcn, Placement, FaultMap, Option<CoreConstraints>)> {
    (2u16..=10, 2u16..=10).prop_perturb(|(rows, cols), mut rng| {
        let mesh = Mesh::new(rows, cols).unwrap();
        let cores = mesh.len() as u32;
        let mut mask = FaultMap::new(mesh);
        let count = below(&mut rng, cores / 6 + 1);
        kill_some(&mut rng, &mut mask, count);
        let healthy = mask.healthy_cores() as u32;
        let clusters = (healthy * (20 + below(&mut rng, 75)) / 100).max(1);
        let pcn = random_pcn(&mut rng, clusters, 200, 5000);
        let placement = masked_placement(&mut rng, &pcn, &mask);
        let mut current = masked_or_forgotten(&mut rng, &mask);
        let count = below(&mut rng, cores / 4 + 1);
        kill_some(&mut rng, &mut current, count);
        for _ in 0..below(&mut rng, 3) {
            let c = below(&mut rng, clusters);
            if let Some(at) = placement.coord_of(c) {
                current.kill_core(at).unwrap();
            }
        }
        let constraints = (below(&mut rng, 2) == 0)
            .then(|| CoreConstraints::new(100 + below(&mut rng, 150), 4096).unwrap());
        (pcn, placement, current, constraints)
    })
}

/// A board with heterogeneous per-core capacities, a PCN placed without
/// regard to them (so some clusters overload their core and must move,
/// freeing it mid-repair), and the current fault map: earlier dead cores
/// (masked), new dead cores and sometimes a whole dead chip.
fn board_workload() -> impl Strategy<Value = (Board, Pcn, Placement, FaultMap)> {
    ((1u16..=3, 1u16..=3, 2u16..=4, 2u16..=4), (8u32..=32, 256u64..=2048)).prop_perturb(
        |((gr, gc, cr, cc), (npc, spc)), mut rng| {
            let caps = CoreConstraints::new(npc, spc).unwrap();
            let mut board = Board::uniform(gr, gc, cr, cc, caps).unwrap();
            let mesh = board.mesh();
            for c in mesh.iter() {
                let scale = match below(&mut rng, 6) {
                    0 => (1, 3),
                    1 => (1, 2),
                    2 => (3, 2),
                    _ => continue,
                };
                let con = CoreConstraints::new(
                    (npc * scale.0 / scale.1).max(1),
                    (spc * u64::from(scale.0) / u64::from(scale.1)).max(1),
                )
                .unwrap();
                board.set_constraints(c, con).unwrap();
            }
            let cores = mesh.len() as u32;
            let mut mask = FaultMap::new(mesh);
            let count = below(&mut rng, cores / 8 + 1);
            kill_some(&mut rng, &mut mask, count);
            let healthy = mask.healthy_cores() as u32;
            let clusters = (healthy * (30 + below(&mut rng, 66)) / 100).max(1);
            let pcn = random_pcn(&mut rng, clusters, npc, spc);
            let placement = masked_placement(&mut rng, &pcn, &mask);
            let mut current = masked_or_forgotten(&mut rng, &mask);
            if below(&mut rng, 2) == 0 {
                current.kill_chip(&board, below(&mut rng, board.num_chips())).unwrap();
            }
            let count = below(&mut rng, cores / 8 + 1);
            kill_some(&mut rng, &mut current, count);
            (board, pcn, placement, current)
        },
    )
}

/// A mapper (flat or on a board), a PCN it maps healthily, the fault map
/// that breaks it — dead cores and failed links biased to the mesh edges
/// and corners, sometimes a dead chip — and a repair radius of 0–4.
fn incremental_workload() -> impl Strategy<Value = (Mapper, Pcn, FaultMap, u16)> {
    ((1u16..=2, 1u16..=2, 3u16..=6, 3u16..=6), 0u16..=4, any::<bool>()).prop_perturb(
        |((gr, gc, cr, cc), radius, on_board), mut rng| {
            let board =
                Board::uniform(gr, gc, cr, cc, CoreConstraints::new(64, 4096).unwrap()).unwrap();
            let mesh = board.mesh();
            let clusters = (mesh.len() as u32 * (20 + below(&mut rng, 50)) / 100).max(2);
            let pcn = random_pcn(&mut rng, clusters, 64, 4096);
            let builder = Mapper::builder().threads(1);
            let mapper =
                if on_board { builder.board(board.clone()).build() } else { builder.build() };
            let mut current = FaultMap::new(mesh);
            if on_board && below(&mut rng, 2) == 0 {
                current.kill_chip(&board, below(&mut rng, board.num_chips())).unwrap();
            }
            let count = 1 + below(&mut rng, 4);
            kill_some(&mut rng, &mut current, count);
            let count = below(&mut rng, 3);
            fail_some_links(&mut rng, &mut current, count);
            (mapper, pcn, current, radius)
        },
    )
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// On a flat mesh, [`repair`] makes the oracle's moves, reports the
    /// same unrepaired capacity violations, and fails exactly when the
    /// oracle runs out of free healthy cores.
    #[test]
    fn mesh_repair_matches_the_full_scan(
        (pcn, placement, faults, constraints) in mesh_workload(),
    ) {
        let mut expected = placement.clone();
        let oracle = oracle_repair(&pcn, &mut expected, Some(&faults), constraints.as_ref());
        let mut p = placement.clone();
        let got = repair(&pcn, &mut p, Some(&faults), constraints.as_ref());
        match oracle {
            Some(outcome) => {
                prop_assert_eq!(got.unwrap(), outcome);
                prop_assert!(p == expected, "placements differ");
            }
            None => {
                prop_assert!(matches!(got, Err(CoreError::InsufficientCores { .. })));
                prop_assert!(p == placement, "a failed repair changed the placement");
            }
        }
    }

    /// On a board, [`repair_board`] makes the oracle's moves and returns
    /// the oracle's degraded outcome, spare totals included.
    #[test]
    fn board_repair_matches_the_full_scan(
        (board, pcn, placement, faults) in board_workload(),
    ) {
        let mut expected = placement.clone();
        let (outcome, degraded) = oracle_repair_board(&pcn, &mut expected, Some(&faults), &board);
        let mut p = placement;
        let (got, got_degraded) = repair_board(&pcn, &mut p, Some(&faults), &board).unwrap();
        prop_assert_eq!(got, outcome);
        prop_assert_eq!(got_degraded, degraded);
        prop_assert!(p == expected, "placements differ");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental repair evicts like the oracle, builds the oracle's
    /// region (same core count, same FD result inside it) and ends on the
    /// oracle's placement.
    #[test]
    fn incremental_repair_matches_the_oracle_region(
        (mapper, pcn, current, radius) in incremental_workload(),
    ) {
        let mesh = current.mesh();
        let previous = FaultMap::new(mesh);
        let mapped = mapper.map(&pcn, mesh).unwrap().placement;
        let budget = RunBudget { max_sweeps: Some(4), ..RunBudget::default() };
        let oracle =
            oracle_incremental(&mapper, &pcn, &mapped, &previous, &current, radius, budget.clone());
        let mut p = mapped.clone();
        let got = mapper.repair_incremental_traced(
            &pcn, &mut p, &previous, &current, radius, budget, &mut NoopSink,
        );
        match oracle {
            Some(want) => {
                let report = got.unwrap();
                prop_assert_eq!(report.evicted, want.evicted);
                prop_assert_eq!(report.region_cores, want.region_cores, "radius {}", radius);
                prop_assert_eq!(report.degraded, want.degraded);
                prop_assert_eq!(
                    report.fd_stats.map(|s| s.final_energy.to_bits()),
                    want.final_energy.map(f64::to_bits)
                );
                prop_assert!(p == want.placement, "placements differ at radius {}", radius);
            }
            None => prop_assert!(matches!(got, Err(CoreError::InsufficientCores { .. }))),
        }
    }
}

/// A cluster that overloads its core moves and frees that core; a
/// straggler placed later in the same repair takes the freed core.
#[test]
fn a_core_freed_mid_repair_is_reused() {
    let mut board = Board::parse("1x1/1x3@100,1000").unwrap();
    board.set_constraints(Coord::new(0, 0), CoreConstraints::new(10, 1000).unwrap()).unwrap();
    let mut b = PcnBuilder::new();
    let big = b.add_cluster(50, 10);
    let small = b.add_cluster(5, 10);
    let other = b.add_cluster(5, 10);
    b.add_edge(small, other, 1.0).unwrap();
    let pcn = b.build().unwrap();
    let mut p = Placement::new_unplaced(board.mesh(), 3);
    p.place(big, Coord::new(0, 0)).unwrap();
    p.place(other, Coord::new(0, 1)).unwrap();

    let mut expected = p.clone();
    let oracle = oracle_repair_board(&pcn, &mut expected, None, &board);
    let got = repair_board(&pcn, &mut p, None, &board).unwrap();
    assert_eq!(got, oracle);
    assert_eq!(p, expected);
    assert!(got.1.is_none(), "every cluster fits once the big one moves");
    assert_eq!(p.coord_of(big), Some(Coord::new(0, 2)));
    assert_eq!(p.coord_of(small), Some(Coord::new(0, 0)));
}
