//! Placement validation and repair against hardware faults and per-core
//! capacity limits.
//!
//! Mapping pipelines produce placements; deployed systems develop faults.
//! [`validate`] checks a placement against a [`FaultMap`] and the paper's
//! `CON_npc`/`CON_spc` capacity constraints (§3.2), reporting every
//! [`Violation`]; [`repair`] greedily relocates clusters stranded on dead
//! cores (and places stragglers) onto the nearest healthy free core, so a
//! previously good placement survives a fault-map update without a full
//! re-mapping run.
//!
//! A repair scans the mesh once, to index the free healthy cores in the
//! same bitset the multilevel projection uses; every relocation then
//! searches it in rings outward from its anchor, and the repair keeps it
//! exact as clusters take and leave cores. A relocation therefore costs
//! about the ring it searches, not a scan of every free core.

use std::fmt;

use snnmap_hw::{Board, ChipId, Coord, CoreConstraints, FaultMap, HwError, Placement};
use snnmap_model::Pcn;

use crate::free_cells::FreeCells;
use crate::CoreError;

/// One way a placement can violate the hardware's ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// The cluster has no core at all.
    Unplaced {
        /// The unplaced cluster.
        cluster: u32,
    },
    /// The cluster sits on a core the fault map marks dead.
    OnDeadCore {
        /// The stranded cluster.
        cluster: u32,
        /// The dead core it occupies.
        coord: Coord,
    },
    /// The cluster exceeds the per-core neuron or synapse capacity.
    CapacityExceeded {
        /// The oversized cluster.
        cluster: u32,
        /// The core it occupies.
        coord: Coord,
        /// Its neuron count.
        neurons: u32,
        /// Its synapse count.
        synapses: u64,
    },
    /// The cluster sits on a core of a chip the fault map marks entirely
    /// dead (whole-chip loss — reported instead of the per-core
    /// [`Violation::OnDeadCore`] so callers can tell chip loss apart).
    OnDeadChip {
        /// The stranded cluster.
        cluster: u32,
        /// The dead core it occupies.
        coord: Coord,
        /// The dead chip that core belongs to.
        chip: ChipId,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unplaced { cluster } => write!(f, "cluster {cluster} is unplaced"),
            Violation::OnDeadCore { cluster, coord } => {
                write!(f, "cluster {cluster} occupies dead core {coord}")
            }
            Violation::CapacityExceeded { cluster, coord, neurons, synapses } => write!(
                f,
                "cluster {cluster} at {coord} exceeds core capacity \
                 ({neurons} neurons, {synapses} synapses)"
            ),
            Violation::OnDeadChip { cluster, coord, chip } => {
                write!(f, "cluster {cluster} occupies core {coord} of dead chip {chip}")
            }
        }
    }
}

/// The outcome of [`validate`]: every violation found, in cluster order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValidationReport {
    violations: Vec<Violation>,
}

impl ValidationReport {
    /// `true` when the placement is fully consistent with the hardware.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations found, ordered by cluster id.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "placement valid");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Checks `placement` against an optional fault map and optional per-core
/// capacity constraints.
///
/// Injectivity and grid/position agreement are structural invariants of
/// [`Placement`] itself; this function checks the *external* ground truth:
/// completeness, dead cores, and `CON_npc`/`CON_spc`.
///
/// # Errors
///
/// [`CoreError::ClusterCountMismatch`] when `pcn` and `placement` disagree
/// on the cluster count; [`HwError::InvalidFaultSpec`] (wrapped) when the
/// fault map covers a different mesh.
pub fn validate(
    pcn: &Pcn,
    placement: &Placement,
    faults: Option<&FaultMap>,
    constraints: Option<&CoreConstraints>,
) -> Result<ValidationReport, CoreError> {
    check_compatible(pcn, placement, faults)?;
    let mut violations = Vec::new();
    for c in 0..placement.len() {
        let Some(coord) = placement.coord_of(c) else {
            violations.push(Violation::Unplaced { cluster: c });
            continue;
        };
        if let Some(fm) = faults {
            if fm.is_dead(coord) {
                violations.push(Violation::OnDeadCore { cluster: c, coord });
            }
        }
        if let Some(con) = constraints {
            let neurons = pcn.neurons_in(c);
            let synapses = pcn.synapses_in(c);
            if !con.admits(neurons, synapses) {
                violations.push(Violation::CapacityExceeded { cluster: c, coord, neurons, synapses });
            }
        }
    }
    Ok(ValidationReport { violations })
}

/// Checks `placement` against a multi-chip [`Board`]: completeness, the
/// per-core capacity vectors ([`Board::constraints_at`]), dead cores and
/// chip liveness. A cluster stranded on a core of an *entirely* dead chip
/// is reported as [`Violation::OnDeadChip`]; a dead core on an otherwise
/// live chip stays [`Violation::OnDeadCore`].
///
/// # Errors
///
/// As [`validate`], plus [`CoreError::InvalidRunOpts`] when the board
/// covers a different mesh than the placement.
pub fn validate_board(
    pcn: &Pcn,
    placement: &Placement,
    faults: Option<&FaultMap>,
    board: &Board,
) -> Result<ValidationReport, CoreError> {
    check_compatible(pcn, placement, faults)?;
    if board.mesh() != placement.mesh() {
        return Err(CoreError::InvalidRunOpts {
            message: format!(
                "board covers {} but placement targets {}",
                board.mesh(),
                placement.mesh()
            ),
        });
    }
    let dead_chips = match faults {
        Some(fm) => fm.dead_chips(board),
        None => Vec::new(),
    };
    let mut violations = Vec::new();
    for c in 0..placement.len() {
        let Some(coord) = placement.coord_of(c) else {
            violations.push(Violation::Unplaced { cluster: c });
            continue;
        };
        if let Some(fm) = faults {
            if fm.is_dead(coord) {
                let chip = board.chip_of(coord);
                if dead_chips.binary_search(&chip).is_ok() {
                    violations.push(Violation::OnDeadChip { cluster: c, coord, chip });
                } else {
                    violations.push(Violation::OnDeadCore { cluster: c, coord });
                }
            }
        }
        let neurons = pcn.neurons_in(c);
        let synapses = pcn.synapses_in(c);
        if !board.admits(coord, neurons, synapses) {
            violations.push(Violation::CapacityExceeded { cluster: c, coord, neurons, synapses });
        }
    }
    Ok(ValidationReport { violations })
}

/// One relocation performed by [`repair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairMove {
    /// The relocated cluster.
    pub cluster: u32,
    /// Where it was (`None` if it was unplaced).
    pub from: Option<Coord>,
    /// The healthy free core it now occupies.
    pub to: Coord,
}

/// The outcome of [`repair`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairOutcome {
    /// Relocations performed, in cluster order.
    pub moved: Vec<RepairMove>,
    /// Violations relocation cannot fix (capacity overruns: all cores are
    /// homogeneous, so no destination would admit the cluster either).
    pub unrepaired: Vec<Violation>,
}

/// Greedily repairs a placement in place: clusters on dead cores move to
/// the nearest healthy free core (ties broken row-major, so repair is
/// deterministic), unplaced clusters are placed next to their
/// heaviest-traffic placed neighbour. Capacity violations are reported
/// back unrepaired — relocation cannot shrink a cluster — at the core the
/// cluster occupies once the repair is done.
///
/// Repair is **transactional** (the moves are staged on a scratch copy
/// and committed only on success, so an error leaves `placement`
/// untouched) and **idempotent**: repairing an already-repaired placement
/// performs no moves.
///
/// # Errors
///
/// As [`validate`], plus [`CoreError::InsufficientCores`] when a stranded
/// cluster has no healthy free core left to move to. The placement is
/// unchanged when an error is returned.
pub fn repair(
    pcn: &Pcn,
    placement: &mut Placement,
    faults: Option<&FaultMap>,
    constraints: Option<&CoreConstraints>,
) -> Result<RepairOutcome, CoreError> {
    let report = validate(pcn, placement, faults, constraints)?;
    let mut staged = placement.clone();
    let mut free = FreeCells::new(&staged, faults);
    let mut outcome = RepairOutcome::default();
    for v in report.violations() {
        match *v {
            // [`validate`] never reports OnDeadChip (that takes a board),
            // but treat it like any dead core if a caller feeds one in.
            Violation::OnDeadCore { cluster, coord }
            | Violation::OnDeadChip { cluster, coord, .. } => {
                let to = free
                    .take_nearest(coord, |_| true)
                    .ok_or_else(|| insufficient(&staged, faults))?;
                relocate(&mut free, &mut staged, faults, cluster, Some(to))?;
                outcome.moved.push(RepairMove { cluster, from: Some(coord), to });
            }
            Violation::Unplaced { cluster } => {
                let anchor = anchor_for(pcn, &staged, cluster);
                let to = free
                    .take_nearest(anchor, |_| true)
                    .ok_or_else(|| insufficient(&staged, faults))?;
                relocate(&mut free, &mut staged, faults, cluster, Some(to))?;
                outcome.moved.push(RepairMove { cluster, from: None, to });
            }
            // A cluster on a dead core was relocated by its earlier
            // `OnDeadCore` violation: report the core it occupies now.
            Violation::CapacityExceeded { cluster, coord, neurons, synapses } => {
                let coord = staged.coord_of(cluster).unwrap_or(coord);
                outcome.unrepaired.push(Violation::CapacityExceeded {
                    cluster,
                    coord,
                    neurons,
                    synapses,
                });
            }
        }
    }
    *placement = staged;
    Ok(outcome)
}

/// The typed degraded-mode outcome of [`repair_board`]: the board
/// genuinely cannot absorb the surviving load, so the listed clusters
/// were left unplaced rather than failing the whole repair. The demand
/// and spare totals quantify the capacity shortfall: what the unplaced
/// clusters need versus what the free healthy cores can still hold.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DegradedPlacement {
    /// Clusters left unplaced, in ascending cluster order.
    pub unplaced: Vec<u32>,
    /// Total neuron demand of the unplaced clusters.
    pub demand_neurons: u64,
    /// Total synapse demand of the unplaced clusters.
    pub demand_synapses: u64,
    /// Total neuron capacity of the remaining free healthy cores.
    pub spare_neurons: u64,
    /// Total synapse capacity of the remaining free healthy cores.
    pub spare_synapses: u64,
}

impl fmt::Display for DegradedPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cluster(s) unplaced: demand {} neurons / {} synapses, \
             spare {} neurons / {} synapses",
            self.unplaced.len(),
            self.demand_neurons,
            self.demand_synapses,
            self.spare_neurons,
            self.spare_synapses
        )
    }
}

/// Capacity-aware [`repair`] against a multi-chip [`Board`]: clusters
/// stranded on dead cores or chips (or overloading a core) relocate to
/// the nearest free healthy core **that admits them** (Manhattan
/// distance, then row-major index — fully deterministic), and unplaced
/// clusters are placed next to their heaviest-traffic neighbour the same
/// way.
///
/// Unlike [`repair`], running out of room is not an error: a cluster no
/// remaining core can admit is left (or becomes) unplaced and recorded
/// in the returned [`DegradedPlacement`], so whole-chip loss on a board
/// without enough spare capacity degrades gracefully instead of killing
/// the caller. The staged moves are still transactional — a typed error
/// leaves `placement` untouched — and the degraded outcome commits the
/// placeable subset.
///
/// # Errors
///
/// As [`validate_board`].
pub fn repair_board(
    pcn: &Pcn,
    placement: &mut Placement,
    faults: Option<&FaultMap>,
    board: &Board,
) -> Result<(RepairOutcome, Option<DegradedPlacement>), CoreError> {
    let report = validate_board(pcn, placement, faults, board)?;
    let mut staged = placement.clone();
    let mut free = FreeCells::new(&staged, faults);
    let mut outcome = RepairOutcome::default();
    let mut unplaced: Vec<u32> = Vec::new();
    // A cluster can carry several violations at once (e.g. dead core and
    // capacity overrun); one relocation fixes them all, so handle each
    // cluster exactly once.
    let mut handled = vec![false; placement.len() as usize];
    for v in report.violations() {
        let cluster = match *v {
            Violation::Unplaced { cluster }
            | Violation::OnDeadCore { cluster, .. }
            | Violation::OnDeadChip { cluster, .. }
            | Violation::CapacityExceeded { cluster, .. } => cluster,
        };
        if std::mem::replace(&mut handled[cluster as usize], true) {
            continue;
        }
        match *v {
            Violation::OnDeadCore { cluster, coord }
            | Violation::OnDeadChip { cluster, coord, .. }
            | Violation::CapacityExceeded { cluster, coord, .. } => {
                let (neurons, synapses) = (pcn.neurons_in(cluster), pcn.synapses_in(cluster));
                let to = free.take_nearest(coord, |c| board.admits(c, neurons, synapses));
                relocate(&mut free, &mut staged, faults, cluster, to)?;
                match to {
                    Some(to) => outcome.moved.push(RepairMove { cluster, from: Some(coord), to }),
                    None => {
                        unplaced.push(cluster);
                        outcome.unrepaired.push(*v);
                    }
                }
            }
            Violation::Unplaced { cluster } => {
                let anchor = anchor_for(pcn, &staged, cluster);
                let (neurons, synapses) = (pcn.neurons_in(cluster), pcn.synapses_in(cluster));
                match free.take_nearest(anchor, |c| board.admits(c, neurons, synapses)) {
                    Some(to) => {
                        relocate(&mut free, &mut staged, faults, cluster, Some(to))?;
                        outcome.moved.push(RepairMove { cluster, from: None, to });
                    }
                    None => {
                        unplaced.push(cluster);
                        outcome.unrepaired.push(*v);
                    }
                }
            }
        }
    }
    let degraded = if unplaced.is_empty() {
        None
    } else {
        unplaced.sort_unstable();
        let (demand_neurons, demand_synapses) = unplaced.iter().fold((0u64, 0u64), |(n, s), &c| {
            (n + u64::from(pcn.neurons_in(c)), s + pcn.synapses_in(c))
        });
        let (spare_neurons, spare_synapses) = free.iter().fold((0u64, 0u64), |(n, s), c| {
            let con = board.constraints_at(c);
            (n + u64::from(con.neurons_per_core), s + con.synapses_per_core)
        });
        Some(DegradedPlacement {
            unplaced,
            demand_neurons,
            demand_synapses,
            spare_neurons,
            spare_synapses,
        })
    };
    *placement = staged;
    Ok((outcome, degraded))
}

/// Moves `cluster` to `to`, a core just taken from `free`, or leaves it
/// unplaced when `to` is `None`. The core it leaves becomes free if it is
/// healthy.
fn relocate(
    free: &mut FreeCells,
    placement: &mut Placement,
    faults: Option<&FaultMap>,
    cluster: u32,
    to: Option<Coord>,
) -> Result<(), CoreError> {
    if let Some(from) = placement.coord_of(cluster) {
        placement.unplace(cluster)?;
        if !placement.is_masked(from) && faults.map_or(true, |fm| !fm.is_dead(from)) {
            free.insert(from);
        }
    }
    if let Some(to) = to {
        placement.place(cluster, to)?;
    }
    Ok(())
}

fn check_compatible(
    pcn: &Pcn,
    placement: &Placement,
    faults: Option<&FaultMap>,
) -> Result<(), CoreError> {
    if pcn.num_clusters() != placement.len() {
        return Err(CoreError::ClusterCountMismatch {
            pcn: pcn.num_clusters(),
            placement: placement.len(),
        });
    }
    if let Some(fm) = faults {
        if fm.mesh() != placement.mesh() {
            return Err(CoreError::Hw(HwError::InvalidFaultSpec {
                message: format!(
                    "fault map covers {} but placement targets {}",
                    fm.mesh(),
                    placement.mesh()
                ),
            }));
        }
    }
    Ok(())
}

/// Where an unplaced cluster would like to be: the core of its
/// heaviest-traffic placed graph neighbour, or the mesh centre when every
/// neighbour is itself unplaced.
fn anchor_for(pcn: &Pcn, placement: &Placement, cluster: u32) -> Coord {
    let mut best: Option<(f64, Coord)> = None;
    let neighbors = pcn.out_edges(cluster).chain(pcn.in_edges(cluster));
    for (k, w) in neighbors {
        if let Some(c) = placement.coord_of(k) {
            let w = w as f64;
            if best.map_or(true, |(bw, _)| w > bw) {
                best = Some((w, c));
            }
        }
    }
    match best {
        Some((_, c)) => c,
        None => {
            let mesh = placement.mesh();
            Coord::new(mesh.rows() / 2, mesh.cols() / 2)
        }
    }
}

fn insufficient(placement: &Placement, faults: Option<&FaultMap>) -> CoreError {
    let total = placement.mesh().len();
    let healthy = faults.map_or(total, FaultMap::healthy_cores);
    CoreError::InsufficientCores { clusters: placement.len(), healthy, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_hw::Mesh;
    use snnmap_model::PcnBuilder;

    fn pcn_with(n: u32, neurons: u32, synapses: u64) -> Pcn {
        let mut b = PcnBuilder::new();
        for _ in 0..n {
            b.add_cluster(neurons, synapses);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, (i + 1) as f32).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn clean_placement_validates() {
        let pcn = pcn_with(4, 10, 100);
        let mesh = Mesh::new(2, 2).unwrap();
        let p = crate::hsc_placement(&pcn, mesh, None, 1).unwrap();
        let report = validate(&pcn, &p, None, Some(&CoreConstraints::default())).unwrap();
        assert!(report.is_ok());
        assert_eq!(report.to_string(), "placement valid");
    }

    #[test]
    fn detects_and_repairs_dead_core_occupancy() {
        let pcn = pcn_with(4, 10, 100);
        let mesh = Mesh::new(3, 3).unwrap();
        let p0 = crate::hsc_placement(&pcn, mesh, None, 1).unwrap();
        // The fault arrives *after* mapping: kill the core under cluster 2.
        let dead = p0.coord_of(2).unwrap();
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(dead).unwrap();
        let report = validate(&pcn, &p0, Some(&fm), None).unwrap();
        assert_eq!(report.violations(), &[Violation::OnDeadCore { cluster: 2, coord: dead }]);

        let mut p = p0.clone();
        let outcome = repair(&pcn, &mut p, Some(&fm), None).unwrap();
        assert_eq!(outcome.moved.len(), 1);
        assert_eq!(outcome.moved[0].cluster, 2);
        assert_eq!(outcome.moved[0].from, Some(dead));
        assert!(outcome.unrepaired.is_empty());
        assert!(validate(&pcn, &p, Some(&fm), None).unwrap().is_ok());
        p.check_consistency().unwrap();
    }

    #[test]
    fn repairs_unplaced_clusters_near_their_neighbours() {
        let pcn = pcn_with(3, 1, 1);
        let mesh = Mesh::new(3, 3).unwrap();
        let mut p = Placement::new_unplaced(mesh, 3);
        p.place(0, Coord::new(0, 0)).unwrap();
        p.place(2, Coord::new(2, 2)).unwrap();
        // Cluster 1's heaviest edge is 1<->2 (weight 2 vs 1), so it should
        // land next to cluster 2.
        let outcome = repair(&pcn, &mut p, None, None).unwrap();
        assert_eq!(outcome.moved.len(), 1);
        let to = outcome.moved[0].to;
        assert_eq!(to.manhattan(Coord::new(2, 2)), 1);
        assert!(p.is_complete());
    }

    #[test]
    fn capacity_violations_are_reported_not_repaired() {
        let pcn = pcn_with(2, 100, 10);
        let mesh = Mesh::new(2, 2).unwrap();
        let mut p = crate::hsc_placement(&pcn, mesh, None, 1).unwrap();
        let tight = CoreConstraints::new(50, 1_000).unwrap();
        let report = validate(&pcn, &p, None, Some(&tight)).unwrap();
        assert_eq!(report.violations().len(), 2);
        let outcome = repair(&pcn, &mut p, None, Some(&tight)).unwrap();
        assert!(outcome.moved.is_empty());
        assert_eq!(outcome.unrepaired.len(), 2);
    }

    #[test]
    fn capacity_violations_report_the_core_a_relocated_cluster_occupies() {
        let pcn = pcn_with(2, 100, 10);
        let mesh = Mesh::new(2, 2).unwrap();
        let mut p = crate::hsc_placement(&pcn, mesh, None, 1).unwrap();
        let dead = p.coord_of(0).unwrap();
        let stays = p.coord_of(1).unwrap();
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(dead).unwrap();
        let tight = CoreConstraints::new(50, 1_000).unwrap();
        let outcome = repair(&pcn, &mut p, Some(&fm), Some(&tight)).unwrap();
        assert_eq!(outcome.moved.len(), 1);
        let to = outcome.moved[0].to;
        assert_ne!(to, dead);
        assert_eq!(p.coord_of(0), Some(to));
        let over = |cluster, coord| Violation::CapacityExceeded {
            cluster,
            coord,
            neurons: 100,
            synapses: 10,
        };
        assert_eq!(outcome.unrepaired, [over(0, to), over(1, stays)]);
    }

    #[test]
    fn repair_without_room_reports_insufficient_cores() {
        let pcn = pcn_with(4, 1, 1);
        let mesh = Mesh::new(2, 2).unwrap();
        let mut p = crate::hsc_placement(&pcn, mesh, None, 1).unwrap();
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(p.coord_of(0).unwrap()).unwrap();
        // Full mesh, one core now dead: nowhere to go.
        assert!(matches!(
            repair(&pcn, &mut p, Some(&fm), None),
            Err(CoreError::InsufficientCores { clusters: 4, healthy: 3, total: 4 })
        ));
    }

    #[test]
    fn failed_repair_leaves_the_placement_untouched() {
        let pcn = pcn_with(4, 1, 1);
        let mesh = Mesh::new(2, 3).unwrap();
        let mut p = crate::hsc_placement(&pcn, mesh, None, 1).unwrap();
        // Strand two clusters but leave only one free healthy core: the
        // first stranded cluster could relocate, the second cannot — the
        // whole repair must roll back.
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(p.coord_of(0).unwrap()).unwrap();
        fm.kill_core(p.coord_of(1).unwrap()).unwrap();
        let free: Vec<Coord> = mesh.iter().filter(|&c| p.cluster_at(c).is_none()).collect();
        assert_eq!(free.len(), 2);
        fm.kill_core(free[0]).unwrap();
        let before = p.clone();
        assert!(matches!(
            repair(&pcn, &mut p, Some(&fm), None),
            Err(CoreError::InsufficientCores { .. })
        ));
        assert_eq!(p, before, "a failed repair must not mutate the placement");
    }

    #[test]
    fn repair_is_idempotent_under_every_fault_pattern() {
        use snnmap_hw::{FaultInjector, FaultPattern};
        let pcn = pcn_with(40, 2, 4);
        let mesh = Mesh::new(8, 8).unwrap();
        for seed in 0..8u64 {
            for pattern in [
                FaultPattern::Uniform { core_rate: 0.15, link_rate: 0.05 },
                FaultPattern::Clustered { core_rate: 0.15, regions: 2 },
            ] {
                let fm = FaultInjector::new(seed).inject(mesh, &pattern).unwrap();
                let mut p = crate::hsc_placement(&pcn, mesh, None, 1).unwrap();
                let first = repair(&pcn, &mut p, Some(&fm), None).unwrap();
                // Repaired placements always pass validate().
                assert!(
                    validate(&pcn, &p, Some(&fm), None).unwrap().is_ok(),
                    "seed {seed}: repaired placement still invalid"
                );
                p.check_consistency().unwrap();
                // repair(repair(p)) == repair(p): the second pass is a no-op.
                let snapshot = p.clone();
                let second = repair(&pcn, &mut p, Some(&fm), None).unwrap();
                assert!(second.moved.is_empty(), "seed {seed}: {second:?}");
                assert_eq!(p, snapshot, "seed {seed}: second repair changed the placement");
                // And a third, for good measure of the fixed point.
                let third = repair(&pcn, &mut p, Some(&fm), None).unwrap();
                assert_eq!(second, third);
                let _ = first;
            }
        }
    }

    #[test]
    fn mismatched_inputs_are_typed_errors() {
        let pcn = pcn_with(2, 1, 1);
        let p = Placement::new_unplaced(Mesh::new(2, 2).unwrap(), 3);
        assert!(matches!(
            validate(&pcn, &p, None, None),
            Err(CoreError::ClusterCountMismatch { pcn: 2, placement: 3 })
        ));
        let p = Placement::new_unplaced(Mesh::new(2, 2).unwrap(), 2);
        let fm = FaultMap::new(Mesh::new(3, 3).unwrap());
        assert!(matches!(
            validate(&pcn, &p, Some(&fm), None),
            Err(CoreError::Hw(HwError::InvalidFaultSpec { .. }))
        ));
    }
}
