//! Initial placement along space-filling curves (§4.2).

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snnmap_curves::{masked_traversal, Gilbert, Hilbert, SpaceFillingCurve};
use snnmap_hw::{Board, Coord, FaultMap, Mesh, Placement};
use snnmap_model::Pcn;

use crate::{par, toposort, CoreError};

/// Checks that `n` clusters fit on the healthy cores of `mesh` under an
/// optional fault map, producing the most specific error available.
pub(crate) fn check_capacity(
    n: u32,
    mesh: Mesh,
    faults: Option<&FaultMap>,
) -> Result<(), CoreError> {
    if n as usize > mesh.len() {
        return Err(CoreError::MeshTooSmall { clusters: n, cores: mesh.len() });
    }
    if let Some(fm) = faults {
        if fm.mesh() != mesh {
            return Err(CoreError::Hw(snnmap_hw::HwError::InvalidFaultSpec {
                message: format!("fault map covers {} but placement targets {mesh}", fm.mesh()),
            }));
        }
        if n as usize > fm.healthy_cores() {
            return Err(CoreError::InsufficientCores {
                clusters: n,
                healthy: fm.healthy_cores(),
                total: mesh.len(),
            });
        }
    }
    Ok(())
}

/// Builds an unplaced placement, masked when a fault map is supplied.
pub(crate) fn fresh_placement(
    mesh: Mesh,
    n: u32,
    faults: Option<&FaultMap>,
) -> Result<Placement, CoreError> {
    match faults {
        Some(fm) => Ok(Placement::new_unplaced_masked(mesh, n, fm)?),
        None => Ok(Placement::new_unplaced(mesh, n)),
    }
}

/// Places a topologically sorted cluster sequence along a curve's
/// traversal: the `i`-th cluster of `order` lands on the `i`-th mesh
/// coordinate the curve visits (eq. 16–17).
///
/// When the PCN has fewer clusters than the mesh has cores, the tail of
/// the traversal stays empty — matching the paper's non-full systems
/// (e.g. 251 clusters on a 16×16 mesh).
///
/// With a fault map the traversal is *compacted* over the healthy cores,
/// so the `i`-th cluster lands on the `i`-th *surviving* core the curve
/// visits. Dead cores are skipped rather than left as holes in the
/// sequence, preserving as much curve locality as the fault pattern
/// allows.
///
/// # Errors
///
/// [`CoreError::MeshTooSmall`] if `order` outnumbers the cores;
/// [`CoreError::InsufficientCores`] if it outnumbers the healthy cores;
/// [`CoreError::Curve`] if the curve rejects the mesh.
///
/// # Examples
///
/// ```
/// use snnmap_core::sequence_placement;
/// use snnmap_curves::ZigZag;
/// use snnmap_hw::{Coord, Mesh};
///
/// let order = vec![2, 0, 1];
/// let p = sequence_placement(&order, &ZigZag, Mesh::new(2, 2)?, None)?;
/// assert_eq!(p.coord_of(2), Some(Coord::new(0, 0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sequence_placement(
    order: &[u32],
    curve: &dyn SpaceFillingCurve,
    mesh: Mesh,
    faults: Option<&FaultMap>,
) -> Result<Placement, CoreError> {
    check_capacity(order.len() as u32, mesh, faults)?;
    let traversal = curve_traversal(curve, mesh, faults)?;
    place_along(order, &traversal, mesh, faults)
}

/// Lays `order[i]` on `traversal[i]`.
fn place_along(
    order: &[u32],
    traversal: &[Coord],
    mesh: Mesh,
    faults: Option<&FaultMap>,
) -> Result<Placement, CoreError> {
    let mut p = fresh_placement(mesh, order.len() as u32, faults)?;
    for (i, &c) in order.iter().enumerate() {
        p.place(c, traversal[i])?;
    }
    Ok(p)
}

/// `curve`'s traversal of `mesh`, compacted over the healthy cores when a
/// fault map is supplied.
fn curve_traversal(
    curve: &dyn SpaceFillingCurve,
    mesh: Mesh,
    faults: Option<&FaultMap>,
) -> Result<Vec<Coord>, CoreError> {
    Ok(match faults {
        Some(fm) => masked_traversal(curve, mesh, |c| !fm.is_dead(c))?,
        None => curve.traversal(mesh)?,
    })
}

/// The HSC traversal of `mesh`: [`Hilbert`] on `2^k` squares, [`Gilbert`]
/// (Appendix A) otherwise, compacted over the healthy cores under a fault
/// map. With `threads > 1` a `2^k` square is built in parallel from the
/// closed-form [`Hilbert::d2xy`] and masked in curve order afterwards,
/// identical to the serial [`masked_traversal`] for every thread count.
fn hsc_traversal(
    mesh: Mesh,
    faults: Option<&FaultMap>,
    threads: usize,
) -> Result<Vec<Coord>, CoreError> {
    let side = mesh.rows() as u32;
    let pow2_square = mesh.rows() == mesh.cols() && side.is_power_of_two();
    if !pow2_square {
        return curve_traversal(&Gilbert, mesh, faults);
    }
    if threads <= 1 {
        return curve_traversal(&Hilbert, mesh, faults);
    }
    let mut traversal = vec![Coord::new(0, 0); mesh.len()];
    par::try_par_update_tuned(threads, &mut par::Tuner::new(), &mut traversal, |d, c| {
        let (x, y) = Hilbert::d2xy(side, d as u64);
        *c = Coord::new(x as u16, y as u16);
    })
    .map_err(|p| CoreError::WorkerPanicked { message: p.message().to_owned() })?;
    Ok(match faults {
        Some(fm) => traversal.into_iter().filter(|&c| !fm.is_dead(c)).collect(),
        None => traversal,
    })
}

/// The paper's initial placement `P_init = Hilbert ∘ Seq` (§4.2.3):
/// topologically sorts the PCN (Algorithm 2) and lays the sequence along
/// a Hilbert curve.
///
/// On `2^k` square meshes the classic [`Hilbert`] curve is used; on any
/// other rectangle the generalized [`Gilbert`] curve (Appendix A) takes
/// over, exactly as the paper prescribes for arbitrary system sizes.
/// With a fault map the traversal is compacted over the healthy cores
/// (see [`sequence_placement`]).
///
/// `threads` (`0` = auto, see [`par::resolve_threads`]) builds a `2^k`
/// square's Hilbert traversal in parallel. The placement is
/// **bit-identical for every thread count** — parallelism only changes
/// the wall-clock time of the initial-placement phase on million-core
/// meshes.
///
/// # Errors
///
/// [`CoreError::MeshTooSmall`] if the PCN outnumbers the cores;
/// [`CoreError::InsufficientCores`] if it outnumbers the healthy cores;
/// [`CoreError::WorkerPanicked`] if a parallel traversal worker panicked.
///
/// # Examples
///
/// ```
/// use snnmap_core::hsc_placement;
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
///
/// let pcn = random_pcn(200, 4.0, 3)?;
/// let p = hsc_placement(&pcn, Mesh::new(15, 15)?, None, 1)?; // non-pow2 is fine
/// assert!(p.is_complete());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn hsc_placement(
    pcn: &Pcn,
    mesh: Mesh,
    faults: Option<&FaultMap>,
    threads: usize,
) -> Result<Placement, CoreError> {
    hsc_sequence_impl(&toposort(pcn), mesh, faults, par::resolve_threads(threads))
}

/// The curve-layout half of [`hsc_placement`], taking an
/// already-toposorted order — lets traced callers time the topo sort and
/// the HSC layout as separate phases.
pub(crate) fn hsc_sequence_impl(
    order: &[u32],
    mesh: Mesh,
    faults: Option<&FaultMap>,
    threads: usize,
) -> Result<Placement, CoreError> {
    check_capacity(order.len() as u32, mesh, faults)?;
    let traversal = hsc_traversal(mesh, faults, threads)?;
    place_along(order, &traversal, mesh, faults)
}

/// Capacity-aware HSC initial placement onto a multi-chip [`Board`]:
/// clusters walk the Hilbert/Gilbert traversal in topological order and
/// each lands on the first not-yet-used core (from a monotone cursor)
/// whose [`snnmap_hw::CoreConstraints`] admit it; cores too small for a
/// cluster are skipped and remain available for later, smaller clusters
/// (one wrap-around pass over the skipped prefix). On a uniform board
/// whose cores admit every cluster — the common case when the PCN was
/// partitioned under the same constraints — nothing is ever skipped and
/// the result is byte-identical to [`hsc_placement`].
///
/// The traversal build is threaded exactly like [`hsc_placement`]
/// (bit-identical for every thread count); the greedy fit itself is a
/// cheap serial pass.
///
/// # Errors
///
/// [`CoreError::InsufficientCapacity`] when some cluster fits on no
/// remaining healthy core; otherwise as [`hsc_placement`].
///
/// # Examples
///
/// ```
/// use snnmap_core::hsc_placement_board;
/// use snnmap_hw::presets;
/// use snnmap_model::generators::random_pcn;
///
/// // 2x2 chips of 8x8 cores; random_pcn's small clusters fit anywhere.
/// let board = snnmap_hw::Board::parse("2x2/8x8")?;
/// let pcn = random_pcn(200, 4.0, 3)?;
/// let p = hsc_placement_board(&pcn, &board, None, 1)?;
/// assert!(p.is_complete());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn hsc_placement_board(
    pcn: &Pcn,
    board: &Board,
    faults: Option<&FaultMap>,
    threads: usize,
) -> Result<Placement, CoreError> {
    let order = toposort(pcn);
    hsc_board_sequence_impl(pcn, &order, board, faults, par::resolve_threads(threads))
}

/// The greedy-fit half of [`hsc_placement_board`], taking an
/// already-toposorted order.
pub(crate) fn hsc_board_sequence_impl(
    pcn: &Pcn,
    order: &[u32],
    board: &Board,
    faults: Option<&FaultMap>,
    threads: usize,
) -> Result<Placement, CoreError> {
    let mesh = board.mesh();
    check_capacity(order.len() as u32, mesh, faults)?;
    let traversal = hsc_traversal(mesh, faults, threads)?;
    let mut p = fresh_placement(mesh, order.len() as u32, faults)?;
    let mut used = vec![false; traversal.len()];
    let mut cursor = 0usize;
    for &c in order {
        let neurons = pcn.neurons_in(c);
        let synapses = pcn.synapses_in(c);
        let fits = |i: usize| !used[i] && board.admits(traversal[i], neurons, synapses);
        let slot = (cursor..traversal.len())
            .find(|&i| fits(i))
            .or_else(|| (0..cursor).find(|&i| fits(i)))
            .ok_or(CoreError::InsufficientCapacity { cluster: c, neurons, synapses })?;
        used[slot] = true;
        p.place(c, traversal[slot])?;
        if slot >= cursor {
            cursor = slot + 1;
        }
    }
    Ok(p)
}

/// The baseline: clusters shuffled uniformly over the cores (§5.1.3,
/// "randomly mapping"), or over the *healthy* cores only under a fault
/// map. Deterministic per seed.
///
/// # Errors
///
/// [`CoreError::MeshTooSmall`] if the PCN outnumbers the cores;
/// [`CoreError::InsufficientCores`] if it outnumbers the healthy cores.
pub fn random_placement(
    pcn: &Pcn,
    mesh: Mesh,
    seed: u64,
    faults: Option<&FaultMap>,
) -> Result<Placement, CoreError> {
    let n = pcn.num_clusters();
    check_capacity(n, mesh, faults)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cores: Vec<Coord> = match faults {
        Some(fm) => fm.healthy_iter().collect(),
        None => mesh.iter().collect(),
    };
    cores.shuffle(&mut rng);
    place_along(&(0..n).collect::<Vec<_>>(), &cores, mesh, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_hw::CostModel;
    use snnmap_metrics::energy;
    use snnmap_model::generators::random_pcn;
    use snnmap_model::PcnBuilder;

    fn chain_pcn(n: u32) -> Pcn {
        let mut b = PcnBuilder::new();
        for _ in 0..n {
            b.add_cluster(1, 1);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn a_panicking_traversal_worker_is_a_typed_error() {
        // 4,096 cells at 2 threads make two chunks of 2,048, so the
        // traversal fans out and the second chunk's worker panics.
        let pcn = chain_pcn(100);
        par::hooks::fail_after(0);
        let result = hsc_placement(&pcn, Mesh::new(64, 64).unwrap(), None, 2);
        par::hooks::disarm();
        match result {
            Err(CoreError::WorkerPanicked { message }) => {
                assert_eq!(message, par::hooks::INJECTED_PANIC);
            }
            other => panic!("expected a typed worker panic, got {other:?}"),
        }
    }

    #[test]
    fn chain_on_hilbert_is_all_unit_hops() {
        // A chain in topological order follows the curve, so every
        // connection spans exactly one hop — the ideal placement.
        let pcn = chain_pcn(16);
        let p = hsc_placement(&pcn, Mesh::new(4, 4).unwrap(), None, 1).unwrap();
        for (f, t, _) in pcn.iter_edges() {
            assert_eq!(p.distance(f, t).unwrap(), 1);
        }
    }

    #[test]
    fn partial_mesh_leaves_tail_empty() {
        let pcn = chain_pcn(5);
        let p = hsc_placement(&pcn, Mesh::new(3, 3).unwrap(), None, 1).unwrap();
        assert!(p.is_complete());
        assert_eq!(p.placed_count(), 5);
        p.check_consistency().unwrap();
    }

    #[test]
    fn non_pow2_meshes_use_gilbert() {
        let pcn = chain_pcn(35);
        let p = hsc_placement(&pcn, Mesh::new(5, 7).unwrap(), None, 1).unwrap();
        assert!(p.is_complete());
        for (f, t, _) in pcn.iter_edges() {
            assert_eq!(p.distance(f, t).unwrap(), 1);
        }
    }

    #[test]
    fn too_small_mesh_errors() {
        let pcn = chain_pcn(10);
        assert!(matches!(
            hsc_placement(&pcn, Mesh::new(3, 3).unwrap(), None, 1),
            Err(CoreError::MeshTooSmall { clusters: 10, cores: 9 })
        ));
        assert!(matches!(
            random_placement(&pcn, Mesh::new(3, 3).unwrap(), 0, None),
            Err(CoreError::MeshTooSmall { .. })
        ));
    }

    #[test]
    fn random_placement_is_seeded_and_valid() {
        let pcn = random_pcn(50, 4.0, 1).unwrap();
        let mesh = Mesh::new(8, 8).unwrap();
        let a = random_placement(&pcn, mesh, 7, None).unwrap();
        let b = random_placement(&pcn, mesh, 7, None).unwrap();
        let c = random_placement(&pcn, mesh, 8, None).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.check_consistency().unwrap();
    }

    #[test]
    fn hsc_beats_random_on_energy() {
        // The core quantitative claim of §4.2 in miniature.
        let pcn = random_pcn(256, 4.0, 5).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        let cm = CostModel::paper_target();
        let hsc = energy(&pcn, &hsc_placement(&pcn, mesh, None, 1).unwrap(), cm).unwrap();
        let rnd = energy(&pcn, &random_placement(&pcn, mesh, 3, None).unwrap(), cm).unwrap();
        assert!(hsc < rnd, "hsc {hsc} should beat random {rnd}");
    }

    #[test]
    fn masked_hsc_avoids_dead_cores_and_compacts() {
        let pcn = chain_pcn(14);
        let mesh = Mesh::new(4, 4).unwrap();
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(snnmap_hw::Coord::new(0, 0)).unwrap();
        fm.kill_core(snnmap_hw::Coord::new(2, 2)).unwrap();
        let p = hsc_placement(&pcn, mesh, Some(&fm), 1).unwrap();
        assert!(p.is_complete());
        p.check_consistency().unwrap();
        for c in 0..14u32 {
            assert!(!fm.is_dead(p.coord_of(c).unwrap()));
        }
    }

    #[test]
    fn masked_placement_reports_insufficient_cores() {
        let pcn = chain_pcn(9);
        let mesh = Mesh::new(3, 3).unwrap();
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(snnmap_hw::Coord::new(1, 1)).unwrap();
        assert!(matches!(
            hsc_placement(&pcn, mesh, Some(&fm), 1),
            Err(CoreError::InsufficientCores { clusters: 9, healthy: 8, total: 9 })
        ));
        assert!(matches!(
            random_placement(&pcn, mesh, 0, Some(&fm)),
            Err(CoreError::InsufficientCores { .. })
        ));
    }

    #[test]
    fn masked_random_is_seeded_and_fault_avoiding() {
        let pcn = random_pcn(40, 4.0, 2).unwrap();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut fm = FaultMap::new(mesh);
        for x in 0..4u16 {
            fm.kill_core(snnmap_hw::Coord::new(x, x)).unwrap();
        }
        let a = random_placement(&pcn, mesh, 11, Some(&fm)).unwrap();
        let b = random_placement(&pcn, mesh, 11, Some(&fm)).unwrap();
        assert_eq!(a, b);
        a.check_consistency().unwrap();
        for c in 0..40u32 {
            assert!(!fm.is_dead(a.coord_of(c).unwrap()));
        }
    }

    #[test]
    fn masked_placement_rejects_mismatched_mesh() {
        let pcn = chain_pcn(4);
        let fm = FaultMap::new(Mesh::new(2, 2).unwrap());
        assert!(matches!(
            hsc_placement(&pcn, Mesh::new(3, 3).unwrap(), Some(&fm), 1),
            Err(CoreError::Hw(snnmap_hw::HwError::InvalidFaultSpec { .. }))
        ));
    }

    #[test]
    fn sequence_placement_respects_order() {
        let order = vec![3, 1, 4, 0, 2];
        let mesh = Mesh::new(3, 3).unwrap();
        let p = sequence_placement(&order, &Hilbert, Mesh::new(4, 4).unwrap(), None).unwrap();
        assert_eq!(p.coord_of(3), Some(snnmap_hw::Coord::new(0, 0)));
        let _ = mesh;
    }
}
