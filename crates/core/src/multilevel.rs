//! The multilevel mapping pipeline: coarsen → place → uncoarsen/refine.
//!
//! Flat FD refinement scans every positive-tension pair of the full graph
//! on every sweep, which is what makes million-core instances slow. The
//! multilevel pipeline (SNEAP's recipe, PAPERS.md) instead:
//!
//! 1. **coarsens** the PCN by repeated heavy-edge matching
//!    ([`crate::coarsen`]) into a hierarchy of graphs a few thousand
//!    clusters small,
//! 2. **places** the coarsest graph with the paper's Hilbert/HSC
//!    initialization on a proportionally shrunken mesh and refines it to
//!    convergence (cheap — the graph is tiny),
//! 3. **uncoarsens** level by level: each finer level seeds its placement
//!    from its parent's (scaled anchors + deterministic nearest-free-cell
//!    lookup in [`FreeCells`], the index repair evicts into) and runs a
//!    *budgeted, region-masked* FD pass — the same machinery and the same
//!    [`dirty_region`] mask as [`crate::Mapper::repair_incremental_traced`]
//!    — over the halo of the cells the projection had to displace, so
//!    refinement touches only locally-dirty neighbourhoods.
//!
//! Every stage is deterministic and thread-count independent: coarsening
//! and projection are sequential scans in cluster order, and the HSC/FD
//! phases reuse the engine's bit-identical parallel helpers. The same
//! PCN, mesh, config and fault map produce byte-identical placements for
//! every thread count.

use std::time::Instant;

use snnmap_hw::{Coord, FaultMap, Mesh, Placement};
use snnmap_model::Pcn;
use snnmap_trace::{time_phase, TraceSink};

use crate::coarsen::{coarsen, CoarsenConfig};
use crate::fd::force_directed;
use crate::hsc::check_capacity;
use crate::free_cells::FreeCells;
use crate::mapper::{dirty_region, tighter, MapOutcome};
use crate::{toposort, CoreError, FdRunOpts, Mapper, RunBudget};

/// Tuning knobs for the multilevel pipeline
/// ([`crate::MapperBuilder::multilevel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelConfig {
    /// How far to coarsen (see [`CoarsenConfig`]).
    pub coarsen: CoarsenConfig,
    /// FD sweep cap for each intermediate level's refinement pass (the
    /// coarsest level always refines to convergence — it is tiny — and
    /// the finest level runs under the caller's own budget). Default 3.
    pub level_sweeps: u64,
    /// Manhattan radius of the dirty region around every cell the
    /// projection spilled outside its parent's mesh block; intermediate
    /// FD passes only touch this region. Default 2.
    pub halo: u16,
    /// Optional FD sweep cap for the finest level, tightened against any
    /// caller-supplied cap (default: none — run to convergence or the
    /// caller's budget).
    pub final_sweeps: Option<u64>,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        Self {
            // Coarsen deeper than the standalone default: the coarsest
            // rung's FD convergence dominates init time, so the coarsest
            // graph should be as small as matching can make it. Matching
            // often stalls first: on an id-scrambled random PCN of 235,929
            // clusters, `min_reduction` stops it at 4,947.
            coarsen: CoarsenConfig { target_clusters: 512, ..CoarsenConfig::default() },
            level_sweeps: 3,
            halo: 2,
            final_sweeps: None,
        }
    }
}

/// Runs the full multilevel pipeline of `mapper`. Called from
/// [`crate::Mapper::map_budgeted_traced`] once the `run` header is
/// emitted; `opts` (budget, checkpointing, caller region) applies to the
/// *finest* level's FD pass only, except for the cancellation flag which
/// also stops intermediate passes at their next sweep boundary. The
/// mapper's own sweep cap and deadline tighten every pass.
pub(crate) fn multilevel_map_impl<S: TraceSink + ?Sized>(
    mapper: &Mapper,
    ml: &MultilevelConfig,
    pcn: &Pcn,
    mesh: Mesh,
    threads: usize,
    opts: &mut FdRunOpts<'_>,
    sink: &mut S,
) -> Result<MapOutcome, CoreError> {
    let faults = mapper.fault_map();
    check_capacity(pcn.num_clusters(), mesh, faults)?;

    let t0 = Instant::now();
    let hierarchy = time_phase(sink, "coarsen", || coarsen(pcn, &ml.coarsen))?;

    // Mesh ladder, one rung per hierarchy level so a parent never has
    // more than two children (matching pairs at most two per level — the
    // expansions stay clean, with no spill cascades). Level k's mesh is
    // the full mesh with *both* dimensions scaled by √(n_k/n_0): cell
    // pressure (occupancy) and aspect ratio are the same at every rung,
    // so spilled children always find room near their parent's block,
    // and the scaling is isotropic, so the L2² objective of a coarse
    // rung is the fine objective uniformly shrunk — the coarse optimum
    // projects down undistorted. (Power-of-two rungs were tried first:
    // halving an axis per rung forces skipping matching levels whenever
    // matching reduces by <50%, and the resulting 4-to-8-child
    // expansions at ~97% occupancy cascade spills far from their
    // anchors, inflating energy ~2× per skip.)
    let graphs: Vec<&Pcn> =
        std::iter::once(pcn).chain(hierarchy.iter().map(|l| &l.pcn)).collect();
    let meshes: Vec<Mesh> = graphs
        .iter()
        .map(|g| scale_mesh(mesh, g.num_clusters(), pcn.num_clusters()))
        .collect();
    let coarsest = graphs.len() - 1;

    // Faults live on the final mesh only; a coarser rung can only see
    // them if it happens to share that mesh.
    let faults_at = |m: Mesh| faults.filter(|fm| fm.mesh() == m);

    // Place the coarsest graph with the paper's init.
    let order = time_phase(sink, "toposort", || toposort(graphs[coarsest]));
    let mut placement = time_phase(sink, "hsc_init", || {
        crate::hsc::hsc_sequence_impl(&order, meshes[coarsest], faults_at(meshes[coarsest]), threads)
    })?;

    let cancel = opts.budget.cancel.clone();
    let mut final_stats = None;
    let mut fd_elapsed = std::time::Duration::ZERO;
    for k in (0..=coarsest).rev() {
        let (gi, m) = (k, meshes[k]);
        let phase = format!("ml_level_{k}");
        let mut dirty: Vec<Coord> = Vec::new();
        if k < coarsest {
            let (projected, displaced) = time_phase(sink, &phase, || {
                project_level(
                    graphs[gi].num_clusters(),
                    m,
                    &hierarchy[k].parent_of,
                    &placement,
                    meshes[k + 1],
                    faults_at(m),
                )
            })?;
            placement = projected;
            dirty = displaced;
        }
        let Some(cfg) = mapper.fd_config() else { continue };
        if k == 0 {
            // The finest rung runs under the caller's own options.
            opts.budget.max_sweeps = tighter(opts.budget.max_sweeps, ml.final_sweeps);
            let t1 = Instant::now();
            final_stats = Some(force_directed(
                graphs[0],
                &mut placement,
                cfg,
                faults_at(m),
                None,
                opts,
                sink,
            )?);
            fd_elapsed = t1.elapsed();
        } else if k == coarsest {
            // Refine the coarsest placement to convergence.
            let mut level_opts = FdRunOpts {
                budget: RunBudget { cancel: cancel.clone(), ..RunBudget::default() },
                ..FdRunOpts::default()
            };
            mapper.tighten(&mut level_opts.budget);
            force_directed(
                graphs[gi], &mut placement, cfg, faults_at(m), None, &mut level_opts, sink,
            )?;
        } else {
            // Intermediate rung: budgeted FD over the dirty halo only.
            let region = dirty_region(m, &dirty, ml.halo);
            if region.iter().any(|&a| a) {
                let mut level_opts = FdRunOpts {
                    budget: RunBudget {
                        max_sweeps: Some(ml.level_sweeps),
                        cancel: cancel.clone(),
                        ..RunBudget::default()
                    },
                    region: Some(region),
                    ..FdRunOpts::default()
                };
                mapper.tighten(&mut level_opts.budget);
                force_directed(
                    graphs[gi], &mut placement, cfg, faults_at(m), None, &mut level_opts, sink,
                )?;
            }
        }
    }

    let init_elapsed = t0.elapsed().saturating_sub(fd_elapsed);
    Ok(MapOutcome { placement, fd_stats: final_stats, init_elapsed, fd_elapsed })
}

/// The mesh for a rung that places `n` of the original `n0` clusters:
/// both dimensions of the full mesh scaled by `√(n/n0)` (ceil, at least
/// one), which preserves occupancy and aspect ratio. `ceil` guarantees
/// the scaled mesh holds at least `n` cells whenever the full mesh holds
/// `n0`, and `√`/`ceil` on f64 are exactly rounded, so the ladder is
/// identical on every platform and thread count.
fn scale_mesh(full: Mesh, n: u32, n0: u32) -> Mesh {
    let s = (f64::from(n) / f64::from(n0)).sqrt();
    let rows = ((f64::from(full.rows()) * s).ceil() as u16).max(1);
    let cols = ((f64::from(full.cols()) * s).ceil() as u16).max(1);
    Mesh::new(rows, cols).expect("scaled dimensions stay in (0, full]")
}

/// Projects a parent placement one rung down: each parent's coordinate
/// scales onto the finer mesh as an *anchor*, and its children (ascending
/// cluster id) take the nearest free healthy cell to that anchor
/// ([`FreeCells::take_nearest`]). Returns the placement plus the
/// cells where a child spilled *outside its parent's mesh block* (the
/// rectangle of fine cells that scale onto the parent's coarse cell) —
/// the seeds of the rung's dirty region. Children inside the block are
/// already where the coarse optimum wants them, modulo block-local
/// arrangement that a masked pass would not improve anyway.
fn project_level(
    fine_n: u32,
    fine_mesh: Mesh,
    parent_of: &[u32],
    parent: &Placement,
    parent_mesh: Mesh,
    faults: Option<&FaultMap>,
) -> Result<(Placement, Vec<Coord>), CoreError> {
    check_capacity(fine_n, fine_mesh, faults)?;
    debug_assert_eq!(parent_of.len(), fine_n as usize);
    let coarse_n = parent_of.iter().map(|&p| p + 1).max().unwrap_or(0);

    // children of g = { f | parent_of[f] == g }, ascending, via counting sort.
    let mut offsets = vec![0u32; coarse_n as usize + 1];
    for &p in parent_of {
        offsets[p as usize + 1] += 1;
    }
    for i in 0..coarse_n as usize {
        offsets[i + 1] += offsets[i];
    }
    let mut children = vec![0u32; fine_n as usize];
    let mut cursor = offsets.clone();
    for (f, &p) in parent_of.iter().enumerate() {
        children[cursor[p as usize] as usize] = f as u32;
        cursor[p as usize] += 1;
    }

    let mut placement = crate::hsc::fresh_placement(fine_mesh, fine_n, faults)?;
    let mut free = FreeCells::new(&placement, faults);
    let mut dirty: Vec<Coord> = Vec::new();
    for g in 0..coarse_n {
        let pc = parent.coord_of(g).ok_or(CoreError::IncompletePlacement {
            placed: g,
            total: coarse_n,
        })?;
        let (rows_f, cols_f) = (u32::from(fine_mesh.rows()), u32::from(fine_mesh.cols()));
        let (rows_p, cols_p) = (u32::from(parent_mesh.rows()), u32::from(parent_mesh.cols()));
        let ax = u32::from(pc.x) * rows_f / rows_p;
        let ay = u32::from(pc.y) * cols_f / cols_p;
        // Exclusive block bounds; `max` keeps degenerate blocks non-empty
        // when the fine mesh is not strictly larger in a dimension.
        let bx = ((u32::from(pc.x) + 1) * rows_f / rows_p).max(ax + 1);
        let by = ((u32::from(pc.y) + 1) * cols_f / cols_p).max(ay + 1);
        let anchor = Coord::new(ax as u16, ay as u16);
        let (lo, hi) = (offsets[g as usize] as usize, offsets[g as usize + 1] as usize);
        for &f in &children[lo..hi] {
            let cell = free.take_nearest(anchor, |_| true).expect("capacity is checked first");
            placement.place(f, cell)?;
            let (cx, cy) = (u32::from(cell.x), u32::from(cell.y));
            if cx < ax || cx >= bx || cy < ay || cy >= by {
                dirty.push(cell);
            }
        }
    }
    Ok((placement, dirty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::free_cells::tests::{nearest_by_scan, random_faults};
    use crate::{InitialPlacement, Mapper};
    use snnmap_hw::CostModel;
    use snnmap_metrics::evaluate;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use snnmap_model::generators::random_pcn;

    fn ml_mapper(threads: usize) -> Mapper {
        Mapper::builder()
            .multilevel(MultilevelConfig {
                coarsen: CoarsenConfig { target_clusters: 32, ..CoarsenConfig::default() },
                ..MultilevelConfig::default()
            })
            .threads(threads)
            .build()
    }

    #[test]
    fn scaled_meshes_preserve_occupancy_and_never_underflow() {
        let full = Mesh::new(64, 64).unwrap();
        // Identity at the finest level.
        assert_eq!(scale_mesh(full, 4096, 4096), full);
        // Half the clusters → each axis shrinks by √2 (ceil).
        let m = scale_mesh(full, 2048, 4096);
        assert_eq!((m.rows(), m.cols()), (46, 46));
        assert!(m.len() >= 2048);
        // Tiny levels still get a non-empty mesh that fits them.
        let m = scale_mesh(full, 1, 4096);
        assert!(m.rows() >= 1 && m.cols() >= 1 && !m.is_empty());
        // Rectangular meshes keep their aspect ratio roughly intact.
        let wide = Mesh::new(16, 64).unwrap();
        let m = scale_mesh(wide, 256, 1024);
        assert_eq!((m.rows(), m.cols()), (8, 32));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn project_level_places_every_child_on_the_brute_force_choice(
            parent_rows in 1u16..6,
            parent_cols in 1u16..6,
            extra_rows in 0u16..4,
            extra_cols in 0u16..4,
            faulty in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let dead_rate = if faulty { 0.2 } else { 0.0 };
            let parent_mesh = Mesh::new(parent_rows, parent_cols).unwrap();
            let fine_mesh =
                Mesh::new(2 * parent_rows + extra_rows, 2 * parent_cols + extra_cols).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Coarse clusters on random distinct parent cells, each with
            // one or two children under shuffled fine ids.
            let coarse_n = rng.gen_range(1..=parent_mesh.len() as u32);
            let mut cells: Vec<Coord> = parent_mesh.iter().collect();
            cells.shuffle(&mut rng);
            let parent = Placement::from_coords(parent_mesh, &cells[..coarse_n as usize]).unwrap();
            let mut parent_of: Vec<u32> =
                (0..coarse_n).flat_map(|g| vec![g; rng.gen_range(1..=2)]).collect();
            parent_of.shuffle(&mut rng);
            let fine_n = parent_of.len() as u32;
            let fm = random_faults(fine_mesh, dead_rate, fine_n as usize, &mut rng);
            let faults = (fm.num_dead_cores() > 0).then_some(&fm);

            let (placement, _) =
                project_level(fine_n, fine_mesh, &parent_of, &parent, parent_mesh, faults).unwrap();

            let mut free: Vec<bool> = fine_mesh.iter().map(|c| !fm.is_dead(c)).collect();
            let (rows_f, cols_f) = (u32::from(fine_mesh.rows()), u32::from(fine_mesh.cols()));
            for g in 0..coarse_n {
                let pc = parent.coord_of(g).unwrap();
                let anchor = Coord::new(
                    (u32::from(pc.x) * rows_f / u32::from(parent_rows)) as u16,
                    (u32::from(pc.y) * cols_f / u32::from(parent_cols)) as u16,
                );
                for f in (0..fine_n).filter(|&f| parent_of[f as usize] == g) {
                    let expect = nearest_by_scan(fine_mesh, &free, anchor, |_| true).unwrap();
                    prop_assert_eq!(placement.coord_of(f), Some(expect), "child {} of {}", f, g);
                    free[fine_mesh.index_of(expect)] = false;
                }
            }
        }
    }

    #[test]
    fn multilevel_produces_complete_valid_placements() {
        let pcn = random_pcn(300, 5.0, 3).unwrap();
        let mesh = Mesh::new(18, 18).unwrap();
        let out = ml_mapper(0).map(&pcn, mesh).unwrap();
        assert!(out.placement.is_complete());
        out.placement.check_consistency().unwrap();
        assert!(crate::validate(&pcn, &out.placement, None, None).unwrap().is_ok());
        let stats = out.fd_stats.expect("final-level FD runs by default");
        assert!(stats.final_energy <= stats.initial_energy + 1e-9);
    }

    #[test]
    fn multilevel_is_thread_count_independent() {
        let pcn = random_pcn(400, 5.0, 9).unwrap();
        let mesh = Mesh::new(21, 21).unwrap();
        let reference = ml_mapper(1).map(&pcn, mesh).unwrap();
        for threads in [2, 4] {
            let out = ml_mapper(threads).map(&pcn, mesh).unwrap();
            assert_eq!(out.placement, reference.placement, "threads={threads}");
            assert_eq!(
                out.fd_stats.as_ref().unwrap().swaps,
                reference.fd_stats.as_ref().unwrap().swaps,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn multilevel_energy_is_in_the_same_ballpark_as_flat() {
        // Multilevel must not collapse quality: allow a small tolerance
        // over the flat pipeline's converged energy on a mid-size case.
        let pcn = random_pcn(500, 5.0, 17).unwrap();
        let mesh = Mesh::new(23, 23).unwrap();
        let cost = CostModel::paper_target();
        let flat = Mapper::builder().build().map(&pcn, mesh).unwrap();
        let ml = ml_mapper(0).map(&pcn, mesh).unwrap();
        let ef = evaluate(&pcn, &flat.placement, cost).unwrap().energy;
        let em = evaluate(&pcn, &ml.placement, cost).unwrap().energy;
        assert!(em <= ef * 1.10, "multilevel {em} vs flat {ef}");
    }

    #[test]
    fn multilevel_respects_fault_maps() {
        use snnmap_hw::{FaultInjector, FaultPattern};
        let pcn = random_pcn(250, 4.0, 5).unwrap();
        let mesh = Mesh::new(17, 17).unwrap();
        let fm = FaultInjector::new(11)
            .inject(mesh, &FaultPattern::Uniform { core_rate: 0.06, link_rate: 0.0 })
            .unwrap();
        assert!(fm.num_dead_cores() > 0);
        let out = Mapper::builder()
            .multilevel(MultilevelConfig {
                coarsen: CoarsenConfig { target_clusters: 32, ..CoarsenConfig::default() },
                ..MultilevelConfig::default()
            })
            .fault_map(fm.clone())
            .build()
            .map(&pcn, mesh)
            .unwrap();
        assert!(out.placement.is_complete());
        for c in 0..250u32 {
            let coord = out.placement.coord_of(c).unwrap();
            assert!(!fm.is_dead(coord), "cluster {c} on dead core {coord}");
        }
    }

    #[test]
    fn small_graphs_skip_coarsening_and_match_the_flat_pipeline() {
        // Below the coarsening target the hierarchy is empty, and the
        // multilevel path degenerates to exactly the flat one.
        let pcn = random_pcn(100, 4.0, 5).unwrap();
        let mesh = Mesh::square_for(100).unwrap();
        let flat = Mapper::builder().build().map(&pcn, mesh).unwrap();
        let ml = Mapper::builder()
            .multilevel(MultilevelConfig::default())
            .build()
            .map(&pcn, mesh)
            .unwrap();
        assert_eq!(ml.placement, flat.placement);
    }

    #[test]
    fn multilevel_rejects_non_hilbert_inits() {
        let pcn = random_pcn(100, 4.0, 5).unwrap();
        let mesh = Mesh::square_for(100).unwrap();
        let m = Mapper::builder()
            .multilevel(MultilevelConfig::default())
            .initial_placement(InitialPlacement::Random(1))
            .build();
        assert!(matches!(
            m.map(&pcn, mesh),
            Err(CoreError::InvalidRunOpts { .. })
        ));
    }

    #[test]
    fn final_sweeps_caps_the_finest_level() {
        let pcn = random_pcn(400, 5.0, 9).unwrap();
        let mesh = Mesh::new(21, 21).unwrap();
        let mut cfg = MultilevelConfig {
            coarsen: CoarsenConfig { target_clusters: 32, ..CoarsenConfig::default() },
            ..MultilevelConfig::default()
        };
        cfg.final_sweeps = Some(1);
        let out = Mapper::builder()
            .multilevel(cfg)
            .build()
            .map(&pcn, mesh)
            .unwrap();
        assert!(out.fd_stats.unwrap().iterations <= 1);
    }

    #[test]
    fn resume_keeps_the_final_sweeps_cap() {
        use crate::{FdCheckpoint, StopReason};
        use snnmap_trace::NoopSink;
        let pcn = random_pcn(400, 5.0, 9).unwrap();
        let mesh = Mesh::new(21, 21).unwrap();
        let mapper = Mapper::builder()
            .multilevel(MultilevelConfig {
                coarsen: CoarsenConfig { target_clusters: 32, ..CoarsenConfig::default() },
                final_sweeps: Some(3),
                ..MultilevelConfig::default()
            })
            .build();
        let mut first: Option<FdCheckpoint> = None;
        let mut writer = |c: &FdCheckpoint| {
            first.get_or_insert_with(|| c.clone());
            Ok(())
        };
        let mut opts = FdRunOpts {
            checkpoint_every: Some(1),
            on_checkpoint: Some(&mut writer),
            ..FdRunOpts::default()
        };
        let full = mapper.map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink).unwrap();
        drop(opts);
        let full_stats = full.fd_stats.unwrap();
        assert_eq!(full_stats.stop, StopReason::SweepCapReached);
        assert_eq!(full_stats.iterations, 3);
        let cp = first.expect("the finest rung checkpoints every sweep");
        assert_eq!(cp.sweeps, 1);

        let mut opts = FdRunOpts { resume: Some(cp), ..FdRunOpts::default() };
        let resumed = mapper.map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink).unwrap();
        let rs = resumed.fd_stats.unwrap();
        assert_eq!(resumed.placement, full.placement);
        assert_eq!((rs.iterations, rs.swaps, rs.stop), (3, full_stats.swaps, full_stats.stop));
    }

    #[test]
    fn traced_multilevel_emits_level_phases_and_matches_untraced() {
        use snnmap_trace::{MemorySink, TraceEvent};
        let pcn = random_pcn(300, 5.0, 3).unwrap();
        let mesh = Mesh::new(18, 18).unwrap();
        let mapper = ml_mapper(0);
        let plain = mapper.map(&pcn, mesh).unwrap();
        let mut sink = MemorySink::new();
        let traced = mapper.map_traced(&pcn, mesh, &mut sink).unwrap();
        assert_eq!(traced.placement, plain.placement);
        let phases: Vec<String> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Phase(p) => Some(p.name.clone()),
                _ => None,
            })
            .collect();
        assert!(phases.iter().any(|p| p == "coarsen"));
        assert!(phases.iter().any(|p| p == "hsc_init"));
        assert!(phases.iter().any(|p| p.starts_with("ml_level_")));
    }
}
