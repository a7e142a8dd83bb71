//! The end-to-end mapping pipeline (Figure 3).

use std::fmt;
use std::time::{Duration, Instant};

use snnmap_curves::{Serpentine, SpaceFillingCurve, Spiral, ZigZag};
use snnmap_hw::{Board, Coord, FaultDelta, FaultMap, HwError, Mesh, Placement};
use snnmap_model::Pcn;
use snnmap_trace::{
    time_phase, NoopSink, PhaseEvent, RepairEvent, RunEvent, TraceEvent, TraceSink,
};

use crate::hsc::{hsc_board_sequence_impl, hsc_sequence_impl};
use crate::multilevel::MultilevelConfig;
use crate::validate::{repair, repair_board, DegradedPlacement, RepairMove};
use crate::{
    force_directed, par, random_placement, sequence_placement, toposort, CoreError, FdCheckpoint,
    FdConfig, FdResume, FdRunOpts, FdStats, Objective, Potential, RunBudget,
};

/// How the initial placement is produced (step 1 of Figure 3; the
/// non-Hilbert variants are the comparison methods of Figures 6 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitialPlacement {
    /// Topological sort laid along the Hilbert curve (generalized to
    /// arbitrary rectangles) — the paper's method.
    Hilbert,
    /// Topological sort along the diagonal ZigZag scan.
    ZigZag,
    /// Topological sort along the outside-in spiral ("Circle").
    Circle,
    /// Topological sort along a row-serpentine.
    Serpentine,
    /// Uniformly random placement with the given seed (the baseline and
    /// the initialization of Figure 8's methods e/g/i).
    Random(u64),
}

/// The result of [`Mapper::map`]: the final placement plus phase
/// statistics.
#[derive(Debug, Clone)]
pub struct MapOutcome {
    /// The final (complete) placement.
    pub placement: Placement,
    /// Statistics of the FD phase, if it ran.
    pub fd_stats: Option<FdStats>,
    /// Wall-clock time of the initial-placement phase.
    pub init_elapsed: Duration,
    /// Wall-clock time of the FD phase (zero if disabled).
    pub fd_elapsed: Duration,
}

/// The outcome of [`Mapper::repair_incremental_traced`]: what broke, what was
/// disturbed, and the statistics of the local refinement pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairReport {
    /// What broke since the previous fault map ([`FaultMap::diff`]).
    pub delta: FaultDelta,
    /// Clusters the eviction pass relocated off newly dead cores, in
    /// cluster order.
    pub evicted: Vec<RepairMove>,
    /// Clusters whose final coordinate differs from their pre-repair one
    /// (eviction plus local FD refinement) — the disruption metric a
    /// live system pays to apply the new placement.
    pub moved: u64,
    /// Cores inside the dirty region the FD pass was allowed to touch
    /// (`0` when nothing broke).
    pub region_cores: u64,
    /// Statistics of the budgeted, region-masked FD pass, when it ran.
    pub fd_stats: Option<FdStats>,
    /// The typed degraded-mode outcome, present only on board-aware
    /// repairs where the surviving capacity cannot absorb the load: the
    /// listed clusters stay unplaced and the FD pass is skipped. `None`
    /// means the repaired placement is complete.
    pub degraded: Option<DegradedPlacement>,
}

/// The paper's complete mapping approach: initial placement followed by
/// optional Force-Directed refinement.
///
/// The default configuration is the paper's best method (method *j* of
/// Figure 8): Hilbert initialization and FD with the `u_c = x² + y²`
/// potential at λ = 0.3.
///
/// # Examples
///
/// ```
/// use snnmap_core::{InitialPlacement, Mapper, Potential};
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
///
/// let pcn = random_pcn(100, 4.0, 5)?;
/// let mesh = Mesh::square_for(100)?;
///
/// // The paper's method j.
/// let outcome = Mapper::builder().build().map(&pcn, mesh)?;
/// assert!(outcome.placement.is_complete());
///
/// // Initial placement only (method b of Figure 8).
/// let hsc_only = Mapper::builder().fd_enabled(false).build().map(&pcn, mesh)?;
/// assert!(hsc_only.fd_stats.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mapper {
    init: InitialPlacement,
    fd: Option<FdConfig>,
    faults: Option<FaultMap>,
    board: Option<Board>,
    threads: usize,
    multilevel: Option<MultilevelConfig>,
}

impl Mapper {
    /// Starts building a mapper; defaults to Hilbert + FD(`u_c`, λ=0.3).
    pub fn builder() -> MapperBuilder {
        MapperBuilder::default()
    }

    /// The configured initial-placement strategy.
    pub fn initial_placement(&self) -> InitialPlacement {
        self.init
    }

    /// The configured FD phase, if enabled.
    pub fn fd_config(&self) -> Option<&FdConfig> {
        self.fd.as_ref()
    }

    /// The configured hardware fault map, if any.
    pub fn fault_map(&self) -> Option<&FaultMap> {
        self.faults.as_ref()
    }

    /// The configured multi-chip board, if any.
    pub fn board(&self) -> Option<&Board> {
        self.board.as_ref()
    }

    /// The configured worker-thread count (`0` = auto; see
    /// [`crate::par::resolve_threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured multilevel pipeline, if enabled.
    pub fn multilevel_config(&self) -> Option<&MultilevelConfig> {
        self.multilevel.as_ref()
    }

    /// Maps a PCN onto a mesh. When a fault map is configured (see
    /// [`MapperBuilder::fault_map`]), every phase avoids dead cores: the
    /// initial curve/random placement uses only healthy cores and the FD
    /// refinement never swaps into a dead one.
    ///
    /// # Errors
    ///
    /// [`CoreError::MeshTooSmall`] if the PCN outnumbers the cores;
    /// [`CoreError::InsufficientCores`] if it outnumbers the *healthy*
    /// cores under the configured fault map; curve errors cannot occur
    /// (generalized Hilbert covers every mesh), but propagate as
    /// [`CoreError::Curve`] if they do.
    pub fn map(&self, pcn: &Pcn, mesh: Mesh) -> Result<MapOutcome, CoreError> {
        self.map_traced(pcn, mesh, &mut NoopSink)
    }

    /// [`Mapper::map`] with trace instrumentation: emits a `run` header,
    /// per-phase spans (`toposort`, `hsc_init`/`curve_init`/`random_init`,
    /// `fd`) and the FD engine's convergence telemetry into `sink`.
    ///
    /// Zero-cost when disabled: every probe is guarded by
    /// [`TraceSink::enabled`], and [`Mapper::map`] delegates here with
    /// [`NoopSink`], whose statically-false `enabled()` lets
    /// monomorphization delete the instrumentation — the placement is
    /// bit-identical with and without tracing by construction.
    ///
    /// # Errors
    ///
    /// As [`Mapper::map`].
    ///
    /// # Examples
    ///
    /// ```
    /// use snnmap_core::Mapper;
    /// use snnmap_hw::Mesh;
    /// use snnmap_model::generators::random_pcn;
    /// use snnmap_trace::{MemorySink, TraceEvent};
    ///
    /// let pcn = random_pcn(100, 4.0, 5)?;
    /// let mesh = Mesh::square_for(100)?;
    /// let mut sink = MemorySink::new();
    /// let traced = Mapper::builder().build().map_traced(&pcn, mesh, &mut sink)?;
    /// let plain = Mapper::builder().build().map(&pcn, mesh)?;
    /// assert_eq!(traced.placement, plain.placement);
    /// assert!(matches!(sink.events()[0], TraceEvent::Run(_)));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn map_traced<S: TraceSink + ?Sized>(
        &self,
        pcn: &Pcn,
        mesh: Mesh,
        sink: &mut S,
    ) -> Result<MapOutcome, CoreError> {
        self.map_budgeted_traced(pcn, mesh, &mut FdRunOpts::default(), sink)
    }

    /// [`Mapper::map_traced`] under caller-supplied [`FdRunOpts`]:
    /// deadline, sweep-cap and cancellation budgets, periodic
    /// checkpointing, region masks and the sim-in-the-loop hook all apply
    /// to the FD phase (see [`crate::force_directed`]). The initial
    /// placement always runs to completion — it is cheap and not
    /// interruptible — so an expired budget still yields a complete, valid
    /// placement whose energy is no worse than the initial one.
    ///
    /// # Errors
    ///
    /// As [`Mapper::map`], plus [`CoreError::InvalidRunOpts`],
    /// [`CoreError::CheckpointFailed`] and [`CoreError::WorkerPanicked`]
    /// from the budgeted FD engine.
    pub fn map_budgeted_traced<S: TraceSink + ?Sized>(
        &self,
        pcn: &Pcn,
        mesh: Mesh,
        opts: &mut FdRunOpts<'_>,
        sink: &mut S,
    ) -> Result<MapOutcome, CoreError> {
        let fm = self.faults.as_ref();
        let threads_resolved = par::resolve_threads(self.threads);
        if sink.enabled() {
            sink.record(&TraceEvent::Run(RunEvent {
                tool: "map".to_owned(),
                clusters: pcn.num_clusters(),
                connections: pcn.num_connections(),
                mesh_rows: mesh.rows(),
                mesh_cols: mesh.cols(),
                threads_requested: self.threads,
                threads_resolved,
            }));
        }

        if let Some(board) = &self.board {
            if self.multilevel.is_some() {
                return Err(CoreError::InvalidRunOpts {
                    message: "the multilevel pipeline does not support \
                              board-constrained mapping yet"
                        .into(),
                });
            }
            if self.init != InitialPlacement::Hilbert {
                return Err(CoreError::InvalidRunOpts {
                    message: format!(
                        "board-constrained mapping places with the Hilbert/HSC \
                         init; {:?} is not supported with it",
                        self.init
                    ),
                });
            }
            if board.mesh() != mesh {
                return Err(CoreError::InvalidRunOpts {
                    message: format!(
                        "board covers {} but the map targets {mesh}",
                        board.mesh()
                    ),
                });
            }
        }

        if let Some(ml) = &self.multilevel {
            if self.init != InitialPlacement::Hilbert {
                return Err(CoreError::InvalidRunOpts {
                    message: format!(
                        "the multilevel pipeline places the coarsest graph with the \
                         Hilbert/HSC init; {:?} is not supported with it",
                        self.init
                    ),
                });
            }
            return crate::multilevel::multilevel_map_impl(
                pcn,
                mesh,
                ml,
                self.fd.as_ref(),
                fm,
                threads_resolved,
                opts,
                sink,
            );
        }

        let t0 = Instant::now();
        let mut placement = match self.init {
            InitialPlacement::Hilbert => {
                let order = time_phase(sink, "toposort", || toposort(pcn));
                time_phase(sink, "hsc_init", || match &self.board {
                    Some(b) => {
                        hsc_board_sequence_impl(pcn, &order, b, fm, threads_resolved)
                    }
                    None => hsc_sequence_impl(&order, mesh, fm, threads_resolved),
                })?
            }
            InitialPlacement::ZigZag => self.curve_init(pcn, mesh, &ZigZag, sink)?,
            InitialPlacement::Circle => self.curve_init(pcn, mesh, &Spiral, sink)?,
            InitialPlacement::Serpentine => self.curve_init(pcn, mesh, &Serpentine, sink)?,
            InitialPlacement::Random(seed) => {
                time_phase(sink, "random_init", || random_placement(pcn, mesh, seed, fm))?
            }
        };
        let init_elapsed = t0.elapsed();

        let t1 = Instant::now();
        let fd_alloc0 = sink.enabled().then(snnmap_trace::alloc_snapshot);
        let fd_stats = match &self.fd {
            Some(cfg) => Some(force_directed(
                pcn,
                &mut placement,
                cfg,
                fm,
                self.board.as_ref(),
                opts,
                sink,
            )?),
            None => None,
        };
        let fd_elapsed = t1.elapsed();
        if sink.enabled() && self.fd.is_some() {
            let da = snnmap_trace::alloc_snapshot()
                .since(fd_alloc0.unwrap_or_default());
            sink.record(&TraceEvent::Phase(PhaseEvent {
                name: "fd".to_owned(),
                wall_ns: u64::try_from(fd_elapsed.as_nanos()).unwrap_or(u64::MAX),
                alloc_bytes: da.bytes,
                allocs: da.allocs,
            }));
        }

        Ok(MapOutcome { placement, fd_stats, init_elapsed, fd_elapsed })
    }

    /// Continues an interrupted FD run from a checkpoint.
    ///
    /// The placement is rebuilt from the checkpoint's coordinate table,
    /// the sweep/swap counters and initial energy are restored verbatim,
    /// and the engine rebuilds its exact forces from the coordinates —
    /// so killing a run at any sweep boundary and resuming it yields a
    /// placement bit-identical to the uninterrupted run. `opts` carries the *new* invocation's budget
    /// and checkpoint cadence (a wall-clock deadline restarts from now; a
    /// sweep cap counts total sweeps including the checkpoint's); any
    /// `opts.resume` already set is overwritten from the checkpoint.
    ///
    /// Emits a `run` header (`tool: "resume"`), a `resume` event with the
    /// restored counters, and the FD engine's convergence telemetry into
    /// `sink`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidRunOpts`] when the FD phase is disabled on
    /// this mapper or the checkpoint does not match the PCN;
    /// [`CoreError::Hw`] when the checkpoint's coordinates collide, fall
    /// outside its mesh, or the configured fault map covers a different
    /// mesh.
    pub fn resume_traced<S: TraceSink + ?Sized>(
        &self,
        pcn: &Pcn,
        checkpoint: &FdCheckpoint,
        opts: &mut FdRunOpts<'_>,
        sink: &mut S,
    ) -> Result<MapOutcome, CoreError> {
        let Some(cfg) = self.fd.as_ref() else {
            return Err(CoreError::InvalidRunOpts {
                message: "resume needs the FD phase enabled on this mapper".into(),
            });
        };
        let n = pcn.num_clusters();
        if checkpoint.coords.len() != n as usize {
            return Err(CoreError::InvalidRunOpts {
                message: format!(
                    "checkpoint covers {} clusters but the PCN has {n}",
                    checkpoint.coords.len()
                ),
            });
        }
        if n as usize > checkpoint.mesh.len() {
            return Err(CoreError::InvalidRunOpts {
                message: format!("checkpoint mesh {} cannot hold {n} clusters", checkpoint.mesh),
            });
        }
        if let Some(fm) = self.faults.as_ref() {
            if fm.mesh() != checkpoint.mesh {
                return Err(CoreError::Hw(HwError::InvalidFaultSpec {
                    message: format!(
                        "fault map covers {} but the checkpoint targets {}",
                        fm.mesh(),
                        checkpoint.mesh
                    ),
                }));
            }
        }
        if sink.enabled() {
            sink.record(&TraceEvent::Run(RunEvent {
                tool: "resume".to_owned(),
                clusters: n,
                connections: pcn.num_connections(),
                mesh_rows: checkpoint.mesh.rows(),
                mesh_cols: checkpoint.mesh.cols(),
                threads_requested: self.threads,
                threads_resolved: par::resolve_threads(self.threads),
            }));
        }
        let mut placement = Placement::new_unplaced(checkpoint.mesh, n);
        placement.set_coords(&checkpoint.coords)?;
        opts.resume = Some(FdResume::from_checkpoint(checkpoint));
        let t1 = Instant::now();
        let stats = force_directed(
            pcn,
            &mut placement,
            cfg,
            self.faults.as_ref(),
            self.board.as_ref(),
            opts,
            sink,
        )?;
        let fd_elapsed = t1.elapsed();
        Ok(MapOutcome { placement, fd_stats: Some(stats), init_elapsed: Duration::ZERO, fd_elapsed })
    }

    /// Patches a live placement after the hardware degrades, disturbing
    /// as few clusters as possible.
    ///
    /// `previous` is the fault map the placement was produced under,
    /// `current` the hardware's new state; [`FaultMap::diff`] yields what
    /// broke. Clusters stranded on newly dead cores are evicted to the
    /// nearest free healthy core (the deterministic [`repair`] pass),
    /// then a budgeted FD pass restricted to the *dirty region* — the
    /// union of radius-`radius` Manhattan balls around every eviction
    /// endpoint, newly dead core and failed-link endpoint — locally
    /// re-optimizes while the rest of the placement stays frozen. The
    /// result moves strictly fewer clusters than a full remap, at a small
    /// cost in final energy.
    ///
    /// Outside that FD pass the repair scans the mesh a constant number of
    /// times: eviction searches a list of the free cores, and the dirty
    /// region is painted ball by ball, so the bookkeeping costs
    /// O(mesh + evictions × free cores + seeds × radius²).
    ///
    /// `sink` receives a `repair` phase span covering eviction and the
    /// region build, the FD engine's telemetry for the region pass, and
    /// one final `repair` event summarizing the disruption.
    ///
    /// # Errors
    ///
    /// As [`repair`], plus [`CoreError::Hw`] when the two fault maps
    /// disagree on the mesh. On error the placement is unchanged (the
    /// eviction pass is transactional and the FD pass only writes back on
    /// success).
    #[allow(clippy::too_many_arguments)]
    pub fn repair_incremental_traced<S: TraceSink + ?Sized>(
        &self,
        pcn: &Pcn,
        placement: &mut Placement,
        previous: &FaultMap,
        current: &FaultMap,
        radius: u16,
        budget: RunBudget,
        sink: &mut S,
    ) -> Result<RepairReport, CoreError> {
        let delta = current.diff(previous)?;
        if delta.is_empty() {
            return Ok(RepairReport {
                delta,
                evicted: Vec::new(),
                moved: 0,
                region_cores: 0,
                fd_stats: None,
                degraded: None,
            });
        }
        let n = pcn.num_clusters();
        let before: Vec<Option<Coord>> = (0..n).map(|c| placement.coord_of(c)).collect();
        let (outcome, degraded, region) = time_phase(sink, "repair", || {
            let (outcome, degraded) = match &self.board {
                Some(board) => repair_board(pcn, placement, Some(current), board)?,
                None => (repair(pcn, placement, Some(current), None)?, None),
            };
            let mut seeds: Vec<Coord> = Vec::new();
            for mv in &outcome.moved {
                seeds.extend(mv.from);
                seeds.push(mv.to);
            }
            seeds.extend_from_slice(&delta.new_dead_cores);
            for &(a, b) in &delta.new_failed_links {
                seeds.push(a);
                seeds.push(b);
            }
            let region = dirty_region(placement.mesh(), &seeds, radius);
            Ok::<_, CoreError>((outcome, degraded, region))
        })?;
        let region_cores = region.iter().filter(|&&active| active).count() as u64;

        // A degraded placement is incomplete, so the FD pass cannot run;
        // the evacuation itself already placed everything that fits.
        let fd_stats = match self.fd.as_ref() {
            Some(cfg) if region_cores > 0 && degraded.is_none() => {
                let mut opts =
                    FdRunOpts { budget, region: Some(region), ..FdRunOpts::default() };
                Some(force_directed(
                    pcn,
                    placement,
                    cfg,
                    Some(current),
                    self.board.as_ref(),
                    &mut opts,
                    sink,
                )?)
            }
            _ => None,
        };

        let moved =
            (0..n).filter(|&c| placement.coord_of(c) != before[c as usize]).count() as u64;
        if sink.enabled() {
            sink.record(&TraceEvent::Repair(RepairEvent {
                evicted: outcome.moved.len() as u64,
                moved,
                region_cores,
                energy_before: fd_stats.as_ref().map_or(0.0, |s| s.initial_energy),
                energy_after: fd_stats.as_ref().map_or(0.0, |s| s.final_energy),
            }));
        }
        Ok(RepairReport { delta, evicted: outcome.moved, moved, region_cores, fd_stats, degraded })
    }

    fn curve_init<S: TraceSink + ?Sized>(
        &self,
        pcn: &Pcn,
        mesh: Mesh,
        curve: &dyn SpaceFillingCurve,
        sink: &mut S,
    ) -> Result<Placement, CoreError> {
        let order = time_phase(sink, "toposort", || toposort(pcn));
        time_phase(sink, "curve_init", || {
            sequence_placement(&order, curve, mesh, self.faults.as_ref())
        })
    }
}

/// The cores within Manhattan distance `radius` of any seed: each seed's
/// ball, clipped to the mesh, is painted row by row, in O(seeds × radius²).
fn dirty_region(mesh: Mesh, seeds: &[Coord], radius: u16) -> Vec<bool> {
    let (rows, cols, r) = (i32::from(mesh.rows()), i32::from(mesh.cols()), i32::from(radius));
    let mut region = vec![false; mesh.len()];
    for s in seeds {
        let (sx, sy) = (i32::from(s.x), i32::from(s.y));
        for x in (sx - r).max(0)..=(sx + r).min(rows - 1) {
            let reach = r - (x - sx).abs();
            let row = x as usize * cols as usize;
            let (lo, hi) = ((sy - reach).max(0) as usize, (sy + reach).min(cols - 1) as usize);
            region[row + lo..=row + hi].fill(true);
        }
    }
    region
}

impl Default for Mapper {
    fn default() -> Self {
        Mapper::builder().build()
    }
}

impl fmt::Display for Mapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.fd {
            Some(cfg) => write!(f, "{:?} + FD({:?}, lambda={})", self.init, cfg.potential, cfg.lambda),
            None => write!(f, "{:?} (no FD)", self.init),
        }
    }
}

/// Builder for [`Mapper`].
#[derive(Debug, Clone)]
pub struct MapperBuilder {
    init: InitialPlacement,
    fd_enabled: bool,
    fd: FdConfig,
    faults: Option<FaultMap>,
    board: Option<Board>,
    threads: usize,
    multilevel: Option<MultilevelConfig>,
}

impl Default for MapperBuilder {
    fn default() -> Self {
        Self {
            init: InitialPlacement::Hilbert,
            fd_enabled: true,
            fd: FdConfig::default(),
            faults: None,
            board: None,
            threads: 0,
            multilevel: None,
        }
    }
}

impl MapperBuilder {
    /// Sets the initial-placement strategy (default: Hilbert).
    pub fn initial_placement(mut self, init: InitialPlacement) -> Self {
        self.init = init;
        self
    }

    /// Enables or disables the FD phase (default: enabled).
    pub fn fd_enabled(mut self, enabled: bool) -> Self {
        self.fd_enabled = enabled;
        self
    }

    /// Sets the FD potential field (default: `u_c`, eq. 21).
    pub fn potential(mut self, potential: Potential) -> Self {
        self.fd.potential = potential;
        self
    }

    /// Sets the λ queue fraction (default: 0.3, §4.5).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `(0, 1]`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0, 1]");
        self.fd.lambda = lambda;
        self
    }

    /// Caps FD iterations (default: unlimited; convergence is
    /// guaranteed).
    pub fn max_iterations(mut self, cap: u64) -> Self {
        self.fd.max_iterations = Some(cap);
        self
    }

    /// Sets the refinement objective (default: [`Objective::Energy`],
    /// the paper's pure eq. 25 descent — bit-identical to builds that
    /// predate the objective subsystem).
    ///
    /// # Panics
    ///
    /// Panics if the objective's λ weights are invalid (negative,
    /// non-finite, or a congestion objective with `lambda_c == 0`).
    pub fn objective(mut self, objective: Objective) -> Self {
        objective.validate().expect("invalid objective");
        self.fd.objective = objective;
        self
    }

    /// Enables sim-in-the-loop reweighting: every `every` sweeps the
    /// run's [`SweepReweighter`](crate::SweepReweighter) hook (or,
    /// hookless, the engine's own congestion map) re-weights hot routers
    /// in the congestion term.
    /// Requires a non-energy objective at `map` time and is incompatible
    /// with checkpoint/resume (default: disabled).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn reweight_every(mut self, every: u64) -> Self {
        assert!(every > 0, "reweight_every must be positive");
        self.fd.reweight_every = Some(every);
        self
    }

    /// Caps FD wall-clock time (default: unlimited).
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.fd.time_budget = Some(budget);
        self
    }

    /// Installs a hardware fault map: the whole pipeline will place and
    /// refine on healthy cores only (default: none, fault-free hardware).
    pub fn fault_map(mut self, faults: FaultMap) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Installs a multi-chip [`Board`]: the HSC init places each cluster
    /// on a core whose capacity vector admits it, and every FD swap that
    /// would overload a core is rejected — the whole pipeline preserves
    /// capacity feasibility. Requires the Hilbert initial placement and
    /// is not yet supported together with the multilevel pipeline; the
    /// mesh passed to [`Mapper::map`] must equal the board's
    /// (default: none, uncapacitated homogeneous mesh).
    pub fn board(mut self, board: Board) -> Self {
        self.board = Some(board);
        self
    }

    /// Sets the worker-thread count for both the Hilbert traversal and
    /// the FD engine (default `0` = auto: `SNNMAP_THREADS`, else the
    /// machine's available parallelism).
    ///
    /// The pipeline produces **bit-identical placements for every thread
    /// count** — this knob only trades wall-clock time for cores.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables the multilevel pipeline (coarsen → place → uncoarsen and
    /// refine; see [`crate::MultilevelConfig`]). Requires the Hilbert
    /// initial placement — the coarsest graph is placed with the paper's
    /// HSC init — and produces bit-identical placements for every thread
    /// count, like the flat pipeline (default: disabled).
    pub fn multilevel(mut self, config: MultilevelConfig) -> Self {
        self.multilevel = Some(config);
        self
    }

    /// Finalizes the mapper.
    pub fn build(self) -> Mapper {
        let mut fd = self.fd;
        fd.threads = self.threads;
        Mapper {
            init: self.init,
            fd: self.fd_enabled.then_some(fd),
            faults: self.faults,
            board: self.board,
            threads: self.threads,
            multilevel: self.multilevel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_hw::CostModel;
    use snnmap_metrics::evaluate;
    use snnmap_model::generators::random_pcn;

    /// [`Mapper::map_budgeted_traced`] with tracing off.
    fn budgeted(
        m: &Mapper,
        pcn: &Pcn,
        mesh: Mesh,
        opts: &mut FdRunOpts<'_>,
    ) -> Result<MapOutcome, CoreError> {
        m.map_budgeted_traced(pcn, mesh, opts, &mut NoopSink)
    }

    /// [`Mapper::resume_traced`] with default options and tracing off.
    fn resume(m: &Mapper, pcn: &Pcn, cp: &FdCheckpoint) -> Result<MapOutcome, CoreError> {
        m.resume_traced(pcn, cp, &mut FdRunOpts::default(), &mut NoopSink)
    }

    #[test]
    fn default_is_paper_method_j() {
        let m = Mapper::default();
        assert_eq!(m.initial_placement(), InitialPlacement::Hilbert);
        let fd = m.fd_config().unwrap();
        assert_eq!(fd.potential, Potential::L2Squared);
        assert_eq!(fd.lambda, 0.3);
    }

    #[test]
    fn all_initializations_produce_complete_placements() {
        let pcn = random_pcn(50, 4.0, 1).unwrap();
        let mesh = Mesh::new(8, 8).unwrap();
        for init in [
            InitialPlacement::Hilbert,
            InitialPlacement::ZigZag,
            InitialPlacement::Circle,
            InitialPlacement::Serpentine,
            InitialPlacement::Random(3),
        ] {
            let out = Mapper::builder()
                .initial_placement(init)
                .fd_enabled(false)
                .build()
                .map(&pcn, mesh)
                .unwrap();
            assert!(out.placement.is_complete(), "{init:?}");
            out.placement.check_consistency().unwrap();
        }
    }

    #[test]
    fn full_pipeline_beats_initial_only() {
        let pcn = random_pcn(100, 5.0, 9).unwrap();
        let mesh = Mesh::new(10, 10).unwrap();
        let cost = CostModel::paper_target();
        let init_only =
            Mapper::builder().fd_enabled(false).build().map(&pcn, mesh).unwrap();
        let full = Mapper::builder().build().map(&pcn, mesh).unwrap();
        let a = evaluate(&pcn, &init_only.placement, cost).unwrap();
        let b = evaluate(&pcn, &full.placement, cost).unwrap();
        assert!(b.energy <= a.energy, "FD must not worsen energy");
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let pcn = random_pcn(120, 5.0, 4).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        let reference = Mapper::builder().threads(1).build().map(&pcn, mesh).unwrap();
        for threads in [2, 4, 8] {
            let m = Mapper::builder().threads(threads).build();
            assert_eq!(m.threads(), threads);
            let out = m.map(&pcn, mesh).unwrap();
            assert_eq!(out.placement, reference.placement, "threads={threads}");
            assert_eq!(
                out.fd_stats.as_ref().unwrap().swaps,
                reference.fd_stats.as_ref().unwrap().swaps,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn mesh_too_small_is_reported() {
        let pcn = random_pcn(100, 4.0, 2).unwrap();
        assert!(matches!(
            Mapper::default().map(&pcn, Mesh::new(9, 9).unwrap()),
            Err(CoreError::MeshTooSmall { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn builder_rejects_bad_lambda() {
        let _ = Mapper::builder().lambda(0.0);
    }

    #[test]
    fn faulty_hardware_is_avoided_by_every_initialization() {
        use snnmap_hw::{FaultInjector, FaultPattern};
        let pcn = random_pcn(50, 4.0, 1).unwrap();
        let mesh = Mesh::new(8, 8).unwrap();
        let fm = FaultInjector::new(42)
            .inject(mesh, &FaultPattern::Uniform { core_rate: 0.08, link_rate: 0.0 })
            .unwrap();
        assert!(fm.num_dead_cores() > 0);
        for init in [
            InitialPlacement::Hilbert,
            InitialPlacement::ZigZag,
            InitialPlacement::Circle,
            InitialPlacement::Serpentine,
            InitialPlacement::Random(3),
        ] {
            let out = Mapper::builder()
                .initial_placement(init)
                .fault_map(fm.clone())
                .build()
                .map(&pcn, mesh)
                .unwrap();
            assert!(out.placement.is_complete(), "{init:?}");
            out.placement.check_consistency().unwrap();
            for c in 0..50u32 {
                let coord = out.placement.coord_of(c).unwrap();
                assert!(!fm.is_dead(coord), "{init:?}: cluster {c} on dead core {coord}");
            }
            if let Some(stats) = out.fd_stats {
                assert!(stats.final_energy <= stats.initial_energy + 1e-9, "{init:?}");
            }
        }
    }

    #[test]
    fn traced_map_matches_untraced_and_orders_events() {
        use snnmap_trace::MemorySink;
        let pcn = random_pcn(120, 5.0, 4).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        let mapper = Mapper::builder().threads(2).build();
        let plain = mapper.map(&pcn, mesh).unwrap();
        let mut sink = MemorySink::new();
        let traced = mapper.map_traced(&pcn, mesh, &mut sink).unwrap();
        assert_eq!(traced.placement, plain.placement);
        assert_eq!(traced.fd_stats, plain.fd_stats);

        let names: Vec<&str> = sink.events().iter().map(|e| e.name()).collect();
        // run, toposort, hsc_init, fd_config, sweeps…, fd_done, par, fd.
        assert_eq!(&names[..3], &["run", "phase", "phase"]);
        assert_eq!(names[3], "fd_config");
        assert_eq!(*names.last().unwrap(), "phase");
        let sweeps = names.iter().filter(|n| **n == "fd_sweep").count() as u64;
        assert_eq!(sweeps, traced.fd_stats.unwrap().iterations);
        assert!(names.contains(&"fd_done"));
        assert!(names.contains(&"par"));

        // The per-sweep energy telemetry must agree with FdStats and
        // descend monotonically (exact tension mode).
        let energies: Vec<f64> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                snnmap_trace::TraceEvent::FdSweep(s) => Some(s.energy),
                _ => None,
            })
            .collect();
        let stats = traced.fd_stats.unwrap();
        assert_eq!(energies.last().copied().unwrap().to_bits(), stats.final_energy.to_bits());
        for w in energies.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "energy must not increase: {w:?}");
        }
    }

    #[test]
    fn traced_map_covers_every_initialization_kind() {
        use snnmap_trace::{MemorySink, TraceEvent};
        let pcn = random_pcn(50, 4.0, 1).unwrap();
        let mesh = Mesh::new(8, 8).unwrap();
        for (init, expect) in [
            (InitialPlacement::Hilbert, "hsc_init"),
            (InitialPlacement::ZigZag, "curve_init"),
            (InitialPlacement::Circle, "curve_init"),
            (InitialPlacement::Serpentine, "curve_init"),
            (InitialPlacement::Random(3), "random_init"),
        ] {
            let mut sink = MemorySink::new();
            let out = Mapper::builder()
                .initial_placement(init)
                .build()
                .map_traced(&pcn, mesh, &mut sink)
                .unwrap();
            assert!(out.placement.is_complete(), "{init:?}");
            let has_phase = sink.events().iter().any(|e| {
                matches!(e, TraceEvent::Phase(p) if p.name == expect)
            });
            assert!(has_phase, "{init:?} should emit a {expect} phase");
        }
    }

    #[test]
    fn zero_sweep_budget_returns_the_initial_placement() {
        use crate::StopReason;
        let pcn = random_pcn(100, 5.0, 9).unwrap();
        let mesh = Mesh::new(10, 10).unwrap();
        let init_only =
            Mapper::builder().fd_enabled(false).build().map(&pcn, mesh).unwrap();
        let mut opts = FdRunOpts {
            budget: RunBudget { max_sweeps: Some(0), ..RunBudget::default() },
            ..FdRunOpts::default()
        };
        let out = budgeted(&Mapper::default(), &pcn, mesh, &mut opts).unwrap();
        let stats = out.fd_stats.unwrap();
        assert_eq!(stats.stop, StopReason::SweepCapReached);
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 0);
        assert_eq!(stats.swaps, 0);
        assert_eq!(stats.final_energy.to_bits(), stats.initial_energy.to_bits());
        assert_eq!(out.placement, init_only.placement);
    }

    #[test]
    fn cancellation_stops_before_the_first_sweep() {
        use crate::StopReason;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let pcn = random_pcn(100, 5.0, 9).unwrap();
        let mesh = Mesh::new(10, 10).unwrap();
        let flag = Arc::new(AtomicBool::new(true));
        let mut opts = FdRunOpts {
            budget: RunBudget { cancel: Some(flag), ..RunBudget::default() },
            ..FdRunOpts::default()
        };
        let out = budgeted(&Mapper::default(), &pcn, mesh, &mut opts).unwrap();
        let stats = out.fd_stats.unwrap();
        assert_eq!(stats.stop, StopReason::Cancelled);
        assert_eq!(stats.iterations, 0);
        assert!(out.placement.is_complete());
    }

    #[test]
    fn anytime_budget_never_worsens_energy_and_stays_valid() {
        // The anytime guarantee: for random PCNs, fault masks and sweep
        // budgets, a budget-stopped run yields a complete, validate()-clean
        // placement with energy no worse than the initial one.
        use snnmap_hw::{FaultInjector, FaultPattern};
        let mesh = Mesh::new(10, 10).unwrap();
        for seed in 0..6u64 {
            let pcn = random_pcn(70 + 5 * seed as u32, 4.0, seed).unwrap();
            let fm = (seed % 2 == 0).then(|| {
                FaultInjector::new(seed)
                    .inject(mesh, &FaultPattern::Uniform { core_rate: 0.05, link_rate: 0.0 })
                    .unwrap()
            });
            for cap in [0, 1, 2, 5] {
                let mut b = Mapper::builder();
                if let Some(fm) = fm.clone() {
                    b = b.fault_map(fm);
                }
                let mut opts = FdRunOpts {
                    budget: RunBudget { max_sweeps: Some(cap), ..RunBudget::default() },
                    ..FdRunOpts::default()
                };
                let out = budgeted(&b.build(), &pcn, mesh, &mut opts).unwrap();
                let stats = out.fd_stats.unwrap();
                assert!(
                    stats.final_energy <= stats.initial_energy + 1e-9,
                    "seed {seed} cap {cap}: energy worsened"
                );
                assert!(out.placement.is_complete(), "seed {seed} cap {cap}");
                out.placement.check_consistency().unwrap();
                let report =
                    crate::validate(&pcn, &out.placement, fm.as_ref(), None).unwrap();
                assert!(report.is_ok(), "seed {seed} cap {cap}: {report}");
            }
        }
    }

    #[test]
    fn checkpoint_and_resume_reproduce_the_uninterrupted_run() {
        use crate::StopReason;
        // Stop the run at several sweep offsets, checkpoint, resume — the
        // final placement and statistics must be bit-identical to the
        // uninterrupted run, for serial and parallel engines alike.
        let pcn = random_pcn(120, 5.0, 4).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        for threads in [1usize, 4] {
            let mapper = Mapper::builder().threads(threads).build();
            let full = mapper.map(&pcn, mesh).unwrap();
            let full_stats = full.fd_stats.unwrap();
            assert!(full_stats.iterations > 3, "test needs a few sweeps to interrupt");
            for offset in [1u64, 2, 3] {
                let mut cp: Option<FdCheckpoint> = None;
                let mut writer = |c: &FdCheckpoint| {
                    cp = Some(c.clone());
                    Ok(())
                };
                let mut opts = FdRunOpts {
                    budget: RunBudget { max_sweeps: Some(offset), ..RunBudget::default() },
                    on_checkpoint: Some(&mut writer),
                    ..FdRunOpts::default()
                };
                let partial = budgeted(&mapper, &pcn, mesh, &mut opts).unwrap();
                drop(opts);
                let partial_stats = partial.fd_stats.unwrap();
                assert_eq!(partial_stats.stop, StopReason::SweepCapReached);
                let cp = cp.expect("budget stop must flush a checkpoint");
                assert_eq!(cp.sweeps, offset);
                // The written-back partial placement matches the snapshot.
                for (c, &coord) in cp.coords.iter().enumerate() {
                    assert_eq!(partial.placement.coord_of(c as u32), Some(coord));
                }

                let resumed = resume(&mapper, &pcn, &cp).unwrap();
                let rs = resumed.fd_stats.unwrap();
                assert_eq!(
                    resumed.placement, full.placement,
                    "threads {threads} offset {offset}: placement diverged"
                );
                assert_eq!(rs.iterations, full_stats.iterations);
                assert_eq!(rs.swaps, full_stats.swaps);
                assert_eq!(rs.stop, StopReason::Converged);
                assert!(rs.converged);
                assert_eq!(
                    rs.final_energy.to_bits(),
                    full_stats.final_energy.to_bits(),
                    "threads {threads} offset {offset}: energy bits diverged"
                );
                assert_eq!(rs.initial_energy.to_bits(), full_stats.initial_energy.to_bits());
            }
        }
    }

    #[test]
    fn periodic_checkpoints_fire_on_schedule() {
        let pcn = random_pcn(120, 5.0, 4).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        let mut sweeps_seen: Vec<u64> = Vec::new();
        let mut writer = |c: &FdCheckpoint| {
            sweeps_seen.push(c.sweeps);
            Ok(())
        };
        let mut opts = FdRunOpts {
            checkpoint_every: Some(2),
            on_checkpoint: Some(&mut writer),
            ..FdRunOpts::default()
        };
        let out = budgeted(&Mapper::default(), &pcn, mesh, &mut opts).unwrap();
        drop(opts);
        let iterations = out.fd_stats.unwrap().iterations;
        let expect: Vec<u64> = (1..=iterations).filter(|i| i % 2 == 0).collect();
        assert_eq!(sweeps_seen, expect);
    }

    #[test]
    fn failing_checkpoint_writer_is_a_typed_error() {
        let pcn = random_pcn(120, 5.0, 4).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        let mut writer = |_: &FdCheckpoint| Err("disk full".to_owned());
        let mut opts = FdRunOpts {
            checkpoint_every: Some(1),
            on_checkpoint: Some(&mut writer),
            ..FdRunOpts::default()
        };
        let err = budgeted(&Mapper::default(), &pcn, mesh, &mut opts).unwrap_err();
        assert!(matches!(err, CoreError::CheckpointFailed { ref message } if message == "disk full"));
        // checkpoint_every: Some(0) is rejected up front.
        let mut opts = FdRunOpts { checkpoint_every: Some(0), ..FdRunOpts::default() };
        assert!(matches!(
            budgeted(&Mapper::default(), &pcn, mesh, &mut opts),
            Err(CoreError::InvalidRunOpts { .. })
        ));
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        let pcn = random_pcn(100, 4.0, 5).unwrap();
        let mesh = Mesh::square_for(100).unwrap();
        let mut cp: Option<FdCheckpoint> = None;
        let mut writer = |c: &FdCheckpoint| {
            cp = Some(c.clone());
            Ok(())
        };
        let mut opts = FdRunOpts {
            budget: RunBudget { max_sweeps: Some(1), ..RunBudget::default() },
            on_checkpoint: Some(&mut writer),
            ..FdRunOpts::default()
        };
        budgeted(&Mapper::default(), &pcn, mesh, &mut opts).unwrap();
        drop(opts);
        let cp = cp.unwrap();

        // FD disabled: nothing to resume.
        let m = Mapper::builder().fd_enabled(false).build();
        assert!(matches!(
            resume(&m, &pcn, &cp),
            Err(CoreError::InvalidRunOpts { .. })
        ));
        // Cluster-count mismatch.
        let other = random_pcn(50, 4.0, 5).unwrap();
        assert!(matches!(
            resume(&Mapper::default(), &other, &cp),
            Err(CoreError::InvalidRunOpts { .. })
        ));
        // Fault map on a different mesh.
        let m = Mapper::builder()
            .fault_map(FaultMap::new(Mesh::new(30, 30).unwrap()))
            .build();
        assert!(matches!(
            resume(&m, &pcn, &cp),
            Err(CoreError::Hw(_))
        ));
        // Corrupted checkpoint: colliding coordinates.
        let mut bad = cp.clone();
        bad.coords[1] = bad.coords[0];
        assert!(matches!(
            resume(&Mapper::default(), &pcn, &bad),
            Err(CoreError::Hw(_))
        ));
    }

    #[test]
    fn repair_incremental_disturbs_fewer_clusters_than_a_full_remap() {
        use snnmap_hw::Coord;
        let pcn = random_pcn(200, 4.0, 7).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        let mapper = Mapper::builder().build();
        let baseline = mapper.map(&pcn, mesh).unwrap();

        // The hardware degrades after deployment: three occupied cores die.
        let previous = FaultMap::new(mesh);
        let mut current = FaultMap::new(mesh);
        for cluster in [10u32, 50, 90] {
            current.kill_core(baseline.placement.coord_of(cluster).unwrap()).unwrap();
        }
        current
            .fail_link(Coord::new(0, 0), Coord::new(0, 1))
            .unwrap();

        let mut patched = baseline.placement.clone();
        let report = mapper
            .repair_incremental_traced(
                &pcn,
                &mut patched,
                &previous,
                &current,
                2,
                RunBudget::default(),
                &mut NoopSink,
            )
            .unwrap();
        assert_eq!(report.evicted.len(), 3);
        assert_eq!(report.delta.new_dead_cores.len(), 3);
        assert_eq!(report.delta.new_failed_links.len(), 1);
        assert!(report.region_cores > 0);
        assert!(report.moved >= 3, "the evicted clusters count as moved");
        assert!(
            crate::validate(&pcn, &patched, Some(&current), None).unwrap().is_ok(),
            "patched placement must be valid on the degraded hardware"
        );
        patched.check_consistency().unwrap();
        if let Some(stats) = &report.fd_stats {
            assert!(stats.final_energy <= stats.initial_energy + 1e-9);
        }

        // A full remap on the degraded hardware moves far more clusters.
        let remapped = Mapper::builder()
            .fault_map(current.clone())
            .build()
            .map(&pcn, mesh)
            .unwrap();
        let remap_moved = (0..200u32)
            .filter(|&c| remapped.placement.coord_of(c) != baseline.placement.coord_of(c))
            .count() as u64;
        assert!(
            report.moved < remap_moved,
            "incremental repair ({}) must disturb fewer clusters than a full remap ({})",
            report.moved,
            remap_moved
        );
    }

    #[test]
    fn repair_incremental_with_no_new_faults_is_a_noop() {
        let pcn = random_pcn(100, 4.0, 5).unwrap();
        let mesh = Mesh::square_for(100).unwrap();
        let mapper = Mapper::builder().build();
        let out = mapper.map(&pcn, mesh).unwrap();
        let mut p = out.placement.clone();
        let fm = FaultMap::new(mesh);
        let budget = RunBudget::default();
        let report = mapper
            .repair_incremental_traced(&pcn, &mut p, &fm, &fm, 2, budget, &mut NoopSink)
            .unwrap();
        assert!(report.delta.is_empty());
        assert_eq!(report.moved, 0);
        assert_eq!(report.region_cores, 0);
        assert!(report.fd_stats.is_none());
        assert_eq!(p, out.placement);
    }

    #[test]
    fn repair_incremental_emits_a_repair_event() {
        use snnmap_trace::MemorySink;
        let pcn = random_pcn(150, 4.0, 3).unwrap();
        let mesh = Mesh::new(16, 16).unwrap();
        let mapper = Mapper::builder().build();
        let out = mapper.map(&pcn, mesh).unwrap();
        let previous = FaultMap::new(mesh);
        let mut current = FaultMap::new(mesh);
        current.kill_core(out.placement.coord_of(0).unwrap()).unwrap();

        let mut p = out.placement.clone();
        let mut sink = MemorySink::new();
        let report = mapper
            .repair_incremental_traced(
                &pcn,
                &mut p,
                &previous,
                &current,
                2,
                RunBudget::default(),
                &mut sink,
            )
            .unwrap();
        let repair_events: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Repair(r) => Some(r.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(repair_events.len(), 1);
        let ev = &repair_events[0];
        assert_eq!(ev.evicted, 1);
        assert_eq!(ev.moved, report.moved);
        assert_eq!(ev.region_cores, report.region_cores);
        let stats = report.fd_stats.unwrap();
        assert_eq!(ev.energy_before.to_bits(), stats.initial_energy.to_bits());
        assert_eq!(ev.energy_after.to_bits(), stats.final_energy.to_bits());
        // The traced repair also carries the region FD telemetry.
        assert!(sink.events().iter().any(|e| e.name() == "fd_done"));
        // Eviction and the region build are one `repair` phase span,
        // emitted before the region FD pass starts.
        let events = sink.events();
        let is_repair_phase =
            |e: &TraceEvent| matches!(e, TraceEvent::Phase(p) if p.name == "repair");
        assert_eq!(events.iter().filter(|e| is_repair_phase(e)).count(), 1);
        let phase = events.iter().position(is_repair_phase).unwrap();
        let fd_config = events.iter().position(|e| e.name() == "fd_config").unwrap();
        assert!(phase < fd_config);
    }

    #[test]
    fn display_summarizes_configuration() {
        let m = Mapper::default();
        let s = m.to_string();
        assert!(s.contains("Hilbert"));
        assert!(s.contains("0.3"));
        let m = Mapper::builder().fd_enabled(false).build();
        assert!(m.to_string().contains("no FD"));
    }
}
