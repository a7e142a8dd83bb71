//! The Force-Directed engine (Algorithm 3).
//!
//! The hot path is organised for million-core meshes:
//!
//! * **SoA coordinate layout** — cluster coordinates live in two dense
//!   `cx`/`cy` arrays of the kernel's scalar type (and the static mesh
//!   coordinate table in split `mesh_x`/`mesh_y` arrays), so the force
//!   and energy loops stream contiguous floats through branch-free
//!   distance kernels (see [`crate::fd::potential`]) instead of
//!   gathering `(x, y)` structs through the position table;
//! * a packed per-cluster *hot record* (`signature + force`) so a swap's
//!   neighbour patch touches one cache line per graph neighbour;
//! * a merged out+in adjacency CSR — each patch/rebuild walks a single
//!   contiguous row, and the mutual-edge correction is a short row scan
//!   instead of two binary searches;
//! * a per-pair **score table** refreshed by stamped-position scans —
//!   each sweep recomputes, in parallel, exactly the pairs whose
//!   endpoint positions a swap touched and copies every other cached
//!   tension forward; there is no serial dirty-list building, sorting or
//!   carried-queue scanning between the parallel phases, which is what
//!   makes the sweep loop scale past one core (Amdahl: the only serial
//!   part left is the order-dependent swap application itself);
//! * `select_nth_unstable`-based top-λ selection instead of sorting the
//!   whole queue every sweep;
//! * the placement itself is untouched during sweeps; the result is
//!   committed once at the end via [`Placement::set_coords`];
//! * every parallel phase runs on [`crate::par`]'s scoped-thread
//!   helpers, merged in deterministic key/block order, with per-sweep
//!   granularity steered by measured-throughput [`par::Tuner`]s — so the
//!   result is bit-identical for every thread count and the thread count
//!   only ever changes wall-clock time.

use std::cmp::Ordering;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snnmap_hw::{Board, Coord, FaultMap, HwError, Mesh, Placement};
use snnmap_model::Pcn;
use snnmap_trace::{
    CheckpointEvent, FdConfigEvent, FdDoneEvent, FdSweepEvent, ObjectiveEvent, ParEvent,
    ResumeEvent, ReweightEvent, TraceEvent, TraceSink,
};

use crate::fd::potential::{with_kernel, PotKernel};
use crate::objective::{Objective, ObjectiveState, ReweightOutcome, SweepReweighter};
use crate::{par, CoreError, Potential};

/// How the tension of a connected adjacent pair is computed.
///
/// A swap of adjacent clusters preserves the distance of any edge
/// *between* them, but each cluster's directed force counts that mutual
/// edge as if the other endpoint stayed put — so summing the two forces
/// (eq. 30 as written) double-counts it. [`TensionMode::Exact`] corrects
/// the sum so tension equals the exact system-energy delta of the swap,
/// preserving the monotone-descent convergence argument (eq. 31).
/// [`TensionMode::PaperNaive`] keeps the uncorrected sum for ablation:
/// it can claim positive tension on swaps that actually increase energy,
/// so a run in this mode without a [`RunBudget::max_sweeps`] is capped
/// at 1,000 sweeps (oscillation is otherwise possible on heavily
/// connected neighbours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TensionMode {
    /// Correct the mutual-edge double count (the default; used for all
    /// headline results).
    #[default]
    Exact,
    /// Algorithm 3's literal `Force + Force` sum, for ablation.
    PaperNaive,
}

/// Tensions at or below this threshold are treated as zero: swaps must
/// strictly reduce the system energy (eq. 31) for the monotone-descent
/// convergence argument to survive floating-point noise.
const TENSION_EPS: f64 = 1e-9;

/// Fixed block size of the system-energy reduction. Partial sums are
/// taken per block and combined in block order, so the total (including
/// its floating-point rounding) never depends on the thread count.
const ENERGY_BLOCK: usize = 4096;

/// Configuration of the Force-Directed algorithm.
///
/// # Examples
///
/// ```
/// use snnmap_core::{FdConfig, Potential};
///
/// let cfg = FdConfig { potential: Potential::L1, ..FdConfig::default() };
/// assert_eq!(cfg.lambda, 0.3); // the paper's practical value (§4.5)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdConfig {
    /// Potential field shape (§4.4.2).
    pub potential: Potential,
    /// Fraction of the sorted queue swapped per iteration (§4.5 fixes
    /// 30% as the practical speed/quality balance).
    pub lambda: f64,
    /// Tension bookkeeping: exact swap delta vs the paper's naive force
    /// sum (ablation).
    pub tension_mode: TensionMode,
    /// Worker threads for the parallel phases. `0` means auto: the
    /// `SNNMAP_THREADS` environment variable if set, otherwise the
    /// machine's available parallelism (see
    /// [`crate::par::resolve_threads`]). The refined placement and the
    /// returned [`FdStats`] are bit-identical for every value.
    pub threads: usize,
    /// What the descent minimizes. The default, [`Objective::Energy`],
    /// adds zero state and zero floating-point work to the tension path
    /// — historical placements and digests are reproduced exactly. With
    /// a congestion/composite objective, [`FdStats`] energies still
    /// report *pure* energy (so runs stay comparable), while the queue
    /// and convergence follow the composite tension.
    pub objective: Objective,
    /// Sim-in-the-loop cadence: every `k` sweeps the engine asks the
    /// [`FdRunOpts::reweighter`] hook (or, absent a hook, its own
    /// congestion map) for router heat and folds it into the congestion
    /// term's weight field, then rescores everything. Requires a
    /// non-energy objective; incompatible with checkpointing/resume
    /// (the weight field is not part of [`FdCheckpoint`]). A reweighting
    /// run without a [`RunBudget::max_sweeps`] is capped at 1,000 sweeps.
    pub reweight_every: Option<u64>,
}

impl Default for FdConfig {
    fn default() -> Self {
        Self {
            potential: Potential::default(),
            lambda: 0.3,
            tension_mode: TensionMode::Exact,
            threads: 0,
            objective: Objective::Energy,
            reweight_every: None,
        }
    }
}

/// Outcome statistics of one Force-Directed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FdStats {
    /// Sweeps of the positive-tension queue performed (cumulative across
    /// resumes).
    pub iterations: u64,
    /// Pair swaps applied (cumulative across resumes).
    pub swaps: u64,
    /// System potential energy of the input placement (eq. 23).
    pub initial_energy: f64,
    /// System potential energy at termination.
    pub final_energy: f64,
    /// `true` if the queue emptied (full convergence); `false` if an
    /// iteration cap, deadline or cancellation fired first.
    pub converged: bool,
    /// Why the run stopped (refines `converged`).
    pub stop: StopReason,
}

/// Why a Force-Directed run returned.
///
/// Every reason is a *successful* anytime outcome: the returned placement
/// is complete, valid, and — by monotone energy descent (eq. 31) — no
/// worse than the input placement, whichever reason fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The positive-tension queue emptied: no swap can lower the energy.
    Converged,
    /// [`RunBudget::deadline`] fired.
    DeadlineExpired,
    /// [`RunBudget::max_sweeps`] fired.
    SweepCapReached,
    /// The [`RunBudget::cancel`] flag was raised.
    Cancelled,
}

impl StopReason {
    /// Stable lower-snake-case label (used in traces, CLI output, and
    /// the serve daemon's job-status JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::DeadlineExpired => "deadline_expired",
            StopReason::SweepCapReached => "sweep_cap_reached",
            StopReason::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cooperative stop conditions, checked at sweep boundaries: the only
/// way a Force-Directed run stops before convergence.
///
/// All three limits compose (first to fire wins) and all make FD an
/// *anytime* algorithm: hitting a limit is not an error, the run returns
/// its best-so-far placement tagged with the [`StopReason`]. Without a
/// sweep cap a run converges (eq. 31 makes that finite), except in
/// [`TensionMode::PaperNaive`] or with [`FdConfig::reweight_every`],
/// where it stops after 1,000 sweeps.
///
/// The deadline clock starts when the run (or resumed run) enters the
/// engine; it is per-invocation, not cumulative across resumes.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock limit for this invocation.
    pub deadline: Option<Duration>,
    /// Cap on *total* sweeps — a resumed run counts the checkpoint's
    /// sweeps toward it, so the cap means the same thing whether or not
    /// the run was interrupted.
    pub max_sweeps: Option<u64>,
    /// Cooperative cancellation: raise the flag from another thread and
    /// the run stops at the next sweep boundary.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// A consistent snapshot of a Force-Directed run at a sweep boundary.
///
/// Carries everything a bit-exact resume needs. The force table is not
/// part of it: the engine rounds its weights once onto a dyadic grid on
/// which every force sum is exact, so the incrementally patched forces
/// equal a from-scratch rebuild at the snapshot's coordinates bit for
/// bit, and a resume simply rebuilds them.
#[derive(Debug, Clone, PartialEq)]
pub struct FdCheckpoint {
    /// The mesh the run targets.
    pub mesh: Mesh,
    /// Coordinate of every cluster at the snapshot.
    pub coords: Vec<Coord>,
    /// Sweeps completed.
    pub sweeps: u64,
    /// Swaps applied.
    pub swaps: u64,
    /// System energy of the *original* input placement.
    pub initial_energy: f64,
    /// System energy at the snapshot.
    pub energy: f64,
}

/// A caller-supplied checkpoint writer ([`FdRunOpts::on_checkpoint`]):
/// receives each flushed snapshot; an `Err` aborts the run.
pub type CheckpointWriter<'h> = dyn FnMut(&FdCheckpoint) -> Result<(), String> + 'h;

/// Per-run options of [`force_directed`]: budget, resume state,
/// checkpoint cadence, an optional region restriction and the
/// sim-in-the-loop hook.
#[derive(Default)]
pub struct FdRunOpts<'h> {
    /// Cooperative stop conditions (default: run to convergence).
    pub budget: RunBudget,
    /// Resume from a checkpoint instead of starting fresh: the run
    /// restores the checkpoint's coordinates into the placement (which
    /// must be over the checkpoint's mesh and cluster count) and seeds
    /// its counters and initial energy from it.
    pub resume: Option<FdCheckpoint>,
    /// Flush a checkpoint every N completed sweeps (in addition to the
    /// flush on every budgeted stop). Must be positive; ignored without
    /// [`FdRunOpts::on_checkpoint`].
    pub checkpoint_every: Option<u64>,
    /// Checkpoint writer. Called at each flush point; an `Err` aborts the
    /// run with [`CoreError::CheckpointFailed`]. After a worker panic the
    /// writer is invoked best-effort before the error returns.
    pub on_checkpoint: Option<&'h mut CheckpointWriter<'h>>,
    /// Restrict swaps to a region: `region[p]` says mesh index `p` may
    /// take part. Pairs with an endpoint outside carry zero tension, so
    /// everything outside the region stays exactly where it is (used by
    /// incremental fault repair). Length must equal the mesh size.
    pub region: Option<Vec<bool>>,
    /// Sim-in-the-loop heat source, consulted every
    /// [`FdConfig::reweight_every`] sweeps. `None` with a reweight
    /// cadence set falls back to the engine's own incremental congestion
    /// map (`source: "self"`). The hook runs serially at the sweep
    /// boundary, so a deterministic implementation (e.g. a seeded
    /// `NocSim`) keeps the run byte-identical across thread counts.
    pub reweighter: Option<&'h mut dyn SweepReweighter>,
}

impl fmt::Debug for FdRunOpts<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FdRunOpts")
            .field("budget", &self.budget)
            .field("resume", &self.resume.as_ref().map(|r| r.sweeps))
            .field("checkpoint_every", &self.checkpoint_every)
            .field("on_checkpoint", &self.on_checkpoint.is_some())
            .field("region", &self.region.as_ref().map(Vec::len))
            .field("reweighter", &self.reweighter.is_some())
            .finish()
    }
}

/// Direction encoding shared with the paper: `UP = 0, DOWN = 1,
/// LEFT = 2, RIGHT = 3`.
const DOWN: usize = 1;
const RIGHT: usize = 3;

/// The unit step `(dx, dy)` of each direction, as the distance kernel's
/// `f64` scalars: a mesh neighbour in direction `d` is exactly an
/// `OFFSETS[d]` shift.
const OFFSETS: [(f64, f64); 4] = [(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)];

/// Occupant-table sentinel for an empty core.
const EMPTY: u32 = u32::MAX;

#[inline]
fn opposite(d: usize) -> usize {
    match d {
        0 => 1,
        1 => 0,
        2 => 3,
        _ => 2,
    }
}

/// Queue order: highest tension first; key as deterministic tie-breaker.
/// `total_cmp` keeps the order well-defined even if a weight ever
/// produces a NaN, and — because keys are unique — makes the order a
/// strict total order, so partial (top-λ) selection yields exactly the
/// prefix a full sort would.
#[inline]
fn cmp_entries(a: &(f64, u64), b: &(f64, u64)) -> Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Sorts the exact top-`take` of the queue (by [`cmp_entries`]) into
/// `queue[..take]`, leaving the tail in an unspecified — but
/// deterministic, thread-count independent — order.
///
/// Large queues skip `select_nth_unstable`'s full pivoting passes: a
/// strided sample estimates the cutoff tension, one streaming pass
/// partitions everything at-or-above that threshold to the front, and
/// only that slice is sorted. The threshold rank is biased deep by ~2σ
/// of the sample-quantile error, so the partition almost always captures
/// the true top-`take`; when the estimate still undershoots (`m < take`)
/// it falls back to the exact selector, so the result is exact either
/// way. Because [`cmp_entries`] is a strict total order, "the top-`take`
/// set" is unique — the sorted prefix is byte-for-byte the one a full
/// sort would produce, and downstream sweep logic (which consumes the
/// prefix, and the tail only as a set) cannot observe the change.
fn select_top(queue: &mut [(f64, u64)], take: usize) {
    const SAMPLE: usize = 256;
    let len = queue.len();
    if take < len && len >= 4 * SAMPLE {
        let stride = len / SAMPLE;
        let mut sample: Vec<(f64, u64)> = (0..SAMPLE).map(|i| queue[i * stride]).collect();
        sample.sort_unstable_by(cmp_entries);
        // Bernoulli quantile error at s = 256 is σ ≤ 1/32 of the queue;
        // overshooting the rank by 2σ (= s/16) makes undershoot rare
        // while keeping the expected over-collection ≲ 6% of the queue.
        let frac = take as f64 / len as f64;
        let rank = ((frac * SAMPLE as f64).ceil() as usize + SAMPLE / 16).min(SAMPLE - 1);
        let pivot = sample[rank];
        let mut m = 0;
        for i in 0..len {
            if cmp_entries(&queue[i], &pivot) != Ordering::Greater {
                queue.swap(m, i);
                m += 1;
            }
        }
        if m >= take {
            queue[..m].sort_unstable_by(cmp_entries);
            return;
        }
    }
    if take < len {
        queue.select_nth_unstable_by(take - 1, cmp_entries);
    }
    queue[..take].sort_unstable_by(cmp_entries);
}

/// Builds a checkpoint and hands it to the caller's writer (a no-op
/// without one), emitting a `checkpoint` trace event on success.
fn flush_checkpoint<S: TraceSink + ?Sized>(
    engine: &Engine<'_>,
    on_checkpoint: &mut Option<&mut CheckpointWriter<'_>>,
    sweeps: u64,
    swaps: u64,
    initial_energy: f64,
    energy: f64,
    sink: &mut S,
) -> Result<(), CoreError> {
    let Some(cb) = on_checkpoint.as_mut() else { return Ok(()) };
    let cp = engine.checkpoint(sweeps, swaps, initial_energy, energy);
    cb(&cp).map_err(|message| CoreError::CheckpointFailed { message })?;
    if sink.enabled() {
        sink.record(&TraceEvent::Checkpoint(CheckpointEvent { sweep: sweeps, swaps, energy }));
    }
    Ok(())
}

/// Turns a worker panic into [`CoreError::WorkerPanicked`], first
/// flushing a best-effort checkpoint of the engine's last consistent
/// state. The energy recompute runs serially on purpose — the recovery
/// path must not re-enter the parallel helpers that just failed.
fn worker_panicked<S: TraceSink + ?Sized>(
    engine: &Engine<'_>,
    on_checkpoint: &mut Option<&mut CheckpointWriter<'_>>,
    sweeps: u64,
    swaps: u64,
    initial_energy: f64,
    panic: par::WorkerPanic,
    sink: &mut S,
) -> CoreError {
    let energy = engine.system_energy_serial();
    let _ = flush_checkpoint(engine, on_checkpoint, sweeps, swaps, initial_energy, energy, sink);
    CoreError::WorkerPanicked { message: panic.message().to_owned() }
}

/// Fills the score table from scratch: every scannable key gets its
/// current tension (the whole table, or — region-restricted — only the
/// precomputed key list, everything else staying frozen at 0.0).
fn init_scores(
    engine: &Engine<'_>,
    threads: usize,
    tuner: &mut par::Tuner,
    score: &mut [f64],
    scan_keys: &Option<Vec<u64>>,
) -> Result<(), par::WorkerPanic> {
    with_kernel!(engine.potential, k => match scan_keys {
        None => par::try_par_update_tuned(threads, tuner, score, |key, s| {
            *s = engine.scored_tension(k, key as u64);
        }),
        Some(keys) => {
            let vals = par::try_par_flat_map_tuned(threads, tuner, keys.len(), |i, out| {
                out.push(engine.scored_tension(k, keys[i]));
            })?;
            for (&key, t) in keys.iter().zip(vals) {
                score[key as usize] = t;
            }
            Ok(())
        }
    })
}

/// Refreshes the score table after a sweep's swaps: keys with a stamped
/// endpoint position are re-scored in parallel, every other slot keeps
/// its cached tension. The swap loop stamped exactly the positions whose
/// occupancy or forces changed, so unstamped cached scores are still
/// exact — and because staleness is a *position* property, pairs around
/// a vacated core are caught even when no cluster sits there anymore.
fn rescore(
    engine: &Engine<'_>,
    threads: usize,
    tuner: &mut par::Tuner,
    score: &mut [f64],
    scan_keys: &Option<Vec<u64>>,
    pos_stamp: &[u32],
    epoch: u32,
) -> Result<(), par::WorkerPanic> {
    with_kernel!(engine.potential, k => match scan_keys {
        None => par::try_par_update_tuned(threads, tuner, score, |key, s| {
            if engine.key_stale(key as u64, pos_stamp, epoch) {
                *s = engine.scored_tension(k, key as u64);
            }
        }),
        Some(keys) => {
            let upd = par::try_par_flat_map_tuned(threads, tuner, keys.len(), |i, out| {
                let key = keys[i];
                if engine.key_stale(key, pos_stamp, epoch) {
                    out.push((key, engine.scored_tension(k, key)));
                }
            })?;
            for (key, t) in upd {
                score[key as usize] = t;
            }
            Ok(())
        }
    })
}

/// Collects the positive entries of the score table into a queue in
/// ascending key order — a deterministic, thread-count-independent
/// layout, whatever the sweep history was.
fn collect_queue(
    threads: usize,
    tuner: &mut par::Tuner,
    score: &[f64],
    scan_keys: &Option<Vec<u64>>,
) -> Result<Vec<(f64, u64)>, par::WorkerPanic> {
    match scan_keys {
        None => par::try_par_flat_map_tuned(threads, tuner, score.len(), |key, out| {
            let s = score[key];
            if s > TENSION_EPS {
                out.push((s, key as u64));
            }
        }),
        Some(keys) => par::try_par_flat_map_tuned(threads, tuner, keys.len(), |i, out| {
            let key = keys[i];
            let s = score[key as usize];
            if s > TENSION_EPS {
                out.push((s, key));
            }
        }),
    }
}

/// Runs the Force-Directed algorithm (Algorithm 3) on a complete
/// placement, refining it in place.
///
/// Clusters are particles; each connection pulls its endpoints together
/// with a strength given by the potential field and the connection's
/// traffic weight. Adjacent core pairs whose occupants would lower the
/// system energy when exchanged carry *positive tension*; every
/// iteration swaps the top-λ fraction of the positive-tension queue
/// (re-checking each pair just before its swap, §4.5 design choice 1),
/// then re-scores tensions only around affected clusters (design
/// choice 3). Iteration continues until no positive tension remains.
///
/// Pairs with one empty core are supported (the swap is a move), which
/// handles the paper's non-full systems.
///
/// The optional hardware arguments restrict which swaps are legal; a
/// restricted pair carries zero tension, so the monotone energy-descent
/// guarantee (eq. 31) holds on the legal subgraph:
///
/// * `faults` — swaps into or out of dead cores are never considered:
///   dead cores start empty and stay empty.
/// * `board` (over the placement's mesh) — a swap that would land a
///   cluster on a core whose [`snnmap_hw::CoreConstraints`] cannot admit
///   it is rejected, so every intermediate placement stays
///   capacity-feasible, bit-identically for every thread count.
///
/// `opts` carries the cooperative [`RunBudget`] (the run's only stop
/// conditions), checkpoint/resume, a region restriction and the
/// sim-in-the-loop hook (`FdRunOpts::default()` runs to convergence).
/// Whatever stops the run —
/// convergence, deadline, sweep cap or cancellation — the placement left
/// in `placement` is complete, valid and no worse (in system energy) than
/// the input: budget expiry is an anytime outcome tagged in
/// [`FdStats::stop`], never an error.
///
/// `sink` receives an `fd_config` header, one `fd_sweep` convergence
/// record per sweep (queue size, λ cutoff, swaps applied, dirty/carried
/// pair counts, post-sweep system energy), an `fd_done` summary and a
/// `par` record of this run's parallel-helper use. Every probe is guarded
/// by [`TraceSink::enabled`], which [`NoopSink`](snnmap_trace::NoopSink)
/// monomorphizes away, so the placement and [`FdStats`] are
/// bit-identical with and without tracing by construction.
///
/// # Errors
///
/// [`CoreError::IncompletePlacement`] if any cluster is unplaced;
/// [`HwError::FaultyCore`] (wrapped in [`CoreError::Hw`]) if the input
/// placement already occupies a dead core; [`CoreError::InvalidLambda`]
/// for λ outside `(0, 1]`; [`CoreError::InvalidRunOpts`] for inconsistent
/// options (zero `checkpoint_every`, a wrong region length, a board or a
/// resume checkpoint over another mesh, a checkpoint of another cluster
/// count); [`CoreError::Hw`] when a resume checkpoint's coordinates
/// collide or leave its mesh; [`CoreError::CheckpointFailed`]
/// when the checkpoint writer fails; and [`CoreError::WorkerPanicked`]
/// when a parallel worker panics (the checkpoint writer is invoked
/// best-effort first; the placement is left untouched).
///
/// # Examples
///
/// ```
/// use snnmap_core::{force_directed, random_placement, FdConfig, FdRunOpts, RunBudget};
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
/// use snnmap_trace::NoopSink;
///
/// let pcn = random_pcn(64, 4.0, 2)?;
/// let mut placement = random_placement(&pcn, Mesh::new(8, 8)?, 0, None)?;
/// let cfg = FdConfig::default();
/// // `FdRunOpts::default()` runs to convergence; this run stops after 3 sweeps.
/// let budget = RunBudget { max_sweeps: Some(3), ..RunBudget::default() };
/// let mut opts = FdRunOpts { budget, ..FdRunOpts::default() };
/// let stats = force_directed(&pcn, &mut placement, &cfg, None, None, &mut opts, &mut NoopSink)?;
/// assert!(stats.iterations <= 3);
/// assert!(stats.final_energy <= stats.initial_energy);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn force_directed<S: TraceSink + ?Sized>(
    pcn: &Pcn,
    placement: &mut Placement,
    config: &FdConfig,
    faults: Option<&FaultMap>,
    board: Option<&Board>,
    opts: &mut FdRunOpts<'_>,
    sink: &mut S,
) -> Result<FdStats, CoreError> {
    if !(config.lambda > 0.0 && config.lambda <= 1.0) {
        return Err(CoreError::InvalidLambda { lambda: config.lambda });
    }
    if opts.checkpoint_every == Some(0) {
        return Err(CoreError::InvalidRunOpts {
            message: "checkpoint_every must be positive".to_owned(),
        });
    }
    config.objective.validate()?;
    if config.reweight_every == Some(0) {
        return Err(CoreError::InvalidRunOpts {
            message: "reweight_every must be positive".to_owned(),
        });
    }
    if config.reweight_every.is_some() {
        if config.objective.is_energy() {
            return Err(CoreError::InvalidRunOpts {
                message: "sim-in-the-loop reweighting requires a congestion or composite \
                          objective"
                    .to_owned(),
            });
        }
        // The heat-derived weight field is not part of FdCheckpoint, so a
        // resumed run could not reproduce the interrupted one.
        if opts.resume.is_some() || opts.on_checkpoint.is_some() {
            return Err(CoreError::InvalidRunOpts {
                message: "sim-in-the-loop reweighting is incompatible with checkpoint/resume"
                    .to_owned(),
            });
        }
    }
    let FdRunOpts { budget, resume, checkpoint_every, on_checkpoint, region, reweighter } = opts;
    if let Some(cp) = resume.as_ref() {
        if cp.mesh != placement.mesh() || cp.coords.len() != placement.len() as usize {
            return Err(CoreError::InvalidRunOpts {
                message: format!(
                    "checkpoint covers {} clusters on {} but the placement has {} on {}",
                    cp.coords.len(),
                    cp.mesh,
                    placement.len(),
                    placement.mesh()
                ),
            });
        }
        placement.set_coords(&cp.coords)?;
    }
    let threads = par::resolve_threads(config.threads);
    let mut engine = Engine::new(
        pcn,
        placement,
        config.potential,
        config.tension_mode,
        config.objective,
        faults,
        board,
        threads,
    )?;
    engine.set_region(region.as_deref())?;
    let start = Instant::now();

    // A resume seeds the counters (the engine has already rebuilt the
    // forces from the restored coordinates, see [`FdCheckpoint`]); a
    // fresh run computes the initial energy from scratch.
    let mut iterations = 0u64;
    let mut swaps = 0u64;
    let initial_energy = match resume.as_ref() {
        Some(r) => {
            iterations = r.sweeps;
            swaps = r.swaps;
            r.initial_energy
        }
        None => match engine.try_system_energy() {
            Ok(e) => e,
            Err(p) => {
                // No progress yet: the flushed snapshot *is* the input.
                let e = engine.system_energy_serial();
                let _ = flush_checkpoint(&engine, on_checkpoint, 0, 0, e, e, sink);
                return Err(CoreError::WorkerPanicked { message: p.message().to_owned() });
            }
        },
    };
    // Naive tension can oscillate (it may accept energy-increasing
    // swaps), so cap its sweeps unless the caller already did. A
    // reweighting run is capped for the same reason: each reweight
    // changes the potential landscape, so the monotone-descent finiteness
    // argument only holds between reweights.
    let uncapped_may_cycle =
        config.tension_mode == TensionMode::PaperNaive || config.reweight_every.is_some();
    let max_sweeps = budget.max_sweeps.or(uncapped_may_cycle.then_some(1_000));
    // The `par` record reports this run's own helper calls: the run's
    // parallel phases are all invoked from this thread, so the
    // thread-local counters exclude concurrent runs in the same process.
    let par_before = sink.enabled().then(par::thread_counters);
    if sink.enabled() {
        sink.record(&TraceEvent::FdConfig(FdConfigEvent {
            potential: format!("{:?}", config.potential),
            tension: format!("{:?}", config.tension_mode),
            objective: config.objective.label().to_owned(),
            lambda: config.lambda,
            max_iterations: max_sweeps,
            time_budget_ms: budget
                .deadline
                .map(|b| u64::try_from(b.as_millis()).unwrap_or(u64::MAX)),
            threads,
            masked: faults.is_some(),
        }));
        if let Some(r) = resume.as_ref() {
            sink.record(&TraceEvent::Resume(ResumeEvent {
                sweep: r.sweeps,
                swaps: r.swaps,
                initial_energy: r.initial_energy,
            }));
        }
    }

    // Pair tensions live in a dense by-key *score table* (two keys —
    // DOWN and RIGHT — per mesh position; invalid and frozen pairs stay
    // at 0.0), refreshed each sweep by parallel stamped-position scans:
    // stale slots are re-scored, everything else copies its cached
    // tension forward. The positive-tension queue is then collected from
    // the table in ascending key order, so the queue layout — and
    // therefore the whole run — is independent of the thread count. The
    // queue is deliberately *not* kept sorted: each sweep selects its
    // top-λ prefix with select_top — a sampled-threshold streaming pass
    // whose result is exactly the prefix a full sort would yield
    // (cmp_entries is a strict total order). On resume the full initial
    // scan reproduces the uninterrupted run's queue (tension is a pure
    // function of occupancy and the rebuilt forces).
    //
    // Region-restricted runs (incremental fault repair, multilevel
    // halos) precompute the key list with both endpoints inside the
    // region once and scan only that list each sweep, so a small repair
    // on a huge mesh never pays mesh-sized scans.
    let mesh_len = engine.mesh.len();
    let nkeys = 2 * mesh_len;
    let scan_keys: Option<Vec<u64>> = engine.region_keys();
    let mut score = vec![0.0f64; nkeys];
    // One granularity tuner per parallel phase family: tension scoring
    // (expensive per item) and queue collection (a filtered copy, cheap
    // per item) have very different items/µs rates, so each learns its
    // own serial/parallel cutoff.
    let mut tune_score = par::Tuner::new();
    let mut tune_collect = par::Tuner::new();

    init_scores(&engine, threads, &mut tune_score, &mut score, &scan_keys).map_err(|p| {
        worker_panicked(&engine, on_checkpoint, iterations, swaps, initial_energy, p, sink)
    })?;
    let mut queue: Vec<(f64, u64)> =
        collect_queue(threads, &mut tune_collect, &score, &scan_keys).map_err(|p| {
            worker_panicked(&engine, on_checkpoint, iterations, swaps, initial_energy, p, sink)
        })?;

    // Per-sweep scratch, allocated once and reused. Epoch stamps replace
    // clear-and-refill passes: a position is "touched this sweep" iff
    // its stamp equals the current epoch.
    let mut pos_stamp = vec![0u32; mesh_len];
    let mut epoch = 0u32;

    // Stop conditions are checked once per sweep boundary: sweeps are the
    // engine's unit of consistency (monotone descent holds at every
    // boundary), so stopping here always leaves a valid best-so-far
    // placement. Caps compare against the *total* sweep count, so they
    // mean the same thing for fresh and resumed runs; both clocks measure
    // this invocation only.
    let mut stop = StopReason::Converged;
    while !queue.is_empty() {
        if max_sweeps.is_some_and(|cap| iterations >= cap) {
            stop = StopReason::SweepCapReached;
            break;
        }
        if budget.cancel.as_ref().is_some_and(|c| c.load(Relaxed)) {
            stop = StopReason::Cancelled;
            break;
        }
        if let Some(limit) = budget.deadline {
            if start.elapsed() >= limit {
                stop = StopReason::DeadlineExpired;
                break;
            }
        }
        iterations += 1;
        let sweep_t0 = sink.enabled().then(Instant::now);
        let queue_len = queue.len();
        let swaps_before = swaps;
        if epoch == u32::MAX {
            // One epoch per sweep, so this fires only after 2^32 - 1
            // sweeps — but reset anyway so a stale stamp can never alias
            // the current epoch across the wrap.
            pos_stamp.fill(0);
            epoch = 0;
        }
        epoch += 1;

        let take = ((config.lambda * queue.len() as f64).ceil() as usize).clamp(1, queue.len());
        select_top(&mut queue, take);
        let t_select = sink.enabled().then(Instant::now);

        swaps += with_kernel!(engine.potential, k => {
            engine.apply_swaps(k, &queue[..take], epoch, &mut pos_stamp)
        });
        let t_swap = sink.enabled().then(Instant::now);

        // Refresh the score table and re-collect the queue, both in
        // parallel: a cached tension is stale iff an endpoint position
        // was stamped by a swap this sweep (its force or occupancy
        // changed — including a position merely *vacated* by a move,
        // whose surrounding pairs the old affected-cluster walk missed).
        // A panic here (or in any probe below) is caught after the
        // sweep's swaps are fully committed, so the engine is at a
        // consistent boundary and the flushed checkpoint is resumable.
        rescore(&engine, threads, &mut tune_score, &mut score, &scan_keys, &pos_stamp, epoch)
            .map_err(|p| {
                worker_panicked(&engine, on_checkpoint, iterations, swaps, initial_energy, p, sink)
            })?;
        queue = collect_queue(threads, &mut tune_collect, &score, &scan_keys).map_err(|p| {
            worker_panicked(&engine, on_checkpoint, iterations, swaps, initial_energy, p, sink)
        })?;
        let t_rescore = sink.enabled().then(Instant::now);

        if sink.enabled() {
            // Convergence telemetry (dirty = re-scored pairs, carried =
            // queue entries kept from cache) is recounted here by a
            // serial pass over the scan domain, and the energy recompute
            // is a full parallel reduction — both run only under an
            // enabled sink, so the untraced hot loop pays nothing.
            let mut dirty = 0u64;
            let mut fresh = 0u64;
            let mut count = |key: u64| {
                if engine.key_stale(key, &pos_stamp, epoch) {
                    dirty += 1;
                    if score[key as usize] > TENSION_EPS {
                        fresh += 1;
                    }
                }
            };
            match &scan_keys {
                None => (0..nkeys as u64).for_each(&mut count),
                Some(keys) => keys.iter().copied().for_each(&mut count),
            }
            let energy = engine.try_system_energy().map_err(|p| {
                worker_panicked(&engine, on_checkpoint, iterations, swaps, initial_energy, p, sink)
            })?;
            let ns = |a: Instant, b: Instant| u64::try_from((b - a).as_nanos()).unwrap_or(u64::MAX);
            let (select_ns, swap_ns, rescore_ns) = match (sweep_t0, t_select, t_swap, t_rescore) {
                (Some(a), Some(b), Some(c), Some(d)) => (ns(a, b), ns(b, c), ns(c, d)),
                _ => (0, 0, 0),
            };
            sink.record(&TraceEvent::FdSweep(FdSweepEvent {
                sweep: iterations,
                queue: queue_len as u64,
                cutoff: take as u64,
                applied: swaps - swaps_before,
                dirty,
                carried: (queue.len() as u64).saturating_sub(fresh),
                energy,
                wall_ns: sweep_t0
                    .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
                    .unwrap_or(0),
                select_ns,
                swap_ns,
                rescore_ns,
            }));
            // Per-term composite breakdown (satellite of the objective
            // subsystem): absent on the pure-energy path, where the
            // sweep event already tells the whole story.
            if let Some((cong, lat)) = engine.objective_terms() {
                sink.record(&TraceEvent::Objective(ObjectiveEvent {
                    sweep: iterations,
                    energy,
                    congestion: cong,
                    latency: lat,
                    composite: engine.energy_weight() * energy + cong + lat,
                }));
            }
        }

        if checkpoint_every.is_some_and(|n| iterations % n == 0) && on_checkpoint.is_some() {
            // Checkpoint sweeps pay one extra energy reduction; that is
            // the whole cost of the cadence.
            let energy = engine.try_system_energy().map_err(|p| {
                worker_panicked(&engine, on_checkpoint, iterations, swaps, initial_energy, p, sink)
            })?;
            flush_checkpoint(
                &engine,
                on_checkpoint,
                iterations,
                swaps,
                initial_energy,
                energy,
                sink,
            )?;
        }

        // Sim-in-the-loop boundary: every `reweight_every` sweeps, ask
        // the installed hook (or, hookless, the engine's own congestion
        // map) for router heat and fold it into the objective's cost
        // field. Runs serially between sweeps, so determinism only needs
        // the hook itself to be deterministic — thread count never
        // enters. Skipped once the queue drains: convergence is declared
        // against the field that produced the final sweep.
        if config.reweight_every.is_some_and(|n| iterations % n == 0) && !queue.is_empty() {
            let outcome = match reweighter.as_deref_mut() {
                Some(hook) => {
                    let out = hook.reweight(iterations, &engine.cluster_coords(), engine.mesh);
                    if out.heat.len() != engine.rows * engine.cols {
                        return Err(CoreError::InvalidRunOpts {
                            message: format!(
                                "reweighter returned {} router heats for a {}x{} mesh",
                                out.heat.len(),
                                engine.rows,
                                engine.cols
                            ),
                        });
                    }
                    out
                }
                None => ReweightOutcome { heat: engine.self_heat(), source: "self".to_owned() },
            };
            if let Some((max_heat, arg)) = engine.apply_reweight(&outcome.heat) {
                // The cost field changed under every cached tension —
                // rebuild the score table and queue from scratch with the
                // same deterministic parallel passes a cold start uses.
                init_scores(&engine, threads, &mut tune_score, &mut score, &scan_keys).map_err(
                    |p| {
                        worker_panicked(
                            &engine,
                            on_checkpoint,
                            iterations,
                            swaps,
                            initial_energy,
                            p,
                            sink,
                        )
                    },
                )?;
                queue = collect_queue(threads, &mut tune_collect, &score, &scan_keys).map_err(
                    |p| {
                        worker_panicked(
                            &engine,
                            on_checkpoint,
                            iterations,
                            swaps,
                            initial_energy,
                            p,
                            sink,
                        )
                    },
                )?;
                if sink.enabled() {
                    sink.record(&TraceEvent::Reweight(ReweightEvent {
                        sweep: iterations,
                        source: outcome.source,
                        max_heat,
                        hottest_row: (arg / engine.cols) as u64,
                        hottest_col: (arg % engine.cols) as u64,
                    }));
                }
            }
        }
    }

    let final_energy = engine.try_system_energy().map_err(|p| {
        worker_panicked(&engine, on_checkpoint, iterations, swaps, initial_energy, p, sink)
    })?;
    if stop != StopReason::Converged {
        // Every budgeted stop leaves a resume point behind (when a writer
        // is installed), so an expired run can always be continued.
        flush_checkpoint(&engine, on_checkpoint, iterations, swaps, initial_energy, final_energy, sink)?;
    }
    engine.writeback()?;
    let stats = FdStats {
        iterations,
        swaps,
        initial_energy,
        final_energy,
        converged: stop == StopReason::Converged,
        stop,
    };
    if sink.enabled() {
        sink.record(&TraceEvent::FdDone(FdDoneEvent {
            iterations: stats.iterations,
            swaps: stats.swaps,
            initial_energy: stats.initial_energy,
            final_energy: stats.final_energy,
            converged: stats.converged,
            stop: stats.stop.as_str().to_owned(),
        }));
        if let Some(before) = par_before {
            let d = par::thread_counters().since(before);
            sink.record(&TraceEvent::Par(ParEvent {
                scope: "fd".to_owned(),
                calls: d.calls,
                items: d.items,
                parallel_calls: d.parallel_calls,
                workers_spawned: d.workers_spawned,
                busy_ns: d.busy_ns,
            }));
        }
    }
    Ok(stats)
}

/// Per-cluster hot record: everything a neighbour patch needs beyond the
/// SoA coordinate arrays, packed into 40 bytes so one swap's
/// per-neighbour update is one cache-line touch. Coordinates
/// deliberately live *outside* this record (in the dense `cx`/`cy`
/// arrays): the patch loop's coordinate reads then hit two small
/// cache-resident float arrays while only the record writes take the
/// random cluster-indexed cache miss.
#[derive(Clone, Copy)]
struct Hot {
    /// 64-bit Bloom signature of the cluster's graph neighbours
    /// (bit `k % 64` per neighbour `k`). A zero test proves two
    /// clusters unconnected without walking the adjacency row — the
    /// common case for mesh-adjacent pairs — while a set bit falls
    /// back to the exact row scan.
    sig: u64,
    /// The cluster's forces (eq. 27), maintained incrementally across
    /// swaps, in one of two layouts chosen by the kernel:
    ///
    /// * a force kernel keeps `slots[d]`, the energy reduction from
    ///   moving the cluster one step in direction `d`;
    /// * a [`PotKernel::MOMENTS`] kernel (`u_c`) keeps the moments
    ///   `[G_x, G_y, W, 0]` of its merged row: `W = Σ_k w_k` and
    ///   `G = Σ_k w_k·(p_k − p) = S − W·p`, the first moment
    ///   `S = Σ_k w_k·p_k` taken about the cluster's own position `p`
    ///   (the swap partner included). [`Engine::force`] derives
    ///   `force(o) = 2⟨G, o⟩ − W` from them alone.
    ///
    /// Exact: every force term is a grid weight times an integer step,
    /// every moment term a grid weight times a mesh displacement, and no
    /// value or partial sum reaches 2^53 grid units (`|G_x|` is at most
    /// `W·(rows − 1)`; see [`snap_weights`]). So each addition is exact
    /// whatever its order: a patched record equals a fresh
    /// [`Engine::init_hot`] build bit for bit, and a derived `u_c` force
    /// is the same grid value the four-force record held.
    ///
    /// A derived force can be `-0.0` where a summed one is `+0.0` (a
    /// cluster with no edges, stepping up or left: `2·(−0.0) − 0.0`).
    /// That never changes a run: a tension adds the two forces and the
    /// mutual-edge correction, so a signed zero either vanishes against
    /// a nonzero term (bit-identical result) or leaves a zero tension,
    /// which is `≤ TENSION_EPS` and can neither queue a pair nor pass
    /// its recheck.
    slots: [f64; 4],
}

/// Slot of the row weight `W` in a moment record (see [`Hot::slots`]);
/// slots `0` and `1` hold `G_x` and `G_y`, the moments along the axis of
/// directions `UP`/`DOWN` and `LEFT`/`RIGHT` (`axis = d / 2`).
const W_SLOT: usize = 2;

/// Bloom-signature bit of cluster `k` (see [`Hot::sig`]).
#[inline]
fn sig_bit(k: u32) -> u64 {
    1u64 << (k % 64)
}

/// `2^e` as an `f64`, built from its bits (`e` within the normal range).
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e), "2^{e} is not a normal f64");
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Exponent of the lowest set bit of a nonzero finite `f32`: the weight
/// is an odd multiple of `2^e`.
fn lowest_bit_exp(w: f32) -> i32 {
    let bits = w.to_bits() & 0x7fff_ffff;
    let (exp, man) = ((bits >> 23) as i32, bits & 0x7f_ffff);
    if exp == 0 {
        man.trailing_zeros() as i32 - 149
    } else {
        (man | 0x80_0000).trailing_zeros() as i32 + exp - 150
    }
}

/// `⌈log2 x⌉` of a positive normal `f64`, from its bits.
fn ceil_log2(x: f64) -> i32 {
    let bits = x.to_bits();
    ((bits >> 52) & 0x7ff) as i32 - 1023 + i32::from(bits & ((1 << 52) - 1) != 0)
}

/// Rounds every weight of the merged adjacency once onto the finest
/// dyadic grid `2^-k` on which no force, patch or tension can reach
/// `2^53` grid units, and returns `k`.
///
/// Every step difference is an integer of magnitude at most
/// `S = 2(rows + cols) + 1`, so a force is at most `W·S` and a tension
/// or patch at most `4·W·S`, where `W` is the largest merged-row weight
/// sum. With `k = min(k_exact, 52 − ⌈log2(4·W·S)⌉)`, where `k_exact` is
/// the grid every weight already lies on, each such value is an integer
/// number of grid units below `2^53`: every `f64` force sum is then
/// exact, hence associative and independent of the order of its
/// additions. On typical inputs `k = k_exact` and no weight changes.
/// Only bit and integer operations are used, so the build links no
/// libm. An all-zero PCN has nothing to round (`k = 0`).
fn snap_weights(adj: &mut [(u32, f32)], adj_off: &[u32], rows: usize, cols: usize) -> i32 {
    let Some(k_exact) = adj.iter().filter(|e| e.1 != 0.0).map(|e| -lowest_bit_exp(e.1)).max()
    else {
        return 0;
    };
    let mut w_max = 0.0f64;
    for r in adj_off.windows(2) {
        let w: f64 = adj[r[0] as usize..r[1] as usize].iter().map(|e| f64::from(e.1)).sum();
        if w > w_max {
            w_max = w;
        }
    }
    let span = (2 * (rows + cols) + 1) as f64;
    let k = k_exact.min(52 - ceil_log2(4.0 * w_max * span));
    if k < k_exact {
        // Adding `c = 1.5·2^(52−k)` rounds `w` to the nearest multiple of
        // ulp(c) = 2^-k (ties to even); `w < 2^(50−k)`, so the sum stays
        // in c's binade and subtracting `c` is exact. The result keeps
        // at most `w`'s own significant bits, so it is an exact `f32`.
        let c = 1.5 * pow2(52 - k);
        for e in adj.iter_mut() {
            e.1 = ((f64::from(e.1) + c) - c) as f32;
        }
    }
    k
}

/// The mutable state of one FD run: flat occupancy tables plus the
/// per-cluster force records of eq. 27, maintained incrementally. The
/// caller's placement is read at construction and written back once at
/// the end of the run.
struct Engine<'a> {
    pcn: &'a Pcn,
    placement: &'a mut Placement,
    mesh: Mesh,
    rows: usize,
    cols: usize,
    potential: Potential,
    tension_mode: TensionMode,
    /// `2^(53−k)` for the weight grid `2^-k` (see [`snap_weights`]):
    /// every pure-energy tension stays strictly below it, which debug
    /// builds assert.
    tension_limit: f64,
    threads: usize,
    /// SoA mesh coordinate tables, split from the flat `(x, y)` table:
    /// `mesh_x[p]`/`mesh_y[p]` are the row/column of mesh index `p`.
    /// Static for the whole run; bounds checks (`step`, patch validity)
    /// read one `u16` array instead of a two-field struct.
    mesh_x: Vec<u16>,
    mesh_y: Vec<u16>,
    /// SoA per-cluster coordinates as the distance kernel's `f64`
    /// scalars, mirroring `pos` — always exact small integers. The
    /// energy/force kernels stream these two dense arrays, which is what
    /// lets them auto-vectorize and keeps their gathers cache-resident.
    cx: Vec<f64>,
    cy: Vec<f64>,
    /// Merged adjacency CSR: row `c` is `out_edges(c)` followed by
    /// `in_edges(c)`, so force work walks one contiguous row per
    /// cluster. Its weights are the PCN's, rounded once onto the grid of
    /// [`snap_weights`]; the reported energy still reads the PCN's own.
    adj_off: Vec<u32>,
    adj: Vec<(u32, f32)>,
    /// Per-cluster packed hot state (neighbour signature + force).
    hot: Vec<Hot>,
    /// `pos[c]`: mesh index of cluster `c`, maintained across swaps so
    /// lookups never have to unwrap an `Option` on the hot path.
    pos: Vec<u32>,
    /// `occ[p]`: cluster at position `p`, or [`EMPTY`] — mirrors the
    /// placement's grid without the `Option` indirection.
    occ: Vec<u32>,
    /// `dead[p]`: position `p` is a dead core (empty when fault-free).
    dead: Vec<bool>,
    /// `active[p]`: position `p` may take part in swaps (empty when the
    /// whole mesh is active). Pairs with an inactive endpoint carry zero
    /// tension, exactly like dead-core pairs.
    active: Vec<bool>,
    /// `cap_n[p]`/`cap_s[p]`: neuron/synapse capacity of position `p`
    /// when a board is enforced (both empty on boardless runs). A pair
    /// whose swap would overload either endpoint carries zero tension.
    cap_n: Vec<u32>,
    cap_s: Vec<u64>,
    /// `need_n[c]`/`need_s[c]`: cluster `c`'s neuron/synapse demand,
    /// cached flat for the capacity filter (empty on boardless runs).
    need_n: Vec<u32>,
    need_s: Vec<u64>,
    /// Non-energy objective state (λ weights, delta-maintained congestion
    /// map, heat field). `None` for [`Objective::Energy`], keeping the
    /// historical hot path untouched down to the last FP operation.
    obj: Option<ObjectiveState>,
}

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        pcn: &'a Pcn,
        placement: &'a mut Placement,
        potential: Potential,
        tension_mode: TensionMode,
        objective: Objective,
        faults: Option<&FaultMap>,
        board: Option<&Board>,
        threads: usize,
    ) -> Result<Self, CoreError> {
        let mesh = placement.mesh();
        if placement.len() != pcn.num_clusters() {
            return Err(CoreError::ClusterCountMismatch {
                pcn: pcn.num_clusters(),
                placement: placement.len(),
            });
        }
        if let Some(b) = board {
            if b.mesh() != mesh {
                return Err(CoreError::InvalidRunOpts {
                    message: format!(
                        "board covers {} but placement targets {mesh}",
                        b.mesh()
                    ),
                });
            }
        }
        let dead: Vec<bool> = match faults {
            Some(fm) => {
                if fm.mesh() != mesh {
                    return Err(CoreError::Hw(HwError::InvalidFaultSpec {
                        message: format!(
                            "fault map covers {} but placement targets {mesh}",
                            fm.mesh()
                        ),
                    }));
                }
                mesh.iter().map(|c| fm.is_dead(c)).collect()
            }
            None => Vec::new(),
        };
        let (cap_n, cap_s) = match board {
            Some(b) => b.capacity_tables(),
            None => (Vec::new(), Vec::new()),
        };
        let (need_n, need_s): (Vec<u32>, Vec<u64>) = match board {
            Some(_) => (
                (0..placement.len()).map(|c| pcn.neurons_in(c)).collect(),
                (0..placement.len()).map(|c| pcn.synapses_in(c)).collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        let n = placement.len() as usize;
        let mut pos = vec![0u32; n];
        let mut occ = vec![EMPTY; mesh.len()];
        for c in 0..placement.len() {
            let Some(coord) = placement.coord_of(c) else {
                return Err(CoreError::IncompletePlacement {
                    placed: placement.placed_count(),
                    total: placement.len(),
                });
            };
            let p = mesh.index_of(coord);
            if !dead.is_empty() && dead[p] {
                return Err(CoreError::Hw(HwError::FaultyCore { coord }));
            }
            // Descent preserves feasibility, so it must hold at entry.
            if !cap_n.is_empty()
                && (need_n[c as usize] > cap_n[p] || need_s[c as usize] > cap_s[p])
            {
                return Err(CoreError::InvalidRunOpts {
                    message: format!(
                        "cluster {c} at {coord} needs {} neurons and {} synapses \
                         but the core admits only {} and {}",
                        need_n[c as usize], need_s[c as usize], cap_n[p], cap_s[p]
                    ),
                });
            }
            pos[c as usize] = p as u32;
            occ[p] = c;
        }
        let mut adj_off = Vec::with_capacity(n + 1);
        adj_off.push(0u32);
        let mut adj: Vec<(u32, f32)> =
            Vec::with_capacity((2 * pcn.num_connections()) as usize);
        for c in 0..n as u32 {
            adj.extend(pcn.out_edges(c));
            adj.extend(pcn.in_edges(c));
            adj_off.push(u32::try_from(adj.len()).expect("adjacency exceeds u32 offsets"));
        }
        let grid = snap_weights(&mut adj, &adj_off, mesh.rows() as usize, mesh.cols() as usize);
        let coords = mesh.coord_table();
        let mesh_x: Vec<u16> = coords.iter().map(|c| c.x).collect();
        let mesh_y: Vec<u16> = coords.iter().map(|c| c.y).collect();
        let mut cx = vec![0.0; n];
        let mut cy = vec![0.0; n];
        for c in 0..n {
            let p = pos[c] as usize;
            cx[c] = mesh_x[p] as f64;
            cy[c] = mesh_y[p] as f64;
        }
        let obj = if objective.is_energy() {
            None
        } else {
            let cluster_xy: Vec<(u16, u16)> =
                pos.iter().map(|&p| (mesh_x[p as usize], mesh_y[p as usize])).collect();
            // EnergyModel runs the u_a kernel (see `fd::potential`); its
            // slope matters only where the composite adds other terms.
            let energy_slope = match potential {
                Potential::EnergyModel { en_r, en_w } => en_r + en_w,
                _ => 1.0,
            };
            Some(ObjectiveState::new(
                objective,
                energy_slope,
                pcn,
                &cluster_xy,
                mesh.rows(),
                mesh.cols(),
                board.map(|b| (b.chip_rows(), b.chip_cols())),
            ))
        };
        let mut engine = Self {
            pcn,
            placement,
            mesh,
            rows: mesh.rows() as usize,
            cols: mesh.cols() as usize,
            potential,
            tension_mode,
            tension_limit: pow2(53 - grid),
            threads,
            mesh_x,
            mesh_y,
            cx,
            cy,
            adj_off,
            adj,
            hot: Vec::new(),
            pos,
            occ,
            dead,
            active: Vec::new(),
            cap_n,
            cap_s,
            need_n,
            need_s,
            obj,
        };
        // A cluster's force depends only on occupancy, never on other
        // forces, so the initial build is an independent per-index fill.
        // A worker panic here happens before any progress exists, so
        // there is nothing to checkpoint — the typed error is enough.
        let mut hot = vec![Hot { sig: 0, slots: [0.0; 4] }; n];
        {
            let eng = &engine;
            with_kernel!(potential, k => {
                par::try_par_update_tuned(threads, &mut par::Tuner::new(), &mut hot, |c, h| {
                    *h = eng.init_hot(k, c as u32);
                })
            })
            .map_err(|p| CoreError::WorkerPanicked { message: p.message().to_owned() })?;
        }
        engine.hot = hot;
        Ok(engine)
    }

    /// Installs (or clears) the swap-region restriction.
    fn set_region(&mut self, region: Option<&[bool]>) -> Result<(), CoreError> {
        match region {
            None => {
                self.active = Vec::new();
                Ok(())
            }
            Some(r) => {
                if r.len() != self.mesh.len() {
                    return Err(CoreError::InvalidRunOpts {
                        message: format!(
                            "region mask covers {} cores but the mesh has {}",
                            r.len(),
                            self.mesh.len()
                        ),
                    });
                }
                self.active = r.to_vec();
                Ok(())
            }
        }
    }

    /// Snapshots the engine at a sweep boundary.
    fn checkpoint(&self, sweeps: u64, swaps: u64, initial_energy: f64, energy: f64) -> FdCheckpoint {
        FdCheckpoint {
            mesh: self.mesh,
            coords: self.cluster_coords(),
            sweeps,
            swaps,
            initial_energy,
            energy,
        }
    }

    /// Current coordinate of every cluster, rebuilt from the position
    /// table and the (exact integer) mesh coordinate arrays.
    fn cluster_coords(&self) -> Vec<Coord> {
        self.pos
            .iter()
            .map(|&p| Coord::new(self.mesh_x[p as usize], self.mesh_y[p as usize]))
            .collect()
    }

    /// Merged adjacency row of cluster `c`: out-edges then in-edges.
    #[inline]
    fn row(&self, c: u32) -> &[(u32, f32)] {
        let lo = self.adj_off[c as usize] as usize;
        let hi = self.adj_off[c as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    #[inline]
    fn is_dead_pos(&self, p: usize) -> bool {
        !self.dead.is_empty() && self.dead[p]
    }

    /// Neighbour position of `p` in direction `d` (`UP, DOWN, LEFT,
    /// RIGHT`), if inside the mesh.
    #[inline]
    fn step(&self, p: usize, d: usize) -> Option<usize> {
        match d {
            0 => (self.mesh_x[p] > 0).then(|| p - self.cols),
            1 => ((self.mesh_x[p] as usize) + 1 < self.rows).then(|| p + self.cols),
            2 => (self.mesh_y[p] > 0).then(|| p - 1),
            _ => ((self.mesh_y[p] as usize) + 1 < self.cols).then(|| p + 1),
        }
    }

    /// Canonical key of the adjacent pair `(p, step(p, d))`, encoding the
    /// smaller position and its DOWN/RIGHT direction. `None` when the
    /// step leaves the mesh. Production scans inline this encoding
    /// directly; tests keep the named form for convergence probes.
    #[cfg(test)]
    fn pair_key(&self, p: usize, d: usize) -> Option<u64> {
        debug_assert!(d == DOWN || d == RIGHT);
        self.step(p, d)?;
        Some((p as u64) << 1 | u64::from(d == RIGHT))
    }

    #[inline]
    fn decode(&self, key: u64) -> (usize, usize) {
        let p = (key >> 1) as usize;
        let d = if key & 1 == 1 { RIGHT } else { DOWN };
        (p, d)
    }

    /// The key list a region-restricted run scans each sweep: every
    /// valid pair with both endpoints inside the active region, in
    /// ascending key order. `None` when the whole mesh is active (the
    /// scans then run over the full score table directly).
    fn region_keys(&self) -> Option<Vec<u64>> {
        if self.active.is_empty() {
            return None;
        }
        let mut keys = Vec::new();
        for p in 0..self.mesh.len() {
            if !self.active[p] {
                continue;
            }
            for d in [DOWN, RIGHT] {
                if let Some(q) = self.step(p, d) {
                    if self.active[q] {
                        keys.push((p as u64) << 1 | u64::from(d == RIGHT));
                    }
                }
            }
        }
        Some(keys)
    }

    /// Whether `key`'s cached score may have changed this sweep: true
    /// iff an endpoint position carries the current epoch stamp (its
    /// occupancy or its occupant's force changed under a swap).
    #[inline]
    fn key_stale(&self, key: u64, pos_stamp: &[u32], epoch: u32) -> bool {
        let (p, d) = self.decode(key);
        if pos_stamp[p] == epoch {
            return true;
        }
        match self.step(p, d) {
            Some(q) => pos_stamp[q] == epoch,
            None => false,
        }
    }

    /// [`Engine::tension`] as used by score production, with the queue
    /// ordering's precondition asserted: [`cmp_entries`] totals over NaN,
    /// but a NaN score would still poison top-λ selection semantically —
    /// catch it at the source in debug builds (weights are validated at
    /// PCN build time, so this documents and enforces an invariant
    /// rather than handling an expected case).
    #[inline]
    fn scored_tension<K: PotKernel>(&self, kern: K, key: u64) -> f64 {
        let t = self.tension(kern, key);
        debug_assert!(!t.is_nan(), "NaN tension produced for pair key {key}");
        t
    }

    /// One [`ENERGY_BLOCK`]-sized block of the system-energy reduction:
    /// the PCN's own weights times the potential's value (eq. 25 for
    /// [`Potential::EnergyModel`]).
    fn energy_block(&self, range: std::ops::Range<usize>) -> f64 {
        let pot = self.potential;
        let mut es = 0.0;
        for c in range {
            let hx = self.cx[c];
            let hy = self.cy[c];
            for (t, w) in self.pcn.out_edges(c as u32) {
                es += w as f64 * pot.at(hx - self.cx[t as usize], hy - self.cy[t as usize]);
            }
        }
        es
    }

    /// System total potential energy (eq. 23) with panic isolation,
    /// reduced over fixed [`ENERGY_BLOCK`]-cluster blocks so the sum is
    /// identical for any thread count.
    fn try_system_energy(&self) -> Result<f64, par::WorkerPanic> {
        let n = self.pcn.num_clusters() as usize;
        par::try_par_block_sum(self.threads, n, ENERGY_BLOCK, |range| self.energy_block(range))
    }

    /// [`Engine::try_system_energy`] forced onto the serial path
    /// (identical bits — the block boundaries don't change) for recovery
    /// code that must not re-enter the parallel helpers.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from the energy kernel: the serial path runs on
    /// the calling thread, so there is no worker to isolate.
    fn system_energy_serial(&self) -> f64 {
        let n = self.pcn.num_clusters() as usize;
        par::try_par_block_sum(1, n, ENERGY_BLOCK, |range| self.energy_block(range))
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// Initial hot record of cluster `c`: its neighbour signature plus
    /// the four directed forces of eq. 27, or for a moment kernel the
    /// row moments `[G_x, G_y, W, 0]` (see [`Hot::slots`]). Pure in
    /// everything except `hot` itself, so initial builds can run one
    /// cluster per worker.
    ///
    /// The merged row is walked once with the four directions in the
    /// inner loop (each direction's slot still accumulates its terms in
    /// edge order, so the sums are bit-for-bit those of the
    /// direction-outer form). Each term is the kernel's step difference
    /// `u(d) − u(d − o)` at the neighbour's displacement `d`; neighbour
    /// coordinates come straight from the cluster-indexed SoA arrays.
    fn init_hot<K: PotKernel>(&self, kern: K, c: u32) -> Hot {
        let mut f = [0.0f64; 4];
        let mut sig = 0u64;
        let hx = self.cx[c as usize];
        let hy = self.cy[c as usize];
        if K::MOMENTS {
            for &(k, w) in self.row(c) {
                sig |= sig_bit(k);
                let w = w as f64;
                f[0] += w * (self.cx[k as usize] - hx);
                f[1] += w * (self.cy[k as usize] - hy);
                f[W_SLOT] += w;
            }
            return Hot { sig, slots: f };
        }
        let p = self.pos[c as usize] as usize;
        let valid: [bool; 4] = std::array::from_fn(|d| self.step(p, d).is_some());
        for &(k, w) in self.row(c) {
            sig |= sig_bit(k);
            let dx = self.cx[k as usize] - hx;
            let dy = self.cy[k as usize] - hy;
            for (d, &(ox, oy)) in OFFSETS.iter().enumerate() {
                if valid[d] {
                    f[d] += w as f64 * kern.step_diff(dx, dy, ox, oy);
                }
            }
        }
        Hot { sig, slots: f }
    }

    /// Force of cluster `c` in the in-mesh direction `d` (eq. 27): the
    /// stored slot for a force kernel, or `2⟨G, o_d⟩ − W` from a moment
    /// record, exact either way (see [`Hot::slots`]).
    #[inline(always)]
    fn force<K: PotKernel>(&self, c: u32, d: usize) -> f64 {
        let s = &self.hot[c as usize].slots;
        if !K::MOMENTS {
            return s[d];
        }
        let g = s[d / 2];
        // DOWN and RIGHT step +1 along their axis, UP and LEFT −1.
        let along = if d % 2 == 1 { g } else { -g };
        2.0 * along - s[W_SLOT]
    }

    /// Total traffic on the (up to two) directed connections between two
    /// clusters, summed in row order — out-edge `a → b` first, then
    /// in-edge `b → a` — exactly the order the two `edge_weight`
    /// lookups this replaces added them in.
    #[inline]
    fn mutual_weight(&self, a: u32, b: u32) -> f64 {
        let mut m = 0.0f64;
        for &(k, w) in self.row(a) {
            if k == b {
                m += w as f64;
            }
        }
        m
    }

    /// Whether the adjacent pair `(p, q)` may not swap: it carries zero
    /// tension whatever the forces say.
    #[inline]
    fn frozen(&self, p: usize, q: usize) -> bool {
        // A pair touching a dead core carries no tension: dead cores stay
        // empty, and forbidding these swaps keeps descent monotone over
        // the healthy subgraph.
        if self.is_dead_pos(p) || self.is_dead_pos(q) {
            return true;
        }
        // Same idea for a repair region: pairs with an endpoint outside
        // the active region are frozen, so the rest of the mesh is
        // untouched by construction.
        if !self.active.is_empty() && (!self.active[p] || !self.active[q]) {
            return true;
        }
        // Capacity filter (board runs only): freeze any pair whose swap
        // would land an occupant on a core that cannot admit it. Like the
        // dead/region masks above, this is a pure function of occupancy
        // and static tables, so cached clean-pair tensions stay valid and
        // the run is bit-identical for every thread count.
        if !self.cap_n.is_empty() {
            let (cu, cv) = (self.occ[p], self.occ[q]);
            if cu != EMPTY
                && (self.need_n[cu as usize] > self.cap_n[q]
                    || self.need_s[cu as usize] > self.cap_s[q])
            {
                return true;
            }
            if cv != EMPTY
                && (self.need_n[cv as usize] > self.cap_n[p]
                    || self.need_s[cv as usize] > self.cap_s[p])
            {
                return true;
            }
        }
        false
    }

    /// The tension of an adjacent pair (eq. 30): the exact system-energy
    /// reduction its swap would produce. For a connected pair the naive
    /// sum of the two forces double-counts the mutual edge (whose length
    /// a swap preserves), so that term is corrected out. Each force
    /// counts the mutual weight `w` once at `u(unit) − u(0)`, which is 1
    /// for every force kernel, so the correction is `2·w`.
    #[inline(always)]
    fn tension<K: PotKernel>(&self, _kern: K, key: u64) -> f64 {
        let (p, d) = self.decode(key);
        let Some(q) = self.step(p, d) else { return 0.0 };
        if self.frozen(p, q) {
            return 0.0;
        }
        let cu = self.occ[p];
        let cv = self.occ[q];
        let base = if cu == EMPTY {
            if cv == EMPTY {
                return 0.0;
            }
            self.force::<K>(cv, opposite(d))
        } else if cv == EMPTY {
            self.force::<K>(cu, d)
        } else {
            let naive = self.force::<K>(cu, d) + self.force::<K>(cv, opposite(d));
            match self.tension_mode {
                TensionMode::Exact => {
                    // The signature test proves most mesh-adjacent pairs
                    // unconnected without a row scan; the correction
                    // expression is kept verbatim either way so the f64
                    // result (down to signed zeros) is unchanged.
                    let mutual = if self.hot[cu as usize].sig & sig_bit(cv) == 0 {
                        0.0
                    } else {
                        self.mutual_weight(cu, cv)
                    };
                    naive - 2.0 * mutual
                }
                TensionMode::PaperNaive => naive,
            }
        };
        debug_assert!(
            base.abs() < self.tension_limit,
            "tension {base} of pair key {key} reaches 2^53 grid units"
        );
        // Composite objectives add the exact decrease of the λ-weighted
        // congestion / latency-tail terms. Like `base`, this is a pure
        // function of the pair's and its graph neighbours' positions, so
        // the stamp discipline that keeps cached energy tensions valid
        // covers the composite value too. `None` (pure energy) leaves the
        // expression tree untouched — bit-identical to pre-objective runs.
        match &self.obj {
            None => base,
            Some(st) => {
                st.energy_tension_w * base
                    + st.swap_gain(
                        self.pcn,
                        &self.pos,
                        &self.mesh_x,
                        &self.mesh_y,
                        (self.mesh_x[p], self.mesh_y[p]),
                        (self.mesh_x[q], self.mesh_y[q]),
                        cu,
                        cv,
                    )
            }
        }
    }

    /// Applies a sweep's top-λ prefix in list order (Algorithm 3 lines
    /// 15–27) and returns the number of swaps made. Each pair is
    /// rechecked just before its swap, since earlier swaps this sweep
    /// may have flipped its tension (§4.5 design choice 1). Swaps stamp
    /// every position whose force or occupancy they change, so an
    /// unstamped pair's recheck would return exactly the cached
    /// (positive) score — it is skipped.
    fn apply_swaps<K: PotKernel>(
        &mut self,
        kern: K,
        top: &[(f64, u64)],
        epoch: u32,
        pos_stamp: &mut [u32],
    ) -> u64 {
        let mut applied = 0;
        for &(cached, key) in top {
            let (p, d) = self.decode(key);
            let clean =
                pos_stamp[p] != epoch && self.step(p, d).is_some_and(|q| pos_stamp[q] != epoch);
            let t = if clean { cached } else { self.tension(kern, key) };
            if t <= TENSION_EPS {
                continue;
            }
            self.swap_with(kern, key, epoch, pos_stamp);
            applied += 1;
        }
        applied
    }

    /// Swaps the occupants of a pair and maintains the hot records
    /// (Algorithm 3 lines 20–26): a moment kernel shifts every graph
    /// neighbour's moment along the move axis and rebuilds nothing; a
    /// force kernel rebuilds the two moved clusters fused with O(1)-per-
    /// edge patches at every graph neighbour. Every position whose force
    /// or occupancy changes — the pair's own two included — is stamped
    /// into `pos_stamp`, which is what lets callers trust cached tensions
    /// of unstamped pairs and the rescore scan find every stale one. The
    /// caller's placement is deliberately not touched — see
    /// [`Engine::writeback`].
    fn swap_with<K: PotKernel>(&mut self, kern: K, key: u64, epoch: u32, pos_stamp: &mut [u32]) {
        let (p, d) = self.decode(key);
        let Some(q) = self.step(p, d) else { return };
        let (px, py) = (self.mesh_x[p] as f64, self.mesh_y[p] as f64);
        let (qx, qy) = (self.mesh_x[q] as f64, self.mesh_y[q] as f64);
        let cu = self.occ[p];
        let cv = self.occ[q];
        self.occ[p] = cv;
        self.occ[q] = cu;
        if cu != EMPTY {
            self.pos[cu as usize] = q as u32;
            self.cx[cu as usize] = qx;
            self.cy[cu as usize] = qy;
        }
        if cv != EMPTY {
            self.pos[cv as usize] = p as u32;
            self.cx[cv as usize] = px;
            self.cy[cv as usize] = py;
        }
        pos_stamp[p] = epoch;
        pos_stamp[q] = epoch;

        if K::MOMENTS {
            if cu != EMPTY {
                self.shift_moments(cu, d, epoch, pos_stamp);
            }
            if cv != EMPTY {
                self.shift_moments(cv, opposite(d), epoch, pos_stamp);
            }
        } else {
            // Each moved cluster's edges are walked exactly once: the
            // pass patches its neighbours' forces *and* accumulates the
            // cluster's own rebuilt force at its new position. The cu pass
            // runs first so neighbours shared by both clusters receive
            // their patches in the same order as separate
            // patch-then-rebuild phases would apply them; the rebuilt
            // forces only read coordinates, never forces, so committing
            // each one right after its pass is equivalent to full
            // rebuilds.
            if cu != EMPTY {
                let f = self.patch_and_rebuild(kern, cu, (qx, qy), d, cv, epoch, pos_stamp);
                self.hot[cu as usize].slots = f;
            }
            if cv != EMPTY {
                let f =
                    self.patch_and_rebuild(kern, cv, (px, py), opposite(d), cu, epoch, pos_stamp);
                self.hot[cv as usize].slots = f;
            }
        }

        // Fold the move into the incremental congestion map (integer
        // deltas — exact, order-invariant). Positions are already
        // updated, which is what `apply_swap` documents; take/put-back
        // sidesteps the simultaneous &mut self.obj / &self.pos borrow.
        if self.obj.is_some() {
            let mut st = self.obj.take().expect("checked is_some");
            st.apply_swap(
                self.pcn,
                &self.pos,
                &self.mesh_x,
                &self.mesh_y,
                (self.mesh_x[p], self.mesh_y[p]),
                (self.mesh_x[q], self.mesh_y[q]),
                cu,
                cv,
            );
            self.obj = Some(st);
        }
    }

    /// After `moved` took one step `o` in direction `dir`: adds `w·o`
    /// along the move axis to the moment `G` of every graph neighbour
    /// of `moved`, the swap partner included (one add per row entry),
    /// and stamps the neighbour's position; `moved`'s own `G`, taken
    /// about its own position, loses `W·o`. Reads neither coordinates
    /// nor forces: the forces follow from the moments on demand (see
    /// [`Engine::force`]).
    fn shift_moments(&mut self, moved: u32, dir: usize, epoch: u32, pos_stamp: &mut [u32]) {
        let axis = dir / 2;
        let sign = if dir % 2 == 1 { 1.0 } else { -1.0 };
        let lo = self.adj_off[moved as usize] as usize;
        let hi = self.adj_off[moved as usize + 1] as usize;
        for &(k, w) in &self.adj[lo..hi] {
            self.hot[k as usize].slots[axis] += sign * w as f64;
            pos_stamp[self.pos[k as usize] as usize] = epoch;
        }
        let own = &mut self.hot[moved as usize].slots;
        own[axis] -= sign * own[W_SLOT];
    }

    /// After `moved` took one step in direction `dir` to `to`: adjusts
    /// the force of each of its graph neighbours by the per-edge delta
    /// (skipping `other`, the second moved cluster, whose force is
    /// rebuilt by its own pass) and returns `moved`'s rebuilt force at
    /// its new position — one merged-CSR pass touching one hot record
    /// per neighbour.
    ///
    /// Both the patches and the returned force accumulate their terms in
    /// edge (row) order, each term the kernel's step difference, so the
    /// results are bit-for-bit those of separate patch and rebuild
    /// passes. All coordinate arithmetic runs on `f64` scalars (exact
    /// mesh integers, so every displacement and bounds test below
    /// reproduces the integer forms bit-for-bit).
    #[allow(clippy::too_many_arguments)]
    fn patch_and_rebuild<K: PotKernel>(
        &mut self,
        kern: K,
        moved: u32,
        to: (f64, f64),
        dir: usize,
        other: u32,
        epoch: u32,
        pos_stamp: &mut [u32],
    ) -> [f64; 4] {
        let rows = self.rows as f64;
        let cols = self.cols as f64;
        let in_mesh = |x: f64, y: f64| x >= 0.0 && y >= 0.0 && x < rows && y < cols;
        let (tx, ty) = to;
        let (mx, my) = OFFSETS[dir];
        let (fx, fy) = (tx - mx, ty - my);
        let tvalid: [bool; 4] =
            std::array::from_fn(|d| in_mesh(tx + OFFSETS[d].0, ty + OFFSETS[d].1));
        let mut f = [0.0f64; 4];
        let lo = self.adj_off[moved as usize] as usize;
        let hi = self.adj_off[moved as usize + 1] as usize;
        for e in lo..hi {
            let (k, w) = self.adj[e];
            let w = w as f64;
            let kx = self.cx[k as usize];
            let ky = self.cy[k as usize];
            // `moved`'s own force term of this edge at the new position
            // (every edge contributes, exactly as a full rebuild would).
            let (ndx, ndy) = (kx - tx, ky - ty);
            for (d, &(ox, oy)) in OFFSETS.iter().enumerate() {
                if tvalid[d] {
                    f[d] += w * kern.step_diff(ndx, ndy, ox, oy);
                }
            }
            if k == moved || k == other {
                continue;
            }
            // Force term of edge (k, moved) in direction d changed from
            // the `from` position to the `to` position.
            let hk = &mut self.hot[k as usize];
            let (dx, dy) = (tx - kx, ty - ky);
            let (fdx, fdy) = (fx - kx, fy - ky);
            for (d, &(ox, oy)) in OFFSETS.iter().enumerate() {
                if in_mesh(kx + ox, ky + oy) {
                    hk.slots[d] +=
                        w * (kern.step_diff(dx, dy, ox, oy) - kern.step_diff(fdx, fdy, ox, oy));
                }
            }
            pos_stamp[self.pos[k as usize] as usize] = epoch;
        }
        f
    }

    /// λ-weighted `(congestion, latency-tail)` totals of the current
    /// occupancy, or `None` on the pure-energy path. Serial O(edges) —
    /// only called when tracing is enabled.
    fn objective_terms(&self) -> Option<(f64, f64)> {
        self.obj.as_ref().map(|st| st.totals(self.pcn, &self.pos, &self.mesh_x, &self.mesh_y))
    }

    /// The energy term's weight in the composite (1.0 on the pure-energy
    /// path, where the question never arises but the trace still wants
    /// an answer).
    fn energy_weight(&self) -> f64 {
        self.obj.as_ref().map_or(1.0, |st| st.energy_w)
    }

    /// Router heat from the engine's own delta-maintained congestion map
    /// — the reweight source when no external simulator hook is
    /// installed.
    fn self_heat(&self) -> Vec<u64> {
        self.obj.as_ref().map(|st| st.cong.heat()).unwrap_or_default()
    }

    /// Installs a router heat field on the objective (no-op result on
    /// all-zero heat or the pure-energy path). Returns `(max_heat,
    /// argmax router index)` when the cost field actually changed —
    /// every cached tension is stale after that.
    fn apply_reweight(&mut self, heat: &[u64]) -> Option<(u64, usize)> {
        let (pcn, pos, mesh_x, mesh_y) = (self.pcn, &self.pos, &self.mesh_x, &self.mesh_y);
        self.obj.as_mut().and_then(|st| st.apply_reweight(heat, pcn, pos, mesh_x, mesh_y))
    }

    /// Commits the engine's occupancy back into the caller's placement
    /// in one bulk assignment — the placement is untouched during
    /// sweeps, so this is the only write it sees.
    fn writeback(&mut self) -> Result<(), CoreError> {
        let coords = self.cluster_coords();
        self.placement.set_coords(&coords).map_err(CoreError::Hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::potential::KL2Sq;
    use crate::{hsc_placement, random_placement};
    use snnmap_hw::CostModel;
    use snnmap_metrics::energy;
    use snnmap_model::generators::random_pcn;
    use snnmap_model::PcnBuilder;
    use snnmap_trace::NoopSink;

    /// FD with no hardware restriction, run options or tracing.
    fn fd(pcn: &Pcn, p: &mut Placement, cfg: &FdConfig) -> Result<FdStats, CoreError> {
        force_directed(pcn, p, cfg, None, None, &mut FdRunOpts::default(), &mut NoopSink)
    }

    /// [`fd`] stopped after at most `sweeps` sweeps.
    fn fd_capped(
        pcn: &Pcn,
        p: &mut Placement,
        cfg: &FdConfig,
        sweeps: u64,
    ) -> Result<FdStats, CoreError> {
        let budget = RunBudget { max_sweeps: Some(sweeps), ..RunBudget::default() };
        let mut opts = FdRunOpts { budget, ..FdRunOpts::default() };
        force_directed(pcn, p, cfg, None, None, &mut opts, &mut NoopSink)
    }

    fn small_pcn() -> Pcn {
        random_pcn(64, 4.0, 42).unwrap()
    }

    /// [`Engine::tension`] through the engine's own kernel.
    fn tension(e: &Engine, key: u64) -> f64 {
        with_kernel!(e.potential, k => e.tension(k, key))
    }

    #[test]
    fn select_top_matches_a_full_sort_exactly() {
        // Deterministic pseudo-random tensions (xorshift), sizes chosen to
        // exercise both the sampled-threshold path (>= 1024 entries) and
        // the small-queue fallback, plus heavy ties to stress the key
        // tie-breaker.
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for len in [1usize, 7, 255, 1024, 5000, 60_000] {
            let base: Vec<(f64, u64)> = (0..len)
                .map(|k| (((next() % 97) as f64) / 7.0, k as u64))
                .collect();
            let mut sorted = base.clone();
            sorted.sort_unstable_by(cmp_entries);
            for lambda in [0.01, 0.1, 0.5, 1.0] {
                let take = ((lambda * len as f64).ceil() as usize).clamp(1, len);
                let mut q = base.clone();
                select_top(&mut q, take);
                assert_eq!(&q[..take], &sorted[..take], "len {len} lambda {lambda}");
                // The tail must still hold the same entries (as a set).
                let mut tail: Vec<u64> = q[take..].iter().map(|e| e.1).collect();
                let mut expect: Vec<u64> = sorted[take..].iter().map(|e| e.1).collect();
                tail.sort_unstable();
                expect.sort_unstable();
                assert_eq!(tail, expect, "len {len} lambda {lambda}");
            }
        }
    }

    #[test]
    fn select_top_survives_adversarial_scores() {
        // Property check against a full sort on inputs chosen to break
        // naive partial selection: all-equal scores (every comparison
        // falls through to the key tie-breaker), signed zeros (±0.0
        // differ under total_cmp), subnormal magnitudes, and duplicated
        // score values across distinct keys.
        let cases: Vec<Vec<(f64, u64)>> = vec![
            (0..4096).map(|k| (1.5, k as u64)).collect(),
            (0..4096)
                .map(|k| (if k % 2 == 0 { 0.0 } else { -0.0 }, k as u64))
                .collect(),
            (0..4096)
                .map(|k| (f64::MIN_POSITIVE / ((k % 7 + 1) as f64), k as u64))
                .collect(),
            (0..4096).map(|k| ((k % 3) as f64, k as u64)).collect(),
        ];
        for (case, base) in cases.into_iter().enumerate() {
            let len = base.len();
            let mut sorted = base.clone();
            sorted.sort_unstable_by(cmp_entries);
            for take in [1usize, 13, len / 3, len] {
                let mut q = base.clone();
                select_top(&mut q, take);
                assert_eq!(&q[..take], &sorted[..take], "case {case} take {take}");
                let mut tail: Vec<u64> = q[take..].iter().map(|e| e.1).collect();
                let mut expect: Vec<u64> = sorted[take..].iter().map(|e| e.1).collect();
                tail.sort_unstable();
                expect.sort_unstable();
                assert_eq!(tail, expect, "case {case} take {take}");
            }
        }
    }

    #[test]
    fn partially_occupied_mesh_converges_with_no_residual_tension() {
        // Regression for the vacated-cell rescore hole: when a cluster
        // moves into an empty core, the pairs around the position it
        // *left* must be re-scored too (the old affected-cluster walk
        // only touched graph neighbours of moved clusters and missed
        // them). Position-stamp staleness covers both endpoints of every
        // swap, so a converged run must leave no positive tension even
        // with empty cells in play.
        let pcn = random_pcn(48, 4.0, 7).unwrap();
        let mesh = Mesh::new(8, 8).unwrap(); // 64 cores, 16 left empty
        let mut p = random_placement(&pcn, mesh, 23, None).unwrap();
        let stats = fd(&pcn, &mut p, &FdConfig::default()).unwrap();
        assert!(stats.converged);
        let mut scratch = p.clone();
        let engine =
            Engine::new(
            &pcn,
            &mut scratch,
            Potential::default(),
            TensionMode::Exact,
            Objective::Energy,
            None,
            None,
            1,
        )
        .unwrap();
        for pos in 0..mesh.len() {
            for d in [DOWN, RIGHT] {
                if let Some(key) = engine.pair_key(pos, d) {
                    assert!(
                        tension(&engine, key) <= TENSION_EPS,
                        "positive tension survived at pos {pos} dir {d}"
                    );
                }
            }
        }
    }

    /// `u_c` as a force kernel: four forces, the two-call `step_diff` and
    /// the generic patch — the reference the moment record must match.
    #[derive(Clone, Copy)]
    struct KL2SqGeneric;

    impl PotKernel for KL2SqGeneric {
        fn u(self, dx: f64, dy: f64) -> f64 {
            dx * dx + dy * dy
        }
    }

    const POTENTIALS: [Potential; 4] = [
        Potential::L1,
        Potential::L1Squared,
        Potential::L2Squared,
        Potential::EnergyModel { en_r: 20.0, en_w: 2.4 },
    ];

    /// Xorshift64: the deterministic stream the exactness tests draw from.
    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A PCN whose weights span 2^-30 … 2^12 (43 binades) with random
    /// 24-bit significands, mutual edges included, and two cluster sizes
    /// for a board's capacity filter to tell apart.
    fn wide_binade_pcn(n: u32, edges: usize, seed: u64) -> Pcn {
        let mut rng = seed;
        let mut b = PcnBuilder::new();
        for c in 0..n {
            b.add_cluster(if c % 3 == 0 { 8 } else { 2 }, 16);
        }
        for i in 0..edges {
            let r = xorshift(&mut rng);
            let from = (r % u64::from(n)) as u32;
            let to = if i % 5 == 0 && i > 0 { from.wrapping_sub(1) % n } else { (r >> 20) as u32 % n };
            let exp = (r >> 40) % 43;
            let w = f32::from_bits(((exp as u32 + 127 - 30) << 23) | (r as u32 & 0x7f_ffff));
            b.add_edge(from, to, w).unwrap();
            if i % 4 == 0 {
                b.add_edge(to, from, w * 0.75).unwrap();
            }
        }
        b.build().unwrap()
    }

    /// Places clusters in id order, each on the first core of a scrambled
    /// order that is alive, free and admits it.
    fn feasible_placement(pcn: &Pcn, mesh: Mesh, fm: &FaultMap, board: &Board) -> Placement {
        let mut cores: Vec<Coord> = mesh.iter().filter(|&c| !fm.is_dead(c)).collect();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for i in (1..cores.len()).rev() {
            cores.swap(i, xorshift(&mut rng) as usize % (i + 1));
        }
        let mut p = Placement::new_unplaced(mesh, pcn.num_clusters());
        for c in 0..pcn.num_clusters() {
            let at = cores
                .iter()
                .position(|&k| board.admits(k, pcn.neurons_in(c), pcn.synapses_in(c)))
                .expect("a feasible core is left");
            p.place(c, cores.remove(at)).unwrap();
        }
        p
    }

    fn assert_hot_identical(a: &[Hot], b: &[Hot], at: &str) {
        for (c, (ha, hb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ha.sig, hb.sig, "{at}: cluster {c} signature");
            for d in 0..4 {
                let (fa, fb) = (ha.slots[d], hb.slots[d]);
                assert_eq!(fa.to_bits(), fb.to_bits(), "{at}: cluster {c} slot {d}: {fa} vs {fb}");
                assert!(fa != 0.0 || fa.is_sign_positive(), "{at}: -0.0 slot at cluster {c}");
            }
        }
    }

    /// Every in-mesh direction's `u_c` force derived from `a`'s moment
    /// records equals the four-force record `forces` holds, compared
    /// with `==` (a derived `-0.0` may stand for a summed `+0.0`, see
    /// [`Hot::slots`]).
    fn assert_moments_give_forces(a: &Engine, forces: &[Hot], at: &str) {
        for c in 0..a.hot.len() as u32 {
            let p = a.pos[c as usize] as usize;
            assert_eq!(a.hot[c as usize].sig, forces[c as usize].sig, "{at}: cluster {c}");
            for d in (0..4).filter(|&d| a.step(p, d).is_some()) {
                let (derived, want) = (a.force::<KL2Sq>(c, d), forces[c as usize].slots[d]);
                assert!(derived == want, "{at}: cluster {c} dir {d}: {derived} vs {want}");
            }
        }
    }

    /// Clusters whose hot records the swap of `key` may touch: the two
    /// occupants and their graph neighbours.
    fn footprint(e: &Engine, key: u64) -> Vec<u32> {
        let (p, d) = e.decode(key);
        let q = e.step(p, d).unwrap();
        let mut f = Vec::new();
        for c in [e.occ[p], e.occ[q]] {
            if c != EMPTY {
                f.push(c);
                f.extend(e.row(c).iter().map(|&(k, _)| k));
            }
        }
        f
    }

    /// An engine under a fault mask, a board and a region mask.
    fn masked_engine<'a>(
        pcn: &'a Pcn,
        p: &'a mut Placement,
        pot: Potential,
        threads: usize,
        (fm, board, region): (&FaultMap, &Board, &[bool]),
    ) -> Engine<'a> {
        let obj = Objective::Energy;
        let mut e =
            Engine::new(pcn, p, pot, TensionMode::Exact, obj, Some(fm), Some(board), threads).unwrap();
        e.set_region(Some(region)).unwrap();
        e
    }

    #[test]
    fn closed_form_swaps_match_the_generic_kernel_bitwise() {
        // Exactness of the incremental records. Weights over 43 binades
        // force the grid to round; every potential runs with a fault
        // mask, a board capacity filter and a region mask, at 1 and 4
        // threads. After every swap each patched record equals a fresh
        // `init_hot` build bit for bit; for u_c every in-mesh force
        // derived from the moments equals both the generic kernel's
        // patched force and its fresh build, and the stamps agree. Two
        // swaps with disjoint footprints commute bit for bit.
        let pcn = wide_binade_pcn(40, 120, 0x9e37_79b9_7f4a_7c15);
        let mut board = Board::parse("2x2/4x4@64,4096").unwrap();
        let mesh = board.mesh();
        let small = snnmap_hw::CoreConstraints::new(4, 4096).unwrap();
        for i in [1u16, 9, 18, 27, 36, 45, 54] {
            board.set_constraints(mesh.coord_of_index(i as usize), small).unwrap();
        }
        let mut fm = FaultMap::new(mesh);
        for i in [5usize, 22, 40, 61] {
            fm.kill_core(mesh.coord_of_index(i)).unwrap();
        }
        // The last column is frozen.
        let region: Vec<bool> = mesh.iter().map(|c| c.y + 1 < mesh.cols()).collect();
        let base = feasible_placement(&pcn, mesh, &fm, &board);
        let masks = (&fm, &board, region.as_slice());
        let mut rounded = false;
        for threads in [1, 4] {
            for pot in POTENTIALS {
                let (mut pa, mut pb) = (base.clone(), base.clone());
                let mut a = masked_engine(&pcn, &mut pa, pot, threads, masks);
                let mut b = masked_engine(&pcn, &mut pb, pot, threads, masks);
                rounded |= (0..pcn.num_clusters()).any(|c| {
                    pcn.out_edges(c).zip(a.row(c)).any(|((_, w), &(_, g))| w.to_bits() != g.to_bits())
                });
                let fresh = |e: &Engine| -> Vec<Hot> {
                    (0..e.hot.len() as u32)
                        .map(|c| with_kernel!(pot, k => e.init_hot(k, c)))
                        .collect()
                };
                assert_hot_identical(&a.hot, &fresh(&a), &format!("{pot:?} initial build"));
                // `b` runs u_c as a force kernel alongside `a`'s moments.
                b.hot = (0..b.hot.len() as u32).map(|c| b.init_hot(KL2SqGeneric, c)).collect();
                let mut stamp_a = vec![0u32; mesh.len()];
                let mut stamp_b = vec![0u32; mesh.len()];
                let (mut swaps, mut moves_into_empty, mut commuted) = (0, 0, 0);
                let mut rng = 0x853c_49e6_748f_ea9bu64 ^ threads as u64;
                for epoch in 1..=1500u32 {
                    let r = xorshift(&mut rng);
                    let p = (r >> 8) as usize % mesh.len();
                    let d = if r & 1 == 0 { DOWN } else { RIGHT };
                    let Some(key) = a.pair_key(p, d) else { continue };
                    let q = a.step(p, d).unwrap();
                    assert!(!tension(&a, key).is_nan());
                    if a.frozen(p, q) || (a.occ[p] == EMPTY && a.occ[q] == EMPTY) {
                        continue;
                    }
                    if (a.occ[p] == EMPTY) != (a.occ[q] == EMPTY) {
                        moves_into_empty += 1;
                    }
                    with_kernel!(pot, k => a.swap_with(k, key, epoch, &mut stamp_a));
                    if pot == Potential::L2Squared {
                        b.swap_with(KL2SqGeneric, key, epoch, &mut stamp_b);
                        assert_eq!(stamp_a, stamp_b, "swap {epoch}: stamped positions differ");
                        assert_moments_give_forces(&a, &b.hot, &format!("generic patch, swap {epoch}"));
                        let generic: Vec<Hot> = (0..a.hot.len() as u32)
                            .map(|c| a.init_hot(KL2SqGeneric, c))
                            .collect();
                        assert_hot_identical(&b.hot, &generic, &format!("generic build, swap {epoch}"));
                        assert_moments_give_forces(&a, &generic, &format!("generic build, swap {epoch}"));
                    }
                    swaps += 1;
                    let at = format!("{pot:?} at {threads} threads, swap {epoch}");
                    assert_hot_identical(&a.hot, &fresh(&a), &at);

                    // Every 50 swaps: two swaps with disjoint footprints,
                    // applied in both orders to two copies of the state.
                    if swaps % 50 == 0 {
                        let mut keys = Vec::new();
                        for _ in 0..200 {
                            let r = xorshift(&mut rng);
                            let p = (r >> 8) as usize % mesh.len();
                            let d = if r & 1 == 0 { DOWN } else { RIGHT };
                            if let Some(k) = a.pair_key(p, d) {
                                let q = a.step(p, d).unwrap();
                                if !a.frozen(p, q) && (a.occ[p] != EMPTY || a.occ[q] != EMPTY) {
                                    keys.push(k);
                                }
                            }
                        }
                        let pair = keys.iter().enumerate().find_map(|(i, &k1)| {
                            let f1 = footprint(&a, k1);
                            let (p1, d1) = a.decode(k1);
                            let cells1 = [p1, a.step(p1, d1).unwrap()];
                            keys[i + 1..].iter().copied().find(|&k2| {
                                let (p2, d2) = a.decode(k2);
                                let cells2 = [p2, a.step(p2, d2).unwrap()];
                                !cells1.iter().any(|c| cells2.contains(c))
                                    && !footprint(&a, k2).iter().any(|c| f1.contains(c))
                            })
                            .map(|k2| (k1, k2))
                        });
                        let Some((k1, k2)) = pair else { continue };
                        let coords = a.cluster_coords();
                        let (mut px, mut py) = (base.clone(), base.clone());
                        px.set_coords(&coords).unwrap();
                        py.set_coords(&coords).unwrap();
                        let mut x = masked_engine(&pcn, &mut px, pot, threads, masks);
                        let mut y = masked_engine(&pcn, &mut py, pot, threads, masks);
                        let mut stamp = vec![0u32; mesh.len()];
                        with_kernel!(pot, k => {
                            x.swap_with(k, k1, 1, &mut stamp);
                            x.swap_with(k, k2, 1, &mut stamp);
                            y.swap_with(k, k2, 1, &mut stamp);
                            y.swap_with(k, k1, 1, &mut stamp);
                        });
                        assert_eq!(x.occ, y.occ);
                        assert_hot_identical(&x.hot, &y.hot, &format!("{at}: commuted pair"));
                        commuted += 1;
                    }
                }
                assert!(swaps > 300, "{pot:?}: only {swaps} swaps");
                assert!(moves_into_empty > 30, "{pot:?}: only {moves_into_empty} moves into empty cells");
                assert!(commuted > 3, "{pot:?}: only {commuted} commuted pairs");
            }
        }
        assert!(rounded, "the weights must need rounding for this test to bite");
    }

    #[test]
    fn extreme_weights_build_an_exact_grid_and_descend() {
        // Each case builds the engine (whose tensions debug builds assert
        // to stay below 2^53 grid units), and FD descends.
        let tiny = f32::from_bits(1); // the smallest subnormal, 2^-149
        let cases: Vec<(&str, Vec<f32>, Mesh)> = vec![
            ("all-zero", vec![0.0; 12], Mesh::new(8, 8).unwrap()),
            ("f32::MAX", vec![f32::MAX, 1.0, 3.5, 0.25], Mesh::new(8, 8).unwrap()),
            ("subnormal", vec![tiny, 1.0, 3.5, 0.25], Mesh::new(8, 8).unwrap()),
            (
                "2^-126..2^100 on 1024x1024",
                (0..=226).step_by(2).map(|e| f32::from_bits((e + 1) << 23)).collect(),
                Mesh::new(1024, 1024).unwrap(),
            ),
        ];
        for (name, weights, mesh) in cases {
            let n = 16u32;
            let mut b = PcnBuilder::new();
            for _ in 0..n {
                b.add_cluster(1, 1);
            }
            for (i, &w) in weights.iter().enumerate() {
                let from = i as u32 % n;
                b.add_edge(from, (from + 1 + i as u32 / n) % n, w).unwrap();
            }
            let pcn = b.build().unwrap();
            for pot in POTENTIALS {
                let mut p = random_placement(&pcn, mesh, 3, None).unwrap();
                let cfg = FdConfig { potential: pot, ..FdConfig::default() };
                let stats = fd_capped(&pcn, &mut p, &cfg, 5).unwrap();
                assert!(stats.final_energy.is_finite(), "{name} {pot:?}");
                if name == "all-zero" {
                    assert_eq!(stats.swaps, 0, "{name} {pot:?}");
                    assert_eq!(stats.final_energy, stats.initial_energy);
                } else {
                    assert!(stats.swaps > 0, "{name} {pot:?}: no swap");
                    assert!(
                        stats.final_energy < stats.initial_energy,
                        "{name} {pot:?}: {} vs {}",
                        stats.final_energy,
                        stats.initial_energy
                    );
                }
                let mut scratch = p.clone();
                let e = Engine::new(
                    &pcn, &mut scratch, pot, TensionMode::Exact, Objective::Energy, None, None, 1,
                )
                .unwrap();
                for key in 0..2 * mesh.len() as u64 {
                    let t = tension(&e, key);
                    assert!(t.abs() < e.tension_limit, "{name} {pot:?}: tension {t}");
                }
            }
        }
    }

    #[test]
    fn energy_never_increases_and_converges() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        for potential in [
            Potential::L1,
            Potential::L1Squared,
            Potential::L2Squared,
            Potential::energy_model(CostModel::paper_target()),
        ] {
            let mut p = random_placement(&pcn, mesh, 1, None).unwrap();
            let cfg = FdConfig { potential, ..FdConfig::default() };
            let stats = fd(&pcn, &mut p, &cfg).unwrap();
            assert!(stats.converged);
            assert!(
                stats.final_energy <= stats.initial_energy + 1e-9,
                "{potential:?}: {} > {}",
                stats.final_energy,
                stats.initial_energy
            );
            p.check_consistency().unwrap();
        }
    }

    #[test]
    fn tracked_energy_matches_recomputation() {
        // The incremental force/tension bookkeeping must agree with a
        // from-scratch energy computation at the end.
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut p = random_placement(&pcn, mesh, 3, None).unwrap();
        let cfg = FdConfig::default();
        let stats = fd(&pcn, &mut p, &cfg).unwrap();
        let mut scratch = p.clone();
        let engine =
            Engine::new(
            &pcn,
            &mut scratch,
            cfg.potential,
            TensionMode::Exact,
            Objective::Energy,
            None,
            None,
            1,
        )
        .unwrap();
        assert!((engine.system_energy_serial() - stats.final_energy).abs() < 1e-6);
    }

    #[test]
    fn eq26_energy_model_potential_equals_mec() {
        // eq. 26: with the energy-model potential, FD system energy is
        // exactly the M_ec metric.
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let cost = CostModel::paper_target();
        let mut p = random_placement(&pcn, mesh, 5, None).unwrap();
        let cfg = FdConfig { potential: Potential::energy_model(cost), ..FdConfig::default() };
        let stats = fd(&pcn, &mut p, &cfg).unwrap();
        let mec = energy(&pcn, &p, cost).unwrap();
        assert!(
            (stats.final_energy - mec).abs() < 1e-6 * mec.max(1.0),
            "{} vs {}",
            stats.final_energy,
            mec
        );
    }

    #[test]
    fn energy_model_swaps_exactly_like_l1() {
        // Eq. 25 is a positive affine map of u_a, and the engine runs the
        // u_a kernel for it: same placement, sweeps and swaps, with only
        // the reported energies on eq. 25's scale.
        let cost = CostModel::paper_target();
        for pcn in [random_pcn(300, 5.0, 4).unwrap(), wide_binade_pcn(200, 900, 17)] {
            for seed in [1, 2, 3] {
                let base = random_placement(&pcn, Mesh::new(18, 18).unwrap(), seed, None).unwrap();
                let run = |potential| {
                    let mut p = base.clone();
                    let stats = fd(&pcn, &mut p, &FdConfig { potential, ..FdConfig::default() });
                    (p, stats.unwrap())
                };
                let (pl1, sl1) = run(Potential::L1);
                let (pen, sen) = run(Potential::energy_model(cost));
                assert_eq!(pl1, pen, "seed {seed}");
                assert_eq!((sl1.iterations, sl1.swaps), (sen.iterations, sen.swaps), "seed {seed}");
                assert!(sen.final_energy < sen.initial_energy);
            }
        }
    }

    #[test]
    fn improves_random_placements() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let cost = CostModel::paper_target();
        let mut p = random_placement(&pcn, mesh, 7, None).unwrap();
        let before = energy(&pcn, &p, cost).unwrap();
        let cfg = FdConfig { potential: Potential::energy_model(cost), ..FdConfig::default() };
        fd(&pcn, &mut p, &cfg).unwrap();
        let after = energy(&pcn, &p, cost).unwrap();
        assert!(after < before, "FD should improve a random placement: {after} vs {before}");
    }

    #[test]
    fn improves_hsc_placements_further() {
        // §5.2 observation 2: FD on top of HSC improves the metrics
        // further.
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let cost = CostModel::paper_target();
        let mut p = hsc_placement(&pcn, mesh, None, 1).unwrap();
        let before = energy(&pcn, &p, cost).unwrap();
        fd(&pcn, &mut p, &FdConfig::default()).unwrap();
        let after = energy(&pcn, &p, cost).unwrap();
        assert!(after <= before);
    }

    #[test]
    fn partial_occupancy_moves_into_empty_cores() {
        // Two connected clusters placed at opposite corners of an
        // otherwise empty mesh must be pulled together through empty
        // cells.
        let mut b = PcnBuilder::new();
        b.add_cluster(1, 1);
        b.add_cluster(1, 1);
        b.add_edge(0, 1, 10.0).unwrap();
        let pcn = b.build().unwrap();
        let mesh = Mesh::new(5, 5).unwrap();
        let mut p = Placement::new_unplaced(mesh, 2);
        p.place(0, Coord::new(0, 0)).unwrap();
        p.place(1, Coord::new(4, 4)).unwrap();
        let stats = fd(&pcn, &mut p, &FdConfig::default()).unwrap();
        assert!(stats.converged);
        assert_eq!(p.distance(0, 1).unwrap(), 1, "clusters should end adjacent");
    }

    #[test]
    fn incomplete_placement_errors() {
        let pcn = small_pcn();
        let mut p = Placement::new_unplaced(Mesh::new(8, 8).unwrap(), 64);
        assert!(matches!(
            fd(&pcn, &mut p, &FdConfig::default()),
            Err(CoreError::IncompletePlacement { placed: 0, total: 64 })
        ));
    }

    #[test]
    fn iteration_cap_stops_early() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut p = random_placement(&pcn, mesh, 11, None).unwrap();
        let stats = fd_capped(&pcn, &mut p, &FdConfig::default(), 1).unwrap();
        assert_eq!(stats.iterations, 1);
    }

    #[test]
    fn converged_state_has_no_positive_tension() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut p = random_placement(&pcn, mesh, 13, None).unwrap();
        fd(&pcn, &mut p, &FdConfig::default()).unwrap();
        let mut scratch = p.clone();
        let engine =
            Engine::new(
            &pcn,
            &mut scratch,
            Potential::default(),
            TensionMode::Exact,
            Objective::Energy,
            None,
            None,
            1,
        )
        .unwrap();
        for pos in 0..mesh.len() {
            for d in [DOWN, RIGHT] {
                if let Some(key) = engine.pair_key(pos, d) {
                    assert!(
                        tension(&engine, key) <= TENSION_EPS,
                        "positive tension survived at pos {pos} dir {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_same_input() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut a = random_placement(&pcn, mesh, 17, None).unwrap();
        let mut b = a.clone();
        let sa = fd(&pcn, &mut a, &FdConfig::default()).unwrap();
        let sb = fd(&pcn, &mut b, &FdConfig::default()).unwrap();
        assert_eq!(sa, sb);
        assert_eq!(a, b);
    }

    #[test]
    fn naive_tension_mode_runs_and_reports_true_energy() {
        // The ablation mode: tensions may overestimate, but final_energy
        // is recomputed from scratch so the report stays truthful, and
        // the automatic iteration cap bounds any oscillation.
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let cost = CostModel::paper_target();
        let mut p = random_placement(&pcn, mesh, 21, None).unwrap();
        let cfg = FdConfig {
            potential: Potential::energy_model(cost),
            tension_mode: TensionMode::PaperNaive,
            ..FdConfig::default()
        };
        let stats = fd(&pcn, &mut p, &cfg).unwrap();
        let mec = energy(&pcn, &p, cost).unwrap();
        assert!((stats.final_energy - mec).abs() < 1e-6 * mec.max(1.0));
        // Naive tension still improves a random start in practice.
        assert!(stats.final_energy < stats.initial_energy);
        p.check_consistency().unwrap();
    }

    #[test]
    fn exact_tension_never_loses_to_naive() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let cost = CostModel::paper_target();
        let run = |mode| {
            let mut p = random_placement(&pcn, mesh, 23, None).unwrap();
            let cfg = FdConfig {
                potential: Potential::energy_model(cost),
                tension_mode: mode,
                ..FdConfig::default()
            };
            fd(&pcn, &mut p, &cfg).unwrap();
            energy(&pcn, &p, cost).unwrap()
        };
        let exact = run(TensionMode::Exact);
        let naive = run(TensionMode::PaperNaive);
        assert!(exact <= naive * 1.05, "exact {exact} vs naive {naive}");
    }

    #[test]
    fn masked_fd_never_touches_dead_cores_and_descends() {
        let pcn = random_pcn(40, 4.0, 9).unwrap();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut fm = FaultMap::new(mesh);
        for i in 0..6u16 {
            fm.kill_core(Coord::new(i, (i * 3) % 8)).unwrap();
        }
        let mut p = crate::random_placement(&pcn, mesh, 31, Some(&fm)).unwrap();
        let mut opts = FdRunOpts::default();
        let cfg = FdConfig::default();
        let stats =
            force_directed(&pcn, &mut p, &cfg, Some(&fm), None, &mut opts, &mut NoopSink).unwrap();
        assert!(stats.converged);
        assert!(stats.final_energy <= stats.initial_energy + 1e-9);
        p.check_consistency().unwrap();
        for c in 0..40u32 {
            assert!(!fm.is_dead(p.coord_of(c).unwrap()), "cluster {c} landed on a dead core");
        }
    }

    #[test]
    fn masked_fd_rejects_placement_on_dead_core() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut p = random_placement(&pcn, mesh, 2, None).unwrap();
        let mut fm = FaultMap::new(mesh);
        // Kill the core cluster 0 sits on: the input is already invalid.
        let c0 = p.coord_of(0).unwrap();
        fm.kill_core(c0).unwrap();
        let mut opts = FdRunOpts::default();
        let cfg = FdConfig::default();
        assert!(matches!(
            force_directed(&pcn, &mut p, &cfg, Some(&fm), None, &mut opts, &mut NoopSink),
            Err(CoreError::Hw(HwError::FaultyCore { coord })) if coord == c0
        ));
    }

    #[test]
    fn bad_lambda_is_a_typed_error() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let mut p = random_placement(&pcn, mesh, 2, None).unwrap();
        for lambda in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                fd(&pcn, &mut p, &FdConfig { lambda, ..FdConfig::default() }),
                Err(CoreError::InvalidLambda { .. })
            ));
        }
    }

    #[test]
    fn lambda_extremes_still_converge() {
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        for lambda in [0.05, 1.0] {
            let mut p = random_placement(&pcn, mesh, 19, None).unwrap();
            let stats = fd(&pcn, &mut p, &FdConfig { lambda, ..FdConfig::default() }).unwrap();
            assert!(stats.converged, "lambda={lambda}");
        }
    }

    #[test]
    fn explicit_thread_counts_agree_with_serial() {
        // The full property test lives in tests/fd_par_props.rs; this is
        // the fast in-module smoke check of the same guarantee.
        let pcn = small_pcn();
        let mesh = Mesh::new(8, 8).unwrap();
        let base = random_placement(&pcn, mesh, 29, None).unwrap();
        let run = |threads: usize| {
            let mut p = base.clone();
            let cfg = FdConfig { threads, ..FdConfig::default() };
            let stats = fd(&pcn, &mut p, &cfg).unwrap();
            (p, stats)
        };
        let (p1, s1) = run(1);
        for threads in [2, 4] {
            let (pt, st) = run(threads);
            assert_eq!(pt, p1, "placement diverged at threads={threads}");
            assert_eq!(st, s1, "stats diverged at threads={threads}");
        }
    }

    #[test]
    fn worker_panic_is_a_typed_error_with_a_flushed_checkpoint() {
        // Sized so the injection can only fire where we want it: a 64x64
        // mesh (4096 positions) lets the initial queue build fan out at
        // threads=2, while <4096 clusters keep the energy reduction in a
        // single serial block and the hot-record init under the
        // per-thread minimum — the recovery probes never spawn workers,
        // so the armed hook cannot re-trigger on the panic path.
        let pcn = random_pcn(3500, 3.0, 11).unwrap();
        let mesh = Mesh::new(64, 64).unwrap();
        let base = crate::hsc_placement(&pcn, mesh, None, 2).unwrap();
        let cfg = FdConfig { threads: 2, ..FdConfig::default() };

        let mut p = base.clone();
        let mut cp: Option<FdCheckpoint> = None;
        let mut writer = |c: &FdCheckpoint| {
            cp = Some(c.clone());
            Ok(())
        };
        let mut opts =
            FdRunOpts { on_checkpoint: Some(&mut writer), ..FdRunOpts::default() };
        par::hooks::fail_after(0);
        let err = force_directed(&pcn, &mut p, &cfg, None, None, &mut opts, &mut NoopSink)
            .unwrap_err();
        par::hooks::disarm();
        drop(opts);
        match err {
            CoreError::WorkerPanicked { ref message } => {
                assert_eq!(message, par::hooks::INJECTED_PANIC);
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        // The panic path flushed a checkpoint at the consistent boundary
        // (sweep 0 — the build of the initial queue) and left the
        // caller's placement untouched (writeback only happens on
        // success).
        let cp = cp.expect("the panic path must flush a checkpoint");
        assert_eq!(cp.sweeps, 0);
        assert_eq!(cp.swaps, 0);
        assert_eq!(p, base);

        // The flushed checkpoint is resumable, and the resumed run tracks
        // the uninterrupted one exactly.
        let budget = RunBudget { max_sweeps: Some(2), ..RunBudget::default() };
        let mut resumed = base.clone();
        let mut ropts =
            FdRunOpts { budget: budget.clone(), resume: Some(cp), ..FdRunOpts::default() };
        let rs = force_directed(&pcn, &mut resumed, &cfg, None, None, &mut ropts, &mut NoopSink)
            .unwrap();
        let mut plain = base.clone();
        let mut popts = FdRunOpts { budget, ..FdRunOpts::default() };
        let ps = force_directed(&pcn, &mut plain, &cfg, None, None, &mut popts, &mut NoopSink)
            .unwrap();
        assert_eq!(resumed, plain);
        assert_eq!(rs.swaps, ps.swaps);
        assert_eq!(rs.final_energy.to_bits(), ps.final_energy.to_bits());
    }
}
