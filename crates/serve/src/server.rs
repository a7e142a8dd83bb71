//! The daemon: listener, worker pool, job routes, drain, and recovery.
//!
//! Concurrency layout — three thread families over one [`Shared`] state:
//!
//! * the **accept loop** (the thread that calls [`Server::run`]) polls a
//!   non-blocking listener and spawns one short-lived thread per
//!   connection (one HTTP exchange each, `Connection: close`);
//! * **connection threads** parse a request, take the job or queue lock
//!   briefly, and respond — they never block on mapping work;
//! * **workers** (a fixed pool, count via [`snnmap_core::par::resolve_threads`])
//!   pop the bounded queue and run the FD pipeline; each running job
//!   checkpoints to the spool, so workers are the only threads doing
//!   heavy lifting and the only ones a `kill -9` can interrupt
//!   mid-flight.
//!
//! Shutdown is a drain: stop accepting, let in-flight responses finish,
//! raise every running job's cancel flag (the FD engine stops at the
//! next sweep boundary *after flushing a checkpoint*), and leave queued
//! jobs spooled. A restarted daemon picks both kinds back up —
//! interrupted runs resume bit-identically from their checkpoint.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use snnmap_core::{par, DegradedPlacement, FdCheckpoint, FdRunOpts, Mapper, RunBudget, StopReason};
use snnmap_hw::FaultMap;
use snnmap_io::{
    parse_job, parse_placement, read_checkpoint, reject_duplicate_keys, render_placement,
    write_checkpoint, IoError, JobSpec,
};
use snnmap_noc::{noc_scale, NocReweighter, REPLAY_CYCLES};
use snnmap_trace::{sha256_hex, NoopSink, ProgressSink};

use crate::http::{self, Request};
use crate::job::{parse_state, Job, JobState};
use crate::lease::{self, Acquire};
use crate::metrics;
use crate::retry::with_retry;
use crate::spool::{ScanEntry, Spool, SpooledJob};

/// Daemon configuration (the `snnmap serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port` (port 0 picks a free port).
    pub addr: String,
    /// Worker pool size; 0 = auto, like `snnmap map --threads 0`.
    pub workers: usize,
    /// Spool directory for crash recovery (created if missing).
    pub spool_dir: PathBuf,
    /// Bound on jobs waiting in the queue; submissions beyond it get
    /// `429 Too Many Requests`.
    pub queue_capacity: usize,
    /// Lease time-to-live: a running job whose `LEASE` heartbeat is
    /// older than this is considered abandoned, and any daemon sharing
    /// the spool may take it over.
    pub lease_ttl: Duration,
    /// This daemon's identity in `LEASE` files; `None` derives a
    /// process-unique id. A restart under the same id re-enters its own
    /// leases at once; a fresh id waits `lease_ttl` for them to expire.
    pub daemon_id: Option<String>,
    /// Total per-connection deadline for reading a request (and the
    /// per-write socket timeout). Slow-loris and stalled-body clients
    /// get `408 Request Timeout` when it runs out.
    pub io_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".to_string(),
            workers: 0,
            spool_dir: PathBuf::from("snnmap-spool"),
            queue_capacity: 64,
            lease_ttl: Duration::from_secs(30),
            daemon_id: None,
            io_timeout: Duration::from_secs(10),
        }
    }
}

/// Startup failure (spool or listener).
#[derive(Debug)]
pub enum ServeError {
    /// An I/O operation failed while starting the daemon.
    Io {
        /// What the daemon was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io { source, .. } => Some(source),
        }
    }
}

/// What the daemon reports after a graceful drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs accepted over the daemon's lifetime (including recovered).
    pub jobs_total: u64,
    /// Running jobs interrupted by the drain; each left a spooled
    /// checkpoint and resumes on restart.
    pub interrupted: usize,
    /// Jobs still queued at drain; they re-queue on restart.
    pub queued_left: usize,
}

/// State shared by the accept loop, connection threads, workers, and
/// the janitor/heartbeat background threads.
pub(crate) struct Shared {
    pub(crate) spool: Spool,
    pub(crate) jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    pub(crate) queue: Mutex<VecDeque<Arc<Job>>>,
    pub(crate) queue_cond: Condvar,
    pub(crate) queue_capacity: usize,
    pub(crate) workers: usize,
    pub(crate) busy_workers: AtomicUsize,
    pub(crate) draining: AtomicBool,
    pub(crate) submitted_total: AtomicU64,
    /// This daemon's identity in spool `LEASE` files.
    pub(crate) daemon_id: String,
    pub(crate) lease_ttl: Duration,
    pub(crate) io_timeout: Duration,
    /// Jobs taken over from a dead peer's expired lease.
    pub(crate) takeovers_total: AtomicU64,
    /// Connections answered `408 Request Timeout`.
    pub(crate) timeouts_total: AtomicU64,
    /// Corrupt job dirs moved to `quarantine/` (at startup).
    pub(crate) quarantined_total: AtomicU64,
    /// Chip faults applied via `POST /faults/chip`.
    pub(crate) chip_faults_total: AtomicU64,
    next_id: AtomicU64,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("workers", &self.workers).finish_non_exhaustive()
    }
}

/// Locks a mutex, recovering from poison: a panicking worker is an
/// isolated job failure, never a reason to wedge the whole daemon.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The daemon. [`Server::bind`] recovers the spool and binds the
/// listener; [`Server::run`] serves until the shutdown flag rises.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
}

impl Server {
    /// Opens the spool, recovers every job found in it, and binds the
    /// listen socket.
    ///
    /// Recovery rules: terminal jobs (`done` / `failed` / `cancelled`)
    /// load as queryable history; `queued` and `running` jobs re-enter
    /// the queue — a `running` job kept its spooled checkpoint, so its
    /// worker resumes it bit-identically instead of starting over.
    ///
    /// Corrupt job directories — an unparseable request, an unknown
    /// state label, a `done` record without its placement, a garbled
    /// checkpoint, or a stale stub missing its records entirely — are
    /// moved to `spool/quarantine/<id>/` with a `REASON` file instead of
    /// being silently skipped or allowed to wedge startup. A checkpoint
    /// in a retired format (`snnmap-checkpoint-v1`) is not corruption:
    /// its job is requeued and runs from scratch.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the spool directory or the listener
    /// cannot be opened.
    pub fn bind(config: &ServeConfig) -> Result<Self, ServeError> {
        let io_err = |context: &str| {
            let context = context.to_string();
            move |source: std::io::Error| ServeError::Io { context, source }
        };
        let spool = Spool::open(&config.spool_dir)
            .map_err(io_err(&format!("opening spool {}", config.spool_dir.display())))?;
        spool.sweep_tmp_files();

        let mut jobs = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut next_id = spool.max_quarantined_id() + 1;
        let mut quarantined = 0u64;
        let mut quarantine = |spool: &Spool, id: u64, reason: &str| {
            if spool.quarantine(id, reason).is_ok() {
                quarantined += 1;
            }
        };
        for entry in spool.scan().map_err(io_err("scanning spool"))? {
            let spooled = match entry {
                ScanEntry::Job(spooled) => spooled,
                ScanEntry::Malformed { id, reason, age } => {
                    next_id = next_id.max(id + 1);
                    // A *young* stub can be a live peer mid-`create_job`
                    // on a shared spool; leave those alone. Older than a
                    // lease TTL, it is debris from a crash.
                    if age >= config.lease_ttl {
                        quarantine(&spool, id, &reason);
                    }
                    continue;
                }
            };
            next_id = next_id.max(spooled.id + 1);
            let Some(state) = parse_state(&spooled.state) else {
                quarantine(
                    &spool,
                    spooled.id,
                    &format!("unknown state label `{}`", spooled.state),
                );
                continue;
            };
            let spec = match parse_job(&spooled.request) {
                Ok(spec) => spec,
                Err(e) => {
                    // Requests are validated before they are spooled, so
                    // this is disk corruption.
                    quarantine(&spool, spooled.id, &format!("unparseable spooled request: {e}"));
                    continue;
                }
            };
            if state == JobState::Done && spooled.placement.is_none() {
                quarantine(&spool, spooled.id, "done but placement.json is missing");
                continue;
            }
            // A torn or bit-flipped checkpoint cannot happen through the
            // atomic write path, so it is external corruption; the job
            // dir is evidence. (A transient read error is not, and
            // neither is a checkpoint in a retired format: the job is
            // requeued and its worker, unable to resume from it, starts
            // the run over and overwrites it.)
            if !state.is_terminal() {
                let cp_path = spool.checkpoint_path(spooled.id);
                if cp_path.is_file() {
                    match read_checkpoint(&cp_path) {
                        Ok(_) | Err(IoError::Io(_) | IoError::UnsupportedVersion { .. }) => {}
                        Err(e) => {
                            quarantine(&spool, spooled.id, &format!("corrupt checkpoint: {e}"));
                            continue;
                        }
                    }
                }
            }
            let job = Arc::new(Job::new(spooled.id, spec, state));
            match state {
                JobState::Done | JobState::Failed | JobState::Cancelled => {
                    adopt_disk_record(&job, &spooled);
                }
                JobState::Queued | JobState::Running => {
                    job.set_state(JobState::Queued);
                    queue.push_back(Arc::clone(&job));
                }
            }
            jobs.insert(spooled.id, job);
        }

        let listener = TcpListener::bind(&config.addr)
            .map_err(io_err(&format!("binding {}", config.addr)))?;
        listener.set_nonblocking(true).map_err(io_err("setting the listener non-blocking"))?;

        let submitted = jobs.len() as u64;
        let daemon_id = config
            .daemon_id
            .clone()
            .unwrap_or_else(|| format!("pid{}-{:x}", std::process::id(), lease::now_ms()));
        Ok(Self {
            shared: Arc::new(Shared {
                spool,
                jobs: Mutex::new(jobs),
                queue: Mutex::new(queue),
                queue_cond: Condvar::new(),
                queue_capacity: config.queue_capacity.max(1),
                workers: par::resolve_threads(config.workers),
                busy_workers: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                submitted_total: AtomicU64::new(submitted),
                daemon_id,
                lease_ttl: config.lease_ttl,
                io_timeout: config.io_timeout,
                takeovers_total: AtomicU64::new(0),
                timeouts_total: AtomicU64::new(0),
                quarantined_total: AtomicU64::new(quarantined),
                chip_faults_total: AtomicU64::new(0),
                next_id: AtomicU64::new(next_id),
            }),
            listener,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS error if the socket has no local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The resolved worker-pool size.
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Serves until `shutdown` goes high (typically the
    /// [`signal::install`](crate::signal::install) flag), then drains
    /// gracefully.
    pub fn run(&self, shutdown: &AtomicBool) -> DrainReport {
        let workers: Vec<_> = (0..self.shared.workers)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        // Janitor: reconciles the shared spool (peer-created jobs, jobs
        // whose lease holder died) until the drain begins. Heartbeat:
        // keeps our running jobs' leases fresh until the last worker is
        // gone, so peers don't "take over" jobs we are still finishing.
        let bg_stop = Arc::new(AtomicBool::new(false));
        let janitor = {
            let shared = Arc::clone(&self.shared);
            let interval = (shared.lease_ttl / 2)
                .clamp(Duration::from_millis(50), Duration::from_secs(2));
            std::thread::spawn(move || {
                let mut last = Instant::now();
                while !shared.draining.load(SeqCst) {
                    std::thread::sleep(Duration::from_millis(20));
                    if last.elapsed() >= interval {
                        janitor_pass(&shared);
                        last = Instant::now();
                    }
                }
            })
        };
        let heartbeater = {
            let shared = Arc::clone(&self.shared);
            let stop = Arc::clone(&bg_stop);
            let interval = (shared.lease_ttl / 4).max(Duration::from_millis(10));
            std::thread::spawn(move || {
                let mut last = Instant::now();
                while !stop.load(SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                    if last.elapsed() >= interval {
                        heartbeat_pass(&shared);
                        last = Instant::now();
                    }
                }
            })
        };

        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shutdown.load(SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    conns.push(std::thread::spawn(move || handle_connection(&shared, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conns.retain(|h| !h.is_finished());
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => {
                    // A failed accept (e.g. EMFILE) is transient; back
                    // off instead of spinning.
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }

        // Drain: no new work, finish in-flight responses, interrupt
        // running jobs at their next sweep boundary (checkpoint flushed
        // by the engine), keep queued jobs spooled for restart.
        self.shared.draining.store(true, SeqCst);
        self.shared.queue_cond.notify_all();
        for conn in conns {
            let _ = conn.join();
        }
        for job in lock(&self.shared.jobs).values() {
            if job.state() == JobState::Running {
                job.cancel.store(true, SeqCst);
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
        bg_stop.store(true, SeqCst);
        let _ = janitor.join();
        let _ = heartbeater.join();

        let jobs = lock(&self.shared.jobs);
        DrainReport {
            jobs_total: self.shared.submitted_total.load(SeqCst),
            interrupted: jobs
                .values()
                .filter(|j| j.state() == JobState::Queued && j.progress.snapshot().sweeps > 0)
                .count(),
            queued_left: jobs.values().filter(|j| j.state() == JobState::Queued).count(),
        }
    }
}

/// One worker: pop, run, repeat; exit on drain.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if shared.draining.load(SeqCst) {
                    break None;
                }
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                q = match shared.queue_cond.wait_timeout(q, Duration::from_millis(200)) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let Some(job) = job else { return };
        // A DELETE may have landed while the job sat in the queue.
        if job.state() != JobState::Queued {
            continue;
        }
        shared.busy_workers.fetch_add(1, SeqCst);
        run_job(shared, &job);
        shared.busy_workers.fetch_sub(1, SeqCst);
    }
}

/// Runs one job: lease arbitration first, then the FD pipeline.
fn run_job(shared: &Shared, job: &Job) {
    if job.client_cancelled() {
        job.set_state(JobState::Cancelled);
        let _ = shared.spool.write_state(job.id, "cancelled", None);
        return;
    }
    let dir = shared.spool.job_dir(job.id);
    match lease::acquire_or_steal(&dir, &shared.daemon_id, shared.lease_ttl) {
        Ok(Acquire::Acquired) => {}
        Ok(Acquire::Stolen { from: _ }) => {
            shared.takeovers_total.fetch_add(1, SeqCst);
        }
        Ok(Acquire::Held) | Err(_) => {
            // A live peer owns this job (or the lease file is briefly
            // unreachable). Leave it Queued; the janitor re-enqueues it
            // once the peer finishes, dies, or the fault clears.
            return;
        }
    }
    // The peer that held the lease may have finished the job already;
    // adopt its on-disk result instead of recomputing.
    if let Some(spooled) = shared.spool.load(job.id) {
        if parse_state(&spooled.state).is_some_and(JobState::is_terminal) {
            adopt_disk_record(job, &spooled);
            lease::release(&dir, &shared.daemon_id);
            return;
        }
    }
    execute_job(shared, job);
    lease::release(&dir, &shared.daemon_id);
}

/// The FD pipeline itself, spool-checkpointing as it goes. The caller
/// holds the job's lease.
fn execute_job(shared: &Shared, job: &Job) {
    job.set_state(JobState::Running);
    let _ = shared.spool.write_state(job.id, "running", None);

    let spec = &job.spec;
    let mapper = spec.config.mapper();

    let meta = spec.provenance();
    let cp_path = shared.spool.checkpoint_path(job.id);
    // The engine resumes only from a checkpoint proven to belong to this
    // exact job (same PCN, same configuration) — the `snnmap resume`
    // provenance check, applied automatically. Sim-in-the-loop jobs are
    // never checkpointed (the heat-derived weight field is not part of
    // a checkpoint), so they always start from scratch.
    let resume_from = if spec.config.sim_in_loop.is_none() && cp_path.is_file() {
        match read_checkpoint(&cp_path) {
            Ok((cp, on_disk)) if on_disk == meta && cp.mesh == spec.mesh => Some(cp),
            _ => None,
        }
    } else {
        None
    };

    let writer_path = cp_path.clone();
    let writer_meta = meta;
    let retry_policy = shared.spool.retry_policy();
    let retry_counter = shared.spool.retry_counter();
    // Transient checkpoint-write failures (a briefly full disk, an
    // injected torn write) retry with backoff; only an exhausted budget
    // aborts the run — as `CoreError::CheckpointFailed`, a typed error.
    let mut writer = move |cp: &FdCheckpoint| -> Result<(), String> {
        with_retry(&retry_policy, retry_counter, |_| false, || {
            write_checkpoint(&writer_path, cp, &writer_meta)
        })
        .map_err(|e| e.to_string())
    };
    // Sim-in-the-loop: a seeded NoC replays the PCN's traffic over the
    // evolving placement every `sim_in_loop` sweeps and re-weights the
    // hot routers — the CLI's `--sim-in-loop` hook. An edgeless PCN has
    // no traffic; the engine then falls back to its own heat estimate.
    let mut sim_hook = spec.config.sim_in_loop.and_then(|_| {
        let scale = noc_scale(&spec.pcn);
        (scale > 0.0)
            .then(|| NocReweighter::new(&spec.pcn, scale, REPLAY_CYCLES, spec.config.seed))
    });
    let mut run_opts = FdRunOpts {
        budget: RunBudget {
            deadline: None,
            max_sweeps: spec.max_sweeps,
            cancel: Some(Arc::clone(&job.cancel)),
        },
        resume: resume_from,
        checkpoint_every: (spec.checkpoint_every > 0).then_some(spec.checkpoint_every),
        ..FdRunOpts::default()
    };
    if spec.config.sim_in_loop.is_none() {
        // The engine refuses a checkpoint writer alongside reweighting;
        // `parse_job` already pinned `checkpoint_every` to 0 for these
        // jobs, so no periodic flush is lost by skipping the writer.
        run_opts.on_checkpoint =
            Some(&mut writer as &mut dyn FnMut(&FdCheckpoint) -> Result<(), String>);
    }
    if let Some(hook) = sim_hook.as_mut() {
        run_opts.reweighter = Some(hook);
    }

    let mut sink = ProgressSink::new(Arc::clone(&job.progress));
    let result = mapper.map_budgeted_traced(&spec.pcn, spec.mesh, &mut run_opts, &mut sink);

    match result {
        Ok(outcome) => {
            let stop = outcome.fd_stats.as_ref().map(|s| s.stop);
            if stop == Some(StopReason::Cancelled) {
                if job.client_cancelled() {
                    job.with_inner(|i| {
                        i.state = JobState::Cancelled;
                        i.stop = Some(StopReason::Cancelled.as_str().to_string());
                    });
                    let _ = shared.spool.write_state(job.id, "cancelled", None);
                    return;
                }
                if job.pending_chip_count() == 0 {
                    // Drain interrupt: the engine flushed a checkpoint;
                    // the spooled state stays `running`, so a restart
                    // resumes this job exactly where it stopped.
                    job.set_state(JobState::Queued);
                    return;
                }
                // Chip-fault interrupt: refinement stopped because part
                // of the board just died under it. The best-so-far
                // placement is complete and becomes the `done` result,
                // repaired below before it is published.
            }
            // Chip faults injected while the job was queued or running
            // are repaired into the placement *before* it is published,
            // so a client that sees `done` also sees the repair's dead
            // chips and digest in the same status snapshot.
            let mut placement = outcome.placement;
            let mut applied: Option<FaultMap> = None;
            let mut applied_chips: Vec<u32> = Vec::new();
            let mut degraded: Option<DegradedPlacement> = None;
            while let Some(chip) = job.pop_pending_chip() {
                let previous =
                    applied.clone().unwrap_or_else(|| FaultMap::new(placement.mesh()));
                match repair_chip(&mapper, spec, &mut placement, &previous, chip) {
                    Ok((current, report)) => {
                        applied = Some(current);
                        applied_chips.push(chip);
                        degraded = report.degraded;
                        shared.chip_faults_total.fetch_add(1, SeqCst);
                    }
                    Err(message) => {
                        fail_job(shared, job, &format!("applying chip fault {chip}: {message}"));
                        return;
                    }
                }
            }
            let text = render_placement(&placement);
            let digest = sha256_hex(text.as_bytes());
            if let Err(e) = shared.spool.write_placement(job.id, &text) {
                fail_job(shared, job, &format!("writing placement to spool: {e}"));
                return;
            }
            let stop_label = stop.map(|s| s.as_str().to_string());
            let _ = shared.spool.write_state(job.id, "done", stop_label.as_deref());
            job.with_inner(|i| {
                i.state = JobState::Done;
                i.stop = stop_label;
                i.placement_json = Some(text);
                i.placement_sha256 = Some(digest);
                if applied.is_some() {
                    i.faults = applied;
                    i.dead_chips.extend(applied_chips);
                    i.degraded = degraded;
                }
            });
            // The checkpoint has served its purpose.
            let _ = std::fs::remove_file(&cp_path);
            // A fault that landed between the pre-publish drain above and
            // the state flip is picked up here (or by the handler's own
            // post-push drain — pop atomicity makes either side apply it
            // exactly once).
            while let Some(chip) = job.pop_pending_chip() {
                if let Err(message) = apply_chip_fault(shared, job, chip) {
                    fail_job(shared, job, &format!("applying chip fault {chip}: {message}"));
                    return;
                }
            }
        }
        // Mapper errors — including a worker panic inside the FD engine,
        // surfaced as `CoreError::WorkerPanicked` — fail this job only.
        Err(e) => fail_job(shared, job, &e.to_string()),
    }
}

fn fail_job(shared: &Shared, job: &Job, message: &str) {
    job.with_inner(|i| {
        i.state = JobState::Failed;
        i.error = Some(message.to_string());
    });
    let _ = shared.spool.write_state(job.id, "failed", Some(message));
}

/// Copies a terminal on-disk record into the in-memory job: `done` loads
/// the placement (and its digest), `failed` the error, and a `done`
/// record missing its placement becomes a typed failure.
fn adopt_disk_record(job: &Job, spooled: &SpooledJob) {
    match parse_state(&spooled.state) {
        Some(JobState::Done) => match &spooled.placement {
            Some(text) => job.with_inner(|i| {
                i.state = JobState::Done;
                i.placement_sha256 = Some(sha256_hex(text.as_bytes()));
                i.placement_json = Some(text.clone());
                i.stop = spooled.detail.clone();
            }),
            None => job.with_inner(|i| {
                i.state = JobState::Failed;
                i.error = Some("placement file missing from spool".to_string());
            }),
        },
        Some(JobState::Failed) => job.with_inner(|i| {
            i.state = JobState::Failed;
            i.error = spooled.detail.clone();
        }),
        Some(JobState::Cancelled) => job.set_state(JobState::Cancelled),
        _ => {}
    }
}

/// One janitor sweep over the shared spool. Two duties:
///
/// 1. Local `Queued` jobs that are *not* in the queue (their worker
///    yielded to a peer's lease) — re-enqueue once the peer's lease is
///    gone or expired, or adopt the peer's finished result.
/// 2. Job directories created by peers that this daemon has never seen —
///    terminal ones load as queryable history; non-terminal ones whose
///    lease is free or expired are adopted into the queue (this is how a
///    survivor picks up a crashed peer's jobs).
///
/// The janitor never quarantines: a directory that looks malformed
/// mid-flight may be a live peer's half-created job. Quarantine happens
/// only in [`Server::bind`].
fn janitor_pass(shared: &Shared) {
    let known: Vec<Arc<Job>> = lock(&shared.jobs).values().cloned().collect();
    let enqueued: BTreeSet<u64> = lock(&shared.queue).iter().map(|j| j.id).collect();
    for job in &known {
        if job.state() != JobState::Queued || enqueued.contains(&job.id) {
            continue;
        }
        if let Some(spooled) = shared.spool.load(job.id) {
            if parse_state(&spooled.state).is_some_and(JobState::is_terminal) {
                adopt_disk_record(job, &spooled);
                continue;
            }
        }
        let lease_blocks = lease::read(&shared.spool.job_dir(job.id)).is_some_and(|info| {
            info.owner != shared.daemon_id && !info.is_expired(shared.lease_ttl)
        });
        if !lease_blocks {
            lock(&shared.queue).push_back(Arc::clone(job));
            shared.queue_cond.notify_one();
        }
    }

    let Ok(entries) = shared.spool.scan() else { return };
    for entry in entries {
        let ScanEntry::Job(spooled) = entry else { continue };
        shared.next_id.fetch_max(spooled.id + 1, SeqCst);
        if lock(&shared.jobs).contains_key(&spooled.id) {
            continue;
        }
        let Some(state) = parse_state(&spooled.state) else { continue };
        let Ok(spec) = parse_job(&spooled.request) else { continue };
        if state.is_terminal() {
            let job = Arc::new(Job::new(spooled.id, spec, state));
            adopt_disk_record(&job, &spooled);
            lock(&shared.jobs).insert(spooled.id, job);
            shared.submitted_total.fetch_add(1, SeqCst);
        } else {
            let claimable = match lease::read(&shared.spool.job_dir(spooled.id)) {
                None => true,
                Some(info) => {
                    info.owner == shared.daemon_id || info.is_expired(shared.lease_ttl)
                }
            };
            if !claimable {
                // A live peer is on it; don't even register the job, so
                // a later pass re-evaluates from a clean slate.
                continue;
            }
            let job = Arc::new(Job::new(spooled.id, spec, JobState::Queued));
            lock(&shared.jobs).insert(spooled.id, Arc::clone(&job));
            lock(&shared.queue).push_back(job);
            shared.queue_cond.notify_one();
            shared.submitted_total.fetch_add(1, SeqCst);
        }
    }
}

/// Refreshes the `LEASE` heartbeat of every job this daemon is running.
fn heartbeat_pass(shared: &Shared) {
    let running: Vec<Arc<Job>> = lock(&shared.jobs)
        .values()
        .filter(|j| j.state() == JobState::Running)
        .cloned()
        .collect();
    for job in running {
        let _ = lease::heartbeat(&shared.spool.job_dir(job.id), &shared.daemon_id);
    }
}

/// Halo radius (in hops) around evacuated clusters the chip-repair FD
/// pass may touch.
const REPAIR_RADIUS: u16 = 2;

/// Fixed sweep budget for the region-masked repair FD pass — fixed so a
/// repair is deterministic across daemons, replays, and thread counts.
const REPAIR_SWEEPS: u64 = 16;

/// Kills one chip on top of `previous` and runs the board-aware
/// incremental repair on `placement` (evacuation plus a fixed-budget,
/// capacity-respecting local FD pass). Returns the new fault map and the
/// repair report.
fn repair_chip(
    mapper: &Mapper,
    spec: &JobSpec,
    placement: &mut snnmap_hw::Placement,
    previous: &FaultMap,
    chip: u32,
) -> Result<(FaultMap, snnmap_core::RepairReport), String> {
    let board = spec.config.board.as_ref().ok_or("job has no board")?;
    let mut current = previous.clone();
    current.kill_chip(board, chip).map_err(|e| e.to_string())?;
    let budget = RunBudget { max_sweeps: Some(REPAIR_SWEEPS), ..RunBudget::default() };
    let report = mapper
        .repair_incremental_traced(
            &spec.pcn,
            placement,
            previous,
            &current,
            REPAIR_RADIUS,
            budget,
            &mut NoopSink,
        )
        .map_err(|e| e.to_string())?;
    Ok((current, report))
}

/// Outcome summary of one applied chip fault, for the response body.
struct ChipRepair {
    moved: u64,
    region_cores: u64,
    degraded: Option<DegradedPlacement>,
    placement_sha256: String,
}

/// Applies one whole-chip loss to a finished job: kills the chip in the
/// job's accumulated fault map, runs the board-aware incremental repair
/// (evacuation + capacity-respecting local FD), and persists the
/// repaired placement to the spool.
///
/// The job stays `done` whatever the capacity situation — when the
/// survivors cannot absorb the load, the repair commits the placeable
/// subset and the typed [`DegradedPlacement`] lands in the status JSON.
/// A second loss of the same chip reports zero new dead cores and
/// performs no moves (repair is idempotent).
fn apply_chip_fault(shared: &Shared, job: &Job, chip: u32) -> Result<ChipRepair, String> {
    let _gate = job.repair_lock();
    let Some(board) = job.spec.config.board.clone() else {
        return Err("job has no board".to_string());
    };
    let mapper = job.spec.config.mapper();
    let (text, previous) = job.with_inner(|i| (i.placement_json.clone(), i.faults.clone()));
    let text = text.ok_or("job has no placement")?;
    let mut placement = parse_placement(&text).map_err(|e| e.to_string())?;
    let previous = previous.unwrap_or_else(|| FaultMap::new(board.mesh()));
    let (current, report) = repair_chip(&mapper, &job.spec, &mut placement, &previous, chip)?;
    let text = render_placement(&placement);
    let digest = sha256_hex(text.as_bytes());
    shared.spool.write_placement(job.id, &text).map_err(|e| e.to_string())?;
    job.with_inner(|i| {
        i.placement_json = Some(text);
        i.placement_sha256 = Some(digest.clone());
        i.faults = Some(current);
        if !i.dead_chips.contains(&chip) {
            i.dead_chips.push(chip);
        }
        i.degraded = report.degraded.clone();
    });
    shared.chip_faults_total.fetch_add(1, SeqCst);
    Ok(ChipRepair {
        moved: report.moved,
        region_cores: report.region_cores,
        degraded: report.degraded,
        placement_sha256: digest,
    })
}

/// Handles one connection: one request, one response, close — all of it
/// inside the configured I/O deadline, so no client behavior (slow
/// loris, stalled body, mid-body disconnect) can wedge this thread.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    let deadline = Instant::now() + shared.io_timeout;
    let request = match http::read_request(&mut stream, deadline) {
        Ok(Some(request)) => request,
        Ok(None) => return,
        Err(bad) => {
            if bad.status == 408 {
                shared.timeouts_total.fetch_add(1, SeqCst);
            }
            let _ = http::respond_error(&mut stream, bad.status, bad.reason, &bad.message);
            return;
        }
    };
    let _ = route(shared, &request, &mut stream);
}

/// Dispatches one request to its handler.
fn route(shared: &Shared, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/jobs") => post_job(shared, req, stream),
        ("POST", "/faults/chip") => post_chip_fault(shared, req, stream),
        ("GET", "/healthz") => {
            let body = serde_json::json!({ "status": "ok" });
            respond_json(stream, 200, "OK", &body)
        }
        ("GET", "/metrics") => {
            let page = metrics::render(shared);
            http::respond(stream, 200, "OK", "text/plain; version=0.0.4", page.as_bytes())
        }
        (method, path) => match (method, parse_job_path(path)) {
            ("GET", Some((id, false))) => get_job(shared, id, stream),
            ("GET", Some((id, true))) => get_placement(shared, id, stream),
            ("DELETE", Some((id, false))) => delete_job(shared, id, stream),
            _ => http::respond_error(stream, 404, "Not Found", &format!("{method} {path}")),
        },
    }
}

/// `/jobs/{id}` → `(id, false)`; `/jobs/{id}/placement` → `(id, true)`.
fn parse_job_path(path: &str) -> Option<(u64, bool)> {
    let rest = path.strip_prefix("/jobs/")?;
    let (id, placement) = match rest.strip_suffix("/placement") {
        Some(id) => (id, true),
        None => (rest, false),
    };
    if id.is_empty() || id.contains('/') {
        return None;
    }
    id.parse().ok().map(|id| (id, placement))
}

/// `Retry-After` hint on 503: a drain ends with a daemon restart (or a
/// peer taking over), which takes seconds, not milliseconds.
const RETRY_AFTER_DRAINING: &str = "5";

/// `Retry-After` hint on 429: queue pressure clears as fast as one job
/// finishes.
const RETRY_AFTER_QUEUE_FULL: &str = "1";

fn post_job(shared: &Shared, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    if shared.draining.load(SeqCst) {
        return http::respond_error_with_headers(
            stream,
            503,
            "Service Unavailable",
            &[("Retry-After", RETRY_AFTER_DRAINING.to_string())],
            "daemon is draining",
        );
    }
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return http::respond_error(stream, 400, "Bad Request", "body is not UTF-8");
    };
    let spec = match parse_job(body) {
        Ok(spec) => spec,
        Err(e) => return http::respond_error(stream, 400, "Bad Request", &e.to_string()),
    };
    if lock(&shared.queue).len() >= shared.queue_capacity {
        return http::respond_error_with_headers(
            stream,
            429,
            "Too Many Requests",
            &[("Retry-After", RETRY_AFTER_QUEUE_FULL.to_string())],
            &format!("queue is full ({} jobs)", shared.queue_capacity),
        );
    }
    // Spool before acknowledging: every job a client has an id for
    // survives a crash. `create_job`'s `create_dir` is the id arbiter
    // between daemons sharing the spool — on a collision (a peer
    // allocated this id first), advance and try the next one.
    let mut id = shared.next_id.fetch_add(1, SeqCst);
    loop {
        match shared.spool.create_job(id, body) {
            Ok(()) => break,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                shared.next_id.fetch_max(id + 1, SeqCst);
                id = shared.next_id.fetch_add(1, SeqCst);
            }
            Err(e) => {
                return http::respond_error(
                    stream,
                    500,
                    "Internal Server Error",
                    &format!("spooling job: {e}"),
                );
            }
        }
    }
    let job = Arc::new(Job::new(id, spec, JobState::Queued));
    lock(&shared.jobs).insert(id, Arc::clone(&job));
    lock(&shared.queue).push_back(job);
    shared.queue_cond.notify_one();
    shared.submitted_total.fetch_add(1, SeqCst);
    let body = serde_json::json!({ "id": id, "state": "queued" });
    respond_json(stream, 201, "Created", &body)
}

/// The `POST /faults/chip` body.
#[derive(serde::Deserialize)]
struct ChipFaultDoc {
    /// The target job.
    id: u64,
    /// The chip to kill (row-major chip index on the job's board).
    chip: u32,
}

/// `POST /faults/chip` — injects a whole-chip loss into a board job.
///
/// A `done` job is repaired synchronously (`200` with the repair
/// summary). A `queued` or `running` job records the fault as pending
/// (`202`); injection into a running job additionally raises the
/// engine's cancel flag, so refinement stops at the next sweep boundary
/// and the worker repairs the best-so-far placement online. Jobs without
/// a board, terminal-failed/cancelled jobs, and repeat kills of the same
/// chip conflict (`409`).
fn post_chip_fault(shared: &Shared, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return http::respond_error(stream, 400, "Bad Request", "body is not UTF-8");
    };
    // Hardened like every network-facing parser in this workspace.
    if let Err(e) = reject_duplicate_keys(body) {
        return http::respond_error(stream, 400, "Bad Request", &e.to_string());
    }
    let doc: ChipFaultDoc = match serde_json::from_str(body) {
        Ok(doc) => doc,
        Err(e) => return http::respond_error(stream, 400, "Bad Request", &e.to_string()),
    };
    let Some(job) = lock(&shared.jobs).get(&doc.id).cloned() else {
        return no_such_job(stream, doc.id);
    };
    let Some(board) = &job.spec.config.board else {
        return http::respond_error(
            stream,
            409,
            "Conflict",
            &format!("job {} has no board; submit it with a `board` to inject chip faults", doc.id),
        );
    };
    if doc.chip >= board.num_chips() {
        return http::respond_error(
            stream,
            400,
            "Bad Request",
            &format!("chip {} outside the job's {}-chip board", doc.chip, board.num_chips()),
        );
    }
    let already = job.with_inner(|i| i.dead_chips.contains(&doc.chip));
    if already {
        return http::respond_error(
            stream,
            409,
            "Conflict",
            &format!("chip {} of job {} is already dead", doc.chip, doc.id),
        );
    }
    match job.state() {
        JobState::Done => match apply_chip_fault(shared, &job, doc.chip) {
            Ok(repair) => {
                let body = serde_json::json!({
                    "id": doc.id,
                    "chip": doc.chip,
                    "state": "done",
                    "moved": repair.moved,
                    "region_cores": repair.region_cores,
                    "degraded": repair.degraded.as_ref().map(degraded_value),
                    "placement_sha256": repair.placement_sha256,
                });
                respond_json(stream, 200, "OK", &body)
            }
            Err(message) => http::respond_error(
                stream,
                500,
                "Internal Server Error",
                &format!("repairing job {} after losing chip {}: {message}", doc.id, doc.chip),
            ),
        },
        state @ (JobState::Queued | JobState::Running) => {
            if !job.push_pending_chip(doc.chip) {
                return http::respond_error(
                    stream,
                    409,
                    "Conflict",
                    &format!("chip {} of job {} is already scheduled to die", doc.chip, doc.id),
                );
            }
            // Stop refining a layout whose board just lost a chip; the
            // worker finishes with the best-so-far placement and repairs
            // it. (Raised for queued jobs too: their run stops at the
            // first sweep boundary and goes straight to repair — the
            // hardware is already degraded, so long refinement of the
            // pre-fault layout would be wasted work.)
            job.cancel.store(true, SeqCst);
            // The worker may have finished between the state read and the
            // push; drain here so the fault is never stranded.
            if job.state() == JobState::Done {
                while let Some(chip) = job.pop_pending_chip() {
                    if let Err(message) = apply_chip_fault(shared, &job, chip) {
                        return http::respond_error(
                            stream,
                            500,
                            "Internal Server Error",
                            &format!(
                                "repairing job {} after losing chip {chip}: {message}",
                                doc.id
                            ),
                        );
                    }
                }
            }
            let body = serde_json::json!({
                "id": doc.id,
                "chip": doc.chip,
                "state": state.as_str(),
                "pending": true,
            });
            respond_json(stream, 202, "Accepted", &body)
        }
        state => http::respond_error(
            stream,
            409,
            "Conflict",
            &format!("job {} is {state}; chip faults apply to queued, running, or done jobs", doc.id),
        ),
    }
}

/// Renders a [`DegradedPlacement`] for status/repair JSON bodies.
fn degraded_value(d: &DegradedPlacement) -> serde_json::Value {
    serde_json::json!({
        "unplaced": d.unplaced,
        "demand_neurons": d.demand_neurons,
        "demand_synapses": d.demand_synapses,
        "spare_neurons": d.spare_neurons,
        "spare_synapses": d.spare_synapses,
    })
}

fn get_job(shared: &Shared, id: u64, stream: &mut TcpStream) -> std::io::Result<()> {
    let Some(job) = lock(&shared.jobs).get(&id).cloned() else {
        return no_such_job(stream, id);
    };
    let snap = job.progress.snapshot();
    let (state, error, stop, sha, dead_chips, degraded) = job.with_inner(|i| {
        (
            i.state,
            i.error.clone(),
            i.stop.clone(),
            i.placement_sha256.clone(),
            i.dead_chips.clone(),
            i.degraded.clone(),
        )
    });
    let body = serde_json::json!({
        "id": job.id,
        "state": state.as_str(),
        "clusters": job.spec.pcn.num_clusters(),
        "mesh": format!("{}x{}", job.spec.mesh.rows(), job.spec.mesh.cols()),
        "board": opt_value(job.spec.config.board.as_ref().map(|b| b.to_string())),
        "objective": job.spec.config.objective.label(),
        "sim_in_loop": opt_value(job.spec.config.sim_in_loop),
        "sweeps": snap.sweeps,
        "swaps": snap.swaps,
        "energy": opt_value(snap.energy),
        "stop": opt_value(stop),
        "error": opt_value(error),
        "placement_sha256": opt_value(sha),
        "dead_chips": dead_chips,
        "degraded": degraded.as_ref().map(degraded_value),
    });
    respond_json(stream, 200, "OK", &body)
}

fn get_placement(shared: &Shared, id: u64, stream: &mut TcpStream) -> std::io::Result<()> {
    let Some(job) = lock(&shared.jobs).get(&id).cloned() else {
        return no_such_job(stream, id);
    };
    let (state, placement) = job.with_inner(|i| (i.state, i.placement_json.clone()));
    match placement {
        Some(text) if state == JobState::Done => {
            http::respond(stream, 200, "OK", "application/json", text.as_bytes())
        }
        _ => http::respond_error(
            stream,
            409,
            "Conflict",
            &format!("job {id} is {state}, not done"),
        ),
    }
}

fn delete_job(shared: &Shared, id: u64, stream: &mut TcpStream) -> std::io::Result<()> {
    let Some(job) = lock(&shared.jobs).get(&id).cloned() else {
        return no_such_job(stream, id);
    };
    let state = job.state();
    if state.is_terminal() {
        return http::respond_error(
            stream,
            409,
            "Conflict",
            &format!("job {id} is already {state}"),
        );
    }
    job.client_cancelled.store(true, SeqCst);
    job.cancel.store(true, SeqCst);
    // A queued job cancels immediately; a running one stops at the FD
    // engine's next sweep boundary (its worker persists the state).
    let state = if state == JobState::Queued {
        job.set_state(JobState::Cancelled);
        let _ = shared.spool.write_state(id, "cancelled", None);
        JobState::Cancelled
    } else {
        state
    };
    let body = serde_json::json!({ "id": id, "state": state.as_str() });
    respond_json(stream, 202, "Accepted", &body)
}

fn no_such_job(stream: &mut TcpStream, id: u64) -> std::io::Result<()> {
    http::respond_error(stream, 404, "Not Found", &format!("no job {id}"))
}

fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    body: &serde_json::Value,
) -> std::io::Result<()> {
    let text = serde_json::to_string(body).unwrap_or_default();
    http::respond(stream, status, reason, "application/json", text.as_bytes())
}

/// `Some(v)` → its JSON value, `None` → `null`.
fn opt_value<T: serde::Serialize>(v: Option<T>) -> serde_json::Value {
    match v {
        Some(v) => serde_json::to_value(&v),
        None => serde_json::Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_core::{InitialPlacement, Potential};
    use snnmap_io::render_pcn;
    use snnmap_model::generators::random_pcn;

    /// Minimal blocking HTTP client for the tests.
    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        use std::io::{Read as _, Write as _};
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send");
        let mut text = String::new();
        stream.read_to_string(&mut text).expect("read");
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response: {text}"));
        let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    fn json_field(body: &str, key: &str) -> serde_json::Value {
        let value: serde_json::Value = serde_json::from_str(body).expect("response is JSON");
        value.as_object().and_then(|o| o.get(key)).cloned().unwrap_or(serde_json::Value::Null)
    }

    fn json_u64(body: &str, key: &str) -> u64 {
        match json_field(body, key) {
            serde_json::Value::Number(n) => n.as_f64() as u64,
            other => panic!("`{key}` is not a number: {other:?}"),
        }
    }

    fn temp_config(tag: &str) -> ServeConfig {
        let spool_dir = std::env::temp_dir().join(format!("snnmap_serve_server_{tag}"));
        let _ = std::fs::remove_dir_all(&spool_dir);
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            spool_dir,
            queue_capacity: 8,
            ..ServeConfig::default()
        }
    }

    fn job_body(clusters: u32, seed: u64, max_sweeps: u64) -> String {
        let pcn = random_pcn(clusters, 3.0, seed).unwrap();
        let body = serde_json::json!({
            "format": "snnmap-job-v1",
            "pcn": render_pcn(&pcn),
            "max_sweeps": max_sweeps,
        });
        serde_json::to_string(&body).unwrap()
    }

    fn wait_terminal(addr: SocketAddr, id: u64) -> (String, String) {
        for _ in 0..600 {
            let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200, "{body}");
            let state = json_field(&body, "state").as_str().unwrap_or_default().to_string();
            if ["done", "failed", "cancelled"].contains(&state.as_str()) {
                return (state, body);
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("job {id} never reached a terminal state");
    }

    #[test]
    fn round_trip_matches_the_offline_mapper() {
        let server = Server::bind(&temp_config("roundtrip")).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));

        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200, "{body}");

        let (status, body) = request(addr, "POST", "/jobs", &job_body(60, 7, 12));
        assert_eq!(status, 201, "{body}");
        let id = json_u64(&body, "id");
        let (state, status_body) = wait_terminal(addr, id);
        assert_eq!(state, "done", "{status_body}");
        assert_eq!(
            json_field(&status_body, "stop").as_str(),
            Some("sweep_cap_reached"),
            "{status_body}"
        );

        let (status, placement) = request(addr, "GET", &format!("/jobs/{id}/placement"), "");
        assert_eq!(status, 200);
        // Byte-for-byte what the offline pipeline produces.
        let pcn = random_pcn(60, 3.0, 7).unwrap();
        let mesh = snnmap_hw::Mesh::square_for(60).unwrap();
        let mut opts = FdRunOpts {
            budget: RunBudget { max_sweeps: Some(12), ..RunBudget::default() },
            ..FdRunOpts::default()
        };
        let offline = Mapper::builder()
            .initial_placement(InitialPlacement::Hilbert)
            .potential(Potential::L2Squared)
            .lambda(0.3)
            .build()
            .map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink)
            .unwrap();
        assert_eq!(placement, render_placement(&offline.placement));
        assert_eq!(
            json_field(&status_body, "placement_sha256").as_str(),
            Some(sha256_hex(placement.as_bytes()).as_str())
        );

        let (status, metrics_page) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(metrics_page.contains("snnmap_serve_jobs{state=\"done\"} 1"), "{metrics_page}");
        assert!(metrics_page.contains("snnmap_serve_workers 2"), "{metrics_page}");

        shutdown.store(true, SeqCst);
        let report = handle.join().unwrap();
        assert_eq!(report.jobs_total, 1);
        assert_eq!(report.queued_left, 0);
    }

    #[test]
    fn objective_jobs_run_sim_in_loop_and_match_the_offline_mapper() {
        let server = Server::bind(&temp_config("objective")).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));

        let pcn = random_pcn(36, 3.0, 9).unwrap();
        let body = serde_json::json!({
            "format": "snnmap-job-v1",
            "pcn": render_pcn(&pcn),
            "max_sweeps": 8,
            "objective": "composite",
            "lambda_congestion": 1.5,
            "sim_in_loop": 2,
        });
        let (status, body) =
            request(addr, "POST", "/jobs", &serde_json::to_string(&body).unwrap());
        assert_eq!(status, 201, "{body}");
        let id = json_u64(&body, "id");
        let (state, status_body) = wait_terminal(addr, id);
        assert_eq!(state, "done", "{status_body}");
        assert_eq!(json_field(&status_body, "objective").as_str(), Some("composite"));
        assert_eq!(json_u64(&status_body, "sim_in_loop"), 2, "{status_body}");

        // Byte-for-byte what the CLI-shaped offline pipeline produces
        // with the same objective, cadence, and seeded NoC hook.
        let (status, placement) = request(addr, "GET", &format!("/jobs/{id}/placement"), "");
        assert_eq!(status, 200);
        let mesh = snnmap_hw::Mesh::square_for(36).unwrap();
        let mut hook = NocReweighter::new(&pcn, noc_scale(&pcn), REPLAY_CYCLES, 42);
        let mut opts = FdRunOpts {
            budget: RunBudget { max_sweeps: Some(8), ..RunBudget::default() },
            ..FdRunOpts::default()
        };
        opts.reweighter = Some(&mut hook);
        let offline = Mapper::builder()
            .initial_placement(InitialPlacement::Hilbert)
            .potential(Potential::L2Squared)
            .lambda(0.3)
            .objective(snnmap_core::Objective::Composite { lambda_c: 1.5, lambda_t: 0.0 })
            .reweight_every(2)
            .build()
            .map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink)
            .unwrap();
        assert_eq!(placement, render_placement(&offline.placement));

        // Checkpoint-incompatible knob combinations die at submission.
        let bad = serde_json::json!({
            "format": "snnmap-job-v1",
            "pcn": render_pcn(&pcn),
            "objective": "congestion",
            "sim_in_loop": 2,
            "checkpoint_every": 4,
        });
        let (status, body) =
            request(addr, "POST", "/jobs", &serde_json::to_string(&bad).unwrap());
        assert_eq!(status, 400, "{body}");

        shutdown.store(true, SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn chip_fault_on_a_done_board_job_repairs_in_place() {
        let server = Server::bind(&temp_config("chipfault")).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));

        const BOARD: &str = "2x2/4x4@4096,65536";
        let pcn = random_pcn(40, 3.0, 7).unwrap();
        let body = serde_json::json!({
            "format": "snnmap-job-v1",
            "pcn": render_pcn(&pcn),
            "board": BOARD,
            "max_sweeps": 8,
        });
        let (status, body) = request(addr, "POST", "/jobs", &serde_json::to_string(&body).unwrap());
        assert_eq!(status, 201, "{body}");
        let id = json_u64(&body, "id");
        let (state, status_body) = wait_terminal(addr, id);
        assert_eq!(state, "done", "{status_body}");
        assert!(
            json_field(&status_body, "board").as_str().unwrap_or_default().contains("2x2 chips"),
            "{status_body}"
        );

        // Kill chip 3; the repair summary comes back synchronously.
        let fault = format!("{{\"id\": {id}, \"chip\": 3}}");
        let (status, body) = request(addr, "POST", "/faults/chip", &fault);
        assert_eq!(status, 200, "{body}");
        assert!(json_field(&body, "degraded").is_null(), "{body}");
        let sha = json_field(&body, "placement_sha256").as_str().unwrap().to_string();

        // The repaired placement is capacity-valid on the faulted board.
        let (status, placement_text) = request(addr, "GET", &format!("/jobs/{id}/placement"), "");
        assert_eq!(status, 200);
        assert_eq!(sha256_hex(placement_text.as_bytes()), sha);
        let placement = snnmap_io::parse_placement(&placement_text).unwrap();
        let board = snnmap_hw::Board::parse(BOARD).unwrap();
        let mut faults = FaultMap::new(board.mesh());
        faults.kill_chip(&board, 3).unwrap();
        let report =
            snnmap_core::validate_board(&pcn, &placement, Some(&faults), &board).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations());

        // Status reflects the loss; sha matches the repaired document.
        let (status, status_body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        assert_eq!(serde_json::to_string(&json_field(&status_body, "dead_chips")).unwrap(), "[3]", "{status_body}");
        assert_eq!(json_field(&status_body, "placement_sha256").as_str(), Some(sha.as_str()));

        // Guard rails: repeat kill conflicts, out-of-range chip and
        // duplicate keys are bad requests, unknown jobs are 404, and a
        // boardless job refuses injection.
        let (status, body) = request(addr, "POST", "/faults/chip", &fault);
        assert_eq!(status, 409, "{body}");
        let (status, _) =
            request(addr, "POST", "/faults/chip", &format!("{{\"id\": {id}, \"chip\": 99}}"));
        assert_eq!(status, 400);
        let dup = format!("{{\"id\": {id}, \"id\": {id}, \"chip\": 2}}");
        let (status, body) = request(addr, "POST", "/faults/chip", &dup);
        assert_eq!(status, 400);
        assert!(body.contains("duplicate JSON key"), "{body}");
        let (status, _) = request(addr, "POST", "/faults/chip", "{\"id\": 999, \"chip\": 0}");
        assert_eq!(status, 404);
        let (status, body) = request(addr, "POST", "/jobs", &job_body(12, 1, 4));
        assert_eq!(status, 201, "{body}");
        let plain = json_u64(&body, "id");
        wait_terminal(addr, plain);
        let (status, body) =
            request(addr, "POST", "/faults/chip", &format!("{{\"id\": {plain}, \"chip\": 0}}"));
        assert_eq!(status, 409);
        assert!(body.contains("no board"), "{body}");

        let (status, metrics_page) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        assert!(metrics_page.contains("snnmap_serve_chip_faults_total 1"), "{metrics_page}");

        shutdown.store(true, SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn chip_fault_beyond_capacity_degrades_without_killing_the_daemon() {
        let server = Server::bind(&temp_config("degraded")).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));

        // Four 1-neuron clusters exactly fill a 1x4 mesh of 1-neuron
        // cores; losing chip 1 (two cores) leaves zero spare capacity.
        let pcn_text = "pcn v1\nclusters 4\ncluster 0 1 0\ncluster 1 1 0\n\
                        cluster 2 1 0\ncluster 3 1 0\nedge 0 1 1.0\nedge 2 3 1.0\n";
        let body = serde_json::json!({
            "format": "snnmap-job-v1",
            "pcn": pcn_text,
            "board": "1x2/1x2@1,64",
            "max_sweeps": 4,
        });
        let (status, body) = request(addr, "POST", "/jobs", &serde_json::to_string(&body).unwrap());
        assert_eq!(status, 201, "{body}");
        let id = json_u64(&body, "id");
        let (state, _) = wait_terminal(addr, id);
        assert_eq!(state, "done");

        let (status, body) =
            request(addr, "POST", "/faults/chip", &format!("{{\"id\": {id}, \"chip\": 1}}"));
        assert_eq!(status, 200, "{body}");
        let degraded = json_field(&body, "degraded");
        let unplaced = degraded
            .as_object()
            .and_then(|o| o.get("unplaced"))
            .and_then(|u| u.as_array())
            .expect("degraded report with unplaced list");
        assert_eq!(unplaced.len(), 2, "{body}");

        // The job is still done, the degraded report is in the status,
        // and the daemon is alive and well.
        let (status, status_body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        assert_eq!(json_field(&status_body, "state").as_str(), Some("done"));
        assert!(!json_field(&status_body, "degraded").is_null(), "{status_body}");
        let (status, _) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);

        shutdown.store(true, SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn chip_fault_interrupts_a_running_board_job() {
        let server = Server::bind(&temp_config("chiplive")).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));

        const BOARD: &str = "2x2/16x16@4096,65536";
        let pcn = random_pcn(400, 3.0, 11).unwrap();
        let body = serde_json::json!({
            "format": "snnmap-job-v1",
            "pcn": render_pcn(&pcn),
            "board": BOARD,
            "max_sweeps": 100_000,
        });
        let (status, body) = request(addr, "POST", "/jobs", &serde_json::to_string(&body).unwrap());
        assert_eq!(status, 201, "{body}");
        let id = json_u64(&body, "id");

        // Inject the loss while the job is queued or running; either way
        // it is accepted as pending and applied by the worker.
        let (status, body) =
            request(addr, "POST", "/faults/chip", &format!("{{\"id\": {id}, \"chip\": 2}}"));
        assert!(status == 202 || status == 200, "{status}: {body}");

        let (state, status_body) = wait_terminal(addr, id);
        assert_eq!(state, "done", "{status_body}");
        assert_eq!(serde_json::to_string(&json_field(&status_body, "dead_chips")).unwrap(), "[2]", "{status_body}");

        let (status, placement_text) = request(addr, "GET", &format!("/jobs/{id}/placement"), "");
        assert_eq!(status, 200);
        let placement = snnmap_io::parse_placement(&placement_text).unwrap();
        let board = snnmap_hw::Board::parse(BOARD).unwrap();
        let mut faults = FaultMap::new(board.mesh());
        faults.kill_chip(&board, 2).unwrap();
        let report =
            snnmap_core::validate_board(&pcn, &placement, Some(&faults), &board).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations());

        shutdown.store(true, SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn bad_requests_get_typed_errors_and_delete_cancels() {
        let server = Server::bind(&temp_config("errors")).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&flag));

        let (status, _) = request(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "GET", "/jobs/999", "");
        assert_eq!(status, 404);
        let (status, body) = request(addr, "POST", "/jobs", "{\"format\": \"wrong\"}");
        assert_eq!(status, 400, "{body}");
        // Duplicate keys are rejected with the typed io error.
        let dup = job_body(12, 1, 4).replacen('{', "{\"seed\": 1, \"seed\": 2, ", 1);
        let (status, body) = request(addr, "POST", "/jobs", &dup);
        assert_eq!(status, 400);
        assert!(body.contains("duplicate JSON key"), "{body}");

        // Cancel: big enough to still be queued or running when the
        // DELETE lands; either way it must land terminal-cancelled
        // without producing a placement.
        let (status, body) = request(addr, "POST", "/jobs", &job_body(400, 3, 100_000));
        assert_eq!(status, 201, "{body}");
        let id = json_u64(&body, "id");
        let (status, body) = request(addr, "DELETE", &format!("/jobs/{id}"), "");
        assert_eq!(status, 202, "{body}");
        let (state, _) = wait_terminal(addr, id);
        assert_eq!(state, "cancelled");
        let (status, _) = request(addr, "GET", &format!("/jobs/{id}/placement"), "");
        assert_eq!(status, 409);
        // Cancelling a terminal job conflicts.
        let (status, _) = request(addr, "DELETE", &format!("/jobs/{id}"), "");
        assert_eq!(status, 409);

        shutdown.store(true, SeqCst);
        handle.join().unwrap();
    }
}
