//! Scoped-thread data-parallel helpers.
//!
//! The build environment has no access to crates.io, so instead of rayon
//! this module provides the three primitives the mapping pipeline needs,
//! built on [`std::thread::scope`]:
//!
//! * [`try_par_update_tuned`] — mutate a slice element-wise in place (a
//!   fill from an index is an update that ignores the old value);
//! * [`try_par_flat_map_tuned`] — map an index range through a collector
//!   and concatenate the per-chunk results in index order;
//! * [`try_par_block_sum`] — reduce an index range to an `f64` in
//!   *fixed-size blocks* whose partial sums are combined in block order.
//!
//! All three sit on one private fan-out: it splits the work into
//! contiguous chunks, runs chunk 0 on the calling thread and every other
//! chunk on a scoped worker, and joins the results in chunk order.
//! Results are **bit-identical for every thread count**: chunks are
//! processed left to right, per-element computations are pure, and every
//! merge happens in deterministic index (or block) order. Floating-point
//! reductions never depend on how many workers ran — [`try_par_block_sum`]
//! fixes the block boundaries independently of the thread count, so the
//! rounding of each partial sum is reproducible. This is what lets the
//! Force-Directed engine guarantee byte-identical placements for
//! `threads = 1, 2, 4, …`.
//!
//! Threads are spawned per call (scoped, borrowing the caller's data) and
//! joined before returning; small inputs run inline on the calling thread
//! so the spawn cost is only paid where it can be amortized. The serial
//! cutoff is a fixed floor (`MIN_ITEMS_PER_THREAD`, 2048 items per extra
//! worker) for [`try_par_block_sum`], and a *measured* one for the
//! `*_tuned` helpers: a [`Tuner`] turns observed items/µs throughput into
//! the smallest batch that still amortizes a spawn, so expensive per-item
//! work fans out sooner and cheap scans don't drown in spawn overhead. A
//! fresh [`Tuner`] starts at the fixed floor.
//! Tuning only ever moves the serial/parallel cutoff — the *results* are
//! thread-count independent by construction, so feedback from noisy
//! clocks cannot perturb a single output bit.
//!
//! **Panic isolation**: every chunk runs under
//! [`std::panic::catch_unwind`], so a panicking closure surfaces as a
//! typed [`WorkerPanic`] instead of aborting the process mid-scope. The
//! first panic in chunk order wins, so the reported error is the same
//! for every interleaving.

use std::any::Any;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Work below this many items per *extra* worker is done serially: a
/// thread spawn costs tens of microseconds, which only pays for itself on
/// chunks of at least a few thousand cheap items. This is the block
/// sum's floor and an unsampled [`Tuner`]'s; a sampled one replaces it
/// with a measured floor.
const MIN_ITEMS_PER_THREAD: usize = 2048;

/// Assumed cost of spawning and joining one scoped worker, in
/// microseconds. Deliberately conservative (glibc + Linux measure
/// 10–25 µs); the tuner uses it as a unit of overhead to amortize, not
/// as a precise model.
const SPAWN_COST_US: f64 = 30.0;

/// A worker's chunk must be worth this many spawn costs before fanning
/// out: ~4× keeps the spawn overhead under ~25% of the parallel phase
/// even when the throughput estimate is off by a factor of two.
const SPAWN_AMORTIZE: f64 = 4.0;

/// Clamp bounds of the tuned per-worker work floor. The lower bound
/// stops a noisy slow sample from parallelizing trivial scans; the upper
/// stops a fast-scan sample from serializing genuinely large jobs.
const MIN_GRAIN: usize = 64;
const MAX_GRAIN: usize = 65_536;

/// Process-wide utilization counters: every helper invocation bumps
/// `CALLS` and adds its domain size to `ITEMS`; invocations that
/// actually fan out bump `PARALLEL_CALLS` and add their extra workers to
/// `WORKERS`; `BUSY_NS` accumulates wall time spent inside helpers.
/// Relaxed atomics: the counters feed telemetry deltas, never
/// synchronization, and a few increments per helper call are noise next
/// to a thread spawn.
static CALLS: AtomicU64 = AtomicU64::new(0);
static PARALLEL_CALLS: AtomicU64 = AtomicU64::new(0);
static WORKERS: AtomicU64 = AtomicU64::new(0);
static ITEMS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's share of the counters (see [`thread_counters`]).
    static THREAD: Cell<ParCounters> = Cell::new(ParCounters::default());
}

/// Adds `n` to a process-wide counter and to the same field of the
/// calling thread's share. Helpers count only from the thread that
/// invoked them (never from their workers), so the share is exact.
fn bump(global: &AtomicU64, n: u64, field: fn(&mut ParCounters) -> &mut u64) {
    global.fetch_add(n, Relaxed);
    THREAD.with(|t| {
        let mut c = t.get();
        *field(&mut c) += n;
        t.set(c);
    });
}

/// A worker closure panicked inside a parallel helper.
///
/// Carries the panic message (when the payload was a string, which
/// `panic!` produces) so callers can surface *why* the chunk was
/// poisoned. Returned by every helper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    message: String,
}

impl WorkerPanic {
    fn from_payload(payload: &(dyn Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "worker panicked with a non-string payload".to_owned()
        };
        WorkerPanic { message }
    }

    /// The panic message of the poisoned chunk.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parallel worker panicked: {}", self.message)
    }
}

impl Error for WorkerPanic {}

/// Counts one helper invocation over a domain of `n` items.
fn count_call(n: usize) {
    bump(&CALLS, 1, |c| &mut c.calls);
    bump(&ITEMS, n as u64, |c| &mut c.items);
}

/// Test-only fault injection for the panic-isolation path.
///
/// Not part of the public API surface (hidden from docs); always compiled
/// so integration tests and downstream crates' tests can arm it without a
/// feature flag. Arming is scoped to the arming thread: only workers that
/// thread spawns count down, so tests running concurrently in the same
/// process never consume each other's injection. Disarmed it costs one
/// thread-local read per helper call that spawns workers — the serial
/// fallback never injects, so recovery paths that deliberately run
/// serially (e.g. the checkpoint flush after a worker panic) cannot
/// re-trigger it.
#[doc(hidden)]
pub mod hooks {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicI64, Ordering::Relaxed};
    use std::sync::Arc;

    thread_local! {
        /// This thread's countdown: spawned-worker chunks left before one
        /// panics. `None` means disarmed.
        static COUNTDOWN: RefCell<Option<Arc<AtomicI64>>> = const { RefCell::new(None) };
    }

    /// The message the injected panic carries.
    pub const INJECTED_PANIC: &str = "injected worker panic (test hook)";

    /// Arms the hook on the calling thread: the `(skip + 1)`-th worker
    /// chunk spawned by this thread from now panics with
    /// [`INJECTED_PANIC`].
    pub fn fail_after(skip: u64) {
        let countdown = Arc::new(AtomicI64::new(i64::try_from(skip).unwrap_or(i64::MAX)));
        COUNTDOWN.with(|c| *c.borrow_mut() = Some(countdown));
    }

    /// Disarms the hook on the calling thread.
    pub fn disarm() {
        COUNTDOWN.with(|c| *c.borrow_mut() = None);
    }

    /// The calling thread's countdown, taken before it spawns workers and
    /// handed to each of them.
    pub(crate) fn armed() -> Option<Arc<AtomicI64>> {
        COUNTDOWN.with(|c| c.borrow().clone())
    }

    #[inline]
    pub(crate) fn maybe_inject(countdown: Option<&AtomicI64>) {
        // Exactly one worker observes the 0 → -1 transition and panics.
        if countdown.is_some_and(|c| c.fetch_sub(1, Relaxed) == 0) {
            panic!("{}", INJECTED_PANIC);
        }
    }
}

/// Cumulative thread-pool utilization counters (see [`counters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParCounters {
    /// Parallel-helper invocations (every helper in this module),
    /// including ones that ran serially.
    pub calls: u64,
    /// Invocations that fanned out to at least one extra worker.
    pub parallel_calls: u64,
    /// Worker threads spawned in total (the calling thread, which always
    /// processes the first chunk, is not counted).
    pub workers_spawned: u64,
    /// Total items across all helper invocations (the domain size `n`,
    /// not the output size). `items / calls` is the mean batch a helper
    /// saw; together with `workers_spawned` it says whether fan-outs
    /// carried real work.
    pub items: u64,
    /// Wall nanoseconds spent inside the *tuned* helpers (the untimed
    /// [`try_par_block_sum`] doesn't read the clock).
    /// `items / busy_ns` is the measured throughput the granularity
    /// tuner steers by.
    pub busy_ns: u64,
}

impl ParCounters {
    /// The counter delta from `earlier` to `self`.
    pub fn since(self, earlier: ParCounters) -> ParCounters {
        ParCounters {
            calls: self.calls.wrapping_sub(earlier.calls),
            parallel_calls: self.parallel_calls.wrapping_sub(earlier.parallel_calls),
            workers_spawned: self.workers_spawned.wrapping_sub(earlier.workers_spawned),
            items: self.items.wrapping_sub(earlier.items),
            busy_ns: self.busy_ns.wrapping_sub(earlier.busy_ns),
        }
    }
}

/// Reads the process-wide utilization counters. Trace consumers snapshot
/// before and after a pipeline scope and report the
/// [`ParCounters::since`] delta.
///
/// # Examples
///
/// ```
/// use snnmap_core::par::{counters, try_par_update_tuned, Tuner};
///
/// let before = counters();
/// let mut v = vec![0; 10_000];
/// try_par_update_tuned(2, &mut Tuner::new(), &mut v, |i, s| *s = i)?;
/// assert_eq!(v[9_999], 9_999);
/// let delta = counters().since(before);
/// assert_eq!((delta.calls, delta.items), (1, 10_000));
/// # Ok::<(), snnmap_core::par::WorkerPanic>(())
/// ```
pub fn counters() -> ParCounters {
    ParCounters {
        calls: CALLS.load(Relaxed),
        parallel_calls: PARALLEL_CALLS.load(Relaxed),
        workers_spawned: WORKERS.load(Relaxed),
        items: ITEMS.load(Relaxed),
        busy_ns: BUSY_NS.load(Relaxed),
    }
}

/// The calling thread's share of [`counters`]: the helper invocations
/// made from this thread and the workers they spawned. A scope that runs
/// on one thread (an FD run) takes its delta from here, so concurrent
/// scopes elsewhere in the process never leak into its telemetry.
pub(crate) fn thread_counters() -> ParCounters {
    THREAD.with(Cell::get)
}

/// Why an `SNNMAP_THREADS` value was rejected (see
/// [`parse_env_threads`]). The variants exist so each malformed shape is
/// testable — and reported — distinctly instead of collapsing into a
/// silent auto-detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadsParseError {
    /// Empty (or whitespace-only) value.
    Empty,
    /// Not a base-10 integer at all.
    NotANumber,
    /// Parsed, but zero — thread count `0` only means *auto* as an API
    /// argument, never as an explicit override.
    Zero,
    /// A number too large for `usize`.
    Overflow,
}

impl fmt::Display for ThreadsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ThreadsParseError::Empty => "empty value",
            ThreadsParseError::NotANumber => "not a number",
            ThreadsParseError::Zero => "must be at least 1",
            ThreadsParseError::Overflow => "exceeds the machine word size",
        })
    }
}

impl Error for ThreadsParseError {}

/// Parses an `SNNMAP_THREADS`-style value into a positive worker count.
///
/// Pure (no environment access), so every malformed shape has a unit
/// test that cannot race other tests' environment mutations.
///
/// # Errors
///
/// One [`ThreadsParseError`] variant per malformed shape.
pub fn parse_env_threads(value: &str) -> Result<usize, ThreadsParseError> {
    let v = value.trim();
    if v.is_empty() {
        return Err(ThreadsParseError::Empty);
    }
    match v.parse::<usize>() {
        Ok(0) => Err(ThreadsParseError::Zero),
        Ok(n) => Ok(n),
        Err(_) => {
            // Distinguish "a number, just too big" from garbage: all
            // digits (an optional `+` allowed by usize::from_str) can
            // only have failed on overflow.
            let digits = v.strip_prefix('+').unwrap_or(v);
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                Err(ThreadsParseError::Overflow)
            } else {
                Err(ThreadsParseError::NotANumber)
            }
        }
    }
}

/// Resolves a requested worker count to an effective one.
///
/// `0` means *auto*: the `SNNMAP_THREADS` environment variable if set to
/// a positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when even that is unavailable). Any positive
/// request is honoured as-is.
///
/// A **malformed** `SNNMAP_THREADS` (garbage, `0`, overflow — see
/// [`parse_env_threads`]) is *not* silently ignored: the first
/// resolution that hits one prints a warning to stderr (once per
/// process), then falls back to auto-detection. Callers that need a hard
/// failure instead (the CLI's explicit `--threads 0`) validate before
/// calling this.
///
/// # Examples
///
/// ```
/// use snnmap_core::par::resolve_threads;
///
/// assert_eq!(resolve_threads(3), 3);
/// assert!(resolve_threads(0) >= 1); // auto-detected
/// ```
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("SNNMAP_THREADS") {
        match parse_env_threads(&v) {
            Ok(n) => return n,
            Err(e) => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: ignoring invalid SNNMAP_THREADS={v:?} ({e}); \
                         falling back to auto-detected parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Caps `threads` so every worker has at least `min_items` items, and
/// never exceeds the item count.
#[inline]
fn effective_threads(threads: usize, items: usize, min_items: usize) -> usize {
    let by_work = items / min_items.max(1);
    threads.min(by_work.max(1)).max(1)
}

/// Measured-throughput granularity feedback for the `*_tuned` helpers.
///
/// The fixed `MIN_ITEMS_PER_THREAD` floor (2048) assumes "a few thousand
/// cheap items" amortize a spawn — right for copy-like scans, badly
/// wrong in both directions for the FD engine, whose tension re-scores
/// cost ~100 ns/item (fan out far earlier) while its queue collects cost
/// ~5 ns/item (fan out far later). A `Tuner` replaces the assumption
/// with measurement: each observed invocation updates an exponentially
/// weighted per-worker throughput estimate (items/µs), and the work
/// floor becomes "enough items to amortize a 30 µs spawn 4 times at
/// that rate", clamped to `64..=65_536`.
///
/// One tuner per call-site *family* (one per distinct per-item cost),
/// owned by the run that uses it — state never leaks across runs, so the
/// first call of every run sees the same default floor and fault-
/// injection tests keep their deterministic spawn schedule. Tuning moves
/// only the serial/parallel cutoff; results stay bit-identical for every
/// thread count by the helpers' determinism guarantee, so clock noise
/// cannot perturb outputs.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use snnmap_core::par::Tuner;
///
/// let mut t = Tuner::new();
/// // 10k items in 1 ms on one worker = 10 items/µs -> floor 1200.
/// t.observe(10_000, 1, Duration::from_millis(1));
/// assert_eq!(t.min_items(), 1200);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Tuner {
    /// EWMA per-worker throughput, items per microsecond. `0.0` until
    /// the first usable sample.
    rate: f64,
    samples: u32,
}

impl Tuner {
    /// A tuner with no samples: [`Tuner::min_items`] starts at the fixed
    /// `MIN_ITEMS_PER_THREAD` default (2048).
    pub fn new() -> Self {
        Tuner::default()
    }

    /// Current work floor per extra worker: the batch that amortizes one
    /// spawn 4× at the measured throughput, or the fixed default before
    /// any sample.
    pub fn min_items(&self) -> usize {
        if self.samples == 0 {
            return MIN_ITEMS_PER_THREAD;
        }
        ((self.rate * SPAWN_COST_US * SPAWN_AMORTIZE) as usize).clamp(MIN_GRAIN, MAX_GRAIN)
    }

    /// Feeds back one invocation: `items` processed by `workers` chunks
    /// in `elapsed`. Zero-item or unmeasurably fast (sub-tick) calls are
    /// discarded — a coarse clock must not fake an infinite rate.
    pub fn observe(&mut self, items: usize, workers: usize, elapsed: Duration) {
        let us = elapsed.as_secs_f64() * 1e6;
        if items == 0 || us <= 0.0 {
            return;
        }
        let rate = items as f64 / (us * workers.max(1) as f64);
        // EWMA with α = 0.3: a few sweeps converge, one outlier doesn't
        // whipsaw the floor.
        self.rate = if self.samples == 0 { rate } else { 0.7 * self.rate + 0.3 * rate };
        self.samples = self.samples.saturating_add(1);
    }
}

/// The one fan-out under every helper: runs `body` on each of `parts`,
/// part 0 on the calling thread and every other part on its own scoped
/// worker, and returns the results in part order.
///
/// Each part runs under [`catch_unwind`], and the first panic in part
/// order wins, so the reported error is the same for every
/// interleaving. The injection hook fires in spawned workers only. A
/// single part runs inline: no spawn and no `parallel_calls` bump.
fn fan_out<P, R, F>(
    mut parts: impl ExactSizeIterator<Item = P>,
    body: F,
) -> Result<Vec<R>, WorkerPanic>
where
    P: Send,
    R: Send,
    F: Fn(P) -> R + Sync,
{
    let run = |p: P| {
        catch_unwind(AssertUnwindSafe(|| body(p))).map_err(|e| WorkerPanic::from_payload(&*e))
    };
    let Some(first) = parts.next() else { return Ok(Vec::new()) };
    if parts.len() == 0 {
        return run(first).map(|r| vec![r]);
    }
    bump(&PARALLEL_CALLS, 1, |c| &mut c.parallel_calls);
    let armed = hooks::armed();
    let hook = armed.as_deref();
    let body = &body;
    std::thread::scope(|s| {
        let workers: Vec<_> = parts
            .map(|p| {
                bump(&WORKERS, 1, |c| &mut c.workers_spawned);
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        hooks::maybe_inject(hook);
                        body(p)
                    }))
                })
            })
            .collect();
        let first = run(first);
        // The outer join error covers a panic that escaped the catch
        // (impossible for unwinding panics, but stay total).
        let rest = workers.into_iter().map(|h| {
            h.join().and_then(|r| r).map_err(|e| WorkerPanic::from_payload(&*e))
        });
        std::iter::once(first).chain(rest).collect()
    })
}

/// The contiguous ranges `0..n` splits into for at most `workers`
/// workers: `ceil(n / workers)` indices each, so the last range may be
/// shorter and an uneven split may need fewer ranges than `workers`.
fn ranges(n: usize, workers: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let len = part_len(n, workers);
    (0..n).step_by(len).map(move |lo| lo..(lo + len).min(n))
}

/// The length of every part but the last, possibly shorter, one when
/// `n` items split over at most `workers` workers.
fn part_len(n: usize, workers: usize) -> usize {
    n.div_ceil(workers.clamp(1, n.max(1))).max(1)
}

/// Counts one helper call over `n` items, runs `run` with the worker
/// count `tuner`'s floor allows, and feeds the call's wall time back to
/// the tuner and to `busy_ns`.
fn tuned<R>(
    threads: usize,
    tuner: &mut Tuner,
    n: usize,
    run: impl FnOnce(usize) -> Result<R, WorkerPanic>,
) -> Result<R, WorkerPanic> {
    count_call(n);
    let workers = effective_threads(threads, n, tuner.min_items());
    let t0 = Instant::now();
    let result = run(workers);
    let elapsed = t0.elapsed();
    bump(&BUSY_NS, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX), |c| &mut c.busy_ns);
    if result.is_ok() {
        tuner.observe(n, workers, elapsed);
    }
    result
}

/// Applies `f(i, &mut data[i])` to every element in place across up to
/// `threads` workers, with a [`Tuner`] deciding the serial/parallel
/// cutoff and learning from the call's measured throughput.
///
/// `f` sees the previous value and may skip the write entirely (the FD
/// engine's score-table refresh recomputes stale slots and leaves the
/// rest untouched); a fill from an index is an update that ignores it.
/// `f` must be pure per index and must not read *other* slots — each
/// element is visited exactly once by exactly one worker, so under that
/// contract the result is identical for any thread count.
///
/// # Errors
///
/// [`WorkerPanic`] when any chunk's `f` panicked (the first in chunk
/// order wins); the slice may then be partially updated — callers
/// discard it.
pub fn try_par_update_tuned<T, F>(
    threads: usize,
    tuner: &mut Tuner,
    data: &mut [T],
    f: F,
) -> Result<(), WorkerPanic>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    tuned(threads, tuner, data.len(), |workers| {
        let len = part_len(data.len(), workers);
        let parts = data.chunks_mut(len).enumerate().map(|(k, part)| (k * len, part));
        fan_out(parts, |(base, part)| {
            for (j, slot) in part.iter_mut().enumerate() {
                f(base + j, slot);
            }
        })
        .map(drop)
    })
}

/// Runs `f(i, &mut results)` for every `i in 0..n` and returns the
/// concatenation of the per-chunk result vectors **in chunk (= index)
/// order**, with a [`Tuner`] deciding the serial/parallel cutoff and
/// learning from the call's measured throughput (the domain size `n`,
/// not the output length, is what's measured).
///
/// `f` may push zero or more items per index (filtering maps use this),
/// so the output length is data-dependent; the *order* of surviving items
/// always matches what the serial loop would produce, independent of the
/// thread count.
///
/// # Errors
///
/// [`WorkerPanic`] when any chunk's `f` panicked (the first in chunk
/// order wins).
pub fn try_par_flat_map_tuned<R, F>(
    threads: usize,
    tuner: &mut Tuner,
    n: usize,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize, &mut Vec<R>) + Sync,
{
    tuned(threads, tuner, n, |workers| {
        let parts = fan_out(ranges(n, workers), |range| {
            let mut out = Vec::new();
            for i in range {
                f(i, &mut out);
            }
            out
        })?;
        // The first chunk's vector becomes the output, so a one-chunk
        // call copies nothing.
        let total: usize = parts.iter().map(Vec::len).sum();
        Ok(parts
            .into_iter()
            .reduce(|mut out, part| {
                out.reserve_exact(total - out.len());
                out.extend(part);
                out
            })
            .unwrap_or_default())
    })
}

/// Sums `f(lo..hi)` over fixed-size blocks of `block` indices, combining
/// the per-block partial sums **in block order**.
///
/// Block boundaries depend only on `n` and `block` — never on the thread
/// count — so every partial sum (and therefore the total, including its
/// floating-point rounding) is bit-identical for any `threads`. Whole
/// blocks are distributed over workers under the fixed
/// `MIN_ITEMS_PER_THREAD` floor, counted in items, not blocks.
///
/// # Panics
///
/// Panics on `block == 0` (a caller bug, not a worker fault).
///
/// # Errors
///
/// [`WorkerPanic`] when any block's `f` panicked.
pub fn try_par_block_sum<F>(
    threads: usize,
    n: usize,
    block: usize,
    f: F,
) -> Result<f64, WorkerPanic>
where
    F: Fn(Range<usize>) -> f64 + Sync,
{
    assert!(block > 0, "block size must be positive");
    count_call(n);
    if n == 0 {
        return Ok(0.0);
    }
    let workers = effective_threads(threads, n, MIN_ITEMS_PER_THREAD);
    let partial = fan_out(ranges(n.div_ceil(block), workers), |blocks| {
        blocks.map(|b| f(b * block..((b + 1) * block).min(n))).collect::<Vec<f64>>()
    })?;
    Ok(partial.iter().flatten().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`try_par_flat_map_tuned`] with a fresh tuner, whose cutoff is the
    /// fixed [`MIN_ITEMS_PER_THREAD`] floor.
    fn flat_map<R, F>(threads: usize, n: usize, f: F) -> Result<Vec<R>, WorkerPanic>
    where
        R: Send,
        F: Fn(usize, &mut Vec<R>) + Sync,
    {
        try_par_flat_map_tuned(threads, &mut Tuner::new(), n, f)
    }

    /// [`try_par_update_tuned`] with a fresh tuner.
    fn update<T, F>(threads: usize, data: &mut [T], f: F) -> Result<(), WorkerPanic>
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        try_par_update_tuned(threads, &mut Tuner::new(), data, f)
    }

    #[test]
    fn resolve_honours_explicit_request() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn env_threads_parse_accepts_positive_integers() {
        assert_eq!(parse_env_threads("4"), Ok(4));
        assert_eq!(parse_env_threads(" 16 "), Ok(16));
        assert_eq!(parse_env_threads("1"), Ok(1));
    }

    #[test]
    fn env_threads_parse_rejects_garbage() {
        assert_eq!(parse_env_threads("four"), Err(ThreadsParseError::NotANumber));
        assert_eq!(parse_env_threads("2x"), Err(ThreadsParseError::NotANumber));
        assert_eq!(parse_env_threads("3.5"), Err(ThreadsParseError::NotANumber));
        assert_eq!(parse_env_threads("-2"), Err(ThreadsParseError::NotANumber));
    }

    #[test]
    fn env_threads_parse_rejects_zero() {
        assert_eq!(parse_env_threads("0"), Err(ThreadsParseError::Zero));
        assert_eq!(parse_env_threads(" 0 "), Err(ThreadsParseError::Zero));
        assert_eq!(parse_env_threads("+0"), Err(ThreadsParseError::Zero));
    }

    #[test]
    fn env_threads_parse_rejects_overflow() {
        // 2^64 and far beyond: digits-only, so the failure is overflow,
        // not garbage.
        assert_eq!(
            parse_env_threads("18446744073709551616"),
            Err(ThreadsParseError::Overflow)
        );
        assert_eq!(
            parse_env_threads("999999999999999999999999999"),
            Err(ThreadsParseError::Overflow)
        );
    }

    #[test]
    fn env_threads_parse_rejects_empty() {
        assert_eq!(parse_env_threads(""), Err(ThreadsParseError::Empty));
        assert_eq!(parse_env_threads("   "), Err(ThreadsParseError::Empty));
    }

    #[test]
    fn tuner_starts_at_the_fixed_default() {
        assert_eq!(Tuner::new().min_items(), MIN_ITEMS_PER_THREAD);
    }

    #[test]
    fn tuner_floor_tracks_measured_throughput() {
        // Expensive items (1 item/µs) -> tiny batches amortize a spawn.
        let mut slow = Tuner::new();
        slow.observe(1_000, 1, Duration::from_millis(1));
        assert_eq!(slow.min_items(), 120);

        // Cheap items (1000 items/µs) -> the floor grows, clamped.
        let mut fast = Tuner::new();
        fast.observe(1_000_000, 1, Duration::from_millis(1));
        assert_eq!(fast.min_items(), MAX_GRAIN);

        // Parallel samples are normalized per worker: the same wall time
        // across 4 workers means a quarter of the per-core rate, so the
        // raw floor (120 / 4 = 30) lands below MIN_GRAIN and clamps.
        let mut par4 = Tuner::new();
        par4.observe(1_000, 4, Duration::from_millis(1));
        assert_eq!(par4.min_items(), MIN_GRAIN);
    }

    #[test]
    fn tuner_clamps_and_discards_degenerate_samples() {
        let mut t = Tuner::new();
        t.observe(0, 1, Duration::from_millis(1));
        t.observe(100, 1, Duration::ZERO);
        assert_eq!(t.min_items(), MIN_ITEMS_PER_THREAD, "degenerate samples must not count");
        // Absurdly slow items still leave a usable (clamped) floor.
        t.observe(1, 1, Duration::from_secs(1));
        assert_eq!(t.min_items(), MIN_GRAIN);
    }

    #[test]
    fn update_matches_serial_for_every_thread_count() {
        let n = 10_000;
        let f = |i: usize, slot: &mut u64| {
            if i % 3 == 0 {
                *slot = (i as u64).wrapping_mul(0x9e3779b9);
            }
        };
        let mut expect = vec![7u64; n];
        update(1, &mut expect, f).unwrap();
        for threads in [2, 3, 4, 8, 17] {
            let mut got = vec![7u64; n];
            update(threads, &mut got, f).unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn update_panic_is_a_typed_error() {
        let n = 4 * MIN_ITEMS_PER_THREAD;
        let mut data = vec![0u8; n];
        let err = update(4, &mut data, |i, _slot| {
            if i == n - 1 {
                panic!("updater dies at {i}");
            }
        })
        .unwrap_err();
        assert!(err.message().contains("updater dies"), "{err}");
    }

    #[test]
    fn tuned_helpers_agree_with_a_serial_loop_and_learn() {
        let n = 50_000;
        let mut tuner = Tuner::new();
        let expect: Vec<u64> = (0..n as u64).filter(|i| i % 7 == 0).collect();
        for threads in [1, 2, 4] {
            let got = try_par_flat_map_tuned(threads, &mut tuner, n, |i, out| {
                if i % 7 == 0 {
                    out.push(i as u64);
                }
            })
            .unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(tuner.samples > 0, "tuned calls must feed the tuner");

        let mut tuner = Tuner::new();
        let expect: Vec<u64> = (0..n as u64).map(|i| i ^ 0xabcd).collect();
        for threads in [2, 8] {
            let mut got = vec![0u64; n];
            try_par_update_tuned(threads, &mut tuner, &mut got, |i, s| *s = i as u64 ^ 0xabcd)
                .unwrap();
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn counters_track_items_and_busy_time() {
        let before = counters();
        let mut tuner = Tuner::new();
        let mut data = vec![0u32; 5_000];
        try_par_update_tuned(2, &mut tuner, &mut data, |i, s| *s = i as u32).unwrap();
        let d = counters().since(before);
        assert!(d.calls >= 1, "{d:?}");
        assert!(d.items >= 5_000, "{d:?}");
        assert!(d.busy_ns > 0, "{d:?}");
    }

    #[test]
    fn thread_counters_exclude_other_threads() {
        let before = thread_counters();
        let other = std::thread::spawn(|| {
            for _ in 0..50 {
                flat_map(2, 5_000, |i, out| out.push(i)).unwrap();
            }
        });
        for _ in 0..3 {
            flat_map(1, 10, |i, out| out.push(i)).unwrap();
        }
        other.join().unwrap();
        let d = thread_counters().since(before);
        assert_eq!((d.calls, d.items, d.parallel_calls, d.workers_spawned), (3, 30, 0, 0));
    }

    #[test]
    fn flat_map_preserves_order_and_filtering() {
        let n = 9_999;
        let f = |i: usize, out: &mut Vec<usize>| {
            if i % 3 == 0 {
                out.push(i * 2);
            }
        };
        let expect = flat_map(1, n, f).unwrap();
        assert_eq!(expect.len(), n.div_ceil(3));
        for threads in [2, 4, 5, 16] {
            assert_eq!(flat_map(threads, n, f).unwrap(), expect, "threads={threads}");
        }
    }

    #[test]
    fn block_sum_is_bitwise_thread_independent() {
        // Sums of many different magnitudes expose any reassociation.
        let n = 50_000;
        let weight = |i: usize| ((i % 97) as f64).exp2() * 1e-7;
        let f = |r: Range<usize>| r.map(weight).sum::<f64>();
        let expect = try_par_block_sum(1, n, 1024, f).unwrap();
        for threads in [2, 3, 4, 8] {
            let got = try_par_block_sum(threads, n, 1024, f).unwrap();
            assert_eq!(got.to_bits(), expect.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn block_sum_handles_degenerate_sizes() {
        let sum = |threads, n, f: fn(Range<usize>) -> f64| try_par_block_sum(threads, n, 16, f);
        assert_eq!(sum(4, 0, |_| 1.0), Ok(0.0));
        assert_eq!(sum(4, 5, |r| r.len() as f64), Ok(5.0));
        assert_eq!(sum(1, 33, |r| r.len() as f64), Ok(33.0));
    }

    #[test]
    fn counters_observe_parallel_fanout() {
        // Other tests run concurrently in this process, so deltas are
        // lower bounds, never exact counts.
        let before = counters();
        let mut out = vec![0u64; 3 * MIN_ITEMS_PER_THREAD];
        update(3, &mut out, |i, s| *s = i as u64).unwrap();
        let d = counters().since(before);
        assert!(d.calls >= 1, "{d:?}");
        assert!(d.parallel_calls >= 1, "{d:?}");
        assert!(d.workers_spawned >= 2, "{d:?}");

        // A serial-path call bumps only `calls`.
        let before = counters();
        let mut small = vec![0u64; 4];
        update(1, &mut small, |i, s| *s = i as u64).unwrap();
        assert!(counters().since(before).calls >= 1);
    }

    #[test]
    fn ranges_are_contiguous_and_cover_every_index() {
        let split = |n, workers| ranges(n, workers).collect::<Vec<_>>();
        assert_eq!(split(9, 4), [0..3, 3..6, 6..9], "an uneven split needs fewer parts");
        assert_eq!(split(10, 4), [0..3, 3..6, 6..9, 9..10]);
        assert_eq!(split(5, 8), [0..1, 1..2, 2..3, 3..4, 4..5]);
        assert_eq!((split(7, 1).len(), split(7, 1)[0].clone()), (1, 0..7));
        assert!(split(0, 4).is_empty());
    }

    #[test]
    fn a_fan_out_spawns_one_worker_per_extra_chunk() {
        let before = thread_counters();
        let mut data = vec![0u32; 2 * MIN_ITEMS_PER_THREAD];
        update(2, &mut data, |i, s| *s = i as u32).unwrap();
        flat_map(4, 10, |i, out| out.push(i)).unwrap();
        let d = thread_counters().since(before);
        assert_eq!((d.calls, d.parallel_calls, d.workers_spawned), (2, 1, 1), "{d:?}");
    }

    #[test]
    fn small_inputs_run_serially_but_correctly() {
        let mut out = vec![0usize; 10];
        update(8, &mut out, |i, s| *s = i + 1).unwrap();
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
        let v = flat_map(8, 10, |i, out| out.push(i)).unwrap();
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_closure_is_a_typed_error_not_an_abort() {
        // Serial path: caught on the calling thread.
        let err = flat_map(1, 10, |i, _out: &mut Vec<u32>| {
            if i == 3 {
                panic!("poisoned at {i}");
            }
        })
        .unwrap_err();
        assert!(err.message().contains("poisoned at 3"), "{err}");
        assert!(err.to_string().contains("parallel worker panicked"));

        // Parallel path: caught in a spawned worker, scope still joins.
        let n = 4 * MIN_ITEMS_PER_THREAD;
        let err = flat_map(4, n, |i, _out: &mut Vec<u32>| {
            if i == n - 1 {
                panic!("last chunk dies");
            }
        })
        .unwrap_err();
        assert!(err.message().contains("last chunk dies"), "{err}");

        let mut out = vec![0u8; n];
        let err = update(4, &mut out, |i, s| {
            if i == 0 {
                panic!("first chunk dies");
            }
            *s = 1;
        })
        .unwrap_err();
        assert!(err.message().contains("first chunk dies"), "{err}");

        let err = try_par_block_sum(4, n, 512, |r| {
            if r.start == 0 {
                panic!("block zero dies");
            }
            0.0
        })
        .unwrap_err();
        assert!(err.message().contains("block zero dies"), "{err}");
    }

    #[test]
    fn first_chunk_error_wins_deterministically() {
        // Every index panics; the reported message must always be the
        // calling thread's chunk (chunk 0), regardless of scheduling.
        let n = 4 * MIN_ITEMS_PER_THREAD;
        for _ in 0..8 {
            let err = flat_map(4, n, |i, _out: &mut Vec<u32>| panic!("chunk of {i}")).unwrap_err();
            assert_eq!(err.message(), "chunk of 0");
        }
    }

    #[test]
    fn injection_hook_fires_once_in_a_spawned_worker() {
        let n = 4 * MIN_ITEMS_PER_THREAD;
        hooks::fail_after(0);
        let err = flat_map(4, n, |i, out: &mut Vec<usize>| out.push(i)).unwrap_err();
        hooks::disarm();
        assert_eq!(err.message(), hooks::INJECTED_PANIC);
        // Disarmed, the same call succeeds and the serial path is immune
        // even while armed.
        let v = flat_map(4, n, |i, out: &mut Vec<usize>| out.push(i)).unwrap();
        assert_eq!(v.len(), n);
        hooks::fail_after(0);
        let v = flat_map(1, 64, |i, out: &mut Vec<usize>| out.push(i)).unwrap();
        hooks::disarm();
        assert_eq!(v.len(), 64);
    }

    #[test]
    fn injection_is_scoped_to_the_arming_thread() {
        let n = 4 * MIN_ITEMS_PER_THREAD;
        hooks::fail_after(0);
        // Workers spawned by another thread never consume this thread's
        // injection, and an arming elsewhere never reaches this thread's.
        let other = std::thread::spawn(move || {
            let len = flat_map(4, n, |i, out: &mut Vec<usize>| out.push(i)).map(|v| v.len());
            hooks::fail_after(0);
            len
        });
        assert_eq!(other.join().unwrap(), Ok(n));
        let err = flat_map(4, n, |i, out: &mut Vec<usize>| out.push(i)).unwrap_err();
        hooks::disarm();
        assert_eq!(err.message(), hooks::INJECTED_PANIC);
        let v = flat_map(4, n, |i, out: &mut Vec<usize>| out.push(i)).unwrap();
        assert_eq!(v.len(), n);
    }
}
