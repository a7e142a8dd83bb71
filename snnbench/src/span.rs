//! Spans for the traced run: name, start, end and parent, kept in memory
//! until the run ends.
//!
//! The benchmark opens one span around each call it makes into a crate's
//! public functions. Layers without an entry point of their own (the
//! multilevel rungs, the FD sweeps and their select/swap/rescore steps)
//! are derived from the trace events the program already emits: the
//! [`Tracer`] is the program's [`TraceSink`], stamps every event as it
//! arrives, and turns the events of a call into child spans when the call
//! closes.

use std::time::Instant;

use snnmap_trace::{NoopSink, TraceEvent, TraceSink};

/// One timed interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or call name (`map`, `fd_sweep`, ...).
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted once,
/// and a child sticking out of its parent only counts inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-sweep counters of one FD sweep span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStat {
    /// The `fd_sweep` span.
    pub span: usize,
    /// Pairs the sweep was allowed to swap (the top-λ cutoff).
    pub cutoff: u64,
    /// Swaps the sweep applied.
    pub applied: u64,
    /// Pairs re-scored after the swaps.
    pub dirty: u64,
}

/// Totals of one FD pass span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassStat {
    /// The pass span: `fd`, or `fd_level` for a multilevel rung before
    /// the finest, or `fd_repair` inside `repair_incremental`.
    pub span: usize,
    /// Sweeps run.
    pub sweeps: u64,
    /// Swaps applied.
    pub swaps: u64,
}

/// Totals of one incremental repair, from its `repair` event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairStat {
    /// Clusters evicted off newly dead cores.
    pub evicted: u64,
    /// Clusters whose core changed.
    pub moved: u64,
    /// Cores the region-masked FD pass could touch.
    pub region_cores: u64,
}

/// Everything one traced run recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, parents before children.
    pub spans: Vec<Span>,
    /// One entry per derived `fd_sweep` span.
    pub sweeps: Vec<SweepStat>,
    /// One entry per derived FD pass span.
    pub passes: Vec<PassStat>,
    /// One entry per `repair` event.
    pub repairs: Vec<RepairStat>,
    /// `reweight` events (sim-in-the-loop cost-field updates).
    pub reweights: u64,
}

impl Trace {
    /// Name of span `i`'s parent, if any.
    pub fn parent_name(&self, i: usize) -> Option<&str> {
        self.spans[i].parent.map(|p| self.spans[p].name.as_str())
    }

    /// Turns the stamped events of one call (span `call`) into child
    /// spans. `hooks` are intervals the caller measured itself inside the
    /// call (the NoC replays of a reweighting hook); each becomes a
    /// `noc_replay` span under the FD pass that contains it.
    ///
    /// Phase events become spans ending at their stamp. An FD pass runs
    /// from where the previous derived span of the call ended (or from its
    /// `fd_config` event when it is the call's first) to its last event; a
    /// later `fd` phase event stretches it back to the phase's start. Each
    /// sweep ends at its stamp and splits into select, swap and rescore in
    /// that order; the rest of the sweep is the sweep's own self time.
    pub fn absorb(&mut self, call: usize, events: &[(u64, TraceEvent)], hooks: &[(u64, u64)]) {
        let mut boundary: Option<u64> = None;
        let mut pass: Option<usize> = None; // open pass span
        let mut passes_here: Vec<usize> = Vec::new();
        for (t, e) in events {
            let t = *t;
            match e {
                TraceEvent::Phase(p) if p.name == "fd" => {
                    let start = t.saturating_sub(p.wall_ns);
                    if let Some(&last) = passes_here.last() {
                        let s = &mut self.spans[last];
                        s.start_ns = s.start_ns.min(start);
                    }
                    boundary = Some(t);
                }
                TraceEvent::Phase(p) => {
                    let name = if p.name.starts_with("ml_level_") {
                        "project"
                    } else {
                        &p.name
                    };
                    self.push(name, t.saturating_sub(p.wall_ns), t, Some(call));
                    boundary = Some(t);
                }
                TraceEvent::FdConfig(_) => {
                    let start = boundary.unwrap_or(t);
                    let id = self.push("fd", start, t, Some(call));
                    self.passes.push(PassStat {
                        span: id,
                        sweeps: 0,
                        swaps: 0,
                    });
                    passes_here.push(id);
                    pass = Some(id);
                }
                TraceEvent::FdSweep(s) => {
                    let Some(p) = pass else { continue };
                    let start = t.saturating_sub(s.wall_ns);
                    let id = self.push("fd_sweep", start, t, Some(p));
                    let mut at = start;
                    for (name, ns) in [
                        ("fd_select", s.select_ns),
                        ("fd_swap", s.swap_ns),
                        ("fd_rescore", s.rescore_ns),
                    ] {
                        let end = (at + ns).min(t);
                        self.push(name, at, end, Some(id));
                        at = end;
                    }
                    self.sweeps.push(SweepStat {
                        span: id,
                        cutoff: s.cutoff,
                        applied: s.applied,
                        dirty: s.dirty,
                    });
                    self.spans[p].end_ns = t;
                }
                TraceEvent::FdDone(d) => {
                    if let Some(p) = pass {
                        self.spans[p].end_ns = t;
                        let stat = self.passes.last_mut().expect("an open pass has a stat");
                        stat.sweeps = d.iterations;
                        stat.swaps = d.swaps;
                        boundary = Some(t);
                    }
                }
                TraceEvent::Reweight(_) => self.reweights += 1,
                // The engine's closing utilization event, right after
                // `fd_done`.
                TraceEvent::Par(_) => {
                    if let Some(p) = pass {
                        self.spans[p].end_ns = t;
                        boundary = Some(t);
                    }
                }
                TraceEvent::Repair(r) => self.repairs.push(RepairStat {
                    evicted: r.evicted,
                    moved: r.moved,
                    region_cores: r.region_cores,
                }),
                _ => {}
            }
        }
        // A repair's passes are region-masked repair passes; a call that
        // projected multilevel rungs refined each rung before its finest
        // pass.
        let projected = self
            .spans
            .iter()
            .any(|s| s.parent == Some(call) && s.name == "project");
        for (k, &id) in passes_here.iter().enumerate() {
            if self.spans[call].name == "repair_incremental" {
                self.spans[id].name = "fd_repair".to_owned();
            } else if projected && k + 1 < passes_here.len() {
                self.spans[id].name = "fd_level".to_owned();
            }
        }
        for &(a, b) in hooks {
            let parent = passes_here
                .iter()
                .copied()
                .find(|&p| self.spans[p].start_ns <= a && b <= self.spans[p].end_ns)
                .unwrap_or(call);
            self.push("noc_replay", a, b, Some(parent));
        }
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }
}

/// What the workload code records into: a [`TraceSink`] for the
/// program's own events plus spans around the benchmark's calls.
/// [`NoopSink`] implements it as nothing at all, so the untraced run goes
/// through the same code with tracing compiled out.
pub trait Recorder: TraceSink {
    /// Opens a span named `name` under the innermost open span.
    fn open(&mut self, name: &str) -> Option<usize>;
    /// Closes span `id`, deriving child spans from the events recorded
    /// while it was open.
    fn close(&mut self, id: Option<usize>);
    /// Adds an interval measured by the caller inside the open span (see
    /// [`Trace::absorb`]).
    fn attach(&mut self, interval: (Instant, Instant));
}

impl Recorder for NoopSink {
    fn open(&mut self, _name: &str) -> Option<usize> {
        None
    }

    fn close(&mut self, _id: Option<usize>) {}

    fn attach(&mut self, _interval: (Instant, Instant)) {}
}

/// Runs `f` inside a span named `name`.
pub fn span<R: Recorder, T>(r: &mut R, name: &str, f: impl FnOnce(&mut R) -> T) -> T {
    let id = r.open(name);
    let out = f(r);
    r.close(id);
    out
}

/// The recording [`Recorder`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    trace: Trace,
    open: Vec<usize>,
    events: Vec<(u64, TraceEvent)>,
    hooks: Vec<(u64, u64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Starts an empty trace; its epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            trace: Trace::default(),
            open: Vec::new(),
            events: Vec::new(),
            hooks: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The trace so far (spans still open have `end_ns == start_ns`).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl TraceSink for Tracer {
    fn record(&mut self, event: &TraceEvent) {
        let t = self.ns(Instant::now());
        self.events.push((t, event.clone()));
    }
}

impl Recorder for Tracer {
    fn open(&mut self, name: &str) -> Option<usize> {
        let t = self.ns(Instant::now());
        let id = self.trace.push(name, t, t, self.open.last().copied());
        self.open.push(id);
        Some(id)
    }

    fn close(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let t = self.ns(Instant::now());
        self.trace.spans[id].end_ns = t;
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
        if !self.events.is_empty() || !self.hooks.is_empty() {
            let events = std::mem::take(&mut self.events);
            let hooks = std::mem::take(&mut self.hooks);
            self.trace.absorb(id, &events, &hooks);
        }
    }

    fn attach(&mut self, (a, b): (Instant, Instant)) {
        let interval = (self.ns(a), self.ns(b));
        self.hooks.push(interval);
    }
}
