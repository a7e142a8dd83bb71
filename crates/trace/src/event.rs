//! The trace event vocabulary and its deterministic JSONL rendering.
//!
//! Every event renders to a single JSON object whose **field order is
//! fixed** by this module (see [`crate::schema`] for the authoritative
//! field lists). Timing-derived fields (`wall_ns`, allocation deltas) are
//! emitted only when the sink asks for them, so two traces of the same
//! deterministic run with timing off are byte-identical.

/// One pipeline run: the header line of every trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunEvent {
    /// Which tool produced the trace (e.g. `map`, `resume`).
    pub tool: String,
    /// Number of clusters in the PCN being mapped.
    pub clusters: u32,
    /// Number of (directed) cluster-to-cluster connections.
    pub connections: u64,
    /// Mesh rows.
    pub mesh_rows: u16,
    /// Mesh columns.
    pub mesh_cols: u16,
    /// Worker threads as requested by the caller (`0` = auto).
    pub threads_requested: usize,
    /// Worker threads after auto-resolution.
    pub threads_resolved: usize,
}

/// A completed pipeline phase (toposort, HSC init, FD, validate, …).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseEvent {
    /// Phase name; see [`crate::schema::PHASES`] for the vocabulary.
    pub name: String,
    /// Wall-clock nanoseconds (timing field).
    pub wall_ns: u64,
    /// Heap bytes requested during the phase (timing field; `0` unless
    /// the [`crate::alloc::CountingAlloc`] global allocator is installed).
    pub alloc_bytes: u64,
    /// Heap allocation calls during the phase (timing field).
    pub allocs: u64,
}

/// The FD configuration actually used, emitted once before the sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct FdConfigEvent {
    /// Potential field (`Debug` rendering of `Potential`).
    pub potential: String,
    /// Tension evaluation mode (`Debug` rendering of `TensionMode`).
    pub tension: String,
    /// Objective label (`energy`, `congestion`, `composite`).
    pub objective: String,
    /// Queue fraction λ.
    pub lambda: f64,
    /// Sweep cap the run obeys, if any: the request's
    /// `RunBudget::max_sweeps` (already tightened by the mapper's own
    /// cap), or the implicit 1,000 of a naive or reweighting run without
    /// one.
    pub max_iterations: Option<u64>,
    /// Wall-clock deadline the run obeys (`RunBudget::deadline`) in
    /// milliseconds, if any.
    pub time_budget_ms: Option<u64>,
    /// Resolved worker-thread count.
    pub threads: usize,
    /// Whether a fault map constrains the swap space.
    pub masked: bool,
}

/// Convergence telemetry for one FD sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FdSweepEvent {
    /// 1-based sweep number.
    pub sweep: u64,
    /// Positive-tension pairs in this sweep's queue.
    pub queue: u64,
    /// λ-selection cutoff: how many queued pairs were eligible to apply.
    pub cutoff: u64,
    /// Swaps actually applied this sweep.
    pub applied: u64,
    /// Dirty pairs re-scored after the swaps.
    pub dirty: u64,
    /// Still-positive pairs carried into the next sweep's queue.
    pub carried: u64,
    /// System energy after the sweep.
    pub energy: f64,
    /// Wall-clock nanoseconds for the sweep (timing field).
    pub wall_ns: u64,
    /// Nanoseconds spent in top-λ selection (timing field).
    pub select_ns: u64,
    /// Nanoseconds spent applying swaps (timing field).
    pub swap_ns: u64,
    /// Nanoseconds spent re-scoring and re-collecting the queue
    /// (timing field).
    pub rescore_ns: u64,
}

/// Terminal FD statistics (mirrors `FdStats`).
#[derive(Debug, Clone, PartialEq)]
pub struct FdDoneEvent {
    /// Sweeps executed.
    pub iterations: u64,
    /// Total swaps applied.
    pub swaps: u64,
    /// Energy before the first sweep.
    pub initial_energy: f64,
    /// Energy after the last sweep.
    pub final_energy: f64,
    /// Whether the positive-tension queue drained.
    pub converged: bool,
    /// Stop reason label (`converged`, `deadline_expired`,
    /// `sweep_cap_reached`, `cancelled`).
    pub stop: String,
}

/// A checkpoint snapshot was flushed (mirrors `FdCheckpoint` counters).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEvent {
    /// Sweeps completed at the snapshot.
    pub sweep: u64,
    /// Swaps applied at the snapshot.
    pub swaps: u64,
    /// System energy at the snapshot.
    pub energy: f64,
}

/// An FD run resumed from a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeEvent {
    /// Sweeps already completed before this invocation.
    pub sweep: u64,
    /// Swaps already applied before this invocation.
    pub swaps: u64,
    /// System energy of the original input placement.
    pub initial_energy: f64,
}

/// An incremental fault repair completed (mirrors `RepairReport`).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairEvent {
    /// Clusters evicted off newly faulty hardware.
    pub evicted: u64,
    /// Clusters whose coordinate changed overall.
    pub moved: u64,
    /// Cores in the active repair region.
    pub region_cores: u64,
    /// System energy before the repair.
    pub energy_before: f64,
    /// System energy after the repair.
    pub energy_after: f64,
}

/// NoC simulation counters (mirrors `NocStats`).
#[derive(Debug, Clone, PartialEq)]
pub struct NocEvent {
    /// Simulated cycles.
    pub cycles: u64,
    /// Packets injected.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Injections rejected.
    pub rejected: u64,
    /// Link traversals.
    pub traversals: u64,
    /// Sum of per-packet latencies.
    pub total_latency: u64,
    /// Worst per-packet latency.
    pub max_latency: u64,
    /// Extra hops taken to route around dead links/cores.
    pub detour_hops: u64,
}

/// Per-term potential breakdown of one FD sweep under a non-energy
/// objective (composite descent telemetry). Emitted only when the sink is
/// enabled and the objective has congestion/latency terms; the values are
/// recomputed from scratch serially, so the line is thread-count
/// invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveEvent {
    /// 1-based sweep number the breakdown follows.
    pub sweep: u64,
    /// Pure energy term `M_ec`-style potential.
    pub energy: f64,
    /// Weighted congestion term (λc · Σ per-router cost).
    pub congestion: f64,
    /// Weighted latency-tail term (λt · Σ per-edge squared distance).
    pub latency: f64,
    /// The composite total the descent is driving down.
    pub composite: f64,
}

/// A sim-in-the-loop reweight fired between sweep batches: router heat
/// (from a `NocSim` run or the objective's own congestion map) was folded
/// back into the congestion weight field.
#[derive(Debug, Clone, PartialEq)]
pub struct ReweightEvent {
    /// 1-based sweep number after which the reweight applied.
    pub sweep: u64,
    /// Heat source label (`noc-sim`, `self`).
    pub source: String,
    /// Hottest router's heat value (weights normalize against this).
    pub max_heat: u64,
    /// Hottest router's mesh row (first on ties).
    pub hottest_row: u64,
    /// Hottest router's mesh column (first on ties).
    pub hottest_col: u64,
}

/// Thread-pool utilization delta from `snnmap_core::par` counters. It
/// counts only the helper calls the scope made itself: concurrent
/// pipelines elsewhere in the process never leak into it.
///
/// `parallel_calls` and `workers_spawned` are **timing fields**: the
/// runtime granularity tuner moves the serial/parallel cutoff based on
/// measured throughput, so whether a given call fans out varies between
/// runs even though its result never does. With timing off the line
/// carries only the run-stable fields.
#[derive(Debug, Clone, PartialEq)]
pub struct ParEvent {
    /// Which pipeline scope the delta covers (phase name or `total`).
    pub scope: String,
    /// Parallel-helper invocations.
    pub calls: u64,
    /// Items handed to the parallel helpers (deterministic: depends only
    /// on the workload, never on the thread count or tuner state).
    pub items: u64,
    /// Invocations that actually went parallel (≥ 2 workers; timing
    /// field — the granularity tuner makes this run-dependent).
    pub parallel_calls: u64,
    /// Worker threads spawned, excluding the calling thread (timing
    /// field).
    pub workers_spawned: u64,
    /// Nanoseconds spent inside tuned parallel helpers (timing field).
    pub busy_ns: u64,
}

/// A single trace record; one JSONL line per event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Run header (always the first event of a stream).
    Run(RunEvent),
    /// Completed pipeline phase span.
    Phase(PhaseEvent),
    /// FD configuration.
    FdConfig(FdConfigEvent),
    /// FD per-sweep telemetry.
    FdSweep(FdSweepEvent),
    /// FD terminal statistics.
    FdDone(FdDoneEvent),
    /// Checkpoint snapshot flushed.
    Checkpoint(CheckpointEvent),
    /// Run resumed from a checkpoint.
    Resume(ResumeEvent),
    /// Incremental fault repair completed.
    Repair(RepairEvent),
    /// NoC simulation counters.
    Noc(NocEvent),
    /// Per-term objective breakdown of one sweep.
    Objective(ObjectiveEvent),
    /// Sim-in-the-loop reweight applied.
    Reweight(ReweightEvent),
    /// Thread-pool utilization delta.
    Par(ParEvent),
}

impl TraceEvent {
    /// The `event` field value identifying this record's kind.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Run(_) => "run",
            TraceEvent::Phase(_) => "phase",
            TraceEvent::FdConfig(_) => "fd_config",
            TraceEvent::FdSweep(_) => "fd_sweep",
            TraceEvent::FdDone(_) => "fd_done",
            TraceEvent::Checkpoint(_) => "checkpoint",
            TraceEvent::Resume(_) => "resume",
            TraceEvent::Repair(_) => "repair",
            TraceEvent::Noc(_) => "noc",
            TraceEvent::Objective(_) => "objective",
            TraceEvent::Reweight(_) => "reweight",
            TraceEvent::Par(_) => "par",
        }
    }

    /// Renders the event as one JSON object with the fixed field order.
    ///
    /// With `timing = false` the wall-clock / allocation fields are
    /// omitted entirely, making deterministic runs byte-stable across
    /// replays.
    ///
    /// # Examples
    ///
    /// ```
    /// use snnmap_trace::{FdDoneEvent, TraceEvent};
    ///
    /// let e = TraceEvent::FdDone(FdDoneEvent {
    ///     iterations: 3,
    ///     swaps: 10,
    ///     initial_energy: 8.0,
    ///     final_energy: 2.5,
    ///     converged: true,
    ///     stop: "converged".into(),
    /// });
    /// assert_eq!(
    ///     e.render(false),
    ///     "{\"event\":\"fd_done\",\"iterations\":3,\"swaps\":10,\
    ///      \"initial_energy\":8,\"final_energy\":2.5,\"converged\":true,\
    ///      \"stop\":\"converged\"}"
    /// );
    /// ```
    pub fn render(&self, timing: bool) -> String {
        let mut w = JsonWriter::new();
        match self {
            TraceEvent::Run(e) => {
                w.field_u64("schema", crate::schema::VERSION);
                w.field_str("event", self.name());
                w.field_str("tool", &e.tool);
                w.field_u64("clusters", u64::from(e.clusters));
                w.field_u64("connections", e.connections);
                w.field_str("mesh", &format!("{}x{}", e.mesh_rows, e.mesh_cols));
                w.field_u64("threads_requested", e.threads_requested as u64);
                w.field_u64("threads_resolved", e.threads_resolved as u64);
            }
            TraceEvent::Phase(e) => {
                w.field_str("event", self.name());
                w.field_str("name", &e.name);
                if timing {
                    w.field_u64("wall_ns", e.wall_ns);
                    w.field_u64("alloc_bytes", e.alloc_bytes);
                    w.field_u64("allocs", e.allocs);
                }
            }
            TraceEvent::FdConfig(e) => {
                w.field_str("event", self.name());
                w.field_str("potential", &e.potential);
                w.field_str("tension", &e.tension);
                w.field_str("objective", &e.objective);
                w.field_f64("lambda", e.lambda);
                w.field_opt_u64("max_iterations", e.max_iterations);
                w.field_opt_u64("time_budget_ms", e.time_budget_ms);
                w.field_u64("threads", e.threads as u64);
                w.field_bool("masked", e.masked);
            }
            TraceEvent::FdSweep(e) => {
                w.field_str("event", self.name());
                w.field_u64("sweep", e.sweep);
                w.field_u64("queue", e.queue);
                w.field_u64("cutoff", e.cutoff);
                w.field_u64("applied", e.applied);
                w.field_u64("dirty", e.dirty);
                w.field_u64("carried", e.carried);
                w.field_f64("energy", e.energy);
                if timing {
                    w.field_u64("wall_ns", e.wall_ns);
                    w.field_u64("select_ns", e.select_ns);
                    w.field_u64("swap_ns", e.swap_ns);
                    w.field_u64("rescore_ns", e.rescore_ns);
                }
            }
            TraceEvent::FdDone(e) => {
                w.field_str("event", self.name());
                w.field_u64("iterations", e.iterations);
                w.field_u64("swaps", e.swaps);
                w.field_f64("initial_energy", e.initial_energy);
                w.field_f64("final_energy", e.final_energy);
                w.field_bool("converged", e.converged);
                w.field_str("stop", &e.stop);
            }
            TraceEvent::Checkpoint(e) => {
                w.field_str("event", self.name());
                w.field_u64("sweep", e.sweep);
                w.field_u64("swaps", e.swaps);
                w.field_f64("energy", e.energy);
            }
            TraceEvent::Resume(e) => {
                w.field_str("event", self.name());
                w.field_u64("sweep", e.sweep);
                w.field_u64("swaps", e.swaps);
                w.field_f64("initial_energy", e.initial_energy);
            }
            TraceEvent::Repair(e) => {
                w.field_str("event", self.name());
                w.field_u64("evicted", e.evicted);
                w.field_u64("moved", e.moved);
                w.field_u64("region_cores", e.region_cores);
                w.field_f64("energy_before", e.energy_before);
                w.field_f64("energy_after", e.energy_after);
            }
            TraceEvent::Noc(e) => {
                w.field_str("event", self.name());
                w.field_u64("cycles", e.cycles);
                w.field_u64("injected", e.injected);
                w.field_u64("delivered", e.delivered);
                w.field_u64("rejected", e.rejected);
                w.field_u64("traversals", e.traversals);
                w.field_u64("total_latency", e.total_latency);
                w.field_u64("max_latency", e.max_latency);
                w.field_u64("detour_hops", e.detour_hops);
            }
            TraceEvent::Objective(e) => {
                w.field_str("event", self.name());
                w.field_u64("sweep", e.sweep);
                w.field_f64("energy", e.energy);
                w.field_f64("congestion", e.congestion);
                w.field_f64("latency", e.latency);
                w.field_f64("composite", e.composite);
            }
            TraceEvent::Reweight(e) => {
                w.field_str("event", self.name());
                w.field_u64("sweep", e.sweep);
                w.field_str("source", &e.source);
                w.field_u64("max_heat", e.max_heat);
                w.field_u64("hottest_row", e.hottest_row);
                w.field_u64("hottest_col", e.hottest_col);
            }
            TraceEvent::Par(e) => {
                w.field_str("event", self.name());
                w.field_str("scope", &e.scope);
                w.field_u64("calls", e.calls);
                w.field_u64("items", e.items);
                if timing {
                    w.field_u64("parallel_calls", e.parallel_calls);
                    w.field_u64("workers_spawned", e.workers_spawned);
                    w.field_u64("busy_ns", e.busy_ns);
                }
            }
        }
        w.finish()
    }
}

/// Minimal append-only JSON object writer with caller-controlled field
/// order. This is deliberately not a general serializer: the schema is
/// closed, so a handful of typed appenders keeps the byte output under
/// direct control.
struct JsonWriter {
    buf: String,
}

impl JsonWriter {
    fn new() -> Self {
        JsonWriter { buf: String::from("{") }
    }

    fn key(&mut self, name: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(name); // field names are trusted literals
        self.buf.push_str("\":");
    }

    fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
    }

    fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        self.buf.push_str(&v.to_string());
    }

    fn field_opt_u64(&mut self, name: &str, v: Option<u64>) {
        self.key(name);
        match v {
            Some(v) => self.buf.push_str(&v.to_string()),
            None => self.buf.push_str("null"),
        }
    }

    fn field_bool(&mut self, name: &str, v: bool) {
        self.key(name);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        if v.is_finite() {
            // Rust's shortest-roundtrip `Display` is deterministic and
            // never uses exponent notation, so the output is valid JSON.
            self.buf.push_str(&v.to_string());
        } else {
            // JSON has no NaN/±inf; `null` keeps the line parseable.
            self.buf.push_str("null");
        }
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escapes `v` per JSON string rules into `out`.
fn escape_into(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_event_leads_with_schema_version() {
        let e = TraceEvent::Run(RunEvent {
            tool: "map".into(),
            clusters: 10,
            connections: 40,
            mesh_rows: 4,
            mesh_cols: 8,
            threads_requested: 0,
            threads_resolved: 4,
        });
        let line = e.render(true);
        let lead = format!("{{\"schema\":{},\"event\":\"run\"", crate::schema::VERSION);
        assert!(line.starts_with(&lead), "{line}");
        assert!(line.contains("\"mesh\":\"4x8\""), "{line}");
    }

    #[test]
    fn timing_fields_are_omitted_when_disabled() {
        let e = TraceEvent::Phase(PhaseEvent {
            name: "fd".into(),
            wall_ns: 123,
            alloc_bytes: 456,
            allocs: 7,
        });
        assert_eq!(e.render(false), "{\"event\":\"phase\",\"name\":\"fd\"}");
        assert_eq!(
            e.render(true),
            "{\"event\":\"phase\",\"name\":\"fd\",\"wall_ns\":123,\
             \"alloc_bytes\":456,\"allocs\":7}"
        );
    }

    #[test]
    fn sweep_rendering_is_deterministic_and_ordered() {
        let e = TraceEvent::FdSweep(FdSweepEvent {
            sweep: 2,
            queue: 100,
            cutoff: 30,
            applied: 12,
            dirty: 240,
            carried: 55,
            energy: 1.25,
            wall_ns: 999,
            select_ns: 11,
            swap_ns: 22,
            rescore_ns: 33,
        });
        let a = e.render(false);
        assert_eq!(
            a,
            "{\"event\":\"fd_sweep\",\"sweep\":2,\"queue\":100,\"cutoff\":30,\
             \"applied\":12,\"dirty\":240,\"carried\":55,\"energy\":1.25}"
        );
        assert_eq!(a, e.render(false), "replay must be byte-stable");
        assert_eq!(
            e.render(true),
            "{\"event\":\"fd_sweep\",\"sweep\":2,\"queue\":100,\"cutoff\":30,\
             \"applied\":12,\"dirty\":240,\"carried\":55,\"energy\":1.25,\
             \"wall_ns\":999,\"select_ns\":11,\"swap_ns\":22,\"rescore_ns\":33}"
        );
    }

    #[test]
    fn par_tuning_dependent_fields_are_timing_only() {
        let e = TraceEvent::Par(ParEvent {
            scope: "total".into(),
            calls: 9,
            items: 1234,
            parallel_calls: 4,
            workers_spawned: 12,
            busy_ns: 777,
        });
        assert_eq!(
            e.render(false),
            "{\"event\":\"par\",\"scope\":\"total\",\"calls\":9,\"items\":1234}"
        );
        assert_eq!(
            e.render(true),
            "{\"event\":\"par\",\"scope\":\"total\",\"calls\":9,\"items\":1234,\
             \"parallel_calls\":4,\"workers_spawned\":12,\"busy_ns\":777}"
        );
    }

    #[test]
    fn optional_and_non_finite_values_render_as_null() {
        let e = TraceEvent::FdConfig(FdConfigEvent {
            potential: "L2Squared".into(),
            tension: "Exact".into(),
            objective: "energy".into(),
            lambda: f64::NAN,
            max_iterations: None,
            time_budget_ms: Some(1500),
            threads: 2,
            masked: false,
        });
        let line = e.render(false);
        assert!(line.contains("\"lambda\":null"), "{line}");
        assert!(line.contains("\"max_iterations\":null"), "{line}");
        assert!(line.contains("\"time_budget_ms\":1500"), "{line}");
    }

    #[test]
    fn strings_are_escaped() {
        let e = TraceEvent::Par(ParEvent {
            scope: "a\"b\\c\nd".into(),
            calls: 1,
            items: 0,
            parallel_calls: 0,
            workers_spawned: 0,
            busy_ns: 0,
        });
        assert!(e.render(false).contains("\"scope\":\"a\\\"b\\\\c\\nd\""));
    }
}
