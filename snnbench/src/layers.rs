//! Per-layer metrics and the stage table of a traced run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use snnmap_core::par::ParCounters;

use crate::report::{ratio, Metrics, PER_LAYER};
use crate::span::{self_times, Trace};

/// What a traced run measured outside its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Extras {
    /// Bytes of input read by the set-up.
    pub ingest_bytes: u64,
    /// Bytes of placement JSON the traced operation wrote.
    pub write_bytes: u64,
    /// PCN clusters.
    pub clusters: u64,
    /// PCN connections.
    pub connections: u64,
    /// Coarsening levels below the input graph (0 when no workload
    /// coarsens).
    pub coarsen_levels: u64,
    /// Clusters of the coarsest level (0 when nothing coarsens).
    pub coarsest_clusters: u64,
    /// Thread-pool counters over the traced operation.
    pub par: ParCounters,
    /// Wall seconds of the traced operation.
    pub op_wall_s: f64,
    /// Worker threads the workload maps with.
    pub threads: usize,
    /// Whether the workload maps onto a multi-chip board.
    pub board: bool,
    /// Spikes the final-placement NoC replay injected and delivered.
    pub noc_injected: u64,
    /// See [`Extras::noc_injected`].
    pub noc_delivered: u64,
    /// Paper eq. 14 max congestion of the final placement (a lower bound
    /// when `congestion_coverage < 1`).
    pub m_mc: f64,
    /// Share of edge traffic the congestion metric evaluated.
    pub congestion_coverage: f64,
    /// Wall seconds of the same operation with tracing off, run after
    /// the traced one so that both find the heap and caches warm.
    pub untraced_wall_s: f64,
}

/// Sums over the spans of one trace, restricted to one root's subtree.
struct View<'a> {
    trace: &'a Trace,
    selfs: Vec<u64>,
    root_of: Vec<usize>,
}

impl<'a> View<'a> {
    fn new(trace: &'a Trace) -> Self {
        let mut root_of = Vec::with_capacity(trace.spans.len());
        for (i, s) in trace.spans.iter().enumerate() {
            let r = match s.parent {
                Some(p) => root_of[p],
                None => i,
            };
            root_of.push(r);
        }
        View {
            trace,
            selfs: self_times(&trace.spans),
            root_of,
        }
    }

    fn in_root(&self, i: usize, root: &str) -> bool {
        self.trace.spans[self.root_of[i]].name == root
    }

    /// Indices of spans named `name` under root `root`.
    fn named(&self, root: &'a str, name: &'a str) -> impl Iterator<Item = usize> + '_ {
        (0..self.trace.spans.len())
            .filter(move |&i| self.trace.spans[i].name == name && self.in_root(i, root))
    }

    /// Total duration of spans named `name` under `root`, seconds.
    fn total(&self, root: &str, name: &str) -> f64 {
        self.named(root, name)
            .map(|i| self.trace.spans[i].duration_ns())
            .sum::<u64>() as f64
            * 1e-9
    }
}

/// Computes every per-layer metric. Time metrics of program layers come
/// from the traced operation's spans (root `op`), ingest and partition
/// from the set-up's (root `setup`), eval from root `eval`.
pub fn layer_metrics(trace: &Trace, x: &Extras) -> Metrics {
    let v = View::new(trace);
    let mut m = Metrics::default();
    let mut set = |name: &str, value: f64| m.set(PER_LAYER, name, value);

    set(
        "io.ingest_s",
        v.total("setup", "read_spec") + v.total("setup", "read_pcnb"),
    );
    set("io.ingest_bytes", x.ingest_bytes as f64);
    set(
        "io.write_s",
        v.total("op", "render_placement") + v.total("op", "write_placement"),
    );
    set("io.write_bytes", x.write_bytes as f64);
    set("model.partition_s", v.total("setup", "partition_analytic"));
    set("model.clusters", x.clusters as f64);
    set("model.connections", x.connections as f64);
    set("toposort.s", v.total("op", "toposort"));
    set("hsc.s", v.total("op", "hsc_init"));
    set("coarsen.s", v.total("op", "coarsen"));
    set("coarsen.levels", x.coarsen_levels as f64);
    set("coarsen.coarsest_clusters", x.coarsest_clusters as f64);
    set("multilevel.project_s", v.total("op", "project"));
    set("multilevel.level_fd_s", v.total("op", "fd_level"));

    let pass_sum = |name: &str, f: fn(&crate::span::PassStat) -> u64| -> f64 {
        trace
            .passes
            .iter()
            .filter(|p| trace.spans[p.span].name == name && v.in_root(p.span, "op"))
            .map(f)
            .sum::<u64>() as f64
    };
    set("multilevel.level_swaps", pass_sum("fd_level", |p| p.swaps));

    // The main FD pass: the flat map's, the multilevel map's finest, or
    // the board map's (not the rung or repair passes).
    set("fd.s", v.total("op", "fd"));
    let fd_self: u64 = v.named("op", "fd").map(|i| v.selfs[i]).sum();
    set("fd.init_score_s", fd_self as f64 * 1e-9);
    set("fd.select_s", main_step(&v, "fd_select"));
    set("fd.swap_s", main_step(&v, "fd_swap"));
    set("fd.rescore_s", main_step(&v, "fd_rescore"));
    let main_sweeps: Vec<usize> = v
        .named("op", "fd_sweep")
        .filter(|&i| trace.parent_name(i) == Some("fd"))
        .collect();
    let other: u64 = main_sweeps.iter().map(|&i| v.selfs[i]).sum();
    set("fd.sweep_other_s", other as f64 * 1e-9);
    set("fd.sweeps", pass_sum("fd", |p| p.sweeps));
    set("fd.swaps", pass_sum("fd", |p| p.swaps));
    let (mut cutoff, mut applied, mut dirty) = (0u64, 0u64, 0u64);
    for s in trace
        .sweeps
        .iter()
        .filter(|s| main_sweeps.contains(&s.span))
    {
        cutoff += s.cutoff;
        applied += s.applied;
        dirty += s.dirty;
    }
    set("fd.applied_ratio", ratio(applied as f64, cutoff as f64));
    set("fd.dirty_per_swap", ratio(dirty as f64, applied as f64));

    let busy_s = x.par.busy_ns as f64 * 1e-9;
    set("par.busy_s", busy_s);
    set("par.items", x.par.items as f64);
    set(
        "par.parallel_ratio",
        ratio(x.par.parallel_calls as f64, x.par.calls as f64),
    );
    set(
        "par.utilization",
        ratio(busy_s, x.op_wall_s * x.threads as f64),
    );

    set("objective.reweights", trace.reweights as f64);
    set("noc.replay_s", v.total("op", "noc_replay"));
    set("noc.injected", x.noc_injected as f64);
    set(
        "noc.delivered_ratio",
        ratio(x.noc_delivered as f64, x.noc_injected as f64),
    );

    set(
        "board.map_s",
        if x.board { v.total("op", "map") } else { 0.0 },
    );
    set("repair.s", v.total("op", "repair_incremental"));
    set("repair.fd_s", v.total("op", "fd_repair"));
    let (mut evicted, mut moved, mut region) = (0u64, 0u64, 0u64);
    for r in &trace.repairs {
        evicted += r.evicted;
        moved += r.moved;
        region += r.region_cores;
    }
    set("repair.evicted", evicted as f64);
    set("repair.region_cores", region as f64);
    set(
        "repair.moved_per_evicted",
        ratio(moved as f64, evicted as f64),
    );
    set("repair.moved_clusters", moved as f64);
    set("validate.s", v.total("op", "validate"));
    set("eval.s", v.total("eval", "evaluate_with"));
    set("eval.m_mc", x.m_mc);
    set("eval.congestion_coverage", x.congestion_coverage);
    set(
        "trace.overhead_ratio",
        ratio(x.op_wall_s, x.untraced_wall_s) - 1.0,
    );
    let unaccounted: u64 = v.named("op", "op").map(|i| v.selfs[i]).sum();
    set("trace.unaccounted_s", unaccounted as f64 * 1e-9);
    m
}

/// Total seconds of sweep step `name` (`fd_select`, `fd_swap`,
/// `fd_rescore`) in the main pass's sweeps.
fn main_step(v: &View<'_>, name: &str) -> f64 {
    let t = v.trace;
    let ns: u64 = v
        .named("op", name)
        .filter(|&i| t.spans[i].parent.and_then(|sweep| t.parent_name(sweep)) == Some("fd"))
        .map(|i| t.spans[i].duration_ns())
        .sum();
    ns as f64 * 1e-9
}

/// The stage table of root `root`: per span name, how many spans, their
/// total and their self time, largest self time first, then the root's
/// own self time as the explicit unaccounted remainder.
pub fn stage_table(trace: &Trace, root: &str) -> String {
    let v = View::new(trace);
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut root_wall = 0u64;
    let mut unaccounted = 0u64;
    for (i, s) in trace.spans.iter().enumerate() {
        if !v.in_root(i, root) {
            continue;
        }
        if s.parent.is_none() {
            root_wall += s.duration_ns();
            unaccounted += v.selfs[i];
            continue;
        }
        let row = rows.entry(s.name.as_str()).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += v.selfs[i];
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.cmp(&a.1 .2).then(a.0.cmp(b.0)));
    let pct = |ns: u64| 100.0 * ratio(ns as f64, root_wall as f64);
    let mut out = format!(
        "stage table of `{root}` ({:.3} s wall)\n{:<22} {:>7} {:>10} {:>10} {:>7}\n",
        root_wall as f64 * 1e-9,
        "span",
        "count",
        "total_s",
        "self_s",
        "self%"
    );
    for (name, (n, total, selft)) in rows {
        let _ = writeln!(
            out,
            "{name:<22} {n:>7} {:>10.4} {:>10.4} {:>6.1}%",
            total as f64 * 1e-9,
            selft as f64 * 1e-9,
            pct(selft)
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>7} {:>10} {:>10.4} {:>6.1}%",
        "(unaccounted)",
        "",
        "",
        unaccounted as f64 * 1e-9,
        pct(unaccounted)
    );
    out
}
