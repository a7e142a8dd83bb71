//! Metric names, units and the result lines the benchmark prints.

use serde_json::{json, Map, Value};

/// End-to-end metrics of an untraced run, as `(name, unit)`, each with a
/// bound in `BENCHMARK.json`. Lower is better for all of them. The run
/// record and table also print `m_mc`, `moved_clusters` and
/// `failed_ops_ratio`, which are not bounded: `m_mc` spreads too far
/// across seeds on `cnn_composite` (its max router moves with the seed),
/// and the other two are 0 on most runs. The failures are the result
/// line's `attempted`/`failed`; `m_mc` and the moved clusters are also the
/// traced run's `eval.m_mc` and `repair.moved_clusters`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("time_to_placement_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("energy_per_spike", "EN/spike"),
];

/// Per-layer metrics of a traced run, as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.ingest_s", "s"),
    ("io.ingest_bytes", "bytes"),
    ("io.write_s", "s"),
    ("io.write_bytes", "bytes"),
    ("model.partition_s", "s"),
    ("model.clusters", "count"),
    ("model.connections", "count"),
    ("toposort.s", "s"),
    ("hsc.s", "s"),
    ("coarsen.s", "s"),
    ("coarsen.levels", "count"),
    ("coarsen.coarsest_clusters", "count"),
    ("multilevel.project_s", "s"),
    ("multilevel.level_fd_s", "s"),
    ("multilevel.level_swaps", "count"),
    ("fd.s", "s"),
    ("fd.init_score_s", "s"),
    ("fd.select_s", "s"),
    ("fd.swap_s", "s"),
    ("fd.rescore_s", "s"),
    ("fd.sweep_other_s", "s"),
    ("fd.sweeps", "count"),
    ("fd.swaps", "count"),
    ("fd.applied_ratio", "ratio"),
    ("fd.dirty_per_swap", "ratio"),
    ("par.busy_s", "s"),
    ("par.items", "count"),
    ("par.parallel_ratio", "ratio"),
    ("par.utilization", "ratio"),
    ("objective.reweights", "count"),
    ("noc.replay_s", "s"),
    ("noc.injected", "count"),
    ("noc.delivered_ratio", "ratio"),
    ("board.map_s", "s"),
    ("repair.s", "s"),
    ("repair.fd_s", "s"),
    ("repair.evicted", "count"),
    ("repair.region_cores", "count"),
    ("repair.moved_per_evicted", "ratio"),
    ("repair.moved_clusters", "count"),
    ("validate.s", "s"),
    ("eval.s", "s"),
    ("eval.m_mc", "spikes"),
    ("eval.congestion_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_s", "s"),
];

/// Whether `name` is a valid metric name: 1 to 64 letters, digits, `_`,
/// `.` and `-`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `num / den`, or 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The fastest of a run's repetitions (NaN when there are none, which
/// the gate counts as a failure). Other tenants of a shared host only
/// ever slow a repetition down, and do so in bursts of several seconds,
/// so the fastest is the steadiest estimate of the program's own cost.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Named metric values in a fixed order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Sets metric `name` from `table` (panics on a name missing from it:
    /// that is a bug in this benchmark).
    pub fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(n, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in its table"));
        match self.values.iter_mut().find(|(m, _, _)| *m == n) {
            Some(slot) => slot.2 = value,
            None => self.values.push((n, unit, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| *n == name).map(|v| v.2)
    }

    /// `(name, unit, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.values.iter().copied()
    }

    /// Names of `table` not set yet.
    pub fn missing(&self, table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        table
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| self.get(n).is_none())
            .collect()
    }

    /// Names of the metrics whose value is NaN or infinite.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.values
            .iter()
            .filter(|v| !v.2.is_finite())
            .map(|v| v.0)
            .collect()
    }

    /// The `"metrics"` object of the result line.
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        for &(name, unit, value) in &self.values {
            map.insert(name.to_owned(), json!({"value": value, "unit": unit}));
        }
        Value::Object(map)
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.to_json()
    });
    serde_json::to_string(&line).expect("a value tree always renders")
}
