//! Figures 9–12 from one sweep: every method on every Table 3
//! benchmark, rendered as the solve-time table of Figure 9 and the
//! energy, latency and congestion tables of Figures 10–12.

use std::time::Duration;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use snnmap_hw::{CostModel, Mesh};
use snnmap_metrics::{evaluate_with, EvalOptions, MetricsReport};
use snnmap_model::generators::{table3_suite, Table3Benchmark};

use crate::args::Options;
use crate::methods::Method;
use crate::table::{fmt_value, Artifact, Table};

/// One (benchmark, method) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Benchmark name (Table 3 row).
    pub benchmark: String,
    /// PCN cluster count actually produced.
    pub clusters: u32,
    /// PCN connection count actually produced.
    pub connections: u64,
    /// Method name.
    pub method: String,
    /// Solve time in seconds.
    pub elapsed_secs: f64,
    /// Whether the run hit its budget ("ES" in the paper's figures).
    pub early_stopped: bool,
    /// The five §3.3 quality metrics.
    pub metrics: MetricsReport,
}

/// Runs `methods` over every Table 3 benchmark within the option's scale
/// filter, building each benchmark's PCN once and evaluating each
/// placement. `repro comparison` runs [`Method::all`].
///
/// Baselines get `options.budget_secs`; the proposed method runs
/// unbudgeted (it finishes in seconds even at full scale, which is the
/// paper's headline result). Congestion uses edge sampling above
/// `options.congestion_sample` edges.
///
/// Skips and reports (rather than fails) benchmarks whose PCN build or
/// mapping errors — no Table 3 instance should, so any message here is a
/// bug.
pub fn run_comparison(methods: &[Method], options: &Options) -> Vec<RunRecord> {
    let cost = CostModel::paper_target();
    let mut records = Vec::new();
    for bench in suite_at_scale(options) {
        let name = bench.row.name;
        eprintln!("[comparison] building {name}...");
        let pcn = match bench.pcn(options.seed) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("[comparison] {name}: PCN build failed: {e}");
                continue;
            }
        };
        let mesh = match Mesh::square_for(pcn.num_clusters() as u64) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("[comparison] {name}: mesh sizing failed: {e}");
                continue;
            }
        };
        for &method in methods {
            let budget = match method {
                Method::Proposed => None,
                _ => Some(Duration::from_secs(options.budget_secs)),
            };
            eprintln!("[comparison] {name}: running {method}...");
            let run = match method.run(&pcn, mesh, budget, options.seed, options.threads) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("[comparison] {name}/{method}: {e}");
                    continue;
                }
            };
            let opts = EvalOptions {
                congestion_sample: Some((options.congestion_sample, options.seed)),
            };
            let metrics = match evaluate_with(&pcn, &run.placement, cost, opts) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("[comparison] {name}/{method}: evaluation failed: {e}");
                    continue;
                }
            };
            records.push(RunRecord {
                benchmark: name.to_string(),
                clusters: pcn.num_clusters(),
                connections: pcn.num_connections(),
                method: method.name().to_string(),
                elapsed_secs: run.elapsed.as_secs_f64(),
                early_stopped: run.early_stopped,
                metrics,
            });
        }
    }
    records
}

impl Artifact for Vec<RunRecord> {
    /// Figure 9's solve times, then Figures 10–12.
    fn render(&self, options: &Options) -> String {
        let mut t = Table::new(&["Benchmark", "Clusters", "Method", "Time (s)", "Early stop"]);
        for r in self {
            t.row(&[
                r.benchmark.clone(),
                r.clusters.to_string(),
                r.method.clone(),
                fmt_value(r.elapsed_secs),
                early_stop(r),
            ]);
        }
        let scale = options.scale;
        let mut out = format!(
            "\nFigure 9: execution time (seconds) vs problem scale (scale: {scale:?}, \
             baseline budget {}s)\n\n{}",
            options.budget_secs,
            t.render()
        );
        let figures: [(&str, &[MetricColumn]); 3] = [
            ("Figure 10: energy consumption", &[("Energy", |m| m.energy)]),
            (
                "Figure 11: average / maximum latency",
                &[("AvgLatency", |m| m.avg_latency), ("MaxLatency", |m| m.max_latency)],
            ),
            (
                "Figure 12: average / maximum congestion",
                &[("AvgCongestion", |m| m.avg_congestion), ("MaxCongestion", |m| m.max_congestion)],
            ),
        ];
        for (title, columns) in figures {
            out += &format!(
                "\n{title}, normalized to Random (scale: {scale:?})\n\n{}",
                metric_table(self, columns).render()
            );
        }
        out
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}

/// A column of a metric figure: display name plus metric selector.
type MetricColumn = (&'static str, fn(&MetricsReport) -> f64);

/// A Figures 10–12 style table: the selected metric columns per
/// (benchmark, method), normalized to the same benchmark's `Random`
/// record (the paper plots everything relative to the baseline). Rows
/// whose benchmark has no Random record show absolute values.
fn metric_table(records: &[RunRecord], columns: &[MetricColumn]) -> Table {
    let mut headers = vec!["Benchmark", "Method"];
    headers.extend(columns.iter().map(|(name, _)| *name));
    headers.push("Early stop");
    let mut t = Table::new(&headers);
    for r in records {
        let baseline = records
            .iter()
            .find(|b| b.benchmark == r.benchmark && b.method == "Random")
            .map(|b| &b.metrics);
        let mut cells = vec![r.benchmark.clone(), r.method.clone()];
        for (_, f) in columns {
            let v = f(&r.metrics);
            let cell = match baseline {
                Some(b) if f(b) != 0.0 => format!("{:.3}", v / f(b)),
                _ => fmt_value(v),
            };
            cells.push(cell);
        }
        cells.push(early_stop(r));
        t.row(&cells);
    }
    t
}

/// The paper's "ES" marker for a budget-capped run.
fn early_stop(r: &RunRecord) -> String {
    if r.early_stopped { "ES".to_string() } else { String::new() }
}

/// The Table 3 suite filtered to the option's scale.
pub fn suite_at_scale(options: &Options) -> Vec<Table3Benchmark> {
    table3_suite()
        .into_iter()
        .filter(|b| b.row.clusters <= options.scale.max_clusters())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Scale;

    #[test]
    fn scale_filters_the_suite() {
        let mut o = Options { scale: Scale::Small, ..Options::default() };
        let small = suite_at_scale(&o);
        // DNN_65K, CNN_65K, LeNet-MNIST, LeNet-ImageNet, AlexNet.
        assert_eq!(small.len(), 5);
        o.scale = Scale::Full;
        assert_eq!(suite_at_scale(&o).len(), 13);
    }

    #[test]
    fn comparison_on_smallest_benchmarks_produces_records() {
        let o = Options { scale: Scale::Small, budget_secs: 5, ..Options::default() };
        let records = run_comparison(&[Method::Random, Method::Proposed], &o);
        // 5 small benchmarks x 2 methods.
        assert_eq!(records.len(), 10);
        for r in &records {
            assert!(r.metrics.energy > 0.0, "{}: zero energy", r.benchmark);
        }
        // The proposed method must beat random on energy everywhere.
        for pair in records.chunks(2) {
            let (rnd, prop) = (&pair[0], &pair[1]);
            assert_eq!(rnd.method, "Random");
            assert!(
                prop.metrics.energy < rnd.metrics.energy,
                "{}: {} !< {}",
                prop.benchmark,
                prop.metrics.energy,
                rnd.metrics.energy
            );
        }
    }
}
