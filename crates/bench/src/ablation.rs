//! Ablations of the FD design choices called out in §4.5 and DESIGN.md.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use serde_json::Value;
use snnmap_core::{
    force_directed, hsc_placement, FdConfig, FdRunOpts, Potential, RunBudget, TensionMode,
};
use snnmap_hw::{CostModel, Mesh};
use snnmap_metrics::energy;
use snnmap_model::Pcn;
use snnmap_trace::NoopSink;

use crate::args::Options;
use crate::comparison::suite_at_scale;
use crate::table::{fmt_value, Artifact, Table};

/// One ablation measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRecord {
    /// The varied knob, e.g. `lambda=0.30` or `potential=L2Squared`.
    pub setting: String,
    /// Final `M_ec` energy.
    pub energy: f64,
    /// FD iterations to convergence (or cap).
    pub iterations: u64,
    /// Swaps applied.
    pub swaps: u64,
    /// Wall-clock seconds of the FD phase.
    pub elapsed_secs: f64,
}

/// The sweep cap of every ablation run: the cap the engine applies by
/// itself to the paper's naive tension, which can oscillate. Exact
/// tension descends monotonically and converges well before it.
pub const SWEEP_CAP: u64 = 1_000;

/// The ablation records on one benchmark.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// The benchmark's Table 3 name.
    pub benchmark: &'static str,
    /// Its PCN clusters.
    pub clusters: u32,
    /// Its PCN connections.
    pub connections: u64,
    /// λ sweep with the `u_c` potential.
    pub lambda: Vec<AblationRecord>,
    /// Potential-field sweep at λ = 0.3.
    pub potential: Vec<AblationRecord>,
    /// Exact tension, then the paper's naive force sum.
    pub tension: Vec<AblationRecord>,
}

/// Ablates the FD design choices of §4.5 — the λ queue fraction, the
/// potential field and the tension bookkeeping — on the largest
/// benchmark within the option's scale (ResNet at the default), each
/// run refining the HSC placement.
///
/// # Panics
///
/// Panics if the benchmark fails to build (no Table 3 instance does).
pub fn ablation(options: &Options) -> Ablation {
    let bench = suite_at_scale(options)
        .into_iter()
        .max_by_key(|b| b.row.clusters)
        .expect("suite nonempty");
    eprintln!("[ablation] building {}...", bench.row.name);
    let pcn = bench.pcn(options.seed).expect("benchmark builds");
    let mesh = Mesh::square_for(pcn.num_clusters() as u64).expect("fits");
    Ablation {
        benchmark: bench.row.name,
        clusters: pcn.num_clusters(),
        connections: pcn.num_connections(),
        lambda: lambda_sweep(&pcn, mesh, &[0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0]),
        potential: potential_sweep(&pcn, mesh),
        tension: tension_mode_sweep(&pcn, mesh),
    }
}

impl Artifact for Ablation {
    fn render(&self, _: &Options) -> String {
        let mut out = format!(
            "\nFD ablations on {} ({} clusters, {} connections)\n\n",
            self.benchmark, self.clusters, self.connections
        );
        let sweeps = [
            ("lambda sweep (potential u_c):", &self.lambda),
            ("\npotential-field sweep (lambda = 0.3):", &self.potential),
            ("\ntension bookkeeping (exact vs paper's naive force sum):", &self.tension),
        ];
        for (title, records) in sweeps {
            let mut t = Table::new(&["Setting", "Energy", "Iterations", "Swaps", "Time (s)"]);
            for r in records {
                t.row(&[
                    r.setting.clone(),
                    fmt_value(r.energy),
                    r.iterations.to_string(),
                    r.swaps.to_string(),
                    fmt_value(r.elapsed_secs),
                ]);
            }
            out += &format!("{title}\n\n{}", t.render());
        }
        out
    }

    /// The three sweeps' records, in order.
    fn json(&self) -> Value {
        serde_json::to_value(&[&self.lambda[..], &self.potential, &self.tension].concat())
    }
}

/// Refines the HSC placement under each `(setting, config)`, capped at
/// [`SWEEP_CAP`] sweeps.
///
/// # Panics
///
/// Panics if the PCN does not fit the mesh.
fn sweep(
    pcn: &Pcn,
    mesh: Mesh,
    settings: impl IntoIterator<Item = (String, FdConfig)>,
) -> Vec<AblationRecord> {
    let cost = CostModel::paper_target();
    settings
        .into_iter()
        .map(|(setting, cfg)| {
            let mut placement = hsc_placement(pcn, mesh, None, 1).expect("benchmark fits mesh");
            let budget = RunBudget { max_sweeps: Some(SWEEP_CAP), ..RunBudget::default() };
            let mut opts = FdRunOpts { budget, ..FdRunOpts::default() };
            let t = Instant::now();
            let stats =
                force_directed(pcn, &mut placement, &cfg, None, None, &mut opts, &mut NoopSink)
                    .expect("complete placement");
            AblationRecord {
                setting,
                energy: energy(pcn, &placement, cost).expect("placed"),
                iterations: stats.iterations,
                swaps: stats.swaps,
                elapsed_secs: t.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// λ sweep (§4.5 design choice 2 fixes λ = 30% as the practical
/// speed/quality balance; this regenerates the evidence).
fn lambda_sweep(pcn: &Pcn, mesh: Mesh, lambdas: &[f64]) -> Vec<AblationRecord> {
    let settings = lambdas
        .iter()
        .map(|&lambda| (format!("lambda={lambda:.2}"), FdConfig { lambda, ..FdConfig::default() }));
    sweep(pcn, mesh, settings)
}

/// Potential-field sweep (§4.4.2, Figure 7).
fn potential_sweep(pcn: &Pcn, mesh: Mesh) -> Vec<AblationRecord> {
    let settings = [
        ("u_a (L1)", Potential::L1),
        ("u_b (L1^2)", Potential::L1Squared),
        ("u_c (L2^2)", Potential::L2Squared),
        ("energy-model", Potential::energy_model(CostModel::paper_target())),
    ]
    .map(|(name, potential)| {
        (format!("potential={name}"), FdConfig { potential, ..FdConfig::default() })
    });
    sweep(pcn, mesh, settings)
}

/// Exact tension bookkeeping against the paper's naive force sum
/// (DESIGN.md design decision 1).
fn tension_mode_sweep(pcn: &Pcn, mesh: Mesh) -> Vec<AblationRecord> {
    let settings = [
        (TensionMode::Exact, "tension=exact"),
        (TensionMode::PaperNaive, "tension=naive(paper)"),
    ]
    .map(|(tension_mode, name)| {
        (name.to_string(), FdConfig { tension_mode, ..FdConfig::default() })
    });
    sweep(pcn, mesh, settings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_model::generators::random_pcn;

    #[test]
    fn lambda_sweep_produces_converged_records() {
        let pcn = random_pcn(64, 4.0, 3).unwrap();
        let mesh = Mesh::new(8, 8).unwrap();
        let records = lambda_sweep(&pcn, mesh, &[0.1, 0.3, 1.0]);
        assert_eq!(records.len(), 3);
        for r in &records {
            assert!(r.energy > 0.0);
            assert!(r.iterations > 0);
        }
        // Smaller lambda swaps fewer pairs per sweep, so needs at least as
        // many sweeps.
        assert!(records[0].iterations >= records[2].iterations);
    }

    #[test]
    fn tension_sweep_produces_two_records() {
        let pcn = random_pcn(49, 4.0, 7).unwrap();
        let mesh = Mesh::new(7, 7).unwrap();
        let records = tension_mode_sweep(&pcn, mesh);
        assert_eq!(records.len(), 2);
        assert!(records[0].setting.contains("exact"));
    }

    #[test]
    fn potential_sweep_covers_all_fields() {
        let pcn = random_pcn(36, 3.0, 5).unwrap();
        let mesh = Mesh::new(6, 6).unwrap();
        let records = potential_sweep(&pcn, mesh);
        assert_eq!(records.len(), 4);
        assert!(records.iter().any(|r| r.setting.contains("u_c")));
    }
}
