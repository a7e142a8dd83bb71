//! Ablations of the FD design choices called out in §4.5 and DESIGN.md.

use std::time::Instant;

use serde::{Deserialize, Serialize};
use snnmap_core::{
    force_directed, hsc_placement, CoreError, FdConfig, FdRunOpts, FdStats, Potential, TensionMode,
};
use snnmap_hw::{CostModel, Mesh, Placement};
use snnmap_metrics::energy;
use snnmap_model::Pcn;
use snnmap_trace::NoopSink;

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

/// FD with no hardware restriction, run options or tracing.
fn refine(pcn: &Pcn, p: &mut Placement, cfg: &FdConfig) -> Result<FdStats, CoreError> {
    force_directed(pcn, p, cfg, None, None, &mut FdRunOpts::default(), &mut NoopSink)
}

/// Sweeps λ over the HSC-initialized FD run (§4.5 design choice 2 fixes
/// λ = 30% as the practical speed/quality balance; this regenerates the
/// evidence).
///
/// # Panics
///
/// Panics if the PCN does not fit the mesh (ablations run on Table 3
/// instances, which always fit).
pub fn lambda_sweep(pcn: &Pcn, mesh: Mesh, lambdas: &[f64]) -> Vec<AblationRecord> {
    let cost = CostModel::paper_target();
    lambdas
        .iter()
        .map(|&lambda| {
            let mut placement = hsc_placement(pcn, mesh, None, 1).expect("benchmark fits mesh");
            let cfg = FdConfig { lambda, ..FdConfig::default() };
            let t = Instant::now();
            let stats = refine(pcn, &mut placement, &cfg).expect("complete placement");
            AblationRecord {
                setting: format!("lambda={lambda:.2}"),
                energy: energy(pcn, &placement, cost).expect("placed"),
                iterations: stats.iterations,
                swaps: stats.swaps,
                elapsed_secs: t.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Sweeps the potential field (§4.4.2, Figure 7) over the
/// HSC-initialized FD run.
///
/// # Panics
///
/// Panics if the PCN does not fit the mesh.
pub fn potential_sweep(pcn: &Pcn, mesh: Mesh) -> Vec<AblationRecord> {
    let cost = CostModel::paper_target();
    let potentials = [
        ("u_a (L1)", Potential::L1),
        ("u_b (L1^2)", Potential::L1Squared),
        ("u_c (L2^2)", Potential::L2Squared),
        ("energy-model", Potential::energy_model(cost)),
    ];
    potentials
        .iter()
        .map(|(name, potential)| {
            let mut placement = hsc_placement(pcn, mesh, None, 1).expect("benchmark fits mesh");
            let cfg = FdConfig { potential: *potential, ..FdConfig::default() };
            let t = Instant::now();
            let stats = refine(pcn, &mut placement, &cfg).expect("complete placement");
            AblationRecord {
                setting: format!("potential={name}"),
                energy: energy(pcn, &placement, cost).expect("placed"),
                iterations: stats.iterations,
                swaps: stats.swaps,
                elapsed_secs: t.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// Compares exact tension bookkeeping against the paper's naive force
/// sum (DESIGN.md design decision 1) on the HSC-initialized FD run.
///
/// # Panics
///
/// Panics if the PCN does not fit the mesh.
pub fn tension_mode_sweep(pcn: &Pcn, mesh: Mesh) -> Vec<AblationRecord> {
    let cost = CostModel::paper_target();
    [(TensionMode::Exact, "tension=exact"), (TensionMode::PaperNaive, "tension=naive(paper)")]
        .into_iter()
        .map(|(mode, name)| {
            let mut placement = hsc_placement(pcn, mesh, None, 1).expect("benchmark fits mesh");
            let cfg = FdConfig { tension_mode: mode, ..FdConfig::default() };
            let t = Instant::now();
            let stats = refine(pcn, &mut placement, &cfg).expect("complete placement");
            AblationRecord {
                setting: name.to_string(),
                energy: energy(pcn, &placement, cost).expect("placed"),
                iterations: stats.iterations,
                swaps: stats.swaps,
                elapsed_secs: t.elapsed().as_secs_f64(),
            }
        })
        .collect()
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
