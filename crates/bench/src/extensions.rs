//! Extension experiments beyond the paper: the analytic metrics against
//! the cycle-level NoC simulator, simulated latency under load, and
//! partition refinement.

use serde::Serialize;
use serde_json::Value;
use snnmap_core::Mapper;
use snnmap_hw::{CoreConstraints, CostModel, Mesh, Placement};
use snnmap_metrics::{congestion_map, energy, evaluate, evaluate_with, EvalOptions};
use snnmap_model::generators::{random_snn, table3_suite, CnnSpec, DnnSpec, RealisticModel};
use snnmap_model::{partition_with_assignment, pcn_from_assignment, refine_partition, Pcn};
use snnmap_noc::{NocConfig, NocSim, NocStats, PcnTraffic, Routing};

use crate::args::{Options, Scale};
use crate::comparison::suite_at_scale;
use crate::methods::Method;
use crate::table::{fmt_value, Artifact, Table};

/// Injection cycles of every simulated run.
const CYCLES: u64 = 2_000;

/// Replays `pcn`'s traffic on `placement` for [`CYCLES`] cycles of
/// random minimal routing at `load` packets per router per cycle.
fn simulate(
    pcn: &Pcn,
    placement: &Placement,
    load: f64,
    queue_capacity: usize,
    seed: u64,
) -> NocStats {
    let mesh = placement.mesh();
    let scale = load * mesh.len() as f64 / pcn.total_traffic().max(1e-12);
    let mut sim =
        NocSim::new(mesh, NocConfig { routing: Routing::RandomMinimal, seed, queue_capacity });
    PcnTraffic::new(pcn, placement, scale, seed).run(&mut sim, CYCLES);
    sim.stats().clone()
}

/// One NoC cross-validation row.
#[derive(Debug, Clone, Serialize)]
pub struct NocValidateRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// `Random` or `Proposed`.
    pub method: &'static str,
    /// Eq. 10's average latency.
    pub analytic_latency: f64,
    /// The simulator's mean latency over delivered packets.
    pub simulated_latency: f64,
    /// Pearson correlation of the Expe congestion map (eq. 13) with the
    /// simulated per-router traversals.
    pub congestion_correlation: f64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets injected.
    pub injected: u64,
}

/// Cross-validates the analytic §3.3 metrics against the cycle-level
/// NoC simulator on every small benchmark, for a random and the
/// proposed placement, at an offered load of 0.01 packets per router
/// per cycle (the analytic model is contention-free, so the comparison
/// belongs in the uncongested regime). Always runs at small scale: the
/// simulator models every router cycle.
///
/// # Panics
///
/// Panics if a benchmark fails to build or map (none does).
pub fn noc_validate(options: &Options) -> Vec<NocValidateRow> {
    if options.scale != Scale::Small {
        eprintln!("[noc_validate] forcing --scale small (cycle-level simulation)");
    }
    let options = Options { scale: Scale::Small, ..options.clone() };
    let cost = CostModel::paper_target();
    let mut rows = Vec::new();
    for bench in suite_at_scale(&options) {
        let pcn = bench.pcn(options.seed).expect("benchmark builds");
        let mesh = Mesh::square_for(pcn.num_clusters() as u64).expect("fits");
        for method in [Method::Random, Method::Proposed] {
            let run = method.run(&pcn, mesh, None, options.seed, options.threads).expect("fits");
            let analytic = if pcn.num_connections() > options.congestion_sample {
                evaluate_with(
                    &pcn,
                    &run.placement,
                    cost,
                    EvalOptions { congestion_sample: Some((options.congestion_sample, 0)) },
                )
            } else {
                evaluate(&pcn, &run.placement, cost)
            }
            .expect("placed");
            let stats = simulate(&pcn, &run.placement, 0.01, 16, options.seed);
            let acc = congestion_map(&pcn, &run.placement).expect("placed");
            rows.push(NocValidateRow {
                benchmark: bench.row.name,
                method: method.name(),
                analytic_latency: analytic.avg_latency,
                simulated_latency: stats.average_latency(),
                congestion_correlation: pearson(acc.map(), &stats.traversals),
                delivered: stats.delivered,
                injected: stats.injected,
            });
        }
    }
    rows
}

impl Artifact for Vec<NocValidateRow> {
    fn render(&self, _: &Options) -> String {
        let mut t = Table::new(&[
            "Benchmark", "Method", "AvgLat (analytic)", "AvgLat (simulated)", "Cong corr",
            "Delivered",
        ]);
        for r in self {
            t.row(&[
                r.benchmark.to_string(),
                r.method.to_string(),
                fmt_value(r.analytic_latency),
                fmt_value(r.simulated_latency),
                format!("{:.3}", r.congestion_correlation),
                format!("{}/{}", r.delivered, r.injected),
            ]);
        }
        let fewest = self.iter().map(|r| r.delivered).min().unwrap_or(u64::MAX);
        let most = self.iter().map(|r| r.delivered).max().unwrap_or(0);
        let cost = CostModel::paper_target();
        format!(
            "\nNoC cross-validation (random-minimal routing, {CYCLES} injection cycles)\n\n{}\n\
             Analytic latency is eq. 10, the traffic-weighted mean of (d+1)·L_r + d·L_w over d-hop\n\
             uncontended routes (L_r = {l_r}, L_w = {l_w}). The simulator counts d+1 router cycles per\n\
             uncontended packet, with no wire delay, plus any queueing, which is rare at this load.\n\
             Its mean is a sample of only the delivered packets ({fewest} to {most} per row), so it\n\
             can land above or below the analytic value: neither side bounds the other. `Cong corr`\n\
             is the Pearson correlation between the Expe congestion map (eq. 13) and simulated router\n\
             traversals.\n",
            t.render(),
            l_r = cost.l_r,
            l_w = cost.l_w,
        )
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}

fn pearson(a: &[f64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().map(|&x| x as f64).sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let (dx, dy) = (x - ma, y as f64 - mb);
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Rejected share of injections (percent) above which a placement's row
/// counts as saturated.
const SATURATED_REJECT_PCT: f64 = 1.0;

/// One offered load of [`NocLoad`]: per placement (random, proposed),
/// the mean delivered latency and the rejected share of injections.
#[derive(Debug, Clone, Serialize)]
pub struct NocLoadRow {
    /// Offered load, packets per router per cycle.
    pub load: f64,
    /// Mean delivered latency of the random and the proposed placement.
    pub latency: [f64; 2],
    /// Percent of injections refused at full local ports, same order.
    pub rejected_pct: [f64; 2],
}

/// Simulated latency against offered load on LeNet-ImageNet.
#[derive(Debug, Clone)]
pub struct NocLoad {
    /// The benchmark's Table 3 name.
    pub benchmark: &'static str,
    /// Its PCN clusters.
    pub clusters: u32,
    /// The mesh it is mapped onto.
    pub mesh: Mesh,
    /// One row per offered load, ascending.
    pub rows: Vec<NocLoadRow>,
}

/// Sweeps the injection rate on the cycle-level NoC simulator for a
/// random and the proposed placement of LeNet-ImageNet (a mid-size
/// benchmark with real structure): what the paper's analytic expected
/// congestion buys in executable terms.
///
/// # Panics
///
/// Panics if the benchmark fails to build or map (it does not).
pub fn noc_load(options: &Options) -> NocLoad {
    let bench = table3_suite().into_iter().find(|b| b.row.name == "LeNet-ImageNet").unwrap();
    let pcn = bench.pcn(options.seed).expect("builds");
    let mesh = Mesh::square_for(pcn.num_clusters() as u64).expect("fits");
    let placements: Vec<_> = [Method::Random, Method::Proposed]
        .iter()
        .map(|m| m.run(&pcn, mesh, None, options.seed, options.threads).expect("fits").placement)
        .collect();
    let rows = [0.005, 0.01, 0.02, 0.05, 0.1, 0.2]
        .into_iter()
        .map(|load| {
            let stats = placements.iter().map(|p| simulate(&pcn, p, load, 8, options.seed));
            let (mut latency, mut rejected_pct) = ([0.0; 2], [0.0; 2]);
            for (i, s) in stats.enumerate() {
                latency[i] = s.average_latency();
                let offered = s.injected + s.rejected;
                rejected_pct[i] =
                    if offered > 0 { 100.0 * s.rejected as f64 / offered as f64 } else { 0.0 };
            }
            NocLoadRow { load, latency, rejected_pct }
        })
        .collect();
    NocLoad { benchmark: bench.row.name, clusters: pcn.num_clusters(), mesh, rows }
}

impl Artifact for NocLoad {
    fn render(&self, _: &Options) -> String {
        let mut out = format!(
            "\nSimulated latency vs offered load on {} ({} clusters, {})\n\
             cycle-level simulation, random minimal routing, {CYCLES} injection cycles\n\n",
            self.benchmark, self.clusters, self.mesh
        );
        let mut t = Table::new(&[
            "Offered load (pkts/router/cycle)", "Random: avg lat", "Random: rejected",
            "Proposed: avg lat", "Proposed: rejected",
        ]);
        // `(load, random latency, proposed latency)` of the rows where
        // neither placement is saturated.
        let mut unsaturated = Vec::new();
        for r in &self.rows {
            let mut cells = vec![format!("{}", r.load)];
            let saturated = r.rejected_pct.map(|pct| pct > SATURATED_REJECT_PCT);
            for ((latency, pct), saturated) in r.latency.iter().zip(r.rejected_pct).zip(saturated) {
                let mark = if saturated { " (saturated)" } else { "" };
                cells.push(format!("{latency:.2}{mark}"));
                cells.push(format!("{pct:.1}%"));
            }
            if saturated == [false; 2] {
                unsaturated.push((r.load, r.latency[0], r.latency[1]));
            }
            t.row(&cells);
        }
        out += &t.render();
        out += &format!(
            "\nA placement is saturated at a load where more than {SATURATED_REJECT_PCT}% of its injections are\n\
             refused at full local ports: its delivered packets are then a biased sample, and their\n\
             latency measures the refusals as much as the placement. Only unsaturated rows are compared.\n"
        );
        let ratios = unsaturated.iter().map(|&(_, random, proposed)| random / proposed);
        let lo = ratios.clone().fold(f64::INFINITY, f64::min);
        let hi = ratios.fold(0.0, f64::max);
        out + &match unsaturated.last() {
            Some(&(top, ..)) => format!(
                "In the {} unsaturated rows (offered load up to {top}) the proposed placement's\n\
                 delivered latency is {lo:.2}x to {hi:.2}x lower than the random placement's.\n\
                 Queueing is still rare there, so the gap is the proposed placement's shorter routes.\n",
                unsaturated.len()
            ),
            None => "No row is unsaturated for both placements, so none is compared.\n".to_string(),
        }
    }

    fn json(&self) -> Value {
        serde_json::to_value(&self.rows)
    }
}

/// One partition-refinement workload.
#[derive(Debug, Clone, Serialize)]
pub struct RefineRow {
    /// Workload name.
    pub workload: &'static str,
    /// Clusters of the Algorithm 1 partition.
    pub clusters: u32,
    /// Inter-cluster traffic (eq. 5 total) before refinement.
    pub cut_before: f64,
    /// Inter-cluster traffic after refinement.
    pub cut_after: f64,
    /// Neuron moves applied.
    pub moves: u64,
    /// Neuron pair swaps applied.
    pub swaps: u64,
    /// `M_ec` of the proposed mapper's placement of the Algorithm 1 PCN.
    pub energy_before: f64,
    /// `M_ec` of the proposed mapper's placement of the refined PCN.
    pub energy_after: f64,
}

/// Does traffic-aware partition refinement on top of Algorithm 1 help
/// the downstream placement? For each explicitly materializable
/// workload, partitions with first-fit (Algorithm 1), refines boundary
/// neurons, and compares the inter-cluster cut and the mapped energy of
/// both PCNs under the proposed mapper.
///
/// # Panics
///
/// Panics if a workload fails to build, partition or map (none does).
pub fn partition_refine(options: &Options) -> Vec<RefineRow> {
    let seed = options.seed;
    // Constraints sized so these small explicit graphs split into enough
    // clusters for placement to matter.
    let narrow = CoreConstraints::new(128, u64::MAX).unwrap();
    let workloads = [
        (
            "LeNet-MNIST",
            RealisticModel::LeNetMnist.build(seed).expect("materializes"),
            CoreConstraints::new(256, 64 * 1024).unwrap(),
        ),
        ("DNN 4x1024", DnnSpec::new(&[1024; 4]).expect("valid").build(seed).expect("ok"), narrow),
        (
            "CNN 8x2048 f32",
            CnnSpec::new(&[2048; 8], 32).expect("valid").build(seed).expect("builds"),
            narrow,
        ),
        ("random local SNN", random_snn(8192, 8.0, 256, seed).expect("builds"), narrow),
    ];
    let cost = CostModel::paper_target();
    let map_energy = |pcn: &Pcn| {
        let mesh = Mesh::square_for(pcn.num_clusters() as u64).expect("fits");
        let out = Mapper::builder().build().map(pcn, mesh).expect("maps");
        energy(pcn, &out.placement, cost).expect("evaluates")
    };
    workloads
        .into_iter()
        .map(|(workload, snn, con)| {
            let (base, mut assignment) = partition_with_assignment(&snn, con).expect("partitions");
            let stats = refine_partition(&snn, &mut assignment, con, 8);
            let refined = pcn_from_assignment(&snn, &assignment).expect("rebuilds");
            RefineRow {
                workload,
                clusters: base.num_clusters(),
                cut_before: stats.initial_cut,
                cut_after: stats.final_cut,
                moves: stats.moves,
                swaps: stats.swaps,
                energy_before: map_energy(&base),
                energy_after: map_energy(&refined),
            }
        })
        .collect()
}

impl Artifact for Vec<RefineRow> {
    fn render(&self, _: &Options) -> String {
        let mut t = Table::new(&[
            "Workload", "Clusters", "Cut before", "Cut after", "Cut ratio", "Moves", "Swaps",
            "Energy before", "Energy after", "Energy ratio",
        ]);
        for r in self {
            t.row(&[
                r.workload.to_string(),
                r.clusters.to_string(),
                fmt_value(r.cut_before),
                fmt_value(r.cut_after),
                format!("{:.3}", r.cut_after / r.cut_before.max(1e-12)),
                r.moves.to_string(),
                r.swaps.to_string(),
                fmt_value(r.energy_before),
                fmt_value(r.energy_after),
                format!("{:.3}", r.energy_after / r.energy_before.max(1e-12)),
            ]);
        }
        format!(
            "\nPartition refinement (Algorithm 1 vs Algorithm 1 + boundary moves)\n\n{}\n\
             Cut = inter-cluster traffic (eq. 5 total). Energy = M_ec of the proposed mapper's\n\
             placement of each PCN. Ratios < 1 mean refinement helped.\n",
            t.render()
        )
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}
