//! Pareto sweep over the congestion weight λc: energy-only FD versus the
//! composite objective with sim-in-the-loop NoC reweighting, on real
//! Table 3 workloads.
//!
//! For every workload and every λc the refinement runs at each requested
//! thread count and the placements are asserted **byte-identical** — the
//! composite objective inherits the engine's determinism guarantee. The
//! λc = 0 arm is pure energy (the PR-8 path, zero added FP work) and is
//! the baseline the energy-regression and `M_mc`-reduction ratios are
//! computed against.
//!
//! ```text
//! cargo run --release -p snnmap-bench --bin bench_pareto -- \
//!     --workloads LeNet-ImageNet,AlexNet --lambdas 0,0.5,1,2,4 \
//!     --threads 1,2 --json results/BENCH_pareto.json
//! ```

use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use snnmap_bench::table::{write_json, Table};
use snnmap_core::{force_directed, hsc_placement, FdConfig, FdRunOpts, Objective};
use snnmap_hw::{CostModel, Mesh, Placement};
use snnmap_metrics::{congestion_map, energy};
use snnmap_model::generators::table3_suite;
use snnmap_model::Pcn;
use snnmap_noc::NocReweighter;
use snnmap_trace::NoopSink;

/// Simulated cycles per sim-in-the-loop NoC run — the `snnmap map
/// --sim-in-loop` constant.
const SIM_CYCLES: u64 = 256;

/// Injection scale for the seeded NoC replays (the CLI's formula): the
/// hottest PCN connection injects with probability 1/4 per cycle.
fn noc_scale(pcn: &Pcn) -> f64 {
    let mut wmax = 0.0f64;
    for c in 0..pcn.num_clusters() {
        for (_, w) in pcn.out_edges(c) {
            wmax = wmax.max(w as f64);
        }
    }
    if wmax > 0.0 {
        0.25 / wmax
    } else {
        0.0
    }
}

/// FNV-1a over the cluster→coordinate table (the `bench_fd` digest).
fn digest(p: &Placement, clusters: u32) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for c in 0..clusters {
        let coord = p.coord_of(c).expect("complete placement");
        eat((u64::from(coord.x) << 16) | u64::from(coord.y));
    }
    format!("{h:016x}")
}

/// One (workload, λc) point of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoPoint {
    /// Table 3 workload name.
    pub workload: String,
    /// Congestion weight (0 = pure-energy baseline arm).
    pub lambda_c: f64,
    /// Latency-tail weight (shared across the sweep).
    pub lambda_t: f64,
    /// Sim-in-the-loop cadence in sweeps (0 on the baseline arm).
    pub reweight_every: u64,
    /// FD sweeps performed.
    pub sweeps: u64,
    /// Pair swaps applied.
    pub swaps: u64,
    /// Measured spike-energy metric of the final placement.
    pub energy: f64,
    /// `M_ac`: mean expected traffic per router (eq. 12).
    pub m_ac: f64,
    /// `M_mc`: expected traffic of the hottest router (eq. 14).
    pub m_mc: f64,
    /// `energy / energy(λc = 0)` — the regression the congestion term buys.
    pub energy_ratio: f64,
    /// `M_mc / M_mc(λc = 0)` — below 1.0 means the hotspot got cooler.
    pub m_mc_ratio: f64,
    /// FNV-1a placement digest, asserted identical at every thread count.
    pub placement_digest: String,
    /// The thread counts that reproduced the digest.
    pub threads_checked: Vec<usize>,
}

/// The whole sweep record written to `--json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParetoBench {
    /// PCN/NoC seed.
    pub seed: u64,
    /// CPUs available to the process when the sweep ran.
    pub cpus: usize,
    /// Thread arms that exceeded the granted CPUs (digest checks still
    /// hold; their timings would be meaningless, so none are recorded).
    pub oversubscribed: Vec<usize>,
    /// FD sweep cap per run (0 = run to convergence).
    pub max_iters: u64,
    /// Simulated NoC cycles per reweight invocation.
    pub sim_cycles: u64,
    /// One entry per (workload, λc), baseline arm first per workload.
    pub points: Vec<ParetoPoint>,
}

struct Args {
    workloads: Vec<String>,
    lambdas: Vec<f64>,
    lambda_t: f64,
    reweight_every: u64,
    max_iters: u64,
    threads: Vec<usize>,
    seed: u64,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = vec!["LeNet-ImageNet".to_string(), "AlexNet".to_string()];
    let mut lambdas = vec![0.0, 0.5, 1.0, 2.0, 4.0];
    let mut lambda_t = 0.0;
    let mut reweight_every = 4;
    let mut max_iters: u64 = 64;
    let mut threads = vec![1usize, 2];
    let mut seed: u64 = 42;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("snnmap congestion/energy Pareto sweep".to_string());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workloads" => {
                workloads = value.split(',').map(|w| w.trim().to_string()).collect();
            }
            "--lambdas" => {
                lambdas = value
                    .split(',')
                    .map(|l| l.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad --lambdas `{value}`"))?;
                if lambdas.iter().any(|l| !l.is_finite() || *l < 0.0) {
                    return Err("--lambdas wants finite non-negative weights".into());
                }
            }
            "--lambda-latency" => {
                lambda_t =
                    value.parse().map_err(|_| format!("bad --lambda-latency `{value}`"))?
            }
            "--reweight-every" => {
                reweight_every =
                    value.parse().map_err(|_| format!("bad --reweight-every `{value}`"))?
            }
            "--max-iters" => {
                max_iters = value.parse().map_err(|_| format!("bad --max-iters `{value}`"))?
            }
            "--threads" => {
                threads = value
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("bad --threads `{value}`"))?;
                if threads.is_empty() || threads.contains(&0) {
                    return Err("--threads wants a comma list of positive counts".into());
                }
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--json" => json = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args { workloads, lambdas, lambda_t, reweight_every, max_iters, threads, seed, json })
}

/// Runs one (workload, λc) point at every thread count, asserts the
/// digests agree, and measures the final placement.
#[allow(clippy::too_many_arguments)]
fn run_point(
    name: &str,
    pcn: &Pcn,
    mesh: Mesh,
    lambda_c: f64,
    lambda_t: f64,
    reweight_every: u64,
    max_iters: u64,
    threads: &[usize],
    seed: u64,
) -> ParetoPoint {
    let baseline = lambda_c == 0.0;
    let objective = if baseline {
        Objective::Energy
    } else {
        Objective::Composite { lambda_c, lambda_t }
    };
    let reweight = if baseline { 0 } else { reweight_every };
    let scale = noc_scale(pcn);

    let mut reference: Option<(Placement, u64, u64, String)> = None;
    for &t in threads {
        let mut placement = hsc_placement(pcn, mesh, None, t).expect("initial placement");
        let config = FdConfig {
            objective,
            reweight_every: (reweight > 0).then_some(reweight),
            max_iterations: (max_iters > 0).then_some(max_iters),
            threads: t,
            ..FdConfig::default()
        };
        let mut hook = (reweight > 0 && scale > 0.0)
            .then(|| NocReweighter::new(pcn, scale, SIM_CYCLES, seed));
        let mut opts = FdRunOpts::default();
        if let Some(h) = hook.as_mut() {
            opts.reweighter = Some(h);
        }
        let stats =
            force_directed(pcn, &mut placement, &config, None, None, &mut opts, &mut NoopSink)
                .expect("FD");
        let d = digest(&placement, pcn.num_clusters());
        match &reference {
            None => reference = Some((placement, stats.iterations, stats.swaps, d)),
            Some((_, sweeps, swaps, rd)) => {
                assert_eq!(
                    &d, rd,
                    "{name} λc={lambda_c}: digest diverged at threads={t}"
                );
                assert_eq!(stats.iterations, *sweeps, "{name} λc={lambda_c} threads={t}");
                assert_eq!(stats.swaps, *swaps, "{name} λc={lambda_c} threads={t}");
            }
        }
    }
    let (placement, sweeps, swaps, placement_digest) = reference.expect("at least one arm");

    let e = energy(pcn, &placement, CostModel::paper_target()).expect("energy metric");
    let cong = congestion_map(pcn, &placement).expect("congestion map").stats();
    ParetoPoint {
        workload: name.to_string(),
        lambda_c,
        lambda_t,
        reweight_every: reweight,
        sweeps,
        swaps,
        energy: e,
        m_ac: cong.average,
        m_mc: cong.max,
        energy_ratio: 1.0, // filled in against the baseline arm below
        m_mc_ratio: 1.0,
        placement_digest,
        threads_checked: threads.to_vec(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: bench_pareto [--workloads A,B,..] [--lambdas F,F,..] \
                 [--lambda-latency F] [--reweight-every N] [--max-iters N (0 = converge)] \
                 [--threads A,B,..] [--seed N] [--json PATH]"
            );
            std::process::exit(2);
        }
    };

    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let oversubscribed: Vec<usize> =
        args.threads.iter().copied().filter(|&t| t > cpus).collect();
    if !oversubscribed.is_empty() {
        eprintln!(
            "[bench_pareto] WARNING: thread arm(s) {oversubscribed:?} exceed the {cpus} \
             CPU(s) granted to this process; determinism checks still hold."
        );
    }

    let suite = table3_suite();
    let mut points: Vec<ParetoPoint> = Vec::new();
    for name in &args.workloads {
        let Some(bench) = suite.iter().find(|b| b.row.name == name) else {
            eprintln!("[bench_pareto] unknown workload `{name}`; Table 3 names:");
            for b in &suite {
                eprintln!("  {}", b.row.name);
            }
            std::process::exit(2);
        };
        eprintln!(
            "[bench_pareto] {}: building PCN ({} clusters on {0}'s {}x{} mesh)...",
            name, bench.row.clusters, bench.row.mesh_side, bench.row.mesh_side
        );
        let pcn = bench.pcn(args.seed).expect("Table 3 PCN");
        let mesh = Mesh::new(bench.row.mesh_side, bench.row.mesh_side).expect("mesh");

        // The λc = 0 energy arm always runs first: it is the ratio
        // denominator even when 0 is missing from --lambdas.
        let mut lambdas: Vec<f64> = vec![0.0];
        lambdas.extend(args.lambdas.iter().copied().filter(|&l| l > 0.0));

        let base_idx = points.len();
        for &lambda_c in &lambdas {
            eprintln!("[bench_pareto] {name}: λc={lambda_c}...");
            points.push(run_point(
                name,
                &pcn,
                mesh,
                lambda_c,
                args.lambda_t,
                args.reweight_every,
                args.max_iters,
                &args.threads,
                args.seed,
            ));
        }
        let (base_energy, base_mmc) = (points[base_idx].energy, points[base_idx].m_mc);
        for p in &mut points[base_idx..] {
            p.energy_ratio = p.energy / base_energy;
            p.m_mc_ratio = p.m_mc / base_mmc;
        }
    }

    println!(
        "\nCongestion/energy Pareto sweep (seed {}, cap {}, reweight every {} sweep(s), \
         λt = {})\n",
        args.seed,
        if args.max_iters == 0 { "none".to_string() } else { args.max_iters.to_string() },
        args.reweight_every,
        args.lambda_t
    );
    let mut t = Table::new(&[
        "Workload", "λc", "Sweeps", "Energy", "M_ac", "M_mc", "ΔE %", "ΔM_mc %", "Digest",
    ]);
    for p in &points {
        t.row(&[
            p.workload.clone(),
            format!("{}", p.lambda_c),
            p.sweeps.to_string(),
            format!("{:.4e}", p.energy),
            format!("{:.3}", p.m_ac),
            format!("{:.3}", p.m_mc),
            format!("{:+.2}", (p.energy_ratio - 1.0) * 100.0),
            format!("{:+.2}", (p.m_mc_ratio - 1.0) * 100.0),
            p.placement_digest.clone(),
        ]);
    }
    t.print();

    for name in &args.workloads {
        let best = points
            .iter()
            .filter(|p| &p.workload == name && p.lambda_c > 0.0)
            .min_by(|a, b| a.m_mc_ratio.total_cmp(&b.m_mc_ratio));
        if let Some(p) = best {
            println!(
                "\n{}: best M_mc reduction {:.1}% at λc={} (energy {:+.2}%)",
                name,
                (1.0 - p.m_mc_ratio) * 100.0,
                p.lambda_c,
                (p.energy_ratio - 1.0) * 100.0
            );
        }
    }
    println!(
        "\nall {} points reproduced their placement digest at threads {:?}",
        points.len(),
        args.threads
    );

    let record = ParetoBench {
        seed: args.seed,
        cpus,
        oversubscribed,
        max_iters: args.max_iters,
        sim_cycles: SIM_CYCLES,
        points,
    };
    if let Some(path) = &args.json {
        write_json(path, &record).expect("write json");
        println!("wrote {}", path.display());
    }
}
