//! FD engine benchmark: times the HSC initial placement and the
//! Force-Directed refinement at several thread counts on one synthetic
//! workload, asserts the refined placement is **byte-identical** across
//! all of them, and optionally dumps a machine-readable `BENCH_fd.json`.
//!
//! ```text
//! cargo run --release -p snnmap-bench --bin bench_fd -- \
//!     --clusters 60000 --mesh 256x256 --max-iters 40 \
//!     --threads 1,2,4 --json results/BENCH_fd.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use snnmap_bench::table::{write_json, Table};
use snnmap_core::{force_directed, hsc_placement, FdConfig, FdRunOpts};
use snnmap_hw::{Mesh, Placement};
use snnmap_model::generators::random_pcn;
use snnmap_trace::NoopSink;

/// One (thread count) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FdRun {
    /// Worker threads requested (explicit, never 0/auto here).
    pub threads: usize,
    /// Whether this arm requested more threads than the CPUs granted to
    /// the process. An oversubscribed arm still produces the identical
    /// placement, but its wall-clock says nothing about multi-core
    /// scaling — read it as "serial plus scheduling overhead".
    pub oversubscribed: bool,
    /// Wall-clock seconds of the HSC initial placement.
    pub init_secs: f64,
    /// Wall-clock seconds of the FD refinement.
    pub fd_secs: f64,
    /// FD sweeps performed.
    pub sweeps: u64,
    /// Pair swaps applied.
    pub swaps: u64,
    /// System energy before refinement.
    pub initial_energy: f64,
    /// System energy after refinement.
    pub final_energy: f64,
    /// Whether the queue emptied before any cap fired.
    pub converged: bool,
    /// FNV-1a digest of the final placement (identical across runs).
    pub placement_digest: String,
}

/// An externally measured reference timing (e.g. the serial engine of a
/// previous revision, run back-to-back on the same machine), recorded
/// verbatim for the JSON artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FdBaseline {
    /// What the reference is (free text, e.g. a commit id).
    pub label: String,
    /// Its FD wall-clock seconds on the same workload.
    pub fd_secs: f64,
}

/// The whole benchmark record written to `--json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FdBench {
    /// PCN cluster count.
    pub clusters: u32,
    /// PCN connection count.
    pub connections: u64,
    /// Mesh as `RxC`.
    pub mesh: String,
    /// PCN generator seed.
    pub seed: u64,
    /// PCN average out-degree.
    pub degree: f64,
    /// CPUs available to the process when the benchmark ran.
    pub cpus: usize,
    /// FD iteration cap (0 = run to convergence).
    pub max_iters: u64,
    /// One entry per `--threads` value, in the given order.
    pub runs: Vec<FdRun>,
    /// Optional external reference timing (`--baseline-secs/-label`).
    pub baseline: Option<FdBaseline>,
}

/// FNV-1a over the cluster→coordinate table; collision-safe enough to
/// certify "these placements are identical" across runs in one process.
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

struct Args {
    clusters: u32,
    mesh: Mesh,
    seed: u64,
    degree: f64,
    max_iters: u64,
    threads: Vec<usize>,
    json: Option<PathBuf>,
    baseline_secs: Option<f64>,
    baseline_label: String,
}

fn parse_args() -> Result<Args, String> {
    let mut clusters: u32 = 60_000;
    let mut mesh_spec = "256x256".to_string();
    let mut seed: u64 = 42;
    let mut degree: f64 = 4.0;
    let mut max_iters: u64 = 40;
    let mut threads = vec![1usize, 2, 4];
    let mut json = None;
    let mut baseline_secs = None;
    let mut baseline_label = "reference serial engine".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("snnmap FD benchmark".to_string());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--clusters" => {
                clusters = value.parse().map_err(|_| format!("bad --clusters `{value}`"))?
            }
            "--mesh" => mesh_spec = value,
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--degree" => {
                degree = value.parse().map_err(|_| format!("bad --degree `{value}`"))?
            }
            "--max-iters" => {
                max_iters =
                    value.parse().map_err(|_| format!("bad --max-iters `{value}`"))?
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
            "--json" => json = Some(PathBuf::from(value)),
            "--baseline-secs" => {
                baseline_secs = Some(
                    value.parse().map_err(|_| format!("bad --baseline-secs `{value}`"))?,
                )
            }
            "--baseline-label" => baseline_label = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let (r, c) = mesh_spec
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("expected `--mesh RxC`, got `{mesh_spec}`"))?;
    let rows: u16 = r.parse().map_err(|_| format!("bad mesh rows `{r}`"))?;
    let cols: u16 = c.parse().map_err(|_| format!("bad mesh cols `{c}`"))?;
    let mesh = Mesh::new(rows, cols).map_err(|e| e.to_string())?;
    Ok(Args {
        clusters,
        mesh,
        seed,
        degree,
        max_iters,
        threads,
        json,
        baseline_secs,
        baseline_label,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: bench_fd [--clusters N] [--mesh RxC] [--seed N] [--degree F] \
                 [--max-iters N (0 = converge)] [--threads A,B,..] [--json PATH] \
                 [--baseline-secs F] [--baseline-label S]"
            );
            std::process::exit(2);
        }
    };

    eprintln!(
        "[bench_fd] building PCN: {} clusters, degree {}, seed {}...",
        args.clusters, args.degree, args.seed
    );
    let pcn = random_pcn(args.clusters, args.degree, args.seed).expect("PCN build");

    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let over: Vec<usize> = args.threads.iter().copied().filter(|&t| t > cpus).collect();
    if !over.is_empty() {
        eprintln!(
            "[bench_fd] WARNING: only {cpus} CPU(s) granted to this process, but \
             thread arm(s) {over:?} were requested. Those arms are OVERSUBSCRIBED: \
             their timings measure scheduling overhead, not multi-core scaling, and \
             must not be quoted as speedup evidence. They are annotated \
             \"oversubscribed\": true in the JSON artifact."
        );
    }

    let mut runs: Vec<FdRun> = Vec::new();
    for &threads in &args.threads {
        eprintln!("[bench_fd] threads={threads}: init + FD on {}...", args.mesh);
        let t0 = Instant::now();
        let mut placement =
            hsc_placement(&pcn, args.mesh, None, threads).expect("initial placement");
        let init_secs = t0.elapsed().as_secs_f64();

        let config = FdConfig {
            max_iterations: (args.max_iters > 0).then_some(args.max_iters),
            threads,
            ..FdConfig::default()
        };
        let t1 = Instant::now();
        let mut opts = FdRunOpts::default();
        let stats =
            force_directed(&pcn, &mut placement, &config, None, None, &mut opts, &mut NoopSink)
                .expect("FD");
        let fd_secs = t1.elapsed().as_secs_f64();

        runs.push(FdRun {
            threads,
            oversubscribed: threads > cpus,
            init_secs,
            fd_secs,
            sweeps: stats.iterations,
            swaps: stats.swaps,
            initial_energy: stats.initial_energy,
            final_energy: stats.final_energy,
            converged: stats.converged,
            placement_digest: digest(&placement, args.clusters),
        });
    }

    // The whole point of the deterministic parallel engine: every thread
    // count must land on the same placement (and the same stats).
    for r in &runs[1..] {
        assert_eq!(
            r.placement_digest, runs[0].placement_digest,
            "threads={} diverged from threads={}",
            r.threads, runs[0].threads
        );
        assert_eq!(r.swaps, runs[0].swaps, "swap count diverged at threads={}", r.threads);
    }

    println!(
        "\nFD engine: {} clusters on {} (seed {}, cap {})\n",
        args.clusters,
        args.mesh,
        args.seed,
        if args.max_iters == 0 { "none".to_string() } else { args.max_iters.to_string() }
    );
    let mut t = Table::new(&[
        "Threads", "Init (s)", "FD (s)", "Sweeps", "Swaps", "Final energy", "Digest",
    ]);
    for r in &runs {
        t.row(&[
            if r.oversubscribed {
                format!("{}*", r.threads)
            } else {
                r.threads.to_string()
            },
            format!("{:.3}", r.init_secs),
            format!("{:.3}", r.fd_secs),
            r.sweeps.to_string(),
            r.swaps.to_string(),
            format!("{:.6e}", r.final_energy),
            r.placement_digest.clone(),
        ]);
    }
    t.print();
    if !over.is_empty() {
        println!("\n* oversubscribed: more threads than the {cpus} CPU(s) granted");
    }
    println!("\nall {} thread counts produced byte-identical placements", runs.len());

    let record = FdBench {
        clusters: pcn.num_clusters(),
        connections: pcn.num_connections(),
        mesh: format!("{}x{}", args.mesh.rows(), args.mesh.cols()),
        seed: args.seed,
        degree: args.degree,
        cpus,
        max_iters: args.max_iters,
        runs,
        baseline: args
            .baseline_secs
            .map(|fd_secs| FdBaseline { label: args.baseline_label.clone(), fd_secs }),
    };
    if let Some(path) = &args.json {
        write_json(path, &record).expect("write json");
        println!("wrote {}", path.display());
    }
}
