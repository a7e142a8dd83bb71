//! Multilevel-pipeline scale benchmark: walks power-of-two meshes from
//! 64×64 up to 1024×1024, maps a synthetic PCN sized to each mesh with
//! the coarsen → place → refine pipeline at several thread counts,
//! asserts the placement digest is **byte-identical** across all of
//! them at every size, and (at 60k clusters / 256×256, the `bench_fd`
//! workload size) compares flat FD against multilevel over repeated
//! runs.
//!
//! Every instance is **id-scrambled** ([`scramble_pcn`]): `random_pcn`
//! draws 80% of edges within a ±√n window of nearby cluster ids, so the
//! raw id order encodes the communication geometry and the id-aware HSC
//! initial placement solves such instances nearly outright. Real
//! partitioner output carries no such guarantee — cluster ids are
//! arbitrary labels. Scrambling presents the identical graph in
//! adversarial id order, so the walk measures mapping on *structure*,
//! which is where coarsening earns its keep.
//!
//! ```text
//! cargo run --release -p snnmap-bench --bin bench_scale -- \
//!     --max-mesh 1024 --threads 1,2,4 --runs 3 \
//!     --json results/BENCH_scale.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use snnmap_bench::table::{write_json, Table};
use snnmap_core::{
    force_directed, hsc_placement, CoreError, FdConfig, FdRunOpts, FdStats, MapOutcome, Mapper,
    MultilevelConfig,
};
use snnmap_hw::{Mesh, Placement};
use snnmap_model::generators::{random_pcn, scramble_pcn};
use snnmap_model::Pcn;
use snnmap_trace::NoopSink;

/// One multilevel run at one thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleRun {
    /// Worker threads requested (explicit, never 0/auto here).
    pub threads: usize,
    /// Whether this arm requested more threads than the CPUs granted to
    /// the process (timings then measure scheduling overhead, not
    /// scaling; the placement is identical either way).
    pub oversubscribed: bool,
    /// Wall-clock seconds of everything before and between FD passes:
    /// coarsening, the coarsest HSC placement, projections, and the
    /// intermediate region-masked refinements.
    pub init_secs: f64,
    /// Wall-clock seconds of the finest-level FD pass.
    pub fd_secs: f64,
    /// Finest-level FD sweeps performed.
    pub sweeps: u64,
    /// Finest-level pair swaps applied.
    pub swaps: u64,
    /// System energy after the full pipeline.
    pub final_energy: f64,
    /// FNV-1a digest of the final placement (identical across threads).
    pub placement_digest: String,
}

/// All measurements for one mesh size of the walk.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleSize {
    /// Mesh as `RxC`.
    pub mesh: String,
    /// Core count of the mesh.
    pub cores: u64,
    /// PCN cluster count (~0.9× cores; exactly 60k at 256×256).
    pub clusters: u32,
    /// PCN connection count.
    pub connections: u64,
    /// One entry per `--threads` value, in the given order.
    pub runs: Vec<ScaleRun>,
}

/// Flat-vs-multilevel comparison at the `bench_fd` workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleComparison {
    /// Mesh as `RxC`.
    pub mesh: String,
    /// PCN cluster count.
    pub clusters: u32,
    /// Repetitions each arm was run (medians below).
    pub runs: usize,
    /// Sweep cap of the flat arm (`bench_fd`'s canonical setting).
    pub flat_max_iters: u64,
    /// Finest-level sweep cap of the multilevel arm (0 = run to
    /// convergence) — the same `--final-sweeps` the walk uses.
    pub multilevel_final_sweeps: u64,
    /// Median wall-clock seconds of flat HSC + FD at the cap.
    pub flat_secs_median: f64,
    /// Median final energy of the capped flat arm.
    pub flat_energy_median: f64,
    /// Median wall-clock seconds flat FD needs to *reach* the
    /// multilevel arm's final energy (sweeping past the cap in restart
    /// chunks until it matches, converges, or hits a sweep ceiling).
    pub flat_match_secs_median: f64,
    /// Median sweeps the time-to-match arm performed.
    pub flat_match_sweeps_median: f64,
    /// Median energy the time-to-match arm ended at (above the
    /// multilevel energy iff flat converged or hit the ceiling first).
    pub flat_match_energy_median: f64,
    /// Median wall-clock seconds of the full multilevel pipeline.
    pub multilevel_secs_median: f64,
    /// Median final energy of the multilevel arm.
    pub multilevel_energy_median: f64,
    /// `flat_match_secs_median / multilevel_secs_median` — how many
    /// times longer the flat engine works for a placement no better
    /// than the multilevel one.
    pub speedup: f64,
    /// `multilevel_energy_median / flat_energy_median` (≤ 1 means the
    /// multilevel placement is equal or better than the capped flat
    /// run's).
    pub energy_ratio: f64,
}

/// The whole benchmark record written to `--json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBench {
    /// PCN generator seed.
    pub seed: u64,
    /// Seed of the deterministic cluster-id permutation applied to every
    /// instance before mapping (see the module docs for why).
    pub scramble_seed: u64,
    /// PCN average out-degree.
    pub degree: f64,
    /// CPUs available to the process when the benchmark ran.
    pub cpus: usize,
    /// Finest-level FD sweep cap used in the walk (0 = converge).
    pub final_sweeps: u64,
    /// One entry per mesh size, smallest first.
    pub sizes: Vec<ScaleSize>,
    /// Flat-vs-multilevel medians, when the walk covered 256×256.
    pub comparison: Option<ScaleComparison>,
}

/// FNV-1a over the cluster→coordinate table; same digest `bench_fd`
/// uses, so the two artifacts are cross-checkable.
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

/// The cluster count a mesh of `side`² cores gets: ~90% occupancy, and
/// exactly the `bench_fd` workload at 256×256 so the comparison arm and
/// the historical `BENCH_fd.json` numbers line up.
fn clusters_for(side: u16) -> u32 {
    if side == 256 {
        60_000
    } else {
        let cores = u64::from(side) * u64::from(side);
        (cores * 9 / 10) as u32
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

struct Args {
    max_mesh: u16,
    seed: u64,
    scramble_seed: u64,
    degree: f64,
    threads: Vec<usize>,
    runs: usize,
    compare: bool,
    flat_max_iters: u64,
    final_sweeps: u64,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut max_mesh: u16 = 1024;
    let mut seed: u64 = 42;
    let mut scramble_seed: u64 = 1234;
    let mut degree: f64 = 4.0;
    let mut threads = vec![1usize, 2, 4];
    let mut runs: usize = 3;
    let mut compare = true;
    let mut flat_max_iters: u64 = 40;
    let mut final_sweeps: u64 = 5;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("snnmap multilevel scale benchmark".to_string());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--max-mesh" => {
                max_mesh = value.parse().map_err(|_| format!("bad --max-mesh `{value}`"))?;
                if !max_mesh.is_power_of_two() || max_mesh < 64 {
                    return Err("--max-mesh wants a power of two >= 64".into());
                }
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--scramble-seed" => {
                scramble_seed =
                    value.parse().map_err(|_| format!("bad --scramble-seed `{value}`"))?
            }
            "--degree" => {
                degree = value.parse().map_err(|_| format!("bad --degree `{value}`"))?
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
            "--runs" => {
                runs = value.parse().map_err(|_| format!("bad --runs `{value}`"))?;
                if runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            "--compare" => {
                compare = match value.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad --compare `{other}` (on|off)")),
                }
            }
            "--flat-max-iters" => {
                flat_max_iters = value
                    .parse()
                    .map_err(|_| format!("bad --flat-max-iters `{value}`"))?
            }
            "--final-sweeps" => {
                final_sweeps =
                    value.parse().map_err(|_| format!("bad --final-sweeps `{value}`"))?
            }
            "--json" => json = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        max_mesh,
        seed,
        scramble_seed,
        degree,
        threads,
        runs,
        compare,
        flat_max_iters,
        final_sweeps,
        json,
    })
}

/// Builds the multilevel mapper used everywhere in this benchmark.
fn ml_mapper(threads: usize, final_sweeps: u64) -> Mapper {
    Mapper::builder()
        .multilevel(MultilevelConfig {
            final_sweeps: (final_sweeps > 0).then_some(final_sweeps),
            ..MultilevelConfig::default()
        })
        .threads(threads)
        .build()
}

fn ml_run(pcn: &Pcn, mesh: Mesh, threads: usize, final_sweeps: u64) -> MapOutcome {
    ml_mapper(threads, final_sweeps).map(pcn, mesh).expect("multilevel mapping")
}

/// FD with no hardware restriction, run options or tracing.
fn refine(pcn: &Pcn, p: &mut Placement, cfg: &FdConfig) -> Result<FdStats, CoreError> {
    force_directed(pcn, p, cfg, None, None, &mut FdRunOpts::default(), &mut NoopSink)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: bench_scale [--max-mesh N (power of two >= 64)] [--seed N] \
                 [--scramble-seed N] [--degree F] [--threads A,B,..] [--runs N] \
                 [--compare on|off] [--flat-max-iters N] \
                 [--final-sweeps N (0 = converge)] [--json PATH]"
            );
            std::process::exit(2);
        }
    };
    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let over: Vec<usize> = args.threads.iter().copied().filter(|&t| t > cpus).collect();
    if !over.is_empty() {
        eprintln!(
            "[bench_scale] WARNING: only {cpus} CPU(s) granted to this process, but \
             thread arm(s) {over:?} were requested. Those arms are OVERSUBSCRIBED: \
             their timings measure scheduling overhead, not multi-core scaling, and \
             must not be quoted as speedup evidence. They are annotated \
             \"oversubscribed\": true in the JSON artifact."
        );
    }

    let mut sizes: Vec<ScaleSize> = Vec::new();
    let mut comparison = None;
    let mut side: u16 = 64;
    while side <= args.max_mesh {
        let mesh = Mesh::new(side, side).expect("power-of-two mesh");
        let clusters = clusters_for(side);
        eprintln!(
            "[bench_scale] {mesh}: building PCN ({clusters} clusters, degree {}, seed {}, \
             scramble {})...",
            args.degree, args.seed, args.scramble_seed
        );
        let pcn = random_pcn(clusters, args.degree, args.seed).expect("PCN build");
        let pcn = scramble_pcn(&pcn, args.scramble_seed).expect("id scramble");

        let mut runs: Vec<ScaleRun> = Vec::new();
        for &threads in &args.threads {
            eprintln!("[bench_scale] {mesh}: multilevel map, threads={threads}...");
            let outcome = ml_run(&pcn, mesh, threads, args.final_sweeps);
            let stats = outcome.fd_stats.as_ref().expect("finest-level FD runs");
            runs.push(ScaleRun {
                threads,
                oversubscribed: threads > cpus,
                init_secs: outcome.init_elapsed.as_secs_f64(),
                fd_secs: outcome.fd_elapsed.as_secs_f64(),
                sweeps: stats.iterations,
                swaps: stats.swaps,
                final_energy: stats.final_energy,
                placement_digest: digest(&outcome.placement, clusters),
            });
        }

        // Determinism gate: every thread count must land on the same
        // placement at every mesh size, or the artifact is worthless.
        for r in &runs[1..] {
            assert_eq!(
                r.placement_digest, runs[0].placement_digest,
                "{mesh}: threads={} diverged from threads={}",
                r.threads, runs[0].threads
            );
            assert_eq!(r.swaps, runs[0].swaps, "{mesh}: swap count diverged");
        }

        sizes.push(ScaleSize {
            mesh: format!("{side}x{side}"),
            cores: u64::from(side) * u64::from(side),
            clusters,
            connections: pcn.num_connections(),
            runs,
        });

        // Flat-vs-multilevel medians at the bench_fd workload size, on
        // the scrambled instance. Three arms per rep: the multilevel
        // pipeline under the walk's own policy; flat HSC + FD at
        // bench_fd's canonical cap (continuity with BENCH_fd.json); and
        // flat HSC + FD run until it *matches* the multilevel energy —
        // the speedup is quoted against that last arm, because "3x
        // faster to a worse placement" is not a win anyone wants.
        if side == 256 && args.compare {
            let threads = *args.threads.last().expect("non-empty thread list");
            // Restart-chunk size and ceiling of the time-to-match arm.
            // Each chunk re-runs FD from the current placement, paying
            // one full queue rescan (~one sweep of cost) per 20 sweeps;
            // the ceiling bounds the arm when flat can neither match nor
            // converge in a sane benchmark budget.
            const MATCH_CHUNK: u64 = 20;
            const MATCH_CEILING: u64 = 4000;
            let mut flat_secs = Vec::new();
            let mut flat_energy = Vec::new();
            let mut match_secs = Vec::new();
            let mut match_sweeps = Vec::new();
            let mut match_energy = Vec::new();
            let mut ml_secs = Vec::new();
            let mut ml_energy = Vec::new();
            for rep in 0..args.runs {
                eprintln!(
                    "[bench_scale] {mesh}: comparison rep {}/{} (threads={threads})...",
                    rep + 1,
                    args.runs
                );
                // Multilevel first: its energy is the target to match.
                let t1 = Instant::now();
                let outcome = ml_run(&pcn, mesh, threads, args.final_sweeps);
                ml_secs.push(t1.elapsed().as_secs_f64());
                let target = outcome.fd_stats.expect("finest FD").final_energy;
                ml_energy.push(target);

                let t0 = Instant::now();
                let mut placement =
                    hsc_placement(&pcn, mesh, None, threads).expect("initial placement");
                let config = FdConfig {
                    max_iterations: (args.flat_max_iters > 0)
                        .then_some(args.flat_max_iters),
                    threads,
                    ..FdConfig::default()
                };
                let stats = refine(&pcn, &mut placement, &config).expect("FD");
                flat_secs.push(t0.elapsed().as_secs_f64());
                flat_energy.push(stats.final_energy);

                let t2 = Instant::now();
                let mut placement =
                    hsc_placement(&pcn, mesh, None, threads).expect("initial placement");
                let mut sweeps = 0u64;
                let energy = loop {
                    let config = FdConfig {
                        max_iterations: Some(MATCH_CHUNK),
                        threads,
                        ..FdConfig::default()
                    };
                    let stats = refine(&pcn, &mut placement, &config).expect("FD");
                    sweeps += stats.iterations;
                    if stats.final_energy <= target
                        || stats.converged
                        || sweeps >= MATCH_CEILING
                    {
                        break stats.final_energy;
                    }
                };
                match_secs.push(t2.elapsed().as_secs_f64());
                match_sweeps.push(sweeps as f64);
                match_energy.push(energy);
                eprintln!(
                    "[bench_scale]   flat matched {target:.4e} at sweep {sweeps} \
                     (energy {energy:.4e}, {:.2}s)",
                    match_secs[rep]
                );
            }
            comparison = Some(ScaleComparison {
                mesh: format!("{side}x{side}"),
                clusters,
                runs: args.runs,
                flat_max_iters: args.flat_max_iters,
                multilevel_final_sweeps: args.final_sweeps,
                flat_secs_median: median(flat_secs),
                flat_energy_median: median(flat_energy.clone()),
                flat_match_secs_median: median(match_secs.clone()),
                flat_match_sweeps_median: median(match_sweeps),
                flat_match_energy_median: median(match_energy),
                multilevel_secs_median: median(ml_secs.clone()),
                multilevel_energy_median: median(ml_energy.clone()),
                speedup: median(match_secs) / median(ml_secs),
                energy_ratio: median(ml_energy) / median(flat_energy),
            });
        }

        side = match side.checked_mul(2) {
            Some(next) => next,
            None => break,
        };
    }

    println!(
        "\nmultilevel scale walk (seed {}, scramble {}, degree {})\n",
        args.seed, args.scramble_seed, args.degree
    );
    let mut t = Table::new(&[
        "Mesh", "Clusters", "Threads", "Init (s)", "FD (s)", "Sweeps", "Final energy",
        "Digest",
    ]);
    for s in &sizes {
        for r in &s.runs {
            t.row(&[
                s.mesh.clone(),
                s.clusters.to_string(),
                if r.oversubscribed {
                    format!("{}*", r.threads)
                } else {
                    r.threads.to_string()
                },
                format!("{:.3}", r.init_secs),
                format!("{:.3}", r.fd_secs),
                r.sweeps.to_string(),
                format!("{:.6e}", r.final_energy),
                r.placement_digest.clone(),
            ]);
        }
    }
    t.print();
    if !over.is_empty() {
        println!("\n* oversubscribed: more threads than the {cpus} CPU(s) granted");
    }
    println!(
        "\nall {} mesh sizes produced byte-identical placements across thread counts",
        sizes.len()
    );

    if let Some(c) = &comparison {
        println!(
            "\nflat vs multilevel at {} / {} clusters (medians of {} runs):",
            c.mesh, c.clusters, c.runs
        );
        println!(
            "  flat (cap {}):  {:.3}s, energy {:.6e}",
            c.flat_max_iters, c.flat_secs_median, c.flat_energy_median
        );
        println!(
            "  flat-to-match:  {:.3}s, energy {:.6e} ({:.0} sweeps)",
            c.flat_match_secs_median, c.flat_match_energy_median, c.flat_match_sweeps_median
        );
        println!(
            "  multilevel:     {:.3}s, energy {:.6e}",
            c.multilevel_secs_median, c.multilevel_energy_median
        );
        println!(
            "  speedup {:.2}x to equal-or-better energy; energy ratio vs capped flat \
             {:.4} (<= 1 means equal or better)",
            c.speedup, c.energy_ratio
        );
        if c.speedup < 3.0 || c.energy_ratio > 1.0 {
            eprintln!(
                "[bench_scale] WARNING: target is >= 3x speedup at equal-or-better \
                 energy; this machine measured {:.2}x at ratio {:.4}",
                c.speedup, c.energy_ratio
            );
        }
    }

    let record = ScaleBench {
        seed: args.seed,
        scramble_seed: args.scramble_seed,
        degree: args.degree,
        cpus,
        final_sweeps: args.final_sweeps,
        sizes,
        comparison,
    };
    if let Some(path) = &args.json {
        write_json(path, &record).expect("write json");
        println!("wrote {}", path.display());
    }
}
