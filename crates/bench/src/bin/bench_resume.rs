//! Resilience benchmark: an FD run interrupted at several sweep offsets
//! and resumed from its checkpoint must land on a placement
//! **byte-identical** (sha256 over the placement document) to the
//! uninterrupted run, at every thread count. Also measures the
//! disruption advantage of incremental fault repair over a full remap.
//!
//! ```text
//! cargo run --release -p snnmap-bench --bin bench_resume -- \
//!     --clusters 60000 --mesh 256x256 --sweeps 6 \
//!     --threads 1,4 --json results/BENCH_resume.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use snnmap_bench::table::{write_json, Table};
use snnmap_core::{FdCheckpoint, FdRunOpts, Mapper, RunBudget};
use snnmap_hw::{Coord, FaultMap, Mesh, Placement};
use snnmap_io::render_placement;
use snnmap_model::generators::random_pcn;
use snnmap_trace::{sha256_hex, NoopSink};

/// One interrupted-and-resumed measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResumeRun {
    /// Sweep offset the first run was killed at (its `--max-sweeps`).
    pub kill_at_sweep: u64,
    /// Stop reason of the killed run (always `sweep_cap_reached`).
    pub kill_stop: String,
    /// sha256 of the resumed run's final placement document.
    pub resumed_digest: String,
    /// Total sweeps after resuming (counts the checkpoint's sweeps).
    pub resumed_sweeps: u64,
    /// Whether the resumed placement is byte-identical to the
    /// uninterrupted one.
    pub identical: bool,
    /// Wall-clock seconds of kill + resume together.
    pub secs: f64,
}

/// All measurements at one thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreadSection {
    /// Worker threads.
    pub threads: usize,
    /// sha256 of the uninterrupted run's placement document.
    pub full_digest: String,
    /// Sweeps of the uninterrupted run.
    pub full_sweeps: u64,
    /// Wall-clock seconds of the uninterrupted run (init + FD).
    pub full_secs: f64,
    /// One entry per kill offset.
    pub kills: Vec<ResumeRun>,
}

/// Disruption comparison: incremental repair vs full remap after the
/// same hardware degradation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RepairSection {
    /// Cores killed under the live placement.
    pub new_dead_cores: u64,
    /// Clusters the incremental repair relocated (eviction + local FD).
    pub repair_moved: u64,
    /// Cores the region-masked FD pass was allowed to touch.
    pub repair_region_cores: u64,
    /// Clusters a full remap under the same faults relocates.
    pub full_remap_moved: u64,
}

/// The whole benchmark record written to `--json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResumeBench {
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
    /// Total sweep cap of the uninterrupted reference run.
    pub sweep_cap: u64,
    /// One section per `--threads` value, in the given order.
    pub runs: Vec<ThreadSection>,
    /// Incremental-repair disruption comparison.
    pub repair: RepairSection,
}

/// sha256 over the canonical placement document — the exact bytes
/// `snnmap map --out` would write, so "identical digest" means
/// "identical file on disk".
fn digest(p: &Placement) -> String {
    sha256_hex(render_placement(p).as_bytes())
}

struct Args {
    clusters: u32,
    mesh: Mesh,
    seed: u64,
    degree: f64,
    sweeps: u64,
    threads: Vec<usize>,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut clusters: u32 = 60_000;
    let mut mesh_spec = "256x256".to_string();
    let mut seed: u64 = 42;
    let mut degree: f64 = 4.0;
    let mut sweeps: u64 = 6;
    let mut threads = vec![1usize, 4];
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("snnmap checkpoint/resume benchmark".to_string());
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
            "--sweeps" => {
                sweeps = value.parse().map_err(|_| format!("bad --sweeps `{value}`"))?;
                if sweeps < 2 {
                    return Err("--sweeps wants at least 2 (kills happen strictly inside)".into());
                }
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
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let (r, c) = mesh_spec
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("expected `--mesh RxC`, got `{mesh_spec}`"))?;
    let rows: u16 = r.parse().map_err(|_| format!("bad mesh rows `{r}`"))?;
    let cols: u16 = c.parse().map_err(|_| format!("bad mesh cols `{c}`"))?;
    let mesh = Mesh::new(rows, cols).map_err(|e| e.to_string())?;
    Ok(Args { clusters, mesh, seed, degree, sweeps, threads, json })
}

/// Kill offsets strictly inside `1..cap`: early, middle and late.
fn kill_offsets(cap: u64) -> Vec<u64> {
    let mut offs = vec![1, cap / 2, cap - 1];
    offs.retain(|&o| o >= 1 && o < cap);
    offs.dedup();
    offs
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: bench_resume [--clusters N] [--mesh RxC] [--seed N] [--degree F] \
                 [--sweeps N] [--threads A,B,..] [--json PATH]"
            );
            std::process::exit(2);
        }
    };

    eprintln!(
        "[bench_resume] building PCN: {} clusters, degree {}, seed {}...",
        args.clusters, args.degree, args.seed
    );
    let pcn = random_pcn(args.clusters, args.degree, args.seed).expect("PCN build");
    let offsets = kill_offsets(args.sweeps);
    assert!(offsets.len() >= 3 || args.sweeps < 4, "expected >=3 kill offsets");

    let mut sections: Vec<ThreadSection> = Vec::new();
    let mut baseline_placement: Option<Placement> = None;
    for &threads in &args.threads {
        let mapper = Mapper::builder().threads(threads).build();

        eprintln!("[bench_resume] threads={threads}: uninterrupted reference run...");
        let t0 = Instant::now();
        let mut opts = FdRunOpts {
            budget: RunBudget { max_sweeps: Some(args.sweeps), ..RunBudget::default() },
            ..FdRunOpts::default()
        };
        let full = mapper
            .map_budgeted_traced(&pcn, args.mesh, &mut opts, &mut NoopSink)
            .expect("reference run");
        let full_secs = t0.elapsed().as_secs_f64();
        let full_stats = full.fd_stats.expect("FD ran");
        let full_digest = digest(&full.placement);
        if baseline_placement.is_none() {
            baseline_placement = Some(full.placement.clone());
        }

        let mut kills: Vec<ResumeRun> = Vec::new();
        for &offset in &offsets {
            eprintln!("[bench_resume] threads={threads}: kill at sweep {offset}, resume...");
            let t1 = Instant::now();
            let mut slot: Option<FdCheckpoint> = None;
            let kill_stop;
            {
                let mut writer =
                    |cp: &FdCheckpoint| -> Result<(), String> {
                        slot = Some(cp.clone());
                        Ok(())
                    };
                let mut opts = FdRunOpts {
                    budget: RunBudget { max_sweeps: Some(offset), ..RunBudget::default() },
                    on_checkpoint: Some(&mut writer),
                    ..FdRunOpts::default()
                };
                let killed = mapper
                    .map_budgeted_traced(&pcn, args.mesh, &mut opts, &mut NoopSink)
                    .expect("killed run");
                kill_stop = killed.fd_stats.expect("FD ran").stop.as_str().to_string();
            }
            let checkpoint = slot.expect("budgeted stop flushes a checkpoint");
            assert_eq!(checkpoint.sweeps, offset);

            let mut opts = FdRunOpts {
                budget: RunBudget { max_sweeps: Some(args.sweeps), ..RunBudget::default() },
                ..FdRunOpts::default()
            };
            let resumed = mapper
                .resume_traced(&pcn, &checkpoint, &mut opts, &mut NoopSink)
                .expect("resumed run");
            let secs = t1.elapsed().as_secs_f64();
            let resumed_stats = resumed.fd_stats.expect("FD ran");
            let resumed_digest = digest(&resumed.placement);
            let identical = resumed_digest == full_digest;
            assert!(
                identical,
                "threads={threads}: resume from sweep {offset} diverged from the \
                 uninterrupted run"
            );
            assert_eq!(resumed_stats.iterations, full_stats.iterations);
            kills.push(ResumeRun {
                kill_at_sweep: offset,
                kill_stop,
                resumed_digest,
                resumed_sweeps: resumed_stats.iterations,
                identical,
                secs,
            });
        }
        sections.push(ThreadSection {
            threads,
            full_digest,
            full_sweeps: full_stats.iterations,
            full_secs,
            kills,
        });
    }

    // All thread counts agree with each other too (the engine is
    // thread-count invariant).
    for s in &sections[1..] {
        assert_eq!(
            s.full_digest, sections[0].full_digest,
            "threads={} diverged from threads={}",
            s.threads, sections[0].threads
        );
    }

    // Disruption: degrade the hardware under the live placement, then
    // compare the incremental repair against a from-scratch remap.
    eprintln!("[bench_resume] incremental repair vs full remap...");
    let live = baseline_placement.expect("at least one thread count ran");
    let previous = FaultMap::new(args.mesh);
    let mut current = FaultMap::new(args.mesh);
    let n = pcn.num_clusters();
    let step = (n / 12).max(1);
    let mut killed_cores: Vec<Coord> = Vec::new();
    for k in 0..12u32 {
        let cluster = (k * step) % n;
        let coord = live.coord_of(cluster).expect("complete placement");
        if !killed_cores.contains(&coord) {
            current.kill_core(coord).expect("in mesh");
            killed_cores.push(coord);
        }
    }

    let mapper = Mapper::builder().threads(args.threads[0]).build();
    let mut repaired = live.clone();
    let report = mapper
        .repair_incremental_traced(
            &pcn,
            &mut repaired,
            &previous,
            &current,
            2,
            RunBudget { max_sweeps: Some(args.sweeps), ..RunBudget::default() },
            &mut NoopSink,
        )
        .expect("incremental repair");

    let full_mapper =
        Mapper::builder().threads(args.threads[0]).fault_map(current.clone()).build();
    let mut opts = FdRunOpts {
        budget: RunBudget { max_sweeps: Some(args.sweeps), ..RunBudget::default() },
        ..FdRunOpts::default()
    };
    let remapped = full_mapper
        .map_budgeted_traced(&pcn, args.mesh, &mut opts, &mut NoopSink)
        .expect("full remap");
    let full_remap_moved =
        (0..n).filter(|&c| remapped.placement.coord_of(c) != live.coord_of(c)).count() as u64;
    assert!(
        report.moved < full_remap_moved,
        "incremental repair must disturb fewer clusters: {} vs {}",
        report.moved,
        full_remap_moved
    );
    let repair = RepairSection {
        new_dead_cores: killed_cores.len() as u64,
        repair_moved: report.moved,
        repair_region_cores: report.region_cores,
        full_remap_moved,
    };

    println!(
        "\ncheckpoint/resume: {} clusters on {} (seed {}, {} sweeps)\n",
        args.clusters, args.mesh, args.seed, args.sweeps
    );
    let mut t = Table::new(&["Threads", "Killed at", "Resumed sweeps", "Identical", "Secs"]);
    for s in &sections {
        for k in &s.kills {
            t.row(&[
                s.threads.to_string(),
                k.kill_at_sweep.to_string(),
                k.resumed_sweeps.to_string(),
                k.identical.to_string(),
                format!("{:.3}", k.secs),
            ]);
        }
    }
    t.print();
    println!(
        "\nall {} kill/resume runs reproduced the uninterrupted placement byte-for-byte",
        sections.iter().map(|s| s.kills.len()).sum::<usize>()
    );
    println!(
        "repair: {} dead cores -> {} clusters moved (region {} cores) vs {} under full remap",
        repair.new_dead_cores, repair.repair_moved, repair.repair_region_cores,
        repair.full_remap_moved
    );

    let record = ResumeBench {
        clusters: pcn.num_clusters(),
        connections: pcn.num_connections(),
        mesh: format!("{}x{}", args.mesh.rows(), args.mesh.cols()),
        seed: args.seed,
        degree: args.degree,
        sweep_cap: args.sweeps,
        runs: sections,
        repair,
    };
    if let Some(path) = &args.json {
        write_json(path, &record).expect("write json");
        println!("wrote {}", path.display());
    }
}
