//! Whole-chip-loss benchmark: map the 60k/256×256 reference workload
//! onto a multi-chip board, kill one of its chips, and measure what the
//! incremental evacuation costs compared to a full remap — evacuation
//! wall-clock, clusters moved, and the interconnect-energy delta of the
//! degraded layout. The repair must stay capacity-valid on the surviving
//! chips and land byte-identically at every thread count.
//!
//! ```text
//! cargo run --release -p snnmap-bench --bin bench_chipfail -- \
//!     --clusters 60000 --board 8x8/32x32@4096,65536 --sweeps 6 \
//!     --chip 27 --threads 1,2,4 --json results/BENCH_chipfail.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use snnmap_bench::table::{write_json, Table};
use snnmap_core::{validate_board, FdRunOpts, Mapper, RunBudget};
use snnmap_hw::{Board, CostModel, FaultMap, Placement};
use snnmap_io::render_placement;
use snnmap_model::generators::random_pcn;
use snnmap_model::{Pcn, PcnBuilder};
use snnmap_trace::{sha256_hex, NoopSink};

/// One map-then-kill-then-repair measurement at a given thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChipfailRun {
    /// Worker threads.
    pub threads: usize,
    /// Whether this arm asked for more threads than CPUs granted to
    /// the process. An oversubscribed arm still produces the identical
    /// placement — it just measures scheduling pressure, not speedup.
    pub oversubscribed: bool,
    /// Wall-clock seconds of the healthy board-aware map (init + FD).
    pub map_secs: f64,
    /// sha256 of the healthy placement document.
    pub baseline_digest: String,
    /// Interconnect energy of the healthy placement (eq. 9).
    pub baseline_energy: f64,
    /// Wall-clock seconds of the chip evacuation
    /// ([`Mapper::repair_incremental`]).
    pub repair_secs: f64,
    /// Clusters evicted off the dead chip.
    pub evicted: u64,
    /// Clusters whose coordinate changed (eviction + local FD).
    pub moved: u64,
    /// Cores the region-masked FD pass was allowed to touch.
    pub region_cores: u64,
    /// sha256 of the repaired placement document.
    pub repaired_digest: String,
    /// Interconnect energy after the evacuation.
    pub repaired_energy: f64,
}

/// The full-remap comparison arm: remapping from scratch under the same
/// chip loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RemapSection {
    /// Wall-clock seconds of the from-scratch faulted map.
    pub secs: f64,
    /// Clusters whose coordinate differs from the healthy baseline —
    /// the disruption a live system would pay to adopt it.
    pub moved: u64,
    /// Interconnect energy of the remapped placement.
    pub energy: f64,
}

/// The graceful-degradation demo arm: a board whose surviving capacity
/// cannot absorb the dead chip's load. The repair reports a typed
/// shortfall instead of erroring.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradedSection {
    /// The deliberately tiny board spec.
    pub board: String,
    /// The chip killed out of its two.
    pub chip: u32,
    /// Clusters left unplaced.
    pub unplaced: u64,
    /// Neuron demand of the unplaced clusters.
    pub demand_neurons: u64,
    /// Neuron capacity of the surviving free cores.
    pub spare_neurons: u64,
    /// Whether two independent repairs of the same loss produced the
    /// same typed report (degraded mode is deterministic too).
    pub deterministic: bool,
}

/// The whole benchmark record written to `--json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChipfailBench {
    /// PCN cluster count.
    pub clusters: u32,
    /// PCN connection count.
    pub connections: u64,
    /// Board spec the workload was mapped onto.
    pub board: String,
    /// The board's core mesh as `RxC`.
    pub mesh: String,
    /// Chips on the board.
    pub chips: u32,
    /// The chip killed mid-run.
    pub chip_killed: u32,
    /// PCN generator seed.
    pub seed: u64,
    /// PCN average out-degree.
    pub degree: f64,
    /// FD sweep cap of the healthy map and the full remap.
    pub sweep_cap: u64,
    /// FD sweep cap of the region-masked repair pass.
    pub repair_sweeps: u64,
    /// CPUs granted to the benchmark process.
    pub cpus: usize,
    /// One arm per `--threads` value, in the given order.
    pub runs: Vec<ChipfailRun>,
    /// The full-remap comparison under the same chip loss.
    pub full_remap: RemapSection,
    /// The over-capacity degraded-mode demo.
    pub degraded: DegradedSection,
}

/// Fixed evacuation knobs, matching the serve daemon's online repair so
/// the benchmark measures the same code path operators get.
const REPAIR_RADIUS: u16 = 2;
const REPAIR_SWEEPS: u64 = 16;

/// sha256 over the canonical placement document — the exact bytes
/// `snnmap map --out` would write.
fn digest(p: &Placement) -> String {
    sha256_hex(render_placement(p).as_bytes())
}

fn energy_of(pcn: &Pcn, p: &Placement) -> f64 {
    snnmap_metrics::energy(pcn, p, CostModel::paper_target()).expect("complete placement")
}

struct Args {
    clusters: u32,
    board: Board,
    board_spec: String,
    chip: u32,
    seed: u64,
    degree: f64,
    sweeps: u64,
    threads: Vec<usize>,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut clusters: u32 = 60_000;
    let mut board_spec = "8x8/32x32@4096,65536".to_string();
    let mut chip: u32 = 27;
    let mut seed: u64 = 42;
    let mut degree: f64 = 4.0;
    let mut sweeps: u64 = 6;
    let mut threads = vec![1usize, 2, 4];
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("snnmap whole-chip-loss benchmark".to_string());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--clusters" => {
                clusters = value.parse().map_err(|_| format!("bad --clusters `{value}`"))?
            }
            "--board" => board_spec = value,
            "--chip" => chip = value.parse().map_err(|_| format!("bad --chip `{value}`"))?,
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--degree" => {
                degree = value.parse().map_err(|_| format!("bad --degree `{value}`"))?
            }
            "--sweeps" => {
                sweeps = value.parse().map_err(|_| format!("bad --sweeps `{value}`"))?
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
    let board = Board::parse(&board_spec).map_err(|e| e.to_string())?;
    if chip >= board.num_chips() {
        return Err(format!("--chip {chip} is off the board ({} chips)", board.num_chips()));
    }
    Ok(Args { clusters, board, board_spec, chip, seed, degree, sweeps, threads, json })
}

/// The over-capacity demo: four 1-neuron clusters exactly filling a
/// `1x2/1x2@1,64` board, then one of its two chips dies. Two clusters
/// have nowhere to go — the repair must say so in a typed report, twice,
/// identically.
fn degraded_demo() -> DegradedSection {
    const SPEC: &str = "1x2/1x2@1,64";
    let board = Board::parse(SPEC).expect("demo board");
    let mut b = PcnBuilder::new();
    for _ in 0..4 {
        b.add_cluster(1, 1);
    }
    b.add_edge(0, 1, 1.0).expect("edge");
    b.add_edge(2, 3, 1.0).expect("edge");
    let pcn = b.build().expect("demo PCN");

    let mapper = Mapper::builder().board(board.clone()).build();
    let healthy = mapper.map(&pcn, board.mesh()).expect("demo map").placement;
    let previous = FaultMap::new(board.mesh());
    let mut current = previous.clone();
    current.kill_chip(&board, 1).expect("kill chip 1");

    let mut reports = Vec::new();
    for _ in 0..2 {
        let mut repaired = healthy.clone();
        let report = mapper
            .repair_incremental_traced(
                &pcn,
                &mut repaired,
                &previous,
                &current,
                REPAIR_RADIUS,
                RunBudget { max_sweeps: Some(REPAIR_SWEEPS), ..RunBudget::default() },
                &mut NoopSink,
            )
            .expect("degraded repair is Ok, not Err");
        reports.push(report.degraded.expect("capacity shortfall is reported"));
    }
    let deterministic = reports[0] == reports[1];
    assert!(deterministic, "degraded reports diverged between identical repairs");
    let d = reports.remove(0);
    assert!(!d.unplaced.is_empty(), "half the demo workload lost its only home");
    DegradedSection {
        board: SPEC.to_string(),
        chip: 1,
        unplaced: d.unplaced.len() as u64,
        demand_neurons: d.demand_neurons,
        spare_neurons: d.spare_neurons,
        deterministic,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: bench_chipfail [--clusters N] [--board SPEC] [--chip N] [--seed N] \
                 [--degree F] [--sweeps N] [--threads A,B,..] [--json PATH]"
            );
            std::process::exit(2);
        }
    };

    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let over: Vec<usize> = args.threads.iter().copied().filter(|&t| t > cpus).collect();
    if !over.is_empty() {
        eprintln!(
            "[bench_chipfail] WARNING: only {cpus} CPU(s) granted to this process, but \
             --threads asks for {over:?}; those arms measure scheduling pressure, not \
             speedup, and are marked \"oversubscribed\": true in the JSON artifact."
        );
    }

    let mesh = args.board.mesh();
    eprintln!(
        "[bench_chipfail] building PCN: {} clusters, degree {}, seed {}...",
        args.clusters, args.degree, args.seed
    );
    let pcn = random_pcn(args.clusters, args.degree, args.seed).expect("PCN build");

    let previous = FaultMap::new(mesh);
    let mut current = previous.clone();
    let dead_cores = current.kill_chip(&args.board, args.chip).expect("kill chip");
    eprintln!(
        "[bench_chipfail] chip {} of {} dies ({dead_cores} cores)",
        args.chip,
        args.board.num_chips()
    );

    let mut runs: Vec<ChipfailRun> = Vec::new();
    let mut baseline: Option<Placement> = None;
    for &threads in &args.threads {
        let mapper = Mapper::builder().threads(threads).board(args.board.clone()).build();

        eprintln!("[bench_chipfail] threads={threads}: healthy board-aware map...");
        let t0 = Instant::now();
        let mut opts = FdRunOpts {
            budget: RunBudget { max_sweeps: Some(args.sweeps), ..RunBudget::default() },
            ..FdRunOpts::default()
        };
        let healthy =
            mapper.map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink).expect("healthy map");
        let map_secs = t0.elapsed().as_secs_f64();
        let baseline_digest = digest(&healthy.placement);
        let baseline_energy = energy_of(&pcn, &healthy.placement);
        validate_board(&pcn, &healthy.placement, None, &args.board)
            .expect("healthy placement is capacity-valid");

        eprintln!("[bench_chipfail] threads={threads}: evacuating chip {}...", args.chip);
        let mut repaired = healthy.placement.clone();
        let t1 = Instant::now();
        let report = mapper
            .repair_incremental_traced(
                &pcn,
                &mut repaired,
                &previous,
                &current,
                REPAIR_RADIUS,
                RunBudget { max_sweeps: Some(REPAIR_SWEEPS), ..RunBudget::default() },
                &mut NoopSink,
            )
            .expect("chip evacuation");
        let repair_secs = t1.elapsed().as_secs_f64();
        assert!(
            report.degraded.is_none(),
            "the surviving {} chips must absorb one chip's load",
            args.board.num_chips() - 1
        );
        validate_board(&pcn, &repaired, Some(&current), &args.board)
            .expect("repaired placement is capacity-valid and fault-masked");

        if baseline.is_none() {
            baseline = Some(healthy.placement.clone());
        }
        runs.push(ChipfailRun {
            threads,
            oversubscribed: threads > cpus,
            map_secs,
            baseline_digest,
            baseline_energy,
            repair_secs,
            evicted: report.evicted.len() as u64,
            moved: report.moved,
            region_cores: report.region_cores,
            repaired_digest: digest(&repaired),
            repaired_energy: energy_of(&pcn, &repaired),
        });
    }

    // Determinism: every thread count produced the same healthy layout
    // and the same evacuation, byte for byte.
    for r in &runs[1..] {
        assert_eq!(
            r.baseline_digest, runs[0].baseline_digest,
            "threads={} healthy map diverged from threads={}",
            r.threads, runs[0].threads
        );
        assert_eq!(
            r.repaired_digest, runs[0].repaired_digest,
            "threads={} evacuation diverged from threads={}",
            r.threads, runs[0].threads
        );
    }

    // Full remap under the same loss: what a board operator would pay
    // without incremental repair.
    eprintln!("[bench_chipfail] full remap on the degraded board...");
    let live = baseline.expect("at least one thread count ran");
    let remapper = Mapper::builder()
        .threads(args.threads[0])
        .board(args.board.clone())
        .fault_map(current.clone())
        .build();
    let t2 = Instant::now();
    let mut opts = FdRunOpts {
        budget: RunBudget { max_sweeps: Some(args.sweeps), ..RunBudget::default() },
        ..FdRunOpts::default()
    };
    let remapped =
        remapper.map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink).expect("full remap");
    let remap_secs = t2.elapsed().as_secs_f64();
    validate_board(&pcn, &remapped.placement, Some(&current), &args.board)
        .expect("remapped placement is capacity-valid and fault-masked");
    let n = pcn.num_clusters();
    let full_remap_moved =
        (0..n).filter(|&c| remapped.placement.coord_of(c) != live.coord_of(c)).count() as u64;
    assert!(
        runs[0].moved < full_remap_moved,
        "incremental evacuation must disturb fewer clusters: {} vs {}",
        runs[0].moved,
        full_remap_moved
    );
    let full_remap = RemapSection {
        secs: remap_secs,
        moved: full_remap_moved,
        energy: energy_of(&pcn, &remapped.placement),
    };

    eprintln!("[bench_chipfail] over-capacity degraded-mode demo...");
    let degraded = degraded_demo();

    println!(
        "\nchip loss: {} clusters on {} (chip {} of {} dies, {} cores)\n",
        args.clusters,
        args.board,
        args.chip,
        args.board.num_chips(),
        dead_cores
    );
    let mut t = Table::new(&[
        "Threads", "Map (s)", "Repair (s)", "Evicted", "Moved", "Region", "Energy +%",
    ]);
    for r in &runs {
        let delta_pct = 100.0 * (r.repaired_energy - r.baseline_energy) / r.baseline_energy;
        t.row(&[
            format!("{}{}", r.threads, if r.oversubscribed { "*" } else { "" }),
            format!("{:.3}", r.map_secs),
            format!("{:.3}", r.repair_secs),
            r.evicted.to_string(),
            r.moved.to_string(),
            r.region_cores.to_string(),
            format!("{delta_pct:+.2}"),
        ]);
    }
    t.print();
    if runs.iter().any(|r| r.oversubscribed) {
        println!("\n* oversubscribed: more threads than the {cpus} CPU(s) granted");
    }
    println!(
        "\nevacuation moved {} clusters vs {} under a full remap ({:.1}x less disruption); \
         all thread counts byte-identical",
        runs[0].moved,
        full_remap.moved,
        full_remap.moved as f64 / runs[0].moved.max(1) as f64
    );
    println!(
        "degraded demo: board {} lost chip {} -> {} unplaced ({} neurons over {} spare), \
         deterministic={}",
        degraded.board,
        degraded.chip,
        degraded.unplaced,
        degraded.demand_neurons,
        degraded.spare_neurons,
        degraded.deterministic
    );

    let record = ChipfailBench {
        clusters: pcn.num_clusters(),
        connections: pcn.num_connections(),
        board: args.board_spec.clone(),
        mesh: format!("{}x{}", mesh.rows(), mesh.cols()),
        chips: args.board.num_chips(),
        chip_killed: args.chip,
        seed: args.seed,
        degree: args.degree,
        sweep_cap: args.sweeps,
        repair_sweeps: REPAIR_SWEEPS,
        cpus,
        runs,
        full_remap,
        degraded,
    };
    if let Some(path) = &args.json {
        write_json(path, &record).expect("write json");
        println!("wrote {}", path.display());
    }
}
