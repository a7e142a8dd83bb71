//! The benchmark's command-line entry point.
//!
//! ```text
//! snnbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's input from the seed in a child process
//! (`snnbench prep ...`), then measures in this process. With `--trace 0`
//! it repeats the set-up and the timed operation and reports the fastest
//! repetition of each timing; with `--trace 1` it runs the operation
//! untraced and traced and reports the per-layer metrics. The last
//! line of standard output is the JSON result; the exit code is 0 only
//! when every operation passed the correctness gate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde_json::{json, Value};
use snnbench::gate::{digest, Failure, Gate};
use snnbench::layers::{layer_metrics, stage_table, Extras};
use snnbench::report::{fastest, result_line, Metrics, END_TO_END};
use snnbench::span::{span, Recorder, Tracer};
use snnbench::sys::usage;
use snnbench::workloads::{noc_scale, OpOut, Setup, Workload, CNN_SIM_CYCLES};
use snnmap_core::{coarsen, par, MultilevelConfig};
use snnmap_hw::{CostModel, Placement};
use snnmap_metrics::{evaluate_with, EvalOptions, MetricsReport};
use snnmap_noc::{NocConfig, NocSim, PcnTraffic};
use snnmap_trace::NoopSink;

/// Timed operations: at least this many, and more while the run is
/// shorter than `--seconds`.
const MIN_OPS: usize = 2;
/// Where the inputs and placements of a run live, under the current
/// directory; removed when the run ends.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("snnbench: {msg}");
    eprintln!("usage: snnbench --workload NAME --seed N --seconds S --trace 0|1");
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("workloads: {}", names.join(", "));
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<(Args, Option<PathBuf>), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) = (None, None, 10.0, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok((
        Args {
            workload,
            seed,
            seconds,
            trace,
        },
        dir,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let prep = argv.first().is_some_and(|a| a == "prep");
    let (args, dir) = match parse_args(&argv[usize::from(prep)..]) {
        Ok(a) => a,
        Err(msg) => return usage_error(&msg),
    };
    if prep {
        let Some(dir) = dir else {
            return usage_error("prep needs --dir");
        };
        return match args.workload.prep(args.seed, &dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(f) => {
                eprintln!("snnbench prep: {f}");
                ExitCode::FAILURE
            }
        };
    }

    let work = Path::new(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let code = run(&args, &work);
    if let Err(e) = std::fs::remove_dir_all(&work) {
        eprintln!("snnbench: cannot remove {}: {e}", work.display());
    }
    // Leave no empty work directory behind either.
    let _ = std::fs::remove_dir(WORK_DIR);
    code
}

fn run(args: &Args, work: &Path) -> ExitCode {
    // Inputs come from the seed, generated outside every timed region by
    // a child process, so this process's peak RSS is the workload's own.
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return fatal(&format!("cannot locate own executable: {e}")),
    };
    let status = Command::new(exe)
        .arg("prep")
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--dir")
        .arg(work)
        .status();
    match status {
        Ok(s) if s.success() => {}
        Ok(s) => return fatal(&format!("input generation failed ({s})")),
        Err(e) => return fatal(&format!("cannot run input generation: {e}")),
    }
    let result = if args.trace {
        traced(args, work)
    } else {
        untraced(args, work)
    };
    match result {
        Ok(code) => code,
        Err(f) => fatal(&f.to_string()),
    }
}

fn fatal(msg: &str) -> ExitCode {
    eprintln!("snnbench: {msg}");
    ExitCode::FAILURE
}

/// Runs the timed operation once, catching panics.
fn run_op<R: Recorder>(setup: &Setup, r: &mut R, out: &Path) -> Result<OpOut, Failure> {
    catch_unwind(AssertUnwindSafe(|| setup.run(r, out))).map_err(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        Failure::Panic(msg)
    })
}

/// What the gate keeps of one operation: its final placement, the
/// clusters it moved, and the clusters each of its repairs evicted.
#[derive(Default)]
struct Gated {
    last: Option<Placement>,
    moved: u64,
    evicted: Vec<u64>,
}

/// Records every step of one operation in the gate.
fn gate_op(gate: &mut Gate, op: Result<OpOut, Failure>) -> Gated {
    match op {
        Err(f) => {
            gate.record("op", Err(f));
            Gated::default()
        }
        Ok(out) => {
            let gated = Gated {
                last: out.final_placement().cloned(),
                moved: out.steps.iter().map(|s| s.moved).sum(),
                evicted: out.steps.iter().skip(1).map(|s| s.evicted).collect(),
            };
            for step in out.steps {
                gate.record(&step.label, step.outcome.map(|p| digest(&p)));
            }
            gated
        }
    }
}

fn evaluate(setup: &Setup, placement: &Placement, seed: u64) -> Result<MetricsReport, Failure> {
    let options = EvalOptions {
        congestion_sample: Some((setup.workload().eval_edges(), seed)),
    };
    evaluate_with(&setup.pcn, placement, CostModel::paper_target(), options).map_err(Failure::error)
}

/// Total spike traffic of the PCN: the sum of its connection weights.
fn total_spikes(setup: &Setup) -> f64 {
    let pcn = &setup.pcn;
    (0..pcn.num_clusters())
        .flat_map(|c| pcn.out_edges(c))
        .map(|(_, w)| f64::from(w))
        .sum()
}

/// The checked-out commit, or `unknown` when the current directory is not
/// the top of a git work tree (an exported source tree, or one nested in
/// some other repository).
fn commit() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
    };
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top =
        git(&["rev-parse", "--show-toplevel"]).and_then(|t| Path::new(&t).canonicalize().ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => git(&["rev-parse", "--short=12", "HEAD"]),
        _ => None,
    }
    .unwrap_or_else(|| "unknown".to_owned())
}

fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

fn print_digests(args: &Args, gate: &Gate) {
    for (label, d) in gate.digests() {
        println!(
            "digest {} seed={} {label} {d}",
            args.workload.name(),
            args.seed
        );
    }
}

/// The run record: one JSON object with the fields every result carries,
/// then `extra`.
fn print_record(args: &Args, setup: &Setup, gate: &Gate, extra: Value) {
    let threads = args.workload.threads();
    let cpus = cpus();
    let final_digest = gate.digests().values().last().cloned().unwrap_or_default();
    let mut record = json!({
        "format": "snnmap-bench-v1",
        "commit": commit(),
        "cpus": cpus,
        "threads": threads,
        "oversubscribed": threads > cpus,
        "workload": args.workload.name(),
        "seed": args.seed,
        "trace": args.trace,
        "digest": final_digest,
        "peak_rss_mb": usage().peak_rss_mb,
        "input_bytes": setup.input_bytes,
        "clusters": setup.pcn.num_clusters(),
        "connections": setup.pcn.num_connections()
    });
    if let (Value::Object(record), Value::Object(extra)) = (&mut record, extra) {
        for (k, v) in extra.iter() {
            record.insert(k.clone(), v.clone());
        }
    }
    let text = serde_json::to_string(&record).expect("a value tree always renders");
    println!("record {text}");
}

/// Untraced run: timed operations for at least `--seconds`, each after a
/// batch of set-ups; the fastest repetition of each timing.
fn untraced(args: &Args, work: &Path) -> Result<ExitCode, Failure> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<Setup, Failure> {
        let t0 = Instant::now();
        let s = w.setup(work, &mut NoopSink)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(s)
    };
    let t_run = Instant::now();
    let setup = timed_setup()?;

    let out = work.join("placement.json");
    let mut gate = Gate::new();
    let (mut walls, mut cpu) = (Vec::new(), Vec::new());
    let (mut gated, mut peak_rss_mb) = (Gated::default(), 0.0);
    let budget = Duration::from_secs_f64(args.seconds);
    while walls.len() < MIN_OPS || t_run.elapsed() < budget {
        // The set-ups interleave with the operations, so that both sample
        // the machine over the same stretch of time.
        for _ in 0..w.setup_batch() {
            drop(timed_setup()?);
        }
        let u0 = usage();
        let t0 = Instant::now();
        let op = run_op(&setup, &mut NoopSink, &out);
        let wall = t0.elapsed().as_secs_f64();
        let u1 = usage();
        walls.push(wall);
        cpu.push(u1.cpu_s - u0.cpu_s);
        gated = gate_op(&mut gate, op);
        if walls.len() == MIN_OPS {
            // The peak after a fixed amount of work. Later operations
            // still raise it a little (the heap keeps some of what they
            // freed), and how many of them fit in `--seconds` depends on
            // the machine's speed.
            peak_rss_mb = usage().peak_rss_mb;
        }
    }

    // Quality of the final placement, after the timer.
    let mut m = Metrics::default();
    let mut set = |name: &str, value: f64| m.set(END_TO_END, name, value);
    set("time_to_placement_s", fastest(&walls));
    set("setup_s", fastest(&setup_s));
    set("cpu_s", fastest(&cpu));
    set("peak_rss_mb", peak_rss_mb);
    let t_eval = Instant::now();
    let report = gated.last.as_ref().map(|p| evaluate(&setup, p, args.seed));
    let eval_s = t_eval.elapsed().as_secs_f64();
    let (mut m_mc, mut coverage) = (0.0, 0.0);
    match report {
        Some(Ok(report)) => {
            set("energy_per_spike", report.energy / total_spikes(&setup));
            m_mc = report.max_congestion;
            coverage = report.congestion_coverage;
        }
        Some(Err(f)) => gate.record("eval", Err(f)),
        None => {}
    }
    // Only a failed operation leaves a metric unmeasured; the gate has
    // counted it, and the result must still name every metric.
    for name in m.missing(END_TO_END) {
        m.set(END_TO_END, name, 0.0);
    }

    print_digests(args, &gate);
    print_record(
        args,
        &setup,
        &gate,
        json!({
            "ops": walls.len(),
            "setup_reps": setup_s.len(),
            "eval_s": eval_s,
            "m_mc": m_mc,
            "m_mc_coverage": coverage,
            "total_spikes": total_spikes(&setup),
            "moved_clusters": gated.moved,
            "evicted_per_repair": gated.evicted,
            "failed_ops_ratio": gate.failed_ratio()
        }),
    );
    let runs = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("samples time_to_placement_s: {}", runs(&walls));
    println!("samples setup_s: {}", runs(&setup_s));
    println!("samples cpu_s: {}", runs(&cpu));
    println!("end-to-end metrics of {} (seed {}):", w.name(), args.seed);
    for (name, unit, value) in m.iter() {
        println!("  {name:<22} {value:>16.6} {unit}");
    }
    let moved_note = if w == Workload::BoardChiploss {
        ""
    } else {
        " (board_chiploss only)"
    };
    println!(
        "  {:<22} {m_mc:>16.6} spikes (coverage {coverage:.4})",
        "m_mc"
    );
    println!(
        "  {:<22} {:>16} count{moved_note}",
        "moved_clusters", gated.moved
    );
    println!(
        "  {:<22} {:>16.6} ratio",
        "failed_ops_ratio",
        gate.failed_ratio()
    );
    Ok(finish(&mut gate, &m))
}

/// Traced run: the operation untraced (the digest reference, and a
/// warm-up), traced, and untraced again (the overhead base: warm like the
/// traced one); per-layer metrics and the stage table.
fn traced(args: &Args, work: &Path) -> Result<ExitCode, Failure> {
    let w = args.workload;
    let mut tr = Tracer::new();
    let setup = span(&mut tr, "setup", |r| w.setup(work, r))?;
    let out = work.join("placement.json");
    let mut gate = Gate::new();

    gate_op(&mut gate, run_op(&setup, &mut NoopSink, &out));

    let par0 = par::counters();
    let t1 = Instant::now();
    let op = span(&mut tr, "op", |r| run_op(&setup, r, &out));
    let op_wall_s = t1.elapsed().as_secs_f64();
    let par = par::counters().since(par0);
    let write_bytes = op.as_ref().map_or(0, |o| o.written_bytes);
    // Same labels as the untraced operation: the gate fails any step
    // whose traced digest differs.
    let last = gate_op(&mut gate, op).last;

    let t2 = Instant::now();
    let base = run_op(&setup, &mut NoopSink, &out);
    let untraced_wall_s = t2.elapsed().as_secs_f64();
    gate_op(&mut gate, base);

    let mut x = Extras {
        ingest_bytes: setup.input_bytes,
        write_bytes,
        clusters: u64::from(setup.pcn.num_clusters()),
        connections: setup.pcn.num_connections(),
        par,
        op_wall_s,
        threads: w.threads(),
        board: w == Workload::BoardChiploss,
        untraced_wall_s,
        ..Extras::default()
    };
    if w == Workload::Multilevel512 {
        let cfg = MultilevelConfig::default().coarsen;
        let levels = span(&mut tr, "probe", |r| {
            span(r, "coarsen", |_| coarsen(&setup.pcn, &cfg))
        })
        .map_err(Failure::error)?;
        x.coarsen_levels = levels.len() as u64;
        x.coarsest_clusters = levels.last().map_or(0, |l| u64::from(l.pcn.num_clusters()));
    }
    if let Some(p) = &last {
        let report = span(&mut tr, "eval", |r| {
            let report = span(r, "evaluate_with", |_| evaluate(&setup, p, args.seed));
            // Only where the noc layer runs: a replay of a 512x512 mesh
            // with millions of flows takes longer than the whole run.
            if w == Workload::CnnComposite {
                let stats = span(r, "noc_final_replay", |_| {
                    let config = NocConfig {
                        seed: args.seed,
                        ..NocConfig::default()
                    };
                    let mut sim = NocSim::new(setup.mesh, config);
                    PcnTraffic::new(&setup.pcn, p, noc_scale(&setup.pcn), args.seed)
                        .run(&mut sim, CNN_SIM_CYCLES);
                    sim.stats().clone()
                });
                x.noc_injected = stats.injected;
                x.noc_delivered = stats.delivered;
            }
            report
        });
        match report {
            Ok(r) => {
                x.m_mc = r.max_congestion;
                x.congestion_coverage = r.congestion_coverage;
            }
            Err(f) => gate.record("eval", Err(f)),
        }
    }
    let m = layer_metrics(tr.trace(), &x);

    print_digests(args, &gate);
    print_record(
        args,
        &setup,
        &gate,
        json!({"failed_ops_ratio": gate.failed_ratio()}),
    );
    for root in ["setup", "op", "eval"] {
        print!("{}", stage_table(tr.trace(), root));
    }
    println!("per-layer metrics of {} (seed {}):", w.name(), args.seed);
    for (name, unit, value) in m.iter() {
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    Ok(finish(&mut gate, &m))
}

/// Prints the result line; exit code 0 only when nothing failed. A metric
/// that came out NaN or infinite is a failed operation: printed as
/// `null`, it would otherwise read as a perfect score.
fn finish(gate: &mut Gate, m: &Metrics) -> ExitCode {
    for name in m.non_finite() {
        gate.record(
            &format!("metric {name}"),
            Err(Failure::Error("not a finite number".into())),
        );
    }
    let correct = gate.failed() == 0;
    println!(
        "{}",
        result_line(correct, gate.attempted(), gate.failed(), m)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
