//! Subcommand implementations.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use snnmap_baselines::{
    BaselineMapper, Budget, DfSynthesizerMapper, PsoMapper, RandomMapper, TrueNorthMapper,
};
use snnmap_core::{CheckpointWriter, CoreError, FdCheckpoint, FdRunOpts, MapOutcome, StopReason};
use snnmap_hw::{
    Board, ChipId, CoreConstraints, CostModel, FaultInjector, FaultMap, FaultPattern, Mesh,
    Placement,
};
use snnmap_io::{
    read_board, read_checkpoint, read_faults, read_pcn, read_pcnb, read_placement,
    write_checkpoint, write_faults, write_pcn, write_pcnb, write_placement, CheckpointMeta,
    RunConfig, RunKnobs, Spelling,
};
use snnmap_serve::{signal, ServeConfig, Server};
use snnmap_trace::{JsonlSink, NoopSink, TraceSink};
use snnmap_metrics::{evaluate_with, hop_histogram, EvalOptions};
use snnmap_noc::{noc_scale, NocConfig, NocReweighter, NocSim, PcnTraffic, REPLAY_CYCLES};
use snnmap_model::generators::{random_pcn, table3_suite};
use snnmap_model::Pcn;

use crate::opts::Opts;
use crate::{viz, CliError};

/// `--threads` parsing: absent means auto-detect (the builder's `0`),
/// honoring the `SNNMAP_THREADS` env fallback downstream. An *explicit*
/// flag must be a positive integer — unlike the env variable (which the
/// core warns about once and then ignores), a malformed or zero flag
/// value is a hard usage error, since the user typed it on purpose.
fn parse_threads_flag(o: &Opts) -> Result<usize, CliError> {
    match o.flag("threads") {
        None => Ok(0),
        Some(v) => snnmap_core::par::parse_env_threads(v).map_err(|e| {
            CliError::usage(format!("`--threads` takes a positive integer, got `{v}` ({e})"))
        }),
    }
}

/// Whether a path names a binary (`.pcnb`) PCN file.
fn is_pcnb(path: &Path) -> bool {
    path.extension().is_some_and(|e| e.eq_ignore_ascii_case("pcnb"))
}

/// Reads a PCN in either format, chosen by file extension: `.pcnb` is
/// the binary layout, anything else the text format.
fn read_pcn_auto(path: &Path) -> Result<Pcn, CliError> {
    if is_pcnb(path) {
        Ok(read_pcnb(path)?)
    } else {
        Ok(read_pcn(path)?)
    }
}

/// Writes a PCN in either format, chosen by file extension.
fn write_pcn_auto(path: &Path, pcn: &Pcn) -> Result<(), CliError> {
    if is_pcnb(path) {
        write_pcnb(path, pcn)?;
    } else {
        write_pcn(path, pcn)?;
    }
    Ok(())
}

/// `snnmap convert`: translate a PCN between the text and binary
/// formats; the direction is inferred from the file extensions. Both
/// directions canonicalize, so converting a file to itself is a no-op
/// fixed point after one round trip.
pub fn convert(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(args, &["out"])?;
    if o.num_positional() > 1 {
        return Err(CliError::usage("expected exactly one <input.pcn|input.pcnb>"));
    }
    let input = Path::new(o.positional(0, "input.pcn|input.pcnb")?);
    let out = Path::new(o.required("out")?);
    let pcn = read_pcn_auto(input)?;
    write_pcn_auto(out, &pcn)?;
    Ok(format!(
        "converted {} -> {} ({}, {} clusters, {} connections)\n",
        input.display(),
        out.display(),
        if is_pcnb(out) { "binary" } else { "text" },
        pcn.num_clusters(),
        pcn.num_connections()
    ))
}

/// `snnmap gen`: write a benchmark or random PCN.
pub fn gen(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(args, &["benchmark", "random", "seed", "out"])?;
    let seed: u64 = o.parsed_or("seed", 42)?;
    let out = Path::new(o.required("out")?);
    let pcn = match (o.flag("benchmark"), o.flag("random")) {
        (Some(name), None) => {
            let bench = table3_suite()
                .into_iter()
                .find(|b| b.row.name.eq_ignore_ascii_case(name))
                .ok_or_else(|| {
                    CliError::usage(format!(
                        "unknown benchmark `{name}`; names: {}",
                        table3_suite()
                            .iter()
                            .map(|b| b.row.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    ))
                })?;
            bench.pcn(seed)?
        }
        (None, Some(spec)) => {
            let (clusters, degree) = spec.split_once(',').ok_or_else(|| {
                CliError::usage("expected `--random <clusters>,<avg-degree>`")
            })?;
            let clusters: u32 = clusters
                .trim()
                .parse()
                .map_err(|_| CliError::usage(format!("bad cluster count `{clusters}`")))?;
            let degree: f64 = degree
                .trim()
                .parse()
                .map_err(|_| CliError::usage(format!("bad average degree `{degree}`")))?;
            random_pcn(clusters, degree, seed)?
        }
        _ => return Err(CliError::usage("need exactly one of `--benchmark` or `--random`")),
    };
    write_pcn_auto(out, &pcn)?;
    Ok(format!(
        "wrote {} ({} clusters, {} connections)\n",
        out.display(),
        pcn.num_clusters(),
        pcn.num_connections()
    ))
}

/// `snnmap info`: summarize a PCN file.
pub fn info(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(args, &[])?;
    let pcn = read_pcn_auto(Path::new(o.positional(0, "file.pcn")?))?;
    let mut out = String::new();
    let _ = writeln!(out, "clusters:       {}", pcn.num_clusters());
    let _ = writeln!(out, "connections:    {}", pcn.num_connections());
    let _ = writeln!(out, "total neurons:  {}", pcn.total_neurons());
    let _ = writeln!(out, "total synapses: {}", pcn.total_synapses());
    let _ = writeln!(out, "total traffic:  {:.3}", pcn.total_traffic());
    let max_deg = (0..pcn.num_clusters()).map(|c| pcn.degree(c)).max().unwrap_or(0);
    let _ = writeln!(out, "max degree:     {max_deg}");
    let mesh = Mesh::square_for(pcn.num_clusters() as u64)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let _ = writeln!(out, "minimal mesh:   {mesh}");
    Ok(out)
}

fn parse_mesh(spec: &str) -> Result<Mesh, CliError> {
    let (r, c) = spec
        .split_once(['x', 'X'])
        .ok_or_else(|| CliError::usage(format!("expected `--mesh <RxC>`, got `{spec}`")))?;
    let rows: u16 =
        r.parse().map_err(|_| CliError::usage(format!("bad mesh rows `{r}`")))?;
    let cols: u16 =
        c.parse().map_err(|_| CliError::usage(format!("bad mesh cols `{c}`")))?;
    Mesh::new(rows, cols).map_err(|e| CliError::usage(e.to_string()))
}

/// Resolves a `--board` argument: a path ending in `.json` is read as a
/// board JSON file; anything else is a [`Board::parse`] spec (a Table 1
/// preset name or `GxH/RxC[@NPC,SPC]`).
fn load_board(o: &Opts) -> Result<Option<Board>, CliError> {
    let Some(spec) = o.flag("board") else {
        return Ok(None);
    };
    let board = if spec.ends_with(".json") {
        read_board(Path::new(spec))?
    } else {
        Board::parse(spec).map_err(|e| CliError::usage(e.to_string()))?
    };
    Ok(Some(board))
}

/// Resolves a `--faults` argument: a number in `[0, 1)` is a uniform
/// core+link fault rate fed to a seeded [`FaultInjector`];
/// `chip:<id,...>` kills whole chips of the `--board` topology; anything
/// else is a fault-map JSON file path.
fn load_faults(
    o: &Opts,
    mesh: Mesh,
    seed: u64,
    board: Option<&Board>,
) -> Result<Option<FaultMap>, CliError> {
    let Some(spec) = o.flag("faults") else {
        return Ok(None);
    };
    if let Some(ids) = spec.strip_prefix("chip:") {
        let board = board.ok_or_else(|| {
            CliError::usage("`--faults chip:<id,...>` requires `--board`")
        })?;
        let mut fm = FaultMap::new(board.mesh());
        for part in ids.split(',') {
            let id: ChipId = part.trim().parse().map_err(|_| {
                CliError::usage(format!("bad chip id `{part}` in `--faults {spec}`"))
            })?;
            fm.kill_chip(board, id).map_err(|e| CliError::usage(e.to_string()))?;
        }
        return Ok(Some(fm));
    }
    let fm = match spec.parse::<f64>() {
        Ok(rate) => {
            let pattern = FaultPattern::Uniform { core_rate: rate, link_rate: rate };
            FaultInjector::new(seed)
                .inject(mesh, &pattern)
                .map_err(|e| CliError::usage(e.to_string()))?
        }
        Err(_) => read_faults(Path::new(spec))?,
    };
    Ok(Some(fm))
}

/// An `on`/`off` flag (`--multilevel`, `--trace-timing`).
fn on_off(o: &Opts, flag: &str, default: bool) -> Result<bool, CliError> {
    match o.flag(flag) {
        None => Ok(default),
        Some("on") => Ok(true),
        Some("off") => Ok(false),
        Some(other) => {
            Err(CliError::usage(format!("`--{flag}` takes `on` or `off`, got `{other}`")))
        }
    }
}

/// `--trace-out`, or the `SNNMAP_TRACE` env fallback, which lets
/// wrappers/CI turn tracing on without editing the command line.
fn trace_out(o: &Opts) -> Option<String> {
    o.flag("trace-out")
        .map(str::to_owned)
        .or_else(|| std::env::var("SNNMAP_TRACE").ok().filter(|v| !v.is_empty()))
}

/// The [`RunConfig`] behind `map --method proposed` and `resume`, from
/// their flags. The two commands resolve `faults` (and `map` the
/// board) against different meshes, so they pass them in resolved.
fn run_config(
    o: &Opts,
    seed: u64,
    faults: Option<FaultMap>,
    board: Option<Board>,
) -> Result<RunConfig, CliError> {
    let sim_in_loop: u64 = o.parsed_or("sim-in-loop", 0)?;
    RunKnobs {
        init: o.flag("init"),
        potential: o.flag("potential"),
        lambda: o.parsed("lambda")?,
        seed: Some(seed),
        threads: parse_threads_flag(o)?,
        faults,
        multilevel: on_off(o, "multilevel", false)?,
        board,
        objective: o.flag("objective"),
        lambda_congestion: o.parsed("lambda-congestion")?,
        lambda_latency: o.parsed("lambda-latency")?,
        sim_in_loop: (sim_in_loop > 0).then_some(sim_in_loop),
    }
    .resolve(Spelling::Flag)
    .map_err(CliError::usage)
}

/// Runs a mapping closure against a JSONL sink when `--trace-out` was
/// given, or a [`NoopSink`] otherwise, surfacing latched write errors.
fn with_sink<F>(trace_out: Option<&str>, timing: bool, f: F) -> Result<MapOutcome, CliError>
where
    F: FnOnce(&mut dyn TraceSink) -> Result<MapOutcome, CoreError>,
{
    match trace_out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| CliError::Io(snnmap_io::IoError::Io(e)))?;
            let mut sink =
                JsonlSink::new(std::io::BufWriter::new(file)).with_timing(timing);
            let outcome = f(&mut sink)?;
            // `finish` surfaces the first latched write error and flushes
            // the BufWriter through to the file.
            sink.finish().map_err(|e| CliError::Io(snnmap_io::IoError::Io(e)))?;
            Ok(outcome)
        }
        None => Ok(f(&mut NoopSink)?),
    }
}

/// The flags shared by `map --method proposed` and `resume` that shape
/// the run: stop budgets and checkpointing.
const RESILIENCE_FLAGS: [&str; 4] =
    ["deadline-ms", "max-sweeps", "checkpoint-every", "checkpoint-out"];

/// The objective family of `map --method proposed` (and, minus
/// `--sim-in-loop`, of `resume`).
const OBJECTIVE_FLAGS: [&str; 4] =
    ["objective", "lambda-congestion", "lambda-latency", "sim-in-loop"];

/// Assembles [`FdRunOpts`] from the resilience flags. The returned
/// writer closure (if any) must stay alive while `opts` is used, so the
/// caller keeps both.
struct ResilienceOpts {
    deadline_ms: u64,
    max_sweeps: u64,
    checkpoint_every: u64,
    checkpoint_out: Option<String>,
}

impl ResilienceOpts {
    fn parse(o: &Opts) -> Result<Self, CliError> {
        let r = ResilienceOpts {
            deadline_ms: o.parsed_or("deadline-ms", 0)?,
            max_sweeps: o.parsed_or("max-sweeps", 0)?,
            checkpoint_every: o.parsed_or("checkpoint-every", 0)?,
            checkpoint_out: o.flag("checkpoint-out").map(str::to_owned),
        };
        if r.checkpoint_every > 0 && r.checkpoint_out.is_none() {
            return Err(CliError::usage("`--checkpoint-every` requires `--checkpoint-out`"));
        }
        Ok(r)
    }

    /// A checkpoint-writer closure bound to `--checkpoint-out` and the
    /// run's provenance digests.
    fn writer(
        &self,
        meta: &CheckpointMeta,
    ) -> Option<impl FnMut(&FdCheckpoint) -> Result<(), String>> {
        let path = std::path::PathBuf::from(self.checkpoint_out.as_ref()?);
        let meta = meta.clone();
        Some(move |cp: &FdCheckpoint| {
            write_checkpoint(&path, cp, &meta).map_err(|e| e.to_string())
        })
    }

    fn apply<'h>(
        &self,
        opts: &mut FdRunOpts<'h>,
        writer: Option<&'h mut CheckpointWriter<'h>>,
    ) {
        if self.deadline_ms > 0 {
            opts.budget.deadline = Some(Duration::from_millis(self.deadline_ms));
        }
        if self.max_sweeps > 0 {
            opts.budget.max_sweeps = Some(self.max_sweeps);
        }
        if self.checkpoint_every > 0 {
            opts.checkpoint_every = Some(self.checkpoint_every);
        }
        opts.on_checkpoint = writer;
    }
}

/// Every flag `snnmap map` accepts.
const MAP_FLAGS: [&str; 23] = [
    "out",
    "method",
    "mesh",
    "board",
    "init",
    "potential",
    "lambda",
    "budget-secs",
    "seed",
    "faults",
    "faults-out",
    "threads",
    "multilevel",
    "objective",
    "lambda-congestion",
    "lambda-latency",
    "sim-in-loop",
    "trace-out",
    "trace-timing",
    "deadline-ms",
    "max-sweeps",
    "checkpoint-every",
    "checkpoint-out",
];

/// What `map` places and where.
struct MapTarget {
    pcn: Pcn,
    seed: u64,
    board: Option<Board>,
    /// The board's mesh, else `--mesh`, else the smallest square that fits.
    mesh: Mesh,
    faults: Option<FaultMap>,
}

fn map_target(o: &Opts) -> Result<MapTarget, CliError> {
    let pcn = read_pcn_auto(Path::new(o.positional(0, "file.pcn")?))?;
    let seed: u64 = o.parsed_or("seed", 42)?;
    let board = load_board(o)?;
    let mesh = match (o.flag("mesh"), &board) {
        (Some(spec), Some(b)) => {
            let mesh = parse_mesh(spec)?;
            if mesh != b.mesh() {
                return Err(CliError::usage(format!(
                    "`--mesh {mesh}` disagrees with the board's {} mesh; \
                     omit `--mesh` to derive it from `--board`",
                    b.mesh()
                )));
            }
            mesh
        }
        (Some(spec), None) => parse_mesh(spec)?,
        (None, Some(b)) => b.mesh(),
        (None, None) => Mesh::square_for(pcn.num_clusters() as u64)
            .map_err(|e| CliError::usage(e.to_string()))?,
    };
    let faults = load_faults(o, mesh, seed, board.as_ref())?;
    Ok(MapTarget { pcn, seed, board, mesh, faults })
}

/// The [`RunConfig`] `snnmap map <args>` runs with `--method proposed`,
/// read and validated exactly as `map` does, without mapping anything.
///
/// # Errors
///
/// As `snnmap map` for the same arguments, up to the mapping itself.
pub fn map_config(args: &[String]) -> Result<RunConfig, CliError> {
    let o = Opts::parse(args, &MAP_FLAGS)?;
    let t = map_target(&o)?;
    run_config(&o, t.seed, t.faults, t.board)
}

/// `snnmap map`: place a PCN onto a mesh.
pub fn map(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(args, &MAP_FLAGS)?;
    let MapTarget { pcn, seed, board, mesh, faults } = map_target(&o)?;
    let out = Path::new(o.required("out")?);
    let budget_secs: u64 = o.parsed_or("budget-secs", 0)?;
    let budget = (budget_secs > 0).then(|| Duration::from_secs(budget_secs));
    if let Some(path) = o.flag("faults-out") {
        match &faults {
            Some(fm) => write_faults(Path::new(path), fm)?,
            None => return Err(CliError::usage("`--faults-out` requires `--faults`")),
        }
    }
    let trace_out = trace_out(&o);
    let trace_timing = on_off(&o, "trace-timing", true)?;
    let multilevel = on_off(&o, "multilevel", false)?;

    let method = o.flag("method").unwrap_or("proposed");
    if faults.is_some() && method != "proposed" {
        return Err(CliError::usage(format!(
            "`--faults` is only supported with `--method proposed`, not `{method}`"
        )));
    }
    if multilevel && method != "proposed" {
        return Err(CliError::usage(format!(
            "`--multilevel` is only supported with `--method proposed`, not `{method}`"
        )));
    }
    if board.is_some() && method != "proposed" {
        return Err(CliError::usage(format!(
            "`--board` is only supported with `--method proposed`, not `{method}`"
        )));
    }
    if trace_out.is_some() && method != "proposed" {
        return Err(CliError::usage(format!(
            "`--trace-out` is only supported with `--method proposed`, not `{method}`"
        )));
    }
    if method != "proposed" {
        for flag in RESILIENCE_FLAGS {
            if o.flag(flag).is_some() {
                return Err(CliError::usage(format!(
                    "`--{flag}` is only supported with `--method proposed`, not `{method}`"
                )));
            }
        }
        for flag in OBJECTIVE_FLAGS {
            if o.flag(flag).is_some() {
                return Err(CliError::usage(format!(
                    "`--{flag}` is only supported with `--method proposed`, not `{method}`"
                )));
            }
        }
    }
    let (placement, detail) = match method {
        "proposed" => {
            let config = run_config(&o, seed, faults.clone(), board.clone())?;
            let mut builder = config.builder();
            if let Some(b) = budget {
                builder = builder.time_budget(b);
            }
            let mapper = builder.build();
            let resilience = ResilienceOpts::parse(&o)?;
            let mut writer = resilience.writer(&config.provenance(&pcn));
            // Sim-in-the-loop: a seeded NocSim replays the PCN's traffic
            // over the evolving placement every `sim_in_loop` sweeps and
            // hands per-router heat back to the congestion term.
            let mut sim_hook = config
                .sim_in_loop
                .map(|_| NocReweighter::new(&pcn, noc_scale(&pcn), REPLAY_CYCLES, seed));
            let mut run_opts = FdRunOpts::default();
            resilience.apply(
                &mut run_opts,
                writer
                    .as_mut()
                    .map(|w| w as &mut dyn FnMut(&FdCheckpoint) -> Result<(), String>),
            );
            if let Some(hook) = sim_hook.as_mut() {
                run_opts.reweighter = Some(hook);
            }
            // Ctrl-C / SIGTERM stops the FD engine at the next sweep
            // boundary instead of killing the process mid-write; the
            // engine flushes a checkpoint first when one is configured.
            run_opts.budget.cancel = Some(signal::install());
            let outcome = with_sink(trace_out.as_deref(), trace_timing, |sink| {
                mapper.map_budgeted_traced(&pcn, mesh, &mut run_opts, sink)
            })?;
            if was_cancelled(&outcome) {
                return Err(interrupted_exit(
                    out,
                    &outcome,
                    resilience.checkpoint_out.as_deref(),
                ));
            }
            let mut detail = fd_detail(&outcome, resilience.checkpoint_out.as_deref());
            let objective = config.objective;
            if !objective.is_energy() {
                let (_, lc, lt) = objective.weights();
                let _ = write!(detail, "\nobjective: {} (lc={lc}, lt={lt})", objective.label());
                if let Some(k) = config.sim_in_loop {
                    let _ = write!(detail, ", NoC reweight every {k} sweep(s)");
                }
            }
            (outcome.placement, detail)
        }
        baseline => {
            let mapper: Box<dyn BaselineMapper> = match baseline {
                "random" => Box::new(RandomMapper::new(seed)),
                "truenorth" => Box::new(TrueNorthMapper::new()),
                "dfsynthesizer" => Box::new(DfSynthesizerMapper::new(seed)),
                "pso" => Box::new(PsoMapper::new(seed)),
                other => return Err(CliError::usage(format!("unknown method `{other}`"))),
            };
            let b = match budget {
                Some(d) => Budget::limited(d),
                None => Budget::unlimited(),
            };
            let outcome = mapper.map(&pcn, mesh, b)?;
            let detail = format!(
                "{}: {} iterations{}",
                mapper.name(),
                outcome.iterations,
                if outcome.early_stopped { " (early stop)" } else { "" }
            );
            (outcome.placement, detail)
        }
    };

    write_placement(out, &placement)?;
    let board_note = match &board {
        Some(b) => format!(" [{b}]"),
        None => String::new(),
    };
    let fault_note = match &faults {
        Some(fm) => format!(
            " avoiding {} dead core(s), {} faulty link(s)",
            fm.num_dead_cores(),
            fm.num_faulty_links()
        ),
        None => String::new(),
    };
    let trace_note = match &trace_out {
        Some(path) => format!("\ntrace -> {path}"),
        None => String::new(),
    };
    Ok(format!(
        "placed {} clusters on {mesh}{board_note}{fault_note} -> {}\n{detail}{trace_note}\n",
        placement.placed_count(),
        out.display()
    ))
}

/// The FD summary line shared by `map` and `resume`, plus a note when a
/// checkpoint file was actually flushed.
fn fd_detail(outcome: &MapOutcome, checkpoint_out: Option<&str>) -> String {
    let mut detail = match &outcome.fd_stats {
        Some(s) => format!(
            "FD: {} iterations, {} swaps, energy {:.4e} -> {:.4e}{}",
            s.iterations,
            s.swaps,
            s.initial_energy,
            s.final_energy,
            if s.converged {
                String::new()
            } else {
                format!(" (stopped: {})", s.stop.as_str())
            }
        ),
        None => "no FD".to_string(),
    };
    if let Some(path) = checkpoint_out {
        // The engine only flushes on a budgeted stop or a periodic
        // interval, so the file may legitimately not exist (converged
        // runs need no checkpoint).
        if Path::new(path).exists() {
            let _ = write!(detail, "\ncheckpoint -> {path}");
        }
    }
    detail
}

/// Whether the run stopped because the SIGINT/SIGTERM flag rose.
fn was_cancelled(outcome: &MapOutcome) -> bool {
    outcome.fd_stats.as_ref().is_some_and(|s| s.stop == StopReason::Cancelled)
}

/// Best-effort persistence on an interrupt: the best-so-far placement
/// (never worse than the initial one) still lands on disk, the engine
/// already flushed a checkpoint if one was configured, and the run
/// surfaces as [`CliError::Interrupted`] (exit code 130).
fn interrupted_exit(
    out: &Path,
    outcome: &MapOutcome,
    checkpoint_out: Option<&str>,
) -> CliError {
    let mut detail = match write_placement(out, &outcome.placement) {
        Ok(()) => format!("interrupted: best-so-far placement -> {}", out.display()),
        Err(e) => format!("interrupted: writing best-so-far placement failed: {e}"),
    };
    if let Some(path) = checkpoint_out {
        if Path::new(path).exists() {
            let _ = write!(detail, "\ncheckpoint -> {path} (continue with `snnmap resume`)");
        }
    }
    CliError::Interrupted(detail)
}

/// `snnmap serve`: run the mapping daemon until SIGINT/SIGTERM, then
/// drain gracefully. Queued and interrupted jobs stay in the spool;
/// restarting with the same `--spool-dir` resumes them, at once under
/// the same `--daemon-id` and after the lease TTL under a new one.
pub fn serve(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(
        args,
        &[
            "addr",
            "workers",
            "spool-dir",
            "queue-capacity",
            "lease-ttl-ms",
            "daemon-id",
            "io-timeout-ms",
        ],
    )?;
    let mut config = ServeConfig::default();
    if let Some(addr) = o.flag("addr") {
        config.addr = addr.to_string();
    }
    config.workers = o.parsed_or("workers", 0)?;
    if let Some(dir) = o.flag("spool-dir") {
        config.spool_dir = std::path::PathBuf::from(dir);
    }
    config.queue_capacity = o.parsed_or("queue-capacity", config.queue_capacity)?;
    if config.queue_capacity == 0 {
        return Err(CliError::usage("`--queue-capacity` must be positive"));
    }
    let lease_ttl_ms: u64 = o.parsed_or("lease-ttl-ms", config.lease_ttl.as_millis() as u64)?;
    if lease_ttl_ms == 0 {
        return Err(CliError::usage("`--lease-ttl-ms` must be positive"));
    }
    config.lease_ttl = Duration::from_millis(lease_ttl_ms);
    config.daemon_id = o.flag("daemon-id").map(str::to_string);
    let io_timeout_ms: u64 = o.parsed_or("io-timeout-ms", config.io_timeout.as_millis() as u64)?;
    if io_timeout_ms == 0 {
        return Err(CliError::usage("`--io-timeout-ms` must be positive"));
    }
    config.io_timeout = Duration::from_millis(io_timeout_ms);
    let server = Server::bind(&config)?;
    let addr =
        server.local_addr().map(|a| a.to_string()).unwrap_or_else(|_| config.addr.clone());
    let shutdown = signal::install();
    // Announce readiness on stderr before blocking, so scripts can wait
    // for the listener without racing the bind.
    eprintln!(
        "snnmap-serve listening on {addr} ({} worker(s), spool {})",
        server.workers(),
        config.spool_dir.display()
    );
    if let Some((seed, spec)) = snnmap_chaos::active_spec() {
        eprintln!("snnmap-serve chaos armed: seed {seed}, schedule `{spec}`");
    }
    let report = server.run(&shutdown);
    signal::reset();
    Ok(format!(
        "drained: {} job(s) over the daemon's lifetime, {} interrupted mid-run \
         (checkpointed), {} left queued\nspool -> {} (restart with the same --spool-dir \
         to resume)\n",
        report.jobs_total,
        report.interrupted,
        report.queued_left,
        config.spool_dir.display()
    ))
}

/// `snnmap resume`: continue a Force-Directed run from a checkpoint
/// written by `map --checkpoint-out`. The mapper configuration flags must
/// match the original run — the checkpoint's provenance digests are
/// verified before any work happens — while budgets may differ freely
/// (resuming under a new budget is the point). The run is the same
/// [`Mapper::map_budgeted_traced`](snnmap_core::Mapper::map_budgeted_traced)
/// request `map` makes, with the checkpoint as its resume state, so it is
/// bit-identical to the uninterrupted run.
pub fn resume(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(
        args,
        &[
            "checkpoint",
            "out",
            "init",
            "potential",
            "lambda",
            "seed",
            "threads",
            "faults",
            "multilevel",
            "objective",
            "lambda-congestion",
            "lambda-latency",
            "trace-out",
            "trace-timing",
            "deadline-ms",
            "max-sweeps",
            "checkpoint-every",
            "checkpoint-out",
        ],
    )?;
    let pcn = read_pcn_auto(Path::new(o.positional(0, "file.pcn")?))?;
    let (checkpoint, on_disk) = read_checkpoint(Path::new(o.required("checkpoint")?))?;
    let out = Path::new(o.required("out")?);
    let seed: u64 = o.parsed_or("seed", 42)?;
    // Board-constrained runs are not resumable yet; their checkpoints
    // carry a board digest no boardless config can reproduce, so the
    // provenance check below refuses them with a typed usage error.
    let faults = load_faults(&o, checkpoint.mesh, seed, None)?;
    // Checkpoints only ever freeze finest-level FD state, so resuming a
    // `--multilevel on` run is plain FD from the snapshot — the flag here
    // exists purely to reproduce the original run's config digest.
    // Sim-in-the-loop runs are never checkpointed (the heat-derived
    // weight field is not part of FdCheckpoint), so `resume` has no
    // `--sim-in-loop`.
    let config = run_config(&o, seed, faults, None)?;
    let meta = config.provenance(&pcn);
    if meta.pcn_digest != on_disk.pcn_digest {
        return Err(CliError::usage(
            "checkpoint was taken from a different PCN (digest mismatch); \
             resume with the original input file",
        ));
    }
    if meta.config_digest != on_disk.config_digest {
        return Err(CliError::usage(
            "checkpoint was taken under a different configuration (digest \
             mismatch); pass the original --init/--potential/--lambda/--seed/\
             --faults/--multilevel/--objective/--lambda-congestion/\
             --lambda-latency values (`--sim-in-loop` runs are never \
             checkpointed)",
        ));
    }

    let trace_out = trace_out(&o);
    let trace_timing = on_off(&o, "trace-timing", true)?;
    let mapper = config.mapper();
    let resilience = ResilienceOpts::parse(&o)?;
    let mut writer = resilience.writer(&meta);
    let mut run_opts = FdRunOpts::default();
    resilience.apply(
        &mut run_opts,
        writer.as_mut().map(|w| w as &mut dyn FnMut(&FdCheckpoint) -> Result<(), String>),
    );
    run_opts.budget.cancel = Some(signal::install());
    let (restored_sweeps, mesh) = (checkpoint.sweeps, checkpoint.mesh);
    run_opts.resume = Some(checkpoint);
    let outcome = with_sink(trace_out.as_deref(), trace_timing, |sink| {
        mapper.map_budgeted_traced(&pcn, mesh, &mut run_opts, sink)
    })?;
    if was_cancelled(&outcome) {
        return Err(interrupted_exit(out, &outcome, resilience.checkpoint_out.as_deref()));
    }
    let detail = fd_detail(&outcome, resilience.checkpoint_out.as_deref());
    write_placement(out, &outcome.placement)?;
    let trace_note = match &trace_out {
        Some(path) => format!("\ntrace -> {path}"),
        None => String::new(),
    };
    Ok(format!(
        "resumed at sweep {restored_sweeps}: placed {} clusters on {} -> {}\n{detail}{trace_note}\n",
        outcome.placement.placed_count(),
        outcome.placement.mesh(),
        out.display()
    ))
}

/// `snnmap validate`: check a placement against a fault map and per-core
/// capacity constraints. Violations become [`CliError::Validation`]
/// (process exit code 3).
pub fn validate(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(args, &["faults", "seed", "npc", "spc", "board"])?;
    let (pcn, placement) = load_pair(&o)?;
    let seed: u64 = o.parsed_or("seed", 42)?;
    let board = load_board(&o)?;
    let faults = load_faults(&o, placement.mesh(), seed, board.as_ref())?;
    let (report, checked) = match &board {
        Some(b) => {
            // The board carries every core's capacity, so the flat limits
            // would silently contradict it.
            if o.flag("npc").is_some() || o.flag("spc").is_some() {
                return Err(CliError::usage(
                    "`--npc`/`--spc` conflict with `--board`; the board defines \
                     per-core capacities",
                ));
            }
            let report = snnmap_core::validate_board(&pcn, &placement, faults.as_ref(), b)?;
            (report, format!("{b}"))
        }
        None => {
            let defaults = CoreConstraints::default();
            let npc: u32 = o.parsed_or("npc", defaults.neurons_per_core)?;
            let spc: u64 = o.parsed_or("spc", defaults.synapses_per_core)?;
            let con =
                CoreConstraints::new(npc, spc).map_err(|e| CliError::usage(e.to_string()))?;
            let report = snnmap_core::validate(&pcn, &placement, faults.as_ref(), Some(&con))?;
            (report, format!("{} within {con}", placement.mesh()))
        }
    };
    if !report.is_ok() {
        return Err(CliError::Validation(report));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "placement valid: {} clusters on {checked}",
        placement.placed_count()
    );
    if let Some(fm) = &faults {
        let _ = writeln!(
            out,
            "checked against {} dead core(s), {} faulty link(s)",
            fm.num_dead_cores(),
            fm.num_faulty_links()
        );
    }
    Ok(out)
}

fn load_pair(o: &Opts) -> Result<(Pcn, Placement), CliError> {
    if o.num_positional() > 2 {
        return Err(CliError::usage("expected exactly <file.pcn> <placement.json>"));
    }
    let pcn = read_pcn_auto(Path::new(o.positional(0, "file.pcn")?))?;
    let placement = read_placement(Path::new(o.positional(1, "placement.json")?))?;
    Ok((pcn, placement))
}

/// One `eval` NoC simulation: seeded traffic replay over the placement,
/// summarized into the columns the human and Prometheus outputs share.
struct NocEval {
    cycles: u64,
    max_latency: u64,
    avg_latency: f64,
    detour_hops: u64,
    hottest: (usize, usize),
    hottest_traversals: u64,
    /// Simulated `M_ac` / `M_mc` in analytic congestion-map units
    /// ([`snnmap_noc::NocStats::congestion_map`]); zero when the PCN has
    /// no traffic to drive the adapter.
    sim_avg_congestion: f64,
    sim_max_congestion: f64,
    /// Whether every injected packet was delivered. A `RandomMinimal`
    /// network can deadlock, and then the columns above miss the
    /// packets still stuck in it.
    drained: bool,
    injected: u64,
    delivered: u64,
}

/// Replays the PCN's spike traffic over `placement` for `cycles` cycles
/// on a seeded, fault-free simulator using the random-minimal routing
/// whose expectation matches the analytic congestion model.
fn simulate_noc(pcn: &Pcn, placement: &Placement, cycles: u64, seed: u64) -> NocEval {
    let scale = noc_scale(pcn);
    let mesh = placement.mesh();
    let mut traffic = PcnTraffic::new(pcn, placement, scale, seed);
    let config = NocConfig {
        routing: snnmap_noc::Routing::RandomMinimal,
        seed,
        ..NocConfig::default()
    };
    let mut sim = NocSim::new(mesh, config);
    let drained = traffic.run(&mut sim, cycles);
    let stats = sim.stats();
    let (arg, &hot) = stats
        .traversals
        .iter()
        .enumerate()
        .max_by_key(|&(i, &t)| (t, std::cmp::Reverse(i)))
        .unwrap_or((0, &0));
    let cols = mesh.cols() as usize;
    let (sim_avg, sim_max) = if scale > 0.0 && cycles > 0 {
        let adapted = stats.congestion_map(scale, cycles);
        let avg = adapted.iter().sum::<f64>() / adapted.len().max(1) as f64;
        (avg, adapted.iter().copied().fold(0.0, f64::max))
    } else {
        (0.0, 0.0)
    };
    NocEval {
        cycles,
        max_latency: stats.max_latency,
        avg_latency: stats.average_latency(),
        detour_hops: stats.detour_hops,
        hottest: (arg / cols, arg % cols),
        hottest_traversals: hot,
        sim_avg_congestion: sim_avg,
        sim_max_congestion: sim_max,
        drained,
        injected: stats.injected,
        delivered: stats.delivered,
    }
}

/// The NoC gauge page appended to `eval --format prometheus` (the
/// analytic gauges come from [`MetricsReport::to_prometheus`]; the
/// simulated ones live here because `snnmap-metrics` cannot depend on
/// the simulator).
fn noc_prometheus(noc: &NocEval) -> String {
    let mut prom = snnmap_metrics::PromText::new();
    for (name, help, value) in [
        ("noc_cycles", "Simulated NoC cycles behind the noc_* gauges.", noc.cycles as f64),
        (
            "noc_max_latency",
            "Largest simulated spike latency, in cycles (one per router traversal).",
            noc.max_latency as f64,
        ),
        ("noc_avg_latency", "Mean simulated spike latency, in cycles.", noc.avg_latency),
        (
            "noc_detour_hops",
            "Simulated hops beyond the fault-free Manhattan minimum.",
            noc.detour_hops as f64,
        ),
        (
            "noc_hottest_traversals",
            "Traversal count of the hottest simulated router.",
            noc.hottest_traversals as f64,
        ),
        ("noc_hottest_row", "Row of the hottest simulated router.", noc.hottest.0 as f64),
        ("noc_hottest_col", "Column of the hottest simulated router.", noc.hottest.1 as f64),
        (
            "noc_sim_avg_congestion",
            "Simulated M_ac in analytic congestion-map units.",
            noc.sim_avg_congestion,
        ),
        (
            "noc_sim_max_congestion",
            "Simulated M_mc in analytic congestion-map units.",
            noc.sim_max_congestion,
        ),
        (
            "noc_drained",
            "1 when the replay delivered every injected packet, 0 when packets stayed stuck.",
            f64::from(u8::from(noc.drained)),
        ),
        ("noc_injected", "Packets the simulated replay injected.", noc.injected as f64),
        ("noc_delivered", "Packets the simulated replay delivered.", noc.delivered as f64),
    ] {
        prom.header(name, "gauge", help);
        prom.sample(name, &[], value);
    }
    prom.finish()
}

/// `snnmap eval`: compute the §3.3 metrics of a placement, plus
/// simulated NoC columns from a seeded traffic replay (`--noc-cycles 0`
/// keeps evaluation purely analytic).
pub fn eval(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(args, &["sample", "seed", "format", "noc-cycles"])?;
    let (pcn, placement) = load_pair(&o)?;
    let sample: u64 = o.parsed_or("sample", 200_000)?;
    let seed: u64 = o.parsed_or("seed", 42)?;
    let noc_cycles: u64 = o.parsed_or("noc-cycles", REPLAY_CYCLES)?;
    let report = evaluate_with(
        &pcn,
        &placement,
        CostModel::paper_target(),
        EvalOptions { congestion_sample: Some((sample, seed)) },
    )?;
    let noc = (noc_cycles > 0).then(|| simulate_noc(&pcn, &placement, noc_cycles, seed));
    match o.flag("format").unwrap_or("text") {
        "text" => {}
        // The same encoder the serve daemon's /metrics endpoint uses, so
        // offline evaluation drops straight into a Prometheus scrape.
        "prometheus" => {
            let mut page = report.to_prometheus();
            if let Some(n) = &noc {
                page.push_str(&noc_prometheus(n));
            }
            return Ok(page);
        }
        other => {
            return Err(CliError::usage(format!(
                "`--format` takes `text` or `prometheus`, got `{other}`"
            )))
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "energy (M_ec):           {:.6e}", report.energy);
    let _ = writeln!(out, "avg latency (M_al):      {:.4}", report.avg_latency);
    let _ = writeln!(out, "max latency (M_ml):      {:.4}", report.max_latency);
    let _ = writeln!(out, "avg congestion (M_ac):   {:.4e}", report.avg_congestion);
    let _ = writeln!(out, "max congestion (M_mc):   {:.4e}", report.max_congestion);
    if report.congestion_coverage < 1.0 {
        let _ = writeln!(
            out,
            "congestion coverage:     {:.1}% of traffic sampled",
            report.congestion_coverage * 100.0
        );
    }
    if report.max_congestion_is_lower_bound {
        let _ = writeln!(
            out,
            "                         (sampled: M_mc above is a lower bound)"
        );
    }
    if let Some(n) = &noc {
        let _ = writeln!(
            out,
            "NoC sim ({} cycles):     max latency {} cycles, avg {:.2}, detours {} hop(s)",
            n.cycles, n.max_latency, n.avg_latency, n.detour_hops
        );
        let _ = writeln!(
            out,
            "NoC hottest router:      ({}, {}) with {} traversals \
             (sim M_ac {:.4e}, M_mc {:.4e})",
            n.hottest.0,
            n.hottest.1,
            n.hottest_traversals,
            n.sim_avg_congestion,
            n.sim_max_congestion
        );
        if !n.drained {
            let _ = writeln!(
                out,
                "NoC replay did not drain: {} of {} injected packets delivered \
                 (deadlocked; the NoC columns miss the rest)",
                n.delivered, n.injected
            );
        }
    }
    // Traffic-by-hop-distance distribution, as cumulative percentiles.
    let hist = hop_histogram(&pcn, &placement)?;
    let total: f64 = hist.iter().sum();
    if total > 0.0 {
        let mut acc = 0.0;
        let mut marks = vec![];
        for (d, w) in hist.iter().enumerate() {
            acc += w;
            for pct in [50.0, 90.0, 99.0] {
                if acc >= total * pct / 100.0 && !marks.iter().any(|&(p, _)| p == pct as u32) {
                    marks.push((pct as u32, d));
                }
            }
        }
        let _ = writeln!(
            out,
            "traffic within hops:     {}",
            marks
                .iter()
                .map(|(p, d)| format!("p{p} <= {d}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    Ok(out)
}

/// `snnmap viz`: ASCII congestion heatmap of a placement.
pub fn viz(args: &[String]) -> Result<String, CliError> {
    let o = Opts::parse(args, &["width"])?;
    let (pcn, placement) = load_pair(&o)?;
    let width: usize = o.parsed_or("width", 64)?;
    viz::congestion_heatmap(&pcn, &placement, width)
}
