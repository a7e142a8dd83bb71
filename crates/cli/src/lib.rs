//! The `snnmap` command-line tool: generate, map, evaluate, and
//! visualize SNN cluster-network placements.
//!
//! Subcommands:
//!
//! * `gen` — write a benchmark or random PCN to a `.pcn`/`.pcnb` file,
//! * `info` — summarize a PCN file (text or binary),
//! * `convert` — translate a PCN between the text (`.pcn`) and binary
//!   (`.pcnb`) formats, inferring the direction from the extensions,
//! * `map` — place a PCN onto a mesh with any implemented method,
//!   optionally via the multilevel coarsen→place→refine pipeline
//!   (`--multilevel on`), optionally avoiding faulty hardware
//!   (`--faults <rate|file>`), under a stop budget (`--deadline-ms`,
//!   `--max-sweeps`) and with periodic checkpoints
//!   (`--checkpoint-every`, `--checkpoint-out`),
//! * `resume` — continue an interrupted Force-Directed run from a
//!   checkpoint, bit-identical to the uninterrupted run,
//! * `eval` — compute the five §3.3 quality metrics of a placement,
//! * `viz` — render a placement's congestion map as an ASCII heatmap,
//! * `validate` — check a placement against a fault map and per-core
//!   capacity constraints; exits 3 when violations are found,
//! * `serve` — run the mapping-as-a-service daemon (`snnmap-serve`):
//!   a concurrent job queue over HTTP with live progress, cooperative
//!   cancellation, graceful drain on SIGINT/SIGTERM, and crash recovery
//!   from a spool directory.
//!
//! The library surface is a single [`run`] function over string
//! arguments (what `main` calls), which keeps every code path unit
//! testable, plus [`map_config`]: the run configuration a `map`
//! invocation resolves to, for checking it against the daemon's.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod commands;
mod error;
mod opts;
mod viz;

pub use commands::map_config;
pub use error::CliError;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage: snnmap <command> [options]

commands:
  gen   --benchmark <table3-name> | --random <clusters>,<avg-degree>
        [--seed N] --out <file.pcn|file.pcnb>
  info  <file.pcn|file.pcnb>
  convert <input.pcn|input.pcnb> --out <output.pcn|output.pcnb>
  map   <file.pcn|file.pcnb> --out <placement.json>
        [--method proposed|random|truenorth|dfsynthesizer|pso]
        [--mesh <RxC>] [--board <spec|board.json>]
        [--init hilbert|zigzag|circle|serpentine|random]
        [--potential l1|l1sq|l2sq|energy] [--lambda F]
        [--budget-secs N] [--seed N] [--threads N] [--multilevel on|off]
        [--objective energy|congestion|composite]
        [--lambda-congestion F] [--lambda-latency F] [--sim-in-loop N]
        [--faults <rate|file.json|chip:<id,...>>] [--faults-out <file.json>]
        [--trace-out <run.jsonl>] [--trace-timing on|off]
        [--deadline-ms N] [--max-sweeps N]
        [--checkpoint-every N] [--checkpoint-out <cp.json>]
  resume <file.pcn> --checkpoint <cp.json> --out <placement.json>
        [--init ...] [--potential ...] [--lambda F] [--seed N]
        [--threads N] [--faults <rate|file.json>] [--multilevel on|off]
        [--objective ...] [--lambda-congestion F] [--lambda-latency F]
        [--deadline-ms N] [--max-sweeps N]
        [--checkpoint-every N] [--checkpoint-out <cp.json>]
        [--trace-out <run.jsonl>] [--trace-timing on|off]
  eval  <file.pcn> <placement.json> [--sample N]
        [--noc-cycles N] [--format text|prometheus]
  viz   <file.pcn> <placement.json> [--width N]
  validate <file.pcn> <placement.json>
        [--faults <rate|file.json|chip:<id,...>>] [--seed N]
        [--npc N] [--spc N] [--board <spec|board.json>]
  serve [--addr HOST:PORT] [--workers N] [--spool-dir <dir>]
        [--queue-capacity N] [--lease-ttl-ms N] [--daemon-id <id>]
        [--io-timeout-ms N]

PCN files are read and written in the text format (`.pcn`) or the
versioned, checksummed binary format (any path ending in `.pcnb`);
`convert` translates between them. `--multilevel on` maps through the
coarsen -> place -> refine pipeline: heavy-edge matching shrinks the
PCN to a small coarse graph, that graph is placed with the Hilbert/HSC
init, and each level is then refined with region-masked Force-Directed
sweeps — much faster at scale, byte-identical across thread counts.

`--faults` takes a uniform core/link fault rate in [0, 1) (seeded by
`--seed`), a fault-map JSON file written by `--faults-out`, or — with
`--board` — `chip:<id,...>` to kill whole chips.

`--board` maps onto a heterogeneous multi-chip board: a Table 1 preset
name (`truenorth`, `loihi:2x2`, ...), a custom `GxH/RxC[@NPC,SPC]`
spec, or a board JSON file. The mesh is derived from the board (an
explicit `--mesh` must agree). Placement then respects each core's
neuron/synapse capacity: the HSC init skips cores a cluster does not
fit on and FD refinement never swaps a cluster onto a core it would
overload. `validate --board` checks capacity and chip-liveness
invariants; with a fault map it also rejects clusters on dead chips.

`--objective` picks what FD refinement descends: `energy` (default, the
paper's eq. 25 potential — bit-identical to older releases), pure
`congestion` (Algorithm 4 expected per-router traffic, weight
`--lambda-congestion`), or `composite`
(energy + lc*congestion + lt*latency-tail, the tail term charging
squared Manhattan distance via `--lambda-latency`). On a `--board` run
the non-energy terms weight chip-boundary crossings higher.
`--sim-in-loop N` additionally replays the PCN's spike traffic on the
seeded NoC simulator every N sweeps and re-weights hot routers in the
congestion term; it requires a non-energy objective, is incompatible
with checkpointing, and stays byte-identical across thread counts.
`eval`'s NoC columns (`--noc-cycles`, default 256, 0 disables) come
from the same seeded simulator.

`--threads N` pins the FD worker-thread count (N >= 1); omit the flag
for auto-detection (SNNMAP_THREADS if set and valid, else the available
parallelism). The placement is bit-identical for every thread count —
threads only change wall-clock time. In a container, pinning N above
the CPUs actually granted oversubscribes and usually runs *slower* than
auto; see README \"Multi-core scaling\".

`--trace-out` streams per-phase timing and FD convergence telemetry as
JSON lines (schema in DESIGN.md); the SNNMAP_TRACE env var is the
fallback destination when the flag is absent. `--trace-timing off`
omits wall-clock/allocation fields so replays are byte-identical.
Tracing never changes the placement.

`--deadline-ms` / `--max-sweeps` make the FD phase *anytime*: the run
stops at the next sweep boundary and returns the best placement so far
(never worse than the initial one). `--checkpoint-out` flushes a
resumable snapshot on every budgeted stop, and `--checkpoint-every N`
additionally every N sweeps. `resume` verifies the checkpoint's
provenance digests, then continues the run; a killed-and-resumed run
produces a placement byte-identical to an uninterrupted one.

Ctrl-C (SIGINT) or SIGTERM during `map`/`resume` stops the run at the
next sweep boundary, writes the best-so-far placement (and checkpoint,
when configured), and exits 130; a second signal aborts immediately.
`serve` drains gracefully: running jobs checkpoint to the spool and
resume when the daemon restarts with the same --spool-dir. Several
daemons may share one --spool-dir: each running job holds a heartbeated
LEASE file, and a daemon that dies has its jobs finished by a peer once
the lease outlives --lease-ttl-ms. `--io-timeout-ms` bounds how long a
client may take to deliver a request (slow clients get 408).

SNNMAP_CHAOS=<seed>:<failpoint>=<fault>[@<trigger>],... arms seeded,
replayable fault injection on every spool/checkpoint/socket sync point
(faults: enospc, torn, fail, short, disconnect; triggers: #N, #N+,
1inN). Unset, the failpoints compile down to one atomic load.

exit codes: 0 ok, 1 runtime error, 2 usage error, 3 invalid placement,
130 interrupted by SIGINT/SIGTERM.

run `snnmap <command>` with missing arguments for details.";

/// Executes a full CLI invocation, returning the text to print.
///
/// # Errors
///
/// [`CliError`] for unknown commands, malformed options, I/O failures,
/// and any mapping/evaluation error.
pub fn run(args: &[String]) -> Result<String, CliError> {
    // Arm the deterministic fault-injection schedule, if any, before the
    // first I/O. A malformed schedule is a configuration error, not a
    // license to run without the requested faults.
    snnmap_chaos::install_from_env()
        .map_err(|e| CliError::usage(format!("{} env var: {e}", snnmap_chaos::ENV_VAR)))?;
    let (cmd, rest) = args.split_first().ok_or(CliError::usage("missing command"))?;
    match cmd.as_str() {
        "gen" => commands::gen(rest),
        "info" => commands::info(rest),
        "convert" => commands::convert(rest),
        "map" => commands::map(rest),
        "resume" => commands::resume(rest),
        "eval" => commands::eval(rest),
        "viz" => commands::viz(rest),
        "validate" => commands::validate(rest),
        "serve" => commands::serve(rest),
        "--help" | "-h" | "help" => Ok(format!("{USAGE}\n")),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&sv(&["help"])).unwrap().contains("usage"));
        assert!(run(&sv(&[])).is_err());
        assert!(run(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn end_to_end_gen_map_eval_viz() {
        let dir = std::env::temp_dir().join("snnmap_cli_e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let placement = dir.join("p.json");
        let pcn_s = pcn.to_str().unwrap();
        let placement_s = placement.to_str().unwrap();

        let out = run(&sv(&["gen", "--random", "40,3", "--seed", "5", "--out", pcn_s]))
            .unwrap();
        assert!(out.contains("40 clusters"), "{out}");

        let out = run(&sv(&["info", pcn_s])).unwrap();
        assert!(out.contains("clusters"), "{out}");

        let out = run(&sv(&["map", pcn_s, "--out", placement_s])).unwrap();
        assert!(out.contains("placed"), "{out}");

        let out = run(&sv(&["eval", pcn_s, placement_s])).unwrap();
        assert!(out.contains("energy"), "{out}");
        assert!(out.contains("NoC sim (256 cycles)"), "{out}");
        assert!(out.contains("NoC hottest router"), "{out}");

        // The NoC replay is seeded: same seed, same columns; and
        // `--noc-cycles 0` drops them for purely analytic evaluation.
        let again = run(&sv(&["eval", pcn_s, placement_s])).unwrap();
        assert_eq!(out, again, "eval must be deterministic per seed");
        let plain = run(&sv(&["eval", pcn_s, placement_s, "--noc-cycles", "0"])).unwrap();
        assert!(!plain.contains("NoC"), "{plain}");

        let out = run(&sv(&["viz", pcn_s, placement_s])).unwrap();
        assert!(out.contains("congestion"), "{out}");
    }

    #[test]
    fn eval_says_when_its_noc_replay_did_not_drain() {
        let dir = std::env::temp_dir().join("snnmap_cli_eval_deadlock");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let placement = dir.join("rows.json");
        let pcn_s = pcn.to_str().unwrap();
        let placement_s = placement.to_str().unwrap();
        // A dense PCN laid out row by row saturates the random-minimal
        // replay until it deadlocks.
        run(&sv(&["gen", "--random", "144,16", "--seed", "5", "--out", pcn_s])).unwrap();
        let coords: Vec<String> = (0..144).map(|i| format!("[{}, {}]", i / 12, i % 12)).collect();
        std::fs::write(
            &placement,
            format!(
                "{{\"format\": \"snnmap-placement-v1\", \"rows\": 12, \"cols\": 12, \
                 \"coords\": [{}]}}",
                coords.join(", ")
            ),
        )
        .unwrap();
        let out = run(&sv(&["eval", pcn_s, placement_s])).unwrap();
        assert!(
            out.contains("NoC replay did not drain: 9110 of 10548 injected packets delivered"),
            "{out}"
        );
        let page = run(&sv(&["eval", pcn_s, placement_s, "--format", "prometheus"])).unwrap();
        for gauge in
            ["snnmap_noc_drained 0\n", "snnmap_noc_injected 10548\n", "snnmap_noc_delivered 9110\n"]
        {
            assert!(page.contains(gauge), "missing {gauge} in:\n{page}");
        }
    }

    #[test]
    fn eval_prometheus_format_and_serve_usage_guard() {
        let dir = std::env::temp_dir().join("snnmap_cli_prom");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let placement = dir.join("p.json");
        let pcn_s = pcn.to_str().unwrap();
        let placement_s = placement.to_str().unwrap();
        run(&sv(&["gen", "--random", "20,3", "--out", pcn_s])).unwrap();
        run(&sv(&["map", pcn_s, "--out", placement_s])).unwrap();

        // The shared encoder: same page shape as the daemon's /metrics.
        let page = run(&sv(&["eval", pcn_s, placement_s, "--format", "prometheus"]))
            .unwrap();
        assert!(page.starts_with("# HELP snnmap_energy"), "{page}");
        assert!(page.contains("\nsnnmap_max_congestion "), "{page}");
        assert!(page.contains("\nsnnmap_max_congestion_is_lower_bound "), "{page}");
        for gauge in [
            "snnmap_noc_cycles 256",
            "snnmap_noc_max_latency ",
            "snnmap_noc_detour_hops 0",
            "snnmap_noc_hottest_traversals ",
            "snnmap_noc_sim_max_congestion ",
            "snnmap_noc_drained 1\n",
        ] {
            assert!(page.contains(gauge), "missing {gauge} in:\n{page}");
        }
        // NoC gauges disappear with the simulation disabled.
        let plain =
            run(&sv(&["eval", pcn_s, placement_s, "--noc-cycles", "0", "--format", "prometheus"]))
                .unwrap();
        assert!(!plain.contains("snnmap_noc_"), "{plain}");

        let err = run(&sv(&["eval", pcn_s, placement_s, "--format", "xml"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&["serve", "--queue-capacity", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn map_objective_flags_select_composite_refinement() {
        let dir = std::env::temp_dir().join("snnmap_cli_objective");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let pcn_s = pcn.to_str().unwrap();
        run(&sv(&["gen", "--random", "36,3", "--seed", "9", "--out", pcn_s])).unwrap();

        let energy = dir.join("energy.json");
        let composite = dir.join("composite.json");
        run(&sv(&["map", pcn_s, "--out", energy.to_str().unwrap(), "--mesh", "6x6"])).unwrap();
        let out = run(&sv(&[
            "map", pcn_s, "--out", composite.to_str().unwrap(), "--mesh", "6x6",
            "--objective", "composite", "--lambda-congestion", "2.0",
            "--lambda-latency", "0.1", "--sim-in-loop", "4", "--max-sweeps", "20",
        ]))
        .unwrap();
        assert!(out.contains("objective: composite (lc=2, lt=0.1)"), "{out}");
        assert!(out.contains("NoC reweight every 4 sweep(s)"), "{out}");

        // Guard rails: λ knobs the objective ignores, sim-in-loop without
        // a congestion term, unknown labels, and baseline methods.
        for bad in [
            vec!["map", pcn_s, "--out", "/dev/null", "--lambda-congestion", "1.0"],
            vec!["map", pcn_s, "--out", "/dev/null", "--sim-in-loop", "4"],
            vec!["map", pcn_s, "--out", "/dev/null", "--objective", "speed"],
            vec![
                "map", pcn_s, "--out", "/dev/null", "--objective", "congestion",
                "--lambda-latency", "0.5",
            ],
            vec![
                "map", pcn_s, "--out", "/dev/null", "--method", "random",
                "--objective", "congestion",
            ],
        ] {
            let err = run(&sv(&bad)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{bad:?}");
        }

        // Composite refinement is deterministic: a repeat run on two
        // threads writes the same bytes, and `eval` accepts them.
        let repeat = dir.join("composite2.json");
        run(&sv(&[
            "map", pcn_s, "--out", repeat.to_str().unwrap(), "--mesh", "6x6",
            "--objective", "composite", "--lambda-congestion", "2.0",
            "--lambda-latency", "0.1", "--sim-in-loop", "4", "--max-sweeps", "20",
            "--threads", "2",
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&composite).unwrap(),
            std::fs::read_to_string(&repeat).unwrap(),
            "composite + sim-in-loop runs must be reproducible"
        );
        let report = run(&sv(&["eval", pcn_s, repeat.to_str().unwrap()])).unwrap();
        assert!(report.contains("energy"), "{report}");
    }

    #[test]
    fn gen_benchmark_by_name() {
        let dir = std::env::temp_dir().join("snnmap_cli_bench");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("lenet.pcn");
        let out = run(&sv(&[
            "gen",
            "--benchmark",
            "LeNet-MNIST",
            "--out",
            pcn.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("9 clusters"), "{out}");
    }

    #[test]
    fn fault_aware_map_then_validate() {
        let dir = std::env::temp_dir().join("snnmap_cli_faults");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let placement = dir.join("p.json");
        let faults = dir.join("faults.json");
        let pcn_s = pcn.to_str().unwrap();
        let placement_s = placement.to_str().unwrap();
        let faults_s = faults.to_str().unwrap();

        run(&sv(&["gen", "--random", "30,3", "--seed", "2", "--out", pcn_s])).unwrap();
        let out = run(&sv(&[
            "map", pcn_s, "--out", placement_s, "--mesh", "8x8", "--seed", "9",
            "--faults", "0.1", "--faults-out", faults_s,
        ]))
        .unwrap();
        assert!(out.contains("placed 30 clusters"), "{out}");
        assert!(out.contains("avoiding"), "{out}");

        // The written fault map validates the placement it shaped.
        let out =
            run(&sv(&["validate", pcn_s, placement_s, "--faults", faults_s])).unwrap();
        assert!(out.contains("placement valid"), "{out}");

        // Faults are only meaningful for the proposed mapper.
        let err = run(&sv(&[
            "map", pcn_s, "--out", placement_s, "--method", "random", "--faults", "0.1",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn validate_flags_violations_with_exit_code_3() {
        let dir = std::env::temp_dir().join("snnmap_cli_validate");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let placement = dir.join("p.json");
        let faults = dir.join("faults.json");
        let pcn_s = pcn.to_str().unwrap();
        let placement_s = placement.to_str().unwrap();

        // 16 clusters fill a 4x4 mesh completely, so *any* dead core is
        // an occupied dead core.
        run(&sv(&["gen", "--random", "16,3", "--seed", "3", "--out", pcn_s])).unwrap();
        run(&sv(&["map", pcn_s, "--out", placement_s, "--mesh", "4x4"])).unwrap();
        std::fs::write(
            &faults,
            r#"{"format":"snnmap-faults-v1","rows":4,"cols":4,"dead_cores":[[0,0]],"faulty_links":[]}"#,
        )
        .unwrap();
        let err = run(&sv(&[
            "validate", pcn_s, placement_s, "--faults", faults.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("violation"), "{err}");

        // An impossible capacity bound also trips validation.
        let err = run(&sv(&["validate", pcn_s, placement_s, "--npc", "1", "--spc", "1"]))
            .unwrap_err();
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn map_threads_flag_is_accepted_and_output_invariant() {
        let dir = std::env::temp_dir().join("snnmap_cli_threads");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let pcn_s = pcn.to_str().unwrap();
        run(&sv(&["gen", "--random", "60,4", "--seed", "1", "--out", pcn_s])).unwrap();
        let mut outputs = Vec::new();
        for threads in ["1", "4"] {
            let placement = dir.join(format!("p{threads}.json"));
            run(&sv(&[
                "map", pcn_s, "--out", placement.to_str().unwrap(), "--threads", threads,
            ]))
            .unwrap();
            outputs.push(std::fs::read_to_string(&placement).unwrap());
        }
        assert_eq!(outputs[0], outputs[1], "placement must not depend on --threads");
        // Only the proposed method understands the flag's machinery, but
        // parsing rejects garbage regardless.
        let err = run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--threads", "many",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // An explicit `--threads 0` is a usage error, not silent auto:
        // auto-detection is spelled by omitting the flag.
        for bad in ["0", "-1", "1.5"] {
            let err = run(&sv(&[
                "map", pcn_s, "--out", "/dev/null", "--threads", bad,
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "--threads {bad} must be a usage error");
            assert!(err.to_string().contains("--threads"), "{err}");
        }
    }

    #[test]
    fn map_trace_out_is_validated_byte_stable_and_placement_invariant() {
        let dir = std::env::temp_dir().join("snnmap_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let pcn_s = pcn.to_str().unwrap();
        run(&sv(&["gen", "--random", "50,4", "--seed", "7", "--out", pcn_s])).unwrap();

        // Untraced reference placement.
        let plain = dir.join("plain.json");
        run(&sv(&["map", pcn_s, "--out", plain.to_str().unwrap(), "--mesh", "8x8"]))
            .unwrap();

        // Two timing-off traced runs: same placement, byte-identical traces.
        let mut traces = Vec::new();
        for i in 0..2 {
            let placement = dir.join(format!("t{i}.json"));
            let trace = dir.join(format!("t{i}.jsonl"));
            let out = run(&sv(&[
                "map", pcn_s, "--out", placement.to_str().unwrap(), "--mesh", "8x8",
                "--trace-out", trace.to_str().unwrap(), "--trace-timing", "off",
            ]))
            .unwrap();
            assert!(out.contains("trace ->"), "{out}");
            assert_eq!(
                std::fs::read_to_string(&placement).unwrap(),
                std::fs::read_to_string(&plain).unwrap(),
                "tracing changed the placement"
            );
            traces.push(std::fs::read_to_string(&trace).unwrap());
        }
        assert_eq!(traces[0], traces[1], "timing-off traces must be byte-identical");

        // The stream validates against the schema and has no timing tail.
        let summary = snnmap_io::validate_trace(&traces[0]).unwrap();
        assert_eq!(summary.count("run"), 1);
        assert!(summary.count("fd_sweep") >= 1);
        assert!(!summary.timing);

        // Timing on (the default) adds the tail but still validates.
        let trace = dir.join("timed.jsonl");
        run(&sv(&[
            "map", pcn_s, "--out", plain.to_str().unwrap(), "--mesh", "8x8",
            "--trace-out", trace.to_str().unwrap(),
        ]))
        .unwrap();
        let timed = snnmap_io::validate_trace(&std::fs::read_to_string(&trace).unwrap())
            .unwrap();
        assert!(timed.timing);

        // Guard rails: bad --trace-timing value, baseline methods.
        let err = run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--trace-out", "/dev/null",
            "--trace-timing", "sometimes",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--method", "random",
            "--trace-out", "/dev/null",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn budgeted_map_checkpoint_then_resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join("snnmap_cli_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let pcn_s = pcn.to_str().unwrap();
        run(&sv(&["gen", "--random", "100,4", "--seed", "1", "--out", pcn_s])).unwrap();

        // Uninterrupted reference run.
        let full = dir.join("full.json");
        run(&sv(&["map", pcn_s, "--out", full.to_str().unwrap(), "--mesh", "10x10"]))
            .unwrap();

        // Budget-stopped run flushing a checkpoint every sweep.
        let partial = dir.join("partial.json");
        let cp = dir.join("cp.json");
        let cp_s = cp.to_str().unwrap();
        let out = run(&sv(&[
            "map", pcn_s, "--out", partial.to_str().unwrap(), "--mesh", "10x10",
            "--max-sweeps", "1", "--checkpoint-every", "1", "--checkpoint-out", cp_s,
        ]))
        .unwrap();
        assert!(out.contains("stopped: sweep_cap_reached"), "{out}");
        assert!(out.contains("checkpoint ->"), "{out}");
        assert!(cp.exists());
        assert_ne!(
            std::fs::read_to_string(&partial).unwrap(),
            std::fs::read_to_string(&full).unwrap(),
            "one sweep must not already be converged for this test to bite"
        );

        // Resume to convergence: byte-identical to the uninterrupted run.
        let resumed = dir.join("resumed.json");
        let out = run(&sv(&[
            "resume", pcn_s, "--checkpoint", cp_s, "--out", resumed.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("resumed at sweep 1"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&resumed).unwrap(),
            std::fs::read_to_string(&full).unwrap(),
            "resumed placement must be byte-identical to the uninterrupted run"
        );

        // Provenance guard: different lambda → different config digest.
        let err = run(&sv(&[
            "resume", pcn_s, "--checkpoint", cp_s, "--out", "/dev/null",
            "--lambda", "0.9",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("different configuration"), "{err}");

        // Flag plumbing guards.
        let err = run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--checkpoint-every", "1",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--method", "random",
            "--deadline-ms", "5",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&["resume", pcn_s, "--out", "/dev/null"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing --checkpoint must be a usage error");
    }

    #[test]
    fn resumed_trace_validates_and_reports_the_resume_event() {
        let dir = std::env::temp_dir().join("snnmap_cli_resume_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let pcn_s = pcn.to_str().unwrap();
        run(&sv(&["gen", "--random", "80,4", "--seed", "3", "--out", pcn_s])).unwrap();

        let cp = dir.join("cp.json");
        let cp_s = cp.to_str().unwrap();
        run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--mesh", "9x9",
            "--max-sweeps", "1", "--checkpoint-out", cp_s,
        ]))
        .unwrap();
        assert!(cp.exists(), "budgeted stop must flush a checkpoint");

        let trace = dir.join("resume.jsonl");
        run(&sv(&[
            "resume", pcn_s, "--checkpoint", cp_s, "--out", "/dev/null",
            "--trace-out", trace.to_str().unwrap(), "--trace-timing", "off",
        ]))
        .unwrap();
        let summary =
            snnmap_io::validate_trace(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        assert_eq!(summary.count("run"), 1);
        assert_eq!(summary.count("resume"), 1);
        assert_eq!(summary.count("fd_done"), 1);
    }

    #[test]
    fn convert_round_trips_between_text_and_binary() {
        let dir = std::env::temp_dir().join("snnmap_cli_convert");
        std::fs::create_dir_all(&dir).unwrap();
        let text = dir.join("app.pcn");
        let binary = dir.join("app.pcnb");
        let back = dir.join("back.pcn");
        let text_s = text.to_str().unwrap();
        let binary_s = binary.to_str().unwrap();

        run(&sv(&["gen", "--random", "50,4", "--seed", "8", "--out", text_s])).unwrap();
        let out = run(&sv(&["convert", text_s, "--out", binary_s])).unwrap();
        assert!(out.contains("binary"), "{out}");
        assert!(out.contains("50 clusters"), "{out}");

        // The binary file is a first-class input everywhere.
        let info = run(&sv(&["info", binary_s])).unwrap();
        assert!(info.contains("50"), "{info}");
        let (pt, pb) = (dir.join("pt.json"), dir.join("pb.json"));
        run(&sv(&["map", text_s, "--out", pt.to_str().unwrap()])).unwrap();
        run(&sv(&["map", binary_s, "--out", pb.to_str().unwrap()])).unwrap();
        assert_eq!(
            std::fs::read_to_string(&pt).unwrap(),
            std::fs::read_to_string(&pb).unwrap(),
            "text and binary inputs must map identically"
        );

        // Converting back lands on the original bytes (both renderers
        // canonicalize, and `gen` wrote canonical text already), at a few
        // thousand clusters too.
        let (big, big_binary) = (dir.join("big.pcn"), dir.join("big.pcnb"));
        let (big_s, big_binary_s) = (big.to_str().unwrap(), big_binary.to_str().unwrap());
        run(&sv(&["gen", "--random", "4000,4", "--seed", "42", "--out", big_s])).unwrap();
        run(&sv(&["convert", big_s, "--out", big_binary_s])).unwrap();
        for (original, binary) in [(text_s, binary_s), (big_s, big_binary_s)] {
            run(&sv(&["convert", binary, "--out", back.to_str().unwrap()])).unwrap();
            assert_eq!(
                std::fs::read_to_string(original).unwrap(),
                std::fs::read_to_string(&back).unwrap(),
                "{original}"
            );
        }

        // A truncated binary is a typed runtime error, not a panic.
        let bytes = std::fs::read(&binary).unwrap();
        std::fs::write(&binary, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(&sv(&["info", binary_s])).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("truncated"), "{err}");

        let err = run(&sv(&["convert", text_s])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "missing --out is a usage error");
    }

    #[test]
    fn multilevel_map_flag_works_and_guards() {
        let dir = std::env::temp_dir().join("snnmap_cli_multilevel");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let pcn_s = pcn.to_str().unwrap();
        run(&sv(&["gen", "--random", "120,4", "--seed", "6", "--out", pcn_s])).unwrap();

        // Below the coarsening target the pipeline degenerates to the
        // flat one, so the flag must not change the placement here.
        let (flat, ml) = (dir.join("flat.json"), dir.join("ml.json"));
        run(&sv(&["map", pcn_s, "--out", flat.to_str().unwrap(), "--mesh", "12x12"]))
            .unwrap();
        let out = run(&sv(&[
            "map", pcn_s, "--out", ml.to_str().unwrap(), "--mesh", "12x12",
            "--multilevel", "on",
        ]))
        .unwrap();
        assert!(out.contains("placed 120 clusters"), "{out}");
        assert_eq!(
            std::fs::read_to_string(&flat).unwrap(),
            std::fs::read_to_string(&ml).unwrap()
        );

        let err = run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--multilevel", "maybe",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--method", "random",
            "--multilevel", "on",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn multilevel_checkpoints_carry_the_flag_in_their_digest() {
        let dir = std::env::temp_dir().join("snnmap_cli_ml_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let pcn_s = pcn.to_str().unwrap();
        run(&sv(&["gen", "--random", "100,4", "--seed", "1", "--out", pcn_s])).unwrap();

        let full = dir.join("full.json");
        run(&sv(&[
            "map", pcn_s, "--out", full.to_str().unwrap(), "--mesh", "10x10",
            "--multilevel", "on",
        ]))
        .unwrap();

        let cp = dir.join("cp.json");
        let cp_s = cp.to_str().unwrap();
        run(&sv(&[
            "map", pcn_s, "--out", "/dev/null", "--mesh", "10x10",
            "--multilevel", "on", "--max-sweeps", "1", "--checkpoint-out", cp_s,
        ]))
        .unwrap();
        assert!(cp.exists(), "budgeted multilevel stop must flush a checkpoint");

        // The digest records the multilevel flag, so a flat resume is
        // refused until the caller acknowledges the original pipeline.
        let err = run(&sv(&["resume", pcn_s, "--checkpoint", cp_s, "--out", "/dev/null"]))
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("different configuration"), "{err}");

        // With the flag, resume continues the finest-level FD pass and
        // lands exactly where the uninterrupted run did.
        let resumed = dir.join("resumed.json");
        run(&sv(&[
            "resume", pcn_s, "--checkpoint", cp_s, "--out", resumed.to_str().unwrap(),
            "--multilevel", "on",
        ]))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&resumed).unwrap(),
            std::fs::read_to_string(&full).unwrap(),
            "resumed multilevel run must match the uninterrupted one"
        );
    }

    #[test]
    fn board_map_validate_and_chip_faults() {
        let dir = std::env::temp_dir().join("snnmap_cli_board");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let placement = dir.join("p.json");
        let pcn_s = pcn.to_str().unwrap();
        let placement_s = placement.to_str().unwrap();
        let board = "2x2/4x4@4096,65536";

        run(&sv(&["gen", "--random", "40,3", "--seed", "4", "--out", pcn_s])).unwrap();
        // The 8x8 mesh is derived from the board spec.
        let out =
            run(&sv(&["map", pcn_s, "--out", placement_s, "--board", board])).unwrap();
        assert!(out.contains("placed 40 clusters on 8x8"), "{out}");
        assert!(out.contains("chips"), "{out}");

        // The board-aware validator accepts the result...
        let out =
            run(&sv(&["validate", pcn_s, placement_s, "--board", board])).unwrap();
        assert!(out.contains("placement valid"), "{out}");

        // ...and rejects it once the chip under it dies.
        let err = run(&sv(&[
            "validate", pcn_s, placement_s, "--board", board, "--faults", "chip:0",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("dead chip"), "{err}");

        // Mapping with the dead chip masked avoids it and validates clean.
        let out = run(&sv(&[
            "map", pcn_s, "--out", placement_s, "--board", board, "--faults", "chip:0",
        ]))
        .unwrap();
        assert!(out.contains("avoiding 16 dead core(s)"), "{out}");
        let out = run(&sv(&[
            "validate", pcn_s, placement_s, "--board", board, "--faults", "chip:0",
        ]))
        .unwrap();
        assert!(out.contains("placement valid"), "{out}");

        // Guards: disagreeing --mesh, chip faults without a board,
        // baseline methods, and flat capacity flags next to a board.
        let err = run(&sv(&[
            "map", pcn_s, "--out", placement_s, "--board", board, "--mesh", "9x9",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&["map", pcn_s, "--out", placement_s, "--faults", "chip:0"]))
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&[
            "map", pcn_s, "--out", placement_s, "--board", board, "--method", "random",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&[
            "validate", pcn_s, placement_s, "--board", board, "--npc", "16",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&sv(&["map", pcn_s, "--out", placement_s, "--board", "bogus"]))
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn map_with_explicit_method_and_mesh() {
        let dir = std::env::temp_dir().join("snnmap_cli_map");
        std::fs::create_dir_all(&dir).unwrap();
        let pcn = dir.join("app.pcn");
        let placement = dir.join("p.json");
        run(&sv(&["gen", "--random", "16,3", "--out", pcn.to_str().unwrap()])).unwrap();
        for method in ["random", "truenorth", "dfsynthesizer", "pso", "proposed"] {
            let out = run(&sv(&[
                "map",
                pcn.to_str().unwrap(),
                "--out",
                placement.to_str().unwrap(),
                "--method",
                method,
                "--mesh",
                "5x5",
                "--budget-secs",
                "5",
            ]))
            .unwrap();
            assert!(out.contains("placed"), "{method}: {out}");
        }
    }
}
