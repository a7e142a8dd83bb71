//! Tracing never changes a run, and its stream follows the versioned
//! schema: with `--trace-timing off` two traces of the same map are
//! byte-identical, a traced map writes the same placement as an
//! untraced one, and both a timing-off and a timed trace pass
//! `snnmap_io::validate_trace`. Every test maps a 4,000-cluster PCN on a
//! 64×64 mesh with two threads, through the same entry point as the
//! binary.

use std::path::PathBuf;

/// Runs `snnmap` with `args`, panicking on failure.
fn run(args: &[&str]) {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    if let Err(e) = snnmap_cli::run(&args) {
        panic!("snnmap {}: {e}", args.join(" "));
    }
}

/// A fresh working directory holding the generated PCN `app.pcn`.
fn workspace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pcn = dir.join("app.pcn");
    run(&["gen", "--random", "4000,4", "--seed", "42", "--out", pcn.to_str().unwrap()]);
    dir
}

/// Maps `app.pcn` to `out` with `extra` flags; returns the placement bytes.
fn map(dir: &std::path::Path, out: &str, extra: &[&str]) -> Vec<u8> {
    let (pcn, out) = (dir.join("app.pcn"), dir.join(out));
    let args = [
        "map",
        pcn.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--mesh",
        "64x64",
        "--threads",
        "2",
    ];
    run(&[&args[..], extra].concat());
    std::fs::read(out).unwrap()
}

#[test]
fn timing_off_traces_are_byte_identical() {
    let dir = workspace("snnmap_cli_trace_replay");
    let trace = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let (a, b) = (trace("run_a.jsonl"), trace("run_b.jsonl"));
    map(&dir, "p_a.json", &["--trace-out", &a, "--trace-timing", "off"]);
    map(&dir, "p_b.json", &["--trace-out", &b, "--trace-timing", "off"]);
    let (a, b) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
    assert!(!a.is_empty());
    assert!(a == b, "two timing-off traces of one run differ");
}

#[test]
fn tracing_does_not_change_the_placement() {
    let dir = workspace("snnmap_cli_trace_placement");
    let trace = dir.join("run.jsonl").to_str().unwrap().to_owned();
    let traced = map(&dir, "traced.json", &["--trace-out", &trace, "--trace-timing", "off"]);
    let plain = map(&dir, "plain.json", &[]);
    assert!(!plain.is_empty());
    assert!(plain == traced, "the untraced placement differs from the traced one");
}

#[test]
fn timing_off_and_timed_traces_validate_against_the_schema() {
    let dir = workspace("snnmap_cli_trace_schema");
    for (name, timing) in [("off.jsonl", &["--trace-timing", "off"][..]), ("timed.jsonl", &[])] {
        let trace = dir.join(name).to_str().unwrap().to_owned();
        let flags = [&["--trace-out", trace.as_str()][..], timing].concat();
        map(&dir, &format!("p_{name}.json"), &flags);
        let text = std::fs::read_to_string(&trace).unwrap();
        let summary =
            snnmap_io::validate_trace(&text).unwrap_or_else(|e| panic!("{name} is invalid: {e}"));
        assert_eq!(summary.timing, timing.is_empty(), "{name}: wrong timing flag");
    }
}
