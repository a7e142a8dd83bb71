//! Kill/resume determinism and anytime budgets of the real `snnmap`
//! binary: a `map` killed with SIGKILL mid-FD leaves a checkpoint that
//! `resume` carries to the byte-identical placement of the uninterrupted
//! run, and a wall-clock deadline ends a run with a valid best-so-far
//! placement, never an error.
//!
//! A resume rebuilds the engine's force state from the checkpoint's
//! coordinates alone, so this is the end-to-end check that the rebuilt
//! state equals the one the killed run had patched incrementally.
//!
//! Sized for debug builds: a 20,000-cluster PCN on a 150×150 mesh, whose
//! 40 FD sweeps take about a second, so the kill after the first sweep's
//! checkpoint lands long before the run ends.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn snnmap(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_snnmap")).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "snnmap {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn workspace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snnmap_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn s(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// The map flags every run of the kill/resume check shares.
const MAP: [&str; 6] = ["--mesh", "150x150", "--threads", "2", "--max-sweeps", "40"];

#[test]
fn sigkilled_map_resumes_to_the_uninterrupted_placement() {
    let dir = workspace("kill_resume");
    let pcn = dir.join("app.pcn");
    snnmap(&["gen", "--random", "20000,4", "--seed", "42", "--out", s(&pcn)]);

    let full = dir.join("full.json");
    snnmap(&[&["map", s(&pcn), "--out", s(&full)], &MAP[..]].concat());

    // Checkpoint every sweep; SIGKILL as soon as the first one lands.
    // The checkpoint is written to a temporary file and renamed into
    // place, so once it exists it is complete.
    let cp = dir.join("cp.json");
    let killed = dir.join("killed.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_snnmap"))
        .args([&["map", s(&pcn), "--out", s(&killed)], &MAP[..]].concat())
        .args(["--checkpoint-every", "1", "--checkpoint-out", s(&cp)])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let start = Instant::now();
    while !cp.exists() {
        assert!(child.try_wait().unwrap().is_none(), "map exited before its first checkpoint");
        assert!(start.elapsed() < Duration::from_secs(300), "no checkpoint after 300 s");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().unwrap();
    let status = child.wait().unwrap();
    assert!(!status.success(), "the kill must land mid-FD, but map finished: {status}");
    assert!(!killed.exists(), "a killed run writes no placement");
    let text = std::fs::read_to_string(&cp).unwrap();
    let sweeps: u64 = text.split("\"sweeps\": ").nth(1).unwrap().split(',').next().unwrap().parse().unwrap();
    assert!(sweeps < 40, "the checkpoint is from the end of the run");

    let resumed = dir.join("resumed.json");
    snnmap(&[
        "resume", s(&pcn), "--checkpoint", s(&cp), "--out", s(&resumed), "--threads", "2",
        "--max-sweeps", "40",
    ]);
    assert!(
        std::fs::read(&resumed).unwrap() == std::fs::read(&full).unwrap(),
        "kill + resume must match the uninterrupted run byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_run_returns_a_valid_best_so_far_placement() {
    let dir = workspace("deadline");
    let pcn = dir.join("app.pcn");
    snnmap(&["gen", "--random", "20000,4", "--seed", "42", "--out", s(&pcn)]);
    let out = dir.join("deadline.json");
    let run = snnmap(&[
        "map", s(&pcn), "--out", s(&out), "--mesh", "150x150", "--threads", "2", "--deadline-ms",
        "50",
    ]);
    let report = String::from_utf8_lossy(&run.stdout);
    assert!(report.contains("stopped: deadline_expired"), "{report}");
    snnmap(&["validate", s(&pcn), s(&out)]);
    let _ = std::fs::remove_dir_all(&dir);
}
