//! Seeded fault injection (`SNNMAP_CHAOS`) against the real `snnmap`
//! binary: every injected checkpoint write or rename fault fails `map`
//! with a typed error, never a panic; every injected checkpoint read
//! fault fails `resume` the same way, while an unfaulted resume of the
//! same checkpoint matches the uninterrupted run byte for byte; and a
//! malformed schedule is a usage error, not a silent no-op.
//!
//! The schedule is read from the environment at start-up, so each case
//! runs the binary as a child process with its own `SNNMAP_CHAOS`.
//! Sized for debug builds: a 4,000-cluster PCN on a 64×64 mesh.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `snnmap` with `args` under the chaos schedule `chaos` (none when
/// empty).
fn snnmap(chaos: &str, args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_snnmap"));
    cmd.args(args).env_remove("SNNMAP_CHAOS");
    if !chaos.is_empty() {
        cmd.env("SNNMAP_CHAOS", chaos);
    }
    cmd.output().unwrap()
}

/// Runs `snnmap` without faults, panicking on failure.
fn snnmap_ok(args: &[&str]) {
    let out = snnmap("", args);
    assert!(
        out.status.success(),
        "snnmap {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Runs `snnmap` under `chaos`, requiring it to fail without a panic;
/// returns its stderr.
fn snnmap_fails(chaos: &str, args: &[&str]) -> String {
    let out = snnmap(chaos, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "SNNMAP_CHAOS={chaos} snnmap {args:?} succeeded");
    assert!(!stderr.contains("panicked"), "SNNMAP_CHAOS={chaos}: {stderr}");
    stderr
}

/// A fresh working directory holding the generated PCN `app.pcn`.
fn workspace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snnmap_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pcn = dir.join("app.pcn");
    snnmap_ok(&["gen", "--random", "4000,4", "--seed", "42", "--out", s(&pcn)]);
    dir
}

fn s(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// The map flags every run shares.
const MAP: [&str; 4] = ["--mesh", "64x64", "--threads", "2"];

#[test]
fn every_checkpoint_write_fault_is_a_typed_error() {
    let dir = workspace("chaos_write");
    let (pcn, out, cp) = (dir.join("app.pcn"), dir.join("p.json"), dir.join("cp.json"));
    for spec in [
        "checkpoint.write=torn@#1",
        "checkpoint.write=enospc@#1",
        "checkpoint.rename=fail@#1",
        "checkpoint.write=fail@1in2",
    ] {
        let chaos = format!("7:{spec}");
        let stderr = snnmap_fails(
            &chaos,
            &[
                &["map", s(&pcn), "--out", s(&out), "--max-sweeps", "30"][..],
                &MAP,
                &["--checkpoint-every", "1", "--checkpoint-out", s(&cp)],
            ]
            .concat(),
        );
        assert!(stderr.contains("checkpoint write failed"), "SNNMAP_CHAOS={chaos}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_faulted_resume_is_a_typed_error_and_an_unfaulted_one_is_byte_identical() {
    let dir = workspace("chaos_read");
    let pcn = dir.join("app.pcn");
    let full = dir.join("full.json");
    snnmap_ok(&[&["map", s(&pcn), "--out", s(&full), "--max-sweeps", "30"][..], &MAP].concat());

    let (partial, cp) = (dir.join("partial.json"), dir.join("cp.json"));
    snnmap_ok(
        &[
            &["map", s(&pcn), "--out", s(&partial), "--max-sweeps", "5"][..],
            &MAP,
            &["--checkpoint-every", "1", "--checkpoint-out", s(&cp)],
        ]
        .concat(),
    );
    let resumed = dir.join("resumed.json");
    let resume = [
        "resume", s(&pcn), "--checkpoint", s(&cp), "--out", s(&resumed), "--threads", "2",
        "--max-sweeps", "30",
    ];
    for spec in ["checkpoint.read=short@#1", "checkpoint.read=torn@#1", "checkpoint.read=enospc@#1"]
    {
        snnmap_fails(&format!("9:{spec}"), &resume);
        assert!(!resumed.exists(), "a failed resume writes no placement ({spec})");
    }
    snnmap_ok(&resume);
    assert!(
        std::fs::read(&resumed).unwrap() == std::fs::read(&full).unwrap(),
        "an unfaulted resume must match the uninterrupted run byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_malformed_schedule_is_a_usage_error() {
    let dir = workspace("chaos_usage");
    let out = snnmap("not-a-schedule", &["info", s(&dir.join("app.pcn"))]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: SNNMAP_CHAOS env var"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
