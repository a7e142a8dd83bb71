//! Kill/resume determinism and anytime budgets of the real `snnmap`
//! binary: a `map` killed with SIGKILL mid-FD leaves a checkpoint that
//! `resume` carries to the byte-identical placement of the uninterrupted
//! run; a `serve` daemon killed with SIGKILL mid-job and restarted over
//! the same spool serves that same placement (at once when it keeps its
//! `--daemon-id`, and under a new id after stealing the dead peer's
//! lease); and a wall-clock deadline
//! ends a run with a valid best-so-far placement, never an error.
//!
//! A resume rebuilds the engine's force state from the checkpoint's
//! coordinates alone, so this is the end-to-end check that the rebuilt
//! state equals the one the killed run had patched incrementally.
//!
//! Sized for debug builds: a 20,000-cluster PCN on a 150×150 mesh, whose
//! 40 FD sweeps take about a second, so the kill after the first sweep's
//! checkpoint lands long before the run ends.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
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

/// The map flags every run of the kill/resume checks shares.
const MAP: [&str; 6] = ["--mesh", "150x150", "--threads", "2", "--max-sweeps", "40"];

/// Waits until `path` exists, failing if `child` exits first.
fn wait_for(path: &Path, child: &mut Child) {
    let start = Instant::now();
    while !path.exists() {
        assert!(child.try_wait().unwrap().is_none(), "exited before writing {}", path.display());
        assert!(start.elapsed() < Duration::from_secs(300), "no {} after 300 s", path.display());
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The `"sweeps"` count of a checkpoint document.
fn checkpoint_sweeps(cp: &Path) -> u64 {
    let text = std::fs::read_to_string(cp).unwrap();
    text.split("\"sweeps\": ").nth(1).unwrap().split(',').next().unwrap().parse().unwrap()
}

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
    wait_for(&cp, &mut child);
    child.kill().unwrap();
    let status = child.wait().unwrap();
    assert!(!status.success(), "the kill must land mid-FD, but map finished: {status}");
    assert!(!killed.exists(), "a killed run writes no placement");
    assert!(checkpoint_sweeps(&cp) < 40, "the checkpoint is from the end of the run");

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

/// Starts `snnmap serve` with `flags` on an ephemeral port over `spool`
/// and returns the child with the address from its `listening on` line.
/// The rest of its stderr is drained so the daemon never blocks on a
/// full pipe.
fn start_daemon(spool: &Path, flags: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_snnmap"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1", "--spool-dir", s(spool)])
        .args(flags)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = BufReader::new(child.stderr.take().unwrap()).lines();
    let line = lines.next().expect("the daemon announces its address").unwrap();
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .to_string();
    std::thread::spawn(move || lines.for_each(drop));
    (child, addr)
}

/// One HTTP/1.1 request; returns the status and the body.
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Submits a job to a daemon started with `killed` flags, SIGKILLs it
/// as soon as the job's first checkpoint lands, starts a survivor with
/// `survivor` flags over the same spool, and checks that it serves the
/// offline placement byte for byte. Returns how long the survivor took
/// to finish the job, and its `/metrics` page.
fn kill_and_restart_daemon(name: &str, killed: &[&str], survivor: &[&str]) -> (Duration, String) {
    let dir = workspace(name);
    let pcn = dir.join("app.pcn");
    snnmap(&["gen", "--random", "20000,4", "--seed", "43", "--out", s(&pcn)]);
    let offline = dir.join("offline.json");
    snnmap(&[&["map", s(&pcn), "--out", s(&offline)], &MAP[..]].concat());

    let pcn_text = serde_json::to_string(&std::fs::read_to_string(&pcn).unwrap()).unwrap();
    let job = format!(
        "{{\"format\": \"snnmap-job-v1\", \"pcn\": {pcn_text}, \"mesh\": \"150x150\", \
         \"threads\": 2, \"max_sweeps\": 40, \"checkpoint_every\": 1}}"
    );
    let spool = dir.join("spool");
    let (mut daemon, addr) = start_daemon(&spool, killed);
    let (status, response) = request(&addr, "POST", "/jobs", &job);
    assert_eq!(status, 201, "{response}");

    // SIGKILL as soon as the job's first checkpoint lands.
    let job_dir = spool.join("job-1");
    wait_for(&job_dir.join("checkpoint.json"), &mut daemon);
    daemon.kill().unwrap();
    daemon.wait().unwrap();
    assert!(!job_dir.join("placement.json").exists(), "the kill must land mid-job");
    assert!(checkpoint_sweeps(&job_dir.join("checkpoint.json")) < 40);

    let (mut daemon, addr) = start_daemon(&spool, survivor);
    let start = Instant::now();
    loop {
        let (status, body) = request(&addr, "GET", "/jobs/1", "");
        assert_eq!(status, 200, "{body}");
        let doc: serde_json::Value = serde_json::from_str(&body).expect("JSON job status");
        match doc.as_object().and_then(|o| o.get("state")).and_then(|v| v.as_str()) {
            Some("done") => break,
            Some("failed") | Some("cancelled") => panic!("the resumed job ended badly: {body}"),
            _ => {}
        }
        assert!(start.elapsed() < Duration::from_secs(300), "job not done after 300 s: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    let finished = start.elapsed();
    let (status, served) = request(&addr, "GET", "/jobs/1/placement", "");
    let (_, metrics) = request(&addr, "GET", "/metrics", "");
    daemon.kill().unwrap();
    daemon.wait().unwrap();
    assert_eq!(status, 200, "{served}");
    assert!(
        served.as_bytes() == std::fs::read(&offline).unwrap(),
        "the restarted daemon must serve the offline placement byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (finished, metrics)
}

#[test]
fn sigkilled_daemon_resumes_its_job_to_the_offline_placement() {
    // Each start gets a fresh daemon id, so the restart takes the killed
    // predecessor's job over by stealing its expired lease; the 1 s TTL
    // keeps that wait short.
    let flags = ["--lease-ttl-ms", "1000"];
    kill_and_restart_daemon("serve_kill", &flags, &flags);
}

#[test]
fn a_survivor_daemon_on_a_shared_spool_finishes_a_killed_peers_job() {
    // Two named daemons on one spool: `beta` steals the lease `alpha`
    // held when it was SIGKILLed, and counts the takeover.
    let (_, metrics) = kill_and_restart_daemon(
        "serve_failover",
        &["--lease-ttl-ms", "1500", "--daemon-id", "alpha"],
        &["--lease-ttl-ms", "1500", "--daemon-id", "beta"],
    );
    let takeovers: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("snnmap_serve_lease_takeovers_total "))
        .unwrap_or_else(|| panic!("no takeover counter in {metrics}"))
        .trim()
        .parse()
        .unwrap();
    assert!(takeovers >= 1.0, "beta reports {takeovers} lease takeovers");
}

#[test]
fn a_daemon_restarted_with_its_id_reenters_its_lease_at_once() {
    // Under the same `--daemon-id` the restart owns the dead lease, so
    // it resumes the job without waiting out the default 30 s TTL.
    let flags = ["--daemon-id", "alpha"];
    let (finished, _) = kill_and_restart_daemon("serve_same_id", &flags, &flags);
    assert!(
        finished < Duration::from_secs(15),
        "the restart took {finished:?}: it waited for the lease to expire"
    );
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
