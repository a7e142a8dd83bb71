//! Crash recovery: a daemon restarted over an existing spool finishes
//! every non-terminal job, and an interrupted run resumes from its
//! checkpoint **byte-identically** to one that was never interrupted.
//!
//! The crash is simulated at the spool level — the exact on-disk state a
//! `kill -9` leaves behind (a `queued` job, and a `running` job whose
//! checkpoint the FD engine had flushed) is constructed directly, then a
//! fresh daemon is pointed at it. A running job whose checkpoint is in
//! the retired `snnmap-checkpoint-v1` format is requeued and run from
//! scratch rather than quarantined. The end-to-end `kill -9` of a live
//! `snnmap serve` process is `crates/cli/tests/resilience.rs`; the
//! recovery logic exercised is the same.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use snnmap_core::{FdRunOpts, Mapper, RunBudget};
use snnmap_io::{parse_job, render_pcn, render_placement, write_checkpoint};
use snnmap_model::generators::random_pcn;
use snnmap_serve::{ServeConfig, Server};
use snnmap_trace::{sha256_hex, NoopSink};

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let value: serde_json::Value = serde_json::from_str(body).ok()?;
    Some(value.as_object()?.get(key)?.as_str()?.to_string())
}

fn wait_done(addr: SocketAddr, id: u64) -> String {
    for _ in 0..1200 {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        match json_str(&body, "state").as_deref() {
            Some("done") => return body,
            Some("failed") | Some("cancelled") => panic!("job {id} ended badly: {body}"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    panic!("job {id} never finished");
}

/// Writes one spooled job directory the way the daemon would have left
/// it: verbatim request body plus a state record.
fn spool_job(spool: &Path, id: u64, body: &str, state: &str) {
    let dir = spool.join(format!("job-{id}"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("request.json"), body).unwrap();
    std::fs::write(dir.join("state"), format!("{state}\n")).unwrap();
}

#[test]
fn restart_finishes_spooled_jobs_byte_identically() {
    let spool = std::env::temp_dir().join("snnmap_serve_recovery");
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).unwrap();

    let pcn = random_pcn(90, 4.0, 21).unwrap();
    let body = serde_json::to_string(&serde_json::json!({
        "format": "snnmap-job-v1",
        "pcn": render_pcn(&pcn),
        "checkpoint_every": 1,
    }))
    .unwrap();
    let spec = parse_job(&body).unwrap();

    // The uninterrupted reference: the same spec, run to convergence.
    let mapper = Mapper::builder().build();
    let reference =
        render_placement(&mapper.map(&pcn, spec.mesh).unwrap().placement);

    // Job 1 — killed while *queued*: request spooled, no checkpoint.
    spool_job(&spool, 1, &body, "queued");

    // Job 2 — killed while *running*: the engine had flushed a
    // mid-run checkpoint (reproduced here by a budgeted offline stop
    // after 2 sweeps, stamped with the job's own provenance digests).
    spool_job(&spool, 2, &body, "running");
    let meta = spec.provenance();
    let cp_path = spool.join("job-2").join("checkpoint.json");
    let mut writer = |cp: &snnmap_core::FdCheckpoint| -> Result<(), String> {
        write_checkpoint(&cp_path, cp, &meta).map_err(|e| e.to_string())
    };
    let mut opts = FdRunOpts {
        budget: RunBudget { max_sweeps: Some(2), ..RunBudget::default() },
        ..FdRunOpts::default()
    };
    opts.on_checkpoint = Some(&mut writer);
    let partial = mapper
        .map_budgeted_traced(&pcn, spec.mesh, &mut opts, &mut NoopSink)
        .unwrap();
    assert!(cp_path.is_file(), "the budgeted stop must flush a checkpoint");
    assert_ne!(
        render_placement(&partial.placement),
        reference,
        "two sweeps must not already be converged for this test to bite"
    );

    // Job 3 — already done before the crash: must come back as history,
    // not be re-run.
    spool_job(&spool, 3, &body, "done");
    std::fs::write(spool.join("job-3").join("placement.json"), &reference).unwrap();

    // Job 4 — killed while running under an older build, whose
    // checkpoint carried the force table in the v1 format. This build
    // cannot resume it, so the job starts over — and still reaches the
    // uninterrupted run's placement.
    spool_job(&spool, 4, &body, "running");
    let v1 = std::fs::read_to_string(&cp_path)
        .unwrap()
        .replacen("snnmap-checkpoint-v2", "snnmap-checkpoint-v1", 1)
        .replacen("\"coords\"", "\"forces_bits\": [],\n  \"coords\"", 1);
    std::fs::write(spool.join("job-4").join("checkpoint.json"), v1).unwrap();

    // "Restart" the daemon over the crashed spool.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        spool_dir: spool.clone(),
        queue_capacity: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let daemon = std::thread::spawn(move || server.run(&flag));

    for id in [1u64, 2, 4] {
        let status_body = wait_done(addr, id);
        let (code, placement) = request(addr, "GET", &format!("/jobs/{id}/placement"), "");
        assert_eq!(code, 200);
        assert_eq!(
            placement, reference,
            "recovered job {id} must match the uninterrupted run byte-for-byte"
        );
        assert_eq!(
            json_str(&status_body, "placement_sha256").as_deref(),
            Some(sha256_hex(reference.as_bytes()).as_str())
        );
    }
    // The resumed job really did resume: its consumed checkpoint is gone.
    assert!(!cp_path.exists(), "a finished job's checkpoint is cleaned up");
    // The v1 checkpoint was outdated, not corrupt.
    assert!(!spool.join("quarantine").exists(), "a v1 checkpoint must not be quarantined");

    // The pre-crash done job is served from the spool as-is.
    let (code, body) = request(addr, "GET", "/jobs/3", "");
    assert_eq!(code, 200);
    assert_eq!(json_str(&body, "state").as_deref(), Some("done"));
    let (code, placement) = request(addr, "GET", "/jobs/3/placement", "");
    assert_eq!(code, 200);
    assert_eq!(placement, reference);

    // New submissions never collide with recovered ids.
    let (code, body) = request(addr, "POST", "/jobs", &body_for_new_job());
    assert_eq!(code, 201, "{body}");
    assert!(body.contains("\"id\":5") || body.contains("\"id\": 5"), "{body}");

    shutdown.store(true, SeqCst);
    daemon.join().unwrap();
}

fn body_for_new_job() -> String {
    let pcn = random_pcn(30, 3.0, 5).unwrap();
    serde_json::to_string(&serde_json::json!({
        "format": "snnmap-job-v1",
        "pcn": render_pcn(&pcn),
        "max_sweeps": 4,
    }))
    .unwrap()
}
