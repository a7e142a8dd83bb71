//! Deterministic fault injection against a live daemon.
//!
//! Every test arms a seeded `snnmap-chaos` schedule (or none, for the
//! pure socket-abuse tests), drives the daemon through the fault, and
//! checks the robustness contract: every affected request gets a typed
//! HTTP error or succeeds after bounded retries, every affected job
//! completes / fails-typed / stays resumable, results stay
//! byte-identical to an unfaulted run, and the daemon itself never
//! wedges or dies.
//!
//! The chaos registry is process-global, so the tests serialize on one
//! mutex and disarm on drop (panic included).

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use snnmap_core::Mapper;
use snnmap_io::{parse_job, render_pcn, render_placement};
use snnmap_model::generators::random_pcn;
use snnmap_serve::{ServeConfig, Server};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Holds the global-chaos mutex for one test and disarms the schedule
/// on drop, even when the test panics.
struct ChaosGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        snnmap_chaos::uninstall();
    }
}

/// Serializes the test and arms `spec` (empty = no faults, lock only).
fn chaos(seed: u64, spec: &str) -> ChaosGuard {
    let guard = CHAOS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    snnmap_chaos::uninstall();
    if !spec.is_empty() {
        snnmap_chaos::install(seed, spec).expect("test spec parses");
    }
    ChaosGuard(guard)
}

/// A daemon on a fresh temp spool, torn down (and drained) on drop.
struct Daemon {
    addr: SocketAddr,
    spool: PathBuf,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<snnmap_serve::DrainReport>>,
}

impl Daemon {
    fn start(tag: &str, configure: impl FnOnce(&mut ServeConfig)) -> Self {
        Self::start_bound(tag, configure, |_| {})
    }

    /// [`Daemon::start`], running `after_bind` on the spool between bind
    /// (which sweeps stray `*.tmp` files) and the workers' start.
    fn start_bound(
        tag: &str,
        configure: impl FnOnce(&mut ServeConfig),
        after_bind: impl FnOnce(&Path),
    ) -> Self {
        let spool = std::env::temp_dir().join(format!("snnmap_serve_chaos_{tag}"));
        let _ = std::fs::remove_dir_all(&spool);
        let mut config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            spool_dir: spool.clone(),
            queue_capacity: 8,
            ..ServeConfig::default()
        };
        configure(&mut config);
        let server = Server::bind(&config).expect("bind");
        after_bind(&config.spool_dir);
        let addr = server.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || server.run(&flag));
        Self { addr, spool, shutdown, thread: Some(thread) }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Faults must never outlive the test into the drain.
        snnmap_chaos::uninstall();
        self.shutdown.store(true, SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Blocking one-shot HTTP exchange; returns the status and the body.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let text = request_raw(addr, method, path, body);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {text}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Same, but returns the entire response text (headers included).
fn request_raw(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read");
    text
}

fn json_str(body: &str, key: &str) -> Option<String> {
    let value: serde_json::Value = serde_json::from_str(body).ok()?;
    Some(value.as_object()?.get(key)?.as_str()?.to_string())
}

fn job_body(clusters: u32, seed: u64, checkpoint_every: u64) -> String {
    let pcn = random_pcn(clusters, 3.0, seed).unwrap();
    serde_json::to_string(&serde_json::json!({
        "format": "snnmap-job-v1",
        "pcn": render_pcn(&pcn),
        "checkpoint_every": checkpoint_every,
    }))
    .unwrap()
}

fn wait_state(addr: SocketAddr, id: u64, want: &str) -> String {
    for _ in 0..1200 {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let state = json_str(&body, "state");
        if state.as_deref() == Some(want) {
            return body;
        }
        if matches!(state.as_deref(), Some("failed" | "cancelled")) && want == "done" {
            panic!("job {id} ended badly: {body}");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {id} never reached `{want}`");
}

/// Extracts one `snnmap_<name> value` sample from a `/metrics` page.
fn metric(addr: SocketAddr, name: &str) -> f64 {
    let (status, page) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("snnmap_{name} ")))
        .unwrap_or_else(|| panic!("no `{name}` in metrics page:\n{page}"))
        .trim()
        .parse()
        .expect("metric is a number")
}

// ---------------------------------------------------------------------
// Storage faults
// ---------------------------------------------------------------------

#[test]
fn enospc_on_the_spool_is_a_typed_500_and_the_daemon_survives() {
    let _guard = chaos(11, "spool.mkdir=enospc");
    let daemon = Daemon::start("enospc", |_| {});
    let body = job_body(20, 1, 0);

    let (status, text) = request(daemon.addr, "POST", "/jobs", &body);
    assert_eq!(status, 500, "{text}");
    assert!(text.contains("spooling job"), "error names the failing step: {text}");

    // The fault cost retries, all counted.
    assert!(metric(daemon.addr, "serve_spool_retries_total") >= 3.0);
    assert!(metric(daemon.addr, "serve_chaos_injected_total") >= 4.0);

    // Disk "recovers": the daemon takes the very next job.
    snnmap_chaos::uninstall();
    let (status, text) = request(daemon.addr, "POST", "/jobs", &body);
    assert_eq!(status, 201, "{text}");
    let (status, _) = request(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn a_transient_torn_write_is_absorbed_by_retry() {
    let _guard = chaos(7, "spool.write=torn@#1");
    let daemon = Daemon::start("torn_write", |_| {});
    let body = job_body(24, 2, 0);

    // The torn first write of request.json is retried; the client only
    // ever sees the success.
    let (status, text) = request(daemon.addr, "POST", "/jobs", &body);
    assert_eq!(status, 201, "{text}");
    wait_state(daemon.addr, 1, "done");

    assert!(metric(daemon.addr, "serve_spool_retries_total") >= 1.0);
    assert!(metric(daemon.addr, "serve_chaos_injected_total") >= 1.0);
    // The spool holds no torn debris.
    let job_dir = daemon.spool.join("job-1");
    for entry in std::fs::read_dir(&job_dir).unwrap() {
        let name = entry.unwrap().file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "leftover temp file {name:?} in {job_dir:?}"
        );
    }
}

#[test]
fn checkpoint_faults_retry_without_changing_the_result() {
    // Offline reference: the same job, no faults anywhere.
    let body = job_body(40, 3, 1);
    let spec = parse_job(&body).unwrap();
    let reference = render_placement(
        &Mapper::builder().build().map(&spec.pcn, spec.mesh).unwrap().placement,
    );

    let _guard = chaos(3, "checkpoint.write=torn@#1,checkpoint.rename=fail@#2");
    let daemon = Daemon::start("cp_retry", |_| {});
    let (status, text) = request(daemon.addr, "POST", "/jobs", &body);
    assert_eq!(status, 201, "{text}");
    wait_state(daemon.addr, 1, "done");

    let (status, placement) = request(daemon.addr, "GET", "/jobs/1/placement", "");
    assert_eq!(status, 200);
    assert_eq!(placement, reference, "faulted run must stay byte-identical");
    assert!(metric(daemon.addr, "serve_chaos_injected_total") >= 2.0);
}

#[test]
fn exhausted_checkpoint_retries_fail_the_job_with_a_typed_error() {
    let _guard = chaos(5, "checkpoint.rename=fail");
    let daemon = Daemon::start("cp_exhaust", |_| {});

    let (status, text) = request(daemon.addr, "POST", "/jobs", &job_body(40, 4, 1));
    assert_eq!(status, 201, "{text}");
    let body = wait_state(daemon.addr, 1, "failed");
    let error = json_str(&body, "error").expect("failed job carries its error");
    assert!(
        error.contains("checkpoint write failed"),
        "the engine's typed CheckpointFailed, not a panic: {error}"
    );

    // One failed job, not a dead daemon: disarm and run another.
    snnmap_chaos::uninstall();
    let (status, _) = request(daemon.addr, "POST", "/jobs", &job_body(20, 5, 0));
    assert_eq!(status, 201);
    wait_state(daemon.addr, 2, "done");
}

// ---------------------------------------------------------------------
// Socket abuse
// ---------------------------------------------------------------------

#[test]
fn slow_loris_and_stalled_bodies_get_408() {
    let _guard = chaos(0, "");
    let daemon = Daemon::start("loris", |c| c.io_timeout = Duration::from_millis(200));

    // Slow loris: a request line, then silence.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream.write_all(b"POST /jobs HTTP/1.1\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 408"), "slow loris: {text}");

    // Stalled body: full headers, a fraction of the promised bytes.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\nten bytes.")
        .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 408"), "stalled body: {text}");

    assert!(metric(daemon.addr, "serve_io_timeouts_total") >= 2.0);
    let (status, _) = request(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "the worker is free again");
}

#[test]
fn a_trickling_client_exhausts_the_total_deadline_not_per_read_timeouts() {
    let _guard = chaos(0, "");
    let daemon = Daemon::start("trickle", |c| c.io_timeout = Duration::from_millis(300));

    // One byte every 40ms: each read makes progress well inside any
    // per-read timeout, so only a *total* deadline can stop it. A
    // second thread drains the response as it arrives — a late trickle
    // write can draw an RST that would discard an unread 408.
    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 1000\r\n\r\n").unwrap();
    let start = std::time::Instant::now();
    let mut reader = stream.try_clone().unwrap();
    let done = Arc::new(AtomicBool::new(false));
    let done_flag = Arc::clone(&done);
    let response = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        let mut bytes = Vec::new();
        loop {
            match reader.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => bytes.extend_from_slice(&buf[..n]),
            }
        }
        done_flag.store(true, SeqCst);
        String::from_utf8_lossy(&bytes).into_owned()
    });
    for _ in 0..50 {
        if done.load(SeqCst) || stream.write_all(b"x").is_err() {
            break; // The server gave up on us; exactly the point.
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let text = response.join().unwrap();
    assert!(text.starts_with("HTTP/1.1 408"), "trickler: {text}");
    assert!(
        start.elapsed() < Duration::from_millis(1500),
        "the 300ms total deadline cut the trickle short, not 50 per-read grants"
    );
}

#[test]
fn a_mid_body_disconnect_is_a_clean_400_not_a_wedged_worker() {
    let _guard = chaos(0, "");
    let daemon = Daemon::start("disconnect", |_| {});

    let mut stream = TcpStream::connect(daemon.addr).unwrap();
    stream
        .write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\nten bytes.")
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("body truncated at 10 of 100 bytes"), "{text}");

    let (status, _) = request(daemon.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
}

#[test]
fn injected_mid_body_disconnects_never_corrupt_the_spool() {
    // Every 3rd body read drops the connection, as if the client died.
    let _guard = chaos(17, "serve.read_body=disconnect@1in3");
    let daemon = Daemon::start("inj_disconnect", |_| {});
    let body = job_body(20, 6, 0);

    let mut accepted = Vec::new();
    for _ in 0..12 {
        let (status, text) = request(daemon.addr, "POST", "/jobs", &body);
        match status {
            201 => accepted.push(json_str(&text, "state").is_some()),
            400 => assert!(text.contains("disconnect"), "{text}"),
            other => panic!("unexpected status {other}: {text}"),
        }
    }
    snnmap_chaos::uninstall();

    // Every acknowledged job is intact on disk and finishes; rejected
    // bodies left nothing behind that a restart could trip over.
    let (_, page) = request(daemon.addr, "GET", "/metrics", "");
    assert!(page.contains("serve_chaos_injected_total"), "{page}");
    for id in 1..=accepted.len() as u64 {
        wait_state(daemon.addr, id, "done");
    }
    assert!(!daemon.spool.join("quarantine").exists(), "no corrupt dirs were created");
}

// ---------------------------------------------------------------------
// Backpressure headers
// ---------------------------------------------------------------------

/// A named pipe nobody reads yet: a worker that opens it for writing
/// blocks until the test releases it.
#[cfg(unix)]
struct HeldPipe(PathBuf);

#[cfg(unix)]
impl HeldPipe {
    fn new(path: PathBuf) -> Self {
        let made = std::process::Command::new("mkfifo").arg(&path).status().expect("mkfifo");
        assert!(made.success(), "mkfifo {path:?}");
        Self(path)
    }
}

#[cfg(unix)]
impl Drop for HeldPipe {
    /// Opens and drains the read end on a helper thread, so the blocked
    /// writer finishes (and a panicking test still tears down). The
    /// thread is not joined: if a failed test never let the worker reach
    /// the pipe, its open would wait forever.
    fn drop(&mut self) {
        let path = self.0.clone();
        std::thread::spawn(move || std::fs::read(path));
    }
}

#[cfg(unix)]
#[test]
fn queue_pressure_gets_429_with_a_retry_after_hint() {
    let _guard = chaos(0, "");
    // Jam the lone worker with a job the test holds. Job 1 is spooled
    // before bind, and after bind its checkpoint temp file becomes a
    // named pipe: the worker's first checkpoint write blocks until the
    // pipe is released, however small the job and however fast FD runs.
    let mut pipe = None;
    let daemon = Daemon::start_bound(
        "backpressure",
        |c| {
            c.workers = 1;
            c.queue_capacity = 1;
            let job = c.spool_dir.join("job-1");
            std::fs::create_dir_all(&job).unwrap();
            std::fs::write(job.join("request.json"), job_body(20, 7, 1)).unwrap();
            std::fs::write(job.join("state"), "queued\n").unwrap();
        },
        |spool| pipe = Some(HeldPipe::new(spool.join("job-1").join("checkpoint.json.tmp"))),
    );
    // Dropped before `daemon`, so the worker is free again before the drain.
    let _held = pipe;
    wait_state(daemon.addr, 1, "running");

    // The queue of one fills; the next submission is turned away.
    let (status, _) = request(daemon.addr, "POST", "/jobs", &job_body(20, 8, 0));
    assert_eq!(status, 201);
    let text = request_raw(daemon.addr, "POST", "/jobs", &job_body(20, 9, 0));
    assert!(text.starts_with("HTTP/1.1 429"), "{text}");
    assert!(
        text.lines().any(|l| l.trim().eq_ignore_ascii_case("retry-after: 1")),
        "429 must carry the Retry-After hint:\n{text}"
    );

    // Cancel the held job; it stops once the pipe is released.
    let (status, _) = request(daemon.addr, "DELETE", "/jobs/1", "");
    assert_eq!(status, 202);
}

// ---------------------------------------------------------------------
// Quarantine at startup
// ---------------------------------------------------------------------

#[test]
fn corrupt_job_dirs_are_quarantined_at_bind_with_reasons() {
    let _guard = chaos(0, "");
    // Not the daemon's default temp path: `Daemon::start` wipes that.
    let spool = std::env::temp_dir().join("snnmap_serve_chaos_prebuilt_spool");
    let _ = std::fs::remove_dir_all(&spool);

    let body = job_body(20, 10, 0);
    let write_job = |id: u64, request: &str, state: &str| {
        let dir = spool.join(format!("job-{id}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("request.json"), request).unwrap();
        std::fs::write(dir.join("state"), format!("{state}\n")).unwrap();
    };
    // job 1: healthy history. jobs 2-5: four distinct corruptions.
    write_job(1, &body, "done");
    std::fs::write(spool.join("job-1").join("placement.json"), "{}").unwrap();
    write_job(2, &body, "zombie");
    write_job(3, "not json at all", "queued");
    write_job(4, &body, "done"); // placement.json missing
    write_job(5, &body, "running");
    std::fs::write(spool.join("job-5").join("checkpoint.json"), "garbage").unwrap();
    // job 9: a bare stub — debris once it is older than the lease TTL.
    std::fs::create_dir_all(spool.join("job-9")).unwrap();
    std::thread::sleep(Duration::from_millis(120));

    let daemon = Daemon::start("quarantine", |c| {
        c.spool_dir = spool.clone();
        c.lease_ttl = Duration::from_millis(50);
    });

    assert_eq!(metric(daemon.addr, "serve_quarantined_jobs_total"), 5.0);
    for (id, reason_part) in [
        (2, "unknown state label"),
        (3, "unparseable spooled request"),
        (4, "placement.json is missing"),
        (5, "corrupt checkpoint"),
        (9, "unreadable"),
    ] {
        let dir = spool.join("quarantine").join(format!("job-{id}"));
        assert!(dir.is_dir(), "job {id} must be quarantined");
        let reason = std::fs::read_to_string(dir.join("REASON")).unwrap();
        assert!(reason.contains(reason_part), "job {id}: {reason}");
    }

    // The healthy job still serves; the corrupt ones are gone from the API.
    let (status, text) = request(daemon.addr, "GET", "/jobs/1", "");
    assert_eq!(status, 200);
    assert_eq!(json_str(&text, "state").as_deref(), Some("done"));
    for id in [2u64, 3, 4, 5, 9] {
        let (status, _) = request(daemon.addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 404, "quarantined job {id} is not queryable");
    }

    // Fresh ids skip past everything in quarantine.
    let (status, text) = request(daemon.addr, "POST", "/jobs", &body);
    assert_eq!(status, 201);
    assert!(text.contains("\"id\":10") || text.contains("\"id\": 10"), "{text}");
}
