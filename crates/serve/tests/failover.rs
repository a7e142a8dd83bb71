//! Lease-based multi-daemon failover on a shared spool.
//!
//! The contract under test: N daemons may point at one spool directory.
//! Ids never collide (`create_dir` is the arbiter), a live peer's jobs
//! are left alone (fresh `LEASE` heartbeats), and a daemon that dies
//! mid-job has its work finished by a survivor — **byte-identically**
//! to an uninterrupted run, because the survivor resumes from the same
//! provenance-checked checkpoint.
//!
//! The true `kill -9` two-process version is a test in
//! `crates/cli/tests/resilience.rs`; here the dead peer is reproduced by
//! its exact on-disk remains: a spooled job, a mid-run checkpoint, and a
//! `LEASE` whose heartbeat stopped long ago.
//!
//! Two independent daemons given the same board job and the same
//! whole-chip loss must also repair it to byte-identical placements.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use snnmap_core::{validate_board, FdRunOpts, Mapper, RunBudget};
use snnmap_hw::{Board, FaultMap};
use snnmap_io::{parse_job, parse_placement, render_pcn, render_placement, write_checkpoint};
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

fn json_u64(body: &str, key: &str) -> Option<u64> {
    match json_field(body, key)? {
        serde_json::Value::Number(n) => Some(n.as_f64() as u64),
        _ => None,
    }
}

fn json_field(body: &str, key: &str) -> Option<serde_json::Value> {
    let value: serde_json::Value = serde_json::from_str(body).ok()?;
    value.as_object()?.get(key).cloned()
}

fn wait_done(addr: SocketAddr, id: u64) -> String {
    for _ in 0..1200 {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        if status == 200 {
            match json_str(&body, "state").as_deref() {
                Some("done") => return body,
                Some("failed") | Some("cancelled") => panic!("job {id} ended badly: {body}"),
                _ => {}
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("job {id} never finished");
}

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

struct Daemon {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<snnmap_serve::DrainReport>>,
}

impl Daemon {
    fn start(spool: &Path, daemon_id: &str, lease_ttl: Duration) -> Self {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            spool_dir: spool.to_path_buf(),
            queue_capacity: 16,
            lease_ttl,
            daemon_id: Some(daemon_id.to_string()),
            ..ServeConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::spawn(move || server.run(&flag));
        Self { addr, shutdown, thread: Some(thread) }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown.store(true, SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn temp_spool(tag: &str) -> PathBuf {
    let spool = std::env::temp_dir().join(format!("snnmap_serve_failover_{tag}"));
    let _ = std::fs::remove_dir_all(&spool);
    std::fs::create_dir_all(&spool).unwrap();
    spool
}

fn job_body(clusters: u32, seed: u64) -> String {
    let pcn = random_pcn(clusters, 3.0, seed).unwrap();
    serde_json::to_string(&serde_json::json!({
        "format": "snnmap-job-v1",
        "pcn": render_pcn(&pcn),
        "checkpoint_every": 1,
    }))
    .unwrap()
}

fn spool_job(spool: &Path, id: u64, body: &str, state: &str) {
    let dir = spool.join(format!("job-{id}"));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("request.json"), body).unwrap();
    std::fs::write(dir.join("state"), format!("{state}\n")).unwrap();
}

/// Writes a `LEASE` whose owner stopped heartbeating `age` ago.
fn write_lease(spool: &Path, id: u64, owner: &str, age: Duration) {
    let now_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64;
    let heartbeat = now_ms.saturating_sub(age.as_millis() as u64);
    std::fs::write(
        spool.join(format!("job-{id}")).join("LEASE"),
        format!("snnmap-lease-v1\nowner {owner}\nheartbeat_ms {heartbeat}\n"),
    )
    .unwrap();
}

/// A dead peer's exact remains: spooled job, mid-run checkpoint, stale
/// lease. Returns the uninterrupted-run reference placement.
fn plant_dead_peers_job(spool: &Path, id: u64, body: &str) -> String {
    let spec = parse_job(body).unwrap();
    let mapper = Mapper::builder().build();
    let reference = render_placement(&mapper.map(&spec.pcn, spec.mesh).unwrap().placement);

    spool_job(spool, id, body, "running");
    let meta = spec.provenance();
    let cp_path = spool.join(format!("job-{id}")).join("checkpoint.json");
    let mut writer = |cp: &snnmap_core::FdCheckpoint| -> Result<(), String> {
        write_checkpoint(&cp_path, cp, &meta).map_err(|e| e.to_string())
    };
    let mut opts = FdRunOpts {
        budget: RunBudget { max_sweeps: Some(2), ..RunBudget::default() },
        ..FdRunOpts::default()
    };
    opts.on_checkpoint = Some(&mut writer);
    mapper.map_budgeted_traced(&spec.pcn, spec.mesh, &mut opts, &mut NoopSink).unwrap();
    assert!(cp_path.is_file(), "the budgeted stop must flush a checkpoint");
    write_lease(spool, id, "dead-daemon", Duration::from_secs(10));
    reference
}

#[test]
fn a_survivor_finishes_a_dead_peers_job_byte_identically() {
    let spool = temp_spool("takeover");
    let body = job_body(90, 31);
    let reference = plant_dead_peers_job(&spool, 1, &body);

    let daemon = Daemon::start(&spool, "survivor", Duration::from_millis(300));
    let status_body = wait_done(daemon.addr, 1);

    let (code, placement) = request(daemon.addr, "GET", "/jobs/1/placement", "");
    assert_eq!(code, 200);
    assert_eq!(
        placement, reference,
        "the takeover must resume the checkpoint, byte-identical to no crash"
    );
    assert_eq!(
        json_str(&status_body, "placement_sha256").as_deref(),
        Some(sha256_hex(reference.as_bytes()).as_str())
    );
    assert!(metric(daemon.addr, "serve_lease_takeovers_total") >= 1.0);

    // The survivor's own lease is released once the job is done.
    assert!(!spool.join("job-1").join("LEASE").exists());
}

#[test]
fn a_live_peers_fresh_lease_blocks_takeover_until_it_expires() {
    let spool = temp_spool("respect");
    let body = job_body(40, 32);
    spool_job(&spool, 1, &body, "running");
    write_lease(&spool, 1, "busy-peer", Duration::ZERO);

    // TTL far above the test duration: the fresh lease must hold.
    let daemon = Daemon::start(&spool, "survivor", Duration::from_secs(3600));
    std::thread::sleep(Duration::from_millis(400));
    let (status, text) = request(daemon.addr, "GET", "/jobs/1", "");
    assert_eq!(status, 200);
    assert_eq!(
        json_str(&text, "state").as_deref(),
        Some("queued"),
        "a job under a live peer's lease must wait, not run twice: {text}"
    );
    assert_eq!(metric(daemon.addr, "serve_lease_takeovers_total"), 0.0);
    assert_eq!(
        std::fs::read_to_string(spool.join("job-1").join("LEASE"))
            .unwrap()
            .lines()
            .nth(1),
        Some("owner busy-peer"),
        "the peer's lease is untouched"
    );
}

#[test]
fn the_janitor_adopts_a_crashed_peers_freshly_spooled_job() {
    let spool = temp_spool("adopt");
    let daemon = Daemon::start(&spool, "survivor", Duration::from_millis(300));

    // A peer crashed right after spooling this job — before ever taking
    // its lease. The janitor's scan finds and runs it.
    let body = job_body(40, 33);
    let spec = parse_job(&body).unwrap();
    let mapper = Mapper::builder().build();
    let reference = render_placement(&mapper.map(&spec.pcn, spec.mesh).unwrap().placement);
    spool_job(&spool, 50, &body, "queued");

    let status_body = wait_done(daemon.addr, 50);
    let (code, placement) = request(daemon.addr, "GET", "/jobs/50/placement", "");
    assert_eq!(code, 200);
    assert_eq!(placement, reference);
    assert_eq!(
        json_str(&status_body, "placement_sha256").as_deref(),
        Some(sha256_hex(reference.as_bytes()).as_str())
    );

    // Adopted ids steer future allocations: the next accepted job must
    // not collide with the adopted one.
    let (code, text) = request(daemon.addr, "POST", "/jobs", &body);
    assert_eq!(code, 201, "{text}");
    assert!(json_u64(&text, "id").unwrap() > 50, "{text}");
}

#[test]
fn two_live_daemons_share_one_spool_without_collisions_or_takeovers() {
    let spool = temp_spool("pair");
    let ttl = Duration::from_secs(2);
    let alpha = Daemon::start(&spool, "alpha", ttl);
    let beta = Daemon::start(&spool, "beta", ttl);

    // Interleaved submissions to both daemons: every id unique, every
    // job done, placements identical regardless of which daemon served.
    let mut ids = Vec::new();
    for round in 0..3u64 {
        for (daemon, salt) in [(&alpha, 0u64), (&beta, 100)] {
            let (status, text) =
                request(daemon.addr, "POST", "/jobs", &job_body(30, 34 + round + salt));
            assert_eq!(status, 201, "{text}");
            ids.push(json_u64(&text, "id").expect("id in response"));
        }
    }
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "id collision across daemons: {ids:?}");

    for (k, id) in ids.iter().enumerate() {
        let home = if k % 2 == 0 { &alpha } else { &beta };
        wait_done(home.addr, *id);
    }

    // Both daemons were alive throughout — nobody's lease expired, so
    // nobody "took over" anything.
    assert_eq!(metric(alpha.addr, "serve_lease_takeovers_total"), 0.0);
    assert_eq!(metric(beta.addr, "serve_lease_takeovers_total"), 0.0);

    // Cross-visibility: each daemon's janitor adopts the other's
    // finished jobs as queryable history (give it a couple of passes).
    let first_beta_job = ids[1];
    for attempt in 0..200 {
        let (status, text) = request(alpha.addr, "GET", &format!("/jobs/{first_beta_job}"), "");
        if status == 200 && json_str(&text, "state").as_deref() == Some("done") {
            let (_, from_alpha) =
                request(alpha.addr, "GET", &format!("/jobs/{first_beta_job}/placement"), "");
            let (_, from_beta) =
                request(beta.addr, "GET", &format!("/jobs/{first_beta_job}/placement"), "");
            assert_eq!(from_alpha, from_beta, "one job, one result, both daemons");
            return;
        }
        assert!(attempt < 199, "alpha never adopted beta's finished job {first_beta_job}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn two_daemons_repair_the_same_chip_loss_byte_identically() {
    const BOARD: &str = "2x2/32x32@4096,65536";
    let pcn = random_pcn(3000, 4.0, 44).unwrap();
    let body = serde_json::to_string(&serde_json::json!({
        "format": "snnmap-job-v1",
        "pcn": render_pcn(&pcn),
        "board": BOARD,
        "max_sweeps": 30,
    }))
    .unwrap();
    let ttl = Duration::from_secs(60);
    let alpha = Daemon::start(&temp_spool("chip_alpha"), "alpha", ttl);
    let beta = Daemon::start(&temp_spool("chip_beta"), "beta", ttl);

    let mut placements = Vec::new();
    for daemon in [&alpha, &beta] {
        let (status, text) = request(daemon.addr, "POST", "/jobs", &body);
        assert_eq!(status, 201, "{text}");
        let id = json_u64(&text, "id").expect("id in response");
        wait_done(daemon.addr, id);

        // Kill chip 2 of the finished job: the repair is synchronous.
        let fault = format!("{{\"id\":{id},\"chip\":2}}");
        let (status, repair) = request(daemon.addr, "POST", "/faults/chip", &fault);
        assert_eq!(status, 200, "{repair}");
        assert_eq!(json_field(&repair, "degraded"), Some(serde_json::Value::Null), "{repair}");
        assert!(json_u64(&repair, "moved").unwrap() > 0, "moved nothing: {repair}");

        let (status, job) = request(daemon.addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200);
        let dead_chips = json_field(&job, "dead_chips").expect("dead_chips in status");
        assert_eq!(serde_json::to_string(&dead_chips).unwrap(), "[2]", "{job}");
        assert_eq!(metric(daemon.addr, "serve_chip_faults_total"), 1.0);

        let (status, placement) = request(daemon.addr, "GET", &format!("/jobs/{id}/placement"), "");
        assert_eq!(status, 200);
        placements.push(placement);
    }
    assert!(placements[0] == placements[1], "the two daemons repaired differently");

    // The repaired placement respects capacity and the dead chip.
    let board = Board::parse(BOARD).unwrap();
    let mut faults = FaultMap::new(board.mesh());
    faults.kill_chip(&board, 2).unwrap();
    let placement = parse_placement(&placements[0]).unwrap();
    let report = validate_board(&pcn, &placement, Some(&faults), &board).unwrap();
    assert!(report.is_ok(), "{report}");
}
