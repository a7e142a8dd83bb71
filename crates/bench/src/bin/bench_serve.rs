//! Service-layer load benchmark: N concurrent clients against an
//! in-process `snnmap-serve` daemon, every returned placement asserted
//! **byte-identical** (sha256 over the placement document) to a serial
//! offline [`Mapper::map_budgeted_traced`] run of the same spec — concurrency
//! must buy throughput without touching a single placement byte.
//!
//! ```text
//! cargo run --release -p snnmap-bench --bin bench_serve -- \
//!     --jobs 8 --clusters 4000 --mesh 64x64 --sweeps 200 \
//!     --workers 4 --json results/BENCH_serve.json
//! ```

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use snnmap_bench::table::{write_json, Table};
use snnmap_core::{FdRunOpts, InitialPlacement, Mapper, Potential, RunBudget};
use snnmap_hw::Mesh;
use snnmap_io::{render_pcn, render_placement};
use snnmap_model::generators::random_pcn;
use snnmap_serve::{ServeConfig, Server};
use snnmap_trace::{sha256_hex, NoopSink};

/// One job's round trip through the daemon, checked against its serial
/// offline twin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeJob {
    /// Daemon-assigned job id.
    pub id: u64,
    /// PCN generator seed of this job's workload.
    pub seed: u64,
    /// sha256 of the placement document the daemon served.
    pub served_digest: String,
    /// sha256 of the serial offline run's placement document.
    pub offline_digest: String,
    /// Whether the two documents are byte-identical.
    pub identical: bool,
    /// FD sweeps the daemon reported for the job.
    pub sweeps: u64,
    /// Stop reason the daemon reported.
    pub stop: String,
    /// Wall-clock seconds from POST to final status for this client.
    pub secs: f64,
}

/// The whole benchmark record written to `--json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBench {
    /// Concurrent client count (= job count).
    pub jobs: usize,
    /// Daemon worker-pool size.
    pub workers: usize,
    /// CPUs available to the benchmark process — the pool cannot beat
    /// serial when this is 1, so read `speedup` against it.
    pub cpus: usize,
    /// PCN cluster count per job.
    pub clusters: u32,
    /// PCN average out-degree.
    pub degree: f64,
    /// Mesh as `RxC`.
    pub mesh: String,
    /// Sweep cap per job.
    pub sweep_cap: u64,
    /// Wall-clock seconds for all jobs through the daemon (submit of the
    /// first to completion of the last).
    pub concurrent_secs: f64,
    /// Wall-clock seconds for the same specs run back-to-back offline.
    pub serial_secs: f64,
    /// `serial_secs / concurrent_secs`.
    pub speedup: f64,
    /// Whether every job matched its offline twin.
    pub all_identical: bool,
    /// One entry per job.
    pub runs: Vec<ServeJob>,
}

struct Args {
    jobs: usize,
    workers: usize,
    clusters: u32,
    degree: f64,
    mesh: String,
    sweeps: u64,
    seed0: u64,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut jobs = 8usize;
    let mut workers = 4usize;
    let mut clusters: u32 = 4_000;
    let mut degree = 4.0f64;
    let mut mesh = "64x64".to_string();
    let mut sweeps: u64 = 200;
    let mut seed0: u64 = 100;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err("snnmap-serve concurrent-load benchmark".to_string());
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--jobs" => jobs = value.parse().map_err(|_| format!("bad --jobs `{value}`"))?,
            "--workers" => {
                workers = value.parse().map_err(|_| format!("bad --workers `{value}`"))?
            }
            "--clusters" => {
                clusters = value.parse().map_err(|_| format!("bad --clusters `{value}`"))?
            }
            "--degree" => {
                degree = value.parse().map_err(|_| format!("bad --degree `{value}`"))?
            }
            "--mesh" => mesh = value,
            "--sweeps" => {
                sweeps = value.parse().map_err(|_| format!("bad --sweeps `{value}`"))?
            }
            "--seed" => seed0 = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--json" => json = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if jobs == 0 || sweeps == 0 {
        return Err("--jobs and --sweeps must be positive".into());
    }
    Ok(Args { jobs, workers, clusters, degree, mesh, sweeps, seed0, json })
}

/// One HTTP exchange; returns (status, raw head with headers, body).
fn request_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
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
    let (head, body) = text
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, head, body)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request_full(addr, method, path, body);
    (status, body)
}

/// The `Retry-After` header's value in seconds, if present.
fn retry_after_secs(head: &str) -> Option<u64> {
    head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.trim().eq_ignore_ascii_case("retry-after").then(|| value.trim().parse().ok())?
    })
}

fn json_field(body: &str, key: &str) -> Option<serde_json::Value> {
    let value: serde_json::Value = serde_json::from_str(body).ok()?;
    value.as_object()?.get(key).cloned()
}

fn json_str(body: &str, key: &str) -> Option<String> {
    match json_field(body, key)? {
        serde_json::Value::String(s) => Some(s),
        _ => None,
    }
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    match json_field(body, key)? {
        serde_json::Value::Number(n) => Some(n.as_f64() as u64),
        _ => None,
    }
}

/// One client: POST the job, poll to a terminal state, fetch the
/// placement. Returns (id, digest, sweeps, stop, secs).
fn drive_job(addr: SocketAddr, body: &str) -> (u64, String, u64, String, f64) {
    let t0 = Instant::now();
    // Honor daemon backpressure: a 429 (queue full) or 503 (draining)
    // carries a `Retry-After` hint; wait it out and resubmit instead of
    // hammering or giving up.
    let response = loop {
        let (status, head, response) = request_full(addr, "POST", "/jobs", body);
        match status {
            201 => break response,
            429 | 503 => {
                let wait = retry_after_secs(&head).unwrap_or(1).clamp(1, 30);
                eprintln!("[bench_serve] {status}, retrying in {wait}s: {response}");
                std::thread::sleep(Duration::from_secs(wait));
            }
            other => panic!("POST /jobs -> {other}: {response}"),
        }
    };
    let id = json_u64(&response, "id").expect("id");
    let status_body = loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        match json_str(&body, "state").as_deref() {
            Some("done") => break body,
            Some("failed") | Some("cancelled") => panic!("job {id} ended badly: {body}"),
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    let (code, placement) = request(addr, "GET", &format!("/jobs/{id}/placement"), "");
    assert_eq!(code, 200);
    let digest = sha256_hex(placement.as_bytes());
    assert_eq!(
        json_str(&status_body, "placement_sha256").as_deref(),
        Some(digest.as_str()),
        "daemon-reported digest must match the served bytes"
    );
    let sweeps = json_u64(&status_body, "sweeps").expect("sweeps");
    let stop = json_str(&status_body, "stop").expect("stop");
    (id, digest, sweeps, stop, secs)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!(
                "usage: bench_serve [--jobs N] [--workers N] [--clusters N] [--degree F] \
                 [--mesh RxC] [--sweeps N] [--seed N] [--json PATH]"
            );
            std::process::exit(2);
        }
    };

    let (r, c) = args
        .mesh
        .split_once(['x', 'X'])
        .unwrap_or_else(|| panic!("expected `--mesh RxC`, got `{}`", args.mesh));
    let mesh = Mesh::new(r.parse().expect("mesh rows"), c.parse().expect("mesh cols"))
        .expect("valid mesh");

    eprintln!(
        "[bench_serve] building {} PCNs: {} clusters, degree {}, seeds {}..{}...",
        args.jobs,
        args.clusters,
        args.degree,
        args.seed0,
        args.seed0 + args.jobs as u64 - 1
    );
    let seeds: Vec<u64> = (0..args.jobs as u64).map(|j| args.seed0 + j).collect();
    let bodies: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            let pcn = random_pcn(args.clusters, args.degree, seed).expect("PCN build");
            // threads=1 per job so the worker pool is the only source of
            // parallelism being measured; checkpoint_every=0 keeps spool
            // I/O out of the throughput number.
            serde_json::to_string(&serde_json::json!({
                "format": "snnmap-job-v1",
                "pcn": render_pcn(&pcn),
                "mesh": args.mesh,
                "max_sweeps": args.sweeps,
                "threads": 1,
                "checkpoint_every": 0,
            }))
            .expect("job body")
        })
        .collect();

    // Serial offline twins first: the ground truth digests plus the
    // baseline wall-clock the pool has to beat.
    eprintln!("[bench_serve] serial offline reference runs...");
    let mapper = Mapper::builder()
        .initial_placement(InitialPlacement::Hilbert)
        .potential(Potential::L2Squared)
        .lambda(0.3)
        .threads(1)
        .build();
    let t0 = Instant::now();
    let offline: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            let pcn = random_pcn(args.clusters, args.degree, seed).expect("PCN build");
            let mut opts = FdRunOpts {
                budget: RunBudget { max_sweeps: Some(args.sweeps), ..RunBudget::default() },
                ..FdRunOpts::default()
            };
            let outcome = mapper
                .map_budgeted_traced(&pcn, mesh, &mut opts, &mut NoopSink)
                .expect("offline run");
            sha256_hex(render_placement(&outcome.placement).as_bytes())
        })
        .collect();
    let serial_secs = t0.elapsed().as_secs_f64();

    let spool_dir = std::env::temp_dir().join("snnmap_bench_serve_spool");
    let _ = std::fs::remove_dir_all(&spool_dir);
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: args.workers,
        spool_dir: spool_dir.clone(),
        queue_capacity: args.jobs.max(8),
        ..ServeConfig::default()
    })
    .expect("bind daemon");
    let addr = server.local_addr().expect("local addr");
    let workers = server.workers();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let daemon = std::thread::spawn(move || server.run(&flag));

    eprintln!(
        "[bench_serve] {} concurrent clients against {} worker(s) at {addr}...",
        args.jobs, workers
    );
    let t1 = Instant::now();
    let clients: Vec<_> = bodies
        .iter()
        .cloned()
        .map(|body| std::thread::spawn(move || drive_job(addr, &body)))
        .collect();
    let results: Vec<_> = clients.into_iter().map(|h| h.join().expect("client")).collect();
    let concurrent_secs = t1.elapsed().as_secs_f64();

    shutdown.store(true, SeqCst);
    let report = daemon.join().expect("daemon");
    assert_eq!(report.jobs_total, args.jobs as u64);
    let _ = std::fs::remove_dir_all(&spool_dir);

    let mut runs: Vec<ServeJob> = Vec::new();
    for ((&seed, offline_digest), (id, served_digest, sweeps, stop, secs)) in
        seeds.iter().zip(&offline).zip(results)
    {
        let identical = &served_digest == offline_digest;
        assert!(
            identical,
            "job {id} (seed {seed}) diverged from its serial offline twin"
        );
        runs.push(ServeJob {
            id,
            seed,
            served_digest,
            offline_digest: offline_digest.clone(),
            identical,
            sweeps,
            stop,
            secs,
        });
    }
    runs.sort_by_key(|r| r.id);
    let speedup = serial_secs / concurrent_secs.max(1e-9);

    println!(
        "\nserve load: {} jobs x {} clusters on {} ({} sweeps), {} worker(s)\n",
        args.jobs, args.clusters, args.mesh, args.sweeps, workers
    );
    let mut t = Table::new(&["Job", "Seed", "Sweeps", "Stop", "Identical", "Secs"]);
    for r in &runs {
        t.row(&[
            r.id.to_string(),
            r.seed.to_string(),
            r.sweeps.to_string(),
            r.stop.clone(),
            r.identical.to_string(),
            format!("{:.3}", r.secs),
        ]);
    }
    t.print();
    let cpus = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    println!(
        "\nall {} placements byte-identical to serial offline runs\n\
         concurrent {concurrent_secs:.3}s vs serial {serial_secs:.3}s -> {speedup:.2}x \
         ({cpus} CPU(s) available)",
        runs.len()
    );

    let record = ServeBench {
        jobs: args.jobs,
        workers,
        cpus,
        clusters: args.clusters,
        degree: args.degree,
        mesh: args.mesh.clone(),
        sweep_cap: args.sweeps,
        concurrent_secs,
        serial_secs,
        speedup,
        all_identical: runs.iter().all(|r| r.identical),
        runs,
    };
    if let Some(path) = &args.json {
        write_json(path, &record).expect("write json");
        println!("wrote {}", path.display());
    }
}
