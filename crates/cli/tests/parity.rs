//! `snnmap map`, `snnmap resume` and the daemon share one run
//! configuration: the same knobs, spelled as command-line flags or as
//! job JSON keys, resolve to an equal `RunConfig`, digest to the same
//! checkpoint provenance and place byte-identically — and a checkpoint
//! the daemon stamps resumes under `snnmap resume`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use snnmap_core::{FdCheckpoint, FdRunOpts, RunBudget};
use snnmap_io::{parse_job, render_pcn, write_checkpoint, write_pcn};
use snnmap_model::generators::random_pcn;
use snnmap_serve::{ServeConfig, Server};
use snnmap_trace::NoopSink;

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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
    let status = text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// A top-level field of a JSON response.
fn field(body: &str, key: &str) -> serde_json::Value {
    let value: serde_json::Value = serde_json::from_str(body).expect("JSON response");
    value.as_object().and_then(|o| o.get(key)).cloned().unwrap_or(serde_json::Value::Null)
}

/// A job request over `pcn` with extra `, "key": value` pairs.
fn job_body(pcn: &snnmap_model::Pcn, extra: &str) -> String {
    let pcn = serde_json::to_string(&render_pcn(pcn)).unwrap();
    format!("{{\"format\": \"snnmap-job-v1\", \"pcn\": {pcn}{extra}}}")
}

/// Polls a job to `done` and fetches its placement document.
fn served_placement(addr: SocketAddr, id: u64) -> String {
    for _ in 0..2400 {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        match field(&body, "state").as_str() {
            Some("done") => {
                let (status, placement) =
                    request(addr, "GET", &format!("/jobs/{id}/placement"), "");
                assert_eq!(status, 200, "{placement}");
                return placement;
            }
            Some("failed") | Some("cancelled") => panic!("job {id} ended badly: {body}"),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    panic!("job {id} never finished");
}

/// The parity table: `snnmap map` flags and the job JSON keys for the
/// same run.
const CASES: [(&str, &[&str], &str); 8] = [
    ("default", &[], ""),
    ("random init", &["--init", "random", "--seed", "5"], r#", "init": "random", "seed": 5"#),
    ("zigzag init", &["--init", "zigzag"], r#", "init": "zigzag""#),
    ("l1 potential", &["--potential", "l1"], r#", "potential": "l1""#),
    ("energy potential", &["--potential", "energy"], r#", "potential": "energy""#),
    ("lambda 0.5", &["--lambda", "0.5"], r#", "lambda": 0.5"#),
    ("board", &["--board", "2x2/6x6@4096,65536"], r#", "board": "2x2/6x6@4096,65536""#),
    (
        "composite + sim-in-loop",
        &[
            "--objective", "composite", "--lambda-congestion", "2", "--lambda-latency", "0.1",
            "--sim-in-loop", "4",
        ],
        r#", "objective": "composite", "lambda_congestion": 2.0, "lambda_latency": 0.1,
            "sim_in_loop": 4"#,
    ),
];

#[test]
fn map_flags_and_job_json_resolve_digest_and_place_identically() {
    const SWEEPS: u64 = 12;
    let dir = scratch("snnmap_cli_parity");
    let pcn = random_pcn(120, 4.0, 11).unwrap();
    let pcn_path = dir.join("app.pcn");
    write_pcn(&pcn_path, &pcn).unwrap();
    let pcn_s = pcn_path.to_str().unwrap();

    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        spool_dir: dir.join("spool"),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let daemon = std::thread::spawn(move || server.run(&flag));

    let mut submitted = Vec::new();
    for (name, flags, keys) in CASES {
        let sweeps = SWEEPS.to_string();
        let args = [&["map", pcn_s, "--max-sweeps", &sweeps][..], flags].concat();
        let body = job_body(&pcn, &format!(", \"max_sweeps\": {SWEEPS}{keys}"));

        let cli = snnmap_cli::map_config(&sv(&args[1..])).unwrap();
        let spec = parse_job(&body).unwrap();
        assert_eq!(cli, spec.config, "{name}: RunConfig");
        assert_eq!(cli.provenance(&pcn), spec.provenance(), "{name}: provenance");

        let out = dir.join(format!("cli-{}.json", submitted.len()));
        snnmap_cli::run(&sv(&[&args[..], &["--out", out.to_str().unwrap()]].concat())).unwrap();
        let (status, response) = request(addr, "POST", "/jobs", &body);
        assert_eq!(status, 201, "{name}: {response}");
        let id = match field(&response, "id") {
            serde_json::Value::Number(n) => n.as_f64() as u64,
            other => panic!("{name}: no job id in {other:?}"),
        };
        submitted.push((name, out, id));
    }
    for (name, out, id) in submitted {
        assert_eq!(
            served_placement(addr, id),
            std::fs::read_to_string(&out).unwrap(),
            "{name}: the served placement differs from `snnmap map`"
        );
    }
    shutdown.store(true, SeqCst);
    daemon.join().unwrap();
}

#[test]
fn a_spooled_checkpoint_resumes_under_the_cli() {
    let dir = scratch("snnmap_cli_spool_resume");
    let pcn = random_pcn(120, 4.0, 11).unwrap();
    let pcn_path = dir.join("app.pcn");
    write_pcn(&pcn_path, &pcn).unwrap();
    let pcn_s = pcn_path.to_str().unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();

    // What the daemon spools mid-run: a checkpoint after two sweeps,
    // stamped with the job's provenance.
    let spec = parse_job(&job_body(&pcn, "")).unwrap();
    let meta = spec.provenance();
    let cp = Path::new(&path("checkpoint.json")).to_owned();
    let mut writer = |c: &FdCheckpoint| -> Result<(), String> {
        write_checkpoint(&cp, c, &meta).map_err(|e| e.to_string())
    };
    let mut opts = FdRunOpts {
        budget: RunBudget { max_sweeps: Some(2), ..RunBudget::default() },
        ..FdRunOpts::default()
    };
    opts.on_checkpoint = Some(&mut writer);
    spec.config
        .mapper()
        .map_budgeted_traced(&spec.pcn, spec.mesh, &mut opts, &mut NoopSink)
        .unwrap();
    assert!(cp.is_file(), "the budgeted stop must flush a checkpoint");

    let (full, resumed) = (path("full.json"), path("resumed.json"));
    snnmap_cli::run(&sv(&["map", pcn_s, "--out", &full])).unwrap();
    let cp_s = cp.to_str().unwrap();
    let out = snnmap_cli::run(&sv(&["resume", pcn_s, "--checkpoint", cp_s, "--out", &resumed]))
        .unwrap();
    assert!(out.contains("resumed at sweep 2"), "{out}");
    assert_eq!(
        std::fs::read_to_string(&resumed).unwrap(),
        std::fs::read_to_string(&full).unwrap(),
        "the resumed spool checkpoint must land on the uninterrupted placement"
    );
}
