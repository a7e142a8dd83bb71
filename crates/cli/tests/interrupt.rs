//! The SIGINT/SIGTERM contract of `snnmap map` and `resume`: a raised
//! terminate flag stops the run at the next sweep boundary, persists the
//! best-so-far placement plus a resumable checkpoint, and exits 130 —
//! and the checkpoint resumes to the byte-identical converged placement.
//! A checkpoint in the retired v1 format fails `resume` with the exit
//! code of any other invalid checkpoint.
//!
//! Lives in its own integration binary because the terminate flag is
//! process-global: raising it here must not leak into the unit tests.
//! The flag is set directly (what the signal handler does) rather than
//! via `raise(2)`, keeping the test deterministic on every platform;
//! handler installation itself is covered in `snnmap_serve::signal`.

use std::sync::atomic::Ordering;

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

#[test]
fn interrupted_map_checkpoints_and_resume_completes_it() {
    let dir = std::env::temp_dir().join("snnmap_cli_interrupt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let pcn = dir.join("app.pcn");
    let pcn_s = pcn.to_str().unwrap();
    snnmap_cli::run(&sv(&["gen", "--random", "120,4", "--seed", "11", "--out", pcn_s]))
        .unwrap();

    // Uninterrupted reference.
    let full = dir.join("full.json");
    snnmap_cli::run(&sv(&[
        "map", pcn_s, "--out", full.to_str().unwrap(), "--mesh", "11x11",
    ]))
    .unwrap();

    // Interrupt before the run starts: the engine sees the raised flag
    // at the first sweep boundary — exactly what a Ctrl-C mid-run does,
    // minus the timing nondeterminism.
    let partial = dir.join("partial.json");
    let cp = dir.join("cp.json");
    let cp_s = cp.to_str().unwrap();
    let flag = snnmap_serve::signal::install();
    flag.store(true, Ordering::SeqCst);
    let err = snnmap_cli::run(&sv(&[
        "map", pcn_s, "--out", partial.to_str().unwrap(), "--mesh", "11x11",
        "--checkpoint-out", cp_s,
    ]))
    .unwrap_err();
    snnmap_serve::signal::reset();

    assert_eq!(err.exit_code(), 130, "{err}");
    let message = err.to_string();
    assert!(message.contains("interrupted"), "{message}");
    assert!(message.contains("checkpoint ->"), "{message}");
    assert!(partial.exists(), "best-so-far placement must be written");
    assert!(cp.exists(), "the budgeted stop must flush a checkpoint");

    // The flushed checkpoint resumes to the byte-identical converged
    // placement — an interrupt loses no work.
    let resumed = dir.join("resumed.json");
    snnmap_cli::run(&sv(&[
        "resume", pcn_s, "--checkpoint", cp_s, "--out", resumed.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(
        std::fs::read_to_string(&resumed).unwrap(),
        std::fs::read_to_string(&full).unwrap(),
        "interrupt + resume must match the uninterrupted run byte-for-byte"
    );

    // A v1 checkpoint (which carried the force table) is refused with
    // the exit code of a corrupt one, and the message names the version.
    let text = std::fs::read_to_string(&cp).unwrap();
    let v1 = dir.join("cp_v1.json");
    std::fs::write(
        &v1,
        text.replacen("snnmap-checkpoint-v2", "snnmap-checkpoint-v1", 1)
            .replacen("\"coords\"", "\"forces_bits\": [],\n  \"coords\"", 1),
    )
    .unwrap();
    let corrupt = dir.join("cp_corrupt.json");
    std::fs::write(&corrupt, text.replacen("\"sweeps\": ", "\"sweeps\": 1", 1)).unwrap();
    let resume_err = |checkpoint: &std::path::Path| {
        snnmap_cli::run(&sv(&[
            "resume", pcn_s, "--checkpoint", checkpoint.to_str().unwrap(),
            "--out", resumed.to_str().unwrap(),
        ]))
        .unwrap_err()
    };
    let (v1_err, corrupt_err) = (resume_err(&v1), resume_err(&corrupt));
    assert!(v1_err.to_string().contains("snnmap-checkpoint-v1"), "{v1_err}");
    assert!(corrupt_err.to_string().contains("integrity digest"), "{corrupt_err}");
    assert_eq!(v1_err.exit_code(), corrupt_err.exit_code());
    assert_eq!(v1_err.exit_code(), 1);

    // With the flag clear, the same command completes normally.
    snnmap_cli::run(&sv(&[
        "map", pcn_s, "--out", partial.to_str().unwrap(), "--mesh", "11x11",
    ]))
    .unwrap();
    assert_eq!(
        std::fs::read_to_string(&partial).unwrap(),
        std::fs::read_to_string(&full).unwrap(),
    );
}
