//! `--objective energy` is the default objective spelled out: mapping the
//! same PCN with and without the flag must write byte-identical
//! placements, so every digest recorded before the objective subsystem
//! existed stays valid.

#[test]
fn explicit_energy_objective_writes_the_default_placement_bytes() {
    let dir = std::env::temp_dir().join("snnmap_cli_objective_energy");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let run = |args: &[&str]| {
        snnmap_cli::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    };
    let pcn = path("app.pcn");
    run(&["gen", "--random", "4000,4", "--seed", "42", "--out", &pcn]);
    let map = |out: &str, extra: &[&str]| {
        let args = ["map", &pcn, "--out", out, "--mesh", "64x64", "--threads", "2"];
        run(&[&args[..], &["--max-sweeps", "20"], extra].concat());
        std::fs::read(out).unwrap()
    };
    let plain = map(&path("plain.json"), &[]);
    let energy = map(&path("energy.json"), &["--objective", "energy"]);
    assert!(!plain.is_empty());
    assert!(plain == energy, "--objective energy changed the placement bytes");
}
