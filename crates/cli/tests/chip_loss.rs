//! A board map around a dead chip: `snnmap map --board … --faults chip:2`
//! writes a placement that `snnmap validate` signs off under the same
//! board and fault spec, so both per-core capacity and chip liveness hold
//! end to end.

#[test]
fn the_validator_signs_off_a_map_around_a_dead_chip() {
    let dir = std::env::temp_dir().join(format!("snnmap_cli_chip_loss_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let run = |args: &[&str]| {
        snnmap_cli::run(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    };
    let (pcn, placement) = (path("board.pcn"), path("fresh.json"));
    run(&["gen", "--random", "3000,4", "--seed", "44", "--out", &pcn]);
    let hardware = ["--board", "2x2/32x32@4096,65536", "--faults", "chip:2"];
    run(&[&["map", &pcn, "--out", &placement][..], &hardware].concat());
    let report = run(&[&["validate", &pcn, &placement][..], &hardware].concat());
    assert!(report.contains("placement valid: 3000 clusters"), "{report}");
    assert!(report.contains("checked against 1024 dead core(s)"), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}
