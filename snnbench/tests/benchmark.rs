//! Tests of the benchmark's own machinery: self times and ratios on
//! synthetic spans, metric names, and the correctness gate.

use serde_json::Value;
use snnbench::gate::{check_placement, digest, Failure, Gate};
use snnbench::layers::{layer_metrics, stage_table, Extras};
use snnbench::report::{fastest, ratio, result_line, valid_name, Metrics, END_TO_END, PER_LAYER};
use snnbench::span::{self_times, Span, Trace};
use snnbench::workloads::{draw_chips, Workload};
use snnmap_core::par::ParCounters;
use snnmap_hw::{Board, Coord, FaultMap, Placement};
use snnmap_model::PcnBuilder;
use snnmap_trace::{
    FdConfigEvent, FdDoneEvent, FdSweepEvent, ParEvent, PhaseEvent, RepairEvent, TraceEvent,
};

fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_owned(),
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)),  // overlaps a: the union is 10..50
        span("c", 90, 120, Some(0)), // sticks out: only 90..100 counts
        span("a1", 12, 18, Some(1)),
        span("lone", 200, 260, None),
    ];
    assert_eq!(
        self_times(&spans),
        vec![100 - 40 - 10, 20 - 6, 30, 30, 6, 60]
    );
}

#[test]
fn ratios_are_zero_on_a_zero_base_and_fastest_takes_the_minimum() {
    assert_eq!(ratio(3.0, 0.0), 0.0);
    assert_eq!(ratio(3.0, 4.0), 0.75);
    assert_eq!(fastest(&[5.0, 1.0, 3.0]), 1.0);
    assert_eq!(fastest(&[4.0]), 4.0);
    assert!(fastest(&[]).is_nan());
}

fn phase(name: &str, wall_ns: u64) -> TraceEvent {
    TraceEvent::Phase(PhaseEvent {
        name: name.into(),
        wall_ns,
        alloc_bytes: 0,
        allocs: 0,
    })
}

fn fd_config() -> TraceEvent {
    TraceEvent::FdConfig(FdConfigEvent {
        potential: "Uc".into(),
        tension: "Delta".into(),
        objective: "energy".into(),
        lambda: 0.3,
        max_iterations: None,
        time_budget_ms: None,
        threads: 2,
        masked: false,
    })
}

fn sweep(sweep: u64, cutoff: u64, applied: u64, dirty: u64, ns: [u64; 4]) -> TraceEvent {
    TraceEvent::FdSweep(FdSweepEvent {
        sweep,
        queue: 2 * cutoff,
        cutoff,
        applied,
        dirty,
        carried: 0,
        energy: 1.0,
        wall_ns: ns[0],
        select_ns: ns[1],
        swap_ns: ns[2],
        rescore_ns: ns[3],
    })
}

fn done(iterations: u64, swaps: u64) -> TraceEvent {
    TraceEvent::FdDone(FdDoneEvent {
        iterations,
        swaps,
        initial_energy: 2.0,
        final_energy: 1.0,
        converged: true,
        stop: "converged".into(),
    })
}

fn par_event() -> TraceEvent {
    TraceEvent::Par(ParEvent {
        scope: "fd".into(),
        calls: 1,
        items: 1,
        parallel_calls: 0,
        workers_spawned: 0,
        busy_ns: 0,
    })
}

/// A flat map (toposort, HSC, one FD pass of two sweeps, one NoC replay
/// between them), a repair with its own pass, validation and a write,
/// all inside an `op` root; times in ns.
fn synthetic_trace() -> Trace {
    let mut t = Trace::default();
    t.spans.push(span("op", 0, 2_000, None)); // 0
    t.spans.push(span("map", 100, 1_000, Some(0))); // 1
    t.absorb(
        1,
        &[
            (150, phase("toposort", 40)),                  // 110..150
            (300, phase("hsc_init", 150)),                 // 150..300
            (320, fd_config()),                            // pass starts at 300
            (500, sweep(1, 10, 8, 40, [150, 20, 30, 40])), // 350..500
            (800, sweep(2, 10, 2, 10, [200, 10, 20, 30])), // 600..800
            (900, done(2, 10)),
            (910, par_event()),
            (950, phase("fd", 660)), // 290..950 stretches the pass
        ],
        &[(520, 580)],
    );
    t.spans
        .push(span("repair_incremental", 1_000, 1_500, Some(0)));
    let rep = t.spans.len() - 1;
    t.absorb(
        rep,
        &[
            (1_200, fd_config()),
            (1_300, sweep(1, 4, 4, 8, [100, 10, 10, 10])),
            (1_350, done(1, 4)),
            (
                1_400,
                TraceEvent::Repair(RepairEvent {
                    evicted: 5,
                    moved: 15,
                    region_cores: 50,
                    energy_before: 0.0,
                    energy_after: 0.0,
                }),
            ),
        ],
        &[],
    );
    t.spans.push(span("validate", 1_500, 1_600, Some(0)));
    t.spans
        .push(span("render_placement", 1_600, 1_700, Some(0)));
    t.spans.push(span("write_placement", 1_700, 1_750, Some(0)));
    t
}

#[test]
fn events_become_nested_spans_with_explicit_remainders() {
    let t = synthetic_trace();
    let names: Vec<&str> = t.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"fd_repair"), "{names:?}");
    let pass = names.iter().position(|&n| n == "fd").expect("main pass");
    assert_eq!((t.spans[pass].start_ns, t.spans[pass].end_ns), (290, 910));
    let replay = names
        .iter()
        .position(|&n| n == "noc_replay")
        .expect("replay span");
    assert_eq!(t.spans[replay].parent, Some(pass));
    let first = names.iter().position(|&n| n == "fd_sweep").expect("sweep");
    let steps: Vec<(u64, u64)> = t.spans[first + 1..first + 4]
        .iter()
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    assert_eq!(steps, vec![(350, 370), (370, 400), (400, 440)]);
    let selfs = self_times(&t.spans);
    assert_eq!(
        selfs[first],
        150 - 90,
        "select/swap/rescore leave the sweep's other time"
    );
}

#[test]
fn layer_metrics_use_the_documented_bases() {
    let t = synthetic_trace();
    let x = Extras {
        par: ParCounters {
            calls: 8,
            parallel_calls: 2,
            workers_spawned: 2,
            items: 100,
            busy_ns: 500,
        },
        op_wall_s: 2_000e-9,
        threads: 2,
        board: true,
        noc_injected: 40,
        noc_delivered: 30,
        congestion_coverage: 0.5,
        untraced_wall_s: 1_600e-9,
        ..Extras::default()
    };
    let m = layer_metrics(&t, &x);
    assert!(
        m.missing(PER_LAYER).is_empty(),
        "{:?}",
        m.missing(PER_LAYER)
    );
    let near = |name: &str, want: f64| {
        let got = m.get(name).expect("set");
        assert!((got - want).abs() < 1e-12, "{name}: {got} != {want}");
    };
    near("toposort.s", 40e-9);
    near("hsc.s", 150e-9);
    near("fd.s", 620e-9);
    // Pass self time: 620 minus sweeps (150 + 200) minus the replay (60).
    near("fd.init_score_s", 210e-9);
    near("fd.select_s", 30e-9);
    near("fd.swap_s", 50e-9);
    near("fd.rescore_s", 70e-9);
    near("fd.sweep_other_s", (150 - 90 + 200 - 60) as f64 * 1e-9);
    near("fd.sweeps", 2.0);
    near("fd.swaps", 10.0);
    near("fd.applied_ratio", 10.0 / 20.0); // applied / cutoff, main pass only
    near("fd.dirty_per_swap", 50.0 / 10.0); // dirty / applied
    near("noc.replay_s", 60e-9);
    near("board.map_s", 900e-9);
    near("repair.s", 500e-9);
    near("repair.fd_s", 150e-9); // fd_config at 1200 to fd_done at 1350
    near("repair.evicted", 5.0);
    near("repair.moved_per_evicted", 3.0); // moved / evicted
    near("repair.moved_clusters", 15.0);
    near("validate.s", 100e-9);
    near("io.write_s", 150e-9);
    near("par.parallel_ratio", 0.25); // parallel calls / calls
    near("par.utilization", 500.0 / (2_000.0 * 2.0)); // busy / (wall × threads)
    near("noc.delivered_ratio", 0.75); // delivered / injected
    near("trace.overhead_ratio", 2_000.0 / 1_600.0 - 1.0); // traced / untraced − 1

    // The op root's own time: 2000 minus map, repair and the three I/O
    // and validation spans.
    near(
        "trace.unaccounted_s",
        (2_000 - 900 - 500 - 100 - 100 - 50) as f64 * 1e-9,
    );
    let table = stage_table(&t, "op");
    assert!(table.contains("(unaccounted)"), "{table}");
}

#[test]
fn zero_bases_give_zero_ratios() {
    let m = layer_metrics(&Trace::default(), &Extras::default());
    for name in [
        "fd.applied_ratio",
        "fd.dirty_per_swap",
        "par.parallel_ratio",
        "par.utilization",
        "noc.delivered_ratio",
        "repair.moved_per_evicted",
    ] {
        assert_eq!(m.get(name), Some(0.0), "{name}");
    }
}

/// The `name` (and `unit`, when present) of every entry of `list`.
fn names_and_units(list: &Value) -> Vec<(String, Option<String>)> {
    let field = |e: &Value, k: &str| {
        e.as_object()
            .and_then(|o| o.get(k))
            .and_then(Value::as_str)
            .map(str::to_owned)
    };
    list.as_array()
        .expect("a list")
        .iter()
        .map(|e| (field(e, "name").expect("a name"), field(e, "unit")))
        .collect()
}

#[test]
fn every_metric_name_is_well_formed_and_listed_in_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let section =
        |k: &str| names_and_units(json.as_object().and_then(|o| o.get(k)).expect("a section"));
    let listed: Vec<(String, Option<String>)> = section("end_to_end")
        .into_iter()
        .chain(section("per_layer"))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name `{name}`");
        assert!(seen.insert(*name), "duplicate metric `{name}`");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit `{unit}`");
        assert!(
            listed.contains(&((*name).to_owned(), Some((*unit).to_owned()))),
            "`{name}` in `{unit}` missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        listed.len(),
        seen.len(),
        "BENCHMARK.json lists other metrics"
    );
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
    }
    let workloads = section("workloads");
    assert!(workloads.len() >= 2, "{workloads:?}");
    for (name, _) in workloads {
        assert!(
            Workload::parse(&name).is_some(),
            "unknown workload `{name}`"
        );
    }
    assert!(!valid_name("fd select"));
    assert!(!valid_name("_leading"));
    assert!(!valid_name(&"x".repeat(65)));
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let mut m = Metrics::default();
    for (name, _) in END_TO_END {
        m.set(END_TO_END, name, 1.5);
    }
    m.set(END_TO_END, "setup_s", 0.123_456_789_012_345_67);
    let line = result_line(true, 3, 0, &m);
    assert!(
        line.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"#),
        "{line}"
    );
    assert!(
        line.contains(r#""peak_rss_mb":{"value":1.5,"unit":"MiB"}"#),
        "{line}"
    );
    let parsed: Value = serde_json::from_str(&line).expect("the result line is JSON");
    let metrics = parsed
        .as_object()
        .and_then(|o| o.get("metrics"))
        .and_then(Value::as_object)
        .expect("a metrics object");
    assert_eq!(metrics.len(), END_TO_END.len());
    let setup = metrics
        .get("setup_s")
        .and_then(Value::as_object)
        .and_then(|o| o.get("value"));
    assert!(
        matches!(setup, Some(Value::Number(n)) if n.as_f64() == 0.123_456_789_012_345_67),
        "every digit: {line}"
    );
}

#[test]
fn a_non_finite_metric_is_found() {
    let mut m = Metrics::default();
    m.set(END_TO_END, "time_to_placement_s", 1.0);
    m.set(END_TO_END, "energy_per_spike", f64::NAN);
    m.set(END_TO_END, "cpu_s", f64::INFINITY);
    assert_eq!(m.non_finite(), vec!["energy_per_spike", "cpu_s"]);
}

#[test]
fn a_cluster_on_a_dead_chip_is_a_failed_operation() {
    let board = Board::parse("1x2/2x2").expect("two chips of 2x2 cores");
    let mut b = PcnBuilder::new();
    for _ in 0..3 {
        b.add_cluster(1, 1);
    }
    b.add_edge(0, 1, 1.0).expect("edge");
    b.add_edge(1, 2, 1.0).expect("edge");
    let pcn = b.build().expect("pcn");
    let mut faults = FaultMap::new(board.mesh());
    faults.kill_chip(&board, 1).expect("chip 1 exists");
    let dead = board.cores_of(1).expect("chip 1").next().expect("a core");
    let live: Vec<Coord> = board.cores_of(0).expect("chip 0").take(2).collect();
    let placement =
        Placement::from_coords(board.mesh(), &[live[0], live[1], dead]).expect("hand-built");

    let mut gate = Gate::new();
    let outcome = check_placement(&pcn, &placement, Some(&faults), Some(&board));
    assert!(
        matches!(&outcome, Err(Failure::Invalid(m)) if m.contains("OnDeadChip")),
        "{outcome:?}"
    );
    gate.record("repair1", outcome.map(|()| digest(&placement)));
    assert_eq!((gate.attempted(), gate.failed()), (1, 1));
    assert_eq!(gate.failed_ratio(), 1.0);

    // The same placement before the chip died is fine, and a second run
    // with a different placement under the same label is a mismatch.
    gate.record(
        "map",
        check_placement(&pcn, &placement, None, Some(&board)).map(|()| digest(&placement)),
    );
    let moved = Placement::from_coords(board.mesh(), &[live[1], live[0], dead]).expect("swap");
    gate.record("map", Ok(digest(&moved)));
    assert_eq!((gate.attempted(), gate.failed()), (3, 2));
}

#[test]
fn chip_losses_are_distinct_and_fixed_by_the_seed() {
    let full: Vec<u32> = (0..64).filter(|c| c % 9 != 0).collect();
    let a = draw_chips(7, &full, 4);
    assert_eq!(a, draw_chips(7, &full, 4));
    assert_ne!(a, draw_chips(8, &full, 4));
    let mut s = a.clone();
    s.sort_unstable();
    s.dedup();
    assert_eq!(s.len(), 4);
    assert!(a.iter().all(|c| full.contains(c)), "only candidate chips");
    assert_eq!(
        draw_chips(1, &[3, 5], 5).len(),
        2,
        "never more chips than the candidates"
    );
}
