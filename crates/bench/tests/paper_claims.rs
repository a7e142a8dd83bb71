//! The paper's claims that EXPERIMENTS.md quotes, checked on the same
//! records `repro` prints, at the default (medium) scale:
//!
//! ```text
//! cargo test --release -p snnmap-bench --test paper_claims -- --ignored
//! ```
//!
//! No wall-clock claim is asserted: timings on a shared host are noise.
//! One test runs the checks in order, cheapest first. The ablation caps
//! every FD run it makes, so a broken tension rule fails there before
//! the unbudgeted Figures 9–12 sweep could cycle.

use snnmap_bench::ablation::{ablation, SWEEP_CAP};
use snnmap_bench::args::Options;
use snnmap_bench::comparison::{run_comparison, RunRecord};
use snnmap_bench::methods::Method;
use snnmap_bench::paper::{fig6, fig8, Fig8};

#[test]
#[ignore = "release-mode paper claims, about a minute on 2 vCPUs"]
fn paper_claims_hold() {
    let options = Options::default();
    fig6_hilbert_beats_zigzag_beats_circle(&options);
    ablation_exact_tension_converges_and_naive_cycles(&options);
    fig8_claims(&fig8(&options));
    figures_10_to_12_claims(&run_comparison(&Method::all(), &options));
}

fn fig6_hilbert_beats_zigzag_beats_circle(options: &Options) {
    let cloud = fig6(options).cloud;
    let cost = |curve: &str| cloud.iter().find(|c| c.0 == curve).expect(curve).2;
    let (hilbert, zigzag, circle) = (cost("Hilbert"), cost("ZigZag"), cost("Circle"));
    assert!(hilbert < zigzag && zigzag < circle, "Figure 6.e: {cloud:?}");
}

fn ablation_exact_tension_converges_and_naive_cycles(options: &Options) {
    let tension = ablation(options).tension;
    let (exact, naive) = (&tension[0], &tension[1]);
    assert!(exact.setting.contains("exact") && naive.setting.contains("naive"));
    assert!(exact.iterations < SWEEP_CAP, "exact tension hit the cap: {exact:?}");
    assert_eq!(naive.iterations, SWEEP_CAP, "naive tension converged: {naive:?}");
}

fn fig8_claims(fig: &Fig8) {
    let energy = |label: &str| {
        fig.methods.iter().find(|m| m.method.starts_with(label)).expect(label).absolute.energy
    };
    let hsc = energy("b)");
    assert!(hsc < energy("c)") && hsc < energy("d)"), "HSC must beat ZigZag and Circle");
    assert!(energy("j)") <= hsc, "HSC+FD(u_c) must not lose to HSC");
    for (random_init, hsc_init) in [("e)", "f)"), ("g)", "h)"), ("i)", "j)")] {
        assert!(
            energy(random_init) > energy(hsc_init),
            "FD from random ({random_init}) must lose to its HSC twin ({hsc_init})"
        );
    }
    let fhj = [energy("f)"), energy("h)"), energy("j)")];
    let lo = fhj.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = fhj.iter().copied().fold(0.0, f64::max);
    assert!(hi <= lo * 1.01, "f/h/j energies spread more than 1%: {fhj:?}");
}

fn figures_10_to_12_claims(records: &[RunRecord]) {
    let mut benchmarks: Vec<&str> = records.iter().map(|r| r.benchmark.as_str()).collect();
    benchmarks.dedup();
    for bench in benchmarks {
        let runs: Vec<&RunRecord> = records.iter().filter(|r| r.benchmark == bench).collect();
        let energy = |method: &str| {
            runs.iter().find(|r| r.method == method).expect(method).metrics.energy
        };
        let clusters = runs[0].clusters;
        if clusters >= 1_000 && bench != "CNN_16M" {
            let proposed = energy("Proposed");
            for r in &runs {
                assert!(
                    proposed <= r.metrics.energy,
                    "{bench}: Proposed {proposed} loses to {} {}",
                    r.method,
                    r.metrics.energy
                );
            }
        }
        if clusters >= 4_096 {
            let ratio = energy("PSO") / energy("Random");
            assert!(ratio >= 0.95, "{bench}: PSO reaches {ratio:.3} of random");
        }
    }
}
