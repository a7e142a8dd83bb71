//! Extension experiment X4: simulated latency vs offered load.
//!
//! The paper optimizes *expected* congestion analytically; this
//! experiment shows what that buys in executable terms by sweeping the
//! injection rate on the cycle-level NoC simulator. Rows where a
//! placement refuses more than a small share of its injections are
//! marked saturated, and the placements are compared only on the rows
//! where neither is.

use snnmap_bench::args::Options;
use snnmap_bench::methods::Method;
use snnmap_bench::table::Table;
use snnmap_hw::Mesh;
use snnmap_model::generators::table3_suite;
use snnmap_noc::{NocConfig, NocSim, PcnTraffic, Routing};

fn main() {
    let options = Options::from_env();
    // A mid-size benchmark with real structure: LeNet-ImageNet.
    let bench = table3_suite().into_iter().find(|b| b.row.name == "LeNet-ImageNet").unwrap();
    let pcn = bench.pcn(options.seed).expect("builds");
    let mesh = Mesh::square_for(pcn.num_clusters() as u64).expect("fits");
    println!(
        "\nSimulated latency vs offered load on {} ({} clusters, {mesh})",
        bench.row.name,
        pcn.num_clusters()
    );
    println!("cycle-level simulation, random minimal routing, 2000 injection cycles\n");

    let loads = [0.005, 0.01, 0.02, 0.05, 0.1, 0.2];
    let mut t = Table::new(&[
        "Offered load (pkts/router/cycle)",
        "Random: avg lat",
        "Random: rejected",
        "Proposed: avg lat",
        "Proposed: rejected",
    ]);
    let placements: Vec<_> = [Method::Random, Method::Proposed]
        .iter()
        .map(|m| m.run(&pcn, mesh, None, options.seed).expect("fits").placement)
        .collect();
    // `(load, random latency, proposed latency)` of the rows where
    // neither placement is saturated.
    let mut unsaturated = Vec::new();
    for &load in &loads {
        let mut cells = vec![format!("{load}")];
        let mut latency = Vec::new();
        for placement in &placements {
            let scale = load * mesh.len() as f64 / pcn.total_traffic();
            let mut sim = NocSim::new(
                mesh,
                NocConfig {
                    routing: Routing::RandomMinimal,
                    seed: options.seed,
                    queue_capacity: 8,
                },
            );
            let mut traffic = PcnTraffic::new(&pcn, placement, scale, options.seed);
            traffic.run(&mut sim, 2_000);
            let s = sim.stats();
            let reject_pct = if s.injected + s.rejected > 0 {
                100.0 * s.rejected as f64 / (s.injected + s.rejected) as f64
            } else {
                0.0
            };
            let saturated = reject_pct > SATURATED_REJECT_PCT;
            cells.push(format!(
                "{:.2}{}",
                s.average_latency(),
                if saturated { " (saturated)" } else { "" }
            ));
            cells.push(format!("{reject_pct:.1}%"));
            latency.push((!saturated).then(|| s.average_latency()));
        }
        if let [Some(random), Some(proposed)] = latency[..] {
            unsaturated.push((load, random, proposed));
        }
        t.row(&cells);
    }
    t.print();
    println!(
        "\nA placement is saturated at a load where more than {SATURATED_REJECT_PCT}% of its injections are\n\
         refused at full local ports: its delivered packets are then a biased sample, and their\n\
         latency measures the refusals as much as the placement. Only unsaturated rows are compared."
    );
    let ratios = unsaturated.iter().map(|&(_, random, proposed)| random / proposed);
    let lo = ratios.clone().fold(f64::INFINITY, f64::min);
    let hi = ratios.fold(0.0, f64::max);
    match unsaturated.last() {
        Some(&(top, ..)) => println!(
            "In the {} unsaturated rows (offered load up to {top}) the proposed placement's\n\
             delivered latency is {lo:.2}x to {hi:.2}x lower than the random placement's.\n\
             Queueing is still rare there, so the gap is the proposed placement's shorter routes.",
            unsaturated.len()
        ),
        None => println!("No row is unsaturated for both placements, so none is compared."),
    }
}

/// Rejected share of injections (percent) above which a placement's row
/// counts as saturated.
const SATURATED_REJECT_PCT: f64 = 1.0;
