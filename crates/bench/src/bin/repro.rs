//! Regenerates one paper table or figure (or extension experiment) and
//! prints it; `--json PATH` also writes its records. Figures 9–12 come
//! from one sweep, `repro comparison`.
//!
//! ```text
//! cargo run --release -p snnmap-bench --bin repro -- fig8 --budget-secs 60
//! ```
//!
//! Exit codes: 0 ok, 1 `--json` write failure, 2 usage.

use snnmap_bench::args::Options;
use snnmap_bench::table::{write_json, Artifact};
use snnmap_bench::{ablation, comparison, extensions, methods, paper};

const USAGE: &str = "\
usage: repro <artifact> [--scale small|medium|large|full] [--budget-secs N]
             [--seed N] [--json PATH] [--sample N] [--threads N]

artifacts:
  table1            Table 1: platform capacities
  table2            Table 2: target hardware constants
  table3            Table 3: benchmark suite statistics
  fig6              Figure 6: space-filling-curve cost analysis
  fig7              Figure 7: the potential-energy fields
  fig8              Figure 8: methods a)-j) on ResNet
  comparison        Figures 9-12: solve time, energy, latency, congestion
  appendix_a        Appendix A: Hilbert curves on arbitrary rectangles
  ablation          extension: FD design-choice ablations
  noc_validate      extension: analytic metrics vs NoC simulation
  noc_load          extension: simulated latency vs offered load
  partition_refine  extension: partition refinement
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let Some((artifact, flags)) = args.split_first() else { usage_error("missing artifact") };
    let options = Options::parse(flags.iter().cloned()).unwrap_or_else(|msg| usage_error(&msg));
    match artifact.as_str() {
        "table1" => emit(&paper::table1(), &options),
        "table2" => emit(&paper::table2(), &options),
        "table3" => emit(&paper::table3(&options), &options),
        "fig6" => emit(&paper::fig6(&options), &options),
        "fig7" => emit(&paper::fig7(), &options),
        "fig8" => emit(&paper::fig8(&options), &options),
        "comparison" => {
            emit(&comparison::run_comparison(&methods::Method::all(), &options), &options)
        }
        "appendix_a" => emit(&paper::appendix_a(), &options),
        "ablation" => emit(&ablation::ablation(&options), &options),
        "noc_validate" => emit(&extensions::noc_validate(&options), &options),
        "noc_load" => emit(&extensions::noc_load(&options), &options),
        "partition_refine" => emit(&extensions::partition_refine(&options), &options),
        other => usage_error(&format!("unknown artifact `{other}`")),
    }
}

/// Prints the artifact's tables, then writes its records to `--json`.
fn emit(artifact: &impl Artifact, options: &Options) {
    print!("{}", artifact.render(options));
    if let Some(path) = &options.json {
        if let Err(e) = write_json(path, &artifact.json()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("\nwrote {}", path.display());
    }
}

fn usage_error(msg: &str) -> ! {
    eprint!("{msg}\n{USAGE}");
    std::process::exit(2);
}
