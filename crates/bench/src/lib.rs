//! Experiment harness for the ASPLOS '23 reproduction.
//!
//! Every paper artifact is a library function that returns its records;
//! the `repro <artifact>` binary prints them as text tables (and dumps
//! them with `--json`), and the release-mode `paper_claims` test checks
//! the paper's claims on the same records.
//!
//! | `repro` artifact | Function | Paper artifact |
//! |---|---|---|
//! | `table1` | [`paper::table1`] | Table 1 — platform capacities |
//! | `table2` | [`paper::table2`] | Table 2 — target hardware constants |
//! | `table3` | [`paper::table3`] | Table 3 — benchmark suite statistics |
//! | `fig6` | [`paper::fig6`] | Figure 6 — space-filling-curve cost analysis |
//! | `fig7` | [`paper::fig7`] | Figure 7 — the potential-energy fields |
//! | `fig8` | [`paper::fig8`] | Figure 8 — methods a)–j) on ResNet |
//! | `comparison` | [`comparison::run_comparison`] | Figures 9–12 — solve time, energy, latency, congestion |
//! | `appendix_a` | [`paper::appendix_a`] | Appendix A — Hilbert curves on arbitrary rectangles |
//! | `ablation` | [`ablation::ablation`] | extension — FD design-choice ablations |
//! | `noc_validate` | [`extensions::noc_validate`] | extension — analytic metrics vs NoC simulation |
//! | `noc_load` | [`extensions::noc_load`] | extension — simulated latency vs offered load |
//! | `partition_refine` | [`extensions::partition_refine`] | extension — partition refinement |
//!
//! The shared machinery: [`methods`] puts the five §5.1.3 approaches
//! behind one interface, [`table`] renders text tables and JSON dumps,
//! and [`args`] parses the options every artifact takes.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod ablation;
pub mod args;
pub mod comparison;
pub mod extensions;
pub mod methods;
pub mod paper;
pub mod table;
