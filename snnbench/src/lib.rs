//! The snnmap benchmark: three long-run workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path snnbench/Cargo.toml -- \
//!     --workload multilevel_512 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `snnbench/README.md` for the workloads and every metric.

#![warn(missing_docs)]

pub mod gate;
pub mod layers;
pub mod report;
pub mod span;
pub mod sys;
pub mod workloads;
