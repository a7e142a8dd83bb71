//! Placement-quality metrics for SNN-to-hardware mappings.
//!
//! §3.3 of the paper quantifies a placement `P : V_P → S` with five
//! metrics, all implemented here:
//!
//! * [`energy`] — total interconnect energy `M_ec` (eq. 9),
//! * [`average_latency`] / [`max_latency`] — spike transmission latency
//!   `M_al` (eq. 10) and `M_ml` (eq. 11),
//! * [`congestion_map`] — per-router expected traffic `Con(x, y)`
//!   (eq. 13), built on the `Expe` dynamic program of Algorithm 4
//!   ([`expe`]), from which `M_ac` (eq. 12) and `M_mc` (eq. 14) follow,
//! * [`evaluate`] — all five at once as a [`MetricsReport`].
//!
//! # Examples
//!
//! ```
//! use snnmap_hw::{Coord, CostModel, Mesh, Placement};
//! use snnmap_model::PcnBuilder;
//! use snnmap_metrics::evaluate;
//!
//! let mut b = PcnBuilder::new();
//! b.add_cluster(10, 100);
//! b.add_cluster(10, 100);
//! b.add_edge(0, 1, 2.0)?;
//! let pcn = b.build()?;
//!
//! let mesh = Mesh::new(2, 2)?;
//! let p = Placement::from_coords(mesh, &[Coord::new(0, 0), Coord::new(1, 1)])?;
//! let report = evaluate(&pcn, &p, CostModel::paper_target())?;
//! // Two hops: 3 routers + 2 wires at weight 2.
//! assert_eq!(report.energy, 2.0 * (3.0 + 0.2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod congestion;
mod energy;
mod expe;
mod histogram;
mod latency;
mod prometheus;
mod report;

pub use congestion::{congestion_map, CongestionAccumulator, CongestionStats};
pub use energy::energy;
pub use expe::{expe, expectation_grid, for_each_expe, for_each_route_expe};
pub use histogram::hop_histogram;
pub use latency::{average_latency, max_latency};
pub use prometheus::{PromText, PROM_PREFIX};
pub use report::{evaluate, evaluate_with, EvalOptions, MetricsReport};
