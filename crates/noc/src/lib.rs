//! A cycle-driven 2D-mesh network-on-chip simulator.
//!
//! The paper evaluates placements with *analytic* metrics (§3.3): hop
//! counts for energy/latency and the Algorithm 4 expectation for
//! congestion. This crate provides the corresponding *executable* model —
//! a mesh of routers with bounded input queues, round-robin arbitration
//! and per-hop backpressure — so those analytic numbers can be
//! cross-validated against simulated spike traffic (the `noc_validate`
//! experiment binary).
//!
//! * [`NocSim`] — the simulator: inject spike packets, step cycles,
//!   collect delivery/latency/traversal statistics,
//! * [`Routing`] — deterministic XY or the random minimal staircase that
//!   matches the paper's `Expe` congestion model,
//! * [`NocSim::with_faults`] — fault-aware operation: dead cores refuse
//!   traffic and packets detour around faulty links/cores on shortest
//!   healthy paths, the extra hops surfacing in
//!   [`NocStats::detour_hops`],
//! * [`NocSim::with_board`] — multi-chip awareness: routing treats
//!   inter-chip links as the expensive resource (crossings minimized
//!   before hops) and counts boundary crossings in
//!   [`NocStats::interchip_traversals`],
//! * [`PcnTraffic`] — Bernoulli per-flow injection derived from a PCN's
//!   connection weights and a placement, at the [`noc_scale`] injection
//!   scale over [`REPLAY_CYCLES`] cycles for the seeded replays the CLI
//!   and the daemon run,
//! * [`NocReweighter`] — sim-in-the-loop hook feeding simulated router
//!   heat back into `snnmap-core`'s composite FD objective,
//! * [`NocStats`] — delivered counts, latency distribution, per-router
//!   traversal map,
//! * [`NocError`] — typed injection/configuration failures.
//!
//! # Examples
//!
//! ```
//! use snnmap_hw::{Coord, FaultMap, Mesh};
//! use snnmap_noc::{NocConfig, NocSim};
//!
//! let mesh = Mesh::new(4, 4)?;
//! let mut sim = NocSim::new(mesh, NocConfig::default());
//! sim.inject(Coord::new(0, 0), Coord::new(3, 3))?;
//! let delivered = sim.drain(100);
//! assert!(delivered);
//! assert_eq!(sim.stats().delivered, 1);
//! // 6 hops: 7 router traversals of 1 cycle each.
//! assert_eq!(sim.stats().max_latency, 7);
//!
//! // The same spike on degraded hardware detours around a faulty link.
//! let mut faults = FaultMap::new(mesh);
//! faults.fail_link(Coord::new(0, 0), Coord::new(0, 1))?;
//! let mut sim = NocSim::with_faults(mesh, NocConfig::default(), &faults)?;
//! sim.inject(Coord::new(0, 0), Coord::new(0, 3))?;
//! assert!(sim.drain(100));
//! assert_eq!(sim.stats().detour_hops, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod error;
mod reweight;
mod sim;
mod stats;
mod traffic;

pub use error::NocError;
pub use reweight::NocReweighter;
pub use sim::{NocConfig, NocSim, Routing};
pub use stats::NocStats;
pub use traffic::{noc_scale, PcnTraffic, REPLAY_CYCLES};
