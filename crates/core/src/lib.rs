//! The paper's mapping approach: Hilbert space-filling-curve initial
//! placement plus Force-Directed refinement.
//!
//! §4 of *Mapping Very Large Scale Spiking Neuron Network to Neuromorphic
//! Hardware* (ASPLOS '23) maps a Partitioned Cluster Network onto a
//! 2D-mesh system in two steps, both implemented here:
//!
//! 1. **Initial placement** ([`hsc_placement`]): topologically sort the
//!    PCN (Algorithm 2, non-DAG tolerant — [`toposort`]) and lay the
//!    resulting 1D sequence onto the mesh along a Hilbert space-filling
//!    curve (eq. 17, `P_init = Hilbert ∘ Seq`).
//! 2. **Force-Directed refinement** ([`force_directed`]): treat cluster
//!    connections as tension forces and greedily swap adjacent
//!    positive-tension pairs, highest tension first, a λ-fraction of the
//!    queue per sweep (Algorithm 3). The system's total potential energy
//!    decreases monotonically (eq. 31), which guarantees convergence; with
//!    the energy-model potential (eq. 25) that energy *is* the paper's
//!    `M_ec` metric (eq. 26).
//!
//! The [`Mapper`] type packages both steps behind a builder API.
//!
//! **Hardware-aware mapping**: each phase has one entry point whose
//! hardware arguments are optional. Pass a [`snnmap_hw::FaultMap`] (or
//! configure [`MapperBuilder::fault_map`]) so placement and refinement
//! avoid dead cores, or a [`snnmap_hw::Board`] ([`hsc_placement_board`],
//! [`force_directed`], [`MapperBuilder::board`]) so they respect per-core
//! capacities. [`validate`] and [`repair`] check and patch an existing
//! placement after the hardware degrades.
//!
//! # Examples
//!
//! ```
//! use snnmap_core::{Mapper, Potential};
//! use snnmap_hw::Mesh;
//! use snnmap_model::generators::random_pcn;
//!
//! let pcn = random_pcn(60, 4.0, 1)?;
//! let mesh = Mesh::square_for(60)?; // 8x8
//! let outcome = Mapper::builder().potential(Potential::L2Squared).build().map(&pcn, mesh)?;
//! assert!(outcome.placement.is_complete());
//! let stats = outcome.fd_stats.expect("FD runs by default");
//! assert!(stats.final_energy <= stats.initial_energy);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod coarsen;
mod error;
mod fd;
mod free_cells;
mod hsc;
mod mapper;
mod multilevel;
mod objective;
pub mod par;
mod toposort;
mod validate;

pub use coarsen::{coarsen, CoarseLevel, CoarsenConfig};
pub use error::CoreError;
pub use fd::{
    force_directed, CheckpointWriter, FdCheckpoint, FdConfig, FdRunOpts, FdStats,
    Potential, RunBudget, StopReason, TensionMode,
};
pub use hsc::{hsc_placement, hsc_placement_board, random_placement, sequence_placement};
pub use mapper::{InitialPlacement, MapOutcome, Mapper, MapperBuilder, RepairReport};
pub use multilevel::MultilevelConfig;
pub use objective::{
    IncrementalCongestion, Objective, ReweightOutcome, SweepReweighter, CONGESTION_SCALE,
    INTERCHIP_WEIGHT, REWEIGHT_GAIN,
};
pub use toposort::toposort;
pub use validate::{
    repair, repair_board, validate, validate_board, DegradedPlacement, RepairMove,
    RepairOutcome, ValidationReport, Violation,
};
