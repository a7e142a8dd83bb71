//! The Force-Directed placement-refinement algorithm (§4.4, Algorithm 3).

mod engine;
pub(crate) mod potential;

pub use engine::{
    force_directed, CheckpointWriter, FdCheckpoint, FdConfig, FdRunOpts, FdStats,
    RunBudget, StopReason, TensionMode,
};
pub use potential::Potential;
