//! File formats for SNN-mapping artifacts.
//!
//! Two formats, both human-inspectable and round-trip-safe:
//!
//! * **PCN edge lists** (`.pcn`, [`read_pcn`] / [`write_pcn`]) — a plain
//!   text format describing a Partitioned Cluster Network: cluster
//!   capacities and weighted directed connections. This is the interface
//!   for bringing externally partitioned applications into the mapper
//!   (e.g. from a PyNN/SNNToolBox flow).
//! * **Binary PCN** (`.pcnb`, [`read_pcnb`] / [`write_pcnb`]) — the same
//!   data as a versioned, checksummed little-endian layout with
//!   length-prefixed CSR sections; a streaming buffered reader loads
//!   million-cluster networks without the text parser's per-line cost.
//!   `snnmap convert` translates between the two.
//! * **Placement JSON** ([`read_placement`] / [`write_placement`]) — the
//!   mesh dimensions and each cluster's core coordinates; the artifact a
//!   hardware loader consumes.
//! * **Fault-map JSON** ([`read_faults`] / [`write_faults`]) — dead cores
//!   and faulty mesh links; deterministic rendering makes equal fault
//!   maps byte-identical on disk.
//! * **Board JSON** ([`read_board`] / [`write_board`]) — a multi-chip
//!   board topology: the chip grid, per-chip core block, uniform
//!   per-core capacity and any heterogeneous overrides.
//! * **Degraded-placement JSON** ([`read_degraded`] /
//!   [`write_degraded`]) — the typed capacity-shortfall report a
//!   board-aware repair emits when a placement cannot be completed.
//! * **Checkpoint JSON** ([`read_checkpoint`] / [`write_checkpoint`]) —
//!   a Force-Directed run frozen at a sweep boundary, with `f64` values
//!   stored as bit patterns so kill-and-resume is bit-identical to an
//!   uninterrupted run.
//! * **Job JSON** ([`parse_job`] / [`render_job`]) — a mapping request
//!   (embedded PCN + proposed-method configuration), the body
//!   `snnmap-serve` accepts on `POST /jobs`.
//!
//! [`RunConfig`] is the proposed method's configuration itself — one
//! knob vocabulary, one validator and one checkpoint provenance formula
//! for `snnmap map`, `snnmap resume` and the daemon's jobs.
//!
//! Every parser treats its input as untrusted: declared sizes are capped
//! (see [`MAX_MESH_CORES`] / [`MAX_CLUSTERS`]), duplicate declarations
//! and out-of-range coordinates are typed errors, never panics. JSON
//! parsers additionally reject duplicate object keys
//! ([`IoError::DuplicateKey`]) instead of resolving them
//! last-write-wins — network-facing input must not be able to show one
//! value to a validator and another to a consumer.
//!
//! # PCN format
//!
//! ```text
//! # comments and blank lines are ignored
//! pcn v1
//! clusters 3
//! cluster 0 128 4096      # id, neurons, stored synapses (optional line)
//! edge 0 1 12.5           # from, to, traffic weight
//! edge 1 2 3.0
//! ```
//!
//! Cluster lines are optional: clusters without one default to
//! 1 neuron / 0 synapses. Duplicate edges accumulate, matching
//! [`PcnBuilder`](snnmap_model::PcnBuilder) semantics.
//!
//! # Examples
//!
//! ```
//! use snnmap_io::{parse_pcn, render_pcn};
//!
//! let text = "pcn v1\nclusters 2\nedge 0 1 4.5\n";
//! let pcn = parse_pcn(text)?;
//! assert_eq!(pcn.num_clusters(), 2);
//! assert_eq!(pcn.edge_weight(0, 1), Some(4.5));
//!
//! // Round trip.
//! let again = parse_pcn(&render_pcn(&pcn))?;
//! assert_eq!(again.edge_weight(0, 1), Some(4.5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod board_format;
mod checkpoint_format;
mod degraded_format;
mod dupkey;
mod error;
mod fault_format;
mod job_format;
mod limits;
mod pcn_format;
mod pcnb_format;
mod placement_format;
mod run_config;
mod trace_format;

pub use board_format::{parse_board, read_board, render_board, write_board};
pub use checkpoint_format::{
    parse_checkpoint, read_checkpoint, render_checkpoint, write_checkpoint, CheckpointMeta,
};
pub use degraded_format::{
    parse_degraded, read_degraded, render_degraded, write_degraded,
};
pub use dupkey::reject_duplicate_keys;
pub use error::IoError;
pub use fault_format::{parse_faults, read_faults, render_faults, write_faults};
pub use job_format::{parse_job, render_job, JobSpec};
pub use limits::{MAX_CLUSTERS, MAX_MESH_CORES};
pub use pcn_format::{parse_pcn, read_pcn, render_pcn, write_pcn};
pub use pcnb_format::{
    parse_pcnb, read_pcnb, render_pcnb, write_pcnb, PCNB_MAGIC, PCNB_VERSION,
};
pub use placement_format::{
    parse_placement, read_placement, render_placement, write_placement,
};
pub use run_config::{RunConfig, RunKnobs, Spelling};
pub use trace_format::{validate_trace, TraceSummary};
