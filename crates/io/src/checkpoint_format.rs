//! FD checkpoint JSON serialization.
//!
//! A checkpoint captures a Force-Directed run at a sweep boundary
//! ([`FdCheckpoint`]): every cluster's coordinate and the sweep/swap/
//! energy counters. It carries no force table: the engine's forces are
//! exact sums on its weight grid, so a resume rebuilds them from the
//! coordinates bit for bit, and a killed-and-resumed run is still
//! byte-identical to an uninterrupted one.
//!
//! The format is `snnmap-checkpoint-v2`. A `snnmap-checkpoint-v1`
//! document (which carried the force table as `forces_bits`) is refused
//! with [`IoError::UnsupportedVersion`], so a caller can tell an
//! outdated checkpoint from a corrupt one and start the run over.
//!
//! Energies are stored as IEEE-754 bit patterns ([`f64::to_bits`]) so
//! the JSON round trip is exact, and the document carries two
//! caller-supplied digests (run configuration and PCN) so `snnmap
//! resume` can refuse a checkpoint taken under different inputs.
//!
//! The document also carries a required `self_sha256`, a digest of its
//! own canonical rendering (computed with the digest field blanked). The
//! provenance digests only cover the *inputs*; a bit flip inside
//! `coords` can still parse cleanly into a valid-looking checkpoint that
//! resumes to a silently different placement. [`parse_checkpoint`]
//! re-renders what it parsed and compares, so any such flip is rejected
//! with a typed error.

use std::path::Path;

use serde::{Deserialize, Serialize};
use snnmap_core::FdCheckpoint;
use snnmap_hw::Coord;

use crate::limits::checked_mesh;
use crate::IoError;

/// Provenance of a checkpoint: digests of the inputs the run was started
/// with. [`parse_checkpoint`] returns them for the caller to compare
/// against the inputs it is about to resume with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Digest of the run configuration (potential, λ, tension mode, …).
    pub config_digest: String,
    /// Digest of the PCN the run maps.
    pub pcn_digest: String,
}

/// The JSON document shape for a checkpoint.
#[derive(Debug, Serialize, Deserialize)]
struct CheckpointDoc {
    format: String,
    config_digest: String,
    pcn_digest: String,
    rows: u16,
    cols: u16,
    sweeps: u64,
    swaps: u64,
    initial_energy_bits: u64,
    energy_bits: u64,
    /// Element `i` is cluster `i`'s `[x, y]`.
    coords: Vec<(u16, u16)>,
    /// SHA-256 of this document's canonical rendering with this field
    /// set to `""`.
    self_sha256: String,
}

/// The format tag alone, read before the document itself so that a
/// retired version is named even where its fields no longer parse.
#[derive(Deserialize)]
struct FormatTag {
    format: String,
}

const FORMAT: &str = "snnmap-checkpoint-v2";

/// The earlier checkpoint format, which carried the force table; this
/// build recognizes it but no longer reads it.
const RETIRED: &str = "snnmap-checkpoint-v1";

fn render_doc(checkpoint: &FdCheckpoint, meta: &CheckpointMeta, self_sha256: &str) -> String {
    let doc = CheckpointDoc {
        format: FORMAT.to_string(),
        config_digest: meta.config_digest.clone(),
        pcn_digest: meta.pcn_digest.clone(),
        rows: checkpoint.mesh.rows(),
        cols: checkpoint.mesh.cols(),
        sweeps: checkpoint.sweeps,
        swaps: checkpoint.swaps,
        initial_energy_bits: checkpoint.initial_energy.to_bits(),
        energy_bits: checkpoint.energy.to_bits(),
        coords: checkpoint.coords.iter().map(|c| (c.x, c.y)).collect(),
        self_sha256: self_sha256.to_string(),
    };
    serde_json::to_string_pretty(&doc).expect("checkpoint doc always serializes")
}

/// Renders a checkpoint as pretty-printed JSON (deterministic: equal
/// checkpoints render byte-identically), stamped with its own integrity
/// digest.
pub fn render_checkpoint(checkpoint: &FdCheckpoint, meta: &CheckpointMeta) -> String {
    let preimage = render_doc(checkpoint, meta, "");
    render_doc(checkpoint, meta, &snnmap_trace::sha256_hex(preimage.as_bytes()))
}

/// Parses a checkpoint from JSON, validating it as untrusted input.
///
/// # Errors
///
/// [`IoError::Json`] for malformed JSON (including a missing
/// `self_sha256`); [`IoError::UnsupportedVersion`] for a
/// `snnmap-checkpoint-v1` document; [`IoError::Invalid`] for an unknown
/// format tag, a dimension bomb (see [`crate::MAX_MESH_CORES`]), more
/// clusters than cores, out-of-mesh coordinates, two clusters on the
/// same core, or a document whose `self_sha256` does not match its own
/// canonical re-rendering (a flipped bit anywhere in the payload).
pub fn parse_checkpoint(text: &str) -> Result<(FdCheckpoint, CheckpointMeta), IoError> {
    crate::dupkey::reject_duplicate_keys(text)?;
    let FormatTag { format } = serde_json::from_str(text)?;
    if format == RETIRED {
        return Err(IoError::UnsupportedVersion { found: format, supported: FORMAT.to_owned() });
    }
    if format != FORMAT {
        return Err(IoError::Invalid { message: format!("unknown format tag `{format}`") });
    }
    let doc: CheckpointDoc = serde_json::from_str(text)?;
    let mesh = checked_mesh(doc.rows, doc.cols)?;
    if doc.coords.len() > mesh.len() {
        return Err(IoError::Invalid {
            message: format!("{} clusters exceed {} cores", doc.coords.len(), mesh.len()),
        });
    }
    let mut occupied = vec![false; mesh.len()];
    let mut coords = Vec::with_capacity(doc.coords.len());
    for (cluster, &(x, y)) in doc.coords.iter().enumerate() {
        let c = Coord::new(x, y);
        if !mesh.contains(c) {
            return Err(IoError::Invalid {
                message: format!("cluster {cluster} at {c} lies outside the {mesh} mesh"),
            });
        }
        let idx = mesh.index_of(c);
        if occupied[idx] {
            return Err(IoError::Invalid {
                message: format!("two clusters occupy core {c}"),
            });
        }
        occupied[idx] = true;
        coords.push(c);
    }
    let checkpoint = FdCheckpoint {
        mesh,
        coords,
        sweeps: doc.sweeps,
        swaps: doc.swaps,
        initial_energy: f64::from_bits(doc.initial_energy_bits),
        energy: f64::from_bits(doc.energy_bits),
    };
    let meta = CheckpointMeta { config_digest: doc.config_digest, pcn_digest: doc.pcn_digest };
    let preimage = render_doc(&checkpoint, &meta, "");
    let actual = snnmap_trace::sha256_hex(preimage.as_bytes());
    if doc.self_sha256 != actual {
        return Err(IoError::Invalid {
            message: format!(
                "integrity digest mismatch: document claims {}, \
                 canonical re-rendering hashes to {actual}",
                doc.self_sha256
            ),
        });
    }
    Ok((checkpoint, meta))
}

/// Reads a checkpoint from a JSON file.
///
/// The read goes through the `checkpoint.read` failpoint; an injected
/// short read hands [`parse_checkpoint`] a truncated document, which the
/// format's own validation (JSON structure + `self_sha256`) rejects.
///
/// # Errors
///
/// [`IoError::Io`] plus all [`parse_checkpoint`] errors.
pub fn read_checkpoint(path: &Path) -> Result<(FdCheckpoint, CheckpointMeta), IoError> {
    parse_checkpoint(&snnmap_chaos::cfs::read_to_string("checkpoint.read", path)?)
}

/// Writes a checkpoint to a JSON file, atomically: the document lands in
/// a sibling temporary file first and is renamed over `path`, so a
/// process killed mid-write leaves either the previous checkpoint or the
/// new one — never a truncated file.
///
/// Both steps are failpoints (`checkpoint.write`, `checkpoint.rename`).
/// A torn write only ever tears the `.tmp` sibling; `path` itself either
/// keeps its previous content or receives the complete new document via
/// the atomic rename.
///
/// # Errors
///
/// [`IoError::Io`] for filesystem failures (including injected ones).
pub fn write_checkpoint(
    path: &Path,
    checkpoint: &FdCheckpoint,
    meta: &CheckpointMeta,
) -> Result<(), IoError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    snnmap_chaos::cfs::write("checkpoint.write", tmp, render_checkpoint(checkpoint, meta).as_bytes())?;
    Ok(snnmap_chaos::cfs::rename("checkpoint.rename", tmp, path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_hw::Mesh;

    fn sample() -> (FdCheckpoint, CheckpointMeta) {
        let cp = FdCheckpoint {
            mesh: Mesh::new(2, 3).unwrap(),
            coords: vec![Coord::new(0, 0), Coord::new(1, 2), Coord::new(0, 2)],
            sweeps: 17,
            swaps: 112,
            // Deliberately awkward values: results of non-associative
            // sums, which only a bit-pattern encoding keeps exact.
            initial_energy: 1234.5678,
            energy: 0.1 + 0.2 + 0.3,
        };
        let meta = CheckpointMeta {
            config_digest: "cfg-abc".into(),
            pcn_digest: "pcn-def".into(),
        };
        (cp, meta)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let (cp, meta) = sample();
        let text = render_checkpoint(&cp, &meta);
        let (back, back_meta) = parse_checkpoint(&text).unwrap();
        assert_eq!(back_meta, meta);
        assert_eq!(back.mesh, cp.mesh);
        assert_eq!(back.coords, cp.coords);
        assert_eq!(back.sweeps, cp.sweeps);
        assert_eq!(back.swaps, cp.swaps);
        assert_eq!(back.initial_energy.to_bits(), cp.initial_energy.to_bits());
        assert_eq!(back.energy.to_bits(), cp.energy.to_bits());
        // Deterministic rendering.
        assert_eq!(text, render_checkpoint(&back, &back_meta));
    }

    #[test]
    fn rejects_adversarial_documents() {
        let (cp, meta) = sample();
        let good = render_checkpoint(&cp, &meta);
        // Wrong format tag.
        let bad = good.replacen(FORMAT, "snnmap-checkpoint-v999", 1);
        assert!(matches!(parse_checkpoint(&bad), Err(IoError::Invalid { .. })));
        // Dimension bomb: 65535x65535 would allocate gigabytes.
        let bad = good.replacen("\"rows\": 2", "\"rows\": 65535", 1).replacen(
            "\"cols\": 3",
            "\"cols\": 65535",
            1,
        );
        assert!(matches!(parse_checkpoint(&bad), Err(IoError::Invalid { .. })));
        // Out-of-mesh coordinate (render doesn't validate, parse must).
        let (mut cp2, meta2) = sample();
        cp2.coords[1] = Coord::new(9, 9);
        let bad = render_checkpoint(&cp2, &meta2);
        assert!(matches!(parse_checkpoint(&bad), Err(IoError::Invalid { .. })));
        // Colliding coordinates.
        let (mut cp2, meta2) = sample();
        cp2.coords[1] = cp2.coords[0];
        let bad = render_checkpoint(&cp2, &meta2);
        assert!(matches!(parse_checkpoint(&bad), Err(IoError::Invalid { .. })));
        // Not JSON at all.
        assert!(matches!(parse_checkpoint("not json"), Err(IoError::Json(_))));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("snnmap_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cp.json");
        let (cp, meta) = sample();
        write_checkpoint(&path, &cp, &meta).unwrap();
        let (back, back_meta) = read_checkpoint(&path).unwrap();
        assert_eq!(back_meta, meta);
        assert_eq!(back.coords, cp.coords);
    }
}
