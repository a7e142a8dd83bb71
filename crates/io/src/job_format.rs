//! Mapping-job request JSON — the `POST /jobs` body `snnmap-serve`
//! accepts, and the document a spooled job is recovered from.
//!
//! A job bundles a PCN (embedded as the text format [`crate::parse_pcn`]
//! reads) with the [`RunConfig`] knobs of `snnmap map --method
//! proposed`. Everything but the PCN is optional and defaults to the
//! CLI's defaults, so a minimal request is just
//! `{"format": "snnmap-job-v1", "pcn": "pcn v1\n..."}`.
//!
//! Parsing treats the document as untrusted network input: duplicate
//! JSON keys are rejected ([`IoError::DuplicateKey`]), mesh dimensions
//! go through the [`crate::MAX_MESH_CORES`] cap, the embedded PCN is
//! parsed with the hardened PCN reader, and every knob is validated with
//! a typed error before any mapping work is queued.

use serde::{Deserialize, Serialize};
use snnmap_hw::{Board, Mesh};
use snnmap_model::Pcn;

use crate::limits::checked_mesh;
use crate::pcn_format::{parse_pcn, render_pcn};
use crate::{CheckpointMeta, IoError, RunConfig, RunKnobs, Spelling};

/// The format tag every job document must carry.
const FORMAT: &str = "snnmap-job-v1";

/// A validated mapping job: the PCN to place plus the proposed-method
/// configuration. Produced by [`parse_job`]; field semantics match the
/// same-named `snnmap map` flags.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The cluster network to map.
    pub pcn: Pcn,
    /// Target mesh (defaults to the board's, else the smallest square
    /// that fits).
    pub mesh: Mesh,
    /// The run configuration. A job has no `faults` or `multilevel`
    /// knob; a `board` job becomes a target for `POST /faults/chip`
    /// injection.
    pub config: RunConfig,
    /// Optional sweep budget; the job finishes with the best-so-far
    /// placement when the cap is reached.
    pub max_sweeps: Option<u64>,
    /// Spool-checkpoint cadence in sweeps (0 disables periodic
    /// checkpoints; budgeted stops still flush one). Sim-in-the-loop
    /// jobs are never checkpointed, so this defaults to 0 for them and
    /// an explicit positive cadence is rejected.
    pub checkpoint_every: u64,
}

/// The JSON document shape for a job request.
#[derive(Debug, Serialize, Deserialize)]
struct JobDoc {
    format: String,
    pcn: String,
    mesh: Option<String>,
    init: Option<String>,
    potential: Option<String>,
    lambda: Option<f64>,
    seed: Option<u64>,
    threads: Option<u64>,
    max_sweeps: Option<u64>,
    checkpoint_every: Option<u64>,
    board: Option<String>,
    objective: Option<String>,
    lambda_congestion: Option<f64>,
    lambda_latency: Option<f64>,
    sim_in_loop: Option<u64>,
}

/// The canonical topology-spec string for a board (`GxH/RxC@NPC,SPC` —
/// the `Board::parse` vocabulary). Per-core overrides are not
/// representable in a job document, so only the uniform capacity is
/// rendered; every board [`parse_job`] itself produces round-trips
/// exactly.
fn board_spec(board: &Board) -> String {
    let uniform = board.uniform_constraints();
    format!(
        "{}x{}/{}x{}@{},{}",
        board.grid_rows(),
        board.grid_cols(),
        board.chip_rows(),
        board.chip_cols(),
        uniform.neurons_per_core,
        uniform.synapses_per_core
    )
}

impl JobSpec {
    /// The provenance digests a checkpoint taken for this job carries:
    /// [`RunConfig::provenance`], the formula `snnmap map
    /// --checkpoint-out` stamps, so a spooled checkpoint is cross-checked
    /// on recovery exactly like `snnmap resume` cross-checks a CLI one —
    /// and `snnmap resume` accepts it.
    pub fn provenance(&self) -> CheckpointMeta {
        self.config.provenance(&self.pcn)
    }
}

/// Renders a job spec back to request JSON (deterministic; the PCN is
/// embedded via [`render_pcn`], so `parse_job(render_job(s))` round
/// trips).
pub fn render_job(spec: &JobSpec) -> String {
    let c = &spec.config;
    // λ knobs the objective ignores are omitted rather than rendered,
    // because `parse_job` (like the CLI) rejects them as dead weight.
    let (_, lc, lt) = c.objective.weights();
    let doc = JobDoc {
        format: FORMAT.to_string(),
        pcn: render_pcn(&spec.pcn),
        mesh: Some(format!("{}x{}", spec.mesh.rows(), spec.mesh.cols())),
        init: Some(c.init_name().to_string()),
        potential: Some(c.potential_name().to_string()),
        lambda: Some(c.lambda),
        seed: Some(c.seed),
        threads: Some(c.threads as u64),
        max_sweeps: spec.max_sweeps,
        checkpoint_every: Some(spec.checkpoint_every),
        board: c.board.as_ref().map(board_spec),
        objective: Some(c.objective.label().to_string()),
        lambda_congestion: (!c.objective.is_energy()).then_some(lc),
        lambda_latency: (c.objective.label() == "composite").then_some(lt),
        sim_in_loop: c.sim_in_loop,
    };
    serde_json::to_string_pretty(&doc).expect("job doc always serializes")
}

/// Parses and validates a job request from JSON.
///
/// # Errors
///
/// [`IoError::DuplicateKey`] for repeated JSON keys, [`IoError::Json`]
/// for malformed JSON, [`IoError::Parse`] for a malformed embedded PCN,
/// and [`IoError::Invalid`] for a wrong format tag, a mesh that fails
/// the [`crate::MAX_MESH_CORES`] bound, a mesh too small for the PCN, a
/// malformed `board` topology spec, a `mesh` that disagrees with the
/// board's, a zero `max_sweeps` or `sim_in_loop`, a spool-checkpointed
/// sim-in-the-loop job, and every knob [`RunKnobs::resolve`] rejects.
pub fn parse_job(text: &str) -> Result<JobSpec, IoError> {
    crate::dupkey::reject_duplicate_keys(text)?;
    let doc: JobDoc = serde_json::from_str(text)?;
    let invalid = |message: String| IoError::Invalid { message };
    if doc.format != FORMAT {
        return Err(invalid(format!("unknown format tag `{}`", doc.format)));
    }
    let pcn = parse_pcn(&doc.pcn)?;
    let board = match doc.board.as_deref() {
        Some(spec) => Some(Board::parse(spec).map_err(|e| invalid(e.to_string()))?),
        None => None,
    };
    let mesh = match (doc.mesh.as_deref(), &board) {
        (Some(spec), _) => {
            let (r, c) = spec
                .split_once(['x', 'X'])
                .ok_or_else(|| invalid(format!("mesh must be `<rows>x<cols>`, got `{spec}`")))?;
            let rows: u16 = r.parse().map_err(|_| invalid(format!("bad mesh rows `{r}`")))?;
            let cols: u16 = c.parse().map_err(|_| invalid(format!("bad mesh cols `{c}`")))?;
            let mesh = checked_mesh(rows, cols)?;
            if let Some(board) = &board {
                if mesh != board.mesh() {
                    return Err(invalid(format!(
                        "mesh {mesh} disagrees with the board's {} mesh; \
                         omit `mesh` to derive it from `board`",
                        board.mesh()
                    )));
                }
            }
            mesh
        }
        // Boards go through the same dimension cap as explicit meshes —
        // `Board::parse` bounds each side at u16 but not the product.
        (None, Some(board)) => checked_mesh(board.mesh().rows(), board.mesh().cols())?,
        (None, None) => Mesh::square_for(u64::from(pcn.num_clusters()))
            .map_err(|e| invalid(e.to_string()))?,
    };
    if (mesh.len() as u64) < u64::from(pcn.num_clusters()) {
        return Err(invalid(format!(
            "{} clusters do not fit the {} cores of a {mesh} mesh",
            pcn.num_clusters(),
            mesh.len()
        )));
    }
    let threads = doc.threads.unwrap_or(0);
    let threads = usize::try_from(threads)
        .map_err(|_| invalid(format!("thread count {threads} does not fit this platform")))?;
    if let Some(0) = doc.max_sweeps {
        return Err(invalid("max_sweeps must be positive".into()));
    }
    if let Some(0) = doc.sim_in_loop {
        return Err(invalid("sim_in_loop must be positive".into()));
    }
    let config = RunKnobs {
        init: doc.init.as_deref(),
        potential: doc.potential.as_deref(),
        lambda: doc.lambda,
        seed: doc.seed,
        threads,
        board,
        objective: doc.objective.as_deref(),
        lambda_congestion: doc.lambda_congestion,
        lambda_latency: doc.lambda_latency,
        sim_in_loop: doc.sim_in_loop,
        ..RunKnobs::default()
    }
    .resolve(Spelling::JsonKey)
    .map_err(invalid)?;
    // The heat-derived weight field is not part of a checkpoint, so
    // sim-in-the-loop jobs are never spool-checkpointed.
    let checkpoint_every = match (doc.checkpoint_every, doc.sim_in_loop) {
        (Some(n), Some(_)) if n > 0 => {
            return Err(invalid(
                "sim_in_loop jobs cannot be spool-checkpointed; \
                 omit checkpoint_every or set it to 0"
                    .into(),
            ))
        }
        (Some(n), _) => n,
        (None, Some(_)) => 0,
        (None, None) => 4,
    };
    Ok(JobSpec { pcn, mesh, config, max_sweeps: doc.max_sweeps, checkpoint_every })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_trace::sha256_hex;

    const PCN: &str = "pcn v1\nclusters 3\nedge 0 1 2.0\nedge 1 2 1.0\n";

    fn minimal(extra: &str) -> String {
        format!(
            "{{\"format\": \"snnmap-job-v1\", \"pcn\": \"pcn v1\\nclusters 3\\nedge 0 1 2.0\\nedge 1 2 1.0\\n\"{extra}}}"
        )
    }

    #[test]
    fn minimal_request_gets_cli_defaults() {
        let spec = parse_job(&minimal("")).unwrap();
        assert_eq!(spec.pcn.num_clusters(), 3);
        assert_eq!(spec.mesh, Mesh::square_for(3).unwrap());
        assert_eq!(spec.config.init_name(), "hilbert");
        assert_eq!(spec.config.potential_name(), "l2sq");
        assert_eq!(spec.config.lambda, 0.3);
        assert_eq!(spec.config.seed, 42);
        assert_eq!(spec.config.threads, 0);
        assert_eq!(spec.max_sweeps, None);
        assert_eq!(spec.checkpoint_every, 4);
        assert!(spec.config.objective.is_energy());
        assert_eq!(spec.config.sim_in_loop, None);
    }

    #[test]
    fn roundtrips_through_render() {
        let spec = parse_job(&minimal(
            ", \"mesh\": \"3x4\", \"init\": \"zigzag\", \"potential\": \"l1\", \
             \"lambda\": 0.5, \"seed\": 7, \"threads\": 2, \"max_sweeps\": 9, \
             \"checkpoint_every\": 1",
        ))
        .unwrap();
        let back = parse_job(&render_job(&spec)).unwrap();
        assert_eq!(back.mesh, spec.mesh);
        assert_eq!(back.config, spec.config);
        assert_eq!(back.config.init_name(), "zigzag");
        assert_eq!(back.config.potential_name(), "l1");
        assert_eq!(back.max_sweeps, spec.max_sweeps);
        assert_eq!(back.checkpoint_every, spec.checkpoint_every);
        assert_eq!(back.provenance(), spec.provenance());
        assert_eq!(render_pcn(&back.pcn), render_pcn(&parse_pcn(PCN).unwrap()));
    }

    #[test]
    fn provenance_matches_the_cli_formula() {
        let spec = parse_job(&minimal("")).unwrap();
        let meta = spec.provenance();
        let config = "init=hilbert potential=l2sq lambda=0.3 seed=42 faults=none multilevel=off";
        assert_eq!(meta.config_digest, sha256_hex(config.as_bytes()));
        // The PCN digest covers the *canonical* rendering, exactly like
        // `snnmap map --checkpoint-out` digests its parsed input.
        let canonical = render_pcn(&parse_pcn(PCN).unwrap());
        assert_eq!(meta.pcn_digest, sha256_hex(canonical.as_bytes()));
    }

    #[test]
    fn board_jobs_parse_render_and_digest_the_topology() {
        // The mesh derives from the board when omitted.
        let spec = parse_job(&minimal(", \"board\": \"1x2/2x2@64,1024\"")).unwrap();
        let board = spec.config.board.clone().expect("board parsed");
        assert_eq!(spec.mesh, board.mesh());
        assert_eq!((spec.mesh.rows(), spec.mesh.cols()), (2, 4));
        // Round trip through render_job preserves the board exactly.
        let back = parse_job(&render_job(&spec)).unwrap();
        assert_eq!(back.config.board, spec.config.board);
        assert_eq!(back.provenance(), spec.provenance());
        // An explicit matching mesh is accepted; a disagreeing one is not.
        assert!(parse_job(&minimal(
            ", \"board\": \"1x2/2x2@64,1024\", \"mesh\": \"2x4\""
        ))
        .is_ok());
        let err = parse_job(&minimal(
            ", \"board\": \"1x2/2x2@64,1024\", \"mesh\": \"3x3\""
        ))
        .unwrap_err();
        assert!(matches!(err, IoError::Invalid { .. }), "{err:?}");
        // The board changes the provenance digest; boardless digests keep
        // their historical formula (see `provenance_matches_the_cli_formula`).
        let boardless = parse_job(&minimal("")).unwrap();
        assert_ne!(spec.provenance().config_digest, boardless.provenance().config_digest);
        assert_eq!(spec.provenance().pcn_digest, boardless.provenance().pcn_digest);
        // Named presets work too.
        let preset = parse_job(&minimal(", \"board\": \"dynaps:2x2\"")).unwrap();
        assert!(preset.config.board.is_some());
        // A malformed spec is a typed error.
        let err = parse_job(&minimal(", \"board\": \"bogus/spec\"")).unwrap_err();
        assert!(matches!(err, IoError::Invalid { .. }), "{err:?}");
    }

    #[test]
    fn objective_jobs_roundtrip_and_extend_the_digest_append_only() {
        let spec = parse_job(&minimal(
            ", \"objective\": \"composite\", \"lambda_congestion\": 2.0, \
             \"lambda_latency\": 0.5, \"sim_in_loop\": 4",
        ))
        .unwrap();
        assert_eq!(spec.config.objective.label(), "composite");
        assert_eq!(spec.config.objective.weights(), (1.0, 2.0, 0.5));
        assert_eq!(spec.config.sim_in_loop, Some(4));
        // sim_in_loop jobs default to no spool checkpoints.
        assert_eq!(spec.checkpoint_every, 0);
        let back = parse_job(&render_job(&spec)).unwrap();
        assert_eq!(back.config.objective, spec.config.objective);
        assert_eq!(back.config.sim_in_loop, spec.config.sim_in_loop);
        assert_eq!(back.provenance(), spec.provenance());
        // The digest extends the boardless formula append-only, exactly
        // like the CLI's `--objective` family.
        let config = "init=hilbert potential=l2sq lambda=0.3 seed=42 faults=none \
                      multilevel=off objective=composite lc=2 lt=0.5 reweight=4";
        assert_eq!(spec.provenance().config_digest, sha256_hex(config.as_bytes()));
        // A pure-congestion job digests without the reweight suffix.
        let cong = parse_job(&minimal(", \"objective\": \"congestion\"")).unwrap();
        assert_eq!(cong.config.objective.label(), "congestion");
        let config = "init=hilbert potential=l2sq lambda=0.3 seed=42 faults=none \
                      multilevel=off objective=congestion lc=1 lt=0";
        assert_eq!(cong.provenance().config_digest, sha256_hex(config.as_bytes()));
        // ...and still spool-checkpoints on the default cadence.
        assert_eq!(cong.checkpoint_every, 4);
    }

    #[test]
    fn rejects_inconsistent_objective_requests() {
        // λ knobs the objective ignores are dead weight, not silence.
        assert!(parse_job(&minimal(", \"lambda_congestion\": 1.0")).is_err());
        assert!(parse_job(&minimal(", \"lambda_latency\": 1.0")).is_err());
        assert!(parse_job(&minimal(
            ", \"objective\": \"congestion\", \"lambda_latency\": 1.0"
        ))
        .is_err());
        // Unknown labels and out-of-range weights.
        assert!(parse_job(&minimal(", \"objective\": \"bandwidth\"")).is_err());
        assert!(parse_job(&minimal(
            ", \"objective\": \"composite\", \"lambda_congestion\": -1.0"
        ))
        .is_err());
        // Reweighting needs a congestion-aware objective and a positive
        // cadence, and cannot coexist with spool checkpoints.
        assert!(parse_job(&minimal(", \"sim_in_loop\": 4")).is_err());
        assert!(parse_job(&minimal(
            ", \"objective\": \"congestion\", \"sim_in_loop\": 0"
        ))
        .is_err());
        assert!(parse_job(&minimal(
            ", \"objective\": \"congestion\", \"sim_in_loop\": 4, \"checkpoint_every\": 2"
        ))
        .is_err());
        // An explicit 0 cadence is the documented escape hatch.
        let spec = parse_job(&minimal(
            ", \"objective\": \"congestion\", \"sim_in_loop\": 4, \"checkpoint_every\": 0"
        ))
        .unwrap();
        assert_eq!(spec.checkpoint_every, 0);
    }

    #[test]
    fn rejects_adversarial_requests() {
        // Duplicate key smuggling.
        let err = parse_job(&minimal(", \"seed\": 1, \"seed\": 2")).unwrap_err();
        assert!(matches!(err, IoError::DuplicateKey { .. }), "{err:?}");
        // Wrong format tag.
        let bad = minimal("").replacen("snnmap-job-v1", "snnmap-job-v9", 1);
        assert!(matches!(parse_job(&bad), Err(IoError::Invalid { .. })));
        // Dimension bomb.
        let err = parse_job(&minimal(", \"mesh\": \"65535x65535\"")).unwrap_err();
        assert!(matches!(err, IoError::Invalid { .. }), "{err:?}");
        // Mesh too small for the PCN.
        assert!(parse_job(&minimal(", \"mesh\": \"1x2\"")).is_err());
        // Unknown knob values and a bad λ.
        assert!(parse_job(&minimal(", \"init\": \"spiral\"")).is_err());
        assert!(parse_job(&minimal(", \"potential\": \"l3\"")).is_err());
        assert!(parse_job(&minimal(", \"lambda\": 0.0")).is_err());
        assert!(parse_job(&minimal(", \"max_sweeps\": 0")).is_err());
        // Malformed embedded PCN.
        let err =
            parse_job("{\"format\": \"snnmap-job-v1\", \"pcn\": \"garbage\"}").unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }), "{err:?}");
        // Not JSON at all.
        assert!(matches!(parse_job("nope"), Err(IoError::Json(_))));
    }
}
