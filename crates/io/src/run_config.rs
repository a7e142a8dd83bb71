//! The run configuration of the proposed method — the knobs that shape a
//! Force-Directed run, shared by `snnmap map`, `snnmap resume` and the
//! mapping daemon.
//!
//! Each front end reads its own syntax (command-line flags, job JSON
//! keys) into [`RunKnobs`] and calls [`RunKnobs::resolve`]. Everything
//! after that lives here once: the name tables, the defaults, the
//! validation rules, the [`Mapper`] the configuration describes, and the
//! provenance digest a checkpoint of the run carries.

use std::mem::discriminant;

use snnmap_core::{
    InitialPlacement, Mapper, MapperBuilder, MultilevelConfig, Objective, Potential,
};
use snnmap_hw::{Board, CostModel, FaultMap};
use snnmap_model::Pcn;
use snnmap_trace::sha256_hex;

use crate::{render_board, render_faults, render_pcn, CheckpointMeta};

/// An initial placement for a run seed.
type SeededInit = fn(u64) -> InitialPlacement;

/// Initial placements by name (step 1 of Figure 3 and its comparison
/// curves); `random` draws from the run seed.
const INITS: [(&str, SeededInit); 5] = [
    ("hilbert", |_| InitialPlacement::Hilbert),
    ("zigzag", |_| InitialPlacement::ZigZag),
    ("circle", |_| InitialPlacement::Circle),
    ("serpentine", |_| InitialPlacement::Serpentine),
    ("random", InitialPlacement::Random),
];

/// FD potentials by name: eqs. 19–21 and the energy-model potential at
/// the paper's target cost model.
fn potentials() -> [(&'static str, Potential); 4] {
    [
        ("l1", Potential::L1),
        ("l1sq", Potential::L1Squared),
        ("l2sq", Potential::L2Squared),
        ("energy", Potential::energy_model(CostModel::paper_target())),
    ]
}

/// How a front end spells its knobs, so an error names the knob the
/// caller actually typed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spelling {
    /// Command-line flags (`--lambda-congestion`).
    Flag,
    /// Job JSON keys (`lambda_congestion`).
    JsonKey,
}

impl Spelling {
    fn knob(self, key: &str) -> String {
        match self {
            Spelling::Flag => format!("--{}", key.replace('_', "-")),
            Spelling::JsonKey => key.to_owned(),
        }
    }
}

/// A run's knobs as a front end read them, before defaults and
/// validation. `None` takes the default: `hilbert`, `l2sq`, λ = 0.3,
/// seed 42, objective `energy` (λc = 1, λt = 0 when the objective uses
/// them).
#[derive(Debug, Clone, Default)]
pub struct RunKnobs<'a> {
    /// Initial-placement name.
    pub init: Option<&'a str>,
    /// Potential name.
    pub potential: Option<&'a str>,
    /// Queue fraction λ.
    pub lambda: Option<f64>,
    /// Seed for the random init, fault injection and the NoC replays.
    pub seed: Option<u64>,
    /// FD worker threads (0 = auto).
    pub threads: usize,
    /// Hardware faults to avoid.
    pub faults: Option<FaultMap>,
    /// Whether the multilevel pipeline runs.
    pub multilevel: bool,
    /// Multi-chip board topology.
    pub board: Option<Board>,
    /// Objective label (`energy`, `congestion` or `composite`).
    pub objective: Option<&'a str>,
    /// Congestion weight λc.
    pub lambda_congestion: Option<f64>,
    /// Latency-tail weight λt.
    pub lambda_latency: Option<f64>,
    /// Sim-in-the-loop reweighting cadence in sweeps.
    pub sim_in_loop: Option<u64>,
}

impl RunKnobs<'_> {
    /// Applies the defaults and validates the knobs.
    ///
    /// # Errors
    ///
    /// A message, naming knobs in `spelling`, for an unknown init,
    /// potential or objective name, λ outside `(0, 1]`, an objective
    /// weight the objective ignores or that is out of range, and
    /// sim-in-the-loop without a congestion term.
    pub fn resolve(self, spelling: Spelling) -> Result<RunConfig, String> {
        let seed = self.seed.unwrap_or(42);
        let name = self.init.unwrap_or("hilbert");
        let init = lookup(&INITS, name).ok_or_else(|| format!("unknown init `{name}`"))?(seed);
        let name = self.potential.unwrap_or("l2sq");
        let potential =
            lookup(&potentials(), name).ok_or_else(|| format!("unknown potential `{name}`"))?;
        let lambda = self.lambda.unwrap_or(0.3);
        if !(lambda > 0.0 && lambda <= 1.0) {
            return Err(format!("lambda must be in (0, 1], got {lambda}"));
        }
        // A weight the objective ignores would be silently dropped; that
        // is worse than an error.
        let label = self.objective.unwrap_or("energy");
        for (key, value, ignored_by) in [
            ("lambda_congestion", self.lambda_congestion, &["energy"][..]),
            ("lambda_latency", self.lambda_latency, &["energy", "congestion"][..]),
        ] {
            if value.is_some() && ignored_by.contains(&label) {
                return Err(format!(
                    "`{}` has no effect with objective `{label}`",
                    spelling.knob(key)
                ));
            }
        }
        let objective = Objective::from_parts(
            label,
            self.lambda_congestion.unwrap_or(1.0),
            self.lambda_latency.unwrap_or(0.0),
        )
        .ok_or_else(|| format!("unknown objective `{label}` (energy, congestion, or composite)"))?;
        objective.validate().map_err(|e| e.to_string())?;
        if self.sim_in_loop.is_some() && objective.is_energy() {
            return Err(format!(
                "`{}` needs a congestion-aware objective (objective `congestion` or `composite`)",
                spelling.knob("sim_in_loop")
            ));
        }
        Ok(RunConfig {
            init,
            potential,
            lambda,
            seed,
            threads: self.threads,
            faults: self.faults,
            multilevel: self.multilevel,
            board: self.board,
            objective,
            sim_in_loop: self.sim_in_loop,
        })
    }
}

fn lookup<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// A validated configuration of the proposed method: the initial
/// placement, the potential (eqs. 19–21), λ (§4.5) and everything else
/// that shapes the FD trajectory. Produced by [`RunKnobs::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Initial placement (`Random` carries [`RunConfig::seed`]).
    pub init: InitialPlacement,
    /// FD potential.
    pub potential: Potential,
    /// Queue fraction λ in `(0, 1]`.
    pub lambda: f64,
    /// Seed for the random init, fault injection and the NoC replays.
    pub seed: u64,
    /// FD worker threads (0 = auto); never changes the placement.
    pub threads: usize,
    /// Hardware faults the placement avoids.
    pub faults: Option<FaultMap>,
    /// Whether the multilevel pipeline runs.
    pub multilevel: bool,
    /// Multi-chip board: per-core capacities and chip-aware objectives.
    pub board: Option<Board>,
    /// Refinement objective.
    pub objective: Objective,
    /// Sim-in-the-loop reweighting cadence in sweeps.
    pub sim_in_loop: Option<u64>,
}

impl RunConfig {
    /// The init's name in the shared vocabulary.
    pub(crate) fn init_name(&self) -> &'static str {
        let kind = discriminant(&self.init);
        INITS.iter().find(|(_, make)| discriminant(&make(0)) == kind).map_or("", |e| e.0)
    }

    /// The potential's name in the shared vocabulary.
    pub(crate) fn potential_name(&self) -> &'static str {
        let kind = discriminant(&self.potential);
        potentials().iter().find(|(_, p)| discriminant(p) == kind).map_or("", |e| e.0)
    }

    /// A mapper builder configured for this run, for callers that add a
    /// knob outside the configuration (a wall-clock budget).
    pub fn builder(&self) -> MapperBuilder {
        let mut builder = Mapper::builder()
            .initial_placement(self.init)
            .potential(self.potential)
            .lambda(self.lambda)
            .threads(self.threads);
        if !self.objective.is_energy() {
            builder = builder.objective(self.objective);
        }
        if let Some(every) = self.sim_in_loop {
            builder = builder.reweight_every(every);
        }
        if self.multilevel {
            builder = builder.multilevel(MultilevelConfig::default());
        }
        if let Some(fm) = &self.faults {
            builder = builder.fault_map(fm.clone());
        }
        if let Some(board) = &self.board {
            builder = builder.board(board.clone());
        }
        builder
    }

    /// The mapper this configuration describes.
    pub fn mapper(&self) -> Mapper {
        self.builder().build()
    }

    /// The provenance digests a checkpoint of this run over `pcn`
    /// carries: the canonical PCN and every knob that shapes the FD
    /// trajectory. Budgets and thread counts are left out — the
    /// trajectory does not depend on them, and resuming under a
    /// different budget is the point.
    pub fn provenance(&self, pcn: &Pcn) -> CheckpointMeta {
        let faults = match &self.faults {
            Some(fm) => sha256_hex(render_faults(fm).as_bytes()),
            None => "none".to_owned(),
        };
        let mut config = format!(
            "init={} potential={} lambda={} seed={} faults={faults} multilevel={}",
            self.init_name(),
            self.potential_name(),
            self.lambda,
            self.seed,
            if self.multilevel { "on" } else { "off" }
        );
        // Later knobs append only when set, so checkpoints taken before
        // they existed keep verifying: the board's topology digest, then
        // the objective family (pure energy without reweighting adds
        // nothing).
        if let Some(board) = &self.board {
            config.push_str(&format!(" board={}", sha256_hex(render_board(board).as_bytes())));
        }
        if !(self.objective.is_energy() && self.sim_in_loop.is_none()) {
            let (_, lc, lt) = self.objective.weights();
            config.push_str(&format!(" objective={} lc={lc} lt={lt}", self.objective.label()));
            if let Some(k) = self.sim_in_loop {
                config.push_str(&format!(" reweight={k}"));
            }
        }
        CheckpointMeta {
            config_digest: sha256_hex(config.as_bytes()),
            pcn_digest: sha256_hex(render_pcn(pcn).as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(knobs: RunKnobs<'_>) -> Result<RunConfig, String> {
        knobs.resolve(Spelling::Flag)
    }

    #[test]
    fn every_name_resolves_and_names_itself_back() {
        for (name, _) in INITS {
            let config = resolve(RunKnobs { init: Some(name), seed: Some(9), ..RunKnobs::default() })
                .unwrap();
            assert_eq!(config.init_name(), name);
        }
        let random = resolve(RunKnobs { init: Some("random"), seed: Some(9), ..RunKnobs::default() });
        assert_eq!(random.unwrap().init, InitialPlacement::Random(9));
        for (name, _) in potentials() {
            let config =
                resolve(RunKnobs { potential: Some(name), ..RunKnobs::default() }).unwrap();
            assert_eq!(config.potential_name(), name);
        }
        let energy = resolve(RunKnobs { potential: Some("energy"), ..RunKnobs::default() });
        assert_eq!(energy.unwrap().potential, Potential::energy_model(CostModel::paper_target()));
    }

    #[test]
    fn defaults_are_the_papers_configuration() {
        let config = resolve(RunKnobs::default()).unwrap();
        assert_eq!(config.init, InitialPlacement::Hilbert);
        assert_eq!(config.potential, Potential::L2Squared);
        assert_eq!((config.lambda, config.seed, config.threads), (0.3, 42, 0));
        assert!(config.objective.is_energy());
        assert_eq!((config.faults, config.board, config.multilevel), (None, None, false));
        assert_eq!(config.sim_in_loop, None);
    }

    #[test]
    fn errors_name_the_knob_in_the_callers_spelling() {
        let dead = RunKnobs { lambda_congestion: Some(1.0), ..RunKnobs::default() };
        let flag = dead.clone().resolve(Spelling::Flag).unwrap_err();
        let key = dead.resolve(Spelling::JsonKey).unwrap_err();
        assert!(flag.contains("`--lambda-congestion` has no effect"), "{flag}");
        assert!(key.contains("`lambda_congestion` has no effect"), "{key}");
        let sim = RunKnobs { sim_in_loop: Some(4), ..RunKnobs::default() };
        assert!(sim.resolve(Spelling::Flag).unwrap_err().contains("`--sim-in-loop`"));
        for bad in [
            RunKnobs { init: Some("spiral"), ..RunKnobs::default() },
            RunKnobs { potential: Some("l3"), ..RunKnobs::default() },
            RunKnobs { lambda: Some(0.0), ..RunKnobs::default() },
            RunKnobs { lambda: Some(1.5), ..RunKnobs::default() },
            RunKnobs { objective: Some("speed"), ..RunKnobs::default() },
            RunKnobs {
                objective: Some("congestion"),
                lambda_latency: Some(0.5),
                ..RunKnobs::default()
            },
            RunKnobs {
                objective: Some("composite"),
                lambda_congestion: Some(-1.0),
                ..RunKnobs::default()
            },
        ] {
            assert!(resolve(bad.clone()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn provenance_digests_every_trajectory_knob_but_threads() {
        let pcn = crate::parse_pcn("pcn v1\nclusters 3\nedge 0 1 2.0\n").unwrap();
        let base = resolve(RunKnobs::default()).unwrap();
        let config = "init=hilbert potential=l2sq lambda=0.3 seed=42 faults=none multilevel=off";
        assert_eq!(base.provenance(&pcn).config_digest, sha256_hex(config.as_bytes()));
        let threaded = RunConfig { threads: 4, ..base.clone() };
        assert_eq!(threaded.provenance(&pcn), base.provenance(&pcn));
        let faults = FaultMap::new(snnmap_hw::Mesh::new(2, 2).unwrap());
        for changed in [
            RunConfig { multilevel: true, ..base.clone() },
            RunConfig { faults: Some(faults), ..base.clone() },
            RunConfig { seed: 7, ..base.clone() },
            RunConfig { lambda: 0.5, ..base.clone() },
        ] {
            assert_ne!(changed.provenance(&pcn).config_digest, base.provenance(&pcn).config_digest);
        }
    }
}
