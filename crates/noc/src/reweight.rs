//! Sim-in-the-loop reweighting: a [`SweepReweighter`] backed by the
//! cycle-driven simulator.
//!
//! The FD engine's composite objective can re-weight hot routers between
//! sweep batches (see `snnmap_core::Objective`). Hookless, it derives
//! heat from its own analytic congestion map; this module supplies the
//! *simulated* alternative — replay the PCN's spike traffic over the
//! current placement and hand back the per-router traversal counts as
//! heat, so refinement chases congestion the network actually exhibits
//! (queueing, backpressure, detours) rather than the expectation model.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use snnmap_core::{ReweightOutcome, SweepReweighter};
use snnmap_hw::{Coord, Mesh, Placement};
use snnmap_model::Pcn;

use crate::{NocConfig, NocSim, PcnTraffic};

/// Drives a seeded [`NocSim`] over the engine's current placement and
/// reports per-router traversal counts as reweight heat (source
/// `"noc-sim"`).
///
/// Determinism: each invocation seeds its traffic and simulator RNGs
/// from `seed` and the sweep number only — never from time, thread
/// count, or prior invocations — so a run with a given
/// `(seed, reweight cadence)` is byte-identical across repeats and
/// thread counts, as the objective subsystem requires.
///
/// # Examples
///
/// ```
/// use snnmap_core::{force_directed, random_placement, FdConfig, FdRunOpts, Objective};
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
/// use snnmap_noc::NocReweighter;
/// use snnmap_trace::NoopSink;
///
/// let pcn = random_pcn(48, 4.0, 3)?;
/// let mut placement = random_placement(&pcn, Mesh::new(7, 7)?, 0, None)?;
/// let mut hook = NocReweighter::new(&pcn, 0.05, 64, 42);
/// let config = FdConfig {
///     objective: Objective::Composite { lambda_c: 0.5, lambda_t: 0.0 },
///     reweight_every: Some(4),
///     ..FdConfig::default()
/// };
/// let mut opts = FdRunOpts { reweighter: Some(&mut hook), ..FdRunOpts::default() };
/// let stats =
///     force_directed(&pcn, &mut placement, &config, None, None, &mut opts, &mut NoopSink)?;
/// assert!(stats.final_energy <= stats.initial_energy * 1.5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NocReweighter<'a> {
    pcn: &'a Pcn,
    config: NocConfig,
    scale: f64,
    cycles: u64,
    seed: u64,
}

impl<'a> NocReweighter<'a> {
    /// Builds the hook. `scale` converts PCN edge weight into per-cycle
    /// injection probability (as [`PcnTraffic::new`]), `cycles` is the
    /// simulated window per invocation, and `seed` roots every
    /// per-invocation RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not a finite nonnegative number or `cycles`
    /// is zero.
    pub fn new(pcn: &'a Pcn, scale: f64, cycles: u64, seed: u64) -> Self {
        assert!(scale.is_finite() && scale >= 0.0, "scale must be finite and nonnegative");
        assert!(cycles > 0, "cycles must be positive");
        Self { pcn, config: NocConfig::default(), scale, cycles, seed }
    }

    /// Replaces the simulator configuration (queue depth, routing
    /// policy; the config's own `seed` is overridden per invocation).
    pub fn config(mut self, config: NocConfig) -> Self {
        self.config = config;
        self
    }

    /// A derived sub-seed that differs per sweep and per purpose, so the
    /// traffic and router RNG streams never alias.
    fn sub_seed(&self, sweep: u64, purpose: u64) -> u64 {
        // SplitMix-free mixing: one ChaCha block keyed on (seed, sweep,
        // purpose) — deterministic and cheap at reweight cadence.
        let mixed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(sweep)
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(purpose);
        let mut rng = ChaCha8Rng::seed_from_u64(mixed);
        rand::Rng::gen(&mut rng)
    }
}

impl SweepReweighter for NocReweighter<'_> {
    fn reweight(&mut self, sweep: u64, coords: &[Coord], mesh: Mesh) -> ReweightOutcome {
        let placement = Placement::from_coords(mesh, coords)
            .expect("FD engine hands the reweighter a complete placement");
        let mut traffic =
            PcnTraffic::new(self.pcn, &placement, self.scale, self.sub_seed(sweep, 1));
        let config = NocConfig { seed: self.sub_seed(sweep, 2), ..self.config };
        let mut sim = NocSim::new(mesh, config);
        traffic.run(&mut sim, self.cycles);
        ReweightOutcome { heat: sim.stats().traversals.clone(), source: "noc-sim".to_owned() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_model::PcnBuilder;

    fn line_pcn(n: u32) -> Pcn {
        let mut b = PcnBuilder::new();
        for _ in 0..n {
            b.add_cluster(1, 1);
        }
        for c in 0..n - 1 {
            b.add_edge(c, c + 1, 4.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn heat_is_deterministic_per_seed_and_sweep() {
        let pcn = line_pcn(9);
        let mesh = Mesh::new(3, 3).unwrap();
        let coords: Vec<Coord> = mesh.iter().collect();
        let run = |seed, sweep| {
            let mut hook = NocReweighter::new(&pcn, 0.1, 128, seed);
            hook.reweight(sweep, &coords, mesh)
        };
        assert_eq!(run(7, 4).heat, run(7, 4).heat);
        assert_ne!(run(7, 4).heat, run(7, 8).heat);
        assert_ne!(run(7, 4).heat, run(8, 4).heat);
        assert_eq!(run(7, 4).source, "noc-sim");
    }

    #[test]
    fn heat_covers_the_mesh_and_lands_on_the_route() {
        let pcn = line_pcn(4);
        let mesh = Mesh::new(2, 2).unwrap();
        let coords: Vec<Coord> = mesh.iter().collect();
        let mut hook = NocReweighter::new(&pcn, 1.0, 64, 0);
        let out = hook.reweight(1, &coords, mesh);
        assert_eq!(out.heat.len(), mesh.len());
        // Every router hosts a flow endpoint, so all see traffic.
        assert!(out.heat.iter().all(|&h| h > 0), "heat: {:?}", out.heat);
    }
}
