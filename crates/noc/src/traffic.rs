//! Spike-traffic generation from PCN connection weights.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snnmap_hw::{Coord, Placement};
use snnmap_model::Pcn;

use crate::NocSim;

/// Simulated cycles per seeded replay of a PCN's traffic, for
/// sim-in-the-loop reweighting and `snnmap eval`'s NoC columns: long
/// enough that per-router Bernoulli noise stays small, short enough to
/// be a rounding error next to FD itself.
pub const REPLAY_CYCLES: u64 = 256;

/// Injection scale for the seeded replays: the hottest PCN connection
/// injects with probability 1/4 per cycle, so [`PcnTraffic`]'s
/// `min(1, ·)` clamp never engages and traversal counts stay
/// proportional to edge weights. 0.0 for an edgeless PCN, which has no
/// traffic to replay.
pub fn noc_scale(pcn: &Pcn) -> f64 {
    let mut wmax = 0.0f64;
    for c in 0..pcn.num_clusters() {
        for (_, w) in pcn.out_edges(c) {
            wmax = wmax.max(w as f64);
        }
    }
    if wmax > 0.0 {
        0.25 / wmax
    } else {
        0.0
    }
}

/// Per-cycle Bernoulli spike injection derived from a PCN and a
/// placement: each connection `(c_i, c_j)` with traffic weight `w`
/// becomes a flow from `P(c_i)` to `P(c_j)` injecting a spike with
/// probability `min(1, w · scale)` per cycle — the executable analogue of
/// the paper's edge weights being "proportional to the total number of
/// spikes" (§3.2).
///
/// # Examples
///
/// ```
/// use snnmap_hw::{Coord, Mesh, Placement};
/// use snnmap_model::PcnBuilder;
/// use snnmap_noc::{NocConfig, NocSim, PcnTraffic};
///
/// let mut b = PcnBuilder::new();
/// b.add_cluster(1, 1);
/// b.add_cluster(1, 1);
/// b.add_edge(0, 1, 1.0)?;
/// let pcn = b.build()?;
/// let mesh = Mesh::new(2, 2)?;
/// let p = Placement::from_coords(mesh, &[Coord::new(0, 0), Coord::new(1, 1)])?;
///
/// let mut traffic = PcnTraffic::new(&pcn, &p, 0.5, 7);
/// let mut sim = NocSim::new(mesh, NocConfig::default());
/// traffic.run(&mut sim, 100);
/// assert!(sim.stats().delivered > 20); // ~50 spikes expected
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PcnTraffic {
    flows: Vec<(Coord, Coord, f64)>,
    rng: ChaCha8Rng,
}

impl PcnTraffic {
    /// Builds the flow table. `scale` converts PCN traffic weight into a
    /// per-cycle injection probability (clamped at 1).
    ///
    /// # Panics
    ///
    /// Panics if a connected cluster is unplaced, or if `scale` is not a
    /// finite nonnegative number.
    pub fn new(pcn: &Pcn, placement: &Placement, scale: f64, seed: u64) -> Self {
        assert!(scale.is_finite() && scale >= 0.0, "scale must be finite and nonnegative");
        let mut flows = Vec::with_capacity(pcn.num_connections() as usize);
        for c in 0..pcn.num_clusters() {
            let src = placement.coord_of(c).expect("connected clusters must be placed");
            for (t, w) in pcn.out_edges(c) {
                let dst = placement.coord_of(t).expect("connected clusters must be placed");
                flows.push((src, dst, (w as f64 * scale).min(1.0)));
            }
        }
        Self { flows, rng: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Number of flows (PCN connections).
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Injects one cycle's worth of spikes into `sim`. Spikes the
    /// simulator refuses (endpoint outside its mesh, dead core,
    /// unroutable pair) are dropped; rejections from backpressure are
    /// counted by the simulator as usual.
    pub fn inject_cycle(&mut self, sim: &mut NocSim) {
        for &(src, dst, p) in &self.flows {
            if p > 0.0 && self.rng.gen_bool(p) {
                let _ = sim.inject(src, dst);
            }
        }
    }

    /// Runs `cycles` cycles of injection + simulation, then drains the
    /// network (up to a generous bound) so every injected spike is
    /// accounted for. Returns [`NocSim::drain`]'s verdict: `false` when
    /// packets are still in flight — a deadlocked network whose stats
    /// miss the stuck packets.
    pub fn run(&mut self, sim: &mut NocSim, cycles: u64) -> bool {
        for _ in 0..cycles {
            self.inject_cycle(sim);
            sim.step();
        }
        let bound = 1000 + 10 * cycles * (sim.mesh().rows() as u64 + sim.mesh().cols() as u64);
        sim.drain(bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NocConfig, Routing};
    use snnmap_hw::Mesh;
    use snnmap_model::PcnBuilder;

    fn setup(scale: f64) -> (Pcn, Placement) {
        let mut b = PcnBuilder::new();
        for _ in 0..4 {
            b.add_cluster(1, 1);
        }
        b.add_edge(0, 1, 2.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        let pcn = b.build().unwrap();
        let mesh = Mesh::new(2, 2).unwrap();
        let coords: Vec<Coord> = mesh.iter().collect();
        let p = Placement::from_coords(mesh, &coords).unwrap();
        let _ = scale;
        (pcn, p)
    }

    #[test]
    fn injection_rate_tracks_weights() {
        let (pcn, p) = setup(0.1);
        let mut traffic = PcnTraffic::new(&pcn, &p, 0.1, 3);
        let mut sim = NocSim::new(p.mesh(), NocConfig::default());
        traffic.run(&mut sim, 2000);
        // Expected injections: (min(1,.2) + .1 + .05) * 2000 = 700.
        let injected = sim.stats().injected + sim.stats().rejected;
        assert!(
            (injected as f64 - 700.0).abs() < 120.0,
            "injected {injected}, expected about 700"
        );
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn weights_above_one_clamp() {
        let (pcn, p) = setup(10.0);
        let traffic = PcnTraffic::new(&pcn, &p, 10.0, 3);
        assert_eq!(traffic.num_flows(), 3);
        // All probabilities clamped to 1: every flow injects every cycle.
        let mut t = traffic.clone();
        let mut sim = NocSim::new(p.mesh(), NocConfig::default());
        t.inject_cycle(&mut sim);
        assert_eq!(sim.stats().injected + sim.stats().rejected, 3);
    }

    #[test]
    fn run_reports_a_replay_that_does_not_drain() {
        // The `step_pins.rs` replay: random-minimal routing deadlocks with
        // packets in flight, XY routing drains.
        let pcn = snnmap_model::generators::random_pcn(120, 4.0, 5).unwrap();
        let mesh = Mesh::new(12, 12).unwrap();
        let coords: Vec<Coord> = mesh.iter().take(120).collect();
        let p = Placement::from_coords(mesh, &coords).unwrap();
        for (routing, drains) in [(Routing::Xy, true), (Routing::RandomMinimal, false)] {
            let config = NocConfig { queue_capacity: 8, routing, seed: 7 };
            let mut sim = NocSim::new(mesh, config);
            assert_eq!(PcnTraffic::new(&pcn, &p, 0.05, 3).run(&mut sim, 256), drains);
            assert_eq!(sim.in_flight() == 0, drains);
            if !drains {
                assert_eq!((sim.stats().injected, sim.stats().delivered), (7_260, 4_346));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (pcn, p) = setup(0.2);
        let run = |seed| {
            let mut t = PcnTraffic::new(&pcn, &p, 0.2, seed);
            let mut sim = NocSim::new(p.mesh(), NocConfig::default());
            t.run(&mut sim, 200);
            sim.stats().clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
