//! Spike-traffic generation from PCN connection weights.

use rand::{RngCore, SeedableRng};
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
    flows: Vec<Flow>,
    rng: ChaCha8Rng,
}

/// One connection's flow: its source and destination routers and its
/// per-cycle injection threshold (see [`threshold`]).
#[derive(Debug, Clone, Copy)]
struct Flow {
    src: Coord,
    dst: Coord,
    threshold: u64,
}

/// `2^53`: the number of distinct values a 53-bit uniform draw takes.
const DRAWS: f64 = (1u64 << 53) as f64;

/// The integer form of a Bernoulli(`p`) draw: `draw(rng, threshold(p))`
/// accepts exactly when `rng.gen_bool(p)` would, from the same `u64`.
///
/// `gen_bool(p)` tests `k · 2^-53 < p` for `k = next_u64() >> 11`, a
/// 53-bit integer. Both sides scale by `2^53` exactly, so the test is
/// `k < p · 2^53`, and for an integer `k` that is `k < ⌈p · 2^53⌉`.
/// `p ≤ 0` gives threshold 0, which [`draw`] answers without drawing,
/// as the float form skipped `gen_bool` for such flows.
fn threshold(p: f64) -> u64 {
    // A saturating cast: negative products become 0, and p ≤ 1 keeps
    // the product at most 2^53.
    (p * DRAWS).ceil() as u64
}

/// One Bernoulli draw against an integer [`threshold`]; threshold 0
/// leaves `rng` untouched.
fn draw(rng: &mut impl RngCore, threshold: u64) -> bool {
    threshold > 0 && rng.next_u64() >> 11 < threshold
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
                flows.push(Flow { src, dst, threshold: threshold((w as f64 * scale).min(1.0)) });
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
        let refused = self.refused_by(sim);
        self.inject_admitted(sim, &refused);
    }

    /// Runs `cycles` cycles of injection + simulation, then drains the
    /// network (up to a generous bound) so every injected spike is
    /// accounted for. Returns [`NocSim::drain`]'s verdict: `false` when
    /// packets are still in flight — a deadlocked network whose stats
    /// miss the stuck packets.
    pub fn run(&mut self, sim: &mut NocSim, cycles: u64) -> bool {
        let refused = self.refused_by(sim);
        for _ in 0..cycles {
            self.inject_admitted(sim, &refused);
            sim.step();
        }
        let bound = 1000 + 10 * cycles * (sim.mesh().rows() as u64 + sim.mesh().cols() as u64);
        sim.drain(bound)
    }

    /// Indices of the flows `sim` refuses, ascending. The simulator's
    /// mesh and faults never change, so one check serves a whole run.
    fn refused_by(&self, sim: &NocSim) -> Vec<usize> {
        let refused = |(i, f): (usize, &Flow)| sim.admit(f.src, f.dst).is_err().then_some(i);
        self.flows.iter().enumerate().filter_map(refused).collect()
    }

    /// One cycle of injection: every flow draws in table order, and a
    /// refused flow draws without injecting, so the RNG stream does not
    /// depend on what the simulator accepts.
    fn inject_admitted(&mut self, sim: &mut NocSim, refused: &[usize]) {
        let Self { flows, rng } = self;
        let mut start = 0;
        for &end in refused.iter().chain([&flows.len()]) {
            for f in &flows[start..end] {
                if draw(rng, f.threshold) {
                    sim.push_local(f.src, f.dst);
                }
            }
            if let Some(f) = flows.get(end) {
                draw(rng, f.threshold);
            }
            start = end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NocConfig, Routing};
    use snnmap_hw::{FaultMap, Mesh};
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

    /// An "RNG" that yields one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn integer_thresholds_decide_like_gen_bool() {
        use rand::Rng;
        let mut ps = vec![
            0.0,
            f64::from_bits(1), // 2^-1074, the smallest positive f64
            1.0 / DRAWS,
            1e-9,
            0.25,
            0.5,
            1.0 - 1.0 / DRAWS,
            1.0,
        ];
        let mut pick = ChaCha8Rng::seed_from_u64(99);
        ps.extend((0..200).map(|_| pick.gen::<f64>()));
        ps.extend((0..50).map(|_| pick.gen::<f64>() * 1e-12));
        for (i, &p) in ps.iter().enumerate() {
            let t = threshold(p);
            // The draws either side of the threshold decide alike (the low
            // 11 bits of the word are discarded by both)...
            for k in [t.saturating_sub(1), t, t + 1].into_iter().filter(|&k| k < 1 << 53) {
                let word = k << 11 | 0x7ff;
                let float = p > 0.0 && Word(word).gen_bool(p);
                assert_eq!(draw(&mut Word(word), t), float, "p = {p:e}, k = {k}");
            }
            // ...and so does a stream, which ends at the same position.
            let mut float = ChaCha8Rng::seed_from_u64(i as u64);
            let mut integer = float.clone();
            for _ in 0..64 {
                assert_eq!(p > 0.0 && float.gen_bool(p), draw(&mut integer, t), "p = {p:e}");
            }
            assert_eq!(float.next_u64(), integer.next_u64(), "p = {p:e}");
        }
        // p = 0 never draws; p = 1 always accepts.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let untouched = rng.clone().next_u64();
        assert!(!draw(&mut rng, threshold(0.0)));
        assert_eq!(rng.next_u64(), untouched);
        assert_eq!(threshold(1.0), 1 << 53);
    }

    #[test]
    fn refused_flows_keep_their_draws() {
        // A dead source core refuses the first flow, 0 -> 1. It must still
        // draw, or every later flow's injections would shift.
        let (pcn, p) = setup(0.3);
        let mut fm = FaultMap::new(p.mesh());
        fm.kill_core(Coord::new(0, 0)).unwrap();
        let run = |sim: &mut NocSim| {
            assert!(PcnTraffic::new(&pcn, &p, 0.3, 11).run(sim, 300));
            sim.stats().traversals.clone()
        };
        let plain = run(&mut NocSim::new(p.mesh(), NocConfig::default()));
        let faulty = run(&mut NocSim::with_faults(p.mesh(), NocConfig::default(), &fm).unwrap());
        // Flows 1 -> 2 and 2 -> 3 alone cross routers 2 and 3.
        assert!(plain[0] > 0);
        assert_eq!(faulty[0], 0);
        assert_eq!(plain[2..], faulty[2..]);
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
