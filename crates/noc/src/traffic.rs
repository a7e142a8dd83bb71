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

/// Spike injection derived from a PCN and a placement: each connection
/// `(c_i, c_j)` with traffic weight `w` becomes a flow from `P(c_i)` to
/// `P(c_j)` injecting a spike with probability `p = min(1, w · scale)`
/// per cycle — the executable analogue of the paper's edge weights being
/// "proportional to the total number of spikes" (§3.2).
///
/// A run does not test every flow every cycle. Each flow waits a gap
/// `G ~ Geometric(p)`, `P(G = k) = (1−p)^k·p`, before its next spike,
/// and iid geometric gaps are exactly a Bernoulli(`p`) trial per cycle.
/// So a run draws one random word per injected spike, and none at all
/// for `p = 1` flows, which inject every cycle.
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

/// One connection's flow: its source and destination routers and
/// [`inv_ln_q`] of its per-cycle rate.
#[derive(Debug, Clone, Copy)]
struct Flow {
    src: Coord,
    dst: Coord,
    inv_ln_q: f64,
}

/// `1/ln(1−p)` for a rate `0 < p ≤ 1`, the factor [`gap`] scales
/// `ln U` by: 0 for `p = 1`, whose gaps are all 0, and at least
/// `-f64::MAX` where `p` is so small that the reciprocal overflows.
fn inv_ln_q(p: f64) -> f64 {
    if p >= 1.0 {
        0.0
    } else {
        (1.0 / ln_1m(p)).max(-f64::MAX)
    }
}

/// `2^-53`, the step of the uniform [`gap`] draws.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Draws a flow's gap, the cycles it waits before its next spike:
/// `⌊ln U / ln(1−p)⌋` for `U = (k+1)·2^-53` and `k = next_u64() >> 11`,
/// so `U ∈ (0, 1]` and `ln U` is finite. A `p = 1` flow draws nothing.
/// The cast saturates: a tiny `p` gives `u64::MAX`, never NaN.
fn gap(rng: &mut impl RngCore, inv_ln_q: f64) -> u64 {
    if inv_ln_q == 0.0 {
        return 0;
    }
    let u = ((rng.next_u64() >> 11) + 1) as f64 * UNIT;
    (ln(u) * inv_ln_q) as u64
}

/// Terms of the [`atanh`] series: enough for `|s| ≤ 1/3`, where the
/// first omitted term is below `2^-60` of the sum.
const ATANH_TERMS: usize = 20;

/// `1/(2k+1)`, the [`atanh`] series coefficients.
const ODD_RECIPROCALS: [f64; ATANH_TERMS] = {
    let mut r = [0.0; ATANH_TERMS];
    let mut k = 0;
    while k < ATANH_TERMS {
        r[k] = 1.0 / (2 * k + 1) as f64;
        k += 1;
    }
    r
};

/// `atanh(s) = s + s³/3 + s⁵/5 + …` for `|s| ≤ 1/3`, by Horner's rule.
fn atanh(s: f64) -> f64 {
    let t = s * s;
    s * ODD_RECIPROCALS.iter().rev().fold(0.0, |sum, &c| sum * t + c)
}

/// The natural log of a positive normal `x`, without libm: split
/// `x = m·2^e` from the bits with `m ∈ [√½, √2)`, then
/// `ln x = e·ln 2 + 2·atanh((m−1)/(m+1))`, an [`atanh`] of magnitude
/// below 0.172.
fn ln(x: f64) -> f64 {
    debug_assert!(x.is_normal() && x > 0.0, "ln of {x}");
    let bits = x.to_bits();
    let mut e = (bits >> 52) as i32 - 1023;
    let mut m = f64::from_bits(bits & ((1 << 52) - 1) | 1023 << 52);
    if m >= std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    f64::from(e) * std::f64::consts::LN_2 + 2.0 * atanh((m - 1.0) / (m + 1.0))
}

/// `ln(1−p)` for `0 ≤ p < 1`. Below 1/2 it is `2·atanh(−p/(2−p))`,
/// which keeps the relative precision of a tiny `p` that rounding
/// `1−p` would lose; from 1/2 on `1−p` is exact and goes to [`ln`].
fn ln_1m(p: f64) -> f64 {
    if p < 0.5 {
        2.0 * atanh(-p / (2.0 - p))
    } else {
        ln(1.0 - p)
    }
}

/// Due flows by cycle, as intrusive lists: `head[t]` starts cycle
/// `t`'s list and `next[i]` links flow `i` on, so memory is
/// O(cycles + flows).
struct Calendar {
    head: Vec<u32>,
    next: Vec<u32>,
}

impl Calendar {
    /// Marks the end of a list.
    const NONE: u32 = u32::MAX;

    fn new(cycles: u64, flows: usize) -> Self {
        assert!(flows < Self::NONE as usize, "flow indices must fit a u32");
        let cycles = usize::try_from(cycles).expect("cycles must fit in memory");
        Self { head: vec![Self::NONE; cycles], next: vec![Self::NONE; flows] }
    }

    /// Files flow `i` under cycle `due`, or drops it past the last cycle.
    fn push(&mut self, i: u32, due: u64) {
        if let Some(head) = usize::try_from(due).ok().and_then(|t| self.head.get_mut(t)) {
            self.next[i as usize] = *head;
            *head = i;
        }
    }

    /// Replaces `due` with cycle `t`'s flows, in ascending index order.
    fn take(&self, t: u64, due: &mut Vec<u32>) {
        due.clear();
        let mut i = self.head[t as usize];
        while i != Self::NONE {
            due.push(i);
            i = self.next[i as usize];
        }
        due.sort_unstable();
    }
}

/// Runs the geometric-gap schedule of `flows` for `cycles` cycles,
/// calling `on_cycle` once per cycle with the flows due in it, in
/// ascending index order.
///
/// Every flow draws its first gap in index order. In each cycle, each
/// due flow draws its next gap in that order before `on_cycle` sees the
/// list; a gap that reaches past `cycles` drops the flow for the rest
/// of the run.
fn schedule(flows: &[Flow], rng: &mut impl RngCore, cycles: u64, mut on_cycle: impl FnMut(&[u32])) {
    let mut calendar = Calendar::new(cycles, flows.len());
    for (i, f) in (0..).zip(flows) {
        calendar.push(i, gap(rng, f.inv_ln_q));
    }
    let mut due = Vec::new();
    for t in 0..cycles {
        calendar.take(t, &mut due);
        for &i in &due {
            calendar.push(i, (t + 1).saturating_add(gap(rng, flows[i as usize].inv_ln_q)));
        }
        on_cycle(&due);
    }
}

impl PcnTraffic {
    /// Builds the flow table. `scale` converts PCN traffic weight into a
    /// per-cycle injection probability (clamped at 1). Connections whose
    /// probability is 0 never inject and are left out.
    ///
    /// # Panics
    ///
    /// Panics if a connected cluster is unplaced, or if `scale` is not a
    /// finite nonnegative number.
    pub fn new(pcn: &Pcn, placement: &Placement, scale: f64, seed: u64) -> Self {
        assert!(scale.is_finite() && scale >= 0.0, "scale must be finite and nonnegative");
        let at = |c| placement.coord_of(c).expect("connected clusters must be placed");
        let rates = (0..pcn.num_clusters()).flat_map(|c| {
            pcn.out_edges(c).map(move |(t, w)| (at(c), at(t), (w as f64 * scale).min(1.0)))
        });
        Self::from_rates(rates, seed)
    }

    /// The flow table of `(src, dst, p)` rates, in order.
    fn from_rates(rates: impl IntoIterator<Item = (Coord, Coord, f64)>, seed: u64) -> Self {
        let flows = rates
            .into_iter()
            .filter(|&(_, _, p)| p > 0.0)
            .map(|(src, dst, p)| Flow { src, dst, inv_ln_q: inv_ln_q(p) })
            .collect();
        Self { flows, rng: ChaCha8Rng::seed_from_u64(seed) }
    }

    /// Number of flows: the PCN connections with a positive injection
    /// probability.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Runs `cycles` cycles of injection + simulation, then drains the
    /// network (up to a generous bound) so every injected spike is
    /// accounted for. Returns [`NocSim::drain`]'s verdict: `false` when
    /// packets are still in flight — a deadlocked network whose stats
    /// miss the stuck packets.
    ///
    /// Within a cycle, due flows inject in table order. Spikes the
    /// simulator refuses (endpoint outside its mesh, dead core,
    /// unroutable pair) are dropped, but their flows keep drawing, so
    /// the RNG stream does not depend on what the simulator accepts;
    /// rejections from backpressure are counted by the simulator as
    /// usual. Each run starts a fresh schedule from the traffic's RNG.
    pub fn run(&mut self, sim: &mut NocSim, cycles: u64) -> bool {
        let Self { flows, rng } = self;
        // The simulator's mesh and faults never change, so one check
        // serves a whole run.
        let refused: Vec<bool> = flows.iter().map(|f| sim.admit(f.src, f.dst).is_err()).collect();
        schedule(flows, rng, cycles, |due| {
            for &i in due {
                let f = &flows[i as usize];
                if !refused[i as usize] {
                    sim.push_local(f.src, f.dst);
                }
            }
            sim.step();
        });
        sim.drain(drain_bound(sim, cycles))
    }
}

/// How many cycles [`PcnTraffic::run`] lets `sim` drain after `cycles`
/// cycles of injection.
fn drain_bound(sim: &NocSim, cycles: u64) -> u64 {
    1000 + 10 * cycles * (sim.mesh().rows() as u64 + sim.mesh().cols() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NocConfig, Routing};
    use rand::Rng;
    use snnmap_hw::{FaultMap, Mesh};
    use snnmap_model::PcnBuilder;

    fn setup() -> (Pcn, Placement) {
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
        (pcn, p)
    }

    #[test]
    fn injection_rate_tracks_weights() {
        let (pcn, p) = setup();
        let mut traffic = PcnTraffic::new(&pcn, &p, 0.1, 3);
        let mut sim = NocSim::new(p.mesh(), NocConfig::default());
        traffic.run(&mut sim, 2000);
        // Expected injections: (min(1,.2) + .1 + .05) * 2000 = 700.
        let injected = sim.stats().injected + sim.stats().rejected;
        assert!((injected as f64 - 700.0).abs() < 120.0, "injected {injected}, expected about 700");
        assert_eq!(sim.in_flight(), 0);
    }

    #[test]
    fn weights_above_one_clamp() {
        let (pcn, p) = setup();
        let mut traffic = PcnTraffic::new(&pcn, &p, 10.0, 3);
        assert_eq!(traffic.num_flows(), 3);
        // All probabilities clamped to 1: every flow injects every cycle,
        // and none of them draws.
        let mut untouched = traffic.rng.clone();
        let mut sim = NocSim::new(p.mesh(), NocConfig::default());
        assert!(traffic.run(&mut sim, 5));
        assert_eq!(sim.stats().injected + sim.stats().rejected, 15);
        assert_eq!(traffic.rng.next_u64(), untouched.next_u64());
        // A zero weight leaves its connection out.
        assert_eq!(PcnTraffic::new(&pcn, &p, 0.0, 3).num_flows(), 0);
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
                assert_eq!((sim.stats().injected, sim.stats().delivered), (7_621, 4_741));
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

    /// The per-cycle scan the calendar replaces: each flow keeps its next
    /// due cycle, and every cycle visits every flow in table order,
    /// drawing the next gap of each flow that injects.
    fn reference_run(
        rates: &[(Coord, Coord, f64)],
        seed: u64,
        sim: &mut NocSim,
        cycles: u64,
    ) -> bool {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let inv: Vec<f64> = rates.iter().map(|&(_, _, p)| inv_ln_q(p)).collect();
        let mut due: Vec<Option<u64>> =
            rates.iter().zip(&inv).map(|(r, &q)| (r.2 > 0.0).then(|| gap(&mut rng, q))).collect();
        for t in 0..cycles {
            for (i, &(src, dst, _)) in rates.iter().enumerate() {
                if due[i] == Some(t) {
                    // A refused pair is an error here, and is dropped.
                    let _ = sim.inject(src, dst);
                    due[i] = Some((t + 1).saturating_add(gap(&mut rng, inv[i])));
                }
            }
            sim.step();
        }
        sim.drain(drain_bound(sim, cycles))
    }

    #[test]
    fn calendar_matches_a_per_cycle_scan() {
        let mesh = Mesh::new(5, 5).unwrap();
        let mut faults = FaultMap::new(mesh);
        faults.kill_core(Coord::new(1, 1)).unwrap();
        faults.kill_core(Coord::new(3, 2)).unwrap();
        let mut pick = ChaCha8Rng::seed_from_u64(17);
        for table in 0..24u64 {
            let n = pick.gen_range(1..60);
            let rates: Vec<(Coord, Coord, f64)> = (0..n)
                .map(|_| {
                    let p = match pick.gen_range(0..5) {
                        0 => 0.0,
                        1 => 1.0,
                        // Below 2^-53, subnormals included.
                        2 => f64::from_bits(pick.gen_range(1..UNIT.to_bits())),
                        _ => pick.gen::<f64>() * 0.3,
                    };
                    let mut at = || Coord::new(pick.gen_range(0..5), pick.gen_range(0..5));
                    (at(), at(), p)
                })
                .collect();
            let cycles = pick.gen_range(0..300);
            let config = NocConfig { queue_capacity: 4, routing: Routing::RandomMinimal, seed: 5 };
            let sim = || match table % 2 {
                0 => NocSim::new(mesh, config),
                _ => NocSim::with_faults(mesh, config, &faults).unwrap(),
            };
            let (mut calendar, mut reference) = (sim(), sim());
            let drained = PcnTraffic::from_rates(rates.clone(), table).run(&mut calendar, cycles);
            assert_eq!(
                drained,
                reference_run(&rates, table, &mut reference, cycles),
                "table {table}"
            );
            assert_eq!(calendar.stats(), reference.stats(), "table {table}");
            assert_eq!(calendar.cycle(), reference.cycle(), "table {table}");
        }
    }

    /// Pearson's χ² of `gaps` against Geometric(`p`), and its 0.1%
    /// critical value (Wilson–Hilferty). Gaps below `k` get a bin each
    /// and the rest share a tail bin, with `k` as large as keeps every
    /// expected count at least 5.
    fn chi_square(gaps: &[u64], p: f64) -> (f64, f64) {
        let n = gaps.len() as f64;
        let q = 1.0 - p;
        let mut k = 0;
        while n * q.powi(k) * p >= 5.0 && n * q.powi(k + 1) >= 5.0 {
            k += 1;
        }
        let mut observed = vec![0u64; k as usize + 1];
        for &g in gaps {
            observed[g.min(k as u64) as usize] += 1;
        }
        let expected = |j: i32| if j < k { n * q.powi(j) * p } else { n * q.powi(k) };
        let chi = (0..=k)
            .map(|j| (observed[j as usize] as f64 - expected(j)).powi(2) / expected(j))
            .sum();
        let df = f64::from(k);
        let c = 2.0 / (9.0 * df);
        (chi, df * (1.0 - c + 3.09 * c.sqrt()).powi(3))
    }

    #[test]
    fn gaps_are_distributed_like_per_cycle_bernoulli_trials() {
        const CYCLES: u64 = 100_000;
        let ps = [1e-4, 3e-3, 0.1, 0.25, 0.9];
        let origin = Coord::new(0, 0);
        for seed in [1, 2, 3] {
            // Each flow's gaps: the cycles before its first spike, then
            // between consecutive spikes.
            let mut geometric = vec![Vec::new(); ps.len()];
            let mut last = vec![None; ps.len()];
            let mut t = 0;
            let traffic = PcnTraffic::from_rates(ps.map(|p| (origin, origin, p)), seed);
            schedule(&traffic.flows, &mut traffic.rng.clone(), CYCLES, |due| {
                for &i in due {
                    let i = i as usize;
                    geometric[i].push(last[i].map_or(t, |l| t - l - 1));
                    last[i] = Some(t);
                }
                t += 1;
            });
            // The model it replaces: a Bernoulli trial per flow per cycle.
            let mut bernoulli = vec![Vec::new(); ps.len()];
            let mut last = vec![None; ps.len()];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for t in 0..CYCLES {
                for (i, &p) in ps.iter().enumerate() {
                    if rng.gen_bool(p) {
                        bernoulli[i].push(last[i].map_or(t, |l| t - l - 1));
                        last[i] = Some(t);
                    }
                }
            }
            for (i, &p) in ps.iter().enumerate() {
                let sigma = (CYCLES as f64 * p * (1.0 - p)).sqrt();
                for (model, gaps) in [("geometric", &geometric[i]), ("bernoulli", &bernoulli[i])] {
                    let at = format!("{model} p = {p} seed {seed}");
                    let spikes = gaps.len() as f64;
                    assert!((spikes - p * CYCLES as f64).abs() <= 4.0 * sigma, "{at}: {spikes}");
                    if p >= 0.1 {
                        let (chi, critical) = chi_square(gaps, p);
                        assert!(chi < critical, "{at}: χ² {chi} ≥ {critical}");
                    }
                }
            }
        }
    }

    #[test]
    fn ln_matches_std_to_1e_14() {
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-14 * want.abs();
        let mut pick = ChaCha8Rng::seed_from_u64(7);
        let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
        let mut xs = vec![UNIT, 1.0 - UNIT, 0.5, 1.0, 2.0, f64::MIN_POSITIVE, f64::MAX];
        xs.extend(
            [sqrt_half, std::f64::consts::SQRT_2].map(|r| [r.next_down(), r, r.next_up()]).concat(),
        );
        // Every normal binade, and the gap draws' own grid.
        xs.extend((0..50_000).map(|_| {
            f64::from_bits(pick.gen_range(f64::MIN_POSITIVE.to_bits()..f64::MAX.to_bits()))
        }));
        xs.extend((0..50_000).map(|_| ((pick.next_u64() >> 11) + 1) as f64 * UNIT));
        for x in xs {
            assert!(close(ln(x), x.ln()), "ln({x:e}) = {:e}, std {:e}", ln(x), x.ln());
        }
        let mut ps = vec![0.0, UNIT, 1e-300, 0.5f64.next_down(), 0.5, 1.0 - UNIT];
        ps.extend((0..50_000).map(|_| pick.gen::<f64>()));
        ps.extend((0..50_000).map(|_| {
            f64::from_bits(pick.gen_range(f64::MIN_POSITIVE.to_bits()..0.5f64.to_bits()))
        }));
        for p in ps {
            let want = (-p).ln_1p();
            assert!(close(ln_1m(p), want), "ln(1 - {p:e}) = {:e}, std {want:e}", ln_1m(p));
        }
        assert_eq!(inv_ln_q(1.0), 0.0);
    }

    #[test]
    fn a_tiny_rate_saturates_its_gap() {
        for p in [f64::from_bits(1), f64::MIN_POSITIVE, 1e-300, UNIT / 128.0] {
            let inv = inv_ln_q(p);
            assert!(inv.is_finite() && inv < 0.0, "p = {p:e}: {inv}");
            // U = 2^-53, the longest gap, saturates; U = 1 is a gap of 0.
            assert_eq!(gap(&mut Word(0), inv), u64::MAX, "p = {p:e}");
            assert_eq!(gap(&mut Word(u64::MAX), inv), 0, "p = {p:e}");
            // Scheduled, such a flow draws once and drops out.
            let traffic = PcnTraffic::from_rates([(Coord::new(0, 0), Coord::new(0, 1), p)], 3);
            let mut rng = traffic.rng.clone();
            schedule(&traffic.flows, &mut rng, 1000, |due| assert!(due.is_empty(), "p = {p:e}"));
            let mut once = traffic.rng.clone();
            once.next_u64();
            assert_eq!(rng.next_u64(), once.next_u64(), "p = {p:e}");
        }
    }

    #[test]
    fn refused_flows_keep_their_draws() {
        // A dead source core refuses the first flow, 0 -> 1. It must still
        // draw, or every later flow's injections would shift.
        let (pcn, p) = setup();
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
        let (pcn, p) = setup();
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
