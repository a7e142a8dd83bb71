//! A naive reference Force-Directed engine, written straight from
//! Algorithm 3 and eqs. 27–30, checked against [`force_directed`].
//!
//! The reference keeps no forces, moments, caches or stamps. Every sweep
//! it scores every adjacent core pair by the system-energy delta of a
//! trial swap (eq. 30 in its exact form: the two forces of eq. 27 with
//! the mutual edge counted once), queues the positive ones, takes the
//! top-λ by (tension descending, pair key ascending) and rechecks each
//! pair with another trial swap just before swapping it. Weights lie on
//! a coarse dyadic grid, so every energy and every delta below is exact
//! in `f64`, and the optimized engine must reproduce the placement, the
//! sweep count and the swap count exactly.

use proptest::prelude::*;
use snnmap_core::{force_directed, FdConfig, FdRunOpts, FdStats, Potential};
use snnmap_hw::{Board, Coord, CoreConstraints, FaultMap, Mesh, Placement};
use snnmap_model::{Pcn, PcnBuilder};
use snnmap_trace::NoopSink;

/// Tensions at or below this are zero: a swap must strictly lower the
/// energy (eq. 31). The engine uses the same threshold.
const TENSION_EPS: f64 = 1e-9;

/// The four potentials, eq. 25's with dyadic coefficients so that its
/// energies stay exact too.
const POTENTIALS: [Potential; 4] = [
    Potential::L1,
    Potential::L1Squared,
    Potential::L2Squared,
    Potential::EnergyModel { en_r: 1.5, en_w: 0.25 },
];

/// One random instance: a PCN, a 2×2-chip board over its mesh, and the
/// masks the run is restricted by.
#[derive(Debug, Clone)]
struct Instance {
    chip: (u16, u16),
    /// Neurons per cluster (1 or 6; a small core admits at most 4).
    neurons: Vec<u32>,
    /// `(from, to, weight in quarters)`.
    edges: Vec<(u32, u32, u8)>,
    /// Mesh indices of dead cores (taken modulo the mesh size).
    dead: Vec<usize>,
    /// Mesh indices of cores that admit only 4 neurons.
    small: Vec<usize>,
    /// Mesh indices outside the swap region.
    frozen: Vec<usize>,
    use_faults: bool,
    use_board: bool,
    use_region: bool,
    lambda: f64,
    seed: u64,
}

fn instance() -> impl Strategy<Value = Instance> {
    let layout = (
        (2u16..=3, 2u16..=3),
        prop::collection::vec(0u8..4, 6..24),
        prop::collection::vec((0u32..24, 0u32..24, 1u8..=16), 0..70),
    );
    let masks = (
        prop::collection::vec(0usize..36, 0..4),
        prop::collection::vec(0usize..36, 0..8),
        prop::collection::vec(0usize..36, 0..6),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    );
    let run = (prop_oneof![Just(0.1), Just(0.3), Just(0.5), Just(1.0)], any::<u64>());
    (layout, masks, run).prop_map(
        |((chip, sizes, edges), (dead, small, frozen, on), (lambda, seed))| {
            // Leave at least six cores free so a feasible start exists.
            let n = sizes.len().min(4 * chip.0 as usize * chip.1 as usize - 6);
            Instance {
                chip,
                neurons: sizes[..n].iter().map(|&s| if s == 0 { 6 } else { 1 }).collect(),
                edges: edges.into_iter().map(|(a, b, w)| (a % n as u32, b % n as u32, w)).collect(),
                dead,
                small,
                frozen,
                use_faults: on.0,
                use_board: on.1,
                use_region: on.2,
                lambda,
                seed,
            }
        },
    )
}

/// The hardware of an instance: its mesh, fault map, board and region
/// mask (each restriction present only if the instance asks for it).
struct Hardware {
    mesh: Mesh,
    faults: Option<FaultMap>,
    board: Option<Board>,
    region: Option<Vec<bool>>,
}

impl Instance {
    fn pcn(&self) -> Pcn {
        let mut b = PcnBuilder::new();
        for &n in &self.neurons {
            b.add_cluster(n, 16);
        }
        for &(from, to, q) in &self.edges {
            b.add_edge(from, to, f32::from(q) / 4.0).unwrap();
        }
        b.build().unwrap()
    }

    fn hardware(&self) -> Hardware {
        let (r, c) = self.chip;
        let mut board = Board::parse(&format!("2x2/{r}x{c}@16,4096")).unwrap();
        let mesh = board.mesh();
        let at = |i: &usize| mesh.coord_of_index(i % mesh.len());
        let small = CoreConstraints::new(4, 4096).unwrap();
        for i in &self.small {
            board.set_constraints(at(i), small).unwrap();
        }
        let mut fm = FaultMap::new(mesh);
        for i in &self.dead {
            fm.kill_core(at(i)).unwrap();
        }
        let mut region = vec![true; mesh.len()];
        for i in &self.frozen {
            region[i % mesh.len()] = false;
        }
        Hardware {
            mesh,
            faults: self.use_faults.then_some(fm),
            board: self.use_board.then_some(board),
            region: self.use_region.then_some(region),
        }
    }
}

/// Places clusters in id order, each on the first core of a seeded
/// shuffle that is alive, free and admits it; `None` if some cluster
/// finds no such core.
fn feasible_placement(pcn: &Pcn, hw: &Hardware, seed: u64) -> Option<Placement> {
    let mut cores: Vec<Coord> =
        hw.mesh.iter().filter(|&c| !hw.faults.as_ref().is_some_and(|f| f.is_dead(c))).collect();
    let mut s = seed | 1;
    for i in (1..cores.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        cores.swap(i, (s % (i as u64 + 1)) as usize);
    }
    let mut p = Placement::new_unplaced(hw.mesh, pcn.num_clusters());
    for c in 0..pcn.num_clusters() {
        let at = cores.iter().position(|&k| {
            hw.board.as_ref().map_or(true, |b| b.admits(k, pcn.neurons_in(c), pcn.synapses_in(c)))
        })?;
        p.place(c, cores.remove(at)).unwrap();
    }
    Some(p)
}

/// The reference engine's whole state: who sits where.
struct Reference<'a> {
    pcn: &'a Pcn,
    hw: &'a Hardware,
    potential: Potential,
    /// `occ[p]`: the cluster on mesh index `p`.
    occ: Vec<Option<u32>>,
    /// `at[c]`: the coordinate of cluster `c`.
    at: Vec<Coord>,
}

impl Reference<'_> {
    /// System energy (eq. 23): every connection's weight times the
    /// potential of its displacement.
    fn energy(&self) -> f64 {
        let mut e = 0.0;
        for c in 0..self.pcn.num_clusters() {
            for (t, w) in self.pcn.out_edges(c) {
                let (a, b) = (self.at[c as usize], self.at[t as usize]);
                let (dx, dy) = (i32::from(a.x) - i32::from(b.x), i32::from(a.y) - i32::from(b.y));
                e += f64::from(w) * self.potential.value(dx, dy);
            }
        }
        e
    }

    /// The adjacent pair of `key`: mesh index `p` and its DOWN (even key)
    /// or RIGHT (odd key) neighbour, if inside the mesh.
    fn pair(&self, key: u64) -> Option<(usize, usize)> {
        let mesh = self.hw.mesh;
        let p = (key >> 1) as usize;
        let c = mesh.coord_of_index(p);
        let q = if key & 1 == 0 {
            (c.x + 1 < mesh.rows()).then(|| Coord::new(c.x + 1, c.y))
        } else {
            (c.y + 1 < mesh.cols()).then(|| Coord::new(c.x, c.y + 1))
        }?;
        Some((p, mesh.index_of(q)))
    }

    /// Whether the pair `(p, q)` may swap at all: both cores alive and
    /// inside the region, one occupied, and each occupant admitted by
    /// the core it would land on.
    fn legal(&self, p: usize, q: usize) -> bool {
        let mesh = self.hw.mesh;
        let (cp, cq) = (mesh.coord_of_index(p), mesh.coord_of_index(q));
        if let Some(f) = &self.hw.faults {
            if f.is_dead(cp) || f.is_dead(cq) {
                return false;
            }
        }
        if let Some(r) = &self.hw.region {
            if !r[p] || !r[q] {
                return false;
            }
        }
        if self.occ[p].is_none() && self.occ[q].is_none() {
            return false;
        }
        if let Some(b) = &self.hw.board {
            let admits = |c: Option<u32>, to: Coord| {
                c.map_or(true, |c| b.admits(to, self.pcn.neurons_in(c), self.pcn.synapses_in(c)))
            };
            if !admits(self.occ[p], cq) || !admits(self.occ[q], cp) {
                return false;
            }
        }
        true
    }

    fn swap(&mut self, p: usize, q: usize) {
        let mesh = self.hw.mesh;
        self.occ.swap(p, q);
        for i in [p, q] {
            if let Some(c) = self.occ[i] {
                self.at[c as usize] = mesh.coord_of_index(i);
            }
        }
    }

    /// Tension of `key` (eq. 30): the energy its swap would remove, by
    /// trial; zero for a pair that may not swap.
    fn tension(&mut self, key: u64) -> f64 {
        let Some((p, q)) = self.pair(key) else { return 0.0 };
        if !self.legal(p, q) {
            return 0.0;
        }
        let before = self.energy();
        self.swap(p, q);
        let after = self.energy();
        self.swap(p, q);
        before - after
    }

    /// Algorithm 3: sweep until no pair carries positive tension.
    /// Returns `(sweeps, swaps)`.
    fn run(&mut self, lambda: f64) -> (u64, u64) {
        let (mut sweeps, mut swaps) = (0, 0);
        loop {
            let mut queue: Vec<(f64, u64)> = (0..2 * self.hw.mesh.len() as u64)
                .map(|key| (self.tension(key), key))
                .filter(|&(t, _)| t > TENSION_EPS)
                .collect();
            if queue.is_empty() {
                return (sweeps, swaps);
            }
            sweeps += 1;
            queue.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            let take = ((lambda * queue.len() as f64).ceil() as usize).clamp(1, queue.len());
            for &(_, key) in &queue[..take] {
                if self.tension(key) > TENSION_EPS {
                    let (p, q) = self.pair(key).unwrap();
                    self.swap(p, q);
                    swaps += 1;
                }
            }
        }
    }
}

/// Runs the reference on `start` and returns its final placement and
/// `(sweeps, swaps)`.
fn reference(
    pcn: &Pcn,
    hw: &Hardware,
    start: &Placement,
    potential: Potential,
    lambda: f64,
) -> (Placement, (u64, u64)) {
    let mut occ = vec![None; hw.mesh.len()];
    let mut at = Vec::new();
    for c in 0..pcn.num_clusters() {
        let coord = start.coord_of(c).unwrap();
        occ[hw.mesh.index_of(coord)] = Some(c);
        at.push(coord);
    }
    let mut r = Reference { pcn, hw, potential, occ, at };
    let counts = r.run(lambda);
    let mut out = start.clone();
    out.set_coords(&r.at).unwrap();
    (out, counts)
}

fn engine(
    pcn: &Pcn,
    hw: &Hardware,
    start: &Placement,
    potential: Potential,
    lambda: f64,
) -> (Placement, FdStats) {
    let mut p = start.clone();
    let cfg = FdConfig { potential, lambda, threads: 1, ..FdConfig::default() };
    let mut opts = FdRunOpts { region: hw.region.clone(), ..FdRunOpts::default() };
    let stats = force_directed(
        pcn,
        &mut p,
        &cfg,
        hw.faults.as_ref(),
        hw.board.as_ref(),
        &mut opts,
        &mut NoopSink,
    )
    .unwrap();
    (p, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The optimized engine makes exactly the reference's moves: same
    /// placement, sweeps and swaps, under every potential.
    #[test]
    fn force_directed_matches_the_naive_reference(inst in instance()) {
        let pcn = inst.pcn();
        let hw = inst.hardware();
        // A rare instance packs its large clusters onto too few cores;
        // it has no feasible start and is redrawn.
        let Some(start) = feasible_placement(&pcn, &hw, inst.seed) else {
            return Err(TestCaseError::reject("no feasible start"));
        };
        for potential in POTENTIALS {
            let (want, (sweeps, swaps)) = reference(&pcn, &hw, &start, potential, inst.lambda);
            let (got, stats) = engine(&pcn, &hw, &start, potential, inst.lambda);
            prop_assert!(stats.converged);
            prop_assert_eq!((stats.iterations, stats.swaps), (sweeps, swaps), "{:?}", potential);
            prop_assert_eq!(&got, &want, "{:?}", potential);
        }
    }
}

/// A fixed instance with every restriction on, so the comparison above
/// is known to cover faults, capacities and a region together.
#[test]
fn every_restriction_at_once_matches_the_reference() {
    let inst = Instance {
        chip: (3, 3),
        neurons: (0..24).map(|c| if c % 4 == 0 { 6 } else { 1 }).collect(),
        edges: (0..60u32).map(|i| (i % 24, (i * 7 + 3) % 24, (i % 16 + 1) as u8)).collect(),
        dead: vec![4, 17, 30],
        small: vec![0, 7, 14, 21, 28, 35],
        frozen: vec![5, 11, 23],
        use_faults: true,
        use_board: true,
        use_region: true,
        lambda: 0.3,
        seed: 7,
    };
    let pcn = inst.pcn();
    let hw = inst.hardware();
    let start = feasible_placement(&pcn, &hw, inst.seed).unwrap();
    for potential in POTENTIALS {
        let (want, (sweeps, swaps)) = reference(&pcn, &hw, &start, potential, inst.lambda);
        let (got, stats) = engine(&pcn, &hw, &start, potential, inst.lambda);
        assert!(swaps > 10, "{potential:?}: only {swaps} swaps");
        assert_eq!((stats.iterations, stats.swaps), (sweeps, swaps), "{potential:?}");
        assert_eq!(got, want, "{potential:?}");
    }
}
