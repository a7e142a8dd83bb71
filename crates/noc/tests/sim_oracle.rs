//! `NocSim` against a deliberately naive reference simulator.
//!
//! The reference is the simulator's semantics written the plain way:
//! every router is visited every cycle, each head packet is routed once
//! per cycle in input-port order (so `RandomMinimal` draws the same
//! choices), and every output scans the input ports from its
//! round-robin pointer, skipping ports already popped this cycle.
//! Queues are `VecDeque`s, neighbours come from coordinates. The
//! property: on random meshes, queue depths and injection bursts, every
//! `NocStats` field, the cycle count, the packets in flight and `drain`'s
//! verdict agree after every step.

use std::collections::VecDeque;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snnmap_hw::{Coord, Mesh};
use snnmap_noc::{NocConfig, NocSim, NocStats, Routing};

const PORTS: usize = 5;
const LOCAL: usize = 0;
const EJECT: usize = 4;

#[derive(Clone, Copy)]
struct Packet {
    src: Coord,
    dst: Coord,
    injected_at: u64,
    hops: u32,
}

struct Reference {
    mesh: Mesh,
    config: NocConfig,
    rng: ChaCha8Rng,
    queues: Vec<[VecDeque<Packet>; PORTS]>,
    rr: Vec<[usize; PORTS]>,
    cycle: u64,
    in_flight: u64,
    stats: NocStats,
}

impl Reference {
    fn new(mesh: Mesh, config: NocConfig) -> Self {
        Self {
            mesh,
            config,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            queues: (0..mesh.len()).map(|_| Default::default()).collect(),
            rr: vec![[0; PORTS]; mesh.len()],
            cycle: 0,
            in_flight: 0,
            stats: NocStats {
                delivered: 0,
                injected: 0,
                rejected: 0,
                total_latency: 0,
                max_latency: 0,
                detour_hops: 0,
                traversals: vec![0; mesh.len()],
                interchip_traversals: 0,
            },
        }
    }

    fn inject(&mut self, src: Coord, dst: Coord) -> bool {
        let q = &mut self.queues[self.mesh.index_of(src)][LOCAL];
        if q.len() >= self.config.queue_capacity {
            self.stats.rejected += 1;
            return false;
        }
        q.push_back(Packet { src, dst, injected_at: self.cycle, hops: 0 });
        self.stats.injected += 1;
        self.in_flight += 1;
        true
    }

    /// Output 0..4 = toward x−1, x+1, y−1, y+1; 4 ejects.
    fn route(&mut self, at: Coord, dst: Coord) -> usize {
        if at == dst {
            return EJECT;
        }
        let dx = i32::from(dst.x) - i32::from(at.x);
        let dy = i32::from(dst.y) - i32::from(at.y);
        let x_out = if dx < 0 { 0 } else { 1 };
        let y_out = if dy < 0 { 2 } else { 3 };
        let take_x = match self.config.routing {
            Routing::Xy => dx != 0,
            Routing::RandomMinimal => dy == 0 || (dx != 0 && self.rng.gen_bool(0.5)),
        };
        if take_x {
            x_out
        } else {
            y_out
        }
    }

    /// The neighbour an output leads to, and the input port it arrives on.
    fn link(&self, at: Coord, out: usize) -> (usize, usize) {
        let (to, port) = match out {
            0 => (Coord::new(at.x - 1, at.y), 2),
            1 => (Coord::new(at.x + 1, at.y), 1),
            2 => (Coord::new(at.x, at.y - 1), 4),
            _ => (Coord::new(at.x, at.y + 1), 3),
        };
        (self.mesh.index_of(to), port)
    }

    fn step(&mut self) -> bool {
        let mut moves = Vec::new();
        let mut incoming = vec![[0usize; PORTS]; self.mesh.len()];
        for r in 0..self.mesh.len() {
            let at = self.mesh.coord_of_index(r);
            let mut desire = [usize::MAX; PORTS];
            for (p, want) in desire.iter_mut().enumerate() {
                if let Some(dst) = self.queues[r][p].front().map(|pkt| pkt.dst) {
                    *want = self.route(at, dst);
                }
            }
            let mut popped = [false; PORTS];
            for out in 0..PORTS {
                let start = self.rr[r][out];
                let Some(p) = (0..PORTS)
                    .map(|k| (start + k) % PORTS)
                    .find(|&p| !popped[p] && desire[p] == out)
                else {
                    continue;
                };
                if out == EJECT {
                    let pkt = self.queues[r][p].pop_front().unwrap();
                    let latency = self.cycle - pkt.injected_at + 1;
                    self.stats.traversals[r] += 1;
                    self.stats.delivered += 1;
                    self.stats.total_latency += latency;
                    self.stats.max_latency = self.stats.max_latency.max(latency);
                    self.stats.detour_hops +=
                        u64::from(pkt.hops.saturating_sub(pkt.src.manhattan(pkt.dst)));
                    self.in_flight -= 1;
                } else {
                    let (to, port) = self.link(at, out);
                    let held = self.queues[to][port].len() + incoming[to][port];
                    if held >= self.config.queue_capacity {
                        continue;
                    }
                    incoming[to][port] += 1;
                    moves.push((r, p, to, port));
                }
                popped[p] = true;
                self.rr[r][out] = (p + 1) % PORTS;
            }
        }
        for &(r, p, to, port) in &moves {
            let mut pkt = self.queues[r][p].pop_front().unwrap();
            pkt.hops += 1;
            self.stats.traversals[r] += 1;
            self.queues[to][port].push_back(pkt);
        }
        self.cycle += 1;
        !moves.is_empty()
    }

    /// Steps until empty, `max_cycles`, or a full mesh-diameter window in
    /// which nothing moved or delivered.
    fn drain(&mut self, max_cycles: u64) -> bool {
        let window = u64::from(self.mesh.rows()) + u64::from(self.mesh.cols()) + 1;
        let mut stalled = 0;
        for _ in 0..max_cycles {
            if self.in_flight == 0 {
                return true;
            }
            let delivered = self.stats.delivered;
            if self.step() || self.stats.delivered > delivered {
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= window {
                    return false;
                }
            }
        }
        self.in_flight == 0
    }
}

/// Both simulators agree on everything observable.
fn same(sim: &NocSim, reference: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(sim.stats(), &reference.stats);
    prop_assert_eq!(sim.cycle(), reference.cycle);
    prop_assert_eq!(sim.in_flight(), reference.in_flight);
    Ok(())
}

/// One packet's raw endpoints `(sx, sy, tx, ty)`; the test reduces them
/// modulo the mesh's sides.
fn packet() -> impl Strategy<Value = (u16, u16, u16, u16)> {
    (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sim_matches_the_naive_reference(
        rows in 1u16..=9,
        cols in 1u16..=9,
        line in 0u8..4,
        queue_capacity in 1usize..=8,
        xy in any::<bool>(),
        seed in any::<u64>(),
        bursts in prop::collection::vec((prop::collection::vec(packet(), 0..48), 0u8..6), 1..24),
        drain_cycles in 0u64..400,
        cut_short in 0u8..4,
    ) {
        // One drain in four gets too few cycles to empty the network.
        let drain_cycles = if cut_short == 0 { drain_cycles % 4 } else { drain_cycles };
        // One case in four is a single row or column.
        let (rows, cols) = match line {
            0 => (1, cols),
            1 => (rows, 1),
            _ => (rows, cols),
        };
        let mesh = Mesh::new(rows, cols).unwrap();
        let routing = if xy { Routing::Xy } else { Routing::RandomMinimal };
        let config = NocConfig { queue_capacity, routing, seed };
        let mut sim = NocSim::new(mesh, config);
        let mut reference = Reference::new(mesh, config);
        for (packets, gap) in bursts {
            for (sx, sy, tx, ty) in packets {
                let src = Coord::new(sx % rows, sy % cols);
                let dst = Coord::new(tx % rows, ty % cols);
                prop_assert_eq!(sim.inject(src, dst).unwrap(), reference.inject(src, dst));
            }
            for _ in 0..=gap {
                sim.step();
                reference.step();
                same(&sim, &reference)?;
            }
        }
        prop_assert_eq!(sim.drain(drain_cycles), reference.drain(drain_cycles));
        same(&sim, &reference)?;
    }
}

/// The deadlock of `PcnTraffic`'s own unit test: a 120-cluster PCN laid
/// row by row on 12×12, replayed for 256 cycles at scale 0.05 under
/// `RandomMinimal`, wedges with packets in flight. Both simulators see
/// the same injections (the replay's Bernoulli draws, written out) and
/// must give up at the same cycle with the same counts.
#[test]
fn reference_agrees_on_a_replay_that_deadlocks() {
    let pcn = snnmap_model::generators::random_pcn(120, 4.0, 5).unwrap();
    let mesh = Mesh::new(12, 12).unwrap();
    let config = NocConfig { queue_capacity: 8, routing: Routing::RandomMinimal, seed: 7 };
    let mut sim = NocSim::new(mesh, config);
    let mut reference = Reference::new(mesh, config);
    let at = |c: u32| mesh.coord_of_index(c as usize);
    let flows: Vec<(Coord, Coord, f64)> = pcn
        .iter_edges()
        .map(|(s, t, w)| (at(s), at(t), (f64::from(w) * 0.05).min(1.0)))
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for _ in 0..256 {
        for &(src, dst, p) in &flows {
            if p > 0.0 && rng.gen_bool(p) {
                assert_eq!(sim.inject(src, dst).unwrap(), reference.inject(src, dst));
            }
        }
        sim.step();
        reference.step();
    }
    let bound = 1000 + 10 * 256 * 24;
    assert!(!reference.drain(bound), "the reference drained a deadlocked replay");
    assert!(!sim.drain(bound));
    assert_eq!(sim.stats(), &reference.stats);
    assert_eq!((sim.cycle(), sim.in_flight()), (reference.cycle, reference.in_flight));
    assert_eq!((sim.stats().injected, sim.stats().delivered), (7_260, 4_346));
}
