//! The cycle-driven mesh simulator.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snnmap_hw::{Board, ChipId, Coord, FaultMap, Mesh};
use snnmap_trace::{NocEvent, TraceEvent, TraceSink};

use crate::{NocError, NocStats};

/// Input ports of a router. `LOCAL` receives injections from the bound
/// core; the four directional ports receive from mesh neighbours.
const LOCAL: usize = 0;
const NORTH: usize = 1; // from x−1
const SOUTH: usize = 2; // from x+1
const WEST: usize = 3; // from y−1
const EAST: usize = 4; // from y+1
const NUM_PORTS: usize = 5;
/// All input ports of a request mask.
const PORT_MASK: u32 = (1 << NUM_PORTS) - 1;

/// Output directions (EJECT delivers to the bound core).
const OUT_NORTH: usize = 0; // toward x−1
const OUT_SOUTH: usize = 1; // toward x+1
const OUT_WEST: usize = 2; // toward y−1
const OUT_EAST: usize = 3; // toward y+1
const OUT_EJECT: usize = 4;
const NUM_OUTS: usize = 5;

/// Routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routing {
    /// Deterministic dimension-ordered routing: resolve the row (x)
    /// offset first, then the column (y). Deadlock-free.
    Xy,
    /// Random minimal ("staircase") routing: at every router with both
    /// offsets unresolved, pick one of the two productive directions
    /// uniformly — the executable counterpart of the paper's `Expe`
    /// congestion model (Algorithm 4). The choice is re-drawn on every
    /// blocked attempt, which in practice avoids the cyclic waits
    /// adaptive minimal routing can otherwise produce.
    RandomMinimal,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Per-input-port FIFO depth; full queues exert backpressure.
    pub queue_capacity: usize,
    /// Routing policy.
    pub routing: Routing,
    /// RNG seed (used by [`Routing::RandomMinimal`]).
    pub seed: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        Self { queue_capacity: 8, routing: Routing::Xy, seed: 0 }
    }
}

/// Marks a `(router, destination)` table entry with no healthy path.
const NH_UNREACHABLE: u8 = u8::MAX;

/// A single-flit spike in flight: 16 bytes, so a queue slot is a
/// quarter of a cache line.
#[derive(Debug, Clone, Copy)]
struct Packet {
    dst: Coord,
    /// Router-to-router moves taken so far, less the fault-free minimum
    /// (`src.manhattan(dst)`): it starts at minus that distance, so on
    /// delivery its positive part is the detour, and the packet need
    /// not carry its source.
    hops: i32,
    injected_at: u64,
}

const _: () = assert!(std::mem::size_of::<Packet>() == 16);

#[derive(Debug, Default)]
struct Router {
    inputs: [VecDeque<Packet>; NUM_PORTS],
    /// Round-robin arbitration pointer per output.
    rr: [u8; NUM_OUTS],
}

/// A cycle-driven simulator of the paper's hardware model (§3.1): a 2D
/// mesh of routers with bidirectional links, bounded input FIFOs,
/// round-robin arbitration and one packet per output port per cycle.
///
/// Each spike is a single-flit packet. A packet traverses one router per
/// cycle when unblocked, so an unloaded `d`-hop route delivers in `d + 1`
/// cycles — matching the analytic latency `(d+1)·L_r + d·L_w` for
/// `L_r = 1` up to the small wire term.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct NocSim {
    mesh: Mesh,
    /// `coords[r]`: router `r`'s mesh coordinate (row-major index order).
    coords: Vec<Coord>,
    routers: Vec<Router>,
    cycle: u64,
    in_flight: u64,
    config: NocConfig,
    rng: ChaCha8Rng,
    stats: NocStats,
    /// Scratch: staged moves `(from_slot, to_router, to_port)`, where
    /// `from_slot = from_router · NUM_PORTS + input port`.
    moves: Vec<(usize, usize, usize)>,
    /// Scratch: staged incoming counts per (router, port); all zero
    /// between cycles.
    incoming: Vec<u8>,
    /// `queued[r]`: packets waiting in router `r`'s input queues. A
    /// cycle skips routers with none.
    queued: Vec<u32>,
    /// `dead[r]`: router `r` sits on a dead core (empty when fault-free).
    dead: Vec<bool>,
    /// Fault-aware routing table: `next_hop[dst_idx * n + r]` is the
    /// output direction at router `r` toward destination `dst_idx`,
    /// [`NH_UNREACHABLE`] when no healthy path exists. `None` on
    /// fault-free networks (minimal routing needs no table).
    next_hop: Option<Vec<u8>>,
    /// `chip[r]`: the chip owning router `r` (empty on boardless
    /// networks). Used to count inter-chip link traversals.
    chip: Vec<ChipId>,
}

impl NocSim {
    /// Creates an idle network.
    pub fn new(mesh: Mesh, config: NocConfig) -> Self {
        assert!(config.queue_capacity > 0, "queues need capacity");
        let n = mesh.len();
        Self {
            mesh,
            coords: mesh.coord_table(),
            routers: (0..n).map(|_| Router::default()).collect(),
            cycle: 0,
            in_flight: 0,
            config,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            stats: NocStats::new(mesh),
            moves: Vec::new(),
            incoming: vec![0; n * NUM_PORTS],
            queued: vec![0; n],
            dead: Vec::new(),
            next_hop: None,
            chip: Vec::new(),
        }
    }

    /// Creates an idle network over faulty hardware: packets are refused
    /// at dead cores, and routing follows precomputed shortest paths over
    /// the *healthy* subgraph (healthy cores, healthy links). Where the
    /// fault-free minimal route survives, it is preferred — XY order —
    /// so a fault-free map routes identically to [`Routing::Xy`]; around
    /// faults the path detours, and the extra hops are counted in
    /// [`NocStats::detour_hops`]. The configured [`Routing`] policy is
    /// overridden by the table.
    ///
    /// # Errors
    ///
    /// [`NocError::MeshMismatch`] when the fault map covers a different
    /// mesh.
    pub fn with_faults(
        mesh: Mesh,
        config: NocConfig,
        faults: &FaultMap,
    ) -> Result<Self, NocError> {
        if faults.mesh() != mesh {
            return Err(NocError::MeshMismatch { sim: mesh, faults: faults.mesh() });
        }
        let mut sim = Self::new(mesh, config);
        sim.dead = mesh.iter().map(|c| faults.is_dead(c)).collect();
        sim.next_hop = Some(build_next_hop(mesh, Some(faults), None));
        Ok(sim)
    }

    /// Creates an idle network over a multi-chip board, optionally
    /// degraded by a fault map. Inter-chip links are the expensive
    /// resource, so routing minimizes boundary crossings *first* and hop
    /// count second: on a healthy board every route still takes its
    /// Manhattan minimum of hops (a monotone path cannot avoid the
    /// boundaries between its endpoints' chips), but detours forced by
    /// faults stay inside the packet's chip row/column wherever a
    /// same-length alternative exists. Crossings are counted in
    /// [`NocStats::interchip_traversals`]. Dead cores refuse traffic as
    /// in [`NocSim::with_faults`].
    ///
    /// # Errors
    ///
    /// [`NocError::BoardMismatch`] when the board covers a different mesh,
    /// [`NocError::MeshMismatch`] when the fault map does.
    pub fn with_board(
        mesh: Mesh,
        config: NocConfig,
        faults: Option<&FaultMap>,
        board: &Board,
    ) -> Result<Self, NocError> {
        if board.mesh() != mesh {
            return Err(NocError::BoardMismatch { sim: mesh, board: board.mesh() });
        }
        if let Some(fm) = faults {
            if fm.mesh() != mesh {
                return Err(NocError::MeshMismatch { sim: mesh, faults: fm.mesh() });
            }
        }
        let mut sim = Self::new(mesh, config);
        if let Some(fm) = faults {
            sim.dead = mesh.iter().map(|c| fm.is_dead(c)).collect();
        }
        sim.next_hop = Some(build_next_hop(mesh, faults, Some(board)));
        sim.chip = board.chip_table();
        Ok(sim)
    }

    /// The simulated mesh.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Packets currently queued in the network.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Emits the simulator's counters as a single `noc` trace event
    /// (cycles, injected/delivered/rejected packets, link traversals,
    /// latency totals, detour hops).
    ///
    /// Guarded by [`TraceSink::enabled`], so a
    /// [`snnmap_trace::NoopSink`] costs nothing; call it at whatever
    /// cadence the analysis needs — once after [`NocSim::drain`] for a
    /// run summary, or every N cycles for a time series.
    pub fn record_trace<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        if !sink.enabled() {
            return;
        }
        sink.record(&TraceEvent::Noc(NocEvent {
            cycles: self.cycle,
            injected: self.stats.injected,
            delivered: self.stats.delivered,
            rejected: self.stats.rejected,
            traversals: self.stats.traversals.iter().sum(),
            total_latency: self.stats.total_latency,
            max_latency: self.stats.max_latency,
            detour_hops: self.stats.detour_hops,
        }));
    }

    /// Injects one spike from the core at `src` toward the core at `dst`.
    /// Returns `Ok(false)` (and counts a rejection) when the source's
    /// local queue is full — backpressure reaching the core.
    ///
    /// # Errors
    ///
    /// [`NocError::OutOfBounds`] when either coordinate is outside the
    /// mesh; on a fault-aware network (see [`NocSim::with_faults`]),
    /// [`NocError::DeadCore`] when either endpoint is dead and
    /// [`NocError::Unroutable`] when the fault pattern disconnects them.
    pub fn inject(&mut self, src: Coord, dst: Coord) -> Result<bool, NocError> {
        self.admit(src, dst)?;
        Ok(self.push_local(src, dst))
    }

    /// Whether the network accepts spikes from `src` to `dst` at all —
    /// every check of [`NocSim::inject`] except the queue's room. Mesh
    /// and faults are static, so one answer holds for the whole run.
    pub(crate) fn admit(&self, src: Coord, dst: Coord) -> Result<(), NocError> {
        for c in [src, dst] {
            if !self.mesh.contains(c) {
                return Err(NocError::OutOfBounds { coord: c });
            }
        }
        if !self.dead.is_empty() {
            for c in [src, dst] {
                if self.dead[self.mesh.index_of(c)] {
                    return Err(NocError::DeadCore { coord: c });
                }
            }
        }
        if let Some(table) = &self.next_hop {
            let r = self.mesh.index_of(src);
            if table[self.mesh.index_of(dst) * self.mesh.len() + r] == NH_UNREACHABLE {
                return Err(NocError::Unroutable { src, dst });
            }
        }
        Ok(())
    }

    /// Queues a spike of an admitted pair (see [`NocSim::admit`]) at its
    /// source's local port; `false` (a counted rejection) when that
    /// queue is full.
    pub(crate) fn push_local(&mut self, src: Coord, dst: Coord) -> bool {
        let r = self.mesh.index_of(src);
        let q = &mut self.routers[r].inputs[LOCAL];
        if q.len() >= self.config.queue_capacity {
            self.stats.rejected += 1;
            return false;
        }
        // A coordinate is two u16s, so the distance fits an i32.
        let hops = -(src.manhattan(dst) as i32);
        q.push_back(Packet { dst, hops, injected_at: self.cycle });
        self.queued[r] += 1;
        self.stats.injected += 1;
        self.in_flight += 1;
        true
    }

    /// Desired output port for a packet at router `r` (coordinate
    /// `here`) bound for `dst`.
    fn route(&mut self, r: usize, here: Coord, dst: Coord) -> usize {
        if here == dst {
            return OUT_EJECT;
        }
        if let Some(table) = &self.next_hop {
            let out = table[self.mesh.index_of(dst) * self.mesh.len() + r];
            // Injection rejects unroutable pairs and faults are static, so
            // every in-flight packet has a table entry at every hop.
            debug_assert_ne!(out, NH_UNREACHABLE, "in-flight packet lost its route");
            return out as usize;
        }
        let x_out = if dst.x < here.x { OUT_NORTH } else { OUT_SOUTH };
        let y_out = if dst.y < here.y { OUT_WEST } else { OUT_EAST };
        if dst.x == here.x {
            return y_out;
        }
        if dst.y == here.y {
            return x_out;
        }
        match self.config.routing {
            Routing::Xy => x_out,
            Routing::RandomMinimal => {
                if self.rng.gen_bool(0.5) {
                    x_out
                } else {
                    y_out
                }
            }
        }
    }

    /// Advances the network one cycle: every router arbitrates each
    /// output port among the input queues whose head requests it, moving
    /// at most one packet per output, subject to the downstream queue's
    /// capacity. Ejections deliver immediately.
    ///
    /// Routers are visited in ascending index order, and empty ones are
    /// skipped: an empty router routes nothing, draws no
    /// [`Routing::RandomMinimal`] choice and keeps its round-robin
    /// pointers, so a cycle costs the busy routers plus one counter scan.
    ///
    /// A busy router routes its head packets in input-port order (one
    /// [`Routing::RandomMinimal`] draw per head with both offsets
    /// unresolved) into one 5-bit request mask per output. Each output's
    /// winner is the first requesting port at or after its round-robin
    /// pointer: rotate the mask right by the pointer and take the
    /// lowest set bit. A head requests exactly one output, so no port
    /// can win twice in a cycle. Neighbours are found by index
    /// (`r ∓ cols` along x, `r ∓ 1` along y).
    pub fn step(&mut self) {
        self.moves.clear();
        let cols = self.mesh.cols() as usize;

        for r in 0..self.routers.len() {
            if self.queued[r] == 0 {
                continue;
            }
            let here = self.coords[r];
            let mut requests = [0u32; NUM_OUTS];
            for p in 0..NUM_PORTS {
                if let Some(pkt) = self.routers[r].inputs[p].front() {
                    let dst = pkt.dst;
                    requests[self.route(r, here, dst)] |= 1 << p;
                }
            }
            for (out, &mask) in requests.iter().enumerate() {
                if mask == 0 {
                    continue;
                }
                let start = usize::from(self.routers[r].rr[out]);
                let rotated = ((mask >> start) | (mask << (NUM_PORTS - start))) & PORT_MASK;
                let p = (start + rotated.trailing_zeros() as usize) % NUM_PORTS;
                if out == OUT_EJECT {
                    let pkt = self.routers[r].inputs[p].pop_front().expect("head exists");
                    self.queued[r] -= 1;
                    self.routers[r].rr[out] = ((p + 1) % NUM_PORTS) as u8;
                    self.stats.traversals[r] += 1;
                    let latency = self.cycle - pkt.injected_at + 1;
                    self.stats.delivered += 1;
                    self.stats.total_latency += latency;
                    self.stats.max_latency = self.stats.max_latency.max(latency);
                    // Path length beyond the fault-free minimum = hops
                    // forced by routing around faults.
                    self.stats.detour_hops += pkt.hops.max(0) as u64;
                    self.in_flight -= 1;
                } else {
                    // Routes never leave the mesh, so the neighbour exists.
                    let (to, in_port) = match out {
                        OUT_NORTH => (r - cols, SOUTH),
                        OUT_SOUTH => (r + cols, NORTH),
                        OUT_WEST => (r - 1, EAST),
                        _ => (r + 1, WEST),
                    };
                    let slot = to * NUM_PORTS + in_port;
                    let room = self.config.queue_capacity
                        > self.routers[to].inputs[in_port].len() + self.incoming[slot] as usize;
                    if room {
                        // Stage the move with the port to pop from; the
                        // actual pop happens in commit.
                        self.incoming[slot] += 1;
                        self.moves.push((r * NUM_PORTS + p, to, in_port));
                        self.routers[r].rr[out] = ((p + 1) % NUM_PORTS) as u8;
                    }
                }
            }
        }

        // Commit staged moves: pop from the recorded input port, push to
        // the downstream queue, and clear the staged count.
        for k in 0..self.moves.len() {
            let (from_slot, to, in_port) = self.moves[k];
            let (r, p) = (from_slot / NUM_PORTS, from_slot % NUM_PORTS);
            let mut pkt = self.routers[r].inputs[p].pop_front().expect("staged head exists");
            pkt.hops += 1;
            self.stats.traversals[r] += 1;
            if !self.chip.is_empty() && self.chip[r] != self.chip[to] {
                self.stats.interchip_traversals += 1;
            }
            self.routers[to].inputs[in_port].push_back(pkt);
            self.queued[r] -= 1;
            self.queued[to] += 1;
            self.incoming[to * NUM_PORTS + in_port] = 0;
        }

        self.cycle += 1;
    }

    /// Steps until the network is empty or `max_cycles` pass; returns
    /// whether everything was delivered.
    ///
    /// A saturated [`Routing::RandomMinimal`] network can deadlock — a
    /// cycle of full input queues whose heads each want the next full
    /// queue — and no amount of further cycles resolves it. Once no
    /// packet moves or delivers for a full mesh-diameter window the
    /// drain bails out early instead of burning the rest of the bound.
    pub fn drain(&mut self, max_cycles: u64) -> bool {
        let stall_window = u64::from(self.mesh.rows()) + u64::from(self.mesh.cols()) + 1;
        let mut stalled = 0u64;
        for _ in 0..max_cycles {
            if self.in_flight == 0 {
                return true;
            }
            let delivered_before = self.stats.delivered;
            self.step();
            if self.stats.delivered > delivered_before || !self.moves.is_empty() {
                stalled = 0;
            } else {
                stalled += 1;
                if stalled >= stall_window {
                    return false;
                }
            }
        }
        self.in_flight == 0
    }
}

/// Neighbour coordinate in an output direction, if inside the mesh.
fn neighbor_coord(mesh: Mesh, from: Coord, out: usize) -> Option<Coord> {
    let (x, y) = (from.x as i32, from.y as i32);
    let (nx, ny) = match out {
        OUT_NORTH => (x - 1, y),
        OUT_SOUTH => (x + 1, y),
        OUT_WEST => (x, y - 1),
        OUT_EAST => (x, y + 1),
        _ => return None,
    };
    if nx < 0 || ny < 0 || nx >= mesh.rows() as i32 || ny >= mesh.cols() as i32 {
        return None;
    }
    Some(Coord::new(nx as u16, ny as u16))
}

/// Builds the per-destination next-hop table over the healthy subgraph:
/// a deterministic Dijkstra per destination, then a deterministic
/// direction choice per router — the XY-preferred productive direction
/// when it lies on a cost-optimal path, else the first cost-decreasing
/// direction in N/S/W/E order. Every link costs one hop; on a `board`
/// an inter-chip link costs `n + 1` instead (more than any possible hop
/// count), so the lexicographic path cost is `(crossings, hops)` and
/// routes cross chip boundaries only when no cheaper path exists. Every
/// entry strictly decreases the distance, so routes are loop-free by
/// construction.
fn build_next_hop(mesh: Mesh, faults: Option<&FaultMap>, board: Option<&Board>) -> Vec<u8> {
    let n = mesh.len();
    let chips = board.map(Board::chip_table);
    let edge = |a: usize, b: usize| -> u64 {
        match &chips {
            Some(chips) if chips[a] != chips[b] => n as u64 + 1,
            _ => 1,
        }
    };
    let healthy = |c: Coord| faults.map_or(true, |fm| !fm.is_dead(c));
    let link_ok = |a: Coord, b: Coord| faults.map_or(true, |fm| fm.link_ok(a, b));
    let mut table = vec![NH_UNREACHABLE; n * n];
    let mut dist = vec![u64::MAX; n];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for dst_idx in 0..n {
        let dst = mesh.coord_of_index(dst_idx);
        if !healthy(dst) {
            continue;
        }
        dist.iter_mut().for_each(|d| *d = u64::MAX);
        dist[dst_idx] = 0;
        heap.clear();
        heap.push(Reverse((0, dst_idx)));
        while let Some(Reverse((d, r))) = heap.pop() {
            if d > dist[r] {
                continue;
            }
            let here = mesh.coord_of_index(r);
            for out in 0..4 {
                let Some(nc) = neighbor_coord(mesh, here, out) else { continue };
                let q = mesh.index_of(nc);
                if !healthy(nc) || !link_ok(here, nc) {
                    continue;
                }
                let nd = d + edge(r, q);
                if nd < dist[q] {
                    dist[q] = nd;
                    heap.push(Reverse((nd, q)));
                }
            }
        }
        for r in 0..n {
            if r == dst_idx {
                table[dst_idx * n + r] = OUT_EJECT as u8;
                continue;
            }
            if dist[r] == u64::MAX {
                continue;
            }
            let here = mesh.coord_of_index(r);
            for out in preferred_dirs(here, dst) {
                let Some(nc) = neighbor_coord(mesh, here, out) else { continue };
                let q = mesh.index_of(nc);
                if healthy(nc)
                    && link_ok(here, nc)
                    && dist[q] != u64::MAX
                    && dist[q] + edge(r, q) == dist[r]
                {
                    table[dst_idx * n + r] = out as u8;
                    break;
                }
            }
        }
    }
    table
}

/// Direction preference at `at` toward `dst`: the XY productive
/// directions first (x, then y — or y first when the x offset is already
/// resolved), then the remaining directions in fixed N/S/W/E order.
fn preferred_dirs(at: Coord, dst: Coord) -> [usize; 4] {
    let dx = dst.x as i32 - at.x as i32;
    let dy = dst.y as i32 - at.y as i32;
    let x_out = if dx < 0 { OUT_NORTH } else { OUT_SOUTH };
    let y_out = if dy < 0 { OUT_WEST } else { OUT_EAST };
    let mut order = [x_out, y_out, 0, 0];
    if dx == 0 {
        order.swap(0, 1);
    }
    let mut k = 2;
    for out in [OUT_NORTH, OUT_SOUTH, OUT_WEST, OUT_EAST] {
        if out != order[0] && out != order[1] {
            order[k] = out;
            k += 1;
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(rows: u16, cols: u16) -> NocSim {
        NocSim::new(Mesh::new(rows, cols).unwrap(), NocConfig::default())
    }

    #[test]
    fn single_packet_latency_is_hops_plus_one() {
        for (src, dst, d) in [
            (Coord::new(0, 0), Coord::new(0, 3), 3u64),
            (Coord::new(0, 0), Coord::new(3, 3), 6),
            (Coord::new(2, 2), Coord::new(2, 2), 0),
            (Coord::new(3, 0), Coord::new(0, 0), 3),
        ] {
            let mut s = sim(4, 4);
            s.inject(src, dst).unwrap();
            assert!(s.drain(100));
            assert_eq!(s.stats().delivered, 1);
            assert_eq!(s.stats().max_latency, d + 1, "{src} -> {dst}");
        }
    }

    #[test]
    fn record_trace_mirrors_the_stats() {
        use snnmap_trace::{MemorySink, NoopSink};
        let mut s = sim(4, 4);
        s.inject(Coord::new(0, 0), Coord::new(3, 3)).unwrap();
        s.inject(Coord::new(1, 1), Coord::new(2, 0)).unwrap();
        assert!(s.drain(100));
        s.record_trace(&mut NoopSink); // must be a no-op
        let mut sink = MemorySink::new();
        s.record_trace(&mut sink);
        assert_eq!(sink.len(), 1);
        match &sink.events()[0] {
            TraceEvent::Noc(e) => {
                assert_eq!(e.cycles, s.cycle());
                assert_eq!(e.injected, s.stats().injected);
                assert_eq!(e.delivered, 2);
                assert_eq!(e.traversals, s.stats().traversals.iter().sum::<u64>());
                assert_eq!(e.max_latency, s.stats().max_latency);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn traversals_equal_route_length() {
        let mut s = sim(5, 5);
        s.inject(Coord::new(0, 0), Coord::new(2, 3)).unwrap();
        s.drain(100);
        let total: u64 = s.stats().traversals.iter().sum();
        assert_eq!(total, 6); // 5 hops + source router
    }

    #[test]
    fn xy_route_loads_the_expected_routers() {
        let mut s = sim(4, 4);
        s.inject(Coord::new(0, 0), Coord::new(2, 2)).unwrap();
        s.drain(100);
        // XY (x first): (0,0) (1,0) (2,0) (2,1) (2,2).
        let expect = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)];
        for (x, y) in expect {
            let idx = s.mesh().index_of(Coord::new(x, y));
            assert_eq!(s.stats().traversals[idx], 1, "({x},{y})");
        }
        assert_eq!(s.stats().traversals.iter().sum::<u64>(), 5);
    }

    #[test]
    fn conservation_under_load() {
        let mut s = sim(4, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..500 {
            let src = Coord::new(rng.gen_range(0..4), rng.gen_range(0..4));
            let dst = Coord::new(rng.gen_range(0..4), rng.gen_range(0..4));
            s.inject(src, dst).unwrap();
            s.step();
        }
        assert!(s.drain(10_000));
        let st = s.stats();
        assert_eq!(st.delivered + st.rejected, 500);
        assert_eq!(st.injected, st.delivered);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn backpressure_rejects_when_local_queue_full() {
        let mut s = NocSim::new(
            Mesh::new(2, 2).unwrap(),
            NocConfig { queue_capacity: 2, ..NocConfig::default() },
        );
        let src = Coord::new(0, 0);
        let dst = Coord::new(1, 1);
        assert!(s.inject(src, dst).unwrap());
        assert!(s.inject(src, dst).unwrap());
        assert!(!s.inject(src, dst).unwrap(), "third injection must be rejected");
        assert_eq!(s.stats().rejected, 1);
        assert!(s.drain(100));
    }

    #[test]
    fn random_minimal_is_deterministic_per_seed_and_delivers() {
        let cfg = NocConfig { routing: Routing::RandomMinimal, seed: 9, queue_capacity: 8 };
        let run = || {
            let mut s = NocSim::new(Mesh::new(6, 6).unwrap(), cfg);
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            for _ in 0..200 {
                let src = Coord::new(rng.gen_range(0..6), rng.gen_range(0..6));
                let dst = Coord::new(rng.gen_range(0..6), rng.gen_range(0..6));
                s.inject(src, dst).unwrap();
                s.step();
            }
            assert!(s.drain(10_000));
            s.stats().clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.delivered + a.rejected, 200);
    }

    #[test]
    fn random_minimal_spreads_over_the_rectangle() {
        // Many packets over the same long diagonal flow: XY loads only the
        // L-shaped path; random minimal touches interior routers too.
        let count_loaded = |routing| {
            let mut s = NocSim::new(
                Mesh::new(6, 6).unwrap(),
                NocConfig { routing, seed: 4, queue_capacity: 64 },
            );
            for _ in 0..64 {
                s.inject(Coord::new(0, 0), Coord::new(5, 5)).unwrap();
                s.step();
            }
            assert!(s.drain(10_000));
            s.stats().traversals.iter().filter(|&&t| t > 0).count()
        };
        let xy = count_loaded(Routing::Xy);
        let rm = count_loaded(Routing::RandomMinimal);
        assert_eq!(xy, 11); // 10 hops + source
        assert!(rm > xy, "random minimal should use more routers: {rm} vs {xy}");
    }

    #[test]
    fn inject_reports_typed_errors() {
        // Satellite check: inject returns typed errors, not a bare bool.
        let mesh = Mesh::new(3, 3).unwrap();
        let mut plain = NocSim::new(mesh, NocConfig::default());
        assert_eq!(
            plain.inject(Coord::new(0, 0), Coord::new(3, 0)),
            Err(NocError::OutOfBounds { coord: Coord::new(3, 0) })
        );
        assert_eq!(
            plain.inject(Coord::new(9, 9), Coord::new(0, 0)),
            Err(NocError::OutOfBounds { coord: Coord::new(9, 9) })
        );

        let mut fm = FaultMap::new(mesh);
        fm.kill_core(Coord::new(1, 1)).unwrap();
        let mut s = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
        assert_eq!(
            s.inject(Coord::new(1, 1), Coord::new(0, 0)),
            Err(NocError::DeadCore { coord: Coord::new(1, 1) })
        );
        assert_eq!(
            s.inject(Coord::new(0, 0), Coord::new(1, 1)),
            Err(NocError::DeadCore { coord: Coord::new(1, 1) })
        );
        assert_eq!(s.stats().injected, 0, "failed injections must not count");

        assert!(matches!(
            NocSim::with_faults(Mesh::new(2, 2).unwrap(), NocConfig::default(), &fm),
            Err(NocError::MeshMismatch { .. })
        ));
    }

    #[test]
    fn disconnected_destination_is_unroutable() {
        // Kill the middle column: left and right thirds are severed.
        let mesh = Mesh::new(3, 3).unwrap();
        let mut fm = FaultMap::new(mesh);
        for x in 0..3u16 {
            fm.kill_core(Coord::new(x, 1)).unwrap();
        }
        let mut s = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
        assert_eq!(
            s.inject(Coord::new(0, 0), Coord::new(0, 2)),
            Err(NocError::Unroutable { src: Coord::new(0, 0), dst: Coord::new(0, 2) })
        );
        // Same-side traffic still flows.
        assert!(s.inject(Coord::new(0, 0), Coord::new(2, 0)).unwrap());
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 1);
    }

    #[test]
    fn enclosed_destination_is_unroutable_without_looping() {
        // The destination itself is healthy but every core around it is
        // dead: injection must fail fast with a typed error rather than
        // loop or panic, and the network must stay empty.
        let mesh = Mesh::new(5, 5).unwrap();
        let mut fm = FaultMap::new(mesh);
        for c in [Coord::new(1, 2), Coord::new(3, 2), Coord::new(2, 1), Coord::new(2, 3)] {
            fm.kill_core(c).unwrap();
        }
        let mut s = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
        assert_eq!(
            s.inject(Coord::new(0, 0), Coord::new(2, 2)),
            Err(NocError::Unroutable { src: Coord::new(0, 0), dst: Coord::new(2, 2) })
        );
        // Outbound traffic from inside the enclosure is equally refused.
        assert_eq!(
            s.inject(Coord::new(2, 2), Coord::new(0, 0)),
            Err(NocError::Unroutable { src: Coord::new(2, 2), dst: Coord::new(0, 0) })
        );
        assert_eq!(s.stats().injected, 0);
        assert_eq!(s.in_flight(), 0);
        assert!(s.drain(10), "an empty network drains immediately");
        // Traffic that skirts the enclosure still flows, and its forced
        // detours are accounted.
        assert!(s.inject(Coord::new(2, 0), Coord::new(2, 4)).unwrap());
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 1);
        assert!(s.stats().detour_hops >= 2, "detour {}", s.stats().detour_hops);
    }

    #[test]
    fn link_severed_destination_is_unroutable() {
        // All four links of a healthy core fail: the core is alive but
        // unreachable, and injection toward it reports Unroutable.
        let mesh = Mesh::new(3, 3).unwrap();
        let mut fm = FaultMap::new(mesh);
        let dst = Coord::new(1, 1);
        for nb in [Coord::new(0, 1), Coord::new(2, 1), Coord::new(1, 0), Coord::new(1, 2)] {
            fm.fail_link(dst, nb).unwrap();
        }
        let mut s = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
        assert_eq!(
            s.inject(Coord::new(0, 0), dst),
            Err(NocError::Unroutable { src: Coord::new(0, 0), dst })
        );
        // A self-addressed spike never leaves the router, so it still
        // delivers.
        assert!(s.inject(dst, dst).unwrap());
        assert!(s.drain(10));
        assert_eq!(s.stats().delivered, 1);
    }

    #[test]
    fn faulty_link_forces_a_counted_detour() {
        let mesh = Mesh::new(3, 3).unwrap();
        let mut fm = FaultMap::new(mesh);
        // Sever the XY route (0,0)->(0,1)->(0,2) at its first link.
        fm.fail_link(Coord::new(0, 0), Coord::new(0, 1)).unwrap();
        let mut s = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
        s.inject(Coord::new(0, 0), Coord::new(0, 2)).unwrap();
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 1);
        // Shortest healthy path is 4 hops vs the Manhattan 2.
        assert_eq!(s.stats().detour_hops, 2);
        assert_eq!(s.stats().max_latency, 5);
    }

    #[test]
    fn dead_core_region_is_routed_around() {
        let mesh = Mesh::new(5, 5).unwrap();
        let mut fm = FaultMap::new(mesh);
        // A dead plus-shape in the centre.
        for c in [
            Coord::new(2, 2),
            Coord::new(1, 2),
            Coord::new(3, 2),
            Coord::new(2, 1),
            Coord::new(2, 3),
        ] {
            fm.kill_core(c).unwrap();
        }
        let mut s = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
        s.inject(Coord::new(2, 0), Coord::new(2, 4)).unwrap();
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 1);
        assert!(s.stats().detour_hops >= 2, "detour {}", s.stats().detour_hops);
    }

    #[test]
    fn fault_free_fault_map_reproduces_xy() {
        // An empty fault map must route exactly like plain XY.
        let mesh = Mesh::new(4, 4).unwrap();
        let fm = FaultMap::new(mesh);
        let mut a = NocSim::new(mesh, NocConfig::default());
        let mut b = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
        for s in [&mut a, &mut b] {
            s.inject(Coord::new(0, 0), Coord::new(2, 2)).unwrap();
            s.inject(Coord::new(3, 3), Coord::new(1, 0)).unwrap();
            assert!(s.drain(100));
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.stats().detour_hops, 0);
    }

    #[test]
    fn fault_aware_run_is_deterministic() {
        let mesh = Mesh::new(6, 6).unwrap();
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(Coord::new(2, 2)).unwrap();
        fm.kill_core(Coord::new(3, 4)).unwrap();
        fm.fail_link(Coord::new(0, 0), Coord::new(0, 1)).unwrap();
        let run = || {
            let mut s = NocSim::with_faults(mesh, NocConfig::default(), &fm).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let mut sent = 0;
            while sent < 150 {
                let src = Coord::new(rng.gen_range(0..6), rng.gen_range(0..6));
                let dst = Coord::new(rng.gen_range(0..6), rng.gen_range(0..6));
                if s.inject(src, dst).is_ok() {
                    sent += 1;
                }
                s.step();
            }
            assert!(s.drain(10_000));
            s.stats().clone()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.delivered + a.rejected, a.injected + a.rejected);
    }

    #[test]
    fn board_routing_counts_interchip_crossings() {
        let board = Board::parse("2x2/2x2").unwrap();
        let mesh = board.mesh();
        let mut s = NocSim::with_board(mesh, NocConfig::default(), None, &board).unwrap();
        s.inject(Coord::new(0, 0), Coord::new(3, 3)).unwrap();
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 1);
        assert_eq!(s.stats().detour_hops, 0, "fault-free board routes stay minimal");
        // Any minimal route from chip (0,0) to chip (1,1) crosses exactly
        // one row and one column boundary.
        assert_eq!(s.stats().interchip_traversals, 2);
        // Intra-chip traffic never crosses.
        let mut s = NocSim::with_board(mesh, NocConfig::default(), None, &board).unwrap();
        s.inject(Coord::new(0, 0), Coord::new(1, 1)).unwrap();
        assert!(s.drain(100));
        assert_eq!(s.stats().interchip_traversals, 0);
    }

    #[test]
    fn board_routing_detours_within_the_chip_row() {
        // The direct link crosses the column boundary and is severed;
        // both 3-hop detours exist, but only the northern one (through
        // the packet's own chip row) keeps a single crossing — the
        // southern detour would cross three boundaries. Plain XY-first
        // fault routing picks south; board-aware routing must pick north.
        let board = Board::parse("2x2/2x2").unwrap();
        let mesh = board.mesh();
        let mut fm = FaultMap::new(mesh);
        fm.fail_link(Coord::new(1, 1), Coord::new(1, 2)).unwrap();
        let mut s =
            NocSim::with_board(mesh, NocConfig::default(), Some(&fm), &board).unwrap();
        s.inject(Coord::new(1, 1), Coord::new(1, 2)).unwrap();
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 1);
        assert_eq!(s.stats().detour_hops, 2);
        assert_eq!(s.stats().interchip_traversals, 1);
        assert_eq!(s.stats().traversals[mesh.index_of(Coord::new(0, 1))], 1);
        assert_eq!(s.stats().traversals[mesh.index_of(Coord::new(2, 1))], 0);
    }

    #[test]
    fn dead_chip_refuses_traffic_and_is_routed_around() {
        let board = Board::parse("2x2/2x2").unwrap();
        let mesh = board.mesh();
        let mut fm = FaultMap::new(mesh);
        fm.kill_chip(&board, 1).unwrap(); // rows 0-1, cols 2-3
        let mut s =
            NocSim::with_board(mesh, NocConfig::default(), Some(&fm), &board).unwrap();
        assert_eq!(
            s.inject(Coord::new(0, 0), Coord::new(0, 3)),
            Err(NocError::DeadCore { coord: Coord::new(0, 3) })
        );
        // Traffic between survivors flows around the dead chip at the
        // minimal two crossings.
        assert!(s.inject(Coord::new(0, 0), Coord::new(2, 3)).unwrap());
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 1);
        assert_eq!(s.stats().detour_hops, 0);
        assert_eq!(s.stats().interchip_traversals, 2);
    }

    #[test]
    fn with_board_rejects_mismatched_meshes() {
        let board = Board::parse("2x2/2x2").unwrap();
        let other = Mesh::new(2, 2).unwrap();
        assert!(matches!(
            NocSim::with_board(other, NocConfig::default(), None, &board),
            Err(NocError::BoardMismatch { .. })
        ));
        let fm = FaultMap::new(other);
        assert!(matches!(
            NocSim::with_board(board.mesh(), NocConfig::default(), Some(&fm), &board),
            Err(NocError::MeshMismatch { .. })
        ));
    }

    #[test]
    fn board_aware_run_is_deterministic() {
        let board = Board::parse("2x3/2x2").unwrap();
        let mesh = board.mesh();
        let mut fm = FaultMap::new(mesh);
        fm.kill_core(Coord::new(1, 2)).unwrap();
        fm.fail_link(Coord::new(2, 0), Coord::new(2, 1)).unwrap();
        let run = || {
            let mut s =
                NocSim::with_board(mesh, NocConfig::default(), Some(&fm), &board).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut sent = 0;
            while sent < 120 {
                let src = Coord::new(rng.gen_range(0..4), rng.gen_range(0..6));
                let dst = Coord::new(rng.gen_range(0..4), rng.gen_range(0..6));
                if s.inject(src, dst).is_ok() {
                    sent += 1;
                }
                s.step();
            }
            assert!(s.drain(10_000));
            s.stats().clone()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.interchip_traversals > 0);
    }

    #[test]
    fn an_idle_cycle_changes_nothing_but_the_cycle() {
        let cfg = NocConfig { routing: Routing::RandomMinimal, seed: 3, queue_capacity: 2 };
        let mut s = NocSim::new(Mesh::new(5, 5).unwrap(), cfg);
        // Load first, so the round-robin pointers, RNG and stats have moved
        // off their defaults; the busy counts track the queues throughout.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..80 {
            let src = Coord::new(rng.gen_range(0..5), rng.gen_range(0..5));
            let dst = Coord::new(rng.gen_range(0..5), rng.gen_range(0..5));
            s.inject(src, dst).unwrap();
            s.step();
            for (r, router) in s.routers.iter().enumerate() {
                let held: usize = router.inputs.iter().map(VecDeque::len).sum();
                assert_eq!(s.queued[r] as usize, held, "router {r}");
            }
            assert!(s.incoming.iter().all(|&c| c == 0));
        }
        assert!(s.drain(10_000));
        let snapshot = |s: &NocSim| {
            let rr: Vec<[u8; NUM_OUTS]> = s.routers.iter().map(|r| r.rr).collect();
            let next_draw: u64 = s.rng.clone().gen();
            (s.stats().clone(), s.in_flight(), rr, next_draw, s.queued.clone())
        };
        let (before, cycle) = (snapshot(&s), s.cycle());
        s.step();
        assert_eq!(s.cycle(), cycle + 1);
        assert!(s.moves.is_empty());
        assert_eq!(snapshot(&s), before);
    }

    #[test]
    fn contention_serializes_on_shared_output() {
        // Two packets from different inputs racing for the same output
        // port: both delivered, one delayed.
        let mut s = sim(3, 3);
        s.inject(Coord::new(0, 1), Coord::new(2, 1)).unwrap();
        s.inject(Coord::new(1, 0), Coord::new(1, 2)).unwrap();
        assert!(s.drain(100));
        assert_eq!(s.stats().delivered, 2);
    }
}
