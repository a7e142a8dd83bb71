//! The pluggable refinement objective family.
//!
//! Classic FD descends the *energy* potential alone (eq. 25/26). Real
//! deployments also care about worst-router congestion (`M_mc`, eq. 14)
//! and latency tails, so refinement accepts a composite objective
//!
//! ```text
//! J = w_e · energy + λc · congestion + λt · latency-tail
//! ```
//!
//! where the congestion term charges every connection the
//! Algorithm 4 expected per-router traffic of its bounding rectangle
//! (optionally re-weighted by a router *heat* field fed back from
//! `NocSim` runs — "sim in the loop"), and the latency-tail term charges
//! the *squared* Manhattan distance so long edges dominate.
//!
//! Three invariants keep the subsystem compatible with the deterministic
//! multi-core engine:
//!
//! 1. **Energy is untouched.** [`Objective::Energy`] adds zero state and
//!    zero floating-point operations to the tension path, so default runs
//!    reproduce historical placement digests bit-for-bit.
//! 2. **Tensions stay cacheable.** Every term is a pure function of the
//!    two endpoint positions and static per-run weight fields. A swap
//!    already invalidates the cached tensions of both moved clusters and
//!    all their graph neighbours (the force-patching dependency set),
//!    which is exactly the set whose composite tension can change.
//! 3. **Delta maintenance is exact.** [`IncrementalCongestion`] keeps the
//!    per-router congestion map in fixed-point integers so that applying
//!    a move and later undoing it cancels exactly and any sequence of
//!    moves bit-equals a from-scratch rebuild, independent of order or
//!    thread count.

use snnmap_hw::Mesh;
use snnmap_metrics::for_each_route_expe;
use snnmap_model::Pcn;

use crate::error::CoreError;

/// Fixed-point scale of [`IncrementalCongestion`]: map cells store
/// `round(contribution · 2^20)` as `i64`. 2^20 keeps sub-ulp rounding
/// noise far below any λc of practical size while leaving 43 bits of
/// headroom for accumulated traffic.
pub const CONGESTION_SCALE: f64 = (1u64 << 20) as f64;

/// Gain of the sim-in-the-loop reweight: the hottest router's congestion
/// cost is multiplied by `1 + REWEIGHT_GAIN`, cold routers stay at 1.
/// Chosen empirically on the Table 3 workloads (see EXPERIMENTS.md's
/// energy-vs-congestion Pareto front, pinned by the `pareto_*` tests in
/// `crates/bench/tests/digests.rs`): large enough that hot-spot avoidance
/// beats the uniform-cost tie with plain energy descent, small enough
/// that energy regression stays bounded.
pub const REWEIGHT_GAIN: f64 = 4.0;

/// Extra cost multiplier per chip-boundary crossing in the board-aware
/// variant: an edge crossing `k` chip boundaries has its congestion and
/// latency-tail terms scaled by `1 + k · INTERCHIP_WEIGHT`.
pub const INTERCHIP_WEIGHT: f64 = 4.0;

/// What force-directed refinement descends.
///
/// The default, [`Objective::Energy`], is the paper's pure energy
/// potential and leaves the engine's hot path byte-identical to the
/// pre-objective implementation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Pure energy descent (eq. 25/26) — the historical behaviour.
    #[default]
    Energy,
    /// Pure congestion descent: minimize the summed Algorithm 4
    /// per-router expected traffic, weighted by `lambda_c`.
    Congestion {
        /// Weight λc of the congestion term (> 0, finite).
        lambda_c: f64,
    },
    /// The full composite `energy + λc·congestion + λt·latency-tail`.
    Composite {
        /// Weight λc of the congestion term (≥ 0, finite).
        lambda_c: f64,
        /// Weight λt of the squared-Manhattan latency-tail term
        /// (≥ 0, finite).
        lambda_t: f64,
    },
}

impl Objective {
    /// Stable label used in traces, digests, and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::Congestion { .. } => "congestion",
            Objective::Composite { .. } => "composite",
        }
    }

    /// `(energy weight, λc, λt)` of the composite.
    pub fn weights(&self) -> (f64, f64, f64) {
        match *self {
            Objective::Energy => (1.0, 0.0, 0.0),
            Objective::Congestion { lambda_c } => (0.0, lambda_c, 0.0),
            Objective::Composite { lambda_c, lambda_t } => (1.0, lambda_c, lambda_t),
        }
    }

    /// Whether this is the zero-overhead energy objective.
    pub fn is_energy(&self) -> bool {
        matches!(self, Objective::Energy)
    }

    /// Builds an objective from a CLI-style label plus λ knobs. Returns
    /// `None` for an unknown label; λ values are validated separately by
    /// [`validate`](Self::validate).
    pub fn from_parts(label: &str, lambda_c: f64, lambda_t: f64) -> Option<Objective> {
        match label {
            "energy" => Some(Objective::Energy),
            "congestion" => Some(Objective::Congestion { lambda_c }),
            "composite" => Some(Objective::Composite { lambda_c, lambda_t }),
            _ => None,
        }
    }

    /// Checks the λ weights are finite and meaningful.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidRunOpts`] when a weight is non-finite or
    /// negative, or when a pure congestion objective has `λc = 0` (the
    /// tension field would be identically zero and FD would no-op while
    /// claiming convergence).
    pub fn validate(&self) -> Result<(), CoreError> {
        let (_, lc, lt) = self.weights();
        for (name, v) in [("lambda_c", lc), ("lambda_t", lt)] {
            if !v.is_finite() || v < 0.0 {
                return Err(CoreError::InvalidRunOpts {
                    message: format!("objective {name} must be finite and >= 0, got {v}"),
                });
            }
        }
        if matches!(self, Objective::Congestion { .. }) && lc == 0.0 {
            return Err(CoreError::InvalidRunOpts {
                message: "congestion objective requires lambda_c > 0".into(),
            });
        }
        Ok(())
    }
}

/// Caller hook fired between FD sweep batches in sim-in-the-loop mode:
/// given the current placement, produce per-router *heat* that the
/// engine folds into the congestion term's weight field.
///
/// Implementations must be deterministic for a given `(sweep, coords)`
/// input — the engine calls the hook serially at a sweep boundary, so a
/// seeded `NocSim` run keeps the whole refinement byte-identical across
/// thread counts.
pub trait SweepReweighter {
    /// Computes router heat for the placement `coords` (indexed by
    /// cluster) on `mesh` after `sweep` completed sweeps. The returned
    /// heat vector must be row-major with exactly `mesh.len()` entries.
    fn reweight(&mut self, sweep: u64, coords: &[snnmap_hw::Coord], mesh: Mesh) -> ReweightOutcome;
}

/// Result of one [`SweepReweighter`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReweightOutcome {
    /// Per-router heat, row-major, `mesh.len()` entries. All-zero heat
    /// leaves the current weight field unchanged.
    pub heat: Vec<u64>,
    /// Provenance label for the trace (`noc-sim`, `self`, …).
    pub source: String,
}

/// Delta-maintained fixed-point congestion map with
/// [`CongestionAccumulator`](snnmap_metrics::CongestionAccumulator)
/// semantics.
///
/// Each directed connection spreads `weight · expectation_grid` over its
/// source→target bounding rectangle — the exact orientation rules of
/// `CongestionAccumulator::add_edge` (the grid is *not* symmetric under
/// endpoint reversal, so direction matters). Cells store
/// `round(w · v · 2^20)` as `i64`: integer addition is associative and
/// `remove_edge` cancels `add_edge` exactly, so any interleaving of
/// moves bit-equals a from-scratch [`build`](Self::build).
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalCongestion {
    rows: usize,
    cols: usize,
    map: Vec<i64>,
}

impl IncrementalCongestion {
    /// An all-zero map for a `rows × cols` mesh.
    pub fn new(rows: u16, cols: u16) -> Self {
        let (rows, cols) = (rows as usize, cols as usize);
        Self { rows, cols, map: vec![0; rows * cols] }
    }

    /// Builds the map of a whole placement from scratch: `coords[c]` is
    /// cluster `c`'s `(x, y)` position. Every directed PCN connection is
    /// added once.
    pub fn build(pcn: &Pcn, coords: &[(u16, u16)], rows: u16, cols: u16) -> Self {
        let mut m = Self::new(rows, cols);
        for c in 0..pcn.num_clusters() {
            let s = coords[c as usize];
            for (t, w) in pcn.out_edges(c) {
                m.add_edge(s, coords[t as usize], f64::from(w));
            }
        }
        m
    }

    /// Adds one directed edge's spread contribution.
    pub fn add_edge(&mut self, s: (u16, u16), t: (u16, u16), weight: f64) {
        self.apply(s, t, weight, 1);
    }

    /// Removes one directed edge's spread contribution (exact inverse of
    /// [`add_edge`](Self::add_edge) with the same arguments).
    pub fn remove_edge(&mut self, s: (u16, u16), t: (u16, u16), weight: f64) {
        self.apply(s, t, weight, -1);
    }

    fn apply(&mut self, s: (u16, u16), t: (u16, u16), weight: f64, sign: i64) {
        let cols = self.cols;
        for_each_route_expe(s.into(), t.into(), |x, y, v| {
            // The quantization is a pure function of (w, v): add and
            // remove of the same edge cancel exactly.
            let q = (weight * v * CONGESTION_SCALE).round() as i64;
            self.map[x * cols + y] += sign * q;
        });
    }

    /// The raw fixed-point map, row-major (`2^20` units of expected
    /// traffic per cell).
    pub fn map(&self) -> &[i64] {
        &self.map
    }

    /// The map as floating-point expected traffic, comparable to
    /// [`CongestionAccumulator::map`](snnmap_metrics::CongestionAccumulator::map)
    /// up to per-cell quantization (±½ ulp of `2^-20` per contribution).
    pub fn to_f64(&self) -> Vec<f64> {
        self.map.iter().map(|&v| v as f64 / CONGESTION_SCALE).collect()
    }

    /// The map as router *heat* for self-reweighting: negative cells
    /// (possible only through rounding jitter) clamp to zero.
    pub fn heat(&self) -> Vec<u64> {
        self.map.iter().map(|&v| v.max(0) as u64).collect()
    }
}

/// Engine-side state of a non-energy objective: the λ-weighted edge
/// cost terms, the delta-maintained congestion map, and every directed
/// edge's cached cost at the current positions.
#[derive(Debug, Clone)]
pub(crate) struct ObjectiveState {
    pub(crate) energy_w: f64,
    /// `energy_w` times the slope of the potential's step differences
    /// over the force kernel's: `EN_r + EN_w` for the energy-model
    /// potential, which runs the `u_a` kernel, and exactly 1 otherwise
    /// (so `energy_tension_w == energy_w` bit for bit). Weighs the pure
    /// energy tension in the composite.
    pub(crate) energy_tension_w: f64,
    pub(crate) cong: IncrementalCongestion,
    terms: EdgeTerms,
    ids: EdgeIds,
    /// `cost[e]`: `terms.edge_cost` of directed edge `e` (see
    /// [`EdgeIds`]) at the current positions. `edge_cost` is a pure
    /// function of the endpoints, the weight and the static fields, so a
    /// cached value bit-equals a fresh one until an endpoint moves or
    /// the heat field changes — exactly when `apply_swap` and
    /// `apply_reweight` rewrite it.
    cost: Vec<f64>,
}

/// The λ-weighted non-energy cost of one directed edge, and the static
/// fields it reads.
#[derive(Debug, Clone)]
struct EdgeTerms {
    lambda_c: f64,
    lambda_t: f64,
    /// Mesh columns (row-major router index `x · cols + y`).
    cols: usize,
    /// Per-router congestion cost multiplier; `None` = uniform 1.0 (the
    /// O(1) Manhattan fast path applies).
    weight: Option<Vec<f64>>,
    /// Chip tile dimensions for the board-aware variant; `(0, 0)` when
    /// boardless (multiplier 1).
    chip_rows: u16,
    chip_cols: u16,
}

impl EdgeTerms {
    /// `1 + INTERCHIP_WEIGHT · chip-boundary crossings` of the edge
    /// `s → t` (1.0 when boardless).
    fn boardmul(&self, s: (u16, u16), t: (u16, u16)) -> f64 {
        if self.chip_rows == 0 {
            return 1.0;
        }
        let crossings = (s.0 / self.chip_rows).abs_diff(t.0 / self.chip_rows)
            + (s.1 / self.chip_cols).abs_diff(t.1 / self.chip_cols);
        1.0 + INTERCHIP_WEIGHT * f64::from(crossings)
    }

    /// Heat-weighted expected-traversal mass of the edge's rectangle:
    /// `Σ_r weight[r] · Expe(r)`. With a uniform weight field this is
    /// exactly the expected router count, `manhattan + 1`, computed in
    /// O(1).
    fn rect_cost(&self, s: (u16, u16), t: (u16, u16)) -> f64 {
        let Some(wf) = &self.weight else {
            return (s.0.abs_diff(t.0) as usize + s.1.abs_diff(t.1) as usize + 1) as f64;
        };
        let cols = self.cols;
        let mut acc = 0.0;
        for_each_route_expe(s.into(), t.into(), |x, y, v| acc += wf[x * cols + y] * v);
        acc
    }

    /// λ-weighted non-energy cost of one directed edge `s → t` carrying
    /// `w` traffic.
    fn edge_cost(&self, s: (u16, u16), t: (u16, u16), w: f64) -> f64 {
        let m = self.boardmul(s, t);
        let mut cost = 0.0;
        if self.lambda_c != 0.0 {
            cost += self.lambda_c * w * m * self.rect_cost(s, t);
        }
        if self.lambda_t != 0.0 {
            let d = (s.0.abs_diff(t.0) + s.1.abs_diff(t.1)) as f64;
            cost += self.lambda_t * w * m * d * d;
        }
        cost
    }
}

/// Directed-edge ids: edge `e` is the `e`-th connection in out-edge
/// order (cluster by cluster, each cluster's targets in
/// [`Pcn::out_edges`] order).
#[derive(Debug, Clone)]
struct EdgeIds {
    /// `out_start[c]..out_start[c + 1]`: ids of `c`'s out-edges.
    out_start: Vec<u32>,
    /// `in_edge[in_start[c]..in_start[c + 1]]`: ids of `c`'s in-edges,
    /// in [`Pcn::in_edges`] order.
    in_start: Vec<u32>,
    in_edge: Vec<u32>,
}

impl EdgeIds {
    fn new(pcn: &Pcn) -> Self {
        let n = pcn.num_clusters();
        let id = |v: u64| u32::try_from(v).expect("edge ids exceed u32");
        let (mut out_start, mut in_start) = (vec![0u32], vec![0u32]);
        for c in 0..n {
            let ins = pcn.in_degree(c);
            out_start.push(out_start[c as usize] + id(pcn.degree(c) - ins));
            in_start.push(in_start[c as usize] + id(ins));
        }
        // Visiting targets in ascending order meets each source's
        // out-edges in ascending target order, which is their id order.
        let mut next = out_start.clone();
        let mut in_edge = Vec::with_capacity(pcn.num_connections() as usize);
        for t in 0..n {
            for (k, _) in pcn.in_edges(t) {
                in_edge.push(next[k as usize]);
                next[k as usize] += 1;
            }
        }
        Self { out_start, in_start, in_edge }
    }
}

impl ObjectiveState {
    /// Builds the state for `objective` over the placement `coords`
    /// (cluster-indexed positions on a `rows × cols` mesh). `chip` is
    /// the board's chip tile size when mapping multi-chip hardware;
    /// `energy_slope` is the potential's slope over its force kernel
    /// (see [`ObjectiveState::energy_tension_w`]).
    pub(crate) fn new(
        objective: Objective,
        energy_slope: f64,
        pcn: &Pcn,
        coords: &[(u16, u16)],
        rows: u16,
        cols: u16,
        chip: Option<(u16, u16)>,
    ) -> Self {
        let (energy_w, lambda_c, lambda_t) = objective.weights();
        let (chip_rows, chip_cols) = chip.unwrap_or((0, 0));
        let terms = EdgeTerms {
            lambda_c,
            lambda_t,
            cols: cols as usize,
            weight: None,
            chip_rows,
            chip_cols,
        };
        let mut st = Self {
            energy_w,
            energy_tension_w: energy_w * energy_slope,
            cong: IncrementalCongestion::build(pcn, coords, rows, cols),
            terms,
            ids: EdgeIds::new(pcn),
            cost: Vec::with_capacity(pcn.num_connections() as usize),
        };
        st.rebuild_costs(pcn, |c| coords[c as usize]);
        st
    }

    /// Recomputes every cached edge cost at the positions `coord(c)`.
    fn rebuild_costs(&mut self, pcn: &Pcn, coord: impl Fn(u32) -> (u16, u16)) {
        self.cost.clear();
        for c in 0..pcn.num_clusters() {
            let s = coord(c);
            for (t, w) in pcn.out_edges(c) {
                self.cost.push(self.terms.edge_cost(s, coord(t), f64::from(w)));
            }
        }
    }

    /// Decrease of the non-energy terms if the clusters at positions
    /// `a` and `b` swap (`cu` at `a`, `cv` at `b`; either may be
    /// `u32::MAX` for an empty core). `pos` must reflect the *pre-swap*
    /// assignment for clusters other than `cu`/`cv` — which is the same
    /// pre- and post-swap, so both call sites may use the live table.
    /// Each edge's pre-swap cost comes from the cache.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn swap_gain(
        &self,
        pcn: &Pcn,
        pos: &[u32],
        mesh_x: &[u16],
        mesh_y: &[u16],
        a: (u16, u16),
        b: (u16, u16),
        cu: u32,
        cv: u32,
    ) -> f64 {
        let mut gain = 0.0;
        visit_swap_edges(pcn, &self.ids, pos, mesh_x, mesh_y, a, b, cu, cv, |e, _, _, afs, aft, w| {
            gain += self.cost[e] - self.terms.edge_cost(afs, aft, w);
        });
        gain
    }

    /// Folds an applied swap into the incremental congestion map and the
    /// cost cache. Call *after* the engine's position tables are
    /// updated; `a`/`b` are the pre-swap coordinates of `cu`/`cv`
    /// (neighbour positions are untouched by a swap, so the live table
    /// serves for them).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn apply_swap(
        &mut self,
        pcn: &Pcn,
        pos: &[u32],
        mesh_x: &[u16],
        mesh_y: &[u16],
        a: (u16, u16),
        b: (u16, u16),
        cu: u32,
        cv: u32,
    ) {
        let Self { cong, terms, ids, cost, .. } = self;
        visit_swap_edges(pcn, ids, pos, mesh_x, mesh_y, a, b, cu, cv, |e, bs, bt, afs, aft, w| {
            cong.remove_edge(bs, bt, w);
            cong.add_edge(afs, aft, w);
            cost[e] = terms.edge_cost(afs, aft, w);
        });
    }

    /// Serial from-scratch `(congestion term, latency-tail term)` totals
    /// of the whole placement, λ-weighted — the per-sweep trace
    /// breakdown. O(edges), only run when tracing is enabled.
    pub(crate) fn totals(
        &self,
        pcn: &Pcn,
        pos: &[u32],
        mesh_x: &[u16],
        mesh_y: &[u16],
    ) -> (f64, f64) {
        let coord = |c: u32| {
            let p = pos[c as usize] as usize;
            (mesh_x[p], mesh_y[p])
        };
        let terms = &self.terms;
        let (mut cong, mut lat) = (0.0, 0.0);
        for c in 0..pcn.num_clusters() {
            let s = coord(c);
            for (t, w) in pcn.out_edges(c) {
                let t = coord(t);
                let wm = f64::from(w) * terms.boardmul(s, t);
                if terms.lambda_c != 0.0 {
                    cong += terms.lambda_c * wm * terms.rect_cost(s, t);
                }
                if terms.lambda_t != 0.0 {
                    let d = (s.0.abs_diff(t.0) + s.1.abs_diff(t.1)) as f64;
                    lat += terms.lambda_t * wm * d * d;
                }
            }
        }
        (cong, lat)
    }

    /// Installs a router heat field: cost multiplier
    /// `1 + REWEIGHT_GAIN · heat[r] / max(heat)` per router, and
    /// recomputes every cached edge cost under it at the positions
    /// `pos`. All-zero heat keeps the current field and cache. Returns
    /// `(max_heat, argmax index)` when the field changed.
    pub(crate) fn apply_reweight(
        &mut self,
        heat: &[u64],
        pcn: &Pcn,
        pos: &[u32],
        mesh_x: &[u16],
        mesh_y: &[u16],
    ) -> Option<(u64, usize)> {
        let (mut max, mut arg) = (0u64, 0usize);
        for (i, &h) in heat.iter().enumerate() {
            if h > max {
                max = h;
                arg = i;
            }
        }
        if max == 0 {
            return None;
        }
        self.terms.weight =
            Some(heat.iter().map(|&h| 1.0 + REWEIGHT_GAIN * (h as f64 / max as f64)).collect());
        self.rebuild_costs(pcn, |c| {
            let p = pos[c as usize] as usize;
            (mesh_x[p], mesh_y[p])
        });
        Some((max, arg))
    }
}

/// Enumerates every directed PCN edge whose cost can change when the
/// clusters `cu` (at `a`) and `cv` (at `b`) swap, calling
/// `f(edge_id, before_src, before_dst, after_src, after_dst, weight)`
/// exactly once per edge. Edges between `cu` and `cv` move both
/// endpoints; self-loops are visited once (in the out pass).
#[allow(clippy::too_many_arguments)]
fn visit_swap_edges(
    pcn: &Pcn,
    ids: &EdgeIds,
    pos: &[u32],
    mesh_x: &[u16],
    mesh_y: &[u16],
    a: (u16, u16),
    b: (u16, u16),
    cu: u32,
    cv: u32,
    mut f: impl FnMut(usize, (u16, u16), (u16, u16), (u16, u16), (u16, u16), f64),
) {
    const EMPTY: u32 = u32::MAX;
    let coord = |k: u32| {
        let p = pos[k as usize] as usize;
        (mesh_x[p], mesh_y[p])
    };
    // Position of endpoint `k` before / after the swap.
    let end = |k: u32, before: bool| -> (u16, u16) {
        if k == cu {
            if before { a } else { b }
        } else if k == cv {
            if before { b } else { a }
        } else {
            coord(k)
        }
    };
    let out_ids = |c: u32| ids.out_start[c as usize] as usize..;
    let in_ids = |c: u32| &ids.in_edge[ids.in_start[c as usize] as usize..];
    if cu != EMPTY {
        for (e, (k, w)) in out_ids(cu).zip(pcn.out_edges(cu)) {
            f(e, end(cu, true), end(k, true), end(cu, false), end(k, false), f64::from(w));
        }
        for (&e, (k, w)) in in_ids(cu).iter().zip(pcn.in_edges(cu)) {
            if k == cu {
                continue; // self-loop already visited in the out pass
            }
            f(e as usize, end(k, true), end(cu, true), end(k, false), end(cu, false), f64::from(w));
        }
    }
    if cv != EMPTY {
        for (e, (k, w)) in out_ids(cv).zip(pcn.out_edges(cv)) {
            if k == cu {
                continue; // cu↔cv edges handled in the cu pass
            }
            f(e, end(cv, true), end(k, true), end(cv, false), end(k, false), f64::from(w));
        }
        for (&e, (k, w)) in in_ids(cv).iter().zip(pcn.in_edges(cv)) {
            if k == cv || k == cu {
                continue;
            }
            f(e as usize, end(k, true), end(cv, true), end(k, false), end(cv, false), f64::from(w));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snnmap_metrics::expectation_grid;
    use snnmap_model::PcnBuilder;

    /// Calls `f(x, y, v)` over an edge's materialized Algorithm 4 grid,
    /// mirrored into the edge's quadrant: how `rect_cost` and
    /// `IncrementalCongestion::apply` walked a route before they
    /// streamed the grid.
    fn oracle_walk(s: (u16, u16), t: (u16, u16), mut f: impl FnMut(usize, usize, f64)) {
        let dx = s.0.abs_diff(t.0) as usize;
        let dy = s.1.abs_diff(t.1) as usize;
        let grid = expectation_grid(dx, dy);
        let (x0, y0) = (s.0.min(t.0) as usize, s.1.min(t.1) as usize);
        for i in 0..=dx {
            let x = if t.0 < s.0 { x0 + dx - i } else { x0 + i };
            for j in 0..=dy {
                let v = grid[i * (dy + 1) + j];
                if v != 0.0 {
                    f(x, if t.1 < s.1 { y0 + dy - j } else { y0 + j }, v);
                }
            }
        }
    }

    /// Engine-style position tables placing cluster `c` at `coords[c]`:
    /// position `c` holds cluster `c`.
    fn tables(coords: &[(u16, u16)]) -> (Vec<u32>, Vec<u16>, Vec<u16>) {
        let pos = (0..coords.len() as u32).collect();
        (pos, coords.iter().map(|c| c.0).collect(), coords.iter().map(|c| c.1).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `IncrementalCongestion::build` and the heat-weighted
        /// `rect_cost` bit-equal the grid-materializing oracles, on an
        /// 80×80 mesh whose boxes fall on both sides of the walker's
        /// 64-cell interior table.
        #[test]
        fn streamed_congestion_terms_bit_equal_the_grid_oracles(
            edges in prop::collection::vec((0u32..24, 0u32..24, 0.1f32..10.0), 1..60),
            coords in prop::collection::vec((0u16..80, 0u16..80), 24),
            heat in prop::collection::vec(1u64..1000, 80 * 80),
        ) {
            let mut b = PcnBuilder::new();
            for _ in 0..24 {
                b.add_cluster(1, 1);
            }
            for &(f, t, w) in &edges {
                b.add_edge(f, t, w).unwrap();
            }
            let pcn = b.build().unwrap();
            let inc = IncrementalCongestion::build(&pcn, &coords, 80, 80);
            let mut want = vec![0i64; 80 * 80];
            for (f, t, w) in pcn.iter_edges() {
                let w = f64::from(w);
                oracle_walk(coords[f as usize], coords[t as usize], |x, y, v| {
                    want[x * 80 + y] += (w * v * CONGESTION_SCALE).round() as i64;
                });
            }
            prop_assert_eq!(inc.map(), &want[..]);

            let objective = Objective::Congestion { lambda_c: 1.0 };
            let mut st = ObjectiveState::new(objective, 1.0, &pcn, &coords, 80, 80, None);
            let (pos, mesh_x, mesh_y) = tables(&coords);
            st.apply_reweight(&heat, &pcn, &pos, &mesh_x, &mesh_y);
            let wf = st.terms.weight.clone().expect("nonzero heat installs a field");
            for (f, t, _) in pcn.iter_edges() {
                let (s, t) = (coords[f as usize], coords[t as usize]);
                let mut cost = 0.0;
                oracle_walk(s, t, |x, y, v| cost += wf[x * 80 + y] * v);
                prop_assert_eq!(st.terms.rect_cost(s, t).to_bits(), cost.to_bits());
            }
        }
    }

    /// The uncached swap gain: both sides of every visited edge costed
    /// afresh, summed in visit order.
    #[allow(clippy::too_many_arguments)]
    fn uncached_swap_gain(
        st: &ObjectiveState,
        pcn: &Pcn,
        pos: &[u32],
        mesh_x: &[u16],
        mesh_y: &[u16],
        a: (u16, u16),
        b: (u16, u16),
        cu: u32,
        cv: u32,
    ) -> f64 {
        let mut gain = 0.0;
        visit_swap_edges(pcn, &st.ids, pos, mesh_x, mesh_y, a, b, cu, cv, |_, bs, bt, afs, aft, w| {
            gain += st.terms.edge_cost(bs, bt, w) - st.terms.edge_cost(afs, aft, w);
        });
        gain
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random swap sequences (empty cores included) with reweights in
        /// between: after every step each cached edge cost bit-equals a
        /// fresh `edge_cost`, and every `swap_gain` bit-equals the
        /// uncached sum.
        #[test]
        fn cached_edge_costs_stay_exact(
            edges in prop::collection::vec((0u32..20, 0u32..20, 0.1f32..10.0), 1..80),
            order in prop::collection::vec(any::<u32>(), 20),
            lambda_c in 0.05f64..3.0,
            lambda_t in prop_oneof![Just(0.0), 0.01f64..2.0],
            board in 0u8..3,
            steps in prop::collection::vec((0usize..30, 0usize..30, 0u8..8), 1..60),
            heats in prop::collection::vec(prop::collection::vec(0u64..1000, 30), 8),
        ) {
            let (rows, cols) = (5u16, 6u16);
            let chip = [None, Some((2, 3)), Some((5, 2))][usize::from(board)];
            let mut b = PcnBuilder::new();
            for _ in 0..20 {
                b.add_cluster(1, 1);
            }
            for &(f, t, w) in &edges {
                b.add_edge(f, t, w).unwrap();
            }
            let pcn = b.build().unwrap();
            // Position k is (k / cols, k % cols); clusters take the first
            // 20 positions of a seeded shuffle, 10 cores stay empty.
            let mut cells: Vec<u32> = (0..30).collect();
            cells.sort_by_key(|&k| (order[k as usize % 20].rotate_left(k), k));
            let mut pos: Vec<u32> = cells[..20].to_vec();
            let mut occ = [u32::MAX; 30];
            for (c, &k) in pos.iter().enumerate() {
                occ[k as usize] = c as u32;
            }
            let mesh_x: Vec<u16> = (0..30u16).map(|k| k / cols).collect();
            let mesh_y: Vec<u16> = (0..30u16).map(|k| k % cols).collect();
            let xy = |k: usize| (mesh_x[k], mesh_y[k]);
            let coords: Vec<(u16, u16)> = pos.iter().map(|&k| xy(k as usize)).collect();
            let objective = Objective::Composite { lambda_c, lambda_t };
            let mut st = ObjectiveState::new(objective, 1.0, &pcn, &coords, rows, cols, chip);
            for (step, &(p, q, kind)) in steps.iter().enumerate() {
                if kind == 0 {
                    // Every eighth step reweights; some heat fields are all zero.
                    let heat = &heats[step % heats.len()];
                    let heat = if heat[0] < 100 { vec![0; 30] } else { heat.clone() };
                    let changed = st.apply_reweight(&heat, &pcn, &pos, &mesh_x, &mesh_y);
                    prop_assert_eq!(changed.is_some(), heat.iter().any(|&h| h > 0));
                } else {
                    let (cu, cv) = (occ[p], occ[q]);
                    if p == q || (cu == u32::MAX && cv == u32::MAX) {
                        continue;
                    }
                    let (a, b) = (xy(p), xy(q));
                    let gain = st.swap_gain(&pcn, &pos, &mesh_x, &mesh_y, a, b, cu, cv);
                    let want =
                        uncached_swap_gain(&st, &pcn, &pos, &mesh_x, &mesh_y, a, b, cu, cv);
                    prop_assert_eq!(gain.to_bits(), want.to_bits());
                    occ.swap(p, q);
                    if cu != u32::MAX {
                        pos[cu as usize] = q as u32;
                    }
                    if cv != u32::MAX {
                        pos[cv as usize] = p as u32;
                    }
                    st.apply_swap(&pcn, &pos, &mesh_x, &mesh_y, a, b, cu, cv);
                }
                prop_assert_eq!(st.cost.len(), pcn.num_connections() as usize);
                for (e, (f, t, w)) in pcn.iter_edges().enumerate() {
                    let fresh = st.terms.edge_cost(
                        xy(pos[f as usize] as usize),
                        xy(pos[t as usize] as usize),
                        f64::from(w),
                    );
                    let cached = st.cost[e].to_bits();
                    prop_assert_eq!(cached, fresh.to_bits(), "edge {} step {}", e, step);
                }
            }
        }
    }

    fn chain_pcn(n: u32) -> Pcn {
        let mut b = PcnBuilder::new();
        for _ in 0..n {
            b.add_cluster(1, 1);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0 + i as f32 * 0.5).unwrap();
        }
        // A back edge and a mutual pair exercise direction handling.
        b.add_edge(n - 1, 0, 2.0).unwrap();
        if n > 2 {
            b.add_edge(1, 0, 0.75).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn objective_labels_weights_and_validation() {
        assert_eq!(Objective::default(), Objective::Energy);
        assert!(Objective::Energy.is_energy());
        assert_eq!(Objective::Energy.weights(), (1.0, 0.0, 0.0));
        let c = Objective::Congestion { lambda_c: 0.5 };
        assert_eq!(c.label(), "congestion");
        assert_eq!(c.weights(), (0.0, 0.5, 0.0));
        let x = Objective::Composite { lambda_c: 0.5, lambda_t: 0.1 };
        assert_eq!(x.weights(), (1.0, 0.5, 0.1));
        assert!(x.validate().is_ok());
        assert!(Objective::Congestion { lambda_c: 0.0 }.validate().is_err());
        assert!(Objective::Composite { lambda_c: -1.0, lambda_t: 0.0 }.validate().is_err());
        assert!(Objective::Composite { lambda_c: f64::NAN, lambda_t: 0.0 }.validate().is_err());
        assert_eq!(
            Objective::from_parts("composite", 1.0, 0.0),
            Some(Objective::Composite { lambda_c: 1.0, lambda_t: 0.0 })
        );
        assert_eq!(Objective::from_parts("energy", 0.0, 0.0), Some(Objective::Energy));
        assert_eq!(Objective::from_parts("nope", 0.0, 0.0), None);
    }

    #[test]
    fn incremental_map_tracks_moves_exactly() {
        let pcn = chain_pcn(6);
        let mut coords: Vec<(u16, u16)> =
            (0..6).map(|i| (i as u16 / 3, i as u16 % 3)).collect();
        let mut inc = IncrementalCongestion::build(&pcn, &coords, 4, 4);
        // Move cluster 2 from its core to an empty one by re-adding its
        // incident edges, then verify bit-equality with a rebuild.
        let from = coords[2];
        let to = (3u16, 3u16);
        for (t, w) in pcn.out_edges(2) {
            inc.remove_edge(from, coords[t as usize], f64::from(w));
            let dst = if t == 2 { to } else { coords[t as usize] };
            inc.add_edge(to, dst, f64::from(w));
        }
        for (s, w) in pcn.in_edges(2) {
            if s == 2 {
                continue;
            }
            inc.remove_edge(coords[s as usize], from, f64::from(w));
            inc.add_edge(coords[s as usize], to, f64::from(w));
        }
        coords[2] = to;
        let rebuilt = IncrementalCongestion::build(&pcn, &coords, 4, 4);
        assert_eq!(inc.map(), rebuilt.map());
    }

    #[test]
    fn incremental_map_matches_the_accumulator_within_quantization() {
        use snnmap_hw::{Coord, Mesh, Placement};
        let pcn = chain_pcn(6);
        let coords: Vec<(u16, u16)> = (0..6).map(|i| (i as u16 % 4, i as u16 / 4)).collect();
        let inc = IncrementalCongestion::build(&pcn, &coords, 4, 4);
        let mesh = Mesh::new(4, 4).unwrap();
        let hw_coords: Vec<Coord> = coords.iter().map(|&(x, y)| Coord::new(x, y)).collect();
        let placement = Placement::from_coords(mesh, &hw_coords).unwrap();
        let acc = snnmap_metrics::congestion_map(&pcn, &placement).unwrap();
        let tol = pcn.num_connections() as f64 / CONGESTION_SCALE;
        for (got, want) in inc.to_f64().iter().zip(acc.map()) {
            assert!((got - want).abs() <= tol, "{got} vs {want}");
        }
    }

    #[test]
    fn swap_gain_agrees_with_recomputing_totals() {
        let pcn = chain_pcn(6);
        // Positions 0..6 on a 3x3 mesh; clusters 1 and 4 will swap.
        let mut coords: Vec<(u16, u16)> =
            (0..6u16).map(|i| (i / 3, i % 3)).collect();
        let mesh_x: Vec<u16> = (0..9u16).map(|p| p / 3).collect();
        let mesh_y: Vec<u16> = (0..9u16).map(|p| p % 3).collect();
        let pos: Vec<u32> = (0..6u32).collect(); // cluster c at position c
        let st = ObjectiveState::new(
            Objective::Composite { lambda_c: 0.7, lambda_t: 0.3 },
            1.0,
            &pcn,
            &coords,
            3,
            3,
            None,
        );
        let (c0, l0) = st.totals(&pcn, &pos, &mesh_x, &mesh_y);
        let a = coords[1];
        let b = coords[4];
        let gain = st.swap_gain(&pcn, &pos, &mesh_x, &mesh_y, a, b, 1, 4);
        // Apply the swap and recompute from scratch.
        coords.swap(1, 4);
        let st2 = ObjectiveState::new(
            Objective::Composite { lambda_c: 0.7, lambda_t: 0.3 },
            1.0,
            &pcn,
            &coords,
            3,
            3,
            None,
        );
        let mut pos2 = pos.clone();
        pos2.swap(1, 4);
        let (c1, l1) = st2.totals(&pcn, &pos2, &mesh_x, &mesh_y);
        assert!(
            (gain - ((c0 + l0) - (c1 + l1))).abs() < 1e-9,
            "gain {gain} vs totals delta {}",
            (c0 + l0) - (c1 + l1)
        );
    }

    #[test]
    fn board_multiplier_weights_interchip_edges_higher() {
        let pcn = chain_pcn(2);
        let coords = [(0u16, 0u16), (0, 3)];
        let flat = ObjectiveState::new(
            Objective::Congestion { lambda_c: 1.0 },
            1.0,
            &pcn,
            &coords,
            4,
            4,
            None,
        );
        let board = ObjectiveState::new(
            Objective::Congestion { lambda_c: 1.0 },
            1.0,
            &pcn,
            &coords,
            4,
            4,
            Some((2, 2)),
        );
        // (0,0) -> (0,3) crosses one chip column boundary.
        let f = flat.terms.edge_cost((0, 0), (0, 3), 1.0);
        let b = board.terms.edge_cost((0, 0), (0, 3), 1.0);
        assert!((b - f * (1.0 + INTERCHIP_WEIGHT)).abs() < 1e-12, "{b} vs {f}");
        // An intra-chip edge costs the same either way.
        assert_eq!(
            flat.terms.edge_cost((0, 0), (1, 1), 1.0),
            board.terms.edge_cost((0, 0), (1, 1), 1.0)
        );
    }

    #[test]
    fn reweight_installs_a_normalized_weight_field() {
        let pcn = chain_pcn(2);
        let coords = [(0u16, 0u16), (1, 1)];
        let mut st = ObjectiveState::new(
            Objective::Congestion { lambda_c: 1.0 },
            1.0,
            &pcn,
            &coords,
            2,
            2,
            None,
        );
        let uniform = st.terms.rect_cost((0, 0), (1, 1));
        assert_eq!(uniform, 3.0); // manhattan + 1 fast path
        let (pos, mesh_x, mesh_y) = tables(&coords);
        assert!(st.apply_reweight(&[0, 0, 0, 0], &pcn, &pos, &mesh_x, &mesh_y).is_none());
        let (max, arg) = st.apply_reweight(&[0, 8, 0, 4], &pcn, &pos, &mesh_x, &mesh_y).unwrap();
        assert_eq!((max, arg), (8, 1));
        // Router (0,1) now costs 1 + GAIN, (1,1) costs 1 + GAIN/2.
        let weighted = st.terms.rect_cost((0, 0), (1, 1));
        assert!(weighted > uniform, "{weighted} vs {uniform}");
    }
}
