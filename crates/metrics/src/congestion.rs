//! Router congestion `Con(x, y)` (eq. 13) and its aggregates `M_ac`
//! (eq. 12) and `M_mc` (eq. 14).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snnmap_hw::{Coord, HwError, Mesh, Placement};
use snnmap_model::Pcn;

use crate::expe::for_each_route_expe;

/// Summary of a congestion map: the average over all routers (`M_ac`,
/// eq. 12) and the maximum (`M_mc`, eq. 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionStats {
    /// `M_ac`: mean expected traffic per router.
    pub average: f64,
    /// `M_mc`: expected traffic of the hottest router.
    pub max: f64,
    /// Fraction of total edge traffic that was evaluated (1.0 for exact
    /// evaluation; < 1.0 when edge sampling was used — averages are
    /// rescaled to be unbiased, the maximum is a lower bound).
    pub coverage: f64,
    /// Sampling honesty flag: `true` exactly when `coverage < 1.0`, i.e.
    /// [`max`](Self::max) only bounds `M_mc` from below because unevaluated
    /// edges could load the hottest router further. Exact evaluation and
    /// the degenerate (no traffic) case report `false`.
    pub max_is_lower_bound: bool,
}

/// Accumulates per-router expected traffic over the edges of a placement.
///
/// Each edge's traffic is spread over its source–target bounding rectangle
/// using the Algorithm 4 staircase distribution; contributions add up in a
/// dense per-router map.
///
/// # Examples
///
/// ```
/// use snnmap_hw::{Coord, Mesh, Placement};
/// use snnmap_metrics::CongestionAccumulator;
///
/// let mesh = Mesh::new(2, 2)?;
/// let mut acc = CongestionAccumulator::new(mesh);
/// acc.add_edge(Coord::new(0, 0), Coord::new(1, 1), 4.0)?;
/// let stats = acc.stats();
/// // Corners see the full 4.0; the two detours 2.0 each: avg = 12/4.
/// assert_eq!(stats.average, 3.0);
/// assert_eq!(stats.max, 4.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CongestionAccumulator {
    mesh: Mesh,
    map: Vec<f64>,
    evaluated_traffic: f64,
    total_traffic: f64,
}

impl CongestionAccumulator {
    /// An empty accumulator for `mesh`.
    pub fn new(mesh: Mesh) -> Self {
        Self { mesh, map: vec![0.0; mesh.len()], evaluated_traffic: 0.0, total_traffic: 0.0 }
    }

    /// Adds one connection carrying `weight` traffic from `s` to `t`,
    /// spreading it over the bounding rectangle per Algorithm 4.
    ///
    /// # Errors
    ///
    /// [`HwError::OutOfBounds`] if either endpoint lies outside the mesh;
    /// the accumulator is left unchanged (a release build used to corrupt
    /// the map through unchecked row-major indexing here).
    pub fn add_edge(&mut self, s: Coord, t: Coord, weight: f64) -> Result<(), HwError> {
        for coord in [s, t] {
            if !self.mesh.contains(coord) {
                return Err(HwError::OutOfBounds { coord });
            }
        }
        self.total_traffic += weight;
        self.evaluated_traffic += weight;
        self.spread(s, t, weight);
        Ok(())
    }

    /// Records an edge's traffic in the totals *without* evaluating its
    /// rectangle — used by sampling evaluation for the skipped edges.
    pub fn skip_edge(&mut self, weight: f64) {
        self.total_traffic += weight;
    }

    fn spread(&mut self, s: Coord, t: Coord, weight: f64) {
        let cols = self.mesh.cols() as usize;
        for_each_route_expe(s, t, |x, y, v| self.map[x * cols + y] += weight * v);
    }

    /// The per-router congestion map, row-major (`Con(x, y)` at
    /// `x · cols + y`). Values are rescaled for sampling coverage when
    /// read through [`stats`](Self::stats); this raw view is unscaled.
    pub fn map(&self) -> &[f64] {
        &self.map
    }

    /// Aggregates the map into `M_ac` / `M_mc`.
    ///
    /// Under sampling (`coverage < 1`), the average is rescaled by
    /// `1 / coverage` (unbiased for uniform edge sampling); the maximum is
    /// reported unscaled and is therefore a lower bound.
    ///
    /// Degenerate accumulators — no edges at all, or every edge skipped
    /// by sampling so nothing was evaluated — report `coverage: 1.0`,
    /// `average: 0.0`, `max: 0.0` rather than dividing by a zero total.
    /// The guards are written `!(x > 0.0)` so a NaN total (from a caller
    /// feeding NaN weights) also takes the degenerate path instead of
    /// propagating into every field.
    // `!(x > 0.0)` is deliberate (NaN-inclusive), not a spelled-out `<=`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn stats(&self) -> CongestionStats {
        if !(self.total_traffic > 0.0) || !(self.evaluated_traffic > 0.0) {
            return CongestionStats {
                average: 0.0,
                max: 0.0,
                coverage: 1.0,
                max_is_lower_bound: false,
            };
        }
        let coverage = self.evaluated_traffic / self.total_traffic;
        let sum: f64 = self.map.iter().sum();
        let max = self.map.iter().copied().fold(0.0, f64::max);
        CongestionStats {
            average: sum / coverage / self.mesh.len() as f64,
            max,
            coverage,
            max_is_lower_bound: coverage < 1.0,
        }
    }
}

/// Builds the exact congestion map of a placement: every connection's
/// traffic spread per Algorithm 4.
///
/// Cost is `O(Σ_e area(bounding rectangle of e))`; for very large PCNs on
/// poor placements prefer
/// [`evaluate_with`](crate::evaluate_with) and its edge-sampling option.
///
/// # Errors
///
/// [`HwError::Unplaced`] / [`HwError::UnknownCluster`] if an edge endpoint
/// has no position; [`HwError::OutOfBounds`] if a position lies outside
/// the accumulator's mesh (impossible for a well-formed [`Placement`],
/// but propagated rather than asserted).
pub fn congestion_map(pcn: &Pcn, placement: &Placement) -> Result<CongestionAccumulator, HwError> {
    let mut acc = CongestionAccumulator::new(placement.mesh());
    for c in 0..pcn.num_clusters() {
        let pc = placement.try_coord_of(c)?;
        for (t, w) in pcn.out_edges(c) {
            let pt = placement.try_coord_of(t)?;
            acc.add_edge(pc, pt, w as f64)?;
        }
    }
    Ok(acc)
}

/// Builds a sampled congestion map: at most `max_edges` connections are
/// evaluated (uniformly chosen with a seeded RNG); the rest only count
/// toward coverage so that [`CongestionAccumulator::stats`] can rescale.
///
/// # Errors
///
/// [`HwError::Unplaced`] / [`HwError::UnknownCluster`] if a sampled edge
/// endpoint has no position.
pub(crate) fn congestion_map_sampled(
    pcn: &Pcn,
    placement: &Placement,
    max_edges: u64,
    seed: u64,
) -> Result<CongestionAccumulator, HwError> {
    let total = pcn.num_connections();
    if total <= max_edges {
        return congestion_map(pcn, placement);
    }
    let prob = max_edges as f64 / total as f64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut acc = CongestionAccumulator::new(placement.mesh());
    for c in 0..pcn.num_clusters() {
        let pc = placement.try_coord_of(c)?;
        for (t, w) in pcn.out_edges(c) {
            if rng.gen_bool(prob) {
                let pt = placement.try_coord_of(t)?;
                acc.add_edge(pc, pt, w as f64)?;
            } else {
                acc.skip_edge(w as f64);
            }
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_model::PcnBuilder;

    fn pair(w: f32, a: Coord, b: Coord, mesh: Mesh) -> (Pcn, Placement) {
        let mut bld = PcnBuilder::new();
        bld.add_cluster(1, 1);
        bld.add_cluster(1, 1);
        bld.add_edge(0, 1, w).unwrap();
        (bld.build().unwrap(), Placement::from_coords(mesh, &[a, b]).unwrap())
    }

    #[test]
    fn straight_edge_loads_its_line_only() {
        let mesh = Mesh::new(3, 3).unwrap();
        let (pcn, p) = pair(2.0, Coord::new(1, 0), Coord::new(1, 2), mesh);
        let acc = congestion_map(&pcn, &p).unwrap();
        let m = acc.map();
        for y in 0..3 {
            assert_eq!(m[mesh.index_of(Coord::new(1, y))], 2.0);
        }
        for y in 0..3 {
            assert_eq!(m[mesh.index_of(Coord::new(0, y))], 0.0);
            assert_eq!(m[mesh.index_of(Coord::new(2, y))], 0.0);
        }
        let stats = acc.stats();
        assert!((stats.average - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(stats.max, 2.0);
        assert_eq!(stats.coverage, 1.0);
    }

    #[test]
    fn total_map_mass_is_weight_times_expected_hops() {
        // Summing Con over all routers equals w * E[routers traversed]
        // = w * (manhattan + 1), since staircase paths visit exactly
        // d + 1 routers.
        let mesh = Mesh::new(6, 6).unwrap();
        let (pcn, p) = pair(3.0, Coord::new(0, 0), Coord::new(4, 3), mesh);
        let acc = congestion_map(&pcn, &p).unwrap();
        let mass: f64 = acc.map().iter().sum();
        assert!((mass - 3.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn direction_flips_are_mirrored() {
        let mesh = Mesh::new(5, 5).unwrap();
        let (pcn_a, pa) = pair(1.0, Coord::new(0, 0), Coord::new(2, 2), mesh);
        let (pcn_b, pb) = pair(1.0, Coord::new(2, 2), Coord::new(0, 0), mesh);
        let ma = congestion_map(&pcn_a, &pa).unwrap();
        let mb = congestion_map(&pcn_b, &pb).unwrap();
        for (a, b) in ma.map().iter().zip(mb.map()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn sampling_rescales_average() {
        // Many identical edges: sampled average should be close to the
        // exact one, and coverage < 1.
        let mesh = Mesh::new(8, 8).unwrap();
        let mut b = PcnBuilder::new();
        for _ in 0..64 {
            b.add_cluster(1, 1);
        }
        for i in 0..63u32 {
            b.add_edge(i, i + 1, 1.0).unwrap();
        }
        let pcn = b.build().unwrap();
        let coords: Vec<Coord> = mesh.iter().collect();
        let p = Placement::from_coords(mesh, &coords).unwrap();
        let exact = congestion_map(&pcn, &p).unwrap().stats();
        let sampled = congestion_map_sampled(&pcn, &p, 32, 11).unwrap().stats();
        assert!(sampled.coverage < 1.0);
        assert!(sampled.max_is_lower_bound);
        assert!(!exact.max_is_lower_bound);
        assert!(
            (sampled.average - exact.average).abs() < 0.5 * exact.average,
            "sampled {} vs exact {}",
            sampled.average,
            exact.average
        );
        assert!(sampled.max <= exact.max + 1e-12);
    }

    #[test]
    fn sampling_with_large_budget_is_exact() {
        let mesh = Mesh::new(2, 2).unwrap();
        let (pcn, p) = pair(1.0, Coord::new(0, 0), Coord::new(1, 1), mesh);
        let a = congestion_map(&pcn, &p).unwrap().stats();
        let b = congestion_map_sampled(&pcn, &p, 100, 0).unwrap().stats();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_map_stats() {
        let acc = CongestionAccumulator::new(Mesh::new(3, 3).unwrap());
        let s = acc.stats();
        assert_eq!(s.average, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.coverage, 1.0);
        assert!(!s.max_is_lower_bound);
    }

    #[test]
    fn all_edges_skipped_is_degenerate_not_nan() {
        // Sampling can skip every edge: total > 0 but nothing evaluated.
        // coverage must not report 0 (which the average would then divide
        // by); the degenerate contract is coverage 1.0, average/max 0.0.
        let mut acc = CongestionAccumulator::new(Mesh::new(3, 3).unwrap());
        acc.skip_edge(5.0);
        acc.skip_edge(2.5);
        let s = acc.stats();
        assert_eq!(
            s,
            CongestionStats { average: 0.0, max: 0.0, coverage: 1.0, max_is_lower_bound: false }
        );
    }

    #[test]
    fn nan_traffic_takes_the_degenerate_path() {
        let mesh = Mesh::new(3, 3).unwrap();
        let mut acc = CongestionAccumulator::new(mesh);
        acc.add_edge(Coord::new(0, 0), Coord::new(1, 1), f64::NAN).unwrap();
        let s = acc.stats();
        assert!(s.average == 0.0 && s.max == 0.0 && s.coverage == 1.0, "{s:?}");
    }

    #[test]
    fn out_of_mesh_endpoints_are_typed_errors_and_leave_the_map_untouched() {
        let mesh = Mesh::new(3, 3).unwrap();
        let mut acc = CongestionAccumulator::new(mesh);
        let bad = Coord::new(3, 0);
        for (s, t) in [(bad, Coord::new(0, 0)), (Coord::new(0, 0), bad), (bad, bad)] {
            let err = acc.add_edge(s, t, 1.0).unwrap_err();
            assert!(matches!(err, HwError::OutOfBounds { coord } if coord == bad), "{err}");
        }
        assert!(acc.map().iter().all(|&v| v == 0.0));
        assert_eq!(
            acc.stats(),
            CongestionStats { average: 0.0, max: 0.0, coverage: 1.0, max_is_lower_bound: false }
        );
        // The accumulator still works after a rejected edge.
        acc.add_edge(Coord::new(0, 0), Coord::new(2, 2), 1.0).unwrap();
        assert!(acc.stats().max > 0.0);
    }

    #[test]
    fn quadrant_flips_bit_match_the_per_point_expe() {
        // An asymmetric rectangle (dx = 3, dy = 1) walked in all four
        // flip_x/flip_y quadrants: every cell the accumulator writes must
        // bit-equal `w * expe(cell, s, t)` — `spread`'s streamed walk and
        // the per-point reference's grid perform the same float
        // operations, so even the rounding must agree.
        use crate::expe;
        let mesh = Mesh::new(9, 9).unwrap();
        let w = 3.25;
        let center = Coord::new(4, 4);
        for t in [Coord::new(7, 5), Coord::new(1, 5), Coord::new(7, 3), Coord::new(1, 3)] {
            let mut acc = CongestionAccumulator::new(mesh);
            acc.add_edge(center, t, w).unwrap();
            for c in mesh.iter() {
                let got = acc.map()[mesh.index_of(c)];
                let want = w * expe(c, center, t);
                assert!(
                    got.to_bits() == want.to_bits(),
                    "{center} -> {t} at {c}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn quadrant_flips_match_brute_force_staircase_enumeration() {
        // Independent reference: enumerate every monotone staircase walk
        // with its probability (½ per free step, straight once an axis is
        // exhausted) in *mesh* coordinates, stepping from s toward t, and
        // accumulate per-router visit probability. dx ≠ dy so an i/j (or
        // flip) mix-up shifts mass to the wrong cells.
        fn walk(p: Coord, t: Coord, prob: f64, visits: &mut [f64], mesh: Mesh) {
            visits[mesh.index_of(p)] += prob;
            if p == t {
                return;
            }
            let step_x = Coord::new(if t.x > p.x { p.x + 1 } else { p.x.wrapping_sub(1) }, p.y);
            let step_y = Coord::new(p.x, if t.y > p.y { p.y + 1 } else { p.y.wrapping_sub(1) });
            if p.x == t.x {
                walk(step_y, t, prob, visits, mesh);
            } else if p.y == t.y {
                walk(step_x, t, prob, visits, mesh);
            } else {
                walk(step_x, t, prob / 2.0, visits, mesh);
                walk(step_y, t, prob / 2.0, visits, mesh);
            }
        }
        let mesh = Mesh::new(8, 8).unwrap();
        let w = 2.0;
        let s = Coord::new(3, 4);
        for t in [Coord::new(6, 5), Coord::new(0, 5), Coord::new(6, 3), Coord::new(0, 3)] {
            let mut acc = CongestionAccumulator::new(mesh);
            acc.add_edge(s, t, w).unwrap();
            let mut visits = vec![0.0; mesh.len()];
            walk(s, t, 1.0, &mut visits, mesh);
            for c in mesh.iter() {
                let got = acc.map()[mesh.index_of(c)];
                let want = w * visits[mesh.index_of(c)];
                assert!((got - want).abs() < 1e-12, "{s} -> {t} at {c}: {got} vs {want}");
            }
        }
    }
}
