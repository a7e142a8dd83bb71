//! The TrueNorth layer-wise greedy placement (Sawada et al. 2016).

use snnmap_core::{toposort, CoreError};
use snnmap_hw::{Coord, Mesh, Placement};
use snnmap_model::Pcn;

use crate::{BaselineMapper, BaselineOutcome, Budget};

/// The heuristic used by the TrueNorth toolchain (§2.2): clusters are
/// placed layer by layer; input-layer clusters go to predefined positions
/// (here: the row-major front of the mesh), and every subsequent cluster
/// takes the free core minimizing the traffic-weighted sum of distances
/// to its already-placed inward neighbours.
///
/// Each placement scans all free cores, so the method is
/// `O(V · |S| · deg)` — tractable for the small benchmarks it was
/// designed for, and exactly the scaling wall the paper demonstrates on
/// large systems. Under an expired [`Budget`] the remaining clusters fall
/// back to first-free placement and the outcome is flagged early-stopped.
///
/// # Examples
///
/// ```
/// use snnmap_baselines::{BaselineMapper, Budget, TrueNorthMapper};
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
///
/// let pcn = random_pcn(9, 2.0, 0)?;
/// let out = TrueNorthMapper::new().map(&pcn, Mesh::new(3, 3)?, Budget::unlimited())?;
/// assert_eq!(out.iterations, 9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TrueNorthMapper;

impl TrueNorthMapper {
    /// Creates the mapper (it has no parameters).
    pub fn new() -> Self {
        Self
    }
}

impl BaselineMapper for TrueNorthMapper {
    fn name(&self) -> &'static str {
        "TrueNorth"
    }

    fn map(&self, pcn: &Pcn, mesh: Mesh, budget: Budget) -> Result<BaselineOutcome, CoreError> {
        let n = pcn.num_clusters();
        if n as usize > mesh.len() {
            return Err(CoreError::MeshTooSmall { clusters: n, cores: mesh.len() });
        }
        // Layer-by-layer order: the topological order visits each layer's
        // clusters consecutively.
        let order = toposort(pcn);
        let mut placement = Placement::new_unplaced(mesh, n);
        // Free cores in row-major order for the predefined-position
        // fallback; a cursor skips consumed prefix entries lazily.
        let mut first_free = 0usize;
        let mut early_stopped = false;
        let mut iterations = 0u64;

        for &c in &order {
            iterations += 1;
            if !early_stopped && budget.exhausted() {
                early_stopped = true;
            }
            // Already-placed inward neighbours (preceding layers).
            let placed_in: Vec<(Coord, f64)> = pcn
                .in_edges(c)
                .filter_map(|(s, w)| placement.coord_of(s).map(|p| (p, w as f64)))
                .collect();
            let coord = if placed_in.is_empty() || early_stopped {
                // Input layer (or out of budget): predefined positions,
                // i.e. the first free core in row-major order.
                loop {
                    let cand = mesh.coord_of_index(first_free);
                    if placement.cluster_at(cand).is_none() {
                        break cand;
                    }
                    first_free += 1;
                }
            } else {
                // Scan every free core for the minimum weighted distance
                // to the placed inward neighbours.
                let mut best: Option<(f64, Coord)> = None;
                for idx in 0..mesh.len() {
                    let cand = mesh.coord_of_index(idx);
                    if placement.cluster_at(cand).is_some() {
                        continue;
                    }
                    let score: f64 =
                        placed_in.iter().map(|&(p, w)| w * cand.manhattan(p) as f64).sum();
                    match best {
                        Some((b, _)) if score >= b => {}
                        _ => best = Some((score, cand)),
                    }
                }
                best.expect("mesh has free cores").1
            };
            placement.place(c, coord)?;
        }
        Ok(BaselineOutcome { placement, iterations, early_stopped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_core::random_placement;
    use snnmap_hw::CostModel;
    use snnmap_metrics::energy;
    use snnmap_model::{generators::random_pcn, PcnBuilder};
    use std::time::Duration;

    #[test]
    fn chain_is_placed_contiguously() {
        // 0 -> 1 -> 2: each successor lands adjacent to its predecessor.
        let mut b = PcnBuilder::new();
        for _ in 0..3 {
            b.add_cluster(1, 1);
        }
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        let pcn = b.build().unwrap();
        let out =
            TrueNorthMapper::new().map(&pcn, Mesh::new(3, 3).unwrap(), Budget::unlimited()).unwrap();
        assert_eq!(out.placement.distance(0, 1).unwrap(), 1);
        assert_eq!(out.placement.distance(1, 2).unwrap(), 1);
    }

    #[test]
    fn beats_random_on_layered_graphs() {
        let pcn = random_pcn(49, 4.0, 3).unwrap();
        let mesh = Mesh::new(7, 7).unwrap();
        let cost = CostModel::paper_target();
        let tn = TrueNorthMapper::new().map(&pcn, mesh, Budget::unlimited()).unwrap();
        let e_tn = energy(&pcn, &tn.placement, cost).unwrap();
        let e_rnd = energy(&pcn, &random_placement(&pcn, mesh, 0, None).unwrap(), cost).unwrap();
        assert!(e_tn < e_rnd, "TrueNorth {e_tn} should beat random {e_rnd}");
    }

    #[test]
    fn zero_budget_early_stops_but_completes() {
        let pcn = random_pcn(25, 3.0, 5).unwrap();
        let out = TrueNorthMapper::new()
            .map(&pcn, Mesh::new(5, 5).unwrap(), Budget::limited(Duration::ZERO))
            .unwrap();
        assert!(out.early_stopped);
        assert!(out.placement.is_complete());
    }

    #[test]
    fn weighted_pull_dominates() {
        // Cluster 3 receives a heavy edge from 0 and a light one from 2;
        // it must land next to 0.
        let mut b = PcnBuilder::new();
        for _ in 0..4 {
            b.add_cluster(1, 1);
        }
        b.add_edge(0, 3, 100.0).unwrap();
        b.add_edge(1, 2, 0.1).unwrap();
        b.add_edge(2, 3, 0.1).unwrap();
        let pcn = b.build().unwrap();
        let out =
            TrueNorthMapper::new().map(&pcn, Mesh::new(4, 4).unwrap(), Budget::unlimited()).unwrap();
        assert_eq!(out.placement.distance(0, 3).unwrap(), 1);
    }
}
