//! DFSynthesizer-style iterative swap refinement (Song et al. 2022).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snnmap_core::{random_placement, CoreError};
use snnmap_hw::{Coord, CostModel, Mesh, Placement};
use snnmap_model::Pcn;

use crate::{BaselineMapper, BaselineOutcome, Budget};

/// DFSynthesizer's placement strategy (§2.2): start from a random
/// allocation, then repeatedly pick two cores at random, tentatively swap
/// their occupants, and keep the swap iff the quality metric improves.
///
/// The original evaluates throughput and energy of the synthesized
/// schedule on every move; the placement-relevant part of that objective
/// is the interconnect energy `M_ec`, which we evaluate *incrementally*
/// (only the moved clusters' incident edges change) — the same
/// accept/reject decisions at a fraction of the cost, which if anything
/// flatters the baseline's runtime.
///
/// # Examples
///
/// ```
/// use snnmap_baselines::{BaselineMapper, Budget, DfSynthesizerMapper};
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
///
/// let pcn = random_pcn(16, 3.0, 2)?;
/// let out = DfSynthesizerMapper::new(5).map(&pcn, Mesh::new(4, 4)?, Budget::unlimited())?;
/// assert!(out.placement.is_complete());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfSynthesizerMapper {
    seed: u64,
    /// Swap proposals per cluster (total proposals = `proposals_per_cluster × V`).
    proposals_per_cluster: u64,
    cost: CostModel,
}

impl DfSynthesizerMapper {
    /// Default configuration: 50 proposals per cluster, paper's cost
    /// model.
    pub fn new(seed: u64) -> Self {
        Self { seed, proposals_per_cluster: 50, cost: CostModel::paper_target() }
    }

    /// Overrides the proposal budget per cluster.
    pub fn with_proposals_per_cluster(mut self, p: u64) -> Self {
        assert!(p > 0, "need at least one proposal per cluster");
        self.proposals_per_cluster = p;
        self
    }

    /// Energy delta of swapping the occupants of `a` and `b`
    /// (negative = improvement), touching only incident edges.
    fn swap_delta(&self, pcn: &Pcn, placement: &Placement, a: Coord, b: Coord) -> f64 {
        let ca = placement.cluster_at(a);
        let cb = placement.cluster_at(b);
        let mut delta = 0.0;
        let mut side = |c: Option<u32>, from: Coord, to: Coord, other: Option<u32>| {
            let Some(c) = c else { return };
            for (t, w) in pcn.out_edges(c) {
                if Some(t) == other {
                    continue; // mutual edge length is preserved by a swap
                }
                let pt = placement.coord_of(t).expect("complete placement");
                delta += w as f64
                    * (self.cost.spike_energy(to.manhattan(pt))
                        - self.cost.spike_energy(from.manhattan(pt)));
            }
            for (s, w) in pcn.in_edges(c) {
                if Some(s) == other {
                    continue;
                }
                let ps = placement.coord_of(s).expect("complete placement");
                delta += w as f64
                    * (self.cost.spike_energy(to.manhattan(ps))
                        - self.cost.spike_energy(from.manhattan(ps)));
            }
        };
        side(ca, a, b, cb);
        side(cb, b, a, ca);
        delta
    }
}

impl BaselineMapper for DfSynthesizerMapper {
    fn name(&self) -> &'static str {
        "DFSynthesizer"
    }

    fn map(&self, pcn: &Pcn, mesh: Mesh, budget: Budget) -> Result<BaselineOutcome, CoreError> {
        let n = pcn.num_clusters();
        if n as usize > mesh.len() {
            return Err(CoreError::MeshTooSmall { clusters: n, cores: mesh.len() });
        }
        let mut placement = random_placement(pcn, mesh, self.seed, None)?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xDF5);
        let total = self.proposals_per_cluster.saturating_mul(n as u64);
        let mut iterations = 0u64;
        let mut early_stopped = false;
        while iterations < total {
            // Check the clock every so often, not on every proposal.
            if iterations % 1024 == 0 && budget.exhausted() {
                early_stopped = true;
                break;
            }
            iterations += 1;
            let a = mesh.coord_of_index(rng.gen_range(0..mesh.len()));
            let b = mesh.coord_of_index(rng.gen_range(0..mesh.len()));
            if a == b {
                continue;
            }
            if placement.cluster_at(a).is_none() && placement.cluster_at(b).is_none() {
                continue;
            }
            if self.swap_delta(pcn, &placement, a, b) < 0.0 {
                placement.swap_cores(a, b)?;
            }
        }
        Ok(BaselineOutcome { placement, iterations, early_stopped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_metrics::energy;
    use snnmap_model::generators::random_pcn;
    use std::time::Duration;

    #[test]
    fn improves_over_its_random_start() {
        let pcn = random_pcn(36, 4.0, 9).unwrap();
        let mesh = Mesh::new(6, 6).unwrap();
        let cost = CostModel::paper_target();
        let start = random_placement(&pcn, mesh, 4, None).unwrap();
        let out = DfSynthesizerMapper::new(4).map(&pcn, mesh, Budget::unlimited()).unwrap();
        let e0 = energy(&pcn, &start, cost).unwrap();
        let e1 = energy(&pcn, &out.placement, cost).unwrap();
        assert!(e1 < e0, "refined {e1} should beat start {e0}");
    }

    #[test]
    fn swap_delta_matches_global_recomputation() {
        let pcn = random_pcn(20, 4.0, 11).unwrap();
        let mesh = Mesh::new(5, 5).unwrap();
        let cost = CostModel::paper_target();
        let mapper = DfSynthesizerMapper::new(0);
        let mut placement = random_placement(&pcn, mesh, 1, None).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..50 {
            let a = mesh.coord_of_index(rng.gen_range(0..mesh.len()));
            let b = mesh.coord_of_index(rng.gen_range(0..mesh.len()));
            if a == b {
                continue;
            }
            let before = energy(&pcn, &placement, cost).unwrap();
            let delta = mapper.swap_delta(&pcn, &placement, a, b);
            placement.swap_cores(a, b).unwrap();
            let after = energy(&pcn, &placement, cost).unwrap();
            assert!(
                ((after - before) - delta).abs() < 1e-9 * before.max(1.0),
                "delta {delta} vs actual {}",
                after - before
            );
        }
    }

    #[test]
    fn zero_budget_early_stops() {
        let pcn = random_pcn(16, 3.0, 2).unwrap();
        let out = DfSynthesizerMapper::new(0)
            .map(&pcn, Mesh::new(4, 4).unwrap(), Budget::limited(Duration::ZERO))
            .unwrap();
        assert!(out.early_stopped);
        assert!(out.placement.is_complete());
    }

    #[test]
    fn deterministic_per_seed() {
        let pcn = random_pcn(16, 3.0, 2).unwrap();
        let mesh = Mesh::new(4, 4).unwrap();
        let a = DfSynthesizerMapper::new(5).map(&pcn, mesh, Budget::unlimited()).unwrap();
        let b = DfSynthesizerMapper::new(5).map(&pcn, mesh, Budget::unlimited()).unwrap();
        assert_eq!(a.placement, b.placement);
    }
}
