//! Discrete particle swarm optimization (PSOPART / SpiNeMap / Song).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use snnmap_core::{random_placement, CoreError};
use snnmap_hw::{CostModel, Mesh, Placement};
use snnmap_model::Pcn;

use crate::{BaselineMapper, BaselineOutcome, Budget};

/// Discrete (binarized) PSO over placements, the optimizer behind
/// PSOPART, SpiNeMap and Song et al.'s design flow (§2.2): a swarm of
/// candidate placements evolves by pulling each particle toward its
/// personal best and the global best.
///
/// Positions are permutations, so "moving toward" a best is realized as
/// adoption swaps: for each cluster, with probability `c1` the particle
/// swaps the cluster into its personal-best core, with probability `c2`
/// into the global-best core, and with probability `w` (inertia) into a
/// random core — the standard discretization of velocity for assignment
/// problems, equivalent to SpiNeMap's binarized positions. Fitness is
/// the interconnect energy `M_ec`.
///
/// # Examples
///
/// ```
/// use snnmap_baselines::{BaselineMapper, Budget, PsoMapper};
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
///
/// let pcn = random_pcn(16, 3.0, 3)?;
/// let out = PsoMapper::new(1).with_generations(10).map(&pcn, Mesh::new(4, 4)?, Budget::unlimited())?;
/// assert!(out.placement.is_complete());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsoMapper {
    seed: u64,
    swarm: usize,
    generations: u64,
    inertia: f64,
    c1: f64,
    c2: f64,
    cost: CostModel,
}

impl PsoMapper {
    /// The configuration of the SOTA comparison (Song et al. 2021):
    /// 20 particles, 100 generations, inertia 0.05, c1 = c2 = 0.1.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            swarm: 20,
            generations: 100,
            inertia: 0.05,
            c1: 0.1,
            c2: 0.1,
            cost: CostModel::paper_target(),
        }
    }

    /// Overrides the swarm size.
    pub fn with_swarm(mut self, swarm: usize) -> Self {
        assert!(swarm > 0);
        self.swarm = swarm;
        self
    }

    /// Overrides the generation count.
    pub fn with_generations(mut self, generations: u64) -> Self {
        assert!(generations > 0);
        self.generations = generations;
        self
    }

    fn fitness(&self, pcn: &Pcn, p: &Placement) -> f64 {
        let mut total = 0.0;
        for c in 0..pcn.num_clusters() {
            let pc = p.coord_of(c).expect("complete placement");
            for (t, w) in pcn.out_edges(c) {
                let pt = p.coord_of(t).expect("complete placement");
                total += w as f64 * self.cost.spike_energy(pc.manhattan(pt));
            }
        }
        total
    }

    /// Pull `particle` toward `target`: move `cluster` onto the core it
    /// occupies in `target`, swapping with the current occupant.
    fn adopt(particle: &mut Placement, target: &Placement, cluster: u32) {
        let want = target.coord_of(cluster).expect("complete placement");
        let have = particle.coord_of(cluster).expect("complete placement");
        if want != have {
            particle.swap_cores(have, want).expect("coords are in-mesh");
        }
    }
}

impl BaselineMapper for PsoMapper {
    fn name(&self) -> &'static str {
        "PSO"
    }

    fn map(&self, pcn: &Pcn, mesh: Mesh, budget: Budget) -> Result<BaselineOutcome, CoreError> {
        let n = pcn.num_clusters();
        if n as usize > mesh.len() {
            return Err(CoreError::MeshTooSmall { clusters: n, cores: mesh.len() });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x9507);
        let mut particles: Vec<Placement> = (0..self.swarm)
            .map(|k| random_placement(pcn, mesh, self.seed.wrapping_add(k as u64), None))
            .collect::<Result<_, _>>()?;
        // Personal bests live in parallel vectors so a particle can be
        // mutated while its own best is read without cloning (cloning a
        // million-cluster placement per adoption would be ruinous).
        let mut pbest_fit: Vec<f64> = particles.iter().map(|p| self.fitness(pcn, p)).collect();
        let mut pbest_pos: Vec<Placement> = particles.clone();
        let gbest_idx = pbest_fit
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite fitness"))
            .expect("nonempty swarm")
            .0;
        let mut gbest_fit = pbest_fit[gbest_idx];
        let mut gbest_pos = pbest_pos[gbest_idx].clone();

        let mut iterations = 0u64;
        let mut early_stopped = false;
        'outer: for _ in 0..self.generations {
            if budget.exhausted() {
                early_stopped = true;
                break 'outer;
            }
            iterations += 1;
            for k in 0..self.swarm {
                for c in 0..n {
                    // A generation over a million clusters is long; keep
                    // the budget honest mid-generation too.
                    if c % 65_536 == 0 && budget.exhausted() {
                        early_stopped = true;
                        break 'outer;
                    }
                    let r: f64 = rng.gen();
                    if r < self.inertia {
                        let idx = rng.gen_range(0..mesh.len());
                        let have = particles[k].coord_of(c).expect("complete placement");
                        let to = mesh.coord_of_index(idx);
                        particles[k].swap_cores(have, to).expect("in-mesh");
                    } else if r < self.inertia + self.c1 {
                        Self::adopt(&mut particles[k], &pbest_pos[k], c);
                    } else if r < self.inertia + self.c1 + self.c2 {
                        Self::adopt(&mut particles[k], &gbest_pos, c);
                    }
                }
                let f = self.fitness(pcn, &particles[k]);
                if f < pbest_fit[k] {
                    pbest_fit[k] = f;
                    pbest_pos[k] = particles[k].clone();
                    if f < gbest_fit {
                        gbest_fit = f;
                        gbest_pos = particles[k].clone();
                    }
                }
            }
        }
        Ok(BaselineOutcome { placement: gbest_pos, iterations, early_stopped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_metrics::energy;
    use snnmap_model::generators::random_pcn;
    use std::time::Duration;

    #[test]
    fn improves_over_random_baseline() {
        let pcn = random_pcn(25, 4.0, 13).unwrap();
        let mesh = Mesh::new(5, 5).unwrap();
        let cost = CostModel::paper_target();
        let rnd = random_placement(&pcn, mesh, 0, None).unwrap();
        let out = PsoMapper::new(0)
            .with_generations(30)
            .map(&pcn, mesh, Budget::unlimited())
            .unwrap();
        let e_pso = energy(&pcn, &out.placement, cost).unwrap();
        let e_rnd = energy(&pcn, &rnd, cost).unwrap();
        assert!(e_pso < e_rnd, "PSO {e_pso} should beat random {e_rnd}");
    }

    #[test]
    fn gbest_monotone_under_more_generations() {
        let pcn = random_pcn(16, 3.0, 17).unwrap();
        let mesh = Mesh::new(4, 4).unwrap();
        let cost = CostModel::paper_target();
        let short = PsoMapper::new(2).with_generations(5).map(&pcn, mesh, Budget::unlimited()).unwrap();
        let long = PsoMapper::new(2).with_generations(50).map(&pcn, mesh, Budget::unlimited()).unwrap();
        let es = energy(&pcn, &short.placement, cost).unwrap();
        let el = energy(&pcn, &long.placement, cost).unwrap();
        assert!(el <= es + 1e-9, "more generations cannot be worse: {el} vs {es}");
    }

    #[test]
    fn zero_budget_returns_best_initial() {
        let pcn = random_pcn(16, 3.0, 19).unwrap();
        let out = PsoMapper::new(1)
            .map(&pcn, Mesh::new(4, 4).unwrap(), Budget::limited(Duration::ZERO))
            .unwrap();
        assert!(out.early_stopped);
        assert_eq!(out.iterations, 0);
        assert!(out.placement.is_complete());
    }

    #[test]
    fn deterministic_per_seed() {
        let pcn = random_pcn(16, 3.0, 23).unwrap();
        let mesh = Mesh::new(4, 4).unwrap();
        let a = PsoMapper::new(3).with_generations(10).map(&pcn, mesh, Budget::unlimited()).unwrap();
        let b = PsoMapper::new(3).with_generations(10).map(&pcn, mesh, Budget::unlimited()).unwrap();
        assert_eq!(a.placement, b.placement);
    }
}
