//! Random mapping — the normalization baseline.

use snnmap_core::{random_placement, CoreError};
use snnmap_hw::Mesh;
use snnmap_model::Pcn;

use crate::{BaselineMapper, BaselineOutcome, Budget};

/// Uniformly random cluster-to-core assignment ("The baseline: randomly
/// mapping", §5.1.3). Deterministic per seed.
///
/// # Examples
///
/// ```
/// use snnmap_baselines::{BaselineMapper, Budget, RandomMapper};
/// use snnmap_hw::Mesh;
/// use snnmap_model::generators::random_pcn;
///
/// let pcn = random_pcn(16, 3.0, 0)?;
/// let out = RandomMapper::new(7).map(&pcn, Mesh::new(4, 4)?, Budget::unlimited())?;
/// assert!(out.placement.is_complete());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RandomMapper {
    seed: u64,
}

impl RandomMapper {
    /// A random mapper with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl BaselineMapper for RandomMapper {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn map(&self, pcn: &Pcn, mesh: Mesh, _budget: Budget) -> Result<BaselineOutcome, CoreError> {
        Ok(BaselineOutcome {
            placement: random_placement(pcn, mesh, self.seed, None)?,
            iterations: 0,
            early_stopped: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_model::generators::random_pcn;

    #[test]
    fn deterministic_per_seed() {
        let pcn = random_pcn(20, 3.0, 1).unwrap();
        let mesh = Mesh::new(5, 5).unwrap();
        let a = RandomMapper::new(3).map(&pcn, mesh, Budget::unlimited()).unwrap();
        let b = RandomMapper::new(3).map(&pcn, mesh, Budget::unlimited()).unwrap();
        assert_eq!(a.placement, b.placement);
        let c = RandomMapper::new(4).map(&pcn, mesh, Budget::unlimited()).unwrap();
        assert_ne!(a.placement, c.placement);
    }
}
