//! The compared mapping approaches behind one interface (§5.1.3).

use std::fmt;
use std::time::{Duration, Instant};

use snnmap_baselines::{
    BaselineMapper, Budget, DfSynthesizerMapper, PsoMapper, RandomMapper, TrueNorthMapper,
};
use snnmap_core::{CoreError, Mapper};
use snnmap_hw::{Mesh, Placement};
use snnmap_model::Pcn;

/// One of the five approaches the paper evaluates (§5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Random mapping — the normalization baseline.
    Random,
    /// TrueNorth layer-wise greedy.
    TrueNorth,
    /// DFSynthesizer iterative swap.
    DfSynthesizer,
    /// Discrete PSO.
    Pso,
    /// The paper's approach: HSC + FD with the `u_c` potential
    /// (method j of Figure 8).
    Proposed,
}

impl Method {
    /// All five methods in the paper's plotting order.
    pub fn all() -> [Method; 5] {
        [Method::Random, Method::TrueNorth, Method::DfSynthesizer, Method::Pso, Method::Proposed]
    }

    /// Display name used in figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Random => "Random",
            Method::TrueNorth => "TrueNorth",
            Method::DfSynthesizer => "DFSynthesizer",
            Method::Pso => "PSO",
            Method::Proposed => "Proposed",
        }
    }

    /// Runs the method on a PCN under a wall-clock budget, with
    /// `threads` workers for the proposed mapper (`0` = auto; baselines
    /// are serial and ignore it). The proposed placement is bit-identical
    /// for every thread count.
    ///
    /// # Errors
    ///
    /// [`CoreError::MeshTooSmall`] if the PCN outnumbers the cores.
    pub fn run(
        &self,
        pcn: &Pcn,
        mesh: Mesh,
        budget_limit: Option<Duration>,
        seed: u64,
        threads: usize,
    ) -> Result<MethodRun, CoreError> {
        let start = Instant::now();
        let budget = match budget_limit {
            Some(d) => Budget::limited(d),
            None => Budget::unlimited(),
        };
        let (placement, early_stopped) = match self {
            Method::Random => run_baseline(&RandomMapper::new(seed), pcn, mesh, budget)?,
            Method::TrueNorth => run_baseline(&TrueNorthMapper::new(), pcn, mesh, budget)?,
            Method::DfSynthesizer => {
                run_baseline(&DfSynthesizerMapper::new(seed), pcn, mesh, budget)?
            }
            Method::Pso => run_baseline(&PsoMapper::new(seed), pcn, mesh, budget)?,
            Method::Proposed => {
                let mut builder = Mapper::builder().threads(threads);
                if let Some(d) = budget_limit {
                    builder = builder.time_budget(d);
                }
                let outcome = builder.build().map(pcn, mesh)?;
                let es = outcome.fd_stats.map(|s| !s.converged).unwrap_or(false);
                (outcome.placement, es)
            }
        };
        Ok(MethodRun { placement, elapsed: start.elapsed(), early_stopped })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

fn run_baseline(
    mapper: &dyn BaselineMapper,
    pcn: &Pcn,
    mesh: Mesh,
    budget: Budget,
) -> Result<(Placement, bool), CoreError> {
    let out = mapper.map(pcn, mesh, budget)?;
    Ok((out.placement, out.early_stopped))
}

/// The outcome of one method run.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// The produced placement.
    pub placement: Placement,
    /// Wall-clock solve time.
    pub elapsed: Duration,
    /// Whether the run hit its budget before finishing (the paper's "ES"
    /// marker).
    pub early_stopped: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use snnmap_model::generators::random_pcn;

    #[test]
    fn every_method_runs_on_a_small_pcn() {
        let pcn = random_pcn(16, 3.0, 1).unwrap();
        let mesh = Mesh::new(4, 4).unwrap();
        for m in Method::all() {
            let run = m.run(&pcn, mesh, None, 7, 0).unwrap();
            assert!(run.placement.is_complete(), "{m}");
            assert!(!run.early_stopped, "{m}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Method::all().iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn budgeted_run_flags_early_stop() {
        let pcn = random_pcn(100, 4.0, 2).unwrap();
        let mesh = Mesh::new(10, 10).unwrap();
        let run = Method::TrueNorth.run(&pcn, mesh, Some(Duration::ZERO), 0, 0).unwrap();
        assert!(run.early_stopped);
        assert!(run.placement.is_complete());
    }
}
