//! The workloads: the input each one generates from the seed, its
//! set-up (input file or spec to PCN, hardware model and mapper in
//! memory), and its timed operation (map, repairs, validation, placement
//! JSON written).

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use snnmap_core::{
    hsc_placement_board, FdRunOpts, Mapper, MultilevelConfig, Objective, ReweightOutcome,
    RunBudget, SweepReweighter,
};
use snnmap_hw::{Board, Coord, FaultMap, Mesh, Placement};
use snnmap_io::{read_pcnb, render_placement, write_pcnb};
use snnmap_model::generators::{random_pcn, scramble_pcn, table3_suite};
use snnmap_model::Pcn;
use snnmap_noc::NocReweighter;

use crate::gate::{check_placement, Failure};
use crate::span::{span, Recorder};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Id-scrambled `random_pcn(235 929, deg 4)` from a `.pcnb`, multilevel
    /// onto 512×512 with 5 finest sweeps, 2 threads.
    Multilevel512,
    /// Id-scrambled `random_pcn(60 000)` on an 8×8-chip board, then four
    /// seeded whole-chip losses, each repaired incrementally, 1 thread.
    BoardChiploss,
    /// Table 3 `CNN_16M` on 64×64 with the composite objective and
    /// sim-in-the-loop NoC reweighting, 1 thread.
    CnnComposite,
}

/// Multilevel workload size: 90% of the 512×512 cores.
const ML_CLUSTERS: u32 = 235_929;
/// Board workload size and board.
const BOARD_CLUSTERS: u32 = 60_000;
const BOARD_SPEC: &str = "8x8/32x32@4096,65536";
/// Chips the board workload loses, one after another.
const CHIP_LOSSES: usize = 4;
/// Sweep caps of the board map and of each repair, and the repair radius.
const BOARD_MAP_SWEEPS: u64 = 60;
const REPAIR_SWEEPS: u64 = 16;
const REPAIR_RADIUS: u16 = 2;
/// Composite-objective settings of the CNN workload (the `bench_pareto`
/// arm): λc, reweight cadence and sweep cap.
const CNN_LAMBDA_C: f64 = 4.0;
const CNN_REWEIGHT_EVERY: u64 = 4;
const CNN_MAX_SWEEPS: u64 = 64;
/// Simulated NoC cycles per replay: every reweight of `cnn_composite`, and
/// the traced run's replay of its final placement.
pub const CNN_SIM_CYCLES: u64 = 256;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Multilevel512,
        Workload::BoardChiploss,
        Workload::CnnComposite,
    ];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Multilevel512 => "multilevel_512",
            Workload::BoardChiploss => "board_chiploss",
            Workload::CnnComposite => "cnn_composite",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the workload maps with.
    pub fn threads(self) -> usize {
        match self {
            Workload::Multilevel512 => 2,
            Workload::BoardChiploss | Workload::CnnComposite => 1,
        }
    }

    /// Set-ups an untraced run makes before each timed operation; the
    /// fastest of them over the run is `setup_s`. Sized to a few percent of an
    /// operation on a 2-vCPU machine, and at least three.
    pub fn setup_batch(self) -> usize {
        match self {
            Workload::Multilevel512 => 3,
            Workload::BoardChiploss => 10,
            Workload::CnnComposite => 100,
        }
    }

    /// Connections the congestion metric evaluates: a seeded uniform
    /// sample of at most this many (exact when the PCN has no more), so
    /// that `m_mc` is a lower bound of the exact maximum. Sized per
    /// workload to keep the evaluation near two seconds: a connection of
    /// the multilevel placement covers about 40 times the routers of a
    /// converged flat one.
    pub fn eval_edges(self) -> u64 {
        match self {
            Workload::Multilevel512 => 20_000,
            Workload::BoardChiploss => 60_000,
            Workload::CnnComposite => 20_000,
        }
    }

    /// Writes the workload's input for `seed` into `dir`: always
    /// `input.spec` (one `key value` per line), plus `input.pcnb` for the
    /// two random-PCN workloads.
    ///
    /// # Errors
    ///
    /// Generation or I/O errors.
    pub fn prep(self, seed: u64, dir: &Path) -> Result<(), Failure> {
        fs::create_dir_all(dir).map_err(Failure::error)?;
        let spec = match self {
            Workload::Multilevel512 => {
                write_scrambled(ML_CLUSTERS, seed, dir)?;
                "mesh 512x512\n".to_owned()
            }
            Workload::BoardChiploss => {
                let pcn = write_scrambled(BOARD_CLUSTERS, seed, dir)?;
                let board = Board::parse(BOARD_SPEC).map_err(Failure::error)?;
                let kills = draw_chips(seed, &full_chips(&pcn, &board)?, CHIP_LOSSES);
                let kills: Vec<String> = kills.iter().map(u32::to_string).collect();
                format!("board {BOARD_SPEC}\nkill {}\n", kills.join(" "))
            }
            Workload::CnnComposite => format!("table3 CNN_16M\nseed {seed}\n"),
        };
        fs::write(dir.join("input.spec"), spec).map_err(Failure::error)
    }

    /// Loads the prepared input into memory: the PCN, the hardware model
    /// and the mapper.
    ///
    /// # Errors
    ///
    /// Any I/O, parse or partition error.
    pub fn setup<R: Recorder>(self, dir: &Path, r: &mut R) -> Result<Setup, Failure> {
        let spec_path = dir.join("input.spec");
        let text =
            span(r, "read_spec", |_| fs::read_to_string(&spec_path)).map_err(Failure::error)?;
        let spec = Spec::parse(&text)?;
        let mut input_bytes = text.len() as u64;
        let mut read_pcn = |r: &mut R| -> Result<Pcn, Failure> {
            let path = dir.join("input.pcnb");
            input_bytes += fs::metadata(&path).map_err(Failure::error)?.len();
            span(r, "read_pcnb", |_| read_pcnb(&path)).map_err(Failure::error)
        };
        let threads = self.threads();
        let builder = Mapper::builder().threads(threads);
        let (pcn, mesh, board, kills, mapper, seed) = match self {
            Workload::Multilevel512 => {
                let pcn = read_pcn(r)?;
                let ml = MultilevelConfig {
                    final_sweeps: Some(5),
                    ..MultilevelConfig::default()
                };
                (
                    pcn,
                    spec.mesh("mesh")?,
                    None,
                    Vec::new(),
                    builder.multilevel(ml).build(),
                    0,
                )
            }
            Workload::BoardChiploss => {
                let pcn = read_pcn(r)?;
                let board = Board::parse(spec.get("board")?).map_err(Failure::error)?;
                let kills = spec
                    .get("kill")?
                    .split_whitespace()
                    .map(|k| k.parse::<u32>().map_err(Failure::error))
                    .collect::<Result<Vec<_>, _>>()?;
                let mapper = builder.board(board.clone()).build();
                (pcn, board.mesh(), Some(board), kills, mapper, 0)
            }
            Workload::CnnComposite => {
                let name = spec.get("table3")?;
                let seed = spec.num("seed")?;
                let bench = table3_suite()
                    .into_iter()
                    .find(|b| b.row.name == name)
                    .ok_or_else(|| Failure::Error(format!("no Table 3 row `{name}`")))?;
                let pcn =
                    span(r, "partition_analytic", |_| bench.pcn(seed)).map_err(Failure::error)?;
                let side = bench.row.mesh_side;
                let mesh = Mesh::new(side, side).map_err(Failure::error)?;
                let mapper = builder
                    .objective(Objective::Composite {
                        lambda_c: CNN_LAMBDA_C,
                        lambda_t: 0.0,
                    })
                    .reweight_every(CNN_REWEIGHT_EVERY)
                    .max_iterations(CNN_MAX_SWEEPS)
                    .build();
                (pcn, mesh, None, Vec::new(), mapper, seed)
            }
        };
        Ok(Setup {
            workload: self,
            pcn,
            mesh,
            board,
            kills,
            mapper,
            seed,
            input_bytes,
        })
    }
}

/// A workload in memory, ready to map.
#[derive(Debug)]
pub struct Setup {
    workload: Workload,
    /// The cluster graph.
    pub pcn: Pcn,
    /// The target mesh (the board's, on the board workload).
    pub mesh: Mesh,
    board: Option<Board>,
    kills: Vec<u32>,
    mapper: Mapper,
    seed: u64,
    /// Bytes of input read from disk.
    pub input_bytes: u64,
}

/// One operation's outcome: a map or a repair.
#[derive(Debug)]
pub struct Step {
    /// `map`, `repair1`, `repair2`, ...
    pub label: String,
    /// The validated placement, or why the operation failed.
    pub outcome: Result<Placement, Failure>,
    /// Clusters whose core the operation changed (repairs only).
    pub moved: u64,
    /// Clusters the operation evicted from dead cores (repairs only).
    pub evicted: u64,
}

/// What one timed operation produced.
#[derive(Debug)]
pub struct OpOut {
    /// Every map and repair, in order; a failed step ends the operation.
    pub steps: Vec<Step>,
    /// Bytes of placement JSON written.
    pub written_bytes: u64,
}

impl OpOut {
    /// The last successful placement.
    pub fn final_placement(&self) -> Option<&Placement> {
        self.steps
            .iter()
            .rev()
            .find_map(|s| s.outcome.as_ref().ok())
    }
}

impl Setup {
    /// The workload this set-up belongs to.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The timed operation: maps the workload (plus, on the board
    /// workload, loses its chips one after another and repairs each
    /// loss), validates every placement, and writes the final one as
    /// placement JSON to `out`.
    pub fn run<R: Recorder>(&self, r: &mut R, out: &Path) -> OpOut {
        let mut steps = Vec::new();
        let mapped = span(r, "map", |r| self.map(r)).map_err(Failure::error);
        let mut placement = match mapped.and_then(|p| self.validated(r, p, None)) {
            Ok(p) => p,
            Err(f) => {
                steps.push(Step {
                    label: "map".into(),
                    outcome: Err(f),
                    moved: 0,
                    evicted: 0,
                });
                return OpOut {
                    steps,
                    written_bytes: 0,
                };
            }
        };
        steps.push(Step {
            label: "map".into(),
            outcome: Ok(placement.clone()),
            moved: 0,
            evicted: 0,
        });

        if let Some(board) = &self.board {
            let mut previous = FaultMap::new(self.mesh);
            for (k, &chip) in self.kills.iter().enumerate() {
                let label = format!("repair{}", k + 1);
                let mut current = previous.clone();
                let repaired = current
                    .kill_chip(board, chip)
                    .map_err(Failure::error)
                    .and_then(|_| self.repair(r, &mut placement, &previous, &current))
                    .and_then(|(moved, evicted)| {
                        let p = self.validated(r, placement.clone(), Some(&current))?;
                        Ok((p, moved, evicted))
                    });
                match repaired {
                    Ok((p, moved, evicted)) => steps.push(Step {
                        label,
                        outcome: Ok(p),
                        moved,
                        evicted,
                    }),
                    Err(f) => {
                        steps.push(Step {
                            label,
                            outcome: Err(f),
                            moved: 0,
                            evicted: 0,
                        });
                        return OpOut {
                            steps,
                            written_bytes: 0,
                        };
                    }
                }
                previous = current;
            }
        }

        let text = span(r, "render_placement", |_| render_placement(&placement));
        let written = span(r, "write_placement", |_| fs::write(out, text.as_bytes()));
        if let Err(e) = written {
            let last = steps.last_mut().expect("the map step is always there");
            last.outcome = Err(Failure::error(e));
            return OpOut {
                steps,
                written_bytes: 0,
            };
        }
        OpOut {
            steps,
            written_bytes: text.len() as u64,
        }
    }

    fn map<R: Recorder>(&self, r: &mut R) -> Result<Placement, snnmap_core::CoreError> {
        let (pcn, mesh) = (&self.pcn, self.mesh);
        let outcome = match self.workload {
            Workload::Multilevel512 => self.mapper.map_traced(pcn, mesh, r)?,
            Workload::BoardChiploss => {
                let budget = RunBudget {
                    max_sweeps: Some(BOARD_MAP_SWEEPS),
                    ..RunBudget::default()
                };
                let mut opts = FdRunOpts {
                    budget,
                    ..FdRunOpts::default()
                };
                self.mapper.map_budgeted_traced(pcn, mesh, &mut opts, r)?
            }
            Workload::CnnComposite => {
                let mut hook = TimedHook {
                    inner: NocReweighter::new(pcn, noc_scale(pcn), CNN_SIM_CYCLES, self.seed),
                    intervals: Vec::new(),
                };
                let outcome = {
                    let mut opts = FdRunOpts {
                        reweighter: Some(&mut hook),
                        ..FdRunOpts::default()
                    };
                    self.mapper.map_budgeted_traced(pcn, mesh, &mut opts, r)
                };
                for iv in hook.intervals {
                    r.attach(iv);
                }
                outcome?
            }
        };
        Ok(outcome.placement)
    }

    /// One incremental repair after `current` lost a chip; returns the
    /// clusters it moved and the clusters it evicted.
    fn repair<R: Recorder>(
        &self,
        r: &mut R,
        placement: &mut Placement,
        previous: &FaultMap,
        current: &FaultMap,
    ) -> Result<(u64, u64), Failure> {
        let budget = RunBudget {
            max_sweeps: Some(REPAIR_SWEEPS),
            ..RunBudget::default()
        };
        let report = span(r, "repair_incremental", |r| {
            self.mapper.repair_incremental_traced(
                &self.pcn,
                placement,
                previous,
                current,
                REPAIR_RADIUS,
                budget,
                r,
            )
        })
        .map_err(Failure::error)?;
        if let Some(d) = report.degraded {
            return Err(Failure::Degraded(format!(
                "{} cluster(s) left unplaced",
                d.unplaced.len()
            )));
        }
        Ok((report.moved, report.evicted.len() as u64))
    }

    fn validated<R: Recorder>(
        &self,
        r: &mut R,
        placement: Placement,
        faults: Option<&FaultMap>,
    ) -> Result<Placement, Failure> {
        span(r, "validate", |_| {
            check_placement(&self.pcn, &placement, faults, self.board.as_ref())
        })?;
        Ok(placement)
    }
}

/// Injection scale of the NoC replays (the `snnmap map --sim-in-loop`
/// formula): the hottest connection injects with probability 1/4 per
/// cycle.
pub fn noc_scale(pcn: &Pcn) -> f64 {
    let wmax = (0..pcn.num_clusters())
        .flat_map(|c| pcn.out_edges(c))
        .fold(0.0f64, |m, (_, w)| m.max(f64::from(w)));
    if wmax > 0.0 {
        0.25 / wmax
    } else {
        0.0
    }
}

/// Wraps the program's [`NocReweighter`] to time each replay.
struct TimedHook<'a> {
    inner: NocReweighter<'a>,
    intervals: Vec<(Instant, Instant)>,
}

impl SweepReweighter for TimedHook<'_> {
    fn reweight(&mut self, sweep: u64, coords: &[Coord], mesh: Mesh) -> ReweightOutcome {
        let t0 = Instant::now();
        let out = self.inner.reweight(sweep, coords, mesh);
        self.intervals.push((t0, Instant::now()));
        out
    }
}

/// Generates the id-scrambled random PCN of `clusters` clusters for
/// `seed`, writes it as `dir/input.pcnb` and returns it.
fn write_scrambled(clusters: u32, seed: u64, dir: &Path) -> Result<Pcn, Failure> {
    let pcn = random_pcn(clusters, 4.0, seed).map_err(Failure::error)?;
    let pcn = scramble_pcn(&pcn, seed).map_err(Failure::error)?;
    write_pcnb(dir.join("input.pcnb"), &pcn).map_err(Failure::error)?;
    Ok(pcn)
}

/// The chips whose every core the board map's capacity-aware Hilbert
/// initialisation fills. The board has room for more clusters than the
/// PCN has, so the Hilbert order leaves its last chips empty or partly
/// filled; losing only full chips makes every repair evict a whole chip
/// of clusters, whatever the seed.
fn full_chips(pcn: &Pcn, board: &Board) -> Result<Vec<u32>, Failure> {
    let init = hsc_placement_board(pcn, board, None, 1).map_err(Failure::error)?;
    let mut load = vec![0usize; board.num_chips() as usize];
    for (_, c) in init.iter_placed() {
        load[board.chip_of(c) as usize] += 1;
    }
    Ok((0..board.num_chips())
        .filter(|&chip| load[chip as usize] == board.cores_per_chip())
        .collect())
}

/// `count` distinct chips out of `candidates`, drawn from `seed`
/// (splitmix64).
pub fn draw_chips(seed: u64, candidates: &[u32], count: usize) -> Vec<u32> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut out: Vec<u32> = Vec::with_capacity(count);
    while out.len() < count.min(candidates.len()) {
        let c = candidates[(next() % candidates.len() as u64) as usize];
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// A parsed `input.spec`: one `key value` pair per line.
struct Spec(BTreeMap<String, String>);

impl Spec {
    fn parse(text: &str) -> Result<Spec, Failure> {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (k, v) = line
                .split_once(' ')
                .ok_or_else(|| Failure::Error(format!("bad spec line `{line}`")))?;
            map.insert(k.to_owned(), v.trim().to_owned());
        }
        Ok(Spec(map))
    }

    fn get(&self, key: &str) -> Result<&str, Failure> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| Failure::Error(format!("spec lacks `{key}`")))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, Failure> {
        let v = self.get(key)?;
        v.parse()
            .map_err(|_| Failure::Error(format!("spec `{key}`: bad number `{v}`")))
    }

    /// A `AxB` value.
    fn pair(&self, key: &str) -> Result<(u64, u64), Failure> {
        let v = self.get(key)?;
        let bad = || Failure::Error(format!("spec `{key}`: want AxB, got `{v}`"));
        let (a, b) = v.split_once('x').ok_or_else(bad)?;
        Ok((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?))
    }

    fn mesh(&self, key: &str) -> Result<Mesh, Failure> {
        let (rows, cols) = self.pair(key)?;
        let dim = |d: u64| u16::try_from(d).map_err(Failure::error);
        Mesh::new(dim(rows)?, dim(cols)?).map_err(Failure::error)
    }
}
