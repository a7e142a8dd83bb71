//! Multilevel graph coarsening by heavy-edge matching.
//!
//! SNEAP-style multilevel mapping (see PAPERS.md) shrinks the PCN through
//! repeated **heavy-edge matching**: each round pairs every cluster with
//! its heaviest-traffic unmatched neighbour and contracts the pair into
//! one coarse cluster, roughly halving the graph while keeping the bulk
//! of the traffic *inside* coarse clusters (where it costs nothing on the
//! interconnect). The resulting hierarchy lets the mapper place a
//! thousands-of-clusters graph instead of a millions-of-clusters one, and
//! then refine locally while uncoarsening level by level.
//!
//! Everything here is deterministic: clusters are visited in ascending
//! id, the heaviest *symmetric* weight `w(u→v) + w(v→u)` wins, ties break
//! to the smallest neighbour id, and coarse ids are assigned by first
//! appearance. The same PCN always yields the same hierarchy, on any
//! machine, for any thread count.

use snnmap_model::Pcn;

use crate::CoreError;

/// Sentinel for "no parent assigned yet" during id assignment.
const UNASSIGNED: u32 = u32::MAX;

/// One level of the coarsening hierarchy: the coarse graph plus the
/// mapping from the next-finer level's clusters onto it.
///
/// For `levels = coarsen(&pcn, &cfg)?`, `levels[0].parent_of` maps the
/// *original* PCN's cluster ids onto `levels[0].pcn`, and
/// `levels[k].parent_of` maps `levels[k - 1].pcn`'s ids onto
/// `levels[k].pcn`. The last element is the coarsest graph.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarse cluster graph at this level.
    pub pcn: Pcn,
    /// `parent_of[f]` is the coarse cluster (an id into [`Self::pcn`])
    /// that fine cluster `f` of the next-finer level was contracted into.
    /// Dense: every coarse id in `0..pcn.num_clusters()` appears.
    pub parent_of: Vec<u32>,
}

/// Stop conditions for [`coarsen`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarsenConfig {
    /// Stop once a level has at most this many clusters (the coarsest
    /// graph the initial placement runs on). Default 4096.
    pub target_clusters: u32,
    /// Hard cap on hierarchy depth. Default 32.
    pub max_levels: u32,
    /// Stop when a round shrinks the graph by less than this fraction —
    /// matching degenerates on star-like graphs, and grinding out 2%
    /// reductions buys nothing. Default 0.05.
    pub min_reduction: f64,
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        Self { target_clusters: 4096, max_levels: 32, min_reduction: 0.05 }
    }
}

/// Coarsens `pcn` into a hierarchy of progressively smaller graphs (see
/// [`CoarseLevel`] for the indexing convention). Returns an empty vector
/// when `pcn` is already at or below `cfg.target_clusters` — the caller
/// should then map the original graph directly.
///
/// Every contraction conserves the graph's totals: neuron and synapse
/// counts sum exactly, and inter-cluster traffic either stays on a coarse
/// edge or moves into [`Pcn::intra_traffic`] when both endpoints land in
/// the same coarse cluster. A coarse weight is the `f64` sum of at most
/// four fine `f32` weights, rounded to `f32`. That sum is exact whenever
/// the terms lie within a factor of 2²⁸ of each other, so it does not
/// depend on their order and equals what aggregating the same edges
/// through [`snnmap_model::PcnBuilder`] gives, bit for bit. The fine and
/// coarse traffic totals sum differently grouped terms, so they agree up
/// to `f64` rounding, not bit for bit.
///
/// # Errors
///
/// [`CoreError::InvalidRunOpts`] when `cfg` is malformed
/// (`target_clusters == 0`, `min_reduction` outside `[0, 1)`).
pub fn coarsen(pcn: &Pcn, cfg: &CoarsenConfig) -> Result<Vec<CoarseLevel>, CoreError> {
    if cfg.target_clusters == 0 {
        return Err(CoreError::InvalidRunOpts {
            message: "coarsen target_clusters must be positive".into(),
        });
    }
    if !(0.0..1.0).contains(&cfg.min_reduction) {
        return Err(CoreError::InvalidRunOpts {
            message: format!(
                "coarsen min_reduction must be in [0, 1), got {}",
                cfg.min_reduction
            ),
        });
    }
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current = pcn;
    while levels.len() < cfg.max_levels as usize
        && current.num_clusters() > cfg.target_clusters
    {
        let n = current.num_clusters();
        let level = contract_once(current)?;
        let coarse_n = level.pcn.num_clusters();
        if coarse_n >= n {
            break; // edgeless graph: nothing matched, nothing to gain
        }
        let reduction = 1.0 - coarse_n as f64 / n as f64;
        levels.push(level);
        if reduction < cfg.min_reduction {
            break;
        }
        current = &levels.last().expect("just pushed").pcn;
    }
    Ok(levels)
}

/// One heavy-edge-matching round: pairs clusters greedily and contracts
/// each pair (or unmatched singleton) into one coarse cluster, writing
/// the coarse out-CSR row by row. It costs O(fine edges + coarse edges)
/// plus a sort of each coarse row, with no global edge sort.
fn contract_once(pcn: &Pcn) -> Result<CoarseLevel, CoreError> {
    let n = pcn.num_clusters() as usize;
    let mut mate: Vec<u32> = vec![UNASSIGNED; n];

    // Symmetric neighbour weights for one cluster at a time, via an
    // epoch-stamped scratch table (no per-cluster allocation).
    let mut weight = vec![0f64; n];
    let mut stamp = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut epoch = 0u32;

    for u in 0..n as u32 {
        if mate[u as usize] != UNASSIGNED {
            continue;
        }
        epoch += 1;
        touched.clear();
        // CSR order is fixed, so this f64 accumulation order — and hence
        // the chosen mate — is identical on every run.
        for (v, w) in pcn.out_edges(u).chain(pcn.in_edges(u)) {
            if v == u {
                continue;
            }
            if stamp[v as usize] != epoch {
                stamp[v as usize] = epoch;
                weight[v as usize] = 0.0;
                touched.push(v);
            }
            weight[v as usize] += w as f64;
        }
        let mut best: Option<(f64, u32)> = None;
        for &v in &touched {
            if mate[v as usize] != UNASSIGNED {
                continue;
            }
            let w = weight[v as usize];
            let better = match best {
                None => true,
                Some((bw, bv)) => w > bw || (w == bw && v < bv),
            };
            if better {
                best = Some((w, v));
            }
        }
        if let Some((_, v)) = best {
            mate[u as usize] = v;
            mate[v as usize] = u;
        }
    }

    // Coarse ids by first appearance over ascending fine ids, so coarse
    // cluster p's smaller child is `first[p]` and its mate (if any) is the
    // larger one.
    let mut parent_of: Vec<u32> = vec![UNASSIGNED; n];
    let mut first: Vec<u32> = Vec::new();
    for f in 0..n {
        if parent_of[f] != UNASSIGNED {
            continue;
        }
        let p = first.len() as u32;
        parent_of[f] = p;
        let m = mate[f];
        if m != UNASSIGNED {
            debug_assert_eq!(parent_of[m as usize], UNASSIGNED);
            parent_of[m as usize] = p;
        }
        first.push(f as u32);
    }
    let coarse_n = first.len();

    // Contract straight into the coarse out-CSR, one coarse row at a time:
    // gather the children's out-edges under `parent_of` into the scratch
    // table, summing each target's weights in f64 (children ascending,
    // each in CSR order), then append the row's targets sorted. Edges
    // between the two children are intra traffic, not row entries.
    let mut neurons = Vec::with_capacity(coarse_n);
    let mut synapses = Vec::with_capacity(coarse_n);
    let mut out_offsets = Vec::with_capacity(coarse_n + 1);
    out_offsets.push(0u64);
    let mut out_to: Vec<u32> = Vec::new();
    let mut out_w: Vec<f32> = Vec::new();
    for (p, &f) in first.iter().enumerate() {
        let pair = [f, mate[f as usize]];
        let children = if pair[1] == UNASSIGNED { &pair[..1] } else { &pair[..] };
        epoch += 1;
        touched.clear();
        let (mut cluster_neurons, mut cluster_synapses) = (0u64, 0u64);
        for &c in children {
            cluster_neurons += u64::from(pcn.neurons_in(c));
            cluster_synapses += pcn.synapses_in(c);
            for (t, w) in pcn.out_edges(c) {
                let q = parent_of[t as usize];
                if q as usize == p {
                    continue;
                }
                if stamp[q as usize] != epoch {
                    stamp[q as usize] = epoch;
                    weight[q as usize] = w as f64;
                    touched.push(q);
                } else {
                    weight[q as usize] += w as f64;
                }
            }
        }
        touched.sort_unstable();
        out_to.extend_from_slice(&touched);
        out_w.extend(touched.iter().map(|&q| weight[q as usize] as f32));
        out_offsets.push(out_to.len() as u64);
        neurons.push(u32::try_from(cluster_neurons).unwrap_or(u32::MAX));
        synapses.push(cluster_synapses);
    }
    out_to.shrink_to_fit();
    out_w.shrink_to_fit();

    // A pair's mutual edges become intra traffic, tallied in ascending fine
    // id before the fine level's own total is added.
    let mut intra = 0f64;
    for (f, &m) in mate.iter().enumerate() {
        if m != UNASSIGNED {
            if let Some(w) = pcn.edge_weight(f as u32, m) {
                intra += w as f64;
            }
        }
    }
    intra += pcn.intra_traffic();

    let coarse = Pcn::from_out_csr(neurons, synapses, out_offsets, out_to, out_w, intra)
        .map_err(|e| CoreError::InvalidRunOpts {
            message: format!("coarsening produced an invalid graph (internal bug): {e}"),
        })?;
    Ok(CoarseLevel { pcn: coarse, parent_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snnmap_model::generators::random_pcn;
    use snnmap_model::PcnBuilder;

    /// The reference contraction: every fine edge re-added under
    /// `parent_of` through [`PcnBuilder`], which sorts and aggregates the
    /// whole edge list and folds collapsed pairs into intra traffic.
    fn contract_with_builder(pcn: &Pcn, parent_of: &[u32]) -> Pcn {
        let coarse_n = parent_of.iter().map(|&p| p as usize + 1).max().unwrap_or(0);
        let mut neurons = vec![0u64; coarse_n];
        let mut synapses = vec![0u64; coarse_n];
        for (f, &p) in parent_of.iter().enumerate() {
            neurons[p as usize] += u64::from(pcn.neurons_in(f as u32));
            synapses[p as usize] += pcn.synapses_in(f as u32);
        }
        let mut b = PcnBuilder::new();
        for (&n, &s) in neurons.iter().zip(&synapses) {
            b.add_cluster(u32::try_from(n).unwrap_or(u32::MAX), s);
        }
        for (f, t, w) in pcn.iter_edges() {
            b.add_edge(parent_of[f as usize], parent_of[t as usize], w).unwrap();
        }
        b.add_intra(pcn.intra_traffic()).unwrap();
        b.build().unwrap()
    }

    /// `contract_once` must equal the builder reference bit for bit, with
    /// every coarse row strictly increasing.
    fn assert_contraction_matches_builder(pcn: &Pcn) {
        let level = contract_once(pcn).unwrap();
        let reference = contract_with_builder(pcn, &level.parent_of);
        let coarse = &level.pcn;
        assert_eq!(coarse, &reference);
        assert_eq!(coarse.total_traffic().to_bits(), reference.total_traffic().to_bits());
        assert_eq!(coarse.intra_traffic().to_bits(), reference.intra_traffic().to_bits());
        for ((f, t, w), (rf, rt, rw)) in coarse.iter_edges().zip(reference.iter_edges()) {
            assert_eq!((f, t, w.to_bits()), (rf, rt, rw.to_bits()));
        }
        for c in 0..coarse.num_clusters() {
            let row: Vec<u32> = coarse.out_edges(c).map(|(t, _)| t).collect();
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {c} not increasing: {row:?}");
        }
    }

    /// `n` clusters with the given `(from, to, weight)` edges (self-loops
    /// included) and an extra intra total.
    fn graph(n: u32, edges: &[(u32, u32, f32)], intra: f64) -> Pcn {
        let mut b = PcnBuilder::new();
        for c in 0..n {
            b.add_cluster(1 + c % 7, 10 + u64::from(c));
        }
        for &(f, t, w) in edges {
            b.add_edge(f % n, t % n, w).unwrap();
        }
        b.add_intra(intra).unwrap();
        b.build().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn contraction_matches_the_builder_on_random_pcns(
            n in 1u32..400,
            degree in 0.0f64..8.0,
            seed in 0u64..10_000,
        ) {
            assert_contraction_matches_builder(&random_pcn(n, degree, seed).unwrap());
        }

        #[test]
        fn contraction_matches_the_builder_with_self_loops_and_intra_traffic(
            n in 1u32..80,
            edges in prop::collection::vec((0u32..80, 0u32..80, 0.01f32..1000.0), 0..400),
            intra in 0.0f64..1e6,
        ) {
            assert_contraction_matches_builder(&graph(n, &edges, intra));
        }

        #[test]
        fn contraction_matches_the_builder_on_stars(
            n in 2u32..300,
            weights in prop::collection::vec((0.01f32..100.0, 0.0f32..100.0), 300),
        ) {
            // Hub 0 talks to every leaf, in both directions; the leaves
            // never talk to each other, so only one leaf can pair up.
            let edges: Vec<(u32, u32, f32)> = (1..n)
                .flat_map(|v| {
                    let (out, back) = weights[v as usize];
                    [(0, v, out), (v, 0, back)]
                })
                .collect();
            assert_contraction_matches_builder(&graph(n, &edges, 0.0));
        }
    }

    #[test]
    fn contraction_matches_the_builder_at_every_level() {
        // Coarser levels carry aggregated f32 weights and intra totals.
        let pcn = random_pcn(2000, 6.0, 5).unwrap();
        let cfg = CoarsenConfig { target_clusters: 8, ..CoarsenConfig::default() };
        let levels = coarsen(&pcn, &cfg).unwrap();
        assert!(levels.len() >= 4);
        assert_contraction_matches_builder(&pcn);
        for level in &levels {
            assert_contraction_matches_builder(&level.pcn);
        }
    }

    #[test]
    fn contraction_matches_the_builder_on_edgeless_graphs() {
        for n in [1, 2, 50] {
            let pcn = graph(n, &[], 3.5);
            assert_contraction_matches_builder(&pcn);
            assert_eq!(contract_once(&pcn).unwrap().pcn.num_clusters(), n);
        }
    }

    fn chain(n: u32) -> Pcn {
        let mut b = PcnBuilder::new();
        for _ in 0..n {
            b.add_cluster(10, 100);
        }
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, 1.0 + i as f32).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn each_cluster_takes_its_heaviest_unmatched_neighbour() {
        // 0 -2- 1, 0 -9- 2, 2 -1- 3: cluster 0 (visited first) pairs with
        // its heavy neighbour 2, leaving 1 and 3 as singletons.
        let mut b = PcnBuilder::new();
        for _ in 0..4 {
            b.add_cluster(1, 1);
        }
        b.add_edge(0, 1, 2.0).unwrap();
        b.add_edge(0, 2, 9.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        let pcn = b.build().unwrap();
        let level = contract_once(&pcn).unwrap();
        assert_eq!(level.parent_of[0], level.parent_of[2]);
        assert_ne!(level.parent_of[1], level.parent_of[0]);
        assert_ne!(level.parent_of[3], level.parent_of[0]);
        assert_ne!(level.parent_of[1], level.parent_of[3]);
        assert_eq!(level.pcn.num_clusters(), 3);
        // The 9.0 edge is now intra-cluster traffic; the rest survives.
        assert_eq!(level.pcn.intra_traffic(), 9.0);
        assert_eq!(level.pcn.total_traffic(), 3.0);
    }

    #[test]
    fn symmetric_weight_decides_the_match() {
        // 0→1 weighs 3, but 2→0 plus 0→2 weighs 2+2=4, so 0 pairs with 2.
        let mut b = PcnBuilder::new();
        for _ in 0..3 {
            b.add_cluster(1, 1);
        }
        b.add_edge(0, 1, 3.0).unwrap();
        b.add_edge(0, 2, 2.0).unwrap();
        b.add_edge(2, 0, 2.0).unwrap();
        let pcn = b.build().unwrap();
        let level = contract_once(&pcn).unwrap();
        assert_eq!(level.parent_of[0], level.parent_of[2]);
    }

    #[test]
    fn ties_break_to_the_smallest_neighbour_id() {
        let mut b = PcnBuilder::new();
        for _ in 0..3 {
            b.add_cluster(1, 1);
        }
        b.add_edge(0, 1, 5.0).unwrap();
        b.add_edge(0, 2, 5.0).unwrap();
        let pcn = b.build().unwrap();
        let level = contract_once(&pcn).unwrap();
        assert_eq!(level.parent_of[0], level.parent_of[1]);
    }

    #[test]
    fn totals_are_conserved_at_every_level() {
        let pcn = random_pcn(500, 6.0, 11).unwrap();
        let cfg = CoarsenConfig { target_clusters: 16, ..CoarsenConfig::default() };
        let levels = coarsen(&pcn, &cfg).unwrap();
        assert!(!levels.is_empty());
        let mut fine: &Pcn = &pcn;
        for (k, level) in levels.iter().enumerate() {
            assert!(level.pcn.num_clusters() < fine.num_clusters(), "level {k}");
            assert_eq!(level.parent_of.len(), fine.num_clusters() as usize, "level {k}");
            assert_eq!(level.pcn.total_neurons(), fine.total_neurons(), "level {k}");
            assert_eq!(level.pcn.total_synapses(), fine.total_synapses(), "level {k}");
            let fine_total = fine.total_traffic() + fine.intra_traffic();
            let coarse_total = level.pcn.total_traffic() + level.pcn.intra_traffic();
            let tol = 1e-3 * fine_total.max(1.0);
            assert!(
                (fine_total - coarse_total).abs() <= tol,
                "level {k}: traffic {fine_total} vs {coarse_total}"
            );
            // parent_of is dense and in-range.
            let cn = level.pcn.num_clusters();
            let mut seen = vec![false; cn as usize];
            for &p in &level.parent_of {
                assert!(p < cn, "level {k}");
                seen[p as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "level {k}: coarse ids must be dense");
            fine = &level.pcn;
        }
        assert!(levels.last().unwrap().pcn.num_clusters() <= 2 * cfg.target_clusters);
    }

    #[test]
    fn already_small_graphs_yield_an_empty_hierarchy() {
        let pcn = chain(10);
        let levels = coarsen(&pcn, &CoarsenConfig::default()).unwrap();
        assert!(levels.is_empty());
    }

    #[test]
    fn edgeless_graphs_terminate() {
        let mut b = PcnBuilder::new();
        for _ in 0..50 {
            b.add_cluster(1, 1);
        }
        let pcn = b.build().unwrap();
        let cfg = CoarsenConfig { target_clusters: 4, ..CoarsenConfig::default() };
        let levels = coarsen(&pcn, &cfg).unwrap();
        assert!(levels.is_empty(), "nothing matches in an edgeless graph");
    }

    #[test]
    fn determinism_across_repeats() {
        let pcn = random_pcn(300, 5.0, 7).unwrap();
        let cfg = CoarsenConfig { target_clusters: 8, ..CoarsenConfig::default() };
        let a = coarsen(&pcn, &cfg).unwrap();
        let b = coarsen(&pcn, &cfg).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.parent_of, y.parent_of);
            assert_eq!(x.pcn, y.pcn);
        }
    }

    #[test]
    fn bad_configs_are_rejected() {
        let pcn = chain(10);
        let cfg = CoarsenConfig { target_clusters: 0, ..CoarsenConfig::default() };
        assert!(matches!(coarsen(&pcn, &cfg), Err(CoreError::InvalidRunOpts { .. })));
        let cfg = CoarsenConfig { min_reduction: 1.0, ..CoarsenConfig::default() };
        assert!(matches!(coarsen(&pcn, &cfg), Err(CoreError::InvalidRunOpts { .. })));
    }

    #[test]
    fn chain_coarsens_by_roughly_half_per_level() {
        let pcn = chain(64);
        let cfg = CoarsenConfig { target_clusters: 4, ..CoarsenConfig::default() };
        let levels = coarsen(&pcn, &cfg).unwrap();
        // A path graph matches almost perfectly: each round halves it.
        assert!(levels.len() >= 3);
        assert_eq!(levels[0].pcn.num_clusters(), 32);
    }
}
