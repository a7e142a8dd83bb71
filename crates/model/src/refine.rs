//! Traffic-aware partition refinement (extension).
//!
//! Algorithm 1 packs neurons first-fit in id order, ignoring traffic:
//! two heavily connected neurons can land in different clusters purely
//! because a capacity boundary fell between them. Much of the prior work
//! the paper compares against (PSOPART, SpiNeMap) optimizes exactly this
//! cut. This module adds a Kernighan–Lin-flavoured post-pass: greedily
//! move boundary neurons to the neighbouring cluster where most of their
//! traffic lives, whenever the move reduces the total inter-cluster
//! traffic and respects both per-core capacity limits.
//!
//! The refined assignment is no longer a set of contiguous id ranges, so
//! the PCN is rebuilt from the explicit assignment
//! ([`pcn_from_assignment`]).

use std::collections::HashMap;

use snnmap_hw::CoreConstraints;

use crate::{ModelError, Pcn, PcnBuilder, SnnNetwork};

/// Outcome of one [`refine_partition`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineStats {
    /// Neuron moves applied.
    pub moves: u64,
    /// Neuron pair swaps applied (capacity-preserving moves used when
    /// both clusters are full).
    pub swaps: u64,
    /// Full passes over the neuron set.
    pub passes: u32,
    /// Inter-cluster traffic before refinement.
    pub initial_cut: f64,
    /// Inter-cluster traffic after refinement.
    pub final_cut: f64,
}

/// First-fit partitioning (Algorithm 1) that also returns the explicit
/// neuron → cluster assignment, as input for refinement.
///
/// # Errors
///
/// Same as [`partition`](crate::partition).
pub fn partition_with_assignment(
    snn: &SnnNetwork,
    con: CoreConstraints,
) -> Result<(Pcn, Vec<u32>), ModelError> {
    let n = snn.num_neurons();
    if n == 0 {
        return Err(ModelError::EmptyNetwork);
    }
    let mut assignment = vec![0u32; n as usize];
    let mut cluster = 0u32;
    let mut cur_neurons = 0u32;
    let mut cur_synapses = 0u64;
    for x in 0..n {
        let fi = snn.fan_in(x) as u64;
        let overflow = cur_neurons + 1 > con.neurons_per_core
            || cur_synapses + fi > con.synapses_per_core;
        if overflow && cur_neurons > 0 {
            cluster += 1;
            cur_neurons = 0;
            cur_synapses = 0;
        }
        assignment[x as usize] = cluster;
        cur_neurons += 1;
        cur_synapses += fi;
    }
    let pcn = pcn_from_assignment(snn, &assignment)?;
    Ok((pcn, assignment))
}

/// Builds the PCN induced by an arbitrary neuron → cluster assignment
/// (eq. 5 aggregation over the given clustering).
///
/// # Errors
///
/// [`ModelError::EmptyNetwork`] for an empty network or assignment;
/// [`ModelError::InvalidSynapse`]-shaped errors cannot occur (cluster
/// ids are densified first).
pub fn pcn_from_assignment(snn: &SnnNetwork, assignment: &[u32]) -> Result<Pcn, ModelError> {
    if snn.num_neurons() == 0 || assignment.len() != snn.num_neurons() as usize {
        return Err(ModelError::EmptyNetwork);
    }
    let n_clusters = assignment.iter().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut neurons = vec![0u32; n_clusters as usize];
    let mut synapses = vec![0u64; n_clusters as usize];
    for x in 0..snn.num_neurons() {
        let c = assignment[x as usize] as usize;
        neurons[c] += 1;
        synapses[c] += snn.fan_in(x) as u64;
    }
    let mut b = PcnBuilder::with_capacity(n_clusters as usize, snn.num_synapses() as usize / 4);
    for (&n, &s) in neurons.iter().zip(&synapses) {
        b.add_cluster(n.max(1), s); // empty clusters keep a placeholder neuron count
    }
    for (u, v, w) in snn.iter_synapses() {
        b.add_edge(assignment[u as usize], assignment[v as usize], w)?;
    }
    b.build()
}

/// Total inter-cluster traffic (the "cut") of an assignment.
pub fn cut_weight(snn: &SnnNetwork, assignment: &[u32]) -> f64 {
    snn.iter_synapses()
        .filter(|&(u, v, _)| assignment[u as usize] != assignment[v as usize])
        .map(|(_, _, w)| w as f64)
        .sum()
}

/// Greedy boundary refinement: repeatedly moves single neurons to the
/// cluster holding most of their traffic while both capacity limits stay
/// satisfied; when the attractive cluster is full (the common case —
/// Algorithm 1 fills clusters to the brim), a Kernighan–Lin-style *swap*
/// with one of its members is tried instead (sizes preserved, so only
/// the synapse budgets need rechecking). The cut decreases strictly with
/// every applied move or swap, so termination is guaranteed.
///
/// `assignment` is refined in place. Empty source clusters are allowed
/// to form; rebuild the PCN with [`pcn_from_assignment`] afterwards.
///
/// # Panics
///
/// Panics if `assignment` length differs from the neuron count, or if a
/// cluster's load already violates `con` (refinement requires a feasible
/// start).
pub fn refine_partition(
    snn: &SnnNetwork,
    assignment: &mut [u32],
    con: CoreConstraints,
    max_passes: u32,
) -> RefineStats {
    assert_eq!(assignment.len(), snn.num_neurons() as usize, "assignment covers all neurons");
    let n_clusters =
        assignment.iter().copied().max().map(|m| m as usize + 1).unwrap_or(0);
    let mut cl_neurons = vec![0u32; n_clusters];
    let mut cl_synapses = vec![0u64; n_clusters];
    for x in 0..snn.num_neurons() {
        let c = assignment[x as usize] as usize;
        cl_neurons[c] += 1;
        cl_synapses[c] += snn.fan_in(x) as u64;
    }
    for c in 0..n_clusters {
        assert!(
            con.admits(cl_neurons[c], cl_synapses[c]),
            "cluster {c} starts over budget"
        );
    }

    let initial_cut = cut_weight(snn, assignment);
    // Incoming adjacency (cluster-gain needs both directions): build once.
    let mut in_edges: Vec<Vec<(u32, f32)>> = vec![Vec::new(); snn.num_neurons() as usize];
    for (u, v, w) in snn.iter_synapses() {
        in_edges[v as usize].push((u, w));
    }
    // Cluster membership lists, maintained across moves and swaps.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n_clusters];
    for x in 0..snn.num_neurons() {
        members[assignment[x as usize] as usize].push(x);
    }
    // How many swap partners to examine per attractive cluster; bounds
    // the per-neuron cost at O(K · avg degree).
    const SWAP_CANDIDATES: usize = 16;

    // Traffic of neuron `z` toward each cluster it touches.
    let traffic_by_cluster =
        |z: u32, assignment: &[u32], scratch: &mut HashMap<u32, f64>| {
            scratch.clear();
            for (v, w) in snn.synapses_out(z) {
                if v != z {
                    *scratch.entry(assignment[v as usize]).or_insert(0.0) += w as f64;
                }
            }
            for &(u, w) in &in_edges[z as usize] {
                if u != z {
                    *scratch.entry(assignment[u as usize]).or_insert(0.0) += w as f64;
                }
            }
        };
    let remove_member = |members: &mut Vec<Vec<u32>>, cluster: usize, neuron: u32| {
        let list = &mut members[cluster];
        let idx = list.iter().position(|&m| m == neuron).expect("member present");
        list.swap_remove(idx);
    };

    let mut moves = 0u64;
    let mut swaps = 0u64;
    let mut passes = 0u32;
    let mut scratch: HashMap<u32, f64> = HashMap::new();
    let mut scratch_y: HashMap<u32, f64> = HashMap::new();
    while passes < max_passes {
        passes += 1;
        let mut changed_this_pass = false;
        for x in 0..snn.num_neurons() {
            let home = assignment[x as usize];
            traffic_by_cluster(x, assignment, &mut scratch);
            let home_traffic = scratch.get(&home).copied().unwrap_or(0.0);
            let fi = snn.fan_in(x) as u64;

            // Best feasible single move by cut gain.
            let mut best_move: Option<(f64, u32)> = None;
            // Best attractive-but-full cluster, for the swap fallback.
            let mut best_full: Option<(f64, u32)> = None;
            for (&cand, &traffic) in &scratch {
                if cand == home {
                    continue;
                }
                let gain = traffic - home_traffic;
                if gain <= 1e-12 {
                    continue;
                }
                let c = cand as usize;
                // Ties go to the lowest cluster id, so the choice does
                // not depend on the map's iteration order.
                let best = if con.admits(cl_neurons[c] + 1, cl_synapses[c] + fi) {
                    &mut best_move
                } else {
                    &mut best_full
                };
                match *best {
                    Some((g, b)) if g > gain || (g == gain && b < cand) => {}
                    _ => *best = Some((gain, cand)),
                }
            }

            if let Some((_, dest)) = best_move {
                let (h, d) = (home as usize, dest as usize);
                cl_neurons[h] -= 1;
                cl_synapses[h] -= fi;
                cl_neurons[d] += 1;
                cl_synapses[d] += fi;
                assignment[x as usize] = dest;
                remove_member(&mut members, h, x);
                members[d].push(x);
                moves += 1;
                changed_this_pass = true;
                continue;
            }

            // Swap fallback: exchange x with a member y of the attractive
            // cluster. Swap gain = [t(x,b) − t(x,a)] + [t(y,a) − t(y,b)]
            // (the x–y edge terms cancel); sizes are preserved, so only
            // the synapse budgets need rechecking.
            let Some((move_gain, dest)) = best_full else { continue };
            let (h, d) = (home as usize, dest as usize);
            let mut best_swap: Option<(f64, u32, u64)> = None;
            for &y in members[d].iter().take(SWAP_CANDIDATES) {
                traffic_by_cluster(y, assignment, &mut scratch_y);
                let y_gain = scratch_y.get(&home).copied().unwrap_or(0.0)
                    - scratch_y.get(&dest).copied().unwrap_or(0.0);
                let total = move_gain + y_gain;
                if total <= 1e-12 {
                    continue;
                }
                let fy = snn.fan_in(y) as u64;
                let a_syn = cl_synapses[h] - fi + fy;
                let b_syn = cl_synapses[d] - fy + fi;
                if a_syn > con.synapses_per_core || b_syn > con.synapses_per_core {
                    continue;
                }
                match best_swap {
                    Some((g, _, _)) if g >= total => {}
                    _ => best_swap = Some((total, y, fy)),
                }
            }
            if let Some((_, y, fy)) = best_swap {
                cl_synapses[h] = cl_synapses[h] - fi + fy;
                cl_synapses[d] = cl_synapses[d] - fy + fi;
                assignment[x as usize] = dest;
                assignment[y as usize] = home;
                remove_member(&mut members, h, x);
                remove_member(&mut members, d, y);
                members[d].push(x);
                members[h].push(y);
                swaps += 1;
                changed_this_pass = true;
            }
        }
        if !changed_this_pass {
            break;
        }
    }

    RefineStats { moves, swaps, passes, initial_cut, final_cut: cut_weight(snn, assignment) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{partition, SnnBuilder};

    /// Two 4-cliques connected by one weak edge, but first-fit splits
    /// them badly when the capacity boundary falls mid-clique.
    fn two_cliques() -> SnnNetwork {
        let mut b = SnnBuilder::new(8);
        for group in [0u32, 4] {
            for i in 0..4 {
                for j in 0..4 {
                    if i != j {
                        b.synapse(group + i, group + j, 10.0).unwrap();
                    }
                }
            }
        }
        b.synapse(3, 4, 0.1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn partition_with_assignment_matches_partition() {
        let snn = two_cliques();
        let con = CoreConstraints::new(3, u64::MAX).unwrap();
        let (pcn_a, assignment) = partition_with_assignment(&snn, con).unwrap();
        let pcn_b = partition(&snn, con).unwrap();
        assert_eq!(pcn_a.num_clusters(), pcn_b.num_clusters());
        assert_eq!(pcn_a.total_traffic(), pcn_b.total_traffic());
        // First-fit assignment is nondecreasing.
        assert!(assignment.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn refinement_reduces_cut_on_misaligned_cliques() {
        let snn = two_cliques();
        // Capacity 4 per cluster, but shift the boundary: assign 0..3 to
        // cluster 0, 3..6 to cluster 1, 6..8 to cluster 2 (bad split).
        let mut assignment = vec![0, 0, 0, 1, 1, 1, 2, 2];
        let con = CoreConstraints::new(4, u64::MAX).unwrap();
        let before = cut_weight(&snn, &assignment);
        let stats = refine_partition(&snn, &mut assignment, con, 10);
        assert_eq!(stats.initial_cut, before);
        assert!(stats.final_cut < before, "{} !< {before}", stats.final_cut);
        assert!(stats.moves > 0);
        // The weak 3-4 edge should be the only remaining cut traffic.
        assert!(stats.final_cut <= 0.2 + 1e-9, "cut {}", stats.final_cut);
        // Cliques reunited: each clique in one cluster.
        assert_eq!(assignment[0], assignment[1]);
        assert_eq!(assignment[0], assignment[2]);
        assert_eq!(assignment[0], assignment[3]);
        assert_eq!(assignment[4], assignment[5]);
        assert_eq!(assignment[4], assignment[6]);
        assert_eq!(assignment[4], assignment[7]);
    }

    #[test]
    fn refinement_respects_capacity() {
        let snn = two_cliques();
        let con = CoreConstraints::new(4, u64::MAX).unwrap();
        let (_, mut assignment) = partition_with_assignment(&snn, con).unwrap();
        refine_partition(&snn, &mut assignment, con, 10);
        let mut counts = std::collections::HashMap::new();
        for &c in assignment.iter() {
            *counts.entry(c).or_insert(0u32) += 1;
        }
        for (&c, &n) in &counts {
            assert!(n <= 4, "cluster {c} holds {n} neurons");
        }
    }

    #[test]
    fn refinement_never_increases_cut() {
        for seed in 0..5 {
            let snn = crate::generators::random_snn(200, 6.0, 30, seed).unwrap();
            let con = CoreConstraints::new(16, u64::MAX).unwrap();
            let (_, mut assignment) = partition_with_assignment(&snn, con).unwrap();
            let before = cut_weight(&snn, &assignment);
            let stats = refine_partition(&snn, &mut assignment, con, 5);
            assert!(stats.final_cut <= before + 1e-9, "seed {seed}");
            assert!((cut_weight(&snn, &assignment) - stats.final_cut).abs() < 1e-9);
        }
    }

    #[test]
    fn refinement_is_deterministic() {
        // A dense chain's equal weights tie many gains; each run's maps
        // hash with fresh keys, so an order-dependent tie-break shows.
        let snn = crate::generators::DnnSpec::new(&[256; 4]).unwrap().build(42).unwrap();
        let con = CoreConstraints::new(32, u64::MAX).unwrap();
        let (_, first_fit) = partition_with_assignment(&snn, con).unwrap();
        let refine = || {
            let mut assignment = first_fit.clone();
            let stats = refine_partition(&snn, &mut assignment, con, 8);
            (assignment, stats)
        };
        let first = refine();
        for _ in 0..3 {
            assert!(refine() == first, "refinement depends on hash order");
        }
    }

    #[test]
    fn pcn_from_assignment_conserves_traffic() {
        let snn = two_cliques();
        let assignment = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let pcn = pcn_from_assignment(&snn, &assignment).unwrap();
        assert_eq!(pcn.num_clusters(), 2);
        let total = pcn.total_traffic() + pcn.intra_traffic();
        assert!((total - snn.total_traffic()).abs() < 1e-9);
        // Only the weak bridge crosses.
        assert!((pcn.total_traffic() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn pcn_from_assignment_rejects_bad_lengths() {
        let snn = two_cliques();
        assert!(pcn_from_assignment(&snn, &[0, 1]).is_err());
    }

    #[test]
    #[should_panic(expected = "over budget")]
    fn refine_rejects_infeasible_start() {
        let snn = two_cliques();
        let mut assignment = vec![0; 8];
        refine_partition(&snn, &mut assignment, CoreConstraints::new(4, u64::MAX).unwrap(), 1);
    }
}
