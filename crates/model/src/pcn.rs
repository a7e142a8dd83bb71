//! The Partitioned Cluster Network (PCN).

use std::fmt;

use crate::ModelError;

/// The Partitioned Cluster Network `G_PCN = (V_P, E_P, w_P)` (eq. 3): the
/// cluster-level graph the mapping algorithms operate on.
///
/// Each node is a cluster of neurons small enough for one core; each
/// directed edge carries the aggregated spike traffic between two clusters
/// (eq. 5). Intra-cluster traffic never enters the interconnect, so
/// self-loops are excluded from `E_P` (their total is still available via
/// [`Pcn::intra_traffic`]).
///
/// Both edge directions are stored in CSR form so that the Force-Directed
/// engine can enumerate *all* neighbours of a cluster in O(degree).
///
/// # Examples
///
/// ```
/// use snnmap_model::PcnBuilder;
///
/// let mut b = PcnBuilder::new();
/// b.add_cluster(100, 5_000); // neurons, stored synapses
/// b.add_cluster(80, 4_000);
/// b.add_cluster(120, 6_000);
/// b.add_edge(0, 1, 10.0)?;
/// b.add_edge(1, 2, 4.0)?;
/// b.add_edge(0, 1, 2.0)?; // duplicate pairs accumulate
/// let pcn = b.build()?;
/// assert_eq!(pcn.num_clusters(), 3);
/// assert_eq!(pcn.num_connections(), 2);
/// assert_eq!(pcn.edge_weight(0, 1), Some(12.0));
/// # Ok::<(), snnmap_model::ModelError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct Pcn {
    neurons: Vec<u32>,
    synapses: Vec<u64>,
    out_offsets: Vec<u64>,
    out_to: Vec<u32>,
    out_w: Vec<f32>,
    in_offsets: Vec<u64>,
    in_from: Vec<u32>,
    in_w: Vec<f32>,
    total_traffic: f64,
    intra_traffic: f64,
    total_neurons: u64,
    total_synapses: u64,
}

impl Pcn {
    /// Finishes a PCN from its canonical out-CSR: cluster `c`'s targets
    /// are `out_to[out_offsets[c]..out_offsets[c + 1]]`, strictly
    /// increasing, never `c` itself, with the matching `out_w` weights.
    /// The in-CSR (sources ascending per row) and the totals are derived
    /// here, by the same code that finishes [`PcnBuilder::build`].
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyNetwork`] without clusters,
    /// [`ModelError::InvalidCsr`] for mismatched lengths, offsets that do
    /// not run monotonically from 0 to the edge count, or a row whose
    /// targets are out of range, repeated, unsorted or its own id;
    /// [`ModelError::InvalidWeight`] for a non-finite or negative edge
    /// weight or intra total.
    pub fn from_out_csr(
        neurons: Vec<u32>,
        synapses: Vec<u64>,
        out_offsets: Vec<u64>,
        out_to: Vec<u32>,
        out_w: Vec<f32>,
        intra_traffic: f64,
    ) -> Result<Pcn, ModelError> {
        let n = neurons.len();
        if n == 0 {
            return Err(ModelError::EmptyNetwork);
        }
        let m = out_to.len();
        let invalid = |message: String| Err(ModelError::InvalidCsr { message });
        if synapses.len() != n || out_offsets.len() != n + 1 || out_w.len() != m {
            return invalid(format!(
                "{n} clusters need {n} synapse counts and {} offsets, got {} and {}; \
                 {m} targets need {m} weights, got {}",
                n + 1,
                synapses.len(),
                out_offsets.len(),
                out_w.len()
            ));
        }
        if out_offsets[0] != 0 || out_offsets[n] != m as u64 {
            return invalid(format!(
                "offsets must run 0..={m}, got {}..={}",
                out_offsets[0], out_offsets[n]
            ));
        }
        if let Some(w) = out_offsets.windows(2).find(|w| w[1] < w[0]) {
            return invalid(format!("offsets must be monotone, got {} after {}", w[1], w[0]));
        }
        for (row, w) in out_offsets.windows(2).enumerate() {
            let targets = &out_to[w[0] as usize..w[1] as usize];
            for (k, &t) in targets.iter().enumerate() {
                if t as usize >= n {
                    return invalid(format!("edge {row} → {t} targets a cluster outside 0..{n}"));
                }
                if t as usize == row {
                    return invalid(format!(
                        "self-loop {row} → {t}: intra traffic belongs in the intra total"
                    ));
                }
                if k > 0 && t <= targets[k - 1] {
                    return invalid(format!(
                        "row {row} targets must be strictly increasing, got {t} after {}",
                        targets[k - 1]
                    ));
                }
            }
        }
        if let Some(&weight) = out_w.iter().find(|w| !w.is_finite() || **w < 0.0) {
            return Err(ModelError::InvalidWeight { weight });
        }
        if !intra_traffic.is_finite() || intra_traffic < 0.0 {
            return Err(ModelError::InvalidWeight { weight: intra_traffic as f32 });
        }
        Ok(Self::finish(neurons, synapses, out_offsets, out_to, out_w, intra_traffic))
    }

    /// Derives the in-CSR and the totals from an out-CSR that is already
    /// canonical (checked by [`Pcn::from_out_csr`], or guaranteed by
    /// [`PcnBuilder::build`]).
    fn finish(
        neurons: Vec<u32>,
        synapses: Vec<u64>,
        out_offsets: Vec<u64>,
        out_to: Vec<u32>,
        out_w: Vec<f32>,
        intra_traffic: f64,
    ) -> Pcn {
        let (n, m) = (neurons.len(), out_to.len());
        let mut in_offsets = vec![0u64; n + 1];
        for &t in &out_to {
            in_offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        // Rows are visited in source order, so every in-row comes out
        // sorted by source.
        let mut in_from = vec![0u32; m];
        let mut in_w = vec![0f32; m];
        let mut in_cursor = in_offsets.clone();
        let mut total_traffic = 0f64;
        for (f, w) in out_offsets.windows(2).enumerate() {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            for (&t, &wt) in out_to[lo..hi].iter().zip(&out_w[lo..hi]) {
                let c = &mut in_cursor[t as usize];
                in_from[*c as usize] = f as u32;
                in_w[*c as usize] = wt;
                *c += 1;
                total_traffic += wt as f64;
            }
        }
        let total_neurons = neurons.iter().map(|&x| x as u64).sum();
        let total_synapses = synapses.iter().sum();
        Pcn {
            neurons,
            synapses,
            out_offsets,
            out_to,
            out_w,
            in_offsets,
            in_from,
            in_w,
            total_traffic,
            intra_traffic,
            total_neurons,
            total_synapses,
        }
    }

    /// Number of clusters `|V_P|`.
    #[inline]
    pub fn num_clusters(&self) -> u32 {
        self.neurons.len() as u32
    }

    /// Number of directed inter-cluster connections `|E_P|`.
    #[inline]
    pub fn num_connections(&self) -> u64 {
        self.out_to.len() as u64
    }

    /// Total inter-cluster traffic `Σ w_P(e)`.
    #[inline]
    pub fn total_traffic(&self) -> f64 {
        self.total_traffic
    }

    /// Total intra-cluster traffic (self-loop weight dropped from `E_P`).
    #[inline]
    pub fn intra_traffic(&self) -> f64 {
        self.intra_traffic
    }

    /// Total neurons across all clusters.
    #[inline]
    pub fn total_neurons(&self) -> u64 {
        self.total_neurons
    }

    /// Total stored synapses across all clusters.
    #[inline]
    pub fn total_synapses(&self) -> u64 {
        self.total_synapses
    }

    /// Neurons in cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ num_clusters()`.
    #[inline]
    pub fn neurons_in(&self, c: u32) -> u32 {
        self.neurons[c as usize]
    }

    /// Stored (incoming) synapses of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ num_clusters()`.
    #[inline]
    pub fn synapses_in(&self, c: u32) -> u64 {
        self.synapses[c as usize]
    }

    /// Outgoing connections of cluster `c` as `(target, weight)`.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ num_clusters()`.
    pub fn out_edges(&self, c: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.out_offsets[c as usize] as usize;
        let hi = self.out_offsets[c as usize + 1] as usize;
        self.out_to[lo..hi].iter().copied().zip(self.out_w[lo..hi].iter().copied())
    }

    /// Incoming connections of cluster `c` as `(source, weight)`.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ num_clusters()`.
    pub fn in_edges(&self, c: u32) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.in_offsets[c as usize] as usize;
        let hi = self.in_offsets[c as usize + 1] as usize;
        self.in_from[lo..hi].iter().copied().zip(self.in_w[lo..hi].iter().copied())
    }

    /// Out-degree plus in-degree of cluster `c` — the number of incident
    /// directed connections.
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ num_clusters()`.
    pub fn degree(&self, c: u32) -> u64 {
        let c = c as usize;
        (self.out_offsets[c + 1] - self.out_offsets[c])
            + (self.in_offsets[c + 1] - self.in_offsets[c])
    }

    /// In-degree of cluster `c` (used by topological sorting).
    ///
    /// # Panics
    ///
    /// Panics if `c ≥ num_clusters()`.
    #[inline]
    pub fn in_degree(&self, c: u32) -> u64 {
        self.in_offsets[c as usize + 1] - self.in_offsets[c as usize]
    }

    /// Weight of the directed connection `from → to`, if present.
    ///
    /// O(log degree) via binary search.
    pub fn edge_weight(&self, from: u32, to: u32) -> Option<f32> {
        let lo = self.out_offsets[from as usize] as usize;
        let hi = self.out_offsets[from as usize + 1] as usize;
        let row = &self.out_to[lo..hi];
        row.binary_search(&to).ok().map(|k| self.out_w[lo + k])
    }

    /// Iterates all directed connections as `(from, to, weight)`.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.num_clusters())
            .flat_map(move |c| self.out_edges(c).map(move |(t, w)| (c, t, w)))
    }
}

impl fmt::Debug for Pcn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pcn")
            .field("clusters", &self.num_clusters())
            .field("connections", &self.num_connections())
            .field("total_neurons", &self.total_neurons)
            .field("total_synapses", &self.total_synapses)
            .field("total_traffic", &self.total_traffic)
            .finish()
    }
}

impl fmt::Display for Pcn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PCN with {} clusters, {} connections", self.num_clusters(), self.num_connections())
    }
}

/// Incremental builder for [`Pcn`].
///
/// Clusters are added in id order; edges may arrive in any order and
/// duplicate `(from, to)` pairs accumulate their weights (this is exactly
/// the aggregation of eq. 5). Self-loops are tallied into
/// [`Pcn::intra_traffic`] instead of becoming connections.
#[derive(Debug, Clone, Default)]
pub struct PcnBuilder {
    neurons: Vec<u32>,
    synapses: Vec<u64>,
    edges: Vec<(u32, u32, f32)>,
    intra: f64,
}

impl PcnBuilder {
    /// Starts an empty PCN.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates for `clusters` clusters and `edges` connections.
    pub fn with_capacity(clusters: usize, edges: usize) -> Self {
        Self {
            neurons: Vec::with_capacity(clusters),
            synapses: Vec::with_capacity(clusters),
            edges: Vec::with_capacity(edges),
            intra: 0.0,
        }
    }

    /// Appends a cluster with its neuron count and stored-synapse count,
    /// returning the new cluster's id.
    pub fn add_cluster(&mut self, neurons: u32, synapses: u64) -> u32 {
        self.neurons.push(neurons);
        self.synapses.push(synapses);
        (self.neurons.len() - 1) as u32
    }

    /// Number of clusters added so far.
    pub fn num_clusters(&self) -> u32 {
        self.neurons.len() as u32
    }

    /// Adds traffic `weight` on the connection `from → to`. Both clusters
    /// must already exist. Self-loops are recorded as intra-cluster
    /// traffic rather than connections.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidSynapse`] for unknown cluster ids (reusing the
    /// synapse error shape with cluster ids), [`ModelError::InvalidWeight`]
    /// for non-finite or negative weights.
    pub fn add_edge(&mut self, from: u32, to: u32, weight: f32) -> Result<&mut Self, ModelError> {
        let n = self.neurons.len() as u32;
        if from >= n || to >= n {
            return Err(ModelError::InvalidSynapse { from, to, neurons: n });
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(ModelError::InvalidWeight { weight });
        }
        if from == to {
            self.intra += weight as f64;
        } else {
            self.edges.push((from, to, weight));
        }
        Ok(self)
    }

    /// Adds `weight` directly to the intra-cluster traffic total.
    ///
    /// [`PcnBuilder::add_edge`] records self-loops at `f32` precision, but
    /// [`Pcn::intra_traffic`] is an `f64` total. Deserializers that must
    /// reproduce a PCN bit-exactly (the `.pcnb` binary format, coarse-graph
    /// construction) use this to carry the full-precision total instead of
    /// round-tripping it through `f32`.
    ///
    /// # Errors
    ///
    /// [`ModelError::InvalidWeight`] for non-finite or negative weights
    /// (the `f32` cast is lossy but the sign/finiteness check is exact).
    pub fn add_intra(&mut self, weight: f64) -> Result<&mut Self, ModelError> {
        if !weight.is_finite() || weight < 0.0 {
            return Err(ModelError::InvalidWeight { weight: weight as f32 });
        }
        self.intra += weight;
        Ok(self)
    }

    /// Finalizes the PCN: sorts and aggregates duplicate edges into the
    /// canonical out-CSR, then derives the in-CSR and the totals with the
    /// same code as [`Pcn::from_out_csr`] (its checks are skipped: the
    /// builder's edges were validated as they were added).
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyNetwork`] if no clusters were added.
    pub fn build(mut self) -> Result<Pcn, ModelError> {
        // Aggregate duplicates by sorting on (from, to). Accumulate in
        // f64: an edge may aggregate hundreds of thousands of synapses
        // (e.g. a dense layer pair), where f32 summation would drift.
        let n = self.neurons.len();
        if n == 0 {
            return Err(ModelError::EmptyNetwork);
        }
        self.edges.sort_unstable_by_key(|&(f, t, _)| (f, t));
        let mut out_offsets = vec![0u64; n + 1];
        let mut out_to = Vec::with_capacity(self.edges.len());
        let mut out_w = Vec::with_capacity(self.edges.len());
        let mut last: Option<(u32, u32)> = None;
        let mut sum = 0f64;
        for (f, t, w) in self.edges {
            if last == Some((f, t)) {
                sum += w as f64;
                continue;
            }
            if last.is_some() {
                out_w.push(sum as f32);
            }
            last = Some((f, t));
            sum = w as f64;
            out_offsets[f as usize + 1] += 1;
            out_to.push(t);
        }
        if last.is_some() {
            out_w.push(sum as f32);
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        Ok(Pcn::finish(self.neurons, self.synapses, out_offsets, out_to, out_w, self.intra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Pcn {
        let mut b = PcnBuilder::new();
        for _ in 0..4 {
            b.add_cluster(10, 100);
        }
        b.add_edge(0, 1, 5.0).unwrap();
        b.add_edge(1, 2, 3.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.add_edge(0, 3, 2.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let p = small();
        assert_eq!(p.num_clusters(), 4);
        assert_eq!(p.num_connections(), 4);
        assert_eq!(p.total_traffic(), 11.0);
        assert_eq!(p.total_neurons(), 40);
        assert_eq!(p.total_synapses(), 400);
    }

    #[test]
    fn out_and_in_edges_agree() {
        let p = small();
        let out0: Vec<_> = p.out_edges(0).collect();
        assert_eq!(out0, vec![(1, 5.0), (3, 2.0)]);
        let in3: Vec<_> = p.in_edges(3).collect();
        assert_eq!(in3.len(), 2);
        assert!(in3.contains(&(2, 1.0)));
        assert!(in3.contains(&(0, 2.0)));
        assert_eq!(p.degree(3), 2);
        assert_eq!(p.degree(0), 2);
        assert_eq!(p.degree(1), 2);
        assert_eq!(p.in_degree(0), 0);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = PcnBuilder::new();
        b.add_cluster(1, 1);
        b.add_cluster(1, 1);
        b.add_edge(0, 1, 1.5).unwrap();
        b.add_edge(0, 1, 2.5).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.num_connections(), 1);
        assert_eq!(p.edge_weight(0, 1), Some(4.0));
        assert_eq!(p.edge_weight(1, 0), None);
    }

    #[test]
    fn self_loops_become_intra_traffic() {
        let mut b = PcnBuilder::new();
        b.add_cluster(1, 1);
        b.add_edge(0, 0, 7.0).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.num_connections(), 0);
        assert_eq!(p.intra_traffic(), 7.0);
        assert_eq!(p.total_traffic(), 0.0);
    }

    #[test]
    fn builder_rejects_bad_edges() {
        let mut b = PcnBuilder::new();
        b.add_cluster(1, 1);
        assert!(b.add_edge(0, 1, 1.0).is_err());
        assert!(b.add_edge(0, 0, f32::INFINITY).is_err());
        assert!(matches!(PcnBuilder::new().build(), Err(ModelError::EmptyNetwork)));
    }

    #[test]
    fn iter_edges_matches_total() {
        let p = small();
        let sum: f64 = p.iter_edges().map(|(_, _, w)| w as f64).sum();
        assert_eq!(sum, p.total_traffic());
        assert_eq!(p.iter_edges().count() as u64, p.num_connections());
    }

    #[test]
    fn add_intra_is_exact_f64() {
        let mut b = PcnBuilder::new();
        b.add_cluster(1, 1);
        let exact = 1.000_000_000_123_456_7_f64; // not representable in f32
        b.add_intra(exact).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.intra_traffic().to_bits(), exact.to_bits());
        assert!(PcnBuilder::new().add_intra(f64::NAN).is_err());
        assert!(PcnBuilder::new().add_intra(-1.0).is_err());
    }

    #[test]
    fn from_out_csr_takes_the_canonical_csr_the_builder_produces() {
        let p = small();
        let n = p.num_clusters();
        let csr = |c: u32| p.out_edges(c).collect::<Vec<_>>();
        let mut offsets = vec![0u64];
        for c in 0..n {
            offsets.push(offsets[c as usize] + csr(c).len() as u64);
        }
        let to = (0..n).flat_map(|c| csr(c).into_iter().map(|(t, _)| t)).collect();
        let w = (0..n).flat_map(|c| csr(c).into_iter().map(|(_, w)| w)).collect();
        let again =
            Pcn::from_out_csr(vec![10; 4], vec![100; 4], offsets, to, w, p.intra_traffic())
                .unwrap();
        assert_eq!(again, p);
        let in3: Vec<_> = again.in_edges(3).collect();
        assert_eq!(in3, vec![(0, 2.0), (2, 1.0)], "in-rows are sorted by source");
    }

    #[test]
    fn from_out_csr_rejects_non_canonical_rows() {
        let make = |offsets: Vec<u64>, to: Vec<u32>, w: Vec<f32>, intra: f64| {
            Pcn::from_out_csr(vec![1; 3], vec![1; 3], offsets, to, w, intra)
        };
        assert!(make(vec![0, 2, 2, 2], vec![1, 2], vec![1.0, 1.0], 0.0).is_ok());
        let csr_error = |r: Result<Pcn, ModelError>, needle: &str| match r {
            Err(ModelError::InvalidCsr { message }) => {
                assert!(message.contains(needle), "{message}")
            }
            other => panic!("expected InvalidCsr with {needle:?}, got {other:?}"),
        };
        csr_error(make(vec![0, 2, 2, 2], vec![2, 1], vec![1.0; 2], 0.0), "strictly increasing");
        csr_error(make(vec![0, 2, 2, 2], vec![1, 1], vec![1.0; 2], 0.0), "strictly increasing");
        csr_error(make(vec![0, 1, 1, 1], vec![0], vec![1.0], 0.0), "self-loop");
        csr_error(make(vec![0, 1, 1, 1], vec![3], vec![1.0], 0.0), "outside");
        csr_error(make(vec![0, 9, 1, 1], vec![1], vec![1.0], 0.0), "monotone");
        csr_error(make(vec![0, 1, 1, 2], vec![1], vec![1.0], 0.0), "0..=1");
        csr_error(make(vec![0, 1, 1], vec![1], vec![1.0], 0.0), "offsets");
        csr_error(make(vec![0, 1, 1, 1], vec![1], vec![], 0.0), "weights");
        assert!(matches!(
            make(vec![0, 1, 1, 1], vec![1], vec![-1.0], 0.0),
            Err(ModelError::InvalidWeight { .. })
        ));
        assert!(matches!(
            make(vec![0, 0, 0, 0], vec![], vec![], f64::NAN),
            Err(ModelError::InvalidWeight { .. })
        ));
        assert!(matches!(
            Pcn::from_out_csr(vec![], vec![], vec![0], vec![], vec![], 0.0),
            Err(ModelError::EmptyNetwork)
        ));
    }

    #[test]
    fn bidirectional_pair_is_two_connections() {
        let mut b = PcnBuilder::new();
        b.add_cluster(1, 1);
        b.add_cluster(1, 1);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 0, 2.0).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.num_connections(), 2);
        assert_eq!(p.edge_weight(0, 1), Some(1.0));
        assert_eq!(p.edge_weight(1, 0), Some(2.0));
    }
}
