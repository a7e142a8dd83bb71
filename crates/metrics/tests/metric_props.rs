//! Property tests on the §3.3 metric implementations.

use proptest::prelude::*;
use snnmap_hw::{Coord, CostModel, Mesh, Placement};
use snnmap_metrics::{
    average_latency, congestion_map, energy, expe, expectation_grid, max_latency,
    CongestionAccumulator,
};
use snnmap_model::{Pcn, PcnBuilder};

fn arbitrary_pcn_and_placement(
    clusters: u32,
    side: u16,
) -> impl Strategy<Value = (Pcn, Placement)> {
    let edges = prop::collection::vec(
        (0..clusters, 0..clusters, 0.1f32..10.0),
        1..(clusters as usize * 3),
    );
    let perm = Just(()).prop_perturb(move |_, mut rng| {
        let mesh = Mesh::new(side, side).unwrap();
        let mut idx: Vec<usize> = (0..mesh.len()).collect();
        // Fisher-Yates with proptest's rng for reproducible shrinking.
        for i in (1..idx.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            idx.swap(i, j);
        }
        idx
    });
    (edges, perm).prop_map(move |(edges, idx)| {
        let mesh = Mesh::new(side, side).unwrap();
        let mut b = PcnBuilder::new();
        for _ in 0..clusters {
            b.add_cluster(1, 1);
        }
        for (f, t, w) in edges {
            b.add_edge(f, t, w).unwrap();
        }
        let pcn = b.build().unwrap();
        let mut p = Placement::new_unplaced(mesh, clusters);
        for c in 0..clusters {
            p.place(c, mesh.coord_of_index(idx[c as usize])).unwrap();
        }
        (pcn, p)
    })
}

/// The congestion map by materializing each edge's whole Algorithm 4
/// grid and mirroring it into the edge's quadrant: the accumulator's
/// loop before it streamed the grid.
fn oracle_congestion_map(pcn: &Pcn, p: &Placement) -> Vec<f64> {
    let mesh = p.mesh();
    let mut map = vec![0.0; mesh.len()];
    for (f, t, w) in pcn.iter_edges() {
        let (s, t) = (p.coord_of(f).unwrap(), p.coord_of(t).unwrap());
        let dx = s.x.abs_diff(t.x) as usize;
        let dy = s.y.abs_diff(t.y) as usize;
        let grid = expectation_grid(dx, dy);
        let (x0, y0) = (s.x.min(t.x) as usize, s.y.min(t.y) as usize);
        for i in 0..=dx {
            let x = if t.x < s.x { x0 + dx - i } else { x0 + i };
            for j in 0..=dy {
                let v = grid[i * (dy + 1) + j];
                if v == 0.0 {
                    continue;
                }
                let y = if t.y < s.y { y0 + dy - j } else { y0 + j };
                map[x * mesh.cols() as usize + y] += w as f64 * v;
            }
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streamed accumulator bit-equals the grid-materializing oracle.
    #[test]
    fn congestion_map_bit_equals_the_grid_oracle(
        (pcn, p) in arbitrary_pcn_and_placement(40, 12)
    ) {
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let got = congestion_map(&pcn, &p).unwrap();
        prop_assert_eq!(bits(got.map()), bits(&oracle_congestion_map(&pcn, &p)));
    }

    /// Energy decomposes per edge, is translation invariant, and scales
    /// linearly with the cost constants.
    #[test]
    fn energy_linearity((pcn, p) in arbitrary_pcn_and_placement(12, 5)) {
        let cm1 = CostModel::new(1.0, 0.1, 1.0, 0.01).unwrap();
        let cm2 = CostModel::new(2.0, 0.2, 1.0, 0.01).unwrap();
        let e1 = energy(&pcn, &p, cm1).unwrap();
        let e2 = energy(&pcn, &p, cm2).unwrap();
        prop_assert!((e2 - 2.0 * e1).abs() < 1e-9 * e1.max(1.0));
    }

    /// The weighted average latency never exceeds the maximum.
    #[test]
    fn avg_latency_bounded_by_max((pcn, p) in arbitrary_pcn_and_placement(12, 5)) {
        let cm = CostModel::paper_target();
        let avg = average_latency(&pcn, &p, cm).unwrap();
        let max = max_latency(&pcn, &p, cm).unwrap();
        prop_assert!(avg <= max + 1e-12);
    }

    /// The congestion map's total mass is the traffic-weighted expected
    /// router-traversal count: Σ_e w(e) · (d(e) + 1).
    #[test]
    fn congestion_mass_conservation((pcn, p) in arbitrary_pcn_and_placement(12, 5)) {
        let acc = congestion_map(&pcn, &p).unwrap();
        let mass: f64 = acc.map().iter().sum();
        let expected: f64 = pcn
            .iter_edges()
            .map(|(f, t, w)| w as f64 * (p.distance(f, t).unwrap() as f64 + 1.0))
            .sum();
        prop_assert!((mass - expected).abs() < 1e-6 * expected.max(1.0));
    }

    /// `Expe` levels conserve probability on arbitrary source/target
    /// pairs, and endpoints are always traversed.
    #[test]
    fn expe_conservation(
        sx in 0u16..8, sy in 0u16..8, tx in 0u16..8, ty in 0u16..8
    ) {
        let (s, t) = (Coord::new(sx, sy), Coord::new(tx, ty));
        prop_assert_eq!(expe(s, s, t), 1.0);
        prop_assert_eq!(expe(t, s, t), 1.0);
        // Sum over each anti-diagonal level of the bounding rectangle.
        let dx = sx.abs_diff(tx);
        let dy = sy.abs_diff(ty);
        for level in 0..=(dx + dy) {
            let mut sum = 0.0;
            for i in 0..=dx {
                let Some(j) = level.checked_sub(i) else { continue };
                if j > dy {
                    continue;
                }
                let x = if tx >= sx { sx + i } else { sx - i };
                let y = if ty >= sy { sy + j } else { sy - j };
                sum += expe(Coord::new(x, y), s, t);
            }
            prop_assert!((sum - 1.0).abs() < 1e-9, "level {level}: {sum}");
        }
    }

    /// Accumulating edges one at a time equals accumulating them in any
    /// order (the map is a sum).
    #[test]
    fn accumulator_is_order_independent(
        edges in prop::collection::vec(((0u16..4, 0u16..4), (0u16..4, 0u16..4), 0.1f64..5.0), 1..12)
    ) {
        let mesh = Mesh::new(4, 4).unwrap();
        let mut fwd = CongestionAccumulator::new(mesh);
        let mut rev = CongestionAccumulator::new(mesh);
        for &((sx, sy), (tx, ty), w) in &edges {
            fwd.add_edge(Coord::new(sx, sy), Coord::new(tx, ty), w).unwrap();
        }
        for &((sx, sy), (tx, ty), w) in edges.iter().rev() {
            rev.add_edge(Coord::new(sx, sy), Coord::new(tx, ty), w).unwrap();
        }
        for (a, b) in fwd.map().iter().zip(rev.map()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// On non-square meshes the row-major index `x · cols + y` must not
    /// alias across rows: every edge's mass lands strictly inside its
    /// bounding rectangle and the total mass is conserved. (A rows/cols
    /// mix-up in the stride shifts mass into unrelated routers without
    /// changing the total, so both checks are needed.)
    #[test]
    fn non_square_meshes_do_not_alias(
        rows in 2u16..7,
        extra_cols in 1u16..5,
        edges in prop::collection::vec(((0u16..6, 0u16..10), (0u16..6, 0u16..10), 0.1f64..5.0), 1..10)
    ) {
        let cols = rows + extra_cols;
        let mesh = Mesh::new(rows, cols).unwrap();
        let clip = |x: u16, max: u16| x.min(max - 1);
        let mut acc = CongestionAccumulator::new(mesh);
        let mut expected_mass = 0.0;
        for &((sx, sy), (tx, ty), w) in &edges {
            let s = Coord::new(clip(sx, rows), clip(sy, cols));
            let t = Coord::new(clip(tx, rows), clip(ty, cols));
            acc.add_edge(s, t, w).unwrap();
            expected_mass +=
                w * ((s.x.abs_diff(t.x) + s.y.abs_diff(t.y)) as f64 + 1.0);
        }
        let mass: f64 = acc.map().iter().sum();
        prop_assert!((mass - expected_mass).abs() < 1e-9 * expected_mass.max(1.0));
        // Any router outside every bounding rectangle must be untouched.
        for c in mesh.iter() {
            let inside_some = edges.iter().any(|&((sx, sy), (tx, ty), _)| {
                let s = Coord::new(clip(sx, rows), clip(sy, cols));
                let t = Coord::new(clip(tx, rows), clip(ty, cols));
                c.x >= s.x.min(t.x) && c.x <= s.x.max(t.x)
                    && c.y >= s.y.min(t.y) && c.y <= s.y.max(t.y)
            });
            if !inside_some {
                prop_assert_eq!(acc.map()[mesh.index_of(c)], 0.0, "router {}", c);
            }
        }
    }
}
