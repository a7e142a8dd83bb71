//! The paper's tables and figures: Tables 1–3, Figures 6–8 and
//! Appendix A. (Figures 9–12 are [`crate::comparison`].)

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use serde::Serialize;
use serde_json::{json, Value};
use snnmap_core::{InitialPlacement, Mapper, Potential};
use snnmap_curves::cost::{mask_cost, normalized_costs, ConnectionMask};
use snnmap_curves::heatmap::DistanceHeatmap;
use snnmap_curves::{
    assert_valid_continuous_traversal, Gilbert, Hilbert, Serpentine, SpaceFillingCurve, Spiral,
    ZigZag,
};
use snnmap_hw::presets::{self, PlatformSpec};
use snnmap_hw::{Coord, CoreConstraints, CostModel, Mesh};
use snnmap_metrics::{evaluate_with, EvalOptions, MetricsReport};
use snnmap_model::generators::table3_suite;

use crate::args::Options;
use crate::comparison::suite_at_scale;
use crate::table::{fmt_value, Artifact, Table};

/// Table 1: the platform capacities.
pub fn table1() -> Vec<PlatformSpec> {
    presets::all_platforms()
}

impl Artifact for Vec<PlatformSpec> {
    fn render(&self, _: &Options) -> String {
        let mut t = Table::new(&[
            "Platform", "Neurons/core", "Synapses/core", "Cores/chip", "Chips/system",
            "System neurons", "System synapses",
        ]);
        for p in self {
            t.row(&[
                p.name.to_string(),
                p.neurons_per_core.to_string(),
                p.synapses_per_core.to_string(),
                p.cores_per_chip.to_string(),
                p.chips_per_system.to_string(),
                p.max_system_neurons().to_string(),
                p.max_system_synapses().to_string(),
            ]);
        }
        format!("Table 1: capacity of several neuromorphic hardware platforms\n\n{}", t.render())
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}

/// Table 2: the target hardware's core limits and cost constants.
pub fn table2() -> (CoreConstraints, CostModel) {
    presets::paper_target()
}

impl Artifact for (CoreConstraints, CostModel) {
    fn render(&self, _: &Options) -> String {
        let (con, cost) = self;
        let mut t = Table::new(&["Parameter", "Value"]);
        t.row(&["CON_npc", &con.neurons_per_core.to_string()]);
        t.row(&["CON_spc", &format!("{}K", con.synapses_per_core / 1024)]);
        t.row(&["EN_r", &cost.en_r.to_string()]);
        t.row(&["EN_w", &cost.en_w.to_string()]);
        t.row(&["L_r", &cost.l_r.to_string()]);
        t.row(&["L_w", &cost.l_w.to_string()]);
        format!("Table 2: parameters of target neuromorphic hardware\n\n{}", t.render())
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}

/// One Table 3 row: our generated `G_SNN`/`G_PCN` sizes beside the
/// paper's.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Record {
    /// Application name.
    pub name: &'static str,
    /// Our `G_SNN` neurons.
    pub neurons: u64,
    /// Our `G_SNN` synapses.
    pub synapses: u64,
    /// Our `G_PCN` clusters.
    pub clusters: u32,
    /// The paper's `G_PCN` clusters.
    pub clusters_paper: u64,
    /// Our `G_PCN` connections.
    pub connections: u64,
    /// The paper's `G_PCN` connections.
    pub connections_paper: u64,
    /// Target mesh side.
    pub mesh_side: u16,
    /// Seconds to build the layer graph and partition it.
    pub build_secs: f64,
}

/// Table 3: every benchmark within the option's scale, built and
/// partitioned.
///
/// # Panics
///
/// Panics if a Table 3 benchmark fails to build (none does).
pub fn table3(options: &Options) -> Vec<Table3Record> {
    suite_at_scale(options)
        .into_iter()
        .map(|b| {
            let start = Instant::now();
            let graph = b.layer_graph(options.seed);
            let pcn = b.pcn(options.seed).expect("table 3 benchmarks build");
            Table3Record {
                name: b.row.name,
                neurons: graph.num_neurons(),
                synapses: graph.num_synapses(),
                clusters: pcn.num_clusters(),
                clusters_paper: b.row.clusters,
                connections: pcn.num_connections(),
                connections_paper: b.row.connections,
                mesh_side: b.row.mesh_side,
                build_secs: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

impl Artifact for Vec<Table3Record> {
    fn render(&self, options: &Options) -> String {
        let mut t = Table::new(&[
            "Application", "Neurons", "Synapses", "Clusters(ours)", "Clusters(paper)",
            "Conns(ours)", "Conns(paper)", "Hardware", "Build time",
        ]);
        for r in self {
            t.row(&[
                r.name.to_string(),
                r.neurons.to_string(),
                r.synapses.to_string(),
                r.clusters.to_string(),
                r.clusters_paper.to_string(),
                r.connections.to_string(),
                r.connections_paper.to_string(),
                format!("{}x{}", r.mesh_side, r.mesh_side),
                format!("{:.2?}", Duration::from_secs_f64(r.build_secs)),
            ]);
        }
        format!("Table 3: benchmarks (scale: {:?})\n\n{}", options.scale, t.render())
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}

/// Figure 6's records, each per curve in the order Hilbert, ZigZag,
/// Circle, Serpentine.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6 {
    /// `(curve, mean distance of index pairs with |i − j| ≤ 8, mean
    /// distance of all pairs)` on the 8×8 mesh (Figure 6.b).
    pub locality: Vec<(&'static str, f64, f64)>,
    /// `(mask, each curve's cost relative to Hilbert's)` (Figure 6.c/d).
    pub masks: Vec<(&'static str, Vec<f64>)>,
    /// `(curve, absolute cost, cost relative to Hilbert's)` on the
    /// probability cloud of random SNNs (Figure 6.e).
    pub cloud: Vec<(&'static str, f64, f64)>,
}

/// Figure 6: why the Hilbert curve. The paper reports Hilbert 1.0 /
/// ZigZag 2.63 / Circle 6.33 on the probability cloud.
pub fn fig6(options: &Options) -> Fig6 {
    let mesh = Mesh::new(8, 8).expect("8x8");
    let orders = vec![
        ("Hilbert", Hilbert.traversal(mesh).expect("pow2 square")),
        ("ZigZag", ZigZag.traversal(mesh).expect("any mesh")),
        ("Circle", Spiral.traversal(mesh).expect("any mesh")),
        ("Serpentine", Serpentine.traversal(mesh).expect("any mesh")),
    ];
    let locality = orders
        .iter()
        .map(|(name, order)| {
            let hm = DistanceHeatmap::from_traversal(order);
            (*name, hm.banded_mean_distance(8), hm.mean_distance())
        })
        .collect();
    let masks = [
        ("Full_connect_8_8", ConnectionMask::layered(&[8; 8])),
        ("LeNet-like", ConnectionMask::layered(&[16, 24, 12, 8, 4])),
        ("ResNet-like", resnet_like_mask()),
    ];
    let masks = masks
        .iter()
        .map(|(name, mask)| {
            let hilbert = mask_cost(&orders[0].1, mask);
            (*name, orders.iter().map(|(_, o)| mask_cost(o, mask) / hilbert).collect())
        })
        .collect();
    let cloud = ConnectionMask::probability_cloud(64, 500, options.seed);
    Fig6 { locality, masks, cloud: normalized_costs(&orders, &cloud) }
}

/// Eight layers of eight, densely connected layer to layer, plus
/// identity skips from each layer to the one two below it.
fn resnet_like_mask() -> ConnectionMask {
    let sizes = [8usize; 8];
    let mut edges = Vec::new();
    let mut start = 0usize;
    for w in sizes.windows(2) {
        for i in 0..w[0] {
            for j in 0..w[1] {
                edges.push(((start + i) as u32, (start + w[0] + j) as u32));
            }
        }
        start += w[0];
    }
    for k in 0..sizes.len() - 2 {
        let a = sizes[..k].iter().sum::<usize>();
        let b = sizes[..k + 2].iter().sum::<usize>();
        for i in 0..sizes[k] {
            edges.push(((a + i) as u32, (b + i) as u32));
        }
    }
    ConnectionMask::new(64, edges)
}

impl Artifact for Fig6 {
    fn render(&self, _: &Options) -> String {
        let mut out = String::from("Figure 6.b: distance-heatmap locality (8x8 mesh)\n\n");
        let mut t = Table::new(&["Curve", "mean dist (|i-j|<=8)", "mean dist (all pairs)"]);
        for (name, banded, all) in &self.locality {
            t.row(&[name.to_string(), format!("{banded:.3}"), format!("{all:.3}")]);
        }
        out += &t.render();

        out += "\nFigure 6.c/d: cost under specific connection images (8x8 mesh)\n\n";
        let headers: Vec<&str> =
            std::iter::once("Mask").chain(self.locality.iter().map(|(n, ..)| *n)).collect();
        let mut t = Table::new(&headers);
        for (mask, ratios) in &self.masks {
            let cells: Vec<String> = std::iter::once(mask.to_string())
                .chain(ratios.iter().map(|r| format!("{r:.2}")))
                .collect();
            t.row(&cells);
        }
        out += &t.render();

        out += "\nFigure 6.e: normalized cost on the probability cloud\n";
        out += "(paper: Hilbert 1.0, ZigZag 2.63, Circle 6.33)\n\n";
        let mut t = Table::new(&["Curve", "Cost (normalized)", "Cost (absolute)"]);
        for (name, abs, norm) in &self.cloud {
            t.row(&[name.to_string(), format!("{norm:.2}"), format!("{abs:.1}")]);
        }
        out + &t.render()
    }

    /// The probability-cloud costs, keyed by curve.
    fn json(&self) -> Value {
        let mut map = serde_json::Map::new();
        for (name, abs, norm) in &self.cloud {
            map.insert(name.to_string(), json!({"norm": norm, "abs": abs}));
        }
        Value::Object(map)
    }
}

/// One potential field of Figure 7, sampled around its origin.
#[derive(Debug, Clone, Serialize)]
pub struct FieldGrid {
    /// The field's formula.
    pub field: &'static str,
    /// `values[y + R][x + R]` for `-R ≤ x, y ≤ R` with `R =`
    /// [`FIG7_RADIUS`].
    pub values: Vec<Vec<f64>>,
}

/// The half-width of Figure 7's grids.
pub const FIG7_RADIUS: i32 = 4;

/// Figure 7: the three potential-energy fields and the energy model's.
pub fn fig7() -> Vec<FieldGrid> {
    let r = FIG7_RADIUS;
    [
        ("u_a(p) = |x| + |y|  (eq. 19)", Potential::L1),
        ("u_b(p) = (|x| + |y|)^2  (eq. 20)", Potential::L1Squared),
        ("u_c(p) = x^2 + y^2  (eq. 21)", Potential::L2Squared),
        (
            "u(p) = (||p||+1)*EN_r + ||p||*EN_w  (eq. 25)",
            Potential::energy_model(CostModel::paper_target()),
        ),
    ]
    .into_iter()
    .map(|(field, p)| FieldGrid {
        field,
        values: (-r..=r).map(|y| (-r..=r).map(|x| p.value(x, y)).collect()).collect(),
    })
    .collect()
}

impl Artifact for Vec<FieldGrid> {
    fn render(&self, _: &Options) -> String {
        let r = FIG7_RADIUS;
        let mut out = String::new();
        for grid in self {
            let headers: Vec<String> = std::iter::once("y\\x".to_string())
                .chain((-r..=r).map(|x| x.to_string()))
                .collect();
            let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
            for (y, row) in (-r..=r).zip(&grid.values) {
                let cells: Vec<String> = std::iter::once(y.to_string())
                    .chain(row.iter().map(|v| format!("{v:.1}")))
                    .collect();
                t.row(&cells);
            }
            let _ = write!(out, "\n{}\n\n{}", grid.field, t.render());
        }
        out + "\nThe quadratic fields (u_b, u_c) grow superlinearly with distance, so pairs far\n\
               apart gain disproportionate potential energy and are pulled together first (§4.4.2).\n"
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}

/// One Figure 8 method on ResNet.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Method {
    /// The paper's label, `a) Random` to `j) HSC+FD(u_c)  [proposed]`.
    pub method: String,
    /// The metrics relative to method a).
    pub normalized: MetricsReport,
    /// The absolute metrics.
    pub absolute: MetricsReport,
    /// Solve seconds.
    pub elapsed_secs: f64,
    /// Whether FD hit its budget ("ES").
    pub early_stopped: bool,
}

/// Figure 8's records: methods a)–j) on ResNet.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// ResNet's PCN clusters.
    pub clusters: u32,
    /// ResNet's PCN connections.
    pub connections: u64,
    /// The mesh it is mapped onto.
    pub mesh: Mesh,
    /// Methods a)–j), in order.
    pub methods: Vec<Fig8Method>,
}

/// Figure 8: the space-filling curves and FD on ResNet — methods a)
/// through j), all metrics normalized to random mapping. FD runs under
/// `options.budget_secs`.
///
/// # Panics
///
/// Panics if ResNet fails to build or map (it does not).
pub fn fig8(options: &Options) -> Fig8 {
    let resnet = table3_suite().into_iter().find(|b| b.row.name == "ResNet").expect("Table 3 row");
    eprintln!("[fig8] building ResNet PCN...");
    let pcn = resnet.pcn(options.seed).expect("ResNet builds");
    let mesh = Mesh::square_for(pcn.num_clusters() as u64).expect("fits u16 mesh");
    let cost = CostModel::paper_target();
    let eval_opts =
        EvalOptions { congestion_sample: Some((options.congestion_sample, options.seed)) };
    let budget = Duration::from_secs(options.budget_secs);

    let rnd = InitialPlacement::Random(options.seed);
    let curve = |init| Mapper::builder().initial_placement(init).fd_enabled(false).build();
    let fd = |init, potential| {
        Mapper::builder().initial_placement(init).potential(potential).time_budget(budget).build()
    };
    let hsc = InitialPlacement::Hilbert;
    let methods = [
        ("a) Random", curve(rnd)),
        ("b) HSC", curve(hsc)),
        ("c) ZigZag", curve(InitialPlacement::ZigZag)),
        ("d) Circle", curve(InitialPlacement::Circle)),
        ("e) FD(u_a), random init", fd(rnd, Potential::L1)),
        ("f) HSC+FD(u_a)", fd(hsc, Potential::L1)),
        ("g) FD(u_b), random init", fd(rnd, Potential::L1Squared)),
        ("h) HSC+FD(u_b)", fd(hsc, Potential::L1Squared)),
        ("i) FD(u_c), random init", fd(rnd, Potential::L2Squared)),
        ("j) HSC+FD(u_c)  [proposed]", fd(hsc, Potential::L2Squared)),
    ];

    let mut runs = Vec::new();
    for (name, mapper) in &methods {
        eprintln!("[fig8] running {name}...");
        let t = Instant::now();
        let outcome = mapper.map(&pcn, mesh).expect("resnet fits");
        let elapsed_secs = t.elapsed().as_secs_f64();
        let early_stopped = outcome.fd_stats.map(|s| !s.converged).unwrap_or(false);
        let absolute = evaluate_with(&pcn, &outcome.placement, cost, eval_opts).expect("placed");
        runs.push((name.to_string(), absolute, elapsed_secs, early_stopped));
    }
    let baseline = runs[0].1;
    let methods = runs
        .into_iter()
        .map(|(method, absolute, elapsed_secs, early_stopped)| Fig8Method {
            method,
            normalized: absolute.normalized_to(&baseline),
            absolute,
            elapsed_secs,
            early_stopped,
        })
        .collect();
    Fig8 { clusters: pcn.num_clusters(), connections: pcn.num_connections(), mesh, methods }
}

impl Artifact for Fig8 {
    fn render(&self, _: &Options) -> String {
        let mut out = format!(
            "\nFigure 8: space-filling curves and FD on ResNet ({} clusters, {} connections, {})\n",
            self.clusters, self.connections, self.mesh
        );
        out += "All metrics normalized to a) random mapping.\n\n";
        let mut t = Table::new(&[
            "Method", "Energy", "AvgLat", "MaxLat", "AvgCong", "MaxCong", "Time (s)", "",
        ]);
        for m in &self.methods {
            let n = &m.normalized;
            t.row(&[
                m.method.clone(),
                format!("{:.3}", n.energy),
                format!("{:.3}", n.avg_latency),
                format!("{:.3}", n.max_latency),
                format!("{:.3}", n.avg_congestion),
                format!("{:.3}", n.max_congestion),
                fmt_value(m.elapsed_secs),
                if m.early_stopped { "ES".to_string() } else { String::new() },
            ]);
        }
        out + &t.render()
    }

    fn json(&self) -> Value {
        serde_json::to_value(&self.methods)
    }
}

/// One Appendix A rectangle: the generalized Hilbert curve's visiting
/// order per cell.
#[derive(Debug, Clone, Serialize)]
pub struct CurveGrid {
    /// The rectangle.
    pub mesh: Mesh,
    /// The curve's first cell.
    pub start: Coord,
    /// `order[x][y]`: the step at which the curve visits `(x, y)`.
    pub order: Vec<Vec<usize>>,
}

/// Appendix A (Figure 13): the modified Hilbert curve on the three
/// rectangles of Figure 13 plus two awkward shapes, each checked to
/// cover its rectangle one hop at a time.
///
/// # Panics
///
/// Panics if a traversal is not continuous or does not cover its
/// rectangle.
pub fn appendix_a() -> Vec<CurveGrid> {
    [(16u16, 8u16), (13, 19), (16, 12), (5, 11), (3, 7)]
        .into_iter()
        .map(|(rows, cols)| {
            let mesh = Mesh::new(rows, cols).expect("nonzero");
            let traversal = Gilbert.traversal(mesh).expect("gilbert covers any rectangle");
            assert_valid_continuous_traversal(mesh, &traversal);
            let mut order = vec![vec![0usize; cols as usize]; rows as usize];
            for (i, c) in traversal.iter().enumerate() {
                order[c.x as usize][c.y as usize] = i;
            }
            CurveGrid { mesh, start: traversal[0], order }
        })
        .collect()
}

impl Artifact for Vec<CurveGrid> {
    fn render(&self, _: &Options) -> String {
        let mut out = String::new();
        for grid in self {
            let cells = grid.mesh.len();
            let _ = writeln!(
                out,
                "generalized Hilbert on {}: {cells} cells, every step one hop, starts at {}",
                grid.mesh, grid.start
            );
            let width = (cells - 1).to_string().len();
            for row in &grid.order {
                let line: Vec<String> = row.iter().map(|i| format!("{i:>width$}")).collect();
                let _ = writeln!(out, "  {}", line.join(" "));
            }
            out.push('\n');
        }
        out
    }

    fn json(&self) -> Value {
        serde_json::to_value(self)
    }
}
