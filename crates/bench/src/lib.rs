//! Shared harness for the evaluation experiments (§VI).
//!
//! Each `src/bin/figN_*.rs` binary regenerates one figure/table of the
//! paper: it prepares an [`Env`] (graph + indexes), draws workloads with
//! the §VI-A generators, runs the algorithms under test with a per-cell
//! time budget (cells that exceed it are reported as `DNF`, mirroring the
//! paper's "Baseline cannot finish within a reasonable time"), and prints
//! the same rows/series the paper plots. Absolute numbers differ from the
//! paper's dual-Xeon testbed; the *shape* (who wins, by what factor, where
//! crossovers fall) is asserted by each binary's shape checks and recorded
//! in EXPERIMENTS.md.

use fann_core::algo::{apx_sum, exact_max, gd, ier_knn, r_list};
use fann_core::gphi::gtree_knn::GTreeKnnPhi;
use fann_core::gphi::ier2::IerPhi;
use fann_core::gphi::ine::InePhi;
use fann_core::gphi::oracle::{AStarOracle, GTreeOracle, GuardedLabelOracle};
use fann_core::gphi::scan::ScanPhi;
use fann_core::gphi::GPhi;
use fann_core::{Aggregate, FannAnswer, FannQuery};
use gtree::{GTree, GTreeParams};
use hublabel::HubLabels;
use roadnet::{Graph, LowerBound, NodeId};
use spatial_rtree::RTree;
use std::collections::HashMap;
use std::time::Instant;

/// A prepared experiment environment: the road network plus every road
/// network index the backends need (Table I).
pub struct Env {
    pub graph: Graph,
    pub lb: LowerBound,
    pub labels: HubLabels,
    pub gtree: GTree,
}

impl Env {
    /// Build all indexes over `graph`.
    pub fn prepare(graph: Graph, gtree_leaf_cap: usize) -> Self {
        let lb = LowerBound::for_graph(&graph);
        let labels = HubLabels::build(&graph).expect("experiment networks fit u32 label distances");
        let gtree = GTree::build_with_params(
            &graph,
            GTreeParams {
                fanout: 4,
                leaf_cap: gtree_leaf_cap,
            },
        );
        Env {
            graph,
            lb,
            labels,
            gtree,
        }
    }
}

/// The `g_phi` backend names of Table I, in the paper's legend order.
pub const GPHI_NAMES: [&str; 7] = [
    "A*",
    "IER-A*",
    "INE",
    "PHL",
    "IER-PHL",
    "GTree",
    "IER-GTree",
];

/// One workload instance plus the per-workload index (R-tree over `P`).
pub struct QueryCtx<'e> {
    pub env: &'e Env,
    pub p: Vec<NodeId>,
    pub q: Vec<NodeId>,
    pub phi: f64,
    pub agg: Aggregate,
    pub rtree_p: RTree<NodeId>,
}

impl<'e> QueryCtx<'e> {
    pub fn new(env: &'e Env, p: Vec<NodeId>, q: Vec<NodeId>, phi: f64, agg: Aggregate) -> Self {
        let rtree_p = fann_core::algo::ier::build_p_rtree(&env.graph, &p);
        QueryCtx {
            env,
            p,
            q,
            phi,
            agg,
            rtree_p,
        }
    }

    pub fn query(&self) -> FannQuery<'_> {
        FannQuery::new(&self.p, &self.q, self.phi, self.agg)
    }

    /// Instantiate a `g_phi` backend by Table I name.
    pub fn gphi(&self, name: &str) -> Box<dyn GPhi + '_> {
        let g = &self.env.graph;
        match name {
            "INE" => Box::new(InePhi::new(g, &self.q)),
            "A*" => Box::new(ScanPhi::new(AStarOracle::with_lb(g, self.env.lb), &self.q)),
            "PHL" => Box::new(ScanPhi::new(
                GuardedLabelOracle::new(&self.env.labels),
                &self.q,
            )),
            "GTree" => Box::new(GTreeKnnPhi::new(&self.env.gtree, g, &self.q)),
            "IER-A*" => Box::new(IerPhi::new(
                g,
                AStarOracle::with_lb(g, self.env.lb),
                &self.q,
            )),
            "IER-PHL" => Box::new(IerPhi::new(
                g,
                GuardedLabelOracle::new(&self.env.labels),
                &self.q,
            )),
            "IER-GTree" => Box::new(IerPhi::new(
                g,
                GTreeOracle {
                    tree: &self.env.gtree,
                    graph: g,
                },
                &self.q,
            )),
            other => panic!("unknown g_phi backend '{other}'"),
        }
    }

    /// Run a FANN_R algorithm by name. `gphi_name` selects the backend for
    /// algorithms that take one (ignored by the pure `Exact-max`).
    pub fn run(&self, algo: &str, gphi_name: &str) -> Option<FannAnswer> {
        let query = self.query();
        match algo {
            "GD" => gd(&query, self.gphi(gphi_name).as_ref()),
            "R-List" => r_list(&self.env.graph, &query, self.gphi(gphi_name).as_ref()),
            "IER-kNN" => ier_knn(
                &self.env.graph,
                &query,
                &self.rtree_p,
                self.gphi(gphi_name).as_ref(),
            ),
            "Exact-max" => exact_max(&self.env.graph, &query),
            "Exact-max-gphi" => fann_core::algo::exact_max_with_gphi(
                &self.env.graph,
                &query,
                self.gphi(gphi_name).as_ref(),
            ),
            "APX-sum" => apx_sum(&self.env.graph, &query, self.gphi(gphi_name).as_ref()),
            other => panic!("unknown algorithm '{other}'"),
        }
    }
}

/// The "all algorithms" panel of Figs. 4(a)–8(b): `(algo, gphi)` pairs.
/// PHL-backed, as the paper states for the latter experiments.
pub const ALL_ALGOS: [(&str, &str); 5] = [
    ("GD", "PHL"),
    ("R-List", "PHL"),
    ("IER-kNN", "IER-PHL"),
    ("Exact-max", "PHL"),
    ("APX-sum", "PHL"),
];

/// Wall-clock one closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Run `queries` workload draws of one experiment cell, respecting a total
/// time budget. Returns the mean seconds per query, or `None` (DNF) when
/// the first query alone blows the budget or nothing completed.
pub fn run_cell(
    budget_secs: f64,
    queries: usize,
    mut one_query: impl FnMut(usize) -> f64,
) -> Option<f64> {
    let mut spent = 0.0;
    let mut times = Vec::new();
    for i in 0..queries {
        if i > 0 && spent + spent / i as f64 > budget_secs {
            break; // projected overrun: report what we have
        }
        let t = one_query(i);
        spent += t;
        times.push(t);
        if spent > budget_secs {
            break;
        }
    }
    if times.is_empty() || (times.len() == 1 && spent > budget_secs) {
        return None;
    }
    Some(times.iter().sum::<f64>() / times.len() as f64)
}

/// Format seconds like the paper's axes (log-scale friendly).
pub fn fmt_secs(s: Option<f64>) -> String {
    match s {
        None => "DNF".to_string(),
        Some(s) if s < 1e-3 => format!("{:.1}us", s * 1e6),
        Some(s) if s < 1.0 => format!("{:.2}ms", s * 1e3),
        Some(s) => format!("{s:.3}s"),
    }
}

/// Format byte counts.
pub fn fmt_bytes(b: usize) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

/// Print an aligned table: header row + data rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        let empty = String::new();
        for (i, w) in widths.iter().enumerate() {
            let c = cells.get(i).unwrap_or(&empty);
            s.push_str(&format!("{:<w$}  ", c, w = w));
        }
        println!("{}", s.trim_end());
    };
    line(header);
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * ncols));
    for row in rows {
        line(row);
    }
}

/// Minimal `--key value` CLI parsing (no external deps).
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    pub fn parse() -> Self {
        let mut map = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let val = it.next().unwrap_or_else(|| "true".to_string());
                map.insert(key.to_string(), val);
            }
        }
        Args { map }
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.map
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    pub fn flag(&self, key: &str) -> bool {
        self.map.get(key).map(String::as_str) == Some("true")
    }
}

/// Common experiment defaults (§VI-A), scaled per DESIGN.md §5.
pub struct Defaults {
    /// Number of graph nodes for the default (NW-scaled) network.
    pub nodes: usize,
    /// Density of `P`.
    pub d: f64,
    /// Coverage ratio of `Q`.
    pub a: f64,
    /// Size of `Q`.
    pub m: usize,
    /// Clusters of `Q` (1 = uniform).
    pub c: usize,
    /// Flexibility.
    pub phi: f64,
    /// Queries averaged per cell (paper: 100).
    pub queries: usize,
    /// Per-cell time budget in seconds.
    pub budget: f64,
    /// G-tree leaf capacity.
    pub leaf_cap: usize,
}

impl Defaults {
    /// Small configuration for Criterion micro-benches: a ~1500-node
    /// network keeps every group under a few seconds while preserving the
    /// relative ordering of the backends.
    pub fn small() -> Self {
        Defaults {
            nodes: 1_500,
            d: 0.01,
            a: 0.10,
            m: 32,
            c: 1,
            phi: 0.5,
            queries: 1,
            budget: 5.0,
            leaf_cap: 32,
        }
    }

    /// Read defaults, overridable from the command line.
    pub fn from_args(args: &Args) -> Self {
        Defaults {
            nodes: args.get("nodes", 16_000),
            d: args.get("d", 0.001),
            a: args.get("a", 0.10),
            m: args.get("m", 64),
            c: args.get("c", 1),
            phi: args.get("phi", 0.5),
            queries: args.get("queries", 3),
            budget: args.get("budget", 20.0),
            leaf_cap: args.get("leaf-cap", 128),
        }
    }

    /// Build the default environment (synthetic NW-scale network).
    pub fn env(&self) -> Env {
        let graph = workload::synth::road_network(self.nodes, &mut workload::rng(0xFA77));
        eprintln!(
            "[env] graph: {} nodes, {} edges; building hub labels + G-tree...",
            graph.num_nodes(),
            graph.num_edges()
        );
        let (env, secs) = time(|| Env::prepare(graph, self.leaf_cap));
        eprintln!("[env] indexes ready in {:.1}s", secs);
        env
    }
}

/// Draw one workload (P by density `d`, Q by `m`/`a`/`c`) and wrap it in a
/// [`QueryCtx`]. `seed` controls all randomness; increment it per query to
/// average over draws as §VI-A prescribes.
#[allow(clippy::too_many_arguments)]
pub fn make_ctx<'e>(
    env: &'e Env,
    seed: u64,
    d: f64,
    m: usize,
    a: f64,
    c: usize,
    phi: f64,
    agg: Aggregate,
) -> QueryCtx<'e> {
    let mut rng = workload::rng(seed);
    let p = workload::points::uniform_data_points(&env.graph, d, &mut rng);
    let q = if c <= 1 {
        workload::points::uniform_query_points(&env.graph, m, a, &mut rng)
    } else {
        workload::points::clustered_query_points(&env.graph, m, a, c, &mut rng)
    };
    QueryCtx::new(env, p, q, phi, agg)
}

/// One x-axis point of a parameter sweep (Figs. 5–8): the full §VI-A
/// parameter vector with a display label.
#[derive(Clone)]
pub struct SweepPoint {
    pub label: String,
    pub d: f64,
    pub m: usize,
    pub a: f64,
    pub c: usize,
    pub phi: f64,
}

impl SweepPoint {
    /// A point with the defaults of `cfg`, to be customized per sweep.
    pub fn defaults(cfg: &Defaults, label: impl Into<String>) -> Self {
        SweepPoint {
            label: label.into(),
            d: cfg.d,
            m: cfg.m,
            a: cfg.a,
            c: cfg.c,
            phi: cfg.phi,
        }
    }
}

/// Run and print the two-panel sweep shared by Figs. 5–8:
/// (a) IER-kNN per `g_phi` backend, (b) all algorithms. Returns the (a)
/// matrix row-major by `GPHI_NAMES` for shape checks.
pub fn sweep_tables(
    env: &Env,
    cfg: &Defaults,
    fig: &str,
    xname: &str,
    points: &[SweepPoint],
    seed_base: u64,
) -> Vec<Vec<Option<f64>>> {
    let header: Vec<String> = std::iter::once(String::new())
        .chain(points.iter().map(|p| format!("{xname}={}", p.label)))
        .collect();

    // (a) IER-kNN per g_phi.
    let mut matrix = Vec::new();
    let mut rows = Vec::new();
    for gphi in GPHI_NAMES {
        let mut row = vec![gphi.to_string()];
        let mut mrow = Vec::new();
        for (pi, pt) in points.iter().enumerate() {
            let secs = run_cell(cfg.budget, cfg.queries, |i| {
                let ctx = make_ctx(
                    env,
                    seed_base + (pi * 100 + i) as u64,
                    pt.d,
                    pt.m,
                    pt.a,
                    pt.c,
                    pt.phi,
                    Aggregate::Max,
                );
                time(|| ctx.run("IER-kNN", gphi)).1
            });
            mrow.push(secs);
            row.push(fmt_secs(secs));
        }
        matrix.push(mrow);
        rows.push(row);
    }
    print_table(
        &format!("Fig. {fig}(a): IER-kNN by g_phi, varying {xname}"),
        &header,
        &rows,
    );

    // (b) All algorithms.
    let mut rows = Vec::new();
    for (algo, gphi) in ALL_ALGOS {
        let agg = if algo == "APX-sum" {
            Aggregate::Sum
        } else {
            Aggregate::Max
        };
        let mut row = vec![format!("{algo}({gphi})")];
        for (pi, pt) in points.iter().enumerate() {
            let secs = run_cell(cfg.budget, cfg.queries, |i| {
                let ctx = make_ctx(
                    env,
                    seed_base + (pi * 100 + i) as u64,
                    pt.d,
                    pt.m,
                    pt.a,
                    pt.c,
                    pt.phi,
                    agg,
                );
                time(|| ctx.run(algo, gphi)).1
            });
            row.push(fmt_secs(secs));
        }
        rows.push(row);
    }
    print_table(
        &format!("Fig. {fig}(b): all algorithms, varying {xname}"),
        &header,
        &rows,
    );
    matrix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        assert!(mean_std(&[]).0.is_nan());
    }

    #[test]
    fn run_cell_respects_budget() {
        // First query alone exceeds the budget: DNF.
        assert_eq!(run_cell(0.5, 5, |_| 1.0), None);
        // All cheap: mean returned.
        assert_eq!(run_cell(10.0, 4, |_| 0.1), Some(0.1));
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(None), "DNF");
        assert!(fmt_secs(Some(0.00001)).ends_with("us"));
        assert!(fmt_secs(Some(0.01)).ends_with("ms"));
        assert!(fmt_secs(Some(2.0)).ends_with('s'));
        assert_eq!(fmt_bytes(512), "512B");
        assert!(fmt_bytes(4096).ends_with("KiB"));
    }

    #[test]
    fn env_and_ctx_smoke() {
        let graph = workload::synth::road_network(400, &mut workload::rng(1));
        let env = Env::prepare(graph, 32);
        let mut rng = workload::rng(2);
        let p = workload::points::uniform_data_points(&env.graph, 0.1, &mut rng);
        let q = workload::points::uniform_query_points(&env.graph, 8, 0.5, &mut rng);
        let ctx = QueryCtx::new(&env, p, q, 0.5, Aggregate::Max);
        let mut dists = Vec::new();
        for name in GPHI_NAMES {
            let a = ctx.run("GD", name).expect("connected");
            dists.push(a.dist);
        }
        assert!(dists.windows(2).all(|w| w[0] == w[1]), "backends disagree");
        let em = ctx.run("Exact-max", "").unwrap();
        assert_eq!(em.dist, dists[0]);
        let rl = ctx.run("R-List", "PHL").unwrap();
        assert_eq!(rl.dist, dists[0]);
        let ier = ctx.run("IER-kNN", "IER-PHL").unwrap();
        assert_eq!(ier.dist, dists[0]);
    }
}
