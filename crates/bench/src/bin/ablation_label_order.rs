//! Ablation (DESIGN.md §5): hub-ordering quality for the label oracle.
//!
//! The "PHL" role's cost is dominated by label size, which depends
//! entirely on the vertex order. Compares four orders on the same
//! network: input (worst case), degree (the default until PR 24), the
//! separator order every build path now uses
//! ([`hublabel::default_order`]), and contraction-hierarchy rank. CH rank
//! gives the smallest labels but costs far more to compute than the label
//! build it shortens — the "order" column is why it is the comparator
//! here and not the default. `--cheap true` keeps only degree and
//! separator (the input-order build and `Ch::build` take minutes at 20k).

use fann_bench::*;
use hublabel::{default_order, order_by_importance, HubLabels};
use roadnet::NodeId;
use std::cmp::Reverse;

fn main() {
    let args = Args::parse();
    let nodes: usize = args.get("nodes", 4000);
    let cheap: bool = args.get("cheap", false);
    let g = workload::synth::road_network(nodes, &mut workload::rng(0x0DE2));
    eprintln!("[env] graph: {} nodes", g.num_nodes());

    let input = || (0..g.num_nodes() as NodeId).collect::<Vec<_>>();
    let degree = || {
        let mut order = input();
        order.sort_by_key(|&v| (Reverse(g.degree(v)), v));
        order
    };
    let ch_rank = || {
        let ch = ch_index::Ch::build(&g);
        let ranks: Vec<u64> = input().iter().map(|&v| ch.rank(v) as u64).collect();
        order_by_importance(&ranks)
    };
    type MakeOrder<'a> = Box<dyn Fn() -> Vec<NodeId> + 'a>;
    let mut orders: Vec<(&str, MakeOrder)> = vec![
        ("degree", Box::new(degree)),
        ("separator", Box::new(|| default_order(&g))),
    ];
    if !cheap {
        orders.push(("CH-rank", Box::new(ch_rank)));
        orders.push(("input", Box::new(input)));
    }

    let header: Vec<String> = ["order", "entries", "avg/node", "size", "order", "build"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut sizes = Vec::new();
    for (name, make) in &orders {
        let (order, order_secs) = time(make);
        let (hl, build_secs) = time(|| HubLabels::build_with_order(&g, &order));
        let hl = hl.expect("synthetic networks fit u32 label distances");
        rows.push(vec![
            name.to_string(),
            hl.total_label_entries().to_string(),
            format!("{:.1}", hl.avg_label_size()),
            fmt_bytes(hl.memory_bytes()),
            fmt_secs(Some(order_secs)),
            fmt_secs(Some(build_secs)),
        ]);
        sizes.push(hl.total_label_entries() as f64);
    }

    print_table("Ablation: label size by hub order", &header, &rows);
    println!(
        "[shape] separator labels are {:.2}x smaller than degree order ({})",
        sizes[0] / sizes[1],
        if sizes[1] <= sizes[0] {
            "OK: the default order wins"
        } else {
            "WARN"
        }
    );
    if !cheap {
        println!(
            "[shape] CH-rank labels are {:.2}x smaller again; input order is {:.1}x larger",
            sizes[1] / sizes[2],
            sizes[3] / sizes[1]
        );
    }
}
