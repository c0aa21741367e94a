//! POI-based site selection with indexes and k-FANN_R (§V, Fig. 12).
//!
//! A delivery chain wants the 5 best fast-food locations (`P` = FF POIs)
//! to serve hospital demand (`Q` = HOS POIs), where each kitchen only has
//! capacity for 60% of the hospitals. Builds the index stack a
//! production deployment serves from (hub labels, R-tree), then answers
//! with the indexed IER-kNN pipeline and cross-checks with Exact-max.
//!
//! Run with: `cargo run --release --example poi_site_selection`

use fannr::fann::algo::ier::build_p_rtree;
use fannr::fann::algo::topk::{exact_max_topk, ier_topk};
use fannr::fann::gphi::ier2::IerPhi;
use fannr::fann::gphi::oracle::GuardedLabelOracle;
use fannr::fann::{Aggregate, FannQuery};
use fannr::hublabel::HubLabels;
use fannr::workload::poi::{generate_poi, PoiKind};

fn main() {
    let mut rng = fannr::workload::rng(2024);
    let graph = fannr::workload::synth::road_network(12_000, &mut rng);
    println!(
        "network: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Index construction (one-off, amortized over all queries).
    let t0 = std::time::Instant::now();
    let labels = HubLabels::build(&graph).unwrap();
    println!(
        "hub labels: {:.1}s, avg label size {:.1}",
        t0.elapsed().as_secs_f64(),
        labels.avg_label_size()
    );

    // POI sets at Table IV densities.
    let kitchens = generate_poi(&graph, PoiKind::FastFood, &mut rng);
    let hospitals = generate_poi(&graph, PoiKind::Hospitals, &mut rng);
    println!(
        "POIs: {} fast-food sites (P), {} hospitals (Q)",
        kitchens.len(),
        hospitals.len()
    );

    let query = FannQuery::new(&kitchens, &hospitals, 0.6, Aggregate::Max);
    let rtree = build_p_rtree(&graph, &kitchens);
    let gphi = IerPhi::new(&graph, GuardedLabelOracle::new(&labels), &hospitals);

    // Top-5 sites via the indexed pipeline.
    let t0 = std::time::Instant::now();
    let top5 = ier_topk(&graph, &query, &rtree, &gphi, 5);
    let indexed = t0.elapsed();

    // Cross-check with the index-free Exact-max adaptation.
    let t0 = std::time::Instant::now();
    let check = exact_max_topk(&graph, &query, 5);
    let index_free = t0.elapsed();

    println!("\ntop-5 kitchen sites (serve any 60% of hospitals):");
    println!("rank  node     worst-delivery");
    for (i, (p, d)) in top5.iter().enumerate() {
        println!("{:>4}  {:<7}  {}", i + 1, p, d);
    }
    let a: Vec<u64> = top5.iter().map(|&(_, d)| d).collect();
    let b: Vec<u64> = check.iter().map(|&(_, d)| d).collect();
    assert_eq!(a, b, "indexed and index-free pipelines disagree");
    println!(
        "\nindexed IER-kNN: {:?} vs index-free Exact-max: {:?} (identical answers)",
        indexed, index_free
    );
}
