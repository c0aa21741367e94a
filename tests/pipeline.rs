//! End-to-end pipeline tests: dataset registry -> generators -> indexes ->
//! queries, plus IO round-trips — the paths a downstream user exercises.

use fannr::fann::algo::ier::build_p_rtree;
use fannr::fann::algo::{brute_force, exact_max, ier_knn};
use fannr::fann::gphi::ier2::IerPhi;
use fannr::fann::gphi::oracle::GuardedLabelOracle;
use fannr::fann::{Aggregate, FannQuery};
use fannr::hublabel::HubLabels;
use fannr::roadnet::io::{read_compact, write_compact};
use fannr::workload::datasets::{by_name, DATASETS};
use fannr::workload::poi::{generate_poi, PoiKind};

#[test]
fn smallest_dataset_full_pipeline() {
    // DE at quarter scale: registry -> graph -> indexes -> query -> answer.
    let spec = by_name("DE").unwrap();
    let graph = spec.synthesize_scaled(0.25);
    let labels = HubLabels::build(&graph).unwrap();

    let mut rng = fannr::workload::rng(99);
    let p = fannr::workload::points::uniform_data_points(&graph, 0.02, &mut rng);
    let q = fannr::workload::points::uniform_query_points(&graph, 12, 0.2, &mut rng);
    let query = FannQuery::new(&p, &q, 0.5, Aggregate::Max);
    query.validate(&graph).unwrap();

    let rtree = build_p_rtree(&graph, &p);
    let gphi = IerPhi::new(&graph, GuardedLabelOracle::new(&labels), &q);
    let indexed = ier_knn(&graph, &query, &rtree, &gphi).unwrap();
    let index_free = exact_max(&graph, &query).unwrap();
    let truth = brute_force(&graph, &query).unwrap();
    assert_eq!(indexed.dist, truth.dist);
    assert_eq!(index_free.dist, truth.dist);
}

#[test]
fn poi_workload_pipeline() {
    let graph = fannr::workload::synth::road_network(3000, &mut fannr::workload::rng(3));
    let mut rng = fannr::workload::rng(4);
    let p = generate_poi(&graph, PoiKind::FastFood, &mut rng);
    let q = generate_poi(&graph, PoiKind::Universities, &mut rng);
    assert!(!p.is_empty() && !q.is_empty());
    let query = FannQuery::new(&p, &q, 0.6, Aggregate::Max);
    let got = exact_max(&graph, &query).unwrap();
    let want = brute_force(&graph, &query).unwrap();
    assert_eq!(got.dist, want.dist);
}

#[test]
fn graph_io_roundtrip_preserves_answers() {
    let graph = fannr::workload::synth::road_network(500, &mut fannr::workload::rng(5));
    let text = write_compact(&graph);
    let graph2 = read_compact(&text).unwrap();
    assert_eq!(graph2.num_nodes(), graph.num_nodes());
    assert_eq!(graph2.num_edges(), graph.num_edges());

    let mut rng = fannr::workload::rng(6);
    let p = fannr::workload::points::uniform_data_points(&graph, 0.05, &mut rng);
    let q = fannr::workload::points::uniform_query_points(&graph, 8, 0.5, &mut rng);
    for agg in [Aggregate::Sum, Aggregate::Max] {
        let query = FannQuery::new(&p, &q, 0.5, agg);
        assert_eq!(
            brute_force(&graph, &query).map(|a| a.dist),
            brute_force(&graph2, &query).map(|a| a.dist)
        );
    }
}

#[test]
fn registry_names_resolve_and_scale() {
    for spec in &DATASETS {
        assert!(by_name(spec.name).is_some());
        assert!(spec.gtree_leaf_cap >= 32);
    }
    // Spot-check synthesis of the two smallest.
    for spec in DATASETS.iter().take(2) {
        let g = spec.synthesize_scaled(0.2);
        assert!(g.num_nodes() > 100);
    }
}

#[test]
fn ann_is_fann_with_phi_one() {
    // The paper's framing: ANN is the special case phi = 1.
    let graph = fannr::workload::synth::road_network(800, &mut fannr::workload::rng(8));
    let mut rng = fannr::workload::rng(9);
    let p = fannr::workload::points::uniform_data_points(&graph, 0.05, &mut rng);
    let q = fannr::workload::points::uniform_query_points(&graph, 10, 0.4, &mut rng);
    let query = FannQuery::new(&p, &q, 1.0, Aggregate::Sum);
    let a = brute_force(&graph, &query).unwrap();
    // phi = 1 must aggregate over ALL of Q.
    assert_eq!(a.subset.len(), q.len());
    let mut s = a.subset.clone();
    s.sort_unstable();
    assert_eq!(s, q);
}
