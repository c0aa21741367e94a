//! Cross-crate integration: every FANN_R algorithm, over every `g_phi`
//! backend of Table I, must return the same `d*` as the brute-force
//! reference on realistic synthetic workloads.

use fannr::fann::algo::ier::build_p_rtree;
use fannr::fann::algo::{apx_sum, brute_force, exact_max, gd, ier_knn, r_list};
use fannr::fann::gphi::gtree_knn::GTreeKnnPhi;
use fannr::fann::gphi::ier2::IerPhi;
use fannr::fann::gphi::ine::InePhi;
use fannr::fann::gphi::oracle::{AStarOracle, GTreeOracle, GuardedLabelOracle};
use fannr::fann::gphi::scan::ScanPhi;
use fannr::fann::gphi::GPhi;
use fannr::fann::{Aggregate, FannQuery};
use fannr::gtree::{GTree, GTreeParams};
use fannr::hublabel::HubLabels;
use fannr::roadnet::Graph;

struct Fixture {
    graph: Graph,
    labels: HubLabels,
    gtree: GTree,
    p: Vec<u32>,
    q: Vec<u32>,
}

fn fixture(seed: u64, n: usize, np: f64, nq: usize, clusters: usize) -> Fixture {
    let mut rng = fannr::workload::rng(seed);
    let graph = fannr::workload::synth::road_network(n, &mut rng);
    let labels = HubLabels::build(&graph).unwrap();
    let gtree = GTree::build_with_params(
        &graph,
        GTreeParams {
            fanout: 4,
            leaf_cap: 16,
        },
    );
    let p = fannr::workload::points::uniform_data_points(&graph, np, &mut rng);
    let q = if clusters <= 1 {
        fannr::workload::points::uniform_query_points(&graph, nq, 0.4, &mut rng)
    } else {
        fannr::workload::points::clustered_query_points(&graph, nq, 0.4, clusters, &mut rng)
    };
    Fixture {
        graph,
        labels,
        gtree,
        p,
        q,
    }
}

fn backends<'a>(f: &'a Fixture) -> Vec<Box<dyn GPhi + 'a>> {
    let g = &f.graph;
    vec![
        Box::new(InePhi::new(g, &f.q)),
        Box::new(ScanPhi::new(AStarOracle::new(g), &f.q)),
        Box::new(ScanPhi::new(GuardedLabelOracle::new(&f.labels), &f.q)),
        Box::new(GTreeKnnPhi::new(&f.gtree, g, &f.q)),
        Box::new(IerPhi::new(g, AStarOracle::new(g), &f.q)),
        Box::new(IerPhi::new(g, GuardedLabelOracle::new(&f.labels), &f.q)),
        Box::new(IerPhi::new(
            g,
            GTreeOracle {
                tree: &f.gtree,
                graph: g,
            },
            &f.q,
        )),
    ]
}

fn check_fixture(f: &Fixture, phi: f64, agg: Aggregate) {
    let query = FannQuery::new(&f.p, &f.q, phi, agg);
    let truth = brute_force(&f.graph, &query).expect("connected network");
    let rtree = build_p_rtree(&f.graph, &f.p);
    for b in backends(f) {
        let name = b.name();
        let a = gd(&query, b.as_ref()).unwrap();
        assert_eq!(a.dist, truth.dist, "GD/{name} phi={phi} {agg}");
        let a = r_list(&f.graph, &query, b.as_ref()).unwrap();
        assert_eq!(a.dist, truth.dist, "R-List/{name} phi={phi} {agg}");
        let a = ier_knn(&f.graph, &query, &rtree, b.as_ref()).unwrap();
        assert_eq!(a.dist, truth.dist, "IER-kNN/{name} phi={phi} {agg}");
    }
    match agg {
        Aggregate::Max => {
            let a = exact_max(&f.graph, &query).unwrap();
            assert_eq!(a.dist, truth.dist, "Exact-max phi={phi}");
        }
        Aggregate::Sum => {
            let ine = InePhi::new(&f.graph, &f.q);
            let a = apx_sum(&f.graph, &query, &ine).unwrap();
            assert!(a.dist >= truth.dist);
            assert!(a.dist <= 3 * truth.dist.max(1), "3-approx violated");
        }
    }
}

#[test]
fn uniform_workload_all_algorithms_agree() {
    let f = fixture(1, 600, 0.05, 12, 1);
    for phi in [0.25, 0.5, 1.0] {
        check_fixture(&f, phi, Aggregate::Max);
        check_fixture(&f, phi, Aggregate::Sum);
    }
}

#[test]
fn clustered_workload_all_algorithms_agree() {
    let f = fixture(2, 500, 0.08, 16, 3);
    for phi in [0.3, 0.7] {
        check_fixture(&f, phi, Aggregate::Max);
        check_fixture(&f, phi, Aggregate::Sum);
    }
}

#[test]
fn dense_p_sparse_q() {
    let f = fixture(3, 400, 0.5, 6, 1);
    check_fixture(&f, 0.5, Aggregate::Max);
    check_fixture(&f, 0.5, Aggregate::Sum);
}

#[test]
fn sparse_p_dense_q() {
    let f = fixture(4, 400, 0.01, 40, 1);
    check_fixture(&f, 0.4, Aggregate::Max);
    check_fixture(&f, 0.4, Aggregate::Sum);
}

#[test]
fn q_subset_of_p_two_approx() {
    // Theorem 2: when Q ⊆ P the APX-sum ratio is at most 2.
    let mut rng = fannr::workload::rng(5);
    let graph = fannr::workload::synth::road_network(500, &mut rng);
    let p = fannr::workload::points::uniform_data_points(&graph, 0.3, &mut rng);
    let q: Vec<u32> = p.iter().copied().step_by(7).take(10).collect();
    for phi in [0.3, 0.6, 1.0] {
        let query = FannQuery::new(&p, &q, phi, Aggregate::Sum);
        let truth = brute_force(&graph, &query).unwrap();
        let ine = InePhi::new(&graph, &q);
        let a = apx_sum(&graph, &query, &ine).unwrap();
        assert!(
            a.dist <= 2 * truth.dist.max(1),
            "Theorem 2 violated: {} vs {}",
            a.dist,
            truth.dist
        );
    }
}

#[test]
fn overlapping_p_and_q_nodes() {
    // P and Q may share nodes (e.g. q3 = p4 in the paper's Fig. 1).
    let mut rng = fannr::workload::rng(6);
    let graph = fannr::workload::synth::road_network(300, &mut rng);
    let p = fannr::workload::points::uniform_data_points(&graph, 0.2, &mut rng);
    let mut q = fannr::workload::points::uniform_query_points(&graph, 8, 0.5, &mut rng);
    q.extend(p.iter().take(4)); // force overlap
    q.sort_unstable();
    q.dedup();
    let f = Fixture {
        labels: HubLabels::build(&graph).unwrap(),
        gtree: GTree::build_with_params(
            &graph,
            GTreeParams {
                fanout: 2,
                leaf_cap: 12,
            },
        ),
        graph,
        p,
        q,
    };
    check_fixture(&f, 0.5, Aggregate::Max);
    check_fixture(&f, 0.5, Aggregate::Sum);
}
