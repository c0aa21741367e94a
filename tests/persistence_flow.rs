//! Persistence round-trips through real files: the build-once / ship-index
//! deployment story for hub labels, plus Engine integration. The G-tree has
//! no file of its own; it is rebuilt from the persisted graph.

use fannr::fann::engine::Engine;
use fannr::fann::Aggregate;
use fannr::gtree::{GTree, GTreeParams};
use fannr::hublabel::HubLabels;

#[test]
fn labels_survive_disk_roundtrip_and_power_engine() {
    let graph = fannr::workload::synth::road_network(900, &mut fannr::workload::rng(77));
    let labels = HubLabels::build(&graph).unwrap();

    let dir = std::env::temp_dir().join(format!("fannr-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("labels.v2");
    labels.write_flat(&path).unwrap();
    let loaded = HubLabels::read_flat(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let mut rng = fannr::workload::rng(78);
    let p = fannr::workload::points::uniform_data_points(&graph, 0.05, &mut rng);
    let q = fannr::workload::points::uniform_query_points(&graph, 10, 0.5, &mut rng);

    let fresh = Engine::new(&graph).with_labels();
    let revived = Engine::new(&graph).with_prebuilt_labels(loaded).unwrap();
    for agg in [Aggregate::Sum, Aggregate::Max] {
        let a = fresh.query(&p, &q, 0.5, agg).unwrap().unwrap();
        let b = revived.query(&p, &q, 0.5, agg).unwrap().unwrap();
        assert_eq!(a.dist, b.dist, "{agg}");
    }
}

#[test]
fn gtree_survives_disk_roundtrip() {
    let graph = fannr::workload::synth::road_network(700, &mut fannr::workload::rng(79));
    let params = GTreeParams {
        fanout: 4,
        leaf_cap: 32,
    };
    let tree = GTree::build_with_params(&graph, params);

    let dir = std::env::temp_dir().join(format!("fannr-test-gt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.v2");
    graph.write_flat(&path).unwrap();
    let loaded_graph = fannr::roadnet::Graph::read_flat(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let rebuilt = GTree::build_with_params(&loaded_graph, params);

    assert_eq!(rebuilt.num_tree_nodes(), tree.num_tree_nodes());
    assert_eq!(rebuilt.memory_bytes(), tree.memory_bytes());
    for s in (0..graph.num_nodes() as u32).step_by(37) {
        for t in (0..graph.num_nodes() as u32).step_by(41) {
            assert_eq!(rebuilt.dist(&loaded_graph, s, t), tree.dist(&graph, s, t));
        }
    }
}
