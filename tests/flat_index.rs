//! The flat v2 index contract, end to end: round-trips are bit-identical
//! (v2 bytes == in-memory build for graph, hub labels, and G-tree; for
//! the G-tree also == v1 decode), an engine cold-started from an index
//! directory answers every strategy bit-identically to an engine built in
//! memory, and malformed containers are rejected with typed errors rather
//! than panics.

use fannr::fann::engine::{Engine, IndexDirOptions};
use fannr::fann::{Aggregate, FannAnswer};
use fannr::gtree::{GTree, GTreeParams};
use fannr::hublabel::HubLabels;
use fannr::roadnet::{Graph, GraphBuilder, LoadMode, NodeId};
use proptest::prelude::*;

/// A random connected graph: spanning tree + extra random edges.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..40, 0usize..24, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            b.add_node((next() % 1000) as f64, (next() % 1000) as f64);
        }
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            b.add_edge(u, v, (next() % 40 + 1) as u32);
        }
        for _ in 0..extra {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, (next() % 40 + 1) as u32);
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Graph: flat v2 bytes decode to the exact same CSR arrays.
    #[test]
    fn graph_v2_round_trip_is_bit_identical(g in arb_graph()) {
        let back = Graph::from_flat_bytes(&g.to_flat_bytes()).unwrap();
        prop_assert!(back == g);
    }

    /// Hub labels: the flat round trip == the in-memory build (labels and
    /// the hub order they carry) == the batch build.
    #[test]
    fn labels_v2_round_trip_matches_build(g in arb_graph()) {
        let built = HubLabels::build(&g).unwrap();
        let via_v2 = HubLabels::from_flat_bytes(&built.to_flat_bytes()).unwrap();
        prop_assert!(via_v2 == built);
        prop_assert_eq!(via_v2.order(), built.order());
        prop_assert!(HubLabels::build_parallel(&g, 2).unwrap() == built);
    }

    /// G-tree: v2 round trip == in-memory build == v1 decode.
    #[test]
    fn gtree_v2_matches_build_and_v1(g in arb_graph()) {
        let built = GTree::build_with_params(
            &g,
            GTreeParams { fanout: 2, leaf_cap: 5 },
        );
        let via_v1 = GTree::from_bytes(&built.to_bytes()).unwrap();
        let via_v2 = GTree::from_flat_bytes(&built.to_flat_bytes()).unwrap();
        prop_assert!(via_v2 == built);
        prop_assert!(via_v2 == via_v1);
    }

    /// Truncating a v2 container anywhere must produce an error, not a
    /// panic or a silently wrong structure.
    #[test]
    fn truncated_v2_containers_are_rejected(g in arb_graph(), frac in 0.0f64..1.0) {
        let bytes = HubLabels::build(&g).unwrap().to_flat_bytes();
        let cut = ((bytes.len() as f64 * frac) as usize / 8) * 8;
        if cut < bytes.len() {
            prop_assert!(HubLabels::from_flat_bytes(&bytes[..cut]).is_err());
        }
    }
}

fn workload(g: &Graph, seed: u64) -> (Vec<NodeId>, Vec<Vec<NodeId>>) {
    let mut rng = fannr::workload::rng(seed);
    let p = fannr::workload::points::uniform_data_points(g, 0.05, &mut rng);
    let qs = (0..4)
        .map(|_| fannr::workload::points::uniform_query_points(g, 8, 0.4, &mut rng))
        .collect();
    (p, qs)
}

/// Cold start from `fannr build-index` artifacts: every strategy the
/// engine can dispatch (IER-kNN over labels, Exact-max, R-List, APX-sum)
/// answers bit-identically to an engine built in memory.
#[test]
fn engine_from_index_dir_matches_in_memory_for_all_strategies() {
    let graph = fannr::workload::synth::road_network(800, &mut fannr::workload::rng(41));
    let labels = HubLabels::build_parallel(&graph, 2).unwrap();

    let dir = std::env::temp_dir().join(format!("fannr-flatidx-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    graph.write_flat(&dir.join("graph.v2")).unwrap();
    labels.write_flat(&dir.join("labels.v2")).unwrap();

    let (p, qs) = workload(&graph, 42);

    // Labeled engines: strategy IerKnnLabels for both aggregates.
    let mem_labeled = Engine::new(&graph).with_prebuilt_labels(labels);
    let disk_labeled = Engine::from_index_dir(&dir).unwrap();
    assert!(disk_labeled.has_labels(), "labels.v2 must attach");
    // Index-free engines: ExactMax (max), RListIne (sum), ApxSumIne (sum).
    let disk_graph = Graph::read_flat(&dir.join("graph.v2")).unwrap();
    assert!(disk_graph == graph);
    let mem_plain = Engine::new(&graph);
    let disk_plain = Engine::new(&disk_graph);
    let mem_apx = Engine::new(&graph).allow_approx_sum(true);
    let disk_apx = Engine::new(&disk_graph).allow_approx_sum(true);

    let run = |e: &Engine, q: &[NodeId], agg: Aggregate| -> Option<FannAnswer> {
        e.query(&p, q, 0.5, agg).unwrap()
    };
    for q in &qs {
        for agg in [Aggregate::Max, Aggregate::Sum] {
            assert_eq!(
                run(&mem_labeled, q, agg),
                run(&disk_labeled, q, agg),
                "labeled engine diverged ({agg})"
            );
            assert_eq!(
                run(&mem_plain, q, agg),
                run(&disk_plain, q, agg),
                "index-free engine diverged ({agg})"
            );
        }
        assert_eq!(
            run(&mem_apx, q, Aggregate::Sum),
            run(&disk_apx, q, Aggregate::Sum),
            "apx-sum engine diverged"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The mmap loading mode decodes every container to the exact same
/// structure as the one-`read` path: the flat format's alignment
/// guarantees hold against page-aligned mapped bytes just as they do
/// against a heap buffer.
#[cfg(unix)]
#[test]
fn mmap_load_matches_read_load_for_all_containers() {
    let graph = fannr::workload::synth::road_network(500, &mut fannr::workload::rng(13));
    let labels = HubLabels::build(&graph).unwrap();
    let gtree = GTree::build_with_params(
        &graph,
        GTreeParams {
            fanout: 2,
            leaf_cap: 16,
        },
    );

    let dir = std::env::temp_dir().join(format!("fannr-flatmm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    graph.write_flat(&dir.join("graph.v2")).unwrap();
    labels.write_flat(&dir.join("labels.v2")).unwrap();
    gtree.write_flat(&dir.join("gtree.v2")).unwrap();

    let g_read = Graph::read_flat_with(&dir.join("graph.v2"), LoadMode::Read).unwrap();
    let g_mmap = Graph::read_flat_with(&dir.join("graph.v2"), LoadMode::Mmap).unwrap();
    assert!(g_mmap == g_read && g_mmap == graph, "graph: mmap != read");

    let l_read = HubLabels::read_flat_with(&dir.join("labels.v2"), LoadMode::Read).unwrap();
    let l_mmap = HubLabels::read_flat_with(&dir.join("labels.v2"), LoadMode::Mmap).unwrap();
    assert!(l_mmap == l_read && l_mmap == labels, "labels: mmap != read");

    let t_read = GTree::read_flat_with(&dir.join("gtree.v2"), LoadMode::Read).unwrap();
    let t_mmap = GTree::read_flat_with(&dir.join("gtree.v2"), LoadMode::Mmap).unwrap();
    assert!(t_mmap == t_read && t_mmap == gtree, "gtree: mmap != read");

    // And the mapped engine answers bit-identically to the in-memory one.
    let (p, qs) = workload(&graph, 7);
    let mem = Engine::new(&graph).with_prebuilt_labels(labels);
    let mapped = Engine::new(&g_mmap).with_prebuilt_labels(l_mmap);
    for q in &qs {
        for agg in [Aggregate::Max, Aggregate::Sum] {
            assert_eq!(
                mem.query(&p, q, 0.5, agg).unwrap(),
                mapped.query(&p, q, 0.5, agg).unwrap(),
                "mmap-backed engine diverged ({agg})"
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Cold start from `graph.v2` alone with `background_build`: the engine
/// answers the first query correctly (index-free, exactly) before the
/// labels publish, the background thread eventually swaps hub labels in
/// through the snapshot cell, answers stay bit-identical across the
/// swap, and `labels.v2` + `gtree.v2` land on disk for the next start.
#[test]
fn background_build_serves_exactly_then_publishes_and_persists() {
    let graph = fannr::workload::synth::road_network(400, &mut fannr::workload::rng(23));
    let dir = std::env::temp_dir().join(format!("fannr-flatbg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    graph.write_flat(&dir.join("graph.v2")).unwrap();

    let opts = IndexDirOptions {
        background_build: true,
        workers: 2,
        gtree_params: GTreeParams {
            fanout: 2,
            leaf_cap: 16,
        },
        ..IndexDirOptions::default()
    };
    let engine = Engine::from_index_dir_with(&dir, &opts).unwrap();

    // First queries run while (in all likelihood) the labels are still
    // building; whether or not the swap has landed they must match a
    // plain in-memory engine — both sides are exact.
    let (p, qs) = workload(&graph, 9);
    let mem = Engine::new(&graph);
    let first: Vec<Option<FannAnswer>> = qs
        .iter()
        .map(|q| engine.query(&p, q, 0.5, Aggregate::Max).unwrap())
        .collect();
    for (q, want) in qs.iter().zip(&first) {
        assert_eq!(
            &mem.query(&p, q, 0.5, Aggregate::Max).unwrap(),
            want,
            "pre-publication answer diverged from the in-memory engine"
        );
    }

    // The background thread must publish labels through the snapshot
    // swap within the deadline (tiny graph; seconds at most).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !engine.has_labels() {
        assert!(
            std::time::Instant::now() < deadline,
            "background label build never published"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Same queries after the swap: bit-identical answers.
    for (q, want) in qs.iter().zip(&first) {
        assert_eq!(
            &engine.query(&p, q, 0.5, Aggregate::Max).unwrap(),
            want,
            "answers changed across the label publication swap"
        );
    }

    // Both artifacts persist (atomically) for the next cold start; the
    // G-tree may land shortly after the label swap, so poll for it too.
    while !dir.join("labels.v2").exists() || !dir.join("gtree.v2").exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "background build never persisted labels.v2 + gtree.v2"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let persisted = HubLabels::read_flat(&dir.join("labels.v2")).unwrap();
    assert_eq!(persisted.num_nodes(), graph.num_nodes());
    let persisted_tree = GTree::read_flat(&dir.join("gtree.v2")).unwrap();
    assert!(
        persisted_tree == GTree::build_with_params(&graph, opts.gtree_params),
        "persisted gtree.v2 must match a from-scratch build on graph.v2"
    );

    // A second cold start now attaches the persisted labels eagerly.
    let warm = Engine::from_index_dir(&dir).unwrap();
    assert!(warm.has_labels(), "persisted index must attach on restart");
    for (q, want) in qs.iter().zip(&first) {
        assert_eq!(
            &warm.query(&p, q, 0.5, Aggregate::Max).unwrap(),
            want,
            "restarted engine diverged"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// A missing or mangled index directory yields typed errors, and a label
/// file for a different graph is refused by the node-count check.
#[test]
fn from_index_dir_rejects_bad_directories() {
    let dir = std::env::temp_dir().join(format!("fannr-flatbad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Empty dir: no graph.v2.
    assert!(Engine::from_index_dir(&dir).is_err());

    // Corrupt graph.v2.
    std::fs::write(dir.join("graph.v2"), vec![0u8; 64]).unwrap();
    assert!(Engine::from_index_dir(&dir).is_err());

    // Valid graph, labels built for a different graph.
    let g1 = fannr::workload::synth::road_network(300, &mut fannr::workload::rng(1));
    let g2 = fannr::workload::synth::road_network(600, &mut fannr::workload::rng(2));
    g1.write_flat(&dir.join("graph.v2")).unwrap();
    HubLabels::build(&g2)
        .unwrap()
        .write_flat(&dir.join("labels.v2"))
        .unwrap();
    assert!(
        Engine::from_index_dir(&dir).is_err(),
        "mismatched labels must be refused"
    );

    // Matching labels: loads.
    HubLabels::build(&g1)
        .unwrap()
        .write_flat(&dir.join("labels.v2"))
        .unwrap();
    assert!(Engine::from_index_dir(&dir).unwrap().has_labels());

    // A labels.v2 from before the format bump (header version 2: u64
    // distances, no stored hub order) is refused by version, never
    // reinterpreted against ranks it was not built with.
    let mut old = std::fs::read(dir.join("labels.v2")).unwrap();
    old[12] = 2;
    std::fs::write(dir.join("labels.v2"), old).unwrap();
    assert!(matches!(
        Engine::from_index_dir(&dir),
        Err(fannr::roadnet::flat::FlatError::UnsupportedVersion(2))
    ));

    std::fs::remove_dir_all(&dir).ok();
}
