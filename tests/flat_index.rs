//! The flat v2 index contract, end to end: round-trips are bit-identical
//! (v2 bytes == in-memory build for graph and hub labels), an engine
//! cold-started from an index directory answers every strategy
//! bit-identically to an engine built in memory, an index directory is
//! `graph.v2` + `labels.v2` and nothing else (a `gtree.v2` left by older
//! builds is never read or written), malformed containers are
//! rejected with typed errors rather than panics, and labels built for
//! another graph are refused by the graph fingerprint.

use fannr::fann::engine::{Engine, IndexDirOptions};
use fannr::fann::{Aggregate, FannAnswer};
use fannr::hublabel::HubLabels;
use fannr::roadnet::flat::FlatError;
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

    /// The fingerprint survives the flat round trip and sees every
    /// weight and every coordinate: one heavier edge, or one node moved
    /// along one axis, gives another fingerprint; rebuilding the same
    /// graph from its edges gives the same one.
    #[test]
    fn fingerprint_changes_with_any_weight_or_coordinate(
        g in arb_graph(),
        pick in any::<u64>(),
        delta in 1u32..1000,
        axis in 0usize..2,
    ) {
        let fp = g.fingerprint();
        prop_assert_eq!(Graph::from_flat_bytes(&g.to_flat_bytes()).unwrap().fingerprint(), fp);
        let edges: Vec<_> = g.edges().collect();
        let (u, v, w) = edges[pick as usize % edges.len()];
        let heavier = g.with_patched_weights(&[(u, v, w + delta)]).unwrap();
        prop_assert_ne!(heavier.fingerprint(), fp);

        let moved = (pick >> 32) as usize % g.num_nodes();
        let rebuild = |shift: f64| {
            let mut b = GraphBuilder::new();
            for x in 0..g.num_nodes() {
                let c = g.coord(x as NodeId);
                let d = if x == moved { shift } else { 0.0 };
                let (dx, dy) = if axis == 0 { (d, 0.0) } else { (0.0, d) };
                b.add_node(c.x + dx, c.y + dy);
            }
            for &(u, v, w) in &edges {
                b.add_edge(u, v, w);
            }
            b.build()
        };
        prop_assert_eq!(rebuild(0.0).fingerprint(), fp);
        prop_assert_ne!(rebuild(delta as f64 / 8.0).fingerprint(), fp);
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
    let mem_labeled = Engine::new(&graph).with_prebuilt_labels(labels).unwrap();
    let disk_labeled = Engine::from_index_dir(&dir).unwrap();
    assert!(disk_labeled.has_labels(), "labels.v2 must attach");
    // Index-free engines: ExactMax (max), RListIne (sum).
    let disk_graph = Graph::read_flat(&dir.join("graph.v2")).unwrap();
    assert!(disk_graph == graph);
    let mem_plain = Engine::new(&graph);
    let disk_plain = Engine::new(&disk_graph);

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

    let dir = std::env::temp_dir().join(format!("fannr-flatmm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    graph.write_flat(&dir.join("graph.v2")).unwrap();
    labels.write_flat(&dir.join("labels.v2")).unwrap();

    let g_read = Graph::read_flat_with(&dir.join("graph.v2"), LoadMode::Read).unwrap();
    let g_mmap = Graph::read_flat_with(&dir.join("graph.v2"), LoadMode::Mmap).unwrap();
    assert!(g_mmap == g_read && g_mmap == graph, "graph: mmap != read");

    let l_read = HubLabels::read_flat_with(&dir.join("labels.v2"), LoadMode::Read).unwrap();
    let l_mmap = HubLabels::read_flat_with(&dir.join("labels.v2"), LoadMode::Mmap).unwrap();
    assert!(l_mmap == l_read && l_mmap == labels, "labels: mmap != read");

    // And the mapped engine answers bit-identically to the in-memory one.
    let (p, qs) = workload(&graph, 7);
    let mem = Engine::new(&graph).with_prebuilt_labels(labels).unwrap();
    let mapped = Engine::new(&g_mmap).with_prebuilt_labels(l_mmap).unwrap();
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
/// swap, and `labels.v2` — and nothing else — lands on disk for the next
/// start.
#[test]
fn background_build_serves_exactly_then_publishes_and_persists() {
    let graph = fannr::workload::synth::road_network(400, &mut fannr::workload::rng(23));
    let dir = std::env::temp_dir().join(format!("fannr-flatbg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    graph.write_flat(&dir.join("graph.v2")).unwrap();

    let opts = IndexDirOptions {
        background_build: true,
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

    // The labels persist (atomically, before the swap) for the next cold
    // start. Once the build thread has exited — a repair kick is then
    // accepted — the directory holds exactly the two artifacts.
    while !engine.repair_in_background() {
        assert!(
            std::time::Instant::now() < deadline,
            "background build thread never exited"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let persisted = HubLabels::read_flat(&dir.join("labels.v2")).unwrap();
    assert!(persisted == HubLabels::build(&graph).unwrap());
    assert_eq!(dir_listing(&dir), ["graph.v2", "labels.v2"]);

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

fn dir_listing(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// A `gtree.v2` written by a build that still produced one, for the
/// 8 x 6 grid of [`legacy_grid`] (fanout 2, leaf capacity 8).
const LEGACY_GTREE_V2: &[u8] = include_bytes!("data/legacy_gtree.v2");

fn legacy_grid() -> Graph {
    let (w, h) = (8u32, 6u32);
    let mut b = GraphBuilder::new();
    for y in 0..h {
        for x in 0..w {
            b.add_node(x as f64 * 10.0, y as f64 * 10.0);
        }
    }
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                b.add_edge(v, v + 1, 10 + (x + 2 * y) % 7);
            }
            if y + 1 < h {
                b.add_edge(v, v + w, 10 + (3 * x + y) % 5);
            }
        }
    }
    b.build()
}

/// An index directory in the older layout — `graph.v2`, `labels.v2` and a
/// leftover `gtree.v2`, intact or corrupt — still cold-starts with
/// `background_build` on: the leftover is neither read nor rewritten,
/// nothing builds in the background, and every answer is bit-identical
/// to an in-memory engine.
#[test]
fn leftover_gtree_v2_is_never_read() {
    let graph = legacy_grid();
    let labels = HubLabels::build(&graph).unwrap();
    let mem = Engine::new(&graph).with_labels();
    let opts = IndexDirOptions {
        background_build: true,
        ..IndexDirOptions::default()
    };
    let mut corrupt = LEGACY_GTREE_V2.to_vec();
    corrupt.truncate(corrupt.len() / 2);
    corrupt[40..80].fill(0xA5);
    let leftovers: [(&str, Vec<u8>); 3] = [
        ("intact", LEGACY_GTREE_V2.to_vec()),
        ("corrupt", corrupt),
        ("garbage", b"not a gtree".to_vec()),
    ];
    for (what, gtree_bytes) in leftovers {
        let dir = std::env::temp_dir().join(format!("fannr-flatold-{what}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        graph.write_flat(&dir.join("graph.v2")).unwrap();
        labels.write_flat(&dir.join("labels.v2")).unwrap();
        std::fs::write(dir.join("gtree.v2"), &gtree_bytes).unwrap();
        let labels_bytes = std::fs::read(dir.join("labels.v2")).unwrap();

        let engine = Engine::from_index_dir_with(&dir, &opts).unwrap();
        assert!(engine.has_labels(), "{what}: labels.v2 must attach");
        // No build thread is running: a repair kick is accepted at once.
        assert!(
            engine.repair_in_background(),
            "{what}: cold start left a background thread running"
        );
        for q in [vec![0u32, 47], vec![3, 20, 44], vec![9, 10, 11, 38]] {
            let p: Vec<NodeId> = (0..48).step_by(5).collect();
            for agg in [Aggregate::Max, Aggregate::Sum] {
                assert_eq!(
                    engine.query(&p, &q, 0.5, agg).unwrap(),
                    mem.query(&p, &q, 0.5, agg).unwrap(),
                    "{what}: answer diverged ({agg})"
                );
            }
        }
        assert_eq!(
            dir_listing(&dir),
            ["graph.v2", "gtree.v2", "labels.v2"],
            "{what}"
        );
        assert_eq!(std::fs::read(dir.join("gtree.v2")).unwrap(), gtree_bytes);
        assert_eq!(std::fs::read(dir.join("labels.v2")).unwrap(), labels_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A missing or mangled index directory yields typed errors, a label file
/// for a different graph is refused, and so is a file of an older format
/// version, with an error that names `build-index`.
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

    // A labels.v2 from before a format bump is refused by version, never
    // reinterpreted: version 2 (u64 distances, no stored hub order) and
    // version 3 (no graph fingerprint).
    let current = std::fs::read(dir.join("labels.v2")).unwrap();
    for version in [2u8, 3] {
        let mut old = current.clone();
        old[12] = version;
        std::fs::write(dir.join("labels.v2"), old).unwrap();
        match Engine::from_index_dir(&dir) {
            Err(e @ FlatError::UnsupportedVersion(v)) if v == version as u32 => {
                assert!(e.to_string().contains("build-index"), "{e}")
            }
            other => panic!("labels version {version}: got {:?}", other.err()),
        }
    }
    std::fs::write(dir.join("labels.v2"), current).unwrap();

    // So is a graph.v2 of version 2, from before the fingerprint.
    let mut old = std::fs::read(dir.join("graph.v2")).unwrap();
    old[12] = 2;
    std::fs::write(dir.join("graph.v2"), old).unwrap();
    match Engine::from_index_dir(&dir) {
        Err(e @ FlatError::UnsupportedVersion(2)) => {
            assert!(e.to_string().contains("build-index"), "{e}")
        }
        other => panic!("graph version 2: got {:?}", other.err()),
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The seed 7 and seed 8 networks at `--nodes 2000` both have 2028 nodes,
/// so a node-count check cannot tell their labels apart. Seed 8's
/// `labels.v2` beside seed 7's `graph.v2` is refused with a typed error
/// naming the file, never attached to answer for the wrong graph; seed
/// 7's own labels load.
#[test]
fn swapped_labels_are_refused_by_the_graph_fingerprint() {
    let g7 = fannr::workload::synth::road_network(2000, &mut fannr::workload::rng(7));
    let g8 = fannr::workload::synth::road_network(2000, &mut fannr::workload::rng(8));
    assert_eq!(g7.num_nodes(), g8.num_nodes());
    let dir = std::env::temp_dir().join(format!("fannr-flatswap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    g7.write_flat(&dir.join("graph.v2")).unwrap();
    let labels8 = HubLabels::build_parallel(&g8, 2).unwrap();
    labels8.write_flat(&dir.join("labels.v2")).unwrap();
    match Engine::from_index_dir(&dir) {
        Err(FlatError::GraphMismatch {
            artifact,
            built_for,
            graph,
        }) => {
            assert_eq!(artifact, "labels.v2");
            assert_eq!(built_for, g8.fingerprint());
            assert_eq!(graph, g7.fingerprint());
        }
        other => panic!("swapped labels: got {:?}", other.err()),
    }

    let labels7 = HubLabels::build_parallel(&g7, 2).unwrap();
    labels7.write_flat(&dir.join("labels.v2")).unwrap();
    assert!(Engine::from_index_dir(&dir).unwrap().has_labels());
    std::fs::remove_dir_all(&dir).ok();
}

/// The same seed 7/8 pair through the in-memory entry point: seed 8's
/// labels are refused by an engine over seed 7's graph, with both
/// fingerprints in the error.
#[test]
fn prebuilt_labels_for_another_graph_are_refused() {
    let g7 = fannr::workload::synth::road_network(2000, &mut fannr::workload::rng(7));
    let g8 = fannr::workload::synth::road_network(2000, &mut fannr::workload::rng(8));
    assert_eq!(g7.num_nodes(), g8.num_nodes());
    let labels8 = HubLabels::build_parallel(&g8, 2).unwrap();
    match Engine::new(&g7).with_prebuilt_labels(labels8) {
        Err(FlatError::GraphMismatch {
            artifact,
            built_for,
            graph,
        }) => {
            assert_eq!(artifact, "labels");
            assert_eq!(built_for, g8.fingerprint());
            assert_eq!(graph, g7.fingerprint());
        }
        other => panic!("labels for seed 8 on seed 7: got {:?}", other.err()),
    }
}

/// Labels built in the background after a graph-only cold start record
/// `graph.v2`'s fingerprint even when a live update has moved the served
/// graph on, so the next cold start attaches them.
#[test]
fn background_labels_match_graph_v2_after_a_live_update() {
    let graph = fannr::workload::synth::road_network(400, &mut fannr::workload::rng(29));
    let dir = std::env::temp_dir().join(format!("fannr-flatupd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    graph.write_flat(&dir.join("graph.v2")).unwrap();
    let opts = IndexDirOptions {
        background_build: true,
        ..IndexDirOptions::default()
    };
    let engine = Engine::from_index_dir_with(&dir, &opts).unwrap();
    let (u, v, w) = graph.edges().next().unwrap();
    engine
        .apply_updates(&[fannr::roadnet::WeightUpdate { u, v, w: w * 3 }])
        .unwrap();
    assert_ne!(engine.snapshot().graph().fingerprint(), graph.fingerprint());

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !dir.join("labels.v2").exists() {
        assert!(
            std::time::Instant::now() < deadline,
            "background build never persisted"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let persisted = HubLabels::read_flat(&dir.join("labels.v2")).unwrap();
    assert_eq!(persisted.graph_fingerprint(), graph.fingerprint());
    assert!(Engine::from_index_dir(&dir).unwrap().has_labels());
    std::fs::remove_dir_all(&dir).ok();
}
