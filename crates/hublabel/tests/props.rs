//! Property tests: hub labels are exact, survive persistence, and repair
//! to exactly what a rebuild with the index's own hub order produces.

use hublabel::{default_order, HubLabels, SourceTable};
use proptest::prelude::*;
use roadnet::dijkstra::dijkstra_all;
use roadnet::{Graph, GraphBuilder, NodeId, INF};

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..26, 0usize..26, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut next = xorshift(seed);
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(i as f64, (i % 4) as f64);
        }
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            b.add_edge(u, v, 1 + (next() % 30) as u32);
        }
        for _ in 0..extra {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, 1 + (next() % 30) as u32);
            }
        }
        b.build()
    })
}

/// Up to six existing edges re-weighted, increases and decreases mixed
/// (old weights are 1..=30, new ones 1..=60).
fn update_batch(g: &Graph, seed: u64) -> Vec<(NodeId, NodeId, u32)> {
    let mut next = xorshift(seed);
    let edges: Vec<_> = g.edges().collect();
    (0..1 + next() % 6)
        .map(|_| {
            let (u, v, _) = edges[(next() % edges.len() as u64) as usize];
            (u, v, 1 + (next() % 60) as u32)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both kernels ≡ Dijkstra on every pair. The table sees the pairs in
    /// an order whose source changes mid-stream (`s, s, s', s, …`), so a
    /// source switch that left a stale rank behind would show.
    #[test]
    fn labels_exact(g in arb_graph(), seed in any::<u64>()) {
        let hl = HubLabels::build(&g).unwrap();
        let n = g.num_nodes() as u32;
        let truth: Vec<Vec<_>> = (0..n).map(|s| dijkstra_all(&g, s)).collect();
        let want = |s: u32, t: u32| {
            let d = truth[s as usize][t as usize];
            (d != INF).then_some(d)
        };
        let mut next = xorshift(seed);
        let mut table = SourceTable::new();
        for s in 0..n {
            for t in 0..n {
                prop_assert_eq!(hl.distance(s, t), want(s, t));
                prop_assert_eq!(hl.distance_from(&mut table, s, t), want(s, t));
                if next().is_multiple_of(3) {
                    let other = (next() % n as u64) as u32;
                    prop_assert_eq!(hl.distance_from(&mut table, other, t), want(other, t));
                }
            }
        }
    }

    #[test]
    fn persistence_roundtrip(g in arb_graph()) {
        let hl = HubLabels::build(&g).unwrap();
        let hl2 = HubLabels::from_flat_bytes(&hl.to_flat_bytes()).unwrap();
        prop_assert!(hl2 == hl);
        for s in 0..g.num_nodes() as u32 {
            for t in 0..g.num_nodes() as u32 {
                prop_assert_eq!(hl2.distance(s, t), hl.distance(s, t));
            }
        }
    }

    #[test]
    fn limit_zero_never_builds_nonempty(g in arb_graph()) {
        // Any graph with at least one node labels itself at least once.
        prop_assert!(HubLabels::build_with_limit(&g, 0).is_err());
    }

    /// Batch build ≡ sequential build, whatever the worker count.
    #[test]
    fn batch_build_matches_sequential(g in arb_graph()) {
        let seq = HubLabels::build(&g).unwrap();
        for workers in [1, 2, 4] {
            prop_assert!(HubLabels::build_parallel(&g, workers).unwrap() == seq);
        }
    }

    /// `repair_scoped` ≡ a rebuild on the patched graph with the order the
    /// index carries — for the default order and for a random permutation
    /// (which fails if anything re-derives an order), straight from the
    /// build and after a save → load round trip.
    #[test]
    fn scoped_repair_matches_rebuild_with_the_stored_order(
        g in arb_graph(),
        seed in any::<u64>(),
        shuffled in any::<bool>(),
    ) {
        let mut order = default_order(&g);
        if shuffled {
            let mut next = xorshift(seed ^ 0x5eed);
            for i in (1..order.len()).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
        }
        let built = HubLabels::build_with_order(&g, &order).unwrap();
        let patches = update_batch(&g, seed);
        let patched = g.with_patched_weights(&patches).unwrap();
        let touched: Vec<(NodeId, NodeId)> = patches.iter().map(|&(u, v, _)| (u, v)).collect();
        let want = HubLabels::build_with_order(&patched, &order).unwrap();
        let loaded = HubLabels::from_flat_bytes(&built.to_flat_bytes()).unwrap();
        for start in [&built, &loaded] {
            let (repaired, _) = start.repair_scoped(&patched, &touched).unwrap();
            prop_assert!(repaired == want);
            prop_assert_eq!(repaired.order(), &order[..]);
        }
    }
}
