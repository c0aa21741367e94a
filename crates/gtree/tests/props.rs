//! Property tests: the G-tree is exact for distances and kNN on arbitrary
//! graphs and parameters.

use gtree::{GTree, GTreeParams, Occurrence};
use proptest::prelude::*;
use roadnet::dijkstra::dijkstra_all;
use roadnet::{Graph, GraphBuilder, INF};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..28, 0usize..28, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node((i % 6) as f64, (i / 6) as f64);
        }
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            b.add_edge(u, v, 1 + (next() % 20) as u32);
        }
        for _ in 0..extra {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, 1 + (next() % 20) as u32);
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn distances_exact(
        g in arb_graph(),
        fanout_pow in 1u32..3,
        leaf_cap in 2usize..8,
    ) {
        let t = GTree::build_with_params(&g, GTreeParams {
            fanout: 1 << fanout_pow,
            leaf_cap,
        });
        for s in 0..g.num_nodes() as u32 {
            let truth = dijkstra_all(&g, s);
            for v in 0..g.num_nodes() as u32 {
                let want = (truth[v as usize] != INF).then_some(truth[v as usize]);
                prop_assert_eq!(t.dist(&g, s, v), want, "pair {}->{}", s, v);
            }
        }
    }

    #[test]
    fn knn_distances_exact(g in arb_graph(), mask in any::<u64>(), k in 1usize..5) {
        let n = g.num_nodes();
        let objects: Vec<u32> = (0..n as u32).filter(|v| (mask >> (v % 60)) & 1 == 1).collect();
        prop_assume!(!objects.is_empty());
        let t = GTree::build_with_params(&g, GTreeParams { fanout: 2, leaf_cap: 4 });
        let occ = Occurrence::build(&t, &objects);
        for v in 0..n as u32 {
            let d = dijkstra_all(&g, v);
            let mut want: Vec<u64> = objects.iter().map(|&o| d[o as usize]).filter(|&x| x != INF).collect();
            want.sort_unstable();
            want.truncate(k);
            let got: Vec<u64> = t.knn(&g, &occ, v, k).into_iter().map(|(_, dd)| dd).collect();
            prop_assert_eq!(got, want);
        }
    }
}
