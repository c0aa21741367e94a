//! Property-based tests (proptest) over random road networks.
//!
//! The graph strategy draws a random spanning tree plus extra edges, with
//! coordinates on a plane and weights that dominate Euclidean lengths
//! (so every Euclidean-bound-based component is exercised honestly).

use fannr::fann::algo::ier::build_p_rtree;
use fannr::fann::algo::topk::{exact_max_topk, gd_topk, ier_topk, rlist_topk};
use fannr::fann::algo::{apx_sum, brute_force, exact_max, gd, ier_knn, r_list};
use fannr::fann::gphi::ine::InePhi;
use fannr::fann::gphi::GPhi;
use fannr::fann::{Aggregate, FannQuery};
use fannr::gtree::{GTree, GTreeParams, Occurrence};
use fannr::hublabel::HubLabels;
use fannr::roadnet::dijkstra::{dijkstra_all, dijkstra_pair};
use fannr::roadnet::{astar_pair, Graph, GraphBuilder, LowerBound, INF};
use proptest::prelude::*;

/// A random connected graph: spanning tree + `extra` random edges.
/// Weights are `ceil(euclid) + jitter`, hence admissible for A*/IER.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..28, 0usize..20, any::<u64>()).prop_map(|(n, extra, seed)| {
        // Simple xorshift so the strategy stays pure.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            let x = (next() % 1000) as f64;
            let y = (next() % 1000) as f64;
            b.add_node(x, y);
        }
        let euclid = |b: &GraphBuilder, u: u32, v: u32| {
            let (ux, uy) = b.coord_of(u);
            let (vx, vy) = b.coord_of(v);
            ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt()
        };
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            let w = euclid(&b, u, v).ceil() as u32 + (next() % 50) as u32;
            b.add_edge(u, v, w.max(1));
        }
        for _ in 0..extra {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                let w = euclid(&b, u, v).ceil() as u32 + (next() % 50) as u32;
                b.add_edge(u, v, w.max(1));
            }
        }
        b.build()
    })
}

/// Graph plus non-empty P, Q subsets and a phi.
fn arb_instance() -> impl Strategy<Value = (Graph, Vec<u32>, Vec<u32>, f64)> {
    (arb_graph(), any::<u64>(), 1usize..100).prop_map(|(g, seed, phi_pct)| {
        let n = g.num_nodes();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        fn pick(next: &mut dyn FnMut() -> u64, n: usize, count: usize) -> Vec<u32> {
            let mut v: Vec<u32> = (0..count).map(|_| (next() % n as u64) as u32).collect();
            v.sort_unstable();
            v.dedup();
            v
        }
        let pc = 1 + (next() % 8) as usize;
        let p = pick(&mut next, n, pc);
        let qc = 1 + (next() % 8) as usize;
        let q = pick(&mut next, n, qc);
        (g, p, q, (phi_pct as f64) / 100.0)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All exact point-to-point oracles agree everywhere.
    #[test]
    fn oracles_agree(g in arb_graph()) {
        let lb = LowerBound::for_graph(&g);
        let hl = HubLabels::build(&g).unwrap();
        let gt = GTree::build_with_params(&g, GTreeParams { fanout: 2, leaf_cap: 4 });
        for s in 0..g.num_nodes() as u32 {
            let truth = dijkstra_all(&g, s);
            for t in 0..g.num_nodes() as u32 {
                let want = (truth[t as usize] != INF).then_some(truth[t as usize]);
                prop_assert_eq!(astar_pair(&g, &lb, s, t), want);
                prop_assert_eq!(hl.distance(s, t), want);
                prop_assert_eq!(gt.dist(&g, s, t), want);
            }
        }
    }

    /// Network distance satisfies the triangle inequality and symmetry.
    #[test]
    fn metric_axioms(g in arb_graph()) {
        let n = g.num_nodes() as u32;
        let d: Vec<Vec<u64>> = (0..n).map(|s| dijkstra_all(&g, s)).collect();
        for a in 0..n as usize {
            prop_assert_eq!(d[a][a], 0);
            for b in 0..n as usize {
                prop_assert_eq!(d[a][b], d[b][a], "symmetry");
                for c in 0..n as usize {
                    if d[a][b] != INF && d[b][c] != INF {
                        prop_assert!(d[a][c] <= d[a][b] + d[b][c], "triangle");
                    }
                }
            }
        }
    }

    /// The Euclidean lower bound never exceeds the network distance.
    #[test]
    fn lower_bound_admissible(g in arb_graph()) {
        let lb = LowerBound::for_graph(&g);
        for s in 0..g.num_nodes() as u32 {
            let d = dijkstra_all(&g, s);
            for t in 0..g.num_nodes() as u32 {
                if d[t as usize] != INF {
                    prop_assert!(lb.bound(&g, s, t) <= d[t as usize]);
                }
            }
        }
    }

    /// Every exact FANN_R algorithm matches brute force, for both
    /// aggregates, on arbitrary instances (including disconnected ones).
    #[test]
    fn fann_algorithms_match_brute_force((g, p, q, phi) in arb_instance()) {
        let rtree = build_p_rtree(&g, &p);
        for agg in [Aggregate::Sum, Aggregate::Max] {
            let query = FannQuery::new(&p, &q, phi, agg);
            let truth = brute_force(&g, &query);
            let ine = InePhi::new(&g, &q);
            let dist = |a: Option<fannr::fann::FannAnswer>| a.map(|x| x.dist);
            prop_assert_eq!(dist(gd(&query, &ine)), truth.as_ref().map(|t| t.dist));
            prop_assert_eq!(
                dist(r_list(&g, &query, &ine)),
                truth.as_ref().map(|t| t.dist)
            );
            prop_assert_eq!(
                dist(ier_knn(&g, &query, &rtree, &ine)),
                truth.as_ref().map(|t| t.dist)
            );
            if agg == Aggregate::Max {
                prop_assert_eq!(
                    dist(exact_max(&g, &query)),
                    truth.as_ref().map(|t| t.dist)
                );
            }
        }
    }

    /// APX-sum respects Theorem 1 (ratio <= 3) whenever both it and the
    /// optimum exist, and never beats the optimum.
    #[test]
    fn apx_sum_three_approx((g, p, q, phi) in arb_instance()) {
        let query = FannQuery::new(&p, &q, phi, Aggregate::Sum);
        let ine = InePhi::new(&g, &q);
        if let Some(truth) = brute_force(&g, &query) {
            if let Some(a) = apx_sum(&g, &query, &ine) {
                prop_assert!(a.dist >= truth.dist);
                prop_assert!(a.dist <= 3 * truth.dist.max(1));
            }
        }
    }

    /// d* is monotone non-decreasing in phi (more required neighbors can
    /// only push the aggregate up).
    #[test]
    fn monotone_in_phi((g, p, q, _phi) in arb_instance()) {
        for agg in [Aggregate::Sum, Aggregate::Max] {
            let mut prev: Option<u64> = None;
            for phi in [0.2, 0.4, 0.6, 0.8, 1.0] {
                let query = FannQuery::new(&p, &q, phi, agg);
                match brute_force(&g, &query) {
                    Some(a) => {
                        if let Some(pv) = prev {
                            prop_assert!(a.dist >= pv, "d* must grow with phi");
                        }
                        prev = Some(a.dist);
                    }
                    None => {
                        // Once infeasible, larger phi stays infeasible.
                        let later = FannQuery::new(&p, &q, 1.0, agg);
                        prop_assert!(brute_force(&g, &later).is_none());
                        break;
                    }
                }
            }
        }
    }

    /// The answer is invariant under permutations of P and Q.
    #[test]
    fn permutation_invariant((g, p, q, phi) in arb_instance()) {
        let mut p2 = p.clone();
        let mut q2 = q.clone();
        p2.reverse();
        q2.reverse();
        for agg in [Aggregate::Sum, Aggregate::Max] {
            let a = brute_force(&g, &FannQuery::new(&p, &q, phi, agg));
            let b = brute_force(&g, &FannQuery::new(&p2, &q2, phi, agg));
            prop_assert_eq!(a.map(|x| x.dist), b.map(|x| x.dist));
        }
    }

    /// G-tree kNN over arbitrary object sets equals sort-by-Dijkstra.
    #[test]
    fn gtree_knn_matches_naive(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let objects: Vec<u32> = (0..n as u32).filter(|v| (seed >> (v % 48)) & 1 == 1).collect();
        prop_assume!(!objects.is_empty());
        let t = GTree::build_with_params(&g, GTreeParams { fanout: 2, leaf_cap: 4 });
        let occ = Occurrence::build(&t, &objects);
        for v in 0..n as u32 {
            let d = dijkstra_all(&g, v);
            let mut want: Vec<u64> = objects
                .iter()
                .map(|&o| d[o as usize])
                .filter(|&x| x != INF)
                .collect();
            want.sort_unstable();
            want.truncate(3);
            let got: Vec<u64> = t.knn(&g, &occ, v, 3).into_iter().map(|(_, d)| d).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// k-FANN_R: all four adaptations return identical distance vectors.
    #[test]
    fn topk_consistent((g, p, q, phi) in arb_instance(), k_out in 1usize..6) {
        let rtree = build_p_rtree(&g, &p);
        let query = FannQuery::new(&p, &q, phi, Aggregate::Max);
        let ine = InePhi::new(&g, &q);
        let d = |v: Vec<(u32, u64)>| -> Vec<u64> { v.into_iter().map(|(_, d)| d).collect() };
        let a = d(gd_topk(&query, &ine, k_out));
        let b = d(rlist_topk(&g, &query, &ine, k_out));
        let c = d(ier_topk(&g, &query, &rtree, &ine, k_out));
        let e = d(exact_max_topk(&g, &query, k_out));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(&a, &e);
    }

    /// g_phi result is internally consistent: subset size k, distances
    /// sorted, aggregate matches the subset.
    #[test]
    fn gphi_result_consistent((g, _p, q, phi) in arb_instance()) {
        let ine = InePhi::new(&g, &q);
        let k = ((phi * q.len() as f64).ceil() as usize).clamp(1, q.len());
        for v in 0..g.num_nodes() as u32 {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                if let Some(r) = ine.eval(v, k, agg) {
                    prop_assert_eq!(r.subset.len(), k);
                    prop_assert!(r.subset.windows(2).all(|w| w[0].1 <= w[1].1));
                    let ds: Vec<u64> = r.subset.iter().map(|&(_, d)| d).collect();
                    prop_assert_eq!(r.dist, agg.of_sorted(&ds));
                    // Every subset member is actually reachable at the
                    // claimed distance.
                    let truth = dijkstra_all(&g, v);
                    for &(node, dist) in &r.subset {
                        prop_assert_eq!(truth[node as usize], dist);
                    }
                }
            }
        }
    }

    /// Pairwise Dijkstra with early exit equals full Dijkstra.
    #[test]
    fn pair_equals_all(g in arb_graph()) {
        for s in 0..g.num_nodes() as u32 {
            let all = dijkstra_all(&g, s);
            for t in 0..g.num_nodes() as u32 {
                let want = (all[t as usize] != INF).then_some(all[t as usize]);
                prop_assert_eq!(dijkstra_pair(&g, s, t), want);
            }
        }
    }
}

/// Graphs whose weights are *uncorrelated* with geometry (admissible scale
/// far below 1): the Euclidean machinery (A*, IER, IER²) must stay exact.
fn arb_skewed_graph() -> impl Strategy<Value = Graph> {
    (4usize..22, 0usize..18, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            let x = (next() % 10_000) as f64;
            let y = (next() % 10_000) as f64;
            b.add_node(x, y);
        }
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            b.add_edge(u, v, 1 + (next() % 9) as u32); // tiny weights, huge euclid
        }
        for _ in 0..extra {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            if u != v {
                b.add_edge(u, v, 1 + (next() % 9) as u32);
            }
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A* stays exact when the admissible scale is tiny.
    #[test]
    fn astar_exact_on_skewed_weights(g in arb_skewed_graph()) {
        let lb = fannr::roadnet::LowerBound::for_graph(&g);
        prop_assert!(lb.scale() < 1.0 || g.num_edges() == 0);
        for s in 0..g.num_nodes() as u32 {
            let truth = dijkstra_all(&g, s);
            for t in 0..g.num_nodes() as u32 {
                let want = (truth[t as usize] != INF).then_some(truth[t as usize]);
                prop_assert_eq!(fannr::roadnet::astar_pair(&g, &lb, s, t), want);
            }
        }
    }

    /// IER-kNN and the IER² backend stay exact under a tiny scale — the
    /// Euclidean bounds shrink towards zero but never over-prune.
    #[test]
    fn ier_exact_on_skewed_weights(g in arb_skewed_graph(), seed in any::<u64>()) {
        let n = g.num_nodes() as u32;
        let p: Vec<u32> = (0..n).filter(|v| (seed >> (v % 50)) & 1 == 1).collect();
        let q: Vec<u32> = (0..n).filter(|v| (seed >> ((v + 17) % 50)) & 1 == 0).collect();
        prop_assume!(!p.is_empty() && !q.is_empty());
        let rtree = build_p_rtree(&g, &p);
        for agg in [Aggregate::Sum, Aggregate::Max] {
            let query = FannQuery::new(&p, &q, 0.5, agg);
            let truth = brute_force(&g, &query);
            let ine = InePhi::new(&g, &q);
            let got = ier_knn(&g, &query, &rtree, &ine);
            prop_assert_eq!(got.map(|a| a.dist), truth.as_ref().map(|t| t.dist));
            // IER² over Q with the A* oracle.
            let ier2 = fannr::fann::gphi::ier2::IerPhi::new(
                &g,
                fannr::fann::gphi::oracle::AStarOracle::new(&g),
                &q,
            );
            let got2 = gd(&query, &ier2);
            prop_assert_eq!(got2.map(|a| a.dist), truth.map(|t| t.dist));
        }
    }
}
