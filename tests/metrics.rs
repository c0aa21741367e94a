//! Observability-layer integration tests.
//!
//! Two invariants protect the tentpole design:
//! * **Transparency** — `Engine::query_traced` returns answers
//!   bit-identical to `Engine::query`; tracing observes the search, it
//!   never steers it.
//! * **Sanity of the counters** — the numbers move the way the algorithms
//!   say they should: INE settles no *more* nodes when `Q` grows at fixed
//!   `k` (more targets end the expansion sooner), and every strategy
//!   reports non-zero work on non-trivial queries.

use fannr::fann::engine::Engine;
use fannr::fann::gphi::ine::InePhi;
use fannr::fann::gphi::GPhi;
use fannr::fann::metrics::StatsSink;
use fannr::fann::Aggregate;
use fannr::roadnet::{CancelToken, Graph, GraphBuilder};
use proptest::prelude::*;

/// A random connected graph: spanning tree + `extra` random edges, with
/// weights dominating Euclidean lengths (admissible for the IER bounds).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..28, 0usize..20, any::<u64>()).prop_map(|(n, extra, seed)| {
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

/// Graph plus non-empty P, Q subsets and a phi in (0, 1].
fn arb_instance() -> impl Strategy<Value = (Graph, Vec<u32>, Vec<u32>, f64)> {
    (arb_graph(), any::<u64>(), 1usize..101).prop_map(|(g, seed, phi_pct)| {
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

    /// `query_traced` is observationally identical to `query` — same
    /// Option-ness, same `p*`, `d*`, and subset — for every strategy the
    /// engine can select, and it records work whenever it answers.
    #[test]
    fn traced_equals_untraced((g, p, q, phi) in arb_instance()) {
        let engines = [Engine::new(&g), Engine::new(&g).with_labels()];
        for engine in &engines {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                let plain = engine.query(&p, &q, phi, agg).expect("valid instance");
                let (traced, stats) =
                    engine.query_traced(&p, &q, phi, agg).expect("valid instance");
                prop_assert_eq!(
                    &plain, &traced,
                    "strategy {}", engine.strategy_for(agg)
                );
                if plain.is_some() {
                    prop_assert!(
                        !stats.is_empty(),
                        "strategy {} answered without recording work",
                        engine.strategy_for(agg)
                    );
                }
            }
        }
    }

    /// A session traces every query it answers and changes nothing
    /// either: over a stream of both aggregates, with and without labels,
    /// its answers equal the untraced `query` loop's, and it records work
    /// whenever it answers.
    #[test]
    fn traced_batch_equals_untraced_batch((g, p, q, phi) in arb_instance()) {
        let token = CancelToken::new();
        for engine in [Engine::new(&g), Engine::new(&g).with_labels()] {
            let mut session = engine.session(&token);
            for agg in [Aggregate::Max, Aggregate::Sum, Aggregate::Max] {
                let plain = engine.query(&p, &q, phi, agg).expect("valid instance");
                let (traced, stats, ..) =
                    session.query(&p, &q, phi, agg).expect("valid instance");
                prop_assert_eq!(&plain, &traced, "strategy {}", engine.strategy_for(agg));
                if plain.is_some() {
                    prop_assert!(!stats.is_empty(), "{} recorded no work", engine.strategy_for(agg));
                }
            }
        }
    }
}

/// The same on a road network and a long stream of distinct queries, so
/// the session's recycled search state (scratch pool, INE buffers, label
/// table) carries over between queries: traced ≡ untraced, and every
/// query recorded the work of the strategy that answered it.
#[test]
fn traced_batch_equals_untraced_on_a_road_network_stream() {
    let mut rng = fannr::workload::rng(0x51ED);
    let g = fannr::workload::synth::road_network(3_000, &mut rng);
    let stream: Vec<_> = (0..60)
        .map(|i| {
            let p = fannr::workload::points::uniform_data_points(&g, 0.01, &mut rng);
            let q = fannr::workload::points::uniform_query_points(&g, 6, 0.2, &mut rng);
            (p, q, [Aggregate::Max, Aggregate::Sum][i % 2])
        })
        .collect();
    let token = CancelToken::new();
    for engine in [Engine::new(&g), Engine::new(&g).with_labels()] {
        let mut session = engine.session(&token);
        for (i, (p, q, agg)) in stream.iter().enumerate() {
            let plain = engine.query(p, q, 0.5, *agg).unwrap();
            let (traced, stats, _, _, strategy) = session.query(p, q, 0.5, *agg).unwrap();
            assert_eq!(plain, traced, "query {i}, {strategy}");
            assert!(!stats.is_empty(), "query {i}: {strategy} recorded no work");
        }
    }
}

/// At fixed subset size `k`, growing `Q` can only *shorten* an INE
/// expansion: the search stops once `k` query points are settled, and a
/// superset of targets is hit no later. So `nodes_settled` is weakly
/// decreasing in `|Q|` — the counter moves the way Algorithm INE says.
#[test]
fn ine_settles_no_more_nodes_as_q_grows() {
    let g = {
        let mut rng = fannr::workload::rng(0xC0FFEE);
        fannr::workload::synth::road_network(800, &mut rng)
    };
    let q_full: Vec<u32> = (0..8)
        .map(|i| (i * 97 + 13) % g.num_nodes() as u32)
        .collect();
    let k = 2usize;
    for p in [0u32, 101, 355, 512] {
        let mut prev = u64::MAX;
        for take in 2..=q_full.len() {
            let q = &q_full[..take];
            let sink = StatsSink::new();
            let ine = InePhi::with_recorder(&g, q, &sink);
            let r = ine.eval(p, k, Aggregate::Sum);
            let settled = sink.snapshot().nodes_settled;
            if r.is_some() {
                assert!(
                    settled <= prev,
                    "p={p}: settled {settled} with |Q|={take} but {prev} with |Q|={}",
                    take - 1
                );
                prev = settled;
            }
        }
    }
}
