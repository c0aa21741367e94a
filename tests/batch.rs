//! Recycled-state integration tests: answering a stream through
//! long-lived per-thread state must be observationally identical to the
//! per-query path.
//!
//! Three angles:
//! * cross-validation — one [`Engine::session`] per thread, on 1, 2 and 8
//!   threads, answers a mixed stream bit-identically to a sequential
//!   [`Engine::query`] loop for every strategy, aggregate, and phi, and a
//!   bad query mid-stream errors on its own;
//! * scratch-reuse soundness (property) — one long-lived backend answering
//!   `q_1..q_n` sequentially equals `n` fresh backends;
//! * set semantics — duplicate ids answer like the deduplicated stream.

use fannr::fann::engine::{Engine, Strategy as EngineStrategy};
use fannr::fann::gphi::ine::InePhi;
use fannr::fann::gphi::oracle::{AStarOracle, DijkstraOracle, DistanceOracle};
use fannr::fann::gphi::{GPhi, ReusableGPhi};
use fannr::fann::{Aggregate, FannAnswer, QueryError};
use fannr::roadnet::dijkstra::dijkstra_pair;
use fannr::roadnet::{CancelToken, Graph, NodeId};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::Rng;

/// One query of a stream: `(P, Q, phi, g)`.
#[derive(Clone)]
struct Case {
    p: Vec<NodeId>,
    q: Vec<NodeId>,
    phi: f64,
    agg: Aggregate,
}

impl Case {
    fn new(p: Vec<NodeId>, q: Vec<NodeId>, phi: f64, agg: Aggregate) -> Self {
        Case { p, q, phi, agg }
    }
}

/// A connected-ish synthetic road network plus a deterministic mixed query
/// stream over it (both aggregates, several phi values, varying P/Q).
fn workload(seed: u64, nodes: usize, queries: usize) -> (Graph, Vec<Case>) {
    let mut rng = fannr::workload::rng(seed);
    let g = fannr::workload::synth::road_network(nodes, &mut rng);
    let all_p = fannr::workload::points::uniform_data_points(&g, 0.1, &mut rng);
    let stream = (0..queries)
        .map(|i| {
            let mut p = all_p.clone();
            p.shuffle(&mut rng);
            p.truncate(4 + i % 5);
            let q = fannr::workload::points::uniform_query_points(&g, 3 + i % 4, 0.5, &mut rng);
            let phi = [0.25, 0.5, 0.75, 1.0][i % 4];
            let agg = if i % 2 == 0 {
                Aggregate::Max
            } else {
                Aggregate::Sum
            };
            Case::new(p, q, phi, agg)
        })
        .collect();
    (g, stream)
}

/// One answered query: the result and, when it answered, the strategy.
type Served = (
    Result<Option<FannAnswer>, QueryError>,
    Option<EngineStrategy>,
);

/// Answer `stream` on `threads` threads, each through one session of its
/// own dealt every `threads`-th query, so every session runs on state left
/// behind by queries with another `|Q|`, aggregate, and phi. Results come
/// back in stream order.
fn on_sessions(engine: &Engine, stream: &[Case], threads: usize) -> Vec<Served> {
    let mut out: Vec<(usize, Served)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let token = CancelToken::new();
                    let mut session = engine.session(&token);
                    (t..stream.len())
                        .step_by(threads)
                        .map(|i| {
                            let b = &stream[i];
                            let r = session.query(&b.p, &b.q, b.phi, b.agg);
                            let strategy = r.as_ref().ok().map(|a| a.4);
                            (i, (r.map(|a| a.0), strategy))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, served)| served).collect()
}

/// Sessions must be indistinguishable from a `query` loop — same `d*`,
/// same `p*`, same subset — under every strategy the engine selects
/// (Exact-max and R-List/INE without labels, IER-kNN/labels with them).
#[test]
fn batch_cross_validates_sequential_for_every_strategy() {
    let (g, stream) = workload(11, 500, 24);
    let cases = [
        (
            Engine::new(&g),
            vec![EngineStrategy::ExactMax, EngineStrategy::RListIne],
        ),
        (
            Engine::new(&g).with_labels(),
            vec![EngineStrategy::IerKnnLabels],
        ),
    ];
    for (engine, strategies) in &cases {
        let sequential: Vec<_> = stream
            .iter()
            .map(|b| engine.query(&b.p, &b.q, b.phi, b.agg).unwrap())
            .collect();
        for threads in [1usize, 2, 8] {
            let served = on_sessions(engine, &stream, threads);
            assert_eq!(served.len(), sequential.len());
            let mut seen = Vec::new();
            for (i, ((got, strategy), want)) in served.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    got.as_ref().unwrap(),
                    want,
                    "query {i} diverged (threads={threads}, labels={}, agg={})",
                    engine.has_labels(),
                    stream[i].agg,
                );
                let strategy = strategy.expect("answered");
                if !seen.contains(&strategy) {
                    seen.push(strategy);
                }
            }
            assert_eq!(&seen, strategies, "threads={threads}");
        }
    }
}

/// Thread counts must not change answers, only wall-clock: 1, 2 and 8
/// threads of sessions produce the same result vector, with and without
/// labels.
#[test]
fn worker_counts_agree() {
    let (g, stream) = workload(12, 400, 30);
    for engine in [Engine::new(&g), Engine::new(&g).with_labels()] {
        let baseline = on_sessions(&engine, &stream, 1);
        for threads in [2usize, 8] {
            assert_eq!(
                on_sessions(&engine, &stream, threads),
                baseline,
                "threads={threads}, labels={}",
                engine.has_labels()
            );
        }
    }
}

/// Invalid queries fail individually without poisoning the rest of the
/// stream or the session's recycled state: every session that met a bad
/// query goes on answering like [`Engine::query`].
#[test]
fn per_query_errors_leave_state_clean() {
    let (g, mut stream) = workload(14, 300, 12);
    stream.insert(3, Case::new(vec![u32::MAX], vec![0], 0.5, Aggregate::Max));
    stream.insert(4, Case::new(vec![0], vec![1], 2.0, Aggregate::Sum));
    for engine in [Engine::new(&g), Engine::new(&g).with_labels()] {
        for threads in [1usize, 2, 8] {
            let served = on_sessions(&engine, &stream, threads);
            assert!(matches!(
                served[3].0,
                Err(QueryError::NodeOutOfRange(u32::MAX))
            ));
            assert!(matches!(served[4].0, Err(QueryError::PhiOutOfRange)));
            for (i, (got, _)) in served
                .iter()
                .enumerate()
                .filter(|&(i, _)| !(3..=4).contains(&i))
            {
                let b = &stream[i];
                let want = engine.query(&b.p, &b.q, b.phi, b.agg).unwrap();
                assert_eq!(
                    got.as_ref().unwrap(),
                    &want,
                    "query {i} of a stream with errors (threads={threads}, labels={})",
                    engine.has_labels()
                );
            }
        }
    }
}

/// Duplicate ids in `P`/`Q` are set semantics everywhere: a dup-laden
/// stream answers exactly like its deduplicated twin (first occurrence
/// kept), with and without labels. This pins the contract documented on
/// [`fannr::fann::FannQuery`] — `phi` applies to the *set* cardinality of
/// `Q`, never the multiset length.
#[test]
fn duplicate_ids_cross_validate_against_deduped_stream() {
    let (g, stream) = workload(15, 400, 12);
    // Duplicate some of P and Q in every query (keeping first-occurrence
    // order so the deduped twin is exactly the original).
    let dup_stream: Vec<Case> = stream
        .iter()
        .map(|b| {
            let mut p = b.p.clone();
            p.insert(1, b.p[0]);
            p.push(*b.p.last().expect("non-empty P"));
            let mut q = b.q.clone();
            q.extend_from_slice(&b.q);
            Case::new(p, q, b.phi, b.agg)
        })
        .collect();
    for engine in [Engine::new(&g), Engine::new(&g).with_labels()] {
        for (i, (dup, clean)) in dup_stream.iter().zip(&stream).enumerate() {
            let got = engine.query(&dup.p, &dup.q, dup.phi, dup.agg).unwrap();
            let want = engine
                .query(&clean.p, &clean.q, clean.phi, clean.agg)
                .unwrap();
            assert_eq!(got, want, "query {i}, labels={}", engine.has_labels());
        }
    }
}

/// Draw a small connected network and a sequence of eval requests on it.
fn arb_eval_sequence() -> impl Strategy<Value = (Graph, Vec<(Vec<NodeId>, NodeId, usize)>)> {
    (any::<u64>(), 20usize..80, 2usize..10).prop_map(|(seed, nodes, evals)| {
        let mut rng = fannr::workload::rng(seed);
        let g = fannr::workload::synth::road_network(nodes, &mut rng);
        let n = g.num_nodes() as u32;
        let seq = (0..evals)
            .map(|_| {
                let qlen = rng.gen_range(1usize..6);
                let mut q: Vec<NodeId> = (0..qlen).map(|_| rng.gen_range(0..n)).collect();
                q.sort_unstable();
                q.dedup();
                let p = rng.gen_range(0..n);
                let k = rng.gen_range(1usize..=q.len());
                (q, p, k)
            })
            .collect();
        (g, seq)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scratch-reuse soundness: one long-lived INE backend rebound across
    /// an arbitrary eval sequence answers exactly like a fresh backend
    /// built for each request (same distance, same subset).
    #[test]
    fn reused_ine_backend_equals_fresh_backends((g, seq) in arb_eval_sequence()) {
        let mut reused = InePhi::new(&g, &seq[0].0);
        for (q, p, k) in &seq {
            reused.rebind(q);
            let fresh = InePhi::new(&g, q);
            for agg in [Aggregate::Max, Aggregate::Sum] {
                let a = reused.eval(*p, *k, agg);
                let b = fresh.eval(*p, *k, agg);
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        prop_assert_eq!(a.dist, b.dist);
                        prop_assert_eq!(a.subset_nodes(), b.subset_nodes());
                    }
                    (a, b) => panic!("reachability diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// Oracle scratch reuse: one long-lived Dijkstra/A* oracle answering an
    /// arbitrary (s, t) sequence equals the textbook per-pair search.
    #[test]
    fn reused_oracles_equal_fresh_searches((g, seq) in arb_eval_sequence()) {
        let dij = DijkstraOracle::new(&g);
        let ast = AStarOracle::new(&g);
        for (q, p, _) in &seq {
            for &t in q {
                let want = dijkstra_pair(&g, *p, t);
                prop_assert_eq!(dij.dist(*p, t), want);
                prop_assert_eq!(ast.dist(*p, t), want);
            }
        }
    }
}
