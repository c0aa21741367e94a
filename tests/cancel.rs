//! Cooperative-cancellation correctness.
//!
//! The contract has two sides, both tested for every strategy the engine
//! dispatches (Exact-max, R-List/INE, IER-kNN/PHL):
//!
//! * **transparency** — a live token (no deadline, never cancelled) must
//!   be observationally invisible: bit-identical answers to the
//!   uncancelled path, across a property-sampled space of instances;
//! * **never a wrong answer** — a token that is already expired (or is
//!   cancelled mid-flight) yields `QueryError::Cancelled`, not a partial
//!   result silently presented as exact.

use std::time::Duration;

use fannr::fann::engine::Engine;
use fannr::fann::{Aggregate, QueryError};
use fannr::roadnet::{CancelToken, Graph, GraphBuilder, WeightUpdate};
use proptest::prelude::*;

/// A random connected graph: spanning tree + `extra` random edges
/// (same shape as `tests/properties.rs`).
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

/// Graph plus non-empty P, Q and a phi.
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

/// The two engine configurations covering all three strategies.
fn engines(g: &Graph) -> [Engine; 2] {
    [
        Engine::new(g),               // Exact-max / R-List
        Engine::new(g).with_labels(), // IER-kNN/PHL
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A never-cancelled token is invisible: every strategy, both
    /// aggregates, bit-identical answers and errors — on a session's
    /// first query and on its later ones, whose search state was left
    /// behind by queries with a different `|Q|`, aggregate, and epoch.
    #[test]
    fn live_token_is_bit_identical(
        (g, p, q, phi) in arb_instance(),
        (_, p2, q2, phi2) in arb_instance(),
    ) {
        let token = CancelToken::new(); // no deadline, never cancelled
        let n = g.num_nodes() as u32;
        // A second, differently-sized query on the same graph.
        let clamp = |ids: &[u32]| ids.iter().map(|&v| v % n).collect::<Vec<u32>>();
        let (p2, q2) = (clamp(&p2), clamp(&q2));
        let (u, (v, w)) = (0..n)
            .find_map(|u| Some((u, g.neighbors(u).next()?)))
            .expect("connected");
        for engine in &engines(&g) {
            let mut session = engine.session(&token);
            for round in 0..2u32 {
                for agg in [Aggregate::Max, Aggregate::Sum] {
                    for (p, q, phi) in [(&p, &q, phi), (&p2, &q2, phi2)] {
                        let plain = engine.query(p, q, phi, agg);
                        let served = session.query(p, q, phi, agg).map(|(answer, ..)| answer);
                        prop_assert_eq!(
                            &plain, &served,
                            "strategy {} diverged under a live token (round {})",
                            engine.strategy_for(agg).name(), round
                        );
                        // A long-but-finite deadline must be equally invisible.
                        let token = CancelToken::with_timeout(Duration::from_secs(3600));
                        let deadline = engine.session(&token).query(p, q, phi, agg);
                        prop_assert_eq!(&plain, &deadline.map(|(answer, ..)| answer));
                    }
                }
                // Bump the epoch under the session (weights only ever grow,
                // so the admissibility scale holds).
                engine
                    .apply_updates(&[WeightUpdate { u, v, w: w.saturating_mul(2 + round) }])
                    .expect("admissible");
            }
        }
    }

    /// A pre-expired token yields `Cancelled` — never a wrong answer —
    /// whenever the inputs are otherwise valid.
    #[test]
    fn expired_token_cancels((g, p, q, phi) in arb_instance()) {
        let token = CancelToken::new();
        token.cancel();
        for engine in &engines(&g) {
            for agg in [Aggregate::Max, Aggregate::Sum] {
                // Skip instances the engine rejects outright (invalid phi
                // never reaches a search; validation precedes polling).
                if engine.query(&p, &q, phi, agg).is_err() {
                    continue;
                }
                let got = engine.session(&token).query(&p, &q, phi, agg);
                prop_assert!(
                    matches!(got, Err(QueryError::Cancelled)),
                    "strategy {} returned {:?} for a cancelled token",
                    engine.strategy_for(agg).name(),
                    got
                );
            }
        }
    }
}

/// `arm` re-arms: after a cancelled request the same token serves a fresh
/// one, which is how serving workers recycle their per-thread token.
#[test]
fn token_rearm_recovers_after_cancellation() {
    let mut rng = fannr::workload::rng(21);
    let g = fannr::workload::synth::road_network(200, &mut rng);
    let p = fannr::workload::points::uniform_data_points(&g, 0.1, &mut rng);
    let q = fannr::workload::points::uniform_query_points(&g, 4, 0.5, &mut rng);
    let engine = Engine::new(&g);
    let token = CancelToken::new();
    let mut session = engine.session(&token);

    token.arm(Some(Duration::ZERO));
    std::thread::sleep(Duration::from_millis(1));
    let cancelled = session.query(&p, &q, 0.5, Aggregate::Max);
    assert!(
        matches!(cancelled, Err(QueryError::Cancelled)),
        "{cancelled:?}"
    );

    token.arm(None);
    let answer = session.query(&p, &q, 0.5, Aggregate::Max);
    assert_eq!(
        answer.map(|(answer, ..)| answer),
        engine.query(&p, &q, 0.5, Aggregate::Max)
    );
}

/// Cancelling from another thread mid-query terminates the search with
/// `Cancelled` (cooperative preemption, the serving deadline mechanism).
#[test]
fn cross_thread_cancellation_interrupts() {
    let mut rng = fannr::workload::rng(33);
    let g = fannr::workload::synth::road_network(3_000, &mut rng);
    let p = fannr::workload::points::uniform_data_points(&g, 0.05, &mut rng);
    let q = fannr::workload::points::uniform_query_points(&g, 8, 0.5, &mut rng);
    let engine = Engine::new(&g);
    let token = CancelToken::new();

    std::thread::scope(|scope| {
        let canceller = scope.spawn(|| {
            std::thread::sleep(Duration::from_micros(200));
            token.cancel();
        });
        // Re-run until the cancel lands mid-query (it may beat the query
        // start, which also must yield `Cancelled`, or lose the race
        // entirely on the first iterations).
        let got = engine.session(&token).query(&p, &q, 0.5, Aggregate::Sum);
        canceller.join().unwrap();
        match got {
            Err(QueryError::Cancelled) => {}
            Ok(ans) => {
                // The query won the race; the answer must then be exact.
                assert_eq!(ans.0, engine.query(&p, &q, 0.5, Aggregate::Sum).unwrap());
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}
