//! Query-locality layer coherence: the epoch-keyed answer cache and the
//! shared multi-source batch expansion must be *invisible* except for
//! speed.
//!
//! The contract under test, property-sampled across graphs, workloads,
//! strategies, and aggregates:
//!
//! * **cache coherence** — under a random interleaving of queries and
//!   admissible weight-update batches, every answer served through the
//!   cache (hit or miss) is bit-identical to a cold-cache engine built
//!   from scratch on the graph at the epoch the query pinned. This must
//!   hold for every strategy, including through the hub-label staleness
//!   window.
//! * **key canonicalization** — permuted and duplicated `P`/`Q` requests
//!   hit the same cache entry and return the same answer.
//! * **shared-expansion equivalence** — [`Engine::query_colocated`]
//!   answers every query in a batch (co-located, duplicated, one-element,
//!   or mixed) bit-identically to independent [`Engine::query`] calls,
//!   across all three strategies, both aggregates, and
//!   phi in {1/|Q|, 0.5, 1}.
//! * **multi-writer churn** — with several writers bumping epochs
//!   concurrently, cached answers remain bit-identical to a cold engine
//!   on the exact pinned epoch's graph. The `stress_` prefix is the CI
//!   filter for the multi-threaded step.

use fannr::fann::engine::{BatchQuery, CacheOutcome, Engine};
use fannr::fann::{Aggregate, FannAnswer, QueryError};
use fannr::roadnet::{CancelToken, Graph, GraphBuilder, WeightUpdate};
use proptest::prelude::*;

/// A random connected graph: spanning tree + `extra` random edges
/// (same shape as `tests/properties.rs` / `tests/snapshot.rs`).
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

/// Undirected edge list `(u, v, w)` of the *seed* graph, `u < v`. Updates
/// never drop below the seed weight, so the admissibility scale proved at
/// snapshot construction always holds.
fn edge_list(g: &Graph) -> Vec<(u32, u32, u32)> {
    let mut es = Vec::new();
    for u in 0..g.num_nodes() as u32 {
        for (v, w) in g.neighbors(u) {
            if u < v {
                es.push((u, v, w));
            }
        }
    }
    es
}

/// The two engine configurations covering all three strategies, each
/// with an attached answer cache.
fn cached_engines(g: &Graph, capacity: usize) -> [Engine; 2] {
    [
        Engine::new(g).with_answer_cache(capacity), // Exact-max / R-List
        Engine::new(g).with_labels().with_answer_cache(capacity), // IER-kNN/PHL
    ]
}

/// One answer per query of a batch, in input order.
type Answers = Vec<Result<Option<FannAnswer>, QueryError>>;

/// [`Engine::query_colocated`], keeping only the answers.
fn colocated_answers(engine: &Engine, batch: &[BatchQuery]) -> Answers {
    let served = engine.query_colocated(batch).into_iter();
    served.map(|r| r.map(|(answer, _)| answer)).collect()
}

/// Cold-cache mirrors of [`cached_engines`] on an arbitrary graph.
fn cold_engines(g: &Graph) -> [Engine; 2] {
    [Engine::new(g), Engine::new(g).with_labels()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleaving of queries and admissible update batches:
    /// every cached answer is bit-identical to a cold-cache engine built
    /// on the graph at the pinned epoch, for every strategy.
    #[test]
    fn cache_coherent_through_random_interleavings(
        (g, p, q, phi) in arb_instance(),
        script in any::<u64>(),
    ) {
        let edges = edge_list(&g);
        prop_assume!(!edges.is_empty());
        let mut state = script | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let token = CancelToken::new();
        for (cfg, live) in cached_engines(&g, 64).into_iter().enumerate() {
            let mut session = live.session(&token);
            // The mirror graph tracks the live engine's published weights;
            // `cold` is rebuilt from scratch after every epoch bump.
            let mut mirror = g.clone();
            let mut cold = cold_engines(&mirror);
            let mut expected_epoch = 0u64;
            for _ in 0..10 {
                match next() % 5 {
                    // Update batch: inflate a seed-chosen edge subset to a
                    // multiple of its *seed* weight (always admissible).
                    0 | 1 => {
                        let factor = 1 + (next() % 4) as u32;
                        let batch: Vec<WeightUpdate> = edges
                            .iter()
                            .filter(|_| next() % 3 == 0)
                            .map(|&(u, v, w)| WeightUpdate {
                                u,
                                v,
                                w: w.saturating_mul(factor),
                            })
                            .collect();
                        if batch.is_empty() {
                            continue;
                        }
                        let epoch = live.apply_updates(&batch).expect("admissible");
                        expected_epoch += 1;
                        prop_assert_eq!(epoch, expected_epoch);
                        let patches: Vec<_> =
                            batch.iter().map(|u| (u.u, u.v, u.w)).collect();
                        mirror = mirror.with_patched_weights(&patches).expect("edges exist");
                        cold = cold_engines(&mirror);
                    }
                    // Query: sometimes a fresh workload point-set variant,
                    // sometimes a repeat (so hits actually occur).
                    _ => {
                        let (qp, qq, qphi, agg) = match next() % 3 {
                            0 => (p.clone(), q.clone(), phi, Aggregate::Max),
                            1 => (p.clone(), q.clone(), phi, Aggregate::Sum),
                            _ => {
                                let alt_phi = [0.25, 0.5, 1.0][(next() % 3) as usize];
                                let agg =
                                    if next() % 2 == 0 { Aggregate::Max } else { Aggregate::Sum };
                                (p.clone(), q.clone(), alt_phi, agg)
                            }
                        };
                        let (answer, _, _outcome, epoch, _) = session
                            .query(&qp, &qq, qphi, agg)
                            .expect("valid instance");
                        prop_assert_eq!(epoch, expected_epoch, "single writer: pinned epoch");
                        let want = cold[cfg].query(&qp, &qq, qphi, agg).expect("valid instance");
                        prop_assert_eq!(
                            answer, want,
                            "cached answer diverged from cold engine at epoch {} (config {})",
                            epoch, cfg
                        );
                    }
                }
            }
        }
    }

    /// [`Engine::query_colocated`] equals independent [`Engine::query`]
    /// across all three strategies, both aggregates, and
    /// phi in {1/|Q|, 0.5, 1} — including one-query batches, duplicated
    /// queries, permuted member lists, and invalid members.
    #[test]
    fn colocated_batches_match_independent_queries((g, p, q, _phi) in arb_instance()) {
        let phis = [1.0 / q.len() as f64, 0.5, 1.0];
        for live in cold_engines(&g) {
            for agg in [Aggregate::Max, Aggregate::Sum] {
                // A co-located batch: every phi over the same Q, plus a
                // duplicate, a permuted copy, and an invalid straggler.
                let mut rev_q = q.clone();
                rev_q.reverse();
                let bad = vec![g.num_nodes() as u32 + 7];
                let mut batch: Vec<BatchQuery> = phis
                    .iter()
                    .map(|&f| BatchQuery::new(p.clone(), q.clone(), f, agg))
                    .collect();
                batch.push(BatchQuery::new(p.clone(), q.clone(), phis[0], agg));
                batch.push(BatchQuery::new(p.clone(), rev_q.clone(), 0.5, agg));
                batch.push(BatchQuery::new(p.clone(), bad.clone(), 0.5, agg));
                let got = colocated_answers(&live, &batch);
                prop_assert_eq!(got.len(), batch.len());
                for (bq, got) in batch.iter().zip(&got) {
                    let want = live.query(&bq.p, &bq.q, bq.phi, bq.agg);
                    prop_assert_eq!(got, &want, "batched != independent ({:?})", agg);
                }

                // One-query batch.
                let solo = [BatchQuery::new(p.clone(), q.clone(), 0.5, agg)];
                let got = colocated_answers(&live, &solo);
                prop_assert_eq!(&got[0], &live.query(&p, &q, 0.5, agg));
            }
        }
    }

    /// Running the same batch twice on a cached engine answers entirely
    /// from the cache the second time — and still bit-identically.
    #[test]
    fn colocated_cache_replay_is_bit_identical((g, p, q, _phi) in arb_instance()) {
        let live = Engine::new(&g).with_answer_cache(64);
        let batch: Vec<BatchQuery> = [1.0 / q.len() as f64, 0.5, 1.0]
            .iter()
            .flat_map(|&f| {
                [Aggregate::Max, Aggregate::Sum]
                    .map(|agg| BatchQuery::new(p.clone(), q.clone(), f, agg))
            })
            .collect();
        let first = colocated_answers(&live, &batch);
        let hits_before = live.cache_stats().expect("cache attached").hits;
        let second = colocated_answers(&live, &batch);
        prop_assert_eq!(&first, &second);
        let stats = live.cache_stats().expect("cache attached");
        prop_assert_eq!(
            stats.hits - hits_before,
            batch.len() as u64,
            "second pass must be all hits"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Model-based churn on the raw [`AnswerCache`]: a random
    /// interleaving of `insert`, `lookup`, and `on_update` is mirrored
    /// into a `HashMap` oracle that replays the documented contract
    /// (insert overwrites; lookup hits iff the key is present at the
    /// looked-up epoch; an update batch promotes exactly the entries
    /// whose region proof holds and invalidates the rest). After every
    /// op the cache and the oracle must agree on hit/miss *and* answer,
    /// `live` must equal the oracle's size, and `live + dead` must never
    /// exceed the slot count — and the whole script must terminate, which
    /// is the regression half: before tombstone reclamation this
    /// workload saturated the probe chains and spun forever.
    ///
    /// Capacity (64) exceeds the key universe (12) and the op count
    /// keeps the arena far from its limit, so the wholesale reset never
    /// fires and the oracle stays exact (`evicted == 0` is asserted).
    #[test]
    fn answer_cache_matches_hashmap_oracle_under_churn(
        script in proptest::collection::vec(any::<u64>(), 30..200),
    ) {
        use fannr::fann::locality::{AnswerCache, CacheKey, NO_REACH};
        use fannr::fann::FannAnswer;
        use fannr::rtree::{Mbr, Pt};
        use std::collections::HashMap;

        const UNIVERSE: u64 = 12;
        let cache = AnswerCache::new(64);
        // key id -> (answer, reach, region). Epochs are implicit: every
        // surviving entry is stamped with the current epoch (inserts use
        // it, promotion moves entries to it, everything else dies).
        let mut model: HashMap<u32, (Option<FannAnswer>, u64, Mbr)> = HashMap::new();
        let mut epoch = 0u64;

        for r in script {
            let id = ((r >> 8) % UNIVERSE) as u32;
            let p = [0u32];
            let q = [id];
            let key = CacheKey { p: &p, q: &q, phi: 1.0, agg: 0, strategy: 1 };
            match r % 4 {
                // Update batch: one touched endpoint, unit scale.
                0 => {
                    let x = Pt::new(((r >> 16) % 128) as f64, ((r >> 24) % 128) as f64);
                    let next = epoch + 1;
                    cache.on_update(epoch, next, &[x], 1.0);
                    model.retain(|_, (_, reach, mbr)| {
                        *reach != NO_REACH && mbr.mindist_point(x) > *reach as f64
                    });
                    epoch = next;
                }
                // Lookup, sometimes at a deliberately stale epoch.
                1 => {
                    let probe_epoch = if (r >> 16) % 5 == 0 { epoch + 1 } else { epoch };
                    let got = cache.lookup(&key, probe_epoch);
                    let want = (probe_epoch == epoch)
                        .then(|| model.get(&id))
                        .flatten();
                    match (got, want) {
                        (None, None) => {}
                        (Some(hit), Some((ans, _, _))) => {
                            prop_assert_eq!(&hit.answer, ans, "hit replays the inserted answer");
                        }
                        (got, want) => {
                            prop_assert!(
                                false,
                                "hit/miss disagreement for key {id}: cache {}, oracle {}",
                                got.is_some(),
                                want.is_some()
                            );
                        }
                    }
                }
                // Insert (overwrites any previous entry for the key).
                _ => {
                    let mbr = {
                        let x = ((r >> 16) % 128) as f64;
                        let y = ((r >> 24) % 128) as f64;
                        Mbr { min_x: x, min_y: y, max_x: x + 4.0, max_y: y + 4.0 }
                    };
                    let reach = if (r >> 4) % 3 == 0 { NO_REACH } else { (r >> 32) % 64 };
                    let answer = ((r >> 5) % 5 != 0).then(|| FannAnswer {
                        p_star: id,
                        dist: (r >> 40) % 1_000,
                        subset: vec![id],
                    });
                    cache.insert(&key, epoch, answer.as_ref(), 0, mbr, reach);
                    model.insert(id, (answer, reach, mbr));
                }
            }
            let (live, dead, slots) = cache.occupancy();
            prop_assert_eq!(live, model.len(), "live slots track the oracle exactly");
            prop_assert!(live + dead <= slots, "occupancy {live}+{dead} overflows {slots} slots");
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.evicted, 0, "capacity chosen so wholesale reset never fires");
    }
}

/// Permuted (and duplicated) `P`/`Q` requests resolve to the same cache
/// entry: the first canonical form misses, every spelling after that hits,
/// and all spellings return the same answer. Regression test for key
/// canonicalization.
#[test]
fn permuted_duplicate_members_share_one_cache_entry() {
    let mut rng = fannr::workload::rng(17);
    let g = fannr::workload::synth::road_network(120, &mut rng);
    let p = fannr::workload::points::uniform_data_points(&g, 0.3, &mut rng);
    let q = fannr::workload::points::uniform_query_points(&g, 5, 0.5, &mut rng);
    assert!(p.len() >= 2 && q.len() >= 2);

    let engine = Engine::new(&g).with_answer_cache(16);
    let token = CancelToken::new();
    let mut session = engine.session(&token);
    for agg in [Aggregate::Max, Aggregate::Sum] {
        let (base, _, outcome, ..) = session.query(&p, &q, 0.5, agg).expect("valid");
        assert_eq!(outcome, CacheOutcome::Miss, "cold cache must miss first");

        // Reversed, rotated, and duplicated spellings of the same sets.
        let mut p_rev = p.clone();
        p_rev.reverse();
        let mut q_rot = q.clone();
        q_rot.rotate_left(2);
        let mut p_dup = p.clone();
        p_dup.extend_from_slice(&p[..2]);
        let mut q_dup_rev = q.clone();
        q_dup_rev.reverse();
        q_dup_rev.push(q[0]);

        let spellings: [(&[u32], &[u32]); 4] = [
            (&p_rev, &q),
            (&p, &q_rot),
            (&p_dup, &q_dup_rev),
            (&p_rev, &q_rot),
        ];
        for (sp, sq) in spellings {
            let (answer, _, outcome, ..) = session.query(sp, sq, 0.5, agg).expect("valid");
            assert_eq!(
                outcome,
                CacheOutcome::Hit,
                "permuted spelling must hit the canonical entry ({agg:?})"
            );
            assert_eq!(answer, base, "hit replays the same answer ({agg:?})");
        }
    }
    let stats = engine.cache_stats().expect("cache attached");
    assert_eq!(
        stats.insertions, 2,
        "one entry per aggregate, not per spelling"
    );
}

/// Multi-writer epoch churn: writers bump epochs concurrently while
/// readers serve a small query pool through the cache. Every answer must
/// be bit-identical to a cold-cache engine built on the graph at the
/// *exact* epoch the query pinned. The `stress_` prefix is the CI filter
/// for the multi-threaded step.
#[test]
fn stress_cache_coherent_under_multi_writer_epoch_churn() {
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    const WRITERS: usize = 3;
    const READERS: usize = 4;
    const EDGES_PER_WRITER: usize = 4;
    const RUN_FOR: Duration = Duration::from_millis(1200);

    let mut rng = fannr::workload::rng(29);
    let base = fannr::workload::synth::road_network(200, &mut rng);
    let edges = edge_list(&base);
    assert!(edges.len() >= WRITERS * EDGES_PER_WRITER);
    let groups: Vec<Vec<(u32, u32, u32)>> = (0..WRITERS)
        .map(|i| edges[i * EDGES_PER_WRITER..(i + 1) * EDGES_PER_WRITER].to_vec())
        .collect();

    // A shared query pool small enough that hits actually happen.
    let p = fannr::workload::points::uniform_data_points(&base, 0.2, &mut rng);
    let q1 = fannr::workload::points::uniform_query_points(&base, 4, 0.4, &mut rng);
    let q2 = fannr::workload::points::uniform_query_points(&base, 6, 0.6, &mut rng);
    let pool: Vec<(Vec<u32>, Vec<u32>, f64, Aggregate)> = vec![
        (p.clone(), q1.clone(), 0.5, Aggregate::Max),
        (p.clone(), q1.clone(), 0.5, Aggregate::Sum),
        (p.clone(), q2.clone(), 1.0, Aggregate::Max),
        (p.clone(), q2, 0.25, Aggregate::Sum),
        (p, q1, 1.0, Aggregate::Sum),
    ];

    let engine = Engine::new(&base).with_answer_cache(256);
    // epoch -> graph at that epoch. Writers hold `publish` across
    // apply+record, so the snapshot pinned right after an apply is that
    // exact epoch's graph.
    let history: Mutex<HashMap<u64, Graph>> = Mutex::new(HashMap::from([(0, base.clone())]));
    let publish = Mutex::new(());
    let stop = AtomicBool::new(false);
    let total_hits = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for group in &groups {
            let engine = engine.clone();
            let (stop, history, publish) = (&stop, &history, &publish);
            scope.spawn(move || {
                let mut doubled = false;
                while !stop.load(Ordering::Relaxed) {
                    doubled = !doubled;
                    let batch: Vec<WeightUpdate> = group
                        .iter()
                        .map(|&(u, v, w)| WeightUpdate {
                            u,
                            v,
                            w: if doubled { w.saturating_mul(2) } else { w },
                        })
                        .collect();
                    let guard = publish.lock().unwrap();
                    let epoch = engine.apply_updates(&batch).expect("admissible");
                    let snap = engine.snapshot();
                    assert_eq!(snap.epoch(), epoch, "publish lock serializes writers");
                    history.lock().unwrap().insert(epoch, snap.graph().clone());
                    drop(guard);
                    std::thread::yield_now();
                }
            });
        }

        for r in 0..READERS {
            let engine = engine.clone();
            let (stop, history, pool, total_hits) = (&stop, &history, &pool, &total_hits);
            scope.spawn(move || {
                let token = CancelToken::new();
                let mut session = engine.session(&token);
                let mut i = r;
                let mut hits = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (qp, qq, phi, agg) = &pool[i % pool.len()];
                    i += 1;
                    let (answer, _, outcome, epoch, _) =
                        session.query(qp, qq, *phi, *agg).expect("valid");
                    if outcome == CacheOutcome::Hit {
                        hits += 1;
                    }
                    // The writer records each epoch under the publish lock
                    // right after storing it; spin until it is visible.
                    let graph = loop {
                        if let Some(g) = history.lock().unwrap().get(&epoch).cloned() {
                            break g;
                        }
                        std::thread::yield_now();
                    };
                    let cold = Engine::new(&graph);
                    let want = cold.query(qp, qq, *phi, *agg).expect("valid");
                    assert_eq!(
                        answer, want,
                        "cached answer diverged from cold engine at epoch {epoch}"
                    );
                }
                total_hits.fetch_add(hits, Ordering::Relaxed);
            });
        }

        let started = Instant::now();
        while started.elapsed() < RUN_FOR {
            std::thread::sleep(Duration::from_millis(25));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats = engine.cache_stats().expect("cache attached");
    assert!(stats.misses > 0, "churn must force recomputation");
    assert_eq!(
        stats.hits,
        total_hits.load(Ordering::Relaxed),
        "engine counters account for every reader-observed hit"
    );
}
