//! Snapshot semantics: copy-on-write `apply` vs a from-scratch rebuild.
//!
//! The contract under test, property-sampled across graphs, workloads,
//! strategies, and aggregates:
//!
//! * **equivalence** — an engine that adopted updates via
//!   [`Engine::apply_updates`] answers bit-identically to an engine built
//!   from scratch on the patched graph. This must hold *through* the
//!   staleness window (live hub labels not yet rebuilt, both for
//!   increase-only batches and for batches containing decreases) and
//!   after [`Engine::repair_indexes`] republishes fresh labels.
//! * **atomicity** — a rejected batch publishes nothing: same epoch, same
//!   answers, not stale.
//! * **no torn epochs** — concurrent writers and readers on one shared
//!   engine: every pinned snapshot shows each writer's batch fully
//!   applied or not at all, and epochs never run backwards. The `stress_`
//!   prefix is the CI filter for the multi-threaded step.
//! * **scoped repair ≡ rebuild** — `HubLabels::repair_scoped`, driven
//!   by a [`RepairScope`], produces labels bit-identical to a
//!   from-scratch build on the patched graph: structurally (`PartialEq`),
//!   in the serialized artifact bytes, and in query answers — for chained
//!   per-batch repairs and for merged multi-batch scopes alike.

use fannr::fann::engine::Engine;
use fannr::fann::Aggregate;
use fannr::hublabel::HubLabels;
use fannr::roadnet::{AppliedUpdate, Graph, GraphBuilder, RepairScope, WeightUpdate};
use proptest::prelude::*;

/// A random connected graph: spanning tree + `extra` random edges
/// (same shape as `tests/properties.rs` / `tests/cancel.rs`).
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

/// Graph plus non-empty P, Q, a phi, and an update seed.
fn arb_instance() -> impl Strategy<Value = (Graph, Vec<u32>, Vec<u32>, f64, u64)> {
    (arb_graph(), any::<u64>(), 1usize..100, any::<u64>()).prop_map(
        |(g, seed, phi_pct, upd_seed)| {
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
            (g, p, q, (phi_pct as f64) / 100.0, upd_seed)
        },
    )
}

/// Undirected edge list `(u, v, w)` with `u < v`.
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

/// Two update batches over a seed-chosen edge subset. Batch one inflates
/// each chosen edge to `4w` (increase-only: stale labels may reuse
/// certificates); batch two drops the same edges to `2w` (a genuine
/// decrease from the live weights: stale labels must fall back wholesale).
/// Both stay at or above the seed weight `w`, so admissibility — proved
/// for the seed graph at snapshot construction — is never in question.
fn update_batches(g: &Graph, seed: u64) -> (Vec<WeightUpdate>, Vec<WeightUpdate>) {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut inflate = Vec::new();
    let mut deflate = Vec::new();
    for (u, v, w) in edge_list(g) {
        if next() % 3 == 0 {
            inflate.push(WeightUpdate {
                u,
                v,
                w: w.saturating_mul(4),
            });
            deflate.push(WeightUpdate {
                u,
                v,
                w: w.saturating_mul(2),
            });
        }
    }
    (inflate, deflate)
}

/// The three engine configurations covering all four strategies.
fn engines(g: &Graph) -> [Engine; 3] {
    [
        Engine::new(g),                        // Exact-max / R-List
        Engine::new(g).allow_approx_sum(true), // Exact-max / APX-sum
        Engine::new(g).with_labels(),          // IER-kNN/PHL
    ]
}

fn assert_same_answers(
    live: &Engine,
    rebuilt: &Engine,
    p: &[u32],
    q: &[u32],
    phi: f64,
    stage: &str,
) {
    for agg in [Aggregate::Max, Aggregate::Sum] {
        let got = live.query(p, q, phi, agg);
        let want = rebuilt.query(p, q, phi, agg);
        assert_eq!(
            got,
            want,
            "{} diverged from a from-scratch rebuild at stage '{stage}' ({agg:?})",
            live.strategy_for(agg).name(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `apply` is indistinguishable from rebuilding on the patched graph,
    /// at every point of the staleness lifecycle, for every strategy.
    #[test]
    fn applied_updates_match_a_from_scratch_rebuild(
        (g, p, q, phi, upd_seed) in arb_instance()
    ) {
        let (inflate, deflate) = update_batches(&g, upd_seed);
        prop_assume!(!inflate.is_empty());
        let patch = |ups: &[WeightUpdate]| -> Graph {
            let patches: Vec<_> = ups.iter().map(|u| (u.u, u.v, u.w)).collect();
            g.with_patched_weights(&patches).expect("edges exist")
        };
        let g1 = patch(&inflate);
        let g2 = patch(&deflate);
        let rebuilt_on_g1 = engines(&g1);
        let rebuilt_on_g2 = engines(&g2);

        for (i, live) in engines(&g).into_iter().enumerate() {
            let rebuilt1 = &rebuilt_on_g1[i];
            let rebuilt2 = &rebuilt_on_g2[i];

            // Increase-only window: labels (if any) are stale but may
            // keep serving unaffected pairs via the tight-edge check.
            let epoch = live.apply_updates(&inflate).expect("admissible");
            prop_assert_eq!(epoch, 1);
            prop_assert_eq!(live.is_stale(), live.has_labels());
            assert_same_answers(&live, rebuilt1, &p, &q, phi, "stale, increase-only");

            // Decrease window: every label answer must fall back to
            // exact search — and still match the rebuild bit-for-bit.
            let epoch = live.apply_updates(&deflate).expect("admissible");
            prop_assert_eq!(epoch, 2);
            assert_same_answers(&live, rebuilt2, &p, &q, phi, "stale, with decreases");

            // After repair the labels are fresh again at the same epoch.
            let repaired_epoch = live.repair_indexes();
            prop_assert_eq!(repaired_epoch, 2);
            prop_assert!(!live.is_stale());
            assert_same_answers(&live, rebuilt2, &p, &q, phi, "repaired");
        }
    }

    /// A batch with one bad update publishes nothing, even if the rest of
    /// the batch was applicable: same epoch, same answers, not stale.
    #[test]
    fn rejected_batches_publish_nothing(
        (g, p, q, phi, upd_seed) in arb_instance()
    ) {
        let (mut inflate, _) = update_batches(&g, upd_seed);
        prop_assume!(!inflate.is_empty());
        // A self-loop is invalid on any graph this generator produces.
        inflate.push(WeightUpdate { u: 0, v: 0, w: 1 });
        let live = Engine::new(&g).with_labels();
        let baseline: Vec<_> = [Aggregate::Max, Aggregate::Sum]
            .map(|agg| live.query(&p, &q, phi, agg))
            .into_iter()
            .collect();
        prop_assert!(live.apply_updates(&inflate).is_err());
        prop_assert_eq!(live.epoch(), 0);
        prop_assert!(!live.is_stale());
        for (i, agg) in [Aggregate::Max, Aggregate::Sum].into_iter().enumerate() {
            prop_assert_eq!(&live.query(&p, &q, phi, agg), &baseline[i]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scoped index repair is indistinguishable from rebuilding on the
    /// patched graph — structurally, byte-for-byte in the serialized
    /// artifact, and in query answers. Covers chained repairs (one per
    /// batch) and a merged two-batch scope repaired in one pass from the
    /// original index.
    #[test]
    fn scoped_repairs_match_rebuilds_bit_for_bit(
        (g, p, q, phi, upd_seed) in arb_instance()
    ) {
        let (inflate, deflate) = update_batches(&g, upd_seed);
        prop_assume!(!inflate.is_empty());
        let patch = |ups: &[WeightUpdate]| -> Graph {
            let patches: Vec<_> = ups.iter().map(|u| (u.u, u.v, u.w)).collect();
            g.with_patched_weights(&patches).expect("edges exist")
        };
        let g1 = patch(&inflate);
        let g2 = patch(&deflate);

        let applied = |from: &Graph, ups: &[WeightUpdate]| -> Vec<AppliedUpdate> {
            ups.iter()
                .map(|u| AppliedUpdate {
                    u: u.u,
                    v: u.v,
                    w_old: from.edge_weight(u.u, u.v).expect("edge exists"),
                    w_new: u.w,
                })
                .collect()
        };
        let batch1 = applied(&g, &inflate);
        let batch2 = applied(&g1, &deflate);

        let scope1 = RepairScope::from_applied(&batch1);
        let scope2 = RepairScope::from_applied(&batch2);
        let mut merged = scope1.clone();
        merged.absorb(&batch2);
        // Merge semantics: same edge set as either batch, first `w_old`
        // wins — so w -> 4w -> 2w merges to the increase w -> 2w even
        // though batch two alone is a decrease.
        prop_assert!(scope1.increase_only());
        prop_assert!(!scope2.increase_only());
        prop_assert!(merged.increase_only());
        prop_assert_eq!(merged.len(), scope1.len());

        let touched1: Vec<_> = scope1.touched_pairs().collect();
        let touched2: Vec<_> = scope2.touched_pairs().collect();
        let merged_pairs: Vec<_> = merged.touched_pairs().collect();

        // Hub labels: chained repairs, each vs a from-scratch build.
        let l0 = HubLabels::build(&g).unwrap();
        let (l1, s1) = l0.repair_scoped(&g1, &touched1).unwrap();
        let want1 = HubLabels::build(&g1).unwrap();
        prop_assert!(l1 == want1, "label repair diverged (increase batch)");
        prop_assert!(l1.to_flat_bytes() == want1.to_flat_bytes(), "label artifact bytes differ");
        prop_assert_eq!(s1.roots_total, g.num_nodes());
        prop_assert!(s1.roots_searched <= s1.roots_total);

        let (l2, _) = l1.repair_scoped(&g2, &touched2).unwrap();
        let want2 = HubLabels::build(&g2).unwrap();
        prop_assert!(l2 == want2, "label repair diverged (decrease batch)");
        prop_assert!(l2.to_flat_bytes() == want2.to_flat_bytes(), "label artifact bytes differ");

        // Merged scope: one repair straight from the original labels.
        let (lm, _) = l0.repair_scoped(&g2, &merged_pairs).unwrap();
        prop_assert!(lm == want2, "merged-scope label repair diverged");
        prop_assert!(lm.to_flat_bytes() == want2.to_flat_bytes(), "label artifact bytes differ");

        // Answers: engines over the scoped-repaired labels agree with
        // freshly built engines for every strategy and aggregate.
        let scoped = [
            Engine::new(&g2),
            Engine::new(&g2).allow_approx_sum(true),
            Engine::new(&g2).with_prebuilt_labels(lm),
        ];
        let fresh = engines(&g2);
        for (live, rebuilt) in scoped.iter().zip(&fresh) {
            assert_same_answers(live, rebuilt, &p, &q, phi, "scoped-repaired artifacts");
        }
    }
}

/// Multi-threaded hot-swap stress (the CI `stress_` step): N writers each
/// toggling their own disjoint edge batch, M readers pinning snapshots.
/// Every pinned snapshot must show each writer's batch fully applied or
/// fully absent, and the epoch sequence seen by any single reader must be
/// non-decreasing. Bounded well under the 60s CI budget.
#[test]
fn stress_swaps_are_atomic_under_concurrent_readers() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    const WRITERS: usize = 3;
    const READERS: usize = 5;
    const EDGES_PER_WRITER: usize = 4;
    const RUN_FOR: Duration = Duration::from_millis(1500);

    let mut rng = fannr::workload::rng(41);
    let base = fannr::workload::synth::road_network(200, &mut rng);
    let edges = edge_list(&base);
    assert!(edges.len() >= WRITERS * EDGES_PER_WRITER);
    let groups: Vec<Vec<(u32, u32, u32)>> = (0..WRITERS)
        .map(|i| edges[i * EDGES_PER_WRITER..(i + 1) * EDGES_PER_WRITER].to_vec())
        .collect();

    // No labels: repair noise is covered elsewhere; this test isolates
    // the swap/pin protocol under write contention.
    let engine = Engine::new(&base);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for group in &groups {
            let engine = engine.clone();
            let stop = &stop;
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
                    engine.apply_updates(&batch).expect("admissible");
                }
            });
        }

        for _ in 0..READERS {
            let engine = engine.clone();
            let stop = &stop;
            let groups = &groups;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut pins = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = engine.snapshot();
                    let epoch = snap.epoch();
                    assert!(
                        epoch >= last_epoch,
                        "epoch ran backwards: {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                    let g = snap.graph();
                    for group in groups {
                        let states: Vec<bool> = group
                            .iter()
                            .map(|&(u, v, w)| {
                                let now = g.edge_weight(u, v).expect("edge exists");
                                assert!(
                                    now == w || now == w.saturating_mul(2),
                                    "edge ({u},{v}) has weight {now}, expected {w} or 2x"
                                );
                                now != w
                            })
                            .collect();
                        assert!(
                            states.iter().all(|&s| s == states[0]),
                            "torn batch: edges of one writer disagree: {states:?}"
                        );
                    }
                    pins += 1;
                }
                assert!(pins > 0, "reader never pinned a snapshot");
            });
        }

        let started = Instant::now();
        while started.elapsed() < RUN_FOR {
            std::thread::sleep(Duration::from_millis(25));
        }
        stop.store(true, Ordering::Relaxed);
    });

    // The cell is quiescent again; one last pinned read sees a coherent
    // final epoch.
    let snap = engine.snapshot();
    assert!(snap.epoch() > 0, "writers never published an epoch");
}

/// Scoped repair stays scoped: on the 2 000-node seed-7 network, a
/// single pendant-edge update replays at least 10× fewer hub roots than a
/// full rebuild. The probes are eight degree-1 edges spread west to east
/// (sorted by the leaf's coordinates, picked at even strides); each is
/// toggled to twice its weight and back, with a repair after every step.
/// A pendant edge's shortest-path footprint is structurally tiny, so the
/// ratio measures repair scoping, not edge centrality.
#[test]
fn single_edge_repair_replays_a_tenth_of_the_hub_roots_or_fewer() {
    let g = fannr::workload::synth::road_network(2000, &mut fannr::workload::rng(7));
    let mut pendant: Vec<(u32, u32, u32)> = (0..g.num_nodes() as u32)
        .filter(|&v| g.degree(v) == 1)
        .filter_map(|v| g.neighbors(v).next().map(|(nbr, w)| (v, nbr, w)))
        .collect();
    pendant.sort_by(|a, b| {
        let (ca, cb) = (g.coord(a.0), g.coord(b.0));
        (ca.x, ca.y)
            .partial_cmp(&(cb.x, cb.y))
            .expect("finite coords")
    });
    assert!(pendant.len() >= 8, "only {} pendant edges", pendant.len());

    let engine = Engine::new(&g).with_labels();
    assert!(engine.has_labels());
    for i in 0..8 {
        let (u, v, w) = pendant[i * pendant.len() / 8];
        for w in [w * 2, w] {
            engine
                .apply_updates(&[WeightUpdate { u, v, w }])
                .expect("admissible");
            engine.repair_indexes();
            let report = engine.last_repair_report().expect("a repair ran");
            assert!(engine.has_labels() && !engine.is_stale());
            assert!(report.labels_repaired > 0, "({u},{v}) w={w}: {report:?}");
            assert!(
                report.labels_total >= 10 * report.labels_repaired,
                "({u},{v}) w={w}: repaired {} of {} hub roots",
                report.labels_repaired,
                report.labels_total
            );
        }
    }
}
