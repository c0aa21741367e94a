//! `R-List`: the threshold-algorithm adaptation of *List* \[8\], \[9\] to road
//! networks (§III-B).
//!
//! One from-near-to-far data-object queue per query point (the switchable
//! multi-source expansion of `roadnet::multisource`). Every newly seen data
//! point is fully evaluated with `g_phi` ("random access"); the scan stops
//! when the best evaluated answer is at most the threshold
//!
//! ```text
//! tau = g( k smallest current queue-head distances )
//! ```
//!
//! which lower-bounds `g_phi` of every *unseen* data point: an unseen `p`
//! satisfies `delta(q_i, p) >= head_i` for every queue `i`, so its k
//! smallest distances pointwise dominate the k smallest heads.

use crate::gphi::GPhi;
use crate::metrics::Recorder;
use crate::{FannAnswer, FannQuery};
use roadnet::cancel::{CancelCheck, Cancelled};
use roadnet::{Dist, Graph, ObjectStreams, ScratchPool, INF};
use std::collections::HashSet;

/// Exact FANN_R with threshold-based early termination. Universal
/// (both `sum` and `max`).
pub fn r_list(g: &Graph, query: &FannQuery, gphi: &dyn GPhi) -> Option<FannAnswer> {
    r_list_traced(g, query, gphi, &mut ScratchPool::new(), ())
}

/// [`r_list`] drawing the `|Q|` expansion scratches from `pool` (a worker
/// that keeps one pool across its query stream pays the `O(|Q||V|)`
/// distance-array allocation only while the pool warms up), with a live
/// [`Recorder`]: the `|Q|` expansions report their search work, and data
/// points never evaluated because the threshold fired are reported as
/// pruned. Note the recorder only sees the *expansion* side — pass a
/// backend built `with_recorder` to also count the `g_phi` side. The `()`
/// recorder makes this identical to the untraced path.
pub fn r_list_traced<R: Recorder>(
    g: &Graph,
    query: &FannQuery,
    gphi: &dyn GPhi,
    pool: &mut ScratchPool,
    rec: R,
) -> Option<FannAnswer> {
    match r_list_cancellable(g, query, gphi, pool, rec, ()) {
        Ok(a) => a,
        Err(Cancelled) => unreachable!("the unit CancelCheck never cancels"),
    }
}

/// [`r_list_traced`] with a live [`CancelCheck`] polled by the `|Q|`
/// expansions and the threshold loop; pair with a `g_phi` backend built
/// over the same token. The `()` check makes this identical to the
/// uncancellable path.
pub fn r_list_cancellable<R: Recorder, C: CancelCheck>(
    g: &Graph,
    query: &FannQuery,
    gphi: &dyn GPhi,
    pool: &mut ScratchPool,
    rec: R,
    cancel: C,
) -> Result<Option<FannAnswer>, Cancelled> {
    let mut streams = ObjectStreams::with_pool_cancellable(g, query.q, query.p, pool, rec, cancel);
    // Every exit leaves through the block's value, so the scratches are
    // recycled whether the scan finished or was cancelled.
    let best = 'scan: {
        let k = query.subset_size();
        let mut seen: HashSet<roadnet::NodeId> = HashSet::new();
        let mut best: Option<FannAnswer> = None;

        // Until every queue is exhausted (then every reachable point was
        // seen).
        while let Some((i, pnode, _)) = streams.min_head() {
            if cancel.poll_cancelled() {
                break 'scan Err(Cancelled);
            }
            // Threshold over current heads (before popping).
            let mut heads: Vec<Dist> = streams
                .head_dists()
                .into_iter()
                .map(|h| h.unwrap_or(INF))
                .collect();
            heads.sort_unstable();
            let tau = query.agg.of_sorted(&heads[..k]);
            if let Some(b) = &best {
                if b.dist <= tau {
                    break;
                }
            }
            streams.pop(i);
            if seen.insert(pnode) {
                if let Some(r) = gphi.eval(pnode, k, query.agg) {
                    if best.as_ref().is_none_or(|b| r.dist < b.dist) {
                        best = Some(FannAnswer {
                            p_star: pnode,
                            subset: r.subset_nodes(),
                            dist: r.dist,
                        });
                    }
                }
            }
        }
        // A cancelled stream looks exhausted and a cancelled `g_phi` eval
        // looks unreachable, either of which could have truncated the
        // scan — re-check exactly before trusting `best`.
        if cancel.cancelled_now() {
            break 'scan Err(Cancelled);
        }
        // Data points the threshold let us skip entirely (duplicate-free P).
        rec.pruned(query.p.len().saturating_sub(seen.len()) as u64);
        Ok(best)
    };
    streams.recycle_into(pool);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::brute::brute_force;
    use crate::gphi::ine::InePhi;
    use crate::Aggregate;
    use roadnet::GraphBuilder;

    fn grid(w: u32, h: u32) -> roadnet::Graph {
        let mut b = GraphBuilder::new();
        for y in 0..h {
            for x in 0..w {
                b.add_node(x as f64, y as f64);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 1 + (x * 2 + y * 3) % 4);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + (x + y) % 5);
                }
            }
        }
        b.build()
    }

    #[test]
    fn matches_brute_force() {
        let g = grid(7, 6);
        let p: Vec<u32> = (0..42).step_by(4).collect();
        let q: Vec<u32> = vec![3, 11, 25, 33, 40];
        for phi in [0.2, 0.4, 0.6, 1.0] {
            for agg in [Aggregate::Sum, Aggregate::Max] {
                let query = FannQuery::new(&p, &q, phi, agg);
                let ine = InePhi::new(&g, &q);
                let got = r_list(&g, &query, &ine).unwrap();
                let want = brute_force(&g, &query).unwrap();
                assert_eq!(got.dist, want.dist, "phi={phi} {agg}");
            }
        }
    }

    #[test]
    fn works_when_p_equals_q() {
        let g = grid(5, 5);
        let pq: Vec<u32> = vec![0, 6, 12, 18, 24];
        let query = FannQuery::new(&pq, &pq, 0.6, Aggregate::Sum);
        let ine = InePhi::new(&g, &pq);
        let got = r_list(&g, &query, &ine).unwrap();
        let want = brute_force(&g, &query).unwrap();
        assert_eq!(got.dist, want.dist);
    }

    #[test]
    fn handles_single_query_point() {
        // With |Q| = 1 and phi = 1, FANN_R degenerates to NN of q in P.
        let g = grid(4, 4);
        let p: Vec<u32> = vec![0, 5, 15];
        let q = [10u32];
        let query = FannQuery::new(&p, &q, 1.0, Aggregate::Max);
        let ine = InePhi::new(&g, &q);
        let got = r_list(&g, &query, &ine).unwrap();
        let want = brute_force(&g, &query).unwrap();
        assert_eq!(got.dist, want.dist);
    }

    #[test]
    fn disconnected_q_component_none() {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        b.add_edge(3, 4, 1);
        let g = b.build();
        // P in one component, Q in the other; k = 2 unreachable.
        let p = [0u32, 1];
        let q = [2u32, 4];
        let query = FannQuery::new(&p, &q, 1.0, Aggregate::Sum);
        let ine = InePhi::new(&g, &q);
        assert!(r_list(&g, &query, &ine).is_none());
    }

    #[test]
    fn partially_reachable_uses_reachable_subset() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 2); // component A: p=0, q=1
        b.add_edge(2, 3, 1); // component B: q=3 (and p=2)
        b.add_edge(3, 4, 1);
        let g = b.build();
        let p = [0u32, 2];
        let q = [1u32, 3];
        // k = 1: p=0 reaches q=1 at 2; p=2 reaches q=3 at 1 -> best p=2.
        let query = FannQuery::new(&p, &q, 0.5, Aggregate::Sum);
        let ine = InePhi::new(&g, &q);
        let got = r_list(&g, &query, &ine).unwrap();
        assert_eq!((got.p_star, got.dist), (2, 1));
    }
}
