//! `Exact-max` (Algorithm 2, §IV-A): exact max-FANN_R with counters.
//!
//! Expansion runs *from `Q` towards `P`* — the reverse of `g_phi` — using
//! one from-near-to-far queue per query point. Every pop increments the
//! popped data point's counter; the first counter to reach `k = phi|Q|`
//! identifies `p*`: pops occur in globally non-decreasing distance order,
//! so the k sources that reported `p` are exactly its k nearest query
//! points, and the current pop distance is its max-aggregate.
//!
//! `max` only — Table II's counter-example (reproduced in the tests) shows
//! the counting argument fails for `sum`.

use crate::gphi::GPhi;
use crate::metrics::Recorder;
use crate::{Aggregate, FannAnswer, FannQuery};
use roadnet::cancel::{CancelCheck, Cancelled};
use roadnet::{Dist, Graph, NodeId, ObjectStreams, ScratchPool};
use std::collections::HashMap;

/// A fired counter: the winning data point plus its `k` nearest query
/// points with their distances.
type Fired = Option<(NodeId, Vec<(NodeId, Dist)>)>;

fn counter_loop<R: Recorder>(
    g: &Graph,
    query: &FannQuery,
    pool: &mut ScratchPool,
    rec: R,
) -> Fired {
    match counter_loop_cancellable(g, query, pool, rec, ()) {
        Ok(fired) => fired,
        Err(Cancelled) => unreachable!("the unit CancelCheck never cancels"),
    }
}

/// Run the counter loop; returns `(p*, hits)` where `hits` are the
/// `(query_point, dist)` pairs that fired, or `None` if the queues exhaust
/// before any counter reaches `k`. Expansion scratches are drawn from (and
/// returned to) `pool`. Data points whose counter never started before the
/// winner fired are reported to `rec` as pruned.
fn counter_loop_cancellable<R: Recorder, C: CancelCheck>(
    g: &Graph,
    query: &FannQuery,
    pool: &mut ScratchPool,
    rec: R,
    cancel: C,
) -> Result<Fired, Cancelled> {
    let mut streams = ObjectStreams::with_pool_cancellable(g, query.q, query.p, pool, rec, cancel);
    // Every exit leaves through the block's value, so the scratches are
    // recycled whether the counters fired, ran dry or were cancelled.
    let fired = 'scan: {
        let k = query.subset_size();
        let mut hits: HashMap<NodeId, Vec<(NodeId, Dist)>> = HashMap::new();
        let mut fired = None;
        while let Some((i, pnode, d)) = streams.min_head() {
            if cancel.poll_cancelled() {
                break 'scan Err(Cancelled);
            }
            let entry = hits.entry(pnode).or_default();
            entry.push((query.q[i], d));
            if entry.len() >= k {
                fired = Some((pnode, hits.remove(&pnode).expect("just inserted")));
                break;
            }
            streams.pop(i);
        }
        // Data points whose counter never started (duplicate-free P).
        let touched = hits.len() + usize::from(fired.is_some());
        rec.pruned(query.p.len().saturating_sub(touched) as u64);
        // A cancelled stream looks exhausted — `fired = None` here could
        // mean "unreachable" or "truncated". Re-check exactly before
        // trusting it.
        if cancel.cancelled_now() {
            break 'scan Err(Cancelled);
        }
        Ok(fired)
    };
    streams.recycle_into(pool);
    fired
}

/// Exact max-FANN_R. The optimal subset is recovered from the counter
/// hits directly — no `g_phi` invocation at all (an index-free variant of
/// Algorithm 2).
///
/// # Panics
/// If the query aggregate is not [`Aggregate::Max`].
pub fn exact_max(g: &Graph, query: &FannQuery) -> Option<FannAnswer> {
    exact_max_traced(g, query, &mut ScratchPool::new(), ())
}

/// [`exact_max`] drawing the `|Q|` expansion scratches from `pool`, with a
/// live [`Recorder`] observing the counter loop's expansion work and
/// pruned data points; the `()` recorder makes this identical to the
/// untraced path.
///
/// # Panics
/// If the query aggregate is not [`Aggregate::Max`].
pub fn exact_max_traced<R: Recorder>(
    g: &Graph,
    query: &FannQuery,
    pool: &mut ScratchPool,
    rec: R,
) -> Option<FannAnswer> {
    match exact_max_cancellable(g, query, pool, rec, ()) {
        Ok(a) => a,
        Err(Cancelled) => unreachable!("the unit CancelCheck never cancels"),
    }
}

/// [`exact_max_traced`] with a live [`CancelCheck`] polled by the `|Q|`
/// expansions and the counter loop; the `()` check makes this identical to
/// the uncancellable path.
///
/// # Panics
/// If the query aggregate is not [`Aggregate::Max`].
pub fn exact_max_cancellable<R: Recorder, C: CancelCheck>(
    g: &Graph,
    query: &FannQuery,
    pool: &mut ScratchPool,
    rec: R,
    cancel: C,
) -> Result<Option<FannAnswer>, Cancelled> {
    assert_eq!(
        query.agg,
        Aggregate::Max,
        "Exact-max answers max-FANN_R only (see the Table II counter-example)"
    );
    let Some((p_star, hits)) = counter_loop_cancellable(g, query, pool, rec, cancel)? else {
        return Ok(None);
    };
    let dist = hits.iter().map(|&(_, d)| d).max().expect("k >= 1");
    Ok(Some(FannAnswer {
        p_star,
        subset: hits.into_iter().map(|(q, _)| q).collect(),
        dist,
    }))
}

/// Algorithm 2 exactly as printed: identify `p*` by counters, then invoke
/// the supplied `g_phi` once (line 8). Used by the Table V experiment,
/// which shows the choice of `g_phi` barely matters here.
///
/// # Panics
/// If the query aggregate is not [`Aggregate::Max`].
pub fn exact_max_with_gphi(g: &Graph, query: &FannQuery, gphi: &dyn GPhi) -> Option<FannAnswer> {
    assert_eq!(
        query.agg,
        Aggregate::Max,
        "Exact-max answers max-FANN_R only (see the Table II counter-example)"
    );
    let (p_star, _) = counter_loop(g, query, &mut ScratchPool::new(), ())?;
    let r = gphi
        .eval(p_star, query.subset_size(), Aggregate::Max)
        .expect("p* reached k query points during the counter loop");
    Some(FannAnswer {
        p_star,
        subset: r.subset_nodes(),
        dist: r.dist,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::brute::brute_force;
    use crate::gphi::ine::InePhi;
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
                    b.add_edge(v, v + 1, 1 + (x + y * 2) % 4);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + (x * 2 + y) % 3);
                }
            }
        }
        b.build()
    }

    #[test]
    fn matches_brute_force() {
        let g = grid(7, 6);
        let p: Vec<u32> = (0..42).step_by(3).collect();
        let q: Vec<u32> = vec![2, 13, 27, 38, 41];
        for phi in [0.2, 0.4, 0.6, 1.0] {
            let query = FannQuery::new(&p, &q, phi, Aggregate::Max);
            let want = brute_force(&g, &query).unwrap();
            let got = exact_max(&g, &query).unwrap();
            assert_eq!(got.dist, want.dist, "phi={phi}");
            let ine = InePhi::new(&g, &q);
            let got2 = exact_max_with_gphi(&g, &query, &ine).unwrap();
            assert_eq!(got2.dist, want.dist);
            assert_eq!(got2.p_star, got.p_star);
        }
    }

    #[test]
    fn figure1_example() {
        // §IV-A running example: phi = 50% gives p* = p3 (id 2), d* = 2,
        // Q*_phi = {q1, q2}.
        let (g, p, q) = crate::algo::brute::tests::figure1();
        let query = FannQuery::new(&p, &q, 0.5, Aggregate::Max);
        let a = exact_max(&g, &query).unwrap();
        assert_eq!((a.p_star, a.dist), (2, 2));
        let mut subset = a.subset.clone();
        subset.sort_unstable();
        assert_eq!(subset, vec![9, 10]);
    }

    #[test]
    #[should_panic(expected = "max-FANN_R only")]
    fn rejects_sum() {
        let g = grid(3, 3);
        let p = [0u32];
        let q = [8u32];
        let query = FannQuery::new(&p, &q, 1.0, Aggregate::Sum);
        let _ = exact_max(&g, &query);
    }

    /// Table II: the counter argument is wrong for `sum`. Construct the
    /// table's instance and verify that (a) the counter answer would be
    /// p2 with sum 14, but (b) the true optimum is p1 with sum 13.
    #[test]
    fn table2_counter_example_for_sum() {
        // Star-like construction: 5 query nodes, 5 data nodes, distances
        // per Table II realized with dedicated paths through the sources.
        // We need: d(q1,p2)=4, d(q1,p3)=12, d(q2,p1)=2, d(q2,p2)=10,
        // d(q3,p1)=11, d(q4,p4)=14, d(q5,p2)=15.
        let mut b = GraphBuilder::new();
        // ids: p1..p5 -> 0..4, q1..q5 -> 5..9
        for i in 0..10 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(5, 1, 4); // q1 - p2
        b.add_edge(6, 0, 2); // q2 - p1
        b.add_edge(7, 0, 11); // q3 - p1
        b.add_edge(8, 3, 14); // q4 - p4
        b.add_edge(9, 1, 15); // q5 - p2
                              // Link q1 and q2 so q1-p3 = 12 via q1-q2... keep it simple with a
                              // direct edge q2 - p2 making d(q2,p2)=10 and q1-p3 = 12 direct.
        b.add_edge(6, 1, 10); // q2 - p2
        b.add_edge(5, 2, 12); // q1 - p3
        let g = b.build();
        let p: Vec<u32> = (0..5).collect();
        let q: Vec<u32> = (5..10).collect();
        let query = FannQuery::new(&p, &q, 0.4, Aggregate::Sum); // k = 2
        let want = brute_force(&g, &query).unwrap();
        assert_eq!((want.p_star, want.dist), (0, 13)); // p1, 2 + 11
                                                       // The counter loop (ignoring the aggregate) would fire on p2 = id 1
                                                       // first, whose true sum distance is 14 > 13 — hence max-only.
        let max_query = FannQuery::new(&p, &q, 0.4, Aggregate::Max);
        let (fired, _) = counter_loop(&g, &max_query, &mut ScratchPool::new(), ()).unwrap();
        assert_eq!(fired, 1); // p2 fires first...
        let sum_of_fired = crate::algo::brute::brute_force_point(&g, &query, fired).unwrap();
        assert_eq!(sum_of_fired, 14); // ...but is not the sum-optimum.
    }

    #[test]
    fn none_when_unreachable() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        let g = b.build();
        let p = [0u32];
        let q = [2u32, 3];
        let query = FannQuery::new(&p, &q, 1.0, Aggregate::Max);
        assert!(exact_max(&g, &query).is_none());
    }

    #[test]
    fn subset_size_is_k() {
        let g = grid(6, 6);
        let p: Vec<u32> = (0..36).step_by(5).collect();
        let q: Vec<u32> = vec![1, 10, 20, 30];
        let query = FannQuery::new(&p, &q, 0.75, Aggregate::Max);
        let a = exact_max(&g, &query).unwrap();
        assert_eq!(a.subset.len(), 3);
    }
}
