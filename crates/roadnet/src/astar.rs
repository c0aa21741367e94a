//! A* point-to-point search with an admissible Euclidean lower bound.
//!
//! The paper evaluates A* \[13\] as one of the `g_phi` backends (Table I).
//! Admissibility is provided by [`crate::LowerBound`], which scales raw
//! Euclidean distances so they never exceed network distances.

use crate::cancel::{CancelCheck, Cancelled};
use crate::graph::{Graph, NodeId};
use crate::lowerbound::LowerBound;
use crate::recorder::SearchRecorder;
use crate::scratch::QueryScratch;
use crate::Dist;

/// A* search from `s` to `t` using lower bound `lb`; `None` if unreachable.
///
/// With an admissible (never over-estimating) heuristic this returns the
/// exact shortest-path distance, settling no more nodes than Dijkstra.
pub fn astar_pair(g: &Graph, lb: &LowerBound, s: NodeId, t: NodeId) -> Option<Dist> {
    astar_pair_with(g, lb, s, t, &mut QueryScratch::new())
}

/// [`astar_pair`] reusing `scratch`'s buffers — the throughput entry point:
/// no `O(|V|)` allocation or refill per query once the scratch has grown to
/// `|V|`. The scratch's distance slots hold g-values; the heap is keyed by
/// f = g + h.
pub fn astar_pair_with(
    g: &Graph,
    lb: &LowerBound,
    s: NodeId,
    t: NodeId,
    scratch: &mut QueryScratch,
) -> Option<Dist> {
    astar_pair_recorded(g, lb, s, t, scratch, ())
}

/// [`astar_pair_with`] with a live [`SearchRecorder`]; the `()` recorder
/// makes this identical to the untraced path.
pub fn astar_pair_recorded<R: SearchRecorder>(
    g: &Graph,
    lb: &LowerBound,
    s: NodeId,
    t: NodeId,
    scratch: &mut QueryScratch,
    rec: R,
) -> Option<Dist> {
    match astar_pair_cancellable(g, lb, s, t, scratch, rec, ()) {
        Ok(d) => d,
        Err(Cancelled) => unreachable!("the unit CancelCheck never cancels"),
    }
}

/// [`astar_pair_recorded`] with a live [`CancelCheck`] polled once per
/// settled node (see [`crate::dijkstra::dijkstra_pair_cancellable`]). The
/// `()` check makes this identical to the uncancellable path.
pub fn astar_pair_cancellable<R: SearchRecorder, C: CancelCheck>(
    g: &Graph,
    lb: &LowerBound,
    s: NodeId,
    t: NodeId,
    scratch: &mut QueryScratch,
    rec: R,
    cancel: C,
) -> Result<Option<Dist>, Cancelled> {
    if s == t {
        return Ok(Some(0));
    }
    let csr = g.csr();
    scratch.begin(csr.num_nodes());
    scratch.set_dist(s, 0);
    scratch.push(lb.bound(g, s, t), s);
    rec.heap_push();
    while let Some((f, v)) = scratch.pop() {
        rec.heap_pop();
        let d = scratch.dist(v);
        if v == t {
            rec.node_settled();
            return Ok(Some(d));
        }
        // Stale check: recompute f from the current g-value.
        if f > d.saturating_add(lb.bound(g, v, t)) {
            continue;
        }
        if cancel.poll_cancelled() {
            return Err(Cancelled);
        }
        rec.node_settled();
        for (nb, w) in csr.neighbors(v) {
            rec.edge_relaxed();
            let nd = d + w as Dist;
            if nd < scratch.dist(nb) {
                scratch.set_dist(nb, nd);
                scratch.push(nd + lb.bound(g, nb, t), nb);
                rec.heap_push();
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_pair;
    use crate::graph::GraphBuilder;

    /// 3x3 grid with unit spacing; weights = rounded-up Euclidean lengths.
    fn grid() -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..3 {
            for x in 0..3 {
                b.add_node(x as f64 * 10.0, y as f64 * 10.0);
            }
        }
        for y in 0..3u32 {
            for x in 0..3u32 {
                let v = y * 3 + x;
                if x + 1 < 3 {
                    b.add_edge(v, v + 1, 10);
                }
                if y + 1 < 3 {
                    b.add_edge(v, v + 3, 12); // vertical roads are slower
                }
            }
        }
        b.build()
    }

    #[test]
    fn astar_equals_dijkstra_on_grid() {
        let g = grid();
        let lb = LowerBound::for_graph(&g);
        for s in 0..9 {
            for t in 0..9 {
                assert_eq!(
                    astar_pair(&g, &lb, s, t),
                    dijkstra_pair(&g, s, t),
                    "mismatch for {s}->{t}"
                );
            }
        }
    }

    #[test]
    fn astar_with_recycled_scratch_matches_fresh() {
        let g = grid();
        let lb = LowerBound::for_graph(&g);
        let mut scratch = QueryScratch::new();
        for s in 0..9 {
            for t in 0..9 {
                assert_eq!(
                    astar_pair_with(&g, &lb, s, t, &mut scratch),
                    astar_pair(&g, &lb, s, t),
                    "mismatch for {s}->{t}"
                );
            }
        }
    }

    #[test]
    fn astar_same_node_is_zero() {
        let g = grid();
        let lb = LowerBound::for_graph(&g);
        assert_eq!(astar_pair(&g, &lb, 4, 4), Some(0));
    }

    #[test]
    fn astar_unreachable_is_none() {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        b.add_node(100.0, 0.0);
        let g = b.build();
        let lb = LowerBound::for_graph(&g);
        assert_eq!(astar_pair(&g, &lb, 0, 1), None);
    }
}
