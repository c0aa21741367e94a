//! Single-source and point-to-point Dijkstra search.

use crate::cancel::{CancelCheck, Cancelled};
use crate::graph::{Graph, NodeId};
use crate::recorder::SearchRecorder;
use crate::scratch::QueryScratch;
use crate::{Dist, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shortest-path distances from `src` to every node.
///
/// Unreachable nodes get [`INF`]. `O(|E| + |V| log |V|)` with a binary heap
/// and lazy deletion.
pub fn dijkstra_all(g: &Graph, src: NodeId) -> Vec<Dist> {
    let mut dist = vec![INF; g.num_nodes()];
    let mut heap: BinaryHeap<(Reverse<Dist>, NodeId)> = BinaryHeap::new();
    dist[src as usize] = 0;
    heap.push((Reverse(0), src));
    while let Some((Reverse(d), v)) = heap.pop() {
        if d > dist[v as usize] {
            continue; // stale entry
        }
        for (t, w) in g.neighbors(v) {
            let nd = d + w as Dist;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push((Reverse(nd), t));
            }
        }
    }
    dist
}

/// Point-to-point shortest-path distance; `None` when `t` is unreachable.
/// Terminates as soon as `t` is settled.
pub fn dijkstra_pair(g: &Graph, s: NodeId, t: NodeId) -> Option<Dist> {
    dijkstra_pair_with(g, s, t, &mut QueryScratch::new())
}

/// [`dijkstra_pair`] reusing `scratch`'s buffers — the throughput entry
/// point: no `O(|V|)` allocation or refill per query once the scratch has
/// grown to `|V|`.
pub fn dijkstra_pair_with(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    scratch: &mut QueryScratch,
) -> Option<Dist> {
    dijkstra_pair_recorded(g, s, t, scratch, ())
}

/// [`dijkstra_pair_with`] with a live [`SearchRecorder`]; the `()` recorder
/// makes this identical to the untraced path.
pub fn dijkstra_pair_recorded<R: SearchRecorder>(
    g: &Graph,
    s: NodeId,
    t: NodeId,
    scratch: &mut QueryScratch,
    rec: R,
) -> Option<Dist> {
    match dijkstra_pair_cancellable(g, s, t, scratch, rec, ()) {
        Ok(d) => d,
        Err(Cancelled) => unreachable!("the unit CancelCheck never cancels"),
    }
}

/// [`dijkstra_pair_recorded`] with a live [`CancelCheck`] polled once per
/// settled node: the search stops within one node expansion of
/// cancellation and reports [`Cancelled`] instead of a (possibly wrong)
/// distance. The `()` check makes this identical to the uncancellable
/// path.
pub fn dijkstra_pair_cancellable<R: SearchRecorder, C: CancelCheck>(
    g: &Graph,
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
    scratch.push(0, s);
    rec.heap_push();
    while let Some((d, v)) = scratch.pop() {
        rec.heap_pop();
        if v == t {
            rec.node_settled();
            return Ok(Some(d));
        }
        if d > scratch.dist(v) {
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
                scratch.push(nd, nb);
                rec.heap_push();
            }
        }
    }
    Ok(None)
}

/// Distances from `src` to all nodes within network radius `bound`
/// (inclusive), as `(node, dist)` pairs in settle order.
///
/// This is the building block for coverage-ratio workload generation
/// (query region `A x radius`, §VI-A) and for range-restricted expansion.
pub fn dijkstra_bounded(g: &Graph, src: NodeId, bound: Dist) -> Vec<(NodeId, Dist)> {
    let mut dist = vec![INF; g.num_nodes()];
    let mut heap: BinaryHeap<(Reverse<Dist>, NodeId)> = BinaryHeap::new();
    let mut out = Vec::new();
    dist[src as usize] = 0;
    heap.push((Reverse(0), src));
    while let Some((Reverse(d), v)) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        if d > bound {
            break;
        }
        out.push((v, d));
        for (t, w) in g.neighbors(v) {
            let nd = d + w as Dist;
            if nd < dist[t as usize] {
                dist[t as usize] = nd;
                heap.push((Reverse(nd), t));
            }
        }
    }
    out
}

/// Network eccentricity of `src`: the maximum finite shortest-path distance
/// from `src` (the paper's *radius* seed computation, §VI-A).
pub fn eccentricity(g: &Graph, src: NodeId) -> Dist {
    dijkstra_all(g, src)
        .into_iter()
        .filter(|&d| d != INF)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Path graph 0 - 1 - 2 - 3 with weights 1, 2, 3.
    fn path() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 3);
        b.build()
    }

    #[test]
    fn all_distances_on_path() {
        let g = path();
        assert_eq!(dijkstra_all(&g, 0), vec![0, 1, 3, 6]);
        assert_eq!(dijkstra_all(&g, 3), vec![6, 5, 3, 0]);
    }

    #[test]
    fn pair_matches_all() {
        let g = path();
        assert_eq!(dijkstra_pair(&g, 0, 3), Some(6));
        assert_eq!(dijkstra_pair(&g, 2, 2), Some(0));
    }

    #[test]
    fn pair_with_recycled_scratch_matches_fresh() {
        let g = path();
        let mut scratch = QueryScratch::new();
        for s in 0..4 {
            for t in 0..4 {
                assert_eq!(
                    dijkstra_pair_with(&g, s, t, &mut scratch),
                    dijkstra_pair(&g, s, t),
                    "mismatch for {s}->{t}"
                );
            }
        }
    }

    #[test]
    fn unreachable_is_none_and_inf() {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        b.add_node(1.0, 0.0);
        let g = b.build();
        assert_eq!(dijkstra_pair(&g, 0, 1), None);
        assert_eq!(dijkstra_all(&g, 0)[1], INF);
    }

    #[test]
    fn shortest_path_prefers_cheaper_detour() {
        // 0 -10- 1, 0 -1- 2 -1- 1: detour costs 2.
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 10);
        b.add_edge(0, 2, 1);
        b.add_edge(2, 1, 1);
        let g = b.build();
        assert_eq!(dijkstra_pair(&g, 0, 1), Some(2));
    }

    #[test]
    fn bounded_stops_at_radius() {
        let g = path();
        let within = dijkstra_bounded(&g, 0, 3);
        assert_eq!(within, vec![(0, 0), (1, 1), (2, 3)]);
    }

    #[test]
    fn bounded_yields_settle_order() {
        let g = path();
        let all = dijkstra_bounded(&g, 1, u64::MAX);
        assert_eq!(all, vec![(1, 0), (0, 1), (2, 2), (3, 5)]);
    }

    #[test]
    fn eccentricity_of_path_end() {
        let g = path();
        assert_eq!(eccentricity(&g, 0), 6);
        assert_eq!(eccentricity(&g, 1), 5);
    }
}
