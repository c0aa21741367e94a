//! Incremental network expansion (INE) as a pausable iterator.
//!
//! [`DijkstraIter`] settles nodes from-near-to-far around a source and can be
//! suspended and resumed at any point: all search state lives in the struct,
//! so `|Q|` expansions can be interleaved — the "switchable" multi-source
//! Dijkstra the paper's `R-List` and `Exact-max` need (§IV-A implementation
//! details). Search state lives in a recycled [`QueryScratch`] (a dense
//! distance array reset through its touched list, plus a reusable heap), so
//! a long stream of expansions over the same graph is allocation-free after
//! warm-up: construct via [`DijkstraIter::with_scratch`], recover the
//! buffers afterwards with [`DijkstraIter::into_scratch`], and hand them to
//! the next query. The adjacency is resolved to slices ([`Csr`]) once per
//! expansion.

use crate::cancel::CancelCheck;
use crate::graph::{Csr, Graph, NodeId};
use crate::recorder::SearchRecorder;
use crate::scratch::QueryScratch;
use crate::Dist;

/// A lazily-advancing Dijkstra expansion from a single source.
///
/// `next()` settles and returns the next nearest unsettled node as
/// `(node, dist)`; nodes are produced in non-decreasing distance order and
/// each node at most once. The `R` parameter is a [`SearchRecorder`]
/// instrumentation hook; `C` is a [`CancelCheck`] cancellation hook. The
/// default `()` for both records/cancels nothing and costs nothing.
///
/// A cancelled expansion yields `None` from `next()` exactly like an
/// exhausted one; drivers must consult [`DijkstraIter::was_cancelled`] (or
/// the token's exact check) before interpreting exhaustion as "no more
/// reachable nodes".
pub struct DijkstraIter<'g, R: SearchRecorder = (), C: CancelCheck = ()> {
    csr: Csr<'g>,
    scratch: QueryScratch,
    rec: R,
    cancel: C,
    cancelled: bool,
}

impl<'g> DijkstraIter<'g> {
    pub fn new(graph: &'g Graph, source: NodeId) -> Self {
        Self::with_scratch(graph, source, QueryScratch::new())
    }

    /// Start an expansion reusing `scratch`'s buffers (no per-query
    /// allocation once the scratch has grown to `|V|`). Get the buffers
    /// back with [`DijkstraIter::into_scratch`] when the expansion is done.
    pub fn with_scratch(graph: &'g Graph, source: NodeId, scratch: QueryScratch) -> Self {
        Self::recorded(graph, source, scratch, ())
    }
}

impl<'g, R: SearchRecorder> DijkstraIter<'g, R> {
    /// [`DijkstraIter::with_scratch`] with a live [`SearchRecorder`] that
    /// observes every settle/push/pop/relaxation of the expansion.
    pub fn recorded(graph: &'g Graph, source: NodeId, scratch: QueryScratch, rec: R) -> Self {
        Self::cancellable(graph, source, scratch, rec, ())
    }
}

impl<'g, R: SearchRecorder, C: CancelCheck> DijkstraIter<'g, R, C> {
    /// [`DijkstraIter::recorded`] with a live [`CancelCheck`] polled once
    /// per settled node; a cancelled expansion stops yielding and reports
    /// through [`DijkstraIter::was_cancelled`]. The `()` check makes this
    /// identical to the uncancellable path.
    pub fn cancellable(
        graph: &'g Graph,
        source: NodeId,
        mut scratch: QueryScratch,
        rec: R,
        cancel: C,
    ) -> Self {
        let csr = graph.csr();
        assert!(
            (source as usize) < csr.num_nodes(),
            "source {source} out of range"
        );
        scratch.begin(csr.num_nodes());
        scratch.set_dist(source, 0);
        scratch.push(0, source);
        rec.heap_push();
        DijkstraIter {
            csr,
            scratch,
            rec,
            cancel,
            cancelled: false,
        }
    }

    /// Whether this expansion stopped because its [`CancelCheck`] fired
    /// (as opposed to exhausting the reachable component).
    pub fn was_cancelled(&self) -> bool {
        self.cancelled
    }

    /// Recover the scratch for reuse by a later expansion.
    pub fn into_scratch(self) -> QueryScratch {
        self.scratch
    }

    /// Distance of the next node that would be settled, without settling it.
    pub fn peek_dist(&mut self) -> Option<Dist> {
        self.skip_stale();
        self.scratch.peek().map(|(d, _)| d)
    }

    /// Drop heap entries superseded by a shorter distance (lazy deletion;
    /// this also covers every entry of an already-settled node).
    fn skip_stale(&mut self) {
        while let Some((d, v)) = self.scratch.peek() {
            if d > self.scratch.dist(v) {
                self.scratch.pop();
                self.rec.heap_pop();
            } else {
                break;
            }
        }
    }
}

impl<R: SearchRecorder, C: CancelCheck> Iterator for DijkstraIter<'_, R, C> {
    type Item = (NodeId, Dist);

    fn next(&mut self) -> Option<(NodeId, Dist)> {
        if self.cancelled || self.cancel.poll_cancelled() {
            self.cancelled = true;
            return None;
        }
        let (d, v) = loop {
            let (d, v) = self.scratch.pop()?;
            self.rec.heap_pop();
            if d <= self.scratch.dist(v) {
                break (d, v);
            }
        };
        self.rec.node_settled();
        // Weights are >= 1, so `nd` never improves a settled neighbour.
        for (nb, w) in self.csr.neighbors(v) {
            self.rec.edge_relaxed();
            let nd = d + w as Dist;
            if nd < self.scratch.dist(nb) {
                self.scratch.set_dist(nb, nd);
                self.scratch.push(nd, nb);
                self.rec.heap_push();
            }
        }
        Some((v, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_all;
    use crate::graph::GraphBuilder;
    use crate::INF;

    fn diamond() -> Graph {
        // 0 -1- 1 -1- 3, 0 -3- 2 -1- 3
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 3, 1);
        b.add_edge(0, 2, 3);
        b.add_edge(2, 3, 1);
        b.build()
    }

    #[test]
    fn settles_in_distance_order() {
        let g = diamond();
        let order: Vec<_> = DijkstraIter::new(&g, 0).collect();
        assert_eq!(order, vec![(0, 0), (1, 1), (3, 2), (2, 3)]);
    }

    #[test]
    fn matches_full_dijkstra() {
        let g = diamond();
        let full = dijkstra_all(&g, 2);
        let mut seen = vec![INF; g.num_nodes()];
        for (v, d) in DijkstraIter::new(&g, 2) {
            seen[v as usize] = d;
        }
        assert_eq!(seen, full);
    }

    #[test]
    fn peek_does_not_consume() {
        let g = diamond();
        let mut it = DijkstraIter::new(&g, 0);
        assert_eq!(it.peek_dist(), Some(0));
        assert_eq!(it.peek_dist(), Some(0));
        assert_eq!(it.next(), Some((0, 0)));
        assert_eq!(it.peek_dist(), Some(1));
    }

    #[test]
    fn pausable_and_resumable() {
        let g = diamond();
        let mut it = DijkstraIter::new(&g, 0);
        let first: Vec<_> = it.by_ref().take(2).collect();
        assert_eq!(first, vec![(0, 0), (1, 1)]);
        // "Switch away" (do other work), then resume.
        let rest: Vec<_> = it.collect();
        assert_eq!(rest, vec![(3, 2), (2, 3)]);
    }

    #[test]
    fn exhausts_on_disconnected_component() {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        b.add_node(1.0, 0.0);
        b.add_node(2.0, 0.0);
        b.add_edge(0, 1, 1);
        let g = b.build();
        let settled: Vec<_> = DijkstraIter::new(&g, 0).collect();
        assert_eq!(settled, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn recycled_scratch_gives_identical_expansion() {
        let g = diamond();
        let baseline: Vec<Vec<_>> = (0..4).map(|s| DijkstraIter::new(&g, s).collect()).collect();
        let mut scratch = QueryScratch::new();
        for s in 0..4u32 {
            let mut it = DijkstraIter::with_scratch(&g, s, scratch);
            let order: Vec<_> = it.by_ref().collect();
            assert_eq!(order, baseline[s as usize], "source {s}");
            scratch = it.into_scratch();
        }
    }

    #[test]
    fn recycled_scratch_partial_expansion_is_clean() {
        let g = diamond();
        // Abandon an expansion midway; the next query must be unaffected.
        let mut it = DijkstraIter::new(&g, 0);
        it.by_ref().take(2).for_each(drop);
        let scratch = it.into_scratch();
        let order: Vec<_> = DijkstraIter::with_scratch(&g, 2, scratch).collect();
        let fresh: Vec<_> = DijkstraIter::new(&g, 2).collect();
        assert_eq!(order, fresh);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let g = diamond();
        let _ = DijkstraIter::new(&g, 99);
    }
}
