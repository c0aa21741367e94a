//! The "list of queues": one from-near-to-far data-object stream per query
//! point (paper §III-B / §IV-A).
//!
//! Each queue is a [`DijkstraIter`] from one query point, filtered to nodes
//! that carry a data object, with one-element lookahead. The queues are
//! advanced *alternately* ("switchable"): all per-queue state persists while
//! another queue runs. `R-List` and `Exact-max` are thin drivers on top.
//! [`ObjectStreams`] is the one stream set: every query expands its own
//! `|Q|` queues, which poll the query's [`CancelCheck`] as they settle.
//!
//! Memory: each queue owns one [`crate::QueryScratch`] drawn from a
//! [`ScratchPool`], i.e. a `n/16` B block table plus a 512 B chunk of
//! distances per 64-node block its expansion touched. So one query's
//! search state follows how far its `|Q|` expansions reach, not `n·|Q|`,
//! and a worker's pool keeps, per scratch, the most chunks one of its
//! expansions has needed so far.

use crate::cancel::CancelCheck;
use crate::expansion::DijkstraIter;
use crate::graph::{Graph, NodeId};
use crate::recorder::SearchRecorder;
use crate::scratch::ScratchPool;
use crate::Dist;

/// Build a node-indexed membership mask for a set of object nodes.
pub fn membership(num_nodes: usize, objects: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; num_nodes];
    for &p in objects {
        assert!(
            (p as usize) < num_nodes,
            "object node {p} out of range (n = {num_nodes})"
        );
        mask[p as usize] = true;
    }
    mask
}

/// One from-near-to-far stream of data objects around a single source.
struct ObjectStream<'g, R: SearchRecorder = (), C: CancelCheck = ()> {
    expansion: DijkstraIter<'g, R, C>,
    /// Lookahead: the next unreported object, if any.
    head: Option<(NodeId, Dist)>,
    exhausted: bool,
}

impl<R: SearchRecorder, C: CancelCheck> ObjectStream<'_, R, C> {
    /// Ensure `head` holds the next object (advancing the expansion).
    fn fill(&mut self, is_object: &[bool]) {
        if self.head.is_some() || self.exhausted {
            return;
        }
        for (v, d) in self.expansion.by_ref() {
            if is_object[v as usize] {
                self.head = Some((v, d));
                return;
            }
        }
        self.exhausted = true;
    }
}

/// `|Q|` interleaved object streams over a common object set.
///
/// When built with a live [`CancelCheck`], a fired check makes every
/// stream look exhausted; drivers must re-check the token exactly (its
/// sticky flag is set by the fired poll) before treating exhaustion as
/// "no further objects".
pub struct ObjectStreams<'g, R: SearchRecorder = (), C: CancelCheck = ()> {
    streams: Vec<ObjectStream<'g, R, C>>,
    is_object: Vec<bool>,
}

impl<'g> ObjectStreams<'g> {
    /// One stream per source in `sources`, yielding members of `objects`.
    pub fn new(graph: &'g Graph, sources: &[NodeId], objects: &[NodeId]) -> Self {
        let mut pool = ScratchPool::new();
        Self::with_pool(graph, sources, objects, &mut pool)
    }

    /// [`ObjectStreams::new`] drawing the `|Q|` expansion scratches from
    /// `pool` instead of allocating fresh ones — the throughput entry point.
    /// Pair with [`ObjectStreams::recycle_into`] to return the scratches
    /// once the query is answered.
    pub fn with_pool(
        graph: &'g Graph,
        sources: &[NodeId],
        objects: &[NodeId],
        pool: &mut ScratchPool,
    ) -> Self {
        Self::with_pool_recorded(graph, sources, objects, pool, ())
    }
}

impl<'g, R: SearchRecorder> ObjectStreams<'g, R> {
    /// [`ObjectStreams::with_pool`] with a live [`SearchRecorder`] observing
    /// every underlying expansion; the `()` recorder makes this identical to
    /// the untraced path.
    pub fn with_pool_recorded(
        graph: &'g Graph,
        sources: &[NodeId],
        objects: &[NodeId],
        pool: &mut ScratchPool,
        rec: R,
    ) -> Self {
        Self::with_pool_cancellable(graph, sources, objects, pool, rec, ())
    }
}

impl<'g, R: SearchRecorder, C: CancelCheck> ObjectStreams<'g, R, C> {
    /// [`ObjectStreams::with_pool_recorded`] with a live [`CancelCheck`]
    /// shared by every underlying expansion; the `()` check makes this
    /// identical to the uncancellable path.
    pub fn with_pool_cancellable(
        graph: &'g Graph,
        sources: &[NodeId],
        objects: &[NodeId],
        pool: &mut ScratchPool,
        rec: R,
        cancel: C,
    ) -> Self {
        let is_object = membership(graph.num_nodes(), objects);
        let streams = sources
            .iter()
            .map(|&q| ObjectStream {
                expansion: DijkstraIter::cancellable(graph, q, pool.take(), rec, cancel),
                head: None,
                exhausted: false,
            })
            .collect();
        ObjectStreams { streams, is_object }
    }

    /// Tear down the streams and return every expansion scratch to `pool`
    /// for the next query.
    pub fn recycle_into(self, pool: &mut ScratchPool) {
        for s in self.streams {
            pool.put(s.expansion.into_scratch());
        }
    }

    /// Number of streams (`|Q|`).
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Head (next unreported object and its distance) of stream `i`,
    /// advancing the underlying expansion as needed. `None` once the
    /// stream's component holds no further objects.
    pub fn head(&mut self, i: usize) -> Option<(NodeId, Dist)> {
        let s = &mut self.streams[i];
        s.fill(&self.is_object);
        s.head
    }

    /// Pop the head of stream `i`.
    pub fn pop(&mut self, i: usize) -> Option<(NodeId, Dist)> {
        let s = &mut self.streams[i];
        s.fill(&self.is_object);
        s.head.take()
    }

    /// Index + head of the stream whose head distance is smallest
    /// (`L_min` in Algorithm 2); distance ties break towards the smaller
    /// stream index. `None` when every stream is exhausted.
    pub fn min_head(&mut self) -> Option<(usize, NodeId, Dist)> {
        let mut best: Option<(usize, NodeId, Dist)> = None;
        for i in 0..self.streams.len() {
            if let Some((v, d)) = self.head(i) {
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, v, d));
                }
            }
        }
        best
    }

    /// Current head distances of all streams (exhausted streams yield
    /// `None`). Used to evaluate the R-List threshold.
    pub fn head_dists(&mut self) -> Vec<Option<Dist>> {
        (0..self.streams.len())
            .map(|i| self.head(i).map(|(_, d)| d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// Path 0-1-2-3-4 with unit weights; objects at 0 and 4.
    fn path5() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(i as f64, 0.0);
        }
        for i in 0..4 {
            b.add_edge(i, i + 1, 1);
        }
        b.build()
    }

    #[test]
    fn streams_yield_objects_near_to_far() {
        let g = path5();
        let mut s = ObjectStreams::new(&g, &[1], &[0, 4]);
        assert_eq!(s.pop(0), Some((0, 1)));
        assert_eq!(s.pop(0), Some((4, 3)));
        assert_eq!(s.pop(0), None);
    }

    #[test]
    fn min_head_picks_globally_nearest() {
        let g = path5();
        // Sources at both ends, objects at 1 and 2.
        let mut s = ObjectStreams::new(&g, &[0, 4], &[1, 2]);
        // Stream 0 head: (1, 1); stream 1 head: (2, 2).
        assert_eq!(s.min_head(), Some((0, 1, 1)));
        s.pop(0);
        // Stream 0 head: (2, 2); stream 1 head: (2, 2): tie, first wins.
        assert_eq!(s.min_head(), Some((0, 2, 2)));
    }

    #[test]
    fn head_is_idempotent() {
        let g = path5();
        let mut s = ObjectStreams::new(&g, &[2], &[0, 4]);
        // Nodes 0 and 4 are both at distance 2; the heap breaks the tie
        // towards the larger id, so 4 is reported first.
        assert_eq!(s.head(0), Some((4, 2)));
        assert_eq!(s.head(0), Some((4, 2)));
        assert_eq!(s.pop(0), Some((4, 2)));
        assert_eq!(s.pop(0), Some((0, 2)));
    }

    #[test]
    fn source_on_object_yields_distance_zero() {
        let g = path5();
        let mut s = ObjectStreams::new(&g, &[4], &[4]);
        assert_eq!(s.pop(0), Some((4, 0)));
        assert_eq!(s.pop(0), None);
    }

    #[test]
    fn head_dists_reports_exhaustion() {
        let g = path5();
        let mut s = ObjectStreams::new(&g, &[0, 4], &[2]);
        assert_eq!(s.head_dists(), vec![Some(2), Some(2)]);
        s.pop(0);
        assert_eq!(s.head_dists(), vec![None, Some(2)]);
    }

    #[test]
    fn interleaving_streams_is_safe() {
        let g = path5();
        let mut s = ObjectStreams::new(&g, &[0, 4], &[0, 1, 2, 3, 4]);
        // Alternate pops; each stream must still see all 5 objects in order.
        let mut got = [Vec::new(), Vec::new()];
        for _round in 0..5 {
            for (q, out) in got.iter_mut().enumerate() {
                let (v, d) = s.pop(q).unwrap();
                out.push((v, d));
            }
        }
        assert_eq!(got[0], vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        assert_eq!(got[1], vec![(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)]);
    }

    #[test]
    fn pooled_streams_match_fresh_and_recycle() {
        let g = path5();
        let mut pool = ScratchPool::new();
        // Three (Q, P) shapes on one pool, twice over: the pool grows to
        // the largest |Q| and scratches move between sources.
        let shapes: [(&[NodeId], &[NodeId]); 3] = [
            (&[0, 4], &[0, 1, 2, 3, 4]),
            (&[2], &[0, 4]),
            (&[1, 3, 4], &[2]),
        ];
        for (round, (q, p)) in shapes.iter().cycle().take(6).enumerate() {
            let mut s = ObjectStreams::with_pool(&g, q, p, &mut pool);
            let mut fresh = ObjectStreams::new(&g, q, p);
            while let Some(head) = s.min_head() {
                assert_eq!(Some(head), fresh.min_head(), "Q {q:?}, P {p:?}");
                s.pop(head.0);
                fresh.pop(head.0);
            }
            assert_eq!(fresh.min_head(), None);
            s.recycle_into(&mut pool);
            let grown = if round < 2 { 2 } else { 3 };
            assert_eq!(pool.idle_count(), grown, "every scratch returned");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn membership_rejects_bad_node() {
        membership(3, &[5]);
    }
}
