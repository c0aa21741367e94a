//! The "list of queues": one from-near-to-far data-object stream per query
//! point (paper §III-B / §IV-A).
//!
//! Each queue is a [`DijkstraIter`] from one query point, filtered to nodes
//! that carry a data object, with one-element lookahead. The queues are
//! advanced *alternately* ("switchable"): all per-queue state persists while
//! another queue runs. `R-List` and `Exact-max` are thin drivers on top.
//!
//! Memory: each queue owns one [`crate::QueryScratch`] drawn from a
//! [`ScratchPool`], i.e. a dense 8 B/node distance array plus 4 B per node
//! its expansion touched, so one query costs ≈ `8·n·|Q|` B of search state
//! and a worker's pool settles at its largest `|Q|` so far.

use crate::cancel::CancelCheck;
use crate::expansion::DijkstraIter;
use crate::graph::{Graph, NodeId};
use crate::recorder::SearchRecorder;
use crate::scratch::ScratchPool;
use crate::Dist;

/// The stream interface the `R-List` / `Exact-max` drivers consume: `|Q|`
/// from-near-to-far object queues advanced alternately. Implemented by
/// [`ObjectStreams`] (one private expansion per query) and by
/// [`SharedStreams`] (a per-query view over one [`SharedExpansion`] reused
/// across a co-located batch). Both yield identical sequences for the same
/// `(sources, objects)` pair, so a driver's answer does not depend on which
/// implementation backs it.
pub trait StreamSet {
    /// Number of streams (`|Q|`).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Head (next unreported object and its distance) of stream `i`,
    /// advancing the underlying expansion as needed. `None` once the
    /// stream's component holds no further objects.
    fn head(&mut self, i: usize) -> Option<(NodeId, Dist)>;

    /// Pop the head of stream `i`.
    fn pop(&mut self, i: usize) -> Option<(NodeId, Dist)>;

    /// Index + head of the stream whose head distance is smallest
    /// (`L_min` in Algorithm 2); distance ties break towards the smaller
    /// stream index. `None` when every stream is exhausted.
    fn min_head(&mut self) -> Option<(usize, NodeId, Dist)> {
        let mut best: Option<(usize, NodeId, Dist)> = None;
        for i in 0..self.len() {
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
    fn head_dists(&mut self) -> Vec<Option<Dist>> {
        (0..self.len())
            .map(|i| self.head(i).map(|(_, d)| d))
            .collect()
    }
}

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
    /// (`L_min` in Algorithm 2). `None` when every stream is exhausted.
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

    /// Total nodes settled across all streams — the expansion work metric
    /// reported by the efficiency experiments.
    pub fn total_settled(&self) -> usize {
        self.streams
            .iter()
            .map(|s| s.expansion.settled_count())
            .sum()
    }
}

impl<R: SearchRecorder, C: CancelCheck> StreamSet for ObjectStreams<'_, R, C> {
    fn len(&self) -> usize {
        ObjectStreams::len(self)
    }

    fn head(&mut self, i: usize) -> Option<(NodeId, Dist)> {
        ObjectStreams::head(self, i)
    }

    fn pop(&mut self, i: usize) -> Option<(NodeId, Dist)> {
        ObjectStreams::pop(self, i)
    }

    fn min_head(&mut self) -> Option<(usize, NodeId, Dist)> {
        ObjectStreams::min_head(self)
    }

    fn head_dists(&mut self) -> Vec<Option<Dist>> {
        ObjectStreams::head_dists(self)
    }
}

/// One multi-source Dijkstra expansion shared by a whole co-located batch
/// (queries with the same canonical `Q`): each source's settle sequence is
/// memoized the first time it is demanded, so `|batch|` queries pay for one
/// expansion instead of `|batch|` independent ones.
///
/// Per-query consumption goes through [`SharedExpansion::view`], which
/// filters the common settle logs by that query's own object set. Because
/// [`DijkstraIter`] is deterministic, a view yields bit-for-bit the stream
/// sequence a private [`ObjectStreams`] over the same `(sources, objects)`
/// would — the driver equivalence the locality tests pin down.
pub struct SharedExpansion<'g> {
    graph: &'g Graph,
    iters: Vec<DijkstraIter<'g>>,
    /// Memoized settle prefix per source, in settle order.
    logs: Vec<Vec<(NodeId, Dist)>>,
    /// Sources whose reachable component is fully logged.
    done: Vec<bool>,
}

impl<'g> SharedExpansion<'g> {
    /// One lazily-advancing expansion per source.
    pub fn new(graph: &'g Graph, sources: &[NodeId]) -> Self {
        let mut pool = ScratchPool::new();
        Self::with_pool(graph, sources, &mut pool)
    }

    /// [`SharedExpansion::new`] drawing expansion scratches from `pool`;
    /// pair with [`SharedExpansion::recycle_into`].
    pub fn with_pool(graph: &'g Graph, sources: &[NodeId], pool: &mut ScratchPool) -> Self {
        let iters = sources
            .iter()
            .map(|&q| DijkstraIter::with_scratch(graph, q, pool.take()))
            .collect::<Vec<_>>();
        let n = sources.len();
        SharedExpansion {
            graph,
            iters,
            logs: vec![Vec::new(); n],
            done: vec![false; n],
        }
    }

    /// Return every expansion scratch to `pool` for the next batch.
    pub fn recycle_into(self, pool: &mut ScratchPool) {
        for it in self.iters {
            pool.put(it.into_scratch());
        }
    }

    /// Number of sources.
    pub fn num_sources(&self) -> usize {
        self.iters.len()
    }

    /// Total nodes settled across all shared expansions (each counted
    /// once, no matter how many views consumed it).
    pub fn total_settled(&self) -> usize {
        self.iters.iter().map(|it| it.settled_count()).sum()
    }

    /// The `pos`-th settled node of source `i`, advancing the live
    /// expansion if the log is short. `None` once the source's reachable
    /// component is exhausted before `pos`.
    fn settled(&mut self, i: usize, pos: usize) -> Option<(NodeId, Dist)> {
        while self.logs[i].len() <= pos {
            if self.done[i] {
                return None;
            }
            match self.iters[i].next() {
                Some(entry) => self.logs[i].push(entry),
                None => {
                    self.done[i] = true;
                    return None;
                }
            }
        }
        Some(self.logs[i][pos])
    }

    /// A per-query stream view over the shared expansion, yielding members
    /// of `objects` from-near-to-far per source — the [`StreamSet`] a
    /// driver runs on. Views are consumed one at a time (each borrows the
    /// expansion mutably); the memoized logs persist across views.
    pub fn view(&mut self, objects: &[NodeId]) -> SharedStreams<'_, 'g> {
        let n = self.num_sources();
        SharedStreams {
            is_object: membership(self.graph.num_nodes(), objects),
            cursor: vec![0; n],
            head: vec![None; n],
            exhausted: vec![false; n],
            shared: self,
        }
    }
}

/// One query's [`StreamSet`] over a [`SharedExpansion`] (obtained from
/// [`SharedExpansion::view`]): replays the memoized settle logs, filtered
/// by this query's object membership, with the same one-element lookahead
/// as [`ObjectStreams`].
pub struct SharedStreams<'s, 'g> {
    shared: &'s mut SharedExpansion<'g>,
    is_object: Vec<bool>,
    /// Next unconsumed log position per stream.
    cursor: Vec<usize>,
    /// Lookahead: the next unreported object per stream, if any.
    head: Vec<Option<(NodeId, Dist)>>,
    exhausted: Vec<bool>,
}

impl SharedStreams<'_, '_> {
    fn fill(&mut self, i: usize) {
        if self.head[i].is_some() || self.exhausted[i] {
            return;
        }
        loop {
            match self.shared.settled(i, self.cursor[i]) {
                Some((v, d)) => {
                    self.cursor[i] += 1;
                    if self.is_object[v as usize] {
                        self.head[i] = Some((v, d));
                        return;
                    }
                }
                None => {
                    self.exhausted[i] = true;
                    return;
                }
            }
        }
    }
}

impl StreamSet for SharedStreams<'_, '_> {
    fn len(&self) -> usize {
        self.shared.num_sources()
    }

    fn head(&mut self, i: usize) -> Option<(NodeId, Dist)> {
        self.fill(i);
        self.head[i]
    }

    fn pop(&mut self, i: usize) -> Option<(NodeId, Dist)> {
        self.fill(i);
        self.head[i].take()
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

    /// Drain a StreamSet exactly the way the drivers do (min_head + pop),
    /// recording every pop.
    fn drain<S: StreamSet>(s: &mut S) -> Vec<(usize, NodeId, Dist)> {
        let mut out = Vec::new();
        while let Some((i, v, d)) = s.min_head() {
            out.push((i, v, d));
            s.pop(i);
        }
        out
    }

    #[test]
    fn shared_view_matches_private_streams() {
        let g = path5();
        let sources = [0u32, 4];
        let object_sets: [&[u32]; 4] = [&[0, 1, 2, 3, 4], &[1, 3], &[2], &[0, 4]];
        let mut shared = SharedExpansion::new(&g, &sources);
        for objects in object_sets {
            let got = drain(&mut shared.view(objects));
            let want = drain(&mut ObjectStreams::new(&g, &sources, objects));
            assert_eq!(got, want, "objects {objects:?}");
        }
    }

    #[test]
    fn shared_views_are_independent_and_replayable() {
        let g = path5();
        let mut shared = SharedExpansion::new(&g, &[2]);
        // First view partially consumes; a later view over the same
        // objects must still see the full sequence from the start.
        let mut v1 = shared.view(&[0, 4]);
        let first = v1.pop(0);
        drop(v1);
        let replay = drain(&mut shared.view(&[0, 4]));
        assert_eq!(replay.first().map(|&(_, v, d)| (v, d)), first);
        assert_eq!(replay.len(), 2);
    }

    #[test]
    fn shared_expansion_settles_each_node_once() {
        let g = path5();
        let mut shared = SharedExpansion::new(&g, &[0]);
        drain(&mut shared.view(&[4]));
        let settled_once = shared.total_settled();
        drain(&mut shared.view(&[4]));
        assert_eq!(
            shared.total_settled(),
            settled_once,
            "log replay, no re-expansion"
        );
    }

    #[test]
    fn shared_expansion_recycles_scratches() {
        let g = path5();
        let mut pool = ScratchPool::new();
        let mut shared = SharedExpansion::with_pool(&g, &[0, 4], &mut pool);
        drain(&mut shared.view(&[2]));
        shared.recycle_into(&mut pool);
        assert_eq!(pool.idle_count(), 2);
    }
}
