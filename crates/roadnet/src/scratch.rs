//! Recycled per-query search state (the batch/throughput substrate).
//!
//! Every Dijkstra-family search needs a distance array and a priority
//! queue. Allocating them per query (`vec![INF; n]`, a fresh `BinaryHeap`)
//! dominates query cost on large networks once the algorithmic work per
//! query is small — the classic throughput killer for query streams.
//! [`QueryScratch`] keeps those buffers alive across queries: one dense
//! `dist` array in which [`INF`] means "untouched", plus a `touched` list
//! of every node whose distance the search wrote. Starting the next query
//! resets exactly those entries, so a reset costs what the previous search
//! already paid to touch them — no `O(|V|)` refill, and no allocation once
//! the buffers have grown.
//!
//! No settled set is kept: with lazy deletion a heap entry is stale iff its
//! key exceeds the node's current distance, and since every weight is
//! `>= 1` a settled node can never be improved again. The memory is
//! therefore 8 B per graph node plus 4 B per node the largest search so far
//! touched.
//!
//! [`ScratchPool`] holds idle scratches for algorithms that run several
//! concurrent expansions (`ObjectStreams` keeps one per query point) so a
//! worker thread can recycle all of them across a whole query stream.

use crate::{Dist, NodeId, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `touched` capacity reserved when a scratch first sizes itself for a
/// graph, so a throw-away scratch running a small, local search does not
/// reallocate the list as it grows (4 KB; larger searches still grow it).
const TOUCHED_RESERVE: usize = 1024;

/// Reusable buffers for one Dijkstra/A\*/INE search.
///
/// Obtain one with [`QueryScratch::new`], hand it to the `*_with` search
/// entry points (or [`crate::DijkstraIter::with_scratch`]), and keep
/// reusing it: each search calls [`QueryScratch::begin`] internally, which
/// resets what the previous search touched.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Tentative distance per node; [`INF`] for every node not in `touched`.
    dist: Vec<Dist>,
    /// Nodes whose `dist` the current search has written.
    touched: Vec<NodeId>,
    /// Keyed by the search's priority (g for Dijkstra, f = g + h for A\*).
    heap: BinaryHeap<(Reverse<Dist>, NodeId)>,
}

impl QueryScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh search over a graph with `n` nodes: reset every
    /// distance the previous search wrote to [`INF`] and clear the heap.
    /// `O(touched)`; allocation-free once grown to `n`.
    pub fn begin(&mut self, n: usize) {
        for &v in &self.touched {
            self.dist[v as usize] = INF;
        }
        self.touched.clear();
        if self.dist.len() < n {
            if self.dist.is_empty() {
                self.touched.reserve(n.min(TOUCHED_RESERVE));
            }
            self.dist.resize(n, INF);
        }
        self.heap.clear();
    }

    /// Tentative distance of `v` in the current search ([`INF`] if untouched).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        self.dist[v as usize]
    }

    /// Set `v`'s tentative distance, listing `v` as touched on first write.
    #[inline]
    pub fn set_dist(&mut self, v: NodeId, d: Dist) {
        let slot = &mut self.dist[v as usize];
        if *slot == INF {
            self.touched.push(v);
        }
        *slot = d;
    }

    /// Push a heap entry keyed by `key` (g-value for Dijkstra, f for A\*).
    #[inline]
    pub fn push(&mut self, key: Dist, v: NodeId) {
        self.heap.push((Reverse(key), v));
    }

    /// Pop the minimum-key entry.
    #[inline]
    pub fn pop(&mut self) -> Option<(Dist, NodeId)> {
        self.heap.pop().map(|(Reverse(k), v)| (k, v))
    }

    /// Minimum key + node without popping.
    #[inline]
    pub fn peek(&self) -> Option<(Dist, NodeId)> {
        self.heap.peek().map(|&(Reverse(k), v)| (k, v))
    }
}

/// A stash of idle [`QueryScratch`]es for multi-expansion algorithms.
///
/// `ObjectStreams` runs `|Q|` concurrent expansions, each needing its own
/// scratch; a worker keeps one pool and the streams borrow from / return to
/// it between queries, so a stream of thousands of queries touches the
/// allocator only while the pool is warming up.
#[derive(Debug, Default)]
pub struct ScratchPool {
    idle: Vec<QueryScratch>,
}

impl ScratchPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Take an idle scratch, or create a fresh one if the pool is empty.
    pub fn take(&mut self) -> QueryScratch {
        self.idle.pop().unwrap_or_default()
    }

    /// Return a scratch for later reuse.
    pub fn put(&mut self, scratch: QueryScratch) {
        self.idle.push(scratch);
    }

    /// Number of idle scratches currently pooled.
    pub fn idle_count(&self) -> usize {
        self.idle.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reset invariant: every slot (also those beyond `n`, left from a
    /// larger graph) reads [`INF`], nothing is touched and the heap is
    /// empty.
    fn assert_clean(s: &QueryScratch, n: usize) {
        assert!(s.dist.len() >= n);
        assert!(s.dist.iter().all(|&d| d == INF), "stale distance");
        assert!(s.touched.is_empty(), "touched list survived begin");
        assert_eq!(s.peek(), None);
    }

    #[test]
    fn begin_invalidates_previous_state() {
        let mut s = QueryScratch::new();
        s.begin(4);
        s.set_dist(2, 7);
        s.set_dist(2, 5);
        s.set_dist(0, 9);
        s.push(7, 2);
        assert_eq!(s.dist(2), 5);
        assert_eq!(s.touched, vec![2, 0], "each node listed once");
        s.begin(4);
        assert_clean(&s, 4);
    }

    #[test]
    fn grows_to_larger_graphs() {
        let mut s = QueryScratch::new();
        s.begin(2);
        s.set_dist(1, 3);
        s.begin(10);
        assert_clean(&s, 10);
        s.set_dist(9, 1);
        assert_eq!(s.dist(9), 1);
        // A smaller graph next: the slots beyond it are reset too, so a
        // later larger search still starts clean.
        s.begin(3);
        assert_clean(&s, 3);
        s.set_dist(2, 4);
        s.begin(10);
        assert_clean(&s, 10);
    }

    #[test]
    fn heap_orders_by_key() {
        let mut s = QueryScratch::new();
        s.begin(5);
        s.push(5, 0);
        s.push(1, 1);
        s.push(3, 2);
        assert_eq!(s.pop(), Some((1, 1)));
        assert_eq!(s.peek(), Some((3, 2)));
        assert_eq!(s.pop(), Some((3, 2)));
        assert_eq!(s.pop(), Some((5, 0)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn pool_recycles() {
        let mut pool = ScratchPool::new();
        let mut a = pool.take();
        a.begin(8);
        a.set_dist(3, 9);
        pool.put(a);
        assert_eq!(pool.idle_count(), 1);
        let mut b = pool.take();
        assert_eq!(pool.idle_count(), 0);
        b.begin(8);
        assert_clean(&b, 8);
    }
}
