//! Recycled per-query search state (the batch/throughput substrate).
//!
//! Every Dijkstra-family search needs a distance array and a priority
//! queue. Allocating them per query (`vec![INF; n]`, a fresh `BinaryHeap`)
//! dominates query cost on large networks once the algorithmic work per
//! query is small — the classic throughput killer for query streams.
//! [`QueryScratch`] keeps those buffers alive across queries.
//!
//! The distances live in a two-level block table that follows the search,
//! not the graph. Node ids are cut into blocks of 64 consecutive ids;
//! `block` maps each to a 64-entry chunk of `chunks`, where chunk 0
//! is a shared all-[`INF`] chunk that every untouched block reads. The
//! first write into a block bump-allocates it a fresh `INF`-filled chunk
//! and lists the block in `used`. Starting the next query zeroes the used
//! slots and truncates `chunks` back to chunk 0, so a reset costs what the
//! previous search already paid to touch those blocks — no `O(|V|)`
//! refill, and no allocation once the buffers have grown. A lookup is two
//! direct loads, with no hashing or probing.
//!
//! No settled set is kept: with lazy deletion a heap entry is stale iff its
//! key exceeds the node's current distance, and since every weight is
//! `>= 1` a settled node can never be improved again. The memory is
//! therefore 4 B per 64 graph nodes (`n/16` B) plus 512 B per block
//! the largest search so far touched.
//!
//! [`ScratchPool`] holds idle scratches for algorithms that run several
//! concurrent expansions (`ObjectStreams` keeps one per query point) so a
//! worker thread can recycle all of them across a whole query stream.

use crate::{Dist, NodeId, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Consecutive node ids sharing one slot of the block table (and one
/// chunk of distances once the search writes into them).
const BLOCK: usize = 64;

/// Reusable buffers for one Dijkstra/A\*/INE search.
///
/// Obtain one with [`QueryScratch::new`], hand it to the `*_with` search
/// entry points (or [`crate::DijkstraIter::with_scratch`]), and keep
/// reusing it: each search calls [`QueryScratch::begin`] internally, which
/// resets what the previous search touched.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Chunk index per block of [`BLOCK`] node ids; 0 means untouched.
    block: Vec<u32>,
    /// Distance chunks; chunk 0 is all [`INF`] and is never written.
    chunks: Vec<[Dist; BLOCK]>,
    /// Blocks the current search gave a chunk, each listed once.
    used: Vec<u32>,
    /// Keyed by the search's priority (g for Dijkstra, f = g + h for A\*).
    heap: BinaryHeap<(Reverse<Dist>, NodeId)>,
}

impl QueryScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh search over a graph with `n` nodes: give every block
    /// the previous search wrote back to chunk 0, drop its chunks and clear
    /// the heap. `O(touched blocks)`; allocation-free once grown.
    pub fn begin(&mut self, n: usize) {
        for &b in &self.used {
            self.block[b as usize] = 0;
        }
        self.used.clear();
        self.chunks.truncate(1);
        if self.chunks.is_empty() {
            self.chunks.push([INF; BLOCK]);
        }
        let blocks = n.div_ceil(BLOCK);
        if self.block.len() < blocks {
            self.block.resize(blocks, 0);
        }
        self.heap.clear();
    }

    /// Tentative distance of `v` in the current search ([`INF`] if untouched).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Dist {
        let v = v as usize;
        self.chunks[self.block[v / BLOCK] as usize][v % BLOCK]
    }

    /// Set `v`'s tentative distance, giving its block a fresh chunk on the
    /// first write into it.
    #[inline]
    pub fn set_dist(&mut self, v: NodeId, d: Dist) {
        let v = v as usize;
        let slot = &mut self.block[v / BLOCK];
        if *slot == 0 {
            *slot = self.chunks.len() as u32;
            self.chunks.push([INF; BLOCK]);
            self.used.push((v / BLOCK) as u32);
        }
        self.chunks[*slot as usize][v % BLOCK] = d;
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

    /// The reset invariant: every block slot (also those beyond `n`, left
    /// from a larger graph) reads chunk 0, which is the only chunk and all
    /// [`INF`]; no block is listed as used and the heap is empty.
    fn assert_clean(s: &QueryScratch, n: usize) {
        assert!(s.block.len() * BLOCK >= n);
        assert!(s.block.iter().all(|&c| c == 0), "block kept a chunk");
        assert_eq!(s.chunks.len(), 1, "chunks not truncated to chunk 0");
        assert!(s.chunks[0].iter().all(|&d| d == INF), "chunk 0 written");
        assert!(s.used.is_empty(), "used list survived begin");
        assert!((0..n as NodeId).all(|v| s.dist(v) == INF), "stale distance");
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
        assert_eq!(s.dist(1), INF);
        assert_eq!(s.used, vec![0], "each block listed once");
        assert_eq!(s.chunks.len(), 2);
        s.begin(4);
        assert_clean(&s, 4);
    }

    #[test]
    fn grows_to_larger_graphs() {
        let mut s = QueryScratch::new();
        s.begin(2);
        s.set_dist(1, 3);
        s.begin(1000);
        assert_clean(&s, 1000);
        s.set_dist(999, 1);
        s.set_dist(5, 2);
        assert_eq!(s.dist(999), 1);
        assert_eq!(s.dist(5), 2);
        // A smaller graph next: the slots beyond it are reset too, so a
        // later larger search still starts clean.
        s.begin(3);
        assert_clean(&s, 3);
        s.set_dist(2, 4);
        s.begin(1000);
        assert_clean(&s, 1000);
    }

    #[test]
    fn memory_follows_touched_blocks_not_n() {
        let n = 1 << 20;
        let mut s = QueryScratch::new();
        s.begin(n);
        assert_eq!(s.block.len(), n / BLOCK);
        let b = 37;
        // Distinct blocks across the whole id range (7919 is coprime with
        // the 2^14 blocks), at a different offset inside each.
        let nodes: Vec<NodeId> = (0..b)
            .map(|i| ((i * 7919 % (n / BLOCK)) * BLOCK + i % BLOCK) as NodeId)
            .collect();
        for (i, &v) in nodes.iter().enumerate() {
            s.set_dist(v, i as Dist);
            // A second write into the same block takes no new chunk.
            s.set_dist(v ^ 1, i as Dist + 1);
        }
        assert_eq!(
            s.chunks.len(),
            b + 1,
            "one chunk per touched block plus chunk 0"
        );
        assert_eq!(s.used.len(), b);
        for (i, &v) in nodes.iter().enumerate() {
            assert_eq!(s.dist(v), i as Dist);
        }
        assert_eq!(s.dist(nodes[0] + BLOCK as NodeId), INF);
        // A warm scratch keeps its chunk capacity across begin.
        s.begin(n);
        assert_clean(&s, n);
        assert!(s.chunks.capacity() > b);

        // A final partial block: n = 64k + 1.
        let n = 5 * BLOCK + 1;
        let mut s = QueryScratch::new();
        s.begin(n);
        assert_eq!(s.block.len(), 6);
        let last = (n - 1) as NodeId;
        assert_eq!(s.dist(last), INF);
        s.set_dist(last, 11);
        assert_eq!(s.dist(last), 11);
        assert_eq!(s.dist(last - 1), INF);
        assert_eq!(s.used, vec![5]);
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
