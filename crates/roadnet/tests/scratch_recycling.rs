//! Property test: a recycled [`QueryScratch`] is as good as a fresh one.
//!
//! One scratch is threaded through a random sequence of [`DijkstraIter`]
//! searches — run to the end, abandoned midway, or started on a
//! pre-cancelled token — over three graphs of different sizes, so it is
//! reset after a partial search and reused on both a smaller and a larger
//! graph than its last one. Every search must yield the same `(node, dist)`
//! sequence and the same work counts as the same search on a fresh scratch.

use proptest::prelude::*;
use roadnet::{
    CancelToken, DijkstraIter, Dist, Graph, GraphBuilder, NodeId, QueryScratch, SearchRecorder,
};
use std::cell::Cell;

/// A random graph on `n` nodes: a random spanning forest (each node links
/// to an earlier one unless the coin says otherwise, so some graphs have
/// several components) plus `extra` random edges.
fn graph(n: usize, extra: usize, seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node((i % 7) as f64, (i / 7) as f64);
    }
    for v in 1..n as u32 {
        if next() % 8 != 0 {
            let u = (next() % v as u64) as u32;
            b.add_edge(u, v, 1 + (next() % 20) as u32);
        }
    }
    for _ in 0..extra {
        let u = (next() % n as u64) as u32;
        let v = (next() % n as u64) as u32;
        b.add_edge(u, v, (next() % 20) as u32);
    }
    b.build()
}

/// Small, medium and large graphs: one block of the scratch's 64-node
/// block table, up to two, and up to seven, so a reset must clear several
/// used slots.
fn arb_graphs() -> impl Strategy<Value = [Graph; 3]> {
    (4usize..12, 12usize..90, 90usize..400, any::<u64>()).prop_map(|(a, b, c, seed)| {
        [
            graph(a, a / 2, seed),
            graph(b, b, seed.rotate_left(21)),
            graph(c, 2 * c, seed.rotate_left(42)),
        ]
    })
}

/// How one search of the sequence ends.
#[derive(Debug, Clone, Copy)]
enum End {
    Exhausted,
    AbandonedAfter(usize),
    PreCancelled,
}

/// One search: which graph, a source seed, and how it ends.
fn arb_searches() -> impl Strategy<Value = Vec<(usize, u32, End)>> {
    prop::collection::vec(
        (0usize..3, any::<u32>(), 0u32..3, 0usize..30).prop_map(|(g, src, mode, k)| {
            let end = match mode {
                0 => End::Exhausted,
                1 => End::AbandonedAfter(k),
                _ => End::PreCancelled,
            };
            (g, src, end)
        }),
        1..24,
    )
}

#[derive(Default)]
struct Counts {
    settled: Cell<u64>,
    pushes: Cell<u64>,
    pops: Cell<u64>,
    relaxed: Cell<u64>,
}

impl Counts {
    fn get(&self) -> [u64; 4] {
        [
            self.settled.get(),
            self.pushes.get(),
            self.pops.get(),
            self.relaxed.get(),
        ]
    }
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl SearchRecorder for &Counts {
    fn node_settled(self) {
        bump(&self.settled);
    }
    fn heap_push(self) {
        bump(&self.pushes);
    }
    fn heap_pop(self) {
        bump(&self.pops);
    }
    fn edge_relaxed(self) {
        bump(&self.relaxed);
    }
}

/// Run one search on `scratch`; return what it yielded, its counts and
/// the scratch.
fn search(
    g: &Graph,
    source: NodeId,
    end: End,
    scratch: QueryScratch,
) -> (Vec<(NodeId, Dist)>, [u64; 4], QueryScratch) {
    let counts = Counts::default();
    let token = CancelToken::new();
    if let End::PreCancelled = end {
        token.cancel();
    }
    let mut it = DijkstraIter::cancellable(g, source, scratch, &counts, &token);
    let take = match end {
        End::AbandonedAfter(k) => k,
        _ => usize::MAX,
    };
    let seq: Vec<_> = it.by_ref().take(take).collect();
    assert_eq!(it.was_cancelled(), matches!(end, End::PreCancelled));
    (seq, counts.get(), it.into_scratch())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn recycled_scratch_matches_fresh(graphs in arb_graphs(), searches in arb_searches()) {
        let mut recycled = QueryScratch::new();
        for (i, &(gi, src, end)) in searches.iter().enumerate() {
            let g = &graphs[gi];
            let source = src % g.num_nodes() as u32;
            let (want, want_counts, _) = search(g, source, end, QueryScratch::new());
            let (got, got_counts, scratch) = search(g, source, end, recycled);
            recycled = scratch;
            prop_assert_eq!(&got, &want, "search {} ({:?}) on graph {}", i, end, gi);
            prop_assert_eq!(got_counts, want_counts, "counts of search {}", i);
        }
    }
}
