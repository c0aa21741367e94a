//! `g_phi` via incremental network expansion (INE).
//!
//! As observed in §III-C ("Revisitation of `g_phi(p, Q)`"), evaluating
//! `g_phi(p, Q)` *is* an INE/kNN query with `p` as source and `Q` as the
//! object set: expand Dijkstra from `p` and stop as soon as `k = phi|Q|`
//! query points are settled. Index-free — the backend of the paper's
//! `Baseline` and the default `g_phi` of the index-free experiments
//! (Fig. 4b).

use super::{GPhi, GPhiResult, ReusableGPhi};
use crate::metrics::Recorder;
use crate::Aggregate;
use roadnet::cancel::CancelCheck;
use roadnet::{DijkstraIter, Graph, NodeId, QueryScratch};
use std::cell::RefCell;

/// INE backend: captures the graph and a membership mask over `Q`.
///
/// The backend owns a recycled [`QueryScratch`], so successive `eval` calls
/// (GD probes many candidate points per query) are allocation-free, and
/// [`ReusableGPhi::rebind`] repoints it at a new `Q` in `O(|Q|)`. The `R`
/// parameter is a [`Recorder`] instrumentation hook; `C` is a
/// [`CancelCheck`] cancellation hook. The default `()` for both
/// records/cancels nothing and costs nothing.
///
/// The backend holds its own [`Graph`] handle (cheap: a CSR graph clone
/// shares its arrays), so it has no lifetime tie to the caller. A worker
/// that outlives snapshots keeps only the [`IneBuffers`] between queries
/// and builds the backend per query ([`IneBuffers::with`]).
///
/// A cancelled `eval` returns `None`, indistinguishable here from an
/// exhausted expansion — cancellable drivers re-check the token exactly
/// before trusting any `None`.
pub struct InePhi<R: Recorder = (), C: CancelCheck = ()> {
    graph: Graph,
    is_query: Vec<bool>,
    q_nodes: Vec<NodeId>,
    scratch: RefCell<QueryScratch>,
    rec: R,
    cancel: C,
}

/// The graph-free buffers of an [`InePhi`]: the `Q` membership mask (all
/// clear while idle) and the expansion scratch. Tied to no snapshot and
/// no `(R, C)` instantiation, so one worker keeps a single set across its
/// whole query stream and lends it to a backend per query
/// ([`IneBuffers::with`]) — the `with_pool … recycle_into` idiom of
/// [`roadnet::ObjectStreams`], for `g_phi`.
#[derive(Debug, Default)]
pub struct IneBuffers {
    is_query: Vec<bool>,
    scratch: QueryScratch,
}

impl InePhi {
    pub fn new(graph: &Graph, q: &[NodeId]) -> Self {
        Self::with_recorder(graph, q, ())
    }
}

impl<R: Recorder> InePhi<R> {
    /// [`InePhi::new`] with a live [`Recorder`] observing every expansion
    /// step and `g_phi` evaluation.
    pub fn with_recorder(graph: &Graph, q: &[NodeId], rec: R) -> Self {
        Self::with_recorder_cancel(graph, q, rec, ())
    }
}

impl<R: Recorder, C: CancelCheck> InePhi<R, C> {
    /// [`InePhi::with_recorder`] with a live [`CancelCheck`] polled by
    /// every expansion; the `()` check makes this identical to the
    /// uncancellable path.
    pub fn with_recorder_cancel(graph: &Graph, q: &[NodeId], rec: R, cancel: C) -> Self {
        Self::with_buffers(graph, q, rec, cancel, IneBuffers::default())
    }

    /// [`InePhi::with_recorder_cancel`] over recycled buffers: no
    /// graph-sized allocation once they have grown to `|V|`.
    fn with_buffers(graph: &Graph, q: &[NodeId], rec: R, cancel: C, buffers: IneBuffers) -> Self {
        let IneBuffers {
            mut is_query,
            scratch,
        } = buffers;
        if is_query.len() != graph.num_nodes() {
            is_query = vec![false; graph.num_nodes()];
        }
        let mut ine = InePhi {
            graph: graph.clone(),
            is_query,
            q_nodes: Vec::new(),
            scratch: RefCell::new(scratch),
            rec,
            cancel,
        };
        ine.rebind(q);
        ine
    }

    /// Tear the backend down to its buffers (mask cleared in `O(|Q|)`).
    fn into_buffers(mut self) -> IneBuffers {
        self.rebind(&[]);
        IneBuffers {
            is_query: self.is_query,
            scratch: self.scratch.into_inner(),
        }
    }
}

impl IneBuffers {
    /// Run `f` with an [`InePhi`] over `q` built on these buffers, taking
    /// them back when `f` returns — the per-query step of a worker that
    /// keeps one set of buffers for its whole query stream.
    pub fn with<R: Recorder, C: CancelCheck, T>(
        &mut self,
        graph: &Graph,
        q: &[NodeId],
        rec: R,
        cancel: C,
        f: impl FnOnce(&InePhi<R, C>) -> T,
    ) -> T {
        let gphi = InePhi::with_buffers(graph, q, rec, cancel, std::mem::take(self));
        let out = f(&gphi);
        *self = gphi.into_buffers();
        out
    }
}

impl<R: Recorder, C: CancelCheck> GPhi for InePhi<R, C> {
    fn eval(&self, p: NodeId, k: usize, agg: Aggregate) -> Option<GPhiResult> {
        assert!(k >= 1 && k <= self.q_nodes.len(), "invalid subset size {k}");
        self.rec.gphi_eval();
        let mut subset = Vec::with_capacity(k);
        let mut it =
            DijkstraIter::cancellable(&self.graph, p, self.scratch.take(), self.rec, self.cancel);
        for (v, d) in it.by_ref() {
            if self.is_query[v as usize] {
                subset.push((v, d));
                if subset.len() == k {
                    break;
                }
            }
        }
        // Hand the buffers back for the next eval before returning.
        self.scratch.replace(it.into_scratch());
        if subset.len() == k {
            Some(GPhiResult::from_knn(subset, agg))
        } else {
            None // expansion exhausted before finding k query points
        }
    }

    fn name(&self) -> &'static str {
        "INE"
    }
}

impl<R: Recorder, C: CancelCheck> ReusableGPhi for InePhi<R, C> {
    fn rebind(&mut self, q: &[NodeId]) {
        for &old in &self.q_nodes {
            self.is_query[old as usize] = false;
        }
        let n = self.graph.num_nodes();
        for &p in q {
            assert!((p as usize) < n, "query node {p} out of range (n = {n})");
            self.is_query[p as usize] = true;
        }
        self.q_nodes.clear();
        self.q_nodes.extend_from_slice(q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::GraphBuilder;

    /// Path 0-1-2-3-4, unit weights.
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
    fn finds_k_nearest_query_points() {
        let g = path5();
        let q = [0u32, 3, 4];
        let phi = InePhi::new(&g, &q);
        // From node 2: distances to Q are {0: 2, 3: 1, 4: 2}.
        let r = phi.eval(2, 2, Aggregate::Sum).unwrap();
        assert_eq!(r.dist, 3); // 1 + 2
        assert_eq!(r.subset[0], (3, 1));
        assert_eq!(r.subset[1].1, 2); // either node 0 or 4 at distance 2
        let r = phi.eval(2, 2, Aggregate::Max).unwrap();
        assert_eq!(r.dist, 2);
    }

    #[test]
    fn full_subset_when_k_equals_q() {
        let g = path5();
        let q = [0u32, 4];
        let phi = InePhi::new(&g, &q);
        let r = phi.eval(1, 2, Aggregate::Sum).unwrap();
        assert_eq!(r.dist, 1 + 3);
    }

    #[test]
    fn p_on_query_point_counts_at_zero() {
        let g = path5();
        let q = [2u32, 4];
        let phi = InePhi::new(&g, &q);
        let r = phi.eval(2, 1, Aggregate::Max).unwrap();
        assert_eq!(r.dist, 0);
        assert_eq!(r.subset, vec![(2, 0)]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        let g = b.build();
        let q = [1u32, 2];
        let phi = InePhi::new(&g, &q);
        assert!(phi.eval(0, 2, Aggregate::Sum).is_none());
        assert!(phi.eval(0, 1, Aggregate::Sum).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid subset size")]
    fn rejects_k_zero() {
        let g = path5();
        let q = [0u32];
        let _ = InePhi::new(&g, &q).eval(1, 0, Aggregate::Sum);
    }

    #[test]
    fn rebind_matches_fresh_backend() {
        let g = path5();
        let mut phi = InePhi::new(&g, &[0u32, 3, 4]);
        phi.rebind(&[1, 2]);
        let fresh = InePhi::new(&g, &[1u32, 2]);
        for p in 0..5 {
            for k in 1..=2 {
                assert_eq!(
                    phi.eval(p, k, Aggregate::Sum),
                    fresh.eval(p, k, Aggregate::Sum),
                    "mismatch at p={p}, k={k}"
                );
            }
        }
    }

    #[test]
    fn recycled_buffers_match_fresh_backend() {
        let g = path5();
        let mut buffers = IneBuffers::default();
        for q in [&[0u32, 3, 4][..], &[1, 2], &[4]] {
            let fresh = InePhi::new(&g, q);
            buffers.with(&g, q, (), (), |recycled| {
                for p in 0..5 {
                    for k in 1..=q.len() {
                        assert_eq!(
                            recycled.eval(p, k, Aggregate::Sum),
                            fresh.eval(p, k, Aggregate::Sum),
                            "mismatch at q={q:?}, p={p}, k={k}"
                        );
                    }
                }
            });
            assert!(buffers.is_query.iter().all(|&b| !b), "mask left dirty");
        }
    }

    #[test]
    fn repeated_evals_reuse_scratch() {
        let g = path5();
        let q = [0u32, 4];
        let phi = InePhi::new(&g, &q);
        // Same eval twice must be identical (scratch fully reset between).
        let a = phi.eval(2, 2, Aggregate::Sum);
        let b = phi.eval(2, 2, Aggregate::Sum);
        assert_eq!(a, b);
    }
}
