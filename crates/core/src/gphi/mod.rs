//! The flexible aggregate function `g_phi(p, Q)` (Definition 1) and its
//! backends (Table I).
//!
//! Key fact exploited throughout (§III-C, "Revisitation of `g_phi(p, Q)`"):
//! for both `sum` and `max`, the optimal flexible subset for a fixed `p` is
//! exactly the `k = ceil(phi |Q|)` query points nearest to `p` in network
//! distance — so every backend is a kNN routine from `p` over `Q`, followed
//! by aggregation. Backends differ in how they find those k neighbors:
//!
//! | Table I name | type | construction |
//! |---|---|---|
//! | INE        | [`ine::InePhi`]           | incremental network expansion |
//! | A\*        | [`scan::ScanPhi`] over [`oracle::AStarOracle`] | per-pair A\* |
//! | PHL        | [`scan::ScanPhi`] over [`oracle::GuardedLabelOracle`] | hub-label lookups |
//! | GTree      | [`gtree_knn::GTreeKnnPhi`] | occurrence-list kNN |
//! | IER-A\*    | [`ier2::IerPhi`] over [`oracle::AStarOracle`] | R-tree on `Q` + A\* |
//! | IER-GTree  | [`ier2::IerPhi`] over [`oracle::GTreeOracle`] | R-tree on `Q` + G-tree |
//! | IER-PHL    | [`ier2::IerPhi`] over [`oracle::GuardedLabelOracle`] | R-tree on `Q` + labels |
//!
//! A backend is constructed once per query (capturing the graph, `Q`, and
//! any index) and then evaluated for many candidate points `p`.
//! [`counting::CountingPhi`] wraps any backend to count invocations — the
//! quantity the paper's pruning arguments (§III) are about.

pub mod counting;
pub mod gtree_knn;
pub mod ier2;
pub mod ine;
pub mod oracle;
pub mod scan;

use crate::Aggregate;
use roadnet::{Dist, NodeId};

/// Result of `g_phi(p, Q)`: the flexible aggregate distance `d^p` and the
/// optimal flexible subset `Q^p_phi` with per-member distances, sorted
/// ascending by distance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GPhiResult {
    pub dist: Dist,
    pub subset: Vec<(NodeId, Dist)>,
}

impl GPhiResult {
    /// Build from the k nearest query points (ascending by distance).
    pub fn from_knn(knn: Vec<(NodeId, Dist)>, agg: Aggregate) -> Self {
        let dists: Vec<Dist> = knn.iter().map(|&(_, d)| d).collect();
        GPhiResult {
            dist: agg.of_sorted(&dists),
            subset: knn,
        }
    }

    /// Member node ids only.
    pub fn subset_nodes(&self) -> Vec<NodeId> {
        self.subset.iter().map(|&(n, _)| n).collect()
    }
}

/// A backend for the flexible aggregate function.
///
/// `eval` returns `None` when fewer than `k` query points are reachable
/// from `p` (the flexible subset cannot be formed).
pub trait GPhi {
    /// Evaluate `g_phi(p, Q)` with subset size `k` and aggregate `agg`.
    fn eval(&self, p: NodeId, k: usize, agg: Aggregate) -> Option<GPhiResult>;

    /// Short backend name as used in the paper's figures ("INE", "PHL", ...).
    fn name(&self) -> &'static str;
}

/// A backend that can be *repointed* at a new query set without rebuilding
/// its internal buffers — the contract the batch engine relies on to keep
/// one long-lived backend per worker across a whole query stream.
///
/// After `rebind(q)`, the backend must answer exactly as a freshly
/// constructed backend over `q` would (the scratch-reuse soundness property
/// checked in `tests/properties.rs`).
pub trait ReusableGPhi: GPhi {
    /// Repoint at a new query set `Q`. `O(|Q_old| + |Q_new|)`; no
    /// graph-sized work.
    fn rebind(&mut self, q: &[NodeId]);
}

/// Select the `k` smallest `(node, dist)` pairs from an unsorted iterator,
/// ascending. Returns `None` if fewer than `k` finite entries exist.
pub(crate) fn select_k_smallest<I>(iter: I, k: usize) -> Option<Vec<(NodeId, Dist)>>
where
    I: IntoIterator<Item = (NodeId, Dist)>,
{
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<(Dist, NodeId)> = BinaryHeap::new();
    for (n, d) in iter {
        if d == roadnet::INF {
            continue;
        }
        if heap.len() < k {
            heap.push((d, n));
        } else if let Some(&(worst, _)) = heap.peek() {
            if d < worst {
                heap.pop();
                heap.push((d, n));
            }
        }
    }
    if heap.len() < k {
        return None;
    }
    let mut v: Vec<(NodeId, Dist)> = heap.into_iter().map(|(d, n)| (n, d)).collect();
    v.sort_by_key(|&(n, d)| (d, n));
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_k_smallest_basic() {
        let items = vec![(0u32, 5u64), (1, 2), (2, 9), (3, 1), (4, 7)];
        let got = select_k_smallest(items, 3).unwrap();
        assert_eq!(got, vec![(3, 1), (1, 2), (0, 5)]);
    }

    #[test]
    fn select_k_smallest_skips_inf() {
        let items = vec![(0u32, roadnet::INF), (1, 2)];
        assert_eq!(select_k_smallest(items.clone(), 1).unwrap(), vec![(1, 2)]);
        assert_eq!(select_k_smallest(items, 2), None);
    }

    #[test]
    fn select_k_smallest_insufficient() {
        let items = vec![(0u32, 1u64)];
        assert_eq!(select_k_smallest(items, 2), None);
    }

    #[test]
    fn gphi_result_from_knn() {
        let knn = vec![(7u32, 3u64), (9, 5)];
        let r = GPhiResult::from_knn(knn.clone(), Aggregate::Sum);
        assert_eq!(r.dist, 8);
        let r = GPhiResult::from_knn(knn, Aggregate::Max);
        assert_eq!(r.dist, 5);
        assert_eq!(r.subset_nodes(), vec![7, 9]);
    }
}
