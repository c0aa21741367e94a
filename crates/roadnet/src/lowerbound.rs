//! Admissible Euclidean lower bounds on network distance.
//!
//! For A* (and the Euclidean restriction in IER, §III-C) we need
//! `lb(u, v) <= delta(u, v)` for all node pairs. If every edge satisfies
//! `w(u, v) >= s * euclid(u, v)`, then by the triangle inequality every path
//! satisfies the same, so `s * euclid(u, v)` is a valid lower bound on the
//! shortest path. [`LowerBound::for_graph`] returns the largest such `s`
//! (capped at the value implied by the data; graphs from our generators have
//! `s = 1` by construction, imported graphs may need `s < 1`).
//!
//! The scale is computed once per graph, when the [`Graph`] value is
//! constructed (built or loaded), and stored on it, so `for_graph` is an
//! O(1) read and no query walks the edges. A weight-patched sibling folds
//! its patched edges into the parent's scale and rescans only when an edge
//! that attained the minimum got heavier.

use crate::graph::{Graph, NodeId};
use crate::Dist;

/// A scaled-Euclidean lower bound `lb(u, v) = floor(scale * euclid(u, v))`.
#[derive(Debug, Clone, Copy)]
pub struct LowerBound {
    scale: f64,
}

impl LowerBound {
    /// A lower bound with an explicit scale. `scale` must be non-negative.
    pub fn with_scale(scale: f64) -> Self {
        assert!(scale >= 0.0 && scale.is_finite(), "invalid scale {scale}");
        LowerBound { scale }
    }

    /// The trivial (always-zero) bound; degrades A* to Dijkstra.
    pub fn zero() -> Self {
        LowerBound { scale: 0.0 }
    }

    /// Largest admissible scale for `g`: `min_e w(e) / euclid(e)` over all
    /// edges with positive Euclidean length. Edges of zero geometric length
    /// impose no constraint. Returns the zero bound for an edgeless graph.
    /// O(1): the minimum was taken when `g` was constructed.
    pub fn for_graph(g: &Graph) -> Self {
        let scale = g.lb_scale();
        if !scale.is_finite() {
            return LowerBound::zero();
        }
        // Nudge down to absorb floating-point error in euclid().
        LowerBound {
            scale: scale * (1.0 - 1e-12),
        }
    }

    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Lower bound on `delta(u, v)` as an integer distance.
    #[inline]
    pub fn bound(&self, g: &Graph, u: NodeId, v: NodeId) -> Dist {
        (self.scale * g.euclid(u, v)).floor().max(0.0) as Dist
    }

    /// Lower bound from a raw Euclidean distance (used with R-tree MBR
    /// `mindist` values, which are geometric, not node-to-node).
    #[inline]
    pub fn bound_euclid(&self, euclid: f64) -> Dist {
        (self.scale * euclid).floor().max(0.0) as Dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_all;
    use crate::graph::GraphBuilder;

    fn skewed() -> Graph {
        // Edge 0-1 has weight 5 but Euclidean length 10: scale must be <= 0.5.
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        b.add_node(10.0, 0.0);
        b.add_node(10.0, 10.0);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 20);
        b.build()
    }

    #[test]
    fn scale_is_min_weight_ratio() {
        let g = skewed();
        let lb = LowerBound::for_graph(&g);
        assert!((lb.scale() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn bound_is_admissible_for_all_pairs() {
        let g = skewed();
        let lb = LowerBound::for_graph(&g);
        for s in 0..3 {
            let d = dijkstra_all(&g, s);
            for t in 0..3 {
                if d[t as usize] != crate::INF {
                    assert!(lb.bound(&g, s, t) <= d[t as usize], "lb({s},{t}) > delta");
                }
            }
        }
    }

    #[test]
    fn zero_bound_is_zero() {
        let g = skewed();
        let lb = LowerBound::zero();
        assert_eq!(lb.bound(&g, 0, 2), 0);
    }

    #[test]
    fn edgeless_graph_gets_zero_bound() {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        b.add_node(1.0, 1.0);
        let g = b.build();
        let lb = LowerBound::for_graph(&g);
        assert_eq!(lb.scale(), 0.0);
    }

    #[test]
    fn all_zero_length_edges_get_zero_bound() {
        // Coincident endpoints impose no constraint, so no edge bounds
        // the scale, before or after a weight patch.
        let mut b = GraphBuilder::new();
        b.add_node(2.0, 3.0);
        b.add_node(2.0, 3.0);
        b.add_node(2.0, 3.0);
        b.add_edge(0, 1, 4);
        b.add_edge(1, 2, 9);
        let g = b.build();
        assert_eq!(LowerBound::for_graph(&g).scale(), 0.0);
        let patched = g.with_patched_weights(&[(0, 1, 1)]).unwrap();
        assert_eq!(LowerBound::for_graph(&patched).scale(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid scale")]
    fn negative_scale_rejected() {
        LowerBound::with_scale(-1.0);
    }
}
