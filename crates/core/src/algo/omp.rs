//! Optimal meeting point (OMP) queries as a special case of FANN_R.
//!
//! The paper (§I) observes that the OMP query of Yan et al. \[5\] — find
//! the point minimizing the aggregate distance to `Q`, with the candidate
//! set *not* given in advance — reduces to FANN_R: by \[5\], \[10\] the set
//! `V ∪ Q` always contains an optimal meeting point, so `P = V` (query
//! points are vertices in our model, §II-A). This module exploits the
//! implicit `P` for a direct `O(|Q| x Dijkstra)` evaluation instead of
//! enumerating an explicit candidate list, and also supports the flexible
//! variant (meet any `ceil(phi |Q|)` of the participants).

use crate::{Aggregate, FannAnswer, FannQuery};
use roadnet::dijkstra::dijkstra_all;
use roadnet::{Dist, Graph, NodeId, INF};

/// Classic OMP: the vertex minimizing `g(v, Q)` over **all** vertices.
/// `None` when no vertex reaches all of `Q`.
pub fn omp(g: &Graph, q: &[NodeId], agg: Aggregate) -> Option<(NodeId, Dist)> {
    assert!(!q.is_empty(), "Q must be non-empty");
    let mut acc: Vec<Dist> = vec![0; g.num_nodes()];
    for &qn in q {
        let d = dijkstra_all(g, qn);
        for (v, a) in acc.iter_mut().enumerate() {
            *a = match agg {
                Aggregate::Sum => a.saturating_add(d[v]),
                Aggregate::Max => (*a).max(d[v]),
            };
        }
    }
    acc.iter()
        .copied()
        .enumerate()
        .filter(|&(_, a)| a != INF)
        .min_by_key(|&(v, a)| (a, v))
        .map(|(v, a)| (v as NodeId, a))
}

/// Flexible OMP: the vertex minimizing the aggregate over its best
/// `ceil(phi |Q|)` participants, counted exactly by [`crate::flex_k`] (an
/// FANN_R query with implicit `P = V`).
///
/// Returns the winning vertex, the chosen participants sorted by distance,
/// and the aggregate — an [`FannAnswer`] for API uniformity.
pub fn flexible_omp(g: &Graph, q: &[NodeId], phi: f64, agg: Aggregate) -> Option<FannAnswer> {
    let k = crate::flex_k(phi, q.len());

    // Per-vertex bounded max-heap of the k smallest (dist, q) pairs.
    // Memory O(|V| k): fine at road-network scale for the k values OMP
    // uses; the general algorithms in this crate avoid it for huge k.
    let mut best: Vec<Vec<(Dist, NodeId)>> = vec![Vec::with_capacity(k); g.num_nodes()];
    for &qn in q {
        let d = dijkstra_all(g, qn);
        for (v, heap) in best.iter_mut().enumerate() {
            let dv = d[v];
            if dv == INF {
                continue;
            }
            if heap.len() < k {
                heap.push((dv, qn));
                if heap.len() == k {
                    heap.sort_unstable();
                }
            } else if dv < heap[k - 1].0 {
                heap[k - 1] = (dv, qn);
                heap.sort_unstable();
            }
        }
    }
    let mut winner: Option<(Dist, NodeId)> = None;
    for (v, heap) in best.iter().enumerate() {
        if heap.len() < k {
            continue;
        }
        let mut sorted = heap.clone();
        sorted.sort_unstable();
        let ds: Vec<Dist> = sorted.iter().map(|&(d, _)| d).collect();
        let a = agg.of_sorted(&ds);
        if winner.is_none_or(|(w, _)| a < w) {
            winner = Some((a, v as NodeId));
        }
    }
    let (dist, v) = winner?;
    let mut subset = best[v as usize].clone();
    subset.sort_unstable();
    Some(FannAnswer {
        p_star: v,
        subset: subset.into_iter().map(|(_, qn)| qn).collect(),
        dist,
    })
}

/// Cross-check helper: flexible OMP expressed as an explicit FANN_R query
/// with `P = V` (used by tests; quadratic-ish, not for production).
pub fn flexible_omp_reference(
    g: &Graph,
    q: &[NodeId],
    phi: f64,
    agg: Aggregate,
) -> Option<FannAnswer> {
    let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    let query = FannQuery::new(&all, q, phi, agg);
    crate::algo::brute::brute_force(g, &query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::GraphBuilder;

    fn grid(w: u32, h: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..h {
            for x in 0..w {
                b.add_node(x as f64, y as f64);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 1 + (x + y) % 3);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + (x * y) % 4);
                }
            }
        }
        b.build()
    }

    #[test]
    fn omp_matches_flexible_with_phi_one() {
        let g = grid(6, 5);
        let q = [0u32, 11, 23, 29];
        for agg in [Aggregate::Sum, Aggregate::Max] {
            let (v, d) = omp(&g, &q, agg).unwrap();
            let f = flexible_omp(&g, &q, 1.0, agg).unwrap();
            assert_eq!(f.dist, d);
            assert_eq!(f.p_star, v);
        }
    }

    #[test]
    fn flexible_omp_matches_reference() {
        // The second case is one where the naive `ceil(phi * |Q|)` takes
        // 8 members for phi = 7/25 instead of 7.
        let all: Vec<u32> = (0..25).collect();
        let cases: [(Graph, &[u32], &[f64]); 2] = [
            (grid(5, 5), &[2, 12, 20, 24], &[0.25, 0.5, 0.75, 1.0]),
            (grid(6, 5), &all, &[7.0 / 25.0]),
        ];
        for (g, q, phis) in &cases {
            for &phi in *phis {
                for agg in [Aggregate::Sum, Aggregate::Max] {
                    let fast = flexible_omp(g, q, phi, agg).unwrap();
                    let slow = flexible_omp_reference(g, q, phi, agg).unwrap();
                    assert_eq!(fast.dist, slow.dist, "phi={phi} {agg}");
                    assert_eq!(fast.subset.len(), slow.subset.len(), "phi={phi} {agg}");
                }
            }
        }
    }

    #[test]
    fn omp_of_single_point_is_itself() {
        let g = grid(4, 4);
        let q = [9u32];
        assert_eq!(omp(&g, &q, Aggregate::Sum), Some((9, 0)));
        assert_eq!(omp(&g, &q, Aggregate::Max), Some((9, 0)));
    }

    #[test]
    fn meeting_point_beats_every_query_point() {
        // The optimum is at least as good as meeting at any participant.
        let g = grid(7, 7);
        let q = [0u32, 6, 42, 48];
        let (_, d) = omp(&g, &q, Aggregate::Sum).unwrap();
        for &qn in &q {
            let from_q: Dist = q
                .iter()
                .map(|&o| roadnet::dijkstra::dijkstra_all(&g, qn)[o as usize])
                .sum();
            assert!(d <= from_q);
        }
    }

    #[test]
    fn disconnected_omp_none_but_flexible_works() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        b.add_edge(3, 4, 1);
        b.add_edge(4, 5, 1);
        let g = b.build();
        let q = [0u32, 5];
        // No vertex reaches both participants...
        assert_eq!(omp(&g, &q, Aggregate::Sum), None);
        // ...but half of them can always be met (at a participant).
        let f = flexible_omp(&g, &q, 0.5, Aggregate::Sum).unwrap();
        assert_eq!(f.dist, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_q() {
        let g = grid(2, 2);
        let _ = omp(&g, &[], Aggregate::Sum);
    }
}
